"""Tests for the command-line interface (fast paths only)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.loader import database_from_edges, write_edge_file


@pytest.fixture
def edge_file(tmp_path):
    """A tiny edge-list file (K4) the CLI can load."""
    db = database_from_edges([(a, b) for a in range(4) for b in range(4) if a != b])
    path = tmp_path / "k4.txt"
    write_edge_file(db, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_arguments(self):
        args = build_parser().parse_args(
            ["count", "--query", "Edge(x, y)", "--epsilon", "0.5", "--method", "elastic"]
        )
        assert args.command == "count"
        assert args.epsilon == 0.5
        assert args.method == "elastic"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--datasets", "NotADataset"])

    def test_negative_parallelism_rejected_at_parse_time(self, capsys):
        """``--parallelism`` is gone, so any value is an argparse error."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--parallelism", "-1", "--port", "0"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --parallelism -1" in capsys.readouterr().err

    def test_removed_knobs_stay_gone(self, capsys):
        """Each request runs on the thread that received it, every request
        is instrumented, and every served release is calibrated to residual
        sensitivity: no module fans work out to a pool, and no entry point
        or CLI flag sizes one, turns observability off or picks a method.
        Recovery has no state model of its own: the live managers apply
        every journal record.  A charge is folded once its release exists,
        so no ledger refunds, settles or removes one."""
        import ast
        import inspect
        from pathlib import Path

        import repro
        import repro.service
        import repro.service.persistence
        from repro.engine.profile import evaluate_profile
        from repro.mechanisms.accountant import PrivacyAccountant
        from repro.mechanisms.mechanism import PrivateCountingQuery
        from repro.obs.tracing import Tracer
        from repro.sensitivity.residual import ResidualSensitivity
        from repro.service.executor import BatchExecutor, BatchRequest
        from repro.service.persistence import LedgerJournal
        from repro.service.service import CountResponse, PrivateQueryService
        from repro.service.sessions import SessionManager

        root = Path(repro.__file__).parent
        importers = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.startswith("concurrent.futures") for name in names):
                    importers.append(path.relative_to(root).as_posix())
        assert importers == []

        for entry in (
            evaluate_profile,
            ResidualSensitivity,
            PrivateCountingQuery,
            PrivateQueryService,
            PrivateQueryService.batch,
            BatchExecutor,
        ):
            parameters = set(inspect.signature(entry).parameters)
            assert not {"parallelism", "max_workers"} & parameters, entry.__qualname__
        assert "observability" not in inspect.signature(PrivateQueryService).parameters
        for attribute in ("set_observability", "observability_enabled"):
            assert not hasattr(PrivateQueryService, attribute), attribute
        assert list(inspect.signature(Tracer).parameters) == []
        for entry, removed in (
            (PrivateQueryService.count, {"method"}),
            (PrivateQueryService.batch, {"method"}),
            (BatchRequest, {"method"}),
            (CountResponse, {"method", "details"}),
            (PrivateCountingQuery, {"star_arity", "edge_relation"}),
            (ResidualSensitivity, {"k_max"}),
            (PrivacyAccountant.restore_ledger, {"settled"}),
        ):
            parameters = set(inspect.signature(entry).parameters)
            assert not removed & parameters, entry.__qualname__
        for module, removed in (
            (repro.service, ("RecoveredState", "RecoveredSession")),
            (repro.service.persistence, ("RecoveredState", "RecoveredSession", "replay_records")),
        ):
            for name in removed:
                assert not hasattr(module, name), name
                assert name not in module.__all__, name
        assert not hasattr(LedgerJournal, "repair_torn_tail")
        for owner, removed in (
            (PrivacyAccountant, ("refund", "remove_charge", "settle", "settle_all")),
            (SessionManager, ("settle_all",)),
        ):
            for name in removed:
                assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert "rollback" not in repro.service.persistence.EVENTS

        for argv in (
            ["count", "--query", "Edge(x, y)", "--parallelism", "2"],
            ["sensitivity", "--query", "Edge(x, y)", "--parallelism", "2"],
            ["serve", "--port", "0", "--parallelism", "2"],
            ["batch", "--requests", "r.json", "--parallelism", "2"],
            ["batch", "--requests", "r.json", "--max-workers", "2"],
            ["serve", "--port", "0", "--no-observability"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2, argv
            flag = [arg for arg in argv if arg.startswith("--")][-1]
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestCommands:
    def test_count_on_edge_file(self, edge_file, capsys):
        code = main(
            [
                "count",
                "--edge-file",
                str(edge_file),
                "--query",
                "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
                "--epsilon",
                "1.0",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "noisy count" in output
        assert "residual" in output

    def test_sensitivity_on_edge_file(self, edge_file, capsys):
        code = main(
            [
                "sensitivity",
                "--edge-file",
                str(edge_file),
                "--query",
                "Edge(x, y), Edge(y, z)",
                "--beta",
                "0.2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "residual sensitivity" in output
        assert "elastic sensitivity" in output

    def test_invalid_query_returns_error_code(self, edge_file, capsys):
        code = main(
            ["count", "--edge-file", str(edge_file), "--query", "Edge(x, y", "--epsilon", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nonfull_command(self, capsys):
        assert main(["nonfull"]) == 0
        assert "Theorem 6.4" in capsys.readouterr().out

    def test_example3_command(self, capsys):
        assert main(["example3"]) == 0
        assert "Example 3" in capsys.readouterr().out

    def test_generate_command(self, tmp_path, capsys):
        output = tmp_path / "grqc.txt"
        code = main(
            ["generate", "--dataset", "GrQc", "--output", str(output), "--scale", "0.01"]
        )
        assert code == 0
        assert output.exists()
        assert "wrote" in capsys.readouterr().out

    def test_scaling_command(self, capsys):
        assert main(["scaling", "--sizes", "30", "40"]) == 0
        assert "nodes" in capsys.readouterr().out


class TestJsonOutput:
    def test_count_json(self, edge_file, capsys):
        code = main(
            [
                "count",
                "--edge-file",
                str(edge_file),
                "--query",
                "Edge(x, y)",
                "--epsilon",
                "1.0",
                "--seed",
                "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "noisy_count",
            "method",
            "epsilon",
            "sensitivity",
            "expected_error",
        }
        assert payload["method"] == "residual"
        assert payload["epsilon"] == 1.0

    def test_sensitivity_json(self, edge_file, capsys):
        code = main(
            [
                "sensitivity",
                "--edge-file",
                str(edge_file),
                "--query",
                "Edge(x, y), Edge(y, z)",
                "--beta",
                "0.2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "beta",
            "residual",
            "elastic",
            "global_agm",
            "profiler",
        }
        assert payload["beta"] == 0.2
        assert payload["residual"] > 0
        assert payload["elastic"] > 0
        profiler = payload["profiler"]
        assert set(profiler) == {
            "subsets_total",
            "components_total",
            "components_evaluated",
            "component_hits",
            "component_cache_hits",
            "component_delta_updates",
            "factorization_hits",
            "factorization_misses",
        }
        assert profiler["subsets_total"] == 3  # {}, {0}, {1} for the 2-atom join
        assert profiler["components_total"] == 2
        assert 1 <= profiler["components_evaluated"] <= 2


class TestBatchCommand:
    @pytest.fixture
    def requests_file(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(
            json.dumps(
                [
                    {"query": "Edge(x, y), Edge(y, z)", "epsilon": 0.25},
                    {"query": "Edge(a, b), Edge(b, c)", "epsilon": 0.25},
                    {"query": "Edge(x, y)", "epsilon": 0.25},
                ]
            )
        )
        return path

    def test_batch_text_output(self, edge_file, requests_file, capsys):
        code = main(
            [
                "batch",
                "--edge-file",
                str(edge_file),
                "--requests",
                str(requests_file),
                "--seed",
                "0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "2 distinct shapes" in output
        assert "1 deduplicated" in output

    def test_batch_json_output(self, edge_file, requests_file, capsys):
        code = main(
            [
                "batch",
                "--edge-file",
                str(edge_file),
                "--requests",
                str(requests_file),
                "--seed",
                "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["groups"] == 2
        assert payload["deduplicated"] == 1
        assert len(payload["items"]) == 3

    def test_batch_epsilon_total(self, edge_file, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(
            json.dumps({"requests": [{"query": "Edge(x, y)"}], "epsilon_total": 0.5})
        )
        code = main(
            ["batch", "--edge-file", str(edge_file), "--requests", str(path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilon_per_group"] == 0.5

    def test_batch_bad_file(self, edge_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["batch", "--edge-file", str(edge_file), "--requests", str(path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_batch_missing_file(self, edge_file, tmp_path, capsys):
        code = main(
            [
                "batch",
                "--edge-file",
                str(edge_file),
                "--requests",
                str(tmp_path / "does-not-exist.json"),
            ]
        )
        assert code == 2
        assert "cannot read batch request file" in capsys.readouterr().err

    def test_batch_without_budgets_fails(self, edge_file, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"query": "Edge(x, y)"}]))
        code = main(["batch", "--edge-file", str(edge_file), "--requests", str(path)])
        assert code == 2
        assert "budget" in capsys.readouterr().err


class TestServeParser:
    def test_serve_arguments(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--dataset",
                "GrQc",
                "--port",
                "0",
                "--session-budget",
                "2.0",
                "--total-budget",
                "10.0",
                "--cache-capacity",
                "64",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.session_budget == 2.0
        assert args.total_budget == 10.0
        assert args.cache_capacity == 64
        assert args.state_dir is None
        assert args.snapshot_interval == 1000

    def test_serve_state_dir_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--state-dir", "./state", "--snapshot-interval", "50"]
        )
        assert args.state_dir == "./state"
        assert args.snapshot_interval == 50


class TestServeLifecycle:
    def test_single_process_serve_polls_like_cluster_workers(
        self, edge_file, monkeypatch, capsys
    ):
        """Single-process ``serve`` shares the cluster workers' lifecycle:
        its accept loop polls every 50 ms (not the stdlib's 0.5 s), so a
        SIGTERM drain starts within one poll, and the previous SIGTERM
        handler is back once the server has closed."""
        import signal
        import socketserver

        polls = []

        def serve_forever(self, poll_interval=0.5):
            polls.append(poll_interval)

        monkeypatch.setattr(socketserver.BaseServer, "serve_forever", serve_forever)
        handler = signal.getsignal(signal.SIGTERM)
        assert main(["serve", "--edge-file", str(edge_file), "--port", "0"]) == 0
        assert polls == [0.05]
        assert signal.getsignal(signal.SIGTERM) is handler
        assert "metrics on http://" in capsys.readouterr().out


class TestStateCommand:
    @pytest.fixture
    def state_dir(self, tmp_path):
        """A state directory produced by a real (abandoned) service run."""
        from repro.service import PrivateQueryService

        db = database_from_edges(
            [(a, b) for a in range(4) for b in range(4) if a != b]
        )
        service = PrivateQueryService(
            session_budget=2.0, total_budget=10.0, rng=0, state_dir=str(tmp_path)
        )
        service.register_database("k4", db)
        service.create_session(session_id="cli-test")
        service.count("k4", "Edge(x, y)", epsilon=0.5, session="cli-test")
        return tmp_path  # no close(): replay works from the journal alone

    def test_state_replay_text(self, state_dir, capsys):
        assert main(["state", "replay", "--state-dir", str(state_dir)]) == 0
        output = capsys.readouterr().out
        assert "cli-test" in output
        assert "spent 0.500000" in output
        assert "k4: version 1" in output

    def test_state_replay_json(self, state_dir, capsys):
        assert main(["state", "replay", "--state-dir", str(state_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sessions"]["cli-test"]["spent"] == pytest.approx(0.5)
        assert payload["shared"]["spent"] == pytest.approx(0.5)
        assert payload["databases"]["k4"]["version"] == 1
        assert payload["audit"]["total_recorded"] == 2  # create + charge

    def test_state_replay_missing_dir_errors(self, tmp_path, capsys):
        code = main(["state", "replay", "--state-dir", str(tmp_path / "nope")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_state_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["state"])
