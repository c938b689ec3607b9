"""Tests for the differential fuzz harness (:mod:`repro.qa`).

Three layers:

* the harness's own building blocks (generator determinism, oracle
  correctness against hand-computed values);
* a smoke-sized tier-1 fuzz run (the nightly CI job runs the same battery
  with far more cases) plus a reduced statistical-calibration pass;
* fault injection: a deliberately corrupted engine must be caught by the
  differential runner and by the ``repro-dp fuzz`` CLI, with a replay
  snippet that actually reproduces the failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

from repro.cli import main
from repro.engine import aggregates, evaluation
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.evaluation import count_query
from repro.qa.calibration import LEVELS, verify_calibration
from repro.qa.generator import WorkloadGenerator
from repro.qa.oracle import (
    oracle_count,
    oracle_local_sensitivity,
    oracle_neighbor_cost,
)
from repro.qa.replay import replay_case
from repro.qa.runner import CHECKS, DifferentialRunner
from repro.query.parser import parse_query

SMOKE_CASES = 25


class TestWorkloadGenerator:
    def test_cases_are_deterministic_and_addressable(self):
        first = WorkloadGenerator(7).case(3)
        again = WorkloadGenerator(7).case(3)
        assert first == again
        # Out-of-order generation must not change anything.
        generator = WorkloadGenerator(7)
        generator.case(0)
        assert generator.case(3) == first

    def test_different_seeds_differ(self):
        cases_a = [WorkloadGenerator(0).case(i).describe() for i in range(10)]
        cases_b = [WorkloadGenerator(1).case(i).describe() for i in range(10)]
        assert cases_a != cases_b

    def test_case_reconstruction_is_consistent(self):
        for case in WorkloadGenerator(0).cases(30):
            db = case.database()
            for spec in case.relations:
                assert db.relation(spec.name).tuples() == frozenset(case.rows[spec.name])
            query = case.query()
            query.validate_against_schema(db.schema)
            assert any(
                db.schema.is_private(block.relation) for block in query.self_join_blocks
            )
            assert db.distance(case.neighbor_database()) == 1

    def test_feature_coverage(self):
        """The sampled space must actually exercise the interesting features."""
        cases = list(WorkloadGenerator(0).cases(120))
        queries = [case.query() for case in cases]
        assert any(not q.is_self_join_free for q in queries)
        assert any(q.has_predicates for q in queries)
        assert any(not q.is_full for q in queries)
        assert any(any(a.arity == 3 for a in q.atoms) for q in queries)
        assert any(case.neighbor_op == "remove" for case in cases)
        assert any(case.neighbor_op == "add" for case in cases)

    def test_inequality_cliques_are_generated(self):
        """Some of the first 200 cases put ``!=`` between every pair of three
        variables: the blocks whose Möbius coefficient is ``(|B|-1)!``."""

        def has_clique(query) -> bool:
            edges = {
                p.variables
                for p in query.predicates
                if p.is_inequality and len(p.variables) == 2
            }
            variables = sorted(set().union(*edges), key=lambda v: v.name) if edges else []
            return any(
                all(frozenset(pair) in edges for pair in itertools.combinations(trio, 2))
                for trio in itertools.combinations(variables, 3)
            )

        queries = [case.query() for case in WorkloadGenerator(0).cases(200)]
        assert any(has_clique(query) for query in queries)


class TestOracle:
    def test_oracle_count_matches_hand_computed_join(self, small_join_db, join_query):
        # R has three tuples with y=10, S has two with y=10; plus 1x1 via y=20.
        assert oracle_count(join_query, small_join_db) == 3 * 2 + 1
        assert oracle_count(join_query, small_join_db) == count_query(
            join_query, small_join_db
        )

    def test_oracle_projection_counts_distinct(self, small_join_db):
        query = parse_query("Q(x) :- R(x, y), S(y, z)")
        assert oracle_count(query, small_join_db) == 4  # x in {1, 2, 3, 4}

    def test_oracle_local_sensitivity_single_table(self):
        # |R| over a finite domain: any single edit changes the count by 1.
        from repro.data.database import Database
        from repro.data.domain import IntegerDomain
        from repro.data.schema import Attribute, DatabaseSchema, RelationSchema

        domain = IntegerDomain(0, 2)
        schema = DatabaseSchema(
            [RelationSchema("R", [Attribute("a", domain), Attribute("b", domain)])]
        )
        db = Database.from_rows(schema, R=[(0, 0), (1, 1)])
        query = parse_query("R(x, y)")
        assert oracle_local_sensitivity(query, db) == 1

    def test_oracle_cost_estimate_scales_with_instance(self):
        case = WorkloadGenerator(0).case(0)
        cost = oracle_neighbor_cost(case.query(), case.database())
        assert cost > 0


class TestDifferentialSmoke:
    def test_smoke_fuzz_passes(self):
        """The tier-1 smoke slice of the nightly fuzz battery."""
        report = DifferentialRunner(0).run(SMOKE_CASES)
        assert report.checks_run == SMOKE_CASES * len(CHECKS)
        assert report.oracle_ls_cases > 0, "no case was small enough for the LS oracle"
        assert report.ok, "\n\n".join(
            f"{f.check} (case {f.case_index}): {f.message}\n{f.replay}"
            for f in report.failures
        )

    def test_replay_of_a_passing_case_returns_none(self):
        assert replay_case(seed=0, case=0) is None
        assert replay_case(seed=0, case=1, check="count") is None

    def test_unknown_check_rejected(self):
        runner = DifferentialRunner(0)
        with pytest.raises(ValueError, match="unknown fuzz check"):
            runner.run_check(WorkloadGenerator(0).case(0), "nope")


class TestCalibrationSmoke:
    def test_all_levels_pass_with_correct_calibration(self, tmp_path):
        report = verify_calibration(seed=0, samples=250, state_dir=str(tmp_path))
        assert [check.level for check in report.checks] == list(LEVELS)
        assert report.ok, report.to_dict()

    def test_replay_level_skipped_without_state_dir(self):
        report = verify_calibration(seed=0, samples=120, levels=["query-global"])
        assert [check.level for check in report.checks] == ["query-global"]

    def test_miscalibrated_scale_is_rejected(self):
        """The verifier must have the power to catch a wrong noise scale."""
        report = verify_calibration(
            seed=0, samples=300, levels=["query-residual", "query-global"],
            scale_factor=3.0,
        )
        assert not report.ok
        assert all(check.p_value < 1e-6 for check in report.checks)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown calibration levels"):
            verify_calibration(levels=["nope"])

    def test_internal_error_becomes_failed_check_not_crash(self, tmp_path):
        """A broken state dir is a finding — the report must still come back."""
        poison = tmp_path / "state"
        poison.write_text("not a directory")
        report = verify_calibration(
            seed=0, samples=60, state_dir=str(poison), levels=["service-replay"]
        )
        assert not report.ok
        (check,) = report.checks
        assert not check.passed
        assert check.p_value == 0.0
        assert "verification error" in check.detail


@pytest.fixture
def corrupted_engine(monkeypatch):
    """Off-by-one-per-group fault injected into the columnar engine."""

    def corrupted(query, database, group_variables, **kwargs):
        result = eliminate_group_counts_columnar(query, database, group_variables, **kwargs)
        counts = result.count_array + 1
        if not len(counts) and not result.group_variables:
            counts = np.ones(1, dtype=np.int64)
        return dataclasses.replace(result, count_array=counts)

    for module in (aggregates, evaluation):
        monkeypatch.setattr(module, "eliminate_group_counts_columnar", corrupted)
    return corrupted


class TestFaultInjection:
    def test_injected_fault_is_caught_with_replayable_seed(self, corrupted_engine):
        report = DifferentialRunner(0).run(5)
        assert not report.ok
        failure = report.failures[0]
        assert failure.check in CHECKS
        assert failure.seed == 0
        # The replay coordinates printed in the snippet rebuild the failure.
        replayed = replay_case(
            seed=failure.seed, case=failure.case_index, check=failure.check
        )
        assert replayed is not None
        assert replayed.message == failure.message

    def test_replay_snippet_is_executable_and_reproduces(
        self, corrupted_engine, capsys
    ):
        report = DifferentialRunner(0).run(3)
        failure = report.failures[0]
        exec(compile(failure.replay, "<fuzz-replay>", "exec"), {})
        out = capsys.readouterr().out
        assert "check passed" not in out
        assert failure.message.splitlines()[0] in out


class TestFuzzCli:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["fuzz", "--cases", "3", "--seed", "0", "--calibration-samples", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 cases" in out and "0 failure(s)" in out

    def test_json_report_schema(self, capsys):
        code = main(
            ["fuzz", "--cases", "2", "--seed", "5", "--calibration-samples", "0", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        fuzz = payload["fuzz"]
        assert fuzz["seed"] == 5
        assert fuzz["cases"] == 2
        assert fuzz["checks_run"] == 2 * len(CHECKS)
        assert fuzz["failures"] == []
        assert payload["calibration"] is None

    def test_injected_fault_fails_the_cli_with_replay_snippet(
        self, corrupted_engine, capsys
    ):
        code = main(["fuzz", "--cases", "3", "--seed", "0", "--calibration-samples", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL case" in out
        assert "replay snippet:" in out
        assert "from repro.qa.replay import replay_case" in out

    def test_injected_fault_json_failures(self, corrupted_engine, capsys):
        code = main(
            ["fuzz", "--cases", "3", "--seed", "0", "--calibration-samples", "0", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["fuzz"]["failures"]
        failure = payload["fuzz"]["failures"][0]
        assert set(failure) >= {"seed", "case", "check", "message", "replay"}
        assert f"replay_case(seed={failure['seed']}, case={failure['case']}" in (
            failure["replay"]
        )
