"""Concurrency stress harness: ledgers, journal replay, reproducibility.

The serving layer's core safety claims under parallel load:

* a budget ledger can never be jointly overspent, no matter how many
  threads hammer ``count``/``batch``/``budget`` against one session;
* the write-ahead journal replays to *exactly* the in-memory state, even
  when the journaled workload ran concurrently (and was then "killed"
  without a clean shutdown);
* a fixed service seed produces a bitwise-identical release sequence for a
  sequential workload, journaled or not.

The quick variants below run in tier-1 (marked ``slow`` so a minimal
``-m "not slow"`` pass can skip them); the subprocess soak test that kills
a real server mid-batch with ``SIGKILL`` and recovers it from the journal
is marked ``soak`` and only runs when selected with ``-m soak`` (the CI
soak job runs it).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import PrivacyError
from repro.service.persistence import StateStore
from repro.service.service import PrivateQueryService

THREADS = 8


def hammer(worker, count=THREADS):
    """Run ``worker(index)`` on ``count`` threads behind a start barrier."""
    barrier = threading.Barrier(count)
    failures: list[BaseException] = []

    def run(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure reporting
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


@pytest.mark.slow
class TestNoOverspend:
    def test_one_session_hammered_by_counts(self, toy_db):
        service = PrivateQueryService(session_budget=1.0, rng=0)
        service.register_database("toy", toy_db)
        sid = service.create_session().session_id
        epsilon = 1.0 / 16.0
        granted = []

        def worker(index):
            for _ in range(4):  # 8 threads x 4 attempts = 2x the budget
                try:
                    response = service.count("toy", "R(x, y)", epsilon, session=sid)
                    granted.append(response)
                except PrivacyError:
                    pass

        hammer(worker)
        assert len(granted) == 16  # exactly budget / epsilon, never more
        view = service.budget(sid)
        assert view["spent"] == pytest.approx(1.0)
        assert view["remaining"] == pytest.approx(0.0)

    def test_shared_budget_across_sessions(self, toy_db):
        service = PrivateQueryService(session_budget=100.0, total_budget=1.0, rng=0)
        service.register_database("toy", toy_db)
        sids = [service.create_session().session_id for _ in range(THREADS)]
        epsilon = 1.0 / 32.0
        granted = []

        def worker(index):
            for _ in range(8):
                try:
                    service.count("toy", "R(x, y)", epsilon, session=sids[index])
                    granted.append(index)
                except PrivacyError:
                    pass

        hammer(worker)
        assert len(granted) == 32
        shared = service.sessions.shared
        assert shared.spent == pytest.approx(1.0)
        by_ledger = sum(
            service.budget(sid)["spent"] for sid in service.sessions.active_ids()
        )
        assert by_ledger == pytest.approx(1.0)

    def test_mixed_counts_batches_and_probes(self, toy_db):
        service = PrivateQueryService(session_budget=2.0, rng=3)
        service.register_database("toy", toy_db)
        sid = service.create_session().session_id
        epsilon = 1.0 / 8.0
        charged = []

        def worker(index):
            for round_ in range(3):
                if index % 3 == 0:
                    result = service.batch(
                        "toy",
                        [
                            {"query": "R(x, y)", "epsilon": epsilon},
                            {"query": "R(a, b), S(b, c)", "epsilon": epsilon},
                            {"query": "R(u, v), S(v, w)", "epsilon": epsilon},  # dup
                        ],
                        session=sid,
                    )
                    charged.append(result.epsilon_charged)
                elif index % 3 == 1:
                    try:
                        service.count("toy", "R(x, y), S(y, z)", epsilon, session=sid)
                        charged.append(epsilon)
                    except PrivacyError:
                        pass
                else:
                    view = service.budget(sid)
                    assert view["spent"] <= view["budget"] + 1e-9
                    service.stats()

        hammer(worker)
        view = service.budget(sid)
        assert view["spent"] == pytest.approx(sum(charged))
        assert view["spent"] <= view["budget"] + 1e-9


@pytest.mark.slow
class TestJournalReplayEquivalence:
    def test_concurrent_workload_replays_exactly(self, tmp_path, toy_db):
        service = PrivateQueryService(
            session_budget=1.0, total_budget=6.0, rng=0,
            state_dir=str(tmp_path), snapshot_interval=7,
        )
        service.register_database("toy", toy_db)
        sids = [service.create_session().session_id for _ in range(4)]
        epsilon = 1.0 / 16.0

        def worker(index):
            sid = sids[index % len(sids)]
            for _ in range(6):
                try:
                    service.count("toy", "R(x, y)", epsilon, session=sid)
                except PrivacyError:
                    pass

        hammer(worker)
        # The process dies: no final snapshot — the journal is all that
        # survives (and the dir lock is released, as the kernel would).
        service.close(snapshot=False)
        recovered = PrivateQueryService(
            session_budget=1.0, total_budget=6.0, rng=0, state_dir=str(tmp_path)
        )
        for sid in sids:
            live, replayed = service.budget(sid), recovered.budget(sid)
            assert replayed["spent"] == pytest.approx(live["spent"])
            assert replayed["remaining"] == pytest.approx(live["remaining"])
            assert replayed["charges"] == live["charges"]
        assert recovered.sessions.shared.spent == pytest.approx(
            service.sessions.shared.spent
        )
        assert (
            recovered.sessions.audit.total_recorded
            == service.sessions.audit.total_recorded
        )

    def test_crash_midworkload_matches_uninterrupted_run(self, tmp_path, toy_db):
        queries = ["R(x, y)", "R(x, y), S(y, z)", "R(x, x)"]
        workload = [(queries[i % 3], 1.0 / 8.0) for i in range(12)]

        def run(state_dir, crash_after=None):
            def build():
                svc = PrivateQueryService(
                    session_budget=2.0, total_budget=10.0, rng=11,
                    state_dir=str(state_dir),
                )
                replace = "toy" in svc.registry.recovered_metadata()
                svc.register_database("toy", toy_db, replace=replace)
                return svc

            service = build()
            if "client" not in service.sessions.active_ids():
                service.create_session(session_id="client")
            for index, (query, epsilon) in enumerate(workload):
                if index == crash_after:
                    service.close(snapshot=False)  # die mid-workload...
                    service = build()  # ...and recover from the journal
                service.count("toy", query, epsilon, session="client")
            return service

        uninterrupted = run(tmp_path / "a")
        crashed = run(tmp_path / "b", crash_after=7)
        a, b = uninterrupted.budget("client"), crashed.budget("client")
        assert b["spent"] == pytest.approx(a["spent"])
        assert b["remaining"] == pytest.approx(a["remaining"])
        assert b["charges"] == a["charges"]
        assert b["shared_remaining"] == pytest.approx(a["shared_remaining"])
        assert (
            crashed.sessions.audit.total_recorded
            == uninterrupted.sessions.audit.total_recorded
        )


class TestSeededReproducibility:
    def test_release_sequence_is_bitwise_reproducible(self, toy_db):
        workload = [("R(x, y)", 0.5), ("R(x, y), S(y, z)", 0.25), ("R(x, y)", 0.5)]

        def run(**kwargs):
            service = PrivateQueryService(session_budget=10.0, rng=77, **kwargs)
            service.register_database("toy", toy_db)
            sid = service.create_session().session_id
            return [
                service.count("toy", query, epsilon, session=sid).noisy_count
                for query, epsilon in workload
            ]

        assert run() == run()

    def test_journaling_does_not_touch_the_noise_stream(self, tmp_path, toy_db):
        workload = [("R(x, y)", 0.5), ("R(x, y), S(y, z)", 0.25)]

        def run(**kwargs):
            service = PrivateQueryService(session_budget=10.0, rng=77, **kwargs)
            service.register_database("toy", toy_db)
            sid = service.create_session().session_id
            return [
                service.count("toy", query, epsilon, session=sid).noisy_count
                for query, epsilon in workload
            ]

        assert run() == run(state_dir=str(tmp_path), snapshot_interval=2)


# --------------------------------------------------------------------- #
# Soak: a real server killed mid-batch with SIGKILL, then recovered.
# --------------------------------------------------------------------- #

def _post(url, payload, timeout=10):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def _spawn_server(state_dir):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--dataset", "GrQc", "--scale", "0.01", "--name", "g",
            "--port", "0", "--session-budget", "64",
            "--state-dir", str(state_dir), "--seed", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    pattern = re.compile(r"on http://([\d.]+):(\d+)")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("server exited before binding")
        match = pattern.search(line)
        if match:
            return proc, f"http://{match.group(1)}:{match.group(2)}"
    raise AssertionError("server never reported its address")


@pytest.mark.soak
def test_soak_kill_server_midbatch_and_replay(tmp_path):
    proc, url = _spawn_server(tmp_path)
    acknowledged = []
    try:
        _post(f"{url}/budget", {"session_id": "soak", "budget": 64.0})
        for _ in range(4):
            response = _post(
                f"{url}/count",
                {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25,
                 "session": "soak"},
            )
            acknowledged.append(response["epsilon"])

        def fire_batch():
            try:
                _post(
                    f"{url}/batch",
                    {"database": "g", "session": "soak", "requests": [
                        {"query": "Edge(x, y), Edge(y, z)", "epsilon": 0.25},
                        {"query": "Edge(a, b), Edge(b, c), Edge(a, c)",
                         "epsilon": 0.25},
                        {"query": "Edge(u, v)", "epsilon": 0.25},
                    ]},
                    timeout=30,
                )
            except (urllib.error.URLError, ConnectionError, OSError):
                pass  # the server dies under this request by design

        batch_thread = threading.Thread(target=fire_batch)
        batch_thread.start()
        time.sleep(0.2)  # let the batch reach the charge pipeline
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        batch_thread.join(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    # Offline replay agrees with itself and never exceeds the budget.
    sessions, _ = StateStore(str(tmp_path), create=False).replay()
    replayed = sessions.get("soak").describe()
    assert replayed["spent"] >= sum(acknowledged) - 1e-9  # nothing acked is lost
    assert replayed["spent"] <= replayed["budget"] + 1e-9

    # A restarted server serves the recovered ledger.
    proc, url = _spawn_server(tmp_path)
    try:
        view = _get(f"{url}/budget?session=soak")
        assert view["spent"] == pytest.approx(replayed["spent"])
        stats = _get(f"{url}/stats")
        assert stats["persistence"]["recovered_seq"] > 0
        # The recovered ledger still charges correctly.
        response = _post(
            f"{url}/count",
            {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25,
             "session": "soak"},
        )
        assert response["remaining_budget"] == pytest.approx(
            view["budget"] - view["spent"] - 0.25
        )
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
