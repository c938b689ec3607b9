"""Benchmarks of the serving layer under concurrent traffic.

Three questions about the transactional charge pipeline and the prefork
serving cluster:

* **Safety at speed** — when many threads hammer one session, does the
  ledger stay exact?  ``test_concurrent_throughput_and_exact_ledger`` runs
  8 threads against a warm service, prints the aggregate throughput, and
  asserts that the spent budget equals exactly (#granted × ε) — the
  concurrency invariant the stress suite checks, measured here at
  benchmark scale.
* **Cost of durability** — what does write-ahead journaling every charge
  add to a cached release?  ``test_journal_overhead`` times the same warm
  workload with and without ``state_dir`` and gates the ratio against the
  committed ``BENCH_concurrency.json`` trajectory (cap: the looser of 4×
  and baseline+25 %) — measured locally it is below 2×: one JSON line +
  flush per charge, against a noise draw and a smooth-sensitivity
  recombination.
* **Horizontal scaling** — does ``serve --workers N`` actually multiply
  HTTP throughput?  ``test_cluster_throughput_scaling`` drives a live
  1-worker and a 4-worker server with the same client load and reports
  the ratio; on a ≥4-core machine the 4-worker cluster must clear the
  2.5× acceptance bar (on fewer cores the ratio is informational — the
  workers just time-slice one CPU).  Those requests are warm; with
  ``cache_missing=True`` :func:`measure_cluster_throughput` sends every
  request a query no worker has seen, so the engine does the work
  (``scripts/bench_snapshot.py --area concurrency`` records both).

Run::

    pytest benchmarks/bench_concurrency.py -k ledger -q -s
    pytest benchmarks/bench_concurrency.py -k overhead -q -s
    pytest benchmarks/bench_concurrency.py -k scaling -q -s
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.service.service import PrivateQueryService

from bench_utils import derive_seed, trend_gate

PATH2 = "Edge(x, y), Edge(y, z)"
THREADS = 8
ROUNDS = 25


@pytest.fixture(scope="module")
def graph_db():
    return database_from_networkx(collaboration_graph(150, 6.0, seed=derive_seed("concurrency.graph")))


def _warm_service(graph_db, **kwargs):
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("concurrency.noise"), **kwargs
    )
    service.register_database("g", graph_db)
    service.count("g", PATH2, epsilon=0.5)  # warm plan/profile/sensitivity
    return service


def test_concurrent_throughput_and_exact_ledger(graph_db):
    service = _warm_service(graph_db)
    session = service.create_session(budget=float(THREADS * ROUNDS)).session_id
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def worker():
        barrier.wait()
        try:
            for _ in range(ROUNDS):
                service.count("g", PATH2, epsilon=1.0, session=session)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    assert not errors
    total = THREADS * ROUNDS
    view = service.budget(session)
    print(
        f"\n{total} concurrent releases over {THREADS} threads: "
        f"{elapsed * 1e3:.1f} ms ({total / elapsed:.0f} req/s)"
    )
    # The ledger is exact, not merely bounded: every granted release charged
    # its ε exactly once, with no lost or duplicated updates.
    assert view["spent"] == pytest.approx(float(total))
    assert view["charges"] == total


def test_journal_overhead(graph_db, tmp_path):
    def run(**kwargs):
        service = _warm_service(graph_db, **kwargs)
        session = service.create_session(budget=1e6).session_id
        start = time.perf_counter()
        for _ in range(2 * THREADS * ROUNDS):
            service.count("g", PATH2, epsilon=0.5, session=session)
        return time.perf_counter() - start

    in_memory = run()
    journaled = run(state_dir=str(tmp_path), snapshot_interval=100)
    ratio = journaled / in_memory
    print(
        f"\nwarm release: in-memory {in_memory * 1e3:.1f} ms, "
        f"journaled {journaled * 1e3:.1f} ms ({ratio:.2f}x)"
    )
    trend_gate(
        "concurrency",
        "journal_overhead_ratio",
        ratio,
        floor=4.0,
        higher_is_better=False,
    )


# --------------------------------------------------------------------- #
# Horizontal scaling of the prefork cluster
# --------------------------------------------------------------------- #
_BANNER = re.compile(r"on http://([\d.]+):(\d+)")
_EDGES = "0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n"


def measure_cluster_throughput(
    workers: int,
    state_dir: str,
    edge_file: str,
    *,
    clients: int = 4,
    requests: int = 60,
    cache_missing: bool = False,
) -> float:
    """Aggregate req/s of ``clients`` threads against a live ``workers``-process
    server (sessionless counts).

    By default every request repeats one query, so once the caches are warm
    the serving path (HTTP, charge, journal, noise) does all the work.  With
    ``cache_missing`` every request anchors the 2-path at a constant no
    request used before, so each one misses every cache and plans, profiles
    and counts afresh: the engine does the work.

    Also used by ``scripts/bench_snapshot.py`` for the committed trajectory.
    """
    anchors = itertools.count()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--edge-file", edge_file, "--name", "g", "--port", "0",
            "--workers", str(workers), "--state-dir", state_dir,
            "--seed", str(derive_seed("concurrency.cluster")),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        url = None
        deadline = time.monotonic() + 120
        while url is None and time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before binding")
            match = _BANNER.search(line)
            if match:
                url = f"http://{match.group(1)}:{match.group(2)}"
        if url is None:
            raise RuntimeError("server never reported its address")

        def post_count():
            query = f"Edge({next(anchors)}, y), Edge(y, z)" if cache_missing else "Edge(x, y)"
            request = urllib.request.Request(
                f"{url}/count",
                data=json.dumps(
                    {"database": "g", "query": query, "epsilon": 0.25}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                json.loads(response.read())

        # Warm every worker before the clock runs — its plan/sensitivity
        # caches, or with ``cache_missing`` its first-use costs (the kernel
        # round-robins connections, so a few extra requests per worker reach
        # them all with overwhelming probability).
        for _ in range(4 * workers):
            post_count()

        barrier = threading.Barrier(clients)
        errors: list[BaseException] = []

        def client():
            barrier.wait()
            try:
                for _ in range(requests):
                    post_count()
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return clients * requests / elapsed
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=60)


def test_cluster_throughput_scaling(tmp_path):
    """4-worker HTTP throughput vs 1 worker; the ≥2.5× gate needs ≥4 cores."""
    edge_file = tmp_path / "edges.txt"
    edge_file.write_text(_EDGES)
    single = measure_cluster_throughput(1, str(tmp_path / "st1"), str(edge_file))
    quad = measure_cluster_throughput(4, str(tmp_path / "st4"), str(edge_file))
    ratio = quad / single
    cores = os.cpu_count() or 1
    print(
        f"\ncluster throughput [{cores} cores]: 1 worker {single:.0f} req/s, "
        f"4 workers {quad:.0f} req/s ({ratio:.2f}x)"
    )
    if cores >= 4:
        trend_gate("concurrency", "cluster_scaling_x", ratio, floor=2.5)
    else:
        # Prefork workers time-slice the same core(s) here: the ratio is
        # informational, but the cluster must at least not collapse.
        assert ratio >= 0.5, (
            f"4-worker cluster throughput collapsed to {ratio:.2f}x of a "
            f"single worker on a {cores}-core machine"
        )


def test_concurrent_charge_benchmark(benchmark, graph_db):
    """Per-release latency of the warm, journal-free transactional path."""
    service = _warm_service(graph_db)
    session = service.create_session(budget=1e9).session_id
    response = benchmark(
        lambda: service.count("g", PATH2, epsilon=0.5, session=session)
    )
    assert response.sensitivity_cache_hit


def test_journaled_charge_benchmark(benchmark, graph_db, tmp_path):
    """Per-release latency with every charge write-ahead journaled."""
    service = _warm_service(graph_db, state_dir=str(tmp_path), snapshot_interval=0)
    session = service.create_session(budget=1e9).session_id
    response = benchmark(
        lambda: service.count("g", PATH2, epsilon=0.5, session=session)
    )
    assert response.sensitivity_cache_hit
