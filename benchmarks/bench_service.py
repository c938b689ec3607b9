"""Benchmarks of the serving layer: cached vs. uncached repeated queries.

The serving layer's claim is that the residual-sensitivity machinery — the
dominant per-release cost — is data-independent per query *shape*, so
repeated shapes can be served from cache with only the noise draw left on
the hot path.  ``test_cached_speedup_and_identical_results`` measures that
claim end to end (gating both arms' absolute latency against
``BENCH_service.json``; the speedup is reported only), and verifies that
caching changes *nothing* statistically: same sensitivities, and
bitwise-identical noisy counts under a fixed seed.

Run::

    pytest benchmarks/bench_service.py --benchmark-only   # micro-benchmarks
    pytest benchmarks/bench_service.py -k speedup         # the latency gates
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.service.service import PrivateQueryService

from bench_utils import derive_seed, trend_gate

TRIANGLE = "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z"
REPEATS = 8


@pytest.fixture(scope="module")
def graph_db():
    return database_from_networkx(collaboration_graph(200, 8.0, seed=derive_seed("service.graph")))


def _run_repeated(graph_db, *, cache_capacity: int):
    """Time ``REPEATS`` releases of the same shape; return (seconds, responses).

    Both the cached and uncached runs draw noise from the same derived
    stream, which is what makes their release sequences comparable
    bitwise.
    """
    service = PrivateQueryService(
        session_budget=float(REPEATS),
        cache_capacity=cache_capacity,
        rng=derive_seed("service.noise"),
    )
    service.register_database("g", graph_db)
    session = service.create_session().session_id
    start = time.perf_counter()
    responses = [
        service.count("g", TRIANGLE, epsilon=0.5, session=session)
        for _ in range(REPEATS)
    ]
    return time.perf_counter() - start, responses


def test_cached_speedup_and_identical_results(graph_db):
    uncached_time, uncached = _run_repeated(graph_db, cache_capacity=0)
    cached_time, cached = _run_repeated(graph_db, cache_capacity=64)

    # Caching must not change anything observable besides latency: the
    # sensitivity is deterministic per shape, and the noise stream of a
    # seeded service is consumed identically by both paths.
    for c, u in zip(cached, uncached):
        assert c.sensitivity == u.sensitivity
        assert c.expected_error == u.expected_error
        assert c.noisy_count == u.noisy_count
    assert all(r.sensitivity_cache_hit for r in cached[1:])
    assert not any(r.sensitivity_cache_hit for r in uncached)

    speedup = uncached_time / cached_time
    print(
        f"\nrepeated {TRIANGLE!r} x{REPEATS}: "
        f"uncached {uncached_time * 1e3:.1f} ms, cached {cached_time * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    # Both arms are gated as absolute latencies: fail on a >25 % regression
    # from the committed BENCH_service.json baseline, never tighter than the
    # fixed caps.  The speedup is printed only: the uncached arm is the
    # engine, so every engine speedup shrinks it.
    trend_gate(
        "service", "uncached_seconds", uncached_time,
        floor=0.15, higher_is_better=False,
    )
    trend_gate(
        "service", "cached_seconds", cached_time,
        floor=0.025, higher_is_better=False,
    )


def measure_observability_overhead(graph_db, *, pairs: int = 30, calls: int = 50) -> float:
    """Fractional warm-path cost of instrumentation (0.02 == 2 %).

    One service object serves both sides of the comparison — its runtime
    observability toggle flips between chunks — so object layout, cache
    state and rng stream are held constant.  Chunks run in an A-B-B-A
    pattern (linear clock-frequency drift cancels exactly within a pair)
    and the estimate is the median of the per-pair ratios, which is robust
    to the one-sided scheduling noise of shared machines.  Used both by
    ``test_observability_overhead_speedup`` (the ≤5 % gate) and by
    ``scripts/bench_snapshot.py`` (the committed trajectory).
    """
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    clock = time.perf_counter

    def chunk() -> float:
        start = clock()
        for _ in range(calls):
            service.count("g", TRIANGLE, epsilon=0.5)
        return clock() - start

    chunk()  # warm plan/profile/sensitivity/count caches
    ratios = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(pairs):
            service.set_observability(False)
            plain_1 = chunk()
            service.set_observability(True)
            instrumented = chunk() + chunk()
            service.set_observability(False)
            plain_2 = chunk()
            ratios.append(instrumented / (plain_1 + plain_2))
    finally:
        if gc_was_enabled:
            gc.enable()
        service.set_observability(True)
    return statistics.median(ratios) - 1.0


def test_observability_overhead_speedup(graph_db):
    """The instrumented warm path must stay within 5 % of the plain one.

    The metrics design makes this possible at all: every per-request
    counter is derived at scrape time from totals the service maintains
    anyway, latency lands in a lock-free buffered histogram handle, and
    stage spans collapse to a single ContextVar read when no trace is
    active — so a warm request pays two clock reads and one list append.
    """
    overhead = measure_observability_overhead(graph_db)
    print(f"\nwarm-path instrumentation overhead: {overhead * 100:+.2f}%")
    # Lower-is-better trend gate: the cap is the looser of the fixed 5 %
    # and baseline+25 % — wall-clock-sensitive, so it keeps the headroom.
    trend_gate(
        "service",
        "observability_overhead_percent",
        overhead * 100,
        floor=5.0,
        higher_is_better=False,
    )


def test_warm_release_benchmark(benchmark, graph_db):
    """Per-release latency once the shape caches are warm."""
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    service.count("g", TRIANGLE, epsilon=0.5)  # warm plan/profile/sensitivity
    response = benchmark(lambda: service.count("g", TRIANGLE, epsilon=0.5))
    assert response.sensitivity_cache_hit


def test_cold_release_benchmark(benchmark, graph_db):
    """Per-release latency with caching disabled (the one-shot library cost)."""
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=0, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    response = benchmark(lambda: service.count("g", TRIANGLE, epsilon=0.5))
    assert not response.sensitivity_cache_hit


def test_batch_dedup_benchmark(benchmark, graph_db):
    """A 16-request batch with only two distinct shapes."""
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    requests = [
        {"query": TRIANGLE if i % 2 else "Edge(x, y), Edge(y, z)", "epsilon": 0.01}
        for i in range(16)
    ]
    result = benchmark(lambda: service.batch("g", requests))
    assert result.groups == 2
    assert result.deduplicated == 14
