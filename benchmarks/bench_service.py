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
