"""Benchmarks of the shared-lattice sensitivity profiler.

Residual sensitivity needs ``T_F(I)`` on a lattice of residual subsets that
is exponential in the number of private atoms.  The shared-lattice evaluator
(:func:`repro.engine.profile.evaluate_profile`) plans the whole lattice up
front: subsets are decomposed into connected components once, each
structurally distinct component is evaluated once, and per-subset values are
assembled from the memoized results — while the per-subset reference path
(:meth:`~repro.sensitivity.residual.ResidualSensitivity.multiplicities_reference`)
re-evaluates every subset in isolation.

``test_profile_speedup_star4`` is the acceptance benchmark: on the 4-star
query (4 private atoms) over a 300-node collaboration graph the shared
evaluator must produce a profile **identical** to the per-subset baseline's,
evaluating 3 components, and its absolute latency is gated against the
committed ``BENCH_profile.json`` (the speedup over the baseline is printed
and recorded only: cheaper components shrink it).
``test_profile_speedup_two_triangle`` pins the sharing on the undirected
graph: the two-triangle profile must equal the baseline's while evaluating
9 of its 32 component references, which takes sharing up to atom order and
up to the argument order of the symmetric ``Edge`` (matching components
position by position evaluated 21); its absolute latency is gated too,
which holds the components that find their maximum by bound-and-prune
instead of building every boundary group.
``test_true_count_speedup_path5`` gates the path-5 true count, whose
all-pairs inequalities expand into 52 non-empty Möbius terms that fall into
15 isomorphism classes, each counted once; its absolute latency is gated
the same way.
``test_profile_report_queries`` reports the same comparison (equality
asserted, timings informational) for the paper's triangle / 3-star / path-4
queries, together with the subplan-dedup and coded-column lookup counts.

Run::

    pytest benchmarks/bench_profile.py -k speedup -q -s   # the latency gates
    pytest benchmarks/bench_profile.py --benchmark-only   # micro-benchmarks
"""

from __future__ import annotations

import time

import pytest

from repro.data.database import Database
from repro.engine.evaluation import count_query
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import (
    k_path_query,
    k_star_query,
    triangle_query,
    two_triangle_query,
)
from repro.sensitivity.residual import ResidualSensitivity

from bench_utils import derive_seed, trend_gate

#: Vertices in the collaboration-graph workload (the ISSUE pins 300).
NUM_NODES = 300
#: Target average degree of the Holme–Kim surrogate.
AVERAGE_DEGREE = 4.0

REPORT_QUERIES = (
    ("triangle", triangle_query()),
    ("star3", k_star_query(3)),
    ("path4", k_path_query(4)),
)


@pytest.fixture(scope="module")
def graph():
    return collaboration_graph(NUM_NODES, AVERAGE_DEGREE, seed=derive_seed("profile.graph"))


@pytest.fixture(scope="module")
def graph_db(graph) -> Database:
    return database_from_networkx(graph)


def _compare(engine: ResidualSensitivity, db: Database):
    """(baseline profile, shared profile, baseline seconds, shared seconds).

    The shared pass runs first, so the per-subset baseline inherits the
    warm dictionary and coded columns — the measured ratio is then a
    conservative estimate of the lattice sharing alone.
    """
    start = time.perf_counter()
    shared = engine.profile(db)
    shared_time = time.perf_counter() - start
    start = time.perf_counter()
    baseline = engine.multiplicities_reference(db)
    baseline_time = time.perf_counter() - start
    assert set(baseline) == set(shared.results)
    for kept, reference in baseline.items():
        result = shared.results[kept]
        assert (result.value, result.exact) == (reference.value, reference.exact), (
            f"profile mismatch on subset {tuple(sorted(kept))}: "
            f"shared=({result.value}, {result.exact}) "
            f"reference=({reference.value}, {reference.exact})"
        )
        assert sorted(map(repr, result.dropped_predicates)) == sorted(
            map(repr, reference.dropped_predicates)
        )
    return baseline, shared, baseline_time, shared_time


def _describe(name: str, shared, baseline_time: float, shared_time: float) -> str:
    stats = shared.stats
    speedup = baseline_time / shared_time
    return (
        f"{name}: {stats.subsets_total} subsets, "
        f"{stats.components_total} component refs -> "
        f"{stats.components_evaluated} evaluated "
        f"({stats.component_hits} subplan-dedup hits), "
        f"coded-column lookups {stats.factorization_hits} hits / "
        f"{stats.factorization_misses} misses; "
        f"per-subset {baseline_time * 1e3:.0f} ms, "
        f"shared-lattice {shared_time * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )


def test_profile_speedup_star4(graph_db):
    """An identical profile on a ≥3-private-atom query, latency gated."""
    engine = ResidualSensitivity(k_star_query(4), beta=0.1)
    _, shared, baseline_time, shared_time = _compare(engine, graph_db)
    print("\n" + _describe("star4", shared, baseline_time, shared_time))

    stats = shared.stats
    assert stats.subsets_total == 15  # all proper subsets of 4 private atoms
    assert stats.components_total == 14  # every non-empty subset is connected
    # Singles, pairs and triples are one isomorphism class each.
    assert stats.components_evaluated == 3
    # Absolute latency gate: the limit is the looser of 1.25 × the
    # BENCH_profile.json baseline and a fixed 0.02 s, which is below what
    # the predicate-aware plan the Möbius expansion of != replaced takes
    # on a 2-core VM (33-44 ms), so reverting to it fails.  The speedup
    # over the per-subset baseline is printed above for information only.
    trend_gate(
        "profile", "shared_lattice_seconds", shared_time,
        floor=0.02, higher_is_better=False,
    )


def test_profile_speedup_two_triangle(graph_db):
    """An identical profile with the components shared up to isomorphism."""
    engine = ResidualSensitivity(two_triangle_query(), beta=0.1)
    _, shared, baseline_time, shared_time = _compare(engine, graph_db)
    print("\n" + _describe("two_triangle", shared, baseline_time, shared_time))

    stats = shared.stats
    assert stats.subsets_total == 31  # all proper subsets of 5 private atoms
    assert stats.components_total == 32
    # The 28 distinct components fall into 9 isomorphism classes once the
    # two argument orders of the symmetric Edge count as one.
    assert stats.components_evaluated == 9
    # Absolute latency gate: the looser of 1.25 × the BENCH_profile.json
    # baseline and a fixed 0.08 s, which is below what building every
    # boundary group of each component took on a 2-core VM (90-130 ms;
    # 37-53 ms with the prune), so reverting to it fails.
    trend_gate(
        "profile", "two_triangle_shared_seconds", shared_time,
        floor=0.08, higher_is_better=False,
    )


def _injective_paths(graph, edges: int) -> int:
    """Ordered paths of ``edges`` edges over distinct vertices, by
    depth-first search (the last vertex counted, not visited)."""
    adjacency = {v: set(graph[v]) for v in graph}
    total = 0

    def extend(path: list) -> None:
        nonlocal total
        if len(path) == edges:
            total += len(adjacency[path[-1]].difference(path))
            return
        for v in adjacency[path[-1]]:
            if v not in path:
                path.append(v)
                extend(path)
                path.pop()

    for v in adjacency:
        extend([v])
    return total


def _path5_true_count_seconds(graph, db: Database) -> float:
    """The best of three path-5 true counts, after one checked against an
    independent count."""
    query = k_path_query(5)
    assert count_query(query, db) == _injective_paths(graph, 5)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        count_query(query, db)
        seconds.append(time.perf_counter() - start)
    return min(seconds)


def test_true_count_speedup_path5(graph, graph_db):
    """The path-5 true count, one elimination per Möbius class, latency gated."""
    seconds = _path5_true_count_seconds(graph, graph_db)
    print(f"\npath5 true count: best of 3 {seconds * 1e3:.1f} ms")
    # Absolute latency gate: the looser of 1.25 × the BENCH_profile.json
    # baseline and a fixed 0.09 s, which is below what counting each of the
    # 52 Möbius terms on its own took on a 2-core VM (138-184 ms), so
    # reverting to it fails.
    trend_gate(
        "profile", "path5_true_count_seconds", seconds,
        floor=0.09, higher_is_better=False,
    )


def test_profile_report_queries(graph_db):
    """Triangle / 3-star / path-4: identical profiles, informational timings."""
    lines = []
    for name, query in REPORT_QUERIES:
        engine = ResidualSensitivity(query, beta=0.1)
        _, shared, baseline_time, shared_time = _compare(engine, graph_db)
        lines.append(_describe(name, shared, baseline_time, shared_time))
    print("\n" + "\n".join(lines))


def test_shared_profile_benchmark(benchmark, graph_db):
    """Steady-state shared-lattice profile latency (warm caches), 3-star."""
    engine = ResidualSensitivity(k_star_query(3), beta=0.1)
    engine.profile(graph_db)  # warm the dictionary and coded columns
    result = benchmark(lambda: engine.profile(graph_db))
    assert result.stats.components_evaluated >= 1


def test_reference_profile_benchmark(benchmark, graph_db):
    """The per-subset baseline on the same workload (for the trajectory)."""
    engine = ResidualSensitivity(k_star_query(3), beta=0.1)
    engine.profile(graph_db)  # same warm-cache starting point
    profile = benchmark(lambda: engine.multiplicities_reference(graph_db))
    assert profile
