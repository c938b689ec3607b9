"""Benchmark of the delta-mutation path vs a full re-registration.

The delta path's claim (see ``docs/mutation.md``): a one-tuple update
through ``POST /mutate`` advances only the touched relation's epoch, so the
next query re-derives only what the edit invalidated — untouched relations'
lattice components come back from the epoch-keyed component cache and the
coded columns are maintained in place, never re-coded.  A full
re-registration bumps the version and recomputes everything from scratch.

``test_one_tuple_update_speedup`` measures both arms end to end on the
300-node collaboration graph (service warm in both cases, identical noise
streams), requires the delta arm to be the cheaper one, and gates the delta
arm's absolute latency against the committed ``BENCH_mutation.json``.  It
also *observes* the warmth the speedup is built on: zero coded-column
misses (``factorization_misses``: no relation re-coded) and at least one
component cache hit on the delta arm, and a
bitwise-identical release against the rebuild arm.

Run::

    pytest benchmarks/bench_mutation.py -q -s
"""

from __future__ import annotations

import time

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.columnar import factorization_counter_scope
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.service.service import PrivateQueryService

from bench_utils import derive_seed, trend_gate

NUM_NODES = 300
AVERAGE_DEGREE = 8.0
GROUPS = 16
#: Triangles restricted to a node attribute — the ``Member`` atom gives the
#: mutation a relation to touch while every ``Edge`` component stays warm.
QUERY = (
    "Edge(x, y), Edge(y, z), Edge(x, z), Member(x, g), "
    "x != y, y != z, x != z"
)
EPSILON = 0.5
WARMUP_RELEASES = 2


def mutation_db() -> Database:
    """The 300-node collaboration graph plus a per-node group attribute."""
    edge_db = database_from_networkx(
        collaboration_graph(NUM_NODES, AVERAGE_DEGREE, seed=derive_seed("mutation.graph"))
    )
    edges = sorted(edge_db.relation("Edge").tuples())
    members = [(node, node % GROUPS) for node in range(NUM_NODES)]
    schema = DatabaseSchema.from_arities({"Edge": 2, "Member": 2})
    return Database.from_rows(schema, Edge=edges, Member=members)


#: The one-tuple update both arms apply: node 0 moves to another group.
OLD_ROW = [0, 0]
NEW_ROW = [0, GROUPS + 1]
#: Timed update rounds of the delta arm (the fastest one is reported).
DELTA_ROUNDS = 9


def _warm_service(db: Database) -> PrivateQueryService:
    """A service with ``db`` registered and every cache warm for ``QUERY``.

    Both arms start from a service built exactly like this one — same noise
    seed, same warm-up draws — so their post-update releases come from the
    same position of the same stream and must agree bitwise.
    """
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("mutation.noise")
    )
    service.register_database("g", db)
    for _ in range(WARMUP_RELEASES):
        service.count("g", QUERY, epsilon=EPSILON)
    return service


def measure_mutation_speedup(db: Database) -> dict:
    """Time one-tuple-update + re-query on both arms; return the evidence.

    Returns a dict with ``delta_seconds``, ``reregister_seconds``,
    ``speedup``, the delta arm's cache-warmth counters, and both releases
    (for the bitwise-equality assertion).
    """
    # Arm A — the delta path: POST /mutate one tuple, re-query.  The row
    # moves back and forth for DELTA_ROUNDS rounds, each a fresh epoch;
    # the fastest round is the arm's latency, the first one's release is
    # compared with arm B.
    delta_service = _warm_service(db)
    profiler_before = delta_service.stats()["profiler"]["component_cache_hits"]
    rounds = []
    with factorization_counter_scope() as counters:
        for round_index in range(DELTA_ROUNDS):
            old, new = (OLD_ROW, NEW_ROW) if round_index % 2 == 0 else (NEW_ROW, OLD_ROW)
            start = time.perf_counter()
            delta_service.mutate(
                "g", [{"relation": "Member", "op": "replace", "old": old, "new": new}]
            )
            release = delta_service.count("g", QUERY, epsilon=EPSILON)
            rounds.append(time.perf_counter() - start)
            if round_index == 0:
                delta_release = release
        factorization = counters.snapshot()
    delta_seconds = min(rounds)
    component_cache_hits = (
        delta_service.stats()["profiler"]["component_cache_hits"] - profiler_before
    )

    # Arm B — the sledgehammer: re-register the mutated contents, re-query.
    # The replacement Database is built outside the timed region (a client
    # would pay that too, so the measured ratio is conservative).
    rereg_service = _warm_service(db)
    mutated = Database.from_rows(
        DatabaseSchema.from_arities({"Edge": 2, "Member": 2}),
        Edge=sorted(db.relation("Edge").tuples()),
        Member=sorted(
            (db.relation("Member").tuples() - {tuple(OLD_ROW)}) | {tuple(NEW_ROW)}
        ),
    )
    start = time.perf_counter()
    rereg_service.register_database("g", mutated, replace=True)
    rereg_release = rereg_service.count("g", QUERY, epsilon=EPSILON)
    reregister_seconds = time.perf_counter() - start

    return {
        "delta_seconds": delta_seconds,
        "reregister_seconds": reregister_seconds,
        "speedup": reregister_seconds / delta_seconds,
        "factorization": factorization,
        "component_cache_hits": component_cache_hits,
        "delta_release": delta_release,
        "reregister_release": rereg_release,
    }


def test_one_tuple_update_speedup():
    measured = measure_mutation_speedup(mutation_db())
    delta, rereg = measured["delta_release"], measured["reregister_release"]

    # The delta path must be a pure shortcut: same sensitivity, and — both
    # arms drawing from the same warmed stream position — the same noise.
    assert delta.sensitivity == rereg.sensitivity
    assert delta.noisy_count == rereg.noisy_count

    # The warmth the speedup is built on, observed directly: the one-tuple
    # update re-coded no relation (Member's coded columns were extended in
    # place, Edge's untouched) and every Edge-only lattice component came
    # back from the epoch-keyed cache.
    assert measured["factorization"]["misses"] == 0, (
        f"delta path re-coded a relation: {measured['factorization']}"
    )
    assert measured["component_cache_hits"] > 0, (
        "no component cache hits: untouched components were re-evaluated"
    )

    print(
        f"\none-tuple update on {NUM_NODES}-node graph: "
        f"delta {measured['delta_seconds'] * 1e3:.1f} ms, re-register "
        f"{measured['reregister_seconds'] * 1e3:.1f} ms, "
        f"speedup {measured['speedup']:.1f}x "
        f"(component cache hits {measured['component_cache_hits']}, "
        f"factorization {measured['factorization']})"
    )
    # The ratio is reported, not gated: both arms run the same engine, so it
    # moves whenever cold evaluation gets faster.  The gate is the delta
    # arm's own latency: fail on a >25 % regression from the committed
    # BENCH_mutation.json baseline (never tighter than the fixed 45 ms cap,
    # below the 50-57 ms the per-column factorization engine that
    # dictionary-coded elimination replaced takes on a 2-core VM).
    assert measured["speedup"] > 1.0, "the delta path is slower than re-registering"
    trend_gate(
        "mutation", "delta_seconds", measured["delta_seconds"],
        floor=0.045, higher_is_better=False,
    )
