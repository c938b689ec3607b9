#!/usr/bin/env python
"""Write compact benchmark snapshots (``BENCH_<area>.json``) at the repo root.

This is the committed perf trajectory: each run re-executes the gated
benchmark workloads — serving-layer cache speedup and warm latency
(``benchmarks/bench_service.py``), and the shared-lattice profiler speedup
(``benchmarks/bench_profile.py``) — and records the headline numbers in a
small, diffable JSON document per area.  Workloads are reproduced
bit-for-bit from ``REPRO_BENCH_SEED`` (default 0) via the same
``derive_seed`` streams the pytest benchmarks use, so successive snapshots
are comparable across commits; wall-clock numbers still move with the host,
which is why each snapshot records its environment.

Run::

    python scripts/bench_snapshot.py              # all areas
    python scripts/bench_snapshot.py --area service
    python scripts/bench_snapshot.py --output-dir /tmp/bench

CI uploads the refreshed snapshots as artifacts from the benchmark jobs
(see .github/workflows); committed baselines live at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench_utils import derive_seed, seed_record  # noqa: E402

AREAS = ("service", "profile", "concurrency", "mutation")


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _median_of(samples: list) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def snapshot_service() -> dict:
    """Serving layer: cache speedup and warm latency."""
    import bench_service as bs
    from repro.graphs.generators import collaboration_graph
    from repro.graphs.loader import database_from_networkx
    from repro.service.service import PrivateQueryService

    graph_db = database_from_networkx(
        collaboration_graph(200, 8.0, seed=derive_seed("service.graph"))
    )
    uncached_time, uncached = bs._run_repeated(graph_db, cache_capacity=0)
    cached_time, cached = bs._run_repeated(graph_db, cache_capacity=64)
    assert [r.noisy_count for r in cached] == [r.noisy_count for r in uncached]

    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    service.count("g", bs.TRIANGLE, epsilon=0.5)
    calls = 200
    samples = []
    for _ in range(10):
        start = time.perf_counter()
        for _ in range(calls):
            service.count("g", bs.TRIANGLE, epsilon=0.5)
        samples.append((time.perf_counter() - start) / calls)
    warm_latency = min(samples)
    return {
        "workload": {
            "query": bs.TRIANGLE,
            "graph_nodes": 200,
            "graph_average_degree": 8.0,
            "repeats": bs.REPEATS,
        },
        "results": {
            "uncached_seconds": round(uncached_time, 6),
            "cached_seconds": round(cached_time, 6),
            "cache_speedup": round(uncached_time / cached_time, 2),
            "warm_release_microseconds": round(warm_latency * 1e6, 2),
        },
    }


def snapshot_profile() -> dict:
    """Shared-lattice profiler vs the per-subset baseline (4-star query),
    the two-triangle profile's latency and the path-5 true count's."""
    import bench_profile as bp
    from repro.graphs.generators import collaboration_graph
    from repro.graphs.loader import database_from_networkx
    from repro.graphs.patterns import k_star_query, two_triangle_query
    from repro.sensitivity.residual import ResidualSensitivity

    graph = collaboration_graph(
        bp.NUM_NODES, bp.AVERAGE_DEGREE, seed=derive_seed("profile.graph")
    )
    graph_db = database_from_networkx(graph)
    engine = ResidualSensitivity(k_star_query(4), beta=0.1)
    _, shared, baseline_time, shared_time = bp._compare(engine, graph_db)
    stats = shared.stats
    engine = ResidualSensitivity(two_triangle_query(), beta=0.1)
    two_triangle_time = bp._compare(engine, graph_db)[3]
    path5_time = bp._path5_true_count_seconds(graph, graph_db)

    return {
        "workload": {
            "query": "star4",
            "graph_nodes": bp.NUM_NODES,
            "graph_average_degree": bp.AVERAGE_DEGREE,
        },
        "results": {
            "per_subset_seconds": round(baseline_time, 6),
            "shared_lattice_seconds": round(shared_time, 6),
            "speedup": round(baseline_time / shared_time, 2),
            "subsets_total": stats.subsets_total,
            "components_evaluated": stats.components_evaluated,
            "component_dedup_hits": stats.component_hits,
            "factorization_hits": stats.factorization_hits,
            "factorization_misses": stats.factorization_misses,
            "two_triangle_shared_seconds": round(two_triangle_time, 6),
            "path5_true_count_seconds": round(path5_time, 6),
        },
    }


def snapshot_concurrency() -> dict:
    """Charge pipeline under load: journal overhead + prefork HTTP scaling,
    on warm requests and on requests that miss every cache."""
    import bench_concurrency as bc
    from repro.graphs.generators import collaboration_graph
    from repro.graphs.loader import database_from_networkx

    graph_db = database_from_networkx(
        collaboration_graph(150, 6.0, seed=derive_seed("concurrency.graph"))
    )

    def run(**kwargs):
        service = bc._warm_service(graph_db, **kwargs)
        session = service.create_session(budget=1e6).session_id
        start = time.perf_counter()
        for _ in range(2 * bc.THREADS * bc.ROUNDS):
            service.count("g", bc.PATH2, epsilon=0.5, session=session)
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-conc-") as tmp:
        in_memory = run()
        journaled = run(state_dir=str(Path(tmp) / "journal"), snapshot_interval=100)

        edge_file = Path(tmp) / "edges.txt"
        edge_file.write_text(bc._EDGES)
        single = bc.measure_cluster_throughput(
            1, str(Path(tmp) / "st1"), str(edge_file)
        )
        quad = bc.measure_cluster_throughput(
            4, str(Path(tmp) / "st4"), str(edge_file)
        )
        cold_single = bc.measure_cluster_throughput(
            1, str(Path(tmp) / "cold1"), str(edge_file), cache_missing=True
        )
        cold_pair = bc.measure_cluster_throughput(
            2, str(Path(tmp) / "cold2"), str(edge_file), cache_missing=True
        )
    return {
        "workload": {
            "query": bc.PATH2,
            "graph_nodes": 150,
            "graph_average_degree": 6.0,
            "journaled_releases": 2 * bc.THREADS * bc.ROUNDS,
            "http_clients": 4,
            "http_requests_per_client": 60,
            "http_query": "Edge(x, y)",
            "http_cache_missing_query": "Edge(n, y), Edge(y, z), a fresh constant n per request",
        },
        "results": {
            "in_memory_seconds": round(in_memory, 6),
            "journaled_seconds": round(journaled, 6),
            "journal_overhead_ratio": round(journaled / in_memory, 2),
            "http_rps_1_worker": round(single, 1),
            "http_rps_4_workers": round(quad, 1),
            "cluster_scaling_x": round(quad / single, 2),
            "http_cache_missing_rps_1_worker": round(cold_single, 1),
            "http_cache_missing_rps_2_workers": round(cold_pair, 1),
            "cache_missing_scaling_x": round(cold_pair / cold_single, 2),
        },
    }


def snapshot_mutation() -> dict:
    """Delta mutation (one-tuple update + re-query) vs full re-registration."""
    import bench_mutation as bm

    measured = bm.measure_mutation_speedup(bm.mutation_db())
    assert measured["delta_release"].noisy_count == measured["reregister_release"].noisy_count
    return {
        "workload": {
            "query": bm.QUERY,
            "graph_nodes": bm.NUM_NODES,
            "graph_average_degree": bm.AVERAGE_DEGREE,
            "update": "one Member tuple replaced",
        },
        "results": {
            "delta_seconds": round(measured["delta_seconds"], 6),
            "reregister_seconds": round(measured["reregister_seconds"], 6),
            "delta_speedup": round(measured["speedup"], 2),
            "component_cache_hits": measured["component_cache_hits"],
            "component_delta_updates": measured["component_delta_updates"],
            "factorization_hits": measured["factorization"]["hits"],
            "factorization_misses": measured["factorization"]["misses"],
        },
    }


SNAPSHOTTERS = {
    "service": snapshot_service,
    "profile": snapshot_profile,
    "concurrency": snapshot_concurrency,
    "mutation": snapshot_mutation,
}


def write_snapshot(area: str, output_dir: Path) -> Path:
    document = {
        "area": area,
        "seed": seed_record(),
        "environment": _environment(),
        **SNAPSHOTTERS[area](),
    }
    path = output_dir / f"BENCH_{area}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--area", choices=(*AREAS, "all"), default="all",
        help="which benchmark area to snapshot (default: all)",
    )
    parser.add_argument(
        "--output-dir", type=Path, default=ROOT,
        help="directory for the BENCH_<area>.json files (default: repo root)",
    )
    args = parser.parse_args(argv)
    areas = AREAS if args.area == "all" else (args.area,)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    for area in areas:
        started = time.perf_counter()
        path = write_snapshot(area, args.output_dir)
        print(f"{area}: wrote {path} ({time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
