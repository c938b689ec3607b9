"""Graph pattern counting under edge-DP (the paper's evaluation workload).

This example mirrors Section 7 of the paper on a small surrogate of the GrQc
collaboration network: it counts triangles, 3-stars, rectangles and
2-triangles, compares the residual, elastic and (where available) smooth
sensitivities, and releases each count with the residual-sensitivity
mechanism.

Run with::

    python examples/graph_pattern_counting.py [--dataset GrQc] [--scale 0.02]
"""

from __future__ import annotations

import argparse

from repro.datasets import available_datasets, surrogate_database
from repro.experiments.reporting import format_number, format_ratio, render_table
from repro.graphs.patterns import (
    k_star_query,
    rectangle_query,
    triangle_query,
    two_triangle_query,
)
from repro.graphs.statistics import GraphStatistics, pattern_count
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.sensitivity import (
    ElasticSensitivity,
    ResidualSensitivity,
    StarSmoothSensitivity,
    TriangleSmoothSensitivity,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="GrQc", choices=available_datasets())
    parser.add_argument("--scale", type=float, default=0.02, help="surrogate scale factor")
    parser.add_argument("--epsilon", type=float, default=1.0)
    args = parser.parse_args()

    database = surrogate_database(args.dataset, scale=args.scale)
    stats = GraphStatistics.from_database(database)
    print(
        f"{args.dataset} surrogate: {stats.num_vertices} vertices, "
        f"{stats.num_undirected_edges} undirected edges, max degree {stats.max_degree()}"
    )

    beta = args.epsilon / 10.0
    queries = {
        "triangle": triangle_query(),
        "3-star": k_star_query(3),
        "rectangle": rectangle_query(),
        "2-triangle": two_triangle_query(),
    }
    smooth = {
        "triangle": TriangleSmoothSensitivity(beta=beta),
        "3-star": StarSmoothSensitivity(3, beta=beta),
    }

    rows = []
    for label, query in queries.items():
        count = pattern_count(database, query)
        rs = ResidualSensitivity(query, beta=beta).compute(database)
        es = ElasticSensitivity(query, beta=beta).compute(database)
        ss_value = smooth[label].compute(database).value if label in smooth else None
        release = PrivateCountingQuery(
            query, epsilon=args.epsilon, method="residual", rng=0
        ).release(database, true_count=count)
        rows.append(
            [
                label,
                format_number(count),
                format_number(ss_value, decimals=1) if ss_value is not None else "-",
                format_number(rs.value, decimals=1),
                format_number(es.value, decimals=1),
                format_ratio(es.value, rs.value),
                format_number(release.noisy_count, decimals=1),
            ]
        )

    print()
    print(
        render_table(
            ["pattern", "true count", "SS", "RS", "ES", "ES/RS", "DP release (RS)"],
            rows,
            title=f"Pattern counting on {args.dataset} (epsilon = {args.epsilon})",
        )
    )
    print()
    print(
        "Reading: residual sensitivity tracks smooth sensitivity closely, while\n"
        "elastic sensitivity is orders of magnitude larger on the cyclic patterns —\n"
        "exactly the Table 1 comparison of the paper."
    )


if __name__ == "__main__":
    main()
