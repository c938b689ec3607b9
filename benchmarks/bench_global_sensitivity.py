"""Benchmark reproducing the Section 3.3 global-sensitivity examples.

Example 1: the triangle query has GS = O(N) under relaxed DP.
Example 2: the path-4 query has GS = O(N^2).

The benchmark solves the fractional-edge-cover LPs behind both bounds, prints
the exponents and the numeric bounds on a surrogate dataset, and checks them
against the Laplace mechanism's resulting noise scale.

Run::

    pytest benchmarks/bench_global_sensitivity.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.datasets.snap_surrogates import surrogate_database
from repro.experiments.reporting import format_number, render_table
from repro.graphs.patterns import k_path_query, triangle_query
from repro.sensitivity.global_sensitivity import GlobalSensitivityBound
from repro.sensitivity.residual import ResidualSensitivity

from bench_utils import bench_scale


@pytest.fixture(scope="module")
def database():
    return surrogate_database("GrQc", scale=bench_scale())


def test_gs_examples_1_and_2(benchmark, database):
    queries = {
        "triangle (Example 1)": triangle_query(inequalities=False),
        "path-4 (Example 2)": k_path_query(4, inequalities=False),
    }

    def run():
        rows = []
        for label, query in queries.items():
            bound = GlobalSensitivityBound(query)
            result = bound.compute(database)
            rs = ResidualSensitivity(query, beta=0.1).compute(database)
            rows.append((label, result.detail("exponent"), result.value, rs.value))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(
        render_table(
            ["query", "GS exponent", "GS bound (this N)", "RS (instance-specific)"],
            [
                [label, f"{exponent:.1f}", format_number(value), format_number(rs, decimals=1)]
                for label, exponent, value, rs in rows
            ],
            title="Section 3.3 — AGM-based global sensitivity bounds",
        )
    )

    by_label = {label: (exponent, value, rs) for label, exponent, value, rs in rows}
    assert by_label["triangle (Example 1)"][0] == pytest.approx(1.0)
    assert by_label["path-4 (Example 2)"][0] == pytest.approx(2.0)
    # Residual sensitivity is far below the worst-case bound on real-ish data.
    for exponent, value, rs in by_label.values():
        assert rs <= value
