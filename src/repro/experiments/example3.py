"""Example 3 (Section 4.4): elastic sensitivity is not worst-case optimal.

The paper exhibits, for the path-4 query

    q = Edge(x1,x2) ⋈ Edge(x2,x3) ⋈ Edge(x3,x4) ⋈ Edge(x4,x5),

an instance on which elastic sensitivity is ``Ω(N³)`` even though the
AGM-based global-sensitivity bound (the worst case over *all* instances of
size N) is only ``O(N²)``.  The instance consists of two "half stars": node 0
points to nodes ``1..N/2`` and nodes ``N/2+1..N`` all point to node ``N+1``;
every per-attribute maximum frequency is ``N/2`` while the join is actually
empty.

The harness sweeps N, computing elastic sensitivity, the AGM/GS bound and
residual sensitivity on each instance, demonstrating both the ES ≫ GS
separation and that RS stays near the (tiny) local sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.database import Database
from repro.exceptions import ExperimentError
from repro.experiments.reporting import format_number, render_table
from repro.graphs.loader import database_from_edges
from repro.graphs.patterns import k_path_query
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.global_sensitivity import GlobalSensitivityBound
from repro.sensitivity.residual import ResidualSensitivity

__all__ = ["Example3Row", "adversarial_path4_instance", "run_example3", "format_example3"]


def adversarial_path4_instance(n: int) -> Database:
    """The two-half-star instance of Example 3 with ``n`` edge tuples.

    Node 0 points to ``1..n/2``; nodes ``n/2+1..n`` point to node ``n+1``.
    Every single-attribute maximum frequency equals ``n/2`` while the path-4
    join is empty (the two stars are disconnected).
    """
    if n < 2 or n % 2 != 0:
        raise ExperimentError(f"n must be a positive even number, got {n}")
    half = n // 2
    edges = [(0, i) for i in range(1, half + 1)]
    edges += [(half + i, n + 1) for i in range(1, half + 1)]
    return database_from_edges(edges, symmetric=False)


@dataclass(frozen=True)
class Example3Row:
    """Measurements for one instance size ``N``."""

    n: int
    elastic_value: float
    elastic_ls0: float
    gs_bound: float
    gs_exponent: float
    residual_value: float

    @property
    def es_over_gs(self) -> float:
        """The separation the example demonstrates (grows linearly with N).

        Following the paper's Example 3, the comparison uses the elastic
        distance-0 bound ``L̂S^(0) = 4(N/2)³`` against the worst-case (AGM)
        bound ``O(N²)``; the smoothed ES value itself is also reported but on
        small instances its maximisation over ``k`` masks the polynomial
        separation.
        """
        if self.gs_bound == 0:
            return float("inf")
        return self.elastic_ls0 / self.gs_bound


def run_example3(sizes: Sequence[int] = (16, 32, 64, 128, 256)) -> list[Example3Row]:
    """Measure ES, the GS bound and RS on the adversarial instance for each size."""
    query = k_path_query(4, inequalities=False)
    rows: list[Example3Row] = []
    for n in sizes:
        database = adversarial_path4_instance(n)
        elastic = ElasticSensitivity(query, beta=0.1)
        elastic_result = elastic.compute(database)
        gs = GlobalSensitivityBound(query)
        gs_result = gs.compute(database)
        rs_result = ResidualSensitivity(query, beta=0.1).compute(database)
        rows.append(
            Example3Row(
                n=n,
                elastic_value=elastic_result.value,
                elastic_ls0=elastic.ls_hat(database, 0),
                gs_bound=gs_result.value,
                gs_exponent=gs_result.detail("exponent"),
                residual_value=rs_result.value,
            )
        )
    return rows


def format_example3(rows: Sequence[Example3Row]) -> str:
    """Render the Example 3 sweep as a table."""
    table_rows = [
        [
            format_number(row.n),
            format_number(row.elastic_ls0),
            format_number(row.elastic_value),
            format_number(row.gs_bound),
            f"{row.gs_exponent:.1f}",
            format_number(row.residual_value, decimals=1),
            f"{row.es_over_gs:.2f}×",
        ]
        for row in rows
    ]
    return render_table(
        ["N", "ES LS^(0)", "ES", "GS (AGM)", "GS exponent", "RS", "ES LS^(0)/GS"],
        table_rows,
        title="Example 3 — elastic sensitivity vs the global-sensitivity bound (path-4)",
    )
