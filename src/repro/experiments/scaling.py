"""Scaling ablation: residual-sensitivity cost and value versus instance size.

Theorem 1.1 claims ``RS(I)`` is computable in ``poly(N)`` time; the concrete
complexity is ``O(N^{w_max})`` with ``w_max`` the maximum AJAR/FAQ width of
the residual queries (Section 3.5).  This study generates collaboration
graphs of growing size (constant average degree) and measures the wall-clock
time and value of residual sensitivity for a chosen query, confirming the
polynomial growth and providing a cost model for sizing real deployments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.experiments.reporting import format_number, render_table
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import triangle_query
from repro.query.cq import ConjunctiveQuery
from repro.sensitivity.residual import ResidualSensitivity

__all__ = ["ScalingRow", "run_scaling_study", "format_scaling_study"]


@dataclass(frozen=True)
class ScalingRow:
    """Measurement at one instance size."""

    num_nodes: int
    num_edge_tuples: int
    rs_value: float
    rs_seconds: float


def run_scaling_study(
    sizes: Sequence[int] = (100, 200, 400, 800),
    *,
    average_degree: float = 8.0,
    query: ConjunctiveQuery | None = None,
    beta: float = 0.1,
    seed: int = 5,
) -> list[ScalingRow]:
    """Measure RS value and computation time on graphs of growing size."""
    query = query or triangle_query()
    rows: list[ScalingRow] = []
    for size in sizes:
        graph = collaboration_graph(size, average_degree, seed=seed)
        database = database_from_networkx(graph)
        start = time.perf_counter()
        rs = ResidualSensitivity(query, beta=beta).compute(database)
        elapsed = time.perf_counter() - start
        rows.append(
            ScalingRow(
                num_nodes=size,
                num_edge_tuples=len(database.relation("Edge")),
                rs_value=rs.value,
                rs_seconds=elapsed,
            )
        )
    return rows


def format_scaling_study(rows: Sequence[ScalingRow]) -> str:
    """Render the scaling study as a table."""
    table_rows = [
        [
            format_number(row.num_nodes),
            format_number(row.num_edge_tuples),
            format_number(row.rs_value, decimals=1),
            format_number(row.rs_seconds, decimals=3),
        ]
        for row in rows
    ]
    return render_table(
        ["nodes", "edge tuples", "RS", "seconds"],
        table_rows,
        title="Scaling of residual-sensitivity computation (triangle query)",
    )
