"""Empirical neighborhood-optimality ratios (quantifying Theorem 1.1).

Theorem 1.1 states that the RS-based mechanism is ``O(1)``-neighborhood
optimal, with a worst-case constant from Lemma 4.8 that is very loose
(``(4(n_P-1)/(βe^{1-β}))^{n_P-1}``).  This study measures how large the
ratio actually is on the benchmark instances:

    ratio = Err(M_RS, I) / neighborhood lower bound at radius n_P
          = (10·RS(I)/ε) / ( max_{E ⊆ P_n} T_{[n]-E}(I) / (2·sqrt(1+e^ε)) )

using the polynomially computable lower bound of Lemma 4.5.  Small ratios
(tens, not thousands) show that the mechanism is much closer to optimal in
practice than the worst-case constant suggests — the same observation the
paper makes by comparing RS against SS in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.database import Database
from repro.datasets.snap_surrogates import available_datasets, surrogate_database
from repro.experiments.reporting import format_number, render_table
from repro.experiments.table1 import benchmark_queries
from repro.sensitivity.lower_bounds import (
    lemma_4_5_lower_bound,
    mechanism_error_from_sensitivity,
    optimality_ratio,
)
from repro.sensitivity.residual import ResidualSensitivity

__all__ = ["OptimalityRow", "run_optimality_study", "format_optimality_study"]


@dataclass(frozen=True)
class OptimalityRow:
    """The optimality measurement for one (dataset, query) pair."""

    dataset: str
    query: str
    rs_value: float
    mechanism_error: float
    lower_bound: float
    lower_bound_radius: int
    ratio: float


def run_optimality_study(
    *,
    epsilon: float = 1.0,
    datasets: Sequence[str] = (),
    queries: Sequence[str] = (),
    scale: float | None = None,
    databases: dict[str, Database] | None = None,
) -> list[OptimalityRow]:
    """Compute the empirical optimality ratio for each (dataset, query) pair."""
    beta = epsilon / 10.0
    dataset_names = list(datasets) if datasets else available_datasets()
    all_queries = benchmark_queries()
    query_names = list(queries) if queries else list(all_queries)

    rows: list[OptimalityRow] = []
    for dataset_name in dataset_names:
        if databases is not None and dataset_name in databases:
            database = databases[dataset_name]
        else:
            database = surrogate_database(dataset_name, scale=scale)
        for query_name in query_names:
            query = all_queries[query_name]
            rs = ResidualSensitivity(query, beta=beta).compute(database)
            error = mechanism_error_from_sensitivity(rs, epsilon)
            bound = lemma_4_5_lower_bound(query, database, epsilon)
            rows.append(
                OptimalityRow(
                    dataset=dataset_name,
                    query=query_name,
                    rs_value=rs.value,
                    mechanism_error=error,
                    lower_bound=bound.value,
                    lower_bound_radius=bound.radius,
                    ratio=optimality_ratio(error, bound),
                )
            )
    return rows


def format_optimality_study(rows: Sequence[OptimalityRow]) -> str:
    """Render the optimality study as a table."""
    table_rows = [
        [
            row.dataset,
            row.query,
            format_number(row.rs_value, decimals=1),
            format_number(row.mechanism_error, decimals=1),
            format_number(row.lower_bound, decimals=1),
            format_number(row.lower_bound_radius),
            f"{row.ratio:.1f}×",
        ]
        for row in rows
    ]
    return render_table(
        ["dataset", "query", "RS", "Err(M_RS)", "lower bound", "radius", "ratio"],
        table_rows,
        title="Empirical neighborhood-optimality ratios of the RS mechanism",
    )
