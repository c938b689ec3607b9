"""Figure 3: sensitivity values as the smoothing parameter β varies.

The paper sweeps β from the high-privacy regime (β = 0.01, i.e. ε = 0.1) to
β = 1 (ε = 10) and plots SS, RS and ES together with the true query result
for every (dataset, query) panel.  The observation is that the measures are
insensitive to β except for very small β, where all of them grow.

The harness reuses one round of residual-multiplicity evaluation per panel
(the ``T_F`` values do not depend on β) and one max-frequency pass for ES, so
sweeping many β values is cheap; only the smoothing maximisation is repeated.
The output is a list of series per panel, which the benchmark prints and
writes to CSV for external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.database import Database
from repro.datasets.snap_surrogates import available_datasets, surrogate_database
from repro.exceptions import ExperimentError
from repro.experiments.reporting import format_number, render_table
from repro.experiments.table1 import benchmark_queries
from repro.graphs.statistics import pattern_count
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.residual import ResidualSensitivity
from repro.sensitivity.smooth_star import StarSmoothSensitivity
from repro.sensitivity.smooth_triangle import TriangleSmoothSensitivity

__all__ = ["Figure3Config", "Figure3Panel", "run_figure3", "format_figure3"]


def default_betas() -> tuple[float, ...]:
    """The β grid of the sweep: nine log-spaced values from 0.01 to 1.0."""
    return tuple(float(b) for b in np.logspace(-2, 0, 9))


@dataclass(frozen=True)
class Figure3Config:
    """Configuration of the β sweep.

    Attributes
    ----------
    betas:
        The β values (defaults to :func:`default_betas`).
    datasets / queries:
        Subset selection (defaults: all five surrogates, all four queries).
    scale:
        Surrogate scale factor.
    """

    betas: tuple[float, ...] = ()
    datasets: tuple[str, ...] = ()
    queries: tuple[str, ...] = ()
    scale: float | None = None


@dataclass
class Figure3Panel:
    """One panel of Figure 3: the β series for one (dataset, query) pair."""

    dataset: str
    query: str
    query_result: int
    betas: tuple[float, ...]
    rs_values: tuple[float, ...]
    es_values: tuple[float, ...]
    ss_values: tuple[float, ...] | None = None

    def as_rows(self) -> list[dict[str, object]]:
        """Flatten the panel into CSV-friendly rows."""
        rows = []
        for index, beta in enumerate(self.betas):
            rows.append(
                {
                    "dataset": self.dataset,
                    "query": self.query,
                    "beta": beta,
                    "query_result": self.query_result,
                    "rs": self.rs_values[index],
                    "es": self.es_values[index],
                    "ss": self.ss_values[index] if self.ss_values is not None else "",
                }
            )
        return rows


def run_figure3(
    config: Figure3Config | None = None,
    *,
    databases: dict[str, Database] | None = None,
) -> list[Figure3Panel]:
    """Run the β sweep and return one panel per (dataset, query) pair."""
    config = config or Figure3Config()
    betas = tuple(config.betas) if config.betas else default_betas()
    if not betas or any(b <= 0 for b in betas):
        raise ExperimentError(f"betas must be positive, got {betas}")
    dataset_names = list(config.datasets) if config.datasets else available_datasets()
    queries = benchmark_queries()
    query_names = list(config.queries) if config.queries else list(queries)
    unknown = [name for name in query_names if name not in queries]
    if unknown:
        raise ExperimentError(f"unknown query labels: {unknown}; known: {list(queries)}")

    panels: list[Figure3Panel] = []
    for dataset_name in dataset_names:
        if databases is not None and dataset_name in databases:
            database = databases[dataset_name]
        else:
            database = surrogate_database(dataset_name, scale=config.scale)
        for query_name in query_names:
            query = queries[query_name]
            query_result = pattern_count(database, query)

            # The residual multiplicities T_F are β-independent: evaluate once
            # (with any β) and re-run only the smoothing maximisation per β.
            probe = ResidualSensitivity(query, beta=betas[0])
            multiplicities = probe.multiplicities(database)
            rs_values = []
            for beta in betas:
                engine = ResidualSensitivity(query, beta=beta)
                rs_values.append(engine.compute(database, multiplicities).value)

            es_values = [
                ElasticSensitivity(query, beta=beta).compute(database).value for beta in betas
            ]

            ss_values: list[float] | None = None
            if query_name == "q_triangle":
                ss_values = [
                    TriangleSmoothSensitivity(beta=beta).compute(database).value
                    for beta in betas
                ]
            elif query_name == "q_3star":
                ss_values = [
                    StarSmoothSensitivity(3, beta=beta).compute(database).value
                    for beta in betas
                ]

            panels.append(
                Figure3Panel(
                    dataset=dataset_name,
                    query=query_name,
                    query_result=query_result,
                    betas=betas,
                    rs_values=tuple(rs_values),
                    es_values=tuple(es_values),
                    ss_values=tuple(ss_values) if ss_values is not None else None,
                )
            )
    return panels


def format_figure3(panels: Sequence[Figure3Panel]) -> str:
    """Render every panel as a small table of series (one row per measure)."""
    blocks = []
    for panel in panels:
        headers = ["series"] + [f"β={beta:.3g}" for beta in panel.betas]
        rows: list[list[str]] = []
        if panel.ss_values is not None:
            rows.append(["SS"] + [format_number(v, decimals=1) for v in panel.ss_values])
        rows.append(["RS"] + [format_number(v, decimals=1) for v in panel.rs_values])
        rows.append(["ES"] + [format_number(v, decimals=1) for v in panel.es_values])
        rows.append(["Query result"] + [format_number(panel.query_result)] * len(panel.betas))
        blocks.append(
            render_table(
                headers,
                rows,
                title=f"Figure 3 panel — {panel.dataset} / {panel.query}",
            )
        )
    return "\n\n".join(blocks)
