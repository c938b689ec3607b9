"""Table 1: sensitivity values and running times on the collaboration graphs.

For each benchmark query (``q△``, ``q3∗``, ``q□``, ``q2△``) and each
collaboration-graph surrogate, the harness records

* the exact query result (closed-form pattern count),
* the value and wall-clock time of residual sensitivity (RS),
* the value and wall-clock time of elastic sensitivity (ES),
* the value and wall-clock time of smooth sensitivity (SS), available —
  exactly as in the paper — only for the triangle and 3-star queries,
* the ratios RS/SS, SS-time/RS-time, ES/RS and RS-time/ES-time reported in
  the paper's comparison rows.

Absolute values shrink with the surrogate scale and absolute times depend on
this pure-Python implementation, but the qualitative reading of the table —
RS close to SS in value, ES orders of magnitude larger on q△/q□/q2△ and
essentially equal on q3∗, ES cheapest to compute — is scale-free (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.data.database import Database
from repro.datasets.snap_surrogates import available_datasets, surrogate_database
from repro.exceptions import ExperimentError
from repro.experiments.reporting import format_number, format_ratio, render_table
from repro.graphs.patterns import (
    k_star_query,
    rectangle_query,
    triangle_query,
    two_triangle_query,
)
from repro.graphs.statistics import pattern_count
from repro.query.cq import ConjunctiveQuery
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.residual import ResidualSensitivity
from repro.sensitivity.smooth_star import StarSmoothSensitivity
from repro.sensitivity.smooth_triangle import TriangleSmoothSensitivity

__all__ = ["Table1Config", "Table1Cell", "Table1Result", "run_table1", "format_table1"]


def benchmark_queries() -> dict[str, ConjunctiveQuery]:
    """The four pattern queries of the paper's evaluation, keyed by display label."""
    return {
        "q_triangle": triangle_query(),
        "q_3star": k_star_query(3),
        "q_rectangle": rectangle_query(),
        "q_2triangle": two_triangle_query(),
    }


def _smooth_engines(beta: float) -> dict[str, Callable[[Database], float]]:
    """Closed-form SS engines, available only for the queries the paper lists."""
    triangle = TriangleSmoothSensitivity(beta=beta)
    star = StarSmoothSensitivity(3, beta=beta)
    return {
        "q_triangle": lambda db: triangle.compute(db).value,
        "q_3star": lambda db: star.compute(db).value,
    }


@dataclass(frozen=True)
class Table1Config:
    """Configuration of a Table 1 run.

    Attributes
    ----------
    beta:
        Smoothing parameter (the paper's headline table uses 0.1, i.e. ε = 1).
    datasets:
        Dataset names (defaults to all five surrogates).
    queries:
        Query labels (defaults to all four benchmark queries).
    scale:
        Surrogate scale factor (``None`` = package default / environment).
    include_smooth:
        Whether to compute the SS baselines where available.
    """

    beta: float = 0.1
    datasets: tuple[str, ...] = ()
    queries: tuple[str, ...] = ()
    scale: float | None = None
    include_smooth: bool = True


@dataclass
class Table1Cell:
    """All measurements for one (dataset, query) pair."""

    dataset: str
    query: str
    query_result: int
    rs_value: float
    rs_seconds: float
    es_value: float
    es_seconds: float
    ss_value: float | None = None
    ss_seconds: float | None = None

    @property
    def rs_over_ss(self) -> float | None:
        """RS / SS (the paper reports ~1.0–2.0)."""
        if self.ss_value in (None, 0):
            return None
        return self.rs_value / self.ss_value

    @property
    def es_over_rs(self) -> float | None:
        """ES / RS (the paper reports 1× on q3∗ and 60×–900,000× elsewhere)."""
        if self.rs_value == 0:
            return None
        return self.es_value / self.rs_value


@dataclass
class Table1Result:
    """The full set of cells plus the configuration that produced them."""

    config: Table1Config
    cells: list[Table1Cell] = field(default_factory=list)

    def cell(self, dataset: str, query: str) -> Table1Cell:
        """Lookup a single cell (raises :class:`ExperimentError` if missing)."""
        for cell in self.cells:
            if cell.dataset == dataset and cell.query == query:
                return cell
        raise ExperimentError(f"no cell for dataset={dataset!r} query={query!r}")

    def queries(self) -> list[str]:
        """The distinct query labels, preserving run order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.query)
        return list(seen)

    def datasets(self) -> list[str]:
        """The distinct dataset names, preserving run order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.dataset)
        return list(seen)


def run_table1(
    config: Table1Config | None = None,
    *,
    databases: dict[str, Database] | None = None,
) -> Table1Result:
    """Run the Table 1 harness.

    Parameters
    ----------
    config:
        Run configuration (defaults to the paper's setting on all datasets
        and queries at the package's default surrogate scale).
    databases:
        Optional pre-built databases keyed by dataset name (used by the
        benchmark suite to avoid re-generating surrogates inside timed code,
        and by tests to substitute tiny graphs).
    """
    config = config or Table1Config()
    dataset_names = list(config.datasets) if config.datasets else available_datasets()
    queries = benchmark_queries()
    query_names = list(config.queries) if config.queries else list(queries)
    unknown = [name for name in query_names if name not in queries]
    if unknown:
        raise ExperimentError(f"unknown query labels: {unknown}; known: {list(queries)}")
    smooth_engines = _smooth_engines(config.beta) if config.include_smooth else {}

    result = Table1Result(config=config)
    for dataset_name in dataset_names:
        if databases is not None and dataset_name in databases:
            database = databases[dataset_name]
        else:
            database = surrogate_database(dataset_name, scale=config.scale)
        for query_name in query_names:
            query = queries[query_name]
            query_result = pattern_count(database, query)

            start = time.perf_counter()
            rs = ResidualSensitivity(query, beta=config.beta).compute(database)
            rs_seconds = time.perf_counter() - start

            start = time.perf_counter()
            es = ElasticSensitivity(query, beta=config.beta).compute(database)
            es_seconds = time.perf_counter() - start

            ss_value = None
            ss_seconds = None
            if query_name in smooth_engines:
                start = time.perf_counter()
                ss_value = smooth_engines[query_name](database)
                ss_seconds = time.perf_counter() - start

            result.cells.append(
                Table1Cell(
                    dataset=dataset_name,
                    query=query_name,
                    query_result=query_result,
                    rs_value=rs.value,
                    rs_seconds=rs_seconds,
                    es_value=es.value,
                    es_seconds=es_seconds,
                    ss_value=ss_value,
                    ss_seconds=ss_seconds,
                )
            )
    return result


def format_table1(result: Table1Result) -> str:
    """Render the result the way the paper's Table 1 reads (one block per query)."""
    blocks: list[str] = []
    datasets = result.datasets()
    for query_name in result.queries():
        rows: list[list[str]] = []
        cells = [result.cell(dataset, query_name) for dataset in datasets]
        rows.append(["Query result"] + [format_number(c.query_result) for c in cells])
        if any(c.ss_value is not None for c in cells):
            rows.append(
                ["Smooth sensitivity (SS)"]
                + [format_number(c.ss_value, decimals=1) for c in cells]
            )
            rows.append(
                ["SS time (s)"] + [format_number(c.ss_seconds, decimals=3) for c in cells]
            )
        rows.append(
            ["Residual sensitivity (RS)"]
            + [format_number(c.rs_value, decimals=1) for c in cells]
        )
        rows.append(["RS time (s)"] + [format_number(c.rs_seconds, decimals=3) for c in cells])
        rows.append(
            ["Elastic sensitivity (ES)"]
            + [format_number(c.es_value, decimals=1) for c in cells]
        )
        rows.append(["ES time (s)"] + [format_number(c.es_seconds, decimals=3) for c in cells])
        if any(c.ss_value is not None for c in cells):
            rows.append(
                ["RS/SS"] + [format_ratio(c.rs_value, c.ss_value) for c in cells]
            )
        rows.append(["ES/RS"] + [format_ratio(c.es_value, c.rs_value) for c in cells])
        blocks.append(
            render_table(
                [query_name] + datasets,
                rows,
                title=f"Table 1 block — {query_name} (beta={result.config.beta})",
            )
        )
    return "\n\n".join(blocks)
