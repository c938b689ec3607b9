"""High-level query evaluation: result sets and counting queries.

The DP mechanisms of this library release ``|q(I)|``, the result size of a
conjunctive query.  This module provides that top-level entry point
(:func:`count_query`) together with :func:`evaluate_query`, which returns the
actual result tuples (projections onto the output variables) and is used by
examples and tests.

The count is obtained through columnar bucket elimination
(:mod:`repro.engine.columnar`), which applies every predicate without
enumerating the result; inequalities between variables summed out in
different buckets are expanded by Möbius inversion into predicate-free
terms.  Only when elimination drops a comparison or generic predicate,
because a bucket of its predicate-aware plan would pass
:data:`~repro.engine.columnar.BUCKET_ROW_CAP` rows, does the count fall back
to exact enumeration (optionally capped).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.database import Database
from repro.engine import join as join_engine
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.exceptions import EvaluationError
from repro.query.atoms import Variable
from repro.query.cq import ConjunctiveQuery

__all__ = ["evaluate_query", "count_query"]


def evaluate_query(
    query: ConjunctiveQuery,
    database: Database,
    *,
    max_intermediate: int | None = None,
) -> list[tuple]:
    """The distinct result tuples of ``query`` on ``database``.

    Results are projections onto :attr:`ConjunctiveQuery.output_variables`
    (all variables for a full query), returned in an unspecified but
    deterministic-per-run order as plain tuples.
    """
    query.validate_against_schema(database.schema)
    output_vars = query.output_variables
    results: set[tuple] = set()
    for assignment in join_engine.iterate_assignments(
        query, database, max_intermediate=max_intermediate
    ):
        results.add(tuple(assignment[v] for v in output_vars))
    return sorted(results, key=repr)


def count_query(
    query: ConjunctiveQuery,
    database: Database,
    *,
    strategy: str = "auto",
    max_intermediate: int | None = None,
) -> int:
    """The result size ``|q(I)|``.

    Parameters
    ----------
    strategy:
        ``"enumerate"`` forces exact backtracking enumeration;
        ``"eliminate"`` forces bucket elimination (raises
        :class:`~repro.exceptions.EvaluationError` if a predicate cannot be
        applied exactly); ``"auto"`` (default) uses elimination when it is
        exact for this query and enumeration otherwise.
    max_intermediate:
        Step cap for the enumeration strategy.

    Notes
    -----
    * For a **full** query the count is the number of satisfying
      assignments.
    * For a **non-full** query the count is the number of distinct
      projections onto the output variables — elimination handles this by
      grouping on the output variables and counting non-empty groups.
    """
    query.validate_against_schema(database.schema)
    if strategy not in ("auto", "enumerate", "eliminate"):
        raise EvaluationError(f"unknown strategy {strategy!r}")

    distinct_on: Sequence[Variable] | None = None
    if not query.is_full:
        distinct_on = tuple(query.output_variables)

    if strategy in ("auto", "eliminate"):
        result = eliminate_group_counts_columnar(query, database, distinct_on or ())
        if result.is_exact:
            if distinct_on is None:
                return int(result.count_array.sum())
            return int(np.count_nonzero(result.count_array))
        if strategy == "eliminate":
            raise EvaluationError(
                "bucket elimination cannot honour these predicates exactly: "
                f"{result.dropped_predicates!r}; use strategy='enumerate'"
            )

    return join_engine.count_assignments(
        query,
        database,
        distinct_on=distinct_on,
        max_intermediate=max_intermediate,
    )
