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

Given a ``component_cache``, the count of a full query is kept there with
the epochs it read, and after a delta to one relation that occurs in one
atom it is caught up by the delta query — the count with no group
variables, maintained as a lattice component's group counts are
(:func:`repro.engine.columnar.maintained_counts`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.database import Database
from repro.engine import join as join_engine
from repro.engine.columnar import (
    EliminationResult,
    eliminate_group_counts_columnar,
    keeps_counts,
    maintained_counts,
)
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
    component_cache=None,
    cache_scope: tuple = (),
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
    component_cache / cache_scope:
        Optional :class:`repro.service.cache.LRUCache` and namespace (as for
        :func:`repro.engine.profile.evaluate_profile`).  A full query's
        count is looked up there while a relation that logs its changes
        occurs in one of its atoms, caught up by the delta query when it is
        stale and can be, and stored with the epochs it read
        (:func:`repro.engine.columnar.maintained_counts`).

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
        result = None
        if (
            component_cache is not None
            and distinct_on is None
            and keeps_counts(query, database)
        ):
            count, result = _maintained_count(query, database, component_cache, cache_scope)
            if count is not None:
                return count
        if result is None:
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


def _maintained_count(
    query: ConjunctiveQuery, database: Database, cache, scope: tuple
) -> tuple[int | None, EliminationResult | None]:
    """A full query's count through the component cache (see
    :func:`count_query`): ``(count, None)`` when it is exact, else ``(None,
    the inexact elimination result)`` — or ``(None, None)`` on a hit on an
    inexact entry."""
    key = (
        "count",
        scope,
        tuple((atom.relation, tuple(map(repr, atom.terms))) for atom in query.atoms),
        tuple(map(repr, query.predicates)),
    )
    inexact: list[EliminationResult] = []

    def compute() -> tuple[int | None, EliminationResult | None]:
        result = eliminate_group_counts_columnar(query, database, ())
        if not result.is_exact:
            inexact.append(result)
            return None, None
        return int(result.count_array.sum()), result

    count, _ = maintained_counts(
        cache,
        key,
        query,
        database,
        [atom.relation for atom in query.atoms],
        compute,
        lambda counts: int(counts.count_array.sum()),
    )
    return count, (inexact[0] if inexact else None)
