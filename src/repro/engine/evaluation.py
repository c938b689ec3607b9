"""High-level query evaluation: result sets and counting queries.

The DP mechanisms of this library release ``|q(I)|``, the result size of a
conjunctive query.  This module provides that top-level entry point
(:func:`count_query`) together with :func:`evaluate_query`, which returns the
actual result tuples (projections onto the output variables) and is used by
examples and tests.

Both run on columnar bucket elimination (:mod:`repro.engine.columnar`),
which applies every predicate without enumerating the result;
inequalities between variables summed out in different buckets are
expanded by Möbius inversion into predicate-free terms.  When elimination
drops a comparison or generic predicate, because a bucket of its
predicate-aware plan would pass :data:`~repro.engine.columnar.BUCKET_ROW_CAP`
rows, its counts are only upper bounds, and both refuse with an
:class:`~repro.exceptions.EvaluationError` instead of answering — unless
every upper bound is 0, which proves the query has no answers.

Given a ``component_cache``, the count of a full query is kept there with
the epochs it read, and after a delta to one relation that occurs in one
atom it is caught up by the delta query — the count with no group
variables, maintained as a lattice component's group counts are
(:func:`repro.engine.columnar.maintained_counts`).
"""

from __future__ import annotations

import numpy as np

from repro.data.database import Database
from repro.engine.columnar import (
    EliminationResult,
    eliminate_group_counts_columnar,
    keeps_counts,
    maintained_counts,
)
from repro.exceptions import EvaluationError
from repro.query.cq import ConjunctiveQuery

__all__ = ["evaluate_query", "count_query"]


def _require_exact(result: EliminationResult) -> None:
    """Refuse an upper-bound result that still has a group.  Over the cap
    every count is an upper bound, so a result with none is exact: empty."""
    if not result.is_exact and np.count_nonzero(result.count_array):
        raise EvaluationError(
            "bucket elimination cannot honour these predicates without passing "
            f"the row cap: {result.dropped_predicates!r}"
        )


def evaluate_query(query: ConjunctiveQuery, database: Database) -> list[tuple]:
    """The distinct result tuples of ``query`` on ``database``.

    Results are projections onto :attr:`ConjunctiveQuery.output_variables`
    (all variables for a full query) — one elimination grouped by them —
    returned as plain tuples sorted by ``repr``.
    """
    query.validate_against_schema(database.schema)
    result = eliminate_group_counts_columnar(query, database, query.output_variables)
    _require_exact(result)
    occupied = np.flatnonzero(result.count_array)
    columns = [column[occupied].tolist() for column in result.columns]
    rows = zip(*columns) if columns else [()] * len(occupied)
    return sorted(map(tuple, rows), key=repr)


def count_query(
    query: ConjunctiveQuery,
    database: Database,
    *,
    component_cache=None,
    cache_scope: tuple = (),
) -> int:
    """The result size ``|q(I)|``.

    Raises :class:`~repro.exceptions.EvaluationError` when elimination
    cannot apply every predicate under its row cap, unless its upper-bound
    counts are all 0 (then the count is exactly 0).

    Parameters
    ----------
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
    if not query.is_full:
        result = eliminate_group_counts_columnar(query, database, query.output_variables)
        _require_exact(result)
        return int(np.count_nonzero(result.count_array))

    if component_cache is None or not keeps_counts(query, database):
        return _full_count(query, database)[0]
    key = (
        "count",
        cache_scope,
        tuple((atom.relation, tuple(map(repr, atom.terms))) for atom in query.atoms),
        tuple(map(repr, query.predicates)),
    )
    count, _ = maintained_counts(
        component_cache,
        key,
        query,
        database,
        [atom.relation for atom in query.atoms],
        lambda: _full_count(query, database),
        lambda counts: int(counts.count_array.sum()),
    )
    return count


def _full_count(
    query: ConjunctiveQuery, database: Database
) -> tuple[int, EliminationResult | None]:
    """A full query's count and the exact elimination result it was read
    off (``None`` for a provably-zero count over the cap: upper bounds are
    never kept as counts)."""
    result = eliminate_group_counts_columnar(query, database, ())
    _require_exact(result)
    return int(result.count_array.sum()), result if result.is_exact else None
