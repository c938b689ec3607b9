"""Boundary multiplicities ``T_E(I)`` of residual queries.

For a residual query ``q_E`` (the join of the atoms in ``E``) the *maximum
boundary multiplicity* is

    T_E(I) = max_{t ∈ dom(∂q_E)} | q_E(I) ⋉ t |                (full CQs)
    T_E(I) = max_{t ∈ dom(∂q_E)} | π_{o_E}( q_E(I) ⋉ t ) |      (non-full CQs)

with the conventions ``T_∅(I) = 1`` and, for non-full queries,
``T_E(I) = 1`` whenever ``o_E = ∅`` (Section 6).

``T_E`` is read off the group counts of one columnar bucket elimination
(:mod:`repro.engine.columnar`), polynomial for bounded-width residuals.  It
applies every predicate inside the residual — inequalities between
variables summed out in different buckets by Möbius inversion into
predicate-free terms.  The value is a certified upper bound
(``exact=False``, the predicates listed as dropped) in two cases: a bucket
joined for a comparison or generic predicate would pass
:data:`~repro.engine.columnar.BUCKET_ROW_CAP` rows, or a predicate spans two
disconnected components of the residual, which are evaluated separately
and multiplied.

Predicate-only boundary variables (``∂q2``, Section 5) are handled as
follows: predicates crossing the boundary that are pure inequalities are
ignored, which is exact for large domains (Corollary 5.1); crossing
comparison predicates are resolved by ranging the ``∂q2`` variables they
read over the augmented active domain ``Z+(q, I)`` (Section 5.2), one NumPy
mask over the residual's grouped rows per assignment; crossing generic
predicates are rejected with an :class:`~repro.exceptions.EvaluationError`
(the general Section 5.1 algorithm is exponential and out of scope for the
evaluation engine).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.data.database import Database
from repro.engine import columnar
from repro.engine.columnar import (
    EliminationResult,
    eliminate_group_counts_columnar,
    predicate_mask,
)
from repro.engine.domains import augmented_active_domain
from repro.exceptions import EvaluationError
from repro.query.atoms import Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.predicates import Predicate
from repro.query.residual import ResidualQuery, residual_query

__all__ = [
    "MultiplicityResult",
    "boundary_group_counts",
    "boundary_multiplicity",
    "combine_component_results",
    "multiplicity_from_counts",
]


@dataclass(frozen=True)
class MultiplicityResult:
    """The outcome of a ``T_E(I)`` computation.

    Attributes
    ----------
    value:
        The maximum boundary multiplicity.
    witness:
        A boundary assignment attaining the maximum (aligned with
        ``boundary``), or ``None`` when the boundary is empty or the residual
        is empty.
    boundary:
        The relational boundary variables ``∂q1_E`` used for grouping.
    strategy:
        ``"convention"``, ``"eliminate"`` or ``"eliminate+domain"`` (the
        Section 5.2 ranging) — how the value was obtained.
    exact:
        ``True`` if every predicate was honoured exactly; ``False`` if the
        value is an upper bound because predicates were dropped.
    dropped_predicates:
        The predicates that were not applied (empty when ``exact``).
    """

    value: int
    witness: tuple | None
    boundary: tuple[Variable, ...]
    strategy: str
    exact: bool
    dropped_predicates: tuple[Predicate, ...] = ()


def combine_component_results(
    residual: ResidualQuery,
    group_vars: tuple[Variable, ...],
    parts: Sequence[MultiplicityResult],
    component_vars: Sequence[frozenset[Variable]],
) -> MultiplicityResult:
    """Assemble ``T_E`` of a disconnected residual from its component results.

    The components' boundaries are disjoint, so the maximum joint
    multiplicity is the product of the per-component maxima.  Predicates
    inside the residual but spanning two components can never be applied by
    the per-component evaluation; they are reported as dropped and the value
    becomes an upper bound.  Shared by :func:`boundary_multiplicity` (which
    evaluates the components recursively) and the shared-lattice profile
    evaluator (:mod:`repro.engine.profile`, which memoizes them across
    subsets) so both produce identical results.
    """
    value = 1
    exact = True
    dropped: list[Predicate] = []
    for part in parts:
        value *= part.value
        exact = exact and part.exact
        dropped.extend(part.dropped_predicates)
    for pred in residual.predicates:
        if not any(pred.variables <= vars_ for vars_ in component_vars):
            dropped.append(pred)
            exact = False
    return MultiplicityResult(
        value=value,
        witness=None,
        boundary=group_vars,
        strategy="eliminate",
        exact=exact,
        dropped_predicates=tuple(dropped),
    )


def _max_group(
    result: EliminationResult, group_arity: int, distinct: bool
) -> tuple[int, tuple | None]:
    """The largest group value and its key, read off the count arrays.

    ``result`` is grouped by the boundary (its first ``group_arity``
    columns), followed for ``distinct`` by the output variables; the value
    of a boundary group is then its number of rows, the distinct outputs.
    ``np.argmax`` returns the first maximal row, the key a ``max`` over the
    :attr:`~repro.engine.columnar.EliminationResult.counts` dict returns.
    """
    per_row = result.count_array
    if not len(per_row):
        return 0, None
    if distinct:
        groups = result.group_codes(group_arity)
        per_row = np.bincount(groups)[groups]
    best = int(np.argmax(per_row))
    return int(per_row[best]), result.key(best)[:group_arity]


def multiplicity_from_counts(
    result: EliminationResult, boundary: tuple[Variable, ...]
) -> MultiplicityResult:
    """The exact ``T_E`` of a full residual whose boundary group counts are
    ``result`` (grouped by ``boundary``, in that order)."""
    value, witness = _max_group(result, len(boundary), False)
    return MultiplicityResult(
        value=value, witness=witness, boundary=boundary, strategy="eliminate", exact=True
    )


def _eliminate_max(
    query: ConjunctiveQuery,
    database: Database,
    residual: ResidualQuery,
    group_vars: tuple[Variable, ...],
    distinct_on: tuple[Variable, ...] | None,
) -> tuple[int, tuple | None, EliminationResult]:
    """``(value, witness, elimination result)`` by bucket elimination.

    Non-full residuals group by the boundary plus the output variables, so
    each row of the result is one distinct output of its boundary group.
    """
    extended = group_vars
    if distinct_on is not None:
        extended += tuple(v for v in distinct_on if v not in group_vars)
    result = eliminate_group_counts_columnar(
        query,
        database,
        extended,
        atom_indices=sorted(residual.atom_indices),
        predicates=residual.predicates,
    )
    value, witness = _max_group(result, len(group_vars), distinct_on is not None)
    return value, witness, result


def _comparison_boundary_value(
    query: ConjunctiveQuery,
    database: Database,
    residual: ResidualQuery,
    group_vars: tuple[Variable, ...],
    distinct_on: tuple[Variable, ...] | None,
) -> MultiplicityResult:
    """Section 5.2: resolve comparison predicates crossing the boundary.

    The ``∂q2`` variables (realised only outside the residual but linked to
    it through comparison predicates) range over the augmented active domain
    ``Z+(q, I)``; only those some crossing comparison reads are ranged, as
    the others change no mask.  One elimination groups the residual, with
    its inside predicates, by the boundary, then (for non-full queries) the
    output variables, then the residual variables the crossing comparisons
    read: rows that agree on those columns behave alike under every
    crossing comparison.  For every assignment of the ranged variables the
    crossing comparisons are one boolean mask over the grouped rows, whose
    counts (or distinct outputs) are summed per boundary group, and each
    group keeps its maximum.  The witness is the first group, in the
    elimination's group order, that attains the overall maximum.

    When the rows times the number of assignments pass
    :data:`~repro.engine.columnar.BUCKET_ROW_CAP`, the value is the
    boundary maximum without the crossing comparisons, an upper bound that
    reports them as dropped.
    """
    crossing = [p for p in residual.dropped_predicates if not p.is_inequality]
    read = {v for p in crossing for v in p.variables}
    q2_vars = sorted(read & residual.boundary_predicate_only, key=lambda v: v.name)
    row_vars = read - residual.boundary_predicate_only
    extended = group_vars
    if distinct_on is not None:
        extended += tuple(v for v in distinct_on if v not in extended)
    pair_arity = len(extended)
    extended += tuple(sorted(row_vars - set(extended), key=lambda v: v.name))
    grouped = eliminate_group_counts_columnar(
        query,
        database,
        extended,
        atom_indices=sorted(residual.atom_indices),
        predicates=residual.predicates,
    )
    dropped = list(grouped.dropped_predicates)
    rows = len(grouped.count_array)
    if not rows:
        return MultiplicityResult(
            value=0,
            witness=None,
            boundary=group_vars,
            strategy="eliminate+domain",
            exact=not dropped,
            dropped_predicates=tuple(dropped),
        )

    groups = grouped.group_codes(len(group_vars))
    n_groups = int(groups.max()) + 1
    if distinct_on is None:
        counts = grouped.count_array

        def per_group(mask: np.ndarray) -> np.ndarray:
            sums = np.zeros(n_groups, dtype=counts.dtype)
            np.add.at(sums, groups[mask], counts[mask])
            return sums

    else:
        # Count distinct (group, output) pairs: one code per pair.
        pairs = grouped.group_codes(pair_arity)
        group_of_pair = np.empty(int(pairs.max()) + 1, dtype=np.int64)
        group_of_pair[pairs] = groups

        def per_group(mask: np.ndarray) -> np.ndarray:
            return np.bincount(group_of_pair[np.unique(pairs[mask])], minlength=n_groups)

    domain_values = augmented_active_domain(query, database)
    if rows * len(domain_values) ** len(q2_vars) > columnar.BUCKET_ROW_CAP:
        best = per_group(np.ones(rows, dtype=bool))
        dropped.extend(crossing)
    else:
        columns = {v: grouped.dictionary.decode(grouped.codes[extended.index(v)]) for v in row_vars}
        best = np.zeros(n_groups, dtype=np.int64)
        for combo in itertools.product(domain_values, repeat=len(q2_vars)):
            operands = {**columns, **dict(zip(q2_vars, combo))}
            mask = np.ones(rows, dtype=bool)
            for pred in crossing:
                mask &= predicate_mask(pred, operands, rows)
            best = np.maximum(best, per_group(mask))

    top = int(np.argmax(best))
    value = int(best[top])
    witness = grouped.key(int(np.argmax(groups == top)))[: len(group_vars)] if value else None
    return MultiplicityResult(
        value=value,
        witness=witness,
        boundary=group_vars,
        strategy="eliminate+domain",
        exact=not dropped,
        dropped_predicates=tuple(dropped),
    )


def boundary_multiplicity(
    query: ConjunctiveQuery, database: Database, kept_atoms: Iterable[int]
) -> MultiplicityResult:
    """Compute ``T_E(I)`` for the residual query on ``kept_atoms``.

    Parameters
    ----------
    query:
        The parent conjunctive query (full or non-full, with or without
        predicates and self-joins).
    database:
        The instance ``I``.
    kept_atoms:
        The subset ``E`` of atom indices forming the residual query.  The
        empty set returns the conventional value ``1``.

    Returns
    -------
    MultiplicityResult
    """
    return boundary_group_counts(query, database, kept_atoms)[0]


def boundary_group_counts(
    query: ConjunctiveQuery, database: Database, kept_atoms: Iterable[int]
) -> tuple[MultiplicityResult, EliminationResult | None]:
    """:func:`boundary_multiplicity`, plus the boundary group counts the value
    was read off when it is an exact elimination maximum of a connected
    full residual (``None`` otherwise) — what a cache needs to catch the
    value up after a delta (:func:`repro.engine.columnar.refresh_group_counts`)."""
    residual = residual_query(query, kept_atoms)
    if residual.is_empty:
        return MultiplicityResult(
            value=1, witness=None, boundary=(), strategy="convention", exact=True
        ), None

    group_vars = tuple(sorted(residual.boundary_relational, key=lambda v: v.name))

    # Residuals that fall apart into several connected components (atoms
    # sharing no variables) are evaluated per component and multiplied:
    # their boundaries are disjoint, so the maximum joint multiplicity is the
    # product of the per-component maxima.  This avoids materialising cross
    # products (e.g. the two opposite edges of the rectangle query).
    from repro.query.hypergraph import QueryHypergraph

    components = QueryHypergraph(query, residual.atom_indices).connected_components()
    if len(components) > 1:
        return combine_component_results(
            residual,
            group_vars,
            [boundary_multiplicity(query, database, component) for component in components],
            [query.variables_of(component) for component in components],
        ), None

    # Non-full queries: count distinct projections onto o_E.  The list may
    # be *empty* (no output variable realised inside E): every non-empty
    # group then projects to the single empty tuple, so the evaluation
    # below yields 1 for occupied boundary groups and 0 for an empty
    # residual — the exact version of the paper's ``T_E = 1`` convention
    # (Section 6), which matters when the disconnected-components product
    # above multiplies component values, and keeps crossing comparison
    # predicates routed through the Section 5.2 domain ranging.
    distinct_on: tuple[Variable, ...] | None = None
    if not query.is_full:
        distinct_on = tuple(residual.output_variables)

    crossing = [p for p in residual.dropped_predicates if not p.is_inequality]
    if crossing:
        if not all(p.is_comparison for p in crossing):
            raise EvaluationError(
                "generic predicates crossing a residual boundary are not supported by "
                "the evaluation engine (Section 5.1 requires a satisfiability oracle); "
                f"offending predicates: {crossing!r}"
            )
        return _comparison_boundary_value(
            query, database, residual, group_vars, distinct_on
        ), None

    value, witness, eliminated = _eliminate_max(
        query, database, residual, group_vars, distinct_on
    )
    dropped = eliminated.dropped_predicates
    result = MultiplicityResult(
        value=value,
        witness=witness,
        boundary=group_vars,
        strategy="eliminate",
        exact=not dropped,
        dropped_predicates=tuple(dropped),
    )
    return result, eliminated if result.exact and distinct_on is None else None
