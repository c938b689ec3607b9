"""Boundary multiplicities ``T_E(I)`` of residual queries.

For a residual query ``q_E`` (the join of the atoms in ``E``) the *maximum
boundary multiplicity* is

    T_E(I) = max_{t ∈ dom(∂q_E)} | q_E(I) ⋉ t |                (full CQs)
    T_E(I) = max_{t ∈ dom(∂q_E)} | π_{o_E}( q_E(I) ⋉ t ) |      (non-full CQs)

with the conventions ``T_∅(I) = 1`` and, for non-full queries,
``T_E(I) = 1`` whenever ``o_E = ∅`` (Section 6).

``T_E`` is read off the group counts of columnar bucket elimination
(:mod:`repro.engine.columnar`), polynomial for bounded-width residuals.  It
applies every predicate inside the residual — inequalities between
variables summed out in different buckets by Möbius inversion into
predicate-free terms.  The value is a certified upper bound
(``exact=False``, the predicates listed as dropped) in two cases: a bucket
joined for a comparison or generic predicate would pass
:data:`~repro.engine.columnar.BUCKET_ROW_CAP` rows, or a predicate spans two
disconnected components of the residual, which are evaluated separately
and multiplied.

Only the maximum is needed, so a residual whose group counts are not kept
for delta maintenance does not build every group when it need not: in the
manner of the threshold algorithm (Fagin, Lotem & Naor, PODS 2001), the
residual without one atom bounds each group's count from above, and the
residual is counted only on the groups, in descending bound order, whose
bound can still beat the best count found (:func:`_pruned_max`).  That
path is taken from the query's predicates and the relations' change logs
alone, only where the plan applies every predicate on any data, so value,
``exact`` and dropped predicates are those of the full group-by.

Predicate-only boundary variables (``∂q2``, Section 5) are handled as
follows: predicates crossing the boundary that are pure inequalities are
ignored, which is exact for large domains (Corollary 5.1); crossing
comparison predicates are resolved by ranging the ``∂q2`` variables they
read over the augmented active domain ``Z+(q, I)`` (Section 5.2), one NumPy
mask over the residual's grouped rows per assignment — one mask in all
when a single variable is ranged and every comparison bounds it from the
same side; crossing generic predicates are rejected with an
:class:`~repro.exceptions.EvaluationError` (the general Section 5.1
algorithm is exponential and out of scope for the evaluation engine).
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
from repro.query.hypergraph import QueryHypergraph
from repro.query.predicates import InequalityPredicate, Predicate
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


#: Bound-ordered keys the first restricted evaluation of a prune takes, and
#: the factor each later chunk grows by; each chunk is one more
#: elimination.  Chosen on the cold-paper graph (2-core VM, 15 interleaved
#: cold profiles), as the time spent pruning the triangle's 2-path and all
#: of two_triangle's pruned components: 1 doubling 2.8 and 12.8 ms,
#: 16 ×4 1.9 and 9.2, 32 ×4 1.2 and 10.3, 64 ×4 1.2 and 8.0, 128 ×4 1.5
#: and 9.9.
_FIRST_CHUNK = 64
_CHUNK_GROWTH = 4


def _bound_atom(
    query: ConjunctiveQuery, residual: ResidualQuery, group_vars: tuple[Variable, ...]
) -> int | None:
    """The atom whose removal bounds the groups of a prune, or ``None``
    when the residual takes the full group-by.

    The plan must apply every predicate on any data, so that restricting
    the groups can move no ``exact`` flag: each predicate that no single
    atom factor applies is over group variables only (the predicate-blind
    plan applies it at the final join), or each is an ``x != y`` with an
    endpoint outside them (the Möbius terms then run without a row cap).
    The atom ``a`` must leave a connected rest that still holds every
    internal variable of ``a`` and only some, but not none, of the group
    variables; among such atoms, the one whose rest keeps the most group
    variables, then the first.
    """
    group_set = set(group_vars)
    atom_vars = [query.atoms[i].variable_set for i in residual.atom_indices]
    pending = [
        p for p in residual.predicates if not any(p.variables <= vs for vs in atom_vars)
    ]
    over_groups = all(p.variables <= group_set for p in pending)
    expanded = all(
        isinstance(p, InequalityPredicate)
        and len(p.variables) == 2
        and not p.variables <= group_set
        for p in pending
    )
    if not (over_groups or expanded):
        return None

    atoms = sorted(residual.atom_indices)
    best, best_kept = None, 0
    for atom in atoms:
        rest = [i for i in atoms if i != atom]
        rest_vars = query.variables_of(rest)
        kept = len(group_set & rest_vars)
        if (
            rest
            and query.atoms[atom].variable_set - group_set <= rest_vars
            and 0 < kept < len(group_set)
            and kept > best_kept
            and len(QueryHypergraph(query, rest).connected_components()) == 1
        ):
            best, best_kept = atom, kept
    return best


def _pruned_max(
    query: ConjunctiveQuery,
    database: Database,
    residual: ResidualQuery,
    group_vars: tuple[Variable, ...],
    drop: int,
) -> MultiplicityResult:
    """``T_E`` of a full residual by bound-and-prune (Fagin, Lotem & Naor,
    PODS 2001), without building every boundary group.

    Under set semantics a group ``g`` counts at most what the rest — the
    residual without atom ``drop`` — counts for ``h``, ``g``'s values on
    the group variables the rest keeps: the rest holds every internal
    variable, so each assignment counted for ``g`` is one counted for
    ``h``.  That upper bound ``U(h)`` stays one when its elimination drops
    predicates.  Keys ``h`` are visited in descending ``U`` (ties in the
    bound's row order), in chunks of :data:`_FIRST_CHUNK` keys
    growing by :data:`_CHUNK_GROWTH`; each chunk counts the residual
    restricted to it, which leaves each surviving group's count unchanged.
    The best exact count seen stops the visit once no key left can beat
    it.  The witness is the first group, in chunk order, attaining the
    maximum.
    """
    atoms = sorted(residual.atom_indices)
    rest = [i for i in atoms if i != drop]
    rest_vars = query.variables_of(rest)
    bound = eliminate_group_counts_columnar(
        query,
        database,
        tuple(v for v in group_vars if v in rest_vars),
        atom_indices=rest,
        predicates=residual.predicates,
    )
    order = np.argsort(-bound.count_array, kind="stable")
    upper = bound.count_array[order]
    value, witness, dropped = 0, None, []
    start, size = 0, _FIRST_CHUNK
    while start < len(order) and upper[start] > value:
        chunk = eliminate_group_counts_columnar(
            query,
            database,
            group_vars,
            atom_indices=atoms,
            predicates=residual.predicates,
            restrict=bound.take(order[start : start + size]),
        )
        dropped += [p for p in chunk.dropped_predicates if p not in dropped]
        best, key = _max_group(chunk, len(group_vars), False)
        if best > value:
            value, witness = best, key
        start += size
        size *= _CHUNK_GROWTH
    return MultiplicityResult(
        value=value,
        witness=witness,
        boundary=group_vars,
        strategy="eliminate",
        exact=not dropped,
        dropped_predicates=tuple(dropped),
    )


def _ranged_assignments(
    crossing: Sequence[Predicate], q2_vars: Sequence[Variable], domain: Sequence[int]
) -> Iterable[tuple]:
    """The assignments of the ranged ``∂q2`` variables Section 5.2 tries.

    Every one in general.  When a single variable ``z`` is ranged and every
    crossing comparison admits more rows as ``z`` moves the same way (up
    for ``x < z``, ``x <= z``, ``z > x``, ``z >= x``; down for the
    others), the masks of ascending values are nested, so each group's
    maximum is that of the domain's extreme on that side: one assignment.
    """
    if len(q2_vars) == 1:
        (var,) = q2_vars
        upward = [
            (p.right == var) == (p.op in ("<", "<="))
            for p in crossing
            if (p.left == var) != (p.right == var)
        ]
        if len(upward) == len(crossing) and len(set(upward)) == 1:
            return [(domain[-1] if upward[0] else domain[0],)]
    return itertools.product(domain, repeat=len(q2_vars))


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
    group keeps its maximum; one assignment suffices when a single variable
    is ranged from one side (:func:`_ranged_assignments`).  The witness is
    the group of least codes that attains the overall maximum.

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
        for combo in _ranged_assignments(crossing, q2_vars, domain_values):
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
    full residual that built every group (``None`` otherwise) — what a
    cache needs to catch the value up after a delta
    (:func:`repro.engine.columnar.refresh_group_counts`).

    Counts that :func:`~repro.engine.columnar.keeps_counts` would keep
    always come back.  A connected full residual whose counts would not be
    kept finds its maximum by bound-and-prune instead, building no counts
    (:func:`_pruned_max`), when its plan applies every predicate on any
    data and one of its atoms bounds the rest (:func:`_bound_atom`).  The
    choice reads only the query and the change logs, never row counts, so
    value, ``exact`` and dropped predicates are those of the full
    group-by."""
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

    if distinct_on is None and not columnar.keeps_counts(
        query, database, sorted(residual.atom_indices)
    ):
        drop = _bound_atom(query, residual, group_vars)
        if drop is not None:
            return _pruned_max(query, database, residual, group_vars, drop), None

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
