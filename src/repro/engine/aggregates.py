"""Boundary multiplicities ``T_E(I)`` of residual queries.

For a residual query ``q_E`` (the join of the atoms in ``E``) the *maximum
boundary multiplicity* is

    T_E(I) = max_{t ∈ dom(∂q_E)} | q_E(I) ⋉ t |                (full CQs)
    T_E(I) = max_{t ∈ dom(∂q_E)} | π_{o_E}( q_E(I) ⋉ t ) |      (non-full CQs)

with the conventions ``T_∅(I) = 1`` and, for non-full queries,
``T_E(I) = 1`` whenever ``o_E = ∅`` (Section 6).

This module computes ``T_E(I)`` with two interchangeable strategies:

* ``"enumerate"`` — the exact backtracking join of :mod:`repro.engine.join`,
  which applies *all* predicates (used on small inputs and in tests);
* ``"eliminate"`` — columnar bucket elimination
  (:mod:`repro.engine.columnar`), polynomial for bounded-width residuals.
  It applies every predicate inside the residual — inequalities between
  variables summed out in different buckets by Möbius inversion into
  predicate-free terms — and reads the maximum straight off the
  group-count arrays.

The default ``"auto"`` strategy runs elimination and falls back to bounded
enumeration only when elimination dropped a comparison or generic
predicate because a bucket of its predicate-aware plan would pass
:data:`~repro.engine.columnar.BUCKET_ROW_CAP` rows.  A predicate spanning
two disconnected components of the residual is dropped too: the components
are evaluated separately and multiplied, and the product is kept as a
certified upper bound.

Predicate-only boundary variables (``∂q2``, Section 5) are handled as
follows: dropped predicates that are pure inequalities are ignored, which is
exact for large domains (Corollary 5.1); dropped comparison predicates are
resolved by ranging the ``∂q2`` variables over the augmented active domain
``Z+(q, I)`` (Section 5.2), one NumPy mask over the residual rows per
assignment; dropped generic predicates are rejected with an
:class:`~repro.exceptions.EvaluationError` (the general Section 5.1
algorithm is exponential and out of scope for the evaluation engine).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.data.database import Database
from repro.data.relation import value_column
from repro.engine import join as join_engine
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
    "boundary_multiplicity",
    "combine_component_results",
]

#: Default cap on backtracking extension steps before giving up on the exact
#: enumeration fallback.
DEFAULT_MAX_ENUMERATION = 500_000


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
        ``"convention"``, ``"enumerate"``, ``"eliminate"`` or
        ``"eliminate+domain"`` — how the value was obtained.
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


def _max_entry(counts: dict[tuple, int]) -> tuple[int, tuple | None]:
    if not counts:
        return 0, None
    best_key = max(counts, key=lambda k: counts[k])
    return counts[best_key], best_key


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


def _enumerate_counts(
    query: ConjunctiveQuery,
    database: Database,
    residual: ResidualQuery,
    group_vars: tuple[Variable, ...],
    distinct_on: tuple[Variable, ...] | None,
    predicates: Sequence[Predicate],
    max_intermediate: int | None,
) -> dict[tuple, int]:
    return join_engine.group_counts(
        query,
        database,
        group_vars,
        atom_indices=sorted(residual.atom_indices),
        predicates=predicates,
        distinct_on=distinct_on,
        max_intermediate=max_intermediate,
    )


def _eliminate_max(
    query: ConjunctiveQuery,
    database: Database,
    residual: ResidualQuery,
    group_vars: tuple[Variable, ...],
    distinct_on: tuple[Variable, ...] | None,
    predicates: Sequence[Predicate],
) -> tuple[int, tuple | None, tuple[Predicate, ...]]:
    """``(value, witness, dropped predicates)`` by bucket elimination.

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
        predicates=predicates,
    )
    value, witness = _max_group(result, len(group_vars), distinct_on is not None)
    return value, witness, result.dropped_predicates


def _comparison_boundary_value(
    query: ConjunctiveQuery,
    database: Database,
    residual: ResidualQuery,
    group_vars: tuple[Variable, ...],
    distinct_on: tuple[Variable, ...] | None,
    max_intermediate: int | None,
) -> MultiplicityResult:
    """Section 5.2: resolve comparison predicates crossing the boundary.

    The ``∂q2`` variables (realised only outside the residual but linked to
    it through comparison predicates) range over the augmented active domain
    ``Z+(q, I)``.  We enumerate the residual exactly, then for every
    assignment of the ``∂q2`` variables evaluate the crossing predicates as
    one boolean mask over all residual rows, count the surviving rows (or
    their distinct outputs) per boundary group with ``np.bincount``, and
    keep each group's maximum.  The witness is the first group, in
    enumeration order, that attains the overall maximum.
    """
    crossing = [p for p in residual.dropped_predicates if not p.is_inequality]
    q2_vars = tuple(sorted(residual.boundary_predicate_only, key=lambda v: v.name))
    domain_values = augmented_active_domain(query, database)

    inside_preds = list(residual.predicates) + [
        p for p in residual.dropped_predicates if p.is_inequality and p.variables <= residual.variables
    ]

    assignments = list(
        join_engine.iterate_assignments(
            query,
            database,
            atom_indices=sorted(residual.atom_indices),
            predicates=inside_preds,
            max_intermediate=max_intermediate,
        )
    )
    result = MultiplicityResult(
        value=0,
        witness=None,
        boundary=group_vars,
        strategy="eliminate+domain",
        exact=True,
        dropped_predicates=(),
    )
    if not assignments:
        return result

    # Predicates with a variable neither row nor ∂q2 assignment binds are
    # skipped, as an unbound predicate cannot be evaluated.
    known = set(assignments[0]) | set(q2_vars)
    bound = [p for p in crossing if p.variables <= known]
    row_vars = {v for p in bound for v in p.variables if v not in q2_vars}
    columns = {v: value_column([a[v] for a in assignments]) for v in row_vars}

    groups: dict[tuple, int] = {}
    group_of_row = np.array(
        [groups.setdefault(tuple(a[v] for v in group_vars), len(groups)) for a in assignments],
        dtype=np.int64,
    )
    if distinct_on is not None:
        # Count distinct (group, output) pairs: one code per pair.
        pairs: dict[tuple, int] = {}
        pair_of_row = np.array(
            [
                pairs.setdefault((g, tuple(a[v] for v in distinct_on)), len(pairs))
                for g, a in zip(group_of_row.tolist(), assignments)
            ],
            dtype=np.int64,
        )
        group_of_pair = np.array([g for g, _ in pairs], dtype=np.int64)

    rows = len(assignments)
    best = np.zeros(len(groups), dtype=np.int64)
    for combo in itertools.product(domain_values, repeat=len(q2_vars)):
        operands = {**columns, **dict(zip(q2_vars, combo))}
        mask = np.ones(rows, dtype=bool)
        for pred in bound:
            mask &= predicate_mask(pred, operands, rows)
        if distinct_on is None:
            selected = group_of_row[mask]
        else:
            selected = group_of_pair[np.unique(pair_of_row[mask])]
        np.maximum(best, np.bincount(selected, minlength=len(groups)), out=best)

    value = int(best.max())
    if not value:
        return result
    witness = list(groups)[int(np.argmax(best))]
    return replace(result, value=value, witness=witness)


def boundary_multiplicity(
    query: ConjunctiveQuery,
    database: Database,
    kept_atoms: Iterable[int],
    *,
    strategy: str = "auto",
    max_enumeration: int | None = DEFAULT_MAX_ENUMERATION,
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
    strategy:
        ``"auto"`` (default), ``"enumerate"`` or ``"eliminate"``.
    max_enumeration:
        Step cap for the exact enumeration strategy / fallback; ``None``
        disables the cap.

    Returns
    -------
    MultiplicityResult
    """
    residual = residual_query(query, kept_atoms)
    if residual.is_empty:
        return MultiplicityResult(
            value=1, witness=None, boundary=(), strategy="convention", exact=True
        )

    group_vars = tuple(sorted(residual.boundary_relational, key=lambda v: v.name))

    # Residuals that fall apart into several connected components (atoms
    # sharing no variables) are evaluated per component and multiplied:
    # their boundaries are disjoint, so the maximum joint multiplicity is the
    # product of the per-component maxima.  This avoids materialising cross
    # products (e.g. the two opposite edges of the rectangle query).
    if strategy != "enumerate":
        from repro.query.hypergraph import QueryHypergraph

        components = QueryHypergraph(query, residual.atom_indices).connected_components()
        if len(components) > 1:
            parts = [
                boundary_multiplicity(
                    query,
                    database,
                    component,
                    strategy=strategy,
                    max_enumeration=max_enumeration,
                )
                for component in components
            ]
            return combine_component_results(
                residual,
                group_vars,
                parts,
                [query.variables_of(component) for component in components],
            )

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

    # Predicate classification.
    dropped_comparison_or_generic = [
        p for p in residual.dropped_predicates if not p.is_inequality
    ]
    if dropped_comparison_or_generic:
        if any(
            not (p.is_inequality or p.is_comparison) for p in dropped_comparison_or_generic
        ):
            raise EvaluationError(
                "generic predicates crossing a residual boundary are not supported by "
                "the evaluation engine (Section 5.1 requires a satisfiability oracle); "
                f"offending predicates: {dropped_comparison_or_generic!r}"
            )
        return _comparison_boundary_value(
            query, database, residual, group_vars, distinct_on, max_enumeration
        )

    inside_preds = list(residual.predicates)

    if strategy not in ("auto", "enumerate", "eliminate"):
        raise EvaluationError(f"unknown strategy {strategy!r}")

    if strategy == "enumerate":
        counts = _enumerate_counts(
            query, database, residual, group_vars, distinct_on, inside_preds, max_enumeration
        )
        value, witness = _max_entry(counts)
        return MultiplicityResult(
            value=value,
            witness=witness,
            boundary=group_vars,
            strategy="enumerate",
            exact=True,
            dropped_predicates=(),
        )

    value, witness, dropped = _eliminate_max(
        query, database, residual, group_vars, distinct_on, inside_preds
    )
    eliminate_result = MultiplicityResult(
        value=value,
        witness=witness,
        boundary=group_vars,
        strategy="eliminate",
        exact=not dropped,
        dropped_predicates=tuple(dropped),
    )
    if strategy == "eliminate" or eliminate_result.exact:
        return eliminate_result

    # auto: elimination dropped predicates — try exact enumeration under the cap.
    try:
        counts = _enumerate_counts(
            query, database, residual, group_vars, distinct_on, inside_preds, max_enumeration
        )
    except EvaluationError:
        return eliminate_result
    value, witness = _max_entry(counts)
    return MultiplicityResult(
        value=value,
        witness=witness,
        boundary=group_vars,
        strategy="enumerate",
        exact=True,
        dropped_predicates=(),
    )
