"""Exact backtracking join evaluation — a test reference, not an engine.

No production path calls this module: every count and boundary
multiplicity comes from columnar elimination (:mod:`repro.engine.columnar`).
The test suite uses it as an exact per-subset reference, and the benchmark
harness under ``perfbench/`` still wraps :func:`group_counts` and
:func:`count_assignments` to count enumeration calls (which stay zero).

This module enumerates the satisfying assignments of a conjunctive query by
backtracking over atoms in a connectivity-aware order, using hash indexes for
each extension step and applying every predicate as soon as its variables are
bound.  It is exact for arbitrary predicates (including
:class:`~repro.query.predicates.GenericPredicate`), at the cost of running
time proportional to the number of intermediate matches.

The module exposes three entry points:

* :func:`iterate_assignments` — a generator over full satisfying assignments,
* :func:`count_assignments` — the number of satisfying assignments, optionally
  counting *distinct projections* onto a set of variables, and
* :func:`group_counts` — per-group counts keyed by a tuple of group variables
  (the primitive behind the boundary multiplicities ``T_E``).

All entry points accept ``max_intermediate`` as a safety valve: if the number
of extension steps exceeds it, an :class:`~repro.exceptions.EvaluationError`
is raised.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.data.database import Database
from repro.engine.indexes import AtomMatcher
from repro.exceptions import EvaluationError
from repro.query.atoms import Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import QueryHypergraph
from repro.query.predicates import Predicate

__all__ = ["iterate_assignments", "count_assignments", "group_counts"]


def _build_matchers(
    query: ConjunctiveQuery,
    database: Database,
    atom_indices: Sequence[int] | None,
) -> list[tuple[int, AtomMatcher]]:
    indices = list(range(query.num_atoms)) if atom_indices is None else list(atom_indices)
    matchers = []
    for idx in indices:
        atom = query.atoms[idx]
        matchers.append((idx, AtomMatcher(atom, database.relation(atom.relation))))
    return matchers


def _atom_order(
    query: ConjunctiveQuery,
    atom_indices: Sequence[int],
    seed_variables: Iterable[Variable] = (),
) -> list[int]:
    """A connectivity-aware atom order (greedy: maximise shared variables)."""
    hypergraph = QueryHypergraph(query, atom_indices)
    return hypergraph.connected_order(seeds=tuple(seed_variables))


def _applicable_predicates(
    predicates: Sequence[Predicate],
    newly_boundable: frozenset[Variable],
    bound_after: frozenset[Variable],
) -> list[Predicate]:
    """Predicates fully bound after this step and not fully bound before it."""
    result = []
    for pred in predicates:
        pvars = pred.variables
        if pvars <= bound_after and pvars & newly_boundable:
            result.append(pred)
    return result


def iterate_assignments(
    query: ConjunctiveQuery,
    database: Database,
    *,
    atom_indices: Sequence[int] | None = None,
    predicates: Sequence[Predicate] | None = None,
    max_intermediate: int | None = None,
) -> Iterator[dict[Variable, object]]:
    """Yield every satisfying assignment of the (sub)query.

    Parameters
    ----------
    query:
        The conjunctive query.
    database:
        The database instance.
    atom_indices:
        Restrict evaluation to these atoms (defaults to all); this is how
        residual queries are evaluated without building new query objects.
    predicates:
        Predicates to apply (defaults to ``query.predicates``).  Predicates
        whose variables are not all covered by the chosen atoms are ignored
        (they can never be fully bound) — callers that care, such as the
        residual analyzer, perform that classification themselves.
    max_intermediate:
        Optional cap on the total number of extension steps; exceeding it
        raises :class:`EvaluationError`.
    """
    indices = list(range(query.num_atoms)) if atom_indices is None else list(atom_indices)
    if not indices:
        yield {}
        return
    preds = list(query.predicates if predicates is None else predicates)
    covered_vars = query.variables_of(indices)
    preds = [p for p in preds if p.variables <= covered_vars]

    order = _atom_order(query, indices)
    matcher_by_index = dict(_build_matchers(query, database, indices))
    matchers = [matcher_by_index[idx] for idx in order]

    # Pre-compute, per step, which predicates become checkable.
    bound_sets: list[frozenset[Variable]] = []
    running: set[Variable] = set()
    per_step_predicates: list[list[Predicate]] = []
    for matcher in matchers:
        new_vars = frozenset(matcher.variables) - frozenset(running)
        running |= set(matcher.variables)
        bound_after = frozenset(running)
        bound_sets.append(bound_after)
        per_step_predicates.append(_applicable_predicates(preds, new_vars, bound_after))

    steps = 0

    def backtrack(depth: int, assignment: dict[Variable, object]) -> Iterator[dict[Variable, object]]:
        nonlocal steps
        if depth == len(matchers):
            yield dict(assignment)
            return
        matcher = matchers[depth]
        for new_bindings in matcher.matches(assignment):
            steps += 1
            if max_intermediate is not None and steps > max_intermediate:
                raise EvaluationError(
                    f"backtracking join exceeded max_intermediate={max_intermediate}"
                )
            assignment.update(new_bindings)
            ok = all(pred.evaluate(assignment) for pred in per_step_predicates[depth])
            if ok:
                yield from backtrack(depth + 1, assignment)
            for var in new_bindings:
                del assignment[var]

    yield from backtrack(0, {})


def count_assignments(
    query: ConjunctiveQuery,
    database: Database,
    *,
    atom_indices: Sequence[int] | None = None,
    predicates: Sequence[Predicate] | None = None,
    distinct_on: Sequence[Variable] | None = None,
    max_intermediate: int | None = None,
) -> int:
    """Count satisfying assignments, optionally as *distinct* projections.

    With ``distinct_on=None`` this returns the number of satisfying
    assignments over all variables of the selected atoms (the result size of
    a full CQ).  With ``distinct_on`` given, it returns the number of
    distinct value combinations of those variables over all satisfying
    assignments (the result size of a non-full CQ).
    """
    if distinct_on is None:
        total = 0
        for _ in iterate_assignments(
            query,
            database,
            atom_indices=atom_indices,
            predicates=predicates,
            max_intermediate=max_intermediate,
        ):
            total += 1
        return total
    projections: set[tuple] = set()
    proj_vars = tuple(distinct_on)
    for assignment in iterate_assignments(
        query,
        database,
        atom_indices=atom_indices,
        predicates=predicates,
        max_intermediate=max_intermediate,
    ):
        projections.add(tuple(assignment[v] for v in proj_vars))
    return len(projections)


def group_counts(
    query: ConjunctiveQuery,
    database: Database,
    group_variables: Sequence[Variable],
    *,
    atom_indices: Sequence[int] | None = None,
    predicates: Sequence[Predicate] | None = None,
    distinct_on: Sequence[Variable] | None = None,
    max_intermediate: int | None = None,
) -> dict[tuple, int]:
    """Per-group result counts keyed by the values of ``group_variables``.

    This is the exact-evaluation backend for the boundary multiplicities
    ``T_E(I)``: group by the boundary ``∂q_E`` and count join results (full
    CQs) or distinct projections onto ``o_E`` (non-full CQs) per group.

    Returns a dictionary from group-key tuples to counts.  Groups with no
    satisfying assignment do not appear.
    """
    group_vars = tuple(group_variables)
    counts: dict[tuple, int] = {}
    if distinct_on is None:
        for assignment in iterate_assignments(
            query,
            database,
            atom_indices=atom_indices,
            predicates=predicates,
            max_intermediate=max_intermediate,
        ):
            key = tuple(assignment[v] for v in group_vars)
            counts[key] = counts.get(key, 0) + 1
        return counts
    seen: dict[tuple, set[tuple]] = {}
    proj_vars = tuple(distinct_on)
    for assignment in iterate_assignments(
        query,
        database,
        atom_indices=atom_indices,
        predicates=predicates,
        max_intermediate=max_intermediate,
    ):
        key = tuple(assignment[v] for v in group_vars)
        seen.setdefault(key, set()).add(tuple(assignment[v] for v in proj_vars))
    return {key: len(values) for key, values in seen.items()}
