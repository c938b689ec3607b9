"""Brute-force reference engine for the differential fuzz harness.

Everything here is written for *obvious correctness*, not speed, and on
purpose shares no code with the production engines it is used to check:

* :func:`oracle_count` evaluates ``|q(I)|`` by a naive nested-loop join —
  one loop level per atom, a plain dict as the variable assignment, every
  predicate applied on the fully materialised assignment.  No indexes, no
  elimination orders, no factorization.
* :func:`oracle_group_counts` is the same loop with a group-by on an
  explicit variable list — the semantics the boundary-multiplicity
  machinery reduces to.
* :func:`oracle_crossing_max_group_count` is the Section 5.2 boundary
  multiplicity of a residual whose comparison predicates cross its
  boundary: the same loop, then every assignment of the outside variables
  over a given domain tried against every group, one predicate call per
  row.
* :func:`oracle_local_sensitivity` computes the exact ``LS(I)`` by
  enumerating *every* neighbor at tuple-DP distance one (deletions,
  insertions and substitutions over the finite attribute domains) and
  re-counting from scratch.

Exponential in general — the fuzz runner only unleashes the neighbor
enumeration on instances below a small cost bound (see
:func:`oracle_neighbor_cost`).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from repro.data.database import Database
from repro.query.atoms import Constant, Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.predicates import Predicate

__all__ = [
    "oracle_count",
    "oracle_crossing_max_group_count",
    "oracle_group_counts",
    "oracle_local_sensitivity",
    "oracle_max_group_count",
    "oracle_neighbor_cost",
]


def _assignments(
    query: ConjunctiveQuery, database: Database
) -> Iterator[dict[Variable, object]]:
    """Every satisfying assignment, by nested loops over raw tuple lists."""
    atom_rows = [sorted(database.relation(atom.relation)) for atom in query.atoms]
    predicates = query.predicates

    def extend(level: int, assignment: dict[Variable, object]) -> Iterator[dict]:
        if level == len(query.atoms):
            if all(pred.evaluate(assignment) for pred in predicates):
                yield assignment
            return
        atom = query.atoms[level]
        for row in atom_rows[level]:
            candidate = dict(assignment)
            consistent = True
            for term, value in zip(atom.terms, row):
                if isinstance(term, Constant):
                    if term.value != value:
                        consistent = False
                        break
                elif candidate.setdefault(term, value) != value:
                    consistent = False
                    break
            if consistent:
                yield from extend(level + 1, candidate)

    yield from extend(0, {})


def oracle_count(query: ConjunctiveQuery, database: Database) -> int:
    """``|q(I)|`` — satisfying assignments (full) or distinct projections (non-full)."""
    query.validate_against_schema(database.schema)
    if query.is_full:
        return sum(1 for _ in _assignments(query, database))
    output = query.output_variables
    return len({tuple(a[v] for v in output) for a in _assignments(query, database)})


def oracle_group_counts(
    query: ConjunctiveQuery,
    database: Database,
    group_variables: Sequence[Variable],
) -> dict[tuple, int]:
    """Satisfying-assignment counts grouped by ``group_variables``."""
    query.validate_against_schema(database.schema)
    counts: dict[tuple, int] = {}
    for assignment in _assignments(query, database):
        key = tuple(assignment[v] for v in group_variables)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _candidate_rows(database: Database, relation: str) -> list[tuple]:
    """Every tuple the (finite) attribute domains of ``relation`` allow."""
    schema = database.schema.relation(relation)
    return [
        tuple(combo)
        for combo in itertools.product(*[list(attr.domain) for attr in schema.attributes])
    ]


def _neighbors(database: Database) -> Iterator[Database]:
    """All instances at tuple-DP distance exactly one (private edits only)."""
    for name in sorted(database.schema.private_relations):
        relation = database.relation(name)
        existing = sorted(relation)
        candidates = _candidate_rows(database, name)
        for row in existing:
            yield database.with_tuple_removed(name, row)
        for candidate in candidates:
            if candidate not in relation:
                yield database.with_tuple_added(name, candidate)
        for row in existing:
            for candidate in candidates:
                if candidate != row and candidate not in relation:
                    yield database.with_tuple_replaced(name, row, candidate)


def oracle_neighbor_cost(query: ConjunctiveQuery, database: Database) -> int:
    """Rough work estimate for :func:`oracle_local_sensitivity`.

    ``(number of neighbors) × (nested-loop steps per count)`` — the runner
    compares this against a budget before attempting the exact computation.
    """
    neighbor_count = 0
    for name in database.schema.private_relations:
        size = len(database.relation(name))
        domain = len(_candidate_rows(database, name))
        neighbor_count += size + domain + size * domain
    loop_steps = 1
    for atom in query.atoms:
        loop_steps *= max(1, len(database.relation(atom.relation)) + 1)
    return neighbor_count * loop_steps


def oracle_local_sensitivity(query: ConjunctiveQuery, database: Database) -> int:
    """Exact ``LS(I)``: the largest count change over all distance-one neighbors."""
    base = oracle_count(query, database)
    worst = 0
    for neighbor in _neighbors(database):
        worst = max(worst, abs(oracle_count(query, neighbor) - base))
    return worst


def oracle_max_group_count(
    query: ConjunctiveQuery,
    database: Database,
    group_variables: Sequence[Variable],
    distinct_on: Sequence[Variable] | None = None,
) -> int:
    """The largest per-group count (or distinct-projection count) of the query.

    With ``distinct_on`` the per-group value is the number of distinct
    projections onto those variables rather than the raw assignment count —
    the non-full convention of Section 6.
    """
    query.validate_against_schema(database.schema)
    if distinct_on is None:
        counts = oracle_group_counts(query, database, group_variables)
        return max(counts.values(), default=0)
    groups: dict[tuple, set[tuple]] = {}
    for assignment in _assignments(query, database):
        key = tuple(assignment[v] for v in group_variables)
        groups.setdefault(key, set()).add(tuple(assignment[v] for v in distinct_on))
    return max((len(values) for values in groups.values()), default=0)


def oracle_crossing_max_group_count(
    query: ConjunctiveQuery,
    database: Database,
    group_variables: Sequence[Variable],
    crossing: Sequence[Predicate],
    free_variables: Sequence[Variable],
    domain: Sequence[object],
    distinct_on: Sequence[Variable] | None = None,
) -> int:
    """The largest per-group count when ``free_variables`` range over ``domain``.

    ``crossing`` predicates link the query's variables to
    ``free_variables``, which no atom of ``query`` binds.  For every group
    and every assignment of ``free_variables`` drawn from ``domain``, count
    the group's satisfying assignments (or their distinct projections onto
    ``distinct_on``) under which every crossing predicate holds, and return
    the largest count.  A crossing predicate with a variable that neither
    side binds is skipped.
    """
    query.validate_against_schema(database.schema)
    groups: dict[tuple, list[dict]] = {}
    for assignment in _assignments(query, database):
        key = tuple(assignment[v] for v in group_variables)
        groups.setdefault(key, []).append(assignment)
    best = 0
    for rows in groups.values():
        for combo in itertools.product(domain, repeat=len(free_variables)):
            selected = []
            for row in rows:
                merged = {**row, **dict(zip(free_variables, combo))}
                if all(p.evaluate(merged) for p in crossing if p.is_bound(merged)):
                    selected.append(row)
            if distinct_on is None:
                count = len(selected)
            else:
                count = len({tuple(row[v] for v in distinct_on) for row in selected})
            best = max(best, count)
    return best
