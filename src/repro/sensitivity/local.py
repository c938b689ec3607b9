"""Local sensitivity ``LS(I)`` and its distance-``k`` variant ``LS^(k)(I)``.

The local sensitivity (Equation 3 of the paper) is the largest change of
``|q(I)|`` over all instances at tuple-DP distance one.  Releasing noise
calibrated to ``LS`` directly violates DP, but ``LS`` and ``LS^(k)`` are the
yardsticks every other measure is compared against:

* smooth sensitivity is ``max_k e^{-βk}·LS^(k)(I)``;
* the neighborhood lower bound of Lemma 4.2 is ``LS^(r-1)(I)/(2√(1+e^ε))``;
* residual sensitivity upper-bounds ``LS^(k)`` through residual-query
  multiplicities.

This module provides three flavours:

1. :func:`local_sensitivity_exact` — exact brute force, enumerating all
   neighbors over finite attribute domains (reference implementation for
   tests; exponential in general).
2. :func:`local_sensitivity_at_distance` — exact ``LS^(k)`` by breadth-first
   search over the distance-``k`` ball (reference implementation; use only
   on tiny instances).
3. :func:`local_sensitivity_upper_bound` — the polynomial residual-query
   bounds: exact for self-join-free queries (Lemma 3.3) and an upper bound
   in the presence of self-joins (Theorem 3.5).
"""

from __future__ import annotations

from typing import Iterable

from repro.data.database import Database
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.evaluation import count_query
from repro.exceptions import SensitivityError
from repro.query.cq import ConjunctiveQuery
from repro.sensitivity.base import SensitivityResult

__all__ = [
    "local_sensitivity_exact",
    "local_sensitivity_at_distance",
    "local_sensitivity_upper_bound",
]


def _require_private(query: ConjunctiveQuery, database: Database) -> None:
    if not query.private_blocks(database.schema):
        raise SensitivityError(
            "the query touches no private relation; its sensitivity is zero and "
            "no noise is needed"
        )


def local_sensitivity_exact(
    query: ConjunctiveQuery,
    database: Database,
    *,
    allow_insert: bool = True,
    allow_delete: bool = True,
    allow_substitute: bool = True,
) -> SensitivityResult:
    """Exact ``LS(I)`` by enumerating every neighbor of ``I``.

    Requires finite attribute domains on the private relations whenever
    insertions or substitutions are allowed (see
    :meth:`repro.data.database.Database.candidate_tuples`).  Intended for
    small test instances; complexity is linear in the number of neighbors,
    which itself is linear in the number of candidate tuples.
    """
    query.validate_against_schema(database.schema)
    _require_private(query, database)
    base_count = count_query(query, database)
    worst = 0
    best_neighbor = None
    for neighbor in database.neighbors(
        allow_insert=allow_insert,
        allow_delete=allow_delete,
        allow_substitute=allow_substitute,
    ):
        neighbor_count = count_query(query, neighbor)
        diff = abs(neighbor_count - base_count)
        if diff > worst:
            worst = diff
            best_neighbor = neighbor
    details = {"base_count": base_count}
    if best_neighbor is not None:
        details["witness_size"] = best_neighbor.size()
    return SensitivityResult(measure="LS", value=float(worst), beta=None, details=details)


def local_sensitivity_at_distance(
    query: ConjunctiveQuery,
    database: Database,
    k: int,
    *,
    allow_insert: bool = True,
    allow_delete: bool = True,
    allow_substitute: bool = True,
    max_instances: int = 200_000,
) -> SensitivityResult:
    """Exact ``LS^(k)(I) = max_{d(I, I') <= k} LS(I')`` by BFS over the ball.

    This is doubly exponential in ``k`` in the worst case and is provided as
    a *reference implementation* for validating smooth and residual
    sensitivity on tiny instances.  ``max_instances`` caps the number of
    distinct instances visited; exceeding it raises
    :class:`SensitivityError`.
    """
    if k < 0:
        raise SensitivityError(f"k must be non-negative, got {k}")
    query.validate_against_schema(database.schema)
    _require_private(query, database)

    def _fingerprint(db: Database) -> tuple:
        return tuple(
            (name, frozenset(db.relation(name))) for name in db.schema.relation_names
        )

    frontier = [database]
    visited = {_fingerprint(database)}
    all_instances = [database]
    for _ in range(k):
        next_frontier: list[Database] = []
        for instance in frontier:
            for neighbor in instance.neighbors(
                allow_insert=allow_insert,
                allow_delete=allow_delete,
                allow_substitute=allow_substitute,
            ):
                fp = _fingerprint(neighbor)
                if fp in visited:
                    continue
                visited.add(fp)
                if len(visited) > max_instances:
                    raise SensitivityError(
                        f"distance-{k} ball exceeds max_instances={max_instances}; "
                        "use a smaller instance or domain"
                    )
                next_frontier.append(neighbor)
                all_instances.append(neighbor)
        frontier = next_frontier

    worst = 0
    for instance in all_instances:
        ls = local_sensitivity_exact(
            query,
            instance,
            allow_insert=allow_insert,
            allow_delete=allow_delete,
            allow_substitute=allow_substitute,
        )
        worst = max(worst, int(ls.value))
    return SensitivityResult(
        measure=f"LS^({k})",
        value=float(worst),
        beta=None,
        details={"ball_size": len(all_instances), "k": k},
    )


def local_sensitivity_upper_bound(
    query: ConjunctiveQuery,
    database: Database,
) -> SensitivityResult:
    """Residual-query bound on ``LS(I)``.

    * Self-join-free queries: ``LS(I) = max_{i ∈ P_n} T_{[n]-{i}}(I)``
      (Lemma 3.3) — the returned value is exact.
    * Queries with self-joins: ``LS(I) <= max_{i ∈ P_m} Σ_{E ⊆ D_i, E ≠ ∅}
      T_{[n]-E}(I)`` (Theorem 3.5) — the returned value is an upper bound.

    A multiplicity that is itself only an upper bound (predicates dropped)
    makes the value one too.  The measure is ``"LS"`` and
    ``details["exact"]`` is ``True`` only when the value is exact;
    otherwise the measure is ``"LS-upper"``.  The ``details`` also record,
    per private block, the contributing residual multiplicities.
    """
    query.validate_against_schema(database.schema)
    _require_private(query, database)
    n = query.num_atoms
    all_atoms = frozenset(range(n))
    per_block: dict[str, int] = {}
    contributions: dict[str, list[tuple[tuple[int, ...], int]]] = {}
    exact = query.is_self_join_free
    for block in query.private_blocks(database.schema):
        total = 0
        terms: list[tuple[tuple[int, ...], int]] = []
        subsets: Iterable[frozenset[int]]
        if query.is_self_join_free:
            subsets = [frozenset({idx}) for idx in block.atom_indices]
        else:
            from repro.query.residual import all_subsets_of_block

            subsets = all_subsets_of_block(block.atom_indices)
        values = []
        for removed in subsets:
            kept = all_atoms - removed
            result = boundary_multiplicity(query, database, kept)
            terms.append((tuple(sorted(removed)), result.value))
            values.append(result.value)
            exact = exact and result.exact
        if query.is_self_join_free:
            total = max(values) if values else 0
        else:
            total = sum(values)
        per_block[block.relation] = total
        contributions[block.relation] = terms
    value = max(per_block.values()) if per_block else 0
    return SensitivityResult(
        measure="LS" if exact else "LS-upper",
        value=float(value),
        beta=None,
        details={"per_block": per_block, "contributions": contributions, "exact": exact},
    )
