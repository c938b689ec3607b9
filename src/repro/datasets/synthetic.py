"""Generic synthetic relational data.

Random database instances over arbitrary schemas, with optional Zipf-like
value skew.  These are used by

* the hypothesis-based property tests (small skewed instances exercise the
  smoothness and upper-bound invariants far better than uniform data),
* the scaling ablation (instances of growing size), and
* the examples that need multi-relation data without the TPC-H scaffolding.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.exceptions import DatasetError

__all__ = ["random_database", "skewed_values"]


def skewed_values(
    count: int,
    domain_size: int,
    rng: np.random.Generator,
    *,
    skew: float = 1.0,
) -> np.ndarray:
    """``count`` values in ``[0, domain_size)`` with a Zipf-like distribution.

    ``skew = 0`` is uniform; larger values concentrate mass on small values,
    producing the heavy hitters that drive join sensitivities.
    """
    if count < 0:
        raise DatasetError(f"count must be non-negative, got {count}")
    if domain_size < 1:
        raise DatasetError(f"domain_size must be positive, got {domain_size}")
    if skew < 0:
        raise DatasetError(f"skew must be non-negative, got {skew}")
    ranks = np.arange(1, domain_size + 1, dtype=float)
    weights = ranks ** (-skew) if skew > 0 else np.ones_like(ranks)
    probabilities = weights / weights.sum()
    return rng.choice(domain_size, size=count, p=probabilities)


def random_database(
    schema: DatabaseSchema,
    sizes: Mapping[str, int],
    *,
    domain_size: int = 100,
    skew: float = 1.0,
    seed: int | np.random.Generator = 0,
) -> Database:
    """A random instance of ``schema`` with the requested relation sizes.

    Parameters
    ----------
    schema:
        The database schema.
    sizes:
        Target number of tuples per relation (set semantics may deduplicate a
        few tuples when the domain is small; the generator retries a bounded
        number of times to hit the target).
    domain_size:
        Values are drawn from ``[0, domain_size)`` for every attribute.
    skew:
        Zipf-like skew of the value distribution (0 = uniform).
    seed:
        Seed or numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    relations: dict[str, dict[tuple, None]] = {}
    for relation_schema in schema:
        target = sizes.get(relation_schema.name, 0)
        if target < 0:
            raise DatasetError(f"negative size for relation {relation_schema.name!r}")
        # Distinct rows in draw order.
        rows = relations[relation_schema.name] = {}
        attempts = 0
        while len(rows) < target and attempts < 20:
            missing = target - len(rows)
            columns: list[np.ndarray] = [
                skewed_values(missing, domain_size, rng, skew=skew)
                for _ in range(relation_schema.arity)
            ]
            for row in zip(*columns):
                rows[tuple(int(v) for v in row)] = None
                if len(rows) >= target:
                    break
            attempts += 1
    return Database(schema, relations)


def two_table_schema(private: Sequence[str] = ("R", "S")) -> DatabaseSchema:
    """A tiny two-relation schema ``R(a, b) ⋈ S(b, c)`` used across the tests."""
    return DatabaseSchema.from_arities({"R": 2, "S": 2}, private=private)
