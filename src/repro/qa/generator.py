"""Seed-addressable random workloads for the differential fuzz harness.

A :class:`WorkloadGenerator` deterministically maps ``(seed, index)`` to a
:class:`FuzzCase`: a random schema, a random database instance, a random
conjunctive query, and a designated neighbor edit.  Determinism is the
load-bearing property — any failure anywhere (CI, nightly fuzz, a user's
shell) is fully described by its ``(seed, index)`` coordinates, and
:func:`repro.qa.replay.replay_case` rebuilds the exact instance from them.

The sampled space is deliberately adversarial for this library:

* **schemas** mix arities 1–3, small finite domains (so brute-force
  neighbor enumeration stays feasible and value collisions are common),
  and occasionally a public relation;
* **databases** are drawn uniformly or with a skewed hot join key (heavy
  boundary multiplicities are where elimination bugs hide), including
  empty relations;
* **queries** cover self-joins, constants in atoms, inequality and
  comparison predicates (both variable–variable and variable–constant),
  graphs of inequalities over all the used variables (all pairs, or each
  pair with probability 1/2), and non-full projections — every feature of
  the paper's query class the engines claim to support.

Cases are value objects: ``case.schema()`` / ``case.database()`` /
``case.query()`` rebuild fresh library objects on every call, so checks
can mutate instances without poisoning later checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.data.database import Database
from repro.data.domain import IntegerDomain
from repro.data.schema import Attribute, DatabaseSchema, RelationSchema
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query

__all__ = ["RelationSpec", "FuzzCase", "WorkloadGenerator"]

_RELATION_NAMES = ("R", "S", "T")
_VARIABLE_POOL = ("x0", "x1", "x2", "x3", "x4")
_COMPARISON_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class RelationSpec:
    """Shape of one generated relation: name, arity, domain size, privacy."""

    name: str
    arity: int
    domain_size: int
    private: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "arity": self.arity,
            "domain_size": self.domain_size,
            "private": self.private,
        }


@dataclass(frozen=True)
class FuzzCase:
    """One generated workload: schema + instance + query + neighbor edit.

    ``neighbor_op`` is ``"add"`` or ``"remove"`` on ``neighbor_relation``
    (always a private relation), so ``database()`` and
    ``neighbor_database()`` are at tuple-DP distance exactly one — the
    pairs the smoothness invariants quantify over.
    """

    seed: int
    index: int
    relations: tuple[RelationSpec, ...]
    rows: Mapping[str, tuple[tuple[int, ...], ...]]
    query_text: str
    epsilon: float
    neighbor_relation: str
    neighbor_op: str
    neighbor_row: tuple[int, ...]

    @property
    def beta(self) -> float:
        """The paper's smoothing parameter ``β = ε/10``."""
        return self.epsilon / 10.0

    def schema(self) -> DatabaseSchema:
        """A fresh :class:`DatabaseSchema` (finite integer domains)."""
        schemas = []
        for spec in self.relations:
            domain = IntegerDomain(0, spec.domain_size - 1)
            schemas.append(
                RelationSchema(
                    spec.name,
                    [Attribute(f"a{i}", domain) for i in range(spec.arity)],
                )
            )
        private = [spec.name for spec in self.relations if spec.private]
        return DatabaseSchema(schemas, private=private)

    def database(self) -> Database:
        """A fresh instance built from the recorded rows."""
        return Database(self.schema(), relations=dict(self.rows))

    def neighbor_database(self) -> Database:
        """The designated neighbor (distance exactly one from ``database()``)."""
        db = self.database()
        if self.neighbor_op == "add":
            return db.with_tuple_added(self.neighbor_relation, self.neighbor_row)
        return db.with_tuple_removed(self.neighbor_relation, self.neighbor_row)

    def query(self) -> ConjunctiveQuery:
        """The parsed conjunctive query."""
        return parse_query(self.query_text)

    def total_rows(self) -> int:
        """Total tuples across all relations (a cost proxy for the oracle)."""
        return sum(len(rows) for rows in self.rows.values())

    def describe(self) -> dict[str, Any]:
        """A JSON-serialisable record (embedded in failure reports)."""
        return {
            "seed": self.seed,
            "index": self.index,
            "relations": [spec.to_dict() for spec in self.relations],
            "rows": {name: [list(row) for row in rows] for name, rows in self.rows.items()},
            "query": self.query_text,
            "epsilon": self.epsilon,
            "neighbor": {
                "relation": self.neighbor_relation,
                "op": self.neighbor_op,
                "row": list(self.neighbor_row),
            },
        }


class WorkloadGenerator:
    """Deterministic fuzz-case factory.

    ``WorkloadGenerator(seed).case(i)`` is a pure function of ``(seed, i)``
    — each case gets its own :class:`random.Random` seeded with the string
    ``"{seed}:{i}"`` (string seeding is version-stable in CPython), so
    cases can be regenerated individually and out of order.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The master seed."""
        return self._seed

    def case(self, index: int) -> FuzzCase:
        """Generate case ``index`` (deterministic, independent of other calls)."""
        rng = random.Random(f"{self._seed}:{index}")
        relations = self._sample_relations(rng)
        rows = {spec.name: self._sample_rows(rng, spec) for spec in relations}
        query_text = self._sample_query(rng, relations)
        epsilon = rng.choice((0.5, 1.0, 2.0))
        neighbor_relation, neighbor_op, neighbor_row = self._sample_neighbor_edit(
            rng, relations, rows, query_text
        )
        return FuzzCase(
            seed=self._seed,
            index=index,
            relations=tuple(relations),
            rows={name: tuple(map(tuple, rel_rows)) for name, rel_rows in rows.items()},
            query_text=query_text,
            epsilon=epsilon,
            neighbor_relation=neighbor_relation,
            neighbor_op=neighbor_op,
            neighbor_row=tuple(neighbor_row),
        )

    def cases(self, count: int, start: int = 0):
        """Yield ``count`` cases starting at ``start``."""
        for index in range(start, start + count):
            yield self.case(index)

    # ------------------------------------------------------------------ #
    # Sampling internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sample_relations(rng: random.Random) -> list[RelationSpec]:
        count = rng.choice((1, 2, 2, 3))
        specs = []
        # At least one relation stays private, or no query can be sensitive.
        public_slot = rng.randrange(count) if count > 1 and rng.random() < 0.2 else None
        for position in range(count):
            specs.append(
                RelationSpec(
                    name=_RELATION_NAMES[position],
                    arity=rng.choice((1, 2, 2, 2, 3)),
                    domain_size=rng.randint(3, 6),
                    private=position != public_slot,
                )
            )
        return specs

    @staticmethod
    def _sample_rows(rng: random.Random, spec: RelationSpec) -> list[tuple[int, ...]]:
        target = rng.randint(0, 8)
        skewed = rng.random() < 0.5
        hot_column = rng.randrange(spec.arity)
        hot_value = rng.randrange(spec.domain_size)
        rows: set[tuple[int, ...]] = set()
        for _ in range(target * 3):  # set semantics: duplicates collapse
            if len(rows) >= target:
                break
            row = tuple(rng.randrange(spec.domain_size) for _ in range(spec.arity))
            if skewed and rng.random() < 0.6:
                row = row[:hot_column] + (hot_value,) + row[hot_column + 1 :]
            rows.add(row)
        return sorted(rows)

    @staticmethod
    def _sample_query(rng: random.Random, relations: Sequence[RelationSpec]) -> str:
        by_name = {spec.name: spec for spec in relations}
        private_names = [spec.name for spec in relations if spec.private]
        atom_count = rng.choice((1, 2, 2, 3))

        chosen: list[RelationSpec] = []
        for position in range(atom_count):
            if chosen and rng.random() < 0.3:
                chosen.append(rng.choice(chosen))  # deliberate self-join
            else:
                chosen.append(by_name[rng.choice(list(by_name))])
        if not any(spec.private for spec in chosen):
            chosen[rng.randrange(len(chosen))] = by_name[rng.choice(private_names)]

        atom_texts = []
        used_variables: list[str] = []
        for spec in chosen:
            terms = []
            for _ in range(spec.arity):
                if rng.random() < 0.1:
                    terms.append(str(rng.randrange(spec.domain_size)))
                else:
                    variable = rng.choice(_VARIABLE_POOL[: 2 + len(chosen)])
                    terms.append(variable)
                    if variable not in used_variables:
                        used_variables.append(variable)
            atom_texts.append(f"{spec.name}({', '.join(terms)})")
        if not used_variables:
            # All-constant atoms make a boolean query; force one variable so
            # the query (and its sensitivity machinery) has something to do.
            spec = chosen[0]
            atom_texts[0] = f"{spec.name}({', '.join(['x0'] * spec.arity)})"
            used_variables.append("x0")

        predicate_texts = []
        max_domain = max(spec.domain_size for spec in relations)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            kind = rng.random()
            if kind < 0.45 and len(used_variables) >= 2:
                left, right = rng.sample(used_variables, 2)
                predicate_texts.append(f"{left} != {right}")
            elif kind < 0.75 and len(used_variables) >= 2:
                left, right = rng.sample(used_variables, 2)
                predicate_texts.append(f"{left} {rng.choice(_COMPARISON_OPS)} {right}")
            else:
                variable = rng.choice(used_variables)
                constant = rng.randrange(max_domain)
                predicate_texts.append(
                    f"{variable} {rng.choice(_COMPARISON_OPS)} {constant}"
                )
        # A graph of inequalities over the used variables — all pairs, or
        # each pair with probability 1/2 — so blocks of three or more
        # variables with every pair unequal occur, as in the paper's
        # injective graph patterns.
        roll = rng.random()
        if roll < 0.25 and len(used_variables) >= 3:
            for left, right in itertools.combinations(used_variables, 2):
                if roll < 0.125 or rng.random() < 0.5:
                    predicate_texts.append(f"{left} != {right}")

        body = ", ".join(atom_texts + predicate_texts)
        if rng.random() < 0.3 and len(used_variables) >= 2:
            keep = rng.randint(1, len(used_variables) - 1)
            head_vars = rng.sample(used_variables, keep)
            return f"Q({', '.join(head_vars)}) :- {body}"
        return body

    @staticmethod
    def _sample_neighbor_edit(
        rng: random.Random,
        relations: Sequence[RelationSpec],
        rows: Mapping[str, list[tuple[int, ...]]],
        query_text: str,
    ) -> tuple[str, str, tuple[int, ...]]:
        # Prefer editing a private relation the query actually mentions, so
        # the neighbor pair exercises the sensitivity machinery.
        mentioned = [
            spec
            for spec in relations
            if spec.private and f"{spec.name}(" in query_text
        ]
        candidates = mentioned or [spec for spec in relations if spec.private]
        spec = rng.choice(candidates)
        existing = set(rows[spec.name])
        all_rows = spec.domain_size**spec.arity
        if existing and (rng.random() < 0.5 or len(existing) >= all_rows):
            return spec.name, "remove", rng.choice(sorted(existing))
        while True:
            row = tuple(rng.randrange(spec.domain_size) for _ in range(spec.arity))
            if row not in existing:
                return spec.name, "add", row
