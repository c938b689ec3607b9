"""Atom-level access paths for the backtracking join.

An :class:`AtomMatcher` wraps one query atom together with the relation
instance it ranges over and answers the question the backtracking join asks
at every step: *given the variables bound so far, which tuples of this atom
are compatible, and what new bindings do they induce?*

The matcher handles the three wrinkles of our atom syntax:

* **constants** in atom positions (the tuple value must equal the constant),
* **repeated variables** within an atom (the tuple must agree on those
  positions), and
* **partially bound variables** (lookups go through a hash index on the
  bound positions, which the matcher builds on first use and keeps).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Mapping

from repro.data.relation import Relation
from repro.query.atoms import Atom, Constant, Variable

__all__ = ["AtomMatcher"]


class AtomMatcher:
    """Pre-analysed access path for a single atom over a relation instance."""

    def __init__(self, atom: Atom, relation: Relation):
        self._atom = atom
        self._relation = relation
        # Positions holding constants, with the required value.
        self._constant_positions: list[tuple[int, object]] = [
            (i, term.value)
            for i, term in enumerate(atom.terms)
            if isinstance(term, Constant)
        ]
        # For each variable, the positions where it occurs.
        self._var_positions: dict[Variable, tuple[int, ...]] = {}
        for i, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                self._var_positions.setdefault(term, ())
                self._var_positions[term] = self._var_positions[term] + (i,)
        # Hash indexes on position tuples, built on first use.
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}

    @property
    def atom(self) -> Atom:
        """The wrapped atom."""
        return self._atom

    @property
    def relation(self) -> Relation:
        """The relation instance the atom ranges over."""
        return self._relation

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The distinct variables of the atom."""
        return tuple(self._var_positions)

    def _bound_positions(
        self, bound: Mapping[Variable, object]
    ) -> list[tuple[int, object]]:
        """(position, value) pairs pinned down by constants and bound variables."""
        pinned = list(self._constant_positions)
        for var, positions in self._var_positions.items():
            if var in bound:
                value = bound[var]
                for pos in positions:
                    pinned.append((pos, value))
        return pinned

    def _index_on(self, positions: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        """The relation's rows by their values at ``positions``."""
        index = self._indexes.get(positions)
        if index is None:
            index = self._indexes[positions] = defaultdict(list)
            for row in self._relation:
                index[tuple(row[p] for p in positions)].append(row)
        return index

    def matches(self, bound: Mapping[Variable, object]) -> Iterator[dict[Variable, object]]:
        """Yield the new-variable bindings of every tuple compatible with ``bound``.

        Each yielded dictionary binds exactly the atom variables that were
        *not* already bound; the caller merges it into the running
        assignment.  Tuples violating constants, repeated-variable equality
        or existing bindings are skipped.
        """
        pinned = self._bound_positions(bound)
        if pinned:
            positions = tuple(sorted({p for p, _ in pinned}))
            values_by_pos = {}
            consistent = True
            for pos, value in pinned:
                if pos in values_by_pos and values_by_pos[pos] != value:
                    consistent = False
                    break
                values_by_pos[pos] = value
            if not consistent:
                return
            key = tuple(values_by_pos[p] for p in positions)
            candidates = self._index_on(positions).get(key, ())
        else:
            candidates = self._relation

        unbound_vars = [v for v in self._var_positions if v not in bound]
        for row in candidates:
            new_bindings: dict[Variable, object] = {}
            ok = True
            for var in unbound_vars:
                positions = self._var_positions[var]
                value = row[positions[0]]
                # Repeated occurrences inside the atom must agree.
                if any(row[p] != value for p in positions[1:]):
                    ok = False
                    break
                new_bindings[var] = value
            if ok:
                yield new_bindings
