"""Structural canonicalization of conjunctive queries.

Two labellings live here, for two kinds of key.

:func:`canonical_query_key` is the serving layer's string key
(:mod:`repro.service`), which memoizes residual-query decompositions and
sensitivity profiles across requests.  Both are *data-independent per query
shape*: two queries that differ only in variable names (or in the
orientation of symmetric predicates) have identical counts, identical
residual decompositions and identical sensitivities on every instance, and
the key maps them to the same string so the cache can reuse work across
clients that spell "the same" query differently.

That key renames variables to ``v0, v1, ...`` in order of first appearance
across the atoms (atom order is preserved — the key is *conservative*:
equal keys imply equal semantics, but semantically equal queries with
re-ordered atoms may get distinct keys and merely miss the cache).
Symmetric predicates are normalised:

* ``x != y`` and ``y != x`` serialise identically (operands sorted);
* ``x > y`` is rewritten as ``y < x`` and ``x >= y`` as ``y <= x``.

Queries carrying a :class:`~repro.query.predicates.GenericPredicate` cannot
be canonicalized by value (two distinct callables are incomparable), so
:func:`canonical_query_key` returns ``None`` for them and callers must bypass
the cache.

:func:`canonical_labelling` keys a query given as integers up to
isomorphism (variable renaming, atom order, and the argument order of a
relation marked symmetric): the least key over the leaves of an
individualisation-refinement search (McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014), capped at :data:`MAX_LABELLINGS`
leaves.  The lattice profile (:mod:`repro.engine.profile`) shares isomorphic
residual components through it, and the Möbius expansion
(:mod:`repro.engine.mobius`) counts isomorphic quotients once.  It is
memoised on its integer arguments, which describe query structure only.
"""

from __future__ import annotations

import functools

from repro.query.atoms import Constant, Term, Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.predicates import (
    ComparisonPredicate,
    InequalityPredicate,
    Predicate,
)

__all__ = [
    "MAX_LABELLINGS",
    "OPERATORS",
    "canonical_labelling",
    "canonical_query_key",
    "canonical_variable_order",
]


def canonical_variable_order(query: ConjunctiveQuery) -> dict[Variable, str]:
    """Map each variable to its canonical name ``v{i}``.

    Variables are numbered by first appearance in the atoms' term lists, in
    atom order.  Every predicate/output variable necessarily occurs in some
    atom (:class:`ConjunctiveQuery` enforces this), so the mapping is total.
    """
    mapping: dict[Variable, str] = {}
    for atom in query.atoms:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in mapping:
                mapping[term] = f"v{len(mapping)}"
    return mapping


def _term_key(term: Term, names: dict[Variable, str]) -> str:
    if isinstance(term, Variable):
        return names[term]
    value = term.value
    return f"<{type(value).__name__}:{value!r}>"


def _predicate_key(pred: Predicate, names: dict[Variable, str]) -> str | None:
    if isinstance(pred, InequalityPredicate):
        sides = sorted((_term_key(pred.left, names), _term_key(pred.right, names)))
        return f"{sides[0]}!={sides[1]}"
    if isinstance(pred, ComparisonPredicate):
        left, op, right = pred.left, pred.op, pred.right
        if op in (">", ">="):
            left, right = right, left
            op = "<" if op == ">" else "<="
        return f"{_term_key(left, names)}{op}{_term_key(right, names)}"
    # GenericPredicate (or any unknown subclass): two distinct callables
    # cannot be compared structurally — refuse to canonicalize.
    return None


def canonical_query_key(query: ConjunctiveQuery) -> str | None:
    """A string key identifying the query up to variable renaming.

    Returns ``None`` when the query cannot be safely canonicalized (it
    carries a generic predicate); callers should then skip shape caches.

    Examples
    --------
    >>> from repro.query.parser import parse_query
    >>> a = canonical_query_key(parse_query("R(x, y), S(y, z)"))
    >>> b = canonical_query_key(parse_query("R(a, b), S(b, c)"))
    >>> a == b
    True
    >>> a == canonical_query_key(parse_query("R(x, y), S(x, z)"))
    False
    """
    names = canonical_variable_order(query)
    atom_keys = [
        f"{atom.relation}({','.join(_term_key(t, names) for t in atom.terms)})"
        for atom in query.atoms
    ]
    pred_keys: list[str] = []
    for pred in query.predicates:
        key = _predicate_key(pred, names)
        if key is None:
            return None
        pred_keys.append(key)
    # Predicate order is irrelevant (conjunction), output order is irrelevant
    # (projection is onto a set of variables) — sort both.
    pred_keys.sort()
    if query.is_full:
        proj = "*"
    else:
        proj = ",".join(sorted(names[v] for v in query.output_variables))
    return f"{';'.join(atom_keys)}|{';'.join(pred_keys)}|{proj}"


# --------------------------------------------------------------------- #
# Canonical labelling of an integer description
# --------------------------------------------------------------------- #
#: The most candidate labellings :func:`canonical_labelling` tries.  A query
#: with more (ties that one refinement round cannot split and that no
#: exchange of two variables resolves) gets no key.
MAX_LABELLINGS = 64

#: An atom: ``(relation, symmetric, terms)``, a term being a variable
#: ``0 .. n-1`` or a constant (a negative number).
AtomSpec = tuple[int, bool, tuple[int, ...]]

#: Comparison operators as integers (``>`` and ``>=`` are turned around).
OPERATORS = {"!=": 0, "<": 1, "<=": 2}

#: A predicate: ``(operator, left, right)``, the operator from
#: :data:`OPERATORS`, its sides terms as above.
PredicateSpec = tuple[int, int, int]


class _OverCap(Exception):
    """The labelling search passed its leaf cap."""


@functools.lru_cache(maxsize=1024)
def canonical_labelling(
    atoms: tuple[AtomSpec, ...],
    predicates: tuple[PredicateSpec, ...],
    colours: tuple[int, ...],
    cap: int = MAX_LABELLINGS,
) -> tuple[tuple, tuple[int, ...], tuple[PredicateSpec, ...]] | None:
    """The canonical key of a query over variables ``0 .. len(colours)-1``,
    the names giving it, and the predicates' keys under those names, in
    input order (``None`` over ``cap`` leaves).

    A labelling names the variables with distinct integers; the key under
    it is the sorted atom keys (a symmetric atom's terms sorted), each
    name's initial colour, and the sorted predicate keys (a ``!=``'s sides
    sorted), and the canonical key is the least key over the candidate
    labellings.  The candidates are the leaves of an
    individualisation-refinement search: the variables start from
    ``colours``, which no isomorphism may change, the colours are refined
    once by atom and predicate incidences (a symmetric atom's positions
    count as one), and each remaining tie is broken every possible way in
    turn, the leaf's colours being its names.  A way is skipped when
    exchanging its variable with the tie's first one maps the query onto
    itself, since its leaves repeat the first one's keys (checked only
    where it saves more than one leaf).  Every step reads colours, never
    variable numbers, so isomorphic queries try the same set of keys and
    get the same least one, and equal keys make the two name maps an
    isomorphism.
    """
    n = len(colours)
    colour = list(colours)

    # Refine once: each colour is split by the sorted incidences of its
    # variables (an atom's relation, the position in it unless symmetric,
    # and the colours there; a predicate's operator, side and other colour).
    seen: list[list[tuple]] = [[] for _ in range(n)]
    for relation, symmetric, terms in atoms:
        coded = tuple(colour[t] if t >= 0 else t for t in terms)
        if symmetric:
            entry = (relation, -1, tuple(sorted(coded)))
            for t in terms:
                if t >= 0:
                    seen[t].append(entry)
        else:
            for position, t in enumerate(terms):
                if t >= 0:
                    seen[t].append((relation, position, coded))
    for op, left, right in predicates:
        left_colour = colour[left] if left >= 0 else left
        right_colour = colour[right] if right >= 0 else right
        if left >= 0:
            seen[left].append((-1 - op, 0, (right_colour,)))
        if right >= 0:
            seen[right].append((-1 - op, 0 if op == 0 else 1, (left_colour,)))
    keys = [(colour[i], *sorted(seen[i])) for i in range(n)]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    colour = [rank[key] for key in keys]

    def described(names, atom_specs, pred_specs) -> tuple[list, list]:
        """Atom and predicate keys with variable ``i`` named ``names[i]``."""
        atom_keys = []
        for relation, symmetric, terms in atom_specs:
            named = [names[t] if t >= 0 else t for t in terms]
            if symmetric:
                named.sort()
            atom_keys.append((relation, *named))
        pred_keys = []
        for op, left, right in pred_specs:
            left = names[left] if left >= 0 else left
            right = names[right] if right >= 0 else right
            if op == 0 and right < left:
                left, right = right, left
            pred_keys.append((op, left, right))
        return atom_keys, pred_keys

    def swap_is_automorphism(u: int, v: int) -> bool:
        """Whether exchanging variables ``u`` and ``v`` maps the atoms and
        predicates onto themselves."""
        atom_specs = [spec for spec in atoms if u in spec[2] or v in spec[2]]
        pred_specs = [spec for spec in predicates if u in spec[1:] or v in spec[1:]]
        names = list(range(n))
        before = described(names, atom_specs, pred_specs)
        names[u], names[v] = v, u
        after = described(names, atom_specs, pred_specs)
        return all(sorted(a) == sorted(b) for a, b in zip(before, after))

    best = None  # (key, names, predicate keys) of the least leaf so far
    leaves = 0

    def search(colour: list[int]) -> None:
        nonlocal best, leaves
        ordered = sorted(colour)
        target = next((a for a, b in zip(ordered, ordered[1:]) if a == b), None)
        if target is None:
            leaves += 1
            if leaves > cap:
                raise _OverCap
            atom_keys, pred_keys = described(colour, atoms, predicates)
            key = (
                tuple(sorted(atom_keys)),
                tuple(sorted(zip(colour, colours))),
                tuple(sorted(pred_keys)),
            )
            if best is None or key < best[0]:
                best = (key, tuple(colour), tuple(pred_keys))
            return
        cell = [i for i in range(n) if colour[i] == target]
        # Exchanging two variables of one cell, when that maps the query
        # onto itself, maps the first one's subtree onto the other's: the
        # same keys, so the other is skipped — unless each subtree is a
        # single leaf, which costs no more than the check.
        prune = len(set(colour)) < n - 1
        for chosen in cell:
            if prune and chosen != cell[0] and swap_is_automorphism(cell[0], chosen):
                continue
            search([2 * c + (c == target and i != chosen) for i, c in enumerate(colour)])

    try:
        search(colour)
    except _OverCap:
        return None
    return best
