"""Möbius inversion of ``!=`` predicates over set partitions.

Let ``G`` be the graph whose edges are the disequalities ``x != y`` of a
query ``q``.  Expanding ``[x != y] = 1 - [x = y]`` over every edge and
grouping the edge subsets ``S`` by the partition ``π`` their connected
components induce gives

    count(q) = Σ_π c(π) · count(q/π),      c(π) = Π_{B ∈ π} c(B),

where ``q/π`` drops the disequalities and merges every block of ``π`` into
one variable, and ``c(B)`` is the sum of ``(-1)^|S|`` over the edge sets
``S ⊆ G[B]`` that connect ``B`` (Curticapean, Dell & Marx, "Homomorphisms
are a good basis for counting small subgraphs", STOC 2017).  ``c(B)`` is 0
when ``G[B]`` is disconnected, and ``(-1)^(|B|-1) (|B|-1)!`` when ``G[B]`` is
complete.  The identity is linear, so it holds for every group of a
group-by count as well.

Isomorphic quotients count alike, so the sum needs one term per
isomorphism class of quotients, with the class's coefficients added
(:func:`quotient_classes`).  A quotient is its atoms, each a *type* (what
its rows are, apart from its variables' names) over its merged variables;
two atoms of one type over the same variables are one count-1 factor, so
only the first is kept.  Classes come from the canonical labelling of
:mod:`repro.engine.canonical`, with every variable coloured by the group
variables merged into it, so every member of a class has the
representative's group counts.  A partition that merges two variables an
atom's own predicate keeps apart (``x != y`` inside ``E(x, y)``) counts
nothing and is skipped before any quotient is built
(:func:`separated_partitions`).

This module holds only that algebra, on vertices ``0 .. n-1``; building and
counting the quotient queries is :mod:`repro.engine.columnar`'s job.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from repro.engine.canonical import canonical_labelling

__all__ = [
    "block_coefficients",
    "block_heads",
    "quotient_classes",
    "separated_partitions",
    "signed_partitions",
]

#: A partition: its blocks as vertex bitmasks, and its coefficient ``c(π)``.
SignedPartition = tuple[tuple[int, ...], int]

#: A class of quotients: its representative's blocks, the sum of its
#: members' coefficients, and the atoms the representative keeps.
QuotientClass = tuple[tuple[int, ...], int, tuple[int, ...]]


@functools.lru_cache(maxsize=256)
def block_coefficients(num_vertices: int, edges: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """``c(B)`` for every vertex set ``B``, indexed by its bitmask.

    Every edge set ``S ⊆ G[B]`` connects ``B`` by some partition, so
    ``Σ_σ Π_{C ∈ σ} c(C)`` over the partitions ``σ`` of ``B`` equals
    ``Σ_{S ⊆ G[B]} (-1)^|S|``, which is 1 if ``B`` spans no edge and 0
    otherwise.  Splitting off the block that holds ``B``'s lowest vertex
    solves that for ``c(B)`` from the coefficients of smaller sets, in
    ``O(3^n)`` steps over all ``B``.
    """
    neighbours = [0] * num_vertices
    for u, v in edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    size = 1 << num_vertices
    independent = [True] * size
    coefficient = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        independent[mask] = independent[rest] and not neighbours[low.bit_length() - 1] & rest
        total = int(independent[mask])
        sub = rest
        while sub:  # every block low | sub ⊊ mask, down to {low} itself
            sub = (sub - 1) & rest
            if independent[rest ^ sub]:
                total -= coefficient[low | sub]
        coefficient[mask] = total
    return tuple(coefficient)


def _partitions(rest: int, coefficient: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The partitions of ``rest`` into blocks with a nonzero coefficient."""
    if not rest:
        yield ()
        return
    low = rest & -rest
    others = rest ^ low
    sub = others
    while True:
        block = low | sub
        if coefficient[block]:
            for tail in _partitions(rest ^ block, coefficient):
                yield (block,) + tail
        if not sub:
            return
        sub = (sub - 1) & others


@functools.lru_cache(maxsize=256)
def signed_partitions(
    num_vertices: int, edges: tuple[tuple[int, int], ...]
) -> tuple[SignedPartition, ...]:
    """Every partition ``π`` of ``0 .. num_vertices-1`` with ``c(π) ≠ 0``.

    ``edges`` lists the disequalities as vertex pairs.  The all-singletons
    partition comes first, with coefficient 1.
    """
    coefficient = block_coefficients(num_vertices, edges)
    signed = []
    for blocks in _partitions((1 << num_vertices) - 1, coefficient):
        product = 1
        for block in blocks:
            product *= coefficient[block]
        signed.append((blocks, product))
    signed.sort(key=lambda item: -len(item[0]))
    return tuple(signed)


def block_heads(
    num_vertices: int, blocks: tuple[int, ...], groups: Sequence[int]
) -> list[int]:
    """The vertex each vertex merges into: its block's first vertex in
    ``groups`` (the group variables, in their order), else its lowest."""
    head = [0] * num_vertices
    for block in blocks:
        members = [v for v in range(block.bit_length()) if block >> v & 1]
        first = next((g for g in groups if block >> g & 1), members[0])
        for v in members:
            head[v] = first
    return head


@functools.lru_cache(maxsize=256)
def separated_partitions(
    num_vertices: int,
    edges: tuple[tuple[int, int], ...],
    separated: tuple[tuple[int, int], ...],
) -> tuple[SignedPartition, ...]:
    """:func:`signed_partitions` without the partitions that put the two
    vertices of a ``separated`` pair in one block (their quotient is empty).
    """
    return tuple(
        (blocks, coefficient)
        for blocks, coefficient in signed_partitions(num_vertices, edges)
        if not any(
            block >> u & 1 and block >> v & 1 for block in blocks for u, v in separated
        )
    )


@functools.lru_cache(maxsize=256)
def quotient_classes(
    num_vertices: int,
    edges: tuple[tuple[int, int], ...],
    separated: tuple[tuple[int, int], ...],
    atoms: tuple[tuple[int, bool, tuple[int, ...]], ...],
    groups: tuple[int, ...],
) -> tuple[QuotientClass, ...]:
    """The isomorphism classes of the quotients of :func:`separated_partitions`.

    Variables are numbered ``0 .. n-1``, vertex ``i`` being variable ``i``.
    ``atoms`` lists ``(type, symmetric, variables)`` per atom: equal types
    hold equal rows, and a symmetric type's rows are closed under swapping
    its two variables.  ``groups`` are the group variables, in the order
    that picks each block's head (:func:`block_heads`).  A quotient keeps the
    first atom of each type over the same merged variables (the same set,
    for a symmetric type), and is keyed by
    :func:`~repro.engine.canonical.canonical_labelling` of those atoms with
    each variable coloured by the set of group variables merged into it; a
    quotient over the labelling cap is its own class.  Classes whose
    coefficients add up to 0 are dropped.  The all-singletons partition
    comes first, alone in its class (every other quotient has fewer
    variables), with coefficient 1.
    """
    classes: dict[object, list] = {}
    for blocks, coefficient in separated_partitions(num_vertices, edges, separated):
        head = block_heads(num_vertices, blocks, groups)
        merged_atoms: dict[tuple, tuple[int, bool, tuple[int, ...]]] = {}
        kept = []
        for position, (kind, symmetric, variables) in enumerate(atoms):
            merged = tuple(head[v] if v < num_vertices else v for v in variables)
            key = (kind, tuple(sorted(merged)) if symmetric else merged)
            if key not in merged_atoms:
                merged_atoms[key] = (kind, symmetric, merged)
                kept.append(position)
        number: dict[int, int] = {}
        specs = tuple(
            (kind, symmetric, tuple(number.setdefault(v, len(number)) for v in merged))
            for kind, symmetric, merged in merged_atoms.values()
        )
        colours = [0] * len(number)
        for position, g in enumerate(groups):
            colours[number[head[g] if g < num_vertices else g]] |= 1 << position
        labelling = canonical_labelling(specs, (), tuple(colours))
        key = len(classes) if labelling is None else labelling[0]
        found = classes.setdefault(key, [blocks, 0, tuple(kept)])
        found[1] += coefficient
    return tuple(
        (blocks, coefficient, kept)
        for position, (blocks, coefficient, kept) in enumerate(classes.values())
        if coefficient or not position
    )
