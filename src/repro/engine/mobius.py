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

This module holds only that algebra, on vertices ``0 .. n-1``; building and
counting the quotient queries is :mod:`repro.engine.columnar`'s job.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

__all__ = ["block_coefficients", "signed_partitions"]

#: A partition: its blocks as vertex bitmasks, and its coefficient ``c(π)``.
SignedPartition = tuple[tuple[int, ...], int]


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
