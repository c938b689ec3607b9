"""Tests for the Möbius expansion of ``!=`` predicates.

* the partition algebra of :mod:`repro.engine.mobius` against brute force:
  ``c(B)`` as a signed sum over connected edge subsets, and the signed
  partitions against proper colourings (the chromatic polynomial);
* group counts of random ``!=`` graphs against :mod:`repro.qa.oracle`,
  alongside self-loop rows, constants, comparisons and non-full heads;
* the paper's 4-star and 5-cycle on the 300-node benchmark graph, counted
  and profiled exactly with the enumeration engine switched off.
"""

from __future__ import annotations

import itertools
import math
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.evaluation import count_query
from repro.engine.mobius import block_coefficients, signed_partitions
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import k_cycle_query, k_star_query
from repro.qa.oracle import oracle_count, oracle_group_counts
from repro.query.hypergraph import QueryHypergraph
from repro.query.parser import parse_query
from repro.sensitivity.residual import ResidualSensitivity

SETTINGS = settings(
    max_examples=75,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices: int = 6):
    """``(n, edges)``: a random simple graph on vertices ``0 .. n-1``."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return n, tuple(sorted(chosen))


def _connects(block: list[int], edges) -> bool:
    """Whether ``edges`` connect every vertex of ``block``."""
    reached = {block[0]}
    frontier = [block[0]]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return reached == set(block)


class TestPartitionAlgebra:
    @SETTINGS
    @given(graph=graphs())
    def test_block_coefficient_is_the_connected_edge_subset_sum(self, graph):
        n, edges = graph
        coefficient = block_coefficients(n, edges)
        for mask in range(1, 1 << n):
            block = [v for v in range(n) if mask >> v & 1]
            inside = [e for e in edges if mask >> e[0] & 1 and mask >> e[1] & 1]
            brute = sum(
                (-1) ** size
                for size in range(len(inside) + 1)
                for subset in itertools.combinations(inside, size)
                if _connects(block, subset)
            )
            assert coefficient[mask] == brute, (block, inside)

    @SETTINGS
    @given(graph=graphs(), colours=st.integers(min_value=1, max_value=4))
    def test_signed_partitions_count_proper_colourings(self, graph, colours):
        # Σ_π c(π) k^|π| is the chromatic polynomial of G at k.
        n, edges = graph
        terms = signed_partitions(n, edges)
        assert terms[0] == (tuple(1 << v for v in range(n)), 1)
        proper = sum(
            all(colouring[u] != colouring[v] for u, v in edges)
            for colouring in itertools.product(range(colours), repeat=n)
        )
        assert sum(c * colours ** len(blocks) for blocks, c in terms) == proper

    def test_complete_blocks_have_factorial_coefficients(self):
        for n in range(1, 7):
            edges = tuple(itertools.combinations(range(n), 2))
            full = block_coefficients(n, edges)[(1 << n) - 1]
            assert full == (-1) ** (n - 1) * math.factorial(n - 1)


# --------------------------------------------------------------------- #
# Group counts against the oracle
# --------------------------------------------------------------------- #
_VARIABLES = ("a", "b", "c", "d", "e", "f")
_VALUE = st.integers(min_value=0, max_value=3)


@st.composite
def inequality_queries(draw):
    """``(query text, group variables)`` over at most six variables.

    Atoms of a binary ``E`` (rows include self-loops) and a unary ``U``, an
    occasional constant, a random ``!=`` graph over the used variables, an
    optional comparison and an optional non-full head.
    """
    pool = _VARIABLES[: draw(st.integers(min_value=2, max_value=6))]
    constants = draw(st.booleans())
    used: list[str] = []

    def term() -> str:
        if constants and draw(st.integers(min_value=0, max_value=5)) == 0:
            return str(draw(_VALUE))
        variable = draw(st.sampled_from(pool))
        if variable not in used:
            used.append(variable)
        return variable

    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            atoms.append(f"U({term()})")
        else:
            atoms.append(f"E({term()}, {term()})")
    if len(used) < 2:
        atoms.append(f"E({pool[0]}, {pool[1]})")
        used = list(dict.fromkeys(used + [pool[0], pool[1]]))
    pairs = list(itertools.combinations(used, 2))
    disequalities = draw(st.lists(st.sampled_from(pairs), unique=True))
    predicates = [f"{x} != {y}" for x, y in disequalities]
    if draw(st.booleans()):
        x, y = draw(st.permutations(used))[:2]
        predicates.append(f"{x} {draw(st.sampled_from(['<', '<=', '>', '>=']))} {y}")
    body = ", ".join(atoms + predicates)
    group = draw(st.lists(st.sampled_from(used), unique=True))
    if draw(st.booleans()):
        head = draw(
            st.lists(st.sampled_from(used), unique=True, min_size=1, max_size=len(used) - 1)
        )
        return f"Q({', '.join(head)}) :- {body}", group
    return body, group


@st.composite
def edge_databases(draw):
    edges = draw(st.lists(st.tuples(_VALUE, _VALUE), unique=True, max_size=12))
    loops = draw(st.lists(_VALUE, unique=True, max_size=2))
    nodes = draw(st.lists(_VALUE, unique=True, max_size=4))
    schema = DatabaseSchema.from_arities({"E": 2, "U": 1})
    rows = sorted(set(edges) | {(v, v) for v in loops})
    return Database.from_rows(schema, E=rows, U=[(v,) for v in nodes])


class TestExpansionAgainstOracle:
    @settings(
        max_examples=150,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=inequality_queries(), db=edge_databases())
    def test_group_counts_and_counts_match_the_oracle(self, case, db):
        text, group = case
        query = parse_query(text)
        group_vars = tuple(v for name in group for v in query.variables if v.name == name)
        result = eliminate_group_counts_columnar(query, db, group_vars)
        assert result.is_exact
        assert result.counts == oracle_group_counts(query, db, group_vars)
        assert all(count > 0 for count in result.count_array.tolist())
        assert count_query(query, db) == oracle_count(query, db)


# --------------------------------------------------------------------- #
# Paper shapes on the benchmark graph, without the enumerator
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def paper_graph():
    # The graph of benchmarks/bench_profile.py at REPRO_BENCH_SEED=0.
    graph = collaboration_graph(300, 4.0, seed=zlib.crc32(b"0:profile.graph"))
    return graph, database_from_networkx(graph)


def test_star4_and_cycle5_are_exact_without_enumeration(paper_graph):
    graph, db = paper_graph
    degrees = [d for _, d in graph.degree()]
    assert count_query(k_star_query(4), db) == sum(
        d * (d - 1) * (d - 2) * (d - 3) for d in degrees
    )
    for query in (k_star_query(4), k_cycle_query(5)):
        profile = ResidualSensitivity(query, beta=0.1).profile(db)
        assert profile.results
        for kept, result in profile.results.items():
            assert result.strategy in ("eliminate", "convention")
            # A residual that falls apart multiplies its components' maxima,
            # an upper bound when a predicate links two components (the
            # opposite edges of the 5-cycle); every other T_F is exact.
            components = QueryHypergraph(query, kept).connected_components()
            spanning = [
                p
                for p in query.predicates
                if p.variables <= query.variables_of(kept)
                and not any(p.variables <= query.variables_of(c) for c in components)
            ]
            assert sorted(map(repr, result.dropped_predicates)) == sorted(
                map(repr, spanning)
            ), (query.name, sorted(kept))
            assert result.exact == (not spanning)
