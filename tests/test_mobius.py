"""Tests for the Möbius expansion of ``!=`` predicates.

* the partition algebra of :mod:`repro.engine.mobius` against brute force:
  ``c(B)`` as a signed sum over connected edge subsets, and the signed
  partitions against proper colourings (the chromatic polynomial);
* group counts of random ``!=`` graphs against :mod:`repro.qa.oracle`,
  alongside self-loop rows, constants, comparisons and non-full heads, on
  relations closed under swapping their columns, not closed, and closed but
  for one pair (so classes that need symmetry are both taken and refused);
* one term per Möbius class: the eliminations of each paper shape's true
  count on the 300-node benchmark graph, symmetry read per epoch, and
  restricted and delta counts on symmetric relations; one term per
  partition when a predicate stays pending;
* the size-ordered plan of predicate-free eliminations;
* the paper's 4-star and 5-cycle on the benchmark graph, counted and
  profiled exactly with the enumeration engine switched off.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.columnar as columnar_module
from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.columnar import (
    CountsEntry,
    eliminate_group_counts_columnar,
    refresh_group_counts,
    relation_epochs,
)
from repro.engine.evaluation import count_query
from repro.engine.mobius import block_coefficients, signed_partitions
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import (
    k_cycle_query,
    k_path_query,
    k_star_query,
    rectangle_query,
)
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
def edge_databases(draw, closure: str = "none"):
    """``E`` (with self-loops) and ``U``.  ``closure="swap"`` closes ``E``
    under swapping its columns; ``"all-but-one"`` then removes one of its
    non-loop rows, so exactly one reverse pair is missing."""
    edges = draw(st.lists(st.tuples(_VALUE, _VALUE), unique=True, max_size=12))
    loops = draw(st.lists(_VALUE, unique=True, max_size=2))
    nodes = draw(st.lists(_VALUE, unique=True, max_size=4))
    schema = DatabaseSchema.from_arities({"E": 2, "U": 1})
    rows = set(edges) | {(v, v) for v in loops}
    if closure != "none":
        rows |= {(b, a) for a, b in rows}
    if closure == "all-but-one":
        pairs = sorted((a, b) for a, b in rows if a != b)
        if pairs:
            rows.discard(draw(st.sampled_from(pairs)))
        else:
            rows.add((0, 1))
    return Database.from_rows(schema, E=sorted(rows), U=[(v,) for v in nodes])


class TestExpansionAgainstOracle:
    @settings(
        max_examples=150,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        case=inequality_queries(),
        db=st.one_of(
            edge_databases(), edge_databases("swap"), edge_databases("all-but-one")
        ),
    )
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


@pytest.fixture
def eliminations(monkeypatch):
    """The ``_eliminate`` calls made while the test runs (one per term)."""
    calls = []
    real = columnar_module._eliminate

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(columnar_module, "_eliminate", spy)
    return calls


def _injective_walks(graph, vertices: int, closed: bool) -> int:
    """Sequences of ``vertices`` distinct vertices, consecutive ones
    adjacent (and the last adjacent to the first when ``closed``), by
    depth-first search: the last vertex is counted, not visited."""
    adjacency = {v: set(graph[v]) for v in graph}
    total = 0

    def extend(path: list) -> None:
        nonlocal total
        last = adjacency[path[-1]]
        if len(path) == vertices - 1:
            candidates = last & adjacency[path[0]] if closed else last
            total += len(candidates.difference(path))
            return
        for v in last:
            if v not in path:
                path.append(v)
                extend(path)
                path.pop()

    for v in adjacency:
        extend([v])
    return total


def _star_count(graph, leaves: int) -> int:
    return sum(math.perm(d, leaves) for _, d in graph.degree())


@pytest.mark.parametrize(
    "query, expected, terms",
    [
        (k_star_query(3), lambda g: _star_count(g, 3), 3),
        (k_star_query(4), lambda g: _star_count(g, 4), 4),
        (k_path_query(4), lambda g: _injective_walks(g, 5, closed=False), 8),
        (k_path_query(5), lambda g: _injective_walks(g, 6, closed=False), 15),
        (rectangle_query(), lambda g: _injective_walks(g, 4, closed=True), 3),
        (k_cycle_query(5), lambda g: _injective_walks(g, 5, closed=True), 3),
    ],
    ids=["star3", "star4", "path4", "path5", "rectangle", "cycle5"],
)
def test_true_counts_take_one_elimination_per_class(
    paper_graph, eliminations, query, expected, terms
):
    # The symmetric Edge makes a quotient and its reversal one class, and
    # duplicate atoms one factor: star4's {2,2} and {3,1} leaf partitions
    # are both a 2-star.  path4 has 15 non-empty terms, path5 52, star4 15.
    graph, db = paper_graph
    assert count_query(query, db) == expected(graph)
    assert len(eliminations) == terms


def test_symmetry_is_read_per_epoch(eliminations):
    # Removing one direction of one edge splits the reversal classes (path4's
    # 15 non-empty terms fall into 13 classes of a directed relation, 8 of a
    # symmetric one); restoring it merges them again at the next epoch.
    graph = collaboration_graph(12, 3.0, seed=7)
    db = database_from_networkx(graph)
    edge = db.relation("Edge")
    query = k_path_query(4)

    def terms() -> int:
        eliminations.clear()
        assert count_query(query, db) == oracle_count(query, db)
        return len(eliminations)

    assert terms() == 8
    a, b = min(graph.edges())
    edge.remove_rows([(a, b)])
    assert terms() == 13
    assert edge.symmetry is False
    edge.add_rows([(a, b)])
    assert terms() == 8
    assert edge.symmetry is True


def _symmetric(pairs) -> list[tuple[int, int]]:
    return sorted(set(pairs) | {(b, a) for a, b in pairs})


#: Two symmetric relations over one vertex set, neither containing the
#: other; in their intersection, vertices 0 and 2 have two neighbours and
#: the rest one.
SYMMETRIC_ROWS = {
    "E": _symmetric([(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 1)]),
    "F": _symmetric([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (4, 5), (5, 0), (3, 5)]),
}


def _all_pairs(variables: str) -> str:
    return ", ".join(f"{x} != {y}" for x, y in itertools.combinations(variables.split(), 2))


def test_restricted_counts_on_symmetric_relations():
    # Merging a and c keeps E(a, b) and F(a, b) over the same variables:
    # atoms of different relations stay apart.  Merging b and d gives the
    # same shape with a as a leaf instead of the centre: the group variable
    # keeps the two classes apart.
    db = Database.from_rows(DatabaseSchema.from_arities({"E": 2, "F": 2}), **SYMMETRIC_ROWS)
    query = parse_query("E(a, b), F(b, c), E(c, d), F(d, a), " + _all_pairs("a b c d"))
    group = tuple(v for v in query.variables if v.name == "a")
    expected = oracle_group_counts(query, db, group)
    full = eliminate_group_counts_columnar(query, db, group)
    assert full.counts == expected
    for chunk in np.array_split(np.arange(len(full.count_array)), 3):
        restrict = full.take(chunk)
        restricted = eliminate_group_counts_columnar(query, db, group, restrict=restrict)
        assert restricted.counts == {key: expected[key] for key in restrict.counts}


def test_delta_refresh_on_symmetric_relations():
    db = Database.from_rows(DatabaseSchema.from_arities({"E": 2, "F": 2}), **SYMMETRIC_ROWS)
    query = parse_query("E(a, b), E(b, c), F(c, d), " + _all_pairs("a b c d"))
    group = tuple(v for v in query.variables if v.name in ("a", "d"))
    base = eliminate_group_counts_columnar(query, db, group)
    assert base.counts == oracle_group_counts(query, db, group)
    entry = CountsEntry.keeping(base.epochs, None, base)
    relation = db.relation("F")
    relation.add_rows([(0, 3), (3, 0), (2, 5), (5, 2)])
    relation.remove_rows([(0, 1), (1, 0)])
    refreshed = refresh_group_counts(query, db, entry, relation_epochs(db, ["E", "F"]))
    assert refreshed is not None
    assert refreshed.counts == oracle_group_counts(query, db, group)


def test_pending_predicates_keep_one_term_per_partition(eliminations):
    # With x1 < x2 kept, the leaf partitions {x1 x3 | x2} and {x2 x3 | x1}
    # are mirror images, yet each is its own term (the two merging x1 and
    # x2 fail x1 < x2); with x1 != x2 between group variables, the three
    # partitions that do not merge x1 and x2 are counted.
    db = database_from_networkx(collaboration_graph(12, 3.0, seed=7))
    compared = parse_query(
        "Edge(x0, x1), Edge(x0, x2), Edge(x0, x3), x1 < x2, " + _all_pairs("x0 x1 x2 x3")
    )
    assert count_query(compared, db) == oracle_count(compared, db)
    assert len(eliminations) == 3
    eliminations.clear()
    star = k_star_query(3)
    group = tuple(v for v in star.variables if v.name in ("x1", "x2"))
    result = eliminate_group_counts_columnar(star, db, group)
    assert result.counts == oracle_group_counts(star, db, group)
    assert len(eliminations) == 3


def test_size_ordered_plan_joins_no_more_than_the_two_walks(paper_graph, monkeypatch):
    # Summing out x1 and then x3 joins each 2-walk once; an order by name
    # (x1, x2, ...) joined 69,064 rows for the 4-cycle term.
    graph, db = paper_graph
    joined = []
    real = columnar_module._join

    def spy(*args, **kwargs):
        factor, pending = real(*args, **kwargs)
        joined.append(len(factor))
        return factor, pending

    monkeypatch.setattr(columnar_module, "_join", spy)
    assert count_query(rectangle_query(), db) == _injective_walks(graph, 4, closed=True)
    two_walks = sum(d * d for _, d in graph.degree())
    assert two_walks == 12_116
    assert joined and max(joined) <= two_walks


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
