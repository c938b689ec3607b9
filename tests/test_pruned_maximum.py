"""Maxima without every boundary group: bound-and-prune and one-sided ranging.

A connected full residual that keeps no delta counts, and whose plan
applies every predicate on any data, finds ``T_E`` by bound-and-prune
(``engine/aggregates.py::_pruned_max``).  Each test here checks the value
against the QA oracle *and* which path ran (a spy on ``_pruned_max``), so
it fails both when the prune answers wrong and when it runs where it must
not.  Small graphs fit in one chunk of the default schedule, so most tests
also run with one key first, doubling (the ``chunks`` fixture), where the
stop rule decides the answer.
"""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine import aggregates, columnar
from repro.engine.aggregates import boundary_group_counts, boundary_multiplicity
from repro.engine.columnar import EliminationResult
from repro.engine.domains import augmented_active_domain
from repro.graphs.loader import database_from_edges
from repro.graphs.patterns import rectangle_query, triangle_query, two_triangle_query
from repro.qa.oracle import (
    oracle_crossing_max_group_count,
    oracle_group_counts,
    oracle_max_group_count,
)
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.residual import residual_query

#: A residual whose only predicates left after the atom factors are ``!=``
#: with an endpoint outside the boundary ``{y1, y2}``: ``y3`` is internal.
EXPANDED_QUERY = (
    "Edge(x, y1), Edge(x, y2), Edge(x, y3), Edge(y1, z), Edge(y2, z), y1 != y3, y2 != y3"
)

#: ``(query, residual atoms)`` of each eligible predicate shape.
ELIGIBLE = {
    # a 3-star at x2 whose leaves x1, x3, x4 are the boundary; x1 != x3,
    # x1 != x4 and x3 != x4 are left, all over the boundary
    "star": (two_triangle_query(), (0, 1, 3)),
    # a 2-path grouped by its ends; x1 != x3 is left, over the boundary
    "path2": (triangle_query(), (0, 1)),
    # a 3-path whose every variable is boundary
    "path3": (two_triangle_query(), (0, 1, 4)),
    # nothing is left after the atom factors
    "no_predicates": (two_triangle_query(inequalities=False), (0, 1, 3)),
    # a comparison over the boundary is left
    "comparison": (parse_query("Edge(x1, x2), Edge(x2, x3), Edge(x1, x3), x1 < x3"), (0, 1)),
    # only != with an internal endpoint is left (Möbius terms)
    "expanded": (parse_query(EXPANDED_QUERY), (0, 1, 2)),
}


@pytest.fixture
def pruned(monkeypatch) -> list[tuple[int, ...]]:
    """The residuals (sorted atom indices) that took the prune."""
    calls: list[tuple[int, ...]] = []
    real = aggregates._pruned_max

    def spy(query, database, residual, group_vars, drop):
        calls.append(tuple(sorted(residual.atom_indices)))
        return real(query, database, residual, group_vars, drop)

    monkeypatch.setattr(aggregates, "_pruned_max", spy)
    return calls


@pytest.fixture(params=["default", "small"])
def chunks(request, monkeypatch) -> str:
    """The default chunk schedule, and one key first doubling after."""
    if request.param == "small":
        monkeypatch.setattr(aggregates, "_FIRST_CHUNK", 1)
        monkeypatch.setattr(aggregates, "_CHUNK_GROWTH", 2)
    return request.param


def skewed_graph(seed: int, nodes: int = 16, edges: int = 34) -> Database:
    """A small symmetric graph with skewed degrees: two hubs take about
    half the edge endpoints."""
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < edges:
        u = rng.randrange(2) if rng.random() < 0.5 else rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return database_from_edges(sorted(pairs), symmetric=True)


def assert_oracle_maximum(query, db, kept) -> aggregates.MultiplicityResult:
    """``T_E`` equals the oracle's maximum, exactly, and the witness names a
    group the oracle counts at that value."""
    result = boundary_multiplicity(query, db, kept)
    residual = residual_query(query, kept)
    sub_query = ConjunctiveQuery([query.atoms[i] for i in sorted(kept)], residual.predicates)
    assert result.exact and not result.dropped_predicates
    assert result.strategy == "eliminate"
    assert result.value == oracle_max_group_count(sub_query, db, result.boundary)
    if result.value:
        counts = oracle_group_counts(sub_query, db, result.boundary)
        assert counts[result.witness] == result.value
    else:
        assert result.witness is None
    return result


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", sorted(ELIGIBLE))
    def test_eligible_shapes_on_skewed_graphs(self, shape, seed, chunks, pruned):
        query, kept = ELIGIBLE[shape]
        assert_oracle_maximum(query, skewed_graph(seed), kept)
        assert pruned == [kept]

    def test_top_bound_key_does_not_hold_the_maximum(self, chunks, pruned):
        # The hub 0 has the largest bound (its degree, 6), but its leaves
        # have no other neighbour, so it shares at most one with anyone;
        # 10 and 11 share three (a K_{2,3}) with bound 3 each.
        edges = [(0, leaf) for leaf in range(1, 7)]
        edges += [(a, m) for a in (10, 11) for m in (20, 21, 22)]
        db = database_from_edges(edges, symmetric=True)
        result = assert_oracle_maximum(triangle_query(), db, (0, 1))
        assert result.value == 3
        assert set(result.witness) == {10, 11}
        assert pruned == [(0, 1)]

    def test_ties_at_the_maximum(self, chunks, pruned):
        # Two disjoint K_{2,3}: four groups share the maximum 3, and the
        # 3-star residual ties as well.
        edges = [(a, m) for a in (10, 11) for m in (20, 21, 22)]
        edges += [(a, m) for a in (30, 31) for m in (40, 41, 42)]
        db = database_from_edges(edges, symmetric=True)
        assert assert_oracle_maximum(triangle_query(), db, (0, 1)).value == 3
        assert assert_oracle_maximum(two_triangle_query(), db, (0, 1, 3)).value == 2
        assert pruned == [(0, 1), (0, 1, 3)]

    def test_empty_residual(self, chunks, pruned):
        # No edges at all: the bound has no key.
        db = database_from_edges([], symmetric=True)
        assert assert_oracle_maximum(triangle_query(), db, (0, 1)).value == 0
        # A perfect matching: every key has a bound, no 2-path exists.
        db = database_from_edges([(0, 1), (2, 3), (4, 5)], symmetric=True)
        assert assert_oracle_maximum(triangle_query(), db, (0, 1)).value == 0
        assert pruned == [(0, 1), (0, 1)]

    def test_pruned_counts_are_not_returned(self, pruned):
        query, kept = ELIGIBLE["star"]
        result, counts = boundary_group_counts(query, skewed_graph(0), kept)
        assert counts is None and result.value > 0
        assert pruned == [kept]

    def test_no_row_cap_moves_the_exact_flag(self, monkeypatch, pruned):
        # Every join over the cap: the eligible shapes stay exact, which is
        # what lets them prune without moving a flag.
        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
        for shape in ("star", "path2", "comparison", "expanded"):
            query, kept = ELIGIBLE[shape]
            assert_oracle_maximum(query, skewed_graph(1), kept)
        assert len(pruned) == 4


class TestFullPathKept:
    """Components that must not prune still return their group counts."""

    @pytest.mark.parametrize(
        "query, kept",
        [
            # x1 != x4 (x1 internal) is left beside x2 != x3 and x3 != x4
            (two_triangle_query(), (0, 2, 3)),
            # the rectangle's 3-path: x1 != x3 and x2 != x4 beside x1 != x4
            (rectangle_query(), (0, 1, 2)),
            # a comparison with an internal endpoint
            (parse_query("Edge(x1, x2), Edge(x2, x3), Edge(x3, x4), x1 < x3"), (0, 1)),
        ],
    )
    def test_mixed_shapes(self, query, kept, pruned):
        db = skewed_graph(2)
        result, counts = boundary_group_counts(query, db, kept)
        assert isinstance(counts, EliminationResult)
        assert pruned == []
        assert result.value == assert_oracle_maximum(query, db, kept).value
        assert pruned == []

    def test_change_logged_relation_in_one_atom(self, pruned):
        query = parse_query(
            "Edge(x, y), Edge(y, z), Edge(x, z), Member(x, g), x != y, y != z, x != z"
        )
        schema = DatabaseSchema.from_arities({"Edge": 2, "Member": 2})
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        db = Database.from_rows(
            schema,
            Edge=sorted({p for u, v in edges for p in ((u, v), (v, u))}),
            Member=[(n, n % 2) for n in range(4)],
        )
        kept = (0, 3)  # Edge(x, y), Member(x, g): boundary {x, y}
        # Fresh data logs no change: the component prunes.
        fresh, counts = boundary_group_counts(query, db, kept)
        assert counts is None and pruned == [kept]
        # Member now logs a change and occurs once: counts are kept for
        # delta maintenance, on the full path.
        db.relation("Member").add_rows([(4, 0)])
        assert columnar.keeps_counts(query, db, kept)
        result, counts = boundary_group_counts(query, db, kept)
        assert isinstance(counts, EliminationResult)
        assert pruned == [kept]
        assert result.value == fresh.value == 1

    def test_non_full_queries(self, pruned):
        # The full version of this residual prunes (path2 above).
        query = parse_query("Q(x1) :- Edge(x1, x2), Edge(x2, x3), Edge(x1, x3), x1 != x3")
        assert boundary_multiplicity(query, skewed_graph(3), (0, 1)).value == 1
        assert pruned == []


class TestOneSidedRanging:
    """Section 5.2 with one ranged variable bounded from one side: one mask."""

    ROWS = {
        "R": [(5, 1), (5, 2), (5, 3), (9, 7), (2, 0), (2, 8)],
        "S": [(5, 0), (9, 6), (2, 1)],
    }

    @pytest.fixture
    def db(self) -> Database:
        schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
        return Database.from_rows(schema, **self.ROWS)

    @pytest.fixture
    def masks(self, monkeypatch) -> list[int]:
        """One entry per crossing-comparison mask built."""
        calls: list[int] = []
        real = aggregates.predicate_mask

        def spy(pred, operands, length):
            calls.append(length)
            return real(pred, operands, length)

        monkeypatch.setattr(aggregates, "predicate_mask", spy)
        return calls

    def _check(self, query, db) -> int:
        """``T_{R}`` against the oracle, ``z`` ranging over ``Z+``."""
        result = boundary_multiplicity(query, db, (0,))
        assert result.strategy == "eliminate+domain" and result.exact
        residual = residual_query(query, (0,))
        oracle = oracle_crossing_max_group_count(
            ConjunctiveQuery([query.atoms[0]], residual.predicates),
            db,
            sorted(residual.boundary_relational, key=lambda v: v.name),
            [p for p in residual.dropped_predicates if p.is_comparison],
            sorted(residual.boundary_predicate_only, key=lambda v: v.name),
            augmented_active_domain(query, db),
        )
        assert result.value == oracle
        return result.value

    @pytest.mark.parametrize(
        "comparisons",
        [
            "b < z", "b <= z", "z > b", "z >= b",  # z bounded from below: take the top
            "b > z", "b >= z", "z < b", "z <= b",  # z bounded from above: take the bottom
            "b < z, a <= z",  # two comparisons, one side
        ],
    )
    def test_one_mask_matches_the_oracle(self, db, masks, comparisons):
        query = parse_query(f"R(a, b), S(a, z), {comparisons}")
        # Every row of the largest group satisfies the extreme value.
        assert self._check(query, db) == 3
        assert len(masks) == comparisons.count(",") + 1

    def test_two_sided_range_keeps_the_loop(self, db, masks):
        # b < z < a: either extreme of z keeps no row, z = 4 keeps all
        # three rows of a = 5.
        query = parse_query("R(a, b), S(a, z), b < z, z < a")
        assert self._check(query, db) == 3
        assert len(masks) == 2 * len(augmented_active_domain(query, db))
