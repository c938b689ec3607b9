"""Tests for the columnar bucket-elimination engine (cross-checked against
enumeration), including exact counts beyond the ``int64`` range."""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine import columnar
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.evaluation import count_query
from repro.engine.join import group_counts
from repro.exceptions import EvaluationError
from repro.graphs.loader import database_from_edges
from repro.graphs.patterns import k_cycle_query, k_path_query, triangle_query
from repro.qa.oracle import oracle_count, oracle_group_counts
from repro.query.atoms import Variable
from repro.query.parser import parse_query


class TestAgainstEnumeration:
    def test_two_way_join_counts(self, join_query, small_join_db):
        result = eliminate_group_counts_columnar(join_query, small_join_db, [Variable("y")])
        assert result.is_exact
        expected = group_counts(join_query, small_join_db, [Variable("y")])
        assert result.counts == expected

    def test_global_count(self, join_query, small_join_db):
        result = eliminate_group_counts_columnar(join_query, small_join_db, [])
        assert result.counts == {(): 7}

    def test_triangle_with_inequalities_is_exact(self, k4_db):
        query = triangle_query()
        result = eliminate_group_counts_columnar(query, k4_db, [])
        assert result.is_exact
        assert result.counts[()] == 24

    def test_path3_with_all_inequalities_drops_far_predicate(self, k4_db):
        query = k_path_query(3)  # x1..x4 with all-pairs inequalities
        result = eliminate_group_counts_columnar(query, k4_db, [])
        # The non co-occurring predicates (x1 != x4, ...) are applied below
        # the row cap; one dropped above it makes the result an upper bound.
        exact = group_counts(query, k4_db, []).get((), 0)
        value = result.counts.get((), 0)
        if result.is_exact:
            assert value == exact
        else:
            assert value >= exact

    def test_group_counts_match_enumeration_on_subset(self, k4_db):
        query = triangle_query()
        boundary = [Variable("x1"), Variable("x3")]
        result = eliminate_group_counts_columnar(query, k4_db, boundary, atom_indices=[0, 1])
        expected = group_counts(query, k4_db, boundary, atom_indices=[0, 1])
        # Predicates entirely inside atoms {0, 1} apply in both engines; the
        # dropped x*-x3 predicates of the full query also restrict the
        # enumeration, so compare with identical predicate sets.
        assert result.counts == expected

    def test_self_join_path(self):
        schema = DatabaseSchema.from_arities({"Edge": 2})
        db = Database.from_rows(schema, Edge=[(1, 2), (2, 3), (2, 4), (3, 4)])
        query = parse_query("Edge(a, b), Edge(b, c)")
        result = eliminate_group_counts_columnar(query, db, [Variable("a")])
        expected = group_counts(query, db, [Variable("a")])
        assert result.counts == expected

    def test_distinct_projection_via_group_keys(self, join_query, small_join_db):
        # Non-full counting: group by output variables and count non-empty groups.
        result = eliminate_group_counts_columnar(join_query, small_join_db, [Variable("x")])
        assert len([c for c in result.counts.values() if c > 0]) == 4


class TestValidation:
    def test_unknown_group_variable(self, join_query, small_join_db):
        with pytest.raises(EvaluationError):
            eliminate_group_counts_columnar(join_query, small_join_db, [Variable("nope")])

    def test_empty_atom_subset(self, join_query, small_join_db):
        result = eliminate_group_counts_columnar(join_query, small_join_db, [], atom_indices=[])
        assert result.counts == {(): 1}

    def test_empty_relation_gives_empty_counts(self):
        schema = DatabaseSchema.from_arities({"Edge": 2})
        db = Database(schema)
        query = parse_query("Edge(a, b), Edge(b, c)")
        result = eliminate_group_counts_columnar(query, db, [])
        assert result.counts.get((), 0) == 0


class TestAgainstBruteForceOnGraphs:
    def test_star_boundary_counts(self, small_graph_db, monkeypatch):
        # 3-star residual {0, 1}: Edge(x0,x1), Edge(x0,x2) grouped by x0.  The
        # leaves are summed out in different buckets, so x1 != x2 is
        # expanded: d(x0)^2 minus the term with x1 = x2, d(x0), is the exact
        # d(x0)(d(x0)-1).
        from repro.graphs.patterns import k_star_query

        query = k_star_query(3)
        boundary = [Variable("x0")]
        result = eliminate_group_counts_columnar(query, small_graph_db, boundary, atom_indices=[0, 1])
        expected = group_counts(query, small_graph_db, boundary, atom_indices=[0, 1])
        assert result.is_exact
        assert result.counts == expected
        # Without the cross-bucket predicate both engines agree exactly.
        relaxed = k_star_query(3, inequalities=False)
        result_relaxed = eliminate_group_counts_columnar(
            relaxed, small_graph_db, boundary, atom_indices=[0, 1]
        )
        expected_relaxed = group_counts(
            relaxed, small_graph_db, boundary, atom_indices=[0, 1]
        )
        assert result_relaxed.counts == expected_relaxed
        # x1 != x2 is expanded by Möbius inversion, whose terms join no
        # bucket the predicate spans: the counts stay exact under any cap.
        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
        capped = eliminate_group_counts_columnar(query, small_graph_db, boundary, atom_indices=[0, 1])
        assert capped.is_exact
        assert capped.counts == expected
        # A comparison across the buckets is not expanded: above the row cap
        # the predicate-blind plan drops x1 < x2, and the counts are then
        # upper bounds d(x0)^2.
        ordered = parse_query("Edge(x0, x1), Edge(x0, x2), x1 < x2")
        exact = group_counts(ordered, small_graph_db, boundary)
        capped = eliminate_group_counts_columnar(ordered, small_graph_db, boundary)
        assert not capped.is_exact
        assert set(capped.counts) >= set(exact)
        for key, exact_count in exact.items():
            assert capped.counts[key] >= exact_count
        assert any(capped.counts[key] > count for key, count in exact.items())


class TestPredicateAwarePlan:
    """Comparisons spanning buckets are applied exactly below the row cap,
    and dropped above it; ``!=`` is expanded and stays exact."""

    def test_path_inequalities_are_exact_for_every_grouping(self, small_graph_db):
        query = k_path_query(3)  # x1..x4 with all-pairs inequalities
        names = {v.name: v for v in query.variables}
        for group in [(), ("x1",), ("x1", "x4"), ("x4", "x2")]:
            group_vars = [names[n] for n in group]
            result = eliminate_group_counts_columnar(query, small_graph_db, group_vars)
            assert result.is_exact, group
            assert result.counts == oracle_group_counts(query, small_graph_db, group_vars)

    def test_cap_bounds_every_materialised_join(self, small_graph_db, monkeypatch):
        # The order x1 < x2 < x3 < x4, stated pairwise, links the 4-star's
        # leaves, so its plan joins every atom in one bucket; with a cap
        # below that join, no join of the predicate-aware plan may
        # materialise more than the cap.
        from repro.graphs.patterns import k_star_query

        cap = 60
        sizes = []
        expand = columnar._expand_matches

        def recording(lkey, rkey, cardinality, row_cap=None):
            left_idx, right_idx = expand(lkey, rkey, cardinality, row_cap)
            if row_cap is not None:
                sizes.append(len(left_idx))
            return left_idx, right_idx

        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", cap)
        monkeypatch.setattr(columnar, "_expand_matches", recording)
        query = parse_query(
            "Edge(x0, x1), Edge(x0, x2), Edge(x0, x3), Edge(x0, x4), "
            "x1 < x2, x1 < x3, x1 < x4, x2 < x3, x2 < x4, x3 < x4"
        )
        result = eliminate_group_counts_columnar(query, small_graph_db, [])
        assert not result.is_exact
        assert sizes and max(sizes) <= cap
        # Over the cap the true count is refused, never enumerated.
        with pytest.raises(EvaluationError, match="row cap"):
            count_query(query, small_graph_db)
        # The all-pairs != 4-star is expanded into predicate-free terms: it
        # is exact even when no predicate-aware join is allowed at all.
        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
        star = k_star_query(4)
        result = eliminate_group_counts_columnar(star, small_graph_db, [])
        assert result.is_exact
        assert result.counts == {(): oracle_count(star, small_graph_db)}

    def test_cycle5_path_residuals_exact_without_enumeration(
        self, small_graph_db, enumerated_multiplicity
    ):
        # Each 4-atom residual of the 5-cycle is a 4-edge path with all-pairs
        # inequalities, grouped by its two end points: elimination applies
        # every inequality itself.
        query = k_cycle_query(5)
        for dropped in range(5):
            kept = [i for i in range(5) if i != dropped]
            result = boundary_multiplicity(query, small_graph_db, kept)
            assert result.exact, kept
            assert result.strategy == "eliminate"
            assert result.value == enumerated_multiplicity(query, small_graph_db, kept), kept


class TestExactBeyondInt64:
    """Counts past ``2**63 - 1`` stay exact instead of wrapping.

    On the star ``Edge = {(0, i) : 1 <= i <= 50}`` a k-leaf star query
    counts ``50**k``; ``50**12`` is far above the ``int64`` range.
    """

    LEAVES = 50

    @pytest.fixture
    def star_db(self) -> Database:
        schema = DatabaseSchema.from_arities({"Edge": 2})
        return Database.from_rows(
            schema, Edge=[(0, i) for i in range(1, self.LEAVES + 1)]
        )

    @staticmethod
    def _star(leaves: int):
        return parse_query(", ".join(f"Edge(c, a{i})" for i in range(leaves)))

    def test_count_query_on_12_leaf_star(self, star_db):
        assert count_query(self._star(12), star_db) == self.LEAVES**12

    def test_boundary_multiplicity_on_13_leaf_star(self, star_db):
        result = boundary_multiplicity(self._star(13), star_db, range(1, 13))
        assert result.exact
        assert result.value == self.LEAVES**12

    def test_matmul_path_falls_back_to_exact_join(self, star_db, monkeypatch):
        # Two 6-leaf stars sharing a leaf y: eliminating the leaves and both
        # centres leaves a two-factor bucket on y whose counts are 50**6
        # each, so with the threshold at 0 it reaches the matmul gate, whose
        # int64 product would overflow.
        monkeypatch.setattr(columnar, "MATMUL_THRESHOLD", 0)
        gate = []
        fits = columnar._matmul_fits_int64
        monkeypatch.setattr(
            columnar,
            "_matmul_fits_int64",
            lambda left, right: gate.append(fits(left, right)) or gate[-1],
        )
        atoms = (
            [f"Edge(w, a{i})" for i in range(6)]
            + ["Edge(w, y)", "Edge(v, y)"]
            + [f"Edge(v, b{i})" for i in range(6)]
        )
        assert count_query(parse_query(", ".join(atoms)), star_db) == self.LEAVES**13
        assert gate == [False]
