"""Tests for boundary multiplicities T_E(I)."""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine import columnar
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.domains import augmented_active_domain
from repro.exceptions import EvaluationError
from repro.graphs.patterns import rectangle_query, triangle_query
from repro.qa.oracle import oracle_crossing_max_group_count
from repro.query.atoms import Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.predicates import GenericPredicate
from repro.query.residual import residual_query


class TestConventions:
    def test_empty_subset_is_one(self, join_query, small_join_db):
        result = boundary_multiplicity(join_query, small_join_db, [])
        assert result.value == 1
        assert result.strategy == "convention"

    def test_nonfull_with_no_output_vars_is_one_when_occupied(self, small_join_db):
        query = parse_query("Q(z) :- R(x, y), S(y, z)")
        # Keep only atom 0 (R): no output variable is realised inside it, so
        # every non-empty boundary group projects to the single empty tuple.
        result = boundary_multiplicity(query, small_join_db, [0])
        assert result.value == 1
        assert result.exact

    def test_nonfull_with_no_output_vars_is_zero_when_residual_empty(
        self, two_table_schema
    ):
        query = parse_query("Q(z) :- R(x, y), S(y, z)")
        db = Database.from_rows(two_table_schema, R=[], S=[(10, 100)])
        # The paper's T_E = 1 convention is the *occupied* case; an empty
        # residual has no group at all, so the exact value is 0 (this is
        # what keeps the disconnected-components product exact).
        result = boundary_multiplicity(query, db, [0])
        assert result.value == 0
        assert result.exact


class TestFullQueries:
    def test_single_atom_boundary(self, join_query, small_join_db):
        # T_{R}: group R(x, y) by the boundary {y}; the heaviest key is y=10
        # with 3 tuples.
        result = boundary_multiplicity(join_query, small_join_db, [0])
        assert result.value == 3
        assert result.witness == (10,)
        assert result.boundary == (Variable("y"),)

    def test_other_atom_boundary(self, join_query, small_join_db):
        # T_{S}: group S(y, z) by {y}; y=10 has 2 tuples.
        result = boundary_multiplicity(join_query, small_join_db, [1])
        assert result.value == 2

    def test_whole_query_has_empty_boundary(self, join_query, small_join_db):
        result = boundary_multiplicity(join_query, small_join_db, [0, 1])
        assert result.boundary == ()
        assert result.value == 7  # the full join size

    def test_strategies_agree(self, join_query, small_join_db):
        # Elimination against the QA oracle's nested loops.
        for kept in ([0], [1], [0, 1]):
            result = boundary_multiplicity(join_query, small_join_db, kept)
            assert result.value == _oracle_multiplicity(join_query, small_join_db, kept)


class TestGraphResiduals:
    def test_triangle_two_atom_residual(self, k4_db):
        query = triangle_query()
        # Kept atoms {0,1}: paths x1 -> x2 -> x3 grouped by (x1, x3); in K4
        # with all-distinct constraints there are exactly 2 midpoints per pair.
        result = boundary_multiplicity(query, k4_db, [0, 1])
        assert result.value == 2

    def test_triangle_single_atom_residual(self, k4_db):
        query = triangle_query()
        # A single edge atom whose both endpoints are boundary: multiplicity 1.
        result = boundary_multiplicity(query, k4_db, [0])
        assert result.value == 1

    def test_disconnected_residual_is_product(self, k4_db):
        query = rectangle_query()
        # Atoms 0 and 2 (Edge(x1,x2) and Edge(x3,x4)) share no variables; each
        # has full boundary so each contributes 1, and the product is 1.
        result = boundary_multiplicity(query, k4_db, [0, 2])
        assert result.value == 1

    def test_enumerate_and_eliminate_agree_on_k4(self, k4_db):
        query = triangle_query()
        for kept in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            exact = _oracle_multiplicity(query, k4_db, kept)
            fast = boundary_multiplicity(query, k4_db, kept)
            # Elimination may only over-count (when it drops predicates).
            assert fast.value >= exact
            if fast.exact:
                assert fast.value == exact


    def test_over_the_row_cap_is_an_upper_bound(self, k4_db, monkeypatch):
        # x1 < x4 spans buckets; with no join allowed for it, elimination
        # drops it and the value bounds the oracle's from above.
        query = parse_query("Edge(x1, x2), Edge(x2, x3), Edge(x3, x4), x1 < x4")
        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
        for kept in ([0, 1, 2], [0, 1]):
            result = boundary_multiplicity(query, k4_db, kept)
            assert not result.exact, kept
            assert result.dropped_predicates == query.predicates, kept
            assert result.value >= _oracle_multiplicity(query, k4_db, kept), kept
        assert boundary_multiplicity(query, k4_db, [0, 1, 2]).value > _oracle_multiplicity(
            query, k4_db, [0, 1, 2]
        )


class TestNonFullQueries:
    def test_projection_counts_distinct(self, small_join_db):
        full_query = parse_query("R(x, y), S(y, z)")
        projected = parse_query("Q(z) :- R(x, y), S(y, z)")
        # Keep the whole query: full counts all 7 joins, the projection only
        # the distinct z values (2).
        assert boundary_multiplicity(full_query, small_join_db, [0, 1]).value == 7
        assert boundary_multiplicity(projected, small_join_db, [0, 1]).value == 2

    def test_projection_with_boundary(self, small_join_db):
        projected = parse_query("Q(x) :- R(x, y), S(y, z)")
        # Keep atom 0: group by boundary {y}, count distinct x: y=10 has 3.
        result = boundary_multiplicity(projected, small_join_db, [0])
        assert result.value == 3

    def test_projection_strategies_agree(self, small_join_db):
        projected = parse_query("Q(x) :- R(x, y), S(y, z)")
        for kept in ([0], [1], [0, 1]):
            exact = _oracle_multiplicity(projected, small_join_db, kept)
            assert boundary_multiplicity(projected, small_join_db, kept).value == exact


class TestPredicateBoundaries:
    def test_comparison_crossing_boundary_uses_augmented_domain(self):
        # Example 5 of the paper (simplified): the predicate links a residual
        # variable to an outside variable through a comparison, so the
        # maximising value may lie strictly between active-domain values.
        schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
        db = Database.from_rows(
            schema,
            R=[(1, 3), (1, 5)],
            S=[(1, 1), (1, 2), (1, 3)],
        )
        # Keep S; x2 (from R) appears only outside and in the predicates.
        query = parse_query("R(x1, x2), S(x1, x4), x2 > x4, x2 <= 5")
        result = boundary_multiplicity(query, db, [1])
        # With x2 = 5 (or 4), all three S tuples with x4 in {1,2,3} qualify.
        assert result.value == 3
        assert result.exact

    def test_generic_predicate_crossing_boundary_rejected(self, small_join_db):
        query = parse_query("R(x, y), S(y, z)").with_predicates(
            [GenericPredicate(lambda x, z: x != z, ["x", "z"])]
        )
        with pytest.raises(EvaluationError):
            boundary_multiplicity(query, small_join_db, [0])


def _oracle_multiplicity(query, db, kept) -> int:
    """``T_E`` from the QA oracle's nested loops, the ``∂q2`` variables of
    crossing comparisons ranging over ``Z+(q, I)`` (Section 5.2)."""
    residual = residual_query(query, kept)
    crossing = [p for p in residual.dropped_predicates if p.is_comparison]
    sub_query = ConjunctiveQuery(
        [query.atoms[i] for i in sorted(residual.atom_indices)], residual.predicates
    )
    return oracle_crossing_max_group_count(
        sub_query,
        db,
        sorted(residual.boundary_relational, key=lambda v: v.name),
        crossing,
        sorted(residual.boundary_predicate_only, key=lambda v: v.name),
        augmented_active_domain(query, db),
        None if query.is_full else residual.output_variables,
    )


class TestSection52AgainstOracle:
    """Comparisons crossing the boundary (Section 5.2) against the oracle.

    ``S(a, lo, hi)`` rows are intervals and the outside variable ``b`` must
    fall inside them, so no single extreme value of ``b`` satisfies every
    row: ``T_E`` is the largest number of a group's intervals one point
    hits, and it moves with each operator's strictness.
    """

    ROWS = {
        "R": [(1, 3), (1, 5), (2, 4), (2, 9), (3, 1)],
        "S": [
            (1, 0, 3), (1, 3, 6), (1, 3, 9), (1, 2, 3),
            (2, 0, 10), (2, 1, 2), (3, 5, 5),
        ],
    }
    INTERVAL = {
        "<": "lo < b, b < hi",
        "<=": "lo <= b, b <= hi",
        ">": "b > lo, hi > b",
        ">=": "b >= lo, hi >= b",
    }

    @pytest.fixture
    def db(self) -> Database:
        return self._database(lambda v: v)

    def _database(self, lift) -> Database:
        rows = {
            name: [tuple(lift(v) for v in row) for row in table]
            for name, table in self.ROWS.items()
        }
        return Database.from_rows(DatabaseSchema.from_arities({"R": 2, "S": 3}), **rows)

    def _check(self, query, db, kept) -> int:
        result = boundary_multiplicity(query, db, kept)
        assert result.strategy == "eliminate+domain"
        assert result.exact
        assert result.value == _oracle_multiplicity(query, db, kept)
        assert (result.witness is None) == (result.value == 0)
        return result.value

    def test_each_operator(self, db):
        values = {}
        for op, interval in self.INTERVAL.items():
            query = parse_query(f"R(a, b), S(a, lo, hi), {interval}")
            values[op] = self._check(query, db, [1])
            self._check(query, db, [0])  # lo and hi range: two outside variables
        # Group 1's closed intervals all contain 3; open, at most two
        # share an integer.
        assert values == {"<": 2, "<=": 4, ">": 2, ">=": 4}

    def test_constant_comparison(self, db):
        # The constants join the augmented domain and shrink the intervals.
        query = parse_query("R(a, b), S(a, lo, hi), lo < b, b <= hi, b <= 4, hi >= 3")
        for kept in ([0], [1]):
            self._check(query, db, kept)

    def test_two_outside_variables(self):
        schema = DatabaseSchema.from_arities({"R": 5, "S": 3})
        db = Database.from_rows(
            schema,
            R=[(1, 0, 3, 3, 5), (1, 0, 3, 6, 9), (1, 1, 4, 6, 9), (1, 4, 6, 6, 9)],
            S=[(1, 0, 0)],
        )
        # x must fall in (b, c) and y in (d, e): x = 2 hits three rows and
        # y = 7 three rows, but together only two.
        query = parse_query("R(a, b, c, d, e), S(a, x, y), b < x, x < c, d < y, y < e")
        assert len(residual_query(query, [0]).boundary_predicate_only) == 2
        assert self._check(query, db, [0]) == 2

    def test_nonfull_counts_distinct_outputs(self, db):
        query = parse_query("Q(lo) :- R(a, b), S(a, lo, hi), lo <= b, b <= hi")
        self._check(query, db, [1])
        # No output variable inside R: occupied groups count 1.
        self._check(query, db, [0])

    def test_over_the_row_cap_drops_the_crossing_comparisons(self, db, monkeypatch):
        # More masked rows than the cap allows: the value is the boundary
        # maximum without the crossing comparisons, which are reported.
        query = parse_query(f"R(a, b), S(a, lo, hi), {self.INTERVAL['<']}")
        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
        for kept in ([0], [1]):
            result = boundary_multiplicity(query, db, kept)
            assert result.strategy == "eliminate+domain"
            assert not result.exact
            assert result.dropped_predicates == query.predicates
            assert result.value >= _oracle_multiplicity(query, db, kept)
        assert boundary_multiplicity(query, db, [1]).value == 4  # group 1's rows

    def test_empty_residual(self):
        db = Database.from_rows(
            DatabaseSchema.from_arities({"R": 2, "S": 3}), R=self.ROWS["R"], S=[]
        )
        query = parse_query("R(a, b), S(a, lo, hi), lo < b, b < hi")
        result = boundary_multiplicity(query, db, [1])
        assert (result.value, result.witness, result.exact) == (0, None, True)

    def test_object_value_columns(self):
        # Values past the int64 range are stored as Python ints in object
        # columns; comparisons keep Python's semantics.
        db = self._database(lambda v: 2**64 + v)
        assert db.relation("S").to_columns()[1].dtype == object
        query = parse_query(f"R(a, b), S(a, lo, hi), {self.INTERVAL['<=']}")
        assert self._check(query, db, [1]) == 4
        self._check(query, db, [0])
