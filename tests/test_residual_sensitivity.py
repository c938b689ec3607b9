"""Tests for residual sensitivity — the paper's core mechanism.

The key invariants checked here:

* ``RS(I) >= LS(I)`` (it upper-bounds local sensitivity at k = 0);
* ``RS(I) >= SS_β(I)`` computed by brute force on tiny instances (RS is a
  smooth *upper bound* of smooth sensitivity);
* the smoothness property ``L̂S^(k)(I) <= L̂S^(k+1)(I')`` for neighbors, which
  is what makes the mechanism differentially private (Theorem 3.9);
* self-join handling (logical copies move together in the distance vectors);
* predicates and projections only ever reduce the value;
* the Lemma 3.10 truncation does not change the result.
"""

from __future__ import annotations

import math

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.exceptions import SensitivityError
from repro.graphs.loader import database_from_edges
from repro.graphs.patterns import k_star_query, triangle_query
from repro.query.parser import parse_query
from repro.sensitivity.local import local_sensitivity_exact
from repro.sensitivity.residual import ResidualSensitivity
from repro.sensitivity.smooth import SmoothSensitivityBruteForce


class TestConstruction:
    def test_beta_xor_epsilon(self):
        query = parse_query("R(x, y), S(y, z)")
        ResidualSensitivity(query, beta=0.1)
        ResidualSensitivity(query, epsilon=1.0)
        with pytest.raises(SensitivityError):
            ResidualSensitivity(query)
        with pytest.raises(SensitivityError):
            ResidualSensitivity(query, beta=0.1, epsilon=1.0)

    def test_epsilon_implies_beta_over_ten(self):
        query = parse_query("R(x, y), S(y, z)")
        assert ResidualSensitivity(query, epsilon=2.0).beta == pytest.approx(0.2)

    def test_invalid_beta(self):
        query = parse_query("R(x, y)")
        with pytest.raises(SensitivityError):
            ResidualSensitivity(query, beta=0.0)

    def test_negative_k_max_rejected(self):
        # The series covers k = 0 .. k_max, so a negative override has none.
        query = parse_query("R(x, y)")
        with pytest.raises(SensitivityError, match="k_max"):
            ResidualSensitivity(query, beta=0.1, k_max=-1)
        assert ResidualSensitivity(query, beta=0.1, k_max=0) is not None

    def test_requires_private_relation(self, small_join_db):
        schema = DatabaseSchema.from_arities({"R": 2, "S": 2}, private=[])
        db = Database(schema)
        rs = ResidualSensitivity(parse_query("R(x, y), S(y, z)"), beta=0.1)
        with pytest.raises(SensitivityError):
            rs.compute(db)


class TestBasicValues:
    def test_upper_bounds_local_sensitivity(self, join_query, small_join_db):
        rs = ResidualSensitivity(join_query, beta=0.1).compute(small_join_db)
        # LS(I) = max(T_R, T_S) = 3 on this instance (Lemma 3.3); RS must not
        # be smaller.
        assert rs.value >= 3

    def test_ls_hat_zero_matches_formula(self, join_query, small_join_db):
        rs = ResidualSensitivity(join_query, beta=0.1)
        # LŜ^(0) for a self-join-free query is max_i T_{[n]-{i}}:
        # removing R leaves T_S = 2, removing S leaves T_R = 3.
        assert rs.ls_hat(small_join_db, 0) == 3

    def test_ls_hat_grows_with_k(self, join_query, small_join_db):
        rs = ResidualSensitivity(join_query, beta=0.1)
        values = [rs.ls_hat(small_join_db, k) for k in range(4)]
        assert values == sorted(values)

    def test_series_recorded_in_details(self, join_query, small_join_db):
        result = ResidualSensitivity(join_query, beta=0.1).compute(small_join_db)
        series = result.detail("ls_hat_series")
        assert len(series) == result.detail("k_max") + 1
        assert result.detail("k_star") <= result.detail("k_max")
        assert result.measure == "RS"

    def test_monotone_in_beta(self, join_query, small_join_db):
        low = ResidualSensitivity(join_query, beta=0.05).compute(small_join_db).value
        high = ResidualSensitivity(join_query, beta=1.0).compute(small_join_db).value
        assert low >= high

    def test_empty_database(self, join_query, two_table_schema):
        db = Database(two_table_schema)
        result = ResidualSensitivity(join_query, beta=0.1).compute(db)
        # With empty relations every T with a removed atom is 0 except the
        # empty residual (T=1), so the value is driven by the k-terms only.
        assert result.value >= 0


class TestAgainstBruteForceSmoothSensitivity:
    def test_rs_upper_bounds_ss(self, finite_domain_schema):
        db = Database.from_rows(
            finite_domain_schema, R=[(0, 1), (2, 1)], S=[(1, 0), (1, 2)]
        )
        query = parse_query("R(x, y), S(y, z)")
        beta = 0.5
        ss = SmoothSensitivityBruteForce(query, beta=beta, k_max=1).compute(db)
        rs = ResidualSensitivity(query, beta=beta).compute(db)
        assert rs.value >= ss.value - 1e-9

    def test_rs_upper_bounds_ls_on_graph(self, small_graph_db):
        query = triangle_query()
        rs = ResidualSensitivity(query, beta=0.1).compute(small_graph_db)
        # LS for the triangle CQ: flipping one directed edge changes the count
        # by 3 * (common neighbours); hub graph has a_max = 2.
        assert rs.value >= 6


class TestSmoothness:
    """The DP-critical property: L̂S^(k)(I) <= L̂S^(k+1)(I') for neighbors."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_smoothness_on_join_query(self, join_query, small_join_db, k):
        rs = ResidualSensitivity(join_query, beta=0.1)
        base = rs.ls_hat(small_join_db, k)
        for neighbor in [
            small_join_db.with_tuple_added("R", (9, 10)),
            small_join_db.with_tuple_removed("R", (1, 10)),
            small_join_db.with_tuple_added("S", (10, 999)),
            small_join_db.with_tuple_replaced("S", (20, 100), (10, 100)),
        ]:
            assert rs.ls_hat(neighbor, k + 1) >= base - 1e-9

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_smoothness_with_self_joins(self, k):
        schema = DatabaseSchema.from_arities({"Edge": 2})
        db = Database.from_rows(schema, Edge=[(1, 2), (2, 3), (2, 4), (4, 1)])
        query = parse_query("Edge(a, b), Edge(b, c)")
        rs = ResidualSensitivity(query, beta=0.1)
        base = rs.ls_hat(db, k)
        for neighbor in [
            db.with_tuple_added("Edge", (3, 2)),
            db.with_tuple_removed("Edge", (2, 3)),
            db.with_tuple_replaced("Edge", (4, 1), (2, 1)),
        ]:
            assert rs.ls_hat(neighbor, k + 1) >= base - 1e-9

    def test_rs_ratio_between_neighbors_bounded_by_exp_beta(self, join_query, small_join_db):
        beta = 0.2
        rs = ResidualSensitivity(join_query, beta=beta)
        base = rs.compute(small_join_db).value
        neighbor = small_join_db.with_tuple_added("R", (5, 10))
        other = rs.compute(neighbor).value
        assert other <= math.exp(beta) * base + 1e-9
        assert base <= math.exp(beta) * other + 1e-9


class TestSelfJoins:
    def test_self_join_blocks_share_distance(self, k4_db):
        query = triangle_query()
        rs = ResidualSensitivity(query, beta=0.1)
        # With a single private physical relation the distance vector is
        # (k, k, k): LŜ^(1) must therefore account for all three logical
        # copies changing at once and exceed the self-join-free analogue of a
        # single +1.
        ls0 = rs.ls_hat(k4_db, 0)
        ls1 = rs.ls_hat(k4_db, 1)
        assert ls1 > ls0

    def test_star_query_value_close_to_elastic(self, small_graph_db):
        from repro.sensitivity.elastic import ElasticSensitivity

        query = k_star_query(3)
        rs = ResidualSensitivity(query, beta=0.1).compute(small_graph_db).value
        es = ElasticSensitivity(query, beta=0.1).compute(small_graph_db).value
        # On star queries the two measures are driven by the same degree
        # statistics (Table 1's observation); allow generous slack.
        assert rs <= es * 3
        assert es <= rs * 3


class TestPredicatesAndProjections:
    def test_predicates_do_not_increase_rs(self, k4_db):
        with_predicates = triangle_query()
        without_predicates = triangle_query(inequalities=False)
        rs_with = ResidualSensitivity(with_predicates, beta=0.1).compute(k4_db).value
        rs_without = ResidualSensitivity(without_predicates, beta=0.1).compute(k4_db).value
        assert rs_with <= rs_without + 1e-9

    def test_projection_does_not_increase_rs(self, small_join_db):
        full = parse_query("R(x, y), S(y, z)")
        projected = parse_query("Q(x) :- R(x, y), S(y, z)")
        rs_full = ResidualSensitivity(full, beta=0.1).compute(small_join_db).value
        rs_projected = ResidualSensitivity(projected, beta=0.1).compute(small_join_db).value
        assert rs_projected <= rs_full + 1e-9


class TestTruncation:
    def test_lemma_3_10_truncation_is_sufficient(self, join_query, small_join_db):
        rs = ResidualSensitivity(join_query, beta=0.1)
        k_max = rs.lemma_3_10_k_max(small_join_db)
        truncated = rs.compute(small_join_db).value
        extended = ResidualSensitivity(join_query, beta=0.1, k_max=k_max + 10).compute(
            small_join_db
        ).value
        assert truncated == pytest.approx(extended)

    def test_required_subsets_cover_all_for_single_block(self, k4_db):
        query = triangle_query()
        rs = ResidualSensitivity(query, beta=0.1)
        subsets = rs.required_subsets(k4_db)
        # For a single private relation with 3 copies, every proper subset of
        # the atoms is needed: 2^3 - 1 = 7 (the full set is never needed).
        assert len(subsets) == 7
        assert frozenset({0, 1, 2}) not in subsets
