"""Tests for neighborhood lower bounds and optimality ratios (Section 4)."""

from __future__ import annotations

import math

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.aggregates import boundary_multiplicity
from repro.exceptions import SensitivityError
from repro.graphs.patterns import triangle_query
from repro.query.parser import parse_query
from repro.sensitivity.base import SensitivityResult
from repro.sensitivity.local import local_sensitivity_upper_bound
from repro.sensitivity.lower_bounds import (
    lemma_4_5_lower_bound,
    mechanism_error_from_sensitivity,
    neighborhood_lower_bound,
    optimality_ratio,
)
from repro.sensitivity.residual import ResidualSensitivity


class TestLemma42Normalisation:
    def test_value(self):
        assert neighborhood_lower_bound(10.0, epsilon=1.0) == pytest.approx(
            10.0 / (2.0 * math.sqrt(1.0 + math.e))
        )

    def test_zero_ls(self):
        assert neighborhood_lower_bound(0.0, epsilon=1.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(SensitivityError):
            neighborhood_lower_bound(1.0, epsilon=0.0)
        with pytest.raises(SensitivityError):
            neighborhood_lower_bound(-1.0, epsilon=1.0)


class TestLemma45:
    def test_triangle_lower_bound(self, k4_db):
        query = triangle_query()
        bound = lemma_4_5_lower_bound(query, k4_db, epsilon=1.0)
        # The best residual multiplicity on K4 is 2 (two common neighbours).
        assert bound.ls_lower_bound == 2
        assert bound.radius == 3  # n_P = 3 logical copies of Edge
        assert bound.value == pytest.approx(neighborhood_lower_bound(2, 1.0))
        assert len(bound.witness_removed_atoms) >= 1

    def test_join_query_lower_bound(self, join_query, small_join_db):
        bound = lemma_4_5_lower_bound(join_query, small_join_db, epsilon=1.0)
        assert bound.ls_lower_bound == 3  # T_R with y = 10
        assert bound.radius == 2

    def test_rejects_non_full_queries(self, small_join_db):
        projected = parse_query("Q(x) :- R(x, y), S(y, z)")
        with pytest.raises(SensitivityError):
            lemma_4_5_lower_bound(projected, small_join_db, epsilon=1.0)

    def test_lower_bound_below_mechanism_error(self, k4_db):
        """Sanity: the lower bound never exceeds the RS mechanism's error."""
        epsilon = 1.0
        query = triangle_query()
        rs = ResidualSensitivity(query, epsilon=epsilon).compute(k4_db)
        error = mechanism_error_from_sensitivity(rs, epsilon)
        bound = lemma_4_5_lower_bound(query, k4_db, epsilon=epsilon)
        assert bound.value <= error


class TestInexactMultiplicities:
    """``T_{R,T}`` of ``R(x1,x2), S(x2,x3), T(x3,x4), x1 < x4`` falls apart
    into ``{R}`` and ``{T}``, linked only by ``x1 < x4``: the product 4·4 is
    an upper bound (every ``x1`` exceeds every ``x4``, so the true value is
    0).  Neither bound may treat it as exact."""

    QUERY = parse_query("R(x1, x2), S(x2, x3), T(x3, x4), x1 < x4")

    @pytest.fixture
    def db(self) -> Database:
        return Database.from_rows(
            DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2}),
            R=[(x, 1) for x in range(10, 14)],
            S=[(1, 2)],
            T=[(2, x) for x in range(4)],
        )

    def test_upper_bound_multiplicity_is_not_exact(self, db):
        result = boundary_multiplicity(self.QUERY, db, [0, 2])
        assert (result.value, result.exact) == (16, False)

    def test_lemma_4_5_uses_exact_multiplicities_only(self, db):
        bound = lemma_4_5_lower_bound(self.QUERY, db, epsilon=1.0)
        assert bound.ls_lower_bound == 4.0
        assert bound.witness_removed_atoms != (1,)

    def test_local_upper_bound_reports_inexactness(self, db):
        result = local_sensitivity_upper_bound(self.QUERY, db)
        assert result.value == 16.0
        assert result.measure == "LS-upper"
        assert result.details["exact"] is False


class TestOptimalityRatio:
    def test_basic_ratio(self):
        assert optimality_ratio(10.0, 2.0) == pytest.approx(5.0)

    def test_zero_lower_bound(self):
        assert math.isinf(optimality_ratio(1.0, 0.0))
        assert optimality_ratio(0.0, 0.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(SensitivityError):
            optimality_ratio(-1.0, 1.0)

    def test_mechanism_error_formula(self):
        result = SensitivityResult(measure="RS", value=7.0, beta=0.1)
        assert mechanism_error_from_sensitivity(result, epsilon=1.0) == pytest.approx(70.0)
        with pytest.raises(SensitivityError):
            mechanism_error_from_sensitivity(result, epsilon=0.0)
