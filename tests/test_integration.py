"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PrivacyAccountant,
    PrivateCountingQuery,
    ResidualSensitivity,
    count_query,
    parse_query,
)
from repro.datasets.tpch import (
    customer_order_lineitem_query,
    customers_with_large_orders_query,
    generate_tpch,
)
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import triangle_query
from repro.graphs.statistics import pattern_count
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.lower_bounds import (
    lemma_4_5_lower_bound,
    mechanism_error_from_sensitivity,
    optimality_ratio,
)


class TestGraphPipeline:
    """Generate a graph, count a pattern, release it with DP, check error scale."""

    @pytest.fixture(scope="class")
    def graph_db(self):
        return database_from_networkx(collaboration_graph(50, 6.0, seed=10))

    def test_counts_agree(self, graph_db):
        query = triangle_query()
        assert pattern_count(graph_db, query) == count_query(query, graph_db)

    def test_residual_release_error_is_calibrated(self, graph_db):
        query = triangle_query()
        epsilon = 1.0
        releaser = PrivateCountingQuery(query, epsilon=epsilon, rng=0)
        sensitivity = releaser.sensitivity(graph_db)
        release = releaser.release(graph_db, keep_true_count=True)
        assert release.expected_error == pytest.approx(10 * sensitivity.value / epsilon)
        # With a fixed seed the noisy count is finite and of sensible magnitude.
        assert abs(release.noisy_count - release.true_count) < 100 * release.expected_error + 1

    def test_release_distribution_is_centred(self, graph_db):
        query = triangle_query()
        true_count = pattern_count(graph_db, query)
        releaser = PrivateCountingQuery(query, epsilon=1.0, rng=np.random.default_rng(5))
        noisy = [
            releaser.release(graph_db, true_count=true_count).noisy_count for _ in range(300)
        ]
        expected_error = releaser.release(graph_db, true_count=true_count).expected_error
        assert abs(np.mean(noisy) - true_count) < expected_error

    def test_residual_beats_elastic_in_expected_error(self, graph_db):
        query = triangle_query()
        rs = ResidualSensitivity(query, epsilon=1.0).compute(graph_db)
        es = ElasticSensitivity(query, epsilon=1.0).compute(graph_db)
        assert rs.value <= es.value

    def test_optimality_certificate(self, graph_db):
        query = triangle_query()
        epsilon = 1.0
        rs = ResidualSensitivity(query, epsilon=epsilon).compute(graph_db)
        error = mechanism_error_from_sensitivity(rs, epsilon)
        bound = lemma_4_5_lower_bound(query, graph_db, epsilon)
        ratio = optimality_ratio(error, bound)
        assert 1.0 <= ratio < 10_000


class TestRelationalPipeline:
    """TPC-H-style analytics: full and non-full queries under one budget."""

    @pytest.fixture(scope="class")
    def warehouse(self):
        return generate_tpch(num_customers=30, orders_per_customer=2.5, seed=4)

    def test_budgeted_workload(self, warehouse):
        accountant = PrivacyAccountant(total_budget=2.0)
        full = customer_order_lineitem_query()
        projected = customers_with_large_orders_query(min_quantity=25)

        first = accountant.run(
            1.0,
            lambda: PrivateCountingQuery(full, epsilon=1.0, rng=1).release(warehouse),
            label="join size",
        )
        second = accountant.run(
            1.0,
            lambda: PrivateCountingQuery(projected, epsilon=1.0, rng=2).release(warehouse),
            label="distinct customers",
        )
        assert accountant.remaining == pytest.approx(0.0)
        assert np.isfinite(first.noisy_count) and np.isfinite(second.noisy_count)
        # A third query must be refused.
        with pytest.raises(Exception):
            accountant.charge(0.1)

    def test_projection_reduces_sensitivity(self, warehouse):
        full = customer_order_lineitem_query()
        projected = full.with_projection(["c"])
        rs_full = ResidualSensitivity(full, epsilon=1.0).compute(warehouse).value
        rs_projected = ResidualSensitivity(projected, epsilon=1.0).compute(warehouse).value
        assert rs_projected <= rs_full

    def test_query_text_round_trip(self, warehouse):
        text = "Customer(c, n, s), Orders(o, c, p), Lineitem(o, pk, q), q >= 10"
        query = parse_query(text)
        assert count_query(query, warehouse) >= 0
        release = PrivateCountingQuery(query, epsilon=1.0, rng=3).release(warehouse)
        assert np.isfinite(release.noisy_count)
