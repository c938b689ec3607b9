"""Tests for the batch executor: dedup, budget splitting, failure isolation."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ServiceError
from repro.service.executor import BatchRequest


@pytest.fixture
def service(service_factory):
    return service_factory(rng=7)


class TestDeduplication:
    def test_duplicates_share_answer_and_charge(self, service):
        session = service.create_session(budget=1.0)
        result = service.batch(
            "toy",
            [
                {"query": "R(x, y), S(y, z)", "epsilon": 0.25},
                {"query": "R(a, b), S(b, c)", "epsilon": 0.25},  # renamed dup
                {"query": "R(x, y)", "epsilon": 0.25},
            ],
            session=session.session_id,
        )
        assert result.groups == 2
        assert result.deduplicated == 1
        assert result.epsilon_charged == pytest.approx(0.5)
        first, second, third = result.items
        assert not first.deduplicated and second.deduplicated
        assert second.response.noisy_count == first.response.noisy_count
        assert third.group != first.group
        # Only the two distinct shapes were charged to the session.
        assert service.budget(session.session_id)["spent"] == pytest.approx(0.5)

    def test_same_shape_different_epsilon_not_deduplicated(self, service):
        result = service.batch(
            "toy",
            [
                {"query": "R(x, y)", "epsilon": 0.2},
                {"query": "R(x, y)", "epsilon": 0.4},
            ],
        )
        assert result.groups == 2
        assert result.deduplicated == 0


class TestBudgetSplitting:
    def test_epsilon_total_split_over_distinct_shapes(self, service):
        session = service.create_session(budget=1.0)
        result = service.batch(
            "toy",
            [
                {"query": "R(x, y), S(y, z)"},
                {"query": "R(u, v), S(v, w)"},  # dup of the first
                {"query": "R(x, y)"},
            ],
            session=session.session_id,
            epsilon_total=1.0,
        )
        assert result.groups == 2
        assert result.epsilon_per_group == pytest.approx(0.5)
        assert result.epsilon_charged == pytest.approx(1.0)
        assert all(item.ok for item in result.items)

    def test_mixing_epsilons_and_total_rejected(self, service):
        with pytest.raises(ServiceError):
            service.batch(
                "toy",
                [{"query": "R(x, y)", "epsilon": 0.5}],
                epsilon_total=1.0,
            )

    def test_missing_epsilon_rejected(self, service):
        with pytest.raises(ServiceError):
            service.batch("toy", [{"query": "R(x, y)"}])

    def test_empty_batch_rejected(self, service):
        with pytest.raises(ServiceError):
            service.batch("toy", [])


class TestFailureIsolation:
    def test_budget_exhaustion_fails_only_some_items(self, service):
        session = service.create_session(budget=0.3)
        result = service.batch(
            "toy",
            [
                {"query": "R(x, y)", "epsilon": 0.25},
                {"query": "R(x, y), S(y, z)", "epsilon": 0.25},
            ],
            session=session.session_id,
        )
        assert not result.ok
        # Groups run in request order: the first charges, the second is
        # refused by the exhausted budget.
        first, second = result.items
        assert first.ok
        assert not second.ok
        assert "budget" in second.error

    def test_invalid_query_is_a_service_error(self, service):
        with pytest.raises(Exception):
            service.batch("toy", [{"query": "R(x,", "epsilon": 0.1}])

    def test_poisoned_query_fails_only_its_item(self, service):
        """An arbitrary (non-ReproError) exception inside one group must be
        recorded per-item, not escape and abort the whole batch."""
        from repro.query.cq import ConjunctiveQuery
        from repro.query.predicates import GenericPredicate
        from repro.query.parser import parse_query

        def explode(*values):
            raise RuntimeError("poisoned predicate")

        poisoned = ConjunctiveQuery(
            parse_query("R(x, y)").atoms,
            predicates=[GenericPredicate(explode, ["x"])],
        )
        result = service.batch(
            "toy",
            [
                BatchRequest(query="R(x, y)", epsilon=0.1),
                BatchRequest(query=poisoned, epsilon=0.1),
            ],
        )
        assert not result.ok
        good, bad = result.items
        assert good.ok
        assert not bad.ok
        assert "poisoned predicate" in bad.error
        # The poisoned group failed before its charge: only the healthy
        # group's epsilon was consumed.
        assert result.epsilon_charged == pytest.approx(0.1)

    def test_non_numeric_batch_epsilon_is_a_service_error(self):
        # A bare float() ValueError would surface as HTTP 500; the coercion
        # must map to ServiceError like every other numeric field (400).
        with pytest.raises(ServiceError, match="must be a number"):
            BatchRequest.from_mapping({"query": "R(x, y)", "epsilon": "abc"})

    def test_non_finite_batch_epsilons_rejected(self, service):
        with pytest.raises(ServiceError, match="finite"):
            BatchRequest.from_mapping({"query": "R(x, y)", "epsilon": float("nan")})
        with pytest.raises(ServiceError, match="finite"):
            service.batch(
                "toy", [{"query": "R(x, y)"}], epsilon_total=float("nan")
            )
        with pytest.raises(ServiceError, match="finite"):
            service.batch(
                "toy", [{"query": "R(x, y)"}], epsilon_total=float("inf")
            )

    def test_unknown_request_field_rejected(self):
        with pytest.raises(ServiceError):
            BatchRequest.from_mapping({"query": "R(x, y)", "bogus": 1})

    def test_missing_query_rejected(self):
        with pytest.raises(ServiceError):
            BatchRequest.from_mapping({"epsilon": 0.5})


class TestRequestOrder:
    def test_identical_requests_share_one_group(self, service):
        requests = [{"query": "R(x, y)", "epsilon": 0.01} for _ in range(10)]
        # 10 identical requests: one group, one charge, nine shared answers.
        result = service.batch("toy", requests)
        assert result.groups == 1
        assert result.deduplicated == 9
        values = {item.response.noisy_count for item in result.items}
        assert len(values) == 1

    def test_distinct_shapes_answered_in_request_order(self, service):
        requests = [
            {"query": "R(x, y)", "epsilon": 0.05},
            {"query": "R(x, y), S(y, z)", "epsilon": 0.05},
            {"query": "R(x, y), R(y, z)", "epsilon": 0.05},
            {"query": "S(x, y)", "epsilon": 0.05},
        ]
        result = service.batch("toy", requests)
        assert result.ok
        assert result.groups == 4
        assert [item.group for item in result.items] == [0, 1, 2, 3]

    def test_seeded_batch_equals_sequential_counts(self, service_factory, monkeypatch):
        """A seeded batch releases exactly what the same requests sent one
        by one through ``count`` release, even when its first group is the
        slow one: groups draw their noise in request order, not in the
        order they finish."""
        from repro.service.service import PrivateQueryService

        slow, fast = "R(x, y), S(y, z)", "R(x, y)"
        real = PrivateQueryService._sensitivity

        def sensitivity(self, reg, query, key, beta):
            if len(query.atoms) > 1:
                time.sleep(0.2)  # the first group finishes last
            return real(self, reg, query, key, beta)

        monkeypatch.setattr(PrivateQueryService, "_sensitivity", sensitivity)
        requests = [
            {"query": slow, "epsilon": 0.5},
            {"query": fast, "epsilon": 0.25},
        ]
        batched = service_factory(rng=7).batch("toy", requests)
        one_by_one = service_factory(rng=7)
        expected = [
            one_by_one.count("toy", req["query"], req["epsilon"]).noisy_count
            for req in requests
        ]
        assert [item.response.noisy_count for item in batched.items] == expected
