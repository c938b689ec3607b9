"""Tests for the serving layer: registry, caches, sessions, and the façade."""

from __future__ import annotations

import threading

import pytest

from repro.data.database import Database
from repro.exceptions import PrivacyError, ServiceError
from repro.service.cache import LRUCache
from repro.service.registry import DatabaseRegistry
from repro.service.sessions import SessionManager


@pytest.fixture
def service(service_factory):
    """The shared factory's default service (``toy_db`` registered, rng=0)."""
    return service_factory()


class TestRegistry:
    def test_register_and_get(self, toy_db):
        registry = DatabaseRegistry()
        entry = registry.register("toy", toy_db)
        assert entry.version == 1
        assert registry.get("toy").database is toy_db
        assert "toy" in registry
        assert registry.names() == ["toy"]

    def test_duplicate_name_rejected(self, toy_db):
        registry = DatabaseRegistry()
        registry.register("toy", toy_db)
        with pytest.raises(ServiceError):
            registry.register("toy", toy_db)

    def test_replace_bumps_version(self, toy_db):
        registry = DatabaseRegistry()
        registry.register("toy", toy_db)
        entry = registry.register("toy", toy_db, replace=True)
        assert entry.version == 2
        # Versions keep increasing across unregister/register cycles, so old
        # cache keys can never be resurrected by a later registration.
        registry.unregister("toy")
        assert registry.register("toy", toy_db).version == 3

    def test_unknown_database(self):
        with pytest.raises(ServiceError):
            DatabaseRegistry().get("missing")


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b" (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.size == 2

    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        value, hit = cache.get_or_compute("a", lambda: 42)
        assert (value, hit) == (42, False)
        assert len(cache) == 0

    def test_get_or_compute(self):
        cache = LRUCache(4)
        calls = []
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert (value, hit) == ("v", False)
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert (value, hit) == ("v", True)
        assert len(calls) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServiceError):
            LRUCache(-1)


class TestSingleFlight:
    """Regression: concurrent same-key misses used to compute in parallel.

    ``get_or_compute`` must run the factory exactly once per fill — the
    losers of the race wait for the leader's value instead of stampeding
    an expensive sensitivity profile N times.
    """

    def test_same_key_stampede_computes_once(self):
        import threading

        cache = LRUCache(4)
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def slow_factory():
            calls.append(1)
            entered.set()
            release.wait(5)
            return "v"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_compute("k", slow_factory))
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        assert entered.wait(5)
        release.set()
        for t in threads:
            t.join(5)
        assert len(calls) == 1
        assert [value for value, _ in results] == ["v"] * 8
        # Exactly the leader reports a miss; every waiter re-reads the
        # published entry and counts as a hit.
        assert sum(1 for _, hit in results if not hit) == 1

    def test_independent_keys_compute_concurrently(self):
        import threading

        cache = LRUCache(4)
        # Both factories must be in flight at once to pass the barrier; a
        # lock held across the compute would deadlock this test.
        barrier = threading.Barrier(2, timeout=5)
        results = []

        def factory(tag):
            barrier.wait()
            return tag

        threads = [
            threading.Thread(
                target=lambda key=key: results.append(
                    cache.get_or_compute(key, lambda: factory(key))
                )
            )
            for key in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5)
        assert sorted(value for value, _ in results) == ["a", "b"]

    def test_leader_failure_releases_waiters(self):
        import threading
        import time

        cache = LRUCache(4)
        follower_result = []

        def failing_factory():
            time.sleep(0.2)  # let the follower start waiting
            raise RuntimeError("leader died")

        def follower():
            follower_result.append(cache.get_or_compute("k", lambda: "rescued"))

        leader_error = []

        def leader():
            try:
                cache.get_or_compute("k", failing_factory)
            except RuntimeError as exc:
                leader_error.append(exc)

        t1 = threading.Thread(target=leader)
        t1.start()
        time.sleep(0.05)
        t2 = threading.Thread(target=follower)
        t2.start()
        t1.join(5)
        t2.join(5)
        assert leader_error  # the exception propagated to the leader
        # The waiter was woken, retried as leader and computed its value.
        assert follower_result == [("rescued", False)]
        assert cache.get("k") == "rescued"

    def test_failed_compute_leaves_no_latch(self):
        cache = LRUCache(4)
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", lambda: (_ for _ in ()).throw(RuntimeError()))
        value, hit = cache.get_or_compute("k", lambda: "ok")
        assert (value, hit) == ("ok", False)


class TestSessions:
    def test_create_charge_and_describe(self):
        manager = SessionManager(default_budget=1.0)
        session = manager.create()
        manager.charge(session.session_id, 0.25, label="q1")
        view = manager.describe(session.session_id)
        assert view["spent"] == pytest.approx(0.25)
        assert view["remaining"] == pytest.approx(0.75)

    def test_exhaustion_denied_and_audited(self):
        manager = SessionManager(default_budget=0.5)
        session = manager.create()
        manager.charge(session.session_id, 0.5)
        with pytest.raises(PrivacyError):
            manager.charge(session.session_id, 0.01)
        actions = [record.action for record in manager.audit.tail(10)]
        assert actions == ["create", "charge", "deny"]
        denied = manager.audit.tail(1)[0]
        assert not denied.ok

    def test_unknown_session(self):
        manager = SessionManager()
        with pytest.raises(ServiceError):
            manager.get("nope")

    def test_expiry_with_fake_clock(self):
        now = [0.0]
        manager = SessionManager(default_budget=1.0, ttl=10.0, clock=lambda: now[0])
        session = manager.create()
        now[0] = 5.0
        manager.charge(session.session_id, 0.1)  # touches the session
        now[0] = 14.0
        assert manager.get(session.session_id) is session  # idle 9s < ttl
        now[0] = 30.0
        assert manager.expire_idle() == [session.session_id]
        with pytest.raises(ServiceError):
            manager.get(session.session_id)
        assert manager.audit.tail(1)[0].action == "expire"

    def test_shared_budget_is_enforced(self):
        from repro.mechanisms.accountant import PrivacyAccountant

        shared = PrivacyAccountant(total_budget=0.5)
        manager = SessionManager(default_budget=10.0, shared=shared)
        a = manager.create()
        b = manager.create()
        manager.charge(a.session_id, 0.3)
        with pytest.raises(PrivacyError):
            manager.charge(b.session_id, 0.3)  # only 0.2 left in the pool
        manager.charge(b.session_id, 0.2)
        assert shared.remaining == pytest.approx(0.0)

    def test_concurrent_sessions_exhaust_shared_budget_exactly(self):
        from repro.mechanisms.accountant import PrivacyAccountant

        shared = PrivacyAccountant(total_budget=1.0)
        manager = SessionManager(default_budget=100.0, shared=shared)
        sessions = [manager.create() for _ in range(8)]
        granted = []
        barrier = threading.Barrier(8)

        def worker(session):
            barrier.wait()
            for _ in range(10):
                try:
                    manager.charge(session.session_id, 0.05)
                    granted.append(session.session_id)
                except PrivacyError:
                    pass

        threads = [threading.Thread(target=worker, args=(s,)) for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(granted) == 20  # exactly 1.0 / 0.05, never more
        assert shared.spent == pytest.approx(1.0)
        # Each session's own ledger agrees with its share of the grants.
        total_by_ledger = sum(s.ledger.spent for s in sessions)
        assert total_by_ledger == pytest.approx(1.0)


class TestServiceCounting:
    def test_budget_is_charged_and_reported(self, service):
        session = service.create_session(budget=1.0)
        response = service.count(
            "toy", "R(x, y), S(y, z)", epsilon=0.4, session=session.session_id
        )
        assert response.remaining_budget == pytest.approx(0.6)
        with pytest.raises(PrivacyError):
            service.count(
                "toy", "R(x, y), S(y, z)", epsilon=0.7, session=session.session_id
            )

    def test_unknown_database_and_method(self, service):
        with pytest.raises(ServiceError):
            service.count("missing", "R(x, y)", epsilon=0.5)

    def test_repeated_shape_hits_caches(self, service):
        first = service.count("toy", "R(x, y), S(y, z)", epsilon=0.5)
        again = service.count("toy", "R(a, b), S(b, c)", epsilon=0.5)
        assert not first.sensitivity_cache_hit
        assert again.sensitivity_cache_hit
        assert again.count_cache_hit
        assert again.sensitivity == pytest.approx(first.sensitivity)
        # Same raw text also hits the plan cache.
        text_hit = service.count("toy", "R(x, y), S(y, z)", epsilon=0.5)
        assert text_hit.plan_cache_hit

    def test_profile_reuse_across_epsilons(self, service):
        service.count("toy", "R(x, y), S(y, z)", epsilon=0.5)
        other_eps = service.count("toy", "R(x, y), S(y, z)", epsilon=0.9)
        # Different beta => sensitivity cache miss, but the beta-independent
        # multiplicity profile is reused.
        assert not other_eps.sensitivity_cache_hit
        stats = service.stats()["caches"]["profile"]
        assert stats["hits"] >= 1

    def test_cached_equals_uncached_with_same_seed(self, service_factory):
        queries = [
            "R(x, y), S(y, z)",
            "R(a, b), S(b, c)",  # renamed duplicate: cache hit on cached svc
            "R(x, y), S(y, z)",  # exact duplicate
            "R(x, x)",
        ]
        epsilons = [0.5, 0.5, 0.8, 0.3]

        def run(capacity):
            svc = service_factory(cache_capacity=capacity, rng=1234)
            sid = svc.create_session().session_id
            return [
                svc.count("toy", q, epsilon=e, session=sid)
                for q, e in zip(queries, epsilons)
            ]

        cached = run(capacity=64)
        uncached = run(capacity=0)
        assert any(r.sensitivity_cache_hit for r in cached)
        assert not any(r.sensitivity_cache_hit for r in uncached)
        for c, u in zip(cached, uncached):
            assert c.sensitivity == u.sensitivity
            assert c.expected_error == u.expected_error
            # Bitwise identical noise: caching must not touch the rng stream.
            assert c.noisy_count == u.noisy_count

    def test_replace_database_invalidates_cached_values(self, service, toy_db):
        before = service.count("toy", "R(x, y)", epsilon=0.5)
        schema = toy_db.schema
        bigger = Database.from_rows(
            schema, R=[(i, i + 1) for i in range(30)], S=[(1, 2)]
        )
        service.register_database("toy", bigger, replace=True)
        after = service.count("toy", "R(x, y)", epsilon=0.5)
        assert not after.sensitivity_cache_hit  # version changed => new key
        assert after.version == before.version + 1

    def test_sessionless_requests_use_shared_budget(self, service_factory):
        svc = service_factory(session_budget=1.0, total_budget=0.5)
        svc.count("toy", "R(x, y)", epsilon=0.5)
        with pytest.raises(PrivacyError):
            svc.count("toy", "R(x, y)", epsilon=0.1)

    def test_exhausted_budget_denied_before_computation(self, service):
        session = service.create_session(budget=0.1)
        service.count("toy", "R(x, y)", epsilon=0.1, session=session.session_id)
        misses_before = service.stats()["caches"]["sensitivity"]["misses"]
        with pytest.raises(PrivacyError):
            # A never-seen shape: the precheck must reject it before any
            # sensitivity computation touches the caches.
            service.count(
                "toy", "R(x, y), S(y, z), R(y, x)", epsilon=0.5, session=session.session_id
            )
        assert service.stats()["caches"]["sensitivity"]["misses"] == misses_before

    def test_over_cap_count_refused_before_the_charge(self, service_factory, monkeypatch):
        # Above the row cap x1 < x4 cannot be applied, so the true count is
        # refused — after the sensitivity, before any ε is charged.
        from repro.engine import columnar
        from repro.exceptions import EvaluationError
        from repro.graphs.loader import database_from_edges

        k4 = database_from_edges([(a, b) for a in range(4) for b in range(4) if a != b])
        service = service_factory(db=k4)
        session = service.create_session(budget=1.0).session_id
        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
        with pytest.raises(EvaluationError, match="row cap"):
            service.count(
                "toy",
                "Edge(x1, x2), Edge(x2, x3), Edge(x3, x4), x1 < x4",
                epsilon=0.5,
                session=session,
            )
        view = service.budget(session)
        assert (view["spent"], view["charges"]) == (0.0, 0)
        assert service.stats()["requests_served"] == 0

    def test_non_positive_epsilon_rejected(self, service):
        with pytest.raises(ServiceError):
            service.count("toy", "R(x, y)", epsilon=0.0)
        with pytest.raises(ServiceError):
            service.count("toy", "R(x, y)", epsilon=-1.0)

    def test_stats_shape(self, service):
        service.count("toy", "R(x, y)", epsilon=0.5)
        stats = service.stats()
        assert stats["requests_served"] == 1
        assert "toy" in stats["databases"]
        assert set(stats["caches"]) == {
            "plan",
            "profile",
            "sensitivity",
            "count",
            "component",
        }
        assert stats["audit"]["records"] >= 1
