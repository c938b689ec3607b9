"""Tests for the shared-lattice profile evaluator and its supporting layers.

Covers

* :func:`repro.engine.profile.evaluate_profile` — per-subset equality with
  the :func:`~repro.engine.aggregates.boundary_multiplicity` reference
  (value, exactness, dropped predicates) across query shapes that exercise
  component memoization, isomorphism dedup, projections, predicates and the
  empty-subset convention, on ``int64`` and on ``object`` value columns;
* the ``parallelism`` knob (identical results, any pool size);
* the ``parallelism_mode`` knob — the serial/thread/process equivalence
  matrix on both column representations (values, dropped predicates, merged
  stats counters), pickle round-trips of the process-pool task specs, prompt
  failure propagation with sibling cancellation, and mode validation;
* the iterative stars-and-bars ``_distance_vectors`` generator (count and
  order pinned against the recursive formulation it replaced);
* the vectorized ``L̂S^(k)`` contraction (pinned against a literal
  nested-loop evaluation of Equations 19–20);
* the per-(relation, column) factorization cache — population, hit
  counting, invalidation on mutation and release on registry version bump;
* the profiler counters surfaced through ``ResidualSensitivityReport`` and
  the service ``/stats`` block.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.columnar import ColumnCodes, factorization_cache_stats
from repro.engine.profile import evaluate_profile
from repro.graphs.loader import database_from_edges, edge_schema
from repro.graphs.patterns import k_star_query, triangle_query
from repro.query.parser import parse_query
from repro.query.residual import all_subsets_of_block
from repro.sensitivity.residual import ResidualSensitivity
from repro.service import PrivateQueryService

EDGES = [
    (1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (5, 6), (2, 5),
    (1, 6), (6, 7), (2, 7), (4, 7),
]


@pytest.fixture
def graph_db() -> Database:
    return database_from_edges(EDGES)


# The engine's two column representations.  ``numpy`` keeps the fixtures'
# small ints, which ``Relation.to_columns`` stores as ``int64`` arrays;
# ``python`` lifts every value past ``2**63 - 1`` (order and equality are
# preserved), so the same instance runs on ``object`` columns of Python ints.
COLUMNS = ("python", "numpy")
_LIFT = 2**64


def _lift(value: int, columns: str) -> int:
    return value + _LIFT if columns == "python" else value


def _database(columns: str, schema: DatabaseSchema, **rows) -> Database:
    db = Database.from_rows(
        schema,
        **{
            name: [tuple(_lift(v, columns) for v in row) for row in relation_rows]
            for name, relation_rows in rows.items()
        },
    )
    want = object if columns == "python" else np.int64
    assert all(col.dtype == want for rel in db for col in rel.to_columns())
    return db


def _graph(columns: str) -> Database:
    return _database(columns, edge_schema(), Edge=EDGES)


def _assert_profiles_match(query, db):
    engine = ResidualSensitivity(query, beta=0.1)
    subsets = engine.required_subsets(db)
    shared = evaluate_profile(query, db, subsets)
    for kept in subsets:
        reference = boundary_multiplicity(query, db, kept)
        result = shared.results[kept]
        assert (result.value, result.exact) == (reference.value, reference.exact), (
            tuple(sorted(kept)),
            result,
            reference,
        )
        assert sorted(map(repr, result.dropped_predicates)) == sorted(
            map(repr, reference.dropped_predicates)
        ), tuple(sorted(kept))
    return shared


class TestEvaluateProfileEquality:
    @pytest.mark.parametrize("columns", COLUMNS)
    def test_triangle_query(self, columns):
        shared = _assert_profiles_match(triangle_query(), _graph(columns))
        stats = shared.stats
        assert stats.subsets_total == 7
        # Every non-empty proper subset of the triangle is connected: six
        # component references, of which the three isomorphic single-atom
        # residuals share one evaluation (the three pairs align differently).
        assert stats.components_total == 6
        assert stats.components_evaluated == 4
        assert stats.component_hits == 2

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_star_query_isomorphism_dedup(self, columns):
        shared = _assert_profiles_match(k_star_query(3), _graph(columns))
        # Singles and pairs are each one isomorphism class: 2 evaluations.
        assert shared.stats.components_evaluated == 2
        assert shared.stats.component_hits == 4

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_disconnected_subsets_share_components(self, columns):
        query = parse_query("Edge(a, b), Edge(b, c), Edge(c, d), Edge(d, e)")
        shared = _assert_profiles_match(query, _graph(columns))
        # 15 proper subsets of 4 atoms decompose into 19 component
        # references; sub-paths recur across subsets.
        assert shared.stats.subsets_total == 15
        assert shared.stats.components_total == 19
        assert shared.stats.component_hits > 0

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_projection_query(self, columns):
        _assert_profiles_match(
            parse_query("q(x) :- Edge(x, y), Edge(y, z)"), _graph(columns)
        )

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_two_relation_join_with_public_side(self, columns):
        schema = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2}, private=["R", "S"])
        db = _database(
            columns,
            schema,
            R=[(1, 2), (2, 2), (2, 3)],
            S=[(2, 5), (2, 7), (3, 7)],
            T=[(5, 1), (7, 1)],
        )
        _assert_profiles_match(parse_query("R(x, y), S(y, z), T(z, w)"), db)

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_comparison_predicates_crossing_boundaries(self, columns):
        schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
        db = _database(
            columns, schema, R=[(1, 2), (2, 4), (3, 1)], S=[(2, 3), (4, 1), (1, 5)]
        )
        _assert_profiles_match(parse_query("R(x, y), S(y, z), x < z"), db)

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_constants_and_repeated_variables(self, columns):
        schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
        db = _database(
            columns, schema, R=[(1, 1), (1, 2), (2, 2)], S=[(1, 3), (2, 3), (3, 3)]
        )
        query = parse_query(f"R(x, x), S(x, {_lift(3, columns)})")
        _assert_profiles_match(query, db)

    def test_empty_subset_uses_the_convention(self, graph_db):
        query = triangle_query()
        profile = evaluate_profile(query, graph_db, [frozenset()])
        result = profile.results[frozenset()]
        assert (result.value, result.strategy, result.exact) == (1, "convention", True)

    def test_enumerate_strategy_bypasses_sharing(self, graph_db):
        query = k_star_query(3)
        engine = ResidualSensitivity(query, beta=0.1, strategy="enumerate")
        subsets = engine.required_subsets(graph_db)
        shared = evaluate_profile(query, graph_db, subsets, strategy="enumerate")
        assert shared.stats.component_hits == 0
        for kept in subsets:
            reference = boundary_multiplicity(query, graph_db, kept, strategy="enumerate")
            assert shared.results[kept] == reference


class TestParallelism:
    def test_parallel_results_identical(self, graph_db):
        query = triangle_query()
        engine = ResidualSensitivity(query, beta=0.1)
        subsets = engine.required_subsets(graph_db)
        serial = evaluate_profile(query, graph_db, subsets)
        for workers in (2, 8):
            parallel = evaluate_profile(query, graph_db, subsets, parallelism=workers)
            assert parallel.results == serial.results

    def test_parallelism_threads_through_the_engine(self, graph_db):
        serial = ResidualSensitivity(triangle_query(), beta=0.1)
        parallel = ResidualSensitivity(triangle_query(), beta=0.1, parallelism=3)
        assert serial.compute(graph_db).value == parallel.compute(graph_db).value

    def test_negative_parallelism_rejected(self):
        from repro.exceptions import SensitivityError

        with pytest.raises(SensitivityError):
            ResidualSensitivity(triangle_query(), beta=0.1, parallelism=-1)


class TestParallelismModes:
    """The serial / thread / process equivalence matrix (ISSUE 9 tentpole)."""

    _STRUCTURAL = (
        "subsets_total",
        "components_total",
        "components_evaluated",
        "component_hits",
        "component_cache_hits",
    )

    @pytest.mark.parametrize("columns", COLUMNS)
    @pytest.mark.parametrize(
        "query_factory",
        [triangle_query, lambda: k_star_query(3),
         lambda: parse_query("q(x) :- Edge(x, y), Edge(y, z)")],
        ids=["triangle", "star3", "projection"],
    )
    def test_cross_mode_equivalence(self, columns, query_factory):
        graph_db = _graph(columns)
        query = query_factory()
        engine = ResidualSensitivity(query, beta=0.1)
        subsets = engine.required_subsets(graph_db)
        serial = evaluate_profile(query, graph_db, subsets)
        by_mode = {
            "thread": evaluate_profile(
                query, graph_db, subsets, parallelism=2, parallelism_mode="thread"
            ),
            "process": evaluate_profile(
                query, graph_db, subsets, parallelism=2, parallelism_mode="process"
            ),
        }
        for mode, profile in by_mode.items():
            for kept in subsets:
                got, want = profile.results[kept], serial.results[kept]
                assert (got.value, got.exact) == (want.value, want.exact), (
                    mode, tuple(sorted(kept)),
                )
                assert sorted(map(repr, got.dropped_predicates)) == sorted(
                    map(repr, want.dropped_predicates)
                ), (mode, tuple(sorted(kept)))
            for field in self._STRUCTURAL:
                assert getattr(profile.stats, field) == getattr(
                    serial.stats, field
                ), (mode, field)
            # Cold worker caches can turn factorization hits into misses,
            # but the event total is structural and mode-invariant.
            assert (
                profile.stats.factorization_hits
                + profile.stats.factorization_misses
                == serial.stats.factorization_hits
                + serial.stats.factorization_misses
            ), mode

    def test_auto_mode_matches_serial(self, graph_db):
        query = parse_query("Edge(a, b), Edge(b, c), Edge(c, d), Edge(d, e)")
        engine = ResidualSensitivity(query, beta=0.1)
        subsets = engine.required_subsets(graph_db)
        serial = evaluate_profile(query, graph_db, subsets)
        auto = evaluate_profile(
            query, graph_db, subsets, parallelism=2, parallelism_mode="auto"
        )
        assert auto.results == serial.results

    def test_unknown_mode_rejected(self, graph_db):
        from repro.exceptions import EvaluationError

        with pytest.raises(EvaluationError, match="parallelism_mode"):
            evaluate_profile(
                triangle_query(), graph_db, [frozenset({0})],
                parallelism_mode="greenlet",
            )

    def test_mode_threads_through_the_engine(self, graph_db):
        serial = ResidualSensitivity(triangle_query(), beta=0.1)
        pooled = ResidualSensitivity(
            triangle_query(), beta=0.1, parallelism=2, parallelism_mode="process"
        )
        assert serial.compute(graph_db).value == pooled.compute(graph_db).value

    def test_engine_rejects_unknown_mode(self):
        from repro.exceptions import SensitivityError

        with pytest.raises(SensitivityError):
            ResidualSensitivity(
                triangle_query(), beta=0.1, parallelism_mode="fork"
            )

    def test_component_task_pickle_roundtrip(self, graph_db):
        import pickle

        from repro.engine.procpool import build_component_task, evaluate_component_task

        query = triangle_query()
        task = build_component_task(
            query,
            graph_db,
            frozenset({0, 1}),
            relation_names={"Edge"},
            strategy="auto",
            max_enumeration=None,
        )
        clone = pickle.loads(pickle.dumps(task))
        # DatabaseSchema compares by identity; check the shipped payload.
        assert clone.relations == task.relations
        assert (clone.kept, clone.db_token) == (task.kept, task.db_token)
        assert (clone.strategy, clone.max_enumeration) == (
            task.strategy, task.max_enumeration,
        )
        assert repr(clone.schema) == repr(task.schema)
        # The thawed spec evaluates to the same result as the parent-side
        # reference path.
        result, delta = evaluate_component_task(clone)
        reference = boundary_multiplicity(query, graph_db, frozenset({0, 1}))
        assert (result.value, result.exact) == (reference.value, reference.exact)
        assert set(delta) == {"hits", "misses"}


def _exploding_component_task(task):
    """Module-level so the spawn worker can unpickle it by reference."""
    raise RuntimeError("worker blew up")


class TestPoisonedComponent:
    """Regression: a failing component must cancel its queued siblings.

    The parallel path used to go through ``pool.map``, which surfaces the
    first exception only after every in-flight sibling finishes and lets
    all queued components run to completion anyway.
    """

    @staticmethod
    def _disconnected_query(n):
        text = ", ".join(f"R{i}(a{i}, b{i})" for i in range(n))
        return parse_query(text)

    def test_thread_failure_cancels_queued_siblings(self, monkeypatch):
        import repro.engine.profile as profile_module

        n = 8
        query = self._disconnected_query(n)
        schema = DatabaseSchema.from_arities({f"R{i}": 2 for i in range(n)})
        db = Database.from_rows(
            schema, **{f"R{i}": [(1, 2), (2, 3)] for i in range(n)}
        )
        real = boundary_multiplicity
        calls = []

        def poisoned(query_, db_, kept, **kwargs):
            kept = frozenset(kept)
            calls.append(kept)
            if kept == frozenset({0}):
                raise RuntimeError("poisoned component")
            import time

            time.sleep(0.05)
            return real(query_, db_, kept, **kwargs)

        monkeypatch.setattr(profile_module, "boundary_multiplicity", poisoned)
        with pytest.raises(RuntimeError, match="poisoned component"):
            evaluate_profile(
                query, db, [frozenset(range(n))], parallelism=2
            )
        # The poison fires while at most one sibling is in flight; the
        # queued remainder must be cancelled, not drained.  pool.map would
        # have recorded all n calls here.
        assert frozenset({0}) in calls
        assert len(calls) <= 4

    def test_process_failure_propagates(self, monkeypatch):
        import repro.engine.profile as profile_module

        # The worker unpickles this module-level function by reference and
        # raises inside the pool — the genuine worker-failure path.
        monkeypatch.setattr(
            profile_module, "evaluate_component_task", _exploding_component_task
        )
        query = triangle_query()
        db = database_from_edges([(1, 2), (2, 3)])
        with pytest.raises(RuntimeError, match="worker blew up"):
            evaluate_profile(
                query,
                db,
                [frozenset({0, 1})],
                parallelism=2,
                parallelism_mode="process",
            )


class TestDistanceVectors:
    @staticmethod
    def _reference(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in TestDistanceVectors._reference(total - first, parts - 1):
                yield (first,) + rest

    def test_count_and_order_match_the_recursive_formulation(self):
        for total in range(7):
            for parts in range(1, 5):
                got = list(ResidualSensitivity._distance_vectors(total, parts))
                assert got == list(self._reference(total, parts))
                assert len(got) == comb(total + parts - 1, parts - 1)
                assert all(sum(v) == total and len(v) == parts for v in got)

    def test_order_is_ascending_lexicographic(self):
        got = list(ResidualSensitivity._distance_vectors(2, 3))
        assert got == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        ]

    def test_no_recursion_limit_on_deep_grids(self):
        # The recursive formulation it replaced recursed once per part and
        # would overflow the interpreter stack around ~1000 parts.
        vectors = ResidualSensitivity._distance_vectors(1, 5000)
        assert sum(1 for _ in vectors) == comb(5000, 4999)
        assert list(ResidualSensitivity._distance_vectors(10_000, 1)) == [(10_000,)]


class TestVectorizedLsHat:
    def _literal_ls_hat(self, engine, db, k, multiplicities):
        """Equations (19)-(20) as the literal nested loops the code replaced."""
        blocks = engine._private_blocks(db)
        t_value = {kept: r.value for kept, r in multiplicities.items()}
        private_atoms = [i for b in blocks for i in b.atom_indices]
        atom_block = {
            i: pos for pos, b in enumerate(blocks) for i in b.atom_indices
        }
        all_atoms = frozenset(range(engine.query.num_atoms))
        best = 0.0
        for vector in engine._distance_vectors(k, len(blocks)):
            s_of_atom = {i: vector[atom_block[i]] for i in private_atoms}
            for block in blocks:
                total = 0.0
                for removed in all_subsets_of_block(block.atom_indices):
                    remaining = [a for a in private_atoms if a not in removed]
                    for size in range(len(remaining) + 1):
                        for extra in itertools.combinations(remaining, size):
                            product = 1
                            for j in extra:
                                product *= s_of_atom[j]
                            kept = all_atoms - removed - frozenset(extra)
                            total += t_value[kept] * product
                best = max(best, total)
        return best

    @pytest.mark.parametrize(
        "text",
        [
            "R(x, y), S(y, z)",
            "Edge(x, y), Edge(y, z), Edge(x, z)",
            "Edge(x, y), Edge(y, z)",
        ],
    )
    def test_matches_the_literal_formula(self, text, graph_db):
        query = parse_query(text)
        if "R" in {atom.relation for atom in query.atoms}:
            schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
            db = Database.from_rows(
                schema, R=[(1, 2), (2, 2), (3, 2)], S=[(2, 5), (2, 7), (5, 5)]
            )
        else:
            db = graph_db
        engine = ResidualSensitivity(query, beta=0.1)
        multiplicities = engine.multiplicities(db)
        for k in range(5):
            assert engine.ls_hat(db, k, multiplicities) == pytest.approx(
                self._literal_ls_hat(engine, db, k, multiplicities)
            )

    def test_chunked_streaming_matches_one_shot(self, graph_db, monkeypatch):
        """A tiny chunk size forces multiple batches; the max is unchanged."""
        engine = ResidualSensitivity(triangle_query(), beta=0.1)
        multiplicities = engine.multiplicities(graph_db)
        expected = [engine.ls_hat(graph_db, k, multiplicities) for k in range(6)]
        monkeypatch.setattr(ResidualSensitivity, "_LS_HAT_CHUNK", 2)
        chunked = [engine.ls_hat(graph_db, k, multiplicities) for k in range(6)]
        assert chunked == expected


class TestFactorizationCache:
    def test_populated_by_numpy_evaluation_and_counted(self, graph_db):
        relation = graph_db.relation("Edge")
        assert relation.cached_factorization(0) is None
        before = factorization_cache_stats()
        engine = ResidualSensitivity(triangle_query(), beta=0.1)
        engine.profile(graph_db)
        assert isinstance(relation.cached_factorization(0), ColumnCodes)
        assert isinstance(relation.cached_factorization(1), ColumnCodes)
        after = factorization_cache_stats()
        assert after["misses"] - before["misses"] == 2  # one per column
        assert after["hits"] > before["hits"]

    def test_invalidated_on_mutation(self, graph_db):
        relation = graph_db.relation("Edge")
        ResidualSensitivity(triangle_query(), beta=0.1).profile(graph_db)
        assert relation.cached_factorization(0) is not None
        relation.add((100, 101))
        assert relation.cached_factorization(0) is None

    def test_codes_reconstruct_the_column(self, graph_db):
        ResidualSensitivity(triangle_query(), beta=0.1).profile(graph_db)
        relation = graph_db.relation("Edge")
        column = relation.to_columns()[0]
        codes = relation.cached_factorization(0)
        assert (codes.values[codes.codes] == column).all()

    def test_released_on_registry_version_bump(self, graph_db):
        service = PrivateQueryService(rng=0)
        service.register_database("g", graph_db)
        service.count("g", "Edge(x, y), Edge(y, z)", epsilon=0.1)
        assert graph_db.relation("Edge").cached_factorization(0) is not None
        replacement = database_from_edges([(1, 2), (2, 3)])
        service.register_database("g", replacement, replace=True)
        assert graph_db.relation("Edge").cached_factorization(0) is None

    def test_released_on_unregister(self, graph_db):
        service = PrivateQueryService(rng=0)
        service.register_database("g", graph_db)
        service.count("g", "Edge(x, y)", epsilon=0.1)
        service.registry.unregister("g")
        assert graph_db.relation("Edge").cached_factorization(0) is None

    def test_kept_while_another_registration_serves_the_same_object(self, graph_db):
        service = PrivateQueryService(rng=0)
        service.register_database("a", graph_db)
        service.register_database("b", graph_db)
        service.count("b", "Edge(x, y)", epsilon=0.1)
        assert graph_db.relation("Edge").cached_factorization(0) is not None
        # Replacing "a" must not evict the caches "b" is still serving from.
        service.register_database(
            "a", database_from_edges([(1, 2)]), replace=True
        )
        assert graph_db.relation("Edge").cached_factorization(0) is not None
        service.registry.unregister("b")  # "a" no longer references graph_db
        assert graph_db.relation("Edge").cached_factorization(0) is None


class TestProfilerCounters:
    def test_report_carries_the_counters(self, graph_db):
        result = ResidualSensitivity(
            k_star_query(3), beta=0.1
        ).compute(graph_db)
        report = result.detail("report")
        assert report.subsets_total == 7
        assert report.components_evaluated == 2
        assert report.factorization_hits > 0
        profiler = result.detail("profiler")
        assert profiler["subsets_total"] == 7
        assert profiler["component_hits"] == 4

    def test_supplied_profile_leaves_counters_zero(self, graph_db):
        engine = ResidualSensitivity(k_star_query(3), beta=0.1)
        profile = engine.multiplicities(graph_db)
        result = engine.compute(graph_db, multiplicities=profile)
        report = result.detail("report")
        assert (report.subsets_total, report.components_evaluated) == (0, 0)
        assert result.detail("profiler") is None

    def test_service_stats_accumulate(self, graph_db):
        service = PrivateQueryService(rng=0)
        service.register_database("g", graph_db)
        stats = service.stats()["profiler"]
        assert stats["profiles_computed"] == 0
        service.count("g", "Edge(x, y), Edge(y, z)", epsilon=0.1)
        service.count("g", "Edge(x, y), Edge(y, z)", epsilon=0.1)  # cache hit
        stats = service.stats()["profiler"]
        assert stats["profiles_computed"] == 1  # second request hit the cache
        # Required subsets of the 2-atom self-join: {}, {0}, {1}; the two
        # singles are connected and not positionally isomorphic (the shared
        # variable sits at a different position), so both are evaluated.
        assert stats["subsets_total"] == 3
        assert stats["components_total"] == 2
        assert stats["components_evaluated"] == 2
        assert stats["component_hits"] == 0
