"""Tests for the shared-lattice profile evaluator and its supporting layers.

Covers

* :func:`repro.engine.profile.evaluate_profile` — per-subset equality with
  the :func:`~repro.engine.aggregates.boundary_multiplicity` reference
  (value, exactness, dropped predicates) across query shapes that exercise
  component memoization, isomorphism dedup, projections, predicates and the
  empty-subset convention, on ``int64`` and on ``object`` value columns;
* sharing up to isomorphism on a symmetric ``Edge`` — a symmetric
  relation's two argument orders count as one, the symmetry flag follows
  the relation's epoch (a delta that breaks it re-plans), and a component
  over the labelling cap falls back to identity sharing;
* failure propagation — a failing component stops the profile before any
  later component is evaluated;
* the NumPy ``_distance_vectors`` generator (every vector of every ``k``
  once, in the order of the recursive formulation, in bounded chunks);
* the one ``L̂S^(k)`` contraction over all ``k`` (pinned exactly against a
  literal nested-loop evaluation of Equations 19–20);
* the database's value dictionary and each relation's coded columns —
  population on first elimination, lookup counting, invalidation on
  mutation and release on registry version bump;
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
from repro.engine.aggregates import boundary_group_counts, boundary_multiplicity
from repro.engine.columnar import factorization_counter_scope
from repro.engine.profile import evaluate_profile
from repro.graphs.loader import database_from_edges, edge_schema
from repro.graphs.patterns import (
    k_star_query,
    rectangle_query,
    triangle_query,
    two_triangle_query,
)
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


def _symmetric_graph(columns: str) -> Database:
    """The same graph stored undirected: each edge in both orientations."""
    return _database(columns, edge_schema(), Edge=EDGES + [(b, a) for a, b in EDGES])


def _assert_witnesses_attain(query, db, profile):
    """Every exact eliminated witness names a group the oracle counts at the
    value (distinct outputs for a non-full query), so a shared component's
    variable map — through an argument swap too — is checked, not just its
    value."""
    from repro.qa.runner import DifferentialRunner

    for kept, result in profile.results.items():
        if result.exact and result.strategy == "eliminate" and result.witness is not None:
            witnessed = DifferentialRunner._oracle_witness_count(query, db, kept, result)
            assert witnessed == result.value, (tuple(sorted(kept)), result)


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


class TestSymmetricSharing:
    """On a symmetric relation, components are shared up to argument order."""

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_triangle_shares_every_pair(self, columns):
        db = _symmetric_graph(columns)
        shared = _assert_profiles_match(triangle_query(), db)
        _assert_witnesses_attain(triangle_query(), db, shared)
        # The three single edges are one class and so are the three paths
        # of two edges, which on a directed graph are three (test above).
        assert shared.stats.components_evaluated == 2
        assert shared.stats.component_hits == 4

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_two_triangle(self, columns):
        db = _symmetric_graph(columns)
        shared = _assert_profiles_match(two_triangle_query(), db)
        _assert_witnesses_attain(two_triangle_query(), db, shared)
        assert shared.stats.components_total == 32
        assert shared.stats.components_evaluated <= 10

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_boundary_comparisons_still_unshared(self, columns):
        query = parse_query("Edge(x, y), Edge(y, z), x < z")
        shared = _assert_profiles_match(query, _symmetric_graph(columns))
        assert shared.stats.components_evaluated == 2

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_constants_and_repeated_variables(self, columns):
        schema = DatabaseSchema.from_arities({"R": 2})
        rows = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (3, 4)]
        symmetric = _database(columns, schema, R=rows + [(b, a) for a, b in rows])
        directed = _database(columns, schema, R=rows)
        three = _lift(3, columns)
        # R(x, 3) and R(3, y) are one shape exactly when R is symmetric.
        query = parse_query(f"R(x, {three}), R({three}, y)")
        assert _assert_profiles_match(query, symmetric).stats.components_evaluated == 1
        assert _assert_profiles_match(query, directed).stats.components_evaluated == 2
        for text in (
            "R(x, x), R(x, y), R(y, z)",
            f"R(x, x), R(y, {three}), R({three}, x), x != y",
            "Q(x) :- R(x, y), R(z, y), R(z, z)",
        ):
            query = parse_query(text)
            _assert_witnesses_attain(
                query, symmetric, _assert_profiles_match(query, symmetric)
            )

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_delta_breaking_the_symmetry_replans(self, columns):
        from repro.service.cache import LRUCache

        db = _symmetric_graph(columns)
        edge = db.relation("Edge")
        query = triangle_query()
        subsets = ResidualSensitivity(query, beta=0.1).required_subsets(db)
        cache = LRUCache(256)

        def profile():
            shared = evaluate_profile(query, db, subsets, component_cache=cache)
            for kept in subsets:
                reference = boundary_multiplicity(query, db, kept)
                assert (shared.results[kept].value, shared.results[kept].exact) == (
                    reference.value,
                    reference.exact,
                )
            return shared.stats

        assert profile().components_evaluated == 2
        assert edge.symmetry is True
        reverse = (_lift(2, columns), _lift(1, columns))
        edge.remove_rows([reverse])  # (1, 2) stays: no longer symmetric
        stats = profile()
        assert edge.symmetry is False
        assert stats.component_cache_hits == 0
        assert stats.components_evaluated == 4
        edge.add_rows([reverse])
        stats = profile()
        assert edge.symmetry is True
        # The single edge is caught up from the change log (Edge occurs once
        # in it); the two-edge path, a self-join of Edge, re-evaluates.
        assert stats.component_cache_hits == 0
        assert (stats.components_evaluated, stats.component_delta_updates) == (1, 1)

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_over_the_labelling_cap_shares_by_identity(self, columns, monkeypatch):
        import repro.engine.profile as profile_module

        db = _symmetric_graph(columns)
        shared = _assert_profiles_match(rectangle_query(), db)
        assert shared.stats.components_evaluated == 3
        # The four three-edge paths need four candidate labellings each, so
        # under a cap of two each is its own representative.
        monkeypatch.setattr(profile_module, "MAX_LABELLINGS", 2)
        shared = _assert_profiles_match(rectangle_query(), db)
        assert shared.stats.components_evaluated == 2 + 4


class TestPoisonedComponent:
    """A failing component stops the profile: components are evaluated one
    after another on the calling thread, so the failure propagates at once
    and no component queued after it is evaluated."""

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
        real = boundary_group_counts
        calls = []

        def poisoned(query_, db_, kept, **kwargs):
            kept = frozenset(kept)
            calls.append(kept)
            if kept == frozenset({0}):
                raise RuntimeError("poisoned component")
            return real(query_, db_, kept, **kwargs)

        monkeypatch.setattr(profile_module, "boundary_group_counts", poisoned)
        with pytest.raises(RuntimeError, match="poisoned component"):
            evaluate_profile(query, db, [frozenset(range(n))])
        # Components run in order, the poisoned one first: nothing after it
        # was evaluated.
        assert calls == [frozenset({0})]


class TestDistanceVectors:
    """The NumPy generator of the distance vectors of every ``k ≤ k_max``."""

    @staticmethod
    def _reference(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in TestDistanceVectors._reference(total - first, parts - 1):
                yield (first,) + rest

    @staticmethod
    def _rows(parts, k_max, k_min=0):
        """``(k, vector)`` per generated row, and the chunk sizes."""
        rows, chunks = [], []
        for vectors, totals in ResidualSensitivity._distance_vectors(parts, k_max, k_min):
            assert vectors.shape == (len(totals), parts)
            chunks.append(len(totals))
            rows += [(k, tuple(v)) for k, v in zip(totals.tolist(), vectors.tolist())]
        return rows, chunks

    def test_count_and_order_match_the_recursive_formulation(self, monkeypatch):
        for chunk in (1, 2, 3, 7, 1 << 15):
            monkeypatch.setattr(ResidualSensitivity, "_LS_HAT_CHUNK", chunk)
            for parts in range(1, 5):
                rows, chunks = self._rows(parts, 6)
                assert max(chunks) <= chunk
                # C(k + m - 1, m - 1) vectors per k, each exactly once, in
                # ascending k and lexicographic order within each k.
                assert rows == [
                    (k, v) for k in range(7) for v in self._reference(k, parts)
                ]
                for k in range(7):
                    assert sum(1 for total, _ in rows if total == k) == comb(
                        k + parts - 1, parts - 1
                    )
                tail = self._rows(parts, 6, 4)[0]
                assert tail == [row for row in rows if row[0] >= 4]

    def test_order_is_ascending_lexicographic(self):
        rows, _ = self._rows(3, 2, 2)
        assert [v for _, v in rows] == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        ]

    def test_no_recursion_limit_on_deep_grids(self, monkeypatch):
        # 5000 parts: the grid is 5000 vectors of 5000 entries, never built
        # as one array; the walk nests no calls, so no recursion limit.
        monkeypatch.setattr(ResidualSensitivity, "_LS_HAT_CHUNK", 100)
        total = 0
        for vectors, totals in ResidualSensitivity._distance_vectors(5000, 1, 1):
            assert len(vectors) <= 100 and vectors.shape[1] == 5000
            assert (vectors.sum(axis=1) == 1).all() and (totals == 1).all()
            total += len(vectors)
        assert total == comb(5000, 4999)
        rows, _ = self._rows(1, 10_000, 10_000)
        assert rows == [(10_000, (10_000,))]


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
        for vector in TestDistanceVectors._reference(k, len(blocks)):
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
        # Every term is an integer below 2**53, so the sums are exact.
        series = engine.compute(db, multiplicities).details["ls_hat_series"]
        for k in range(5):
            literal = self._literal_ls_hat(engine, db, k, multiplicities)
            assert engine.ls_hat(db, k, multiplicities) == literal
            assert series[k] == literal

    def test_chunked_streaming_matches_one_shot(self, graph_db, monkeypatch):
        """A tiny chunk size forces multiple batches, which cross ``k``
        boundaries; the series is unchanged."""
        engine = ResidualSensitivity(triangle_query(), beta=0.1)
        multiplicities = engine.multiplicities(graph_db)
        expected = engine.compute(graph_db, multiplicities).details["ls_hat_series"]
        singles = [engine.ls_hat(graph_db, k, multiplicities) for k in range(6)]
        monkeypatch.setattr(ResidualSensitivity, "_LS_HAT_CHUNK", 2)
        chunks = [
            totals.tolist() for _, totals in ResidualSensitivity._distance_vectors(1, 5)
        ]
        assert chunks == [[0, 1], [2, 3], [4, 5]]
        chunked = engine.compute(graph_db, multiplicities).details["ls_hat_series"]
        assert chunked == expected
        assert [engine.ls_hat(graph_db, k, multiplicities) for k in range(6)] == singles
        assert list(expected[:6]) == singles


class TestFactorizationCache:
    """The value dictionary and each relation's coded columns (the cache the
    ``factorization_*`` counters count lookups of)."""

    def test_populated_by_numpy_evaluation_and_counted(self, graph_db):
        relation = graph_db.relation("Edge")
        assert graph_db._dictionary is None  # registration codes nothing
        engine = ResidualSensitivity(triangle_query(), beta=0.1)
        with factorization_counter_scope() as counters:
            engine.profile(graph_db)
        assert relation.coded_by is graph_db.dictionary
        counted = counters.snapshot()
        assert counted["misses"] == 1  # one per relation
        assert counted["hits"] > 0

    def test_symmetry_flag_counted_and_recorded_per_epoch(self):
        from repro.engine.columnar import relation_is_symmetric

        db = database_from_edges(EDGES, symmetric=True)
        edge = db.relation("Edge")
        with factorization_counter_scope() as counters:
            assert relation_is_symmetric(edge, db.dictionary) is True
        assert edge.symmetry is True
        # The flag coded the relation: its one miss, through the counted lookup.
        assert counters.snapshot()["misses"] == 1
        edge.add((100, 101))
        assert edge.symmetry is None  # the epoch moved on
        assert relation_is_symmetric(edge, db.dictionary) is False
        edge.release_caches()
        assert edge.symmetry is None

    def test_invalidated_on_mutation(self, graph_db):
        relation = graph_db.relation("Edge")
        ResidualSensitivity(triangle_query(), beta=0.1).profile(graph_db)
        assert relation.coded_by is graph_db.dictionary
        relation.add((100, 101))
        assert relation.coded_by is None

    def test_codes_reconstruct_the_column(self, graph_db):
        ResidualSensitivity(triangle_query(), beta=0.1).profile(graph_db)
        relation = graph_db.relation("Edge")
        dictionary = graph_db.dictionary
        for column, codes in zip(
            relation.to_columns(), relation.coded_columns(dictionary)
        ):
            assert (dictionary.decode(codes) == column).all()
            # int64 columns are coded in value order: code order is value order.
            order = np.argsort(codes, kind="stable")
            assert (np.diff(column[order]) >= 0).all()

    def test_released_on_registry_version_bump(self, graph_db):
        service = PrivateQueryService(rng=0)
        service.register_database("g", graph_db)
        service.count("g", "Edge(x, y), Edge(y, z)", epsilon=0.1)
        assert graph_db.relation("Edge").coded_by is graph_db.dictionary
        replacement = database_from_edges([(1, 2), (2, 3)])
        service.register_database("g", replacement, replace=True)
        assert graph_db._dictionary is None
        assert graph_db.relation("Edge").coded_by is None

    def test_released_on_unregister(self, graph_db):
        service = PrivateQueryService(rng=0)
        service.register_database("g", graph_db)
        service.count("g", "Edge(x, y)", epsilon=0.1)
        service.registry.unregister("g")
        assert graph_db._dictionary is None
        assert graph_db.relation("Edge").coded_by is None

    def test_kept_while_another_registration_serves_the_same_object(self, graph_db):
        service = PrivateQueryService(rng=0)
        service.register_database("a", graph_db)
        service.register_database("b", graph_db)
        service.count("b", "Edge(x, y)", epsilon=0.1)
        dictionary = graph_db.dictionary
        assert graph_db.relation("Edge").coded_by is dictionary
        # Replacing "a" must not evict the codes "b" is still serving from.
        service.register_database(
            "a", database_from_edges([(1, 2)]), replace=True
        )
        assert graph_db.dictionary is dictionary
        assert graph_db.relation("Edge").coded_by is dictionary
        service.registry.unregister("b")  # "a" no longer references graph_db
        assert graph_db._dictionary is None
        assert graph_db.relation("Edge").coded_by is None


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
        # Required subsets of the 2-atom self-join: {}, {0}, {1}; on this
        # directed graph the two singles are not isomorphic (the shared
        # variable is one edge's head and the other's tail), so both are
        # evaluated.
        assert stats["subsets_total"] == 3
        assert stats["components_total"] == 2
        assert stats["components_evaluated"] == 2
        assert stats["component_hits"] == 0
