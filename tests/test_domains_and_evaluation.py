"""Tests for augmented active domains (Section 5.2) and high-level evaluation."""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.domains import active_domain, augmented_active_domain, predicate_variables
from repro.engine.evaluation import count_query, evaluate_query
from repro.exceptions import EvaluationError
from repro.qa.oracle import oracle_count
from repro.query.atoms import Variable
from repro.query.parser import parse_query


class TestActiveDomains:
    def test_predicate_variables(self):
        query = parse_query("R(x, y), S(y, z), x != z, y >= 3")
        assert predicate_variables(query) == {Variable("x"), Variable("y"), Variable("z")}

    def test_active_domain_collects_values_and_constants(self, two_table_schema):
        db = Database.from_rows(two_table_schema, R=[(1, 10)], S=[(10, 7)])
        query = parse_query("R(x, y), S(y, z), z >= 42")
        values = active_domain(query, db)
        # By default only values at positions bound to *predicate* variables
        # are collected (z occurs at S's second position), plus the constants.
        assert 42 in values
        assert 7 in values
        # Explicitly requesting other variables widens the collection.
        wide = active_domain(query, db, variables=[Variable("x"), Variable("y")])
        assert {1, 10} <= wide

    def test_augmented_domain_contains_gaps(self, two_table_schema):
        db = Database.from_rows(two_table_schema, R=[(1, 3)], S=[(3, 5)])
        query = parse_query("R(x, y), S(y, z), x < z")
        augmented = augmented_active_domain(query, db)
        # At least 2κ = 2 values strictly between the active values 1 and 5
        # must be present (Lemma 5.2 / Example 5 of the paper).
        between = [v for v in augmented if 1 < v < 5]
        assert len(between) >= 2
        assert augmented == sorted(augmented)
        # Sentinels below and above the active range.
        assert min(augmented) < 1
        assert max(augmented) > 5

    def test_augmented_domain_without_active_values(self, two_table_schema):
        db = Database(two_table_schema)
        query = parse_query("R(x, y), S(y, z), x < z")
        augmented = augmented_active_domain(query, db)
        assert len(augmented) >= 3


class TestEvaluation:
    def test_evaluate_full_query(self, join_query, small_join_db):
        rows = evaluate_query(join_query, small_join_db)
        assert len(rows) == 7
        assert all(len(row) == 3 for row in rows)

    def test_evaluate_projection(self, small_join_db):
        query = parse_query("Q(x) :- R(x, y), S(y, z)")
        rows = evaluate_query(query, small_join_db)
        assert sorted(rows) == [(1,), (2,), (3,), (4,)]

    def test_count_projection(self, small_join_db):
        query = parse_query("Q(z) :- R(x, y), S(y, z)")
        assert count_query(query, small_join_db) == 2

    def test_count_with_predicates(self, small_join_db):
        query = parse_query("R(x, y), S(y, z), x != z")
        assert count_query(query, small_join_db) == oracle_count(query, small_join_db)

    def test_eliminate_strategy_rejects_unapplicable_predicates(self, k4_db, monkeypatch):
        from repro.engine import columnar
        from repro.graphs.patterns import k_path_query

        query = parse_query("Edge(x1, x2), Edge(x2, x3), Edge(x3, x4), x1 < x4")
        # The predicate-aware plan applies the comparison across buckets...
        assert count_query(query, k4_db) == oracle_count(query, k4_db)
        # ... and above its row cap the count is refused rather than
        # silently over-counted, for a full and a non-full query alike.
        monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
        with pytest.raises(EvaluationError):
            count_query(query, k4_db)
        projected = parse_query("Q(x1) :- Edge(x1, x2), Edge(x2, x3), Edge(x3, x4), x1 < x4")
        with pytest.raises(EvaluationError):
            count_query(projected, k4_db)
        with pytest.raises(EvaluationError):
            evaluate_query(projected, k4_db)
        # Non co-occurring inequalities are expanded into predicate-free
        # terms, so they stay exact under the same cap.
        path = k_path_query(3)
        assert count_query(path, k4_db) == oracle_count(path, k4_db)

    def test_schema_validation(self, small_join_db):
        query = parse_query("Missing(x)")
        with pytest.raises(Exception):
            count_query(query, small_join_db)

    def test_empty_database(self, two_table_schema):
        db = Database(two_table_schema)
        assert count_query(parse_query("R(x, y), S(y, z)"), db) == 0
