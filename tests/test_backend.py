"""Unit tests for the columnar elimination engine's edge cases.

The equivalence harness against the references (exact enumeration and the
QA oracle, on realistic workloads) lives in ``test_backend_equivalence.py``;
this module covers the engine's edge cases: empty relations, single tuples,
constants, repeated variables, cross products, scalar factors, and
object-typed (non-integer) columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.evaluation import count_query
from repro.engine.join import group_counts
from repro.exceptions import EvaluationError
from repro.qa.oracle import oracle_count
from repro.query.atoms import Variable
from repro.query.parser import parse_query


class TestRelationColumns:
    def test_int_columns_are_int64(self, small_join_db):
        columns = small_join_db.relation("R").to_columns()
        assert len(columns) == 2
        assert all(col.dtype == np.int64 for col in columns)
        assert sorted(zip(columns[0].tolist(), columns[1].tolist())) == sorted(
            small_join_db.relation("R")
        )

    def test_columns_cached_until_mutation(self, small_join_db):
        """Columns are built on each call, so an edit shows in the next one."""
        relation = small_join_db.relation("R")
        first = relation.to_columns()
        relation.add((9, 9))
        second = relation.to_columns()
        assert len(second[0]) == len(first[0]) + 1

    def test_mixed_values_fall_back_to_object(self):
        schema = DatabaseSchema.from_arities({"T": 2})
        db = Database.from_rows(schema, T=[(1, "a"), (2, "b")])
        columns = db.relation("T").to_columns()
        assert columns[0].dtype == np.int64
        assert columns[1].dtype == object

    def test_empty_relation_columns(self, two_table_schema):
        db = Database(two_table_schema)
        columns = db.relation("R").to_columns()
        assert all(len(col) == 0 for col in columns)


class TestNumpyBackendEdgeCases:
    def test_empty_relation_count(self, two_table_schema, join_query):
        db = Database.from_rows(two_table_schema, R=[], S=[(10, 100)])
        assert count_query(join_query, db) == 0

    def test_both_relations_empty(self, two_table_schema, join_query):
        db = Database(two_table_schema)
        assert count_query(join_query, db) == 0

    def test_single_tuple_join(self, two_table_schema, join_query):
        db = Database.from_rows(two_table_schema, R=[(1, 10)], S=[(10, 5)])
        assert count_query(join_query, db) == 1

    def test_single_tuple_no_match(self, two_table_schema, join_query):
        db = Database.from_rows(two_table_schema, R=[(1, 10)], S=[(11, 5)])
        assert count_query(join_query, db) == 0

    def test_constants_in_atoms(self, two_table_schema):
        db = Database.from_rows(
            two_table_schema, R=[(1, 10), (2, 20)], S=[(10, 7), (20, 7)]
        )
        query = parse_query("R(x, 10), S(10, z)")
        assert count_query(query, db) == 1

    def test_repeated_variables(self, two_table_schema):
        db = Database.from_rows(
            two_table_schema, R=[(5, 5), (5, 6), (7, 7)], S=[(5, 1), (7, 2)]
        )
        query = parse_query("R(x, x), S(x, z)")
        assert count_query(query, db) == 2

    def test_disconnected_cross_product(self, two_table_schema):
        db = Database.from_rows(
            two_table_schema, R=[(1, 2), (3, 4)], S=[(5, 6), (7, 8), (9, 10)]
        )
        query = parse_query("R(a, b), S(c, d)")
        assert count_query(query, db) == 6

    def test_empty_group_counts_match_python(self, two_table_schema, join_query):
        db = Database.from_rows(two_table_schema, R=[], S=[])
        y = Variable("y")
        columnar = eliminate_group_counts_columnar(join_query, db, (y,))
        assert columnar.counts == group_counts(join_query, db, (y,)) == {}

    def test_group_counts_key_types_are_python_values(self, small_join_db, join_query):
        y = Variable("y")
        result = eliminate_group_counts_columnar(join_query, small_join_db, (y,))
        for key, count in result.counts.items():
            assert all(type(v) is int for v in key)
            assert type(count) is int

    def test_empty_atom_selection(self, small_join_db, join_query):
        result = eliminate_group_counts_columnar(
            join_query, small_join_db, (), atom_indices=[]
        )
        assert result.counts == {(): 1}

    def test_unknown_group_variable_raises(self, small_join_db, join_query):
        with pytest.raises(EvaluationError, match="do not occur"):
            eliminate_group_counts_columnar(
                join_query, small_join_db, (Variable("nope"),)
            )

    def test_object_column_join(self):
        schema = DatabaseSchema.from_arities({"T": 2, "U": 2})
        db = Database.from_rows(
            schema,
            T=[("alice", 1), ("bob", 2), ("carol", 1)],
            U=[(1, "x"), (1, "y"), (2, "x")],
        )
        query = parse_query("T(name, k), U(k, tag)")
        assert count_query(query, db) == 5
        assert count_query(query, db) == oracle_count(query, db)
