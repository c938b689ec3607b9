"""Tests for relation instances (set semantics, distance, statistics)."""

from __future__ import annotations

import pytest

from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.exceptions import SchemaError


@pytest.fixture
def edge_relation() -> Relation:
    schema = RelationSchema("Edge", ["src", "dst"])
    return Relation(schema, [(1, 2), (1, 3), (2, 3), (1, 2)])


class TestBasics:
    def test_set_semantics(self, edge_relation: Relation):
        assert len(edge_relation) == 3
        assert (1, 2) in edge_relation
        assert (9, 9) not in edge_relation

    def test_add_and_remove(self, edge_relation: Relation):
        assert edge_relation.add((5, 6))
        assert not edge_relation.add((5, 6))
        assert len(edge_relation) == 4
        assert edge_relation.remove((5, 6))
        assert not edge_relation.remove((5, 6))

    def test_replace(self, edge_relation: Relation):
        edge_relation.replace((1, 2), (7, 8))
        assert (7, 8) in edge_relation
        assert (1, 2) not in edge_relation
        with pytest.raises(SchemaError):
            edge_relation.replace((99, 99), (1, 1))

    def test_arity_validation(self, edge_relation: Relation):
        with pytest.raises(SchemaError):
            edge_relation.add((1, 2, 3))

    def test_copy_is_independent(self, edge_relation: Relation):
        clone = edge_relation.copy()
        clone.add((9, 9))
        assert (9, 9) not in edge_relation
        assert (9, 9) in clone

    def test_equality(self, edge_relation: Relation):
        assert edge_relation == edge_relation.copy()
        other = edge_relation.copy()
        other.add((9, 9))
        assert edge_relation != other

    def test_clear(self, edge_relation: Relation):
        edge_relation.clear()
        assert len(edge_relation) == 0


class TestDistance:
    def test_distance_with_substitutions(self):
        schema = RelationSchema("R", ["a"])
        left = Relation(schema, [(1,), (2,), (3,)])
        right = Relation(schema, [(1,), (2,), (4,)])
        # One substitution suffices.
        assert left.distance(right) == 1

    def test_distance_insert_delete(self):
        schema = RelationSchema("R", ["a"])
        left = Relation(schema, [(1,)])
        right = Relation(schema, [(1,), (2,), (3,)])
        assert left.distance(right) == 2
        assert right.distance(left) == 2

    def test_distance_identical(self):
        schema = RelationSchema("R", ["a"])
        left = Relation(schema, [(1,), (2,)])
        assert left.distance(left.copy()) == 0

    def test_distance_different_relations_rejected(self):
        left = Relation(RelationSchema("R", ["a"]), [(1,)])
        right = Relation(RelationSchema("S", ["a"]), [(1,)])
        with pytest.raises(SchemaError):
            left.distance(right)


class TestIndexesAndStatistics:
    def test_max_frequency(self, edge_relation: Relation):
        assert edge_relation.max_frequency([0]) == 2  # src = 1 appears twice
        assert edge_relation.max_frequency([1]) == 2  # dst = 3 appears twice
        assert edge_relation.max_frequency([0, 1]) == 1
        assert edge_relation.max_frequency([]) == 3

    def test_max_frequency_empty_relation(self):
        relation = Relation(RelationSchema("R", ["a"]))
        assert relation.max_frequency([0]) == 0
        assert relation.max_frequency([]) == 0
