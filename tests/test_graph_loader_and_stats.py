"""Tests for graph loading, generators and the closed-form pattern counters."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.evaluation import count_query
from repro.exceptions import DatasetError
from repro.graphs.generators import collaboration_graph, erdos_renyi_graph
from repro.graphs.loader import (
    database_from_edge_file,
    database_from_edges,
    database_from_networkx,
    edge_schema,
    edges_from_database,
    write_edge_file,
)
from repro.graphs.patterns import (
    k_star_query,
    rectangle_query,
    triangle_query,
    two_triangle_query,
)
from repro.graphs.statistics import GraphStatistics, pattern_count


class TestLoader:
    def test_edge_schema(self):
        schema = edge_schema()
        assert schema.relation("Edge").attribute_names == ("src", "dst")
        assert schema.is_private("Edge")
        assert not edge_schema(private=False).is_private("Edge")

    def test_database_from_edges_symmetric(self):
        db = database_from_edges([(1, 2), (2, 3)], symmetric=True)
        assert len(db.relation("Edge")) == 4
        assert (2, 1) in db.relation("Edge")

    def test_database_from_edges_directed(self):
        db = database_from_edges([(1, 2), (2, 3)], symmetric=False)
        assert len(db.relation("Edge")) == 2
        assert (2, 1) not in db.relation("Edge")

    def test_database_from_networkx_undirected(self):
        graph = nx.path_graph(4)
        db = database_from_networkx(graph)
        assert len(db.relation("Edge")) == 6  # 3 undirected edges stored twice

    def test_database_from_networkx_directed(self):
        graph = nx.DiGraph([(0, 1), (1, 2)])
        db = database_from_networkx(graph)
        assert len(db.relation("Edge")) == 2

    def test_edges_roundtrip_via_file(self, tmp_path):
        db = database_from_edges([(1, 2), (3, 4)], symmetric=True)
        path = tmp_path / "edges.txt"
        write_edge_file(db, path)
        loaded = database_from_edge_file(path, symmetric=False)
        assert set(edges_from_database(loaded)) == set(edges_from_database(db))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            database_from_edge_file(tmp_path / "missing.txt")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\n42\n")
        with pytest.raises(DatasetError):
            database_from_edge_file(path)


class TestGenerators:
    def test_collaboration_graph_is_reproducible(self):
        first = collaboration_graph(60, 6.0, seed=3)
        second = collaboration_graph(60, 6.0, seed=3)
        assert set(first.edges()) == set(second.edges())
        assert first.number_of_nodes() == 60

    def test_collaboration_graph_average_degree(self):
        graph = collaboration_graph(200, 8.0, seed=1)
        average_degree = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert 4.0 <= average_degree <= 12.0

    def test_collaboration_graph_validation(self):
        with pytest.raises(DatasetError):
            collaboration_graph(2, 4.0)
        with pytest.raises(DatasetError):
            collaboration_graph(10, -1.0)
        with pytest.raises(DatasetError):
            collaboration_graph(10, 4.0, triangle_probability=2.0)

    def test_erdos_renyi(self):
        graph = erdos_renyi_graph(30, 60, seed=2)
        assert graph.number_of_nodes() == 30
        assert graph.number_of_edges() <= 60
        with pytest.raises(DatasetError):
            erdos_renyi_graph(5, 100)


class TestStatistics:
    def test_basic_statistics(self, small_graph_db):
        stats = GraphStatistics.from_database(small_graph_db)
        assert stats.num_vertices == 6
        assert stats.num_undirected_edges == 9
        assert stats.max_degree() == 5
        assert stats.degree(0) == 5
        assert stats.degree(99) == 0
        assert stats.max_common_neighbours() == 2
        assert stats.degree_sequence()[0] == 5

    def test_wrong_arity_rejected(self):
        schema = DatabaseSchema.from_arities({"Edge": 3})
        db = Database.from_rows(schema, Edge=[(1, 2, 3)])
        with pytest.raises(DatasetError):
            GraphStatistics.from_database(db, relation="Edge")

    @pytest.mark.parametrize(
        "query_builder",
        [triangle_query, lambda: k_star_query(3), rectangle_query, two_triangle_query],
    )
    def test_closed_form_counts_match_engine_on_k4(self, k4_db, query_builder):
        query = query_builder()
        assert pattern_count(k4_db, query) == count_query(query, k4_db)

    @pytest.mark.parametrize(
        "query_builder",
        [triangle_query, lambda: k_star_query(3), rectangle_query, two_triangle_query],
    )
    def test_closed_form_counts_match_engine_on_random_graph(self, query_builder):
        graph = erdos_renyi_graph(12, 26, seed=9)
        db = database_from_networkx(graph)
        query = query_builder()
        assert pattern_count(db, query) == count_query(query, db)

    def test_closed_form_counts_match_engine_on_clustered_graph(self):
        graph = collaboration_graph(20, 4.0, seed=4)
        db = database_from_networkx(graph)
        for query in (triangle_query(), k_star_query(3)):
            assert pattern_count(db, query) == count_query(query, db)

    def test_unknown_pattern_rejected(self, k4_db):
        from repro.query.parser import parse_query

        with pytest.raises(DatasetError):
            pattern_count(k4_db, parse_query("Edge(a, b), Edge(b, c)"))

    def test_star_counts_for_other_arities(self, k4_db):
        assert pattern_count(k4_db, k_star_query(2)) == count_query(k_star_query(2), k4_db)

    def test_empty_graph_counts(self):
        db = database_from_edges([])
        assert pattern_count(db, triangle_query()) == 0
        assert pattern_count(db, rectangle_query()) == 0
