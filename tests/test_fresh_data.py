"""Freshly loaded data logs nothing.

Every loader builds its relations through the constructor, whose rows load
as one unlogged epoch: a fresh relation has an empty change log, an epoch
of 1 (0 when empty), and no component that reads it keeps delta counts
(``columnar.keeps_counts`` is false).  On a fresh graph, the triangle's
2-path component finds its maximum by bound-and-prune
(``aggregates._pruned_max``) instead of building every group's count.
"""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.datasets.snap_surrogates import surrogate_database
from repro.datasets.synthetic import random_database
from repro.datasets.tpch import generate_tpch
from repro.engine import aggregates, columnar
from repro.experiments.nonfull import projection_gain_instance, theorem_6_4_instances
from repro.graphs.loader import database_from_edge_file, database_from_edges
from repro.graphs.patterns import triangle_query
from repro.query.parser import parse_query
from repro.sensitivity.residual import ResidualSensitivity

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 3)]


def _edge_file_database(tmp_path) -> Database:
    path = tmp_path / "edges.txt"
    path.write_text("# u v\n" + "".join(f"{u} {v}\n" for u, v in EDGES))
    return database_from_edge_file(path)


LOADERS = {
    "from_rows": lambda tmp_path: Database.from_rows(
        DatabaseSchema.from_arities({"R": 2, "S": 1, "T": 1}), R=[(1, 2), (2, 3)], S=[(2,)]
    ),
    "database_from_edges": lambda tmp_path: database_from_edges(EDGES, symmetric=True),
    "database_from_edge_file": _edge_file_database,
    "surrogate_database": lambda tmp_path: surrogate_database("GrQc", scale=0.01, seed=0),
    "random_database": lambda tmp_path: random_database(
        DatabaseSchema.from_arities({"R": 2, "S": 3}), {"R": 40, "S": 30}, domain_size=8
    ),
    "generate_tpch": lambda tmp_path: generate_tpch(num_customers=10),
    "theorem_6_4_instances": lambda tmp_path: theorem_6_4_instances(16, 4)[0],
    "theorem_6_4_instances_other": lambda tmp_path: theorem_6_4_instances(16, 4)[1],
    "projection_gain_instance": lambda tmp_path: projection_gain_instance(20, 4, 3),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_fresh_relations_log_nothing(loader, tmp_path):
    db = LOADERS[loader](tmp_path)
    assert db.size(private_only=False) > 0
    for relation in db:
        assert relation.change_log_rows == 0, relation.name
        assert relation.epoch == min(len(relation), 1), relation.name
        assert relation.changes_since(0) == (None if len(relation) else ([], []))
        variables = ", ".join(f"v{i}" for i in range(relation.arity))
        query = parse_query(f"{relation.name}({variables})")
        assert not columnar.keeps_counts(query, db), relation.name


def test_fresh_graph_takes_the_pruned_maximum(monkeypatch):
    pruned: list[tuple[int, ...]] = []
    real = aggregates._pruned_max

    def spy(query, database, residual, group_vars, drop):
        pruned.append(tuple(sorted(residual.atom_indices)))
        return real(query, database, residual, group_vars, drop)

    monkeypatch.setattr(aggregates, "_pruned_max", spy)
    db = database_from_edges(EDGES, symmetric=True)
    ResidualSensitivity(triangle_query(), beta=0.1).profile(db)
    assert (0, 1) in pruned
