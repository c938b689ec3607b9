"""Conversions between edge lists, networkx graphs and databases.

The paper stores collaboration graphs in a single relation ``Edge(From, To)``
with both orientations of every undirected edge present.  The helpers here
build the corresponding :class:`~repro.data.database.Database` instances
(from explicit edge lists, networkx graphs or text files) and convert back,
so every graph experiment can move freely between the graph view (degree
statistics, generators) and the relational view (queries, sensitivities).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import networkx as nx

from repro.data.database import Database
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.exceptions import DatasetError

__all__ = [
    "edge_schema",
    "database_from_edges",
    "database_from_networkx",
    "edges_from_database",
    "database_from_edge_file",
    "write_edge_file",
]


def edge_schema(relation: str = "Edge", private: bool = True) -> DatabaseSchema:
    """The single-relation graph schema ``Edge(src, dst)`` (edge-DP when private)."""
    return DatabaseSchema(
        [RelationSchema(relation, ["src", "dst"])],
        private=[relation] if private else [],
    )


def database_from_edges(
    edges: Iterable[tuple],
    *,
    relation: str = "Edge",
    symmetric: bool = False,
    private: bool = True,
) -> Database:
    """A database whose ``relation`` holds the given directed edges.

    Parameters
    ----------
    edges:
        ``(src, dst)`` pairs.  Duplicates collapse under set semantics.
    symmetric:
        Also insert the reverse of every edge (the storage convention used
        for the undirected collaboration graphs).
    private:
        Whether the edge relation is private (edge-DP).
    """
    rows = []
    for src, dst in edges:
        rows.append((src, dst))
        if symmetric:
            rows.append((dst, src))
    return Database(edge_schema(relation, private=private), {relation: rows})


def database_from_networkx(
    graph: "nx.Graph",
    *,
    relation: str = "Edge",
    private: bool = True,
) -> Database:
    """A database holding ``graph``'s edges (undirected graphs are stored symmetrically)."""
    symmetric = not graph.is_directed()
    return database_from_edges(
        graph.edges(), relation=relation, symmetric=symmetric, private=private
    )


def edges_from_database(
    database: Database, relation: str = "Edge"
) -> list[tuple]:
    """The directed edge list stored in ``relation`` (sorted for determinism)."""
    rel = database.relation(relation)
    if rel.arity != 2:
        raise DatasetError(f"relation {relation!r} is not binary (arity {rel.arity})")
    return sorted(rel, key=repr)


def database_from_edge_file(
    path: str | Path,
    *,
    relation: str = "Edge",
    symmetric: bool = True,
    private: bool = True,
    comment_prefix: str = "#",
) -> Database:
    """Load a whitespace-separated edge-list file (SNAP format) into a database."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"edge file {path} does not exist")
    edges: list[tuple[int, int]] = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comment_prefix):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise DatasetError(f"{path}:{line_number}: expected two columns, got {stripped!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                edges.append((parts[0], parts[1]))
    return database_from_edges(edges, relation=relation, symmetric=symmetric, private=private)


def write_edge_file(
    database: Database,
    path: str | Path,
    relation: str = "Edge",
) -> None:
    """Write the edge relation to a whitespace-separated edge-list file."""
    path = Path(path)
    edges = edges_from_database(database, relation)
    with path.open("w") as handle:
        handle.write(f"# {len(edges)} directed edges from relation {relation}\n")
        for src, dst in edges:
            handle.write(f"{src}\t{dst}\n")
