"""Inputs of the benchmark's workloads, all derived from the workload seed.

The graph *shapes* are fixed: the 300-node collaboration graphs the
repository's other benchmarks use (average degree 4 for the query mix, 8 for
the mutation workload).  The workload seed relabels their nodes with a random
permutation, and derives the noise seed, the ε draws and the mutation order.
A relabelled graph is isomorphic to the original, so every seed asks the
engine for the same amount of work on different inputs; drawing a fresh
random graph per seed instead moved a cold pass by up to 30 % and would hide
any change smaller than that.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_edges

NUM_NODES = 300
PAPER_DEGREE = 4.0
MUTATION_DEGREE = 8.0
#: Groups of the ``Member`` relation in the mutation workload.
GROUPS = 16


def derive_seed(seed: int, stream: str) -> int:
    """A stable per-stream seed (crc32, like ``benchmarks/bench_utils``)."""
    return zlib.crc32(f"{seed}:{stream}".encode("utf-8"))


def _inequalities(variables: list[str]) -> list[str]:
    return [f"{a} != {b}" for i, a in enumerate(variables) for b in variables[i + 1:]]


def _full(atoms: list[str], variables: list[str]) -> str:
    return ", ".join(atoms + _inequalities(variables))


#: The cold mix, in the order a pass sends it.  Full shapes carry all-pairs
#: inequalities (injective embeddings, as in the paper's experiments).
COLD_SHAPES: dict[str, str] = {
    "triangle": _full(
        ["Edge(x1, x2)", "Edge(x2, x3)", "Edge(x1, x3)"], ["x1", "x2", "x3"]
    ),
    "star3": _full(
        ["Edge(x0, x1)", "Edge(x0, x2)", "Edge(x0, x3)"], ["x0", "x1", "x2", "x3"]
    ),
    "path4": _full(
        ["Edge(x1, x2)", "Edge(x2, x3)", "Edge(x3, x4)", "Edge(x4, x5)"],
        ["x1", "x2", "x3", "x4", "x5"],
    ),
    "rectangle": _full(
        ["Edge(x1, x2)", "Edge(x2, x3)", "Edge(x3, x4)", "Edge(x4, x1)"],
        ["x1", "x2", "x3", "x4"],
    ),
    "two_triangle": _full(
        ["Edge(x1, x2)", "Edge(x1, x3)", "Edge(x2, x3)", "Edge(x2, x4)", "Edge(x3, x4)"],
        ["x1", "x2", "x3", "x4"],
    ),
    "nonfull_path2": "Q(x) :- Edge(x, y), Edge(y, z), x != y, y != z, x != z",
    "cmp_path2": "Edge(x, y), Edge(y, z), x < z",
}

#: The cheap shapes the warm HTTP clients draw from, and their ε values.
WARM_SHAPES: dict[str, str] = {
    "triangle": COLD_SHAPES["triangle"],
    "star2": _full(["Edge(x0, x1)", "Edge(x0, x2)"], ["x0", "x1", "x2"]),
    "nonfull_path2": COLD_SHAPES["nonfull_path2"],
}
WARM_EPSILONS = (0.1, 0.3, 0.7)

#: The mutation workload's queries: the triangle restricted to ``Member``
#: rows (invalidated by every mutation) and the plain triangle (must stay a
#: count-cache hit, since mutations touch only ``Member``).
MEMBER_TRIANGLE = (
    "Edge(x, y), Edge(y, z), Edge(x, z), Member(x, g), x != y, y != z, x != z"
)
EDGE_TRIANGLE = COLD_SHAPES["triangle"]


def _relabelled(degree: float, structure_stream: str, seed: int):
    """Undirected edges of a fixed-shape graph, and the node labels ``seed`` gave."""
    graph = collaboration_graph(NUM_NODES, degree, seed=derive_seed(0, structure_stream))
    labels = np.random.default_rng(derive_seed(seed, "relabel")).permutation(NUM_NODES)
    edges = sorted(tuple(sorted((int(labels[u]), int(labels[v])))) for u, v in graph.edges())
    return edges, labels


def paper_edges(seed: int) -> list[tuple[int, int]]:
    """The query-mix graph: ``collaboration_graph(300, 4.0)``, relabelled."""
    return _relabelled(PAPER_DEGREE, "profile.graph", seed)[0]


def mutation_rows(seed: int) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The mutation graph, ``collaboration_graph(300, 8.0)`` relabelled, and
    each node's group: ``node % 16`` of its unrelabelled name, so the groups
    follow the graph's shape rather than the labels."""
    edges, labels = _relabelled(MUTATION_DEGREE, "mutation.graph", seed)
    return edges, {int(labels[node]): node % GROUPS for node in range(NUM_NODES)}


def edge_database(edges: list[tuple[int, int]]) -> Database:
    """``edges`` stored symmetrically, exactly as ``serve --edge-file`` loads them."""
    return database_from_edges(edges, symmetric=True)


def mutation_database(edges: list[tuple[int, int]], groups: dict[int, int]) -> Database:
    """``edges`` plus a ``Member(node, group)`` row per node."""
    schema = DatabaseSchema.from_arities({"Edge": 2, "Member": 2})
    symmetric = sorted({pair for u, v in edges for pair in ((u, v), (v, u))})
    return Database.from_rows(schema, Edge=symmetric, Member=sorted(groups.items()))


def write_edge_file(edges: list[tuple[int, int]], path) -> None:
    """An edge list the ``serve --edge-file`` loader reads back symmetrically."""
    with open(path, "w") as handle:
        handle.writelines(f"{u} {v}\n" for u, v in edges)
