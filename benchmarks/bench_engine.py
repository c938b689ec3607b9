"""Micro-benchmarks of the evaluation engine.

These do not correspond to a paper table; they size the building blocks the
Table 1 harness is made of (boundary multiplicities, bucket elimination)
so performance regressions are visible independently of the end-to-end
experiments.

Run::

    pytest benchmarks/bench_engine.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.engine.aggregates import boundary_multiplicity
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import k_star_query, triangle_query
from repro.query.atoms import Variable

from bench_utils import derive_seed


@pytest.fixture(scope="module")
def medium_graph_db():
    """A 300-node clustered graph (a few thousand edge tuples)."""
    return database_from_networkx(collaboration_graph(300, 8.0, seed=derive_seed("engine.graph")))


def test_triangle_residual_multiplicity_eliminate(benchmark, medium_graph_db):
    query = triangle_query()
    result = benchmark(lambda: boundary_multiplicity(query, medium_graph_db, [0, 1]))
    assert result.value >= 1


def test_star_group_counts_elimination(benchmark, medium_graph_db):
    query = k_star_query(3)
    result = benchmark(
        lambda: eliminate_group_counts_columnar(
            query, medium_graph_db, [Variable("x0")], atom_indices=[0, 1]
        )
    )
    assert result.counts

