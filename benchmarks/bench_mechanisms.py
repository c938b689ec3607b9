"""Micro-benchmarks of the DP mechanisms and sensitivity engines.

Times the per-release cost (sensitivity computation + noise sampling) of the
different calibration methods on a fixed mid-size graph, plus the raw noise
samplers.  These are the costs a deployment would pay per query.

Run::

    pytest benchmarks/bench_mechanisms.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import triangle_query
from repro.graphs.statistics import pattern_count
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.mechanisms.noise import GeneralCauchyNoise, LaplaceNoise
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.residual import ResidualSensitivity
from repro.sensitivity.smooth_triangle import TriangleSmoothSensitivity

from bench_utils import derive_seed


@pytest.fixture(scope="module")
def graph_db():
    return database_from_networkx(collaboration_graph(200, 8.0, seed=derive_seed("mechanisms.graph")))


@pytest.fixture(scope="module")
def true_count(graph_db):
    return pattern_count(graph_db, triangle_query())


def test_residual_sensitivity_triangle(benchmark, graph_db):
    engine = ResidualSensitivity(triangle_query(), beta=0.1)
    result = benchmark(lambda: engine.compute(graph_db))
    assert result.value > 0


def test_elastic_sensitivity_triangle(benchmark, graph_db):
    engine = ElasticSensitivity(triangle_query(), beta=0.1)
    result = benchmark(lambda: engine.compute(graph_db))
    assert result.value > 0


def test_smooth_sensitivity_triangle(benchmark, graph_db):
    engine = TriangleSmoothSensitivity(beta=0.1)
    result = benchmark(lambda: engine.compute(graph_db))
    assert result.value >= 0


def test_full_release_residual(benchmark, graph_db, true_count):
    releaser = PrivateCountingQuery(
        triangle_query(), epsilon=1.0, rng=derive_seed("mechanisms.release")
    )
    release = benchmark(lambda: releaser.release(graph_db, true_count=true_count))
    assert release.noisy_count is not None


def test_laplace_sampling(benchmark):
    noise = LaplaceNoise(scale=10.0, rng=derive_seed("mechanisms.laplace"))
    samples = benchmark(lambda: noise.sample(size=10_000))
    assert samples.shape == (10_000,)


def test_general_cauchy_sampling(benchmark):
    noise = GeneralCauchyNoise(
        scale=10.0, gamma=4.0, rng=derive_seed("mechanisms.cauchy")
    )
    samples = benchmark(lambda: noise.sample(size=10_000))
    assert samples.shape == (10_000,)
