"""Engine equivalence: the columnar engine must agree with the references.

The elimination engine is checked against two independent references: the
exact backtracking enumeration of :mod:`repro.engine.join` and, on
instances small enough for it, the nested-loop QA oracle
(:func:`repro.qa.oracle.oracle_count`).  Where elimination claims exactness
its counts, boundary-multiplicity profiles (and therefore residual
sensitivities) must equal the references; where it drops a predicate (a
bucket above the row cap) its group counts must upper-bound them and a
count is refused.  Because noise is drawn from the caller's generator after
those deterministic values are fixed, seeded releases must be *bitwise
identical* to those calibrated from exact enumeration.

This harness asserts all three levels on synthetic graph data, TPC-H-style
relational data with string columns, and randomly generated instances, over
a query zoo covering self-joins, inequality and comparison predicates,
constants, repeated variables, projections and disconnected residuals.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.datasets.snap_surrogates import DEFAULT_SCALE, surrogate_database
from repro.datasets.tpch import generate_tpch
from repro.engine import columnar
from repro.engine.aggregates import MultiplicityResult, boundary_multiplicity
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.evaluation import count_query, evaluate_query
from repro.engine.join import count_assignments, group_counts
from repro.exceptions import EvaluationError
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.graphs.patterns import rectangle_query
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.qa.oracle import oracle_count, oracle_group_counts
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.predicates import GenericPredicate
from repro.sensitivity.residual import ResidualSensitivity
from repro.service.cache import LRUCache
from repro.service.service import PrivateQueryService

GRAPH_QUERIES = [
    "Edge(x, y)",
    "Edge(x, y), Edge(y, z)",
    "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
    "Edge(x, y), Edge(y, z), Edge(z, w)",
    "Edge(c, l1), Edge(c, l2), Edge(c, l3), l1 != l2, l1 != l3, l2 != l3",
    "Q(x) :- Edge(x, y), Edge(y, z)",
    "Edge(x, y), Edge(y, z), x < z",
]

TPCH_QUERIES = [
    "Customer(c, n, s), Orders(o, c, p), Lineitem(o, part, qty)",
    'Customer(c, n, "SEG1"), Orders(o, c, p)',
    "Q(c) :- Customer(c, n, s), Orders(o, c, p), Lineitem(o, part, qty), qty >= 25",
    "Orders(o, c, p), Lineitem(o, part, qty), qty < 10",
]


@pytest.fixture(scope="module")
def graph_db() -> Database:
    return database_from_networkx(collaboration_graph(70, 5.0, seed=11))


@pytest.fixture(scope="module")
def tpch_db() -> Database:
    return generate_tpch(num_customers=40, seed=5)


def _databases(graph_db, tpch_db):
    return {"graph": graph_db, "tpch": tpch_db}


def _enumerated_count(query, db) -> int:
    return count_assignments(
        query, db, distinct_on=None if query.is_full else query.output_variables
    )


def _assert_count_matches_enumeration(query, db) -> int:
    """The engine's count equals exact enumeration."""
    expected = _enumerated_count(query, db)
    assert count_query(query, db) == expected
    return expected


def _enumerated_rs(query, db, beta, enumerated_multiplicity):
    """``RS(I)`` from multiplicities counted by exact enumeration."""
    engine = ResidualSensitivity(query, beta=beta)
    multiplicities = {
        kept: MultiplicityResult(
            enumerated_multiplicity(query, db, kept), None, (), "enumerate", True
        )
        for kept in engine.required_subsets(db)
    }
    return engine.compute(db, multiplicities)


# --------------------------------------------------------------------- #
# Level 1: counts
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("text", GRAPH_QUERIES)
def test_graph_counts_identical(graph_db, text):
    _assert_count_matches_enumeration(parse_query(text), graph_db)


@pytest.mark.parametrize("text", TPCH_QUERIES)
def test_tpch_counts_identical(tpch_db, text):
    _assert_count_matches_enumeration(parse_query(text), tpch_db)


def test_random_instances_counts_identical():
    rng = np.random.default_rng(42)
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2})
    queries = [
        parse_query("R(x, y), S(y, z), T(z, w)"),
        parse_query("R(x, y), S(y, z), T(z, x)"),
        parse_query("R(x, y), R(y, z), x != z"),
        parse_query("Q(x, w) :- R(x, y), S(y, z), T(z, w)"),
    ]
    for trial in range(5):
        domain = int(rng.integers(3, 12))
        db = Database.from_rows(
            schema,
            **{
                name: [
                    (int(a), int(b))
                    for a, b in rng.integers(0, domain, size=(int(rng.integers(0, 40)), 2))
                ]
                for name in ("R", "S", "T")
            },
        )
        for query in queries:
            counted = _assert_count_matches_enumeration(query, db)
            assert counted == oracle_count(query, db), (trial, query.name)


# --------------------------------------------------------------------- #
# Level 2: group counts and sensitivity profiles
# --------------------------------------------------------------------- #
def test_group_counts_identical_including_bookkeeping(graph_db, monkeypatch):
    groups = [(), ("y",), ("x", "z"), ("z", "y")]

    def eliminate_each(query):
        for group in groups:
            group_vars = tuple(
                v for name in group for v in query.variables if v.name == name
            )
            result = eliminate_group_counts_columnar(query, graph_db, group_vars)
            internal = {v for v in query.variables if v not in group_vars}
            assert result.group_variables == group_vars
            assert set(result.elimination_order) == internal
            assert result.is_exact == (not result.dropped_predicates)
            yield result, group_counts(query, graph_db, group_vars)

    # x != z and x < z span both atoms; the expansion of x != z and the
    # predicate-aware plan apply them for every grouping, including those
    # that sum x or z out.
    inequality = parse_query("Edge(x, y), Edge(y, z), x != z")
    comparison = parse_query("Edge(x, y), Edge(y, z), x < z")
    for query in (inequality, comparison):
        for result, reference in eliminate_each(query):
            assert result.is_exact
            assert result.counts == reference
    # Above the row cap x != z stays exact: its expansion's terms carry no
    # predicate that spans buckets.
    monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
    for result, reference in eliminate_each(inequality):
        assert result.is_exact
        assert result.counts == reference
    # x < z is not expanded: the predicate-blind plan drops it wherever x
    # or z is summed out before the other joins in.
    exactness = []
    for result, reference in eliminate_each(comparison):
        assert set(result.dropped_predicates) <= set(comparison.predicates)
        if result.is_exact:
            assert result.counts == reference
        else:
            assert all(result.counts.get(k, 0) >= v for k, v in reference.items())
        exactness.append(result.is_exact)
    assert True in exactness and False in exactness


@pytest.mark.parametrize(
    "text",
    [
        "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
        "Edge(x, y), Edge(y, z), Edge(z, w)",
        "Q(x) :- Edge(x, y), Edge(y, z)",
    ],
)
def test_boundary_multiplicity_profiles_identical(graph_db, text, enumerated_multiplicity):
    query = parse_query(text)
    engine = ResidualSensitivity(query, beta=0.1)
    for kept in engine.required_subsets(graph_db):
        got = boundary_multiplicity(query, graph_db, kept)
        assert got.exact, kept
        assert got.value == enumerated_multiplicity(query, graph_db, kept), kept


@pytest.mark.parametrize("db_name", ["graph", "tpch"])
def test_residual_sensitivity_identical(graph_db, tpch_db, db_name, enumerated_multiplicity):
    db = _databases(graph_db, tpch_db)[db_name]
    text = (
        "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z"
        if db_name == "graph"
        else "Customer(c, n, s), Orders(o, c, p), Lineitem(o, part, qty)"
    )
    query = parse_query(text)
    engine = ResidualSensitivity(query, beta=0.2).compute(db)
    reference = _enumerated_rs(query, db, 0.2, enumerated_multiplicity)
    assert engine.value == reference.value
    assert engine.details["multiplicities"] == reference.details["multiplicities"]
    assert engine.details["k_star"] == reference.details["k_star"]
    assert engine.details["exact_multiplicities"] is True
    assert reference.details["exact_multiplicities"] is True


def _triangle_with(predicate) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        [Atom("R", ["x", "y"]), Atom("S", ["y", "z"]), Atom("T", ["x", "z"])],
        predicates=[predicate],
    )


def _spy_on_matmul(monkeypatch) -> list:
    calls = []
    matmul = columnar._matmul_aggregate

    def spy(*args):
        calls.append(args)
        return matmul(*args)

    monkeypatch.setattr(columnar, "_matmul_aggregate", spy)
    return calls


def test_matmul_fast_path_parity(monkeypatch):
    """Heavy buckets take the sparse-matmul path and stay exact.

    The matmul fast path cannot honour predicates involving the summed-out
    variables, so a bucket with one joins instead.  Above the row cap the
    predicate-blind plan takes the fast path and drops the predicate,
    making the counts upper bounds, and the counting API then refuses.  The
    threshold is monkeypatched down so a small instance exercises the path.
    """
    monkeypatch.setattr(columnar, "MATMUL_THRESHOLD", 4)
    calls = _spy_on_matmul(monkeypatch)

    schema = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2})
    rng = np.random.default_rng(0)
    rows = lambda: [  # noqa: E731 - tiny test helper
        (int(a), int(b)) for a, b in rng.integers(0, 6, size=(25, 2))
    ]
    db = Database.from_rows(schema, R=rows(), S=rows(), T=rows())

    parity = GenericPredicate(lambda x, y, z: (x + y + z) % 2 == 0, ["x", "y", "z"])
    query = _triangle_with(parity)
    expected = oracle_count(query, db)
    result = eliminate_group_counts_columnar(query, db, ())
    assert result.is_exact
    assert result.counts == {(): expected}

    # A two-atom path summing y out is a matmul-shaped bucket, but the
    # predicate names y: the bucket joins and the counts stay exact.
    path = ConjunctiveQuery(query.atoms[:2], predicates=[parity])
    x, z = (v for v in path.variables if v.name in ("x", "z"))
    result = eliminate_group_counts_columnar(path, db, (x, z))
    assert result.is_exact
    assert result.counts == oracle_group_counts(path, db, (x, z))
    assert not calls

    # Without the predicate the fast path engages, and its product is exact.
    plain = ConjunctiveQuery(query.atoms)
    assert eliminate_group_counts_columnar(plain, db, ()).counts[()] == oracle_count(plain, db)
    assert calls

    # Above the row cap the fast path drops the predicate; the full
    # counting API refuses instead of releasing an upper bound.
    monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
    capped = eliminate_group_counts_columnar(query, db, ())
    assert capped.dropped_predicates == (parity,)
    assert capped.counts[()] >= expected
    with pytest.raises(EvaluationError, match="row cap"):
        count_query(query, db)


def test_matmul_keeps_the_graph_benchmark_residual_exact(monkeypatch):
    """On the AstroPh surrogate at its default scale, the rectangle's
    3-path residual ``{0, 1, 2}`` has a bucket above MATMUL_THRESHOLD.  The
    sparse product keeps the predicate-aware plan under the row cap, so the
    value is exact; joined instead, the plan passes the cap, drops
    ``x2 != x4`` and reads an upper bound."""
    calls = _spy_on_matmul(monkeypatch)
    db = surrogate_database("AstroPh", scale=DEFAULT_SCALE)
    query = rectangle_query()
    exact = boundary_multiplicity(query, db, [0, 1, 2])
    assert (exact.value, exact.exact, exact.dropped_predicates) == (1683, True, ())
    assert calls

    monkeypatch.setattr(columnar, "MATMUL_THRESHOLD", math.inf)
    calls.clear()
    bound = boundary_multiplicity(query, db, [0, 1, 2])
    assert not calls
    assert (bound.value, bound.exact) == (1851, False)
    assert [str(p) for p in bound.dropped_predicates] == ["x2 != x4"]


def test_matmul_no_matching_mids_parity(monkeypatch):
    """No join partners: the empty result is exact, and above the row cap
    the fast path leaves the predicate pending, to be reported dropped.
    Its upper bounds are then all 0, so the count is exactly 0."""
    monkeypatch.setattr(columnar, "MATMUL_THRESHOLD", 0)
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2})
    db = Database.from_rows(
        schema,
        R=[(0, 1), (0, 2)],
        S=[(7, 5), (8, 5)],  # no y joins R's y values
        T=[(0, 5)],
    )
    parity = GenericPredicate(lambda x, y, z: True, ["x", "y", "z"])
    query = _triangle_with(parity)
    result = eliminate_group_counts_columnar(query, db, ())
    assert result.is_exact
    assert result.counts == {}
    monkeypatch.setattr(columnar, "BUCKET_ROW_CAP", 0)
    capped = eliminate_group_counts_columnar(query, db, ())
    assert capped.counts == {}
    assert capped.dropped_predicates == (parity,)
    assert count_query(query, db) == oracle_count(query, db) == 0
    assert evaluate_query(query, db) == []
    # Through the count cache: the value is kept, the upper bounds are not.
    db.relation("T").add_rows([(1, 5)])
    db.relation("T").remove_rows([(1, 5)])  # the same rows, but T logs them
    cache = LRUCache(4)
    assert count_query(query, db, component_cache=cache) == 0
    (key,) = cache.keys()
    assert cache.get(key).counts is None


# --------------------------------------------------------------------- #
# Level 3: bitwise-identical releases under a fixed seed
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ["residual", "elastic", "global"])
def test_seeded_releases_bitwise_identical(graph_db, method, enumerated_multiplicity):
    """A seeded release equals the one calibrated from exact enumeration."""
    query = parse_query("Edge(x, y), Edge(y, z)")

    def mechanism():
        return PrivateCountingQuery(query, epsilon=0.8, method=method, rng=1234)

    engine = mechanism().release(graph_db, keep_true_count=True)
    true_count = _enumerated_count(query, graph_db)
    sensitivity = None
    if method == "residual":
        sensitivity = _enumerated_rs(
            query, graph_db, mechanism().beta, enumerated_multiplicity
        )
    reference = mechanism().release(
        graph_db, keep_true_count=True, true_count=true_count, sensitivity=sensitivity
    )
    assert engine.noisy_count == reference.noisy_count
    assert engine.sensitivity == reference.sensitivity
    assert engine.expected_error == reference.expected_error
    assert engine.true_count == true_count


def test_service_release_sequences_bitwise_identical(graph_db, enumerated_multiplicity):
    """A seeded service serves the sequence of releases calibrated from
    exact enumeration that draw from one generator seeded alike."""
    queries = [
        "Edge(x, y)",
        "Edge(x, y), Edge(y, z)",
        "Edge(a, b), Edge(b, c)",  # same shape as above: cache/dedup path
        "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
    ]
    service = PrivateQueryService(session_budget=10.0, rng=7)
    service.register_database("g", graph_db)
    session = service.create_session().session_id
    responses = [service.count("g", text, epsilon=0.25, session=session) for text in queries]
    service.close()
    rng = np.random.default_rng(7)
    for text, response in zip(queries, responses):
        query = parse_query(text)
        mechanism = PrivateCountingQuery(query, epsilon=0.25, rng=rng)
        reference = mechanism.release(
            graph_db,
            true_count=_enumerated_count(query, graph_db),
            sensitivity=_enumerated_rs(query, graph_db, mechanism.beta, enumerated_multiplicity),
        )
        assert response.noisy_count == reference.noisy_count
        assert response.sensitivity == reference.sensitivity


def test_service_stats_report_backend(graph_db):
    """The retired ``backend`` fields survive as the constant ``"numpy"``."""
    service = PrivateQueryService(session_budget=1.0, rng=0)
    service.register_database("g", graph_db)
    stats = service.stats()
    assert stats["backends"] == {"default": "numpy"}
    assert "backend" not in stats["databases"]["g"]
    session = service.create_session().session_id
    response = service.count("g", "Edge(x, y)", epsilon=0.1, session=session)
    assert response.backend == "numpy"
    assert response.to_dict()["backend"] == "numpy"
    service.close()
