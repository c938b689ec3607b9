"""Shared fixtures for the test suite.

Besides the small data fixtures, this file centralises the serving-layer
test setup (``toy_db`` + the ``service_factory`` / ``state_service_factory``
factories adopted by ``test_service*.py``, ``test_persistence.py`` and
``test_stress.py``, and the ``running_server`` HTTP harness of
``test_service_api.py`` and ``test_obs.py``) and implements the test-tier selection: tests marked
``soak`` (registered in ``pyproject.toml``) are skipped unless the ``-m``
marker expression explicitly selects them — CI picks tiers by marker, not
by environment variable.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.data.database import Database
from repro.data.domain import IntegerDomain
from repro.data.schema import Attribute, DatabaseSchema, RelationSchema
from repro.graphs.loader import database_from_edges
from repro.query.parser import parse_query


def pytest_collection_modifyitems(config, items):
    """Keep tier-1 fast: ``soak`` tests only run when ``-m`` selects them."""
    markexpr = config.getoption("markexpr", default="") or ""
    if "soak" in markexpr:
        return
    skip_soak = pytest.mark.skip(
        reason="soak tier (subprocess kill -9 + journal recovery); "
        "select with -m soak"
    )
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip_soak)


@pytest.fixture
def two_table_schema() -> DatabaseSchema:
    """``R(a, b)`` and ``S(b, c)``, both private, unbounded integer domains."""
    return DatabaseSchema.from_arities({"R": 2, "S": 2})


@pytest.fixture
def small_join_db(two_table_schema: DatabaseSchema) -> Database:
    """A small instance for ``R(x, y) ⋈ S(y, z)`` with skewed join keys."""
    return Database.from_rows(
        two_table_schema,
        R=[(1, 10), (2, 10), (3, 10), (4, 20)],
        S=[(10, 100), (10, 200), (20, 100)],
    )


@pytest.fixture
def join_query():
    """The full CQ ``R(x, y) ⋈ S(y, z)``."""
    return parse_query("R(x, y), S(y, z)")


@pytest.fixture
def finite_domain_schema() -> DatabaseSchema:
    """Two binary relations over the tiny domain {0, 1, 2} (for brute-force tests)."""
    domain = IntegerDomain(0, 2)
    return DatabaseSchema(
        [
            RelationSchema("R", [Attribute("a", domain), Attribute("b", domain)]),
            RelationSchema("S", [Attribute("b", domain), Attribute("c", domain)]),
        ]
    )


@pytest.fixture
def toy_db() -> Database:
    """The serving-layer sample database: two private tables, skewed join key.

    ``R ⋈ S`` on the second/first attribute has a heavy key (2 → 5) so cache
    and sensitivity behaviour is non-trivial; the instance is shared by every
    serving-layer test file.
    """
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
    return Database.from_rows(
        schema,
        R=[(1, 2), (2, 3), (3, 4), (2, 2)],
        S=[(2, 5), (3, 5), (4, 6)],
    )


@pytest.fixture
def service_factory(toy_db):
    """Factory for :class:`PrivateQueryService` instances with ``toy_db`` registered.

    Keyword arguments are forwarded to the service constructor (defaults:
    ``session_budget=10.0``, ``rng=0``); pass ``register=False`` for a bare
    service or ``db=`` to register a different instance under ``"toy"``.
    Every created service is closed on teardown so journal handles never
    leak across tests.
    """
    from repro.service.service import PrivateQueryService

    created: list[PrivateQueryService] = []

    def make(*, register: bool = True, db: Database | None = None, **kwargs):
        kwargs.setdefault("session_budget", 10.0)
        kwargs.setdefault("rng", 0)
        service = PrivateQueryService(**kwargs)
        if register:
            replace = (
                "toy" in service.registry
                or "toy" in service.registry.recovered_metadata()
            )
            service.register_database(
                "toy", db if db is not None else toy_db, replace=replace
            )
        created.append(service)
        return service

    yield make
    for service in created:
        try:
            service.close(snapshot=False)
        except Exception:
            pass  # already closed by the test (e.g. a simulated crash)


@pytest.fixture
def state_service_factory(service_factory, tmp_path):
    """``service_factory`` pre-wired for durable state under ``tmp_path``.

    ``make(state_dir)`` builds a service journaling to that directory
    (default: ``tmp_path / "state"``), with the persistence-test defaults
    ``total_budget=100.0`` and registration that survives recovery cycles.
    """

    def make(state_dir=None, **kwargs):
        kwargs.setdefault("total_budget", 100.0)
        target = state_dir if state_dir is not None else tmp_path / "state"
        return service_factory(state_dir=str(target), **kwargs)

    return make


@pytest.fixture
def running_server():
    """``with running_server(service, **options) as server:`` serves
    ``make_server(service, "127.0.0.1", 0, **options)`` on a thread.

    ``serve_forever`` polls every 50 ms, the cluster workers' interval, so
    ``shutdown()`` on exit returns within 50 ms rather than the default
    0.5 s poll.
    """
    from repro.service.api import make_server

    @contextlib.contextmanager
    def run(service, **options):
        server = make_server(service, "127.0.0.1", 0, **options)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    return run


@pytest.fixture
def enumerated_multiplicity():
    """``T_F`` by exact backtracking enumeration (:mod:`repro.engine.join`),
    the per-subset reference for instances the nested-loop oracle is too
    slow for: the residual on ``kept`` with its inside predicates, grouped
    by its relational boundary (distinct outputs for non-full queries), then
    the largest group.  Crossing predicates are left out (Corollary 5.1),
    so residuals crossed by comparisons need the Section 5.2 oracle
    instead."""
    from repro.engine.join import group_counts
    from repro.query.residual import residual_query

    def compute(query, database, kept) -> int:
        residual = residual_query(query, kept)
        if residual.is_empty:
            return 1
        counts = group_counts(
            query,
            database,
            sorted(residual.boundary_relational, key=lambda v: v.name),
            atom_indices=sorted(residual.atom_indices),
            predicates=residual.predicates,
            distinct_on=None if query.is_full else residual.output_variables,
        )
        return max(counts.values(), default=0)

    return compute


@pytest.fixture
def k4_db() -> Database:
    """The complete graph K4 stored symmetrically in ``Edge``."""
    edges = [(a, b) for a in range(4) for b in range(4) if a != b]
    return database_from_edges(edges)


@pytest.fixture
def small_graph_db() -> Database:
    """A small asymmetric-degree undirected graph (stored symmetrically).

    Vertices 0..5; vertex 0 is a hub connected to everyone, plus a triangle
    1-2-3 and an edge 4-5.
    """
    undirected = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (1, 3), (4, 5)]
    return database_from_edges(undirected, symmetric=True)
