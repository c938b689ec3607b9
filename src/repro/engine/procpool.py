"""Process-pool evaluation of lattice components.

The per-component orchestration of :func:`repro.engine.profile.evaluate_profile`
is pure Python, so the thread-pool ``parallelism=`` knob is GIL-bound exactly
where the profiler spends its time.  Components, however, are *pure functions
of relation snapshots*: a residual subset's boundary multiplicity depends only
on the query shape and the rows of the relations it reads.  That makes them
ideal shared-nothing units — this module ships them to worker **processes**.

A :class:`ComponentTask` is the picklable task spec: the parent query, the
kept-atom subset, the evaluation knobs, and a snapshot of the rows of every
relation the component reads (tagged with the source database's identity
token and per-relation epochs).  Workers rebuild each relation lazily —
including its :class:`~repro.engine.columnar.ColumnCodes` factorizations —
and keep the rebuilt relations in a small per-worker cache keyed by
``(database token, relation, epoch)``, so a warm worker re-evaluating
components of the same registered database skips both the rebuild and the
re-factorization.  The worker counts its factorization-cache events in a
worker-local scope and returns the snapshot together with the
:class:`~repro.engine.aggregates.MultiplicityResult`; the parent merges the
delta through :func:`repro.engine.columnar.merge_factorization_delta` so
``ProfileStats`` counters stay invariant across serial/thread/process runs
(observability spans are deliberately *not* propagated across the process
boundary — they are flattened into the parent's ``profile.evaluate`` span).

The pool itself is created lazily, once, with the ``spawn`` start method
(the serving layer is heavily threaded; forking a threaded parent can
deadlock on inherited locks) and reused across queries so worker warm-up —
interpreter start, imports, relation rebuilds — amortizes over a serving
session.  :func:`shutdown_process_pool` tears it down; the serving layer
calls it on service close and on ``SIGTERM`` drain.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema

__all__ = [
    "ComponentTask",
    "build_component_task",
    "default_process_workers",
    "evaluate_component_task",
    "get_process_pool",
    "shutdown_process_pool",
]


# --------------------------------------------------------------------- #
# Task specs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ComponentTask:
    """One picklable unit of lattice work: a component plus its data slice.

    ``relations`` carries ``(name, epoch, rows)`` snapshots of exactly the
    relations the component reads (components on the Section 5.2
    augmented-domain path ship the whole database — their value ranges over
    the full active domain).  Relations of the schema that are *not* listed
    are rebuilt empty on the worker, which is sound because the residual
    evaluation never touches them.  ``db_token`` identifies the source
    :class:`~repro.data.database.Database` instance so worker-side relation
    caches distinguish equal-epoch relations of different databases.
    """

    schema: DatabaseSchema
    db_token: int
    relations: tuple[tuple[str, int, tuple[tuple, ...]], ...]
    query: object  # ConjunctiveQuery (untyped to keep imports lazy/acyclic)
    kept: frozenset[int]
    strategy: str
    max_enumeration: int | None


def _snapshot_rows(relation: Relation) -> tuple[tuple, ...]:
    """A deterministic row snapshot (stable order ⇒ stable worker rebuilds)."""
    return tuple(sorted(relation.tuples(), key=repr))


def build_component_task(
    query,
    database: Database,
    kept: frozenset[int],
    *,
    relation_names=None,
    strategy: str,
    max_enumeration: int | None,
) -> ComponentTask:
    """Build the task spec for one component of ``query`` over ``database``.

    ``relation_names=None`` ships every relation of the schema (the
    augmented-domain case); otherwise only the named relations travel.
    """
    if relation_names is None:
        names = sorted(rel.name for rel in database.schema)
    else:
        names = sorted(set(relation_names))
    relations = tuple(
        (name, database.relation(name).epoch, _snapshot_rows(database.relation(name)))
        for name in names
    )
    return ComponentTask(
        schema=database.schema,
        db_token=database_token(database),
        relations=relations,
        query=query,
        kept=frozenset(kept),
        strategy=strategy,
        max_enumeration=max_enumeration,
    )


# --------------------------------------------------------------------- #
# Parent-side database identity tokens
# --------------------------------------------------------------------- #
_TOKEN_LOCK = threading.Lock()
_TOKENS: dict[int, int] = {}
_TOKEN_SEQ = itertools.count(1)


def database_token(database: Database) -> int:
    """A process-unique identity token for ``database``.

    :class:`~repro.data.database.Database` defines value equality but no
    hash, so tokens are keyed by object identity; a ``weakref.finalize``
    retires the entry when the instance is collected (before its ``id`` can
    be reused), keeping the registry bounded by the number of *live*
    databases.
    """
    key = id(database)
    with _TOKEN_LOCK:
        token = _TOKENS.get(key)
        if token is None:
            token = next(_TOKEN_SEQ)
            _TOKENS[key] = token
            weakref.finalize(database, _TOKENS.pop, key, None)
        return token


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
#: Rebuilt relations kept warm per worker, keyed ``(db_token, name, epoch)``.
#: The bound is generous (relations are shipped per component, so a lattice
#: over r relations needs at most r live entries per database) but hard, so
#: a long-lived serving worker cycling through many registrations cannot
#: grow without limit.
_WORKER_RELATION_LIMIT = 64
_WORKER_RELATIONS: "OrderedDict[tuple[int, str, int], Relation]" = OrderedDict()


def _worker_relation(
    token: int, name: str, epoch: int, schema: DatabaseSchema, rows
) -> Relation:
    key = (token, name, epoch)
    relation = _WORKER_RELATIONS.get(key)
    if relation is None:
        relation = Relation(schema.relation(name), rows)
        _WORKER_RELATIONS[key] = relation
        while len(_WORKER_RELATIONS) > _WORKER_RELATION_LIMIT:
            _, evicted = _WORKER_RELATIONS.popitem(last=False)
            evicted.release_caches()
    else:
        _WORKER_RELATIONS.move_to_end(key)
    return relation


def _worker_database(task: ComponentTask) -> Database:
    """Rebuild the component's database slice from cached warm relations.

    The :class:`Database` wrapper is fresh per task, but the
    :class:`Relation` instances inside it — and therefore their columnar
    snapshots and factorization caches — are shared across every task of
    the same ``(db_token, epoch)``, which is exactly the warm-worker
    amortization the pool exists for.  Sharing is safe because worker
    processes evaluate one task at a time and evaluation never mutates rows.
    """
    database = Database(task.schema)
    for name, epoch, rows in task.relations:
        database._relations[name] = _worker_relation(
            task.db_token, name, epoch, task.schema, rows
        )
    return database


def evaluate_component_task(task: ComponentTask):
    """Worker entry point: evaluate one component, return result + stats delta.

    Returns ``(MultiplicityResult, {"hits": int, "misses": int})`` where the
    dict is the worker-local factorization-cache delta of exactly this
    evaluation (counted through a scope, so concurrent warm state in the
    worker never pollutes it).
    """
    from repro.engine.aggregates import boundary_multiplicity
    from repro.engine.columnar import factorization_counter_scope

    database = _worker_database(task)
    with factorization_counter_scope() as counters:
        result = boundary_multiplicity(
            task.query,
            database,
            task.kept,
            strategy=task.strategy,
            max_enumeration=task.max_enumeration,
        )
    return result, counters.snapshot()


# --------------------------------------------------------------------- #
# The shared pool
# --------------------------------------------------------------------- #
_POOL_LOCK = threading.Lock()
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _worker_init() -> None:
    """Workers ignore ``SIGINT``: a terminal Ctrl-C is delivered to the whole
    foreground process group, and shutdown is the parent's job (via
    :func:`shutdown_process_pool`), not a traceback race in every child."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def default_process_workers() -> int:
    """Worker count when ``parallelism`` does not pin one: one per core,
    capped (component fan-out rarely exceeds a handful of representatives,
    and each worker holds warm relation rebuilds in memory)."""
    return max(2, min(os.cpu_count() or 2, 8))


def get_process_pool(workers: int | None = None) -> ProcessPoolExecutor:
    """The lazily-created shared worker pool (grown if ``workers`` exceeds it).

    The pool uses the ``spawn`` start method: the serving layer runs many
    threads, and ``fork`` would duplicate held locks into children.  It is
    created once and reused across queries — tear it down with
    :func:`shutdown_process_pool`.
    """
    global _POOL, _POOL_WORKERS
    wanted = workers if workers is not None and workers > 1 else default_process_workers()
    with _POOL_LOCK:
        if _POOL is not None and _POOL_WORKERS < wanted:
            _POOL.shutdown(wait=False, cancel_futures=True)
            _POOL = None
        if _POOL is None:
            _POOL = ProcessPoolExecutor(
                max_workers=wanted,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_init,
            )
            _POOL_WORKERS = wanted
        return _POOL


def shutdown_process_pool(*, wait: bool = True) -> None:
    """Shut the shared pool down (idempotent; the next use re-creates it).

    Wired into :meth:`repro.service.service.PrivateQueryService.close` and
    the CLI ``serve`` teardown/``SIGTERM`` drain so worker processes never
    outlive the service that warmed them.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)
