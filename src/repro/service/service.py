"""The :class:`PrivateQueryService` façade.

This is the multi-tenant entry point the paper's Section 8 deployment
setting calls for: databases are registered once, clients open sessions with
per-session ε budgets (optionally capped by a deployment-wide budget), and
repeated query shapes are served from caches instead of re-running the
residual-sensitivity machinery.  Residual sensitivity (Theorem 1.1) is the
only mechanism served; the Table 1 baselines stay in ``repro-dp count --method``.

Five caches cooperate (see :mod:`repro.service.cache`):

* **plan** — query text → (parsed query, canonical shape key); skips the
  parser and canonicalizer on repeated request strings;
* **profile** — ``(db, version, shape, epochs)`` → the residual-query
  boundary multiplicities ``T_F(I)``, which dominate the cost of residual
  sensitivity and are *β-independent*, so one profile serves every ε;
  profiles are produced by the shared-lattice evaluator
  (:func:`repro.engine.profile.evaluate_profile`), whose subplan-dedup and
  coded-column lookup counters the service accumulates into the
  ``profiler`` block of :meth:`PrivateQueryService.stats`;
* **sensitivity** and **count** — final sensitivity values and true counts
  per ``(db, version, shape, epochs[, β])``;
* **component** — cross-profile memo of representative lattice components
  and true counts; each entry records the epochs of exactly the relations
  it reads, and a stale one is caught up by a delta query when it can be
  (see :mod:`repro.engine.profile`).

The ``epochs`` element is the per-relation mutation-epoch vector of the
relations the query touches (:meth:`repro.data.database.Database.epochs`):
a delta mutation through :meth:`PrivateQueryService.mutate` advances only
the touched relations' epochs, so entries for untouched relations — and,
via the component cache, untouched lattice components of *affected*
queries — stay warm instead of being wholesale-invalidated by a version
bump.  See ``docs/mutation.md`` for the full invalidation table.

Caching never changes the released distribution: every cached value is a
deterministic function of the query shape and database version, and noise is
always drawn fresh from the service's generator.  With a fixed seed, a
cached service and an uncached one (``cache_capacity=0``) produce *bitwise
identical* release sequences.

With ``state_dir=`` the service becomes **restartable**: sessions, spent
budgets, the shared deployment budget, audit totals and registered-database
version metadata are write-ahead journaled (and periodically compacted into
snapshots) by :mod:`repro.service.persistence`, and a service constructed on
the same directory recovers them into its session manager and registry,
applying each journal record through the same ``absorb`` methods a cluster
worker uses for its siblings' records.  A charge is one step: the ledgers
are checked under the charge lock, the release is drawn under it, and one
``charge`` record is journaled before the response leaves — or, if drawing
the release fails, a ``deny`` that charges nothing.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Mapping

import numpy as np

from repro.data.database import Database
from repro.engine.canonical import canonical_query_key
from repro.engine.evaluation import count_query
from repro.exceptions import PrivacyError, ServiceError, UnknownResourceError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.obs.logs import RequestLogger
from repro.obs.metrics import DEFAULT_IO_BUCKETS, MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer, span as obs_span
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.sensitivity.base import DEFAULT_BETA_FRACTION, SensitivityResult
from repro.sensitivity.residual import ResidualSensitivity
from repro.service.cache import LRUCache
from repro.service.persistence import StateStore
from repro.service.registry import DatabaseRegistry, RegisteredDatabase
from repro.service.sessions import SessionManager

__all__ = ["PrivateQueryService", "CountResponse"]

#: What the ``backend`` field of ``/count`` and ``/stats`` reports, for
#: clients that still read it: the columnar engine is the only engine.
ENGINE_NAME = "numpy"


@dataclass(frozen=True)
class CountResponse:
    """The serving-layer view of one private release."""

    database: str
    version: int
    query_key: str | None
    noisy_count: float
    epsilon: float
    sensitivity: float
    expected_error: float
    session: str | None
    plan_cache_hit: bool
    sensitivity_cache_hit: bool
    count_cache_hit: bool
    deduplicated: bool = False
    remaining_budget: float | None = None
    trace_id: str | None = None
    timings: Mapping[str, float] | None = None
    #: Always :data:`ENGINE_NAME`; kept for clients that read ``backend``.
    backend: ClassVar[str] = ENGINE_NAME

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view of every field, not only publishable ones.

        ``sensitivity`` and ``expected_error`` are functions of the private
        instance (residual sensitivity is), and so are the cache-hit flags.
        They are returned next to ``noisy_count``, ``epsilon`` and
        ``remaining_budget`` until the response is split into an analyst
        view and an operator view.
        """
        payload = {
            "database": self.database,
            "version": self.version,
            "query_key": self.query_key,
            "noisy_count": self.noisy_count,
            "epsilon": self.epsilon,
            "backend": self.backend,
            "sensitivity": self.sensitivity,
            "expected_error": self.expected_error,
            "session": self.session,
            "cache": {
                "plan_hit": self.plan_cache_hit,
                "sensitivity_hit": self.sensitivity_cache_hit,
                "count_hit": self.count_cache_hit,
            },
            "deduplicated": self.deduplicated,
            "remaining_budget": self.remaining_budget,
        }
        # The opt-in trace block (``timings: true`` on the request).
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.timings is not None:
            payload["timings"] = dict(self.timings)
        return payload


class PrivateQueryService:
    """Serve DP counting queries over registered databases.

    Parameters
    ----------
    session_budget:
        Default per-session ε budget.
    total_budget:
        Optional deployment-wide ε budget shared by all sessions (and by
        sessionless requests).  ``None`` leaves only per-session limits.
    cache_capacity:
        Capacity of each per-shape cache (plan / profile / sensitivity /
        count); the component cache holds ``cache_capacity * 4`` entries,
        since one profile can hold many components.  ``0`` disables caching
        entirely — useful for benchmarking and for validating that caching
        does not change results.
    session_ttl:
        Idle session lifetime in seconds (``None``: never expire).
    rng:
        numpy Generator or seed for all noise drawn by this service.  One
        generator serves every request (every draw runs under the charge
        lock), so a seeded service produces a reproducible release
        sequence.  Each request runs entirely on the thread that received
        it; concurrency comes from serving several requests at once
        (``repro-dp serve``'s request threads and its prefork ``--workers``
        cluster).
    state_dir:
        Optional directory for durable state (see
        :mod:`repro.service.persistence`).  Sessions, budgets and audit
        totals found there are recovered before the service starts serving;
        every subsequent state transition is write-ahead journaled.
    snapshot_interval:
        Journal records between automatic compacted snapshots (``0``
        disables automatic compaction).  Only meaningful with ``state_dir``.
    request_logger:
        Optional :class:`~repro.obs.logs.RequestLogger` emitting one
        schema-pinned JSON line per request (``repro-dp serve --log-json``);
        its ``slow_ms`` threshold drives slow-request marking.
    shared_state:
        Open the state store in shared (multi-process) mode so sibling
        cluster workers can co-write the journal (requires ``state_dir``;
        see :mod:`repro.service.cluster`).  Records journaled by siblings
        are absorbed into the local ledgers on every charge.
    noise_mode:
        ``"stream"`` (the default): all noise comes from the single service
        generator, giving one reproducible stream per process.
        ``"charge-seq"``: each release draws from a fresh generator seeded
        by ``(seed, ordinal)``, where ``ordinal`` is the charge's global
        ordinal in the journal — so a seeded *cluster* produces
        bitwise-identical releases no matter which worker serves which
        request.  Requires an integer ``rng`` seed.
    worker_label:
        Optional worker name stamped as a constant ``worker=...`` label on
        every metric series (cluster workers only; a plain service renders
        unlabeled series).

    Examples
    --------
    >>> from repro.data import Database, DatabaseSchema
    >>> schema = DatabaseSchema.from_arities({"R": 2})
    >>> db = Database.from_rows(schema, R=[(1, 2), (2, 3)])
    >>> service = PrivateQueryService(session_budget=2.0, rng=0)
    >>> _ = service.register_database("toy", db)
    >>> sid = service.create_session().session_id
    >>> response = service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
    >>> response.epsilon
    0.5
    """

    def __init__(
        self,
        *,
        session_budget: float = 1.0,
        total_budget: float | None = None,
        cache_capacity: int = 256,
        session_ttl: float | None = None,
        rng: np.random.Generator | int | None = None,
        state_dir: str | None = None,
        snapshot_interval: int = 1000,
        request_logger: RequestLogger | None = None,
        shared_state: bool = False,
        noise_mode: str = "stream",
        worker_label: str | None = None,
    ):
        if noise_mode not in ("stream", "charge-seq"):
            raise ServiceError(f"unknown noise_mode {noise_mode!r}")
        if noise_mode == "charge-seq" and not isinstance(rng, int):
            raise ServiceError(
                "noise_mode='charge-seq' requires an integer seed (rng=<int>) "
                "so every worker derives the same per-charge streams"
            )
        if shared_state and state_dir is None:
            raise ServiceError("shared_state=True requires state_dir")
        self._noise_mode = noise_mode
        self._noise_seed = int(rng) if isinstance(rng, int) else None
        self._worker_label = worker_label
        self._store = (
            StateStore(
                state_dir, snapshot_interval=snapshot_interval, shared=shared_state
            )
            if state_dir is not None
            else None
        )
        shared = PrivacyAccountant(total_budget) if total_budget is not None else None
        self._registry = DatabaseRegistry(journal=self._store)
        self._sessions = SessionManager(
            session_budget, ttl=session_ttl, shared=shared, journal=self._store
        )
        self._recovered_seq = (
            self._store.recover(self._sessions, self._registry)
            if self._store is not None
            else 0
        )
        self._plan_cache = LRUCache(cache_capacity)
        self._profile_cache = LRUCache(cache_capacity)
        self._sensitivity_cache = LRUCache(cache_capacity)
        self._count_cache = LRUCache(cache_capacity)
        # Cross-profile memo of components and true counts (each entry records
        # its epochs; see repro.engine.profile).  Sized above the per-shape
        # caches because one profile can hold many components.
        self._component_cache = LRUCache(cache_capacity * 4)
        # numpy Generators are not thread-safe; every draw from this one runs
        # under the charge lock (see SessionManager.begin_charge).
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._requests_served = 0
        # Cumulative ε charged by this service's releases; the
        # repro_epsilon_charged_total counter reads it at scrape time.
        self._epsilon_charged_total = 0.0
        self._stats_lock = threading.Lock()
        # Delta-mutation counters (batches applied through this service and
        # effective row edits), read at scrape time and by /stats.
        self._mutations_applied = 0
        self._rows_inserted = 0
        self._rows_deleted = 0
        # Cumulative shared-lattice profiler counters (see repro.engine.profile);
        # updated under _stats_lock whenever a profile is actually computed
        # (profile-cache hits add nothing — no evaluation ran).
        self._profiler_totals = {
            "profiles_computed": 0,
            "subsets_total": 0,
            "components_total": 0,
            "components_evaluated": 0,
            "component_hits": 0,
            "component_cache_hits": 0,
            "component_delta_updates": 0,
            "factorization_hits": 0,
            "factorization_misses": 0,
        }
        # -- observability ------------------------------------------------ #
        # Every request is instrumented: its latency lands in the registry,
        # and ``timings=True`` runs it under a root span of this tracer.
        self._tracer = Tracer()
        #: The service's metrics registry, rendered in Prometheus text
        #: format by ``GET /metrics``.
        self.metrics = MetricsRegistry(
            const_labels={"worker": worker_label} if worker_label else None
        )
        self._request_logger = request_logger
        self._slow_requests = 0
        self._requests_errored = 0
        self._init_metrics()
        if self._store is not None:
            self._store.bind_metrics(self.metrics)

    def _init_metrics(self) -> None:
        """Declare every instrument and pre-resolve the hot series handles.

        Two techniques keep the warm serving path nearly free of
        instrumentation cost:

        * **pre-resolved handles** — label sets resolve once, here, so the
          per-request work is at most one latency ``observe``;
        * **scrape-time counters** — totals the service maintains anyway
          (cache hit/miss counters, requests served, ε charged, the profiler
          totals ``/stats`` reports) back counter series via callbacks
          instead of per-request ``inc`` calls; the scrape pays for the
          read, the request pays nothing, and each event is counted once.

        Metric names, labels and bucket choices are catalogued in
        ``docs/observability.md``.
        """
        m = self.metrics
        requests = m.counter(
            "repro_requests_total", "Requests served, by endpoint and outcome.",
            ("endpoint", "status"),
        )
        latency = m.histogram(
            "repro_request_seconds", "End-to-end request latency in seconds.",
            ("endpoint",),
        )
        cache = m.counter(
            "repro_cache_requests_total", "Cache lookups, by cache and outcome.",
            ("cache", "outcome"),
        )
        # (count, ok) is scrape-time: _count_core already counts successful
        # releases under _stats_lock.  The cold combinations (errors, batch
        # wrappers) stay inc-based.
        requests.set_callback(
            lambda: float(self._requests_served), endpoint="count", status="ok"
        )
        self._m_requests = {
            (endpoint, status): requests.labels(endpoint=endpoint, status=status)
            for endpoint in ("count", "batch")
            for status in ("ok", "error")
        }
        self._m_latency = {
            endpoint: latency.bind(endpoint=endpoint) for endpoint in ("count", "batch")
        }
        # Cache traffic is read straight off each LRU's own hit/miss
        # counters at scrape time — no per-request increments.
        for name, lru in (
            ("plan", self._plan_cache),
            ("profile", self._profile_cache),
            ("sensitivity", self._sensitivity_cache),
            ("count", self._count_cache),
            ("component", self._component_cache),
        ):
            cache.set_callback(
                lambda c=lru: float(c.stats().hits), cache=name, outcome="hit"
            )
            cache.set_callback(
                lambda c=lru: float(c.stats().misses), cache=name, outcome="miss"
            )
        m.counter(
            "repro_epsilon_charged_total", "Total privacy budget charged (epsilon)."
        ).set_callback(lambda: self._epsilon_charged_total)
        self._m_denials = m.counter(
            "repro_budget_denials_total",
            "Requests refused because a budget could not afford them.",
            ("endpoint",),
        )
        self._m_slow = m.counter(
            "repro_slow_requests_total",
            "Requests slower than the configured slow-query threshold.",
            ("endpoint",),
        )
        self._m_charge = m.histogram(
            "repro_budget_charge_seconds",
            "Time to check and journal one budget charge (includes ledger lock wait).",
            buckets=DEFAULT_IO_BUCKETS,
        ).bind()
        batch_items = m.counter(
            "repro_batch_items_total", "Batch items answered, by outcome.", ("outcome",)
        )
        self._m_batch_items = {
            outcome: batch_items.labels(outcome=outcome)
            for outcome in ("ok", "deduplicated", "error")
        }
        # Profiler series read the totals /stats reports (see _build_profile).
        totals = self._profiler_totals
        m.counter(
            "repro_profiler_profiles_total",
            "Shared-lattice profiles computed (profile-cache misses).",
        ).set_callback(lambda: float(totals["profiles_computed"]))
        components = m.counter(
            "repro_profiler_components_total",
            "Residual-query components seen by the profiler, by outcome.",
            ("outcome",),
        )
        for outcome, total in (
            ("evaluated", "components_evaluated"),
            ("deduplicated", "component_hits"),
            ("cached", "component_cache_hits"),
            ("delta", "component_delta_updates"),
        ):
            components.set_callback(lambda t=total: float(totals[t]), outcome=outcome)
        m.counter(
            "repro_mutations_total",
            "Delta-mutation batches applied to registered databases.",
        ).set_callback(lambda: float(self._mutations_applied))
        mutated_rows = m.counter(
            "repro_mutated_rows_total",
            "Effective row edits applied by delta mutations, by operation.",
            ("op",),
        )
        mutated_rows.set_callback(lambda: float(self._rows_inserted), op="insert")
        mutated_rows.set_callback(lambda: float(self._rows_deleted), op="delete")
        factorization = m.counter(
            "repro_profiler_factorization_total",
            "Coded-column lookups (one per relation read) during profiling, by outcome.",
            ("outcome",),
        )
        for outcome, total in (("hit", "factorization_hits"), ("miss", "factorization_misses")):
            factorization.set_callback(lambda t=total: float(totals[t]), outcome=outcome)
        # Callback gauges: read live (possibly crash-recovered) state at
        # scrape time instead of hooking every write path.
        m.gauge("repro_sessions_active", "Sessions currently open.").set_function(
            lambda: float(len(self._sessions.active_ids()))
        )
        m.gauge(
            "repro_audit_records_total", "Charge attempts recorded by the audit log."
        ).set_function(lambda: float(self._sessions.audit.total_recorded))
        shared = self._sessions.shared
        if shared is not None:
            m.gauge(
                "repro_shared_budget_remaining_epsilon",
                "Remaining deployment-wide epsilon budget.",
            ).set_function(lambda: float(shared.remaining))
            m.gauge(
                "repro_shared_budget_spent_epsilon",
                "Epsilon consumed from the deployment-wide budget.",
            ).set_function(lambda: float(shared.spent))
        if self._store is not None:
            m.gauge(
                "repro_recovered_journal_seq",
                "Journal seq recovered at startup (0: fresh start).",
            ).set_function(lambda: float(self._recovered_seq))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> StateStore | None:
        """The durable state store (``None`` without ``state_dir``)."""
        return self._store

    def close(self, *, snapshot: bool = True) -> None:
        """Flush durable state and close the state store.

        With ``snapshot=True`` (the default) a final compacted snapshot is
        written first, so the next recovery replays an empty journal.
        """
        if self._store is None:
            return
        if snapshot:
            self._store.compact()
        self._store.close()

    # ------------------------------------------------------------------ #
    # Registry / sessions passthrough
    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> DatabaseRegistry:
        """The database registry."""
        return self._registry

    @property
    def sessions(self) -> SessionManager:
        """The session manager (budgets, expiry, audit log)."""
        return self._sessions

    def register_database(
        self,
        name: str,
        database: Database,
        *,
        replace: bool = False,
    ) -> RegisteredDatabase:
        """Register (or with ``replace=True`` update) a named database."""
        return self._registry.register(name, database, replace=replace)

    def mutate(self, name: str, operations: list[dict[str, Any]]) -> dict[str, Any]:
        """Apply a batch of tuple-level delta operations to a registered database.

        The delta path of the streaming scenario: the batch (see
        :meth:`repro.service.registry.DatabaseRegistry.mutate` for the
        operation shapes) is validated atomically, applied through the
        relations' in-place bulk mutators, and journaled so sibling cluster
        workers replay it on their own copy.  The registration *version* is
        unchanged — only the touched relations' epochs advance, so cached
        plans survive untouched, epoch-keyed entries (counts, profiles,
        sensitivities) are invalidated exactly where the data changed, and
        the lattice components and true counts that read a changed relation
        are caught up from its change log where they can be.  Returns a
        JSON-serialisable summary with the effective ``inserted``/``deleted``
        counts and the new epoch vector.
        """
        summary = self._registry.mutate(name, operations)
        with self._stats_lock:
            self._mutations_applied += 1
            self._rows_inserted += int(summary.get("inserted", 0))
            self._rows_deleted += int(summary.get("deleted", 0))
        return summary

    def create_session(self, *, budget: float | None = None, session_id: str | None = None):
        """Open a session with its own ε ledger; returns the session."""
        return self._sessions.create(budget=budget, session_id=session_id)

    def budget(self, session_id: str) -> dict[str, Any]:
        """The budget view of a session (plus the shared budget, if any).

        In shared-state mode the view first absorbs sibling journal records:
        a session created through one worker is visible from every worker,
        and the reported spend is the cluster-wide ledger.
        """
        self._sync_shared()
        return self._sessions.describe(session_id)

    def _sync_shared(self) -> None:
        """Absorb sibling journal records (no-op outside shared mode)."""
        if self._store is not None and self._store.shared:
            with self._store.exclusive():
                pass  # entering the lock syncs the mirrored ledgers

    # ------------------------------------------------------------------ #
    # Planning and cached computation
    # ------------------------------------------------------------------ #
    def plan(self, query: ConjunctiveQuery | str) -> tuple[ConjunctiveQuery, str | None, bool]:
        """``(parsed query, canonical shape key, plan-cache hit)``.

        String queries are memoized on their raw text; query objects are
        canonicalized directly (no text key to cache under).
        """
        if isinstance(query, ConjunctiveQuery):
            return query, canonical_query_key(query), False
        entry, hit = self._plan_cache.get_or_compute(
            ("plan", query), lambda: self._build_plan(query)
        )
        return entry[0], entry[1], hit

    @staticmethod
    def _build_plan(text: str) -> tuple[ConjunctiveQuery, str | None]:
        parsed = parse_query(text)
        return parsed, canonical_query_key(parsed)

    @staticmethod
    def _epoch_key(reg: RegisteredDatabase, query: ConjunctiveQuery) -> tuple:
        """The epoch vector of the relations ``query`` reads on ``reg``.

        Embedded in the count/profile/sensitivity cache keys so a delta
        mutation (which advances only the touched relations' epochs)
        invalidates exactly the entries whose data changed.  Queries with
        non-inequality comparison predicates may range over the *whole*
        database's augmented active domain (Section 5.2) once a residual
        drops such a predicate, so they key on the full epoch vector.
        """
        database = reg.database
        if any(not p.is_inequality for p in query.predicates):
            return tuple(sorted(database.epochs().items()))
        names = {atom.relation for atom in query.atoms}
        return tuple(sorted((n, database.relation(n).epoch) for n in names))

    def _true_count(
        self, reg: RegisteredDatabase, query: ConjunctiveQuery, key: str | None
    ) -> tuple[int, bool]:
        """The (possibly cached) true count; a count-cache miss after a delta
        catches the count up from the component cache when it can."""
        if key is None:
            return count_query(query, reg.database), False
        return self._count_cache.get_or_compute(
            (reg.name, reg.version, key, self._epoch_key(reg, query)),
            lambda: count_query(
                query,
                reg.database,
                component_cache=self._component_cache,
                cache_scope=(reg.name, reg.version, key),
            ),
        )

    def _sensitivity(
        self,
        reg: RegisteredDatabase,
        query: ConjunctiveQuery,
        key: str | None,
        beta: float,
    ) -> tuple[SensitivityResult, bool]:
        """The (possibly cached) residual sensitivity the noise is calibrated to.

        The β-independent boundary-multiplicity profile is cached
        separately, so a new ε on a known shape only pays the (cheap)
        smoothing recombination, not the residual-query evaluation.  Both
        caches additionally key on the epochs of the relations the query
        reads, and a profile-cache miss after a delta mutation still
        recovers the untouched components from the component cache and
        catches the touched ones up by delta.
        """

        def compute() -> SensitivityResult:
            engine = ResidualSensitivity(query, beta=beta)
            if key is None:
                return engine.compute(reg.database)
            profile, _ = self._profile_cache.get_or_compute(
                (reg.name, reg.version, key, self._epoch_key(reg, query)),
                lambda: self._build_profile(
                    engine, reg.database, (reg.name, reg.version, key)
                ),
            )
            return engine.compute(reg.database, multiplicities=profile)

        if key is None:
            return compute(), False
        return self._sensitivity_cache.get_or_compute(
            (reg.name, reg.version, key, self._epoch_key(reg, query), beta),
            compute,
        )

    def _build_profile(
        self,
        engine: ResidualSensitivity,
        database: Database,
        scope: tuple = (),
    ):
        """Run the shared-lattice evaluator and accumulate its counters.

        ``scope`` namespaces this query's entries in the shared component
        cache; the evaluator adds the per-component epoch vectors itself.
        """
        profile = engine.profile(
            database, component_cache=self._component_cache, cache_scope=scope
        )
        stats = profile.stats
        with self._stats_lock:
            totals = self._profiler_totals
            totals["profiles_computed"] += 1
            totals["subsets_total"] += stats.subsets_total
            totals["components_total"] += stats.components_total
            totals["components_evaluated"] += stats.components_evaluated
            totals["component_hits"] += stats.component_hits
            totals["component_cache_hits"] += stats.component_cache_hits
            totals["component_delta_updates"] += stats.component_delta_updates
            totals["factorization_hits"] += stats.factorization_hits
            totals["factorization_misses"] += stats.factorization_misses
        return profile.results

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def count(
        self,
        database: str,
        query: ConjunctiveQuery | str,
        epsilon: float,
        *,
        session: str | None = None,
        timings: bool = False,
    ) -> CountResponse:
        """One ε-DP release of the query's count on a registered database.

        Charges ``epsilon`` against the session's ledger (and the shared
        budget, if configured) before any noise is drawn; raises
        :class:`~repro.exceptions.PrivacyError` when either budget cannot
        afford it, and :class:`ServiceError` for unknown databases/sessions.
        The release is drawn under the charge lock and the charge journaled
        only once it exists: if drawing it fails, a ``deny`` is journaled
        and no ε is consumed.

        Every request is recorded in :attr:`metrics` (and, with a request
        logger, in the structured log).  With ``timings=True`` the request
        runs under a root span and the response carries ``trace_id`` plus a
        ``timings`` breakdown over the serving stages (plan / sensitivity /
        true_count / charge / release + ``other``) whose values sum exactly
        to ``total``.
        """
        start = time.perf_counter()
        root = (
            self._tracer.trace("request.count", database=database)
            if timings
            else NULL_SPAN
        )
        trace_id = root.trace_id if timings else None
        try:
            with root:
                response = self._count_core(database, query, epsilon, session=session)
        except Exception as exc:
            self._record_request(
                "count",
                time.perf_counter() - start,
                exc,
                trace_id=trace_id,
                session=session,
                database=database,
            )
            raise
        duration = time.perf_counter() - start
        if timings:
            response = replace(response, trace_id=trace_id, timings=root.stage_timings())
        self._record_request(
            "count",
            duration,
            trace_id=trace_id,
            session=session,
            database=database,
            query_key=response.query_key,
            epsilon=response.epsilon,
            cache={
                "plan": response.plan_cache_hit,
                "sensitivity": response.sensitivity_cache_hit,
                "count": response.count_cache_hit,
            },
        )
        return response

    def _count_core(
        self,
        database: str,
        query: ConjunctiveQuery | str,
        epsilon: float,
        *,
        session: str | None,
    ) -> CountResponse:
        """The serving stages of :meth:`count` (see there for the contract).

        Each stage runs under an :func:`~repro.obs.tracing.span`; without an
        active trace that is one ``ContextVar`` read returning
        :data:`~repro.obs.tracing.NULL_SPAN`.
        """
        if not isinstance(epsilon, (int, float)) or not math.isfinite(epsilon) or epsilon <= 0:
            raise ServiceError(f"epsilon must be positive and finite, got {epsilon}")
        reg = self._registry.get(database)
        # Advisory early rejection: don't pay for sensitivity computation on
        # a request that can't possibly be charged (the authoritative,
        # atomic check is the charge below).  In shared-state mode a miss may
        # just mean the session was created through a sibling worker whose
        # journal records we haven't absorbed yet — sync once and retry
        # before declaring it unknown (the warm path stays at one flock).
        try:
            self._sessions.precheck(session, epsilon)
        except UnknownResourceError:
            if self._store is None or not self._store.shared:
                raise
            self._sync_shared()
            self._sessions.precheck(session, epsilon)
        with obs_span("plan"):
            parsed, key, plan_hit = self.plan(query)
        with obs_span("sensitivity"):
            sensitivity, sens_hit = self._sensitivity(
                reg, parsed, key, epsilon / DEFAULT_BETA_FRACTION
            )
        with obs_span("true_count"):
            true_count, count_hit = self._true_count(reg, parsed, key)

        label = key if key is not None else parsed.name
        # The charge histogram targets ledger contention and journal cost,
        # which only exist for session-scoped or durable charges; timing the
        # in-memory sessionless no-op would tax the warm path for nothing.
        charge_timed = session is not None or self._store is not None
        charge_start = time.perf_counter()
        with obs_span("charge"):
            txn = self._sessions.begin_charge(session, epsilon, label=f"{database}:{label}")
        ledger_seconds = time.perf_counter() - charge_start
        # The draw runs under the charge lock; leaving the block journals the
        # charge (under a second "charge" span), or a deny if the draw failed.
        with txn:
            with obs_span("release"):
                # charge-seq mode derives a fresh generator from the charge's
                # global journal ordinal, so a seeded cluster releases the same
                # noise regardless of which worker serves the request (or how
                # the per-process stream has advanced).
                if self._noise_mode == "charge-seq":
                    rng = np.random.default_rng((self._noise_seed, txn.ordinal))
                else:
                    rng = self._rng
                release = PrivateCountingQuery(parsed, epsilon=epsilon, rng=rng).release(
                    reg.database, true_count=true_count, sensitivity=sensitivity
                )
            journal_start = time.perf_counter()
        if charge_timed:
            self._m_charge(ledger_seconds + time.perf_counter() - journal_start)
        with self._stats_lock:
            self._requests_served += 1
            self._epsilon_charged_total += epsilon

        return CountResponse(
            database=reg.name,
            version=reg.version,
            query_key=key,
            noisy_count=release.noisy_count,
            epsilon=epsilon,
            sensitivity=release.sensitivity,
            expected_error=release.expected_error,
            session=session,
            plan_cache_hit=plan_hit,
            sensitivity_cache_hit=sens_hit,
            count_cache_hit=count_hit,
            # Read under the charge lock: re-fetching the session here could
            # race TTL expiry and lose a paid-for answer.
            remaining_budget=txn.remaining,
        )

    def batch(
        self,
        database: str,
        requests,
        *,
        session: str | None = None,
        epsilon_total: float | None = None,
        timings: bool = False,
    ):
        """Answer a batch of requests (see :class:`~repro.service.executor.BatchExecutor`).

        With ``timings=True`` the whole batch runs under a ``request.batch``
        root span (one ``group`` span per shape group beneath it, in request
        order) and the result's ``trace_id``/``timings`` are surfaced
        through :meth:`BatchResult.to_dict`.
        """
        from repro.service.executor import BatchExecutor

        start = time.perf_counter()
        root = (
            self._tracer.trace("request.batch", database=database)
            if timings
            else NULL_SPAN
        )
        trace_id = root.trace_id if timings else None
        try:
            with root:
                result = BatchExecutor(self).run(
                    database, requests, session=session, epsilon_total=epsilon_total
                )
        except Exception as exc:
            self._record_request(
                "batch",
                time.perf_counter() - start,
                exc,
                trace_id=trace_id,
                session=session,
                database=database,
            )
            raise
        duration = time.perf_counter() - start
        for item in result.items:
            outcome = (
                "error" if not item.ok
                else ("deduplicated" if item.deduplicated else "ok")
            )
            self._m_batch_items[outcome].inc()
        self._record_request(
            "batch",
            duration,
            trace_id=trace_id,
            session=session,
            database=database,
            epsilon=result.epsilon_charged,
        )
        if timings:
            result = replace(
                result,
                details={
                    **dict(result.details),
                    "trace_id": trace_id,
                    "timings": root.stage_timings(),
                },
            )
        return result

    def _record_request(
        self,
        endpoint: str,
        duration_s: float,
        exc: BaseException | None = None,
        **fields: Any,
    ) -> None:
        """Record one finished request (failed when ``exc`` is given) into
        metrics and, with a request logger, the structured log.

        ``fields`` are the log record's request fields (see
        :meth:`~repro.obs.logs.RequestLogger.log_request`).  Only the cold
        combinations increment counters here: ``(count, ok)`` requests, ε
        charged and cache traffic are all callback-backed series read at
        scrape time (see :meth:`_init_metrics`).
        """
        self._m_latency[endpoint](duration_s)
        if exc is not None:
            self._m_requests[(endpoint, "error")].inc()
            if isinstance(exc, PrivacyError):
                self._m_denials.inc(endpoint=endpoint)
            with self._stats_lock:
                self._requests_errored += 1
        elif endpoint != "count":
            self._m_requests[(endpoint, "ok")].inc()
        logger = self._request_logger
        if logger is None:
            return
        record = logger.log_request(
            endpoint=endpoint,
            duration_ms=duration_s * 1e3,
            status="ok" if exc is None else "error",
            error=None if exc is None else f"{type(exc).__name__}: {exc}",
            **fields,
        )
        if record["slow"]:
            with self._stats_lock:
                self._slow_requests += 1
            self._m_slow.inc(endpoint=endpoint)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """A JSON-serialisable snapshot of the whole service.

        In shared-state mode the snapshot first absorbs any journal records
        appended by sibling workers, so ``/stats`` on any worker reports the
        cluster-wide ledger, not a stale local mirror.
        """
        self._sync_shared()
        shared = self._sessions.shared
        with self._stats_lock:
            served = self._requests_served
            epsilon_charged = self._epsilon_charged_total
            profiler = dict(self._profiler_totals)
            errored = self._requests_errored
            slow = self._slow_requests
            mutations = {
                "applied": self._mutations_applied,
                "rows_inserted": self._rows_inserted,
                "rows_deleted": self._rows_deleted,
            }
        logger = self._request_logger
        return {
            "requests_served": served,
            "epsilon_charged": epsilon_charged,
            "noise_mode": self._noise_mode,
            "worker": self._worker_label,
            "charge_events": self._sessions.charge_events,
            "observability": {
                "traces_started": self._tracer.traces_started,
                "requests_errored": errored,
                "slow_requests": slow,
                "slow_ms": logger.slow_ms if logger is not None else None,
                "log_lines_written": logger.lines_written if logger is not None else 0,
                "metrics": self.metrics.names(),
            },
            "backends": {"default": ENGINE_NAME},
            "databases": self._registry.describe(),
            "sessions": {
                "active": self._sessions.active_ids(),
                "default_budget": self._sessions.default_budget,
                "ttl": self._sessions.ttl,
            },
            "shared_budget": (
                None
                if shared is None
                else {
                    "total": shared.total_budget,
                    "spent": shared.spent,
                    "remaining": shared.remaining,
                }
            ),
            "caches": {
                "plan": self._plan_cache.stats().to_dict(),
                "profile": self._profile_cache.stats().to_dict(),
                "sensitivity": self._sensitivity_cache.stats().to_dict(),
                "count": self._count_cache.stats().to_dict(),
                "component": self._component_cache.stats().to_dict(),
            },
            "profiler": profiler,
            "mutations": mutations,
            "audit": {
                "records": len(self._sessions.audit),
                "total_recorded": self._sessions.audit.total_recorded,
            },
            "persistence": (
                None
                if self._store is None
                else {
                    **self._store.describe(),
                    "recovered_seq": self._recovered_seq,
                    "recovered_databases": sorted(self._registry.recovered_metadata()),
                }
            ),
        }

    def clear_caches(self) -> None:
        """Drop every cached plan, profile, sensitivity, count and component."""
        for cache in (
            self._plan_cache,
            self._profile_cache,
            self._sensitivity_cache,
            self._count_cache,
            self._component_cache,
        ):
            cache.clear()
