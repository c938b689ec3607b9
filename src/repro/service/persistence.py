"""Durable, crash-consistent state for the serving layer.

The serving layer's budget ledgers are the *privacy-critical* state of a
deployment: losing them on restart would let clients re-spend ε that was
already consumed.  This module makes them durable with the classic pairing
of a **write-ahead journal** and **periodic compacted snapshots**:

* :class:`LedgerJournal` — an append-only JSON-lines file recording every
  state transition (session create/close/expire, charge, deny, database
  register/unregister/mutate).  Each record carries a monotonically
  increasing ``seq`` so recovery can resume from a snapshot cut.  A line
  counts as a record only once its newline is written: a last line without
  one is an append that never returned (a crash mid-write), so every reader
  skips it and a writable store cuts it off.
* snapshots — a single JSON document of the full state, written
  atomically (temp file + ``fsync`` + ``rename``) every
  ``snapshot_interval`` journal records; the journal is then truncated.
  A crash between rename and truncate is harmless because recovery skips
  journal records with ``seq`` ≤ the snapshot's cut.  Format 2 stores each
  ledger as ``folded: [total, count]`` — the left fold and length of its
  charges — with an empty ``charges`` list, so a snapshot costs
  O(sessions), not O(every charge ever).  Charges a snapshot does list
  (every charge in format 1, the reservations open when an older build
  wrote format 2) load as charges.
* :class:`StateStore` — the façade owning a state directory
  (``journal.jsonl`` + ``snapshot.json``), used by
  :class:`~repro.service.service.PrivateQueryService` via ``state_dir=``.

Recovery has no model of its own: :meth:`StateStore.recover` loads the
snapshot into the live :class:`~repro.service.sessions.SessionManager` and
:class:`~repro.service.registry.DatabaseRegistry` (the inverse of their
``snapshot_state``) and applies the journal records after its cut through
their ``absorb`` methods.  A cluster worker applies its siblings' records
through the same methods, and ``repro-dp state replay``
(:meth:`StateStore.replay`) runs recovery on managers that journal nothing,
so one applier and one journal reader serve all three.

Consistency model
-----------------
``StateStore._lock`` is the **outermost** lock of the serving layer: every
mutation journals (and applies its in-memory effect) while holding it, and
compaction reads the in-memory state under the same lock.  A snapshot
therefore always reflects exactly the records up to its cut — an effect and
its journal record can never straddle a compaction.  Code that holds a
session/registry/manager lock must never *wait* on the store lock; the
serving layer acquires the store lock first (see ``SessionManager`` and
``DatabaseRegistry``).

What is (and is not) persisted
------------------------------
Persisted: session ledgers and the shared deployment budget (budget and
the fold of its charges), audit-log totals and a bounded tail, and
versioned metadata of registered databases — including per-relation sizes
and mutation **epochs**, kept current by ``mutate`` records (see
``docs/mutation.md``) — so re-registering after a restart resumes the
version sequence and stale cache keys can never be resurrected.
Not persisted: database *contents* (re-register them after a restart,
then replay any mutations from your own feed), caches (they rebuild), and
the noise generator state (a restarted seeded service starts a fresh
stream; budgets, not noise, are the durable contract).

Shared (multi-process) mode
---------------------------
``StateStore(..., shared=True)`` lets several worker processes of one
cluster (see :mod:`repro.service.cluster`) append to the *same* journal
without interleaving seqs or double-spending budgets:

* the directory lock is taken **shared** (``LOCK_SH``) so sibling workers
  can coexist while a plain single-process server (``LOCK_EX``) is still
  locked out, and vice versa;
* every mutation additionally holds an exclusive fcntl lock on
  ``<dir>/journal.lock`` — a charge from its check through its release
  draw to its journal record — making the journal the single
  serialization point of the cluster;
* on each process-lock acquisition the store first *absorbs* journal
  records appended by sibling workers since its last read offset (applying
  them to the managers it recovered into), so
  the local seq resumes past the global maximum and every worker's ledger
  reflects every charge before it decides whether a new one is affordable;
* shared stores never compact (a snapshot+truncate would pull the journal
  out from under the other workers' read offsets); the cluster dispatcher
  compacts once, with an exclusive store, after the workers have exited.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.exceptions import ServiceError
from repro.mechanisms.accountant import PrivacyAccountant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.registry import DatabaseRegistry
    from repro.service.sessions import SessionManager

__all__ = [
    "LedgerJournal",
    "StateStore",
    "exclusive_or_null",
    "ledger_entry",
    "ledger_from_entry",
    "register_metadata",
]


#: The database metadata a ``mutate`` record refreshes.
MUTATE_METADATA_KEYS = ("relations", "private_tuples", "epochs")

#: The database metadata kept from a ``register`` record or a snapshot's
#: ``databases`` entry (see :func:`register_metadata`).
REGISTER_METADATA_KEYS = ("name", "version") + MUTATE_METADATA_KEYS


def register_metadata(record: Mapping[str, Any]) -> dict[str, Any]:
    """The :data:`REGISTER_METADATA_KEYS` of a ``register`` record or a
    snapshot's ``databases`` entry.

    Applying a ``register`` record and loading a snapshot both filter
    through here, so a key retired from
    :meth:`~repro.service.registry.RegisteredDatabase.describe` is dropped
    on recovery instead of propagating into every later snapshot.
    """
    return {key: record[key] for key in REGISTER_METADATA_KEYS if key in record}


def exclusive_or_null(store: "StateStore | None"):
    """The store's global lock, or a no-op context without a store.

    The shared entry point for every serving-layer component that must make
    its in-memory mutation atomic with its journal record (sessions,
    registry) — one definition so the lock discipline has one home.
    """
    return contextlib.nullcontext() if store is None else store.exclusive()

SNAPSHOT_FORMAT = 2
#: Snapshot formats recovery reads: 1 listed every charge of a ledger.
READABLE_SNAPSHOT_FORMATS = (1, 2)

#: Journal event types (the ``event`` field of every record).
EVENTS = (
    "session_create",
    "session_close",
    "session_expire",
    "charge",
    "deny",
    "register",
    "unregister",
    "mutate",
)


class LedgerJournal:
    """An append-only JSON-lines journal with monotonically increasing seqs.

    Opened lazily on first append so read-only tools (``repro-dp state
    replay``) never create files.  Every append is flushed to the OS so a
    crashed *process* loses nothing; pass ``fsync=True`` to also survive a
    crashed *machine* at the cost of one fsync per record.
    """

    def __init__(self, path: Path, *, fsync: bool = False):
        self._path = Path(path)
        self._fsync = fsync
        self._handle = None

    @property
    def path(self) -> Path:
        """The journal file path."""
        return self._path

    @property
    def fsync_enabled(self) -> bool:
        """Whether every append is fsynced."""
        return self._fsync

    def append(self, record: Mapping[str, Any]) -> None:
        """Write one record as a single JSON line and flush it."""
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
        line = json.dumps(record, separators=(",", ":"), allow_nan=False)
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def truncate(self) -> None:
        """Drop every record (after a snapshot has made them redundant)."""
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self._path, "w", encoding="utf-8")
        self._handle.flush()

    def tell(self) -> int:
        """Current end-of-journal byte offset: the file's size (0 when absent).

        Every append is flushed, so this counts this process's records and
        any a sibling process appended since.
        """
        try:
            return self._path.stat().st_size
        except OSError:
            return 0

    def close(self) -> None:
        """Close the underlying file handle (appends reopen it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def read_records(path: Path, offset: int = 0) -> tuple[list[dict[str, Any]], int]:
        """The records from byte ``offset`` on, and the offset just past them.

        The one journal reader (recovery and sibling absorption both use
        it).  A line counts as a record only once its newline is written: a
        last line without one is an append that never returned — a crash
        mid-write, or a live writer's record still being flushed — so it is
        not returned, and the returned offset stops before it.  A whole
        line that does not parse to an event record is corruption and
        raises :class:`ServiceError`.
        """
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except FileNotFoundError:
            return [], offset
        *lines, _partial = data.split(b"\n")
        records: list[dict[str, Any]] = []
        for line in lines:
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if not isinstance(record, dict) or "event" not in record:
                    raise ServiceError(
                        f"corrupt journal {path}: unparseable record at byte offset {offset}"
                    )
                records.append(record)
            offset += len(line) + 1
        return records, offset


#: Bound on the audit tail a snapshot carries and ``repro-dp state replay``
#: keeps (the live in-memory log keeps its own, larger bound).
AUDIT_TAIL_LIMIT = 1000


def ledger_entry(ledger: PrivacyAccountant) -> dict[str, list]:
    """A ledger's snapshot entry (format 2): ``folded: [total, count]`` and
    an empty ``charges`` list (the ledger holds no per-charge records)."""
    total, count = ledger.snapshot()
    return {"folded": [total, count], "charges": []}


def ledger_from_entry(entry: Mapping[str, Any]) -> tuple[tuple[float, int], list[float]]:
    """A snapshot ledger's fold and the ε of the ``[epsilon, label]``
    charges it lists (format 1 has no fold): what
    :meth:`~repro.mechanisms.accountant.PrivacyAccountant.restore_ledger` takes."""
    total, count = entry.get("folded", (0.0, 0))
    return (float(total), int(count)), [float(epsilon) for epsilon, _ in entry.get("charges", [])]


class StateStore:
    """The state directory: journal + snapshot + the global mutation lock.

    Parameters
    ----------
    state_dir:
        Directory holding ``journal.jsonl`` and ``snapshot.json`` (created
        unless ``create=False``).
    snapshot_interval:
        Journal records between automatic compactions; ``0`` disables
        automatic snapshots (the journal grows until :meth:`compact` is
        called explicitly).
    fsync:
        Fsync every journal append (see :class:`LedgerJournal`).
    create:
        ``True`` (the default) opens the directory for *writing*: it is
        created if missing, an exclusive inter-process lock is taken on it
        (a second live process fails fast instead of interleaving journal
        seqs), and reading the journal cuts off a partial last line.
        ``False`` opens it read-only for offline inspection (``repro-dp
        state replay``): no lock, no truncation, no mutation of any kind —
        safe against a live server.
    shared:
        Open the directory for *co-writing* by sibling worker processes of
        one cluster: the directory lock degrades to shared, every mutation
        takes an exclusive fcntl lock on ``<dir>/journal.lock``, sibling
        records are absorbed on each lock acquisition, and compaction is
        forbidden (see the module docstring).  Requires ``create=True``
        and a POSIX platform.
    """

    def __init__(
        self,
        state_dir: str | os.PathLike,
        *,
        snapshot_interval: int = 1000,
        fsync: bool = False,
        create: bool = True,
        shared: bool = False,
    ):
        if snapshot_interval < 0:
            raise ServiceError(
                f"snapshot_interval must be non-negative, got {snapshot_interval}"
            )
        if shared and not create:
            raise ServiceError("shared=True requires a writable store (create=True)")
        if shared and fcntl is None:  # pragma: no cover - non-POSIX platforms
            raise ServiceError("shared state stores require fcntl (POSIX)")
        self._dir = Path(state_dir)
        self._writable = create
        self._shared = shared
        self._lock_handle = None
        self._proc_handle = None
        if create:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._acquire_dir_lock()
            if shared:
                self._proc_handle = open(self._dir / "journal.lock", "a+")
        elif not self._dir.is_dir():
            raise ServiceError(f"state directory {self._dir} does not exist")
        self._journal = LedgerJournal(self._dir / "journal.jsonl", fsync=fsync)
        self._snapshot_path = self._dir / "snapshot.json"
        self._snapshot_interval = snapshot_interval
        # The OUTERMOST lock of the serving layer: mutations journal and
        # apply under it, compaction reads the full in-memory state under it.
        self._lock = threading.RLock()
        self._seq = 0
        self._records_since_snapshot = 0
        self._snapshots_written = 0
        # Shared-mode bookkeeping, all guarded by self._lock: re-entrancy
        # depth of the inter-process journal lock and the byte offset up to
        # which this process has read (own appends + absorbed records).
        self._proc_depth = 0
        self._journal_offset = 0
        # The managers recover() loaded: compaction snapshots them and
        # absorption applies sibling records to them.
        self._sessions: "SessionManager | None" = None
        self._registry: "DatabaseRegistry | None" = None
        # Optional observability binding (see bind_metrics).
        self._m_append = None
        self._m_records = None
        self._m_fsyncs = None
        self._m_snapshots = None

    @property
    def shared(self) -> bool:
        """Whether this store co-writes the journal with sibling processes."""
        return self._shared

    def bind_metrics(self, registry) -> None:
        """Attach WAL instruments to a :class:`~repro.obs.metrics.MetricsRegistry`.

        Called by the owning service after construction; records per-append
        wall time (including flush and, when enabled, fsync), journal record
        and fsync counts, compacted-snapshot counts, and a scrape-time gauge
        of the current journal seq.
        """
        from repro.obs.metrics import DEFAULT_IO_BUCKETS

        self._m_append = registry.histogram(
            "repro_journal_append_seconds",
            "Wall time of one WAL journal append (write + flush [+ fsync]).",
            buckets=DEFAULT_IO_BUCKETS,
        )
        self._m_records = registry.counter(
            "repro_journal_records_total", "Records appended to the WAL journal."
        )
        self._m_fsyncs = registry.counter(
            "repro_journal_fsyncs_total", "Fsyncs issued by WAL journal appends."
        )
        self._m_snapshots = registry.counter(
            "repro_snapshots_total", "Compacted snapshots written."
        )
        registry.gauge(
            "repro_journal_seq", "Current (recovered + live) journal sequence number."
        ).set_function(lambda: float(self._seq))
        registry.gauge(
            "repro_journal_records_since_snapshot",
            "Journal records accumulated since the last compacted snapshot.",
        ).set_function(lambda: float(self._records_since_snapshot))

    @property
    def state_dir(self) -> Path:
        """The state directory."""
        return self._dir

    @property
    def journal_path(self) -> Path:
        """Path of the JSON-lines journal."""
        return self._journal.path

    @property
    def snapshot_path(self) -> Path:
        """Path of the compacted snapshot."""
        return self._snapshot_path

    def exclusive(self):
        """The store lock, for callers that must mutate state atomically
        with their journal records (a charge, from its check to its record).

        In shared mode this is a context manager that *also* holds the
        inter-process journal lock (absorbing sibling records on entry), so
        a whole charge — check, release draw, journal record — is atomic
        across every worker of the cluster, not just across threads.
        """
        if not self._shared:
            return self._lock
        return _SharedExclusive(self)

    def _acquire_dir_lock(self) -> None:
        """Take the inter-process writer lock on the state directory.

        Two live processes appending to one journal would interleave
        independent seq sequences, and replay's seq-based dedup would then
        silently drop one process's charges.  The kernel releases the lock
        when the owning process dies (including ``kill -9``), so crash
        recovery is never blocked by a stale lock.

        Shared stores take the lock in *shared* mode instead: cluster
        workers coexist with each other (they serialize on the journal
        lock per mutation), while an exclusive single-process server and a
        worker cluster still mutually exclude each other.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        handle = open(self._dir / "lock", "a+")
        mode = fcntl.LOCK_SH if self._shared else fcntl.LOCK_EX
        try:
            fcntl.flock(handle.fileno(), mode | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise ServiceError(
                f"state directory {self._dir} is locked by another live process"
            ) from None
        self._lock_handle = handle

    def _enter_process_lock(self) -> None:
        """Acquire (or re-enter) the inter-process journal lock.

        Must be called with ``self._lock`` held.  On the outermost entry the
        fcntl lock is taken and sibling records are absorbed, so by the time
        the caller checks a budget or allocates a seq its view of the ledger
        is current across the whole cluster.
        """
        if self._proc_depth == 0:
            fcntl.flock(self._proc_handle.fileno(), fcntl.LOCK_EX)
            try:
                self._absorb_journal_locked()
            except BaseException:
                fcntl.flock(self._proc_handle.fileno(), fcntl.LOCK_UN)
                raise
        self._proc_depth += 1

    def _exit_process_lock(self) -> None:
        """Release one level of the inter-process journal lock."""
        self._proc_depth -= 1
        if self._proc_depth == 0:
            fcntl.flock(self._proc_handle.fileno(), fcntl.LOCK_UN)

    def _absorb_journal_locked(self) -> None:
        """Apply the records journaled past our read offset, in seq order.

        Recovery runs it over the whole journal; a shared store runs it on
        each acquisition of the fcntl journal lock (under ``self._lock``
        too) to absorb what sibling workers appended.  Records at or below
        the current seq (folded into the snapshot, or already applied) are
        skipped.  A partial last line is not a record: a writable store
        cuts it off so the next append starts on a clean line.  Under the
        journal lock it can only be a crashed writer's, since live writers
        append whole lines while holding it.  A read-only store leaves it
        alone: against a live server it may be a record still being flushed.
        """
        records, end = LedgerJournal.read_records(self._journal.path, self._journal_offset)
        if self._writable and self._journal.tell() > end:
            with open(self._journal.path, "r+b") as handle:
                handle.truncate(end)
        self._journal_offset = end
        for record in records:
            seq = int(record.get("seq", 0))
            if seq <= self._seq:
                continue
            self._seq = seq
            if record["event"] in ("register", "unregister", "mutate"):
                self._registry.absorb(record)
            else:
                self._sessions.absorb(record)

    def recover(self, sessions: "SessionManager", registry: "DatabaseRegistry") -> int:
        """Load the snapshot and the journal after its cut into the managers.

        The managers must be empty (start-up).  The snapshot goes through
        their ``restore`` methods and every later record through their
        ``absorb`` methods, the code a cluster worker runs on its siblings'
        records.  From here on the store snapshots these managers when it
        compacts and, shared, applies sibling records to them.  Returns the
        recovered seq.

        Shared stores recover under the inter-process journal lock so the
        snapshot read, the journal read and the read-offset initialisation
        see a frozen journal even while sibling workers are already serving.
        """
        with self._lock:
            if self._shared:
                fcntl.flock(self._proc_handle.fileno(), fcntl.LOCK_EX)
            try:
                self._sessions, self._registry = sessions, registry
                if self._snapshot_path.exists():
                    try:
                        snapshot = json.loads(
                            self._snapshot_path.read_text(encoding="utf-8")
                        )
                    except json.JSONDecodeError as exc:
                        raise ServiceError(
                            f"corrupt snapshot {self._snapshot_path}: {exc}"
                        ) from None
                    if snapshot.get("format") not in READABLE_SNAPSHOT_FORMATS:
                        raise ServiceError(
                            f"unsupported snapshot format {snapshot.get('format')!r} "
                            f"(this build reads formats {READABLE_SNAPSHOT_FORMATS})"
                        )
                    sessions.restore(snapshot)
                    registry.restore(snapshot)
                    self._seq = max(self._seq, int(snapshot.get("seq", 0)))
                self._journal_offset = 0
                self._absorb_journal_locked()
            finally:
                if self._shared:
                    fcntl.flock(self._proc_handle.fileno(), fcntl.LOCK_UN)
            return self._seq

    def replay(self) -> tuple["SessionManager", "DatabaseRegistry"]:
        """Recover into fresh managers that journal nothing (``repro-dp state replay``).

        The state directory does not record the deployment's total budget,
        so the shared ledger here only counts: its budget is never
        enforced.  The audit log keeps :data:`AUDIT_TAIL_LIMIT` records,
        the tail a snapshot carries.
        """
        from repro.service.registry import DatabaseRegistry
        from repro.service.sessions import AuditLog, SessionManager

        sessions = SessionManager(
            shared=PrivacyAccountant(sys.float_info.max), audit=AuditLog(AUDIT_TAIL_LIMIT)
        )
        registry = DatabaseRegistry()
        self.recover(sessions, registry)
        return sessions, registry

    def append(self, event: str, *, apply: Callable[[], None] | None = None, **fields) -> int:
        """Journal one record, then run ``apply`` under the same lock.

        Write-ahead ordering: the record is durable *before* the in-memory
        effect happens, and both happen under the store lock, so a snapshot
        can never observe an effect whose record it does not cover (or vice
        versa).  Returns the record's ``seq``.
        """
        if event not in EVENTS:
            raise ServiceError(f"unknown journal event {event!r}")
        with self._lock:
            # Shared mode: self-acquire the inter-process lock so records
            # journaled outside an exclusive() window (precheck denials)
            # still serialize — and absorb — across workers.
            if self._shared:
                self._enter_process_lock()
            try:
                self._seq += 1
                record = {"seq": self._seq, "ts": time.time(), "event": event, **fields}
                if self._m_append is not None:
                    append_start = time.perf_counter()
                    self._journal.append(record)
                    self._m_append.observe(time.perf_counter() - append_start)
                    self._m_records.inc()
                    if self._journal.fsync_enabled:
                        self._m_fsyncs.inc()
                else:
                    self._journal.append(record)
                if self._shared:
                    self._journal_offset = self._journal.tell()
                if apply is not None:
                    apply()
                self._records_since_snapshot += 1
                if (
                    not self._shared
                    and self._snapshot_interval
                    and self._sessions is not None
                    and self._records_since_snapshot >= self._snapshot_interval
                ):
                    self._compact_locked()
                return record["seq"]
            finally:
                if self._shared:
                    self._exit_process_lock()

    def compact(self) -> Path:
        """Write a snapshot now and truncate the journal."""
        if self._shared:
            # A snapshot+truncate would pull the journal out from under the
            # sibling workers' read offsets; the cluster dispatcher compacts
            # once, exclusively, after the workers have exited.
            raise ServiceError("shared state stores cannot compact")
        if self._sessions is None:
            raise ServiceError("a store compacts only the state it recovered")
        with self._lock:
            self._compact_locked()
        return self._snapshot_path

    def _compact_locked(self) -> None:
        document = {
            "format": SNAPSHOT_FORMAT,
            "seq": self._seq,
            **self._sessions.snapshot_state(),
            **self._registry.snapshot_state(),
        }
        tmp = self._snapshot_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, allow_nan=False)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._snapshot_path)
        # Make the rename durable *before* truncating the journal: if the
        # truncate reached disk but the new directory entry did not, a
        # machine crash would recover the OLD snapshot plus an EMPTY journal
        # and silently forget every charge since the previous snapshot.
        try:
            dir_fd = os.open(self._dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platforms without dir fds
            dir_fd = None
        if dir_fd is not None:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        # A crash right here leaves snapshot + full journal: recovery skips
        # records with seq <= the snapshot cut, so nothing double-counts.
        self._journal.truncate()
        self._records_since_snapshot = 0
        self._snapshots_written += 1
        if self._m_snapshots is not None:
            self._m_snapshots.inc()

    def close(self) -> None:
        """Flush and close the journal and release the directory lock."""
        with self._lock:
            self._journal.close()
            if self._proc_handle is not None:
                self._proc_handle.close()
                self._proc_handle = None
            if self._lock_handle is not None:
                if fcntl is not None:  # pragma: no branch
                    fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
                self._lock_handle.close()
                self._lock_handle = None

    def describe(self) -> dict[str, Any]:
        """A JSON-serialisable view (for ``/stats``)."""
        with self._lock:
            return {
                "state_dir": str(self._dir),
                "last_seq": self._seq,
                "records_since_snapshot": self._records_since_snapshot,
                "snapshot_interval": self._snapshot_interval,
                "snapshots_written": self._snapshots_written,
                "shared": self._shared,
            }


class _SharedExclusive:
    """Context manager pairing the store's thread lock with the fcntl
    journal lock (what ``StateStore.exclusive()`` hands out in shared mode)."""

    __slots__ = ("_store",)

    def __init__(self, store: StateStore):
        self._store = store

    def __enter__(self):
        self._store._lock.acquire()
        try:
            self._store._enter_process_lock()
        except BaseException:
            self._store._lock.release()
            raise
        return self

    def __exit__(self, *exc):
        try:
            self._store._exit_process_lock()
        finally:
            self._store._lock.release()
        return False
