"""Per-session budget ledgers, session expiry and the audit log.

Each client session owns a :class:`~repro.mechanisms.accountant.PrivacyAccountant`
(its *ledger*).  The manager can additionally hold a *shared* accountant —
the deployment-wide budget all sessions draw from — in which case a charge
must fit in both.

A charge is **one step** (:meth:`SessionManager.begin_charge`): both ledgers
are checked under one lock, the caller draws its release while the lock is
held, and only then is one ``charge`` record written ahead to the journal
(when the manager is backed by a
:class:`~repro.service.persistence.StateStore`) and ε folded into both
ledgers.  A refused charge, or a release that failed to draw, journals a
``deny`` and charges nothing.  Every ledger therefore holds only charges
whose release exists, and each charge is durable before its release can
leave the process.

Every charge attempt — granted or denied — is appended to a bounded
:class:`AuditLog`, the record a deployment would reconcile against its DP
disclosure policy.

Lock ordering: when a journal is attached, its store lock is the outermost
lock (``store > manager > accountant``); mutating paths enter
``journal.exclusive()`` first so a state snapshot can never observe an
in-memory effect whose journal record it does not cover.  Without a
journal the manager's own lock takes its place.

Recovery rebuilds a manager in place: :meth:`SessionManager.restore` loads
a snapshot (the inverse of :meth:`SessionManager.snapshot_state`), and
:meth:`SessionManager.absorb` applies each later journal record — the same
method that applies a cluster sibling's records and that ``repro-dp state
replay`` runs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.exceptions import PrivacyError, ServiceError, UnknownResourceError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.obs.tracing import span as obs_span
from repro.service.persistence import AUDIT_TAIL_LIMIT, ledger_entry, ledger_from_entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.persistence import StateStore

__all__ = [
    "AuditLog",
    "AuditRecord",
    "ChargeTransaction",
    "Session",
    "SessionManager",
]


def finite_number(value: object) -> bool:
    """Whether ``value`` is a finite ``int`` or ``float`` (the types the
    journal can write).

    A ``bool`` is not one, although Python counts ``True`` as 1: an ε or a
    budget of ``True`` is a mistyped request, not a charge of 1.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _validate_epsilon(epsilon: object) -> None:
    """Reject a non-numeric/non-finite/non-positive charge ε."""
    if not finite_number(epsilon) or epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive and finite, got {epsilon!r}")


def _journal_safe(epsilon: object) -> float:
    """A journal/audit-safe ε for *denied* requests.

    A denial of ``NaN``/``inf``/non-numeric ε must still leave a durable
    deny record, but those values cannot be serialised (``allow_nan=False``
    everywhere); the record carries 0.0 and the detail string names the
    offending value.  Granted charges never pass through here — their ε is
    validated finite before any ledger is touched.
    """
    return float(epsilon) if finite_number(epsilon) else 0.0


@dataclass(frozen=True)
class AuditRecord:
    """One entry of the audit log."""

    seq: int
    session_id: str
    # "create" | "charge" | "deny" | "close" | "expire" (| "rollback", read
    # from journals that older builds wrote)
    action: str
    epsilon: float
    label: str
    ok: bool
    detail: str
    timestamp: float

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable view."""
        return {
            "seq": self.seq,
            "session": self.session_id,
            "action": self.action,
            "epsilon": self.epsilon,
            "label": self.label,
            "ok": self.ok,
            "detail": self.detail,
            "timestamp": self.timestamp,
        }


class AuditLog:
    """A thread-safe, bounded, append-only audit trail."""

    def __init__(self, max_records: int = 10_000):
        if max_records <= 0:
            raise ServiceError(f"max_records must be positive, got {max_records}")
        self._max_records = max_records
        self._lock = threading.RLock()
        # A full deque drops its oldest record in O(1) on append.
        self._records: deque[AuditRecord] = deque(maxlen=max_records)
        self._seq = itertools.count()
        self._total = 0

    def append(
        self,
        session_id: str,
        action: str,
        *,
        epsilon: float = 0.0,
        label: str = "",
        ok: bool = True,
        detail: str = "",
        timestamp: float | None = None,
    ) -> AuditRecord:
        """Record an event (at ``timestamp``, default now); the oldest
        record is dropped when full."""
        with self._lock:
            record = AuditRecord(
                seq=next(self._seq),
                session_id=session_id,
                action=action,
                epsilon=epsilon,
                label=label,
                ok=ok,
                detail=detail,
                timestamp=time.time() if timestamp is None else timestamp,
            )
            self._records.append(record)
            self._total += 1
        return record

    def tail(self, n: int = 50) -> list[AuditRecord]:
        """The most recent ``n`` records, oldest first."""
        with self._lock:
            return list(itertools.islice(reversed(self._records), max(n, 0)))[::-1]

    def restore(self, tail: list[dict[str, Any]], total_recorded: int) -> None:
        """Reload the log from a snapshot (a bounded tail + the total).

        Used once, at service start, before any new record is appended; the
        sequence counter resumes at ``total_recorded`` so recovered and new
        records never share a seq.
        """
        with self._lock:
            if self._total:
                raise ServiceError("cannot restore an audit log that already has records")
            kept = tail[-self._max_records:]
            base = total_recorded - len(kept)
            self._records = deque(
                (
                    AuditRecord(
                        seq=base + offset,
                        session_id=str(entry.get("session", "-")),
                        action=str(entry.get("action", "")),
                        epsilon=float(entry.get("epsilon", 0.0)),
                        label=str(entry.get("label", "")),
                        ok=bool(entry.get("ok", True)),
                        detail=str(entry.get("detail", "")),
                        timestamp=float(entry.get("timestamp", 0.0)),
                    )
                    for offset, entry in enumerate(kept)
                ),
                maxlen=self._max_records,
            )
            self._total = total_recorded
            self._seq = itertools.count(total_recorded)

    @property
    def total_recorded(self) -> int:
        """Number of records ever appended (including dropped ones)."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class Session:
    """One client session: an id, a budget ledger and activity timestamps.

    Instances are created by :class:`SessionManager`; charge through the
    manager (or :meth:`SessionManager.charge`) rather than the raw ledger so
    the shared budget, the journal and the audit log stay consistent.
    """

    def __init__(self, session_id: str, budget: float, created_at: float):
        self.session_id = session_id
        self.ledger = PrivacyAccountant(total_budget=budget)
        self.created_at = created_at
        self.last_active = created_at
        self.closed = False

    @property
    def budget(self) -> float:
        """The session's total ε budget."""
        return self.ledger.total_budget

    def describe(self) -> dict[str, object]:
        """A JSON-serialisable budget view."""
        spent = self.ledger.spent
        return {
            "session": self.session_id,
            "budget": self.ledger.total_budget,
            "spent": spent,
            "remaining": self.ledger.total_budget - spent,
            "charges": self.ledger.charge_count,
            "closed": self.closed,
        }


class ChargeTransaction:
    """A checked charge whose release is being drawn.

    :meth:`SessionManager.begin_charge` returns it holding the manager's
    charge lock; the caller draws the release inside ``with transaction:``.
    A normal exit journals one ``charge`` record and folds ε into the
    session and shared ledgers; an exit by an exception journals a ``deny``
    and charges nothing.  Either way the lock is then released.  The exit
    runs under a ``charge`` span, so a traced request's ``charge`` stage
    covers the journal append as well as the check.
    """

    def __init__(
        self,
        manager: "SessionManager",
        session: Session | None,
        epsilon: float,
        label: str,
        ordinal: int,
        lock: contextlib.ExitStack,
    ):
        self._manager = manager
        self._session = session
        self.session_id = session.session_id if session is not None else None
        self.epsilon = epsilon
        self.label = label
        #: Global ordinal of this charge among every charge event of the
        #: deployment (cluster-wide when journaled), read under the lock.
        #: Drives the deterministic per-charge noise stream of
        #: ``noise_mode="charge-seq"``; a failed draw consumes none.
        self.ordinal = ordinal
        self._lock = lock
        #: The session's remaining budget once the charge folded (``None``
        #: for a sessionless charge, and until the block exits normally).
        #: Callers must use it instead of re-fetching the session, which can
        #: lose a paid-for answer to a TTL expiry racing the lookup.
        self.remaining: float | None = None

    def __enter__(self) -> "ChargeTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        with self._lock, obs_span("charge"):
            if exc_type is not None:
                self._manager._deny(
                    self.session_id, self.epsilon, self.label, f"release failed: {exc}"
                )
                return False
            self._manager._commit(self._session, self.epsilon, self.label)
            if self._session is not None:
                self.remaining = self._session.ledger.remaining
        return False


class SessionManager:
    """Creates, expires and charges sessions.

    Parameters
    ----------
    default_budget:
        The per-session ε budget used when ``create`` is not given one.
    ttl:
        Idle lifetime in seconds; a session untouched for longer is expired
        lazily on next access (and by :meth:`expire_idle`).  ``None`` means
        sessions never expire.
    shared:
        Optional deployment-wide accountant every charge must also fit in.
    clock:
        Monotonic time source (injectable for tests).
    journal:
        Optional :class:`~repro.service.persistence.StateStore`; when given,
        every state transition is written ahead to its ledger journal.
    """

    def __init__(
        self,
        default_budget: float = 1.0,
        *,
        ttl: float | None = None,
        shared: PrivacyAccountant | None = None,
        clock: Callable[[], float] = time.monotonic,
        audit: AuditLog | None = None,
        journal: "StateStore | None" = None,
    ):
        if not finite_number(default_budget) or default_budget <= 0:
            raise ServiceError(
                f"default_budget must be positive and finite, got {default_budget}"
            )
        if ttl is not None and ttl <= 0:
            raise ServiceError(f"ttl must be positive (or None), got {ttl}")
        self.default_budget = default_budget
        self.ttl = ttl
        self.shared = shared
        self.audit = audit if audit is not None else AuditLog()
        self.journal = journal
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: dict[str, Session] = {}
        # Count of charge events (local + absorbed + recovered); see
        # ChargeTransaction.ordinal.
        self._charge_events = 0

    # ------------------------------------------------------------------ #
    # Journal plumbing
    # ------------------------------------------------------------------ #
    def _exclusive(self):
        """The lock every state change holds: the journal's store lock
        (shared, it also holds the journal flock and absorbs siblings'
        records on entry), or this manager's own lock without a journal."""
        return self._lock if self.journal is None else self.journal.exclusive()

    def _record(self, event: str, *, apply: Callable[[], None] | None = None, **fields) -> None:
        """Journal ``event`` then run ``apply`` (or just run it, unjournaled)."""
        if self.journal is not None:
            self.journal.append(event, apply=apply, **fields)
        elif apply is not None:
            apply()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def create(self, *, budget: float | None = None, session_id: str | None = None) -> Session:
        """A new session (fresh ledger); raises if the id is already live."""
        budget = self.default_budget if budget is None else budget
        if not finite_number(budget) or budget <= 0:
            raise ServiceError(f"session budget must be positive and finite, got {budget}")
        session_id = session_id or uuid.uuid4().hex[:16]
        with self._exclusive():
            # Creators are serialised by the lock, so checking before
            # journaling means a duplicate id never leaves a create record.
            with self._lock:
                if session_id in self._sessions:
                    raise ServiceError(f"session {session_id!r} already exists")
            session = Session(session_id, budget, created_at=self._clock())

            def install() -> None:
                with self._lock:
                    self._sessions[session_id] = session
                self.audit.append(session_id, "create", epsilon=budget, detail="session created")

            # The audit append rides inside the applied effect so a compacted
            # snapshot can never observe a journaled event whose audit record
            # has not landed yet.
            self._record("session_create", apply=install, session=session_id, budget=budget)
        return session

    def get(self, session_id: str) -> Session:
        """The live session (expiring it first if its TTL has lapsed)."""
        self.expire_idle()
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownResourceError(f"unknown or expired session {session_id!r}")
        return session

    def close(self, session_id: str) -> None:
        """Close and remove a session."""
        with self._exclusive():
            # Racing closers are serialised by the lock: only the first
            # finds the session, so only one journals and audits a close.
            with self._lock:
                session = self._sessions.get(session_id)
            if session is None:
                raise UnknownResourceError(f"unknown or expired session {session_id!r}")

            def remove() -> None:
                with self._lock:
                    del self._sessions[session_id]
                self.audit.append(session_id, "close", detail="session closed")

            self._record("session_close", apply=remove, session=session_id)
            session.closed = True

    def expire_idle(self) -> list[str]:
        """Expire (and return the ids of) sessions idle past the TTL."""
        if self.ttl is None:
            return []
        now = self._clock()
        # Cheap pre-check before touching the (global) store lock: every
        # get() runs through here, and in the common nothing-is-stale case
        # concurrent readers must not serialize on the journal.
        with self._lock:
            if not any(
                now - session.last_active > self.ttl
                for session in self._sessions.values()
            ):
                return []
        expired: list[str] = []
        with self._exclusive():
            with self._lock:
                stale = [
                    (session_id, session)
                    for session_id, session in self._sessions.items()
                    if now - session.last_active > self.ttl
                ]
            for session_id, session in stale:

                def remove(session_id: str = session_id) -> None:
                    with self._lock:
                        self._sessions.pop(session_id, None)
                    self.audit.append(session_id, "expire", detail="idle past ttl")

                self._record("session_expire", apply=remove, session=session_id)
                session.closed = True
                expired.append(session_id)
        return expired

    def active_ids(self) -> list[str]:
        """Ids of live sessions (after lazily expiring idle ones)."""
        self.expire_idle()
        with self._lock:
            return sorted(self._sessions)

    @property
    def charge_events(self) -> int:
        """Charge events ever seen (local + absorbed + recovered)."""
        with self._lock:
            return self._charge_events

    # ------------------------------------------------------------------ #
    # Recovery and absorption
    # ------------------------------------------------------------------ #
    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Load a snapshot's sessions, shared ledger, audit log and charge
        ordinal into this empty manager (the inverse of :meth:`snapshot_state`).

        Silent: nothing is journaled (the state came from the journal's
        snapshot) and nothing is audited (the snapshot carries the audit
        log).  A snapshot without a shared ledger leaves this manager's
        shared ledger untouched.
        """
        with self._lock:
            for entry in snapshot.get("sessions", []):
                session = Session(
                    entry["session"], float(entry["budget"]), created_at=self._clock()
                )
                session.ledger.restore_ledger(*ledger_from_entry(entry))
                self._sessions[session.session_id] = session
            self._charge_events = int(snapshot.get("charge_events", 0))
        if self.shared is not None and snapshot.get("shared"):
            self.shared.restore_ledger(*ledger_from_entry(snapshot["shared"]))
        audit = snapshot.get("audit") or {}
        if audit.get("total_recorded"):
            self.audit.restore(list(audit.get("tail", [])), int(audit["total_recorded"]))

    def absorb(self, record: Mapping[str, Any]) -> None:
        """Apply one journal record of a session event.

        The one applier of these records: recovery runs it on every record
        after the snapshot's cut, a cluster worker (under the store lock and
        the inter-process journal lock) on every record a sibling appended,
        and ``repro-dp state replay`` on every record.  It journals nothing,
        and audits what the live path audited, stamped with the record's
        ``ts``.  Records about a session that is gone (an ``expire`` after
        a compaction dropped it) change no ledger: later records supersede
        earlier ones.  A ``charge`` folds into the ledgers at once.  A
        ``rollback``, which builds that reserved ε before drawing wrote
        after a failed draw, is audited but refunds nothing: its charge has
        already folded (the conservative direction).  An unknown event
        raises :class:`ServiceError`.
        """
        event = record["event"]
        session_id = record.get("session")
        epsilon = float(record.get("epsilon", 0.0))
        label = record.get("label", "")
        detail = record.get("detail", "")
        if event == "session_create":
            epsilon, detail = float(record["budget"]), "session created"
            with self._lock:
                if session_id not in self._sessions:
                    self._sessions[session_id] = Session(
                        session_id, epsilon, created_at=self._clock()
                    )
        elif event in ("session_close", "session_expire"):
            detail = "session closed" if event == "session_close" else "idle past ttl"
            with self._lock:
                session = self._sessions.pop(session_id, None)
            if session is not None:
                session.closed = True
        elif event == "charge":
            with self._lock:
                session = self._sessions.get(session_id)
            self._fold(session, epsilon, record.get("shared", True))
        elif event not in ("deny", "rollback"):
            raise ServiceError(f"unknown journal event {event!r} (seq {record.get('seq')})")
        self.audit.append(
            session_id or "-",
            event.removeprefix("session_"),
            epsilon=epsilon,
            label=label,
            ok=event not in ("rollback", "deny"),
            detail=detail,
            timestamp=float(record.get("ts", 0.0)),
        )

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def precheck(self, session_id: str | None, epsilon: float) -> None:
        """Cheaply reject a charge that cannot possibly succeed.

        Non-atomic and advisory — :meth:`begin_charge` remains the
        authoritative check — but it lets the service refuse hopeless
        requests *before* paying for sensitivity computation.  Denials are
        journaled and audited.
        """
        self._check(session_id, epsilon, "")

    def begin_charge(
        self, session_id: str | None, epsilon: float, label: str = ""
    ) -> ChargeTransaction:
        """Check a charge and hold the lock while the caller draws its release.

        Takes the lock every state change holds (see :meth:`_exclusive`),
        checks that the session ledger and the shared budget can afford
        ``epsilon``, and returns a :class:`ChargeTransaction` that keeps the
        lock until its ``with`` block ends.  The block draws the release
        (using :attr:`ChargeTransaction.ordinal`); a normal exit journals one
        ``charge`` record — durable before the release can leave — and
        folds ε into both ledgers, while an exception journals a ``deny``
        and charges nothing.  So concurrent charges can never overspend,
        and a ledger holds only charges whose release exists.

        ``session_id=None`` charges only the shared budget (anonymous,
        ledger-less access — the CLI one-shot path).  Denials are journaled,
        audited and re-raised as :class:`PrivacyError`.
        """
        with contextlib.ExitStack() as stack:
            stack.enter_context(self._exclusive())
            session = self._check(session_id, epsilon, label)
            if session is not None:
                session.last_active = self._clock()
            return ChargeTransaction(
                self, session, epsilon, label, self._charge_events + 1, stack.pop_all()
            )

    def charge(self, session_id: str | None, epsilon: float, label: str = "") -> None:
        """Charge ``epsilon`` with no release to draw."""
        with self.begin_charge(session_id, epsilon, label=label):
            pass

    def _check(self, session_id: str | None, epsilon: float, label: str) -> Session | None:
        """The session a charge of ``epsilon`` goes to, once ε is valid and
        the session ledger and the shared budget can both afford it; a
        refusal is denied (see :meth:`_deny`) and re-raised."""
        try:
            # Validate up front: with neither a session ledger nor a shared
            # accountant no can_afford() would ever run, and a NaN/inf must
            # deny here rather than reach the journal (or silently succeed).
            _validate_epsilon(epsilon)
            session = None if session_id is None else self.get(session_id)
            if session is not None and not session.ledger.can_afford(epsilon):
                raise PrivacyError(
                    f"session budget exhausted: requested {epsilon}, "
                    f"remaining {session.ledger.remaining}"
                )
            if self.shared is not None and not self.shared.can_afford(epsilon):
                raise PrivacyError(
                    f"shared budget exhausted: requested {epsilon}, "
                    f"remaining {self.shared.remaining}"
                )
        except PrivacyError as exc:
            self._deny(session_id, epsilon, label, str(exc))
            raise
        return session

    def _deny(self, session_id: str | None, epsilon: object, label: str, detail: str) -> None:
        """Journal and audit a refused charge, which charges nothing."""
        safe_epsilon = _journal_safe(epsilon)
        self._record(
            "deny",
            apply=lambda: self.audit.append(
                session_id if session_id is not None else "-",
                "deny",
                epsilon=safe_epsilon,
                label=label,
                ok=False,
                detail=detail,
            ),
            session=session_id,
            epsilon=safe_epsilon,
            label=label,
            detail=detail,
        )

    def _commit(self, session: Session | None, epsilon: float, label: str) -> None:
        """Journal a charge whose release exists, then fold and audit it."""
        session_id = session.session_id if session is not None else None

        def apply() -> None:
            self._fold(session, epsilon, True)
            self.audit.append(
                session_id if session_id is not None else "-",
                "charge",
                epsilon=epsilon,
                label=label,
            )

        self._record(
            "charge",
            apply=apply,
            session=session_id,
            epsilon=epsilon,
            label=label,
            shared=self.shared is not None,
        )

    def _fold(self, session: Session | None, epsilon: float, shared: bool) -> None:
        """The effect of a charge record: count its ordinal and fold ε into
        the session's ledger and — when the record says a shared accountant
        took part, so a deployment without one grows no phantom shared
        spend — into the shared one."""
        with self._lock:
            self._charge_events += 1
        if session is not None:
            session.ledger.fold(epsilon)
        if shared and self.shared is not None:
            self.shared.fold(epsilon)

    def describe(self, session_id: str) -> dict[str, object]:
        """The budget view of a session, plus the shared budget if any."""
        view = self.get(session_id).describe()
        if self.shared is not None:
            view["shared_budget"] = self.shared.total_budget
            view["shared_remaining"] = self.shared.remaining
        return view

    def snapshot_state(self) -> dict[str, Any]:
        """The sessions/shared/audit portion of a compacted state snapshot.

        Called by the :class:`~repro.service.persistence.StateStore` *while
        holding its store lock*, which quiesces every mutating path, so the
        ledgers can be read consistently.  Each ledger is its fold
        ``[total, count]`` (snapshot format 2, with an empty ``charges``
        list), so the document grows with sessions, not with history.
        """
        with self._lock:
            sessions = list(self._sessions.values())
        return {
            "sessions": [
                {
                    "session": session.session_id,
                    "budget": session.ledger.total_budget,
                    **ledger_entry(session.ledger),
                }
                for session in sessions
            ],
            "shared": (
                None
                if self.shared is None
                else {"spent": self.shared.spent, **ledger_entry(self.shared)}
            ),
            "audit": {
                "total_recorded": self.audit.total_recorded,
                "tail": [
                    record.to_dict() for record in self.audit.tail(AUDIT_TAIL_LIMIT)
                ],
            },
            "charge_events": self._charge_events,
        }
