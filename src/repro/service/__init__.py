"""The private query serving layer (the paper's Section 8 deployment setting).

The one-shot library answers a single query per call; this subpackage turns
it into a multi-tenant serving system:

* :mod:`repro.service.registry` — named databases, registered once and
  reused (with versioning so caches can never serve stale data);
* :mod:`repro.service.sessions` — per-session ε budget ledgers layered on
  :class:`~repro.mechanisms.accountant.PrivacyAccountant`, an optional
  deployment-wide shared budget, idle-session expiry and an audit log;
* :mod:`repro.service.cache` — thread-safe LRU caches with hit/miss
  statistics;
* :mod:`repro.service.service` — :class:`PrivateQueryService`, the façade
  that caches plans, residual-sensitivity profiles and sensitivity values
  across requests (caching never changes the released distribution);
* :mod:`repro.service.executor` — batch execution with budget splitting,
  duplicate-answer reuse and the groups answered in request order;
* :mod:`repro.service.api` — a stdlib ``http.server`` JSON API
  (``/register``, ``/count``, ``/batch``, ``/budget``, ``/stats``) behind
  the ``repro-dp serve`` CLI command;
* :mod:`repro.service.persistence` — the write-ahead ledger journal and
  compacted snapshots that make sessions, spent budgets and audit totals
  survive a crash or restart (``PrivateQueryService(state_dir=...)``,
  ``repro-dp serve --state-dir``, ``repro-dp state replay``).
"""

from repro.service.cache import CacheStats, LRUCache
from repro.service.persistence import (
    LedgerJournal,
    RecoveredSession,
    RecoveredState,
    StateStore,
)
from repro.service.executor import (
    BatchExecutor,
    BatchItemResult,
    BatchRequest,
    BatchResult,
)
from repro.service.registry import DatabaseRegistry, RegisteredDatabase
from repro.service.service import CountResponse, PrivateQueryService
from repro.service.sessions import (
    AuditLog,
    AuditRecord,
    ChargeTransaction,
    Session,
    SessionManager,
)

__all__ = [
    "AuditLog",
    "AuditRecord",
    "BatchExecutor",
    "BatchItemResult",
    "BatchRequest",
    "BatchResult",
    "CacheStats",
    "ChargeTransaction",
    "CountResponse",
    "DatabaseRegistry",
    "LedgerJournal",
    "LRUCache",
    "PrivateQueryService",
    "RecoveredSession",
    "RecoveredState",
    "RegisteredDatabase",
    "Session",
    "SessionManager",
    "StateStore",
]
