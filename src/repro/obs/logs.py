"""Structured JSON request logging with a pinned schema.

One line per served request, machine-parseable, schema-pinned: the line a
deployment ships to its log pipeline and reconciles against the audit log.
The schema (:data:`LOG_SCHEMA`) is validated by :func:`validate_log_line` —
used by the tests and by ``scripts/check_metrics.py`` against a live server
— with a tiny built-in validator so no external jsonschema dependency is
needed.

Slow-query logging: a :class:`RequestLogger` built with ``slow_ms`` marks
any request whose wall time exceeds the threshold with ``"slow": true`` and
emits it at WARNING level (everything else is INFO), so ``grep '"slow": '``
— or a log-level filter — surfaces the tail without a metrics query.
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import Any, IO, Mapping

__all__ = ["LOG_SCHEMA", "RequestLogger", "validate_log_line"]

#: Version stamped into every line; bump when the schema changes shape.
LOG_SCHEMA_VERSION = 2

#: The pinned schema: field → (types, required).  ``None`` is allowed for
#: every nullable field; extra fields are rejected by the validator so the
#: contract cannot drift silently.
LOG_SCHEMA: dict[str, tuple[tuple[type, ...], bool]] = {
    "v": ((int,), True),                    # LOG_SCHEMA_VERSION
    "ts": ((float, int), True),             # unix seconds
    "level": ((str,), True),                # "info" | "warning" | "error"
    "event": ((str,), True),                # "request"
    "endpoint": ((str,), True),             # "count" | "batch" | ...
    "trace_id": ((str, type(None)), True),  # null without ``timings``
    "session": ((str, type(None)), True),
    "database": ((str, type(None)), True),
    "query_key": ((str, type(None)), True),  # canonical shape key
    "status": ((str,), True),               # "ok" | "error"
    "error": ((str, type(None)), True),
    "epsilon": ((float, int, type(None)), True),
    "duration_ms": ((float, int), True),
    "slow": ((bool,), True),
    "cache": ((dict, type(None)), False),   # {"plan": bool, ...}
}

_LEVELS = ("info", "warning", "error")
_STATUSES = ("ok", "error")


def validate_log_line(line: str | Mapping[str, Any]) -> dict[str, Any]:
    """Parse + validate one JSON log line against :data:`LOG_SCHEMA`.

    Returns the parsed record; raises ``ValueError`` with a precise message
    on any violation (bad JSON, missing/unknown fields, wrong types, bad
    enum values, negative duration).
    """
    if isinstance(line, str):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"log line is not valid JSON: {exc}") from None
    else:
        record = dict(line)
    if not isinstance(record, dict):
        raise ValueError(f"log line must be a JSON object, got {type(record).__name__}")
    unknown = set(record) - set(LOG_SCHEMA)
    if unknown:
        raise ValueError(f"log line has unknown fields: {sorted(unknown)}")
    for field, (types, required) in LOG_SCHEMA.items():
        if field not in record:
            if required:
                raise ValueError(f"log line is missing required field {field!r}")
            continue
        value = record[field]
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise ValueError(
                f"log field {field!r} has type {type(value).__name__}, "
                f"expected one of {[t.__name__ for t in types]}"
            )
    if record["v"] != LOG_SCHEMA_VERSION:
        raise ValueError(
            f"log schema version {record['v']} != pinned {LOG_SCHEMA_VERSION}"
        )
    if record["level"] not in _LEVELS:
        raise ValueError(f"log level must be one of {_LEVELS}, got {record['level']!r}")
    if record["status"] not in _STATUSES:
        raise ValueError(
            f"log status must be one of {_STATUSES}, got {record['status']!r}"
        )
    if record["duration_ms"] < 0:
        raise ValueError(f"duration_ms must be non-negative, got {record['duration_ms']}")
    return record


class RequestLogger:
    """Emits one schema-pinned JSON line per request to a text stream.

    Parameters
    ----------
    stream:
        Writable text stream (e.g. ``sys.stderr`` or an opened log file).
        Writes are serialised by an internal lock so concurrent request
        threads never interleave partial lines.
    slow_ms:
        Wall-time threshold (milliseconds) above which a request is marked
        ``"slow": true`` and logged at WARNING.  ``None`` disables slow
        marking entirely.
    """

    def __init__(self, stream: IO[str], *, slow_ms: float | None = None):
        if slow_ms is not None and slow_ms < 0:
            raise ValueError(f"slow_ms must be non-negative, got {slow_ms}")
        self._stream = stream
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._lines_written = 0
        self._slow_seen = 0

    def log_request(
        self,
        *,
        endpoint: str,
        duration_ms: float,
        status: str = "ok",
        trace_id: str | None = None,
        session: str | None = None,
        database: str | None = None,
        query_key: str | None = None,
        error: str | None = None,
        epsilon: float | None = None,
        cache: Mapping[str, bool] | None = None,
    ) -> dict[str, Any]:
        """Build, write and return one request record."""
        slow = self.slow_ms is not None and duration_ms > self.slow_ms
        level = "error" if status == "error" else ("warning" if slow else "info")
        record: dict[str, Any] = {
            "v": LOG_SCHEMA_VERSION,
            "ts": time.time(),
            "level": level,
            "event": "request",
            "endpoint": endpoint,
            "trace_id": trace_id,
            "session": session,
            "database": database,
            "query_key": query_key,
            "status": status,
            "error": error,
            "epsilon": epsilon,
            "duration_ms": round(float(duration_ms), 3),
            "slow": slow,
        }
        if cache is not None:
            record["cache"] = dict(cache)
        line = json.dumps(record, separators=(",", ":"), allow_nan=False)
        with self._lock:
            self._stream.write(line + "\n")
            try:
                self._stream.flush()
            except (ValueError, io.UnsupportedOperation):  # closed/unflushable
                pass
            self._lines_written += 1
            if slow:
                self._slow_seen += 1
        return record

    @property
    def lines_written(self) -> int:
        """Number of records emitted."""
        with self._lock:
            return self._lines_written

    @property
    def slow_seen(self) -> int:
        """Number of records marked slow."""
        with self._lock:
            return self._slow_seen
