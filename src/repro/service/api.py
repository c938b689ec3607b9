"""A stdlib JSON-over-HTTP front end for :class:`PrivateQueryService`.

Endpoints (all bodies and responses are ``application/json``):

``POST /register``
    ``{"name": ..., "edges": [[u, v], ...]}`` or
    ``{"name": ..., "dataset": "GrQc", "scale": 0.02}`` — register a named
    database (``"replace": true`` to update an existing name).  Unknown
    keys are ignored.
``POST /mutate``
    ``{"database": ..., "operations": [{"relation": "edge", "op": "insert",
    "rows": [[1, 2]]}, ...]}`` — apply a batch of tuple-level delta
    operations (``insert``/``delete`` with ``rows``, ``replace`` with
    ``old``/``new``) to a registered database.  The batch is validated
    atomically, advances only the touched relations' epochs (the version is
    unchanged), and is journaled for sibling workers and recovery.  See
    ``docs/mutation.md``.
``POST /count``
    ``{"database": ..., "query": "...", "epsilon": 0.5, "session"?}`` — one
    private release, calibrated to residual sensitivity.
``POST /batch``
    ``{"database": ..., "requests": [{"query": ..., "epsilon"?}, ...],
    "epsilon_total"?, "session"?}`` — a deduplicated batch.
``POST /budget`` / ``GET /budget?session=ID``
    Create a session (``{"budget"?: 2.0}``) / inspect a session's ledger.
``GET /stats``
    Registry, session, cache, audit and observability statistics.
``GET /capacity``
    The cluster capacity board: total/used/available request slots,
    queue depth and per-worker inflight counts (404 when the server was
    started without one, i.e. not via ``repro-dp serve``).
``GET /metrics``
    The service's metrics registry in Prometheus text exposition format
    (``text/plain; version=0.0.4``) — request counters/latency histograms,
    cache hit ratios, budget-ledger and WAL journal timings, profiler
    counters.

``/count`` and ``/batch`` accept ``"timings": true`` to run the request
under a trace and return a ``trace_id`` plus a per-stage wall-time
breakdown alongside the normal response fields.  Any other field (such as a
calibration ``"method"``), in a body or a ``/batch`` request, or a field of
the wrong JSON type is a 400 before anything is charged.

Errors map onto status codes: malformed requests → 400, exhausted budgets →
403, unknown databases/sessions → 404.  The server is a
:class:`~http.server.ThreadingHTTPServer`; thread safety is provided by the
service layer itself (accountant locks, cache locks, the rng lock).

HTTP/1.1 keep-alive is framing-safe on every path: a response — including
an error response sent before the request body was parsed — first drains
the declared ``Content-Length`` (or closes the connection when the unread
body is unreasonably large), so a pipelined follow-up request on the same
connection can never be misparsed against leftover body bytes.  Non-finite
numbers (``NaN``, ``Infinity``) are rejected both on input (400) and on
output (responses are serialised with ``allow_nan=False``).

Every reply leaves in one ``write`` on a ``TCP_NODELAY`` socket.  Sending
the headers and the body in two writes let Nagle's algorithm (RFC 896) hold
the body until the client's delayed ACK of the headers arrived (RFC 1122
§4.2.3.2) — ~40 ms on every keep-alive request; one write and no Nagle make
a warm ``/count`` cost one round trip.

:func:`serve` runs a server for its whole life — bind, accept until
SIGTERM, drain — for single-process ``repro-dp serve`` and for every worker
of the prefork cluster (:mod:`repro.service.cluster`) alike.

This front end is built on :mod:`http.server` so the library stays
dependency-free; production deployments would put a real WSGI/ASGI server in
front of :class:`PrivateQueryService` the same way this module does.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlparse

from repro.exceptions import (
    PrivacyError,
    ReproError,
    ServiceError,
    UnknownResourceError,
)
from repro.service.service import PrivateQueryService

__all__ = ["make_server", "serve", "shed_retry_after", "ServiceRequestHandler"]

#: Bounds of the derived ``Retry-After`` on shed (503) responses.
MIN_RETRY_AFTER = 1
MAX_RETRY_AFTER = 30


def shed_retry_after(view: Mapping[str, Any]) -> int:
    """The ``Retry-After`` seconds for a shed response, from a capacity view.

    ``view`` is :meth:`repro.service.cluster.CapacityBoard.describe` output.
    A barely-full cluster tells clients to retry in 1 s; the hint grows with
    the queue depth normalized by per-worker capacity (how many "rounds" of
    in-flight work stand in line) scaled by the overcommit ratio, and is
    clamped to ``[MIN_RETRY_AFTER, MAX_RETRY_AFTER]`` so a load spike never
    pushes clients out for minutes.  Monotone in load: more queued work ⇒ an
    equal or later retry.
    """
    depth = max(0, int(view.get("queue_depth", 0)))
    ratio = max(0.0, float(view.get("overcommit_ratio", 0.0)))
    per_worker = max(1, int(view.get("max_inflight_per_worker", 1)))
    hint = MIN_RETRY_AFTER + math.ceil(ratio * depth / per_worker)
    return max(MIN_RETRY_AFTER, min(MAX_RETRY_AFTER, int(hint)))


def _as_float(value: Any, field: str) -> float:
    """Coerce a JSON value to a *finite* float (400-class error otherwise).

    ``NaN`` passes a later ``<= 0`` validity check (every comparison with
    NaN is false) and ``inf`` passes a ``> 0`` one, so both must be rejected
    at coercion before they can poison budget arithmetic downstream.
    """
    try:
        if isinstance(value, bool):  # float(True) is 1.0
            raise TypeError
        result = float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"{field!r} must be a number, got {value!r}") from None
    if not math.isfinite(result):
        raise ServiceError(f"{field!r} must be a finite number, got {value!r}")
    return result


def _as_type(value: Any, field: str, kind: type, *, nullable: bool = False) -> Any:
    """``value`` if it is a ``kind`` (or ``None`` when ``nullable``), else a 400."""
    if isinstance(value, kind) or (nullable and value is None):
        return value
    raise ServiceError(f"{field!r} must be a {kind.__name__}, got {value!r}")


def _check_fields(
    payload: Mapping[str, Any],
    endpoint: str,
    required: tuple[str, ...],
    optional: tuple[str, ...],
) -> None:
    """Refuse a body that misses a ``required`` field or has an unknown one."""
    for field in required:
        if field not in payload:
            raise ServiceError(f"{endpoint} payload needs {field!r}")
    unknown = set(payload).difference(required, optional)
    if unknown:
        raise ServiceError(f"unknown {endpoint} fields: {sorted(unknown)}")


def _reject_non_finite(constant: str) -> float:
    """``json.loads`` hook: refuse ``NaN``/``Infinity`` literals in bodies."""
    raise ServiceError(f"request body contains a non-finite number: {constant}")


def _database_from_payload(payload: Mapping[str, Any]):
    """Materialise the database described by a ``/register`` body."""
    if "edges" in payload:
        from repro.graphs.loader import database_from_edges

        edges = payload["edges"]
        if not isinstance(edges, list):
            raise ServiceError("'edges' must be a list of [u, v] pairs")
        try:
            pairs = [(u, v) for u, v in edges]
        except (TypeError, ValueError):
            raise ServiceError("'edges' must be a list of [u, v] pairs") from None
        return database_from_edges(pairs)
    if "dataset" in payload:
        from repro.datasets.snap_surrogates import surrogate_database

        return surrogate_database(payload["dataset"], scale=payload.get("scale"))
    if "relations" in payload:
        return _database_from_relations(payload)
    raise ServiceError(
        "register payload needs one of 'edges', 'dataset' or 'relations'"
    )


def _database_from_relations(payload: Mapping[str, Any]):
    """Materialise an explicit-schema database (the fuzz harness's shape).

    ``relations`` is a list of ``{"name", "arity", "domain_size",
    "private"?}`` specs and ``rows`` maps each name to its tuples — the
    JSON :meth:`repro.qa.generator.FuzzCase.describe` emits, so a fuzz
    workload can be replayed byte-for-byte through a live server.
    """
    from repro.data.database import Database
    from repro.data.domain import IntegerDomain
    from repro.data.schema import Attribute, DatabaseSchema, RelationSchema

    specs = payload["relations"]
    if not isinstance(specs, list) or not specs:
        raise ServiceError("'relations' must be a non-empty list of relation specs")
    schemas, private = [], []
    for spec in specs:
        if not isinstance(spec, dict) or not spec.get("name"):
            raise ServiceError(f"malformed relation spec: {spec!r}")
        try:
            arity = int(spec["arity"])
            domain_size = int(spec["domain_size"])
        except (KeyError, TypeError, ValueError):
            raise ServiceError(
                f"relation spec {spec.get('name')!r} needs integer "
                "'arity' and 'domain_size'"
            ) from None
        if arity <= 0 or domain_size <= 0:
            raise ServiceError(
                f"relation spec {spec.get('name')!r}: 'arity' and "
                "'domain_size' must be positive"
            )
        domain = IntegerDomain(0, domain_size - 1)
        schemas.append(
            RelationSchema(
                spec["name"], [Attribute(f"a{i}", domain) for i in range(arity)]
            )
        )
        if spec.get("private", True):
            private.append(spec["name"])
    rows = payload.get("rows", {})
    if not isinstance(rows, Mapping):
        raise ServiceError("'rows' must map relation names to lists of rows")
    try:
        relations = {
            name: [tuple(row) for row in rel_rows] for name, rel_rows in rows.items()
        }
    except TypeError:
        raise ServiceError("'rows' must map relation names to lists of rows") from None
    try:
        return Database(DatabaseSchema(schemas, private=private), relations=relations)
    except ReproError:
        raise
    except Exception as exc:
        raise ServiceError(f"cannot build database from 'relations': {exc}") from None


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Dispatch JSON requests onto a bound :class:`PrivateQueryService`."""

    service: PrivateQueryService  # bound by make_server()
    log_requests = False
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted socket (the stdlib
    #: ``StreamRequestHandler`` switch).  ``wfile`` stays unbuffered, so an
    #: ``Expect: 100-continue`` interim reply still leaves at once; every
    #: final reply is a single write (:meth:`_send`).
    disable_nagle_algorithm = True
    #: Optional :class:`~repro.service.cluster.CapacityBoard` slot; when
    #: bound, ``/count`` and ``/batch`` pass admission control before any
    #: service work (and shed with 503 + ``Retry-After`` when full).
    capacity = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    #: Error paths drain at most this many unread body bytes to keep the
    #: connection reusable; larger bodies are answered with a closed
    #: connection instead of reading them to the end.
    max_drain_bytes = 1 << 20

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.log_requests:
            super().log_message(format, *args)

    def _declared_body_length(self) -> int:
        self._body_unreadable: str | None = None
        if self.headers.get("Transfer-Encoding"):
            # This server never decodes chunked bodies; without a known
            # length the connection cannot be re-synchronised after the
            # response, so it must not be kept alive — and the request must
            # not silently run with an empty body in place of the one sent.
            self.close_connection = True
            self._body_unreadable = (
                "chunked request bodies are not supported (send Content-Length)"
            )
            return 0
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        try:
            length = int(raw)
            if length < 0:
                raise ValueError(raw)
            return length
        except ValueError:
            # Unparseable (or negative) framing: any body bytes on the wire
            # would desync the connection, so reject and close.
            self.close_connection = True
            self._body_unreadable = f"invalid Content-Length: {raw!r}"
            return 0

    def _drain_unread_body(self) -> None:
        """Consume whatever part of the request body was never read.

        Sending a response while unread body bytes sit on the socket
        corrupts HTTP/1.1 keep-alive: the next pipelined request would be
        parsed starting inside the previous request's body.  Every response
        path calls this first; oversized or unterminated bodies downgrade to
        ``Connection: close`` instead of being slurped.
        """
        remaining = getattr(self, "_unread_body", 0)
        self._unread_body = 0
        if remaining <= 0:
            return
        if remaining > self.max_drain_bytes:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        """Send one complete reply — status line, headers, blank line, body —
        in a single write (see the module docstring)."""
        self._drain_unread_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would send the buffered head on its own, leaving the
        # body for a second send; join them instead.  An HTTP/0.9 request
        # buffers no head at all and gets the bare body, as end_headers()
        # would have sent it.
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write((head + b"\r\n" + body) if head else body)

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        headers: Mapping[str, str] | None = None,
    ) -> None:
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError:
            # Standard JSON has no NaN/Infinity literal; a non-finite value
            # in a response is a server-side bug, not a client error.
            status = 500
            body = json.dumps(
                {"error": "internal error: response contained a non-finite number"}
            ).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _send_error_json(
        self, status: int, message: str, headers: Mapping[str, str] | None = None
    ) -> None:
        self._send_json(status, {"error": message}, headers=headers)

    def _read_body(self) -> dict[str, Any]:
        unreadable = getattr(self, "_body_unreadable", None)
        if unreadable:
            # A body was declared but cannot be read: reject, never execute
            # the request with defaults in place of the client's parameters.
            raise ServiceError(unreadable)
        length = getattr(self, "_unread_body", None)
        if length is None:
            length = self._declared_body_length()
        raw = self.rfile.read(length) if length else b""
        self._unread_body = 0
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"), parse_constant=_reject_non_finite)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except PrivacyError as exc:
            self._send_error_json(403, str(exc))
        except UnknownResourceError as exc:
            self._send_error_json(404, str(exc))
        except ReproError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, f"internal error: {exc}")
        else:
            self._send_json(status, payload)

    def _get_metrics(self) -> None:
        try:
            body = self.service.metrics.render()
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, f"internal error: {exc}")
            return
        # The Prometheus text exposition content type (format version 0.0.4).
        self._send(200, body.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8")

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._unread_body = self._declared_body_length()
        parsed = urlparse(self.path)
        if parsed.path == "/stats":
            self._dispatch(lambda: (200, self.service.stats()))
        elif parsed.path == "/capacity":
            board = self.capacity
            if board is None:
                self._send_error_json(
                    404, "no capacity board (server started without one)"
                )
            else:
                self._dispatch(lambda: (200, board.describe()))
        elif parsed.path == "/metrics":
            self._get_metrics()
        elif parsed.path == "/budget":
            query = parse_qs(parsed.query)
            session = (query.get("session") or [None])[0]

            def show_budget():
                if not session:
                    raise ServiceError("pass ?session=<id> to inspect a budget")
                return 200, self.service.budget(session)

            self._dispatch(show_budget)
        else:
            self._send_error_json(404, f"no such endpoint: {parsed.path}")

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        self._unread_body = self._declared_body_length()
        path = urlparse(self.path).path
        routes = {
            "/register": self._post_register,
            "/mutate": self._post_mutate,
            "/count": self._post_count,
            "/batch": self._post_batch,
            "/budget": self._post_budget,
        }
        handler = routes.get(path)
        if handler is None:
            self._send_error_json(404, f"no such endpoint: {path}")
            return
        board = self.capacity
        if board is not None and path in ("/count", "/batch"):
            # Admission control runs before any service work: a worker at
            # its inflight cap sheds immediately with 503 + Retry-After
            # instead of queueing the request behind the budget-ledger
            # lock (which would convoy every sibling worker).
            if not board.admit():
                # The hint scales with the board's queue depth/overcommit
                # ratio so clients back off proportionally to the overload
                # instead of hammering a drowning cluster once per second.
                retry_after = shed_retry_after(board.describe())
                self._send_error_json(
                    503,
                    "server at capacity, retry shortly",
                    headers={"Retry-After": str(retry_after)},
                )
                return
            try:
                self._dispatch(handler)
            finally:
                board.release()
        else:
            self._dispatch(handler)

    def _post_register(self):
        payload = self._read_body()
        name = payload.get("name")
        if not name:
            raise ServiceError("register payload needs a 'name'")
        replace = _as_type(payload.get("replace", False), "replace", bool)
        database = _database_from_payload(payload)
        entry = self.service.register_database(name, database, replace=replace)
        return 200, entry.describe()

    def _post_mutate(self):
        # Like /register, mutation bypasses capacity admission: it is
        # control-plane traffic and must not be shed behind query load.
        payload = self._read_body()
        name = _as_type(
            payload.get("database"), "database", str, nullable=True
        ) or _as_type(payload.get("name"), "name", str, nullable=True)
        if not name:
            raise ServiceError("mutate payload needs a 'database'")
        operations = payload.get("operations")
        if not isinstance(operations, list) or not operations:
            raise ServiceError("mutate payload needs a non-empty 'operations' list")
        return 200, self.service.mutate(name, operations)

    def _post_count(self):
        payload = self._read_body()
        _check_fields(
            payload, "count", ("database", "query", "epsilon"), ("session", "timings")
        )
        response = self.service.count(
            _as_type(payload["database"], "database", str),
            _as_type(payload["query"], "query", str),
            _as_float(payload["epsilon"], "epsilon"),
            session=_as_type(payload.get("session"), "session", str, nullable=True),
            timings=_as_type(payload.get("timings", False), "timings", bool),
        )
        return 200, response.to_dict()

    def _post_batch(self):
        payload = self._read_body()
        _check_fields(
            payload, "batch", ("database", "requests"), ("epsilon_total", "session", "timings")
        )
        epsilon_total = payload.get("epsilon_total")
        result = self.service.batch(
            _as_type(payload["database"], "database", str),
            _as_type(payload["requests"], "requests", list),
            session=_as_type(payload.get("session"), "session", str, nullable=True),
            epsilon_total=(
                _as_float(epsilon_total, "epsilon_total")
                if epsilon_total is not None
                else None
            ),
            timings=_as_type(payload.get("timings", False), "timings", bool),
        )
        return 200, result.to_dict()

    def _post_budget(self):
        payload = self._read_body()
        budget = payload.get("budget")
        session = self.service.create_session(
            budget=_as_float(budget, "budget") if budget is not None else None,
            session_id=_as_type(
                payload.get("session_id"), "session_id", str, nullable=True
            ),
        )
        return 200, session.describe()


def make_server(
    service: PrivateQueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    log_requests: bool = False,
    sock=None,
    capacity=None,
) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server bound to ``service``.

    The caller owns the lifecycle: ``server.serve_forever()`` to run,
    ``server.shutdown()``/``server.server_close()`` to stop.  Pass ``port=0``
    to bind an ephemeral port (``server.server_address`` has the real one).

    ``sock`` is an already-bound, already-listening socket to adopt instead
    of binding a fresh one — the prefork dispatcher
    (:class:`~repro.service.cluster.ClusterDispatcher`) binds once and every
    forked worker adopts the inherited descriptor, so the kernel's accept
    queue load-balances connections across workers.  ``capacity`` is an
    optional :class:`~repro.service.cluster.CapacityBoard` enabling
    admission control on ``/count``/``/batch``.

    Request threads are non-daemonic: ``server_close()`` joins every
    in-flight handler, which is what makes SIGTERM a *graceful* drain
    rather than mid-response connection resets.
    """
    handler = type(
        "BoundServiceRequestHandler",
        (ServiceRequestHandler,),
        {"service": service, "log_requests": log_requests, "capacity": capacity},
    )
    if sock is None:
        server = ThreadingHTTPServer((host, port), handler, bind_and_activate=False)
        server.daemon_threads = False
        try:
            server.server_bind()
            server.server_activate()
        except BaseException:
            server.server_close()
            raise
        return server
    server = ThreadingHTTPServer(sock.getsockname()[:2], handler, bind_and_activate=False)
    server.daemon_threads = False
    server.socket.close()  # discard the fresh unbound socket
    server.socket = sock
    host_name, port_number = sock.getsockname()[:2]
    server.server_address = (host_name, port_number)
    server.server_name = host_name
    server.server_port = port_number
    return server


def serve(
    service: PrivateQueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    log_requests: bool = False,
    sock=None,
    capacity=None,
    snapshot: bool = True,
    ready: Callable[[ThreadingHTTPServer], None] | None = None,
) -> None:
    """Serve ``service`` until SIGTERM (or Ctrl-C), then drain and close it.

    The arguments up to ``capacity`` go to :func:`make_server`; ``ready``
    runs once the socket is bound, before the first request is accepted
    (the CLI prints its banner there).  The accept loop polls for shutdown
    every 50 ms, so a SIGTERM starts the drain within one poll: the server
    stops accepting, ``server_close()`` joins every in-flight request, and
    ``service.close(snapshot=snapshot)`` flushes the journal (cluster
    workers pass ``snapshot=False``: a shared journal is compacted once, by
    the dispatcher).  Must run on the main thread, which owns signals.
    """
    server = make_server(
        service, host, port, log_requests=log_requests, sock=sock, capacity=capacity
    )

    def drain(signum, frame):
        # shutdown() blocks until serve_forever returns, so it must not run
        # on the serving thread the signal interrupted.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, drain)
    try:
        if ready is not None:
            ready(server)
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        service.close(snapshot=snapshot)
        signal.signal(signal.SIGTERM, previous)
