"""Prefork worker cluster for the HTTP serving layer.

``repro-dp serve --workers N`` scales the stdlib HTTP front end across N
processes the way classic prefork servers do:

1. The **dispatcher** binds the listening socket once (before forking) and
   ``fork()``s N workers.  Each worker inherits the bound descriptor and
   runs its own :func:`~repro.service.api.serve` accept loop on it — the
   kernel's accept queue is the load balancer; no userspace proxy.
2. Every worker opens the same ``--state-dir`` in **shared mode**
   (:class:`~repro.service.persistence.StateStore` with ``shared=True``):
   a per-mutation ``fcntl`` lock serialises each charge (check, release
   draw, journal record) across processes and each worker absorbs its
   siblings' journal records before every affordability check, so the
   budget ledgers remain the single source of truth and no session can be
   double-spent cluster-wide.
3. A **capacity board** — one page of anonymous shared memory mapped
   before the fork — tracks per-worker in-flight counts.  ``GET
   /capacity`` reports it pod-style (total/used/available), and admission
   control sheds ``/count``/``/batch`` load with ``503`` plus a
   load-derived ``Retry-After`` (see
   :func:`repro.service.api.shed_retry_after`) *before* a request can
   queue on the cross-process ledger lock.
4. The dispatcher **supervises**: a worker that dies (OOM, SIGKILL, bug)
   is detected by ``waitpid`` and respawned; the replacement recovers the
   shared journal on startup, so it resumes with the cluster-wide ledger
   (minus nothing — every granted charge was journaled before its
   response was sent).

SIGTERM/SIGINT to the dispatcher drains the whole cluster: each worker
stops accepting, finishes in-flight requests (request threads are
non-daemonic, so ``server_close()`` joins them), flushes its journal, and
exits 0; the dispatcher then reaps every child and compacts the journal
once — workers themselves never compact, because truncating the shared
journal would invalidate their siblings' read offsets.
"""

from __future__ import annotations

import mmap
import os
import signal
import socket
import struct
import threading
import time
from typing import Any, Callable

from repro.exceptions import ServiceError
from repro.service.api import serve
from repro.service.service import PrivateQueryService

__all__ = ["CapacityBoard", "ClusterDispatcher"]

#: Per-worker slot layout in the shared board: pid, inflight, served, shed.
_SLOT_FORMAT = "<qqqq"
_SLOT_SIZE = struct.calcsize(_SLOT_FORMAT)


class _Stop(Exception):
    """Raised by the dispatcher's signal handlers to break ``waitpid``.

    A plain flag does not work: PEP 475 makes a blocking ``os.waitpid``
    retry after ``EINTR``, so the signal handler must raise to get control
    back to the supervision loop.
    """


class CapacityBoard:
    """A shared-memory table of per-worker in-flight request counts.

    The board is one anonymous ``mmap`` created *before* the fork, so the
    dispatcher and every worker see the same physical page.  Each worker
    owns exactly one slot and is the only writer of its ``inflight``,
    ``served`` and ``shed`` fields (the dispatcher writes ``pid`` on
    (re)spawn); single-writer-per-field means plain stores are safe — a
    reader may observe a count that is one request stale, which is fine
    for capacity reporting and admission control alike.
    """

    def __init__(self, workers: int, max_inflight: int):
        if workers <= 0:
            raise ServiceError(f"worker count must be positive, got {workers}")
        if max_inflight <= 0:
            raise ServiceError(
                f"max inflight per worker must be positive, got {max_inflight}"
            )
        self.workers = workers
        self.max_inflight = max_inflight
        self._map = mmap.mmap(-1, workers * _SLOT_SIZE)
        self._index: int | None = None  # this process's slot, set by attach()
        self._lock = threading.Lock()  # request threads of one worker

    # ------------------------------------------------------------------ #
    # Slot access
    # ------------------------------------------------------------------ #
    def _read_slot(self, index: int) -> tuple[int, int, int, int]:
        return struct.unpack_from(_SLOT_FORMAT, self._map, index * _SLOT_SIZE)

    def _write_slot(
        self, index: int, pid: int, inflight: int, served: int, shed: int
    ) -> None:
        struct.pack_into(
            _SLOT_FORMAT, self._map, index * _SLOT_SIZE, pid, inflight, served, shed
        )

    def attach(self, index: int, pid: int) -> None:
        """Claim slot ``index`` for process ``pid`` (zeroing its counters)."""
        if not 0 <= index < self.workers:
            raise ServiceError(f"worker index {index} out of range 0..{self.workers - 1}")
        self._index = index
        self._write_slot(index, pid, 0, 0, 0)

    def mark_dead(self, index: int) -> None:
        """Record that the worker in slot ``index`` exited (dispatcher side)."""
        _, _, served, shed = self._read_slot(index)
        self._write_slot(index, 0, 0, served, shed)

    # ------------------------------------------------------------------ #
    # Admission control (called from the owning worker's request threads)
    # ------------------------------------------------------------------ #
    def admit(self) -> bool:
        """Try to take one in-flight slot; ``False`` sheds the request."""
        if self._index is None:
            raise ServiceError("capacity board is not attached to a worker slot")
        with self._lock:
            pid, inflight, served, shed = self._read_slot(self._index)
            if inflight >= self.max_inflight:
                self._write_slot(self._index, pid, inflight, served, shed + 1)
                return False
            self._write_slot(self._index, pid, inflight + 1, served, shed)
            return True

    def release(self) -> None:
        """Give back the slot taken by a successful :meth:`admit`."""
        with self._lock:
            pid, inflight, served, shed = self._read_slot(self._index)
            self._write_slot(
                self._index, pid, max(0, inflight - 1), served + 1, shed
            )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, Any]:
        """The pod-style capacity summary ``GET /capacity`` returns."""
        slots = [self._read_slot(index) for index in range(self.workers)]
        live = [slot for slot in slots if slot[0] > 0]
        total = self.max_inflight * max(1, len(live))
        used = sum(inflight for _, inflight, _, _ in live)
        return {
            "workers": [
                {
                    "index": index,
                    "pid": pid,
                    "alive": pid > 0,
                    "inflight": inflight,
                    "served": served,
                    "shed": shed,
                }
                for index, (pid, inflight, served, shed) in enumerate(slots)
            ],
            "total": total,
            "used": used,
            "available": max(0, total - used),
            "queue_depth": used,
            "overcommit_ratio": (used / total) if total else 0.0,
            "max_inflight_per_worker": self.max_inflight,
            "served": sum(served for _, _, served, _ in slots),
            "shed": sum(shed for _, _, _, shed in slots),
        }

    def bind_metrics(self, registry) -> None:
        """Expose the owning worker's slot on a metrics registry."""
        index = self._index

        def field(position: int) -> Callable[[], float]:
            return lambda: float(self._read_slot(index)[position])

        registry.gauge(
            "repro_capacity_inflight", "Requests currently executing on this worker"
        ).set_function(field(1))
        registry.gauge(
            "repro_capacity_max_inflight", "Admission-control cap per worker"
        ).set_function(lambda: float(self.max_inflight))
        registry.gauge(
            "repro_capacity_workers", "Configured worker count"
        ).set_function(lambda: float(self.workers))
        registry.counter(
            "repro_requests_shed_total",
            "Requests shed with 503 by admission control on this worker",
        ).set_callback(field(3))

    def close(self) -> None:
        """Unmap the shared page (the board is unusable afterwards)."""
        self._map.close()


class ClusterDispatcher:
    """Bind once, fork N workers, supervise, drain on SIGTERM.

    Parameters
    ----------
    host, port:
        The listen address; ``port=0`` binds an ephemeral port (read the
        real one from :attr:`address` after :meth:`bind`).
    workers:
        How many worker processes to fork.
    service_factory:
        ``service_factory(worker_label)`` builds each worker's
        :class:`~repro.service.service.PrivateQueryService` — called
        *after* the fork, in the child, so every worker owns its own
        caches, rng and journal handles (only the socket and the capacity
        board are inherited).
    max_inflight:
        Per-worker admission-control cap (see :class:`CapacityBoard`).
    finalize:
        Optional callable the dispatcher runs after every worker exited —
        the CLI uses it to compact the shared journal exactly once.
    """

    #: Seconds between a respawned worker's crash and the next respawn —
    #: a crash-looping worker must not busy-spin the dispatcher.
    respawn_delay = 0.2

    def __init__(
        self,
        host: str,
        port: int,
        workers: int,
        *,
        service_factory: Callable[[str], PrivateQueryService],
        max_inflight: int = 32,
        log_requests: bool = False,
        finalize: Callable[[], None] | None = None,
    ):
        if workers <= 0:
            raise ServiceError(f"worker count must be positive, got {workers}")
        self._host = host
        self._port = port
        self.workers = workers
        self._service_factory = service_factory
        self._log_requests = log_requests
        self._finalize = finalize
        self.board = CapacityBoard(workers, max_inflight)
        self._sock: socket.socket | None = None
        self._children: dict[int, int] = {}  # pid -> worker index
        self.respawns = 0

    # ------------------------------------------------------------------ #
    # Socket lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`bind`)."""
        if self._sock is None:
            raise ServiceError("dispatcher is not bound yet")
        return self._sock.getsockname()[:2]

    def bind(self) -> tuple[str, int]:
        """Bind and start listening (before any fork); returns the address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self._host, self._port))
            sock.listen(128)
            # Every worker's select() wakes on a new connection; the workers
            # that lose the accept() race must get BlockingIOError (which
            # socketserver ignores) rather than block in accept(), where
            # they would never see shutdown() and only die by SIGKILL.
            sock.setblocking(False)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        return self.address

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _worker_main(self, index: int) -> int:
        """The forked child's whole life; returns its exit code."""
        # The child must not inherit the dispatcher's supervision handlers.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self.board.attach(index, os.getpid())
        service = self._service_factory(f"w{index}")
        self.board.bind_metrics(service.metrics)
        try:
            # Closing the server closes the inherited listener in this
            # process only; shared stores never compact.
            serve(
                service,
                sock=self._sock,
                capacity=self.board,
                log_requests=self._log_requests,
                snapshot=False,
            )
        except Exception:
            return 1
        return 0

    # ------------------------------------------------------------------ #
    # Dispatcher side
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> None:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = self._worker_main(index)
            finally:
                # Never fall back into the dispatcher's stack: skip atexit
                # handlers and buffered-IO flushes of inherited state.
                os._exit(code)
        self._children[pid] = index
        self.board._write_slot(index, pid, 0, 0, 0)

    def serve(self) -> None:
        """Fork the workers and supervise until SIGTERM/SIGINT.

        Returns only after every worker exited and ``finalize`` ran.
        """
        if self._sock is None:
            self.bind()

        def request_stop(signum, frame):
            raise _Stop

        previous = {
            sig: signal.signal(sig, request_stop)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            for index in range(self.workers):
                self._spawn(index)
            while True:
                try:
                    pid, status = os.waitpid(-1, 0)
                except _Stop:
                    break
                except ChildProcessError:
                    break  # every child is gone (should not happen unprompted)
                index = self._children.pop(pid, None)
                if index is None:
                    continue
                # A worker died without being asked to: respawn it.  The
                # replacement recovers the shared journal before accepting,
                # so every charge the dead worker journaled survives.
                self.board.mark_dead(index)
                self.respawns += 1
                time.sleep(self.respawn_delay)
                self._spawn(index)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self._shutdown()

    def _shutdown(self) -> None:
        for pid in list(self._children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 30.0
        while self._children:
            reaped = []
            for pid in list(self._children):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    reaped.append(pid)
            for pid in reaped:
                self.board.mark_dead(self._children.pop(pid))
            if not self._children:
                break
            if time.monotonic() > deadline:  # pragma: no cover - last resort
                for pid in list(self._children):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    try:
                        os.waitpid(pid, 0)
                    except ChildProcessError:
                        pass
                    self.board.mark_dead(self._children.pop(pid))
                break
            time.sleep(0.02)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._finalize is not None:
            self._finalize()
        self.board.close()
