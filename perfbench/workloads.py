"""The benchmark's three workloads.

Each workload sets up (several times, keeping the last), measures for the
requested number of seconds, checks its outputs and returns an
:class:`Outcome`.  End-to-end metrics come from untraced operations; with
``trace=True`` a share of the operations runs with span wrappers installed
(in process) or with ``"timings": true`` (over HTTP), and the per-layer
metrics come from those alone.

Every workload reports the same end-to-end metrics, each about its own
unit of work (its *operation*):

* ``cold-paper`` — one cold pass: a fresh database and service, then one
  residual ``count`` per shape of :data:`inputs.COLD_SHAPES`;
* ``warm-http`` — one ``POST /count`` on a keep-alive connection, every
  cache warm;
* ``mutate-requery`` — one ``Member`` row replaced plus the re-query of the
  ``Member``-joined triangle.
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import inputs
from measure import (
    SpanRecorder,
    Target,
    digest,
    digest_matches,
    hit_ratio,
    install,
    ledger_exact,
    median,
    release_record,
    tail_percentile,
)

import repro.engine.join as join_module
import repro.service.service as service_module
from repro.sensitivity.residual import ResidualSensitivity
from repro.service.service import PrivateQueryService
from repro.service.sessions import SessionManager

#: Release digests recorded per seed; a run on a recorded seed must match.
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"
#: Set-up runs at least this many times (and, when it is quick, for at least
#: :data:`SETUP_MIN_S` in all); ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.2
BUDGET = 1e9
CACHES = ("plan", "profile", "sensitivity", "count", "component")

COLD_EPSILON = 1.0
COLD_MIN_PASSES = 2
#: A traced run alternates untraced and traced passes, starting and ending
#: untraced, so the first pass of the process is not the whole base of
#: ``trace_overhead``.
COLD_MIN_TRACED_RUN_PASSES = 3

#: The warm run holds at least this many requests, so ten fall beyond p99.
WARM_MIN_REQUESTS = 1000
WARM_CLIENTS = 2
#: Traced warm runs first measure an untraced reference window this long
#: (as a share of ``--seconds``), the base of ``trace_overhead``.
WARM_REFERENCE_SHARE = 1 / 3
#: Bound on the server's graceful drain after SIGTERM before it is killed.
DRAIN_DEADLINE_S = 10.0

MUTATE_EPSILON = 0.5
#: Rounds whose releases form the recorded ``mutate-requery`` digest.
DIGEST_ROUNDS = 8


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: The workload's own metrics by name: ``{name: (value, unit)}``.
    report: dict[str, tuple[Any, str]] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        """Record a correctness check; a failed one counts as a failure."""
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed += 1

    def error(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{what}: {type(exc).__name__}: {exc}")


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    workload = WORKLOADS[name]
    outcome = workload(seed, seconds, trace, work)
    outcome.report["error_rate"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 1.0, "ratio"
    )
    return outcome


def _recorded_digest(workload: str, seed: int) -> str | None:
    return json.loads(DIGESTS_FILE.read_text()).get(str(seed), {}).get(workload)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, backends: set[str], default_backend: str) -> dict[str, Any]:
    """What the result depends on besides the code: machine, versions, seed."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "backend_answered": sorted(backends),
        "default_backend": default_backend,
    }


# --------------------------------------------------------------------- #
# Per-layer views of the in-process spans
# --------------------------------------------------------------------- #
def _record_profile_stats(span, profile) -> None:
    stats = profile.stats
    span.attrs.update(
        components_evaluated=stats.components_evaluated,
        component_hits=stats.component_hits,
        component_cache_hits=stats.component_cache_hits,
        factorization_misses=stats.factorization_misses,
    )


def engine_targets() -> list[Target]:
    """The public entry points the traced in-process runs time."""
    return [
        Target(PrivateQueryService, "count", "count"),
        Target(PrivateQueryService, "plan", "plan"),
        Target(PrivateQueryService, "mutate", "mutate"),
        Target(ResidualSensitivity, "profile", "profile", _record_profile_stats),
        Target(ResidualSensitivity, "compute", "sensitivity"),
        Target(service_module, "count_query", "true_count"),
        Target(join_module, "group_counts", "join"),
        Target(join_module, "count_assignments", "join"),
        Target(SessionManager, "begin_charge", "charge"),
        Target(service_module.PrivateCountingQuery, "release", "release"),
    ]


def shape_layers(recorder: SpanRecorder, shape: str) -> dict[str, float]:
    """Engine-layer time and counts spent on one shape's requests."""
    indexed = list(enumerate(recorder.spans))
    profiles = [s for s in recorder.spans if s.name == "profile" and s.tag == shape]
    joins = [s for s in recorder.outermost("join") if s.tag == shape]
    values = {
        f"profile.ms.{shape}": sum(s.ms for s in profiles),
        f"sensitivity.ms.{shape}": sum(
            recorder.self_ms(i) for i, s in indexed if s.name == "sensitivity" and s.tag == shape
        ),
        f"true_count.ms.{shape}": sum(
            s.ms for s in recorder.spans if s.name == "true_count" and s.tag == shape
        ),
        f"join.enumerate_ms.{shape}": sum(s.ms for s in joins),
        f"join.enumerate_calls.{shape}": float(len(joins)),
    }
    for key in ("components_evaluated", "component_hits", "factorization_misses"):
        values[f"profile.{key}.{shape}"] = float(sum(s.attrs.get(key, 0) for s in profiles))
    return values


def request_layers(recorder: SpanRecorder) -> dict[str, list[float]]:
    """Per-request stage times of every traced ``count``, for medians."""
    stages: dict[str, list[float]] = {"plan": [], "charge": [], "release": [], "self": []}
    for index, span in enumerate(recorder.spans):
        if span.name != "count":
            continue
        children = recorder.children(index)
        for stage in ("plan", "charge", "release"):
            stages[stage].append(sum(c.ms for c in children if c.name == stage))
        stages["self"].append(recorder.self_ms(index))
    return stages


def _stage_medians(stages: dict[str, list[float]]) -> dict[str, float]:
    return {
        "plan.ms.p50": median(stages["plan"]),
        "charge.ms.p50": median(stages["charge"]),
        "release.ms.p50": median(stages["release"]),
        "service.self_ms.p50": median(stages["self"]),
    }


def _merge_stages(into: dict[str, list[float]], more: dict[str, list[float]]) -> None:
    for key, values in more.items():
        into.setdefault(key, []).extend(values)


def _cache_snapshot(stats: dict[str, Any]) -> dict[str, dict[str, int]]:
    return {name: dict(stats["caches"][name]) for name in CACHES}


def _cache_ratios(before, after) -> dict[str, float]:
    return {f"cache.{n}.hit_ratio": hit_ratio(before[n], after[n]) for n in CACHES}


def _journal_bytes_per_record(state_dir: Path) -> float:
    journal = state_dir / "journal.jsonl"
    if not journal.exists():
        return 0.0
    data = journal.read_bytes()
    lines = data.count(b"\n")
    return len(data) / lines if lines else 0.0


# --------------------------------------------------------------------- #
# cold-paper
# --------------------------------------------------------------------- #
def cold_paper(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    noise_seed = inputs.derive_seed(seed, "cold.noise")
    expected = _recorded_digest("cold-paper", seed)
    backends: set[str] = set()
    default_backend = ""

    def setup():
        edges = inputs.paper_edges(seed)
        service = PrivateQueryService(session_budget=BUDGET, rng=noise_seed)
        service.register_database("g", inputs.edge_database(edges))
        service.close()
        return edges

    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        elapsed, edges = _timed(setup)
        setups.append(elapsed)

    def one_pass(recorder: SpanRecorder | None):
        nonlocal default_backend
        start = time.perf_counter()
        service = PrivateQueryService(session_budget=BUDGET, rng=noise_seed)
        service.register_database("g", inputs.edge_database(edges))
        session = service.create_session().session_id
        times: dict[str, float] = {}
        records = []
        try:
            for shape, text in inputs.COLD_SHAPES.items():
                if recorder is not None:
                    recorder.tag = shape
                out.attempted += 1
                begin = time.perf_counter()
                try:
                    response = service.count("g", text, epsilon=COLD_EPSILON, session=session)
                except Exception as exc:  # a failed request is a measured outcome
                    out.error(f"count {shape}", exc)
                    continue
                times[shape] = time.perf_counter() - begin
                records.append([shape, *release_record(response.noisy_count, response.sensitivity)])
                backends.add(response.backend)
            stats = service.stats()
        finally:
            service.close()
        default_backend = stats["backends"]["default"]
        return time.perf_counter() - start, times, records, stats

    passes: list[float] = []
    traced_passes: list[float] = []
    shape_times: dict[str, list[float]] = {shape: [] for shape in inputs.COLD_SHAPES}
    first_records = None
    shape_values: list[dict[str, float]] = []
    stages: dict[str, list[float]] = {}
    ratios: dict[str, float] = {}
    spans: list[dict[str, Any]] = []
    window_start = time.perf_counter()
    min_passes = COLD_MIN_TRACED_RUN_PASSES if trace else COLD_MIN_PASSES
    while len(passes) + len(traced_passes) < min_passes or (
        time.perf_counter() - window_start + median(passes + traced_passes) <= seconds
    ):
        traced = trace and (len(passes) + len(traced_passes)) % 2 == 1
        recorder = SpanRecorder() if traced else None
        restore = install(recorder, engine_targets()) if traced else None
        try:
            elapsed, times, records, stats = one_pass(recorder)
        finally:
            if restore is not None:
                restore()
        if first_records is None:
            first_records = records
        else:
            out.check("passes_bitwise_equal", records == first_records)
        if traced:
            traced_passes.append(elapsed)
            values = {}
            for shape in inputs.COLD_SHAPES:
                values.update(shape_layers(recorder, shape))
            values["profile.component_cache_hits"] = float(
                sum(s.attrs.get("component_cache_hits", 0) for s in recorder.spans if s.name == "profile")
            )
            shape_values.append(values)
            _merge_stages(stages, request_layers(recorder))
            fresh = {name: {"hits": 0, "misses": 0} for name in CACHES}
            ratios = _cache_ratios(fresh, _cache_snapshot(stats))
            spans = recorder.to_json()
        else:
            passes.append(elapsed)
            for shape, value in times.items():
                shape_times[shape].append(value)

    actual = digest(first_records)
    out.check("digest_matches_recorded", digest_matches(first_records, expected))
    out.report["digest"] = (actual, "sha256")
    out.report["cold_mix_s"] = (median(passes), "s")
    for shape, values in shape_times.items():
        out.report[f"cold_ms.{shape}"] = (median(values) * 1e3, "ms")
    out.report["passes"] = (len(passes), "count")
    out.end_to_end = {
        "setup_s": median(setups),
        "op_p50_ms": median(passes) * 1e3,
        "peak_rss_mib": _peak_rss_mib(),
    }
    if trace:
        layers = {key: median(v[key] for v in shape_values) for key in shape_values[0]}
        profile_ms = sum(v for k, v in layers.items() if k.startswith("profile.ms."))
        true_ms = sum(v for k, v in layers.items() if k.startswith("true_count.ms."))
        join_ms = sum(v for k, v in layers.items() if k.startswith("join.enumerate_ms."))
        layers["join.share"] = join_ms / (profile_ms + true_ms) if profile_ms + true_ms else 0.0
        layers.update(_stage_medians(stages))
        layers.update(ratios)
        layers["trace_overhead"] = median(traced_passes) / median(passes)
        out.report["trace_overhead_base_ms"] = (median(passes) * 1e3, "ms")
        out.per_layer = layers
        out.spans = spans
    out.environment = environment(seed, backends, default_backend)
    return out


# --------------------------------------------------------------------- #
# warm-http
# --------------------------------------------------------------------- #
_BANNER = re.compile(r"on http://([\d.]+):(\d+)")


def server_environment() -> dict[str, str]:
    """This process's environment (engine variables already removed) plus ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(service_module.__file__).resolve().parents[2])
    return env


class Server:
    """A ``repro-dp serve --workers 1`` subprocess, stopped with a bounded drain."""

    def __init__(self, edge_file: Path, state_dir: Path, seed: int, log: Path):
        self._log_path = log
        self._log = open(log, "w")
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--edge-file", str(edge_file), "--name", "g", "--port", "0",
            "--workers", "1", "--state-dir", str(state_dir),
            "--seed", str(seed), "--session-budget", str(BUDGET),
        ]
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=server_environment()
        )
        try:
            self.port = self._await_banner(deadline=time.monotonic() + 120)
        except BaseException:
            self.stop()
            raise

    def _await_banner(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            match = _BANNER.search(self._log_path.read_text())
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self._log_path.read_text()[-2000:]}")
            time.sleep(0.01)
        raise RuntimeError("server never reported its address")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def peak_rss_mib(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> dict[str, Any]:
        """SIGTERM, wait up to :data:`DRAIN_DEADLINE_S`, then kill."""
        start = time.perf_counter()
        overran = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_DEADLINE_S)
            except subprocess.TimeoutExpired:
                overran = True
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return {"drain_s": time.perf_counter() - start, "drain_overran": overran}


def call(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    return response.status, (json.loads(payload) if payload else None)


def _ok(status_payload):
    status, payload = status_payload
    if status != 200:
        raise RuntimeError(f"HTTP {status}: {payload}")
    return payload


@dataclass
class _Client:
    session: str
    rng: np.random.Generator
    charged: list[float] = field(default_factory=list)
    timings: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    backends: set[str] = field(default_factory=set)


def warm_http(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    edge_file = work / "edges.txt"
    inputs.write_edge_file(inputs.paper_edges(seed), edge_file)
    combos = [(text, eps) for text in inputs.WARM_SHAPES.values() for eps in inputs.WARM_EPSILONS]
    noise_seed = inputs.derive_seed(seed, "warm.noise")

    def setup(index: int):
        server = Server(edge_file, work / f"state{index}", noise_seed, work / f"server{index}.log")
        try:
            conn = server.connect()
            try:
                warm = _ok(call(conn, "POST", "/budget", {"budget": BUDGET}))["session"]
                for text, eps in combos:
                    _ok(call(conn, "POST", "/count", {
                        "database": "g", "query": text, "epsilon": eps, "session": warm,
                    }))
                sessions = [
                    _ok(call(conn, "POST", "/budget", {"budget": BUDGET}))["session"]
                    for _ in range(WARM_CLIENTS)
                ]
            finally:
                conn.close()
        except BaseException:
            server.stop()
            raise
        return server, sessions

    setups = []
    drains = []
    for index in range(SETUP_REPEATS):
        elapsed, (server, sessions) = _timed(lambda: setup(index))
        setups.append(elapsed)
        if index < SETUP_REPEATS - 1:
            drains.append(server.stop())

    clients = [
        _Client(session, np.random.default_rng(inputs.derive_seed(seed, f"warm.client{i}")))
        for i, session in enumerate(sessions)
    ]
    lock = threading.Lock()

    def window(window_seconds: float, min_requests: int, timings: bool):
        """Run both closed-loop clients; returns (elapsed, answered latencies)."""
        done = [0]
        start = time.perf_counter()

        def finished() -> bool:
            elapsed = time.perf_counter() - start
            return elapsed >= 3 * window_seconds or (
                elapsed >= window_seconds and done[0] >= min_requests
            )

        def loop(client: _Client, latencies: list[float]) -> None:
            conn = server.connect()
            try:
                while not finished():
                    text, eps = combos[int(client.rng.integers(len(combos)))]
                    body = {"database": "g", "query": text, "epsilon": eps, "session": client.session}
                    if timings:
                        body["timings"] = True
                    with lock:
                        out.attempted += 1
                    begin = time.perf_counter()
                    try:
                        status, payload = call(conn, "POST", "/count", body)
                    except Exception as exc:
                        with lock:
                            out.error("POST /count", exc)
                        conn.close()
                        conn = server.connect()
                        continue
                    latency = time.perf_counter() - begin
                    if status != 200:
                        with lock:
                            out.error("POST /count", RuntimeError(f"HTTP {status}: {payload}"))
                        continue
                    latencies.append(latency)
                    client.charged.append(eps)
                    client.backends.add(payload["backend"])
                    if timings:
                        client.timings.append((latency, payload["timings"]))
                    with lock:
                        done[0] += 1
            finally:
                conn.close()

        per_client: list[list[float]] = [[] for _ in clients]
        threads = [
            threading.Thread(target=loop, args=(client, per_client[i]))
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start, [x for latencies in per_client for x in latencies]

    conn = server.connect()
    try:
        stats_before = _ok(call(conn, "GET", "/stats"))
        reference: list[float] = []
        if trace:
            _, reference = window(seconds * WARM_REFERENCE_SHARE, 0, timings=False)
            stats_before = _ok(call(conn, "GET", "/stats"))
        elapsed, latencies = window(seconds, WARM_MIN_REQUESTS, timings=trace)
        stats_after = _ok(call(conn, "GET", "/stats"))
        for client in clients:
            view = _ok(call(conn, "GET", f"/budget?session={client.session}"))
            out.check("ledger_exact", ledger_exact(view["spent"], client.charged))
        rss = server.peak_rss_mib()
        # Read before the drain, which compacts the journal into a snapshot.
        per_record = _journal_bytes_per_record(work / f"state{SETUP_REPEATS - 1}")
    finally:
        conn.close()
        drains.append(server.stop())

    backends = set().union(*(c.backends for c in clients))
    p99 = tail_percentile(latencies, 0.99)
    out.report["throughput_rps"] = (len(latencies) / elapsed, "1/s")
    out.report["count_p50_ms"] = (median(latencies) * 1e3, "ms")
    out.report["count_p99_ms"] = (p99 * 1e3 if p99 is not None else None, "ms")
    out.report["requests"] = (len(latencies), "count")
    out.report["drain_max_s"] = (max(d["drain_s"] for d in drains), "s")
    out.report["drain_overruns"] = (sum(d["drain_overran"] for d in drains), "count")
    out.end_to_end = {
        "setup_s": median(setups),
        "op_p50_ms": median(latencies) * 1e3,
        "peak_rss_mib": rss,
    }
    if trace:
        samples = [t for c in clients for t in c.timings]
        api = [latency * 1e3 - timings["total"] for latency, timings in samples]
        api_p99 = tail_percentile(api, 0.99)
        if api_p99 is None:
            out.notes.append(f"api.self_ms.p99: only {len(api)} traced requests; reported as 0")
        layers = {
            "api.self_ms.p50": median(api),
            "api.self_ms.p99": api_p99 or 0.0,
            "service.self_ms.p50": median(t["other"] for _, t in samples),
            "plan.ms.p50": median(t["plan"] for _, t in samples),
            "charge.ms.p50": median(t["charge"] for _, t in samples),
            "release.ms.p50": median(t["release"] for _, t in samples),
            "trace_overhead": median(latencies) / median(reference),
        }
        layers.update(_cache_ratios(_cache_snapshot(stats_before), _cache_snapshot(stats_after)))
        records = (
            stats_after["persistence"]["last_seq"] - stats_before["persistence"]["last_seq"]
        )
        layers["journal.bytes_per_request"] = per_record * records / len(latencies)
        out.report["trace_overhead_base_ms"] = (median(reference) * 1e3, "ms")
        out.per_layer = layers
    out.environment = environment(seed, backends, stats_after["backends"]["default"])
    return out


# --------------------------------------------------------------------- #
# mutate-requery
# --------------------------------------------------------------------- #
def mutate_requery(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    noise_seed = inputs.derive_seed(seed, "mutate.noise")
    edges, groups = inputs.mutation_rows(seed)
    expected = _recorded_digest("mutate-requery", seed)

    def setup(index: int):
        state_dir = work / f"state{index}"
        service = PrivateQueryService(
            session_budget=BUDGET, rng=noise_seed, state_dir=str(state_dir)
        )
        service.register_database("g", inputs.mutation_database(edges, groups))
        session = service.create_session().session_id
        for text in (inputs.MEMBER_TRIANGLE, inputs.EDGE_TRIANGLE):
            service.count("g", text, epsilon=MUTATE_EPSILON, session=session)
        return service, session, state_dir

    setups = []
    for index in range(SETUP_REPEATS):
        elapsed, (service, session, state_dir) = _timed(lambda: setup(index))
        setups.append(elapsed)
        if index < SETUP_REPEATS - 1:
            service.close()

    order = np.random.default_rng(inputs.derive_seed(seed, "mutate.order")).permutation(
        inputs.NUM_NODES
    )
    away = inputs.GROUPS + 1
    untraced: list[float] = []
    traced: list[float] = []
    records = []
    backends: set[str] = set()
    mutate_ms: list[float] = []
    shape_values: list[dict[str, float]] = []
    component_cache_hits: list[float] = []
    stages: dict[str, list[float]] = {}
    spans: list[dict[str, Any]] = []
    try:
        stats_before = service.stats()
        start = time.perf_counter()
        rounds = 0
        while rounds < DIGEST_ROUNDS or time.perf_counter() - start < seconds:
            node = int(order[(rounds // 2) % inputs.NUM_NODES])
            home = groups[node]
            old, new = ([node, home], [node, away]) if rounds % 2 == 0 else ([node, away], [node, home])
            operation = [{"relation": "Member", "op": "replace", "old": old, "new": new}]
            is_traced = trace and (rounds // 2) % 2 == 1
            recorder = SpanRecorder() if is_traced else None
            restore = install(recorder, engine_targets()) if is_traced else None
            out.attempted += 3
            try:
                if recorder is not None:
                    recorder.tag = "member_triangle"
                begin = time.perf_counter()
                try:
                    service.mutate("g", operation)
                    member = service.count(
                        "g", inputs.MEMBER_TRIANGLE, epsilon=MUTATE_EPSILON, session=session
                    )
                except Exception as exc:
                    out.error("mutate + re-query", exc)
                    rounds += 1
                    continue
                latency = time.perf_counter() - begin
                if recorder is not None:
                    recorder.tag = "edge_triangle"
                try:
                    edge = service.count(
                        "g", inputs.EDGE_TRIANGLE, epsilon=MUTATE_EPSILON, session=session
                    )
                except Exception as exc:
                    out.error("edge re-query", exc)
                    rounds += 1
                    continue
            finally:
                if restore is not None:
                    restore()
            out.check("edge_query_stays_cached", edge.count_cache_hit)
            backends.update((member.backend, edge.backend))
            if rounds < DIGEST_ROUNDS:
                records.append(
                    release_record(member.noisy_count, member.sensitivity)
                    + release_record(edge.noisy_count, edge.sensitivity)
                )
            if recorder is not None:
                traced.append(latency)
                mutate_ms.extend(s.ms for s in recorder.spans if s.name == "mutate")
                shape_values.append(shape_layers(recorder, "member_triangle"))
                component_cache_hits.append(float(sum(
                    s.attrs.get("component_cache_hits", 0)
                    for s in recorder.spans if s.name == "profile"
                )))
                _merge_stages(stages, request_layers(recorder))
                spans = recorder.to_json()
            else:
                untraced.append(latency)
            rounds += 1
        stats_after = service.stats()
        # Read before close(), which compacts the journal into a snapshot.
        per_record = _journal_bytes_per_record(state_dir)
    finally:
        service.close()

    out.check("digest_matches_recorded", digest_matches(records, expected))
    out.report["digest"] = (digest(records), "sha256")
    out.report["update_p50_ms"] = (median(untraced) * 1e3, "ms")
    out.report["rounds"] = (len(untraced) + len(traced), "count")
    out.end_to_end = {
        "setup_s": median(setups),
        "op_p50_ms": median(untraced) * 1e3,
        "peak_rss_mib": _peak_rss_mib(),
    }
    if trace:
        layers = {key: median(v[key] for v in shape_values) for key in shape_values[0]}
        layers["registry.mutate_ms.p50"] = median(mutate_ms)
        layers["profile.component_cache_hits"] = median(component_cache_hits)
        layers.update(_stage_medians(stages))
        layers.update(_cache_ratios(_cache_snapshot(stats_before), _cache_snapshot(stats_after)))
        records_written = (
            stats_after["persistence"]["last_seq"] - stats_before["persistence"]["last_seq"]
        )
        requests = 3 * (len(untraced) + len(traced))
        layers["journal.bytes_per_request"] = per_record * records_written / requests
        layers["trace_overhead"] = median(traced) / median(untraced)
        out.report["trace_overhead_base_ms"] = (median(untraced) * 1e3, "ms")
        out.per_layer = layers
        out.spans = spans
    out.environment = environment(seed, backends, stats_after["backends"]["default"])
    return out


WORKLOADS = {
    "cold-paper": cold_paper,
    "warm-http": warm_http,
    "mutate-requery": mutate_requery,
}
