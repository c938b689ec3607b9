#!/usr/bin/env python
"""End-to-end contract check of the observability stack (used by CI).

Boots a real ``repro-dp serve`` subprocess with ``--log-json`` and
``--slow-ms``, drives a representative request mix over HTTP — session
creation, successful releases (with and without ``timings``), a batch, a
budget denial and an unknown-database error — then:

* scrapes ``GET /metrics`` and validates the body with the strict
  Prometheus text parser (``repro.obs.metrics.parse_prometheus_text``);
* asserts the expected metric families are present and that the request
  counters, latency histogram, ε accounting and denial counters reflect
  the traffic that was actually sent;
* checks the opt-in ``timings`` breakdown sums to its total;
* validates every structured log line against the pinned schema
  (``repro.obs.logs.validate_log_line``);
* asserts the ``GET /stats`` observability block counts the same traffic,
  and that every scraped ``repro_profiler_*`` series equals its ``/stats``
  ``profiler`` total.

Exit code 0 when every check passes; 1 with a report otherwise. Run from
anywhere::

    python scripts/check_metrics.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.logs import validate_log_line  # noqa: E402
from repro.obs.metrics import parse_prometheus_text  # noqa: E402

BOOT_TIMEOUT = 30.0
EDGES = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]
TRIANGLE = "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z"
#: Each ``repro_profiler_*`` series and the ``/stats`` ``profiler`` total it exposes.
PROFILER_SERIES = {
    ("repro_profiler_profiles_total", ()): "profiles_computed",
    ("repro_profiler_components_total", (("outcome", "evaluated"),)): "components_evaluated",
    ("repro_profiler_components_total", (("outcome", "deduplicated"),)): "component_hits",
    ("repro_profiler_components_total", (("outcome", "cached"),)): "component_cache_hits",
    ("repro_profiler_components_total", (("outcome", "delta"),)): "component_delta_updates",
    ("repro_profiler_factorization_total", (("outcome", "hit"),)): "factorization_hits",
    ("repro_profiler_factorization_total", (("outcome", "miss"),)): "factorization_misses",
}

_failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if condition:
        print(f"  ok: {message}")
    else:
        _failures.append(message)
        print(f"  FAIL: {message}")


def request(url: str, payload: dict | None = None) -> tuple[int, dict]:
    data = json.dumps(payload).encode() if payload is not None else None
    try:
        with urllib.request.urlopen(url, data=data, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_for_server(process: subprocess.Popen) -> str:
    """Parse the serve banner for the bound address (``--port 0`` is ephemeral)."""
    deadline = time.monotonic() + BOOT_TIMEOUT
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before serving (code {process.poll()})"
            )
        sys.stdout.write(f"  serve: {line}")
        if " on http://" in line:
            return line.rsplit(" on ", 1)[1].split()[0]
    raise RuntimeError("server did not print its serving banner in time")


def sample_values(families: dict) -> dict:
    """Flatten parsed families into ``(sample, sorted-label-items) -> value``."""
    return {
        (name, tuple(sorted(labels.items()))): value
        for family in families.values()
        for name, labels, value in family["samples"]
    }


def drive_traffic(base: str) -> None:
    print("driving traffic:")
    status, session = request(f"{base}/budget", {"budget": 2.0})
    check(status == 200, "POST /budget creates a session")
    session_id = session["session"]

    status, body = request(
        f"{base}/count", {"database": "wire", "query": TRIANGLE, "epsilon": 0.5}
    )
    check(status == 200 and "noisy_count" in body, "POST /count releases a count")
    check("timings" not in body, "timings stay opt-in")

    status, body = request(
        f"{base}/count",
        {"database": "wire", "query": TRIANGLE, "epsilon": 0.25, "timings": True},
    )
    check(status == 200 and body.get("trace_id"), "timings=true returns a trace_id")
    stages = body.get("timings") or {}
    parts = sum(v for k, v in stages.items() if k != "total")
    check(
        bool(stages) and abs(parts - stages["total"]) < 1e-6,
        "stage timings sum to the reported total",
    )

    status, body = request(
        f"{base}/batch",
        {
            "database": "wire",
            "requests": [
                {"query": TRIANGLE, "epsilon": 0.1},
                {"query": TRIANGLE, "epsilon": 0.1},
            ],
        },
    )
    check(
        status == 200 and body.get("deduplicated") == 1,
        "POST /batch deduplicates repeated shapes",
    )

    status, _ = request(
        f"{base}/count", {"database": "missing", "query": TRIANGLE, "epsilon": 0.5}
    )
    check(status == 404, "unknown database is a 404 error")

    status, _ = request(
        f"{base}/count",
        {"database": "wire", "query": TRIANGLE, "epsilon": 99.0, "session": session_id},
    )
    check(status == 403, "over-budget request is a 403 denial")


def check_metrics(base: str) -> dict:
    """Check the scrape; returns its flattened samples (see :func:`sample_values`)."""
    print("checking /metrics:")
    with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
        check(response.status == 200, "GET /metrics answers 200")
        content_type = response.headers.get("Content-Type", "")
        check(content_type.startswith("text/plain"), "content type is text/plain")
        text = response.read().decode("utf-8")
    families = parse_prometheus_text(text)  # raises on malformed exposition
    print(f"  ok: exposition parses ({len(families)} metric families)")

    for family in (
        "repro_requests_total",
        "repro_request_seconds",
        "repro_cache_requests_total",
        "repro_epsilon_charged_total",
        "repro_budget_denials_total",
        "repro_budget_charge_seconds",
        "repro_batch_items_total",
        "repro_slow_requests_total",
        "repro_profiler_profiles_total",
        "repro_profiler_components_total",
        "repro_profiler_factorization_total",
        "repro_sessions_active",
        "repro_audit_records_total",
        "repro_shared_budget_remaining_epsilon",
    ):
        check(family in families, f"family {family} is exposed")

    values = sample_values(families)
    # 2 direct /count releases + 1 deduplicated batch group (batch groups
    # run through the same count core, so they are served count requests).
    ok_counts = values.get(
        ("repro_requests_total", (("endpoint", "count"), ("status", "ok"))), 0.0
    )
    check(ok_counts == 3.0, f"3 ok count requests counted (saw {ok_counts})")
    errors = values.get(
        ("repro_requests_total", (("endpoint", "count"), ("status", "error"))), 0.0
    )
    check(errors == 2.0, f"2 errored /count requests counted (saw {errors})")
    # The latency histogram observes error requests too: 3 ok + 2 errors.
    latency = values.get(
        ("repro_request_seconds_count", (("endpoint", "count"),)), 0.0
    )
    check(latency == 5.0, f"latency histogram observed 5 requests (saw {latency})")
    # 0.5 + 0.25 from /count, 0.1 for the deduplicated batch group.
    charged = values.get(("repro_epsilon_charged_total", ()), 0.0)
    check(abs(charged - 0.85) < 1e-9, f"epsilon accounting adds up (saw {charged})")
    denials = values.get(
        ("repro_budget_denials_total", (("endpoint", "count"),)), 0.0
    )
    check(denials == 1.0, f"1 budget denial counted (saw {denials})")
    dedup = values.get(
        ("repro_batch_items_total", (("outcome", "deduplicated"),)), 0.0
    )
    check(dedup == 1.0, f"1 deduplicated batch item counted (saw {dedup})")
    sessions = values.get(("repro_sessions_active", ()), 0.0)
    check(sessions == 1.0, f"1 active session gauged (saw {sessions})")
    return values


def check_stats(base: str, values: dict) -> None:
    """Check ``/stats`` against the traffic and against the scrape ``values``
    taken right before it (no traffic in between)."""
    print("checking /stats:")
    status, stats = request(f"{base}/stats")
    check(status == 200, "GET /stats answers 200")
    observability = stats.get("observability") or {}
    traces = observability.get("traces_started")
    check(traces == 1, f"1 trace started, by the timings request (saw {traces})")
    errored = observability.get("requests_errored")
    check(errored == 2, f"2 errored requests counted (saw {errored})")
    check(observability.get("slow_ms") == 0.0, "the --slow-ms threshold is reported")
    lines = observability.get("log_lines_written", 0)
    check(lines >= 5, "log lines were written")
    check(
        observability.get("slow_requests") == lines,
        "--slow-ms 0 marks every logged request slow",
    )
    check(
        "repro_requests_total" in observability.get("metrics", []),
        "declared metric names are listed",
    )
    check(stats.get("epsilon_charged") == 0.85, "stats epsilon_charged matches")
    profiler = stats.get("profiler") or {}
    check(profiler.get("profiles_computed", 0) >= 1, "the traffic computed a profile")
    scraped = {key for key in values if key[0].startswith("repro_profiler_")}
    check(
        scraped == set(PROFILER_SERIES),
        f"the {len(scraped)} repro_profiler_* series each map to a /stats total",
    )
    for key, total in PROFILER_SERIES.items():
        check(
            values.get(key) == float(profiler.get(total, -1)),
            f"{key[0]}{dict(key[1]) or ''} equals /stats profiler.{total} "
            f"({values.get(key)} vs {profiler.get(total)})",
        )


def check_logs(log_path: Path) -> None:
    print("checking structured logs:")
    lines = log_path.read_text(encoding="utf-8").splitlines()
    check(len(lines) >= 5, f"one log line per request (saw {len(lines)})")
    statuses: list[str] = []
    try:
        for line in lines:
            record = validate_log_line(line)
            statuses.append(record["status"])
    except ValueError as error:
        check(False, f"log line validates against the pinned schema: {error}")
    else:
        print(f"  ok: all {len(lines)} log lines validate against the pinned schema")
    check("error" in statuses, "error requests are logged")
    # --slow-ms 0 marks every completed request slow.
    check(
        any(json.loads(line)["slow"] for line in lines),
        "slow marking is applied",
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        edge_file = Path(tmp) / "wire.txt"
        edge_file.write_text("".join(f"{u} {v}\n" for u, v in EDGES))
        log_path = Path(tmp) / "requests.jsonl"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--edge-file", str(edge_file), "--name", "wire",
                "--port", "0", "--seed", "0",
                "--session-budget", "2.0", "--total-budget", "10.0",
                "--log-json", str(log_path), "--slow-ms", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=ROOT,
        )
        try:
            base = wait_for_server(process)
            drive_traffic(base)
            check_stats(base, check_metrics(base))
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        check_logs(log_path)

    if _failures:
        print(f"\n{len(_failures)} check(s) FAILED:")
        for failure in _failures:
            print(f"  - {failure}")
        return 1
    print("\nall observability checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
