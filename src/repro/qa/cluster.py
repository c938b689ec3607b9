"""Differential verification of the prefork serving cluster.

:func:`verify_cluster_serve` replays generated fuzz workloads
(:class:`~repro.qa.generator.WorkloadGenerator`) through a *live*
multi-worker ``repro-dp serve`` process and requires every release to be
bitwise identical to the same workload run against an in-process
:class:`~repro.service.service.PrivateQueryService`.

The comparison is only possible because of ``charge-seq`` noise mode: each
noisy draw is a pure function of ``(seed, global charge ordinal)``, and the
shared journal gives every worker the same ordinal sequence.  Which worker
answers a request therefore cannot change the released value — exactly the
property this check enforces.  Any divergence (a skipped absorption, a
double-counted ordinal, a worker drawing from its own stream) shows up as
a float that is not bit-for-bit equal.

Each case registers its database and runs its query over a single
keep-alive connection: one connection is served by one worker, and
database *contents* never cross the journal, so the register and the count
must land on the same process.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.qa.generator import WorkloadGenerator
from repro.service.service import PrivateQueryService

__all__ = ["ClusterReport", "verify_cluster_serve"]

_BANNER_RE = re.compile(r"on http://([\d.]+):(\d+)")

#: Session budget large enough that no generated case is ever denied —
#: denials are legitimate but uninteresting here; the check targets the
#: noise path.
_SESSION_BUDGET = 1_000_000.0


@dataclass
class ClusterReport:
    """The outcome of one cluster-serve verification run."""

    seed: int
    cases: int
    workers: int
    failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "workers": self.workers,
            "ok": self.ok,
            "failures": list(self.failures),
        }


def _spawn_cluster(state_dir: str, edge_file: str, seed: int, workers: int):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--edge-file", edge_file, "--name", "base",
            "--port", "0", "--workers", str(workers),
            "--state-dir", state_dir,
            "--seed", str(seed), "--noise-mode", "charge-seq",
            "--session-budget", str(_SESSION_BUDGET),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("cluster server exited before binding")
        match = _BANNER_RE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    raise RuntimeError("cluster server never reported its address")


def _request(
    connection: http.client.HTTPConnection, method: str, path: str, payload: dict
) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    connection.request(
        method, path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def verify_cluster_serve(
    seed: int = 0,
    cases: int = 20,
    *,
    workers: int = 2,
) -> ClusterReport:
    """Replay ``cases`` fuzz workloads through a live ``workers``-process
    cluster and compare every release bitwise against an in-process service.
    """
    report = ClusterReport(seed=seed, cases=cases, workers=workers)
    generator = WorkloadGenerator(seed)

    # The in-process reference: same seed, same noise mode, no journal —
    # charge ordinals advance identically because the workload is replayed
    # in the same order.
    reference = PrivateQueryService(
        session_budget=_SESSION_BUDGET, rng=seed, noise_mode="charge-seq"
    )

    with tempfile.TemporaryDirectory(prefix="repro-cluster-qa-") as tmp:
        edge_file = os.path.join(tmp, "edges.txt")
        with open(edge_file, "w", encoding="utf-8") as handle:
            handle.write("0 1\n1 2\n2 0\n")
        state_dir = os.path.join(tmp, "state")
        proc, host, port = _spawn_cluster(state_dir, edge_file, seed, workers)
        try:
            for case in generator.cases(cases):
                name = f"case{case.index}"
                described = case.describe()
                register_payload = {
                    "name": name,
                    "relations": described["relations"],
                    "rows": described["rows"],
                }
                count_payload = {
                    "database": name,
                    "query": case.query_text,
                    "epsilon": case.epsilon,
                }
                # One keep-alive connection per case: register and count
                # must be answered by the same worker (contents never cross
                # the journal, only ledger and version records do).
                connection = http.client.HTTPConnection(host, port, timeout=60)
                try:
                    status, body = _request(
                        connection, "POST", "/register", register_payload
                    )
                    if status != 200:
                        report.failures.append(
                            {"case": case.index, "message": f"register -> {status}: {body}"}
                        )
                        continue
                    status, body = _request(connection, "POST", "/count", count_payload)
                finally:
                    connection.close()
                reference.register_database(name, case.database())
                reference_response = reference.count(
                    name, case.query_text, case.epsilon
                )
                if status != 200:
                    report.failures.append(
                        {"case": case.index, "message": f"count -> {status}: {body}"}
                    )
                    continue
                got = body.get("noisy_count")
                want = reference_response.noisy_count
                # JSON round-trips floats exactly (shortest-repr), so this
                # comparison really is bitwise.
                if got != want:
                    report.failures.append(
                        {
                            "case": case.index,
                            "message": (
                                f"release diverged: cluster {got!r} != "
                                f"in-process {want!r} "
                                f"(query {case.query_text!r}, eps {case.epsilon})"
                            ),
                        }
                    )
                elif body.get("sensitivity") != reference_response.sensitivity:
                    report.failures.append(
                        {
                            "case": case.index,
                            "message": (
                                f"sensitivity diverged: cluster "
                                f"{body.get('sensitivity')!r} != in-process "
                                f"{reference_response.sensitivity!r}"
                            ),
                        }
                    )
        finally:
            reference.close()
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=60)
    return report
