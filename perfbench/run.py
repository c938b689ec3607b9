"""Run one workload of the repository benchmark (see ``README.md`` beside this file).

    python3 perfbench/run.py --workload cold-paper --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
output names each of the workload's own metrics with its unit, the checks and
the environment, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` declares (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``; a per-layer metric whose
layer the workload does not run reads 0).  The full result, spans included,
is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Environment variables that pick an engine.  The benchmark measures the
#: defaults a user gets, so it removes them before importing the library
#: (the HTTP server it starts inherits the cleaned environment).
ENGINE_ENV = ("REPRO_BACKEND", "REPRO_NO_COMPILED", "REPRO_COMPILED_KERNELS")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no library source at {ROOT / 'src'}: run from a checkout")
    for name in ENGINE_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads  # after the engine variables are gone

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    undeclared = set(measured) - {m["name"] for m in declared}
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": outcome.failed == 0 and all(outcome.checks.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name} = {value} {unit}")
    print(f"  checks: {json.dumps(outcome.checks, sort_keys=True)}")
    print(f"  environment: {json.dumps(outcome.environment, sort_keys=True)}")
    for note in outcome.notes:
        print(f"  note: {note}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        **result,
        "workload": args.workload,
        "seconds": args.seconds,
        "report": {name: {"value": v, "unit": u} for name, (v, u) in outcome.report.items()},
        "checks": outcome.checks,
        "environment": outcome.environment,
        "notes": outcome.notes,
        "spans": outcome.spans,
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
