"""Helpers shared by the benchmark modules.

Environment variables controlling the benchmarks:

``REPRO_BENCH_SCALE``
    Surrogate scale factor (default 0.015 — a few hundred vertices per
    dataset).  The paper-shape conclusions are scale-free; see EXPERIMENTS.md.
``REPRO_BENCH_FULL``
    Set to ``1`` to run every dataset × query combination instead of the
    representative subset (substantially slower in pure Python).
``REPRO_BENCH_SEED``
    Master seed (default 0) for *every* source of randomness in the
    benchmark suite: workload construction, surrogate graphs, and noise.

Seed discipline: benchmark modules must not hard-code seeds or call
``np.random`` directly — they derive per-stream seeds with
:func:`derive_seed` (or take a generator from :func:`bench_rng`), so one
environment variable reproduces every workload bit-for-bit and the seed is
recorded in the pytest-benchmark JSON (see ``conftest.py``).
``tests/test_bench_seed.py`` enforces this by scanning the benchmark
sources for literal ``seed=``/``rng=`` arguments.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

__all__ = [
    "bench_scale",
    "bench_seed",
    "bench_rng",
    "derive_seed",
    "full_run",
    "seed_record",
    "trend_baseline",
    "trend_gate",
]

#: Environment variable holding the master benchmark seed.
BENCH_SEED_ENV = "REPRO_BENCH_SEED"


def bench_scale() -> float:
    """The surrogate scale factor used by dataset-driven benchmarks."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.015"))


def full_run() -> bool:
    """Whether to run the full dataset × query grid."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_seed() -> int:
    """The master benchmark seed (``REPRO_BENCH_SEED``, default 0)."""
    return int(os.environ.get(BENCH_SEED_ENV, "0"))


def derive_seed(stream: str) -> int:
    """A stable per-stream seed derived from the master seed.

    ``stream`` names the consumer (e.g. ``"profile.graph"``); crc32 keeps the
    derivation stable across Python versions and processes, so the same
    ``REPRO_BENCH_SEED`` always reproduces the same workloads bit-for-bit.
    """
    return zlib.crc32(f"{bench_seed()}:{stream}".encode("utf-8"))


def bench_rng(stream: str):
    """A numpy Generator seeded with :func:`derive_seed` of ``stream``."""
    import numpy as np

    return np.random.default_rng(derive_seed(stream))


#: Repo root — the committed ``BENCH_<area>.json`` snapshots live here.
_ROOT = Path(__file__).resolve().parent.parent

#: Default tolerated regression against the committed baseline (25 %).
TREND_TOLERANCE = 0.25


def trend_baseline(area: str, metric: str):
    """The committed baseline value of ``metric``, or ``None`` if unrecorded.

    Baselines come from the ``results`` block of the ``BENCH_<area>.json``
    snapshot at the repo root (written by ``scripts/bench_snapshot.py``).
    A missing file, malformed document or absent metric all mean "no
    baseline" — gates then fall back to their fixed floor.
    """
    path = _ROOT / f"BENCH_{area}.json"
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    value = document.get("results", {}).get(metric)
    return float(value) if isinstance(value, (int, float)) else None


def trend_gate(
    area: str,
    metric: str,
    measured: float,
    *,
    floor: float,
    tolerance: float = TREND_TOLERANCE,
    higher_is_better: bool = True,
) -> float:
    """Assert ``measured`` has not regressed >``tolerance`` vs the baseline.

    The acceptance limit tracks the committed perf trajectory instead of a
    fixed ratio: with a recorded baseline the gate is the *stricter* of the
    fixed ``floor`` and ``baseline * (1 - tolerance)`` (for lower-is-better
    metrics the *looser* of the fixed cap and ``baseline * (1 + tolerance)``
    — wall-clock-sensitive metrics need the headroom on shared machines);
    without one, the fixed floor alone.  Returns the limit that was applied
    so callers can include it in their failure messages or reports.
    """
    baseline = trend_baseline(area, metric)
    if higher_is_better:
        limit = floor if baseline is None else max(floor, baseline * (1.0 - tolerance))
        label = f"≥{limit:.2f}"
        ok = measured >= limit
    else:
        limit = floor if baseline is None else max(floor, baseline * (1.0 + tolerance))
        label = f"≤{limit:.2f}"
        ok = measured <= limit
    source = (
        f"fixed floor {floor}"
        if baseline is None
        else f"baseline {baseline} ±{tolerance * 100:.0f}% from BENCH_{area}.json"
    )
    print(f"trend gate {area}.{metric}: measured {measured:.2f}, require {label} ({source})")
    assert ok, (
        f"{area}.{metric} regressed: measured {measured:.2f}, "
        f"required {label} ({source})"
    )
    return limit


def seed_record() -> dict:
    """The reproducibility record stamped into benchmark JSON output."""
    return {
        "bench_seed": bench_seed(),
        "bench_scale": bench_scale(),
        "bench_full": full_run(),
    }
