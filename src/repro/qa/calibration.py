"""Statistical verification that released noise matches its claimed calibration.

The privacy guarantee is only as good as the noise actually drawn: a
mechanism that computes the right sensitivity but scales (or seeds, or
caches) the noise wrongly is a silent privacy bug that no exact
differential check can see.  This module closes that hole by drawing many
seeded releases, recovering the noise residuals (``noisy − true``), and
running a Kolmogorov–Smirnov goodness-of-fit test against the *exact*
noise law each mechanism promises:

* the ``"global"`` method releases ``|q(I)| + Lap(GS/ε)`` — residuals
  normalised by ``GS/ε`` must be standard Laplace;
* every smooth-sensitivity method releases ``|q(I)| + (S(I)/β)·Z`` with
  ``Z`` drawn from the exponent-4 general Cauchy density
  ``h(z) ∝ 1/(1+z⁴)`` — residuals normalised by ``S(I)/β`` must follow
  that law exactly.

Releases are sampled at every level of the stack — the one-shot
:class:`PrivateCountingQuery`, :meth:`PrivateQueryService.count`,
:meth:`PrivateQueryService.batch`, and a service that is killed without a
snapshot and recovered from its write-ahead journal mid-sequence — so a
calibration bug introduced by caching, budget accounting or crash
recovery is caught where it happens.

All sampling is seeded, so the verdicts are deterministic: a failure is a
bug, not a flake.  ``scale_factor`` deliberately mis-normalises the
residuals and exists so tests can prove the verifier has the statistical
power to reject a miscalibrated mechanism.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.evaluation import count_query
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.query.parser import parse_query
from repro.sensitivity.base import DEFAULT_BETA_FRACTION
from repro.sensitivity.residual import ResidualSensitivity

__all__ = ["CalibrationCheck", "CalibrationReport", "verify_calibration", "LEVELS"]

#: The stack levels the verifier samples, in execution order.
LEVELS = ("query-global", "query-residual", "service", "batch", "service-replay")

_QUERY = "R(x, y), S(y, z)"
_BATCH_QUERIES = ("R(x, y), S(y, z)", "R(x, y)", "S(x, y), S(y, z)")
_EPSILON = 0.8


def _derive_seed(seed: int, label: str) -> int:
    """A stable per-level integer seed (crc32 keeps it version-independent)."""
    return zlib.crc32(f"{seed}:{label}".encode("utf-8"))


def _fixture_database() -> Database:
    """A small skewed two-table instance (hot join key 10)."""
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
    return Database.from_rows(
        schema,
        R=[(1, 10), (2, 10), (3, 10), (4, 20), (5, 20), (6, 30)],
        S=[(10, 100), (10, 200), (10, 300), (20, 100), (30, 100)],
    )


def unit_laplace_cdf(values: np.ndarray) -> np.ndarray:
    """CDF of the standard (scale-1) Laplace distribution."""
    values = np.asarray(values, dtype=float)
    return np.where(
        values < 0, 0.5 * np.exp(values), 1.0 - 0.5 * np.exp(-values)
    )


def general_cauchy4_cdf(values: Iterable[float]) -> np.ndarray:
    """CDF of the unit-scale density ``h(z) = (√2/π)/(1+z⁴)``.

    Evaluated by adaptive quadrature from 0 to ``|z|`` — exact enough for a
    KS test by a margin of many orders of magnitude.
    """
    from scipy.integrate import quad

    c = math.sqrt(2.0) / math.pi
    out = []
    for z in np.atleast_1d(np.asarray(values, dtype=float)):
        mass, _ = quad(lambda t: c / (1.0 + t**4), 0.0, abs(z))
        out.append(0.5 + math.copysign(min(mass, 0.5), z))
    return np.array(out)


def _ks_test(samples: np.ndarray, cdf) -> tuple[float, float]:
    from scipy import stats

    result = stats.kstest(samples, cdf)
    return float(result.statistic), float(result.pvalue)


@dataclass(frozen=True)
class CalibrationCheck:
    """One goodness-of-fit verdict."""

    level: str
    samples: int
    statistic: float
    p_value: float
    passed: bool
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "samples": self.samples,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class CalibrationReport:
    """All verdicts of one verification run."""

    seed: int
    samples: int
    threshold: float
    checks: list[CalibrationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "threshold": self.threshold,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }


def verify_calibration(
    *,
    seed: int = 0,
    samples: int = 400,
    threshold: float = 1e-4,
    state_dir: str | None = None,
    levels: Iterable[str] | None = None,
    scale_factor: float = 1.0,
) -> CalibrationReport:
    """Draw seeded releases at every stack level and test their calibration.

    Parameters
    ----------
    seed:
        Master seed; every level derives its own RNG stream from it.
    samples:
        Noise draws per level (the KS test's sample size).
    threshold:
        Reject when the KS p-value falls below this.  With correct
        calibration the p-value is uniform, so ``1e-4`` keeps the seeded
        runs deterministic-safe while a wrong scale drives p to ~0.
    state_dir:
        Directory for the ``service-replay`` level (the crash/recovery
        cycle); that level is skipped when ``None``.
    levels:
        Subset of :data:`LEVELS` to run (default: all that are possible).
    scale_factor:
        Multiplier applied to the expected noise scale when normalising —
        ``1.0`` verifies the mechanism; any other value *must* make the
        verifier reject (used to test its statistical power).
    """
    selected = tuple(levels) if levels is not None else LEVELS
    unknown = set(selected) - set(LEVELS)
    if unknown:
        raise ValueError(f"unknown calibration levels {sorted(unknown)}; known: {LEVELS}")
    report = CalibrationReport(seed=seed, samples=samples, threshold=threshold)
    db = _fixture_database()
    for level in selected:
        if level == "service-replay" and state_dir is None:
            continue
        try:
            residuals, detail = _draw(level, db, seed, samples, state_dir)
            residuals = residuals / scale_factor
            cdf = unit_laplace_cdf if level == "query-global" else general_cauchy4_cdf
            statistic, p_value = _ks_test(residuals, cdf)
            check = CalibrationCheck(
                level=level,
                samples=len(residuals),
                statistic=statistic,
                p_value=p_value,
                passed=p_value >= threshold,
                detail=detail,
            )
        except Exception as exc:
            # An internal mismatch (wrong sensitivity served, failed batch
            # item, budget lost across replay, broken state dir) is a
            # *finding*, not a crash: the differential report and the other
            # levels must still be delivered.
            check = CalibrationCheck(
                level=level,
                samples=0,
                statistic=0.0,
                p_value=0.0,
                passed=False,
                detail=f"verification error: {exc}",
            )
        report.checks.append(check)
    return report


# --------------------------------------------------------------------- #
# Per-level residual sampling (normalised by the *claimed* noise scale)
# --------------------------------------------------------------------- #
def _draw(
    level: str,
    db: Database,
    seed: int,
    samples: int,
    state_dir: str | None,
) -> tuple[np.ndarray, str]:
    if level == "query-global":
        return _draw_query(db, seed, samples, method="global")
    if level == "query-residual":
        return _draw_query(db, seed, samples, method="residual")
    if level == "service":
        return _draw_service(db, seed, samples)
    if level == "batch":
        return _draw_batch(db, seed, samples)
    return _draw_replay(db, seed, samples, state_dir)


def _draw_query(db, seed, samples, *, method):
    query = parse_query(_QUERY)
    rng = np.random.default_rng(_derive_seed(seed, f"query-{method}"))
    releaser = PrivateCountingQuery(query, epsilon=_EPSILON, method=method, rng=rng)
    sensitivity = releaser.sensitivity(db)
    true_count = count_query(query, db)
    if method == "global":
        scale = sensitivity.value / _EPSILON
    else:
        scale = sensitivity.value / (_EPSILON / DEFAULT_BETA_FRACTION)
    draws = np.array(
        [
            releaser.release(db, true_count=true_count, sensitivity=sensitivity).noisy_count
            - true_count
            for _ in range(samples)
        ]
    )
    return draws / scale, (
        f"method={method} ε={_EPSILON} S={sensitivity.value} scale={scale:.6g}"
    )


def _expected_sensitivity(db, query_text: str, epsilon: float) -> float:
    """Independently recomputed RS — the value the service *should* use."""
    query = parse_query(query_text)
    return ResidualSensitivity(query, beta=epsilon / DEFAULT_BETA_FRACTION).value(db)


def _make_service(db, seed, label, **kwargs):
    from repro.service.service import PrivateQueryService

    service = PrivateQueryService(
        session_budget=1e9, rng=np.random.default_rng(_derive_seed(seed, label)), **kwargs
    )
    service.register_database("qa", db)
    return service


def _draw_service(db, seed, samples):
    service = _make_service(db, seed, "service")
    session = service.create_session().session_id
    true_count = count_query(parse_query(_QUERY), db)
    expected = _expected_sensitivity(db, _QUERY, _EPSILON)
    residuals = []
    for _ in range(samples):
        response = service.count("qa", _QUERY, _EPSILON, session=session)
        if response.sensitivity != expected:
            raise AssertionError(
                f"service calibrated to sensitivity {response.sensitivity}, "
                f"independent recomputation says {expected}"
            )
        scale = response.sensitivity / (_EPSILON / DEFAULT_BETA_FRACTION)
        residuals.append((response.noisy_count - true_count) / scale)
    return np.array(residuals), f"service.count ε={_EPSILON} S={expected}"


def _draw_batch(db, seed, samples):
    service = _make_service(db, seed, "batch")
    session = service.create_session().session_id
    true_counts = {
        text: count_query(parse_query(text), db)
        for text in _BATCH_QUERIES
    }
    requests = [{"query": text, "epsilon": _EPSILON} for text in _BATCH_QUERIES]
    residuals = []
    rounds = max(1, samples // len(_BATCH_QUERIES))
    for _ in range(rounds):
        result = service.batch("qa", requests, session=session)
        for item in result.items:
            if not item.ok:
                raise AssertionError(f"batch item failed: {item.error}")
            response = item.response
            scale = response.sensitivity / (response.epsilon / DEFAULT_BETA_FRACTION)
            query_text = _BATCH_QUERIES[item.index]
            residuals.append((response.noisy_count - true_counts[query_text]) / scale)
    return np.array(residuals), (
        f"{rounds} batches × {len(_BATCH_QUERIES)} queries, ε={_EPSILON} each"
    )


def _draw_replay(db, seed, samples, state_dir):
    true_count = count_query(parse_query(_QUERY), db)
    first_half = samples // 2

    service = _make_service(db, seed, "replay-a", state_dir=state_dir)
    service.create_session(session_id="calibration")
    residuals = []

    def drain(svc, count):
        for _ in range(count):
            response = svc.count("qa", _QUERY, _EPSILON, session="calibration")
            scale = response.sensitivity / (_EPSILON / DEFAULT_BETA_FRACTION)
            residuals.append((response.noisy_count - true_count) / scale)

    drain(service, first_half)
    spent_before = service.budget("calibration")["spent"]
    # Crash: no final snapshot — recovery must come from the journal alone.
    service.close(snapshot=False)

    recovered = _make_service(db, seed, "replay-b", state_dir=state_dir)
    spent_after = recovered.budget("calibration")["spent"]
    if not math.isclose(spent_after, spent_before, rel_tol=1e-12, abs_tol=1e-12):
        raise AssertionError(
            f"journal replay lost budget state: spent {spent_before} before the "
            f"crash, {spent_after} after recovery"
        )
    drain(recovered, samples - first_half)
    recovered.close()
    return np.array(residuals), (
        f"{first_half} draws, SIGKILL-style close, journal recovery, "
        f"{samples - first_half} more draws; spent={spent_after:.6g}"
    )
