"""The user-facing DP counting-query API.

:class:`PrivateCountingQuery` bundles a conjunctive query, a privacy
parameter and a choice of sensitivity engine into a single object whose ``release(database)`` method produces an ε-DP
noisy result size.  The examples and the CLI's ``count`` sub-command call it
directly; the serving layer (:mod:`repro.service`) wraps the same object per
request, supplying precomputed (cached) true counts and sensitivities via
``release(..., true_count=, sensitivity=)``.  The individual sensitivity
engines and the noise framework remain available for fine-grained control.

Supported calibration methods:

``"residual"`` (default)
    Residual sensitivity — the paper's `O(1)`-neighborhood-optimal mechanism
    (Theorem 1.1); works for arbitrary CQs with self-joins, inequality and
    comparison predicates, and projections.
``"elastic"``
    Elastic sensitivity (the FLEX baseline).
``"smooth-triangle"`` / ``"smooth-star"``
    Closed-form smooth sensitivity, valid only for the triangle / k-star
    pattern counting queries over a binary edge relation.
``"global"``
    The Laplace mechanism calibrated to the AGM-based global-sensitivity
    bound (relaxed DP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.data.database import Database
from repro.engine.evaluation import count_query
from repro.exceptions import PrivacyError
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.smooth_mechanism import SmoothRelease, SmoothSensitivityMechanism
from repro.query.cq import ConjunctiveQuery
from repro.sensitivity.base import SensitivityResult
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.residual import ResidualSensitivity
from repro.sensitivity.smooth_star import StarSmoothSensitivity
from repro.sensitivity.smooth_triangle import TriangleSmoothSensitivity

__all__ = ["PrivateCountingQuery", "PrivateRelease"]

Method = Literal[
    "residual", "elastic", "smooth-triangle", "smooth-star", "global"
]


@dataclass(frozen=True)
class PrivateRelease:
    """The public outcome of a private counting query.

    Attributes
    ----------
    noisy_count:
        The ε-DP estimate of ``|q(I)|`` — the only field safe to publish.
    method:
        The sensitivity engine used.
    epsilon:
        The privacy budget consumed.
    sensitivity:
        The sensitivity value the noise was calibrated to (data-dependent:
        treat with the same care as the noisy count when ``method`` is not
        itself DP-safe to reveal — the smooth-sensitivity framework makes the
        *mechanism* private, the intermediate value is diagnostic only).
    expected_error:
        The mechanism's expected ℓ2-error on this instance.
    true_count:
        The exact count; populated only when ``keep_true_count=True`` was
        requested (never publish it).
    """

    noisy_count: float
    method: str
    epsilon: float
    sensitivity: float
    expected_error: float
    true_count: float | None = None


class PrivateCountingQuery:
    """An ε-DP releaser for the result size of a conjunctive query.

    Parameters
    ----------
    query:
        The conjunctive query.
    epsilon:
        The privacy parameter ``ε``.
    method:
        The calibration method (see module docstring).
    rng:
        numpy Generator or seed controlling the noise (pass a fixed seed for
        reproducible experiments; production use should leave it ``None``).
    star_arity:
        Number of leaves for the ``"smooth-star"`` method (default 3).
    edge_relation:
        Relation name for the closed-form graph methods (default ``"Edge"``).
    strategy:
        Evaluation strategy forwarded to the residual-sensitivity engine.
    parallelism:
        Thread-pool size for the residual-sensitivity component
        evaluations (``None``/``0``/``1``: serial, the default).  A pure
        throughput knob — results are identical.

    Examples
    --------
    >>> from repro.data import DatabaseSchema, Database
    >>> from repro.query import parse_query
    >>> schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
    >>> db = Database.from_rows(schema, R=[(1, 2)], S=[(2, 3)])
    >>> pq = PrivateCountingQuery(parse_query("R(x, y), S(y, z)"), epsilon=1.0, rng=7)
    >>> release = pq.release(db)
    >>> isinstance(release.noisy_count, float)
    True
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        epsilon: float,
        *,
        method: Method = "residual",
        rng: np.random.Generator | int | None = None,
        star_arity: int = 3,
        edge_relation: str = "Edge",
        strategy: str = "auto",
        parallelism: int | None = None,
    ):
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        if parallelism is not None and parallelism < 0:
            raise PrivacyError(f"parallelism must be non-negative, got {parallelism}")
        if method not in ("residual", "elastic", "smooth-triangle", "smooth-star", "global"):
            raise PrivacyError(f"unknown calibration method {method!r}")
        self._query = query
        self._epsilon = float(epsilon)
        self._method = method
        self._rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        self._star_arity = star_arity
        self._edge_relation = edge_relation
        self._strategy = strategy
        self._parallelism = parallelism
        self._smooth = SmoothSensitivityMechanism(self._epsilon, rng=self._rng)

    @property
    def query(self) -> ConjunctiveQuery:
        """The query being released."""
        return self._query

    @property
    def epsilon(self) -> float:
        """The privacy parameter ``ε``."""
        return self._epsilon

    @property
    def method(self) -> str:
        """The calibration method."""
        return self._method

    @property
    def beta(self) -> float:
        """The smoothing parameter used by the smooth-sensitivity methods."""
        return self._smooth.beta

    # ------------------------------------------------------------------ #
    # Sensitivity
    # ------------------------------------------------------------------ #
    def sensitivity(self, database: Database) -> SensitivityResult:
        """The sensitivity value the noise would be calibrated to on ``database``."""
        beta = self._smooth.beta
        if self._method == "residual":
            return ResidualSensitivity(
                self._query,
                beta=beta,
                strategy=self._strategy,
                parallelism=self._parallelism,
            ).compute(database)
        if self._method == "elastic":
            return ElasticSensitivity(self._query, beta=beta).compute(database)
        if self._method == "smooth-triangle":
            return TriangleSmoothSensitivity(
                beta=beta, relation=self._edge_relation
            ).compute(database)
        if self._method == "smooth-star":
            return StarSmoothSensitivity(
                self._star_arity, beta=beta, relation=self._edge_relation
            ).compute(database)
        # "global" — handled in release() through the Laplace mechanism, but a
        # SensitivityResult is still useful for inspection.
        from repro.sensitivity.global_sensitivity import GlobalSensitivityBound

        return GlobalSensitivityBound(self._query).compute(database)

    # ------------------------------------------------------------------ #
    # Release
    # ------------------------------------------------------------------ #
    def release(
        self,
        database: Database,
        *,
        keep_true_count: bool = False,
        true_count: int | None = None,
        sensitivity: SensitivityResult | None = None,
    ) -> PrivateRelease:
        """An ε-DP noisy count of the query on ``database``.

        Parameters
        ----------
        keep_true_count:
            If ``True``, include the exact count in the returned record (for
            experiment harnesses; never publish it).
        true_count:
            Supply the exact count if already known, to avoid re-evaluating
            the query.
        sensitivity:
            Supply a precomputed sensitivity (as returned by
            :meth:`sensitivity`) to skip recomputing it — the serving layer's
            cache relies on this.  The result must have been computed with
            this mechanism's method and ``β`` on this very database;
            a recorded ``beta`` mismatch raises :class:`PrivacyError`.
        """
        if true_count is None:
            true_count = count_query(self._query, database)
        if sensitivity is None:
            sensitivity = self.sensitivity(database)

        if self._method == "global":
            gs_value = float(sensitivity.value)
            # A non-finite bound (strict DP) is passed as None so noise_scale
            # raises its descriptive "unbounded under strict DP" error.
            laplace = LaplaceMechanism(
                self._query,
                self._epsilon,
                global_sensitivity=gs_value if math.isfinite(gs_value) else None,
                rng=self._rng,
            )
            noisy = laplace.release(database, true_count=true_count)
            return PrivateRelease(
                noisy_count=noisy,
                method=self._method,
                epsilon=self._epsilon,
                sensitivity=gs_value,
                expected_error=laplace.expected_error(database),
                true_count=float(true_count) if keep_true_count else None,
            )

        release: SmoothRelease = self._smooth.release(true_count, sensitivity)
        return PrivateRelease(
            noisy_count=release.noisy_count,
            method=self._method,
            epsilon=self._epsilon,
            sensitivity=release.sensitivity,
            expected_error=release.expected_error,
            true_count=float(true_count) if keep_true_count else None,
        )
