"""The smooth-sensitivity noise framework (Nissim et al., as used by the paper).

Given any *smooth upper bound* ``Ŝ(·)`` of smooth sensitivity with smoothing
parameter ``β = ε/10``, releasing

    M(I) = |q(I)| + (Ŝ(I)/β) · Z,     Z ~ h(z) ∝ 1/(1+z⁴)

is ε-differentially private, unbiased, and has expected ℓ2-error
``Ŝ(I)/β = 10·Ŝ(I)/ε`` (the general Cauchy distribution with exponent 4 has
unit variance).  Residual sensitivity, elastic sensitivity and the
closed-form smooth sensitivities all plug into this one release rule; they
differ only in the value of ``Ŝ(I)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import PrivacyError
from repro.mechanisms.noise import GeneralCauchyNoise
from repro.sensitivity.base import DEFAULT_BETA_FRACTION, SensitivityResult

__all__ = ["SmoothSensitivityMechanism", "SmoothRelease"]


@dataclass(frozen=True)
class SmoothRelease:
    """The outcome of one smooth-sensitivity release.

    Attributes
    ----------
    noisy_count:
        The DP release ``|q(I)| + (Ŝ(I)/β)·Z``.
    true_count:
        The exact count (available to the caller, *not* DP — do not publish).
    sensitivity:
        The smooth upper bound ``Ŝ(I)`` used.
    noise_scale:
        ``Ŝ(I)/β``.
    expected_error:
        The expected ℓ2-error of the mechanism on this instance
        (``10·Ŝ(I)/ε``, equal to ``noise_scale`` for exponent 4).
    epsilon / beta:
        The privacy and smoothing parameters.
    """

    noisy_count: float
    true_count: float
    sensitivity: float
    noise_scale: float
    expected_error: float
    epsilon: float
    beta: float


class SmoothSensitivityMechanism:
    """Release a count with noise calibrated to a smooth sensitivity upper bound.

    Parameters
    ----------
    epsilon:
        The privacy parameter ``ε``.
    gamma:
        Tail exponent of the general Cauchy noise (default 4, the paper's
        choice; must exceed 3 for finite variance).
    beta:
        Optional explicit smoothing parameter.  Defaults to ``ε/10``;
        supplying a different value is allowed but the caller is then
        responsible for the ``(β, γ, ε)`` compatibility condition of the
        smooth-sensitivity framework.
    rng:
        numpy Generator or seed for the noise.
    """

    def __init__(
        self,
        epsilon: float,
        *,
        gamma: float = 4.0,
        beta: float | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        self._epsilon = float(epsilon)
        self._gamma = float(gamma)
        self._beta = float(beta) if beta is not None else epsilon / DEFAULT_BETA_FRACTION
        if self._beta <= 0:
            raise PrivacyError(f"beta must be positive, got {self._beta}")
        # Materialise the generator once so that successive releases draw
        # fresh (independent) noise even when a seed was supplied.
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    @property
    def epsilon(self) -> float:
        """The privacy parameter ``ε``."""
        return self._epsilon

    @property
    def beta(self) -> float:
        """The smoothing parameter ``β`` the sensitivity must be computed with."""
        return self._beta

    def noise_scale(self, sensitivity: float) -> float:
        """``Ŝ(I)/β`` — the dispersion of the added noise."""
        if sensitivity < 0 or not math.isfinite(sensitivity):
            raise PrivacyError(
                f"sensitivity must be finite and non-negative, got {sensitivity}"
            )
        return sensitivity / self._beta

    def expected_error(self, sensitivity: float) -> float:
        """The expected ℓ2-error of the release for a given ``Ŝ(I)``."""
        scale = self.noise_scale(sensitivity)
        return GeneralCauchyNoise(scale, gamma=self._gamma, rng=0).standard_deviation

    def release(
        self,
        true_count: float,
        sensitivity: SensitivityResult | float,
    ) -> SmoothRelease:
        """Release ``true_count`` with noise calibrated to ``sensitivity``.

        ``sensitivity`` may be a plain number or a
        :class:`~repro.sensitivity.base.SensitivityResult`; in the latter
        case its ``beta`` (when recorded) must match the mechanism's ``β`` —
        a mismatch voids the privacy guarantee and raises
        :class:`PrivacyError`.
        """
        if isinstance(sensitivity, SensitivityResult):
            if sensitivity.beta is not None and not math.isclose(
                sensitivity.beta, self._beta, rel_tol=1e-9
            ):
                raise PrivacyError(
                    f"sensitivity was computed with beta={sensitivity.beta}, but the "
                    f"mechanism uses beta={self._beta}; recompute the sensitivity with "
                    "the mechanism's beta"
                )
            value = float(sensitivity.value)
        else:
            value = float(sensitivity)
        scale = self.noise_scale(value)
        noise = GeneralCauchyNoise(scale, gamma=self._gamma, rng=self._rng)
        noisy = float(true_count) + noise.sample()
        return SmoothRelease(
            noisy_count=noisy,
            true_count=float(true_count),
            sensitivity=value,
            noise_scale=scale,
            expected_error=noise.standard_deviation,
            epsilon=self._epsilon,
            beta=self._beta,
        )
