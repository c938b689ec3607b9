"""Neighborhood lower bounds and empirical optimality ratios (Section 4).

The paper's optimality notion compares the error of a mechanism at ``I``
against the best possible error of *any* ε-DP mechanism somewhere in the
``r``-neighborhood of ``I``.  Two lower bounds are implemented:

* **Lemma 4.2** — for any ε-DP mechanism ``M'`` and any ``r >= 1``,

      max_{d(I,I') <= r} Err(M', I') >= LS^(r-1)(I) / (2·sqrt(1 + e^ε)).

  :func:`neighborhood_lower_bound` applies this normalisation to any
  ``LS^(r-1)`` value (brute-force or closed-form).

* **Lemma 4.5** — for full CQs, ``LS^(n_P - 1)(I) >= max_{E ⊆ P_n, E ≠ ∅}
  T_{[n]-E}(I)``.  Combined with Lemma 4.2 this yields a *polynomially
  computable* lower bound at radius ``r = n_P``, which is what the
  optimality-ratio experiment uses:

      max_{d(I,I') <= n_P} Err(M', I') >=
          max_{E ⊆ P_n, E ≠ ∅} T_{[n]-E}(I) / (2·sqrt(1 + e^ε)).

Dividing the RS mechanism's error ``10·RS(I)/ε`` by this bound gives an
empirical (upper estimate of the) neighborhood-optimality ratio for each
instance, complementing the worst-case constant of Lemma 4.8.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.data.database import Database
from repro.engine.aggregates import boundary_multiplicity
from repro.exceptions import SensitivityError
from repro.query.cq import ConjunctiveQuery
from repro.sensitivity.base import SensitivityResult

__all__ = [
    "neighborhood_lower_bound",
    "lemma_4_5_lower_bound",
    "optimality_ratio",
    "NeighborhoodLowerBound",
]


def neighborhood_lower_bound(ls_at_r_minus_1: float, epsilon: float) -> float:
    """Lemma 4.2: ``LS^(r-1)(I) / (2·sqrt(1 + e^ε))``.

    Parameters
    ----------
    ls_at_r_minus_1:
        Any valid value (or lower bound) of ``LS^(r-1)(I)``.
    epsilon:
        The privacy parameter of the mechanisms being compared against.
    """
    if epsilon <= 0:
        raise SensitivityError(f"epsilon must be positive, got {epsilon}")
    if ls_at_r_minus_1 < 0:
        raise SensitivityError(f"LS^(r-1) must be non-negative, got {ls_at_r_minus_1}")
    return ls_at_r_minus_1 / (2.0 * math.sqrt(1.0 + math.exp(epsilon)))


@dataclass(frozen=True)
class NeighborhoodLowerBound:
    """A neighborhood lower bound with its radius and witnessing residual.

    Attributes
    ----------
    radius:
        The neighborhood radius ``r`` the bound applies to.
    value:
        The lower bound on ``max_{d(I,I') <= r} Err(M', I')``.
    ls_lower_bound:
        The underlying lower bound on ``LS^(r-1)(I)``.
    witness_removed_atoms:
        The subset ``E`` attaining the maximum in Lemma 4.5.
    """

    radius: int
    value: float
    ls_lower_bound: float
    witness_removed_atoms: tuple[int, ...]


def lemma_4_5_lower_bound(
    query: ConjunctiveQuery,
    database: Database,
    epsilon: float,
) -> NeighborhoodLowerBound:
    """The radius-``n_P`` neighborhood lower bound from Lemmas 4.2 + 4.5.

    Only meaningful for **full** CQs (the paper's lower bound breaks for
    projections, Theorem 6.4); calling it on a non-full query raises
    :class:`SensitivityError`.  Only exact multiplicities enter the
    maximum: an upper bound on ``T_{[n]-E}`` bounds nothing from below.
    """
    if not query.is_full:
        raise SensitivityError(
            "the Lemma 4.5 lower bound only applies to full CQs (Theorem 6.4 rules "
            "out comparable bounds for projections)"
        )
    query.validate_against_schema(database.schema)
    private_atoms = query.private_atom_indices(database.schema)
    if not private_atoms:
        raise SensitivityError("the query touches no private relation")
    n = query.num_atoms
    all_atoms = frozenset(range(n))

    best_value = 0
    best_removed: tuple[int, ...] = ()
    for size in range(1, len(private_atoms) + 1):
        for removed in itertools.combinations(sorted(private_atoms), size):
            kept = all_atoms - frozenset(removed)
            result = boundary_multiplicity(query, database, kept)
            if result.exact and result.value > best_value:
                best_value = result.value
                best_removed = tuple(removed)
    radius = len(private_atoms)
    return NeighborhoodLowerBound(
        radius=radius,
        value=neighborhood_lower_bound(best_value, epsilon),
        ls_lower_bound=float(best_value),
        witness_removed_atoms=best_removed,
    )


def optimality_ratio(
    mechanism_error: float,
    lower_bound: NeighborhoodLowerBound | float,
) -> float:
    """The empirical optimality ratio ``Err(M, I) / lower bound``.

    A value of ``c`` certifies that the mechanism is within a factor ``c`` of
    the best achievable error in the corresponding neighborhood of ``I``
    (the paper's ``(r, c)``-neighborhood optimality, instantiated on this
    instance).  Returns ``inf`` when the lower bound is zero but the error is
    not, and ``1.0`` when both are zero.
    """
    bound_value = lower_bound.value if isinstance(lower_bound, NeighborhoodLowerBound) else lower_bound
    if bound_value < 0 or mechanism_error < 0:
        raise SensitivityError("errors and lower bounds must be non-negative")
    if bound_value == 0:
        return 1.0 if mechanism_error == 0 else math.inf
    return mechanism_error / bound_value


def mechanism_error_from_sensitivity(result: SensitivityResult, epsilon: float) -> float:
    """The expected ℓ2-error of the smooth-sensitivity mechanism using ``result``.

    The paper's calibration (Section 2.3) gives ``Err(M, I) = 10·S(I)/ε``
    when ``β = ε/10`` and the noise is the unit-variance general Cauchy
    distribution.
    """
    if epsilon <= 0:
        raise SensitivityError(f"epsilon must be positive, got {epsilon}")
    return 10.0 * result.value / epsilon
