"""A simple sequential-composition privacy accountant.

The paper notes (Section 8) that answering ``k`` queries costs an ``O(k)``
factor under standard sequential composition.  The accountant implemented
here tracks exactly that: every release charges its ``ε`` against a global
budget and the accountant refuses further releases once the budget is
exhausted.  It is intentionally conservative (pure ε-DP sequential
composition, no advanced/Rényi accounting), matching the mechanisms in this
library, which are all pure ε-DP.

The accountant is thread-safe: :meth:`PrivacyAccountant.charge` performs its
affordability check and the fold atomically under an internal lock, so
concurrent releases can never jointly overspend the budget.

A ledger is a running left fold ``((0.0 + ε₁) + ε₂) + …`` of its charges
(:func:`fold_epsilons`) plus their count, so reading ``spent`` costs O(1)
and the ledger's size does not grow with the number of releases.  A charge,
once folded, is never taken back: per-charge history is the serving layer's
audit log, not the ledger.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.exceptions import PrivacyError

__all__ = ["PrivacyAccountant", "fold_epsilons"]


def fold_epsilons(epsilons: Iterable[float], start: float = 0.0) -> float:
    """The in-order left fold ``((start + ε₁) + ε₂) + …`` of a charge list.

    The one definition of a ledger's ``spent``: every charge folds onto the
    running total, and a recovered ledger resumes from its snapshot's folded
    total, so live and recovered ledgers agree bitwise.  On Python
    3.10/3.11 it equals ``sum()``; from 3.12 ``sum()`` uses compensated
    summation, so compare ledgers with this fold, never with ``sum()``.
    """
    total = start
    for epsilon in epsilons:
        total += epsilon
    return total


def _validate(epsilon: float) -> None:
    # ``True`` would count as 1.
    if isinstance(epsilon, bool) or not math.isfinite(epsilon) or epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive and finite, got {epsilon}")


@dataclass
class PrivacyAccountant:
    """Tracks cumulative ε under sequential composition.

    Parameters
    ----------
    total_budget:
        The overall ε budget available.

    Examples
    --------
    >>> accountant = PrivacyAccountant(total_budget=2.0)
    >>> accountant.charge(0.5, label="q1")
    >>> accountant.remaining
    1.5
    >>> accountant.can_afford(1.6)
    False
    >>> accountant.reset()
    >>> accountant.remaining
    2.0
    """

    total_budget: float

    def __post_init__(self) -> None:
        # NaN slips through a bare "<= 0" comparison and would silently deny
        # every later charge; reject non-finite budgets at construction, and
        # ``True``, which would count as 1.
        if (
            isinstance(self.total_budget, bool)
            or not math.isfinite(self.total_budget)
            or self.total_budget <= 0
        ):
            raise PrivacyError(
                f"the total budget must be positive and finite, got {self.total_budget}"
            )
        # Not dataclass fields: the lock takes no part in equality/repr and
        # must never be shared between two accountants.
        self._lock = threading.RLock()
        self._spent = 0.0
        self._count = 0

    @property
    def spent(self) -> float:
        """Total ε consumed so far (the in-order left fold of every charge)."""
        with self._lock:
            return self._spent

    @property
    def charge_count(self) -> int:
        """How many charges the ledger has folded."""
        with self._lock:
            return self._count

    def snapshot(self) -> tuple[float, int]:
        """A consistent ``(spent, charge_count)`` pair: what a snapshot persists."""
        with self._lock:
            return self._spent, self._count

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self.total_budget - self.spent

    def can_afford(self, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` fits in the remaining budget."""
        _validate(epsilon)
        return epsilon <= self.remaining + 1e-12

    def charge(self, epsilon: float, label: str = "") -> None:
        """Fold a charge of ``epsilon``; raises if the budget is exceeded.

        Check and fold happen atomically, so concurrent callers cannot
        jointly exceed the budget.  ``label`` only names the charge in the
        refusal; the ledger keeps no per-charge records.
        """
        with self._lock:
            if not self.can_afford(epsilon):
                raise PrivacyError(
                    f"privacy budget exhausted: requested {epsilon}"
                    f"{f' for {label!r}' if label else ''}, remaining {self.remaining}"
                )
            self.fold(epsilon)

    def fold(self, epsilon: float) -> None:
        """Fold a charge granted elsewhere, skipping the affordability check.

        The serving layer folds here once a release exists (it checked the
        charge under its own lock) and when it applies a journaled charge
        (on recovery, or a sibling worker's).  A ledger reconfigured with a
        smaller budget then simply reads as overspent and denies everything
        further — the conservative direction.
        """
        _validate(epsilon)
        with self._lock:
            self._spent += epsilon
            self._count += 1

    def restore_ledger(self, folded: tuple[float, int], epsilons: Iterable[float] = ()) -> None:
        """Reload a snapshot's ledger into this empty accountant (start-up only).

        ``folded`` is the ``(total, count)`` a snapshot persisted and
        ``epsilons`` any charges it listed after them (format 1 listed every
        charge; a format-2 snapshot from an older build, the reservations
        open when it was written).  They fold onto ``total`` in order, so
        ``spent`` reads exactly as the ledger that wrote them would after
        folding them.
        """
        total, count = folded
        if not math.isfinite(total) or total < 0 or count < 0:
            raise PrivacyError(f"invalid folded ledger prefix {folded!r}")
        epsilons = list(epsilons)
        for epsilon in epsilons:
            _validate(epsilon)
        with self._lock:
            if self._count:
                raise PrivacyError("a recovered ledger can only be loaded into an empty one")
            self._spent = fold_epsilons(epsilons, float(total))
            self._count = int(count) + len(epsilons)

    def reset(self) -> None:
        """Forget all charges, restoring the full budget.

        Only meaningful when the data the budget protected is discarded or
        rotated (e.g. a serving session is torn down and its database
        deregistered); resetting while continuing to answer queries about the
        same data voids the privacy guarantee.
        """
        with self._lock:
            self._spent = 0.0
            self._count = 0

    def run(self, epsilon: float, release: Callable[[], object], label: str = "") -> object:
        """Charge ``epsilon`` and, only if affordable, execute ``release()``.

        The charge is recorded *before* running the release so that a failure
        inside the release function still counts against the budget (the data
        may already have been touched).
        """
        self.charge(epsilon, label=label)
        return release()
