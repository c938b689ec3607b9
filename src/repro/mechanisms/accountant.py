"""A simple sequential-composition privacy accountant.

The paper notes (Section 8) that answering ``k`` queries costs an ``O(k)``
factor under standard sequential composition.  The accountant implemented
here tracks exactly that: every release charges its ``ε`` against a global
budget and the accountant refuses further releases once the budget is
exhausted.  It is intentionally conservative (pure ε-DP sequential
composition, no advanced/Rényi accounting), matching the mechanisms in this
library, which are all pure ε-DP.

The accountant is thread-safe: :meth:`PrivacyAccountant.charge` performs its
affordability check and the ledger append atomically under an internal lock,
so concurrent releases (e.g. from the request threads of
:mod:`repro.service`) can never jointly overspend the budget.

``spent`` is the in-order left fold ``((0.0 + ε₁) + ε₂) + …`` of the
charges (:func:`fold_epsilons`), kept as a running total so reading it costs
O(1) however many releases were served.  A charge the serving layer has
committed (:meth:`PrivacyAccountant.settle`) can never be refunded, so the
settled prefix of the ledger — every charge before the first one still open
— is folded into a ``(total, count)`` pair and dropped; the fold's value does
not change, and a ledger whose reservations are all settled holds no charge
records at all.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.exceptions import PrivacyError

__all__ = ["PrivacyAccountant", "BudgetCharge", "fold_epsilons"]


def fold_epsilons(epsilons: Iterable[float], start: float = 0.0) -> float:
    """The in-order left fold ``((start + ε₁) + ε₂) + …`` of a charge list.

    The one definition of a ledger's ``spent``: every charge, refund and
    fold of the accountant refolds with it, and a recovered ledger resumes
    from its snapshot's folded total, so live and recovered ledgers agree
    bitwise.  On Python 3.10/3.11 it equals ``sum()``;
    from 3.12 ``sum()`` uses compensated summation, so compare ledgers with
    this fold, never with ``sum()``.
    """
    total = start
    for epsilon in epsilons:
        total += epsilon
    return total


@dataclass(frozen=True)
class BudgetCharge:
    """A single charge against the budget (for auditing)."""

    epsilon: float
    label: str


@dataclass
class PrivacyAccountant:
    """Tracks cumulative ε under sequential composition.

    Parameters
    ----------
    total_budget:
        The overall ε budget available.
    charges:
        The ledger's charge records, oldest first.  Settled charges at the
        front are folded away (see :meth:`settle`), so this is the unfolded
        tail; :attr:`charge_count` counts every charge.

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
    charges: list[BudgetCharge] = field(default_factory=list)

    def __post_init__(self) -> None:
        # NaN slips through a bare "<= 0" comparison and would silently deny
        # every later charge; reject non-finite budgets at construction.
        if not math.isfinite(self.total_budget) or self.total_budget <= 0:
            raise PrivacyError(
                f"the total budget must be positive and finite, got {self.total_budget}"
            )
        # None of these are dataclass fields: the lock takes no part in
        # equality/repr and must never be shared between two accountants,
        # and the rest is derived from the charge history.
        self._lock = threading.RLock()
        #: Left fold and length of the settled prefix dropped from ``charges``.
        self._folded_total = 0.0
        self._folded_count = 0
        #: ``_settled[i]``: whether ``charges[i]`` was committed.
        self._settled = [False] * len(self.charges)
        #: Running left fold over the folded prefix and every charge.
        self._spent = fold_epsilons(charge.epsilon for charge in self.charges)

    @property
    def spent(self) -> float:
        """Total ε consumed so far (the in-order left fold of every charge)."""
        with self._lock:
            return self._spent

    @property
    def charge_count(self) -> int:
        """How many charges the ledger holds, folded ones included."""
        with self._lock:
            return self._folded_count + len(self.charges)

    def snapshot(self) -> tuple[tuple[float, int], list[BudgetCharge]]:
        """A consistent ``((folded_total, folded_count), unfolded charges)`` pair.

        What a snapshot persists: the folded prefix's total and count plus a
        copy of the charges still held, read under one lock acquisition so a
        concurrent :meth:`settle` cannot move a charge between the two.
        """
        with self._lock:
            return (self._folded_total, self._folded_count), list(self.charges)

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self.total_budget - self.spent

    def can_afford(self, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` fits in the remaining budget."""
        if not math.isfinite(epsilon) or epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive and finite, got {epsilon}")
        return epsilon <= self.remaining + 1e-12

    def charge(self, epsilon: float, label: str = "") -> BudgetCharge:
        """Record a charge of ``epsilon``; raises if the budget is exceeded.

        Check and append happen atomically, so concurrent callers cannot
        jointly exceed the budget.  The returned record is the handle
        :meth:`refund` and :meth:`settle` take.
        """
        with self._lock:
            if not self.can_afford(epsilon):
                raise PrivacyError(
                    f"privacy budget exhausted: requested {epsilon}, remaining {self.remaining}"
                )
            return self._append(epsilon, label)

    def refund(self, record: BudgetCharge) -> None:
        """Take back a specific open charge (by identity), restoring its ε.

        Only the transactional charge pipeline of the serving layer calls
        this, to roll back a reservation whose release failed before any
        noisy value was produced.  Refunding a record that is not in the
        ledger, or one already settled, raises :class:`PrivacyError`.
        """
        with self._lock:
            for idx in range(len(self.charges) - 1, -1, -1):
                if self.charges[idx] is record:
                    if self._settled[idx]:
                        raise PrivacyError(f"cannot refund a committed charge: {record}")
                    self._remove_at(idx)
                    return
        raise PrivacyError(f"cannot refund a charge that is not in the ledger: {record}")

    def remove_charge(self, epsilon: float, label: str = "") -> bool:
        """Remove the most recent open charge matching ``(epsilon, label)`` by value.

        Applying a journaled *rollback* (on recovery, or absorbing a sibling
        worker's record) uses this: the ledger holds an equal-value copy of
        the charge (installed via :meth:`restore_charge`), not the object
        that was reserved, so identity-based :meth:`refund` cannot find it.
        Settled charges are skipped: they were committed here and no rollback
        can name them.  Returns whether a matching charge was found.
        """
        with self._lock:
            for idx in range(len(self.charges) - 1, -1, -1):
                charge = self.charges[idx]
                if (
                    not self._settled[idx]
                    and charge.epsilon == epsilon
                    and charge.label == label
                ):
                    self._remove_at(idx)
                    return True
        return False

    def restore_charge(self, epsilon: float, label: str = "") -> None:
        """Re-apply a historically granted charge from the journal.

        Unlike :meth:`charge` this skips the affordability check: the charge
        was granted in a previous process lifetime (or by a sibling worker)
        and must be reflected in the ledger even if the accountant was
        reconfigured with a smaller budget (in which case the ledger simply
        reads as overspent and denies everything further — the conservative
        direction).  The charge stays open: a sibling's rollback may still
        remove it.
        """
        if not math.isfinite(epsilon) or epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive and finite, got {epsilon}")
        with self._lock:
            self._append(epsilon, label)

    def restore_ledger(
        self, folded: tuple[float, int], charges: Iterable[tuple[float, str]]
    ) -> None:
        """Reload a snapshot's ledger into this empty accountant (start-up only).

        ``folded`` is the ``(total, count)`` of the prefix a snapshot folded
        away and ``charges`` the ``(epsilon, label)`` pairs that followed it;
        ``spent`` continues the fold from ``total``, exactly as the ledger
        that wrote them read.  The charges stay open, like those
        :meth:`restore_charge` applies from the journal after the snapshot.
        """
        total, count = folded
        if not math.isfinite(total) or total < 0 or count < 0:
            raise PrivacyError(f"invalid folded ledger prefix {folded!r}")
        with self._lock:
            if self._folded_count or self.charges:
                raise PrivacyError("a recovered ledger can only be loaded into an empty one")
            self._folded_total = self._spent = float(total)
            self._folded_count = int(count)
            for epsilon, label in charges:
                self.restore_charge(epsilon, label=label)

    def settle_all(self) -> None:
        """Commit every open charge and fold the whole ledger away.

        Right after a single-writer recovery: the reservations still open
        when the process died can no longer be rolled back, so they stay
        spent (the conservative direction) and fold like committed ones.
        """
        with self._lock:
            self._settled = [True] * len(self.charges)
            self._fold_settled_prefix()

    def settle(self, record: BudgetCharge) -> None:
        """Mark an open charge committed: it can no longer be refunded.

        The settled prefix of the ledger is then folded away; ``spent`` does
        not change.  Settling a record that is not in the ledger raises
        :class:`PrivacyError`.
        """
        with self._lock:
            for idx in range(len(self.charges) - 1, -1, -1):
                if self.charges[idx] is record:
                    self._settled[idx] = True
                    self._fold_settled_prefix()
                    return
        raise PrivacyError(f"cannot settle a charge that is not in the ledger: {record}")

    def reset(self) -> None:
        """Forget all charges, restoring the full budget.

        Only meaningful when the data the budget protected is discarded or
        rotated (e.g. a serving session is torn down and its database
        deregistered); resetting while continuing to answer queries about the
        same data voids the privacy guarantee.
        """
        with self._lock:
            self.charges.clear()
            self._settled.clear()
            self._folded_total = self._spent = 0.0
            self._folded_count = 0

    def run(self, epsilon: float, release: Callable[[], object], label: str = "") -> object:
        """Charge ``epsilon`` and, only if affordable, execute ``release()``.

        The charge is recorded *before* running the release so that a failure
        inside the release function still counts against the budget (the data
        may already have been touched).
        """
        self.charge(epsilon, label=label)
        return release()

    # Ledger edits below run with ``self._lock`` held.
    def _append(self, epsilon: float, label: str) -> BudgetCharge:
        record = BudgetCharge(epsilon=epsilon, label=label)
        self.charges.append(record)
        self._settled.append(False)
        self._spent += epsilon
        return record

    def _remove_at(self, idx: int) -> None:
        """Drop ``charges[idx]`` and refold ``spent`` over what remains."""
        del self.charges[idx]
        del self._settled[idx]
        self._spent = fold_epsilons(
            (charge.epsilon for charge in self.charges), self._folded_total
        )
        self._fold_settled_prefix()

    def _fold_settled_prefix(self) -> None:
        settled = 0
        while settled < len(self._settled) and self._settled[settled]:
            settled += 1
        if settled:
            self._folded_total = fold_epsilons(
                (charge.epsilon for charge in self.charges[:settled]), self._folded_total
            )
            self._folded_count += settled
            del self.charges[:settled]
            del self._settled[:settled]
