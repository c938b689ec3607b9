"""Replay a fuzz failure from its ``(seed, case, check)`` coordinates.

The workload generator is a pure function of ``(seed, index)``, so a
failure report never needs to ship the instance — these few lines rebuild
it exactly and re-run the failing check:

>>> from repro.qa.replay import replay_case
>>> replay_case(seed=0, case=17, check="count") is None
True

``replay_case`` is what the self-contained snippet printed with every
``repro-dp fuzz`` failure calls.
"""

from __future__ import annotations

from repro.qa.generator import FuzzCase, WorkloadGenerator
from repro.qa.runner import CHECKS, DifferentialRunner, FuzzFailure

__all__ = ["replay_case"]


def replay_case(
    seed: int,
    case: int,
    check: str | None = None,
) -> FuzzFailure | None:
    """Re-run check(s) of one generated case; ``None`` means everything passed.

    Parameters
    ----------
    seed / case:
        The generator coordinates printed in the failure report.
    check:
        One of :data:`repro.qa.runner.CHECKS`, or ``None`` to re-run the
        whole battery (the first failure, if any, is returned).
    """
    runner = DifferentialRunner(seed)
    workload: FuzzCase = WorkloadGenerator(seed).case(case)
    if check is not None:
        return runner.run_check(workload, check)
    for name in CHECKS:
        failure = runner.run_check(workload, name)
        if failure is not None:
            return failure
    return None
