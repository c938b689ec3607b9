"""The differential fuzz runner: the production engine vs oracle vs invariants.

For every generated :class:`~repro.qa.generator.FuzzCase` the runner
executes a fixed battery of checks:

``count``
    ``|q(I)|`` must agree across the brute-force oracle, the production
    engine (elimination with its enumeration fallback), and the
    exact-enumeration strategy.
``multiplicity``
    Every boundary multiplicity ``T_F(I)`` the residual-sensitivity
    formula needs: when the elimination result is exact it must equal
    exact enumeration *and* the independent nested-loop oracle, and when
    predicates were dropped it must still upper-bound both.  Residuals
    whose boundary-crossing predicates include comparisons are checked
    against the oracle's own Section 5.2 ranging over the augmented active
    domain; residuals crossed only by inequalities follow the Corollary 5.1
    infinite-domain convention and skip the oracle.
``lattice-profile``
    The shared-lattice profile evaluator
    (:func:`repro.engine.profile.evaluate_profile` — component
    memoization, isomorphism dedup, optional parallelism) must equal the
    per-subset ``boundary_multiplicity`` reference on every required
    subset — value, exactness flag and dropped-predicate multiset — and a
    2-thread evaluation must equal the serial one.  Every exact
    ``eliminate`` or ``enumerate`` result with a witness must name a group
    whose oracle count (distinct outputs, for non-full queries) is its
    value, so a wrong variable map of a shared component shows even when
    the values agree.
``profile``
    A full residual-sensitivity computation must dominate the polynomial
    local-sensitivity bound.
``local-sensitivity``
    On instances small enough for exhaustive neighbor enumeration,
    ``RS(I)`` must dominate the *exact* ``LS(I)`` — the inequality the
    privacy proof is built on.
``smoothness``
    On the case's designated neighbor pair: ``L̂S^(k)`` monotone in ``k``
    and ``L̂S^(k)(I) ≤ L̂S^(k+1)(I')`` in both directions (Theorem 3.9).
``release``
    A full private release (count + sensitivity + noise) must be bitwise
    identical when run twice with the same seed, and its ``true_count``
    must equal the oracle count.
``incremental``
    A seed-addressable random edit script applied through the delta path
    (:meth:`Relation.add_rows` / :meth:`Relation.remove_rows` /
    :meth:`Relation.replace`, with warm columnar snapshots and coded
    columns maintained in place) must leave the database
    indistinguishable from a from-scratch rebuild with the same final
    rows: tuple sets, counts, full lattice profiles and bitwise seeded
    releases must agree.  A component cache filled before the script and
    re-queried after every step (so its entries are caught up from the
    change logs where they can be) must give the rebuild's profile, count
    and seeded release too; :attr:`FuzzReport.delta_cases` counts the
    cases in which it caught a component up by delta.

Every failure is wrapped in a :class:`FuzzFailure` that carries a
self-contained replay snippet — paste it into a Python prompt (or pipe to
``python -``) and the exact failing check re-runs from its
``(seed, case, check)`` coordinates.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.data.database import Database
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.domains import augmented_active_domain
from repro.engine.profile import evaluate_profile
from repro.engine.evaluation import count_query
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.qa.generator import FuzzCase, WorkloadGenerator
from repro.qa.oracle import (
    oracle_count,
    oracle_crossing_max_group_count,
    oracle_group_counts,
    oracle_local_sensitivity,
    oracle_max_group_count,
    oracle_neighbor_cost,
)
from repro.query.cq import ConjunctiveQuery
from repro.query.residual import residual_query
from repro.sensitivity.local import local_sensitivity_upper_bound
from repro.sensitivity.residual import ResidualSensitivity

__all__ = ["CHECKS", "DifferentialRunner", "FuzzFailure", "FuzzReport"]

#: The checks the runner executes, in execution order.
CHECKS = (
    "count",
    "multiplicity",
    "lattice-profile",
    "profile",
    "local-sensitivity",
    "smoothness",
    "release",
    "incremental",
)

#: Numerical slack for float comparisons of analytically-ordered quantities.
_TOL = 1e-9


@dataclass(frozen=True)
class FuzzFailure:
    """One failed check, with everything needed to reproduce it."""

    seed: int
    case_index: int
    check: str
    message: str
    replay: str
    case: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "case": self.case_index,
            "check": self.check,
            "message": self.message,
            "replay": self.replay,
            "workload": self.case,
        }


@dataclass
class FuzzReport:
    """The outcome of a fuzz run."""

    seed: int
    cases: int
    start: int = 0
    checks_run: int = 0
    oracle_ls_cases: int = 0
    #: Cases whose ``incremental`` check caught a cached component up by
    #: delta at least once.
    delta_cases: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "start": self.start,
            "checks_run": self.checks_run,
            "oracle_ls_cases": self.oracle_ls_cases,
            "delta_cases": self.delta_cases,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
        }


def replay_snippet(case: FuzzCase, check: str) -> str:
    """A paste-ready snippet that re-runs exactly this check."""
    lines = [
        "# repro-dp fuzz failure replay",
        f"# seed={case.seed} case={case.index} check={check}",
        f"# query: {case.query_text}",
    ]
    for spec in case.relations:
        rows = ", ".join(str(row) for row in case.rows[spec.name])
        lines.append(
            f"# {spec.name}(arity {spec.arity}, domain 0..{spec.domain_size - 1}, "
            f"{'private' if spec.private else 'public'}): [{rows}]"
        )
    lines.append(
        f"# neighbor edit: {case.neighbor_op} {case.neighbor_row} "
        f"on {case.neighbor_relation}"
    )
    lines += [
        "from repro.qa.replay import replay_case",
        "",
        f"failure = replay_case(seed={case.seed}, case={case.index}, check={check!r})",
        'print(failure.message if failure else "check passed")',
    ]
    return "\n".join(lines)


class DifferentialRunner:
    """Run the differential check battery over generated workloads.

    Parameters
    ----------
    seed:
        Master seed for the workload generator.
    oracle_budget:
        Work-estimate cap above which the exhaustive-neighbor
        ``local-sensitivity`` check is skipped for a case (see
        :func:`repro.qa.oracle.oracle_neighbor_cost`).
    """

    def __init__(self, seed: int = 0, *, oracle_budget: int = 150_000):
        self._generator = WorkloadGenerator(seed)
        self._oracle_budget = oracle_budget

    @property
    def seed(self) -> int:
        """The master seed of the workload generator."""
        return self._generator.seed

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def run(
        self,
        cases: int,
        *,
        start: int = 0,
        on_case: Callable[[int, list[FuzzFailure]], None] | None = None,
    ) -> FuzzReport:
        """Run ``cases`` consecutive cases and collect every failure."""
        report = FuzzReport(seed=self.seed, cases=cases, start=start)
        for index in range(start, start + cases):
            case = self._generator.case(index)
            failures = self.run_case(case, report=report)
            report.failures.extend(failures)
            if on_case is not None:
                on_case(index, failures)
        return report

    def run_case(
        self, case: FuzzCase, *, report: FuzzReport | None = None
    ) -> list[FuzzFailure]:
        """Run every check of the battery on one case."""
        failures = []
        for check in CHECKS:
            failure = self.run_check(case, check, report=report)
            if failure is not None:
                failures.append(failure)
        return failures

    def run_check(
        self, case: FuzzCase, check: str, *, report: FuzzReport | None = None
    ) -> FuzzFailure | None:
        """Run a single named check; ``None`` means it passed."""
        if check not in CHECKS:
            raise ValueError(f"unknown fuzz check {check!r}; known: {CHECKS}")
        method = getattr(self, "_check_" + check.replace("-", "_"))
        try:
            message = method(case, report)
        except Exception:
            message = f"check raised:\n{traceback.format_exc()}"
        if report is not None:
            report.checks_run += 1
        if message is None:
            return None
        return FuzzFailure(
            seed=case.seed,
            case_index=case.index,
            check=check,
            message=message,
            replay=replay_snippet(case, check),
            case=case.describe(),
        )

    # ------------------------------------------------------------------ #
    # Individual checks (return an error message, or None on success)
    # ------------------------------------------------------------------ #
    def _check_count(self, case: FuzzCase, report) -> str | None:
        query, db = case.query(), case.database()
        expected = oracle_count(query, db)
        observed = {
            "strategy=auto": count_query(query, db),
            "strategy=enumerate": count_query(query, db, strategy="enumerate"),
        }
        mismatched = {k: v for k, v in observed.items() if v != expected}
        if mismatched:
            return f"oracle count {expected} but {mismatched}"
        return None

    def _check_multiplicity(self, case: FuzzCase, report) -> str | None:
        query, db = case.query(), case.database()
        engine = ResidualSensitivity(query, beta=case.beta)
        problems = []
        for kept in engine.required_subsets(db):
            label = tuple(sorted(kept))
            got = boundary_multiplicity(query, db, kept)
            exact = boundary_multiplicity(query, db, kept, strategy="enumerate")
            if got.exact and exact.value != got.value:
                problems.append(
                    f"T_{label}: exact enumeration {exact.value} != "
                    f"eliminate {got.value} (claimed exact)"
                )
            elif exact.value > got.value:
                problems.append(
                    f"T_{label}: upper bound {got.value} below exact {exact.value}"
                )
            oracle = self._oracle_multiplicity(query, db, kept)
            if oracle is None:
                continue  # crossed only by inequalities: convention-defined, skip
            if got.exact and got.value != oracle:
                problems.append(
                    f"T_{label}: independent oracle {oracle} != "
                    f"production {got.value} (claimed exact)"
                )
            elif got.value < oracle:
                problems.append(
                    f"T_{label}: upper bound {got.value} below oracle {oracle}"
                )
        return "; ".join(problems) or None

    @staticmethod
    def _oracle_multiplicity(query, db, kept) -> int | None:
        """``T_F`` recomputed on the independent nested-loop oracle.

        Comparison predicates crossing the boundary are resolved the
        Section 5.2 way, by ranging the outside variables over the augmented
        active domain.  Residuals crossed only by inequalities (or by
        generic predicates) are skipped (``None``): their value follows the
        paper's infinite-domain convention (Corollary 5.1), which the
        finite-instance oracle deliberately does not model.
        """
        residual = residual_query(query, kept)
        crossing = [p for p in residual.dropped_predicates if not p.is_inequality]
        if residual.is_empty or (residual.dropped_predicates and not crossing):
            return None
        if not all(p.is_comparison for p in crossing):
            return None
        sub_query = ConjunctiveQuery(
            [query.atoms[index] for index in sorted(residual.atom_indices)],
            residual.predicates,
        )
        group_vars = tuple(sorted(residual.boundary_relational, key=lambda v: v.name))
        distinct_on = None if query.is_full else tuple(residual.output_variables)
        if crossing:
            free_vars = tuple(sorted(residual.boundary_predicate_only, key=lambda v: v.name))
            return oracle_crossing_max_group_count(
                sub_query,
                db,
                group_vars,
                crossing,
                free_vars,
                augmented_active_domain(query, db),
                distinct_on,
            )
        return oracle_max_group_count(sub_query, db, group_vars, distinct_on)

    def _check_lattice_profile(self, case: FuzzCase, report) -> str | None:
        from repro.query.hypergraph import QueryHypergraph

        query, db = case.query(), case.database()
        engine = ResidualSensitivity(query, beta=case.beta)
        subsets = engine.required_subsets(db)
        # Independently derived decomposition sizes — the check must not
        # trust the evaluator's own arithmetic for its ground truth.
        expected_components = sum(
            len(QueryHypergraph(query, kept).connected_components())
            for kept in subsets
            if kept
        )
        problems = []
        shared = evaluate_profile(query, db, subsets)
        stats = shared.stats
        evaluated_ok = (
            stats.components_evaluated == 0
            if expected_components == 0  # only the empty residual subset
            else 0 < stats.components_evaluated <= expected_components
        )
        if stats.components_total != expected_components or not evaluated_ok:
            problems.append(
                f"profiler counters wrong: "
                f"{stats.components_evaluated} evaluated of "
                f"{stats.components_total} total, independent decomposition "
                f"says {expected_components}"
            )
        if stats.subsets_total != len(subsets):
            problems.append(
                f"subsets_total {stats.subsets_total} != "
                f"{len(subsets)} required subsets"
            )
        for kept in subsets:
            label = tuple(sorted(kept))
            base = boundary_multiplicity(query, db, kept)
            got = shared.results[kept]
            if (got.value, got.exact) != (base.value, base.exact):
                problems.append(
                    f"T_{label}: shared-lattice "
                    f"({got.value}, exact={got.exact}) != per-subset "
                    f"({base.value}, exact={base.exact})"
                )
            elif sorted(map(repr, got.dropped_predicates)) != sorted(
                map(repr, base.dropped_predicates)
            ):
                problems.append(
                    f"T_{label}: dropped predicates differ: "
                    f"shared-lattice {got.dropped_predicates!r} != "
                    f"per-subset {base.dropped_predicates!r}"
                )
            if (
                got.exact
                and got.strategy in ("eliminate", "enumerate")
                and got.witness is not None
            ):
                witnessed = self._oracle_witness_count(query, db, kept, got)
                if witnessed != got.value:
                    problems.append(
                        f"T_{label}: witness {got.witness!r} of "
                        f"{got.boundary!r} has oracle count {witnessed}, "
                        f"not the value {got.value}"
                    )
        parallel = evaluate_profile(query, db, subsets, parallelism=2)
        serial = evaluate_profile(query, db, subsets)
        for kept in subsets:
            if parallel.results[kept] != serial.results[kept]:
                problems.append(
                    f"T_{tuple(sorted(kept))}: parallel evaluation "
                    f"{parallel.results[kept]!r} != serial {serial.results[kept]!r}"
                )
        return "; ".join(problems) or None

    @staticmethod
    def _oracle_witness_count(query, db, kept, result) -> int:
        """The oracle's count of the group ``result.witness`` names in the
        residual on ``kept`` (its predicates inside, grouped by
        ``result.boundary``)."""
        residual = residual_query(query, kept)
        sub_query = ConjunctiveQuery(
            [query.atoms[index] for index in sorted(kept)], residual.predicates
        )
        distinct_on = None if query.is_full else tuple(residual.output_variables)
        counts = oracle_group_counts(sub_query, db, result.boundary, distinct_on)
        return counts.get(result.witness, 0)

    def _check_profile(self, case: FuzzCase, report) -> str | None:
        query, db = case.query(), case.database()
        rs = ResidualSensitivity(query, beta=case.beta).compute(db)
        bound = local_sensitivity_upper_bound(query, db)
        if rs.value < bound.value - _TOL:
            return f"RS {rs.value} below the LS residual bound {bound.value}"
        return None

    def _check_local_sensitivity(self, case: FuzzCase, report) -> str | None:
        query, db = case.query(), case.database()
        if oracle_neighbor_cost(query, db) > self._oracle_budget:
            return None  # too large for the exhaustive oracle; skip silently
        if report is not None:
            report.oracle_ls_cases += 1
        exact_ls = oracle_local_sensitivity(query, db)
        rs = ResidualSensitivity(query, beta=case.beta).compute(db)
        if rs.value < exact_ls - _TOL:
            return (
                f"RS {rs.value} < exact LS {exact_ls}: noise calibrated to RS "
                "would break the privacy guarantee"
            )
        return None

    def _check_smoothness(self, case: FuzzCase, report) -> str | None:
        query = case.query()
        db, neighbor = case.database(), case.neighbor_database()
        engine = ResidualSensitivity(query, beta=case.beta)
        base_profile = engine.multiplicities(db)
        neighbor_profile = engine.multiplicities(neighbor)
        base = [engine.ls_hat(db, k, base_profile) for k in range(3)]
        near = [engine.ls_hat(neighbor, k, neighbor_profile) for k in range(3)]
        for k in range(2):
            if base[k + 1] < base[k] - _TOL:
                return f"L̂S^({k + 1})={base[k + 1]} < L̂S^({k})={base[k]} (not monotone)"
            if near[k + 1] < base[k] - _TOL:
                return (
                    f"smoothness violated: L̂S^({k})(I)={base[k]} > "
                    f"L̂S^({k + 1})(I')={near[k + 1]}"
                )
            if base[k + 1] < near[k] - _TOL:
                return (
                    f"smoothness violated: L̂S^({k})(I')={near[k]} > "
                    f"L̂S^({k + 1})(I)={base[k + 1]}"
                )
        return None

    def _check_release(self, case: FuzzCase, report) -> str | None:
        query, db = case.query(), case.database()
        first, again = (
            PrivateCountingQuery(
                query,
                epsilon=case.epsilon,
                rng=np.random.default_rng((case.seed, case.index)),
            ).release(db, keep_true_count=True)
            for _ in range(2)
        )
        if (first.noisy_count, first.sensitivity, first.true_count) != (
            again.noisy_count,
            again.sensitivity,
            again.true_count,
        ):
            return (
                f"seeded release not reproducible: first=(noisy={first.noisy_count!r}, "
                f"S={first.sensitivity!r}, count={first.true_count!r}) "
                f"again=(noisy={again.noisy_count!r}, S={again.sensitivity!r}, "
                f"count={again.true_count!r})"
            )
        expected = oracle_count(query, db)
        if first.true_count != expected:
            return f"released true_count {first.true_count!r} != oracle count {expected}"
        scale = first.sensitivity / case.beta
        if not math.isclose(first.expected_error, scale, rel_tol=1e-9, abs_tol=1e-12):
            return (
                f"expected error {first.expected_error} does not match the "
                f"calibrated scale S/β = {scale}"
            )
        return None

    def _check_incremental(self, case: FuzzCase, report) -> str | None:
        import random

        from repro.service.cache import LRUCache

        query, db = case.query(), case.database()
        engine = ResidualSensitivity(query, beta=case.beta)
        subsets = engine.required_subsets(db)
        # Warm the columnar snapshots and coded columns, and fill a component
        # cache, first: the edit script then exercises the *in-place*
        # maintenance of both rather than a cold rebuild.
        cache = LRUCache(4096)

        def through_cache():
            return (
                evaluate_profile(query, db, subsets, component_cache=cache),
                count_query(query, db, component_cache=cache),
            )

        cached = through_cache()
        delta_updates = 0

        # Seed-addressable edit script over the delta path, re-querying the
        # cache after every step.
        rng = random.Random(f"{case.seed}:{case.index}:incremental")
        script = []
        for _ in range(rng.randrange(3, 8)):
            spec = rng.choice(case.relations)
            rel = db.relation(spec.name)

            def random_row():
                return tuple(
                    rng.randrange(spec.domain_size) for _ in range(spec.arity)
                )

            op = rng.choice(("insert", "insert", "delete", "replace"))
            if op == "insert":
                row = random_row()
                rel.add_rows([row])
                script.append(("insert", spec.name, row))
            elif op == "delete":
                pool = sorted(rel.tuples())
                row = rng.choice(pool) if pool else random_row()
                rel.remove_rows([row])  # tolerated no-op when absent
                script.append(("delete", spec.name, row))
            else:
                pool = sorted(rel.tuples())
                if not pool:
                    continue
                old, new = rng.choice(pool), random_row()
                rel.replace(old, new)
                script.append(("replace", spec.name, old, new))
            cached = through_cache()
            delta_updates += cached[0].stats.component_delta_updates
        if not script:
            return None
        if delta_updates and report is not None:
            report.delta_cases += 1

        # From-scratch rebuild with the same final rows.
        fresh = Database(
            case.schema(),
            relations={
                spec.name: sorted(db.relation(spec.name).tuples())
                for spec in case.relations
            },
        )
        problems = []
        for spec in case.relations:
            mutated = db.relation(spec.name).tuples()
            rebuilt = fresh.relation(spec.name).tuples()
            if mutated != rebuilt:
                problems.append(
                    f"{spec.name}: mutated tuple set {sorted(mutated)} != "
                    f"rebuilt {sorted(rebuilt)}"
                )
        if problems:
            return "; ".join(problems)  # no point comparing query results

        fresh_count = count_query(query, fresh)
        fresh_profile = evaluate_profile(query, fresh, subsets)
        for label, count, profile in (
            ("delta path", count_query(query, db), evaluate_profile(query, db, subsets)),
            ("component cache", cached[1], cached[0]),
        ):
            if count != fresh_count:
                problems.append(
                    f"count after edit script {script}: "
                    f"{label} {count} != rebuild {fresh_count}"
                )
            for kept in subsets:
                got, want = profile.results[kept], fresh_profile.results[kept]
                if (got.value, got.exact) != (want.value, want.exact):
                    problems.append(
                        f"T_{tuple(sorted(kept))}: {label} "
                        f"({got.value}, exact={got.exact}) != rebuild "
                        f"({want.value}, exact={want.exact})"
                    )
                elif sorted(map(repr, got.dropped_predicates)) != sorted(
                    map(repr, want.dropped_predicates)
                ):
                    problems.append(
                        f"T_{tuple(sorted(kept))}: dropped predicates "
                        f"differ: {label} {got.dropped_predicates!r} != "
                        f"rebuild {want.dropped_predicates!r}"
                    )

        def release(instance, **precomputed):
            releaser = PrivateCountingQuery(
                query,
                epsilon=case.epsilon,
                rng=np.random.default_rng((case.seed, case.index)),
            )
            if precomputed:
                precomputed["sensitivity"] = ResidualSensitivity(
                    query, beta=releaser.beta
                ).compute(instance, multiplicities=precomputed["sensitivity"])
            return releaser.release(instance, keep_true_count=True, **precomputed)

        rb = release(fresh)
        for label, dl in (
            ("delta", release(db)),
            ("cache", release(db, true_count=cached[1], sensitivity=cached[0].results)),
        ):
            if (dl.noisy_count, dl.sensitivity, dl.true_count) != (
                rb.noisy_count,
                rb.sensitivity,
                rb.true_count,
            ):
                problems.append(
                    f"seeded release differs after edit script: "
                    f"{label}=(noisy={dl.noisy_count!r}, S={dl.sensitivity!r}, "
                    f"count={dl.true_count!r}) rebuild=(noisy={rb.noisy_count!r}, "
                    f"S={rb.sensitivity!r}, count={rb.true_count!r})"
                )
        return "; ".join(problems) or None
