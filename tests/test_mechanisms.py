"""Tests for the DP release mechanisms and the accountant."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.database import Database
from repro.exceptions import PrivacyError
from repro.graphs.patterns import k_star_query, triangle_query
from repro.mechanisms.accountant import PrivacyAccountant
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.mechanisms.smooth_mechanism import SmoothSensitivityMechanism
from repro.query.parser import parse_query
from repro.sensitivity.base import SensitivityResult
from repro.sensitivity.residual import ResidualSensitivity


class TestSmoothSensitivityMechanism:
    def test_beta_defaults_to_epsilon_over_ten(self):
        mechanism = SmoothSensitivityMechanism(epsilon=1.0)
        assert mechanism.beta == pytest.approx(0.1)

    def test_noise_scale_and_expected_error(self):
        mechanism = SmoothSensitivityMechanism(epsilon=1.0)
        assert mechanism.noise_scale(5.0) == pytest.approx(50.0)
        assert mechanism.expected_error(5.0) == pytest.approx(50.0)

    def test_release_record(self):
        mechanism = SmoothSensitivityMechanism(epsilon=1.0, rng=0)
        release = mechanism.release(100, 5.0)
        assert release.true_count == 100
        assert release.sensitivity == 5.0
        assert release.noise_scale == pytest.approx(50.0)
        assert release.epsilon == 1.0
        assert math.isfinite(release.noisy_count)

    def test_release_is_unbiased(self):
        mechanism = SmoothSensitivityMechanism(epsilon=1.0, rng=123)
        noisy = [mechanism.release(1000, 2.0).noisy_count for _ in range(4000)]
        assert np.mean(noisy) == pytest.approx(1000, abs=2.0)

    def test_beta_mismatch_rejected(self):
        mechanism = SmoothSensitivityMechanism(epsilon=1.0)
        wrong = SensitivityResult(measure="RS", value=3.0, beta=0.5)
        with pytest.raises(PrivacyError):
            mechanism.release(10, wrong)
        right = SensitivityResult(measure="RS", value=3.0, beta=0.1)
        mechanism_release = SmoothSensitivityMechanism(epsilon=1.0, rng=0).release(10, right)
        assert mechanism_release.sensitivity == 3.0

    def test_invalid_parameters(self):
        with pytest.raises(PrivacyError):
            SmoothSensitivityMechanism(epsilon=0.0)
        mechanism = SmoothSensitivityMechanism(epsilon=1.0)
        with pytest.raises(PrivacyError):
            mechanism.noise_scale(-1.0)
        with pytest.raises(PrivacyError):
            mechanism.noise_scale(float("inf"))


class TestLaplaceMechanism:
    def test_noise_scale_from_explicit_gs(self, join_query, small_join_db):
        mechanism = LaplaceMechanism(join_query, epsilon=2.0, global_sensitivity=10.0, rng=0)
        assert mechanism.noise_scale(small_join_db) == pytest.approx(5.0)
        assert mechanism.expected_error(small_join_db) == pytest.approx(5.0 * math.sqrt(2.0))

    def test_noise_scale_from_agm_bound(self, join_query, small_join_db):
        mechanism = LaplaceMechanism(join_query, epsilon=1.0, rng=0)
        assert mechanism.noise_scale(small_join_db) > 0

    def test_release_close_to_truth_for_small_scale(self, join_query, small_join_db):
        mechanism = LaplaceMechanism(
            join_query, epsilon=1.0, global_sensitivity=0.001, rng=0
        )
        release = mechanism.release(small_join_db)
        assert release == pytest.approx(7.0, abs=0.5)

    def test_invalid_parameters(self, join_query):
        with pytest.raises(PrivacyError):
            LaplaceMechanism(join_query, epsilon=-1.0)
        with pytest.raises(PrivacyError):
            LaplaceMechanism(join_query, epsilon=1.0, global_sensitivity=-5.0)


class TestPrivateCountingQuery:
    def test_residual_release(self, join_query, small_join_db):
        releaser = PrivateCountingQuery(join_query, epsilon=1.0, rng=0)
        release = releaser.release(small_join_db, keep_true_count=True)
        assert release.method == "residual"
        assert release.true_count == 7
        assert release.sensitivity > 0
        assert math.isfinite(release.noisy_count)

    def test_true_count_hidden_by_default(self, join_query, small_join_db):
        release = PrivateCountingQuery(join_query, epsilon=1.0, rng=0).release(small_join_db)
        assert release.true_count is None

    def test_elastic_method(self, k4_db):
        releaser = PrivateCountingQuery(
            triangle_query(), epsilon=1.0, method="elastic", rng=1
        )
        release = releaser.release(k4_db, true_count=24)
        assert release.method == "elastic"
        assert release.sensitivity > 0

    def test_smooth_triangle_and_star_methods(self, k4_db):
        triangle_release = PrivateCountingQuery(
            triangle_query(), epsilon=1.0, method="smooth-triangle", rng=2
        ).release(k4_db, true_count=24)
        star_release = PrivateCountingQuery(
            k_star_query(3), epsilon=1.0, method="smooth-star", rng=2
        ).release(k4_db, true_count=24)
        assert triangle_release.sensitivity > 0
        assert star_release.sensitivity > 0

    def test_closed_forms_refuse_other_queries(self):
        # Each closed form holds only for the pattern it was derived for; on
        # another query it would calibrate the noise to the wrong relation.
        path = parse_query("R(x, y), R(y, z)")
        for method in ("smooth-triangle", "smooth-star"):
            with pytest.raises(PrivacyError, match=method):
                PrivateCountingQuery(path, epsilon=1.0, method=method)
        renamed = parse_query("Edge(a, b), Edge(b, c), Edge(a, c), a != b, a != c, b != c")
        for query, method in (
            (triangle_query(), "smooth-triangle"),
            (renamed, "smooth-triangle"),
            (k_star_query(3), "smooth-star"),
        ):
            assert PrivateCountingQuery(query, epsilon=1.0, method=method).method == method

    def test_global_method(self, join_query, small_join_db):
        release = PrivateCountingQuery(
            join_query, epsilon=1.0, method="global", rng=3
        ).release(small_join_db, keep_true_count=True)
        assert release.method == "global"
        assert release.true_count == 7

    def test_sensitivity_matches_engine(self, join_query, small_join_db):
        releaser = PrivateCountingQuery(join_query, epsilon=1.0, rng=0)
        direct = ResidualSensitivity(join_query, beta=0.1).compute(small_join_db)
        assert releaser.sensitivity(small_join_db).value == pytest.approx(direct.value)

    def test_expected_error_is_ten_sensitivity_over_epsilon(self, join_query, small_join_db):
        releaser = PrivateCountingQuery(join_query, epsilon=2.0, rng=0)
        release = releaser.release(small_join_db)
        assert release.expected_error == pytest.approx(10.0 * release.sensitivity / 2.0)

    def test_invalid_arguments(self, join_query):
        with pytest.raises(PrivacyError):
            PrivateCountingQuery(join_query, epsilon=0.0)
        with pytest.raises(PrivacyError):
            PrivateCountingQuery(join_query, epsilon=1.0, method="bogus")


class TestPrivacyAccountant:
    def test_charging_and_remaining(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        accountant.charge(0.25, label="q1")
        accountant.charge(0.25, label="q2")
        assert accountant.spent == pytest.approx(0.5)
        assert accountant.remaining == pytest.approx(0.5)
        assert accountant.charge_count == 2

    def test_budget_exhaustion(self):
        accountant = PrivacyAccountant(total_budget=0.3)
        accountant.charge(0.3)
        with pytest.raises(PrivacyError):
            accountant.charge(0.01)

    def test_can_afford(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        assert accountant.can_afford(1.0)
        assert not accountant.can_afford(1.5)
        with pytest.raises(PrivacyError):
            accountant.can_afford(0.0)

    def test_run_charges_before_release(self, join_query, small_join_db):
        accountant = PrivacyAccountant(total_budget=2.0)
        releaser = PrivateCountingQuery(join_query, epsilon=1.0, rng=0)
        result = accountant.run(1.0, lambda: releaser.release(small_join_db), label="join")
        assert math.isfinite(result.noisy_count)
        assert accountant.spent == pytest.approx(1.0)

    def test_invalid_budget(self):
        with pytest.raises(PrivacyError):
            PrivacyAccountant(total_budget=0.0)

    def test_reset_restores_full_budget(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        accountant.charge(0.75, label="q1")
        accountant.reset()
        assert accountant.spent == 0.0
        assert accountant.remaining == pytest.approx(1.0)
        accountant.charge(1.0)  # affordable again

    def test_folding_continues_the_left_fold(self):
        """Checked and unchecked charges fold in order, never regrouped:
        (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit."""
        expected = (0.1 + 0.2) + 0.3
        assert expected != 0.1 + (0.2 + 0.3)
        accountant = PrivacyAccountant(total_budget=10.0)
        accountant.charge(0.1)
        accountant.fold(0.2)  # a charge checked elsewhere (or journaled)
        accountant.charge(0.3)
        total, count = accountant.snapshot()
        assert (total.hex(), count) == (expected.hex(), 3)
        assert accountant.spent.hex() == expected.hex()

    def test_restore_ledger_continues_the_fold(self):
        accountant = PrivacyAccountant(total_budget=10.0)
        accountant.restore_ledger((0.1, 1), [0.2, 0.3])  # listed charges load as charges
        assert accountant.spent.hex() == ((0.1 + 0.2) + 0.3).hex()
        assert accountant.charge_count == 3
        accountant.fold(0.7)
        assert accountant.snapshot() == ((((0.1 + 0.2) + 0.3) + 0.7), 4)
        with pytest.raises(PrivacyError):  # only an empty ledger takes one
            accountant.restore_ledger((0.0, 0), [])

    def test_concurrent_charges_never_overspend(self):
        import threading

        accountant = PrivacyAccountant(total_budget=1.0)
        granted = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(10):
                try:
                    accountant.charge(0.05)
                    granted.append(1)
                except PrivacyError:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly 20 charges of 0.05 fit in a budget of 1.0, no matter the
        # interleaving of the 8 threads.
        assert len(granted) == 20
        assert accountant.spent == pytest.approx(1.0)
        assert accountant.charge_count == 20
