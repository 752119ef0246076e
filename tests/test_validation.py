"""Oracle tests: Monte Carlo TV estimation, closed-form overlaps,
finite-difference gradient checking, and the distance-matching attack."""

import math

import numpy as np
import pytest

from prgd.accountant import PrivacySpec, per_step_delta
from prgd.optimizer import LossModel, least_squares, scalar_factorization
from prgd.validation import (
    MCEstimate,
    WORKERS_ENV,
    closed_form_overlap_check,
    grad_check,
    mc_tv_distance,
    surface_noise_distinguisher,
)


class TestMCEstimate:
    def test_binomial_standard_error_invariant(self):
        est = mc_tv_distance(2, 1.0, 1.0, 50_000, 3)
        expected = math.sqrt(est.value * (1.0 - est.value) / est.samples)
        assert est.standard_error == expected
        assert est.samples == 50_000
        assert est.seed == 3


class TestMcTvDistance:
    def test_coincident_balls_give_exact_zero(self):
        est = mc_tv_distance(3, 0.0, 1.0, 100_000, 1)
        assert est.value == 0.0

    def test_disjoint_balls_give_exact_one(self):
        for dx in (2.0, 3.5):
            assert mc_tv_distance(2, dx, 1.0, 100_000, 2).value == 1.0
        assert mc_tv_distance(2, 1.0, 0.5, 100_000, 2).value == 1.0

    def test_three_dimensional_agreement(self):
        """10⁶-sample estimate of δ(3, 1) = 0.6875 lands within 3·0.00046."""
        analytic = per_step_delta(PrivacySpec(3, 1.0, 1, 1))
        est = mc_tv_distance(3, 1.0, 1.0, 1_000_000, 10)
        se = math.sqrt(analytic * (1.0 - analytic) / est.samples)
        assert se == pytest.approx(0.00046, abs=2e-5)
        assert abs(est.value - analytic) <= 3.0 * se

    def test_unbiasedness_pools_across_runs(self):
        """The mean of 20 independent runs lands within 3 pooled standard
        errors of the analytic value."""
        analytic = per_step_delta(PrivacySpec(3, 1.0, 1, 1))
        samples = 200_000
        values = [mc_tv_distance(3, 1.0, 1.0, samples, 500 + i).value for i in range(20)]
        pooled_se = math.sqrt(analytic * (1.0 - analytic) / samples) / math.sqrt(20)
        assert abs(float(np.mean(values)) - analytic) <= 3.0 * pooled_se

    def test_worker_count_does_not_change_result(self, monkeypatch):
        baseline = mc_tv_distance(3, 1.0, 1.0, 600_000, 5)
        monkeypatch.setenv(WORKERS_ENV, "3")
        fanned = mc_tv_distance(3, 1.0, 1.0, 600_000, 5)
        assert fanned == baseline

    def test_rejects_bad_worker_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError):
            mc_tv_distance(2, 1.0, 1.0, 1000, 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_tv_distance(2, -1.0, 1.0, 100, 0)
        with pytest.raises(ValueError):
            mc_tv_distance(2, 1.0, 1.0, 0, 0)


class TestClosedFormOverlapCheck:
    def test_interval_overlap(self):
        analytic, closed = closed_form_overlap_check(1, 0.5)
        assert closed == 1.5
        assert analytic == pytest.approx(1.5, rel=1e-12)

    def test_sphere_overlap(self):
        analytic, closed = closed_form_overlap_check(3, 1.0)
        assert closed == pytest.approx(1.25 * math.pi / 3.0, rel=1e-14)
        assert analytic == pytest.approx(closed, rel=1e-10)

    def test_tangent_disks(self):
        analytic, closed = closed_form_overlap_check(2, 2.0)
        assert analytic == 0.0 and closed == 0.0

    def test_grid_agreement(self):
        """300 cases: 100-point grid for each of d = 1, 2, 3."""
        for d in (1, 2, 3):
            for dx in np.linspace(0.0, 2.0, 100):
                analytic, closed = closed_form_overlap_check(d, float(dx))
                assert abs(analytic - closed) <= 1e-10 * max(abs(analytic), abs(closed), 1e-300) or (
                    analytic == 0.0 and closed == 0.0
                )

    def test_scales_with_radius(self):
        analytic, closed = closed_form_overlap_check(2, 1.0, radius=2.0)
        assert analytic == pytest.approx(closed, rel=1e-10)

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            closed_form_overlap_check(4, 1.0)


class TestGradCheck:
    def test_least_squares_matches(self):
        rng = np.random.default_rng(20)
        model = least_squares(3)
        for _ in range(10):
            w = rng.standard_normal(3)
            x = rng.standard_normal(3)
            y = float(rng.standard_normal())
            assert grad_check(model, w, (x, y), 1e-6) <= 1e-5

    def test_factorization_at_saddle(self):
        """Zero gradient at the saddle; finite differences agree to 1e-6."""
        model = scalar_factorization(1)
        record = (np.array([1.2]), 0.8)
        np.testing.assert_array_equal(
            model.gradient(np.zeros(2), record[0][np.newaxis, :], np.array([record[1]])),
            np.zeros((1, 2)),
        )
        assert grad_check(model, np.zeros(2), record, 1e-6) <= 1e-6

    def test_constant_loss_is_exact(self):
        constant = LossModel(
            "constant", 2,
            lambda w, features, labels: np.full(len(labels), 1.25),
            lambda w, features, labels: np.zeros((len(labels), 2)),
        )
        assert grad_check(constant, np.ones(2), (np.ones(2), 0.0), 1e-4) == 0.0

    def test_rejects_bad_step(self):
        model = least_squares(1)
        for step in (0.0, -1e-6, 1e-2):
            with pytest.raises(ValueError):
                grad_check(model, np.zeros(1), (np.ones(1), 1.0), step)


class TestSurfaceNoiseDistinguisher:
    def test_surface_noise_is_identifiable(self):
        """Circle-circle intersections are two points: ties have measure
        zero and the adversary wins essentially always."""
        est = surface_noise_distinguisher(2, 1.0, 100_000, 7, "surface")
        assert est.value >= 0.9999

    def test_one_dimensional_supports_are_disjoint(self):
        """Centres 0 and 1 give supports {−1, 1} and {0, 2}: rate is 1."""
        est = surface_noise_distinguisher(1, 1.0, 100_000, 9, "surface")
        assert est.value == 1.0

    def test_ball_noise_control_is_bounded_away_from_one(self):
        """Volume noise leaves the overlap unattributable: the rate sits at
        δ + (1−δ)/2 and strictly below 1."""
        for d, dx in ((2, 1.0), (3, 0.5)):
            delta = per_step_delta(PrivacySpec(d, dx, 1, 1))
            expected = delta + 0.5 * (1.0 - delta)
            est = surface_noise_distinguisher(d, dx, 100_000, 13, "ball")
            assert est.value < 0.95
            assert abs(est.value - expected) <= 4.0 * est.standard_error

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            surface_noise_distinguisher(2, 0.0, 100, 0)
        with pytest.raises(ValueError):
            surface_noise_distinguisher(2, 2.0, 100, 0)
        with pytest.raises(ValueError):
            surface_noise_distinguisher(2, 1.0, 100, 0, "gaussian")

    def test_deterministic_given_seed(self):
        a = surface_noise_distinguisher(3, 0.8, 50_000, 21, "ball")
        b = surface_noise_distinguisher(3, 0.8, 50_000, 21, "ball")
        assert a == b
