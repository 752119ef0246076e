"""Ball geometry and sampler tests.

Volume oracles are the elementary closed forms (interval, disk, 3-sphere);
sampler distributions are checked against exact uniform-ball moments.
"""

import math

import numpy as np
import pytest

from prgd.geometry import (
    BallSpec,
    ball_volume,
    cap_volume,
    overlap_volume,
    sample_ball,
    sample_sphere_surface,
)
from prgd.rng import derive_rng
from prgd.validation import closed_form_overlap_check

# chi-square critical value at the 0.1% level for 99 degrees of freedom
CHI2_99_CRIT_999 = 148.23


class TestBallSpec:
    def test_rejects_bad_dimension(self):
        for d in (0, -1):
            with pytest.raises(ValueError):
                BallSpec(d)

    def test_rejects_bad_radius(self):
        for r in (0.0, -2.0):
            with pytest.raises(ValueError):
                BallSpec(3, r)


class TestBallVolume:
    def test_interval(self):
        assert ball_volume(BallSpec(1)) == pytest.approx(2.0, rel=1e-12)

    def test_disk(self):
        assert ball_volume(BallSpec(2)) == pytest.approx(math.pi, rel=1e-12)

    def test_sphere(self):
        assert ball_volume(BallSpec(3)) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_radius_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 30))
            r = float(rng.uniform(0.1, 5.0))
            assert ball_volume(BallSpec(d, r)) == pytest.approx(
                r**d * ball_volume(BallSpec(d)), rel=1e-12
            )


class TestCapVolume:
    def test_hemisphere(self):
        for d in (1, 2, 3, 7):
            spec = BallSpec(d)
            assert cap_volume(spec, 0.0) == pytest.approx(ball_volume(spec) / 2.0, rel=1e-12)

    def test_empty_cap(self):
        for d in (1, 2, 3, 7):
            assert cap_volume(BallSpec(d), 1.0) == 0.0

    def test_three_dimensional_closed_form(self):
        """h=1/2 cap of the unit sphere: πh²(3−h)/3 = 0.625π/3."""
        assert cap_volume(BallSpec(3), 0.5) == pytest.approx(0.625 * math.pi / 3.0, rel=1e-12)

    def test_continuous_at_endpoints(self):
        for d in (1, 2, 5):
            spec = BallSpec(d)
            assert cap_volume(spec, 1e-9) == pytest.approx(ball_volume(spec) / 2.0, rel=1e-6)
            assert cap_volume(spec, 1.0 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_domain_error(self):
        for a in (-0.1, 1.1):
            with pytest.raises(ValueError):
                cap_volume(BallSpec(2), a)


class TestOverlapVolume:
    def test_coincident_balls(self):
        spec = BallSpec(3)
        assert overlap_volume(spec, 0.0) == ball_volume(spec)

    def test_tangent_balls(self):
        for d in (1, 2, 3, 9):
            assert overlap_volume(BallSpec(d), 2.0) == 0.0
            assert overlap_volume(BallSpec(d, 0.5), 1.0) == 0.0

    def test_three_dimensional_value(self):
        """Twice the h=1/2 cap: 1.25π/3."""
        assert overlap_volume(BallSpec(3), 1.0) == pytest.approx(1.25 * math.pi / 3.0, rel=1e-12)

    def test_monotone_nonincreasing(self):
        for d in (1, 2, 6, 15):
            spec = BallSpec(d)
            values = [overlap_volume(spec, dx) for dx in np.linspace(0.0, 2.2, 120)]
            assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_matches_low_dimension_closed_forms(self):
        """Interval/lens/sphere-cap formulas agree to 1e-10 on a 100-point grid."""
        for d in (1, 2, 3):
            for dx in np.linspace(0.0, 2.0, 100):
                analytic, closed = closed_form_overlap_check(d, float(dx))
                assert analytic == pytest.approx(closed, rel=1e-10, abs=1e-13)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            overlap_volume(BallSpec(2), -0.5)


class TestSampleBall:
    def test_shapes(self):
        rng = derive_rng(0)
        assert sample_ball(BallSpec(4), rng, 10).shape == (10, 4)

    def test_deterministic_given_seed(self):
        a = sample_ball(BallSpec(6), derive_rng(99), 1000)
        b = sample_ball(BallSpec(6), derive_rng(99), 1000)
        np.testing.assert_array_equal(a, b)

    def test_norm_never_exceeds_radius(self):
        for d, r in ((1, 1.0), (5, 1.0), (11, 2.5)):
            draws = sample_ball(BallSpec(d, r), derive_rng(17), 1_000_000)
            assert float(np.linalg.norm(draws, axis=1).max()) <= r

    def test_one_dimensional_moments(self):
        """Uniform on [−1, 1]: mean 0 ± 0.002, variance 1/3 ± 0.003."""
        draws = sample_ball(BallSpec(1), derive_rng(23), 1_000_000)[:, 0]
        assert abs(float(draws.mean())) <= 0.002
        assert float(draws.var()) == pytest.approx(1.0 / 3.0, abs=0.003)

    def test_five_dimensional_second_moments(self):
        """E[nnᵀ] = I/(d+2): diagonal 1/7, off-diagonals below 0.003."""
        draws = sample_ball(BallSpec(5), derive_rng(29), 1_000_000)
        moment = draws.T @ draws / len(draws)
        off = moment - np.diag(np.diag(moment))
        assert np.abs(off).max() <= 0.003
        np.testing.assert_allclose(np.diag(moment), 1.0 / 7.0, atol=0.003)

    def test_isotropy_within_three_standard_errors(self):
        """Empirical second moments sit within 3 MC standard errors of
        (r²/(d+2))·I for d in {1, 2, 3, 5, 11}."""
        for d in (1, 2, 3, 5, 11):
            draws = sample_ball(BallSpec(d), derive_rng(1234, d), 1_000_000)
            n = len(draws)
            moment = draws.T @ draws / n
            second = (draws**2).T @ (draws**2) / n
            se = np.sqrt(np.maximum(second - moment**2, 0.0) / n)
            deviation = np.abs(moment - np.eye(d) / (d + 2))
            assert np.all(deviation <= 3.0 * np.where(se > 0, se, np.inf))


class TestSampleSphereSurface:
    def test_norm_is_radius(self):
        for d, r in ((2, 1.0), (7, 3.0)):
            draws = sample_sphere_surface(BallSpec(d, r), derive_rng(5), 100_000)
            assert np.abs(np.linalg.norm(draws, axis=1) - r).max() <= 1e-12

    def test_zero_sphere_is_signs(self):
        """d=1 surface draws are ±1 with frequency 0.5 ± 0.002."""
        draws = sample_sphere_surface(BallSpec(1), derive_rng(8), 1_000_000)[:, 0]
        assert np.abs(np.abs(draws) - 1.0).max() <= 1e-12
        assert (draws > 0).mean() == pytest.approx(0.5, abs=0.002)

    def test_circle_angles_uniform(self):
        """d=2 angles pass a 100-bin chi-square uniformity test at the 0.1% level."""
        draws = sample_sphere_surface(BallSpec(2), derive_rng(31), 1_000_000)
        angles = np.arctan2(draws[:, 1], draws[:, 0]) + math.pi
        bins = np.minimum((angles / (2.0 * math.pi) * 100).astype(int), 99)
        counts = np.bincount(bins, minlength=100)
        expected = len(draws) / 100.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99_CRIT_999

    def test_deterministic_given_seed(self):
        a = sample_sphere_surface(BallSpec(3), derive_rng(1), 100)
        b = sample_sphere_surface(BallSpec(3), derive_rng(1), 100)
        np.testing.assert_array_equal(a, b)
