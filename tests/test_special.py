"""Special-function tests.

Expected values come from independent routes: exact integer factorials for
math.lgamma (which the library calls directly), hand-reduced beta ratios,
and the finite-sum form of the incomplete beta at integer second shape,
which needs no continued fraction.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prgd.special import (
    beta,
    reg_inc_beta,
    reg_inc_beta_derivative,
    series_delta_odd_d,
)


def finite_sum_reg_inc_beta(z: float, a: float, n: int) -> float:
    """Oracle: I_z(a, n) = z^a Σ_{k=0}^{n-1} (a)_k (1-z)^k / k! for integer n."""
    total = 0.0
    term = 1.0
    for k in range(n):
        if k > 0:
            term *= (a + k - 1) * (1.0 - z) / k
        total += term
    return z**a * total


class TestLogGamma:
    """math.lgamma, which beta, reg_inc_beta and ball_volume call directly:
    the exact-factorial oracles pin the accuracy those constants rely on."""

    def test_gamma_of_one_is_zero(self):
        assert math.lgamma(1.0) == 0.0

    def test_half_integer(self):
        """Γ(1/2) = √π."""
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_factorial_value(self):
        """Γ(11) = 10!, computed by integer product."""
        fact = 1
        for k in range(2, 11):
            fact *= k
        assert fact == 3628800
        assert math.lgamma(11.0) == pytest.approx(math.log(fact), rel=1e-14)

    def test_integer_grid_against_exact_factorials(self):
        """Relative error stays under 1e-13 across integers in [2, 170]."""
        fact = 1
        for n in range(2, 171):
            fact *= n - 1
            assert math.lgamma(float(n)) == pytest.approx(math.log(fact), rel=1e-13)

    def test_half_integer_grid_against_exact_ratios(self):
        """Γ(n + 1/2) = (2n)! √π / (4^n n!), exact rational times √π."""
        for n in range(0, 180):
            ratio = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
            # math.log on the big integers directly; the ratio overflows float
            expected = (
                math.log(ratio.numerator)
                - math.log(ratio.denominator)
                + 0.5 * math.log(math.pi)
            )
            assert math.lgamma(n + 0.5) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        """Nonpositive shapes never reach math.lgamma, which returns a finite
        value at -0.5: the callers reject them."""
        with pytest.raises(ValueError):
            beta(x, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, x, 1.0)


class TestBeta:
    def test_unit_case(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_half_one(self):
        """B(1/2, 1) = Γ(1/2)Γ(1)/Γ(3/2) = 2."""
        assert beta(0.5, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_half_two(self):
        """B(1/2, 2) = √π / (1.5 · 0.5 · √π) = 4/3."""
        assert beta(0.5, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_symmetry_and_reduction(self):
        """B(a, b) = B(b, a) and B(a, 1) = 1/a."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(0.05, 30.0, 2)
            assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-12)
            assert beta(a, 1.0) == pytest.approx(1.0 / a, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
    def test_domain_error(self, a, b):
        with pytest.raises(ValueError):
            beta(a, b)


class TestRegIncBeta:
    def test_rejects_nonpositive_shapes(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, float("nan"), 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, float("nan"))

    def test_uniform_case_is_identity(self):
        """I_z(1, 1) = z."""
        assert reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-13)

    def test_exact_boundaries(self):
        for params in ((0.5, 2.0), (7.0, 0.3)):
            assert reg_inc_beta(0.0, *params) == 0.0
            assert reg_inc_beta(1.0, *params) == 1.0

    def test_finite_sum_case(self):
        """I_{1/4}(1/2, 2) = 0.5·(1 + 0.5·0.75) = 0.6875."""
        assert finite_sum_reg_inc_beta(0.25, 0.5, 2) == pytest.approx(0.6875, abs=1e-15)
        assert reg_inc_beta(0.25, 0.5, 2.0) == pytest.approx(0.6875, abs=1e-12)

    def test_against_finite_sum_oracle(self):
        """Continued fraction agrees with the finite sum at integer b."""
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = float(rng.uniform(0.1, 10.0))
            n = int(rng.integers(1, 12))
            z = float(rng.uniform(0.01, 0.99))
            expected = finite_sum_reg_inc_beta(z, a, n)
            assert reg_inc_beta(z, a, float(n)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_symmetry_identity(self):
        """|I_z(a,b) − (1 − I_{1−z}(b,a))| ≤ 1e-12 over 1000 random triples."""
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            a, b = rng.uniform(0.1, 20.0, 2)
            z = float(rng.uniform(0.001, 0.999))
            lhs = reg_inc_beta(z, a, b)
            rhs = 1.0 - reg_inc_beta(1.0 - z, b, a)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    @settings(max_examples=500, deadline=None)
    @given(z=st.floats(0.0, 1.0), a=st.floats(1e-2, 200.0), b=st.floats(1e-2, 200.0))
    def test_property_reflection_identity(self, z, a, b):
        """I_z(a, b) = 1 − I_{1−z}(b, a) to 1e-12, the tolerance above.

        Off the switch point z = (a+1)/(a+b+2) both sides evaluate the same
        continued fraction; on it they evaluate complementary ones, and the
        identity checks accuracy. Shapes stop at 200 because beyond ~10³ the
        log-beta cancellation (see the expected failure below) exceeds 1e-12.
        """
        # 1 − (1 − z) has an exact complement, so the identity is tested
        # rather than the rounding of 1 − z
        z = 1.0 - (1.0 - z)
        assert reg_inc_beta(z, a, b) == pytest.approx(1.0 - reg_inc_beta(1.0 - z, b, a), abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="log-beta cancellation at large shapes (ROADMAP 4a)")
    def test_reflection_identity_at_the_switch_for_d_9803(self):
        """The accountant's shapes a = 1/2, b = (d+1)/2 at the switch point:
        lgamma(b) − lgamma(b + 1/2) loses ~1e-11 to cancellation at d ≈ 10⁴."""
        a, b = 0.5, 0.5 * 9804
        z = 1.0 - (1.0 - (a + 1.0) / (a + b + 2.0))
        assert reg_inc_beta(z, a, b) == pytest.approx(1.0 - reg_inc_beta(1.0 - z, b, a), abs=1e-12)

    def test_monotone_in_z(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(0.2, 15.0, 2)
            values = [reg_inc_beta(z, a, b) for z in np.linspace(0.0, 1.0, 101)]
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("z", [-0.1, 1.1, 2.0])
    def test_domain_error(self, z):
        with pytest.raises(ValueError):
            reg_inc_beta(z, 1.0, 1.0)


class TestSeriesDeltaOddD:
    def test_one_dimensional_closed_form(self):
        """In one dimension the series collapses to Δx/2."""
        assert series_delta_odd_d(1.2, 1) == pytest.approx(0.6, abs=1e-15)

    def test_zero_distance(self):
        for d in (1, 3, 9, 41):
            assert series_delta_odd_d(0.0, d) == 0.0

    def test_three_dimensional_value(self):
        """d=3, Δx=1: terms 1 and 0.5·0.75 sum to 1.375, halved to 0.6875."""
        assert series_delta_odd_d(1.0, 3) == pytest.approx(0.6875, abs=1e-15)

    def test_agrees_with_continued_fraction(self):
        """Series and continued fraction stay within 1e-10 for odd d ≤ 41."""
        worst = 0.0
        for d in range(1, 42, 2):
            params = (0.5, 0.5 * (d + 1))
            for dx in np.linspace(0.0, 2.0, 50):
                series = series_delta_odd_d(float(dx), d)
                direct = reg_inc_beta((dx / 2.0) ** 2, *params)
                worst = max(worst, abs(series - direct))
        assert worst <= 1e-10

    def test_rejects_even_or_nonpositive_d(self):
        for d in (0, -3, 2, 10):
            with pytest.raises(ValueError):
                series_delta_odd_d(1.0, d)

    def test_rejects_out_of_range_distance(self):
        for dx in (-0.1, 2.5):
            with pytest.raises(ValueError):
                series_delta_odd_d(dx, 3)


class TestRegIncBetaDerivative:
    def test_quarter_point_one_dimension(self):
        """z=1/4, d=1: z^{-1/2}/B(1/2, 1) = 2/2 = 1."""
        assert reg_inc_beta_derivative(0.25, 1) == pytest.approx(1.0, rel=1e-12)

    def test_half_point_one_dimension(self):
        """z=1/2, d=1: 1/(√2·B(1/2,1)·...) reduces to 1/√2."""
        assert reg_inc_beta_derivative(0.5, 1) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            d = int(rng.integers(1, 80))
            z = float(rng.uniform(1e-6, 1.0 - 1e-6))
            assert reg_inc_beta_derivative(z, d) > 0.0

    def test_matches_central_finite_differences(self):
        """FD of the incomplete beta reproduces the closed form to 1e-6.

        Deviation is measured as |fd − f'| / max(1, |f'|): where the
        derivative underflows (large d, z near 1) the finite difference has
        no signal and only the absolute scale is meaningful.
        """
        h = 1e-6
        worst = 0.0
        for d in (1, 3, 5, 11, 51):
            params = (0.5, 0.5 * (d + 1))
            for z in np.arange(0.1, 0.95, 0.1):
                analytic = reg_inc_beta_derivative(float(z), d)
                fd = (
                    reg_inc_beta(float(z) + h, *params)
                    - reg_inc_beta(float(z) - h, *params)
                ) / (2.0 * h)
                worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
        assert worst <= 1e-6

    @pytest.mark.parametrize("z", [0.0, 1.0, -0.2, 1.5])
    def test_domain_error_at_endpoints(self, z):
        with pytest.raises(ValueError):
            reg_inc_beta_derivative(z, 3)

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            reg_inc_beta_derivative(0.5, 0)
