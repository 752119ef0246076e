"""Special-function tests.

Expected values come from independent routes: exact integer factorials for
math.lgamma (which the library calls directly), hand-reduced beta ratios,
closed forms of the incomplete beta with one shape ½, and mpmath at 40
digits or more.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prgd.accountant import PrivacySpec, per_step_delta
from prgd.special import (
    _DEPTH_W0,
    _SUM_MAX_B,
    _U_MID,
    _W_MAX,
    half_shape_front,
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


def mpmath_pair(b: float, x):
    """(I_x(½, b), I_{1−x}(b, ½)) for an exact x, to 40 digits.

    δ comes from DLMF 8.17.8, x^½·(1 − x)^b/(½·B(½, b))·F(b + ½, 1; 3/2; x),
    whose terms are all positive; mpmath's own betainc stalls on it once b·x
    is large. The complement is 1 − δ at a working precision raised by the
    digits that subtraction cancels.
    """
    mpmath = pytest.importorskip("mpmath")
    extra = 0
    while True:
        with mpmath.workdps(40 + extra):
            half, x = mpmath.mpf(1) / 2, mpmath.mpf(x)
            front = 2 * mpmath.sqrt(x) * (1 - x) ** b / mpmath.beta(half, b)
            p = front * mpmath.hyp2f1(b + half, 1, 3 * half, x)
            q = 1 - p
            lost = -int(mpmath.floor(mpmath.log10(q))) if q > 0 else 40 + extra
            if lost <= extra:
                return +p, +q
            extra = lost + 5


def one_minus(z: float):
    """1 − z for a double z, exactly; at mpmath's default 53 bits the
    subtraction rounds, which moves I_z(b, ½) by up to b·ε·(1 − z)/(2z) relative."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return 1 - mpmath.mpf(z)


class TestLogGamma:
    """math.lgamma, which ball_volume calls directly:
    the exact-factorial oracles pin the accuracy it relies on."""

    def test_gamma_of_one_is_zero(self):
        assert math.lgamma(1.0) == 0.0

    def test_half_integer(self):
        """Γ(1/2) = √π."""
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14, abs=0.0)

    def test_factorial_value(self):
        """Γ(11) = 10!, computed by integer product."""
        fact = 1
        for k in range(2, 11):
            fact *= k
        assert fact == 3628800
        assert math.lgamma(11.0) == pytest.approx(math.log(fact), rel=1e-14, abs=0.0)

    def test_integer_grid_against_exact_factorials(self):
        """Relative error stays under 1e-13 across integers in [2, 170]."""
        fact = 1
        for n in range(2, 171):
            fact *= n - 1
            assert math.lgamma(float(n)) == pytest.approx(math.log(fact), rel=1e-13, abs=math.ulp(0.0))  # log 1! = 0

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
            reg_inc_beta(0.5, x, 1.0)


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

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.3, 7.0), (2.0, 0.49), (0.5, 0.5), (0.5, 0.75), (1.25, 0.5),
                                     (0.5, 12.75), (1e8 + 0.25, 0.5), (0.5, math.inf)])
    def test_rejects_shapes_without_a_half(self, a, b):
        """Shapes must be ½ and (d + 1)/2 for a dimension d >= 1."""
        with pytest.raises(ValueError, match="one of them 1/2") as caught:
            reg_inc_beta(0.3, a, b)
        assert "\n" not in str(caught.value)

    def test_arcsine_case(self):
        """I_z(½, 3/2) = (2/π)·(asin √z + √(z(1 − z))), the arcsine and the
        one term of the even-d sum at d = 2."""
        for z in np.linspace(0.0, 1.0, 41):
            expected = 2.0 / math.pi * (math.asin(math.sqrt(z)) + math.sqrt(z * (1.0 - z)))
            assert reg_inc_beta(float(z), 0.5, 1.5) == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_exact_boundaries(self):
        for params in ((0.5, 2.0), (7.0, 0.5), (0.5, 1.0), (3e7, 0.5)):
            assert reg_inc_beta(0.0, *params) == 0.0
            assert reg_inc_beta(1.0, *params) == 1.0

    def test_finite_sum_case(self):
        """I_{1/4}(1/2, 2) = 0.5·(1 + 0.5·0.75) = 0.6875."""
        assert finite_sum_reg_inc_beta(0.25, 0.5, 2) == pytest.approx(0.6875, abs=1e-15)
        assert reg_inc_beta(0.25, 0.5, 2.0) == pytest.approx(0.6875, abs=1e-12)

    def test_against_finite_sum_oracle(self):
        """I_z(½, n) at integer n against the test's own finite sum, and the
        complement I_{1−z}(n, ½) against one minus it."""
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            z = float(rng.uniform(0.01, 0.99))
            expected = finite_sum_reg_inc_beta(z, 0.5, n)
            assert reg_inc_beta(z, 0.5, float(n)) == pytest.approx(expected, rel=1e-14, abs=0.0)
            assert reg_inc_beta(1.0 - z, float(n), 0.5) == pytest.approx(1.0 - expected, abs=1e-14)

    def test_symmetry_identity(self):
        """|I_z(½, b) − (1 − I_{1−z}(b, ½))| ≤ 1e-14 over 1000 random pairs,
        b = 1, 1.5, …, 20; 1 − z is rounded here, which moves I by up to its
        slope times 1.1e-16."""
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            b = float(rng.integers(2, 41)) / 2.0
            z = float(rng.uniform(0.001, 0.999))
            lhs = reg_inc_beta(z, 0.5, b)
            rhs = 1.0 - reg_inc_beta(1.0 - z, b, 0.5)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-14

    @settings(max_examples=500, deadline=None)
    @given(z=st.floats(0.0, 1.0), log_b=st.floats(0.0, 8.0))
    def test_property_reflection_identity(self, z, log_b):
        """I_z(½, b) = 1 − I_{1−z}(b, ½) to 1e-15 for multiples b of ½ from 1 to 10⁸.

        Below _SUM_MAX_B the two sides take the finite sum and the lifted
        complement, so there the identity checks accuracy.
        """
        # 1 − (1 − z) has an exact complement, so the identity is tested
        # rather than the rounding of 1 − z
        z = 1.0 - (1.0 - z)
        b = round(2.0 * 10.0**log_b) / 2.0
        assert reg_inc_beta(z, 0.5, b) == pytest.approx(1.0 - reg_inc_beta(1.0 - z, b, 0.5), abs=1e-15)

    @pytest.mark.parametrize("d", [24, 25, 9803, 10**6, 48_148_663, 10**8])
    def test_continuous_across_the_seams(self, d):
        """Where the evaluation changes route, at u = (b − ¼)·w₀ = _U_MID and
        at w₀ = _W_MAX, the values just below and just above are each within
        2e-15 relative of 40-digit mpmath at their own z, δ and complement
        alike; d = 24 and 25 sit on either side of _SUM_MAX_B. The sides are
        not compared with each other: their z differ by about 8e-16 relative,
        which moves the complement, about z^b, by b times that. Where u passes
        690 the complement is below 1e-300: there δ is 1 and the complement 0
        on both sides."""
        mpmath = pytest.importorskip("mpmath")
        b = 0.5 * (d + 1)
        for w0 in (_U_MID / (b - 0.25), _W_MAX):
            for w in (math.nextafter(w0, 0.0), math.nextafter(w0, math.inf)):
                z = math.exp(-w)
                p, q = reg_inc_beta(1.0 - z, 0.5, b), reg_inc_beta(z, b, 0.5)
                if (b - 0.25) * w > 690.0:
                    assert (p, q) == (1.0, 0.0)
                    continue
                expected, _ = mpmath_pair(b, 1.0 - z)
                _, complement = mpmath_pair(b, one_minus(z))
                assert p == pytest.approx(float(expected), rel=2e-15, abs=0.0), w
                assert q == pytest.approx(float(complement), rel=2e-15, abs=0.0), w

    def test_cap_volume_shapes_at_d_1e8_against_mpmath(self):
        """I_{1−s²}((d+1)/2, 1/2), the call in geometry.cap_volume, at
        d = 10⁸ and s·√b = 0.1 … 7.9, within 1e-12 of 40-digit mpmath at the
        same double z. The continued fraction this replaced lost 2.3e-9 at
        s·√b = 2.7; the expansion in w₀ = −log z is within 1.2e-14."""
        mpmath = pytest.importorskip("mpmath")
        b = 0.5 * (10**8 + 1)
        for t in np.arange(0.1, 8.0, 0.1):
            s = float(t) / math.sqrt(b)
            z = 1.0 - s * s
            with mpmath.workdps(40):
                expected = float(mpmath.betainc(b, 0.5, 0, mpmath.mpf(z), regularized=True))
            assert reg_inc_beta(z, b, 0.5) == pytest.approx(expected, rel=1e-12, abs=0.0), t

    def test_monotone_in_z(self):
        """Both I_z(½, b) and I_z(b, ½) are nondecreasing over a 101-point grid,
        for multiples b of ½ from 1 to 10⁸ across every route of the evaluation."""
        rng = np.random.default_rng(4)
        for b in [*rng.uniform(0.2, 15.0, 20), *(10.0 ** rng.uniform(1.0, 8.0, 20))]:
            b = max(1.0, round(2.0 * b) / 2.0)
            for shapes in ((0.5, b), (b, 0.5)):
                values = [reg_inc_beta(float(z), *shapes) for z in np.linspace(0.0, 1.0, 101)]
                assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("z", [-0.1, 1.1, 2.0])
    def test_domain_error(self, z):
        with pytest.raises(ValueError):
            reg_inc_beta(z, 0.5, 1.0)

    def test_general_half_shape_against_mpmath(self):
        """At b = 1, 1.5, …, _SUM_MAX_B δ is a finite sum, and a complement
        past ½ takes the lift: both stay within 1e-14 of mpmath."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(15)
        for _ in range(60):
            b = float(rng.integers(2, 2 * _SUM_MAX_B + 1)) / 2.0
            x = float(rng.uniform(0.0, 1.0))
            p, _ = mpmath_pair(b, x)
            _, q = mpmath_pair(b, one_minus(1.0 - x))
            assert reg_inc_beta(x, 0.5, b) == pytest.approx(float(p), rel=1e-14, abs=0.0)
            assert reg_inc_beta(1.0 - x, b, 0.5) == pytest.approx(float(q), rel=1e-14, abs=0.0)


def _dimension_and_s():
    """d log-uniform over 1 … 10⁸; s uniform in (0, 1), below 1e-100, or
    at s·√b in (0, 8), where δ runs from 0 to 1."""
    def scale(pair):
        d, t = pair
        return d, t / math.sqrt(0.5 * (d + 1))

    dims = st.floats(0.0, 8.0).map(lambda e: max(1, round(10.0**e)))
    return st.one_of(
        st.tuples(dims, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        st.tuples(dims, st.floats(1e-300, 1e-100)),
        st.tuples(dims, st.floats(1e-3, 8.0)).map(scale),
    )


class TestStudentTAgainstMpmath:
    """δ = I_{s²}(½, (d+1)/2), as the accountant returns it, and its
    complement I_{1−s²}((d+1)/2, ½), as geometry.cap_volume asks for it,
    against mpmath at 40 digits."""

    @settings(max_examples=120, deadline=None)
    @given(case=_dimension_and_s())
    @example(case=(10, 5e-324))
    def test_property_delta_and_complement(self, case):
        """δ within 2e-15 relative, or within one subnormal step below the
        normal range, where δ and the reference each round once to that grid;
        the complement, at the double z = 1 − s², within 1e-13 relative while
        u = (b − ¼)·(−log z) ≤ 40, and within 3e-15·u past that: rounding
        w₀ = −log z alone moves e^{−u} by u·ε/2. Complements below 1e-300
        return 0 and are not compared."""
        mpmath = pytest.importorskip("mpmath")
        d, s = case
        assume(0.0 < s < 1.0)
        b = 0.5 * (d + 1)
        z = 1.0 - s * s
        u = (b - 0.25) * -math.log(z)
        delta = per_step_delta(PrivacySpec(d, 2.0 * s, 1, 1))
        if u > 690.0:  # the complement is below 1e-300
            assert delta == 1.0 and reg_inc_beta(z, b, 0.5) < 1e-298
            return
        p, _ = mpmath_pair(b, mpmath.mpf(s) ** 2)
        assert delta == pytest.approx(float(p), rel=2e-15, abs=math.ulp(0.0))
        _, q = mpmath_pair(b, one_minus(z))
        assert reg_inc_beta(z, b, 0.5) == pytest.approx(float(q), rel=max(1e-13, 3e-15 * u), abs=0.0)

    def test_front_factor(self):
        """1/(B(½, b)·√(b − ¼)) within 1e-15 relative for b from ½ to 10⁸."""
        mpmath = pytest.importorskip("mpmath")
        for b in np.geomspace(0.5, 1e8, 200):
            with mpmath.workdps(40):
                expected = 1 / (mpmath.beta(0.5, float(b)) * mpmath.sqrt(mpmath.mpf(float(b)) - 0.25))
            assert half_shape_front(float(b)) == pytest.approx(float(expected), rel=1e-15, abs=0.0)


def _small_u_points():
    """(d, z) with u = (b − ¼)·w₀ < ¼, w₀ = −log(1 − z), d from 25 to 10⁸:
    just below and just above every entry of _DEPTH_W0 at six dimensions
    up to the largest that keeps u < ¼ there, then 200 random points."""
    points = []
    for w in _DEPTH_W0:
        d_max = int(2.0 * (0.25 / (w * (1.0 + 1e-6)) + 0.25) - 1.0) - 1
        for d in np.unique(np.geomspace(25, d_max, 6).astype(int)):
            for side in (1.0 - 1e-6, 1.0 + 1e-6):
                z = -math.expm1(-w * side)
                assert (-math.log1p(-z) < w) == (side < 1.0)
                points.append((int(d), z))
    rng = np.random.default_rng(24)
    for _ in range(200):
        d = int(round(10.0 ** rng.uniform(math.log10(25), 8.0)))
        points.append((d, -math.expm1(-rng.uniform(0.0, 0.25) / (0.5 * d + 0.25))))
    return points


class TestSmallUDepth:
    """Below u = ¼, δ's sum over k stops at the level its bound picks from w₀."""

    def test_against_mpmath_on_both_sides_of_every_depth(self):
        """δ within 2e-15 relative of 40-digit mpmath at the same double z."""
        mpmath = pytest.importorskip("mpmath")
        for d, z in _small_u_points():
            b = 0.5 * (d + 1)
            assert (b - 0.25) * -math.log1p(-z) < _U_MID
            p, _ = mpmath_pair(b, z)
            assert reg_inc_beta(z, 0.5, b) == pytest.approx(float(p), rel=2e-15, abs=0.0), (d, z)


class TestNearOne:
    """At d ≤ 24 δ is a finite sum until 1 − δ falls to 1e-12; past that it
    is one minus the lifted complement, so it never passes 1."""

    @pytest.mark.parametrize("d", range(2, 25))
    def test_never_above_one_and_nondecreasing(self, d):
        b = 0.5 * (d + 1)
        values = [per_step_delta(PrivacySpec(d, 2.0 * float(s), 1, 1))
                  for s in 1.0 - np.geomspace(0.3, 1e-15, 400)]
        assert max(values) <= 1.0
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:])), d
        assert reg_inc_beta(1.0 - 1e-20, 0.5, b) <= 1.0


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

    def test_odd_d_against_mpmath(self):
        """The series, and reg_inc_beta where it takes the same sum (d ≤ 24)
        or the expansion (d ≥ 25), within 2e-15 relative of 40-digit mpmath
        for odd d ≤ 41 on a 50-point Δx grid; acceptance criterion 4
        compares the two with each other."""
        mpmath = pytest.importorskip("mpmath")
        for d in range(1, 42, 2):
            b = 0.5 * (d + 1)
            for dx in np.linspace(0.0, 2.0, 50)[1:-1]:
                half = 0.5 * float(dx)
                with mpmath.workdps(40):
                    expected = float(mpmath.betainc(0.5, b, 0, mpmath.mpf(half) ** 2, regularized=True))
                assert series_delta_odd_d(float(dx), d) == pytest.approx(expected, rel=2e-15, abs=0.0)
                assert reg_inc_beta(half * half, 0.5, b) == pytest.approx(expected, rel=2e-15, abs=0.0)

    def test_rejects_even_or_nonpositive_d(self):
        for d in (0, -3, 2, 10):
            with pytest.raises(ValueError):
                series_delta_odd_d(1.0, d)

    def test_rejects_out_of_range_distance(self):
        for dx in (-0.1, 2.5):
            with pytest.raises(ValueError):
                series_delta_odd_d(dx, 3)


class TestSeriesDeltaOddDExact:
    """The odd-d oracle sums its series in exact rationals and rounds once,
    so it shares no arithmetic with reg_inc_beta, which acceptance criterion 4
    compares it with."""

    def test_equals_60_digit_mpmath_rounded_to_nearest(self):
        mpmath = pytest.importorskip("mpmath")
        for d in range(1, 42, 2):
            for dx in np.linspace(0.0, 2.0, 50):
                with mpmath.workdps(60):
                    z = (mpmath.mpf(float(dx)) / 2) ** 2
                    expected = float(mpmath.betainc(0.5, 0.5 * (d + 1), 0, z, regularized=True))
                assert series_delta_odd_d(float(dx), d) == pytest.approx(expected, rel=0.0, abs=0.0)

    def test_never_exceeds_one_near_disjoint_balls(self):
        """Near Δx = 2 the floating-point sum this replaced passed 1 at about
        one point in eight; the exact sum, rounded to nearest, cannot."""
        for d in range(1, 42, 2):
            for dx in np.linspace(1.9, 2.0, 2001)[::10]:
                assert series_delta_odd_d(float(dx), d) <= 1.0

    def test_refuses_dimensions_past_1001(self):
        assert 0.0 < series_delta_odd_d(0.01, 1001) < 1.0
        for d in (1003, 10**400 + 1):
            with pytest.raises(ValueError, match="^d "):
                series_delta_odd_d(1.0, d)


class TestRegIncBetaDerivative:
    def test_quarter_point_one_dimension(self):
        """z=1/4, d=1: z^{-1/2}/B(1/2, 1) = 2/2 = 1."""
        assert reg_inc_beta_derivative(0.25, 1) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_half_point_one_dimension(self):
        """z=1/2, d=1: 1/(√2·B(1/2,1)·...) reduces to 1/√2."""
        assert reg_inc_beta_derivative(0.5, 1) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12, abs=0.0)

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

    def test_against_mpmath(self):
        """Within 1.5e-15 relative of 40-digit mpmath for d = 1 … 29, at
        z = k/32 and at 20 z in [½, 1), where 1 − z is exact."""
        mpmath = pytest.importorskip("mpmath")
        zs = [k / 32 for k in range(1, 32)] + list(np.random.default_rng(1).uniform(0.5, 1.0, 20))
        for d in range(1, 30):
            for z in zs:
                with mpmath.workdps(40):
                    x = mpmath.mpf(float(z))
                    expected = (1 - x) ** (mpmath.mpf(d - 1) / 2) / mpmath.sqrt(x) / mpmath.beta(0.5, (d + 1) / 2)
                value = reg_inc_beta_derivative(float(z), d)
                assert value == pytest.approx(float(expected), rel=1.5e-15, abs=0.0)

    @pytest.mark.parametrize("z", [0.0, 1.0, -0.2, 1.5])
    def test_domain_error_at_endpoints(self, z):
        with pytest.raises(ValueError):
            reg_inc_beta_derivative(z, 3)

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            reg_inc_beta_derivative(0.5, 0)
