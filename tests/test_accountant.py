"""Accounting tests: per-step guarantee, amplification, composition, the
radius inverse, and the monotonicity structure of the guarantee."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prgd import accountant
from prgd.accountant import (
    DeltaReport,
    PrivacySpec,
    delta_curve,
    overall_delta,
    per_step_delta,
    radius_for_target,
)
from prgd.geometry import BallSpec, ball_volume, overlap_volume
from prgd.optimizer import RunConfig
from prgd.special import ConvergenceError


@pytest.mark.parametrize("call", [
    lambda: PrivacySpec(math.inf, 0.5, 1, 1),
    lambda: RunConfig(0.1, math.inf),
    lambda: BallSpec(math.inf),
    lambda: radius_for_target(math.inf, 0.5, 0.1),
    lambda: delta_curve([math.inf], [0.5]),
], ids=["PrivacySpec", "RunConfig", "BallSpec", "radius_for_target", "delta_curve"])
def test_infinite_count_is_a_one_line_value_error(call):
    """An infinite dimension or step count is refused like any other
    non-integer, not with the OverflowError of int(inf)."""
    with pytest.raises(ValueError, match="must be a positive integer, got inf$"):
        call()


class TestPrivacySpec:
    def test_rejects_invalid_fields(self):
        with pytest.raises(ValueError):
            PrivacySpec(0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            PrivacySpec(1, -0.5, 1, 1)
        with pytest.raises(ValueError):
            PrivacySpec(1, 1.0, 0, 1)
        with pytest.raises(ValueError):
            PrivacySpec(1, 1.0, 1, 0)
        with pytest.raises(ValueError):
            PrivacySpec(1, 1.0, 1, 1, -0.5)
        with pytest.raises(ValueError):
            PrivacySpec(1, 1.0, 1, 1, float("nan"))

    @pytest.mark.parametrize("field,args", [
        ("dimension", (10**400, 0.5, 1, 1)),
        ("dataset_size", (1, 0.5, 10**400, 1)),
        ("steps", (1, 0.5, 1, 10**400)),
    ])
    def test_integer_past_the_float_range_names_the_field(self, field, args):
        with pytest.raises(ValueError, match=f"{field} is too large for a float"):
            PrivacySpec(*args)

    def test_saturating_sensitivity_is_allowed(self):
        assert per_step_delta(PrivacySpec(2, 5.0, 1, 1)) == 1.0


class TestPerStepDelta:
    def test_one_dimensional_closed_form(self):
        """δ = Δx/2 in one dimension, bit exact."""
        assert per_step_delta(PrivacySpec(1, 1.0, 1, 1)) == 0.5

    def test_zero_sensitivity(self):
        for d in (1, 2, 17):
            assert per_step_delta(PrivacySpec(d, 0.0, 1, 1)) == 0.0

    def test_three_dimensional_value_against_overlap(self):
        """δ(3, 1) = 1 − overlap/volume = 1 − (1.25π/3)/(4π/3) = 11/16."""
        spec = BallSpec(3)
        geometric = 1.0 - overlap_volume(spec, 1.0) / ball_volume(spec)
        assert geometric == pytest.approx(0.6875, abs=1e-12)
        assert per_step_delta(PrivacySpec(3, 1.0, 1, 1)) == pytest.approx(0.6875, abs=1e-12)

    def test_boundaries_exact_for_all_dimensions(self):
        for d in range(1, 51):
            assert per_step_delta(PrivacySpec(d, 0.0, 1, 1)) == 0.0
            assert per_step_delta(PrivacySpec(d, 2.0, 1, 1)) == 1.0
            assert per_step_delta(PrivacySpec(d, 3.0, 1, 1, 1.5)) == 1.0

    def test_agrees_with_geometry_route(self):
        """Direct incomplete-beta evaluation matches 1 − overlap/volume."""
        for d in range(1, 26):
            spec = BallSpec(d)
            volume = ball_volume(spec)
            for dx in np.linspace(0.0, 2.0, 40):
                direct = per_step_delta(PrivacySpec(d, float(dx), 1, 1))
                geometric = 1.0 - overlap_volume(spec, float(dx)) / volume
                assert direct == pytest.approx(geometric, abs=1e-10)

    def test_strictly_increasing_in_distance(self):
        """Larger gradient gaps are strictly easier to distinguish, up to
        the points where δ saturates to 1.0 in double precision."""
        for d in range(1, 51):
            values = [per_step_delta(PrivacySpec(d, float(dx), 1, 1)) for dx in np.linspace(0.0, 2.0, 21)]
            for lo, hi in zip(values, values[1:]):
                if lo == 1.0 and hi == 1.0:
                    continue
                assert hi > lo

    def test_increasing_in_dimension(self):
        """Strict growth over odd d where resolvable; never decreasing over
        consecutive integer d in {1..50}."""
        for dx in (0.2, 0.6, 1.0, 1.4):
            odd = [per_step_delta(PrivacySpec(d, dx, 1, 1)) for d in range(1, 50, 2)]
            assert all(b > a for a, b in zip(odd, odd[1:]))
        for dx in np.linspace(0.1, 1.9, 10):
            consecutive = [per_step_delta(PrivacySpec(d, float(dx), 1, 1)) for d in range(1, 51)]
            assert all(b >= a for a, b in zip(consecutive, consecutive[1:]))

    # up to model-sized gradients
    _d = st.integers(1, 10**8)
    _radius = st.floats(1e-3, 1e3)
    _fraction = st.floats(0.0, 1.25)  # of 2R; above 1 the balls are disjoint

    @settings(max_examples=500, deadline=None)
    @given(d=_d, radius=_radius, fraction=_fraction)
    def test_property_in_unit_interval(self, d, radius, fraction):
        delta = per_step_delta(PrivacySpec(d, fraction * 2.0 * radius, 1, 1, radius))
        assert 0.0 <= delta <= 1.0

    @settings(max_examples=500, deadline=None)
    @given(d=_d, radius=_radius, fractions=st.tuples(_fraction, _fraction))
    def test_property_monotone_in_distance(self, d, radius, fractions):
        lo, hi = sorted(fractions)
        delta_lo = per_step_delta(PrivacySpec(d, lo * 2.0 * radius, 1, 1, radius))
        delta_hi = per_step_delta(PrivacySpec(d, hi * 2.0 * radius, 1, 1, radius))
        assert delta_hi >= delta_lo * (1.0 - 1e-12)

    @settings(max_examples=500, deadline=None)
    @given(dims=st.tuples(_d, _d), radius=_radius, fraction=_fraction)
    def test_property_monotone_in_dimension(self, dims, radius, fraction):
        lo, hi = sorted(dims)
        delta_x = fraction * 2.0 * radius
        delta_lo = per_step_delta(PrivacySpec(lo, delta_x, 1, 1, radius))
        delta_hi = per_step_delta(PrivacySpec(hi, delta_x, 1, 1, radius))
        assert delta_hi >= delta_lo * (1.0 - 1e-12)

    @pytest.mark.parametrize("d", [2, 3, 50, 10_000])
    def test_tiny_distance_keeps_its_first_order_value(self, d):
        """δ is linear in s for small s = Δx/(2R). Below s ≈ 1e-154, s²
        underflows, and δ must not collapse to 0."""
        near = per_step_delta(PrivacySpec(d, 2e-90, 1, 1)) / 1e-90
        assert per_step_delta(PrivacySpec(d, 2e-200, 1, 1)) / 1e-200 == pytest.approx(near, rel=1e-12, abs=0.0)
        assert per_step_delta(PrivacySpec(d, 2e-310, 1, 1)) > 0.0

    def test_tiny_distance_rounds_once(self):
        """Below s = 1e-100, δ = (2/B(½, b))·s to first order, and s is the
        last factor, so a δ below or near the subnormal range rounds once. The
        left-to-right 2·s·front·√(b − ¼) rounded a subnormal product at each
        factor: 7.4e-15 low at d = 10⁶, s = 1e-310, where δ ≈ 8.0e-308 is
        itself normal, and 1135 subnormal steps off at d = 10⁸, s = 1e-320."""
        mpmath = pytest.importorskip("mpmath")

        def first_order(d, s):
            with mpmath.workdps(50):
                return float(2 * mpmath.mpf(s) / mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(d + 1) / 2))

        assert per_step_delta(PrivacySpec(10**6, 2e-310, 1, 1)) == pytest.approx(
            first_order(10**6, 1e-310), rel=2e-15, abs=0.0
        )
        for d, s in ((10, 5e-324), (10**8, 1e-320)):
            assert per_step_delta(PrivacySpec(d, 2.0 * s, 1, 1)) == pytest.approx(
                first_order(d, s), rel=0.0, abs=math.ulp(0.0)
            )

    def test_monotone_across_the_switch_for_d_8699(self):
        """δ does not drop across z = (a+1)/(a+b+2) at d = 8699, where the
        deleted continued fraction's two branches met and the ~1e-11 error
        of their shared log-beta front factor showed as a drop."""
        b = 0.5 * 8700
        s = math.sqrt(1.5 / (b + 2.5))
        below = per_step_delta(PrivacySpec(8699, 2.0 * math.nextafter(s, 0.0), 1, 1))
        above = per_step_delta(PrivacySpec(8699, 2.0 * s, 1, 1))
        assert above >= below * (1.0 - 1e-12)

    def test_matches_mpmath_below_the_branch_switch(self):
        """Below z = (a+1)/(a+b+2), where the deleted continued fraction
        switched branches, δ holds 1e-13 relative to 40-digit mpmath up to
        d = 10⁸."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        dims = [10**8, 48_148_663, *(int(np.exp(rng.uniform(np.log(2.0), np.log(1e8)))) for _ in range(60))]
        for d in dims:
            b = 0.5 * (d + 1)
            s = float(rng.uniform(0.01, 0.999)) * math.sqrt(1.5 / (b + 2.5))
            with mpmath.workdps(40):
                expected = float(mpmath.betainc(0.5, b, 0, mpmath.mpf(s) ** 2, regularized=True))
            assert per_step_delta(PrivacySpec(d, 2.0 * s, 1, 1)) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d", [48_148_663, 10**8])
    def test_matches_mpmath_past_the_old_branch_switch(self, d):
        """At b·z in [1, 8] the switch z = (a+1)/(a+b+2) sent δ to the
        complementary branch, whose 1 − z rounds z away: 7.2e-10 relative at
        d = 10⁸. The direct fraction now carries it to 1e-12."""
        mpmath = pytest.importorskip("mpmath")
        b = 0.5 * (d + 1)
        for bz in np.geomspace(1.0, 8.0, 25):
            s = math.sqrt(bz / b)
            with mpmath.workdps(40):
                expected = float(mpmath.betainc(0.5, b, 0, mpmath.mpf(s) ** 2, regularized=True))
            assert per_step_delta(PrivacySpec(d, 2.0 * s, 1, 1)) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_scale_free_up_to_the_largest_floats(self):
        """δ(d, c·Δx, c·R) = δ(d, Δx, R) bitwise for c = 2^k, k ≤ 1020; the
        form Δx/(2R) overflowed 2R and gave δ = 0 at Δx = R = 1e308."""
        rng = np.random.default_rng(8)
        for _ in range(300):
            d = int(np.exp(rng.uniform(0.0, np.log(1e8))))
            dx = float(rng.uniform(0.01, 2.0))
            radius = float(rng.uniform(0.5 * dx, 4.0))
            c = 2.0 ** int(rng.integers(0, 1021))
            expected = per_step_delta(PrivacySpec(d, dx, 1, 1, radius))
            assert per_step_delta(PrivacySpec(d, c * dx, 1, 1, c * radius)) == expected
        assert per_step_delta(PrivacySpec(3, 1e308, 1, 1, 1e308)) == per_step_delta(PrivacySpec(3, 1.0, 1, 1))

    def test_scaling_consistency(self):
        """δ(d, Δx, R) = δ(d, Δx/R, 1) for random triples."""
        rng = np.random.default_rng(6)
        for _ in range(300):
            d = int(rng.integers(1, 51))
            radius = float(rng.uniform(0.1, 10.0))
            dx = float(rng.uniform(0.0, 2.0 * radius))
            scaled = per_step_delta(PrivacySpec(d, dx, 1, 1, radius))
            unit = per_step_delta(PrivacySpec(d, dx / radius, 1, 1, 1.0))
            assert scaled == pytest.approx(unit, abs=1e-12)


class TestAmplifiedDelta:
    def test_no_amplification_for_single_record(self):
        assert overall_delta(PrivacySpec(1, 1.0, 1, 1)).amplified_delta == 0.5

    def test_divides_by_dataset_size(self):
        report = overall_delta(PrivacySpec(1, 1.0, 100, 1))
        assert report.amplified_delta == pytest.approx(0.005, abs=1e-18)

    def test_zero_sensitivity(self):
        assert overall_delta(PrivacySpec(9, 0.0, 1000, 1)).amplified_delta == 0.0


class TestOverallDelta:
    def test_t_equals_n_recovers_per_step(self):
        report = overall_delta(PrivacySpec(1, 1.0, 100, 100))
        assert report.overall_delta == 0.5
        assert not report.saturated

    def test_half_the_steps(self):
        """T/N = 1/2 halves the per-step value, exactly 0.25 here."""
        report = overall_delta(PrivacySpec(1, 1.0, 100, 50))
        assert report.overall_delta == 0.25

    def test_saturation_clamps_at_one(self):
        report = overall_delta(PrivacySpec(1, 1.9, 2, 100))
        assert report.overall_delta == 1.0
        assert report.saturated

    def test_report_arithmetic_invariants(self):
        """amplified = per/N and overall = min(1, per·(T/N)), exactly."""
        rng = np.random.default_rng(77)
        for _ in range(300):
            spec = PrivacySpec(
                int(rng.integers(1, 40)),
                float(rng.uniform(0.0, 2.5)),
                int(rng.integers(1, 5000)),
                int(rng.integers(1, 5000)),
                float(rng.uniform(0.2, 3.0)),
            )
            report = overall_delta(spec)
            per = per_step_delta(spec)
            assert report.per_step_delta == per
            assert report.amplified_delta == per / spec.dataset_size
            raw = per * (spec.steps / spec.dataset_size)
            assert report.overall_delta == min(1.0, raw)
            assert report.saturated == (raw > 1.0)
            assert report.sensitivity_provenance == "given"

    def test_t_equals_n_recovers_per_step_for_random_specs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 10000))
            spec = PrivacySpec(int(rng.integers(1, 51)), float(rng.uniform(0.0, 2.0)), n, n)
            assert overall_delta(spec).overall_delta == per_step_delta(spec)


class TestRadiusForTarget:
    def test_one_dimensional_inverse(self):
        """δ = Δx/(2R) inverts to R = Δx/(2t)."""
        assert radius_for_target(1, 1.0, 0.25) == pytest.approx(2.0, rel=1e-9, abs=0.0)
        assert radius_for_target(1, 1.0, 0.5) == pytest.approx(1.0, rel=1e-9, abs=0.0)

    def test_three_dimensional_inverse(self):
        assert radius_for_target(3, 1.0, 0.6875) == pytest.approx(1.0, rel=1e-9, abs=0.0)

    def test_round_trip_property(self):
        """per_step_delta at the solved radius returns the target within 1e-9."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = int(rng.integers(1, 51))
            dx = float(rng.uniform(0.05, 3.0))
            target = float(rng.uniform(0.01, 0.99))
            radius = radius_for_target(d, dx, target)
            assert radius > dx / 2.0
            achieved = per_step_delta(PrivacySpec(d, dx, 1, 1, radius))
            assert achieved == pytest.approx(target, abs=1e-9)

    def test_tiny_target_is_not_overshot(self):
        """At d = 10, Δx = 1 and target 1e-14 the solved radius may not give
        more than the target (a stop at |δ − t| <= 1e-13 gave 1.225 × t)."""
        radius = radius_for_target(10, 1.0, 1e-14)
        assert radius > 0.5
        assert per_step_delta(PrivacySpec(10, 1.0, 1, 1, radius)) <= 1e-14

    def test_never_above_target(self):
        """δ at the solved radius is at most the target, and within 1e-13 of
        it, for targets 1e-3 .. 1e-15."""
        rng = np.random.default_rng(22)
        for _ in range(200):
            d = int(np.exp(rng.uniform(0.0, np.log(1e4))))
            dx = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
            target = 10.0 ** -float(rng.uniform(3.0, 15.0))
            achieved = per_step_delta(PrivacySpec(d, dx, 1, 1, radius_for_target(d, dx, target)))
            assert target - 1e-13 <= achieved <= target

    def test_bracket_bound_property(self):
        """Over 2000 cases with d up to 10⁸ and targets 1e-15 .. 0.99: δ at
        the solved radius never exceeds the target, is within 1e-13 below
        it, and below a target of 1e-13 within 1e-11 relative. A doubling
        bracket returned as little as 0.5·t there."""
        rng = np.random.default_rng(23)
        for _ in range(2000):
            d = int(np.exp(rng.uniform(0.0, np.log(1e8))))
            dx = float(rng.uniform(0.01, 10.0))
            target = float(np.exp(rng.uniform(np.log(1e-15), np.log(0.99))))
            achieved = per_step_delta(PrivacySpec(d, dx, 1, 1, radius_for_target(d, dx, target)))
            assert achieved <= target
            if target >= 1e-13:
                assert achieved >= target - 1e-13
            else:
                assert achieved >= target * (1.0 - 1e-11)

    def test_tiny_target_radius_is_not_doubled(self):
        """d = 1, Δx = 0.734, t = 1.04e-14 needs R = Δx/(2t) = 3.5288e13; a
        doubling bracket returned 7.04e13, where δ = 0.50·t."""
        radius = radius_for_target(1, 0.734, 1.04e-14)
        assert radius == pytest.approx(0.734 / (2.0 * 1.04e-14), rel=1e-11, abs=0.0)
        assert 1.04e-14 * (1.0 - 1e-11) <= per_step_delta(PrivacySpec(1, 0.734, 1, 1, radius)) <= 1.04e-14

    @pytest.fixture
    def delta_calls(self, monkeypatch):
        """The arguments of every δ evaluation made while the test runs."""
        calls = []
        kernel = accountant._delta

        def counting_delta(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(accountant, "_delta", counting_delta)
        return calls

    def test_few_delta_evaluations_per_solve(self, delta_calls):
        """At most one δ evaluation per solve on average for targets 1e-3 ..
        1e-15: below a target of 3.6e-5 the bracket's upper end is provably
        within the tolerance at every d and is returned without evaluating δ.
        Bisecting the same bracket took 5.6, a doubling bracket about 47."""
        rng = np.random.default_rng(41)
        pool = [
            (int(np.exp(rng.uniform(0.0, np.log(1e8)))), float(np.exp(rng.uniform(np.log(0.01), np.log(2.0)))), 10.0**-e)
            for e in range(3, 16)
            for _ in range(8)
        ]
        for d, dx, target in pool:
            radius_for_target(d, dx, target)
        assert len(delta_calls) / len(pool) <= 1.0

    def test_few_delta_evaluations_for_large_targets(self, delta_calls):
        """Targets 1e-4 .. 0.99, where Newton's method runs: at most 4 δ
        evaluations per solve on average and 10 in any one solve, for d up
        to 10⁸. Bisection took 35.6 on average and up to 44."""
        rng = np.random.default_rng(42)
        counts = []
        for _ in range(400):
            d = int(np.exp(rng.uniform(0.0, np.log(1e8))))
            dx = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
            target = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.99))))
            before = len(delta_calls)
            radius_for_target(d, dx, target)
            counts.append(len(delta_calls) - before)
        assert sum(counts) / len(counts) <= 4.0
        assert max(counts) <= 10

    def test_never_above_target_at_50_digits(self):
        """Over 150 cases with d up to 10⁸ and targets 1e-15 .. 0.99, δ at
        the solved radius, evaluated at 50 digits at the exact
        s = Δx/(2R), is at most the target and within 1e-13 below it. The
        reference is DLMF 8.17.8, 2√x·(1 − x)^b/B(½, b)·F(b + ½, 1; 3/2; x)
        at x = s², whose terms are all positive."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(25)
        for _ in range(150):
            d = int(np.exp(rng.uniform(0.0, np.log(1e8))))
            dx = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
            target = float(np.exp(rng.uniform(np.log(1e-15), np.log(0.99))))
            radius = radius_for_target(d, dx, target)
            with mpmath.workdps(50):
                half, b = mpmath.mpf(1) / 2, mpmath.mpf(d + 1) / 2
                x = (mpmath.mpf(dx) / (2 * mpmath.mpf(radius))) ** 2
                front = 2 * mpmath.sqrt(x) * (1 - x) ** b / mpmath.beta(half, b)
                achieved = front * mpmath.hyp2f1(b + half, 1, 3 * half, x)
                gap = float(target - achieved)
            assert 0.0 <= gap <= 1e-13, (d, dx, target, gap)

    def test_scales_with_the_sensitivity_up_to_the_largest_floats(self):
        """radius_for_target(d, c·Δx, t) = c·radius_for_target(d, Δx, t) for
        c = 2^k, k ≤ 1020, wherever c·R is finite. A midpoint (lo + hi)/2
        overflowed, and a doubling bracket failed at Δx = 2^1000."""
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(300):
            d = int(np.exp(rng.uniform(0.0, np.log(1e8))))
            dx = float(rng.uniform(0.01, 2.0))
            target = float(np.exp(rng.uniform(np.log(1e-15), np.log(0.99))))
            c = 2.0 ** int(rng.integers(0, 1021))
            radius = radius_for_target(d, dx, target)
            if math.isfinite(c * radius):
                assert radius_for_target(d, c * dx, target) == c * radius
                checked += 1
        assert checked >= 250
        radius = radius_for_target(3, 1e308, 0.5)
        assert per_step_delta(PrivacySpec(3, 1e308, 1, 1, radius)) <= 0.5

    def test_no_finite_radius_raises(self):
        with pytest.raises(ConvergenceError, match="no finite radius"):
            radius_for_target(3, 1e308, 1e-15)

    def test_rejects_degenerate_targets(self):
        for target in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                radius_for_target(2, 1.0, target)
        with pytest.raises(ValueError):
            radius_for_target(2, 0.0, 0.5)


class TestDeltaCurve:
    def test_one_dimensional_line(self):
        rows = delta_curve([1], [0.0, 1.0, 2.0])
        assert [row[2] for row in rows] == [0.0, 0.5, 1.0]

    def test_matches_per_step_exactly(self):
        rows = delta_curve([7], [0.8])
        assert rows == [(7, 0.8, per_step_delta(PrivacySpec(7, 0.8, 1, 1)))]

    def test_rows_equal_per_step_delta_bitwise(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            dims = [int(np.exp(rng.uniform(0.0, np.log(1e8)))) for _ in range(3)]
            radius = float(10.0 ** rng.uniform(-2.0, 2.0))
            grid = [0.0, 2.0 * radius, *(float(x) for x in rng.uniform(0.0, 2.0 * radius, 5))]
            expected = [(d, dx, per_step_delta(PrivacySpec(d, dx, 1, 1, radius))) for d in dims for dx in grid]
            assert delta_curve(dims, grid, radius) == expected

    def test_row_order(self):
        rows = delta_curve([1, 3], [1.0])
        assert rows[0][:2] == (1, 1.0) and rows[0][2] == 0.5
        assert rows[1][:2] == (3, 1.0) and rows[1][2] == pytest.approx(0.6875, abs=1e-12)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            delta_curve([], [1.0])
        with pytest.raises(ValueError):
            delta_curve([1], [])

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            delta_curve([1], [2.5])
        assert delta_curve([1], [2.5], radius=2.0)[0][2] == 0.625


class TestArgumentsCheckedOnce:
    """Each accounting question checks its arguments once: one dimension
    check per radius_for_target call and one per dimension of delta_curve,
    never one per δ evaluated, and no PrivacySpec built for it."""

    @pytest.fixture
    def checks(self, monkeypatch):
        made = []

        def counting_check(field, count):
            made.append((field, count))
            return check(field, count)

        check = accountant._check_count
        monkeypatch.setattr(accountant, "_check_count", counting_check)
        return made

    def test_one_spec_per_radius_solve(self, checks):
        radius_for_target(1000, 0.3, 1e-9)
        assert len(checks) == 1

    def test_one_spec_per_curve_dimension(self, checks):
        delta_curve([1, 7, 10**8], [0.0, 0.5, 1.0, 1.5])
        assert len(checks) == 3

    def test_the_one_check_still_rejects_a_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
            radius_for_target(0, 1.0, 0.1)
        with pytest.raises(ValueError, match="dimension must be a positive integer, got -2"):
            delta_curve([3, -2], [0.5])
        with pytest.raises(ValueError, match="^dimension is too large for a float$"):
            radius_for_target(10**400, 1.0, 0.1)
        with pytest.raises(ValueError, match="^dimension is too large for a float$"):
            delta_curve([3, 10**400], [0.5])


class TestDeltaReport:
    def test_provenance_default(self):
        report = DeltaReport(0.5, 0.05, 0.1, False)
        assert report.sensitivity_provenance == "given"
        assert overall_delta(PrivacySpec(1, 1.0, 1, 1)).sensitivity_provenance == "given"

    def test_provenance_is_carried(self):
        spec = PrivacySpec(3, 1.0, 10, 5)
        report = overall_delta(spec, "empirical")
        assert report.sensitivity_provenance == "empirical"
        assert report.per_step_delta == per_step_delta(spec)


class TestNoiselessLimit:
    """Radius 0: identical point masses reveal nothing, distinct ones everything."""

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_zero_gap_gives_zero(self, d):
        spec = PrivacySpec(d, 0.0, 40, 2000, 0.0)
        assert per_step_delta(spec) == 0.0
        assert overall_delta(spec) == DeltaReport(0.0, 0.0, 0.0, False)

    @pytest.mark.parametrize("delta_x", [1e-300, 0.5, 3.0])
    def test_any_gap_gives_one(self, delta_x):
        spec = PrivacySpec(2, delta_x, 40, 2000, 0.0)
        assert per_step_delta(spec) == 1.0
        report = overall_delta(spec, "empirical")
        assert report == DeltaReport(1.0, 1.0 / 40, 1.0, True, "empirical")
        unsaturated = overall_delta(PrivacySpec(2, delta_x, 40, 20, 0.0))
        assert (unsaturated.overall_delta, unsaturated.saturated) == (0.5, False)
