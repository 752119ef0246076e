"""Accounting tests: per-step guarantee, amplification, composition, the
radius inverse, and the monotonicity structure of the guarantee."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prgd.accountant import (
    DeltaReport,
    PrivacySpec,
    delta_curve,
    overall_delta,
    per_step_delta,
    radius_for_target,
)
from prgd.geometry import BallSpec, ball_volume, overlap_volume


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

    # d ≤ 10⁴ keeps the log-beta cancellation (ROADMAP 4a) inside the 1e-12
    # allowance everywhere but within an ulp of the continued-fraction switch
    # (the expected failure below); at d ≥ 10⁶ it is far outside
    _d = st.integers(1, 10_000)
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
        assert per_step_delta(PrivacySpec(d, 2e-200, 1, 1)) / 1e-200 == pytest.approx(near, rel=1e-12)
        assert per_step_delta(PrivacySpec(d, 2e-310, 1, 1)) > 0.0

    @pytest.mark.xfail(strict=True, reason="log-beta cancellation at large d (ROADMAP 4a)")
    def test_monotone_across_the_switch_for_d_8699(self):
        """Both continued-fraction branches share the log-beta front factor,
        whose ~1e-11 error at d ≈ 10⁴ shows as a drop where they meet."""
        b = 0.5 * 8700
        s = math.sqrt(1.5 / (b + 2.5))
        below = per_step_delta(PrivacySpec(8699, 2.0 * math.nextafter(s, 0.0), 1, 1))
        above = per_step_delta(PrivacySpec(8699, 2.0 * s, 1, 1))
        assert above >= below * (1.0 - 1e-12)

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
        assert radius_for_target(1, 1.0, 0.25) == pytest.approx(2.0, rel=1e-9)
        assert radius_for_target(1, 1.0, 0.5) == pytest.approx(1.0, rel=1e-9)

    def test_three_dimensional_inverse(self):
        assert radius_for_target(3, 1.0, 0.6875) == pytest.approx(1.0, rel=1e-9)

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
