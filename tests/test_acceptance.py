"""Acceptance gate: every release-blocking criterion at its stated
tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Statistical criteria use fixed seeds; the estimators are
unbiased and the seeds are ordinary draws, pinned so the gate is
deterministic.
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest

from prgd import cli
from prgd.accountant import PrivacySpec, overall_delta, per_step_delta, radius_for_target
from prgd.geometry import BallSpec, ball_volume, overlap_volume, sample_ball
from prgd.optimizer import RunConfig, prgd_run, scalar_factorization, synthesize_dataset
from prgd.rng import derive_rng
from prgd.special import reg_inc_beta, reg_inc_beta_derivative, series_delta_odd_d
from prgd.validation import mc_tv_distance, surface_noise_distinguisher


def check(number: int, description: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:5.1f}s / {budget:.0f}s) {description}")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime budget"


def test_criterion_01_one_dimensional_closed_form():
    """δ(1, Δx) = Δx/2 to 1e-12 on a 200-point grid."""
    started = time.time()
    ok = all(
        abs(per_step_delta(PrivacySpec(1, float(dx), 1, 1)) - dx / 2.0) <= 1e-12
        for dx in np.linspace(0.0, 2.0, 200)
    )
    check(1, "one-dimensional closed form delta = dx/2", ok, started, 1.0)


def test_criterion_02_beta_route_matches_geometry_route():
    """Direct incomplete-beta δ equals 1 − overlap/volume to 1e-10 for
    d ≤ 25 over a 40-point grid."""
    started = time.time()
    worst = 0.0
    for d in range(1, 26):
        spec = BallSpec(d)
        volume = ball_volume(spec)
        for dx in np.linspace(0.0, 2.0, 40):
            direct = per_step_delta(PrivacySpec(d, float(dx), 1, 1))
            geometric = 1.0 - overlap_volume(spec, float(dx)) / volume
            worst = max(worst, abs(direct - geometric))
    check(2, f"beta route vs geometry route (worst {worst:.2e})", worst <= 1e-10, started, 5.0)


def test_criterion_03_monte_carlo_total_variation():
    """10⁶-sample TV estimates sit within 3 binomial standard errors of the
    analytic δ for 30 (d, Δx) pairs."""
    started = time.time()
    ok = True
    case = 0
    for d in (1, 2, 3, 5, 11, 21):
        for dx in (0.2, 0.6, 1.0, 1.4, 1.8):
            analytic = per_step_delta(PrivacySpec(d, dx, 1, 1))
            est = mc_tv_distance(d, dx, 1.0, 1_000_000, case)
            se = math.sqrt(analytic * (1.0 - analytic) / est.samples)
            ok &= abs(est.value - analytic) <= 3.0 * se
            case += 1
    check(3, "Monte Carlo TV agreement over 30 cases", ok, started, 120.0)


def test_criterion_04_series_matches_continued_fraction():
    """Finite odd-dimension series agrees with the continued fraction to
    1e-10 for odd d ≤ 41 over a 50-point grid."""
    started = time.time()
    worst = 0.0
    for d in range(1, 42, 2):
        params = (0.5, 0.5 * (d + 1))
        for dx in np.linspace(0.0, 2.0, 50):
            series = series_delta_odd_d(float(dx), d)
            direct = reg_inc_beta((dx / 2.0) ** 2, *params)
            worst = max(worst, abs(series - direct))
    check(4, f"odd-d series vs continued fraction (worst {worst:.2e})", worst <= 1e-10, started, 5.0)


def test_criterion_05_derivative_is_positive_and_matches_finite_differences():
    """The closed-form derivative is strictly positive and matches central
    finite differences to 1e-6 (deviation scaled by max(1, |f'|), the same
    convention as grad_check) across the criterion-2 grid."""
    started = time.time()
    step = 1e-6
    worst = 0.0
    positive = True
    for d in range(1, 26):
        params = (0.5, 0.5 * (d + 1))
        for dx in np.linspace(0.0, 2.0, 40)[1:-1]:
            z = (dx / 2.0) ** 2
            if z - step <= 0.0 or z + step >= 1.0:
                continue
            analytic = reg_inc_beta_derivative(float(z), d)
            positive &= analytic > 0.0
            fd = (reg_inc_beta(z + step, *params) - reg_inc_beta(z - step, *params)) / (2.0 * step)
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
    ok = positive and worst <= 1e-6
    check(5, f"derivative positive, FD deviation {worst:.2e}", ok, started, 5.0)


def test_criterion_06_curve_reproduction(tmp_path):
    """cmd_curve output for d in {1,3,7,15,31} over [0,2] is increasing in
    Δx (up to double-precision saturation at 1), ordered increasing in d on
    the interior, and anchored at δ(0)=0, δ(2)=1."""
    started = time.time()
    out_path = tmp_path / "curves.csv"
    code = cli.main(
        ["curve", "--d-list", "1,3,7,15,31", "--delta-x-range", "0:2:0.05",
         "--output", str(out_path)]
    )
    assert code == 0
    curves = defaultdict(list)
    for line in out_path.read_text().splitlines()[1:]:
        d_str, _, delta_str = line.split(",")
        curves[int(d_str)].append(float(delta_str))

    dims = [1, 3, 7, 15, 31]
    increasing = all(
        lo < hi or (lo == 1.0 and hi == 1.0)
        for d in dims
        for lo, hi in zip(curves[d], curves[d][1:])
    )
    interior = range(1, len(curves[1]) - 1)
    ordered = all(
        curves[hi_d][i] > curves[lo_d][i] or curves[lo_d][i] == 1.0
        for lo_d, hi_d in zip(dims, dims[1:])
        for i in interior
    )
    anchored = all(curves[d][0] == 0.0 and curves[d][-1] == 1.0 for d in dims)
    check(6, "curve shape: increasing, d-ordered, anchored", increasing and ordered and anchored,
          started, 5.0)


def test_criterion_07_composition_rule():
    """(T/N)-composition: the worked example equals 0.25 exactly and T = N
    recovers the per-step δ exactly for 100 random specs."""
    started = time.time()
    ok = overall_delta(PrivacySpec(1, 1.0, 100, 50)).overall_delta == 0.25
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 10_000))
        spec = PrivacySpec(int(rng.integers(1, 51)), float(rng.uniform(0.0, 2.0)), n, n)
        ok &= overall_delta(spec).overall_delta == per_step_delta(spec)
    check(7, "additive composition: exact worked example and T=N recovery", ok, started, 1.0)


def test_criterion_08_radius_inverse():
    """per_step_delta(d, Δx, radius_for_target(d, Δx, t)) = t ± 1e-9 for 200
    random triples; one-dimensional cases match R = Δx/(2t)."""
    started = time.time()
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 51))
        dx = float(rng.uniform(0.05, 3.0))
        target = float(rng.uniform(0.01, 0.99))
        radius = radius_for_target(d, dx, target)
        ok &= abs(per_step_delta(PrivacySpec(d, dx, 1, 1, radius)) - target) <= 1e-9
        if d == 1:
            ok &= abs(radius - dx / (2.0 * target)) <= 1e-8 * (dx / (2.0 * target))
    for dx, target in ((1.0, 0.25), (1.0, 0.5), (0.4, 0.9)):
        radius = radius_for_target(1, dx, target)
        ok &= abs(radius - dx / (2.0 * target)) <= 1e-8 * (dx / (2.0 * target))
    check(8, "radius inverse round-trip and d=1 closed form", ok, started, 5.0)


def test_criterion_09_sampler_isotropy():
    """Uniform ball second moments sit within 3 MC standard errors of
    I/(d+2) for d in {1,2,3,5,11}, and no draw leaves the ball."""
    started = time.time()
    ok = True
    for d in (1, 2, 3, 5, 11):
        draws = sample_ball(BallSpec(d), derive_rng(1234, d), 1_000_000)
        ok &= float(np.linalg.norm(draws, axis=1).max()) <= 1.0
        n = len(draws)
        moment = draws.T @ draws / n
        second = (draws**2).T @ (draws**2) / n
        se = np.sqrt(np.maximum(second - moment**2, 0.0) / n)
        deviation = np.abs(moment - np.eye(d) / (d + 2))
        ok &= bool(np.all(deviation <= 3.0 * np.where(se > 0, se, np.inf)))
    check(9, "ball sampler isotropy E[nnT] = I/(d+2)", ok, started, 30.0)


def test_criterion_10_saddle_escape_contrast():
    """From the exact strict saddle, at least 90 of 100 perturbed runs
    (R=1, η=0.01, T=2000) cut the loss by 0.1; the noiseless control never
    moves."""
    started = time.time()
    data = synthesize_dataset(40, 1, 0.0, 11)
    model = scalar_factorization(1)
    saddle = np.zeros(2)

    escapes = 0
    for seed in range(100):
        config = RunConfig(step_size=0.01, steps=2000, noise_radius=1.0, seed=seed)
        trace = prgd_run(data, model, config, saddle)
        escapes += trace.losses[0] - trace.final_loss >= 0.1

    stuck = True
    for seed in range(100):
        config = RunConfig(step_size=0.01, steps=2000, noise_radius=0.0, seed=seed)
        control = prgd_run(data, model, config, saddle)
        stuck &= float(np.linalg.norm(control.final_iterate - saddle)) == 0.0

    check(10, f"saddle escape {escapes}/100 with noise, frozen without", escapes >= 90 and stuck,
          started, 60.0)


def test_criterion_11_surface_noise_attack():
    """The distance-matching adversary identifies the source at rate
    ≥ 0.9999 under sphere-surface noise, while solid-ball noise stays
    bounded away from 1 at δ + (1−δ)/2."""
    started = time.time()
    ok = True
    for case, (d, dx) in enumerate(((2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0))):
        surface = surface_noise_distinguisher(d, dx, 100_000, 42 + case, "surface")
        ok &= surface.value >= 0.9999
        control = surface_noise_distinguisher(d, dx, 100_000, 42 + case, "ball")
        delta = per_step_delta(PrivacySpec(d, dx, 1, 1))
        expected = delta + 0.5 * (1.0 - delta)
        ok &= control.value <= 0.95
        ok &= abs(control.value - expected) <= 4.0 * control.standard_error
    check(11, "surface noise identifiable, ball noise is not", ok, started, 30.0)


def test_criterion_12_deterministic_outputs(tmp_path):
    """Repeated cmd_run and cmd_curve invocations with fixed seeds produce
    byte-identical outputs."""
    started = time.time()
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        '{"loss": "scalar_factorization",'
        ' "data": {"n": 30, "feature_dim": 1, "label_noise": 0.0, "seed": 11},'
        ' "run": {"step_size": 0.01, "steps": 300, "noise_radius": 1.0, "seed": 5},'
        ' "initial_w": [0.0, 0.0]}'
    )
    traces = []
    for name in ("a.trace", "b.trace"):
        code = cli.main(["run", str(config_path), "--trace", str(tmp_path / name)])
        assert code == 0
        traces.append((tmp_path / name).read_bytes())
    curves = []
    for name in ("a.csv", "b.csv"):
        code = cli.main(
            ["curve", "--d-list", "1,3,7", "--delta-x-range", "0:2:0.01",
             "--output", str(tmp_path / name)]
        )
        assert code == 0
        curves.append((tmp_path / name).read_bytes())
    ok = traces[0] == traces[1] and curves[0] == curves[1]
    check(12, "byte-identical reruns of cmd_run and cmd_curve", ok, started, 30.0)
