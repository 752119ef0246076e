"""Oracle tests: Monte Carlo TV estimation, closed-form overlaps,
finite-difference gradient checking, and the distance-matching attack."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from prgd import validation
from prgd.accountant import PrivacySpec, per_step_delta
from prgd.optimizer import LossModel, least_squares, rank1_factorization, scalar_factorization
from prgd.validation import (
    MCEstimate,
    WORKERS_ENV,
    closed_form_overlap_check,
    grad_check,
    mc_tv_distance,
    surface_noise_distinguisher,
)


def oracles(d, samples):
    """Both oracles, and the surface attack with either noise, at seed 5."""
    return (
        lambda: mc_tv_distance(d, 1.0, 1.0, samples, 5),
        lambda: surface_noise_distinguisher(d, 1.0, samples, 5, "surface"),
        lambda: surface_noise_distinguisher(d, 1.0, samples, 5, "ball"),
    )


class TestMCEstimate:
    def test_binomial_standard_error_invariant(self):
        est = mc_tv_distance(2, 1.0, 1.0, 50_000, 3)
        expected = math.sqrt(est.value * (1.0 - est.value) / est.samples)
        assert est.standard_error == expected
        assert est.samples == 50_000
        assert est.seed == 3

    @pytest.mark.parametrize(
        "estimate, samples, hits",
        [
            (lambda: mc_tv_distance(3, 0.5, 1.0, 1000, 3), 1000, 376),
            (lambda: surface_noise_distinguisher(2, 0.5, 1000, 3, "ball"), 1000, 662),
            (lambda: mc_tv_distance(21, 1.0, 1.0, 31217, 5), 31217, 30853),
            (lambda: surface_noise_distinguisher(21, 1.0, 31217, 5, "ball"), 31217, 31010),
        ],
        ids=["tv", "ball", "tv-11-chunks", "ball-11-chunks"],
    )
    def test_the_streams_are_pinned(self, estimate, samples, hits):
        """Exact counts: a change in chunk streams or draw order moves them.
        At d = 21 the plan is 11 chunks of 3120 rows."""
        assert estimate().value == hits / samples


class TestMcTvDistance:
    def test_coincident_balls_give_exact_zero(self):
        est = mc_tv_distance(3, 0.0, 1.0, 100_000, 1)
        assert est.value == 0.0

    def test_disjoint_balls_give_exact_one(self):
        for dx in (2.0, 3.5, math.inf):
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
        """Both oracles, and the surface attack with either noise, give the
        same estimate at 1, 2, 3 and 7 workers. At d = 21 the plan is 11
        chunks of 3120 rows, a count that none of those divides."""
        rows = validation._CHUNK_ENTRIES // 21
        samples = 10 * rows + 17
        assert validation._chunk_plan(samples, 21) == (rows, 11)
        for estimate in oracles(21, samples):
            monkeypatch.delenv(WORKERS_ENV, raising=False)
            baseline = estimate()
            for workers in ("2", "3", "7"):
                monkeypatch.setenv(WORKERS_ENV, workers)
                assert estimate() == baseline, workers

    def test_rejects_bad_worker_env(self, monkeypatch):
        """Out of range or not an integer: the message names the variable."""
        for raw in ("0", "abc", "2.0", ""):
            monkeypatch.setenv(WORKERS_ENV, raw)
            with pytest.raises(ValueError, match=WORKERS_ENV):
                mc_tv_distance(2, 1.0, 1.0, 1000, 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_tv_distance(2, -1.0, 1.0, 100, 0)
        with pytest.raises(ValueError):
            mc_tv_distance(2, 1.0, 1.0, 0, 0)

    def test_rejects_nan_distance_and_infinite_radius(self):
        """An infinite distance is allowed (see the disjoint-balls test)."""
        with pytest.raises(ValueError, match="delta_x"):
            mc_tv_distance(2, math.nan, 1.0, 1000, 0)
        with pytest.raises(ValueError, match="radius .* got inf"):
            mc_tv_distance(2, 1.0, math.inf, 1000, 0)


class TestBoundedInputs:
    """More than 10⁹ samples or 64 workers is rejected before any chunk
    plan or thread pool exists. Stand-ins for both record what was built and
    the rejected calls must build neither, so no test here starts those
    threads or builds that list."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Records each chunk plan and pool asked for; a plan is one
        five-row chunk and a pool maps in this thread."""
        log = []

        def chunk_plan(samples, d):
            log.append(("plan", samples))
            return 5, 1

        class Pool:
            def __init__(self, max_workers):
                log.append(("pool", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(validation, "_chunk_plan", chunk_plan)
        monkeypatch.setattr(validation, "ThreadPoolExecutor", Pool)
        return log

    def test_rejects_more_than_a_billion_samples(self, built):
        with pytest.raises(ValueError, match="samples must be at most 1000000000"):
            mc_tv_distance(2, 1.0, 1.0, 10**15, 0)
        with pytest.raises(ValueError, match="samples must be at most 1000000000"):
            surface_noise_distinguisher(2, 1.0, 10**9 + 1, 0)
        assert built == []
        mc_tv_distance(2, 1.0, 1.0, 10**9, 0)
        assert built == [("plan", 10**9)]

    def test_rejects_more_than_64_workers(self, built, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "65")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            mc_tv_distance(2, 1.0, 1.0, 1000, 0)
        assert built == []
        monkeypatch.setenv(WORKERS_ENV, "64")
        mc_tv_distance(2, 1.0, 1.0, 1000, 0)
        assert built == [("plan", 1000), ("pool", 64)]

    @pytest.mark.parametrize("workers", [None, "2"])
    @pytest.mark.parametrize("seed", [1.5, -1, math.nan, 10**400], ids=["1.5", "-1", "nan", "past-float"])
    def test_rejects_a_bad_seed(self, built, monkeypatch, workers, seed):
        """Both oracles refuse the seed in one line, at 1 and 2 workers,
        before building a plan or a pool."""
        if workers is not None:
            monkeypatch.setenv(WORKERS_ENV, workers)
        for estimate in (
            lambda: mc_tv_distance(2, 1.0, 1.0, 1000, seed),
            lambda: surface_noise_distinguisher(2, 1.0, 1000, seed, "surface"),
        ):
            with pytest.raises(ValueError, match="^seed ") as caught:
                estimate()
            assert "\n" not in str(caught.value)
        assert built == []


class TestChunkPlan:
    """Chunks hold ⌊2¹⁶/d⌋ rows (at least one), so no sampler call draws more
    than max(2¹⁶, d) normals, and at w workers the chunks go to at most w
    tasks."""

    @pytest.mark.parametrize("d, samples", [(1, 200_000), (21, 10_000), (70_000, 3)])
    def test_sampler_calls_are_bounded(self, monkeypatch, d, samples):
        rows = []

        def spy(sampler):
            def sample(spec, rng, size):
                rows.append(size)
                assert size * spec.d <= max(validation._CHUNK_ENTRIES, spec.d)
                return sampler(spec, rng, size)

            return sample

        monkeypatch.setattr(validation, "sample_ball", spy(validation.sample_ball))
        monkeypatch.setattr(validation, "sample_sphere_surface", spy(validation.sample_sphere_surface))
        for estimate in oracles(d, samples):
            rows.clear()
            estimate()
            assert sum(rows) == samples and len(rows) > 1

    @pytest.mark.parametrize("workers, samples, tasks", [("64", 3121, 2), ("3", 34_000, 3), ("2", 1, 1)])
    def test_one_task_per_worker_at_most(self, monkeypatch, workers, samples, tasks):
        seen = []

        class Pool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                calls = list(zip(*iterables))
                seen.append(len(calls))
                return (fn(*args) for args in calls)

        monkeypatch.setattr(validation, "ThreadPoolExecutor", Pool)
        monkeypatch.setenv(WORKERS_ENV, workers)
        estimate = mc_tv_distance(21, 1.0, 1.0, samples, 5)
        assert seen == [tasks]
        monkeypatch.delenv(WORKERS_ENV)
        assert mc_tv_distance(21, 1.0, 1.0, samples, 5) == estimate

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
    def test_wide_balls_stay_small(self):
        """At d = 10⁵ each chunk is one row, so 1000 samples peak below
        100 MB, interpreter and numpy included. The child reads its own
        high-water mark; ru_maxrss would inherit the test runner's."""
        script = (
            "from prgd.validation import mc_tv_distance; "
            "mc_tv_distance(10**5, 0.05, 1.0, 1000, 0); "
            "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
        )
        src = str(Path(validation.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert int(proc.stdout) < 100 * 1024  # VmHWM is in kB


class TestClosedFormOverlapCheck:
    def test_interval_overlap(self):
        analytic, closed = closed_form_overlap_check(1, 0.5)
        assert closed == 1.5
        assert analytic == pytest.approx(1.5, rel=1e-12, abs=0.0)

    def test_sphere_overlap(self):
        analytic, closed = closed_form_overlap_check(3, 1.0)
        assert closed == pytest.approx(1.25 * math.pi / 3.0, rel=1e-14, abs=0.0)
        assert analytic == pytest.approx(closed, rel=1e-10, abs=0.0)

    def test_tangent_disks(self):
        """Δx = 2r gives exactly 0 from every closed form, at any radius."""
        for d in (1, 2, 3):
            for r in (1.0, 0.3, 7.0, 1e-100, 1e100):
                analytic, closed = closed_form_overlap_check(d, 2.0 * r, r)
                assert analytic == 0.0 and closed == 0.0, (d, r)

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
        assert analytic == pytest.approx(closed, rel=1e-10, abs=0.0)

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
            lambda w, features, labels: np.full(np.shape(w)[:-1] + labels.shape, 1.25),
            lambda w, features, labels: np.zeros(np.shape(w)[:-1] + (len(labels), 2)),
        )
        assert grad_check(constant, np.ones(2), (np.ones(2), 0.0), 1e-4) == 0.0

    @pytest.mark.parametrize("where", ["value", "gradient"])
    def test_a_nan_loss_fails(self, where):
        """A NaN value or gradient gives a NaN deviation, which no tolerance
        passes; taking the worst case with max() would have kept 0."""
        model = least_squares(2)
        functions = {"value": model.value, "gradient": model.gradient}
        exact = functions[where]
        functions[where] = lambda w, features, labels: np.full_like(exact(w, features, labels), np.nan)
        broken = LossModel("nan", 2, functions["value"], functions["gradient"])
        deviation = grad_check(broken, np.ones(2), (np.ones(2), 0.5), 1e-6)
        assert math.isnan(deviation)
        assert not deviation <= 1e-5

    @pytest.mark.parametrize("make", [least_squares, rank1_factorization], ids=lambda make: make.__name__)
    def test_memory_is_linear_in_p(self, make):
        """At p = 2048 the shifted points are taken in blocks, not as two
        p × p stacks (64 MiB here), and the deviation keeps the bits of the
        unblocked formula; a −0.0 coordinate still becomes +0.0 in w + offsets."""
        p, step = 2048, 1e-6
        rng = np.random.default_rng(4)
        model = make(p)
        w, x, y = rng.standard_normal(p), rng.standard_normal(p), float(rng.standard_normal())
        w[::5] = -0.0
        tracemalloc.start()
        try:
            deviation = grad_check(model, w, (x, y), step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        features, labels = x[np.newaxis, :], np.array([y])
        grad = model.gradient(w, features, labels)[0]
        offsets = step * np.eye(p)
        fd = (
            model.value(w + offsets, features, labels)[:, 0]
            - model.value(w - offsets, features, labels)[:, 0]
        ) / (2.0 * step)
        assert deviation.hex() == float(np.max(np.abs(fd - grad) / np.maximum(1.0, np.abs(grad)))).hex()

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_a_w_of_the_wrong_width(self, width):
        """A w whose width is not parameter_dim is refused before any
        gradient is taken; a 3-wide w once passed and a 1-wide one raised
        IndexError."""
        def refuse(*args):
            raise AssertionError("a gradient was taken at a w of the wrong width")

        model = scalar_factorization(1)
        unused = LossModel(model.name, 2, model.value, refuse)
        with pytest.raises(ValueError, match=rf"^w has shape \({width},\), expected \(2,\)$"):
            grad_check(unused, np.ones(width), (np.ones(1), 1.0), 1e-6)

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
