"""Optimizer tests: the perturbed update rule, its trace contracts, the
benchmark losses and their saddle structure, and sensitivity estimation."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from prgd import optimizer
from prgd.accountant import PrivacySpec, overall_delta
from prgd.geometry import BallSpec, sample_ball
from prgd.optimizer import (
    Dataset,
    DivergenceError,
    LossModel,
    RunConfig,
    builtin_losses,
    estimate_sensitivity,
    least_squares,
    prgd_run,
    rank1_factorization,
    scalar_factorization,
    synthesize_dataset,
)
from prgd.rng import derive_rng


def linear_loss(dim):
    """ℓ(w; x, y) = w·x, whose gradient is the record's features x."""
    return LossModel(
        "linear", dim,
        lambda w, features, labels: features @ w,
        lambda w, features, labels: features,
    )


def stretch_loss(dim):
    """ℓ(w; x, y) = ½·Σₖ wₖ²·xₖ, whose gradient w ⊙ x is the record's
    features stretched coordinate-wise by the probe point."""
    return LossModel(
        "stretch", dim,
        lambda w, features, labels: 0.5 * features @ (w * w),
        lambda w, features, labels: features * w,
    )


def brute_force_diameter(rows):
    """Largest pairwise distance, by direct differences over all pairs."""
    rows = np.asarray(rows, dtype=float)
    return float(np.linalg.norm(rows[:, None] - rows[None], axis=-1).max())


def numeric_hessian(fn, w, h=1e-5):
    """Central-difference Hessian of a scalar function of a vector."""
    dim = len(w)
    hess = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            pp = np.array(w, dtype=float)
            pm = np.array(w, dtype=float)
            mp = np.array(w, dtype=float)
            mm = np.array(w, dtype=float)
            pp[i] += h; pp[j] += h
            pm[i] += h; pm[j] -= h
            mp[i] -= h; mp[j] += h
            mm[i] -= h; mm[j] -= h
            hess[i, j] = (fn(pp) - fn(pm) - fn(mp) + fn(mm)) / (4.0 * h * h)
    return hess


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            Dataset(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0))


class TestBuiltinLosses:
    def test_catalog_contents(self):
        catalog = builtin_losses()
        assert set(catalog) == {"least_squares", "scalar_factorization", "rank1_factorization"}
        for name, factory in catalog.items():
            model = factory(1)
            assert model.name == name

    def test_scalar_factorization_requires_scalar_features(self):
        with pytest.raises(ValueError):
            scalar_factorization(2)

    def test_least_squares_convexity(self):
        """Mean Hessian is 2/N·ΣxxT, positive semidefinite everywhere."""
        data = synthesize_dataset(20, 3, 0.5, 0)
        model = least_squares(3)
        hess = numeric_hessian(lambda w: model.mean_loss(w, data), np.array([0.3, -1.0, 2.0]))
        expected = 2.0 * data.features.T @ data.features / len(data)
        np.testing.assert_allclose(hess, expected, rtol=1e-4, atol=1e-4)
        assert np.linalg.eigvalsh(hess).min() >= -1e-8

    def test_scalar_factorization_saddle_structure(self):
        """At the origin the gradient vanishes and the mean Hessian has
        eigenvalues ±(2/N)|Σxᵢyᵢ|, so the origin is a strict saddle."""
        data = Dataset([[1.0], [0.5]], [0.25, 1.5])
        model = scalar_factorization(1)
        sum_xy = float(np.sum(data.features[:, 0] * data.labels))
        assert sum_xy == 1.0

        grads = model.gradient(np.zeros(2), data.features, data.labels)
        np.testing.assert_array_equal(grads, np.zeros((2, 2)))

        hess = numeric_hessian(lambda w: model.mean_loss(w, data), np.zeros(2))
        eigs = np.sort(np.linalg.eigvalsh(hess))
        np.testing.assert_allclose(eigs, [-2.0 / 2.0 * sum_xy, 2.0 / 2.0 * sum_xy], atol=1e-6)

    def test_scalar_factorization_zero_residual(self):
        """Record (x=1, y=1) at w=(1,1) has zero residual, hence zero gradient."""
        model = scalar_factorization(1)
        grad = model.gradient(np.array([1.0, 1.0]), np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_array_equal(grad, np.zeros((1, 2)))

    def test_rank1_factorization_against_frobenius_oracle(self):
        """Expanded loss equals the direct ‖y·xxᵀ − wwᵀ‖²_F computation."""
        rng = np.random.default_rng(14)
        model = rank1_factorization(3)
        for _ in range(50):
            w = rng.standard_normal(3)
            x = rng.standard_normal(3)
            y = float(rng.standard_normal())
            direct = float(np.sum((y * np.outer(x, x) - np.outer(w, w)) ** 2))
            value = model.value(w, x[np.newaxis, :], np.array([y]))[0]
            assert value == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_rank1_factorization_saddle_at_origin(self):
        data = synthesize_dataset(10, 3, 0.0, 2)
        model = rank1_factorization(3)
        grads = model.gradient(np.zeros(3), data.features, data.labels)
        np.testing.assert_array_equal(grads, np.zeros((10, 3)))

    DIRECT_VALUES = {
        "least_squares": lambda w, x, y: (y - sum(wk * xk for wk, xk in zip(w, x))) ** 2,
        "scalar_factorization": lambda w, x, y: (y - w[0] * w[1] * x[0]) ** 2,
        "rank1_factorization": lambda w, x, y: float(np.sum((y * np.outer(x, x) - np.outer(w, w)) ** 2)),
    }
    CASES = (("least_squares", 4), ("scalar_factorization", 1), ("rank1_factorization", 2))

    def test_values_match_direct_formulas(self):
        """Row i of value(w, features, labels) is the loss of record i."""
        rng = np.random.default_rng(15)
        for name, dim in self.CASES:
            model = builtin_losses()[name](dim)
            data = synthesize_dataset(12, dim, 0.3, 7)
            w = rng.standard_normal(model.parameter_dim)
            values = model.value(w, data.features, data.labels)
            assert values.shape == (len(data),)
            for i in range(len(data)):
                direct = self.DIRECT_VALUES[name](w, data.features[i], data.labels[i])
                assert values[i] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_gradients_match_central_differences(self):
        """Row i of gradient(w, features, labels) is the derivative of row i
        of the value."""
        rng = np.random.default_rng(16)
        h = 1e-5
        for name, dim in self.CASES:
            model = builtin_losses()[name](dim)
            data = synthesize_dataset(12, dim, 0.3, 8)
            w = rng.standard_normal(model.parameter_dim)
            grads = model.gradient(w, data.features, data.labels)
            assert grads.shape == (len(data), model.parameter_dim)
            for k in range(model.parameter_dim):
                step = h * np.eye(model.parameter_dim)[k]
                fd = (model.value(w + step, data.features, data.labels)
                      - model.value(w - step, data.features, data.labels)) / (2.0 * h)
                np.testing.assert_allclose(grads[:, k], fd, rtol=1e-6, atol=1e-6)


class TestRunConfig:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            RunConfig(step_size=0.1, steps=0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(step_size=0.0, steps=1)
        with pytest.raises(ValueError):
            RunConfig(step_size=0.1, steps=1, noise_radius=-1.0)
        with pytest.raises(ValueError):
            RunConfig(step_size=0.1, steps=1, clip_norm=0.0)

    def test_zero_radius_is_allowed(self):
        RunConfig(step_size=0.1, steps=1, noise_radius=0.0)


class TestPrgdRun:
    def setup_method(self):
        self.data = synthesize_dataset(15, 2, 0.2, 3)
        self.model = least_squares(2)

    def test_single_step_unrolls(self):
        """T=1: w₁ = w₀ − η·(g + n) for the one sampled record."""
        config = RunConfig(step_size=0.05, steps=1, noise_radius=0.5, seed=9)
        w0 = np.array([0.2, -0.4])
        trace = prgd_run(self.data, self.model, config, w0)
        assert trace.steps == 1
        i = int(trace.data_indices[0])
        x, y = self.data.features[i], self.data.labels[i]
        np.testing.assert_array_equal(trace.gradients[0], -2.0 * (y - w0 @ x) * x)
        expected = w0 - 0.05 * (trace.gradients[0] + trace.noises[0])
        np.testing.assert_array_equal(trace.final_iterate, expected)

    def test_reproducible_given_seed(self):
        config = RunConfig(step_size=0.01, steps=200, noise_radius=1.0, seed=31)
        a = prgd_run(self.data, self.model, config, np.zeros(2))
        b = prgd_run(self.data, self.model, config, np.zeros(2))
        np.testing.assert_array_equal(a.iterates, b.iterates)
        np.testing.assert_array_equal(a.noises, b.noises)
        np.testing.assert_array_equal(a.data_indices, b.data_indices)
        assert a.final_loss == b.final_loss
        assert a.report == b.report
        assert a.serialize_lines() == b.serialize_lines()

    def test_update_rule_fidelity(self):
        """w_{t+1} − w_t equals −η·(gradient + noise) exactly, every step."""
        config = RunConfig(step_size=0.02, steps=300, noise_radius=0.7, seed=5)
        trace = prgd_run(self.data, self.model, config, np.array([1.0, 1.0]))
        for t in range(trace.steps):
            expected = trace.iterates[t] - 0.02 * (trace.gradients[t] + trace.noises[t])
            np.testing.assert_array_equal(trace.iterates[t + 1], expected)

    def test_clipping_contract(self):
        """Every recorded gradient norm stays at or below the clip bound."""
        config = RunConfig(step_size=0.01, steps=500, noise_radius=0.5, clip_norm=0.3, seed=2)
        trace = prgd_run(self.data, self.model, config, np.array([3.0, -3.0]))
        norms = np.linalg.norm(trace.gradients, axis=1)
        assert norms.max() <= 0.3
        assert trace.sensitivity == 0.6
        assert trace.report.sensitivity_provenance == "certified"

    def test_noise_contract(self):
        config = RunConfig(step_size=0.01, steps=500, noise_radius=0.25, seed=4)
        trace = prgd_run(self.data, self.model, config, np.zeros(2))
        assert np.linalg.norm(trace.noises, axis=1).max() <= 0.25

    def test_losses_recorded_at_pre_update_iterates(self):
        config = RunConfig(step_size=0.01, steps=50, noise_radius=0.1, seed=6)
        trace = prgd_run(self.data, self.model, config, np.zeros(2))
        assert trace.losses[0] == self.model.mean_loss(trace.iterates[0], self.data)
        assert np.all(np.isfinite(trace.losses))
        assert trace.final_loss == self.model.mean_loss(trace.final_iterate, self.data)

    def test_empirical_sensitivity_attached(self):
        config = RunConfig(step_size=0.01, steps=50, noise_radius=0.1, seed=6)
        trace = prgd_run(self.data, self.model, config, np.zeros(2))
        assert trace.report.sensitivity_provenance == "empirical"
        assert trace.sensitivity == estimate_sensitivity(self.data, self.model, trace.iterates)

    def test_given_sensitivity_replaces_the_scan(self, monkeypatch):
        config = RunConfig(step_size=0.01, steps=50, noise_radius=0.1, seed=6)
        reference = prgd_run(self.data, self.model, config, np.zeros(2))

        def no_scan(*args, **kwargs):
            raise AssertionError("estimate_sensitivity must not run")

        monkeypatch.setattr(optimizer, "estimate_sensitivity", no_scan)
        trace = prgd_run(self.data, self.model, config, np.zeros(2), sensitivity=0.5)
        assert trace.serialize_lines() == reference.serialize_lines()
        assert trace.sensitivity == 0.5
        assert trace.report == overall_delta(PrivacySpec(2, 0.5, 15, 50, 0.1), "given")

    def test_sampling_uniformity(self):
        """Over 10⁶ steps with N=10, each record is drawn 10⁵ ± 3·√(10⁶·0.09)."""
        zero = LossModel(
            "zero", 1,
            lambda w, features, labels: np.zeros(len(labels)),
            lambda w, features, labels: np.zeros((len(labels), 1)),
        )
        data = Dataset(np.zeros((10, 1)), np.zeros(10))
        config = RunConfig(step_size=1.0, steps=1_000_000, noise_radius=0.0, clip_norm=1.0, seed=123)
        trace = prgd_run(data, zero, config, np.zeros(1))
        counts = np.bincount(trace.data_indices, minlength=10)
        bound = 3.0 * math.sqrt(1_000_000 * 0.1 * 0.9)
        assert np.abs(counts - 100_000).max() <= bound

    def test_saddle_escape_requires_noise(self):
        """From the exact saddle, perturbed runs descend while the noiseless
        control cannot move (reduced-size version of the acceptance check)."""
        data = synthesize_dataset(40, 1, 0.0, 11)
        model = scalar_factorization(1)
        escapes = 0
        for seed in range(20):
            trace = prgd_run(
                data, model, RunConfig(step_size=0.01, steps=2000, noise_radius=1.0, seed=seed),
                np.zeros(2),
            )
            escapes += trace.losses[0] - trace.final_loss >= 0.1
        assert escapes >= 16

        control = prgd_run(
            data, model, RunConfig(step_size=0.01, steps=2000, noise_radius=0.0, seed=0),
            np.zeros(2),
        )
        assert float(np.linalg.norm(control.final_iterate)) == 0.0
        assert control.final_loss == control.losses[0]

    def test_divergence_reports_iteration(self):
        config = RunConfig(step_size=1e8, steps=100, noise_radius=0.0, seed=1)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            prgd_run(self.data, self.model, config, np.array([1.0, 1.0]))
        assert 0 <= err.value.step < 100
        assert "iteration" in str(err.value)

    def test_divergence_names_step_and_quantity(self):
        """Four identical records and R = 0, so no draw matters. For
        x = y = 1 from w₀ = 0 the residual is rₖ = (1 − 2η)ᵏ, and the loss
        rₖ² overflows at the first k with 2k·ln|1 − 2η| > ln(max float),
        while the gradient 2rₖ is still finite. For x = 1e200 both are
        non-finite at step 0, and the gradient is checked first."""
        eta = 1e8
        first = math.ceil(math.log(sys.float_info.max) / (2.0 * math.log(2.0 * eta - 1.0)))
        assert 2.0 * (2.0 * eta - 1.0) ** first < sys.float_info.max
        cases = [
            (1.0, 1.0, eta, 0.0, first, "loss"),
            (1e200, 0.0, 0.01, 1.0, 0, "gradient"),
        ]
        for x, y, step_size, w0, step, quantity in cases:
            data = Dataset([[x]] * 4, [y] * 4)
            config = RunConfig(step_size=step_size, steps=100, noise_radius=0.0)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
                prgd_run(data, least_squares(1), config, [w0])
            assert (err.value.step, str(err.value).split()[0]) == (step, quantity)

    def test_randomness_is_drawn_in_two_calls(self, monkeypatch):
        """The T record indices, then the T noise rows, each in one call on
        the seed's generator; a noiseless run draws no noise."""
        sizes = []

        def counting(spec, rng, size):
            sizes.append(size)
            return sample_ball(spec, rng, size)

        monkeypatch.setattr(optimizer, "sample_ball", counting)
        config = RunConfig(step_size=0.01, steps=250, noise_radius=0.5, seed=7)
        trace = prgd_run(self.data, self.model, config, np.zeros(2))
        assert sizes == [250]
        rng = derive_rng(7)
        np.testing.assert_array_equal(trace.data_indices, rng.integers(15, size=250))
        np.testing.assert_array_equal(trace.noises, sample_ball(BallSpec(2, 0.5), rng, 250))

        config = RunConfig(step_size=0.01, steps=250, noise_radius=0.0, seed=7)
        control = prgd_run(self.data, self.model, config, np.zeros(2))
        assert sizes == [250]
        np.testing.assert_array_equal(control.noises, np.zeros((250, 2)))
        np.testing.assert_array_equal(control.data_indices, derive_rng(7).integers(15, size=250))

    def test_rejects_wrong_initial_shape(self):
        config = RunConfig(step_size=0.1, steps=1)
        with pytest.raises(ValueError):
            prgd_run(self.data, self.model, config, np.zeros(3))


class TestSerialization:
    def test_line_format(self):
        data = synthesize_dataset(5, 2, 0.0, 1)
        model = least_squares(2)
        for seed in range(40):
            config = RunConfig(step_size=0.1, steps=3, noise_radius=0.5, seed=seed)
            trace = prgd_run(data, model, config, np.zeros(2))
            lines = trace.serialize_lines()
            assert len(lines) == 3
            for t, line in enumerate(lines):
                fields = line.split(" ")
                assert len(fields) == 5 + 2
                assert int(fields[0]) == t
                assert int(fields[1]) == trace.data_indices[t]
                assert float(fields[2]) == trace.losses[t]
                assert float(fields[3]) == np.linalg.norm(trace.gradients[t])
                assert float(fields[4]) == np.linalg.norm(trace.noises[t])
                np.testing.assert_array_equal([float(f) for f in fields[5:]], trace.iterates[t])


class TestEstimateSensitivity:
    def test_single_record_has_no_pairs(self):
        data = Dataset([[1.0]], [2.0])
        assert estimate_sensitivity(data, least_squares(1), [np.zeros(1)]) == 0.0

    def test_duplicated_records(self):
        data = Dataset([[1.0, 2.0]] * 4, [3.0] * 4)
        assert estimate_sensitivity(data, least_squares(2), [np.ones(2), np.zeros(2)]) == 0.0

    def test_linear_loss_sensitivity_is_feature_gap(self):
        """For ℓ = w·x the per-example gradient is x itself, so the bound is
        the feature gap 1.5 at any probe point."""
        data = Dataset([[0.0], [1.5]], [0.0, 0.0])
        for w in ([0.0], [3.0], [-2.5]):
            assert estimate_sensitivity(data, linear_loss(1), [np.array(w)]) == 1.5

    def test_small_gap_between_large_gradients(self):
        """‖a‖² + ‖b‖² − 2a·b on the raw rows rounds the 1e-3 gap between
        two gradients of norm 1e8 to 0; the scan must still see it."""
        data = Dataset([[1e8, 0.0], [1e8, 1e-3]], [0.0, 0.0])
        assert estimate_sensitivity(data, linear_loss(2), [np.zeros(2)]) == pytest.approx(1e-3, rel=1e-12)

    def test_clip_caps_the_bound(self):
        """The unclipped scan sees the full gap 10; a clipped run is certified
        at 2·clip_norm without scanning."""
        linear = linear_loss(1)
        data = Dataset([[-5.0], [5.0]], [0.0, 0.0])
        assert estimate_sensitivity(data, linear, [np.zeros(1)]) == 10.0
        trace = prgd_run(data, linear, RunConfig(step_size=0.1, steps=3, clip_norm=1.0), [0.0])
        assert trace.sensitivity == 2.0
        assert trace.report.sensitivity_provenance == "certified"

    def test_requires_probes(self):
        data = Dataset([[1.0]], [2.0])
        with pytest.raises(ValueError):
            estimate_sensitivity(data, least_squares(1), [])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [
        "gaussian", "rank_one_heavy_tail", "offset_1e8", "one_row", "two_rows",
    ])
    def test_matches_brute_force(self, shape, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 400))
        p = int(rng.integers(1, 9))
        if shape == "gaussian":
            rows = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p)
        elif shape == "rank_one_heavy_tail":
            # the saddle shape: every gradient on one line, a few far out
            rows = np.outer(rng.standard_cauchy(n), rng.standard_normal(p))
        elif shape == "offset_1e8":
            rows = 1e8 + 1e-3 * rng.integers(0, 50, (n, p))
        elif shape == "one_row":
            rows = rng.standard_normal((1, p))
        else:
            rows = rng.standard_normal((2, p))
        data = Dataset(rows, np.zeros(len(rows)))
        got = estimate_sensitivity(data, linear_loss(p), [np.zeros(p)])
        assert got == pytest.approx(brute_force_diameter(rows), rel=1e-12)

    def test_unit_sphere_matches_brute_force(self):
        """Every row is equally far from the mean, so nothing is pruned and
        the sweep spans several row blocks."""
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((1500, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        data = Dataset(rows, np.zeros(len(rows)))
        got = estimate_sensitivity(data, linear_loss(3), [np.zeros(3)])
        assert got == pytest.approx(brute_force_diameter(rows), rel=1e-12)

    def test_all_duplicate_rows_are_exactly_zero(self):
        data = Dataset([[0.1, -2.7, 1e8]] * 64, [0.0] * 64)
        assert estimate_sensitivity(data, stretch_loss(3), [np.ones(3), [0.3, 7.0, -1.1]]) == 0.0

    @pytest.mark.parametrize("order", [1, -1])
    def test_multiple_probes_take_the_largest(self, order):
        """The scale-3 probe dominates; it comes first (later probes are
        pruned against it) or last (it beats every earlier one)."""
        rng = np.random.default_rng(9)
        features = rng.standard_normal((300, 4))
        data = Dataset(features, np.zeros(300))
        probes = [np.full(4, 3.0), np.ones(4), [0.5, 2.0, 1.0, 0.1], np.full(4, 2.0)][::order]
        expected = max(brute_force_diameter(features * np.asarray(w)) for w in probes)
        got = estimate_sensitivity(data, stretch_loss(4), probes)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(brute_force_diameter(features * 3.0), rel=1e-12)

    def test_non_finite_gradient_table_raises(self):
        """At w = 0 the gradient of record 0 overflows to −inf while the loss
        stays finite; the scan must not drop it and report sensitivity 0."""
        data = Dataset([[1e155], [0.0]], [1e154, 0.0])
        model = least_squares(1)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            estimate_sensitivity(data, model, [np.zeros(1)])
        assert err.value.step == 0
        for seed in range(6):
            config = RunConfig(step_size=1e-3, steps=1, noise_radius=1.0, seed=seed)
            with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
                prgd_run(data, model, config, np.zeros(1))
            assert err.value.step == 0

    def test_repeated_probes_cost_one_gradient_table(self):
        """The noiseless control never leaves the saddle, so its 2001
        identical iterates need the full-data gradients once."""
        data = synthesize_dataset(40, 1, 0.0, 11)
        model = scalar_factorization(1)
        full_tables = 0

        def gradient(w, features, labels):
            nonlocal full_tables
            full_tables += len(labels) == len(data)
            return model.gradient(w, features, labels)

        counting = LossModel(model.name, model.parameter_dim, model.value, gradient)
        config = RunConfig(step_size=0.01, steps=2000, noise_radius=0.0, seed=0)
        trace = prgd_run(data, counting, config, np.zeros(2))
        assert full_tables == 1
        table = model.gradient(np.zeros(2), data.features, data.labels)
        assert trace.sensitivity == brute_force_diameter(table)

    def test_memory_stays_below_the_distance_matrix(self):
        """2·10⁴ unit-sphere rows leave nothing to prune; the N × N matrix
        alone would take 3.2 GB."""
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((20_000, 16))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        data = Dataset(rows, np.zeros(len(rows)))
        tracemalloc.start()
        try:
            got = estimate_sensitivity(data, linear_loss(16), [np.zeros(16)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert 1.9 < got <= 2.0

    def test_unclipped_run_with_1e5_records_stays_small(self):
        """N = 10⁵ records, the shape at which the N × N scan asked for 75 GiB."""
        tracemalloc.start()
        try:
            data = synthesize_dataset(100_000, 16, 0.1, 1)
            config = RunConfig(step_size=0.01, steps=5, noise_radius=1.0, seed=2)
            trace = prgd_run(data, least_squares(16), config, np.zeros(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert trace.report.sensitivity_provenance == "empirical"
        assert np.isfinite(trace.sensitivity) and trace.sensitivity > 0.0
