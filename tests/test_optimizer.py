"""Optimizer tests: the perturbed update rule, its trace contracts, the
benchmark losses and their saddle structure, and sensitivity estimation."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prgd
from prgd import optimizer
from prgd.accountant import PrivacySpec, overall_delta
from prgd.geometry import BallSpec, _squared_row_norms, sample_ball
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
        lambda w, features, labels: w @ features.T,
        lambda w, features, labels: np.broadcast_to(features, np.shape(w)[:-1] + features.shape),
    )


def stretch_loss(dim):
    """ℓ(w; x, y) = ½·Σₖ wₖ²·xₖ, whose gradient w ⊙ x is the record's
    features stretched coordinate-wise by the probe point."""
    return LossModel(
        "stretch", dim,
        lambda w, features, labels: (w * w) @ (0.5 * features).T,
        lambda w, features, labels: features * w[..., np.newaxis, :],
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

    @pytest.mark.parametrize("features,labels,name", [
        ([[1.0], [1.0]], [np.nan, 1.0], "labels"),
        ([[1.0], [1.0]], [0.0, -np.inf], "labels"),
        ([[np.inf], [1.0]], [0.0, 1.0], "features"),
        ([[1.0, 2.0], [-np.inf, np.nan]], [0.0, 1.0], "features"),
    ])
    def test_non_finite_records_are_refused(self, features, labels, name):
        """A non-finite record is bad input: prgd_run used to take it and
        raise DivergenceError at iteration 0."""
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            Dataset(features, labels)

    def test_finiteness_check_copies_nothing(self):
        """The check reads 8 MB of C-ordered features in place: no
        features-sized array of flags or copy."""
        features = np.ones((1000, 1000))
        tracemalloc.start()
        try:
            data = Dataset(features, np.zeros(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.features is features
        assert peak < 64 * 2**10

    @pytest.mark.parametrize("p", [50, 9000])
    @pytest.mark.parametrize("make", [least_squares, rank1_factorization], ids=lambda make: make.__name__)
    def test_memory_order_changes_no_bit_of_a_run(self, make, p):
        """A Fortran-ordered dataset and a strided view give the C-ordered
        run's serialized trace and sensitivity byte for byte; vecdot sums a
        strided row on another path. p = 9000 is past the row kernel's
        2¹³-column block."""
        data = synthesize_dataset(30, p, 0.1, 3)
        config = RunConfig(step_size=1e-3 / p, steps=20, noise_radius=1.0, seed=3)

        def run(features, labels):
            dataset = Dataset(features, labels)
            assert dataset.features.flags.c_contiguous and dataset.labels.flags.c_contiguous
            trace = prgd_run(dataset, make(p), config, np.full(p, 0.1))
            return list(trace.serialize_lines()), trace.sensitivity.hex()

        expected = run(data.features, data.labels)
        assert run(np.asfortranarray(data.features), data.labels) == expected
        assert run(np.repeat(data.features, 2, axis=1)[:, ::2], np.repeat(data.labels, 2)[::2]) == expected


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
        hess = numeric_hessian(lambda w: np.mean(model.value(w, data.features, data.labels)),
                               np.array([0.3, -1.0, 2.0]))
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

        hess = numeric_hessian(lambda w: np.mean(model.value(w, data.features, data.labels)), np.zeros(2))
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

    # one-point reference forms (vecdot(x, w), vecdot(x, x), w @ w); the
    # built-ins must match them to the last bit, or the loop's one-row steps
    # and the traces would change
    ONE_POINT = {
        "least_squares": (
            lambda w, x, y: (y - np.vecdot(x, w)) * (y - np.vecdot(x, w)),
            lambda w, x, y: -2.0 * (y - np.vecdot(x, w))[:, np.newaxis] * x,
        ),
        "scalar_factorization": (
            lambda w, x, y: (y - w[0] * w[1] * x[:, 0]) * (y - w[0] * w[1] * x[:, 0]),
            lambda w, x, y: (-2.0 * (y - w[0] * w[1] * x[:, 0]))[:, np.newaxis] * w[::-1] * x,
        ),
        "rank1_factorization": (
            lambda w, x, y: (y * y * np.vecdot(x, x) * np.vecdot(x, x)
                             - 2.0 * y * np.vecdot(x, w) * np.vecdot(x, w) + (w @ w) * (w @ w)),
            lambda w, x, y: 4.0 * ((w @ w) * w[np.newaxis, :] - (y * np.vecdot(x, w))[:, np.newaxis] * x),
        ),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name,dim", [
        ("least_squares", 1), ("least_squares", 2), ("least_squares", 3),
        ("least_squares", 8), ("least_squares", 16), ("scalar_factorization", 1),
        ("rank1_factorization", 1), ("rank1_factorization", 2), ("rank1_factorization", 3),
        ("rank1_factorization", 8), ("rank1_factorization", 16),
    ])
    def test_broadcast_over_points_is_bitwise_pointwise(self, name, dim, seed):
        """value and gradient at a stack of points equal, row for row and to
        the last bit, the calls at each point alone; at one point, on the
        whole dataset and on one-row slices, they equal the one-point
        formulas."""
        rng = np.random.default_rng(seed)
        model = builtin_losses()[name](dim)
        p = model.parameter_dim
        n = int(rng.integers(1, 300))
        features = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
        labels = rng.standard_normal(n)
        points = rng.standard_normal((int(rng.integers(1, 40)), p)) * 10.0 ** rng.uniform(-3, 3, (1, 1))
        values = model.value(points, features, labels)
        gradients = model.gradient(points, features, labels)
        assert values.shape == (len(points), n)
        assert gradients.shape == (len(points), n, p)
        value_at, gradient_at = self.ONE_POINT[name]
        for w, value, gradient in zip(points, values, gradients, strict=True):
            np.testing.assert_array_equal(value, model.value(w, features, labels), strict=True)
            np.testing.assert_array_equal(gradient, model.gradient(w, features, labels), strict=True)
            np.testing.assert_array_equal(value, value_at(w, features, labels), strict=True)
            np.testing.assert_array_equal(gradient, gradient_at(w, features, labels), strict=True)
            for i in rng.integers(0, n, 4):
                rows = slice(i, i + 1)
                np.testing.assert_array_equal(
                    model.gradient(w, features[rows], labels[rows]),
                    gradient_at(w, features[rows], labels[rows]), strict=True,
                )
                np.testing.assert_array_equal(
                    model.value(w, features[rows], labels[rows]),
                    value_at(w, features[rows], labels[rows]), strict=True,
                )
        # any number of leading axes, each index one point
        grid = points[: len(points) // 2 * 2].reshape(2, -1, p)
        np.testing.assert_array_equal(model.value(grid, features, labels).reshape(-1, n),
                                      values[: grid.shape[0] * grid.shape[1]])
        np.testing.assert_array_equal(model.gradient(grid, features, labels).reshape(-1, n, p),
                                      gradients[: grid.shape[0] * grid.shape[1]])

    @pytest.mark.parametrize("p", [2, 16, 8193])
    @pytest.mark.parametrize("name", ["least_squares", "rank1_factorization"])
    def test_a_record_alone_is_its_row_of_the_table(self, name, p):
        """The loop's one-record gradient is, to the last bit, the record's
        row of the full-data table that the scan and the loss pass take, on
        both sides of the 2¹³-column block."""
        rng = derive_rng(30, p)
        model = builtin_losses()[name](p)
        features = rng.standard_normal((300, p))
        labels = rng.standard_normal(300)
        w = rng.standard_normal(p)
        values = model.value(w, features, labels)
        gradients = model.gradient(w, features, labels)
        for i in range(300):
            rows = slice(i, i + 1)
            assert model.value(w, features[rows], labels[rows])[0] == values[i]
            np.testing.assert_array_equal(
                model.gradient(w, features[rows], labels[rows])[0], gradients[i], strict=True
            )


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


class TestSynthesizeDataset:
    def test_rejects_nan_label_noise(self):
        """nan > 0 is false, so a nan noise level once gave noiseless labels."""
        with pytest.raises(ValueError, match="^label_noise must be nonnegative, got nan$"):
            synthesize_dataset(3, 1, math.nan, 0)


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
        assert list(a.serialize_lines()) == list(b.serialize_lines())

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
        assert trace.losses[0] == np.mean(
            self.model.value(trace.iterates[0], self.data.features, self.data.labels)
        )
        assert np.all(np.isfinite(trace.losses))
        assert trace.final_loss == np.mean(
            self.model.value(trace.final_iterate, self.data.features, self.data.labels)
        )

    @pytest.mark.parametrize("clip_norm", [None, 0.3])
    def test_losses_cover_every_iterate(self, clip_norm):
        """T+1 losses, one full-data mean per iterate, the last one final_loss."""
        config = RunConfig(step_size=0.01, steps=120, noise_radius=0.4, clip_norm=clip_norm, seed=8)
        trace = prgd_run(self.data, self.model, config, np.array([0.5, -0.5]))
        assert trace.losses.shape == (121,)
        for w, loss in zip(trace.iterates, trace.losses, strict=True):
            assert loss == np.mean(self.model.value(w, self.data.features, self.data.labels))
        assert trace.final_loss == trace.losses[-1]
        assert isinstance(trace.final_loss, float)

    def test_losses_are_evaluated_after_the_descent(self):
        """Every one-row gradient call, at one point, comes before the first
        loss call; the loss calls take blocks of iterates on the whole
        dataset and cover each of the 31 iterates once, in order."""
        calls = []

        def value(w, features, labels):
            calls.append(("value", w.copy(), len(labels)))
            return self.model.value(w, features, labels)

        def gradient(w, features, labels):
            calls.append(("gradient", np.shape(w), len(labels)))
            return self.model.gradient(w, features, labels)

        config = RunConfig(step_size=0.01, steps=30, noise_radius=0.2, seed=1)
        trace = prgd_run(self.data, LossModel("logged", 2, value, gradient), config, np.zeros(2),
                         sensitivity=0.1)
        assert calls[:30] == [("gradient", (2,), 1)] * 30
        blocks = calls[30:]
        assert 1 <= len(blocks) < 31
        assert all(kind == "value" and points.ndim == 2 and k == 15 for kind, points, k in blocks)
        np.testing.assert_array_equal(np.concatenate([points for _, points, _ in blocks]), trace.iterates)
        reference = prgd_run(self.data, self.model, config, np.zeros(2), sensitivity=0.1)
        assert list(trace.serialize_lines()) == list(reference.serialize_lines())

    @pytest.mark.parametrize("table_entries", [1 << 14, 15, 30])
    @pytest.mark.parametrize("bad_gradient,bad_loss,steps,expected", [
        (True, False, 6, (3, "gradient")),
        (False, True, 6, (3, "loss")),
        (True, True, 6, (3, "gradient")),
        (True, True, 3, (3, "loss")),
    ])
    def test_first_non_finite_step_and_quantity(
        self, monkeypatch, table_entries, bad_gradient, bad_loss, steps, expected,
    ):
        """From w₀ = 0 with gradient 1 and η = 1 the iterates are wₜ = −t;
        the gradient and/or loss turn nan once w < −2.5, first at step 3.
        At T = 3 that is the final iterate, which has a loss but no
        gradient. With 15 records, 2¹⁴, 15 or 30 table entries make blocks of
        all, 1 or 2 iterates, so step 3 may also start or end its block of
        the loss pass."""
        monkeypatch.setattr(optimizer, "_TABLE_ENTRIES", table_entries)

        def value(w, features, labels):
            return np.where(bad_loss & (w[..., :1] < -2.5), np.nan, np.zeros(len(labels)))

        def gradient(w, features, labels):
            bad = bad_gradient & (w[..., np.newaxis, :1] < -2.5)
            return np.where(bad, np.nan, np.ones((len(labels), 1)))

        config = RunConfig(step_size=1.0, steps=steps, noise_radius=0.0)
        with pytest.raises(DivergenceError) as err:
            prgd_run(self.data, LossModel("nan_after_three", 1, value, gradient), config, [0.0])
        assert (err.value.step, str(err.value).split()[0]) == expected

    def test_clipped_overflowing_gradient_names_the_gradient(self):
        """An overflowing gradient has an inf norm, which clips it to nan, so
        a clipped run still names the gradient even where the loss at the
        same iterate, (x·w)² = 1e298, is finite."""
        data = Dataset([[1e159]] * 4, [0.0] * 4)
        config = RunConfig(step_size=0.01, steps=10, noise_radius=0.0, clip_norm=1.0)
        with pytest.raises(DivergenceError) as err:
            prgd_run(data, least_squares(1), config, [1e-10])
        assert (err.value.step, str(err.value).split()[0]) == (0, "gradient")

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
        assert list(trace.serialize_lines()) == list(reference.serialize_lines())
        assert trace.sensitivity == 0.5
        assert trace.report == overall_delta(PrivacySpec(2, 0.5, 15, 50, 0.1), "given")

    def test_sampling_uniformity(self):
        """Over 10⁶ steps with N=10, each record is drawn 10⁵ ± 3·√(10⁶·0.09)."""
        zero = LossModel(
            "zero", 1,
            lambda w, features, labels: np.zeros(np.shape(w)[:-1] + labels.shape),
            lambda w, features, labels: np.zeros(np.shape(w)[:-1] + (len(labels), 1)),
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

    def test_a_strided_initial_w_runs_as_its_copy(self):
        """vecdot sums a strided row on another path, so the run takes a
        C-ordered copy of initial_w."""
        data = synthesize_dataset(30, 50, 0.1, 2)
        config = RunConfig(step_size=1e-3, steps=20, seed=1)
        strided = derive_rng(6).standard_normal((50, 2))[:, 0]
        a = prgd_run(data, least_squares(50), config, strided)
        b = prgd_run(data, least_squares(50), config, strided.copy())
        np.testing.assert_array_equal(a.gradients, b.gradients, strict=True)
        np.testing.assert_array_equal(a.iterates, b.iterates, strict=True)

    @pytest.mark.parametrize("sensitivity", [-1.0, math.nan, -math.inf])
    def test_rejects_a_bad_sensitivity_before_drawing(self, monkeypatch, sensitivity):
        def refuse(*args):
            raise AssertionError("a run with a bad sensitivity drew randomness")

        config = RunConfig(step_size=0.1, steps=200_000)
        monkeypatch.setattr(optimizer, "derive_rng", refuse)
        monkeypatch.setattr(optimizer, "sample_ball", refuse)
        with pytest.raises(ValueError, match=f"^sensitivity must be nonnegative, got {sensitivity}$"):
            prgd_run(self.data, self.model, config, np.zeros(2), sensitivity=sensitivity)
        monkeypatch.undo()
        trace = prgd_run(self.data, self.model, RunConfig(0.1, 2), np.zeros(2), sensitivity=0.0)
        assert (trace.sensitivity, trace.report.sensitivity_provenance) == (0.0, "given")

    @pytest.mark.parametrize("loss", [
        # clipped, with a loss that reduces with np.sum, which uses no BLAS
        "LossModel('offset', p, lambda w, x, y: 0.5 * ((w[..., np.newaxis, :] - x) ** 2).sum(-1), "
        "lambda w, x, y: w[..., np.newaxis, :] - x), RunConfig(0.1, 6, 1.0, 1.0, 4)",
        # unclipped, with the built-ins' x·w on one record every step
        "least_squares(p), RunConfig(1e-6, 6, 1.0, None, 4)",
        "rank1_factorization(p), RunConfig(1e-8, 6, 1.0, None, 4)",
    ], ids=["offset", "least_squares", "rank1_factorization"])
    def test_clipped_run_does_not_follow_the_blas_thread_count(self, loss):
        """The clip's norm and the built-in losses' inner products come from
        the blocked row kernel, so a run past 10⁴ parameters gives the same
        iterates at one and at two BLAS threads."""
        script = (
            "import hashlib, numpy as np; "
            "from prgd.optimizer import (LossModel, RunConfig, least_squares, prgd_run, "
            "rank1_factorization, synthesize_dataset); "
            "p = 10**5 + 3; "
            f"model, config = {loss}; "
            "trace = prgd_run(synthesize_dataset(4, p, 0.0, 8), model, config, np.zeros(p)); "
            "print(hashlib.sha256(trace.iterates.tobytes()).hexdigest())"
        )
        src = str(Path(prgd.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert digests[0] and digests[0] == digests[1]


class TestRowNorms:
    @pytest.mark.parametrize("d", [8192, 8193, 2 * 8192 + 1])
    def test_leading_axes_are_rows(self, d):
        """Any leading shape, and a single 1-D row, gives the bits of the
        2-D call on the same rows, on both sides of the 2¹³-column block."""
        v = derive_rng(12, d).standard_normal((2, 3, d))
        rows = _squared_row_norms(v.reshape(6, d))
        np.testing.assert_array_equal(_squared_row_norms(v), rows.reshape(2, 3))
        for k, row in enumerate(v.reshape(6, d)):
            assert np.ndim(_squared_row_norms(row)) == 0
            assert _squared_row_norms(row) == rows[k]


class TestSerialization:
    def test_line_format(self):
        data = synthesize_dataset(5, 2, 0.0, 1)
        model = least_squares(2)
        for seed in range(40):
            config = RunConfig(step_size=0.1, steps=3, noise_radius=0.5, seed=seed)
            trace = prgd_run(data, model, config, np.zeros(2))
            lines = list(trace.serialize_lines())
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

    @pytest.mark.parametrize("block", [1, 7, 30, 10_000])
    def test_blocks_match_the_per_field_loop(self, monkeypatch, block):
        """Whole-row blocks give the text of one repr per field and row, at
        every block size, across block boundaries and a short last block."""
        monkeypatch.setattr(optimizer, "_TABLE_ENTRIES", block * 6)  # 3 + p floats per row
        config = RunConfig(step_size=0.05, steps=30, noise_radius=0.5, seed=3)
        trace = prgd_run(synthesize_dataset(9, 3, 0.1, 2), rank1_factorization(3), config, [0.1, 0.0, -0.1])
        expected = [
            " ".join([
                str(t), str(int(trace.data_indices[t])), repr(float(trace.losses[t])),
                repr(float(np.linalg.norm(trace.gradients[t]))), repr(float(np.linalg.norm(trace.noises[t]))),
                *(repr(float(c)) for c in trace.iterates[t]),
            ])
            for t in range(trace.steps)
        ]
        assert list(trace.serialize_lines()) == expected


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
        assert estimate_sensitivity(data, linear_loss(2), [np.zeros(2)]) == pytest.approx(1e-3, rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("probe", [[1.0], [1.0, 2.0, 3.0]], ids=["narrow", "wide"])
    def test_rejects_a_probe_of_the_wrong_width(self, probe):
        """A probe whose width is not parameter_dim is refused before any
        gradient is taken; a 3-wide probe on the scalar factorization once
        gave a sensitivity."""
        def refuse(*args):
            raise AssertionError("a gradient was taken at a probe of the wrong width")

        model = scalar_factorization(1)
        unused = LossModel(model.name, 2, model.value, refuse)
        data = synthesize_dataset(2, 1, 0.0, 0)
        with pytest.raises(ValueError, match=rf"^w_list has shape \(1, {len(probe)}\), expected \(k, 2\)$"):
            estimate_sensitivity(data, unused, [probe])

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
        assert got == pytest.approx(brute_force_diameter(rows), rel=1e-12, abs=math.ulp(0.0))  # one row: 0

    def test_unit_sphere_matches_brute_force(self):
        """Every row is equally far from the mean, so nothing is pruned and
        the sweep spans several row blocks."""
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((1500, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        data = Dataset(rows, np.zeros(len(rows)))
        got = estimate_sensitivity(data, linear_loss(3), [np.zeros(3)])
        assert got == pytest.approx(brute_force_diameter(rows), rel=1e-12, abs=0.0)

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
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert got == pytest.approx(brute_force_diameter(features * 3.0), rel=1e-12, abs=0.0)

    def test_later_far_row_dismisses_an_earlier_probe(self, monkeypatch):
        """A scale-1 probe before a scale-3 probe in one block: the scale-3
        probe's distances from its farthest row are at least twice any
        scale-1 radius, so only the scale-3 probe is swept."""
        rng = np.random.default_rng(9)
        features = rng.standard_normal((300, 4))
        data = Dataset(features, np.zeros(300))
        sweep = optimizer._sweep
        sweeps = []

        def counting(rows, radii, top, best):
            sweeps.append(top)
            return sweep(rows, radii, top, best)

        monkeypatch.setattr(optimizer, "_sweep", counting)
        got = estimate_sensitivity(data, stretch_loss(4), [np.ones(4), np.full(4, 3.0)])
        assert len(sweeps) == 1
        assert got == pytest.approx(brute_force_diameter(features * 3.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("table_entries", [60, 200, 1000])
    def test_random_walk_over_many_blocks_matches_brute_force(self, monkeypatch, table_entries, seed):
        """A random walk of 150 probes, a third of its steps zero, over 30
        heavy-tailed records; 60, 200 and 1000 table entries make blocks of
        1, 3 and 16 probes, so the running maximum crosses many blocks."""
        monkeypatch.setattr(optimizer, "_TABLE_ENTRIES", table_entries)
        rng = np.random.default_rng(seed)
        features = rng.standard_cauchy((30, 2))
        steps = 0.3 * rng.standard_normal((150, 2))
        steps[rng.random(150) < 1 / 3] = 0.0
        probes = 1.0 + np.cumsum(steps, axis=0)
        data = Dataset(features, np.zeros(30))
        expected = max(brute_force_diameter(features * w) for w in probes)
        got = estimate_sensitivity(data, stretch_loss(2), probes)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

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
            # one table per point of a broadcast call
            full_tables += (len(labels) == len(data)) * math.prod(np.shape(w)[:-1])
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

    def test_scan_and_loss_pass_memory_is_flat_in_steps(self):
        """The saddle config with the sensitivity measured, at T = 2·10⁴ and
        2·10⁵. Tracing starts at the first loss call, after the loop, so the
        trace arrays allocated before it are not counted: what is left is
        the loss pass and the scan, in blocks whose size does not depend on
        T."""
        data = synthesize_dataset(40, 1, 0.0, 11)
        model = scalar_factorization(1)

        def value(w, features, labels):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            return model.value(w, features, labels)

        traced = LossModel(model.name, model.parameter_dim, value, model.gradient)
        peaks = []
        for steps in (20_000, 200_000):
            config = RunConfig(step_size=0.01, steps=steps, noise_radius=1.0, seed=3)
            try:
                trace = prgd_run(data, traced, config, np.zeros(2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert trace.report.sensitivity_provenance == "empirical"
        assert peaks[1] <= peaks[0] + 64 * 2**10

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
