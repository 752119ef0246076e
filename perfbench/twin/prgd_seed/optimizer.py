"""Stochastic gradient descent with a fresh uniform-ball perturbation each
step, the benchmark losses it is exercised on, and the sensitivity
estimation that feeds the privacy accountant.

Each iteration picks one record uniformly at random, takes its per-example
gradient (optionally clipped), adds one draw from the solid noise ball, and
applies w ← w − η·(gradient + noise). The perturbation is what lets runs
started at a strict saddle find the descent direction, and it is also the
sole source of the privacy guarantee attached to every trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .accountant import DeltaReport, PrivacySpec, overall_delta, with_provenance
from .geometry import BallSpec, sample_ball
from .rng import derive_rng

PerExampleValue = Callable[[np.ndarray, np.ndarray, float], float]
PerExampleGradient = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
BatchFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class DivergenceError(RuntimeError):
    """A loss or gradient became non-finite during a run."""

    def __init__(self, step: int, quantity: str):
        super().__init__(f"{quantity} became non-finite at iteration {step}")
        self.step = step


@dataclass(frozen=True)
class Dataset:
    """N records (xᵢ, yᵢ): features of shape (n, feature_dim), labels (n,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D (n, feature_dim), got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels must be 1-D with one entry per record, got shape {labels.shape}"
            )
        if features.shape[0] < 1:
            raise ValueError("a dataset needs at least one record")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_records(cls, records: Iterable[tuple[Sequence[float], float]]) -> "Dataset":
        pairs = list(records)
        features = np.atleast_2d(np.asarray([x for x, _ in pairs], dtype=float))
        labels = np.asarray([y for _, y in pairs], dtype=float)
        if features.ndim == 2 and features.shape[0] == 1 and labels.shape[0] > 1:
            features = features.T
        return cls(features, labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def record(self, i: int) -> tuple[np.ndarray, float]:
        return self.features[i], float(self.labels[i])


@dataclass(frozen=True)
class LossModel:
    """A per-example loss with its gradient in parameter space.

    ``per_example_value(w, x, y)`` and ``per_example_gradient(w, x, y)``
    operate on a single record. The optional vectorized ``batch_value`` /
    ``batch_gradient`` take (w, features, labels) and return per-record
    arrays; they are used for full-data losses and sensitivity scans when
    present. The gradient must match the value under finite differences
    (see validation.grad_check).
    """

    name: str
    parameter_dim: int
    per_example_value: PerExampleValue
    per_example_gradient: PerExampleGradient
    batch_value: BatchFn | None = None
    batch_gradient: BatchFn | None = None

    def mean_loss(self, w: np.ndarray, data: Dataset) -> float:
        """Full-data loss: the mean per-example value at w."""
        if self.batch_value is not None:
            return float(np.mean(self.batch_value(w, data.features, data.labels)))
        return float(
            np.mean([self.per_example_value(w, *data.record(i)) for i in range(len(data))])
        )

    def gradient_table(self, w: np.ndarray, data: Dataset) -> np.ndarray:
        """(n, parameter_dim) matrix of per-example gradients at w."""
        if self.batch_gradient is not None:
            return np.asarray(self.batch_gradient(w, data.features, data.labels), dtype=float)
        return np.asarray(
            [self.per_example_gradient(w, *data.record(i)) for i in range(len(data))],
            dtype=float,
        )


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters of one run.

    ``noise_radius=0`` disables the perturbation entirely and gives the
    plain-SGD control; such runs carry a vacuous privacy report (δ = 1 for
    any positive sensitivity). ``clip_norm`` bounds each per-example
    gradient norm and certifies sensitivity 2·clip_norm.
    """

    step_size: float
    steps: int
    noise_radius: float = 1.0
    clip_norm: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps}")
        if not self.noise_radius >= 0.0:
            raise ValueError(f"noise_radius must be nonnegative, got {self.noise_radius}")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be positive when set, got {self.clip_norm}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class RunTrace:
    """Everything recorded over one run.

    Row t of ``data_indices``, ``gradients``, ``noises`` and ``losses``
    describes iteration t at its pre-update iterate ``iterates[t]``; the
    gradient is stored after clipping and the loss is the full-data mean.
    ``iterates`` carries one extra final row, so
    iterates[t+1] = iterates[t] - step_size·(gradients[t] + noises[t])
    holds for every step.
    """

    data_indices: np.ndarray
    iterates: np.ndarray
    gradients: np.ndarray
    noises: np.ndarray
    losses: np.ndarray
    final_loss: float
    sensitivity: float
    report: DeltaReport

    @property
    def steps(self) -> int:
        return int(self.data_indices.shape[0])

    @property
    def final_iterate(self) -> np.ndarray:
        return self.iterates[-1]

    def serialize_lines(self) -> list[str]:
        """One text record per iteration.

        Field order: step, data_index, loss, grad_norm, noise_norm, then the
        components of the pre-update iterate; space-separated, floats in
        shortest round-trip form.
        """
        grad_norms = np.linalg.norm(self.gradients, axis=1)
        noise_norms = np.linalg.norm(self.noises, axis=1)
        lines = []
        for t in range(self.steps):
            fields = [
                str(t),
                str(int(self.data_indices[t])),
                repr(float(self.losses[t])),
                repr(float(grad_norms[t])),
                repr(float(noise_norms[t])),
            ]
            fields.extend(repr(float(c)) for c in self.iterates[t])
            lines.append(" ".join(fields))
        return lines


def prgd_run(
    data: Dataset, model: LossModel, config: RunConfig, initial_w: Sequence[float]
) -> RunTrace:
    """Run ``config.steps`` perturbed stochastic gradient steps from initial_w.

    Per step: one record is chosen uniformly at random, its per-example
    gradient is taken at the current iterate (clipped to ``clip_norm`` when
    set), one fresh draw from the radius-R ball is added, and the update
    w ← w − η·(gradient + noise) is applied. Deterministic given
    ``config.seed``.

    The attached report covers (d=parameter_dim, sensitivity, N, T, R) with
    sensitivity 2·clip_norm when clipping is on (certified) and the
    empirical pairwise bound over the visited iterates otherwise.

    Raises DivergenceError with the offending iteration if a loss or
    gradient stops being finite.
    """
    w = np.array(initial_w, dtype=float)
    if w.shape != (model.parameter_dim,):
        raise ValueError(
            f"initial point has shape {w.shape}, expected ({model.parameter_dim},)"
        )
    n = len(data)
    total = config.steps
    dim = model.parameter_dim
    rng = derive_rng(config.seed)
    ball = BallSpec(dim, config.noise_radius) if config.noise_radius > 0.0 else None

    data_indices = np.zeros(total, dtype=np.int64)
    iterates = np.zeros((total + 1, dim))
    gradients = np.zeros((total, dim))
    noises = np.zeros((total, dim))
    losses = np.zeros(total)

    for t in range(total):
        idx = int(rng.integers(n))
        x, y = data.record(idx)
        grad = np.asarray(model.per_example_gradient(w, x, y), dtype=float)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(t, "gradient")
        if config.clip_norm is not None:
            norm = float(np.linalg.norm(grad))
            if norm > config.clip_norm:
                # factor backs off 1e-15 so the recomputed norm stays <= clip_norm
                grad = grad * (config.clip_norm * (1.0 - 1e-15) / norm)
        noise = sample_ball(ball, rng) if ball is not None else np.zeros(dim)
        loss = model.mean_loss(w, data)
        if not np.isfinite(loss):
            raise DivergenceError(t, "loss")

        data_indices[t] = idx
        iterates[t] = w
        gradients[t] = grad
        noises[t] = noise
        losses[t] = loss
        w = w - config.step_size * (grad + noise)

    iterates[total] = w
    final_loss = model.mean_loss(w, data)
    if not np.isfinite(final_loss):
        raise DivergenceError(total, "loss")

    if config.clip_norm is not None:
        sensitivity = 2.0 * config.clip_norm
        provenance = "certified"
    else:
        sensitivity = estimate_sensitivity(data, model, iterates)
        provenance = "empirical"
    report = delta_report_for_run(dim, sensitivity, n, total, config.noise_radius, provenance)

    return RunTrace(
        data_indices=data_indices,
        iterates=iterates,
        gradients=gradients,
        noises=noises,
        losses=losses,
        final_loss=final_loss,
        sensitivity=sensitivity,
        report=report,
    )


def delta_report_for_run(
    dim: int, sensitivity: float, n: int, steps: int, radius: float, provenance: str
) -> DeltaReport:
    """Privacy report for a run, covering the noiseless control case.

    With a positive radius this is the accountant's composed budget; at
    radius 0 it is the no-noise limit, where any positive gradient gap is
    perfectly distinguishable (δ = 1) and a zero gap reveals nothing.
    """
    if radius > 0.0:
        report = overall_delta(PrivacySpec(dim, sensitivity, n, steps, radius))
    else:
        per = 0.0 if sensitivity == 0.0 else 1.0
        raw = per * (steps / n)
        report = DeltaReport(per, per / n, min(1.0, raw), raw > 1.0)
    return with_provenance(report, provenance)


def estimate_sensitivity(
    data: Dataset,
    model: LossModel,
    w_list: Iterable[Sequence[float]],
    clip_norm: float | None = None,
) -> float:
    """Empirical gradient-space sensitivity over a list of probe points.

    Brute force: the largest pairwise distance between per-example
    gradients, maximized over every probe point. With ``clip_norm`` set the
    gradients are clipped first and the result is capped at the certified
    bound 2·clip_norm. This is a measured bound, not a proof; it covers
    only the probed points.
    """
    probes = [np.asarray(w, dtype=float) for w in w_list]
    if not probes:
        raise ValueError("need at least one probe point")
    worst = 0.0
    for w in probes:
        grads = model.gradient_table(w, data)
        if clip_norm is not None:
            norms = np.linalg.norm(grads, axis=1)
            over = norms > clip_norm
            if np.any(over):
                grads = grads.copy()
                grads[over] *= (clip_norm / norms[over])[:, np.newaxis]
        worst = max(worst, _max_pairwise_distance(grads))
    if clip_norm is not None:
        worst = min(worst, 2.0 * clip_norm)
    return worst


def _max_pairwise_distance(rows: np.ndarray) -> float:
    sq = np.einsum("ij,ij->i", rows, rows)
    d2 = sq[:, np.newaxis] + sq[np.newaxis, :] - 2.0 * (rows @ rows.T)
    return float(np.sqrt(max(float(d2.max()), 0.0)))


def least_squares(feature_dim: int) -> LossModel:
    """Squared error of a linear predictor: ℓ(w; x, y) = (y − w·x)².

    Convex: the mean Hessian (2/N)·Σxᵢxᵢᵀ is positive semidefinite
    everywhere, so this is the no-saddle sanity benchmark.
    """
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be positive, got {feature_dim}")

    def value(w, x, y):
        r = y - w @ x
        return r * r

    def gradient(w, x, y):
        return -2.0 * (y - w @ x) * x

    def batch_value(w, features, labels):
        r = labels - features @ w
        return r * r

    def batch_gradient(w, features, labels):
        return -2.0 * (labels - features @ w)[:, np.newaxis] * features

    return LossModel("least_squares", int(feature_dim), value, gradient, batch_value, batch_gradient)


def scalar_factorization(feature_dim: int = 1) -> LossModel:
    """Two-factor scalar model: ℓ(u, v; x, y) = (y − u·v·x)² with w = (u, v).

    The origin is a stationary point of every per-example loss, and a
    strict saddle of the mean loss whenever Σxᵢyᵢ ≠ 0: the mean Hessian
    there is [[0, c], [c, 0]] with c = −(2/N)·Σxᵢyᵢ, eigenvalues ±|c|.
    """
    if feature_dim != 1:
        raise ValueError("scalar_factorization requires scalar features (feature_dim=1)")

    def value(w, x, y):
        r = y - w[0] * w[1] * x[0]
        return r * r

    def gradient(w, x, y):
        u, v = float(w[0]), float(w[1])
        r = y - u * v * x[0]
        return np.array([-2.0 * r * v * x[0], -2.0 * r * u * x[0]])

    def batch_value(w, features, labels):
        r = labels - w[0] * w[1] * features[:, 0]
        return r * r

    def batch_gradient(w, features, labels):
        x = features[:, 0]
        r = labels - w[0] * w[1] * x
        return np.stack([-2.0 * r * w[1] * x, -2.0 * r * w[0] * x], axis=1)

    return LossModel("scalar_factorization", 2, value, gradient, batch_value, batch_gradient)


def rank1_factorization(feature_dim: int) -> LossModel:
    """Rank-one fit of per-record targets: ℓ(w; x, y) = ‖y·xxᵀ − wwᵀ‖²_F.

    Expanded, ℓ = y²‖x‖⁴ − 2y(xᵀw)² + ‖w‖⁴ with gradient
    4(‖w‖²w − y(xᵀw)x). The origin is stationary for every record and a
    strict saddle of the mean loss when Σyᵢxᵢxᵢᵀ has a positive eigenvalue.
    """
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be positive, got {feature_dim}")

    def value(w, x, y):
        xw = x @ w
        xx = x @ x
        ww = w @ w
        return y * y * xx * xx - 2.0 * y * xw * xw + ww * ww

    def gradient(w, x, y):
        return 4.0 * ((w @ w) * w - y * (x @ w) * x)

    def batch_value(w, features, labels):
        xw = features @ w
        xx = np.einsum("ij,ij->i", features, features)
        ww = w @ w
        return labels * labels * xx * xx - 2.0 * labels * xw * xw + ww * ww

    def batch_gradient(w, features, labels):
        xw = features @ w
        ww = w @ w
        return 4.0 * (ww * w[np.newaxis, :] - (labels * xw)[:, np.newaxis] * features)

    return LossModel("rank1_factorization", int(feature_dim), value, gradient, batch_value, batch_gradient)


def builtin_losses() -> dict[str, Callable[[int], LossModel]]:
    """Catalog of built-in loss factories, keyed by name.

    Each factory takes the feature dimension and returns a LossModel;
    scalar_factorization insists on feature_dim=1 (its parameter space is
    the two factors, not the feature space).
    """
    return {
        "least_squares": least_squares,
        "scalar_factorization": scalar_factorization,
        "rank1_factorization": rank1_factorization,
    }


def synthesize_dataset(n: int, feature_dim: int, label_noise: float, seed: int) -> Dataset:
    """Gaussian features with linear labels y = Σₖ xₖ + label_noise·ε."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be positive, got {feature_dim}")
    if label_noise < 0.0:
        raise ValueError(f"label_noise must be nonnegative, got {label_noise}")
    rng = derive_rng(seed)
    features = rng.standard_normal((n, feature_dim))
    labels = features.sum(axis=1)
    if label_noise > 0.0:
        labels = labels + label_noise * rng.standard_normal(n)
    return Dataset(features, labels)
