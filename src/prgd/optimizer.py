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

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .accountant import DeltaReport, PrivacySpec, overall_delta
from .geometry import BallSpec, sample_ball
from .rng import derive_rng

_SLACK = 1e-12  # relative slack on the pruning bounds of the sensitivity scan
_BLOCK_ENTRIES = 1 << 20  # distances per row block of the scan (8 MB)


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

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LossModel:
    """A per-example loss with its gradient in parameter space.

    For k records, features (k, feature_dim) and labels (k,),
    ``value(w, features, labels)`` returns the k losses at w, shape (k,),
    and ``gradient(w, features, labels)`` their gradients, shape
    (k, parameter_dim). The loop calls them on one-row slices. The gradient
    must match the value under finite differences (see validation.grad_check).
    """

    name: str
    parameter_dim: int
    value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def mean_loss(self, w: np.ndarray, data: Dataset) -> float:
        """Full-data loss: the mean per-example value at w."""
        return float(np.mean(self.value(w, data.features, data.labels)))


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
        # the 1-D norm's dot kernel, so each field is np.linalg.norm(row)
        grad_norms = np.sqrt(np.vecdot(self.gradients, self.gradients))
        noise_norms = np.sqrt(np.vecdot(self.noises, self.noises))
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
    data: Dataset,
    model: LossModel,
    config: RunConfig,
    initial_w: Sequence[float],
    sensitivity: float | None = None,
) -> RunTrace:
    """Run ``config.steps`` perturbed stochastic gradient steps from initial_w.

    Per step: one record is chosen uniformly at random, its per-example
    gradient is taken at the current iterate (clipped to ``clip_norm`` when
    set), one fresh draw from the radius-R ball is added, and the update
    w ← w − η·(gradient + noise) is applied. The T record indices and then
    the T noise rows are drawn up front from ``derive_rng(config.seed)``,
    so a run is deterministic given the seed.

    The attached report covers (d=parameter_dim, sensitivity, N, T, R). The
    sensitivity is the caller's ``sensitivity`` when given, else 2·clip_norm
    when clipping is on (certified), else the empirical pairwise bound over
    the visited iterates.

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
    data_indices = rng.integers(n, size=total)
    if config.noise_radius > 0.0:
        noises = sample_ball(BallSpec(dim, config.noise_radius), rng, total)
    else:
        noises = np.zeros((total, dim))

    iterates = np.zeros((total + 1, dim))
    gradients = np.zeros((total, dim))
    losses = np.zeros(total)

    for t, idx in enumerate(data_indices):
        grad = model.gradient(w, data.features[idx:idx + 1], data.labels[idx:idx + 1])[0]
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(t, "gradient")
        if config.clip_norm is not None:
            norm = float(np.linalg.norm(grad))
            if norm > config.clip_norm:
                # factor backs off 1e-15 so the recomputed norm stays <= clip_norm
                grad = grad * (config.clip_norm * (1.0 - 1e-15) / norm)
        loss = model.mean_loss(w, data)
        if not np.isfinite(loss):
            raise DivergenceError(t, "loss")

        iterates[t] = w
        gradients[t] = grad
        losses[t] = loss
        w = w - config.step_size * (grad + noises[t])

    iterates[total] = w
    final_loss = model.mean_loss(w, data)
    if not np.isfinite(final_loss):
        raise DivergenceError(total, "loss")

    if sensitivity is not None:
        provenance = "given"
    elif config.clip_norm is not None:
        sensitivity, provenance = 2.0 * config.clip_norm, "certified"
    else:
        sensitivity, provenance = estimate_sensitivity(data, model, iterates), "empirical"
    report = overall_delta(PrivacySpec(dim, sensitivity, n, total, config.noise_radius), provenance)

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


def estimate_sensitivity(
    data: Dataset, model: LossModel, w_list: Iterable[Sequence[float]]
) -> float:
    """Empirical gradient-space sensitivity over a list of probe points.

    The largest pairwise distance between per-example gradients, maximized
    over every probe point. This is a measured bound, not a proof; it
    covers only the probed points.

    The value is exact up to rounding in its last bits, but most pairs are
    never formed. A probe equal to its predecessor is skipped. A probe whose
    gradients all lie within half the running maximum of their mean cannot
    raise it, and costs one gradient table. Within a probe, the triangle
    inequality through the mean rules out rows too close to it, and the
    remaining pairs are swept in row blocks of at most ``_BLOCK_ENTRIES``
    distances. Memory is O(N·p + _BLOCK_ENTRIES) for N records and p
    parameters, never N×N. Time is O(N·p) per probe when pruning works; when
    no row can be ruled out (every gradient equally far from the mean, as on
    a sphere) the k surviving rows still cost O(k²·p).

    Raises DivergenceError with the probe's index if a gradient table is
    not finite.
    """
    # an array of iterates (up to the 10⁸-element size bound) is read in place
    probes = np.asarray(w_list if isinstance(w_list, np.ndarray) else list(w_list), dtype=float)
    if probes.ndim != 2 or len(probes) == 0:
        raise ValueError("need at least one probe point, each a parameter vector")
    fresh = np.ones(len(probes), dtype=bool)
    fresh[1:] = np.any(probes[1:] != probes[:-1], axis=1)
    worst = 0.0
    for k in np.flatnonzero(fresh):
        table = np.asarray(model.gradient(probes[k], data.features, data.labels), dtype=float)
        if not np.isfinite(table).all():
            raise DivergenceError(int(k), "gradient")
        worst = _max_pairwise_distance(table, worst)
    return worst


def _max_pairwise_distance(rows: np.ndarray, floor: float) -> float:
    """max(floor, largest distance between two rows), pairs at most
    ``floor`` apart left unformed."""
    if len(rows) < 2:
        return floor
    offsets = rows - rows.sum(axis=0) / len(rows)
    squared_radii = np.einsum("ij,ij->i", offsets, offsets)
    far = int(squared_radii.argmax())
    # ‖gᵢ − gⱼ‖ ≤ rᵢ + rⱼ around the mean; every skip test carries the
    # relative slack, so rounding can only add pairs, never drop one that wins
    top = math.sqrt(squared_radii[far]) * (1.0 + _SLACK)
    if 2.0 * top <= floor:
        return floor
    gaps = rows - rows[far]
    best = max(floor, math.sqrt(np.einsum("ij,ij->i", gaps, gaps).max()))
    radii = np.sqrt(squared_radii) * (1.0 + _SLACK)
    # only a row with rᵢ + R > best can end a longer pair
    candidates = np.flatnonzero(radii > best - top)
    candidates = candidates[np.argsort(-radii[candidates], kind="stable")]
    radii = radii[candidates]
    # centring on one row keeps ‖a‖² + ‖b‖² − 2a·b from cancelling away a
    # small gap between large rows, and keeps duplicate rows exactly 0 apart
    rows = rows[candidates] - rows[0]
    sq = np.einsum("ij,ij->i", rows, rows)
    count = len(rows)
    start = 0
    # sorted by radius, row i reaches at most 2rᵢ over the rows j ≥ i
    while start < count and 2.0 * radii[start] > best:
        stop = min(count, start + max(1, _BLOCK_ENTRIES // (count - start)))
        d2 = rows[start:stop] @ rows[start:].T
        d2 *= -2.0
        d2 += sq[start:stop, np.newaxis]
        d2 += sq[start:]
        best = max(best, math.sqrt(max(float(d2.max()), 0.0)))
        start = stop
    return best


def least_squares(feature_dim: int) -> LossModel:
    """Squared error of a linear predictor: ℓ(w; x, y) = (y − w·x)².

    Convex: the mean Hessian (2/N)·Σxᵢxᵢᵀ is positive semidefinite
    everywhere, so this is the no-saddle sanity benchmark.
    """
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be positive, got {feature_dim}")

    def value(w, features, labels):
        r = labels - features @ w
        return r * r

    def gradient(w, features, labels):
        return -2.0 * (labels - features @ w)[:, np.newaxis] * features

    return LossModel("least_squares", int(feature_dim), value, gradient)


def scalar_factorization(feature_dim: int = 1) -> LossModel:
    """Two-factor scalar model: ℓ(u, v; x, y) = (y − u·v·x)² with w = (u, v).

    The origin is a stationary point of every per-example loss, and a
    strict saddle of the mean loss whenever Σxᵢyᵢ ≠ 0: the mean Hessian
    there is [[0, c], [c, 0]] with c = −(2/N)·Σxᵢyᵢ, eigenvalues ±|c|.
    """
    if feature_dim != 1:
        raise ValueError("scalar_factorization requires scalar features (feature_dim=1)")

    def value(w, features, labels):
        r = labels - w[0] * w[1] * features[:, 0]
        return r * r

    def gradient(w, features, labels):
        r = labels - w[0] * w[1] * features[:, 0]
        # row i is (−2rᵢ·v·xᵢ, −2rᵢ·u·xᵢ), multiplied left to right
        return (-2.0 * r)[:, np.newaxis] * w[::-1] * features

    return LossModel("scalar_factorization", 2, value, gradient)


def rank1_factorization(feature_dim: int) -> LossModel:
    """Rank-one fit of per-record targets: ℓ(w; x, y) = ‖y·xxᵀ − wwᵀ‖²_F.

    Expanded, ℓ = y²‖x‖⁴ − 2y(xᵀw)² + ‖w‖⁴ with gradient
    4(‖w‖²w − y(xᵀw)x). The origin is stationary for every record and a
    strict saddle of the mean loss when Σyᵢxᵢxᵢᵀ has a positive eigenvalue.
    """
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be positive, got {feature_dim}")

    def value(w, features, labels):
        xw = features @ w
        xx = np.einsum("ij,ij->i", features, features)
        ww = w @ w
        return labels * labels * xx * xx - 2.0 * labels * xw * xw + ww * ww

    def gradient(w, features, labels):
        xw = features @ w
        ww = w @ w
        return 4.0 * (ww * w[np.newaxis, :] - (labels * xw)[:, np.newaxis] * features)

    return LossModel("rank1_factorization", int(feature_dim), value, gradient)


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
