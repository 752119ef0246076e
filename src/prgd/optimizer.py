"""Stochastic gradient descent with a fresh uniform-ball perturbation each
step, the benchmark losses it is exercised on, and the sensitivity
estimation that feeds the privacy accountant.

Each iteration picks one record uniformly at random, takes its per-example
gradient (optionally clipped), adds one draw from the solid noise ball, and
applies w ← w − η·(gradient + noise). The perturbation is what lets runs
started at a strict saddle find the descent direction, and it is also the
sole source of the privacy guarantee. That guarantee covers the sequence of
iterates only, and its δ/N amplification assumes that the index of the record
each step picks stays secret. The trace also records that index, the record's
gradient norm, the noise norm and the loss, which δ does not cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .accountant import DeltaReport, PrivacySpec, overall_delta
from .geometry import BallSpec, _row_dots, _row_norms, _squared_row_norms, sample_ball
from .rng import derive_rng
from .special import _check_count

_SLACK = 1e-12  # relative slack on the pruning bounds of the sensitivity scan
_BLOCK_ENTRIES = 1 << 20  # distances per row block of the scan (8 MB)
_TABLE_ENTRIES = 1 << 14  # loss values or gradient entries per block of points (128 KB)


class DivergenceError(RuntimeError):
    """A loss or gradient became non-finite during a run."""

    def __init__(self, step: int, quantity: str):
        super().__init__(f"{quantity} became non-finite at iteration {step}")
        self.step = step


def _float_array(name: str, values, ndim: int, length: int | None = None) -> np.ndarray:
    """``values`` as a C-ordered float64 array of ``ndim`` (1 or 2) axes, the last ``length``
    long when given and a 2-D one with at least one row, else a one-line ValueError naming
    ``name``. A strided or Fortran-ordered row would take another summation path in vecdot."""
    array = np.asarray(values, dtype=float, order="C")
    if array.ndim != ndim or length not in (None, array.shape[-1]) or 0 in array.shape[:-1]:
        last = "m" if length is None else length
        expected = f"({last},)" if ndim == 1 else f"(k, {last})"
        raise ValueError(f"{name} has shape {array.shape}, expected {expected}")
    return array


@dataclass(frozen=True)
class Dataset:
    """N records (xᵢ, yᵢ): finite float64 features (n, feature_dim) and labels (n,), C-ordered."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = _float_array("features", self.features, 2)
        labels = _float_array("labels", self.labels, 1, len(features))
        for name, values in (("features", features), ("labels", labels)):
            # no N·f temporary: min and max carry a nan through; initial=0.0 admits 0 columns
            if not np.isfinite([values.min(initial=0.0), values.max(initial=0.0)]).all():
                raise ValueError(f"{name} must be finite")
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

    Both functions broadcast over points. For points ``w`` of shape
    (..., parameter_dim) and k records, features (k, feature_dim) and
    labels (k,), ``value(w, features, labels)`` returns shape (..., k) and
    ``gradient(w, features, labels)`` shape (..., k, parameter_dim): each
    leading index of w is one point, evaluated on all k records. A 1-D w
    gives shapes (k,) and (k, parameter_dim). Evaluating a stack of points
    must give, row for row, the values of evaluating each point alone. The
    built-in losses also hold this along the records axis: a record
    evaluated alone gives, to the last bit, its row of the call on all k
    records, because their inner products come from the row kernel
    geometry._row_dots, which sums each pair of rows alone.

    The loop calls ``gradient`` at one point on one-row slices; the recorded
    losses and the sensitivity scan call them on blocks of points over the
    whole dataset. The gradient must match the value under finite
    differences (see validation.grad_check).
    """

    name: str
    parameter_dim: int
    value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameter_dim", _check_count("parameter_dim", self.parameter_dim))


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
        object.__setattr__(self, "steps", _check_count("steps", self.steps))
        if not self.noise_radius >= 0.0:
            raise ValueError(f"noise_radius must be nonnegative, got {self.noise_radius}")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be positive when set, got {self.clip_norm}")
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))


@dataclass(frozen=True)
class RunTrace:
    """Everything recorded over one run.

    Row t of ``data_indices``, ``gradients`` and ``noises`` describes
    iteration t at its pre-update iterate ``iterates[t]``; the gradient is
    stored after clipping. ``iterates`` and ``losses`` carry one extra final
    row, so iterates[t+1] = iterates[t] - step_size·(gradients[t] + noises[t])
    holds for every step and losses[t] is the full-data mean loss at
    iterates[t] for t = 0..T.
    """

    data_indices: np.ndarray
    iterates: np.ndarray
    gradients: np.ndarray
    noises: np.ndarray
    losses: np.ndarray
    sensitivity: float
    report: DeltaReport

    @property
    def steps(self) -> int:
        return int(self.data_indices.shape[0])

    @property
    def final_iterate(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])

    def serialize_lines(self) -> Iterator[str]:
        """One text record per iteration, yielded in order.

        Field order: step, data_index, loss, grad_norm, noise_norm, then the
        components of the pre-update iterate; space-separated, floats in
        shortest round-trip form.
        """
        # blocks of at most _TABLE_ENTRIES floats keep the temporary Python floats bounded
        block = max(1, _TABLE_ENTRIES // (3 + self.iterates.shape[1]))
        for start in range(0, self.steps, block):
            rows = slice(start, min(start + block, self.steps))
            g, e = self.gradients[rows], self.noises[rows]
            norms = _row_norms(g), _row_norms(e)  # np.linalg.norm(row) to the last bit up to p = 2¹³
            values = np.column_stack((self.losses[rows], *norms, self.iterates[rows])).tolist()
            for t, idx, row in zip(range(start, rows.stop), self.data_indices[rows].tolist(), values):
                yield " ".join(map(repr, (t, idx, *row)))
            del values  # freed before the next block's rows are built


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

    The loop only descends. After it, the full-data losses at all T+1
    iterates are computed by broadcast ``model.value`` calls on blocks of
    iterates, each block checked as it is filled: DivergenceError names the
    first iteration whose gradient or loss is not finite (the gradient of
    step t counts before its loss). A diverging run therefore finishes its T
    steps in inf/nan before it raises.
    """
    w = _float_array("initial_w", initial_w, 1, model.parameter_dim)
    if sensitivity is not None and not sensitivity >= 0.0:  # false for nan
        raise ValueError(f"sensitivity must be nonnegative, got {sensitivity}")
    n = len(data)
    total = config.steps
    dim = model.parameter_dim
    rng = derive_rng(config.seed)
    data_indices = rng.integers(n, size=total)
    # overflow, invalid and divide all end in inf or nan, which the check reports
    with np.errstate(all="ignore"):
        if config.noise_radius > 0.0:
            noises = sample_ball(BallSpec(dim, config.noise_radius), rng, total)
        else:
            noises = np.zeros((total, dim))
        iterates = np.zeros((total + 1, dim))
        gradients = np.zeros((total, dim))
        for t, idx in enumerate(data_indices):
            grad = model.gradient(w, data.features[idx:idx + 1], data.labels[idx:idx + 1])[0]
            if config.clip_norm is not None:
                norm = float(_row_norms(grad))
                if norm > config.clip_norm:
                    # factor backs off 1e-15 so the recomputed norm stays <= clip_norm;
                    # an inf norm makes the factor 0 and the row nan
                    grad = grad * (config.clip_norm * (1.0 - 1e-15) / norm)
            iterates[t] = w
            gradients[t] = grad
            w = w - config.step_size * (grad + noises[t])
        iterates[total] = w
        losses = np.empty(total + 1)
        block = max(1, _TABLE_ENTRIES // n)
        for start in range(0, total + 1, block):
            rows = slice(start, start + block)
            losses[rows] = np.mean(model.value(iterates[rows], data.features, data.labels), axis=1)
            if np.isfinite(gradients[rows]).all() and np.isfinite(losses[rows]).all():
                continue
            # a step's gradient is taken before its loss; step T has no gradient
            for step in range(start, min(start + block, total + 1)):
                if step < total and not np.isfinite(gradients[step]).all():
                    raise DivergenceError(step, "gradient")
                if not np.isfinite(losses[step]):
                    raise DivergenceError(step, "loss")

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
    never formed. A probe equal to its predecessor is skipped. The others
    are taken in blocks of at most ``_TABLE_ENTRIES`` gradient entries, one
    broadcast ``model.gradient`` call per block. One vectorized pass per
    block finds each probe's distances from its mean gradient (its radii).
    A block in which every gradient lies within half the running maximum of
    its probe's mean cannot raise the maximum and is dismissed whole.
    Otherwise each probe's distances from its farthest row, which are real
    pair distances, are folded into the running maximum first, and then each
    probe whose radii still allow a longer pair is swept in order: the
    triangle inequality through the mean rules out rows too close to it,
    and the remaining pairs are compared in row blocks of at most
    ``_BLOCK_ENTRIES`` distances. Memory is O(N·p + _TABLE_ENTRIES +
    _BLOCK_ENTRIES) for N records and p parameters, never N×N. Time is
    O(N·p) per probe when pruning works; when no row can be ruled out (every
    gradient equally far from the mean, as on a sphere) the k surviving rows
    still cost O(k²·p).

    Raises DivergenceError with the index of the first probe whose gradient
    table is not finite.
    """
    # an array of iterates (up to the 10⁸-element size bound) is read in place
    listed = w_list if isinstance(w_list, np.ndarray) else list(w_list)
    probes = _float_array("w_list", listed, 2, model.parameter_dim)
    n = len(data)
    block = max(1, _TABLE_ENTRIES // (n * probes.shape[1]))
    worst = 0.0
    previous = np.full((1, probes.shape[1]), np.nan)  # probe 0 has no predecessor
    for start in range(0, len(probes), block):
        points = probes[start:start + block]
        # a probe equal to its predecessor is skipped
        changed = np.any(points != np.concatenate((previous, points[:-1])), axis=1)
        ks = start + np.flatnonzero(changed)
        previous = points[-1:]
        if len(ks) == 0:
            continue
        tables = np.asarray(model.gradient(probes[ks], data.features, data.labels), dtype=float)
        finite = np.isfinite(tables).all(axis=(1, 2))
        if not finite.all():
            raise DivergenceError(int(ks[finite.argmin()]), "gradient")
        squared_radii = _squared_row_norms(tables - tables.sum(axis=1, keepdims=True) / n)
        # ‖gᵢ − gⱼ‖ ≤ rᵢ + rⱼ around the mean; every skip test carries the
        # relative slack, so rounding can only add pairs, never drop one that wins
        tops = np.sqrt(squared_radii.max(axis=1)) * (1.0 + _SLACK)
        if not (2.0 * tops > worst).any():
            continue  # the running maximum dismisses the whole block
        # each probe's distances from its farthest row are real pair distances,
        # so the running maximum takes them all before any probe is tested
        far = tables[np.arange(len(ks)), squared_radii.argmax(axis=1)]
        worst = max(worst, math.sqrt(float(_squared_row_norms(tables - far[:, np.newaxis]).max())))
        for j, top in enumerate(tops.tolist()):
            if 2.0 * top > worst:
                radii = np.sqrt(squared_radii[j]) * (1.0 + _SLACK)
                worst = _sweep(tables[j], radii, top, worst)
    return worst


def _sweep(rows: np.ndarray, radii: np.ndarray, top: float, best: float) -> float:
    """max(best, largest distance between two rows), pairs that cannot
    exceed ``best`` left unformed; ``radii`` are the rows' slackened
    distances from their mean and ``top`` the largest of them."""
    # only a row with rᵢ + R > best can end a longer pair
    candidates = np.flatnonzero(radii > best - top)
    candidates = candidates[np.argsort(-radii[candidates], kind="stable")]
    radii = radii[candidates]
    # centring on one row keeps ‖a‖² + ‖b‖² − 2a·b from cancelling away a
    # small gap between large rows, and keeps duplicate rows exactly 0 apart
    rows = rows[candidates] - rows[0]
    sq = _squared_row_norms(rows)
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
    feature_dim = _check_count("feature_dim", feature_dim)

    def value(w, features, labels):
        r = labels - _row_dots(features, w[..., np.newaxis, :])
        return r * r

    def gradient(w, features, labels):
        r = labels - _row_dots(features, w[..., np.newaxis, :])
        return -2.0 * r[..., np.newaxis] * features

    return LossModel("least_squares", feature_dim, value, gradient)


def scalar_factorization(feature_dim: int = 1) -> LossModel:
    """Two-factor scalar model: ℓ(u, v; x, y) = (y − u·v·x)² with w = (u, v).

    The origin is a stationary point of every per-example loss, and a
    strict saddle of the mean loss whenever Σxᵢyᵢ ≠ 0: the mean Hessian
    there is [[0, c], [c, 0]] with c = −(2/N)·Σxᵢyᵢ, eigenvalues ±|c|.
    """
    if feature_dim != 1:
        raise ValueError("scalar_factorization requires scalar features (feature_dim=1)")

    def value(w, features, labels):
        r = labels - w[..., :1] * w[..., 1:] * features[:, 0]
        return r * r

    def gradient(w, features, labels):
        r = labels - w[..., :1] * w[..., 1:] * features[:, 0]
        # row i is (−2rᵢ·v·xᵢ, −2rᵢ·u·xᵢ), multiplied left to right
        return (-2.0 * r)[..., np.newaxis] * w[..., np.newaxis, ::-1] * features

    return LossModel("scalar_factorization", 2, value, gradient)


def rank1_factorization(feature_dim: int) -> LossModel:
    """Rank-one fit of per-record targets: ℓ(w; x, y) = ‖y·xxᵀ − wwᵀ‖²_F.

    Expanded, ℓ = y²‖x‖⁴ − 2y(xᵀw)² + ‖w‖⁴ with gradient
    4(‖w‖²w − y(xᵀw)x). The origin is stationary for every record and a
    strict saddle of the mean loss when Σyᵢxᵢxᵢᵀ has a positive eigenvalue.
    """
    feature_dim = _check_count("feature_dim", feature_dim)

    def value(w, features, labels):
        xw = _row_dots(features, w[..., np.newaxis, :])
        xx = _squared_row_norms(features)
        # w @ w to the last bit, one point at a time, up to p = 2¹³
        ww = _squared_row_norms(w)[..., np.newaxis]
        return labels * labels * xx * xx - 2.0 * labels * xw * xw + ww * ww

    def gradient(w, features, labels):
        xw = _row_dots(features, w[..., np.newaxis, :])[..., np.newaxis]
        ww = _squared_row_norms(w)[..., np.newaxis, np.newaxis]
        return 4.0 * (ww * w[..., np.newaxis, :] - labels[:, np.newaxis] * xw * features)

    return LossModel("rank1_factorization", feature_dim, value, gradient)


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
    n, feature_dim = _check_count("n", n), _check_count("feature_dim", feature_dim)
    if not label_noise >= 0.0:  # false for nan
        raise ValueError(f"label_noise must be nonnegative, got {label_noise}")
    rng = derive_rng(seed)
    features = rng.standard_normal((n, feature_dim))
    labels = features.sum(axis=1)
    if label_noise > 0.0:
        with np.errstate(over="ignore"):  # Dataset refuses the inf labels with one line
            labels = labels + label_noise * rng.standard_normal(n)
    return Dataset(features, labels)
