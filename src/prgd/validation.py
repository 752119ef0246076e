"""Independent numerical oracles for the analytic results.

Monte Carlo membership counting gives an unbiased estimate of the
total-variation distance between shifted noise balls (for uniform
distributions TV is exactly the non-overlap fraction, which is what the
analytic per-step δ claims to be). Low-dimensional closed forms check the
overlap volumes, finite differences check loss gradients, and the
distance-matching attack demonstrates why surface-sampled noise offers no
privacy while volume-sampled noise does.

Both Monte Carlo oracles go through one runner, which checks the sample
count, the seed and the PRGD_MC_WORKERS worker count before any chunk plan
or thread exists. Chunks hold ⌊2¹⁶/d⌋ rows (at least one), so each sampler
call draws at most max(2¹⁶, d) normals, 512 KB of doubles up to d = 2¹⁶.
Chunk k draws from stream (seed, k), so no worker count changes a result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    BallSpec,
    _row_norms,
    _squared_row_norms,
    overlap_volume,
    sample_ball,
    sample_sphere_surface,
)
from .optimizer import _TABLE_ENTRIES, LossModel, _float_array
from .rng import derive_rng
from .special import _check_count

WORKERS_ENV = "PRGD_MC_WORKERS"

_CHUNK_ENTRIES = 1 << 16  # normals per chunk: 512 KB per float array at d ≤ 2¹⁶
_MAX_SAMPLES = 10**9  # bounds the runtime, not memory: 3.2·10⁵ chunks at d = 21
_MAX_WORKERS = 64  # the pool may start one thread per worker
_SURFACE_DISTANCE_TOL = 1e-9  # "distance exactly the radius" at double precision


@dataclass(frozen=True)
class MCEstimate:
    """A proportion-type Monte Carlo estimate.

    ``standard_error`` is the binomial error sqrt(value·(1−value)/samples).
    """

    value: float
    standard_error: float
    samples: int
    seed: int


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    message = f"{WORKERS_ENV} must be an integer in [1, {_MAX_WORKERS}], got {raw!r}"
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if not 1 <= count <= _MAX_WORKERS:
        raise ValueError(message)
    return count


def _chunk_plan(samples: int, d: int) -> tuple[int, int]:
    """Rows per chunk and chunk count; the last chunk takes the remainder."""
    rows = max(1, _CHUNK_ENTRIES // d)
    return rows, -(-samples // rows)


def _estimate(
    count_chunk: Callable[[np.random.Generator, int], int], samples: int, seed: int, d: int
) -> MCEstimate:
    """The fraction of ``samples`` draws counted by count_chunk(derive_rng(seed, k), size)
    over the chunks k of the plan for dimension ``d``.

    The plan depends only on ``samples`` and ``d``, so the estimate is the
    same at any worker count. At w workers, task j counts chunks j, j + w, …,
    so there are at most w tasks however many chunks there are.
    """
    samples = _check_count("samples", samples)
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most {_MAX_SAMPLES}, got {samples}")
    seed = _check_count("seed", seed, 0)
    workers = _worker_count()
    rows, chunks = _chunk_plan(samples, d)

    def count_from(first: int) -> int:
        return sum(
            count_chunk(derive_rng(seed, k), min(rows, samples - k * rows))
            for k in range(first, chunks, workers)
        )

    if workers == 1:
        hits = count_from(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(count_from, range(min(workers, chunks))))
    p = hits / samples
    return MCEstimate(p, math.sqrt(p * (1.0 - p) / samples), samples, seed)


def mc_tv_distance(
    d: int,
    delta_x: float,
    radius: float = 1.0,
    samples: int = 1_000_000,
    seed: int = 0,
) -> MCEstimate:
    """Total-variation distance between uniform balls centred delta_x apart.

    Draws from the ball at the origin and counts the fraction that lies
    outside the ball centred at delta_x·e₁, which is 1 − (overlap fraction).
    Unbiased for the analytic per-step δ: coincident balls give exactly 0
    and disjoint balls exactly 1.
    """
    if not delta_x >= 0.0:  # false for nan; inf is allowed and gives exactly 1
        raise ValueError(f"delta_x must be nonnegative, got {delta_x}")
    spec = BallSpec(d, radius)
    r_sq = radius * radius

    def count_outside(rng: np.random.Generator, size: int) -> int:
        pts = sample_ball(spec, rng, size)
        pts[:, 0] -= delta_x
        return int(np.count_nonzero(_squared_row_norms(pts) > r_sq))

    return _estimate(count_outside, samples, seed, spec.d)


def closed_form_overlap_check(
    d: int, delta_x: float, radius: float = 1.0
) -> tuple[float, float]:
    """Library overlap volume next to the dimension-specific closed form.

    d=1: interval overlap 2r − Δx
    d=2: circular lens 2r²·acos(Δx/2r) − (Δx/2)·sqrt(4r² − Δx²)
    d=3: twice the spherical cap πh²(3r − h)/3 with h = r − Δx/2

    The two values must agree to relative error 1e-10; callers assert that.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"closed forms are available only for d in {{1, 2, 3}}, got {d}")
    if not 0.0 <= delta_x <= 2.0 * radius:
        raise ValueError(f"delta_x must lie in [0, {2.0 * radius}], got {delta_x}")
    analytic = overlap_volume(BallSpec(d, radius), delta_x)
    r = radius
    # at delta_x = 2r each form is exactly 0: 2r − 2r, acos(1) with 4r² − (2r)², and h
    if d == 1:
        closed = 2.0 * r - delta_x
    elif d == 2:
        closed = 2.0 * r * r * math.acos(delta_x / (2.0 * r)) - 0.5 * delta_x * math.sqrt(
            4.0 * r * r - delta_x * delta_x
        )
    else:
        h = r - 0.5 * delta_x
        closed = 2.0 * math.pi * h * h * (3.0 * r - h) / 3.0
    return analytic, closed


def grad_check(
    model: LossModel,
    w: np.ndarray,
    record: tuple[np.ndarray, float],
    step: float,
) -> float:
    """Componentwise central-difference check of the gradient at one record:
    the gradient as a one-row batch, the 2p shifted points in stacks of at
    most _TABLE_ENTRIES entries, so memory is O(p) rather than O(p²).

    Returns the maximum deviation |fd_k − g_k| / max(1, |g_k|); the unit
    floor keeps the measure finite at stationary points where the exact
    gradient vanishes. A NaN value or gradient gives NaN, which fails.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    x, y = record
    w = _float_array("w", w, 1, model.parameter_dim)
    features = _float_array("x", x, 1)[np.newaxis, :]
    labels = np.array([y], dtype=float)
    grad = np.asarray(model.gradient(w, features, labels), dtype=float)[0]
    fd = np.empty(w.size)
    block = max(1, _TABLE_ENTRIES // (2 * w.size))  # shifted points per stack
    for start in range(0, w.size, block):
        # rows start… of step·I; w + offsets makes a −0.0 coordinate +0.0
        offsets = step * np.eye(min(block, w.size - start), w.size, start)
        plus = model.value(w + offsets, features, labels)[:, 0]
        minus = model.value(w - offsets, features, labels)[:, 0]
        fd[start:start + block] = (plus - minus) / (2.0 * step)
    return float(np.max(np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))))


def surface_noise_distinguisher(
    d: int,
    delta_x: float,
    samples: int = 100_000,
    seed: int = 0,
    noise: str = "surface",
) -> MCEstimate:
    """Identification rate of the distance-matching adversary.

    Each trial picks the true centre uniformly from {0, delta_x·e₁}, adds
    unit-radius noise from the sphere surface (or, as a control, from the
    solid ball), and lets the adversary keep every centre consistent with
    the noise support: distance within 1e-9 of 1 for surface noise,
    distance at most 1 for ball noise. A uniquely consistent centre is
    chosen outright; ties are guessed uniformly. Returns the fraction of
    trials attributed correctly — essentially 1 under surface noise, where
    ties have measure zero, versus δ + (1−δ)/2 under ball noise, whose
    overlap region is unattributable.
    """
    if not 0.0 < delta_x < 2.0:
        raise ValueError(f"delta_x must lie in (0, 2), got {delta_x}")
    if noise not in ("surface", "ball"):
        raise ValueError(f"noise must be 'surface' or 'ball', got {noise!r}")
    spec = BallSpec(d, 1.0)
    sampler = sample_sphere_surface if noise == "surface" else sample_ball

    def count_correct(rng: np.random.Generator, size: int) -> int:
        labels = rng.integers(0, 2, size=size)
        pts = sampler(spec, rng, size)
        pts[:, 0] += labels * delta_x
        dist0 = _row_norms(pts)
        pts[:, 0] -= delta_x
        dist1 = _row_norms(pts)
        if noise == "surface":
            ok0 = np.abs(dist0 - 1.0) <= _SURFACE_DISTANCE_TOL
            ok1 = np.abs(dist1 - 1.0) <= _SURFACE_DISTANCE_TOL
        else:
            ok0 = dist0 <= 1.0 + 1e-12
            ok1 = dist1 <= 1.0 + 1e-12
        guesses = rng.integers(0, 2, size=size)
        assigned = np.where(ok0 ^ ok1, ok1, guesses)
        return int(np.count_nonzero(assigned == labels))

    return _estimate(count_correct, samples, seed, spec.d)
