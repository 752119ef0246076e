"""Independent numerical oracles for the analytic results.

Monte Carlo membership counting gives an unbiased estimate of the
total-variation distance between shifted noise balls (for uniform
distributions TV is exactly the non-overlap fraction, which is what the
analytic per-step δ claims to be). Low-dimensional closed forms check the
overlap volumes, finite differences check loss gradients, and the
distance-matching attack demonstrates why surface-sampled noise offers no
privacy while volume-sampled noise does.

Monte Carlo loops are split into fixed-size chunks, chunk k drawing from
stream (seed, k); the PRGD_MC_WORKERS environment variable may fan the
chunks out over threads without changing any result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import BallSpec, overlap_volume, sample_ball, sample_sphere_surface
from .optimizer import LossModel
from .rng import derive_rng

WORKERS_ENV = "PRGD_MC_WORKERS"

_CHUNK = 1 << 18
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


def _proportion(hits: int, samples: int, seed: int, complement: bool = False) -> MCEstimate:
    p = hits / samples
    if complement:
        p = 1.0 - p
    return MCEstimate(p, math.sqrt(p * (1.0 - p) / samples), samples, seed)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    count = int(raw)
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return count


def _chunk_sizes(samples: int) -> list[int]:
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    return sizes


def _sum_over_chunks(count_chunk: Callable[[int, int], int], samples: int) -> int:
    """Apply count_chunk(stream_index, chunk_size) to every chunk and sum.

    The chunk plan depends only on ``samples`` and each chunk derives its
    own stream, so the total is identical for any worker count.
    """
    sizes = _chunk_sizes(samples)
    workers = _worker_count()
    if workers == 1:
        return sum(count_chunk(k, m) for k, m in enumerate(sizes))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count_chunk, range(len(sizes)), sizes))


def mc_tv_distance(
    d: int,
    delta_x: float,
    radius: float = 1.0,
    samples: int = 1_000_000,
    seed: int = 0,
) -> MCEstimate:
    """Total-variation distance between uniform balls centred delta_x apart.

    Draws from the ball at the origin and counts the fraction q that also
    lies inside the ball centred at delta_x·e₁; the estimate is 1 − q.
    Unbiased for the analytic per-step δ: coincident balls give exactly 0
    and disjoint balls exactly 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if delta_x < 0.0:
        raise ValueError(f"delta_x must be nonnegative, got {delta_x}")
    spec = BallSpec(d, radius)
    r_sq = radius * radius

    def count_chunk(stream: int, size: int) -> int:
        pts = sample_ball(spec, derive_rng(seed, stream), size)
        pts[:, 0] -= delta_x
        return int(np.count_nonzero(np.einsum("ij,ij->i", pts, pts) <= r_sq))

    inside_both = _sum_over_chunks(count_chunk, samples)
    return _proportion(inside_both, samples, seed, complement=True)


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
    if delta_x >= 2.0 * r:
        closed = 0.0
    elif d == 1:
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
    """Componentwise central-difference check of the gradient at one record,
    evaluated as a one-row batch.

    Returns the maximum deviation |fd_k − g_k| / max(1, |g_k|); the unit
    floor keeps the measure finite at stationary points where the exact
    gradient vanishes.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    x, y = record
    features = np.asarray(x, dtype=float)[np.newaxis, :]
    labels = np.array([y], dtype=float)
    w = np.asarray(w, dtype=float)
    grad = np.asarray(model.gradient(w, features, labels), dtype=float)[0]
    worst = 0.0
    for k in range(w.size):
        offset = np.zeros_like(w)
        offset[k] = step
        fd = (
            model.value(w + offset, features, labels)[0]
            - model.value(w - offset, features, labels)[0]
        ) / (2.0 * step)
        worst = max(worst, abs(fd - grad[k]) / max(1.0, abs(grad[k])))
    return worst


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
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if noise not in ("surface", "ball"):
        raise ValueError(f"noise must be 'surface' or 'ball', got {noise!r}")
    spec = BallSpec(d, 1.0)
    sampler = sample_sphere_surface if noise == "surface" else sample_ball

    def count_chunk(stream: int, size: int) -> int:
        rng = derive_rng(seed, stream)
        labels = rng.integers(0, 2, size=size)
        pts = sampler(spec, rng, size)
        pts[:, 0] += labels * delta_x
        dist0 = np.linalg.norm(pts, axis=1)
        pts[:, 0] -= delta_x
        dist1 = np.linalg.norm(pts, axis=1)
        if noise == "surface":
            ok0 = np.abs(dist0 - 1.0) <= _SURFACE_DISTANCE_TOL
            ok1 = np.abs(dist1 - 1.0) <= _SURFACE_DISTANCE_TOL
        else:
            ok0 = dist0 <= 1.0 + 1e-12
            ok1 = dist1 <= 1.0 + 1e-12
        guesses = rng.integers(0, 2, size=size)
        assigned = np.where(ok0 ^ ok1, np.where(ok0, 0, 1), guesses)
        return int(np.count_nonzero(assigned == labels))

    correct = _sum_over_chunks(count_chunk, samples)
    return _proportion(correct, samples, seed)
