"""Volumes, caps, and overlaps of d-dimensional balls, plus uniform sampling
from the ball volume and from the sphere surface."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .special import _check_count, reg_inc_beta

# The row norm and the scaling round, so the radial factor is backed off by
# 1e-14 to keep every draw inside the ball. Against a norm from an exact sum,
# measured draws were within 4.4e-16 relative of their target for d from 1 to
# 10⁸ (2.2e-16 at d = 10⁸), which leaves at least 9.5e-15 of the margin.
_RADIAL_BACKOFF = 1.0 - 1e-14
_NORM_BLOCK = 1 << 13  # columns per vecdot in a row dot; OpenBLAS keeps one thread up to 10⁴


@dataclass(frozen=True)
class BallSpec:
    """A d-dimensional ball of the given radius, centred at the origin."""

    d: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _check_count("dimension", self.d))  # 3.0 draws as 3 does
        if not 0.0 < self.radius < math.inf:  # false for nan
            raise ValueError(f"radius must be positive and finite, got {self.radius}")


def ball_volume(spec: BallSpec) -> float:
    """Volume radius^d · π^{d/2} / Γ(1 + d/2).

    Raises ValueError when the volume is past the double range.
    """
    d = spec.d
    log_unit = 0.5 * d * math.log(math.pi) - math.lgamma(1.0 + 0.5 * d)
    log_volume = d * math.log(spec.radius) + log_unit
    if not log_volume < math.log(sys.float_info.max):
        raise ValueError(f"the volume of a ball of radius {spec.radius} in dimension {d} overflows a float")
    try:
        return spec.radius**d * math.exp(log_unit)
    except OverflowError:  # radius^d alone is past the double range
        return math.exp(log_volume)


def cap_volume(spec: BallSpec, a: float) -> float:
    """Volume of the cap cut off by a hyperplane at distance a·radius.

    ``a`` is the centre-to-base distance as a fraction of the radius:
    a = 0 gives a hemisphere, a = 1 an empty cap. The cap fraction is
    (1/2) · I_{1-a²}((d+1)/2, 1/2) of the full ball.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"cap offset fraction must lie in [0, 1], got {a}")
    frac = reg_inc_beta(1.0 - a * a, 0.5 * (spec.d + 1), 0.5)
    return 0.5 * ball_volume(spec) * frac


def overlap_volume(spec: BallSpec, delta_x: float) -> float:
    """Intersection volume of two equal balls with centres delta_x apart.

    The lens is two equal caps with base plane midway between the centres;
    balls further apart than 2·radius do not intersect.
    """
    if not delta_x >= 0.0:  # false for nan
        raise ValueError(f"centre distance must be nonnegative, got {delta_x}")
    if delta_x >= 2.0 * spec.radius:
        return 0.0
    return 2.0 * cap_volume(spec, delta_x / (2.0 * spec.radius))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ a·b along the last axis, the leading axes broadcast against each
    other; two 1-D rows give a scalar. Every norm and every inner product in
    the library comes from here; the sensitivity sweep's Gram block only
    picks which pairs to measure.

    One np.vecdot per block of at most _NORM_BLOCK columns, and the block
    sums added pairwise. A single vecdot is OpenBLAS's ddot, which past 10⁴
    columns splits over the BLAS threads, so its last bits would follow the
    thread count, and with one thread it sums in long runs: a squared norm
    was 8.7e-15 relative off at d = 10⁸, near all of _RADIAL_BACKOFF. Each
    pair of rows is summed alone, so a row's bits do not depend on how many
    rows share the call. At d ≤ _NORM_BLOCK this is that single vecdot, 3 to
    4 times faster than norm(v, axis=1) at 2¹⁸ rows for d from 2 to 21.
    einsum("ij,ij->i") is faster still at small d, but was 1.4e-14 relative
    off at d = 10⁶, and a matrix product over many rows rounds differently
    from the same product over one.
    """
    d = a.shape[-1]
    if d <= _NORM_BLOCK:
        return np.vecdot(a, b)
    full = d - d % _NORM_BLOCK
    a_blocks, b_blocks = (
        v[..., :full].reshape(*v.shape[:-1], full // _NORM_BLOCK, _NORM_BLOCK) for v in (a, b)
    )
    sums = np.add.reduce(np.vecdot(a_blocks, b_blocks), axis=-1)
    sums += np.vecdot(a[..., full:], b[..., full:])
    return sums


def _squared_row_norms(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm along the last axis; a 1-D row gives a scalar."""
    return _row_dots(v, v)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis; up to d = _NORM_BLOCK each value
    is np.linalg.norm(row) to the last bit."""
    return np.sqrt(_squared_row_norms(v))


def sample_ball(spec: BallSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform draws from the solid ball, shape (size, d).

    A standard-normal direction is normalized onto the sphere and pulled
    inward by U^{1/d}; this stays exact in high dimension, where rejection
    sampling would be hopeless. Deterministic given the generator state; a
    single generator must not be shared across threads.
    """
    size = _check_count("size", size, 0)
    v = rng.standard_normal((size, spec.d))
    radii = rng.random(size)
    radii **= 1.0 / spec.d
    radii *= spec.radius * _RADIAL_BACKOFF
    radii /= _row_norms(v)
    v *= radii[:, np.newaxis]
    return v


def sample_sphere_surface(spec: BallSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform draws from the sphere of radius ``spec.radius``,
    shape (size, d).

    Every returned vector has norm within 2e-15 relative of the radius.
    """
    size = _check_count("size", size, 0)
    v = rng.standard_normal((size, spec.d))
    v *= (spec.radius / _row_norms(v))[:, np.newaxis]
    return v
