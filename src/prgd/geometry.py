"""Volumes, caps, and overlaps of d-dimensional balls, plus uniform sampling
from the ball volume and from the sphere surface."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .special import reg_inc_beta

# Direction normalization rounds each component, so the radial factor is
# backed off by 1e-14 to guarantee every computed norm lands inside the ball.
_RADIAL_BACKOFF = 1.0 - 1e-14


@dataclass(frozen=True)
class BallSpec:
    """A d-dimensional ball of the given radius, centred at the origin."""

    d: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        if not (self.d >= 1 and self.d % 1 == 0):  # false for inf and nan
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")


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
    if delta_x < 0.0:
        raise ValueError(f"centre distance must be nonnegative, got {delta_x}")
    if delta_x >= 2.0 * spec.radius:
        return 0.0
    return 2.0 * cap_volume(spec, delta_x / (2.0 * spec.radius))


def sample_ball(spec: BallSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform draws from the solid ball, shape (size, d).

    A standard-normal direction is normalized onto the sphere and pulled
    inward by U^{1/d}; this stays exact in high dimension, where rejection
    sampling would be hopeless. Deterministic given the generator state; a
    single generator must not be shared across threads.
    """
    v = rng.standard_normal((size, spec.d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    radii = (spec.radius * _RADIAL_BACKOFF) * rng.random((size, 1)) ** (1.0 / spec.d)
    v *= radii / norms
    return v


def sample_sphere_surface(spec: BallSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform draws from the sphere of radius ``spec.radius``,
    shape (size, d).

    Every returned vector has norm within 1e-12 of the radius.
    """
    v = rng.standard_normal((size, spec.d))
    v *= spec.radius / np.linalg.norm(v, axis=1, keepdims=True)
    return v
