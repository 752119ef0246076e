"""Volumes, caps, and overlaps of d-dimensional balls, plus uniform sampling
from the ball volume and from the sphere surface."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import BetaParams, log_gamma, reg_inc_beta

# A d-vector drawn by one of the samplers below: ball draws never exceed the
# generating radius in norm; surface draws sit within 1e-12 of it.
NoiseSample = np.ndarray

# Direction normalization rounds each component, so the radial factor is
# backed off by 1e-14 to guarantee every computed norm lands inside the ball.
_RADIAL_BACKOFF = 1.0 - 1e-14


@dataclass(frozen=True)
class BallSpec:
    """A d-dimensional ball of the given radius, centred at the origin."""

    d: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")


def ball_volume(spec: BallSpec) -> float:
    """Volume radius^d · π^{d/2} / Γ(1 + d/2)."""
    d = spec.d
    return spec.radius**d * math.exp(0.5 * d * math.log(math.pi) - log_gamma(1.0 + 0.5 * d))


def cap_volume(spec: BallSpec, a: float) -> float:
    """Volume of the cap cut off by a hyperplane at distance a·radius.

    ``a`` is the centre-to-base distance as a fraction of the radius:
    a = 0 gives a hemisphere, a = 1 an empty cap. The cap fraction is
    (1/2) · I_{1-a²}((d+1)/2, 1/2) of the full ball.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"cap offset fraction must lie in [0, 1], got {a}")
    frac = reg_inc_beta(1.0 - a * a, BetaParams(0.5 * (spec.d + 1), 0.5))
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


def sample_ball(
    spec: BallSpec, rng: np.random.Generator, size: int | None = None
) -> NoiseSample:
    """Uniform draw(s) from the solid ball.

    A standard-normal direction is normalized onto the sphere and pulled
    inward by U^{1/d}; this stays exact in high dimension, where rejection
    sampling would be hopeless. Returns shape (d,) for ``size=None`` and
    (size, d) otherwise. Deterministic given the generator state; a single
    generator must not be shared across threads.
    """
    n = 1 if size is None else int(size)
    v = rng.standard_normal((n, spec.d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    radii = (spec.radius * _RADIAL_BACKOFF) * rng.random((n, 1)) ** (1.0 / spec.d)
    out = v * (radii / norms)
    return out[0] if size is None else out


def sample_sphere_surface(
    spec: BallSpec, rng: np.random.Generator, size: int | None = None
) -> NoiseSample:
    """Uniform draw(s) from the sphere of radius ``spec.radius``.

    Every returned vector has norm within 1e-12 of the radius. Shape
    conventions match :func:`sample_ball`.
    """
    n = 1 if size is None else int(size)
    v = rng.standard_normal((n, spec.d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    out = v * (spec.radius / norms)
    return out[0] if size is None else out
