"""Privacy accounting for uniform ball-noise gradient perturbation.

The per-step guarantee is the total-variation distance between two noise
balls whose centres differ by the gradient sensitivity: with
s = delta_x / (2·radius), one step is (0, δ)-private with
δ = I_{s²}(1/2, (d+1)/2). Picking one of N records uniformly at random
scales this to δ/N per step, and T adaptive steps compose additively to
δ̂ = (T/N)·δ, clamped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special import ConvergenceError, _check_count, half_shape_beta, half_shape_front

_RADIUS_TOL = 1e-13  # a solved radius gives δ within this below the target
_TINY_S = 1e-100  # below this s² underflows, and δ takes its first-order form


@dataclass(frozen=True)
class PrivacySpec:
    """One accounting question.

    ``delta_x`` is the gradient-space sensitivity: the largest distance
    between per-example gradients across neighbouring datasets. A
    nontrivial guarantee needs delta_x < 2·noise_radius; larger values are
    accepted and saturate at δ = 1 (disjoint noise balls are always
    distinguishable). ``noise_radius=0`` is the noiseless limit: δ = 0 when
    delta_x = 0 and δ = 1 otherwise.
    """

    d: int
    delta_x: float
    dataset_size: int
    steps: int
    noise_radius: float = 1.0

    def __post_init__(self) -> None:
        for name, field in (("d", "dimension"), ("dataset_size", "dataset_size"), ("steps", "steps")):
            object.__setattr__(self, name, _check_count(field, getattr(self, name)))
        if not self.delta_x >= 0.0:
            raise ValueError(f"delta_x must be nonnegative, got {self.delta_x}")
        if not self.noise_radius >= 0.0:
            raise ValueError(f"noise_radius must be nonnegative, got {self.noise_radius}")


@dataclass(frozen=True)
class DeltaReport:
    """Privacy budget of a run.

    ``saturated`` is set when the composed budget was clamped at 1.
    ``sensitivity_provenance`` records how the sensitivity behind the
    computation was obtained: "given" (caller-supplied), "certified"
    (2·clip_norm under gradient clipping), or "empirical" (measured bound).
    """

    per_step_delta: float
    amplified_delta: float
    overall_delta: float
    saturated: bool
    sensitivity_provenance: str = "given"


def per_step_delta(spec: PrivacySpec) -> float:
    """Distinguishing probability of a single noisy step.

    Equals one minus the overlap fraction of two noise balls centred
    delta_x apart, i.e. I_{s²}(1/2, (d+1)/2) with s = delta_x/(2·radius),
    or equivalently 1 - I_{1-s²}((d+1)/2, 1/2). Exactly 0 at delta_x = 0,
    and saturates at exactly 1 once the balls no longer overlap
    (delta_x >= 2·radius, which covers every positive delta_x at radius 0).
    """
    return _delta(spec.d, spec.delta_x, spec.noise_radius)


def _delta(d: int, delta_x: float, radius: float, front: float | None = None) -> float:
    """per_step_delta for arguments already checked, as PrivacySpec checks them.
    Callers that evaluate many δ at one d pass ``front`` =
    half_shape_front((d + 1)/2), computed once; otherwise it is computed
    only where it is used."""
    if delta_x == 0.0:
        return 0.0
    if delta_x >= 2.0 * radius:
        return 1.0
    s = delta_x / radius * 0.5  # 2·radius would overflow past 8.99e307
    if d == 1:
        # I_{s²}(1/2, 1) = s; the closed form keeps the one-dimensional
        # contract δ = Δx/(2R) exact
        return s
    if s < _TINY_S:
        # I_x(1/2, b) = 2√x / B(1/2, b) · (1 + O(b·x)); x = s² would be 0, and
        # 1/B(1/2, b) = front·√(b − 1/4)
        if front is None:
            front = half_shape_front(0.5 * (d + 1))
        return 2.0 * front * math.sqrt(0.5 * d + 0.25) * s  # s last: a subnormal δ rounds once
    x = s * s
    return half_shape_beta(0.5 * (d + 1), s, 1.0 - x, -math.log1p(-x), False, front)


def overall_delta(spec: PrivacySpec, provenance: str = "given") -> DeltaReport:
    """Full report including the T-step composed budget min(1, (T/N)·δ).

    ``provenance`` says how ``spec.delta_x`` was obtained (see DeltaReport).
    The composed value is computed as δ·(T/N) so that T = N recovers the
    per-step δ exactly in floating point.
    """
    per = per_step_delta(spec)
    amplified = per / spec.dataset_size
    raw = per * (spec.steps / spec.dataset_size)
    return DeltaReport(
        per_step_delta=per,
        amplified_delta=amplified,
        overall_delta=min(1.0, raw),
        saturated=raw > 1.0,
        sensitivity_provenance=provenance,
    )


def radius_for_target(d: int, delta_x: float, target_per_step_delta: float) -> float:
    """Noise radius achieving a requested per-step δ for given (d, delta_x).

    δ is continuous and strictly decreasing in the radius, from 1 at
    R = delta_x/2 toward 0. In s = delta_x/(2R), δ = (2/B)·∫₀ˢ (1 − v²)^(b−1) dv
    with b = (d + 1)/2 >= 1 and B = B(1/2, b), so
    (2s/B)·(1 − s²)^(b−1) <= δ <= 2s/B. The bracket's upper end ``hi`` solves
    2s/B = (1 − 1e-12)·target; the margin covers δ's rounding. There, by
    Bernoulli's inequality, the target exceeds δ by at most
    target·(1e-12 + max(b − 1, 1)·s²); the max covers d = 2, whose exponent
    ½ is below 1. When that is at most _RADIUS_TOL/2, ``hi`` is returned
    without evaluating δ: at every d for targets below 3.6e-5.

    Otherwise Newton's method in s runs from ``hi`` toward the middle of the
    acceptance window, target − _RADIUS_TOL/2, with dδ/ds = (2/B)·(1 − s²)^(b−1).
    That slope does not increase with s, so δ is concave in s and a Newton
    point taken from below the root never passes it: each point is a new
    ``hi``. Every point is evaluated, and one that rounding puts above the
    target becomes ``lo`` instead; a Newton point outside (lo, hi) is replaced
    by the midpoint. The loop keeps δ(lo) > target >= δ(hi) and returns
    ``hi``, so per_step_delta at the returned radius never exceeds the target.
    It is within _RADIUS_TOL below it unless lo and hi became adjacent floats
    first. Targets from 1e-4 to 0.99 take 2.6 δ evaluations per solve on
    average and at most 8. The radius exceeds delta_x/2.
    """
    t = target_per_step_delta
    if not 0.0 < t < 1.0:
        raise ValueError(f"target per-step delta must lie in (0, 1), got {t}")
    if not delta_x > 0.0:
        raise ValueError(f"delta_x must be positive, got {delta_x}")
    d = _check_count("dimension", d)  # every radius below is positive
    b = 0.5 * (d + 1)
    front = half_shape_front(b)
    inv_beta = front * math.sqrt(b - 0.25)  # 1/B(1/2, b)
    lo = 0.5 * delta_x  # δ = 1 here
    hi = delta_x * inv_beta / (1.0 - 1e-12) / t
    if hi == float("inf"):
        raise ConvergenceError(f"no finite radius reaches target {t} at delta_x {delta_x}")
    s = delta_x / hi * 0.5
    if t * (1e-12 + max(b - 1.0, 1.0) * s * s) <= 0.5 * _RADIUS_TOL:
        return hi
    goal = t - 0.5 * _RADIUS_TOL
    value = _delta(d, delta_x, hi, front)
    while t - value > _RADIUS_TOL:
        s = delta_x / hi * 0.5
        step = (goal - value) / (2.0 * inv_beta * math.exp((b - 1.0) * math.log1p(-s * s)))
        point = 0.5 * delta_x / (s + step)
        if not lo < point < hi:
            point = 0.5 * lo + 0.5 * hi
            if not lo < point < hi:  # lo and hi are adjacent floats
                break
        point_value = _delta(d, delta_x, point, front)
        if point_value > t:
            lo = point
        else:
            hi, value = point, point_value
    return hi


def delta_curve(
    d_list: list[int], delta_x_grid: list[float], radius: float = 1.0
) -> list[tuple[int, float, float]]:
    """Per-step δ over the product of dimensions and centre distances.

    One (d, delta_x, delta) row per pair, dimensions outermost, both in
    input order. Grid values must lie in [0, 2·radius].
    """
    dims = list(d_list)
    grid = [float(x) for x in delta_x_grid]
    if not dims or not grid:
        raise ValueError("d_list and delta_x_grid must be nonempty")
    for dx in grid:
        if not 0.0 <= dx <= 2.0 * radius:
            raise ValueError(f"grid value {dx} outside [0, {2.0 * radius}] for radius {radius}")
    rows = []
    for d in dims:
        d = _check_count("dimension", d)  # the grid, and with it the radius, is checked above
        front = half_shape_front(0.5 * (d + 1)) if d > 1 else None  # δ = s at d = 1
        rows.extend((d, dx, _delta(d, dx, radius, front)) for dx in grid)
    return rows
