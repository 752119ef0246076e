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

from .special import ConvergenceError, half_shape_beta, half_shape_front

_BISECT_TOL = 1e-13
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
        for field, count in (("dimension", self.d), ("dataset_size", self.dataset_size), ("steps", self.steps)):
            if not (count >= 1 and count % 1 == 0):  # false for inf and nan
                raise ValueError(f"{field} must be a positive integer, got {count}")
            try:
                float(count)  # δ and its composition are computed in floats
            except OverflowError:
                raise ValueError(f"{field} is too large for a float") from None
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
    """per_step_delta for arguments a PrivacySpec has already accepted.
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
        return 2.0 * s * front * math.sqrt(0.5 * d + 0.25)
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
    R = delta_x/2 toward 0, and δ(R) <= delta_x/(R·B(1/2, (d+1)/2)) because
    (1 − u)^(b−1) <= 1 under the integral. The bracket's upper end solves that
    bound for (1 − 1e-12)·target; the margin covers δ's rounding. The bisection
    keeps δ(lo) > target >= δ(hi) and returns ``hi``, so per_step_delta at the
    returned radius never exceeds the target. It is within 1e-13 below it
    unless lo and hi became adjacent floats first. The radius exceeds
    delta_x/2.
    """
    if not 0.0 < target_per_step_delta < 1.0:
        raise ValueError(
            f"target per-step delta must lie in (0, 1), got {target_per_step_delta}"
        )
    if not delta_x > 0.0:
        raise ValueError(f"delta_x must be positive, got {delta_x}")
    PrivacySpec(d, delta_x, 1, 1)  # checks d; every radius below is positive
    b = 0.5 * (d + 1)
    front = half_shape_front(b)  # 1/B(1/2, b) = front·√(b − 1/4)
    lo = 0.5 * delta_x  # δ = 1 here
    hi = delta_x * (front * math.sqrt(b - 0.25)) / (1.0 - 1e-12) / target_per_step_delta
    if hi == float("inf"):
        raise ConvergenceError(
            f"no finite radius reaches target {target_per_step_delta} at delta_x {delta_x}"
        )
    value = _delta(d, delta_x, hi, front)
    while target_per_step_delta - value > _BISECT_TOL:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        mid_value = _delta(d, delta_x, mid, front)
        if mid_value > target_per_step_delta:
            lo = mid
        else:
            hi, value = mid, mid_value
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
        PrivacySpec(d, grid[0], 1, 1, radius)  # checks d; the grid is checked above
        d = int(d)
        front = half_shape_front(0.5 * (d + 1))
        rows.extend((d, dx, _delta(d, dx, radius, front)) for dx in grid)
    return rows
