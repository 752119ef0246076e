"""Privacy accounting for uniform ball-noise gradient perturbation.

The per-step guarantee is the total-variation distance between two noise
balls whose centres differ by the gradient sensitivity: with
s = delta_x / (2·radius), one step is (0, δ)-private with
δ = I_{s²}(1/2, (d+1)/2). Picking one of N records uniformly at random
scales this to δ/N per step, and T adaptive steps compose additively to
δ̂ = (T/N)·δ, clamped at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .special import ConvergenceError, beta, reg_inc_beta

_BISECT_TOL = 1e-13
_BISECT_MAX_ITER = 200
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
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not self.delta_x >= 0.0:
            raise ValueError(f"delta_x must be nonnegative, got {self.delta_x}")
        if int(self.dataset_size) != self.dataset_size or self.dataset_size < 1:
            raise ValueError(f"dataset_size must be a positive integer, got {self.dataset_size}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps}")
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
    if spec.delta_x == 0.0:
        return 0.0
    if spec.delta_x >= 2.0 * spec.noise_radius:
        return 1.0
    s = spec.delta_x / (2.0 * spec.noise_radius)
    if spec.d == 1:
        # I_{s²}(1/2, 1) = s; the closed form keeps the one-dimensional
        # contract δ = Δx/(2R) exact instead of within continued-fraction noise
        return s
    if s < _TINY_S:
        # I_x(1/2, b) = 2√x / B(1/2, b) · (1 + O(b·x)); x = s² would be 0
        return 2.0 * s / beta(0.5, 0.5 * (spec.d + 1))
    return reg_inc_beta(s * s, 0.5, 0.5 * (spec.d + 1))


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

    δ is continuous and strictly decreasing in the radius — from 1 at
    R = delta_x/2 toward 0 — so bisection always brackets. The returned
    radius satisfies |per_step_delta - target| <= 1e-10 and exceeds
    delta_x/2.
    """
    if not 0.0 < target_per_step_delta < 1.0:
        raise ValueError(
            f"target per-step delta must lie in (0, 1), got {target_per_step_delta}"
        )
    if not delta_x > 0.0:
        raise ValueError(f"delta_x must be positive, got {delta_x}")

    def delta_at(radius: float) -> float:
        return per_step_delta(PrivacySpec(d, delta_x, 1, 1, radius))

    lo = 0.5 * delta_x  # δ = 1 here
    hi = max(delta_x, 1.0)
    while delta_at(hi) > target_per_step_delta:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise ConvergenceError(
                f"failed to bracket radius for target {target_per_step_delta}"
            )
    mid = hi
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = delta_at(mid)
        if abs(value - target_per_step_delta) <= _BISECT_TOL:
            return mid
        if value > target_per_step_delta:
            lo = mid
        else:
            hi = mid
    if abs(delta_at(mid) - target_per_step_delta) <= 1e-10:
        return mid
    raise ConvergenceError(
        f"bisection stalled solving for radius at d={d}, delta_x={delta_x}, "
        f"target={target_per_step_delta}"
    )


def delta_curve(
    d_list: list[int], delta_x_grid: list[float], radius: float = 1.0
) -> list[tuple[int, float, float]]:
    """Per-step δ over the product of dimensions and centre distances.

    One (d, delta_x, delta) row per pair, dimensions outermost, both in
    input order. Grid values must lie in [0, 2·radius].
    """
    dims = [int(d) for d in d_list]
    grid = [float(x) for x in delta_x_grid]
    if not dims or not grid:
        raise ValueError("d_list and delta_x_grid must be nonempty")
    for dx in grid:
        if not 0.0 <= dx <= 2.0 * radius:
            raise ValueError(
                f"grid value {dx} outside [0, {2.0 * radius}] for radius {radius}"
            )
    rows = []
    for d in dims:
        for dx in grid:
            rows.append((d, dx, per_step_delta(PrivacySpec(d, dx, 1, 1, radius))))
    return rows
