"""Scalar special functions behind the privacy formulas.

Log-gamma and the beta function feed the ball-volume constants; the
regularized incomplete beta function carries the overlap probability of two
shifted noise balls. The incomplete beta is evaluated with the modified
Lentz continued fraction, switching to the complementary expansion at
z = (a + 1)/(a + b + 2) so that one of the two forms always converges
quickly; the finite Pochhammer series and the closed-form derivative are
provided as independent cross-check routes for the accounting parameters
(a = 1/2, b = (d + 1)/2).
"""

from __future__ import annotations

import math

_CF_TOL = 1e-15  # successive-convergent agreement required of the Lentz loop
_CF_MAX_ITER = 300
_FPMIN = 1e-300  # floor keeping the Lentz recurrence away from zero divisors


class ConvergenceError(ArithmeticError):
    """An iterative evaluation failed to reach the requested accuracy."""


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) = Γ(a)Γ(b)/Γ(a+b), evaluated via log-gamma."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta requires positive arguments, got a={a}, b={b}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _beta_cf(a: float, b: float, z: float) -> float:
    """Continued fraction for the incomplete beta, by the modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * z / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * z / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * z / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _CF_TOL:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge within "
        f"{_CF_MAX_ITER} iterations for a={a}, b={b}, z={z}"
    )


def reg_inc_beta(z: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_z(a, b) for shapes a, b > 0.

    Exactly 0 at z = 0 and 1 at z = 1, and satisfies the reflection
    identity I_z(a, b) = 1 - I_{1-z}(b, a): the region switch below makes
    both sides of that identity evaluate the same continued fraction.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return 1.0
    log_front = (
        a * math.log(z)
        + b * math.log1p(-z)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(log_front)
    if z < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, z) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - z) / b


def series_delta_odd_d(delta_x: float, d: int) -> float:
    """Distinguishing probability via the finite series, odd dimensions only.

    Returns (Δx/2) · Σ_{k=0}^{(d-1)/2} (1/2)_k (1 - (Δx/2)²)^k / k!, which
    equals I_{(Δx/2)²}(1/2, (d+1)/2) whenever (d+1)/2 is an integer. The
    Pochhammer factor is accumulated as a running product; the term count
    (d+1)/2 stays small at the scales this library targets.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError(f"d must be an odd positive integer, got {d}")
    if not 0.0 <= delta_x <= 2.0:
        raise ValueError(f"delta_x must lie in [0, 2], got {delta_x}")
    half = 0.5 * delta_x
    comp = 1.0 - half * half
    total = 1.0  # k = 0 term
    term = 1.0
    for k in range(1, (d - 1) // 2 + 1):
        term *= (k - 0.5) / k * comp
        total += term
    return half * total


def reg_inc_beta_derivative(z: float, d: int) -> float:
    """d/dz of I_z(1/2, (d+1)/2): (1-z)^{(d-1)/2} · z^{-1/2} / B(1/2, (d+1)/2).

    Strictly positive on 0 < z < 1. The endpoints are excluded: z = 0 is a
    z^{-1/2} singularity and z = 1 is degenerate.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie strictly inside (0, 1), got {z}")
    return (1.0 - z) ** (0.5 * (d - 1)) / (math.sqrt(z) * beta(0.5, 0.5 * (d + 1)))
