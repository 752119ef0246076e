"""Scalar special functions behind the privacy formulas.

The overlap of two noise balls is δ = I_{s²}(½, b), b = (d + 1)/2, a Student t
probability P(|t_{d+1}| ≤ s·√((d + 1)/(1 − s²))); a ball's cap is its complement.
``half_shape_beta`` gives either to relative accuracy: finite sums (A&S §26.7) up to
b = _SUM_MAX_B, past it BGRAT's a = ½ case (TOMS 708): with w₀ = −log(1 − s²),
T = b − ¼ and u = T·w₀, B(½, b)·√T·δ = √π·erf(√u) + √u·e^{−u}·Σ_{k≥1} c_k·w₀^{2k}·S_k,
S_k = γ(2k + ½, u)·eᵘ/u^{2k+½}, and the complement the same over erfc and Γ(2k + ½, u).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

_STIRLING_MIN = 8.0  # half_shape_front lifts b to at least this before Stirling's series
_SUM_MAX_B = 12.5  # finite sums up to d = 24, the expansion above
_SUM_MAX_P = 1.0 - 1e-12  # past this, the sum's rounding could pass 1 or step down in s
_U_MID = 0.25  # δ ≈ erf(√u) passes ½ near u = 0.23
_W_MAX = 2.0  # |c_17|·_W_MAX³⁴ < 3e-18
_DEPTH_W0 = (6.8e-7, 1.6e-5, 5.2e-4)  # the small-u sum stops at k = 1, 2, 3 below these w0, else 4
_SQRT_PI = math.sqrt(math.pi)
_C = (  # c_1 … c_17, the w^{2k} coefficients of (sinh(w/2)/(w/2))^{−½}
    -0.020833333333333332, 0.000390625, -7.879670965608466e-06, 1.6967665791721782e-07,
    -3.805064191721906e-09, 8.748377596315407e-11, -2.044523359411974e-12, 4.833351797967704e-14,
    -1.152434101767386e-15, 2.76605204359937e-17, -6.67428195089166e-19, 1.61745507718158e-20,
    -3.93397792009138e-22, 9.597634062586047e-24, -2.347690291162632e-25, 5.7558703875442666e-27,
    -1.414008810826549e-28)


class ConvergenceError(ArithmeticError):
    """radius_for_target found no finite noise radius that reaches the target δ."""


def _check_count(field: str, value, least: int = 1) -> int:
    """``value`` as an int if it is an integer of at least ``least`` (1 or 0) that a float
    can hold, so 3.0 gives 3; anything else raises a one-line ValueError naming ``field``."""
    try:
        if value >= least and value % 1 == 0:  # false for inf and nan
            float(value)  # every count meets float arithmetic: δ, the samplers, the chunk plan
            return int(value)
    except OverflowError:
        raise ValueError(f"{field} is too large for a float") from None
    except TypeError:  # not a number
        pass
    raise ValueError(f"{field} must be a {'positive' if least else 'nonnegative'} integer, got {value}")


def _stirling_theta(x: float) -> float:
    """θ(x) = Σ B₂ₖ / (2k(2k−1)·x^(2k−1)), k = 1..7; k = 8 is below 8.5e-16 at x = 8."""
    t = 1.0 / (x * x)
    series = 1 / 1188 + t * (-691 / 360360 + t / 156)
    return (1 / 12 + t * (-1 / 360 + t * (1 / 1260 + t * (-1 / 1680 + t * series)))) / x


def half_shape_front(b: float) -> float:
    """1/(B(½, b)·√(b − ¼)) = Γ(b + ½)/(Γ(b)·√(π(b − ¼))), once per b for callers: its log
    is O(1/b²) by Stirling at t >= 8, reached by 1/B(½, t) = 1/B(½, t + 1)·t/(t + ½)."""
    t, scale = b, 1.0
    while t < _STIRLING_MIN:
        t, scale = t + 1.0, scale * t / (t + 0.5)
    log_ratio = t * math.log1p(0.5 / t) - 0.5 - 0.5 * math.log1p(-0.25 / t)
    scale *= math.sqrt((t - 0.25) / (b - 0.25)) / _SQRT_PI
    return math.exp(log_ratio + _stirling_theta(t + 0.5) - _stirling_theta(t)) * scale


def half_shape_beta(b: float, s: float, c: float, w0: float, upper: bool, front: float | None = None) -> float:
    """I_{s²}(½, b), or with ``upper`` its complement I_c(b, ½), for b a multiple of ½
    of at least 1, 0 < s < 1, c = 1 − s² and w0 = −log c; ``front`` is
    half_shape_front(b) if known."""
    if b <= _SUM_MAX_B:
        p = _finite_sum(s, c, int(2.0 * b) - 1)
        if p <= (0.5 if upper else _SUM_MAX_P):
            return 1.0 - p if upper else p
        # the complement, lifted past the cut by I_c(b, ½) = I_c(b + 1, ½) + c^b·s/(b·B(b, ½))
        n = math.floor(_SUM_MAX_B - b) + 1
        lift, term = 0.0, s * math.exp(-b * w0) * half_shape_front(b) * math.sqrt(b - 0.25) / b
        for j in range(n):
            lift, term = lift + term, term * c * (b + j + 0.5) / (b + j + 1.0)
        q = half_shape_beta(b + n, s, c, w0, True) + lift
        return q if upper else 1.0 - q
    front = half_shape_front(b) if front is None else front
    if w0 > _W_MAX:  # I_c(b, ½)·B(b, ½)/c^b = Σ (½)_n/n!·cⁿ/(b + n) (DLMF 8.17.7), c < 0.14
        total, term = 1.0 / b, 1.0
        for n in range(1, 21):  # c^20 < 4e-18
            term *= (n - 0.5) / n * c
            total += term / (b + n)
        # q < e^{−b·w0}: where that factor is subnormal, q is below 2.3e-308 too
        q = math.exp(-b * w0) * front * math.sqrt(b - 0.25) * total
        return q if upper else 1.0 - q
    u = (b - 0.25) * w0
    r, w2 = math.sqrt(u), w0 * w0
    if u < _U_MID:
        # S_k = x(2k + ½) for x(a) = γ(a, u)·eᵘ/uᵃ = (1 + u·x(a + 1))/a, run down from x = 0 at
        # level K + 1, K = 1 + (entries of _DEPTH_W0 at or below w0). As S_k ≤ eᵘ/(2k + ½) and
        # √π·erf(√u) ≥ 2√u·e^{−u}, δ's relative error is below (w0²/2)·[Σ_{k>K} |c_k|·w0^{2k−2}·S_k
        # (the dropped terms) + Σ_{k≤K} |c_k|·w0^{2k−2}·S_{K+1}·Π_{j=k..K} u²/((2j + 1.5)(2j + 0.5))
        # (the zero start, shrunk by that factor per level)]. That grows with u; at u = ¼ it is below
        # 1e-17 for w0 under each entry, and with K = 4 for every w0 < ¼/12.75, as b ≥ 13 here.
        x = total = 0.0
        for k in range(bisect_right(_DEPTH_W0, w0) + 1, 0, -1):
            x = (1.0 + u * (1.0 + u * x) / (2 * k + 1.5)) / (2 * k + 0.5)
            total = total * w2 + _C[k - 1] * x
        p = front * (_SQRT_PI * math.erf(r) + r * math.exp(-u) * w2 * total)
        return 1.0 - p if upper else p
    if u > 700.0:  # the complement is below 2.2e-306
        return 0.0 if upper else 1.0
    e = math.exp(-u)
    x = total = _SQRT_PI * math.erfc(r) / (r * e)  # Γ(a, u)·eᵘ/uᵃ at a = ½, then up
    for k, c_k in enumerate(_C, 1):
        x = ((2 * k - 0.5) * ((2 * k - 1.5) * x + 1.0) / u + 1.0) / u
        total += (term := c_k * w2**k * x)
        if abs(term) < 1e-17 * total:
            break
    q = front * r * e * total
    return q if upper else 1.0 - q


def _finite_sum(s: float, c: float, d: int) -> float:
    """I_{s²}(½, (d+1)/2), c = 1 − s², integer d >= 0: s·Σ_{k<(d+1)/2} (½)_k/k!·c^k at odd d,
    (2/π)·[asin s + s·√c·Σ_{k<d/2} (2·4⋯2k)/(3·5⋯(2k+1))·c^k] at even d (A&S 26.7.3–4).
    asin s is taken as atan2(s, √c): near s = 1 asin magnifies a rounding of s by 1/√c, and
    the sum's √c term a rounding of c, while with atan2 the two first-order errors cancel,
    so the sum stays accurate whether s (as δ's argument) or c (as 1 − z) is the exact one."""
    odd = d % 2
    total, term = 0.0, 1.0
    for k in range(1, (d + odd) // 2 + 1):
        total += term
        term *= (k - 0.5) / k * c if odd else k / (k + 0.5) * c
    if odd:
        return s * total
    r = math.sqrt(c)
    return 2.0 * (math.atan2(s, r) + s * r * total) / math.pi


def reg_inc_beta(z: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_z(a, b) for one shape ½ and the other a multiple of ½
    of at least 1, as b = (d + 1)/2 is for every dimension d; 0 at z = 0, 1 at z = 1."""
    other = b if a == 0.5 else a if b == 0.5 else 0.0
    if not (other >= 1.0 and (2.0 * other).is_integer()):  # false for nan
        raise ValueError(f"shape parameters must be one of them 1/2 and the other a multiple of 1/2 "
                         f"of at least 1, got a={a}, b={b}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z}")
    if z == 0.0 or z == 1.0:
        return float(z)
    if a == 0.5:
        return half_shape_beta(b, math.sqrt(z), 1.0 - z, -math.log1p(-z), False)
    return half_shape_beta(a, math.sqrt(1.0 - z), z, -math.log(z), True)


def series_delta_odd_d(delta_x: float, d: int) -> float:
    """δ at odd d <= 1001 by the series (Δx/2) · Σ_{k=0}^{(d-1)/2} (1/2)_k (1 - (Δx/2)²)^k / k!,
    summed by Horner's rule in exact rationals from the binary Δx and rounded once: δ rounded
    to nearest, sharing no arithmetic with reg_inc_beta."""
    d = _check_count("d", d)
    if d % 2 == 0 or d > 1001:  # bounds the run: the exact sum costs about d²
        raise ValueError(f"d must be odd and at most 1001, got {d}")
    if not 0.0 <= delta_x <= 2.0:
        raise ValueError(f"delta_x must lie in [0, 2], got {delta_x}")
    s = Fraction(delta_x) / 2
    c = 1 - s * s
    total = Fraction(1)
    for k in range((d - 1) // 2, 0, -1):
        total = 1 + total * c * (2 * k - 1) / (2 * k)
    return float(s * total)


def reg_inc_beta_derivative(z: float, d: int) -> float:
    """d/dz of I_z(1/2, (d+1)/2): (1-z)^{(d-1)/2} · z^{-1/2} / B(1/2, (d+1)/2),
    strictly positive on 0 < z < 1 (z = 0 is a singularity, z = 1 degenerate)."""
    d = _check_count("d", d)
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie strictly inside (0, 1), got {z}")
    b = 0.5 * (d + 1)  # 1/B(1/2, b) as front·√(b − 1/4), within 5e-16
    return (1.0 - z) ** (b - 1.0) * half_shape_front(b) * math.sqrt(b - 0.25) / math.sqrt(z)
