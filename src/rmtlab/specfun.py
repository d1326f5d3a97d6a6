"""Airy and Bessel functions implemented in-repo.

Power series inside a fixed radius, standard asymptotic expansions
beyond.  Scalar in, (value, derivative) out; accuracy target 1e-10
absolute on the ranges the kernels use.
"""

from __future__ import annotations

import math

from .errors import ValidationError

# the Maclaurin series loses ~e^{2 zeta} in cancellation for z > 0 but
# only ~(largest term) for z < 0, so the switch points are asymmetric
_AIRY_SERIES_POS = 6.0
_AIRY_SERIES_NEG = -7.5
_BESSEL_SERIES_R = 12.0

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)     # Ai(0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)


def _airy_series(z: float) -> tuple[float, float]:
    z3 = z * z * z
    # f = sum t_k, t_0 = 1, ratio z^3/((3k+2)(3k+3)); g likewise from z
    f = t = 1.0
    g = u = z
    fp = s = 0.0
    gp = v = 1.0
    k = 0
    while True:
        t = t * z3 / ((3 * k + 2) * (3 * k + 3))
        u = u * z3 / ((3 * k + 3) * (3 * k + 4))
        if k == 0:
            s = 0.5 * z * z  # first term of f'
        else:
            s = s * z3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
        v = v * z3 / ((3 * k + 1) * (3 * k + 3))
        f += t
        g += u
        fp += s
        gp += v
        k += 1
        if k > 6 and max(abs(t), abs(u), abs(s), abs(v)) < 1e-18 * (1.0 + abs(f) + abs(g)):
            break
        if k > 200:
            break
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip


def _airy_uv(count: int) -> tuple[list[float], list[float]]:
    u = [1.0]
    v = [1.0]
    for k in range(1, count):
        uk = u[-1] * (6 * k - 1) * (6 * k - 5) / (72.0 * k)
        u.append(uk)
        v.append(uk * (6 * k + 1) / (1.0 - 6 * k))
    return u, v


def _airy_asym_pos(x: float) -> tuple[float, float]:
    zeta = (2.0 / 3.0) * x ** 1.5
    u, v = _airy_uv(24)
    su = sv = 0.0
    term_u = term_v = 1.0
    prev = math.inf
    for k in range(24):
        tu = u[k] * (-1.0) ** k / zeta ** k
        tv = v[k] * (-1.0) ** k / zeta ** k
        if abs(tu) > prev:  # past the optimal truncation point
            break
        su += tu
        sv += tv
        prev = abs(tu)
    pre = math.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pre * su / x ** 0.25
    aip = -pre * x ** 0.25 * sv
    return ai, aip


def _airy_asym_neg(x: float) -> tuple[float, float]:
    """Oscillatory expansion of Ai(-x), Ai'(-x) for large x > 0."""
    zeta = (2.0 / 3.0) * x ** 1.5
    u, v = _airy_uv(24)
    ce = se = co = so = 0.0
    prev = math.inf
    for k in range(12):
        t_even = u[2 * k] * (-1.0) ** k / zeta ** (2 * k)
        if abs(t_even) > prev:
            break
        prev = abs(t_even)
        ce += t_even
        co += v[2 * k] * (-1.0) ** k / zeta ** (2 * k)
        if 2 * k + 1 < 24:
            se += u[2 * k + 1] * (-1.0) ** k / zeta ** (2 * k + 1)
            so += v[2 * k + 1] * (-1.0) ** k / zeta ** (2 * k + 1)
    ang = zeta - 0.25 * math.pi
    ai = (math.cos(ang) * ce + math.sin(ang) * se) / (math.sqrt(math.pi) * x ** 0.25)
    aip = (x ** 0.25 / math.sqrt(math.pi)) * (math.sin(ang) * co - math.cos(ang) * so)
    return ai, aip


def airy_ai(z: float) -> tuple[float, float]:
    """(Ai(z), Ai'(z)) for real z."""
    z = float(z)
    if _AIRY_SERIES_NEG <= z <= _AIRY_SERIES_POS:
        return _airy_series(z)
    if z > 0:
        return _airy_asym_pos(z)
    return _airy_asym_neg(-z)


# ---------------------------------------------------------------------------
# Bessel J


def _rgamma(z: float) -> float:
    """1/Gamma(z), zero at the poles of Gamma."""
    if z > 0.0:
        return 1.0 / math.gamma(z)
    if z == math.floor(z):
        return 0.0
    # reflection: 1/Gamma(z) = sin(pi z) Gamma(1-z) / pi
    return math.sin(math.pi * z) * math.gamma(1.0 - z) / math.pi


def _bessel_series(alpha: float, x: float) -> tuple[float, float]:
    if x == 0.0:
        if alpha == 0.0:
            return 1.0, 0.0
        if abs(alpha) == 1.0:
            # J_{-1} = -J_1
            return math.copysign(0.0, alpha), math.copysign(0.5, alpha)
        if alpha > 1.0:
            return 0.0, 0.0
        if alpha > 0.0:
            return 0.0, math.inf
        # alpha in (-2, 0) diverges at the origin like the leading term
        # (x/2)^alpha / Gamma(alpha + 1), whose sign flips at alpha = -1
        big = math.copysign(math.inf, _rgamma(alpha + 1.0))
        return big, -big
    half = 0.5 * x
    q = half * half
    # t_k = (-1)^k half^{alpha+2k} / (k! Gamma(alpha+k+1)),
    # ratio t_k/t_{k-1} = -q/(k(alpha+k)) once past the Gamma poles
    t = half ** alpha * _rgamma(alpha + 1.0)
    val = t
    der = t * alpha / x
    for k in range(1, 80):
        if alpha + k < 0.75 or t == 0.0:
            t = (-1.0) ** k * half ** (alpha + 2 * k) \
                * _rgamma(alpha + k + 1.0) / math.factorial(k)
        else:
            t = -t * q / (k * (alpha + k))
        val += t
        der += t * (alpha + 2.0 * k) / x
        if k > 6 and abs(t) < 1e-18 * (1.0 + abs(val)):
            break
    return val, der


def _bessel_hankel_one(alpha: float, x: float) -> float:
    """J_alpha(x) by the Hankel expansion, x large."""
    mu = 4.0 * alpha * alpha
    a = 1.0
    psum = 1.0
    qsum = 0.0
    prev = math.inf
    for k in range(1, 30):
        a = a * (mu - (2 * k - 1) ** 2) / (8.0 * k)
        term = a / x ** k
        if abs(term) > prev:
            break
        prev = abs(term)
        if k % 2 == 1:
            qsum += term * (-1.0) ** ((k - 1) // 2)
        else:
            psum += term * (-1.0) ** (k // 2)
    omega = x - 0.5 * alpha * math.pi - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (
        math.cos(omega) * psum - math.sin(omega) * qsum)


def bessel_j(alpha: float, x: float) -> tuple[float, float]:
    """(J_alpha(x), J_alpha'(x)) for real x >= 0, alpha > -2."""
    x = float(x)
    if x < 0.0:
        raise ValidationError("bessel_j requires x >= 0")
    if x <= _BESSEL_SERIES_R:
        return _bessel_series(alpha, x)
    j = _bessel_hankel_one(alpha, x)
    jm = _bessel_hankel_one(alpha - 1.0, x)
    jp = _bessel_hankel_one(alpha + 1.0, x)
    return j, 0.5 * (jm - jp)
