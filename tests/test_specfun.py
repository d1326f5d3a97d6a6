"""Airy and Bessel implementations against scipy and their ODEs."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sps

from rmtlab.errors import ValidationError
from rmtlab.kernel import bessel_kernel
from rmtlab.specfun import _airy_asym_neg, _airy_asym_pos, _airy_series, airy_ai, bessel_j


# ---------------------------------------------------------------------------
# reference values


def test_airy_matches_scipy():
    zs = np.linspace(-15.0, 8.0, 931)
    worst_v = worst_d = 0.0
    for z in zs:
        ai, aip = airy_ai(float(z))
        ref_ai, ref_aip, _, _ = sps.airy(z)
        worst_v = max(worst_v, abs(ai - ref_ai))
        worst_d = max(worst_d, abs(aip - ref_aip))
    assert worst_v < 5e-11
    assert worst_d < 5e-11


def test_airy_at_zero_gamma_expressions():
    ai, aip = airy_ai(0.0)
    assert ai == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), abs=1e-10)
    assert aip == pytest.approx(-(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), abs=1e-10)


def test_airy_branch_junctions_agree():
    # both branch representations evaluated at the same switch points
    s = _airy_series(-7.5)
    a = _airy_asym_neg(7.5)
    assert s[0] == pytest.approx(a[0], abs=1e-10)
    assert s[1] == pytest.approx(a[1], abs=1e-10)
    s = _airy_series(6.0)
    a = _airy_asym_pos(6.0)
    assert s[0] == pytest.approx(a[0], abs=1e-10)
    assert s[1] == pytest.approx(a[1], abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, -0.5])
def test_bessel_matches_scipy(alpha):
    xs = np.linspace(0.05, 20.0, 400)
    worst_v = worst_d = 0.0
    for x in xs:
        j, jp = bessel_j(alpha, float(x))
        worst_v = max(worst_v, abs(j - sps.jv(alpha, x)))
        worst_d = max(worst_d, abs(jp - sps.jvp(alpha, x)))
    assert worst_v < 5e-11
    assert worst_d < 5e-11


def test_bessel_negative_order_reflection():
    # J_{-1} = -J_1 passes through a pole of 1/Gamma
    for x in (0.3, 2.0, 15.0):
        jm, jmp = bessel_j(-1.0, x)
        j1, j1p = bessel_j(1.0, x)
        assert jm == pytest.approx(-j1, abs=1e-12)
        assert jmp == pytest.approx(-j1p, abs=1e-12)


def test_bessel_at_zero_matches_scipy():
    # J_alpha(0) and J_alpha'(0) from the x = 0 branch of the series.  An
    # infinite entry must carry the sign of scipy's value at x = 1e-8:
    # for -2 < alpha < -1, 1/Gamma(alpha + 1) < 0, so J -> -inf and
    # J' -> +inf (scipy's jvp is nan at 0 there)
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0, -0.5, -1.0, -1.25, -1.5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = (sps.jv(alpha, 0.0), sps.jvp(alpha, 0.0))
        near = (sps.jv(alpha, 1e-8), sps.jvp(alpha, 1e-8))
        for got, want, sign in zip(bessel_j(alpha, 0.0), ref, near):
            if math.isinf(got):
                assert math.copysign(1.0, got) == math.copysign(1.0, sign), alpha
                assert math.isnan(want) or got == want, alpha
            else:
                assert got == want, alpha
    # at u = 0 the hard-edge kernel is J_1(sqrt v) / (2 sqrt v) for alpha = 0
    for v in (0.01, 0.5, 2.0, 9.0):
        assert bessel_kernel(0.0, 0.0, v) == pytest.approx(
            sps.j1(math.sqrt(v)) / (2.0 * math.sqrt(v)), rel=1e-12)


def test_bessel_rejects_negative_argument():
    with pytest.raises(ValidationError, match="x >= 0"):
        bessel_j(0.0, -1.0)


# ---------------------------------------------------------------------------
# ODE residuals
#
# A finite-difference residual would amplify function error by 1/h^2, so
# the residual is formed as one high-order Taylor step of the defining
# ODE: the ODE turns (value, derivative) at z into all higher Taylor
# coefficients exactly, and the propagated pair must match direct
# evaluation at z + h.  Any departure of the implementation from the
# ODE shows up as a step defect.


def _airy_taylor_step(z, h, terms=30):
    ai, aip = airy_ai(z)
    d = [ai, aip]
    for k in range(terms):
        prev = d[k - 1] if k >= 1 else 0.0
        d.append(z * d[k] + k * prev)  # f'' = z f differentiated k times
    val = der = 0.0
    fact = 1.0
    for k in range(terms):
        val += d[k] * fact
        der += d[k + 1] * fact
        fact *= h / (k + 1)
    return val, der


def test_airy_ode_residual():
    worst = 0.0
    h = 0.1
    for z in np.arange(-10.0, 7.8, 0.23):
        val, der = _airy_taylor_step(float(z), h)
        got_v, got_d = airy_ai(float(z) + h)
        worst = max(worst, abs(val - got_v), abs(der - got_d))
    assert worst < 1e-9


def _bessel_taylor_step(alpha, x0, h, terms=32):
    j, jp = bessel_j(alpha, x0)
    c = [j, jp]
    for k in range(terms):
        cm1 = c[k - 1] if k >= 1 else 0.0
        cm2 = c[k - 2] if k >= 2 else 0.0
        num = (x0 * (k + 1) * (2 * k + 1) * c[k + 1]
               + (k * k + x0 * x0 - alpha * alpha) * c[k]
               + 2.0 * x0 * cm1 + cm2)
        c.append(-num / (x0 * x0 * (k + 2) * (k + 1)))
    val = sum(c[k] * h ** k for k in range(terms))
    der = sum((k + 1) * c[k + 1] * h ** k for k in range(terms))
    return val, der


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_bessel_ode_residual(alpha):
    worst = 0.0
    for x0 in np.arange(0.4, 19.5, 0.37):
        h = 0.08 * min(1.0, x0)
        val, der = _bessel_taylor_step(alpha, float(x0), h)
        got_v, got_d = bessel_j(alpha, float(x0) + h)
        worst = max(worst, abs(val - got_v), abs(der - got_d))
    assert worst < 1e-9
