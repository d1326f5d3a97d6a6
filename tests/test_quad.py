"""Gauss-Legendre rules on [-1, 1] from quad.gauss_legendre.

The reference is Newton's method on P_m in np.longdouble, started from
the plain Chebyshev-like estimates cos(pi (k + 3/4) / (m + 1/2)) over
all m nodes, with weights from 2 (1 - x^2) / (m P_{m-1}(x))^2: another
start, another weight formula and no mirroring, at about 11 more bits.
"""

import functools

import numpy as np
import pytest

from rmtlab.quad import gauss_legendre

LISTED = (1, 2, 3, 12, 13, 24, 48, 96, 200, 400)
WEIGHT_TOL = 1e-11

pytestmark = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                                reason="np.longdouble is no wider than a double here")


@functools.lru_cache(maxsize=None)
def reference_rule(m):
    """Ascending nodes and weights of the m-point rule in np.longdouble."""
    one = np.longdouble(1)
    k = np.arange(m - 1, -1, -1, dtype=np.longdouble)
    x = np.cos(np.pi * one * (k + 0.75) / (m + 0.5))
    if m % 2:
        x[m // 2] = 0       # P_m is odd: Newton from cos(pi/2) stalls near 1e-168
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for j in range(1, m):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        x = x - p / (m * (x * p - p_prev) / (x * x - one))
    p_prev, p = np.ones_like(x), x
    for j in range(1, m):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return x, 2 * (one - x) * (one + x) / (m * p_prev) ** 2


def node_ulps(x, ref):
    near = ref.astype(float)
    return np.abs(x - near) / np.spacing(np.abs(near))


def weight_error(w, ref):
    return float(np.max(np.abs((w - ref) / ref)))


@pytest.mark.parametrize("m", LISTED)
def test_nodes_and_weights_match_extended_reference(m):
    x, w = gauss_legendre(m)
    rx, rw = reference_rule(m)
    assert x.shape == w.shape == (m,)
    assert np.max(node_ulps(x, rx)) <= 1.0
    assert weight_error(w, rw) < WEIGHT_TOL


def test_orders_up_to_400_within_their_bounds():
    # a node near 0 can be a few ulps off (the recurrence carries about
    # sqrt(m) eps of rounding into P_m there; 5 ulps at m = 226), but
    # never more than eps / 4 absolute; nodes with |x| >= 1/2 stay
    # within 1 ulp
    eps = np.finfo(float).eps
    for m in range(1, 401, 3):
        x, w = gauss_legendre(m)
        rx, rw = reference_rule(m)
        outer = np.abs(rx) >= 0.5
        assert np.max(node_ulps(x[outer], rx[outer]), initial=0.0) <= 1.0, m
        assert np.max(np.abs(x - rx.astype(float))[~outer], initial=0.0) <= eps / 4, m
        assert weight_error(w, rw) < WEIGHT_TOL, m


@pytest.mark.parametrize("m", LISTED)
def test_even_moments_exact(m):
    x, w = gauss_legendre(m)
    for k in range(m):
        assert abs(np.dot(w, x ** (2 * k)) - 2.0 / (2 * k + 1)) < 4e-15, k


@pytest.mark.parametrize("m", LISTED)
def test_mirror_symmetric_and_ascending(m):
    x, w = gauss_legendre(m)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0)
    assert np.all(w > 0.0)
    assert -1.0 < x[0] and x[-1] < 1.0


@pytest.mark.parametrize("m", (1, 3, 13, 401))
def test_odd_order_has_middle_node_exactly_zero(m):
    x, _ = gauss_legendre(m)
    mid = x[m // 2]
    assert mid == 0.0 and not np.signbit(mid)


def test_rules_are_cached():
    assert gauss_legendre(48) is gauss_legendre(48)


@pytest.mark.parametrize("m", (200, 400))
def test_leggauss_weights_fail_the_bound(m):
    # negative control: the eigenvalue route misses the weight bound
    # at these orders, so the bound can tell the two methods apart
    _, w = np.polynomial.legendre.leggauss(m)
    _, rw = reference_rule(m)
    assert weight_error(w, rw) > WEIGHT_TOL
