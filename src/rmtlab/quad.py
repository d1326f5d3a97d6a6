"""Gauss-Legendre helpers.

gauss_legendre caches the nodes and weights on [-1, 1]; orthopoly maps
them onto its quadrature panels.  clustered_rule is the endpoint-clustered
rule of the equilibrium layer's spectral-curve and log integrals.
"""

from __future__ import annotations

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached by node count."""
    got = _GL_CACHE.get(m)
    if got is None:
        got = np.polynomial.legendre.leggauss(m)
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
