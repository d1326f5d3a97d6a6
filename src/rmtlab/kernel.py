"""Finite-n correlation kernels and their double-scaled limits.

The projection kernel onto polynomials of degree < n under the weight,

    K_n(x, y) = h_{n-1}^{-1} sqrt(w(x) w(y))
                (p_n(x) p_{n-1}(y) - p_n(y) p_{n-1}(x)) / (x - y),

is evaluated through the weighted orthonormal functions
psi_j = sqrt(w) p_j / sqrt(h_j), which stay of order one where p_j and
w separately overflow and underflow; on the diagonal, and only where
x == y exactly, it is the sum of squares sum_{j<n} psi_j(x)^2.  Only
kernel_matrix (any x * y grid) and kernel_diag evaluate it at points,
both through _psi_rows, one orthopoly.cd_rows pass per point set:
point by point in Python floats for a handful of distinct points (a
scan stage's grid, one diagonal point), the numpy sweep for more, the
same bits either way.  Nothing here imports the equilibrium side.
Sine, Airy and Bessel kernels are the double-scaling references; grids
are bare matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .orthopoly import QuadratureRule, Recurrence, cd_rows, orthonormal_rows
from .potential import Potential, log_weight
from .specfun import airy_ai, bessel_j

_TINY = np.finfo(float).tiny  # the smallest normal double


# ---------------------------------------------------------------------------
# finite-n kernel


def _psi_rows(r: Recurrence, p: Potential, x: np.ndarray):
    """psi_n, psi_{n-1} and the diagonal K_n(x, x) at the points of x.

    The one place a kernel runs the recurrence at points: one cd_rows
    pass over the distinct points of x, or on a parity fit
    (a_0 = ... = a_{n-1} = 0 on an even model, Potential.is_even) over
    their distinct |x|, gathered back to the shape of x with the
    odd-degree row negated at x < 0, since psi_j(-x) = (-1)^j psi_j(x).
    The fold decides which loop cd_rows takes: it counts distinct
    points, so a 61-point grid of an even model is 31 float-loop points.
    Where log w is itself exactly even (no charges off 0) that is the
    direct evaluation bit for bit, apart from the sign of zeros where
    sqrt(w) underflows.  The diagonal is the Christoffel-Darboux sum of
    squares sum_{j<n} psi_j^2: positive terms, so nothing cancels.
    log w is -inf off the domain, so every row and the diagonal vanish
    there.
    """
    parity = not any(r.a[:p.n]) and p.is_even()
    pts, inv = np.unique(np.abs(x) if parity else x, return_inverse=True)
    inv = inv.reshape(x.shape)
    psi_n, psi_m, diag = cd_rows(r, pts, log_weight(p, pts), p.n)
    psi_n, psi_m, diag = psi_n[inv], psi_m[inv], diag[inv]
    if parity:
        odd = psi_n if p.n % 2 else psi_m  # of the two, the odd-degree row
        np.negative(odd, out=odd, where=x < 0.0)
    return psi_n, psi_m, diag


def kernel_diag(r: Recurrence, p: Potential, x) -> np.ndarray:
    """K_n(x, x) as the sum of squares of psi_0 .. psi_{n-1}, vectorized."""
    x = np.asarray(x, dtype=float)
    out = _psi_rows(r, p, np.atleast_1d(x))[2]
    return float(out[0]) if x.ndim == 0 else out


def kernel_matrix(r: Recurrence, p: Potential, xs, ys) -> np.ndarray:
    """K_n on a grid of real points; off-domain points give 0.

    One _psi_rows pass serves the points of xs and ys together.  A pair
    with x == y exactly takes the diagonal, the Christoffel-Darboux sum
    of squares at that point; every distinct pair, however close, takes
    the difference quotient, so a grid is treated alike at every scale.
    A scalar (0-d) xs or ys is one point, and the result has shape
    xs.shape + ys.shape: a float for two scalars.
    """
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    if xa.ndim == 0 or ya.ndim == 0:
        out = kernel_matrix(r, p, xa.reshape(-1), ya.reshape(-1)).reshape(xa.shape + ya.shape)
        return float(out) if out.ndim == 0 else out
    psi_n, psi_m, diag = _psi_rows(r, p, np.concatenate((xa, ya)))
    xn, xm, diag_x = psi_n[:xa.size], psi_m[:xa.size], diag[:xa.size]
    yn, ym = psi_n[xa.size:], psi_m[xa.size:]
    beta_n = math.sqrt(r.b[p.n - 1])
    # formed in place from dx, the numerator and one scratch array;
    # products commute exactly, so each entry is the same double as
    # beta_n (psi_n(x) psi_m(y) - psi_n(y) psi_m(x)) / (x - y)
    dx = np.subtract.outer(xa, ya)
    out = np.multiply.outer(xn, ym)
    scratch = np.multiply.outer(xm, yn)
    out -= scratch
    out *= beta_n
    close = dx == 0.0
    np.copyto(dx, 1.0, where=close)
    out /= dx
    np.copyto(out, diag_x[:, None], where=close)
    return out


def scaled_kernel_grid(r: Recurrence, p: Potential, cp, u_grid) -> np.ndarray:
    """n^{-delta} K_n(x_* + n^{-delta} u, x_* + n^{-delta} v) on the grid u x u.

    cp gives x_star and delta; every grid point must stay in the domain.
    Distinct grid points stay distinct pairs of kernel_matrix at every
    n, however fast the zoom, and a repeated point is one point.
    A point where w > 0 but psi_0 = sqrt(w e^{-s} / h0) is below the
    smallest normal double raises NumericalError: every psi_j there
    starts from a subnormal or zero, so the kernel would be silently
    wrong.  A fit from the quadrature route has its clip guard; one
    from the string equation has no nodes, and this is its check.
    """
    s = float(p.n) ** (-cp.delta)
    xs = cp.x_star + s * np.asarray(u_grid, dtype=float)
    bad = 2 * int(np.count_nonzero(~p.support.contains(xs)))  # once per axis
    if bad:
        raise ValidationError(f"{bad} scaled grid points leave the domain at n={p.n}")
    lw = log_weight(p, xs)
    psi_0 = next(orthonormal_rows(r, xs, lw, 0))
    faint = np.isfinite(lw) & (psi_0 < _TINY)
    if np.any(faint):
        raise NumericalError(
            f"sqrt(w / h0) is below the smallest normal double at "
            f"{int(np.count_nonzero(faint))} scaled grid points (the first at "
            f"x={float(xs[faint][0]):.6g}) at n={p.n}")
    out = kernel_matrix(r, p, xs, xs)
    out *= s
    return out


# ---------------------------------------------------------------------------
# integral identities


def trace_check(r: Recurrence, p: Potential, q: QuadratureRule) -> float:
    """int K_n(x, x) dx over the rule; equals n for a projection kernel."""
    diag = kernel_diag(r, p, q.nodes)
    return float(np.sum(q.base * diag))


def projection_residual(r: Recurrence, p: Potential, q: QuadratureRule,
                        probes) -> float:
    """max over probe pairs (x, z) of |int K(x,y) K(y,z) dy - K(x,z)|."""
    pairs = np.asarray(probes, dtype=float).reshape(-1, 2)
    rows = kernel_matrix(r, p, pairs.ravel(), q.nodes)
    integrand = q.base * rows[0::2]
    integrand *= rows[1::2]
    integral = np.sum(integrand, axis=1)
    direct = np.diag(kernel_matrix(r, p, pairs[:, 0], pairs[:, 1]))
    return float(np.max(np.abs(integral - direct), initial=0.0))


# ---------------------------------------------------------------------------
# reference kernels


def sine_kernel(u: float, v: float) -> float:
    d = u - v
    if abs(d) < 1e-9:
        return 1.0 - (math.pi * d) ** 2 / 6.0
    return math.sin(math.pi * d) / (math.pi * d)


def airy_kernel(u: float, v: float) -> float:
    if abs(u - v) < 1e-9:
        m = 0.5 * (u + v)
        ai, aip = airy_ai(m)
        return aip * aip - m * ai * ai
    aiu, apu = airy_ai(u)
    aiv, apv = airy_ai(v)
    return (aiu * apv - aiv * apu) / (u - v)


def _sqrt_jprime(alpha: float, u: float) -> float:
    """sqrt(u) J_alpha'(sqrt(u)); vanishes as u -> 0 for alpha >= 0."""
    if u == 0.0:
        return 0.0
    x = math.sqrt(u)
    return x * bessel_j(alpha, x)[1]


def bessel_kernel(alpha: float, u: float, v: float) -> float:
    """Hard-edge kernel on u, v >= 0.

    Normalized as (J_a(su) sv J_a'(sv) - J_a(sv) su J_a'(su))/(2(u-v))
    with s* = sqrt(*); the alpha = +-1/2 cases reduce to sine-type
    closed forms in sqrt(u) +- sqrt(v).  Pairs closer than
    1e-9 max(1, u, v) take the confluent form, so K(u, v) and K(v, u)
    are the same double.
    """
    if alpha <= -1.0:
        raise ValidationError("bessel_kernel requires alpha > -1")
    if u < 0.0 or v < 0.0:
        raise ValidationError("bessel_kernel requires u, v >= 0")
    if abs(u - v) < 1e-9 * max(1.0, abs(u), abs(v)):
        m = 0.5 * (u + v)
        if m == 0.0:
            if alpha == 0.0:
                return 0.25
            return 0.0 if alpha > 0.0 else math.inf
        x = math.sqrt(m)
        ja = bessel_j(alpha, x)[0]
        jm = bessel_j(alpha - 1.0, x)[0]
        jp = bessel_j(alpha + 1.0, x)[0]
        return 0.25 * (ja * ja - jm * jp)
    ju = bessel_j(alpha, math.sqrt(u))[0]
    jv = bessel_j(alpha, math.sqrt(v))[0]
    return (ju * _sqrt_jprime(alpha, v) - jv * _sqrt_jprime(alpha, u)) / (2.0 * (u - v))


# ---------------------------------------------------------------------------
# convergence diagnostics


def _fit_decay(ns, errs):
    """Least-squares log-log slope of err(n); NaN when fewer than two points.

    The closed form sum x y / sum x^2 of the line fit in x = log n and
    y = log err, each taken from its mean.
    """
    if len(ns) < 2 or any(e <= 0 for e in errs):
        return math.nan
    x = np.log(np.asarray(ns, float))
    y = np.log(np.asarray(errs, float))
    x -= x.mean()
    y -= y.mean()
    return float((x * y).sum() / (x * x).sum())


def _law_table(ref_fn, grid: np.ndarray) -> np.ndarray:
    """ref_fn(u, v) on the grid u x u, evaluated on the upper triangle.

    The sine, Airy and Bessel laws give the same double at (u, v) and
    (v, u), so mirroring the triangle is the full table bit for bit.
    """
    g = grid.tolist()
    out = np.empty((len(g), len(g)))
    for i, u in enumerate(g):
        for j in range(i, len(g)):
            out[i, j] = out[j, i] = ref_fn(u, g[j])
    return out


def convergence_scan(sc, n_list, grid, progress=None) -> dict:
    """Sup-norm error of the scaled kernel against the scenario reference.

    sc is a scenario (see rmtlab.scenarios).  Its equilibrium measure,
    critical point and law are read once, at the last n, so its critical
    point must not depend on n; each stage builds its potential, fits
    the recurrence and reads the scaled kernel at that one point.  A
    law of None compares successive n instead (scaling collapse), which
    a single n cannot do (ValidationError).  The law's kernel is read on
    the upper triangle of the grid (_law_table), so it must give the
    same double at (u, v) and (v, u).  Errors are on |kernel| when
    sc.compare_abs is set.  A failing stage, or the read at the last n,
    re-raises its ValidationError or NumericalError with the n named.
    """
    grid = np.asarray(grid, dtype=float)
    ns = list(n_list)
    if not ns:
        raise ValidationError("convergence scan needs at least one n")
    n = ns[-1]
    try:
        em = sc.equilibrium(sc.make_potential(n))
        cp = sc.critical_point(em)
        law = sc.reference_law(em, cp)
        stages = []
        for n in ns:
            p = sc.make_potential(n)
            g = scaled_kernel_grid(sc.recurrence(p), p, cp, grid)
            stages.append((n, np.abs(g) if sc.compare_abs else g))
            if progress is not None:
                progress(n)
    except (ValidationError, NumericalError) as e:
        raise type(e)(f"convergence scan failed at stage n={n}: {e}") from e

    if law is None:
        if len(stages) < 2:
            raise ValidationError(f"{sc.name} has no reference law: its scaling-collapse "
                                  f"scan compares successive n and needs two, got {ns}")
        rows = [{"n": n2, "against": n1, "sup_error": float(np.max(np.abs(a - b)))}
                for (n1, a), (n2, b) in zip(stages, stages[1:])]
        ref_meta = {"kind": "self"}
    else:
        ref_fn, ref_meta = law
        ref_vals = _law_table(ref_fn, grid)
        if sc.compare_abs:
            ref_vals = np.abs(ref_vals)
        rows = [{"n": n, "sup_error": float(np.max(np.abs(vals - ref_vals)))}
                for n, vals in stages]
    return {
        "scenario": sc.name,
        "reference": ref_meta,
        "grid": [float(g) for g in grid],
        "compare_abs": bool(sc.compare_abs),
        "rows": rows,
        "fitted_decay": _fit_decay([row["n"] for row in rows],
                                   [row["sup_error"] for row in rows]),
    }
