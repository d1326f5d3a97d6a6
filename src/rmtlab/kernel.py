"""Finite-n correlation kernels and their double-scaled limits.

The projection kernel onto polynomials of degree < n under the weight,

    K_n(x, y) = h_{n-1}^{-1} sqrt(w(x) w(y))
                (p_n(x) p_{n-1}(y) - p_n(y) p_{n-1}(x)) / (x - y),

is evaluated through the weighted orthonormal functions
psi_j = sqrt(w) p_j / sqrt(h_j) (orthopoly.orthonormal_rows), which stay
of order one where p_j and w separately overflow and underflow; on the
diagonal it is the sum of squares sum_{j<n} psi_j(x)^2.  Only
kernel_matrix (any x * y grid) and kernel_diag evaluate it at points,
and nothing here imports the equilibrium side.  Sine, Airy and Bessel
kernels are the double-scaling references; grids are bare matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .orthopoly import QuadratureRule, Recurrence, _is_even_model, orthonormal_rows
from .potential import Potential, log_weight
from .specfun import airy_ai, bessel_j

_CONFLUENT_REL = 1e-8


# ---------------------------------------------------------------------------
# finite-n kernel


def _parity_fit(r: Recurrence, p: Potential) -> bool:
    """a_0 = ... = a_{n-1} = 0 and an even model: psi_j(-x) = (-1)^j psi_j(x)."""
    return not any(r.a[:p.n]) and _is_even_model(p)


def _psi_rows(r: Recurrence, p: Potential, x: np.ndarray):
    """psi_n, psi_{n-1} and the diagonal K_n(x, x) at x, from one pass.

    The diagonal is the Christoffel-Darboux sum of squares
    sum_{j<n} psi_j^2: positive terms, so nothing cancels.  log w is
    -inf off the domain, so every row and the diagonal vanish there.
    On a parity fit (_parity_fit) kernel_matrix and kernel_diag pass
    only the distinct |x| here and sign the rows at x < 0 by parity,
    psi_j(-x) = (-1)^j psi_j(x).  Where log w is itself exactly even (no
    charges off 0) that is the direct evaluation bit for bit, apart from
    the sign of zeros where sqrt(w) underflows.
    """
    rows = orthonormal_rows(r, x, log_weight(p, x), p.n)
    diag = np.zeros(x.shape)
    for _ in range(p.n):
        psi_m = next(rows)
        diag += psi_m * psi_m
    return next(rows), psi_m, diag


def kernel_diag(r: Recurrence, p: Potential, x) -> np.ndarray:
    """K_n(x, x) as the sum of squares of psi_0 .. psi_{n-1}, vectorized.

    On a parity fit the diagonal is even, and one pass over the distinct
    |x| serves every point.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if _parity_fit(r, p):
        pts, inv = np.unique(np.abs(xa), return_inverse=True)
        out = _psi_rows(r, p, pts)[2][inv.reshape(xa.shape)]
    else:
        out = _psi_rows(r, p, xa)[2]
    if np.isscalar(x):
        return float(out[0])
    return out


def kernel_matrix(r: Recurrence, p: Potential, xs, ys) -> np.ndarray:
    """K_n on a grid of real points; off-domain points give 0.

    One recurrence pass over the distinct points of xs and ys, or on a
    parity fit (_parity_fit) over their distinct |x|, the rows at x < 0
    signed by parity.  Pairs within 1e-8 * scale of the diagonal take
    the confluent value, the mean of the two points' diagonals, so
    K(xs, xs) is exactly symmetric.
    """
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    parity = _parity_fit(r, p)
    both = np.concatenate((xa, ya))
    if parity:
        np.abs(both, out=both)
    pts, inv = np.unique(both, return_inverse=True)
    ix, iy = inv[:xa.size], inv[xa.size:]
    psi_n, psi_m, diag = _psi_rows(r, p, pts)
    xn, xm, yn, ym = psi_n[ix], psi_m[ix], psi_n[iy], psi_m[iy]
    if parity:
        # of psi_n and psi_{n-1} the odd one changes sign at -x
        for row, at in ((xn, xa), (yn, ya)) if p.n % 2 else ((xm, xa), (ym, ya)):
            np.negative(row, out=row, where=at < 0.0)
    beta_n = math.sqrt(r.b[p.n - 1])
    # formed in place from dx, the numerator and one scratch array;
    # products commute exactly, so each entry is the same double as
    # beta_n (psi_n(x) psi_m(y) - psi_n(y) psi_m(x)) / (x - y)
    dx = np.subtract.outer(xa, ya)
    out = np.multiply.outer(xn, ym)
    scratch = np.multiply.outer(xm, yn)
    out -= scratch
    out *= beta_n
    close = np.less(np.abs(dx, out=scratch), _CONFLUENT_REL * p.scale())
    np.copyto(dx, 1.0, where=close)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= dx
    if np.any(close):
        ii, jj = np.nonzero(close)
        kx, ky = diag[ix[ii]], diag[iy[jj]]
        # K(x, y) carries sqrt(w(x) w(y)) and diag is 0 exactly where w
        # is (off the domain, at a charge), so a pair with one such point
        # gives 0, not half the other diagonal; with two the mean is 0
        out[ii, jj] = np.where((kx == 0.0) != (ky == 0.0), 0.0, 0.5 * (kx + ky))
    return out


def scaled_kernel_grid(r: Recurrence, p: Potential, cp, u_grid) -> np.ndarray:
    """n^{-delta} K_n(x_* + n^{-delta} u, x_* + n^{-delta} v) on the grid u x u.

    cp gives x_star and delta; every grid point must stay in the domain.
    """
    s = float(p.n) ** (-cp.delta)
    xs = cp.x_star + s * np.asarray(u_grid, dtype=float)
    bad = 2 * int(np.count_nonzero(~p.support.contains(xs)))  # once per axis
    if bad:
        raise ValidationError(f"{bad} scaled grid points leave the domain at n={p.n}")
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
    closed forms in sqrt(u) +- sqrt(v).
    """
    if alpha <= -1.0:
        raise ValidationError("bessel_kernel requires alpha > -1")
    if u < 0.0 or v < 0.0:
        raise ValidationError("bessel_kernel requires u, v >= 0")
    if abs(u - v) < 1e-9 * max(1.0, abs(u)):
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
    """Log-log slope of err(n); NaN when fewer than two points."""
    if len(ns) < 2 or any(e <= 0 for e in errs):
        return math.nan
    return float(np.polyfit(np.log(np.asarray(ns, float)),
                            np.log(np.asarray(errs, float)), 1)[0])


def convergence_scan(sc, n_list, grid, progress=None) -> dict:
    """Sup-norm error of the scaled kernel against the scenario reference.

    sc is a scenario (see rmtlab.scenarios): per n it builds the
    potential, solves the equilibrium problem, marks the critical point
    and fits the recurrence; the last stage alone names the law, and
    None compares successive n instead (scaling collapse), which a
    single n cannot do (ValidationError).  Errors
    are on |kernel| when sc.compare_abs is set.  A failing stage
    re-raises its ValidationError or NumericalError with the n named.
    """
    grid = np.asarray(grid, dtype=float)
    ns = list(n_list)
    if not ns:
        raise ValidationError("convergence scan needs at least one n")
    stages = []
    for i, n in enumerate(ns, start=1):
        try:
            p = sc.make_potential(n)
            em = sc.equilibrium(p)
            cp = sc.critical_point(em)
            r, q = sc.recurrence(p)
            g = scaled_kernel_grid(r, p, cp, grid)
            if i == len(ns):
                law = sc.reference_law(em, cp)
        except (ValidationError, NumericalError) as e:
            raise type(e)(f"convergence scan failed at stage n={n}: {e}") from e
        stages.append((n, np.abs(g) if sc.compare_abs else g))
        if progress is not None:
            progress(n)

    if law is None:
        if len(stages) < 2:
            raise ValidationError(f"{sc.name} has no reference law: its scaling-collapse "
                                  f"scan compares successive n and needs two, got {ns}")
        rows = [{"n": n2, "against": n1, "sup_error": float(np.max(np.abs(a - b)))}
                for (n1, a), (n2, b) in zip(stages, stages[1:])]
        ref_meta = {"kind": "self"}
    else:
        ref_fn, ref_meta = law
        ref_vals = np.array([[ref_fn(float(a), float(b)) for b in grid] for a in grid])
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
