"""Finite-n correlation kernels and their double-scaled limits.

The projection kernel onto polynomials of degree < n under the weight,

    K_n(x, y) = h_{n-1}^{-1} sqrt(w(x) w(y))
                (p_n(x) p_{n-1}(y) - p_n(y) p_{n-1}(x)) / (x - y),

is evaluated through the weighted orthonormal functions
psi_j = sqrt(w) p_j / sqrt(h_j), which stay of order one where p_j and
w separately overflow and underflow.  Closed-form sine, Airy and
Bessel kernels serve as references for the double-scaling checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import CriticalPoint
from .errors import NumericalError, ValidationError
from .orthopoly import QuadratureRule, Recurrence
from .potential import Potential, log_weight
from .specfun import airy_ai, bessel_j

_CONFLUENT_REL = 1e-8


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Kernel evaluations on a u x v grid with scaling metadata."""

    u_grid: np.ndarray
    v_grid: np.ndarray
    values: np.ndarray
    meta: dict


# ---------------------------------------------------------------------------
# finite-n kernel


def _psi_rows(r: Recurrence, p: Potential, x: np.ndarray):
    """psi_n, psi_{n-1} and the bracket-derivative rows chi_n, chi_{n-1}.

    chi_j = sqrt(w) p_j' / sqrt(h_j) carries only the polynomial
    derivative (no weight derivative); that is the piece the confluent
    kernel diagonal needs, because the sqrt(w(x) w(y)) prefactor is
    symmetric and drops out of the x -> y limit.  log w is -inf off the
    domain, so every row vanishes there.
    """
    n = p.n
    if r.m_max < n:
        raise ValidationError(
            f"recurrence reaches degree {r.m_max}, kernel degree n={n} needs more")
    lw = log_weight(p, x)
    with np.errstate(over="ignore"):
        sw = np.exp(0.5 * lw)
    psi_prev = np.zeros_like(sw)
    psi_cur = sw / math.sqrt(r.h[0])
    chi_prev = np.zeros_like(sw)
    chi_cur = np.zeros_like(sw)
    beta_prev = 0.0
    for j in range(n):
        beta_next = math.sqrt(r.b[j])
        psi_new = ((x - r.a[j]) * psi_cur - beta_prev * psi_prev) / beta_next
        chi_new = (psi_cur + (x - r.a[j]) * chi_cur - beta_prev * chi_prev) / beta_next
        psi_prev, psi_cur = psi_cur, psi_new
        chi_prev, chi_cur = chi_cur, chi_new
        beta_prev = beta_next
    return psi_cur, psi_prev, chi_cur, chi_prev


def kernel_diag(r: Recurrence, p: Potential, x) -> np.ndarray:
    """K_n(x, x) by the confluent (derivative) form, vectorized."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    psi_n, psi_m, chi_n, chi_m = _psi_rows(r, p, xa)
    beta_n = math.sqrt(r.b[p.n - 1])
    out = beta_n * (chi_n * psi_m - chi_m * psi_n)
    if np.isscalar(x):
        return float(out[0])
    return out


def kernel_matrix(r: Recurrence, p: Potential, xs, ys) -> np.ndarray:
    """K_n on a grid of real points; off-domain points give 0.

    One recurrence pass over the distinct points of xs and ys.  Pairs
    within 1e-8 * scale of the diagonal take the confluent value, the
    mean of the two points' diagonals, so K(xs, xs) is exactly symmetric.
    """
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    pts, inv = np.unique(np.concatenate((xa, ya)), return_inverse=True)
    ix, iy = inv[:xa.size], inv[xa.size:]
    psi_n, psi_m, chi_n, chi_m = _psi_rows(r, p, pts)
    beta_n = math.sqrt(r.b[p.n - 1])
    pnx, pmx, pny, pmy = psi_n[ix], psi_m[ix], psi_n[iy], psi_m[iy]
    dx = xa[:, None] - ya[None, :]
    num = beta_n * (pnx[:, None] * pmy[None, :] - pny[None, :] * pmx[:, None])
    tol = _CONFLUENT_REL * p.scale()
    close = np.abs(dx) < tol
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(close, 0.0, num) / np.where(close, 1.0, dx)
    if np.any(close):
        diag = beta_n * (chi_n * psi_m - chi_m * psi_n)
        ii, jj = np.nonzero(close)
        kx, ky = diag[ix[ii]], diag[iy[jj]]
        # K(x, y) carries sqrt(w(x) w(y)) and diag is 0 exactly where w
        # is (off the domain, at a charge), so a pair with one such point
        # gives 0, not half the other diagonal; with two the mean is 0
        out[ii, jj] = np.where((kx == 0.0) != (ky == 0.0), 0.0, 0.5 * (kx + ky))
    return out


def cd_kernel(r: Recurrence, p: Potential, x: float, y: float) -> float:
    """K_n(x, y); points off the domain contribute 0.

    Within 1e-8 * scale of the diagonal the confluent form (analytic
    derivative of the recurrence) replaces the difference quotient.
    """
    return float(kernel_matrix(r, p, [float(x)], [float(y)])[0, 0])


def scaled_kernel_grid(r: Recurrence, p: Potential, cp: CriticalPoint,
                       u_grid, v_grid=None) -> KernelGrid:
    """Scaled kernel on a grid; validates the grid stays in the domain."""
    u = np.asarray(u_grid, dtype=float)
    v = u if v_grid is None else np.asarray(v_grid, dtype=float)
    s = float(p.n) ** (-cp.delta)
    xs = cp.x_star + s * u
    ys = cp.x_star + s * v
    bad = int(np.count_nonzero(~p.support.contains(xs))
              + np.count_nonzero(~p.support.contains(ys)))
    if bad:
        raise ValidationError(f"{bad} scaled grid points leave the domain at n={p.n}")
    values = s * kernel_matrix(r, p, xs, ys)
    meta = {"n": p.n, "x_star": cp.x_star, "delta": cp.delta, "scaled": True,
            "kind": cp.kind, "order_k": cp.order_k}
    grid = KernelGrid(u_grid=u, v_grid=v, values=values, meta=meta)
    _check_grid_invariants(grid)
    return grid


def kernel_grid(r: Recurrence, p: Potential, x_grid, y_grid=None) -> KernelGrid:
    """Unscaled K_n on a grid; off-domain points give 0 and are counted."""
    x = np.asarray(x_grid, dtype=float)
    y = x if y_grid is None else np.asarray(y_grid, dtype=float)
    outside = int(np.count_nonzero(~p.support.contains(x))
                  + np.count_nonzero(~p.support.contains(y)))
    values = kernel_matrix(r, p, x, y)
    meta = {"n": p.n, "x_star": None, "delta": None, "scaled": False,
            "outside_points": outside}
    grid = KernelGrid(u_grid=x, v_grid=y, values=values, meta=meta)
    _check_grid_invariants(grid)
    return grid


def _check_grid_invariants(grid: KernelGrid) -> None:
    same = grid.u_grid.shape == grid.v_grid.shape and np.array_equal(
        grid.u_grid, grid.v_grid)
    if not same:
        return
    vals = grid.values
    scale = max(1.0, float(np.max(np.abs(vals)))) if vals.size else 1.0
    asym = float(np.max(np.abs(vals - vals.T))) if vals.size else 0.0
    if asym > 1e-10 * scale:
        raise NumericalError(f"kernel grid asymmetry {asym:.3g} exceeds tolerance")
    dmin = float(np.min(np.diag(vals))) if vals.size else 0.0
    if dmin < -1e-12 * scale:
        raise NumericalError(f"kernel diagonal dips to {dmin:.3g}; not a density")


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
    integral = np.sum(q.base * rows[0::2] * rows[1::2], axis=1)
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
    ju = bessel_j(alpha, math.sqrt(u))[0] if u > 0.0 else bessel_j(alpha, 0.0)[0]
    jv = bessel_j(alpha, math.sqrt(v))[0] if v > 0.0 else bessel_j(alpha, 0.0)[0]
    return (ju * _sqrt_jprime(alpha, v) - jv * _sqrt_jprime(alpha, u)) / (2.0 * (u - v))


def reference_grid(kind: str, u_grid, v_grid=None, alpha: float = 0.0) -> KernelGrid:
    """sine/airy/bessel reference kernel tabulated on a grid."""
    funcs = {
        "sine": sine_kernel,
        "airy": airy_kernel,
        "bessel": lambda a, b: bessel_kernel(alpha, a, b),
    }
    if kind not in funcs:
        raise ValidationError(f"unknown reference kernel {kind!r}")
    f = funcs[kind]
    u = np.asarray(u_grid, dtype=float)
    v = u if v_grid is None else np.asarray(v_grid, dtype=float)
    vals = np.array([[f(float(a), float(b)) for b in v] for a in u])
    return KernelGrid(u_grid=u, v_grid=v, values=vals,
                      meta={"reference": kind, "alpha": alpha})


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

    sc is a scenario object (see rmtlab.scenarios): it builds the
    potential per n, solves the equilibrium problem, marks the critical
    point, and supplies the reference law.  reference "self" compares
    successive n against each other (scaling collapse) instead of a
    closed form.  Errors are compared on |kernel| when the scenario
    carries charges on the scaled axis.
    """
    grid = np.asarray(grid, dtype=float)
    stages = []
    ns = list(n_list)
    md = None
    for n in ns:
        stage = f"n={n}"
        try:
            p = sc.make_potential(n)
            em = sc.equilibrium(p)
            cp = sc.critical_point(em, p)
            r, q = sc.recurrence(p)
            g = scaled_kernel_grid(r, p, cp, grid)
            md = sc.model_data(em, cp, p)
            stages.append((n, g))
        except Exception as e:
            raise NumericalError(f"convergence scan failed at stage {stage}: {e}") from e
        if progress is not None:
            progress(n)
    use_abs = getattr(sc, "compare_abs", False)

    rows = []
    if sc.reference == "self":
        for (n1, g1), (n2, g2) in zip(stages, stages[1:]):
            a = np.abs(g1.values) if use_abs else g1.values
            b = np.abs(g2.values) if use_abs else g2.values
            rows.append({"n": n2, "against": n1,
                         "sup_error": float(np.max(np.abs(a - b)))})
        pair_ns = [row["n"] for row in rows]
        errs = [row["sup_error"] for row in rows]
        ref_meta = {"kind": "self"}
    else:
        ref_fn, ref_meta = sc.reference_law(md)
        ref_vals = np.array([[ref_fn(float(a), float(b)) for b in grid] for a in grid])
        if use_abs:
            ref_vals = np.abs(ref_vals)
        for n, g in stages:
            vals = np.abs(g.values) if use_abs else g.values
            rows.append({"n": n, "sup_error": float(np.max(np.abs(vals - ref_vals)))})
        pair_ns = [row["n"] for row in rows]
        errs = [row["sup_error"] for row in rows]
    return {
        "scenario": getattr(sc, "name", "?"),
        "reference": ref_meta,
        "grid": [float(g) for g in grid],
        "compare_abs": bool(use_abs),
        "rows": rows,
        "fitted_decay": _fit_decay(pair_ns, errs),
    }
