"""Equilibrium measures and spectral curves.

The equilibrium measure minimizes the Coulomb energy
int int log(1/|x-y|) dmu dmu + int V_reg dmu over probability measures on
the domain.  Its density is encoded by the spectral curve

    y(z) = h(z) sqrt(R(z)),      rho(x) = y_+(x) / (2 pi i),

where h is a real polynomial and R is rational with simple zeros and
poles exactly at the support endpoints (poles mark hard edges).  The
normalization at infinity is y(z) ~ V'_reg(z) - 2/z.

Endpoint equations.  Writing sqrt(R) ~ z^D at infinity and expanding
V'_reg / sqrt(R) = h + sum_{j>=1} c_j z^{-j}, the normalization is
equivalent to c_1 = ... = c_D = 0 and c_{D+1} = 2, which is what the
structure solvers below enforce.  The expansion coefficients come from
exact binomial-series convolution, so h is obtained without any
polynomial division.

Solvers.  one_cut and symmetric_two_cut solve their two endpoint
equations with _newton_2x2, a damped Newton iteration with a
forward-difference Jacobian, from a fixed list of starts.
hard_edge_one_cut has one equation in the soft endpoint: it scans a grid
for the first sign change and bisects it to adjacent doubles (_bisect).
Both run on numpy and the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .potential import IntervalSet, Potential, Singularity, v_reg
from .quad import clustered_rule

_M_RULE = 400  # nodes per support component for the cached density rule
_M_PATH = 400  # nodes per segment of a log-integral or xi path rule
_M_MASS = 200  # nodes of the mass_right_of rule
_M_FLOOR = 2000  # density samples per component in the negativity check
_EXCLUSION_RADIUS = 0.05  # off-support samples skipped around equality points
_BOX_PAD = 2.0  # off-support check reach past the support, in model scales
_EXTERIOR_TOL = 1e-7  # relative variational tightness of an equality point
_NEWTON_ITER = 30  # Newton steps per start of an endpoint solve
_NEWTON_HALVINGS = 4  # step halvings before a start is abandoned
_FD_STEP = math.sqrt(np.finfo(float).eps)  # relative forward-difference step

STRUCTURES = ("one_cut", "symmetric_two_cut", "hard_edge_one_cut")


@dataclass(frozen=True)
class SpectralCurve:
    """y(z) = sign * h(z) * sqrt(R(z)) with R = prod(z-zeros)/prod(z-poles).

    h holds ascending coefficients.  Branch cuts of sqrt(R) fall exactly
    on the support when each factor uses the principal branch, and
    sqrt(R) ~ +z^D on the positive real axis beyond all branch points.
    """

    h: tuple[float, ...]
    zeros: tuple[float, ...]
    poles: tuple[float, ...]
    sign: float = 1.0

    def branch_points(self) -> tuple[float, ...]:
        return tuple(sorted(self.zeros + self.poles))


def sqrt_r(curve: SpectralCurve, z):
    zc = np.asarray(z, dtype=complex)
    out = np.ones_like(zc)
    for r in curve.zeros:
        out = out * np.sqrt(zc - r)
    for q in curve.poles:
        out = out / np.sqrt(zc - q)
    return out


def h_val(curve: SpectralCurve, z):
    zc = np.asarray(z, dtype=complex)
    out = np.zeros_like(zc)
    for c in reversed(curve.h):
        out = out * zc + c
    return out


def h_roots(curve: SpectralCurve) -> np.ndarray:
    c = np.trim_zeros(np.asarray(curve.h, dtype=float), "b")
    if len(c) <= 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


def curve_eval(curve: SpectralCurve, z):
    """y(z); evaluate at x+0j (x-0j) for boundary values from above (below)."""
    return curve.sign * h_val(curve, z) * sqrt_r(curve, z)


def _on_axis(x, side: int):
    """Complex array on the real axis approached from side (+1 above)."""
    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.shape, dtype=complex)
    out.real = arr
    out.imag = 0.0 * side  # signed zero selects the branch
    if side < 0:
        out.imag = -0.0
    return out


# ---------------------------------------------------------------------------
# Laurent expansion of V'_reg / sqrt(R) at infinity


def _half_series(r, m: int, inverse: bool) -> np.ndarray:
    """Coefficients of (1 - r w)^(-1/2) (inverse=True) or (1 - r w)^(1/2)."""
    a = np.empty(m + 1, dtype=np.result_type(type(r), float))
    a[0] = 1.0
    for i in range(1, m + 1):
        if inverse:
            a[i] = a[i - 1] * r * (2 * i - 1) / (2.0 * i)
        else:
            a[i] = a[i - 1] * r * (2 * i - 3) / (2.0 * i)
    return a


def _series_product(factors, m: int) -> np.ndarray:
    out = np.zeros(m + 1)
    out[0] = 1.0
    for f in factors:
        out = np.convolve(out, f)[: m + 1]
    return out


def _laurent_split(vc: np.ndarray, zeros, poles, jmax: int):
    """h coefficients and c_1..c_jmax of V'_reg / sqrt(R) at infinity."""
    nz, npo = len(zeros), len(poles)
    if (nz - npo) % 2 != 0:
        raise NumericalError("sqrt(R) needs an even count of zeros minus poles")
    d = (nz - npo) // 2
    kmax = len(vc) - 1
    m = max(kmax + jmax + 2, 1)
    sigma = _series_product(
        [_half_series(r, m, inverse=True) for r in zeros]
        + [_half_series(q, m, inverse=False) for q in poles],
        m,
    )

    def coeff(power: int) -> float:
        # coefficient of z^power in (sum_k vc[k] z^k) * z^-d * (sum sigma_m z^-m)
        tot = 0.0
        for k in range(kmax + 1):
            idx = k - d - power
            if 0 <= idx <= m:
                tot += vc[k] * sigma[idx]
        return tot

    hdeg = max(kmax - d, -1)
    h = np.array([coeff(p) for p in range(hdeg + 1)]) if hdeg >= 0 else np.zeros(1)
    c = np.array([coeff(-j) for j in range(1, jmax + 1)])
    return h, c


# ---------------------------------------------------------------------------
# equilibrium measure container


@dataclass(eq=False)
class EquilibriumMeasure:
    potential: Potential
    curve: SpectralCurve
    support: IntervalSet
    ell: float = 0.0
    masses: tuple[float, ...] = ()
    exterior_points: tuple[float, ...] = ()
    _rules: list = field(default_factory=list, repr=False)

    @property
    def p_sup(self) -> float:
        """Rightmost point of support plus equality points."""
        pts = [self.support.hi, *self.exterior_points]
        return max(pts)

    def component_rules(self):
        """Per-component quadrature (nodes, rho-weighted weights)."""
        if not self._rules:
            for lo, hi in self.support.intervals:
                x, w = clustered_rule(lo, hi, _M_RULE)
                self._rules.append((x, w * density(self, x)))
        return self._rules


def density(em: EquilibriumMeasure, x):
    """rho(x) = Im y_+(x) / (2 pi) on the support, 0 off it."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    vals = np.zeros(arr.shape)
    inside = em.support.contains(arr)
    if np.any(inside):
        y = curve_eval(em.curve, _on_axis(arr[inside], +1))
        vals[inside] = y.imag / (2.0 * np.pi)
    return float(vals[0]) if scalar else vals


def _log_integral(em: EquilibriumMeasure, x: float) -> float:
    """int log|x - y| rho(y) dy, splitting at x when x sits on the support."""
    total = 0.0
    for (lo, hi), (xs, ws) in zip(em.support.intervals, em.component_rules()):
        if lo < x < hi:
            for a, b in ((lo, x), (x, hi)):
                t, wt = clustered_rule(a, b, _M_PATH)
                total += float(np.sum(wt * density(em, t) * np.log(np.abs(x - t))))
        else:
            with np.errstate(divide="ignore"):
                total += float(np.sum(ws * np.log(np.abs(x - xs))))
    return total


def g_eval(em: EquilibriumMeasure, z):
    """g(z) = int log(z - x) dmu(x); real z gives the boundary value from above."""
    zc = np.asarray(z, dtype=complex)
    scalar = zc.ndim == 0
    zc = np.atleast_1d(zc).copy()
    on_axis = zc.imag == 0.0
    zc[on_axis] = _on_axis(zc[on_axis].real, +1)
    out = np.zeros(zc.shape, dtype=complex)
    for xs, ws in em.component_rules():
        out += np.sum(ws[None, :] * np.log(zc.reshape(-1, 1) - xs[None, :]), axis=1).reshape(zc.shape)
    return out[0] if scalar else out


def xi_eval(em: EquilibriumMeasure, z, side: int = +1):
    """xi(z) = -1/2 int_p^z y(s) ds along a path off the cuts.

    p is the rightmost point of the support (plus equality points).  For
    real z left of p the boundary value from the requested side is
    returned (side +1 above, -1 below).
    """
    zc = complex(z)
    p_pt = em.p_sup
    if zc.imag != 0.0:
        s, w = clustered_rule(p_pt, zc, _M_PATH)
        return -0.5 * complex(np.sum(w * curve_eval(em.curve, s)))
    x = zc.real
    if x == p_pt:
        return 0j  # empty path; its rule would sit on a pole of R at a hard edge
    if x > p_pt:
        s, w = clustered_rule(p_pt, x, _M_PATH)
        y = curve_eval(em.curve, _on_axis(s.real, +1))
        return -0.5 * complex(np.sum(w * y))
    cuts = [b for b in em.curve.branch_points() if x < b < p_pt]
    stops = [x] + sorted(cuts) + [p_pt]
    total = 0.0j
    for a, b in zip(stops, stops[1:]):
        s, w = clustered_rule(a, b, _M_PATH)
        y = curve_eval(em.curve, _on_axis(s.real, side))
        total += np.sum(w * y)
    return 0.5 * complex(total)  # orientation: -1/2 int_p^x = +1/2 int_x^p


def _variational_value(em: EquilibriumMeasure, x: float) -> float:
    """2 int log|x-y| dmu(y) - V_reg(x) - ell."""
    return 2.0 * _log_integral(em, x) - v_reg(em.potential, x) - em.ell


def check_variational(em: EquilibriumMeasure, grid_points: int = 200):
    """Residuals of the variational conditions.

    Returns a dict with the on-support equality residuals (should vanish)
    and the off-support values of 2 int log|x-y| dmu - V_reg - ell (should
    be strictly negative away from equality points).
    """
    spans = [hi - lo for lo, hi in em.support.intervals]
    total_span = sum(spans)
    sup_x, sup_r = [], []
    for (lo, hi), span in zip(em.support.intervals, spans):
        k = max(2, int(round(grid_points * span / total_span)))
        pad = span * 1e-3
        for x in np.linspace(lo + pad, hi - pad, k):
            sup_x.append(x)
            sup_r.append(abs(_variational_value(em, x)))

    scale = em.potential.scale()
    off_segments = []
    for glo, ghi in em.support.gaps():
        off_segments.append((glo, ghi))
    dom = em.potential.support
    left_end = max(dom.lo, em.support.lo - _BOX_PAD * scale)
    right_end = min(dom.hi, em.support.hi + _BOX_PAD * scale)
    if left_end < em.support.lo:
        off_segments.append((left_end, em.support.lo))
    if right_end > em.support.hi:
        off_segments.append((em.support.hi, right_end))

    off_x, off_q = [], []
    for lo, hi in off_segments:
        width = hi - lo
        pad = width * 5e-3
        for x in np.linspace(lo + pad, hi - pad, max(4, grid_points // 8)):
            if not dom.contains(x):
                continue
            if any(abs(x - e) < _EXCLUSION_RADIUS for e in em.exterior_points):
                continue
            off_x.append(x)
            off_q.append(_variational_value(em, x))

    return {
        "support_x": np.array(sup_x),
        "support_residual": np.array(sup_r),
        "eq_max": max(sup_r) if sup_r else 0.0,
        "off_x": np.array(off_x),
        "off_value": np.array(off_q),
        "ineq_max": max(off_q) if off_q else -math.inf,
    }


def filling_fractions(em: EquilibriumMeasure):
    """Constant value of eps(x) = mu([x, infty)) on each open gap."""
    out = []
    mass_right = list(np.cumsum(em.masses[::-1])[::-1]) + [0.0]
    for i, gap in enumerate(em.support.gaps()):
        out.append((gap, float(mass_right[i + 1])))
    return out


def mass_right_of(em: EquilibriumMeasure, x: float) -> float:
    """mu([x, infty))."""
    total = 0.0
    for (lo, hi), mass in zip(em.support.intervals, em.masses):
        if x <= lo:
            total += mass
        elif x < hi:
            t, wt = clustered_rule(x, hi, _M_MASS)
            total += float(np.sum(wt * density(em, t)))
    return total


# ---------------------------------------------------------------------------
# structure solvers


def _component_intervals(curve: SpectralCurve) -> IntervalSet:
    pts = curve.branch_points()
    if len(pts) % 2 != 0:
        raise NumericalError("odd number of branch points; cannot form cuts")
    ivals = tuple((pts[i], pts[i + 1]) for i in range(0, len(pts), 2))
    return IntervalSet(ivals)


def _density_floor(curve: SpectralCurve, support: IntervalSet):
    """Most negative density value over the support and its location."""
    worst = (0.0, None)
    for lo, hi in support.intervals:
        pad = (hi - lo) * 1e-9
        x = np.linspace(lo + pad, hi - pad, _M_FLOOR)
        rho = curve_eval(curve, _on_axis(x, +1)).imag / (2 * np.pi)
        i = int(np.argmin(rho))
        if rho[i] < worst[0]:
            worst = (float(rho[i]), float(x[i]))
    return worst


def _finish(
    p: Potential,
    curve: SpectralCurve,
    check_density: bool = True,
) -> EquilibriumMeasure:
    support = _component_intervals(curve)
    for lo, hi in support.intervals:
        if not (p.support.contains(lo, tol=1e-8) and p.support.contains(hi, tol=1e-8)):
            raise NumericalError(
                f"support component [{lo:.6g}, {hi:.6g}] escapes the domain; "
                "a hard-edge structure fits this configuration"
            )
    if check_density:
        floor, where = _density_floor(curve, support)
        rho_scale = max(
            1e-300,
            float(np.max(np.abs(curve_eval(curve, _on_axis(
                np.linspace(support.lo + 1e-6, support.hi - 1e-6, 101), +1)).imag))) / (2 * np.pi),
        )
        if floor < -1e-9 * rho_scale:
            raise NumericalError(
                f"negative density near x={where:.6g}: requested structure infeasible"
            )
    em = EquilibriumMeasure(potential=p, curve=curve, support=support)
    masses = tuple(float(np.sum(w)) for _, w in em.component_rules())
    em.masses = masses
    if abs(sum(masses) - 1.0) > 1e-6:
        raise NumericalError(
            f"equilibrium mass {sum(masses):.12g} != 1; endpoint solve is inconsistent"
        )
    # ell makes the variational value vanish at the middle of the widest
    # component; it is read while em.ell is still 0
    lo, hi = max(support.intervals, key=lambda iv: iv[1] - iv[0])
    em.ell = _variational_value(em, 0.5 * (lo + hi))
    em.exterior_points = _find_exterior_points(em)
    return em


def _find_exterior_points(em: EquilibriumMeasure) -> tuple[float, ...]:
    """Real zeros of h off the support where the variational bound is tight."""
    pts = []
    scale = em.potential.scale()
    for r in h_roots(em.curve):
        if abs(r.imag) > 1e-8 * scale:
            continue
        x = float(r.real)
        if em.support.contains(x, tol=1e-8 * scale):
            continue
        if not em.potential.support.contains(x):
            continue
        q = _variational_value(em, x)
        if abs(q) < _EXTERIOR_TOL * max(1.0, abs(em.ell)):
            pts.append(x)
    return tuple(sorted(pts))


def _newton_2x2(resid, u0):
    """Damped Newton on a 2x2 system F(u) = 0; returns (u, max|F(u)|).

    The Jacobian is a forward difference with step sqrt(eps)*max(|u_j|, 1),
    rebuilt at every step.  Each Newton step is halved until |F| (2-norm)
    drops, at most _NEWTON_HALVINGS times.  The iteration stops at F = 0,
    after a step below 1e-14 relative, or when the Jacobian is singular,
    the step finds no descent or _NEWTON_ITER steps have been taken; the
    caller judges the returned residual.  Arithmetic is on Python floats,
    which overflow to inf without a warning.
    """
    u = [float(v) for v in u0]
    f = [float(v) for v in resid(u)]
    norm = math.hypot(*f)
    for _ in range(_NEWTON_ITER):
        if not norm > 0.0:  # solved, or a non-finite residual
            break
        jac = []
        for j in range(2):
            hj = _FD_STEP * max(abs(u[j]), 1.0)
            up = list(u)
            up[j] += hj
            fj = [float(v) for v in resid(up)]
            jac.append(((fj[0] - f[0]) / hj, (fj[1] - f[1]) / hj))
        (j00, j10), (j01, j11) = jac
        det = j00 * j11 - j01 * j10
        if not (math.isfinite(det) and det != 0.0):
            break
        step = ((j01 * f[1] - j11 * f[0]) / det, (j10 * f[0] - j00 * f[1]) / det)
        lam = 1.0
        for _ in range(_NEWTON_HALVINGS + 1):
            trial = [u[0] + lam * step[0], u[1] + lam * step[1]]
            ft = [float(v) for v in resid(trial)]
            if math.hypot(*ft) < norm:
                break
            lam *= 0.5
        else:
            break
        u, f, norm = trial, ft, math.hypot(*ft)
        if lam * max(abs(step[0]), abs(step[1])) <= 1e-14 * max(abs(u[0]), abs(u[1])):
            break
    return tuple(u), max(abs(f[0]), abs(f[1]))


def _bisect(func, lo: float, hi: float) -> float:
    """Root of func in [lo, hi], where func changes sign, to adjacent doubles.

    Returns the midpoint where func vanishes exactly, otherwise the end of
    the final bracket with the smaller |func|.
    """
    flo, fhi = func(lo), func(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = func(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


def _center_guess(p: Potential) -> float:
    lo = p.support.lo if math.isfinite(p.support.lo) else -10.0 * p.scale()
    hi = p.support.hi if math.isfinite(p.support.hi) else 10.0 * p.scale()
    x = np.linspace(lo, hi, 801)
    return float(x[int(np.argmin(v_reg(p, x)))])


def _solve_one_cut(p: Potential) -> SpectralCurve:
    vc = np.asarray(p.reg, dtype=float)  # V'_reg = sum t_j z^(j-1)
    if not len(vc) or not np.any(vc):
        raise NumericalError("one_cut needs a nonconstant V_reg")
    x0 = _center_guess(p)

    def resid(u):
        c0, s = u
        if abs(s) > 40.0 or abs(c0) > 1e8:
            return [1e8 * (1 + abs(s)), 1e8 * (1 + abs(c0))]
        a, b = c0 - math.exp(s), c0 + math.exp(s)
        _, c = _laurent_split(vc, [a, b], [], 2)
        return [c[0], c[1] - 2.0]

    best = None
    for s0 in (0.0, 0.7, -0.7, 1.4):
        sol, fmax = _newton_2x2(resid, (x0, s0))
        if fmax < 1e-10:
            best = sol
            break
    if best is None:
        raise NumericalError("one_cut endpoint equations did not converge")
    c0, s = best
    a, b = c0 - math.exp(s), c0 + math.exp(s)
    h, _ = _laurent_split(vc, [a, b], [], 2)
    return SpectralCurve(h=tuple(h), zeros=(min(a, b), max(a, b)), poles=())


def _solve_symmetric_two_cut(p: Potential) -> SpectralCurve:
    vc = np.asarray(p.reg, dtype=float)  # V'_reg = sum t_j z^(j-1)
    if len(vc) < 2:
        raise NumericalError("symmetric_two_cut needs degree >= 4 in V_reg")
    even = vc[0::2]
    if np.max(np.abs(even)) > 1e-12 * max(1.0, np.max(np.abs(vc))):
        raise NumericalError("symmetric_two_cut requires an even potential")

    def resid(u):
        ga, gs = u
        if abs(ga) > 40.0 or abs(gs) > 40.0:
            return [1e8 * (1 + abs(ga)), 1e8 * (1 + abs(gs))]
        a = math.exp(ga)
        b = a + math.exp(gs)
        _, c = _laurent_split(vc, [-b, -a, a, b], [], 3)
        return [c[0], c[2] - 2.0]

    sc = p.scale()
    best = None
    for ga0, gs0 in ((math.log(0.5 * sc), math.log(sc)),
                     (math.log(0.1 * sc), math.log(2 * sc)),
                     (0.0, 0.5)):
        sol, fmax = _newton_2x2(resid, (ga0, gs0))
        if fmax < 1e-10:
            best = sol
            break
    if best is None:
        raise NumericalError(
            "symmetric_two_cut endpoint equations did not converge "
            "(near a merge point, one_cut may be the right structure)"
        )
    a = math.exp(best[0])
    b = a + math.exp(best[1])
    h, _ = _laurent_split(vc, [-b, -a, a, b], [], 3)
    return SpectralCurve(h=tuple(h), zeros=(-b, -a, a, b), poles=())


def _solve_hard_edge(p: Potential) -> SpectralCurve:
    vc = np.asarray(p.reg, dtype=float)  # V'_reg = sum t_j z^(j-1)
    if not len(vc) or not np.any(vc):
        raise NumericalError("hard_edge_one_cut needs a nonconstant V_reg")
    sc = p.scale()
    attempts = []
    for lo, hi in p.support.intervals:
        if math.isfinite(hi):
            attempts.append((hi, lo, -1))  # support [s, hi]
        if math.isfinite(lo):
            attempts.append((lo, hi, +1))  # support [lo, s]
    if not attempts:
        raise NumericalError("hard_edge_one_cut needs a finite domain endpoint")

    last_err = None
    for edge, far, direction in attempts:
        far_lim = far if math.isfinite(far) else edge + direction * 50.0 * sc
        a0 = edge + direction * 1e-6 * sc
        a1 = far_lim - direction * 1e-9 * sc if math.isfinite(far) else far_lim

        def cond(s):
            _, c = _laurent_split(vc, [s], [edge], 1)
            return c[0] - 2.0

        # first sign change along the grid, evaluating cond only up to it
        grid = np.linspace(a0, a1, 400)
        hit = None
        prev = cond(grid[0])
        for i in range(len(grid) - 1):
            val = cond(grid[i + 1])
            if np.isfinite(prev) and np.isfinite(val) and prev * val < 0:
                blo, bhi = sorted((grid[i], grid[i + 1]))
                hit = _bisect(cond, float(blo), float(bhi))
                break
            prev = val
        if hit is None:
            last_err = NumericalError(
                "hard_edge_one_cut: no soft endpoint balances the mass condition"
            )
            continue
        h, _ = _laurent_split(vc, [hit], [edge], 1)
        zeros, poles = (hit,), (edge,)
        curve = SpectralCurve(h=tuple(h), zeros=zeros, poles=poles)
        support = _component_intervals(curve)
        floor, _where = _density_floor(curve, support)
        if floor < -1e-9:
            last_err = NumericalError(
                f"negative density near x={_where:.6g}: hard edge at {edge:.6g} infeasible"
            )
            continue
        return curve
    raise last_err


def solve_support(p: Potential, structure: str = "one_cut") -> EquilibriumMeasure:
    """Solve the equilibrium problem under the requested support structure.

    structure: "one_cut" (two soft edges), "symmetric_two_cut" (even
    potential, mirror-image cuts), or "hard_edge_one_cut" (one support
    endpoint pinned at a finite domain endpoint).
    """
    if structure not in STRUCTURES:
        raise ValidationError(f"unknown structure {structure!r}; pick from {STRUCTURES}")
    if structure == "one_cut":
        curve = _solve_one_cut(p)
    elif structure == "symmetric_two_cut":
        curve = _solve_symmetric_two_cut(p)
    else:
        curve = _solve_hard_edge(p)
    return _finish(p, curve)


# ---------------------------------------------------------------------------
# closed-form model families


def example_curve(
    name: str,
    *,
    t: float = -2.0,
    n: int = 100,
    alpha1: float = 0.5,
    alpha2: float = 0.5,
    tau: float = 1.0,
) -> EquilibriumMeasure:
    """Closed-form equilibrium data for the reference families.

    "quartic": V = (t/2) x^2 + x^4/4 on the line; one-cut curve
    y = (x^2 + 2c) sqrt(x^2 - a^2) with a^2 = (2/3)(-t + sqrt(t^2+12))
    and c = (1/4)(4 - t^2)/(sqrt(t^2/4 + 3) - t) (a cancellation-free
    rearrangement of c = (t + sqrt(t^2/4+3))/3).  For t < -2 this is the
    analytic continuation of the one-cut family, which is the family the
    merge-scaling formulas address; the density check is skipped there.

    "quartic_merge": the quartic at t = -2 + tau n^{-2/3}, evaluated in
    cancellation-free form so the curve data stays accurate to machine
    precision even for n around 10^15.  tau < 0 continues the one-cut
    family past the merge point (density check skipped).

    "marchenko_pastur": V_reg = -x on (-inf, 0] with log charges alpha1
    at 0 and alpha2 at tau/n^2; curve y = -sqrt((z+4)/z), a hard edge at
    the origin.
    """
    if name == "quartic":
        a2 = (2.0 / 3.0) * (-t + math.sqrt(t * t + 12.0))
        a = math.sqrt(a2)
        if t <= 0.0:  # rationalized form avoids cancellation near t = -2
            c = 0.25 * (4.0 - t * t) / (math.sqrt(0.25 * t * t + 3.0) - t)
        else:
            c = (t + math.sqrt(0.25 * t * t + 3.0)) / 3.0
        p = Potential(
            n=n,
            reg=(0.0, float(t), 0.0, 1.0),
            singularities=(),
            support=IntervalSet(((-math.inf, math.inf),)),
        )
        curve = SpectralCurve(h=(2.0 * c, 0.0, 1.0), zeros=(-a, a), poles=())
        return _finish(p, curve, check_density=(t >= -2.0))
    if name == "quartic_merge":
        # t = -2 + eps with eps = tau n^{-2/3}; every expression is written
        # in eps so that 4 - t^2 = eps(4 - eps) stays exact for tiny eps
        eps = tau * float(n) ** (-2.0 / 3.0)
        t_eff = -2.0 + eps
        a = math.sqrt((2.0 / 3.0) * ((2.0 - eps) + math.sqrt(16.0 - eps * (4.0 - eps))))
        c = eps * (4.0 - eps) / (
            4.0 * (math.sqrt(4.0 - 0.25 * eps * (4.0 - eps)) + 2.0 - eps))
        p = Potential(
            n=n,
            reg=(0.0, t_eff, 0.0, 1.0),
            singularities=(),
            support=IntervalSet(((-math.inf, math.inf),)),
        )
        curve = SpectralCurve(h=(2.0 * c, 0.0, 1.0), zeros=(-a, a), poles=())
        return _finish(p, curve, check_density=(tau >= 0.0))
    if name == "marchenko_pastur":
        sings = []
        if alpha1 > 0:
            sings.append(Singularity(b=0.0 + 0.0j, alpha=alpha1))
        if alpha2 > 0:
            sings.append(Singularity(b=complex(tau / n**2), alpha=alpha2))
        p = Potential(
            n=n,
            reg=(-1.0,),
            singularities=tuple(sings),
            support=IntervalSet(((-math.inf, 0.0),)),
        )
        curve = SpectralCurve(h=(-1.0,), zeros=(-4.0,), poles=(0.0,))
        return _finish(p, curve)
    raise ValueError(f"unknown example family {name!r}")


# ---------------------------------------------------------------------------
# tabulation helpers for the CLI


def density_table(em: EquilibriumMeasure, points_per_component: int = 400):
    xs, rs = [], []
    for lo, hi in em.support.intervals:
        pad = (hi - lo) * 1e-6
        x = np.linspace(lo + pad, hi - pad, points_per_component)
        xs.append(x)
        rs.append(density(em, x))
    return np.concatenate(xs), np.concatenate(rs)
