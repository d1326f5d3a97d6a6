"""Equilibrium measures and spectral curves.

The equilibrium measure solved here minimizes the Coulomb energy
int int log(1/|x-y|) dmu dmu + int V_reg dmu over probability measures on
the domain; solve_support refuses a potential with pole terms (V_sing),
whose measure needs the whole V.  Its density is encoded by the
spectral curve

    y(z) = h(z) sqrt(R(z)),      rho(x) = y_+(x) / (2 pi i),

where h is a real polynomial and R is rational with simple zeros and
poles exactly at the support endpoints (poles mark hard edges).  The
normalization at infinity is y(z) ~ V'_reg(z) - 2/z.

Endpoint equations.  Writing sqrt(R) ~ z^D at infinity and expanding
V'_reg / sqrt(R) = h + sum_{j>=1} c_j z^{-j}, the normalization is
equivalent to c_1 = ... = c_D = 0 and c_{D+1} = 2, which is what the
endpoint solver below enforces.  The expansion coefficients come from
exact binomial-series convolution, so h is obtained without any
polynomial division.

Solver.  Each support structure is a list of layouts (_layouts): a map
from k unknowns to the zeros and poles of R, the c_j it pins, a box for
the unknowns, starts and refusal messages.  one_cut takes (centre, log
half-width) with c_1 = 0 and c_2 = 2; symmetric_two_cut takes (log a,
log(b - a)) with c_1 = 0 and c_3 = 2, c_2 vanishing by symmetry;
hard_edge_one_cut has one layout per finite domain endpoint, with the
soft endpoint s as its unknown, c_1 = 2, and starts that climb away from
the edge.  One damped Newton iteration (_newton, a forward-difference
Jacobian on Python floats) solves every layout from each of its starts;
the first curve that stays in the domain with a nonnegative density
wins and alone fixes the frozen EquilibriumMeasure(potential, curve).
It runs on numpy and the standard library alone.

Closed forms.  quartic_measure (V = t x^2/2 + x^4/4) writes its curve
down with no solve, accurate near the merge point t = -2, where the
endpoint solve cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .potential import IntervalSet, Potential, Singularity, v_reg
from .quad import clustered_rule

_M_RULE = 400  # nodes per support component for the cached density rule
_M_PATH = 400  # nodes per segment of a log-integral or xi path rule
_M_MASS = 200  # nodes of the mass_right_of rule
_BLOCK = 16  # points per (points, nodes) batch of log integrals
_M_FLOOR = 2000  # density samples per component in the negativity check
_GRID_POINTS = 200  # check_variational samples on the support, 1/8 per off-support segment
_EXCLUSION_RADIUS = 0.05  # off-support samples skipped around equality points
_BOX_PAD = 2.0  # off-support check reach past the support, in model scales
_EXTERIOR_TOL = 1e-7  # relative variational tightness of an equality point
_NEWTON_ITER = 30  # Newton steps per start of an endpoint solve
_NEWTON_HALVINGS = 4  # step halvings before a start is abandoned
_EPS = float(np.finfo(float).eps)
_FD_STEP = math.sqrt(_EPS)  # relative forward-difference step
# soft-endpoint starts of a hard-edge solve, as fractions of the way from the
# edge to the far end; on a half-line the first lies 1e-6 model scales out
_HARD_EDGE_STARTS = (2e-8, 2e-5, 0.02, 0.2, 0.5, 0.8, 0.98)
# fractions of the way from the edge to a soft endpoint s at which c_1 - 2
# must keep one sign before s is taken as the root nearest the edge
_BRACKET = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
_ABERTH_ITER = 100  # Aberth sweeps before h_roots refuses
_ABERTH_ANGLE = 0.4  # start angle offset: no start on the axis, none conjugate

STRUCTURES = ("one_cut", "symmetric_two_cut", "hard_edge_one_cut")


@dataclass(frozen=True)
class SpectralCurve:
    """y(z) = h(z) * sqrt(R(z)) with R = prod(z-zeros)/prod(z-poles).

    h holds ascending coefficients, complex for a scaled curve
    (classify.scaled_curve).  Branch cuts of sqrt(R) fall exactly on the
    support when each factor uses the principal branch, and sqrt(R) ~ +z^D
    on the positive real axis beyond all branch points.
    """

    h: tuple[complex, ...]
    zeros: tuple[float, ...]
    poles: tuple[float, ...]

    def branch_points(self) -> tuple[float, ...]:
        return tuple(sorted(self.zeros + self.poles))


def h_roots(curve: SpectralCurve) -> np.ndarray:
    """Roots of the real polynomial h, without LAPACK (np.roots).

    Zero low-order coefficients give exact zeros, appended last as
    np.roots does.  Degree 1 and 2 take closed forms: -c_0/c_1; an exact
    pair +-sqrt(|c_0/c_2|) (negative root first) or its imaginary
    counterpart when c_1 = 0; the conjugates (-b +- i sqrt(4ac - b^2))/2a
    (positive imaginary part first) for a negative discriminant; and the
    cancellation-free q/a, c/q otherwise.  Degree 3 and up go to
    _aberth_roots.  The result is float64 when every root is real.
    """
    c = np.trim_zeros(np.asarray(curve.h, dtype=float), "b")
    lead_zeros = len(c) - len(np.trim_zeros(c, "f"))
    c = c[lead_zeros:]
    if len(c) <= 1:
        roots = np.array([])
    elif len(c) == 2:
        roots = np.array([-c[0] / c[1]])
    elif len(c) == 3:
        roots = _quadratic_roots(*c)
    else:
        roots = _aberth_roots(c)
    roots = np.concatenate((roots, np.zeros(lead_zeros, roots.dtype)))
    return roots.real if np.iscomplexobj(roots) and not roots.imag.any() else roots


def _quadratic_roots(c, b, a) -> np.ndarray:
    """Both roots of a x^2 + b x + c with a, c != 0 (see h_roots)."""
    if b == 0.0:
        t = -c / a
        s = math.sqrt(abs(t))
        return np.array([-s, s]) if t > 0.0 else np.array([1j * s, -1j * s])
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        re, im = -b / (2.0 * a), math.sqrt(-disc) / abs(2.0 * a)
        return np.array([complex(re, im), complex(re, -im)])
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return np.array([q / a, c / q])


def _aberth_roots(c: np.ndarray) -> np.ndarray:
    """All roots of a real polynomial (ascending c, c[0] != 0) by Aberth-Ehrlich.

    Every sweep corrects all d approximations (Aberth, Math. Comp. 27,
    1973; Bini, Numer. Algorithms 13, 1996), which start on the circle of
    radius |c_0/c_d|^(1/d), with p and p' by Horner on Python complex
    numbers.  Corrections run in Gauss-Seidel order, each seeing the
    approximations already moved in its sweep: with simultaneous (Jacobi)
    updates a root cluster drew more approximations than its multiplicity
    in 40 of 3 000 seeded polynomials with a multiple root beside a
    simple one, against none this way.  An approximation is frozen once
    its correction is below 4 eps |z| or |p(z)| is below 4 eps times the
    Horner bound sum |c_k| |z|^k, where p carries no further information
    (at a multiple root).  The iteration refuses after _ABERTH_ITER
    sweeps or on a step that is not finite.
    """
    d = len(c) - 1
    rev = [float(v) for v in c[::-1]]
    radius = abs(rev[-1] / rev[0]) ** (1.0 / d)
    angles = [2.0 * math.pi * k / d + _ABERTH_ANGLE for k in range(d)]
    z = [complex(radius * math.cos(t), radius * math.sin(t)) for t in angles]
    active = [True] * d
    for _ in range(_ABERTH_ITER):
        for k, zk in enumerate(z):
            if not active[k]:
                continue
            p, dp, bound, az = complex(rev[0]), 0j, abs(rev[0]), abs(zk)
            for coef in rev[1:]:
                dp = dp * zk + p
                p = p * zk + coef
                bound = bound * az + abs(coef)
            if abs(p) <= 4.0 * _EPS * bound:
                active[k] = False
                continue
            try:
                step = p / (dp - p * sum(1.0 / (zk - zj) for j, zj in enumerate(z) if j != k))
            except ZeroDivisionError:  # two approximations met, or p' = p * sum
                step = math.inf
            if not math.isfinite(abs(step)):
                raise NumericalError(f"roots of h (degree {d}): Aberth step is not finite")
            z[k] = zk - step
            active[k] = abs(step) > 4.0 * _EPS * abs(z[k])
        if not any(active):
            return _conjugate_closure(np.array(z))
    raise NumericalError(f"roots of h (degree {d}) did not converge in "
                         f"{_ABERTH_ITER} Aberth sweeps")


def _conjugate_closure(z: np.ndarray) -> np.ndarray:
    """Converged roots of a real polynomial, snapped onto the axis or into pairs.

    The roots of a real polynomial are closed under conjugation, so an
    approximation whose conjugate lies nearer to itself than to any other
    is returned real, and two that are each other's nearest conjugate
    become an exact pair (their mean).  A pair is returned adjacent,
    positive imaginary part first, as np.roots orders it, so a product
    over the roots in order stays real.
    """
    nearest = np.argmin(np.abs(np.subtract.outer(z.conj(), z)), axis=1)
    out = []
    for k, j in enumerate(nearest):
        if j == k:
            out.append(complex(z[k].real))
        elif nearest[j] != k:
            out.append(z[k])
        elif z[k].imag > z[j].imag:
            w = 0.5 * (z[k] + z[j].conjugate())
            out += [w, w.conjugate()]
    return np.array(out)


def curve_eval(curve: SpectralCurve, z):
    """y(z); evaluate at x+0j (x-0j) for boundary values from above (below)."""
    zc = np.asarray(z, dtype=complex)
    h = np.zeros_like(zc)
    for c in reversed(curve.h):
        h = h * zc + c
    root = np.ones_like(zc)
    for r in curve.zeros:
        root = root * np.sqrt(zc - r)
    for q in curve.poles:
        root = root / np.sqrt(zc - q)
    return h * root


def _on_axis(x, side: int):
    """Complex array on the real axis approached from side (+1 above)."""
    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.shape, dtype=complex)
    out.real = arr
    out.imag = 0.0 * side  # signed zero selects the branch
    return out


def _rho(curve: SpectralCurve, x):
    """Im y_+(x) / (2 pi): the density at points x of the support."""
    return curve_eval(curve, _on_axis(x, +1)).imag / (2.0 * np.pi)


def _path_integral(curve: SpectralCurve, a, b, side: int | None = None) -> complex:
    """int_a^b y(s) ds on a segment; side (+1 above) for boundary values on the axis."""
    s, w = clustered_rule(a, b, _M_PATH)
    if side is not None:
        s = _on_axis(s.real, side)
    return complex(np.sum(w * curve_eval(curve, s)))


# ---------------------------------------------------------------------------
# Laurent expansion at infinity


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


def _expansion_at_infinity(coeffs, inverse, direct, m: int) -> np.ndarray:
    """e_0..e_m of poly(z) prod_inverse (1 - r/z)^(-1/2) prod_direct (1 - q/z)^(1/2).

    coeffs are poly's ascending coefficients; e_l multiplies z^(len(coeffs) - 1 - l).
    """
    sigma = _series_product(
        [_half_series(r, m, inverse=True) for r in inverse]
        + [_half_series(q, m, inverse=False) for q in direct],
        m,
    )
    deg = len(coeffs) - 1
    e = np.zeros(deg + m + 1, dtype=np.result_type(np.asarray(coeffs), sigma))
    # ascending k, each product and sum rounded on its own: np.convolve may
    # hand the sums to a BLAS dot that reorders or fuses them
    for k, c in enumerate(coeffs):
        e[deg - k: deg - k + m + 1] += c * sigma
    return e[: m + 1]


def _laurent_split(vc: np.ndarray, zeros, poles, jmax: int):
    """h coefficients and c_1..c_jmax of V'_reg / sqrt(R) at infinity."""
    nz, npo = len(zeros), len(poles)
    if (nz - npo) % 2 != 0:
        raise NumericalError("sqrt(R) needs an even count of zeros minus poles")
    # V'_reg / sqrt(R) = z^-D V'_reg(z) prod (1 - r/z)^-1/2 prod (1 - q/z)^1/2,
    # so e_l multiplies z^(top - l); _layouts' degree checks keep top >= -1
    top = len(vc) - 1 - (nz - npo) // 2
    e = _expansion_at_infinity(vc, zeros, poles, len(vc) + jmax + 1)
    h = e[top::-1] if top >= 0 else np.zeros(1)
    return h, e[top + 1: top + 1 + jmax]


# ---------------------------------------------------------------------------
# equilibrium measure container


@dataclass(frozen=True, eq=False)
class EquilibriumMeasure:
    """Equilibrium measure built from its potential and spectral curve alone.

    support, rules (per component: nodes, rho-weighted weights), ell and
    exterior_points derive from the curve; a mass != 1, or a variational
    value above ell off the support, is NumericalError."""

    potential: Potential
    curve: SpectralCurve
    support: IntervalSet = field(init=False)
    rules: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)
    ell: float = field(init=False)
    exterior_points: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        support = _component_intervals(self.curve)
        object.__setattr__(self, "support", support)
        rules = []
        for lo, hi in support.intervals:
            x, w = clustered_rule(lo, hi, _M_RULE)
            rules.append((x, w * density(self, x)))
        object.__setattr__(self, "rules", tuple(rules))
        if abs(sum(self.masses) - 1.0) > 1e-6:
            raise NumericalError(f"equilibrium mass {sum(self.masses):.12g} != 1; "
                                 "endpoint solve is inconsistent")
        # ell makes the variational value vanish at the middle of the widest component
        lo, hi = max(support.intervals, key=lambda iv: iv[1] - iv[0])
        object.__setattr__(self, "ell", float(_variational_values(self, [0.5 * (lo + hi)])[0]))
        object.__setattr__(self, "exterior_points", _find_exterior_points(self))

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(float(np.sum(w)) for _, w in self.rules)

    @property
    def p_sup(self) -> float:
        """Rightmost point of support plus equality points."""
        pts = [self.support.hi, *self.exterior_points]
        return max(pts)


def density(em: EquilibriumMeasure, x):
    """rho(x) = Im y_+(x) / (2 pi) on the support, 0 off it."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    vals = np.zeros(arr.shape)
    inside = em.support.contains(arr)
    if np.any(inside):
        vals[inside] = _rho(em.curve, arr[inside])
    return float(vals[0]) if scalar else vals


def _log_integrals(em: EquilibriumMeasure, x: np.ndarray) -> np.ndarray:
    """int log|x - y| rho(y) dy at each point of x, splitting at a point
    on the support; row k of every (points, nodes) array is point k."""
    total = np.zeros(x.size)
    for (lo, hi), (xs, ws) in zip(em.support.intervals, em.rules):
        on = (lo < x) & (x < hi)
        with np.errstate(divide="ignore"):
            total[~on] += np.sum(ws * np.log(np.abs(x[~on, None] - xs)), axis=1)
        xo = x[on]
        for a, b in ((lo, xo), (xo, hi)):
            t, wt = clustered_rule(a, b, _M_PATH)
            total[on] += np.sum(wt * density(em, t) * np.log(np.abs(xo[:, None] - t)),
                                axis=1)
    return total


def g_eval(em: EquilibriumMeasure, z):
    """g(z) = int log(z - x) dmu(x); real z gives the boundary value from above."""
    zc = np.asarray(z, dtype=complex)
    scalar = zc.ndim == 0
    zc = np.atleast_1d(zc).copy()
    on_axis = zc.imag == 0.0
    zc[on_axis] = _on_axis(zc[on_axis].real, +1)
    out = np.zeros(zc.shape, dtype=complex)
    for xs, ws in em.rules:
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
        return -0.5 * _path_integral(em.curve, p_pt, zc)
    x = zc.real
    if x == p_pt:
        return 0j  # empty path; its rule would sit on a pole of R at a hard edge
    if x > p_pt:
        return -0.5 * _path_integral(em.curve, p_pt, x, +1)
    cuts = [b for b in em.curve.branch_points() if x < b < p_pt]
    stops = [x] + sorted(cuts) + [p_pt]
    total = 0.0j
    for a, b in zip(stops, stops[1:]):
        total += _path_integral(em.curve, a, b, side)
    return 0.5 * total  # orientation: -1/2 int_p^x = +1/2 int_x^p


def _variational_values(em: EquilibriumMeasure, x) -> np.ndarray:
    """2 int log|x-y| dmu(y) - V_reg(x) at each point of x."""
    x = np.asarray(x, dtype=float)
    total = np.empty(x.size)
    # blocks of _BLOCK points keep the (points, nodes) temporaries small
    for i in range(0, x.size, _BLOCK):
        total[i:i + _BLOCK] = _log_integrals(em, x[i:i + _BLOCK])
    return 2.0 * total - v_reg(em.potential, x)


def check_variational(em: EquilibriumMeasure):
    """Residuals of the variational conditions.

    Returns a dict with the on-support equality residuals (should vanish)
    and the off-support values of 2 int log|x-y| dmu - V_reg - ell (should
    be strictly negative away from equality points).  Off the support the
    samples fill the gaps and an end segment on each side out to
    _BOX_PAD model scales past the support or the outermost exterior
    point there, clipped to the domain; samples within
    _EXCLUSION_RADIUS of an exterior point are skipped.
    """
    spans = [hi - lo for lo, hi in em.support.intervals]
    total_span = sum(spans)
    sup_x = []
    for (lo, hi), span in zip(em.support.intervals, spans):
        k = max(2, int(round(_GRID_POINTS * span / total_span)))
        pad = span * 1e-3
        sup_x.extend(np.linspace(lo + pad, hi - pad, k))

    scale = em.potential.scale()
    off_segments = []
    for glo, ghi in em.support.gaps():
        off_segments.append((glo, ghi))
    dom = em.potential.support
    left_end = max(dom.lo, min((em.support.lo, *em.exterior_points)) - _BOX_PAD * scale)
    right_end = min(dom.hi, max((em.support.hi, *em.exterior_points)) + _BOX_PAD * scale)
    if left_end < em.support.lo:
        off_segments.append((left_end, em.support.lo))
    if right_end > em.support.hi:
        off_segments.append((em.support.hi, right_end))

    off_x = []
    for lo, hi in off_segments:
        width = hi - lo
        pad = width * 5e-3
        for x in np.linspace(lo + pad, hi - pad, max(4, _GRID_POINTS // 8)):
            if not dom.contains(x):
                continue
            if any(abs(x - e) < _EXCLUSION_RADIUS for e in em.exterior_points):
                continue
            off_x.append(x)

    sup_r = np.abs(_variational_values(em, sup_x) - em.ell)
    off_q = _variational_values(em, off_x) - em.ell
    return {
        "support_x": np.array(sup_x),
        "support_residual": sup_r,
        "eq_max": max(sup_r.tolist()) if sup_x else 0.0,
        "off_x": np.array(off_x),
        "off_value": off_q,
        "ineq_max": max(off_q.tolist()) if off_x else -math.inf,
    }


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
# endpoint solver


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
        rho = _rho(curve, x)
        i = int(np.argmin(rho))
        if rho[i] < worst[0]:
            worst = (float(rho[i]), float(x[i]))
    return worst


def _check_curve(p: Potential, curve: SpectralCurve, verdict: str) -> None:
    """Refuse a curve whose support leaves a domain interval, or whose
    density dips below -1e-9 of its largest value."""
    support = _component_intervals(curve)
    for lo, hi in support.intervals:
        if any(dlo - 1e-8 <= lo and hi <= dhi + 1e-8 for dlo, dhi in p.support.intervals):
            continue
        if p.support.contains(lo, tol=1e-8) and p.support.contains(hi, tol=1e-8):
            glo, ghi = max(p.support.gaps(), key=lambda g: min(hi, g[1]) - max(lo, g[0]))
            raise NumericalError(
                f"support component [{lo:.6g}, {hi:.6g}] crosses the domain gap "
                f"({glo:.6g}, {ghi:.6g}), where the weight vanishes"
            )
        raise NumericalError(
            f"support component [{lo:.6g}, {hi:.6g}] escapes the domain; "
            "a hard-edge structure fits this configuration"
        )
    floor, where = _density_floor(curve, support)
    rho_scale = max(1e-300, float(np.max(np.abs(_rho(
        curve, np.linspace(support.lo + 1e-6, support.hi - 1e-6, 101))))))
    if floor < -1e-9 * rho_scale:
        raise NumericalError(f"negative density near x={where:.6g}: {verdict}")


def _find_exterior_points(em: EquilibriumMeasure) -> tuple[float, ...]:
    """Real zeros of h off the support where the variational bound is tight.

    Off the support q = 2 int log|x-y| dmu - V_reg - ell has q' = -y, so
    its maxima there sit at real zeros of h or at finite domain endpoints;
    q > 0 at any of them refuses the measure."""
    pts = []
    scale = em.potential.scale()
    tol = _EXTERIOR_TOL * max(1.0, abs(em.ell))
    cands = [(float(r.real), True) for r in h_roots(em.curve) if abs(r.imag) <= 1e-8 * scale]
    cands += [(e, False) for e in em.potential.support.finite_endpoints()]
    for x, is_zero in cands:
        if em.support.contains(x, tol=1e-8 * scale):
            continue
        if not em.potential.support.contains(x):
            continue
        q = float(_variational_values(em, [x])[0] - em.ell)
        if q > tol:
            raise NumericalError(
                f"the equilibrium measure violates the variational inequality at "
                f"x={x:.6g} ({q:+.3g}): the support needs "
                + ("another cut" if is_zero else "to reach this domain end"))
        if is_zero and abs(q) < tol:
            pts.append(x)
    return tuple(sorted(pts))


def _newton(resid, u0):
    """Damped Newton on F(u) = 0 in k = 1 or 2 unknowns; returns (u, max|F(u)|).

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
        jac = []  # jac[j][i] = dF_i/du_j
        for j in range(len(u)):
            hj = _FD_STEP * max(abs(u[j]), 1.0)
            up = list(u)
            up[j] += hj
            jac.append([(float(v) - fv) / hj for v, fv in zip(resid(up), f)])
        if len(u) == 1:
            det = jac[0][0]
        else:
            (j00, j10), (j01, j11) = jac
            det = j00 * j11 - j01 * j10
        if not (math.isfinite(det) and det != 0.0):
            break
        if len(u) == 1:
            step = [-f[0] / det]
        else:  # Cramer's rule
            step = [(j01 * f[1] - j11 * f[0]) / det, (j10 * f[0] - j00 * f[1]) / det]
        lam = 1.0
        for _ in range(_NEWTON_HALVINGS + 1):
            trial = [v + lam * d for v, d in zip(u, step)]
            ft = [float(v) for v in resid(trial)]
            if math.hypot(*ft) < norm:
                break
            lam *= 0.5
        else:
            break
        u, f, norm = trial, ft, math.hypot(*ft)
        if lam * max(map(abs, step)) <= 1e-14 * max(map(abs, u)):
            break
    return tuple(u), max(map(abs, f))


def _center_guess(p: Potential) -> float:
    lo = p.support.lo if math.isfinite(p.support.lo) else -10.0 * p.scale()
    hi = p.support.hi if math.isfinite(p.support.hi) else 10.0 * p.scale()
    x = np.linspace(lo, hi, 801)
    return float(x[int(np.argmin(v_reg(p, x)))])


@dataclass(frozen=True)
class _Layout:
    """Branch points as a function of k unknowns, and what pins them.

    ends(u) gives the curve's (zeros, poles).  pins[j - 1] is the value
    c_j must take, or None for a free c_j; each unknown stays inside its
    open box interval.  failure refuses a layout no start solves, verdict
    a solution whose density goes negative.  edge is the hard edge a
    single unknown s climbs from (None for soft layouts): a root s is
    taken only if the residual keeps one sign between the edge and s.
    """

    ends: Callable
    pins: tuple[float | None, ...]
    box: tuple[tuple[float, float], ...]
    starts: tuple[tuple[float, ...], ...]
    failure: str
    verdict: str = "requested structure infeasible"
    edge: float | None = None


def _one_cut_ends(u):
    c0, w = u[0], math.exp(u[1])
    return [c0 - w, c0 + w], []


def _symmetric_two_cut_ends(u):
    a = math.exp(u[0])
    b = a + math.exp(u[1])
    return [-b, -a, a, b], []


def _layouts(p: Potential, structure: str, vc: np.ndarray) -> list[_Layout]:
    """The layouts a structure tries, in order."""
    sc = p.scale()
    if structure == "symmetric_two_cut":
        # unknowns (log a, log(b - a)); c_2 vanishes by symmetry, so it is free
        if p.reg_degree() < 4:
            raise NumericalError("symmetric_two_cut needs degree >= 4 in V_reg")
        even = vc[0::2]
        if np.max(np.abs(even)) > 1e-12 * max(1.0, np.max(np.abs(vc))):
            raise NumericalError("symmetric_two_cut requires an even potential")
        return [_Layout(
            _symmetric_two_cut_ends, (0.0, None, 2.0), ((-40.0, 40.0), (-40.0, 40.0)),
            ((math.log(0.5 * sc), math.log(sc)), (math.log(0.1 * sc), math.log(2 * sc)),
             (0.0, 0.5)),
            "symmetric_two_cut endpoint equations did not converge "
            "(near a merge point, one_cut may be the right structure)")]
    if p.reg_degree() == 0:
        raise NumericalError(f"{structure} needs a nonconstant V_reg")
    if structure == "one_cut":
        # unknowns (centre, log half-width)
        x0 = _center_guess(p)
        return [_Layout(
            _one_cut_ends, (0.0, 2.0), ((-1e8, 1e8), (-40.0, 40.0)),
            tuple((x0, s0) for s0 in (0.0, 0.7, -0.7, 1.4)),
            "one_cut endpoint equations did not converge")]
    # hard_edge_one_cut: the soft endpoint s, with the hard edge pinned at
    # each finite domain endpoint in turn and s between it and the far end
    # (50 model scales out on a half-line).  c_1 - 2 is -2 at the edge; the
    # starts climb away from it, so a root near the edge is tried first
    out = []
    for lo, hi in p.support.intervals:
        for edge, far in ((hi, lo), (lo, hi)):
            if not math.isfinite(edge):
                continue
            if not math.isfinite(far):
                far = edge + math.copysign(50.0 * sc, far)
            out.append(_Layout(
                lambda u, edge=edge: ([u[0]], [edge]), (2.0,),
                ((min(edge, far), max(edge, far)),),
                tuple((edge + t * (far - edge),) for t in _HARD_EDGE_STARTS),
                "hard_edge_one_cut: no soft endpoint balances the mass condition",
                f"hard edge at {edge:.6g} infeasible", edge))
    if not out:
        raise NumericalError("hard_edge_one_cut needs a finite domain endpoint")
    return out


def _nearest_root(resid, edge: float, s: float) -> bool:
    """The residual has one sign at every _BRACKET point strictly between
    edge and s, so no sample separates a root nearer the edge than s."""
    vals = [float(v) for t in _BRACKET for v in resid([edge + t * (s - edge)])]
    signs = {(v > 0.0) - (v < 0.0) for v in vals}
    return len(signs) == 1 and 0 not in signs


def _solve_layout(p: Potential, vc: np.ndarray, layout: _Layout) -> SpectralCurve:
    """The curve of the first start whose endpoint equations hold to 1e-10
    and which _check_curve accepts; else the first curve's refusal, or the
    layout's failure when no start converges.  A hard-edge root is judged
    only if it is the nearest one the edge reaches (_nearest_root)."""
    jmax = len(layout.pins)

    def resid(u):
        if not all(lo < v < hi for v, (lo, hi) in zip(u, layout.box)):
            return [1e8 * (1 + abs(v)) for v in u]
        _, c = _laurent_split(vc, *layout.ends(u), jmax)
        return [cj - pin for cj, pin in zip(c, layout.pins) if pin is not None]

    err = None
    for u0 in layout.starts:
        u, fmax = _newton(resid, u0)
        if not fmax < 1e-10:
            continue
        if layout.edge is not None and not _nearest_root(resid, layout.edge, u[0]):
            continue
        zeros, poles = layout.ends(u)
        h, _ = _laurent_split(vc, zeros, poles, jmax)
        curve = SpectralCurve(h=tuple(h), zeros=tuple(sorted(zeros)),
                              poles=tuple(sorted(poles)))
        try:
            _check_curve(p, curve, layout.verdict)
        except NumericalError as e:
            err = err or e
            continue
        return curve
    raise err or NumericalError(layout.failure)


def solve_support(p: Potential, structure: str = "one_cut") -> EquilibriumMeasure:
    """Solve the equilibrium problem under the requested support structure.

    structure: "one_cut" (two soft edges), "symmetric_two_cut" (even
    potential, mirror-image cuts), or "hard_edge_one_cut" (one support
    endpoint pinned at a finite domain endpoint).  Each layout of the
    structure (_layouts) is solved in turn, from each of its starts in
    turn; the first curve whose support components each lie in one
    domain interval and whose density is nonnegative gives the measure,
    and the last layout's refusal is raised when none does.  A potential
    with a nonzero pole coefficient is refused with ValidationError: the
    solver balances V_reg alone, and the measure it returned for it
    would be that of V without V_sing.
    """
    if structure not in STRUCTURES:
        raise ValidationError(f"unknown structure {structure!r}; pick from {STRUCTURES}")
    poles = [(i, j) for i, s in enumerate(p.singularities)
             for j, c in enumerate(s.t, 1) if c != 0]
    if poles:
        i, j = poles[0]
        raise ValidationError(
            f"singularities[{i}] has pole coefficient t_{j} != 0: the equilibrium "
            f"solve covers V_reg and log charges only, not pole terms")
    # V'_reg = sum t_j z^(j-1), without trailing zeros: one curve per model
    vc = np.asarray(p.reg[:p.reg_degree()], dtype=float)
    for layout in _layouts(p, structure, vc):
        try:
            curve = _solve_layout(p, vc, layout)
        except NumericalError as e:
            err = e
            continue
        return EquilibriumMeasure(p, curve)
    raise err


# ---------------------------------------------------------------------------
# closed-form model families


def quartic_merge_coupling(tau: float, n: int) -> tuple[float, float]:
    """(t, eps) of the quartic-merge family: eps = tau n^{-2/3}, t = -2 + eps."""
    eps = tau * float(n) ** (-2.0 / 3.0)
    return -2.0 + eps, eps


def quartic_measure(p: Potential, eps: float) -> EquilibriumMeasure:
    """The one-cut closed form of example_curve("quartic") for p itself.

    p has V' = t x + x^3 on the whole line with t = p.reg[1], and eps is
    t + 2 as its caller computed it (exactly, where t came from eps).
    The density is checked only for eps >= 0.
    """
    t = p.reg[1]
    if t <= 0.0:
        a = math.sqrt((2.0 / 3.0) * ((2.0 - eps) + math.sqrt(16.0 - eps * (4.0 - eps))))
        c = eps * (4.0 - eps) / (
            4.0 * (math.sqrt(4.0 - 0.25 * eps * (4.0 - eps)) + 2.0 - eps))
    else:
        a = math.sqrt(8.0 / (t + math.sqrt(t * t + 12.0)))
        c = (t + math.sqrt(0.25 * t * t + 3.0)) / 3.0
    curve = SpectralCurve(h=(2.0 * c, 0.0, 1.0), zeros=(-a, a), poles=())
    if eps >= 0.0:
        _check_curve(p, curve, "requested structure infeasible")
    return EquilibriumMeasure(p, curve)


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
    and c = (t + sqrt(t^2/4 + 3))/3.  For t <= 0 both are written in
    eps = t + 2, where 4 - t^2 = eps (4 - eps) stays exact for tiny eps;
    for t > 0 they are the textbook c and a^2 = 8/(t + sqrt(t^2 + 12)).
    Neither form cancels.  For t < -2 this is the analytic continuation
    of the one-cut family, which is the family the merge-scaling
    formulas address; the density check is skipped there.

    "quartic_merge": the quartic at t = -2 + tau n^{-2/3}, with
    eps = tau n^{-2/3} taken as computed, so the curve data stays
    accurate to machine precision even for n around 10^15.  tau < 0
    continues the one-cut family past the merge point (density check
    skipped).

    "marchenko_pastur": V_reg = -x on (-inf, 0] with log charges alpha1
    at 0 and alpha2 at tau/n^2; curve y = -sqrt((z+4)/z), a hard edge at
    the origin.
    """
    if name in ("quartic", "quartic_merge"):
        if name == "quartic":
            t_eff, eps = float(t), float(t) + 2.0
        else:
            t_eff, eps = quartic_merge_coupling(tau, n)
        p = Potential(
            n=n,
            reg=(0.0, t_eff, 0.0, 1.0),
            singularities=(),
            support=IntervalSet(((-math.inf, math.inf),)),
        )
        return quartic_measure(p, eps)
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
        return EquilibriumMeasure(p, SpectralCurve(h=(-1.0,), zeros=(-4.0,), poles=(0.0,)))
    raise ValidationError(f"unknown example family {name!r}")


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
