"""Critical points of spectral data and their local model problems.

A point x_* is critical when the spectral curve y = h sqrt(R) degenerates
there: extra zeros of h at or near x_*, a pole of R (hard edge), or a
variational equality point off the support (birth of a cut).  Zooming in
with z = x_* + n^{-delta} zeta and rescaling y by n^{1-delta} produces a
scaled curve yhat whose data (interval I, scaled charges B, tail
coefficients tau_inf, log coefficient c_hat) pins down the universal
local model.

Scaling exponents:

    edge      k in {-1, 0, 2, 4, ...}   delta = 2/(2k+3)   (k = -1: hard edge)
    interior  k >= 0                    delta = 1/(2k+1)
    exterior  k >= 1                    delta = 1/(2k)

with the exponent balance (m_h + (m_R - m_p)/2 + 1) delta = 1, where m_h,
m_R, m_p count h-roots, R-zeros and R-poles absorbed into the point.

Left edges are mirrored (CriticalPoint.mirrored: zeta = n^delta (x_* - x))
so every edge model has its support on the negative axis; the mirror
prefactor is fixed exactly by the per-factor branch phases, no fitting
involved.  The scaled curve is a plain SpectralCurve in zeta; its n is
the zoom, and model data take n from the potential they describe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import NumericalError, ValidationError
from .potential import IntervalSet
from .equilibrium import (
    EquilibriumMeasure,
    SpectralCurve,
    _expansion_at_infinity,
    _path_integral,
    h_roots,
    xi_eval,
)

_LOWEST_K = {"edge": -1, "interior": 0, "exterior": 1}  # edge k >= 0 is even
_SERIES_EXTRA = 6  # series_at_infinity keeps 2 max(k, 0) + 6 coefficients
_DISC_FRACTION = 0.05  # charge-collection disc radius floor, in model scales
_Z_REF = 8.0  # |zeta| where xihat is matched to its series


def _delta_frac(kind: str, k: int) -> Fraction:
    if kind == "edge":
        return Fraction(2, 2 * k + 3)
    if kind == "interior":
        return Fraction(1, 2 * k + 1)
    return Fraction(1, 2 * k)  # exterior


def _unit_phase(e: int) -> complex:
    # (-i)^e without floating point residue
    return (1 + 0j, -1j, -1 + 0j, 1j)[e % 4]


@dataclass(frozen=True)
class CriticalPoint:
    """A classified point of the spectral data.

    m_h, m_r, m_p record how many h-roots, R-zeros and R-poles sit within
    radius of x_star; radius is the clustering tolerance used to find the
    point and later delimits the local window of the scaled curve.
    (kind, order_k) must be a row of the module docstring's table.
    """

    x_star: float
    kind: str
    order_k: int
    side: str = "none"  # "left"/"right" for edges
    m_h: int = 0
    m_r: int = 0
    m_p: int = 0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in _LOWEST_K:
            raise ValidationError(f"unknown critical point kind {self.kind!r}")
        k = self.order_k
        if k < _LOWEST_K[self.kind] or (self.kind == "edge" and k > 0 and k % 2):
            raise ValidationError(f"{self.kind} point cannot have order k={k}")

    @property
    def delta(self) -> float:
        """Blow-up exponent of (kind, order_k); see the module docstring."""
        return float(_delta_frac(self.kind, self.order_k))

    @property
    def mirrored(self) -> bool:
        """A left edge, whose scaled coordinate is zeta = n^delta (x_* - x)."""
        return self.kind == "edge" and self.side == "left"


@dataclass(frozen=True)
class ScaledCharge:
    location: complex
    alpha: float
    tau: tuple[complex, ...]


@dataclass(frozen=True)
class ModelData:
    """Canonical data of the local model problem at critical point cp."""

    cp: CriticalPoint
    n: int
    window: IntervalSet
    charges: tuple[ScaledCharge, ...]
    tau_inf: tuple[float, ...]
    c_hat: float
    e_series: tuple[float, ...]


# ---------------------------------------------------------------------------
# locating and classifying


def _cluster(points, tol: float):
    """Group complex points whose mutual chain distance is <= tol."""
    pts = list(points)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i, p in enumerate(pts):
        groups.setdefault(find(i), []).append(p)
    return list(groups.values())


def _ambiguity_check(anchor: float, roots, member_count: int, tol: float):
    near3 = sum(1 for r in roots if abs(r - anchor) <= 3 * tol)
    if near3 != member_count:
        raise NumericalError(
            f"ambiguous clustering at x={anchor:.6g}: {member_count} h-roots "
            f"within tol but {near3} within 3*tol; candidate orders differ, "
            "adjust proximity_tol"
        )


def find_critical_points(em: EquilibriumMeasure,
                         proximity_tol: float | None = None) -> list[CriticalPoint]:
    """Locate and classify all critical points of the solved measure.

    Returns every support endpoint (order from h-roots clustered there,
    k = -1 at hard edges), interior points where h vanishes on the
    support, exterior equality points, and singularity locations sitting
    on the support.  Root clusters within proximity_tol merge into a
    single point; a cluster that would change order under a 3x larger
    tolerance is reported as an error rather than guessed.
    """
    p = em.potential
    tol = 1e-7 * p.scale() if proximity_tol is None else float(proximity_tol)
    if tol <= 0:
        raise ValidationError("proximity_tol must be positive")
    curve = em.curve
    roots = list(h_roots(curve))
    points: list[CriticalPoint] = []

    def mrp(x):
        m_r = sum(1 for z in curve.zeros if abs(z - x) <= tol)
        m_p = sum(1 for q in curve.poles if abs(q - x) <= tol)
        return m_r, m_p

    # edges: every boundary point of the support
    edge_locs = []
    for lo, hi in em.support.intervals:
        edge_locs.append((lo, "left"))
        edge_locs.append((hi, "right"))
    for e, side in edge_locs:
        members = [r for r in roots if abs(r - e) <= tol]
        _ambiguity_check(e, roots, len(members), tol)
        m_r, m_p = mrp(e)
        m_h = len(members)
        if m_p > 0:
            if m_h > 0:
                raise NumericalError(
                    f"h vanishes at the hard edge x={e:.6g}; configuration unsupported"
                )
            k = -1
        else:
            if m_h % 2 != 0:
                raise NumericalError(
                    f"edge at x={e:.6g} carries {m_h} h-roots; only even orders occur"
                )
            k = m_h
        points.append(CriticalPoint(
            x_star=float(e), kind="edge", order_k=k, side=side,
            m_h=m_h, m_r=m_r, m_p=m_p, radius=tol))

    def covered(x):
        return any(abs(x - cp.x_star) <= tol for cp in points)

    # h-root clusters on the support or at equality points; a cluster is
    # "at" a real point when every member is within tol of the centroid
    for grp in _cluster(roots, 2 * tol):
        centroid = complex(np.mean(grp))
        if abs(centroid.imag) > 3 * tol:
            continue
        if abs(centroid.imag) > tol:
            raise NumericalError(
                f"ambiguous clustering near x={centroid.real:.6g}: h-roots sit "
                f"{abs(centroid.imag):.3g} off the axis, between proximity_tol "
                "and 3x proximity_tol; order 0 and order "
                f"{len(grp)} both fit, adjust proximity_tol"
            )
        x = centroid.real
        if covered(x):
            continue  # absorbed into an edge
        if any(abs(r - centroid) > tol for r in grp):
            raise NumericalError(
                f"ambiguous clustering at x={x:.6g}: cluster spread exceeds "
                "proximity_tol; adjust proximity_tol"
            )
        _ambiguity_check(x, roots, len(grp), tol)
        m_h = len(grp)
        m_r, m_p = mrp(x)
        if em.support.contains(x):
            if m_h % 2 != 0:
                raise NumericalError(
                    f"h has an odd-order root at x={x:.6g} inside the support; "
                    "the density changes sign there"
                )
            k = m_h // 2
            points.append(CriticalPoint(
                x_star=x, kind="interior", order_k=k,
                m_h=m_h, m_r=m_r, m_p=m_p, radius=tol))
        elif any(abs(x - e) <= tol for e in em.exterior_points):
            if m_h % 2 != 1:
                raise NumericalError(
                    f"equality point at x={x:.6g} carries {m_h} h-roots; "
                    "expected an odd count"
                )
            k = (m_h + 1) // 2
            points.append(CriticalPoint(
                x_star=x, kind="exterior", order_k=k,
                m_h=m_h, m_r=m_r, m_p=m_p, radius=tol))
        # an off-support root with a strict variational gap is not critical

    # singular weight points sitting on the support: bulk charge points
    for s in p.singularities:
        if abs(s.b.imag) > tol:
            continue
        x = float(s.b.real)
        if covered(x) or not em.support.contains(x):
            continue
        points.append(CriticalPoint(
            x_star=x, kind="interior", order_k=0, radius=tol))

    return sorted(points, key=lambda cp: cp.x_star)


def nearest_critical_point(em: EquilibriumMeasure, x: float) -> CriticalPoint:
    """The critical point of em nearest x (the first one on a tie)."""
    return min(find_critical_points(em), key=lambda cp: abs(cp.x_star - x))


def bulk_point(em: EquilibriumMeasure, x: float) -> CriticalPoint:
    """Regular interior point (k = 0, delta = 1) for bulk kernel scaling."""
    if not em.support.contains(x):
        raise ValidationError(f"x={x:.6g} is not inside the support")
    return CriticalPoint(x_star=float(x), kind="interior", order_k=0,
                         radius=1e-7 * em.potential.scale())


# ---------------------------------------------------------------------------
# scaled curve


def scaled_curve(em: EquilibriumMeasure, cp: CriticalPoint, n: int) -> SpectralCurve:
    """Local scaling limit yhat(zeta) of n^{1-delta} y(x_* + n^{-delta} zeta).

    yhat = hhat(zeta) prod sqrt(zeta - z) / prod sqrt(zeta - p) is a
    SpectralCurve in zeta, evaluated by curve_eval (cuts run left from
    each sqrt point): h holds hhat's ascending complex coefficients with
    the exact prefactor folded in, zeros and poles the scaled branch
    points.  The near factors (within cp.radius of x_star) are kept
    exactly in scaled coordinates; the far factors contribute their
    boundary value at x_star.  A mirrored point (cp.mirrored) comes out
    in zeta = n^delta (x_* - x), with the prefactor phase corrected per
    sqrt factor.
    """
    curve = em.curve
    xs, rad = cp.x_star, cp.radius
    mirror = cp.mirrored
    roots = list(h_roots(curve))
    near_h = [r for r in roots if abs(r - xs) <= rad]
    far_h = [r for r in roots if abs(r - xs) > rad]
    near_z = [z for z in curve.zeros if abs(z - xs) <= rad]
    far_z = [z for z in curve.zeros if abs(z - xs) > rad]
    near_p = [q for q in curve.poles if abs(q - xs) <= rad]
    far_p = [q for q in curve.poles if abs(q - xs) > rad]

    m_h, m_r, m_p = len(near_h), len(near_z), len(near_p)
    balance = (2 * m_h + m_r - m_p + 2) * _delta_frac(cp.kind, cp.order_k)
    if balance != 2:
        raise NumericalError(
            f"exponent balance violated at x={xs:.6g}: "
            f"(m_h + (m_R - m_p)/2 + 1) delta = {balance / 2} != 1"
        )

    hc = np.trim_zeros(np.asarray(curve.h, dtype=float), "b")
    h_lead = hc[-1] if len(hc) else 0.0
    x0 = complex(xs, -0.0) if mirror else complex(xs, +0.0)
    far = h_lead
    for r in far_h:
        far *= x0 - r
    for z in far_z:
        far *= np.sqrt(np.complex128(x0 - z))
    for q in far_p:
        far /= np.sqrt(np.complex128(x0 - q))

    s = float(n) ** cp.delta
    if mirror:
        pref = -far * (-1) ** m_h * _unit_phase(m_r - m_p)
        sigma = [s * (xs - r) for r in near_h]
        zh = sorted(s * (xs - z) for z in near_z)
        ph = sorted(s * (xs - q) for q in near_p)
    else:
        pref = far
        sigma = [s * (r - xs) for r in near_h]
        zh = sorted(s * (z - xs) for z in near_z)
        ph = sorted(s * (q - xs) for q in near_p)

    coeffs = _poly_from_roots(sigma)
    return SpectralCurve(h=tuple((complex(pref) * coeffs).tolist()), zeros=tuple(zh),
                         poles=tuple(ph))


def _poly_from_roots(roots) -> np.ndarray:
    """Ascending coefficients of prod (x - r), 1 for no roots.

    The linear factors of the sorted roots are multiplied one after another.
    """
    rs = np.sort(np.asarray(roots))
    factors = [np.array([-r, 1], dtype=rs.dtype) for r in rs]
    return reduce(np.convolve, factors) if factors else np.ones(1)


def _leading_power(sc: SpectralCurve) -> Fraction:
    return Fraction(len(sc.h) - 1) + Fraction(len(sc.zeros) - len(sc.poles), 2)


def series_at_infinity(sc: SpectralCurve, k: int) -> np.ndarray:
    """Coefficients qhat_l of yhat = zeta^m sum_l qhat_l zeta^{-l}.

    sc is a scaled curve at a point of order k: m is 2k (interior),
    k + 1/2 (edges, including k = -1), 2k - 1 (exterior).  The
    truncation order is 2 max(k, 0) + 6.
    """
    order = 2 * max(k, 0) + _SERIES_EXTRA
    # yhat = zeta^((#zeros - #poles)/2) hhat(zeta)
    #        * prod_poles (1 - q/zeta)^(-1/2) * prod_zeros (1 - z/zeta)^(1/2)
    return _expansion_at_infinity(sc.h, sc.poles, sc.zeros, order)


# ---------------------------------------------------------------------------
# model data extraction


def _termwise_antiderivative(q: np.ndarray, mpow: Fraction, z: complex):
    """-(1/2) int yhat termwise: power terms plus a log when m - l = -1."""
    tot = 0.0j
    for l, ql in enumerate(q):
        e = mpow - l
        if e == -1:
            tot += -0.5 * ql * np.log(z)
        else:
            ee = float(e) + 1.0
            tot += -0.5 * ql * z**ee / ee
    return tot


def _series_constant(sc: SpectralCurve, q: np.ndarray) -> complex:
    """Constant term of xihat = -(1/2) int yhat, integrated from the
    right-most scaled branch point (0 when there is none)."""
    mpow = _leading_power(sc)
    base = complex(max(sc.zeros + sc.poles, default=0.0))
    vals = []
    for th in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        z = _Z_REF * complex(math.cos(th), math.sin(th))
        xi_hat = -0.5 * _path_integral(sc, base, z)
        vals.append(xi_hat - _termwise_antiderivative(q, mpow, z))
    vals = np.array(vals)
    if np.max(np.abs(vals - vals.mean())) > 1e-7 * max(1.0, abs(vals.mean())):
        raise NumericalError(
            "constant term of xihat did not stabilize; raise the series order"
        )
    return complex(vals.mean())


def _real_part(v: complex, what: str) -> float:
    if abs(v.imag) > 1e-7 * max(1.0, abs(v)):
        raise NumericalError(f"{what} should be real, got {v:.6g}")
    return float(v.real)


def extract_model_data(em: EquilibriumMeasure, cp: CriticalPoint) -> ModelData:
    """Assemble the local model data (I, B, tau_inf, c_hat) at cp.

    The zoom n is em.potential.n, the n that scales the charges too.

    E_j come from the termwise antiderivative of the scaled curve:
      interior  xihat = -i/(2k+1) sum E_j zeta^j + O(1/zeta)
      edge      zeta^{-1/2} xihat = -2/(2k+3) sum E_j zeta^j + O(1/zeta)
      exterior  xihat = -c_hat log zeta - 1/(2k) sum E_j zeta^j + O(1/zeta)
    The interior constant entry is shifted by the accumulated phase
    (2k+1)(n i xi_+(x_*) + pi a+), with a+ the total charge to the right
    of the window; sub-leading interior entries enter tau_inf doubled,
    matching the worked normalization of the merge family.
    """
    p = em.potential
    n, k = p.n, cp.order_k
    # charges at distance O(n^-delta) must fall inside the collection disc,
    # so its radius is floored at a fixed fraction of the model scale
    rad = max(cp.radius, _DISC_FRACTION * p.scale())
    sc = scaled_curve(em, cp, n)
    q = series_at_infinity(sc, k)
    s = float(n) ** cp.delta
    flip = -1.0 if cp.mirrored else 1.0

    if cp.kind == "edge":
        e_vals = []
        for j in range(k + 2):
            l = k + 1 - j
            e_vals.append(_real_part((2 * k + 3) * q[l] / (2 * (2 * j + 1)),
                                     f"E_{j}"))
        tau = tuple(e_vals)
        c_hat = 0.0
        lead = tau[k + 1]
        if k == -1 and not lead < 0:
            raise NumericalError(f"hard edge needs tau_inf,0 < 0, got {lead:.6g}")
        if k >= 0 and not lead > 0:
            raise NumericalError(f"soft edge needs tau_inf,{k+1} > 0, got {lead:.6g}")
    elif cp.kind == "interior":
        e_vals = [0.0] * (2 * k + 2)
        for j in range(1, 2 * k + 2):
            e_vals[j] = _real_part((2 * k + 1) * q[2 * k + 1 - j] / (2.0 * 1j * j),
                                   f"E_{j}")
        const = _series_constant(sc, q)
        e_vals[0] = _real_part((2 * k + 1) * 1j * const, "E_0")
        xi_plus = xi_eval(em, cp.x_star, side=+1)
        alpha_right = sum(sg.alpha for sg in p.singularities
                          if sg.b.real > cp.x_star + rad)
        shift = (2 * k + 1) * (float((n * 1j * xi_plus).real) + math.pi * alpha_right)
        tau_list = [2.0 * v for v in e_vals[: 2 * k + 1]] + [e_vals[2 * k + 1]]
        tau_list[0] += shift
        tau = tuple(tau_list)
        c_hat = 0.0
        if not tau[2 * k + 1] > 0:
            raise NumericalError(
                f"interior point needs tau_inf,{2*k+1} > 0, got {tau[2*k+1]:.6g}")
    else:  # exterior
        e_vals = [0.0] * (2 * k + 1)
        for j in range(1, 2 * k + 1):
            e_vals[j] = _real_part(k * q[2 * k - j] / j, f"E_{j}")
        c_hat = _real_part(q[2 * k] / 2.0, "c_hat") if 2 * k < len(q) else 0.0
        const = _series_constant(sc, q)
        e_vals[0] = _real_part(-2 * k * const, "E_0")
        tau = tuple(e_vals)

    charges = []
    for sg in p.singularities:
        if abs(sg.b - cp.x_star) <= rad:
            loc = flip * s * (sg.b - cp.x_star)
            tvec = tuple((flip ** j) * s * t for j, t in enumerate(sg.t, start=1))
            charges.append(ScaledCharge(location=complex(loc), alpha=sg.alpha,
                                        tau=tvec))
    locs = [c.location for c in charges]
    for c in charges:
        if not any(abs(np.conj(c.location) - o) <= 1e-9 * max(1.0, abs(o))
                   for o in locs):
            raise NumericalError("scaled charges are not closed under conjugation")

    ends = [e for e in p.support.finite_endpoints() if abs(e - cp.x_star) <= rad]
    if cp.kind == "edge":
        ehat = flip * s * (ends[0] - cp.x_star) if ends else 0.0
        window = IntervalSet(((-math.inf, float(ehat)),))
    else:
        window = IntervalSet(((-math.inf, math.inf),))

    return ModelData(cp=cp, n=n, window=window, charges=tuple(charges), tau_inf=tau,
                     c_hat=c_hat, e_series=tuple(e_vals))


# ---------------------------------------------------------------------------
# plain-dict reports for serialization


def _c_pair(v: complex):
    return [float(np.real(v)), float(np.imag(v))]


def critical_point_dict(cp: CriticalPoint) -> dict:
    return {
        "x_star": cp.x_star, "kind": cp.kind, "order_k": cp.order_k,
        "delta": cp.delta, "side": cp.side,
        "m_h": cp.m_h, "m_r": cp.m_r, "m_p": cp.m_p,
    }


def model_data_dict(md: ModelData) -> dict:
    return {
        "kind": md.cp.kind, "order_k": md.cp.order_k, "delta": md.cp.delta,
        "x_star": md.cp.x_star, "n": md.n,
        "window": [[lo, hi] for lo, hi in md.window.intervals],
        "charges": [
            {"location": _c_pair(c.location), "alpha": c.alpha,
             "tau": [_c_pair(t) for t in c.tau]}
            for c in md.charges
        ],
        "tau_inf": list(md.tau_inf),
        "c_hat": md.c_hat,
        "e_series": list(md.e_series),
    }
