"""Monic orthogonal polynomials for the eigenvalue weight.

build_quadrature discretizes the measure w(x) dx by composite
Gauss-Legendre panels (dyadically graded into charges and finite domain
endpoints, exponential-budget marching elsewhere), and
stieltjes_recurrence runs a discretized Stieltjes procedure on the
resulting point masses.  The output is the three-term recurrence

    p_{j+1}(x) = (x - a_j) p_j(x) - b_j p_{j-1}(x)

for the monic polynomials together with their squared norms h_j,
with b_j = h_j / h_{j-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError, ValidationError
from .potential import Potential, eval_potential, log_weight, validate
from .quad import segment_rule

# All degree-n work runs through sqrt(w) = e^{-n V / 2}, which stays
# representable while n V <= 2 * 690; the tail budget and the node floor
# below are set by that half-exponent reach, not by w itself.
_LOG_FLOOR = -1380.0
_EXP_BUDGET = 20.0      # max swing of n*V_reg across one plain panel
_MIN_ORDER = 12
_MAX_ORDER = 48
_MASS_TOL = 1e-9
_CLIP_TOL = 1e-8        # max polynomial mass tolerated beside an artificial cut
_EPS = np.finfo(float).eps
_OMEGA_TOL = math.sqrt(_EPS)  # semi-orthogonality level of the Lanczos vectors


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Discrete measure: sum_i base[i] e^{log_w[i]} f(nodes[i]) ~ int f(x) w(x) dx.

    base holds the bare panel weights, so sum_i base[i] f(nodes[i])
    ~ int f(x) dx over the same truncated domain.  log_w holds log w at
    the nodes, the only form of the weight kept: every degree-n
    computation starts from it (w itself underflows once n V passes
    ~708).  cut_lo / cut_hi record where an unbounded
    domain end was truncated, None at native ends.  nodes are sorted
    and strictly inside the domain.
    """

    nodes: np.ndarray
    base: np.ndarray
    log_w: np.ndarray
    provenance: str
    cut_lo: float | None = None
    cut_hi: float | None = None

    def mass(self) -> float:
        return float(np.sum(self.base * np.exp(self.log_w)))

    def weight_values(self) -> np.ndarray:
        """w at the nodes."""
        return np.exp(self.log_w)


@dataclass(frozen=True)
class Recurrence:
    """Monic three-term recurrence data up to degree m_max.

    a = (a_0, ..., a_{m_max-1}), b = (b_1, ..., b_{m_max}),
    h = (h_0, ..., h_{m_max}).
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    h: tuple[float, ...]
    m_max: int


# ---------------------------------------------------------------------------
# panel construction


def _vreg_d2(p: Potential, x: float) -> float:
    c = np.asarray(p.reg, dtype=float)
    if c.size < 2:
        return 0.0
    return float(npp.polyval(x, npp.polyder(c)))


def _truncation_point(p: Potential, x0: float, direction: float, margin: float) -> float:
    """First x beyond x0 (in the given direction) with n V_reg >= 1380 margin."""
    target = -_LOG_FLOOR * margin

    def f(x):
        return p.n * eval_potential(p, x, "reg") - target

    step = 1.0
    hi = x0 + direction * step
    guard = 0
    while f(hi) < 0.0:
        step *= 2.0
        hi = x0 + direction * step
        guard += 1
        if guard > 200:
            raise NumericalError("weight does not decay along an unbounded domain end")
    lo = x0 if step == 1.0 else x0 + direction * step / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _graded_zone(anchor: float, length: float, depth: int, direction: float):
    """depth+1 panels shrinking geometrically (ratio 1/4) toward anchor."""
    edges = [anchor + direction * length * 0.25 ** i for i in range(depth + 1)]
    edges.append(anchor)
    edges.sort()
    return list(zip(edges[:-1], edges[1:]))


def _plain_width(p: Potential, x: float, anchors, d_hint: int) -> float:
    dv1 = abs(eval_potential(p, x, "reg", derivative=1))
    dv2 = abs(_vreg_d2(p, x))
    cap = max(1.0, 0.25 * (abs(x) + 1.0))
    w = min(cap, _EXP_BUDGET / (p.n * dv1 + 1e-12))
    w = min(w, math.sqrt(2.0 * _EXP_BUDGET / (p.n * dv2 + 1e-12)))
    # keep the oscillation of a degree-d_hint polynomial under the
    # Gauss-Legendre phase budget: local wavenumber^2 ~ 2 n d V'' in
    # the bulk and ~ 2 n d V'/dist approaching a hard endpoint or
    # charge, where the node density of p_d diverges like dist^{-1/2}
    dist = min((abs(x - a) for a in anchors), default=math.inf)
    k2 = 2.0 * d_hint * (p.n * dv2 + p.n * dv1 / max(dist, 1e-300))
    w = min(w, _MIN_ORDER / math.sqrt(max(k2, 1e-12)))
    return w


def _zone_length(p: Potential, anchor: float, direction: float, limit: float,
                 anchors, d_hint: int) -> float:
    """Graded-zone reach: fixed point of w = plain_width(anchor + dir w).

    The width rule vanishes at the anchor itself, so the zone extends to
    where plain marching could take over with order-_MIN_ORDER panels.
    """
    w = limit
    for _ in range(40):
        nxt = min(limit, _plain_width(p, anchor + direction * w, anchors, d_hint))
        if nxt >= w * 0.999:
            break
        w = nxt
    return max(w, 1e-12 * max(1.0, abs(anchor)))


def _plain_panels(p: Potential, x0: float, x1: float, anchors, d_hint: int):
    """March left to right with the width rules."""
    out = []
    x = x0
    span = x1 - x0
    while x < x1 - 1e-13 * max(1.0, abs(x1)):
        w = _plain_width(p, x, anchors, d_hint)
        # look ahead once so a growing tail cannot outrun the budget
        w = min(w, _plain_width(p, min(x1, x + w), anchors, d_hint))
        w = max(w, 1e-8 * span)
        nxt = min(x1, x + w)
        out.append((x, nxt))
        x = nxt
    return out


def _is_even_model(p: Potential) -> bool:
    if any(p.reg[i] != 0.0 for i in range(0, len(p.reg), 2)):
        return False
    ivs = p.support.intervals
    mirror = tuple(sorted((-hi, -lo) for lo, hi in ivs))
    if mirror != tuple(sorted(ivs)):
        return False
    def key(s):
        return (complex(s.b), float(s.alpha), tuple(complex(c) for c in s.t))
    pool = sorted(key(s) for s in p.singularities)
    refl = sorted(
        (-complex(s.b), float(s.alpha),
         tuple((-1.0) ** (j + 1) * complex(c) for j, c in enumerate(s.t)))
        for s in p.singularities
    )
    return pool == refl


def _component_panels(p: Potential, lo: float, hi: float, depth: int,
                      margin: float, d_hint: int):
    """Panels for one domain component plus its truncation points.

    Returns (panels, start_cut, stop_cut); a cut is the truncation
    position when that end is unbounded, None at a native endpoint.
    """
    a_end = lo if math.isfinite(lo) else None
    b_end = hi if math.isfinite(hi) else None
    feats = [s.b.real for s in p.singularities
             if s.b.imag == 0.0 and lo < s.b.real < hi]
    inner_ref = [x for x in [a_end, b_end] + feats if x is not None]
    start = a_end if a_end is not None else _truncation_point(
        p, min(inner_ref, default=0.0), -1.0, margin)
    stop = b_end if b_end is not None else _truncation_point(
        p, max(inner_ref, default=0.0), +1.0, margin)

    anchors = sorted(set(feats + [x for x in (a_end, b_end) if x is not None]))
    cuts = [start] + [x for x in anchors if start < x < stop] + [stop]
    panels = []
    for u, v in zip(cuts[:-1], cuts[1:]):
        graded_u = u in anchors
        graded_v = v in anchors
        half = 0.5 * (v - u)
        lu = _zone_length(p, u, +1.0, half, anchors, d_hint) if graded_u else 0.0
        lv = _zone_length(p, v, -1.0, half, anchors, d_hint) if graded_v else 0.0
        if graded_u:
            panels += _graded_zone(u, lu, depth, +1.0)
        panels += _plain_panels(p, u + lu, v - lv, anchors, d_hint)
        if graded_v:
            panels += _graded_zone(v, lv, depth, -1.0)
    return panels, (None if a_end is not None else start), (None if b_end is not None else stop)


def build_quadrature(p: Potential, resolution: int, *, order: int | None = None,
                     grade_depth: int | None = None, degree_hint: int | None = None,
                     tail_margin: float = 1.0) -> QuadratureRule:
    """Composite Gauss-Legendre discretization of the measure w(x) dx.

    Unbounded domain ends are truncated where n V_reg exceeds
    1380*tail_margin (sqrt(w), the working representation, is below the
    double-precision floor there).
    Panels shrink dyadically (ratio 1/4, grade_depth levels, default
    ceil(log2(resolution))) into every real charge and finite domain
    endpoint; elsewhere panel widths keep the swing of n V_reg below a
    fixed budget and the oscillation of polynomials up to degree_hint
    (default resolution / 2, matching the stieltjes_recurrence validity
    margin) under the Gauss-Legendre phase budget.  The per-panel order
    is set so the total node count roughly matches resolution, floored
    at 12.  A doubled-order rule on the same panels must reproduce the
    total mass to 1e-9 relative or the rule is rejected.
    """
    validate(p)
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
    depth = int(grade_depth) if grade_depth is not None else math.ceil(math.log2(resolution))
    d_hint = int(degree_hint) if degree_hint is not None else max(8, resolution // 2)

    panels = []
    cut_lo = cut_hi = None
    even = _is_even_model(p)
    for lo, hi in p.support.intervals:
        if even:
            # build the x >= 0 half and mirror it so the discrete
            # measure is exactly symmetric; 0 is treated as an anchor,
            # which also covers a possible charge sitting there
            if hi <= 0.0:
                continue
            sub, _, c_hi = _component_panels(p, max(lo, 0.0), hi, depth,
                                             tail_margin, d_hint)
            panels += sub
            panels += [(-b, -a) for a, b in sub]
            if c_hi is not None:
                cut_hi = c_hi
                cut_lo = -c_hi
        else:
            sub, c_lo, c_hi = _component_panels(p, lo, hi, depth, tail_margin, d_hint)
            panels += sub
            if c_lo is not None and lo == p.support.intervals[0][0]:
                cut_lo = c_lo
            if c_hi is not None and hi == p.support.intervals[-1][1]:
                cut_hi = c_hi
    panels = sorted((a, b) for a, b in panels if b > a)

    if order is None:
        m = max(_MIN_ORDER, min(_MAX_ORDER, resolution // max(1, len(panels))))
    else:
        m = int(order)
        if m < 2:
            raise ValidationError("order must be at least 2")

    def assemble(mm):
        xs, ws = [], []
        for a, b in panels:
            x, w = segment_rule(a, b, mm)
            xs.append(x)
            ws.append(w)
        return np.concatenate(xs), np.concatenate(ws)

    nodes, base = assemble(m)
    lw = log_weight(p, nodes)
    keep = lw >= _LOG_FLOOR
    dropped = int(np.size(keep) - np.count_nonzero(keep))

    mass = float(np.sum(base[keep] * np.exp(lw[keep])))
    x2, b2 = assemble(2 * m)
    lw2 = log_weight(p, x2)
    k2 = lw2 >= _LOG_FLOOR
    mass2 = float(np.sum(b2[k2] * np.exp(lw2[k2])))
    rel = abs(mass - mass2) / abs(mass2) if mass2 != 0.0 else math.inf
    if not rel <= _MASS_TOL:
        raise NumericalError(
            f"resolution {resolution} (order {m}) too small: rule vs doubled-rule "
            f"mass differs by {rel:.3g} relative"
        )

    nodes = nodes[keep]
    if not np.all(np.diff(nodes) > 0.0):
        raise NumericalError("panel assembly produced unsorted nodes")
    prov = (
        f"panels={len(panels)} order={m} depth={depth} nodes={nodes.size} "
        f"dropped={dropped} mass_check={rel:.2e}"
    )
    return QuadratureRule(nodes=nodes, base=base[keep],
                          log_w=lw[keep], provenance=prov,
                          cut_lo=cut_lo, cut_hi=cut_hi)


# ---------------------------------------------------------------------------
# Stieltjes procedure


def _clip_guard(q: QuadratureRule, phi_top: np.ndarray, m_max: int) -> None:
    """Reject rules whose truncated end clips the top polynomial.

    At a proper truncation the weighted polynomials decay to nothing
    long before the cut, so the mass of psi_m in a slab beside the cut
    is transcendentally small.  Order-one mass there means the weight
    decays too slowly for this degree at this n (n V reaches the budget
    inside the region where p_m still lives).
    """
    span = float(q.nodes[-1] - q.nodes[0])
    dens = q.base * phi_top * phi_top
    for cut, hither in ((q.cut_lo, q.nodes < (q.cut_lo or 0.0) + 0.02 * span),
                       (q.cut_hi, q.nodes > (q.cut_hi or 0.0) - 0.02 * span)):
        if cut is None:
            continue
        frac = float(np.sum(dens[hither]))
        if frac > _CLIP_TOL:
            raise NumericalError(
                f"truncated domain end at x={cut:.4g} clips degree-{m_max} "
                f"polynomials (boundary mass {frac:.2e}); n V grows past the "
                f"representable budget inside their support"
            )


def stieltjes_recurrence(q: QuadratureRule, m_max: int) -> Recurrence:
    """Recurrence coefficients of the discrete measure, degrees 0..m_max.

    The Lanczos vectors are the weighted orthonormal functions
    sqrt(w) p_j / sqrt(h_j) sampled at the nodes; every stored entry is
    of order one, so degrees with p_j^2 w spanning ~600 decades of
    pointwise dynamic range still come out at full precision.

    Only the current and previous vectors are kept: the plain
    three-term recurrence is enough because Lanczos vectors lose
    orthogonality only once a Ritz value converges to a node (Paige,
    Linear Algebra Appl. 34, 1980), and the m_max < N/4 guard keeps the
    degrees well inside a resolved rule.  Simon's omega-recurrence
    (Math. Comp. 42, 1984) tracks estimates of <phi_j, phi_k> from the
    coefficients alone; once one exceeds sqrt(eps), the semi-orthogonality
    level at which the coefficients are still exact to working
    precision, NumericalError is raised instead of returning drifted
    coefficients.
    """
    npts = q.nodes.size
    if not m_max >= 1:
        raise ValidationError("m_max must be at least 1")
    if not m_max < npts / 4:
        raise ValidationError(
            f"m_max={m_max} too large for {npts} nodes; need m_max < node count / 4"
        )
    x = q.nodes
    wt = q.base
    sw = np.exp(0.5 * q.log_w)
    h0 = float(np.sum(wt * sw * sw))
    if not (h0 > 0.0 and math.isfinite(h0)):
        raise NumericalError("quadrature rule has no mass")

    a = np.zeros(m_max)
    beta = np.zeros(m_max + 1)          # beta[j] = sqrt(b_j), beta[0] = 0
    b_list: list[float] = []
    h_list = [h0]
    # omega[k] estimates <phi_j, phi_k>, omega_prev[k] <phi_{j-1}, phi_k>
    omega = np.zeros(m_max + 1)
    omega[0] = 1.0
    omega_prev = np.zeros(m_max + 1)
    rounding = _EPS * math.sqrt(npts) * float(np.max(np.abs(x)))
    cur = sw / math.sqrt(h0)
    prev = np.zeros(npts)
    for j in range(m_max):
        aj = float(np.sum(wt * x * cur * cur))
        r = (x - aj) * cur - beta[j] * prev
        b2 = float(np.sum(wt * r * r))
        if not (b2 > 0.0 and math.isfinite(b2)):
            raise NumericalError(
                f"degree exceeds discretization resolution (b_{j + 1} lost positivity)"
            )
        a[j] = aj
        beta[j + 1] = math.sqrt(b2)
        b_list.append(b2)
        h_list.append(h_list[-1] * b2)
        prev, cur = cur, r / beta[j + 1]

        # beta_{j+1} w_{j+1,k} = beta_{k+1} w_{j,k+1} + (a_k - a_j) w_{j,k}
        #     + beta_k w_{j,k-1} - beta_j w_{j-1,k}, plus a rounding term
        nxt = np.zeros(m_max + 1)
        if j >= 1:
            t = (beta[1:j + 1] * omega[1:j + 1] + (a[:j] - aj) * omega[:j]
                 - beta[j] * omega_prev[:j])
            t[1:] += beta[1:j] * omega[:j - 1]
            nxt[:j] = (t + np.copysign(rounding, t)) / beta[j + 1]
        nxt[j] = rounding / beta[j + 1]
        nxt[j + 1] = 1.0
        worst = float(np.max(np.abs(nxt[:j + 1])))
        if not worst <= _OMEGA_TOL:
            raise NumericalError(
                f"Lanczos vectors lost orthogonality at degree {j + 1} "
                f"(estimated |<phi_i, phi_j>| = {worst:.2e} > {_OMEGA_TOL:.1e})"
            )
        omega_prev, omega = omega, nxt
    _clip_guard(q, cur, m_max)
    return Recurrence(a=tuple(a.tolist()), b=tuple(b_list), h=tuple(h_list), m_max=m_max)


def eval_poly(r: Recurrence, j: int, x):
    """(p_j(x), p_{j-1}(x)) by the forward monic recurrence; p_{-1} = 0."""
    if not 0 <= j <= r.m_max:
        raise ValidationError(f"degree {j} outside recurrence range 0..{r.m_max}")
    scalar = np.isscalar(x)
    xa = np.asarray(x, dtype=float)
    cur = np.ones_like(xa)
    prev = np.zeros_like(xa)
    for i in range(j):
        off = r.b[i - 1] if i >= 1 else 0.0
        cur, prev = (xa - r.a[i]) * cur - off * prev, cur
    if scalar:
        return float(cur), float(prev)
    return cur, prev


def orthonormal_table(r: Recurrence, q: QuadratureRule, m: int) -> np.ndarray:
    """Rows j = 0..m of psi_j = sqrt(w) p_j / sqrt(h_j) at the nodes.

    The scaled recurrence keeps every entry of order one even where p_j
    is astronomically large and w astronomically small.
    """
    if not 0 <= m <= r.m_max:
        raise ValidationError(f"m={m} outside recurrence range 0..{r.m_max}")
    x = q.nodes
    out = np.zeros((m + 1, x.size))
    out[0] = np.exp(0.5 * q.log_w) / math.sqrt(r.h[0])
    if m >= 1:
        out[1] = (x - r.a[0]) * out[0] / math.sqrt(r.b[0])
    for j in range(1, m):
        out[j + 1] = ((x - r.a[j]) * out[j]
                      - math.sqrt(r.b[j - 1]) * out[j - 1]) / math.sqrt(r.b[j])
    return out


def gram_check(r: Recurrence, q: QuadratureRule, m: int) -> float:
    """Worst normalized Gram defect over degrees 0..m.

    Off-diagonal entries <p_i, p_j>/sqrt(h_i h_j) should vanish and the
    diagonal should be 1; the returned scalar is the largest deviation,
    so an under-resolved rule reports a large residual instead of
    passing silently.
    """
    psi = orthonormal_table(r, q, m)
    psi *= np.sqrt(q.base)
    gram = psi @ psi.T
    defect = np.abs(gram - np.eye(m + 1))
    return float(defect.max())


def poly_zeros(r: Recurrence, m: int) -> np.ndarray:
    """Zeros of p_m from the Jacobi matrix of the recurrence."""
    if not 1 <= m <= r.m_max:
        raise ValidationError(f"degree {m} outside recurrence range 1..{r.m_max}")
    diag = np.asarray(r.a[:m])
    off = np.sqrt(np.asarray(r.b[: m - 1])) if m > 1 else np.zeros(0)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# serialization and fitting


def recurrence_table(r: Recurrence):
    """Rows (j, a_j, b_j, h_j); a_{m_max} is nan and b_0 is 0 by convention."""
    rows = []
    for j in range(r.m_max + 1):
        aj = r.a[j] if j < r.m_max else math.nan
        bj = r.b[j - 1] if j >= 1 else 0.0
        rows.append((j, aj, bj, r.h[j]))
    return rows


def cached_recurrence(p: Potential, resolution: int,
                      m_max: int) -> tuple[Recurrence, QuadratureRule]:
    """Build the quadrature rule for p and its recurrence up to m_max.

    Nothing is cached: the rule is built with the degree hint the
    recurrence needs (2 (m_max + 1)) and both are returned, the rule
    because kernel integrals run on the same nodes.
    """
    q = build_quadrature(p, resolution, degree_hint=2 * (m_max + 1))
    return stieltjes_recurrence(q, m_max), q
