"""Monic orthogonal polynomials for the eigenvalue weight.

build_quadrature discretizes the measure w(x) dx by composite
Gauss-Legendre panels (dyadically graded into charges and finite domain
endpoints, exponential-budget marching elsewhere), and
stieltjes_recurrence runs a discretized Stieltjes procedure on the
resulting point masses.  The output is the three-term recurrence

    p_{j+1}(x) = (x - a_j) p_j(x) - b_j p_{j-1}(x)

for the monic polynomials together with the squared norm h_0 of p_0;
h_j = h_0 b_1 ... b_j.  orthonormal_rows evaluates the weighted
orthonormal functions sqrt(w) p_j / sqrt(h_j) from it at any points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .potential import Potential, log_weight, v_reg
from .quad import gauss_legendre

# sqrt(w) = e^{log w / 2} reaches 690 either way: nodes are kept while
# log w >= -2 * 690, which sets the tail budget below.  w is never
# formed: log w is exponentiated only minus s = max(0, max log w - 690),
# so a weight below e^690 runs unshifted.  psi_0 = sqrt(w / h_0) leaves
# the normal doubles (_TINY) where log w is ~1417 below its maximum.
_LOG_FLOOR = -1380.0
_LOG_TOP = 690.0
_TINY = np.finfo(float).tiny
_SQRT_TINY = math.sqrt(_TINY)
_GRAM_BLOCK = 1 << 18   # entries (2 MiB of doubles) per node block of gram_check
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
    computation starts from it, because w itself underflows once n V
    passes ~708 and overflows once -n V passes ~709.  cut_lo / cut_hi
    record where an unbounded domain end was truncated, None at native
    ends.  nodes are sorted and strictly inside the domain.
    """

    nodes: np.ndarray
    base: np.ndarray
    log_w: np.ndarray
    provenance: str
    cut_lo: float | None = None
    cut_hi: float | None = None


@dataclass(frozen=True)
class Recurrence:
    """Monic three-term recurrence data up to degree m_max.

    a = (a_0, ..., a_{m_max-1}), b = (b_1, ..., b_{m_max}), and
    h_0 = h0 e^{log_shift}, log_shift = max(0, max log w - 690 over the
    rule), so h0 stays finite where h_0 overflows; h_j = h_0 b_1 ... b_j.
    omega_max is the largest estimate of |<phi_i, phi_j>|, i != j, that
    the omega-recurrence of stieltjes_recurrence reached over all
    degrees (at most sqrt(eps)).
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    h0: float
    log_shift: float
    omega_max: float

    @property
    def m_max(self) -> int:
        return len(self.b)


# ---------------------------------------------------------------------------
# panel construction


def _truncation_point(p: Potential, x0: float, direction: float) -> float:
    """First x beyond x0 (in the given direction) with n V_reg >= 1380."""

    def f(x):
        return p.n * v_reg(p, x) + _LOG_FLOOR

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


def _horner(c, x: float) -> float:
    # numpy.polynomial.polynomial.polyval's operations, on Python floats
    v = c[-1] + x * 0.0
    for t in reversed(c[:-1]):
        v = t + v * x
    return v


def _width_rule(p: Potential, d_hint: int):
    """x, anchors -> width of a plain panel starting at x."""
    # V_reg' = sum_j t_j x^{j-1}: p.reg is its coefficient list, and
    # V_reg'' has coefficients (j - 1) t_j
    d1 = [float(t) for t in p.reg]
    d2 = [j * t for j, t in enumerate(d1)][1:]
    n = p.n

    def width(x, anchors) -> float:
        dv1 = abs(_horner(d1, x))
        dv2 = abs(_horner(d2, x)) if d2 else 0.0
        cap = max(1.0, 0.25 * (abs(x) + 1.0))
        w = min(cap, _EXP_BUDGET / (n * dv1 + 1e-12))
        w = min(w, math.sqrt(2.0 * _EXP_BUDGET / (n * dv2 + 1e-12)))
        # keep the oscillation of a degree-d_hint polynomial under the
        # Gauss-Legendre phase budget: local wavenumber^2 ~ 2 n d V'' in
        # the bulk and ~ 2 n d V'/dist approaching a hard endpoint or
        # charge, where the node density of p_d diverges like dist^{-1/2}
        dist = min((abs(x - a) for a in anchors), default=math.inf)
        k2 = 2.0 * d_hint * (n * dv2 + n * dv1 / max(dist, 1e-300))
        return min(w, _MIN_ORDER / math.sqrt(max(k2, 1e-12)))

    return width


def _zone_length(width, anchor: float, direction: float, limit: float,
                 anchors) -> float:
    """Graded-zone reach: fixed point of w = width(anchor + dir w).

    The width rule vanishes at the anchor itself, so the zone extends to
    where plain marching could take over with order-_MIN_ORDER panels.
    """
    w = limit
    for _ in range(40):
        nxt = min(limit, width(anchor + direction * w, anchors))
        if nxt >= w * 0.999:
            break
        w = nxt
    return max(w, 1e-12 * max(1.0, abs(anchor)))


def _plain_panels(width, x0: float, x1: float, anchors):
    """March left to right with the width rules."""
    out = []
    x = x0
    span = x1 - x0
    while x < x1 - 1e-13 * max(1.0, abs(x1)):
        w = width(x, anchors)
        # look ahead once so a growing tail cannot outrun the budget
        w = min(w, width(min(x1, x + w), anchors))
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
    # complex numbers do not order, so the keys hold (real, imag) pairs
    def key(b, alpha, t):
        return (b.real, b.imag, float(alpha), tuple((c.real, c.imag) for c in t))
    pool = sorted(key(complex(s.b), s.alpha, map(complex, s.t))
                  for s in p.singularities)
    refl = sorted(key(-complex(s.b), s.alpha,
                      ((-1.0) ** (j + 1) * complex(c) for j, c in enumerate(s.t)))
                  for s in p.singularities)
    return pool == refl


def _is_mirrored(q: QuadratureRule) -> bool:
    """N is even and nodes, base and log_w equal their mirror images bit for bit.

    Such a rule holds no node at 0, and its x > 0 half with doubled
    weights carries the whole measure for even integrands.
    """
    h = q.nodes.size // 2
    if q.nodes.size % 2 or h == 0:
        return False
    return (np.array_equal(q.nodes[h:], -q.nodes[h - 1::-1])
            and np.array_equal(q.base[h:], q.base[h - 1::-1])
            and np.array_equal(q.log_w[h:], q.log_w[h - 1::-1]))


def _mirrored_log_weight(p: Potential, nodes: np.ndarray) -> np.ndarray:
    """log w at a mirrored node set, evaluated on the x > 0 half."""
    half = log_weight(p, nodes[nodes.size // 2:])
    return np.concatenate((half[::-1], half))


def _component_panels(p: Potential, lo: float, hi: float, depth: int, width):
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
        p, min(inner_ref, default=0.0), -1.0)
    stop = b_end if b_end is not None else _truncation_point(
        p, max(inner_ref, default=0.0), +1.0)

    anchors = sorted(set(feats + [x for x in (a_end, b_end) if x is not None]))
    cuts = [start] + [x for x in anchors if start < x < stop] + [stop]
    panels = []
    for u, v in zip(cuts[:-1], cuts[1:]):
        graded_u = u in anchors
        graded_v = v in anchors
        half = 0.5 * (v - u)
        lu = _zone_length(width, u, +1.0, half, anchors) if graded_u else 0.0
        lv = _zone_length(width, v, -1.0, half, anchors) if graded_v else 0.0
        if graded_u:
            panels += _graded_zone(u, lu, depth, +1.0)
        panels += _plain_panels(width, u + lu, v - lv, anchors)
        if graded_v:
            panels += _graded_zone(v, lv, depth, -1.0)
    return panels, (None if a_end is not None else start), (None if b_end is not None else stop)


def _panel_rules(panels, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-m Gauss-Legendre nodes and weights of every panel, in panel order."""
    ends = np.array(panels)
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    t, w = gauss_legendre(m)
    return (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * w).ravel()


def build_quadrature(p: Potential, resolution: int, *, order: int | None = None,
                     degree_hint: int | None = None) -> QuadratureRule:
    """Composite Gauss-Legendre discretization of the measure w(x) dx.

    Unbounded domain ends are truncated where n V_reg exceeds 1380, an
    absolute cut (sqrt(w) is below the double-precision floor there;
    psi_0 is already where log w is ~1417 below its maximum, see
    stieltjes_recurrence).  Panels shrink dyadically (ratio 1/4,
    ceil(log2(resolution)) levels) into every real charge and finite
    domain endpoint; elsewhere panel widths keep the swing of n V_reg
    below a fixed budget and the oscillation of polynomials up to degree_hint
    (default resolution / 2, matching the stieltjes_recurrence validity
    margin) under the Gauss-Legendre phase budget.  The per-panel order
    is set so the total node count roughly matches resolution, floored
    at 12.  A doubled-order rule on the same panels must reproduce the
    total mass to 1e-9 relative (both carry the factor e^{-s}).

    An even model (_is_even_model: even V_reg, mirror-image domain and
    charges) gets panels built on x >= 0 and mirrored, and log w
    evaluated at the x > 0 nodes and mirrored, so its rule is mirrored
    bit for bit (_is_mirrored) and stieltjes_recurrence and gram_check
    take their half paths on it.  Any other model's rule is unchanged.
    """
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
    depth = math.ceil(math.log2(resolution))
    d_hint = int(degree_hint) if degree_hint is not None else max(8, resolution // 2)
    width = _width_rule(p, d_hint)

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
            sub, _, c_hi = _component_panels(p, max(lo, 0.0), hi, depth, width)
            panels += sub
            panels += [(-b, -a) for a, b in sub]
            if c_hi is not None:
                cut_hi = c_hi
                cut_lo = -c_hi
        else:
            sub, c_lo, c_hi = _component_panels(p, lo, hi, depth, width)
            panels += sub
            # only the first component can start at -inf, only the last end at +inf
            if c_lo is not None:
                cut_lo = c_lo
            if c_hi is not None:
                cut_hi = c_hi
    panels = sorted((a, b) for a, b in panels if b > a)

    if order is None:
        m = max(_MIN_ORDER, min(_MAX_ORDER, resolution // max(1, len(panels))))
    else:
        m = int(order)
        if m < 2:
            raise ValidationError("order must be at least 2")

    weight = _mirrored_log_weight if even else log_weight
    nodes, base = _panel_rules(panels, m)
    lw = weight(p, nodes)
    keep = lw >= _LOG_FLOOR
    dropped = int(np.size(keep) - np.count_nonzero(keep))

    x2, b2 = _panel_rules(panels, 2 * m)
    lw2 = weight(p, x2)
    s = max(0.0, float(np.max(lw)) - _LOG_TOP, float(np.max(lw2)) - _LOG_TOP)
    mass = float(np.sum(base[keep] * np.exp(lw[keep] - s)))
    k2 = lw2 >= _LOG_FLOOR
    mass2 = float(np.sum(b2[k2] * np.exp(lw2[k2] - s)))
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


def _clip_guard(q: QuadratureRule, phi_top: np.ndarray, m_max: int,
                faint: np.ndarray) -> None:
    """Reject rules whose truncated end clips the top polynomial.

    At a proper truncation the weighted polynomials decay to nothing
    long before the cut, so the mass of psi_m in a slab beside the cut
    is transcendentally small.  Order-one mass there means the weight
    decays too slowly for this degree at this n (n V reaches the budget
    inside the region where p_m still lives).  The nodes in faint, where
    psi_0 and so psi_m are subnormal or zero, cut the measure as well.
    """
    span = float(q.nodes[-1] - q.nodes[0])
    dens = q.base * phi_top * phi_top
    frac = float(np.sum(dens[faint]))
    if frac > _CLIP_TOL:
        raise NumericalError(
            f"sqrt(w / h_0) falls below the double-precision floor where "
            f"degree-{m_max} polynomials live (mass {frac:.2e} there)")
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
    pointwise dynamic range still come out at full precision.  The
    first, sqrt(w e^{-s} / h0) with h0 = h_0 e^{-s}, needs no w, so a
    weight that overflows double precision is fitted too.  It is
    subnormal where log w is ~1417 below its maximum, and the clip guard
    rejects the rule if psi_{m_max} has mass there: for the quartic
    x^4/4 - x^2 (max log w = n) from n ~ 1350 on, beside x = +-2.

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

    A mirrored rule (_is_mirrored) has a_j = 0 exactly (Chihara, An
    Introduction to Orthogonal Polynomials, 1978, ch. I): the vectors
    are run on its x > 0 half with doubled weights, a_j = 0.0 is stored
    and its reduction skipped.  The rounding seed of the omega monitor
    stays that of all N nodes, and the clip guard reads the top vector
    mirrored back onto the whole rule.  Any other rule takes the full
    path, bit for bit as before.
    """
    npts = q.nodes.size
    if not m_max >= 1:
        raise ValidationError("m_max must be at least 1")
    if not m_max < npts / 4:
        raise ValidationError(
            f"m_max={m_max} too large for {npts} nodes; need m_max < node count / 4"
        )
    mirrored = _is_mirrored(q)
    if mirrored:
        h = npts // 2
        x, wt, lw = q.nodes[h:], 2.0 * q.base[h:], q.log_w[h:]
    else:
        x, wt, lw = q.nodes, q.base, q.log_w
    s = max(0.0, float(np.max(lw)) - _LOG_TOP)
    sw = np.exp(0.5 * (lw - s))
    h0 = float(np.sum(wt * sw * sw))
    if not (h0 > 0.0 and math.isfinite(h0)):
        raise NumericalError("quadrature rule has no mass")

    a = np.zeros(m_max)
    beta = np.zeros(m_max + 1)          # beta[j] = sqrt(b_j), beta[0] = 0
    b_list: list[float] = []
    # omega[k] estimates <phi_j, phi_k>, omega_prev[k] <phi_{j-1}, phi_k>;
    # the three rows rotate, and step j writes nxt[:j + 2], all it reads
    omega_prev, omega, nxt = np.zeros((3, m_max + 1))
    omega[0] = 1.0
    omega_max = 0.0
    rounding = _EPS * math.sqrt(npts) * float(np.max(np.abs(x)))
    wx = None if mirrored else wt * x
    # prev, cur and r rotate too: each step overwrites prev once it has
    # entered r, and reuses it for the products b_{j+1} is summed from
    cur = sw / math.sqrt(h0)
    faint = cur < _TINY
    prev = np.zeros(x.size)
    r = np.empty(x.size)
    for j in range(m_max):
        # r = (x - a_j) psi_j - beta_j psi_{j-1};  b_{j+1} = sum (wt r) r
        if mirrored:
            aj = 0.0
            np.multiply(x, cur, out=r)
        else:
            # a_j = sum ((wt x) psi_j) psi_j
            np.multiply(wx, cur, out=r)
            r *= cur
            aj = float(np.add.reduce(r))
            np.subtract(x, aj, out=r)
            r *= cur
        prev *= beta[j]
        r -= prev
        np.multiply(wt, r, out=prev)
        prev *= r
        b2 = float(np.add.reduce(prev))
        if not (b2 > 0.0 and math.isfinite(b2)):
            raise NumericalError(
                f"degree exceeds discretization resolution (b_{j + 1} lost positivity)"
            )
        a[j] = aj
        beta[j + 1] = math.sqrt(b2)
        b_list.append(b2)
        r /= beta[j + 1]
        prev, cur, r = cur, r, prev

        # beta_{j+1} w_{j+1,k} = beta_{k+1} w_{j,k+1} + (a_k - a_j) w_{j,k}
        #     + beta_k w_{j,k-1} - beta_j w_{j-1,k}, plus a rounding term
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
        omega_max = max(omega_max, worst)
        omega_prev, omega, nxt = omega, nxt, omega_prev
    if mirrored:
        # psi_m(-x) = (-1)^m psi_m(x)
        cur = np.concatenate(((-1.0) ** m_max * cur[::-1], cur))
        faint = np.concatenate((faint[::-1], faint))
    _clip_guard(q, cur, m_max, faint)
    return Recurrence(a=tuple(a.tolist()), b=tuple(b_list), h0=h0, log_shift=s,
                      omega_max=omega_max)


def orthonormal_rows(r: Recurrence, x, log_w, m: int):
    """Yield psi_j = sqrt(w) p_j / sqrt(h_j) at x for j = 0..m.

    log_w is log w at x (-inf where w vanishes).  The scaled recurrence
    keeps every entry of order one even where p_j is astronomically
    large and w astronomically small; this is the only evaluation of the
    recurrence at points.  The degree range is checked before the first
    row is computed.
    """
    _check_degree(r, m)
    return _scaled_rows(r, x, log_w, m)


def _check_degree(r: Recurrence, m: int) -> None:
    if not 0 <= m <= r.m_max:
        raise ValidationError(f"degree {m} outside recurrence range 0..{r.m_max}")


def _scaled_rows(r: Recurrence, x, log_w, m: int):
    sw = np.exp(0.5 * (log_w - r.log_shift))
    prev, cur, beta = 0.0, sw / math.sqrt(r.h0), 0.0
    yield cur
    for j in range(m):
        beta_next = math.sqrt(r.b[j])
        prev, cur = cur, ((x - r.a[j]) * cur - beta * prev) / beta_next
        beta = beta_next
        yield cur


def gram_check(r: Recurrence, q: QuadratureRule, m: int) -> float:
    """Worst normalized Gram defect over degrees 0..m.

    Off-diagonal entries <p_i, p_j>/sqrt(h_i h_j) should vanish and the
    diagonal should be 1; the returned scalar is the largest deviation,
    so an under-resolved rule reports a large residual instead of
    passing silently.

    The (m+1) x N matrix of psi_j sqrt(base) is never formed: the nodes
    are walked in blocks of about _GRAM_BLOCK entries, and each block's
    products are summed into the (m+1)^2 Gram matrix, so memory stays
    O(m^2 + _GRAM_BLOCK) at any N.  In each scaled block, entries below
    sqrt(tiny) ~ 1.5e-154 are set to 0.  Entries are of modulus about 1
    at most (sum_i base_i psi_j(x_i)^2 ~ 1), so no dropped product can
    move a Gram entry the defect reads; the products of two such
    entries are subnormal, and the floating-point unit takes a slow
    assist on every one.  Only this scaled copy is cleared, never the
    rows: tail values tiny at low degree grow at higher degree.

    On a mirrored rule (_is_mirrored) with a_0 = ... = a_{m-1} = 0 the
    rows are exactly parity-symmetric, psi_j(-x) = (-1)^j psi_j(x), so
    entries of mixed parity are summation noise and the others are twice
    their x > 0 sums: rows on that half are scaled by sqrt(2 base) and
    summed into an even-degree and an odd-degree block.  Any other rule
    or fit takes the full path as before.
    """
    _check_degree(r, m)
    x, log_w, base = q.nodes, q.log_w, q.base
    groups = (slice(None),)
    if not any(r.a[:m]) and _is_mirrored(q):
        h = x.size // 2
        x, log_w, base = x[h:], log_w[h:], 2.0 * base[h:]
        groups = (slice(0, None, 2), slice(1, None, 2))
    npts = x.size
    width = max(1, _GRAM_BLOCK // (m + 1))
    grams = [np.zeros((len(range(m + 1)[g]),) * 2) for g in groups]
    blk = np.empty((m + 1, min(width, npts)))
    for lo in range(0, npts, width):
        hi = min(npts, lo + width)
        part = blk[:, :hi - lo]
        for j, row in enumerate(_scaled_rows(r, x[lo:hi], log_w[lo:hi], m)):
            part[j] = row
        part *= np.sqrt(base[lo:hi])
        part[(part < _SQRT_TINY) & (part > -_SQRT_TINY)] = 0.0
        for g, gram in zip(groups, grams):
            gram += part[g] @ part[g].T
    for gram in grams:
        gram.flat[::gram.shape[0] + 1] -= 1.0
    return max(float(np.abs(gram, out=gram).max(initial=0.0)) for gram in grams)


# ---------------------------------------------------------------------------
# fitting


def cached_recurrence(p: Potential, resolution: int,
                      m_max: int) -> tuple[Recurrence, QuadratureRule]:
    """Build the quadrature rule for p and its recurrence up to m_max.

    Nothing is cached: the rule is built with the degree hint the
    recurrence needs (2 (m_max + 1)) and both are returned, the rule
    because kernel integrals run on the same nodes.
    """
    q = build_quadrature(p, resolution, degree_hint=2 * (m_max + 1))
    return stieltjes_recurrence(q, m_max), q
