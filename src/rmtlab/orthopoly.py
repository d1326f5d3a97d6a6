"""Monic orthogonal polynomials for the eigenvalue weight.

build_quadrature discretizes the measure w(x) dx by composite
Gauss-Legendre panels (dyadically graded into charges and finite domain
endpoints, exponential-budget marching elsewhere), and
stieltjes_recurrence runs a discretized Stieltjes procedure on the
resulting point masses.  The output is the three-term recurrence

    p_{j+1}(x) = (x - a_j) p_j(x) - b_j p_{j-1}(x)

for the monic polynomials together with the squared norm h_0 of p_0;
h_j = h_0 b_1 ... b_j.  Two families get the same coefficients with no
quadrature rule: for V' = t x + g x^3 on the whole line,
string_recurrence solves the string equation they satisfy exactly (and
string_residual is that equation's certificate for any fit), and for
V' = c on a half-line with at most one charge at its end,
laguerre_recurrence writes down the scaled Laguerre closed forms.  A
further real charge beyond the end whose 2 alpha is a positive integer
multiplies w by a polynomial with no zero on the half-line, and by
Christoffel's theorem each of its linear factors sigma (x - z) is one
exact LU step of J - z I on the coefficients (Gautschi, Orthogonal
Polynomials: Computation and Approximation, OUP 2004, sec. 2.4; Galant,
Math. Comp. 25, 1971), so laguerre_recurrence covers those charges too.
Both families, and the even models whose rules are mirrored, are
recognized from the potential's own reg_degree and is_even.
orthonormal_rows evaluates the weighted orthonormal functions
sqrt(w) p_j / sqrt(h_j) from the coefficients at any points, and
cd_rows the three numbers at a point that every kernel is built from:
psi_n, psi_{n-1} and the Christoffel-Darboux sum of squares.  A numpy
sweep costs per numpy call and a Python-float loop per point and
degree, so cd_rows runs a handful of points (at most _FEW_POINTS) in
floats and more in numpy; both do the same binary64 operations in the
same order, so the choice never moves a bit.
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
_STRING_MARGIN = 20     # equations solved past m_max, per unit of max(n, 1000)^(1/3)
_STRING_ITER = 30       # Newton steps allowed per string-equation solve
_STRING_TOL = 4e-15     # Newton stop: |F_j| relative to the terms F_j sums
_MARGIN_TOL = 1e-14     # max relative move of b_j when the margin doubles
_TRAPEZOID_STEP = 0.25  # h_0 rule step, in units of 1/sqrt(n max|V''|)
_FEW_POINTS = 32        # most points cd_rows runs one by one in Python floats


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
    Each rule takes its own shift, so the h_0 of two fits compare as
    log h0 + log_shift, not as h0: for V = -3x^2/2 + x^4/4 at n = 400
    the string fit's shift is 209.99991 and default_fit's 209.99998,
    and log h0 + log_shift agree exactly.
    h0 stays a mantissa rather than one log h_0: it is summed from the
    same e^{log w - s} that psi_0 = sqrt(w e^{-s} / h0) is formed from,
    so sum wt psi_0^2 = 1 to rounding (psi_0 from log h_0 moved the
    trace of the two-cut quartic at n = 1 000 to 999.99999999986).
    omega_max is the largest estimate of |<phi_i, phi_j>|, i != j, that
    the omega-recurrence of stieltjes_recurrence reached over all
    degrees (at most sqrt(eps)); it is 0.0 for a fit from the string
    equation (string_recurrence) or the Laguerre closed forms
    (laguerre_recurrence), which have no Lanczos vectors.
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
    """First x beyond x0 (in the given direction) with n V_reg >= 1380.

    Bisection stops once lo and hi are adjacent doubles, where halving
    can no longer shrink the bracket, and after 80 halvings at most.
    """

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
        if mid == lo or mid == hi:
            break
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
    ahead = ahead_w = None  # the last look-ahead point and its width
    while x < x1 - 1e-13 * max(1.0, abs(x1)):
        # a panel that ends at the look-ahead point starts the next one there
        w = ahead_w if x == ahead else width(x, anchors)
        # look ahead once so a growing tail cannot outrun the budget
        ahead = min(x1, x + w)
        ahead_w = width(ahead, anchors)
        w = min(w, ahead_w)
        w = max(w, 1e-8 * span)
        nxt = min(x1, x + w)
        out.append((x, nxt))
        x = nxt
    return out


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


def build_quadrature(p: Potential, resolution: int, *,
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

    An even model (Potential.is_even: even V_reg, mirror-image domain
    and charges) gets panels built on x >= 0 and mirrored, and log w
    evaluated at the x > 0 nodes and mirrored, so its rule is mirrored
    bit for bit (_is_mirrored) and stieltjes_recurrence and gram_check
    take their half paths on it.  Any other model's panels cover each
    domain component as it stands.
    """
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
    depth = math.ceil(math.log2(resolution))
    d_hint = int(degree_hint) if degree_hint is not None else max(8, resolution // 2)
    width = _width_rule(p, d_hint)

    panels = []
    cut_lo = cut_hi = None
    even = p.is_even()
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

    m = max(_MIN_ORDER, min(_MAX_ORDER, resolution // max(1, len(panels))))

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


def _rule_mass(q: QuadratureRule):
    """(mirrored, x, wt, sw, h0, s): the nodes and weights a fit runs on,
    sqrt(w e^{-s}) there and h0 = h_0 e^{-s}, s = max(0, max log w - 690).

    A mirrored rule (_is_mirrored) gives its x > 0 half with doubled
    weights.
    """
    mirrored = _is_mirrored(q)
    if mirrored:
        h = q.nodes.size // 2
        x, wt, lw = q.nodes[h:], 2.0 * q.base[h:], q.log_w[h:]
    else:
        x, wt, lw = q.nodes, q.base, q.log_w
    s = max(0.0, float(np.max(lw)) - _LOG_TOP)
    sw = np.exp(0.5 * (lw - s))
    h0 = float(np.sum(wt * sw * sw))
    if not (h0 > 0.0 and math.isfinite(h0)):
        raise NumericalError("quadrature rule has no mass")
    return mirrored, x, wt, sw, h0, s


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
    and its reduction skipped, and so is the monitor's (a_k - a_j) term,
    which is +-0 there.  The rounding seed of the omega monitor
    stays that of all N nodes, and the clip guard reads the top vector
    mirrored back onto the whole rule.  Any other rule takes the full
    path.
    """
    npts = q.nodes.size
    if not m_max >= 1:
        raise ValidationError("m_max must be at least 1")
    if not m_max < npts / 4:
        raise ValidationError(
            f"m_max={m_max} too large for {npts} nodes; need m_max < node count / 4"
        )
    mirrored, x, wt, sw, h0, s = _rule_mass(q)

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
            t = beta[1:j + 1] * omega[1:j + 1]
            # on a mirrored rule (a_k - a_j) w_{j,k} is +-0, and adding
            # it leaves the nonzero beta_{k+1} w_{j,k+1} as it is
            if not mirrored:
                t += (a[:j] - aj) * omega[:j]
            t -= beta[j] * omega_prev[:j]
            t[1:] += beta[1:j] * omega[:j - 1]
            row = nxt[:j]
            np.copysign(rounding, t, out=row)
            np.add(t, row, out=row)
            row /= beta[j + 1]
        nxt[j] = rounding / beta[j + 1]
        nxt[j + 1] = 1.0
        worst = float(np.maximum.reduce(np.abs(nxt[:j + 1])))
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
    large and w astronomically small.  This numpy sweep (_scaled_rows)
    is the public row generator; cd_rows, for when only the last two
    rows and the sum of squares are wanted, runs the same steps, point
    by point at a handful of points.  The degree range is checked
    before the first row is computed.
    """
    _check_degree(r, m)
    return _scaled_rows(r, x, log_w, m)


def _check_degree(r: Recurrence, m: int) -> None:
    if not 0 <= m <= r.m_max:
        raise ValidationError(f"degree {m} outside recurrence range 0..{r.m_max}")


def _psi_0(r: Recurrence, log_w) -> np.ndarray:
    """psi_0 = sqrt(w e^{-s} / h0), the start of both loops."""
    return np.exp(0.5 * (log_w - r.log_shift)) / math.sqrt(r.h0)


def _scaled_rows(r: Recurrence, x, log_w, m: int):
    prev, cur, beta = 0.0, _psi_0(r, log_w), 0.0
    yield cur
    for j in range(m):
        beta_next = math.sqrt(r.b[j])
        prev, cur = cur, ((x - r.a[j]) * cur - beta * prev) / beta_next
        beta = beta_next
        yield cur


def cd_rows(r: Recurrence, x, log_w, n: int):
    """psi_n, psi_{n-1} and sum_{j<n} psi_j^2 at the points of a 1-D x.

    log_w is log w at x.  These are all a Christoffel-Darboux kernel
    reads at a point: psi_n and psi_{n-1} off the diagonal, the sum of
    squares on it (psi_{-1} = 0 at n = 0).  The degree is checked before
    any row is formed.  At most _FEW_POINTS points run one at a time in
    Python floats, at a cost per point and degree; more run the numpy
    sweep _scaled_rows, whose cost per degree hardly depends on the
    point count.  Both costs grow as n, so the two cross near the same
    point count (about 35) at any n.  Both loops start from the same
    numpy psi_0, take each step as
    ((x - a_j) psi_j - beta_j psi_{j-1}) / beta_{j+1} with
    beta_j = sqrt(b_j) and sum the squares from 0.0 upward, all in
    binary64 with one rounding per operation, so they give the same
    bits, signed zeros included.
    """
    _check_degree(r, n)
    if x.size > _FEW_POINTS:
        rows = _scaled_rows(r, x, log_w, n)
        psi_m, diag = np.zeros(x.size), np.zeros(x.size)
        for _ in range(n):
            psi_m = next(rows)
            diag += psi_m * psi_m
        return next(rows), psi_m, diag
    beta = [math.sqrt(bj) for bj in r.b[:n]]
    steps = tuple(zip(r.a, [0.0] + beta, beta))  # (a_j, beta_j, beta_{j+1}), j < n
    last, before, sums = [], [], []
    for xi, cur in zip(x.tolist(), _psi_0(r, log_w).tolist()):
        prev = diag = 0.0
        for aj, bj, bn in steps:
            diag += cur * cur
            prev, cur = cur, ((xi - aj) * cur - bj * prev) / bn
        last.append(cur)
        before.append(prev)
        sums.append(diag)
    return np.array(last), np.array(before), np.array(sums)


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
    or fit takes the full path.
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
# string equation


def _even_quartic(p: Potential):
    """(t, g) when V' = t x + g x^3 on the whole line with no singularities, else None."""
    if (p.singularities or p.support.intervals != ((-math.inf, math.inf),)
            or p.reg_degree() > 4 or not p.is_even()):
        return None
    t, g = (p.reg[:p.reg_degree()] + (0.0, 0.0))[1:4:2]
    return float(t), float(g)


def _string_defect(t: float, g: float, b: np.ndarray, b_next: float, n: int):
    """(F, total, s) of the string equation at j = 1..len(b), with b_0 = 0.

    F_j = b_j (t + g total_j) - s_j, total_j = b_{j-1} + b_j + b_{j+1},
    s_j = j/n and b_{len(b)+1} = b_next.  b_j (|t| + g total_j) bounds
    the terms F_j sums, so F_j over it is F_j's relative rounding level.
    """
    nb = np.concatenate(((0.0,), b, (b_next,)))
    total = nb[:-2] + b + nb[2:]
    s = np.arange(1, b.size + 1) / n
    return b * (t + g * total) - s, total, s


def _continuum_b(t: float, g: float, j: np.ndarray, n: int) -> np.ndarray:
    """b_j of the n -> infinity limit at s = j/n, the start and closure of the solve.

    The positive root of 3 g b^2 + t b = s; for t < 0 below s = t^2/4g
    (two cuts) the pair of roots of g z^2 + t z + s = 0, odd j taking
    the larger; b = s/t when g = 0.
    """
    s = j / n
    if g == 0.0:
        return s / t
    root = np.sqrt(t * t + 12.0 * g * s)
    if t > 0.0:
        return 2.0 * s / (t + root)
    b = (root - t) / (6.0 * g)
    two = s < t * t / (4.0 * g)
    big = (np.sqrt(np.maximum(t * t - 4.0 * g * s[two], 0.0)) - t) / (2.0 * g)
    b[two] = np.where(j[two] % 2 == 1, big, s[two] / (g * big))
    return b


def _thomas(off, diag, rhs) -> list[float]:
    """Solve off_i x_{i-1} + diag_i x_i + off_i x_{i+1} = rhs_i, x_0 = x_{N+1} = 0.

    The Thomas sweep without pivoting, in Python floats.
    """
    cs, xs = [], []
    c = x = 0.0
    for o, d, r in zip(off, diag, rhs):
        m = d - o * c
        if m == 0.0:
            raise NumericalError("string equation Jacobian is singular")
        c = o / m
        x = (r - o * x) / m
        cs.append(c)
        xs.append(x)
    x = 0.0
    for i in range(len(xs) - 1, -1, -1):
        x = xs[i] - cs[i] * x
        xs[i] = x
    return xs


def _string_solve(t: float, g: float, n: int, b: np.ndarray, closure: float) -> np.ndarray:
    """b_1 .. b_len(b) by Newton from b, with b_{len(b)+1} fixed at closure."""
    for _ in range(_STRING_ITER):
        f, total, _ = _string_defect(t, g, b, closure, n)
        if float(np.max(np.abs(f) / (b * (abs(t) + g * total)))) <= _STRING_TOL:
            return b
        # dF_j/db_{j-1} = dF_j/db_{j+1} = g b_j, dF_j/db_j = t + g (total_j + b_j)
        gb = g * b
        step = _thomas(gb.tolist(), (t + g * (total + b)).tolist(), f.tolist())
        b = b - np.array(step)
        if not np.all(b > 0.0):
            raise NumericalError("string equation lost positivity: some b_j <= 0")
    raise NumericalError(f"string equation did not converge in {_STRING_ITER} Newton steps")


def string_residual(p: Potential, r: Recurrence) -> float | None:
    """Worst |b_j (t + g (b_{j-1} + b_j + b_{j+1})) - j/n| / (j/n) over j < m_max.

    The string (Freud) equation holds exactly at every n for
    V' = t x + g x^3 on the whole line with no singularities (Freud,
    Proc. Roy. Irish Acad. 76A, 1976).  For any other potential no
    identity is implemented here, and the result is None.
    """
    coeffs = _even_quartic(p)
    if coeffs is None:
        return None
    b = np.asarray(r.b, dtype=float)
    f, _, s = _string_defect(*coeffs, b[:-1], float(b[-1]), p.n)
    return float(np.max(np.abs(f) / s, initial=0.0))


def _trapezoid_mass(p: Potential, t: float, g: float) -> tuple[float, float]:
    """(h0, s) of V' = t x + g x^3 on the whole line: h_0 = h0 e^s,
    s = max(0, max log w - 690) over the nodes.

    The trapezoid rule on [0, X], X = _truncation_point(p, 0, +1), with
    an even number of steps of at most _TRAPEZOID_STEP = 1/4 over
    sqrt(n max|V''| on [0, X]), mirrored onto [-X, X]: every node but 0
    and X counts twice.  w is entire and decays like a Gaussian, so the
    rule converges geometrically in 1/step, and the step puts at least
    four nodes in each e-fold width of w.  The rule on every other node
    must agree to 1e-9 relative, the mass check of build_quadrature, or
    NumericalError is raised.
    """
    x_cut = _truncation_point(p, 0.0, +1.0)
    # V'' = t + 3 g x^2 is monotone on [0, X] since g >= 0
    most = _TRAPEZOID_STEP / math.sqrt(p.n * max(abs(t), abs(t + 3.0 * g * x_cut * x_cut)))
    steps = 2 * math.ceil(0.5 * x_cut / most)
    step = x_cut / steps
    lw = log_weight(p, np.linspace(0.0, x_cut, steps + 1))
    s = max(0.0, float(np.max(lw)) - _LOG_TOP)
    w = np.exp(lw - s)
    h0 = step * float(2.0 * np.sum(w) - w[0] - w[-1])
    if not (h0 > 0.0 and math.isfinite(h0)):
        raise NumericalError("trapezoid rule for h_0 has no mass")
    half = 2.0 * step * float(2.0 * np.sum(w[::2]) - w[0] - w[-1])
    rel = abs(h0 - half) / h0
    if not rel <= _MASS_TOL:
        raise NumericalError(
            f"trapezoid rule for h_0 at step {step:.3g}: the rule on every "
            f"other node differs by {rel:.3g} relative")
    return h0, s


def string_recurrence(p: Potential, m_max: int) -> Recurrence:
    """Recurrence coefficients from the string equation, degrees 0..m_max.

    For V' = t x + g x^3 (g >= 0) on the whole line with no
    singularities, the monic coefficients satisfy a_j = 0 and
    b_j (t + g (b_{j-1} + b_j + b_{j+1})) = j/n exactly.  They are the
    unique positive solution (Lew and Quarles, J. Approx. Theory 38,
    1983), found as a boundary-value problem: Newton on j = 1..M,
    M = m_max + ceil(20 max(n, 1000)^(1/3)), with b_0 = 0 and b_{M+1}
    fixed at the continuum value (_continuum_b), which also starts the
    iteration.
    Each step solves the tridiagonal Jacobian by a Thomas sweep; Newton
    stops once every |F_j| is within _STRING_TOL of the terms it sums.
    The closure error decays into the interior, so the solve is
    repeated with twice the margin and b_1..b_{m_max} must not move by
    more than _MARGIN_TOL relative.  NumericalError is raised when
    Newton does not converge, a b_j turns nonpositive, the margin check
    fails or the string residual of b_1..b_{m_max} (string_residual's
    measure, taken from the closing defect) exceeds _STRING_TOL times
    the size of its terms.

    No quadrature carries the coefficients, so omega_max is 0.0.  h0
    and log_shift come from the trapezoid rule of _trapezoid_mass.
    """
    coeffs = _even_quartic(p)
    if coeffs is None:
        raise ValidationError(
            "string_recurrence needs V' = t x + g x^3 on the whole line "
            "with no singularities")
    if not m_max >= 1:
        raise ValidationError("m_max must be at least 1")
    t, g = coeffs
    # the closure error decays over the critical width n^(1/3) in j
    margin = math.ceil(_STRING_MARGIN * max(p.n, 1000) ** (1.0 / 3.0))
    size = m_max + margin
    start = _continuum_b(t, g, np.arange(1, size + margin + 2), p.n)
    # both solves start from the continuum; started from the narrower
    # solution, the wider solve stops on its residual short of the fixed
    # point and moved b by up to 3.7e-14 (critical quartic, n = 1 340)
    b = _string_solve(t, g, p.n, start[:size], float(start[size]))[:m_max]
    wide = _string_solve(t, g, p.n, start[:-1], float(start[-1]))[:m_max]
    drift = float(np.max(np.abs(wide - b) / b))
    if not drift <= _MARGIN_TOL:
        raise NumericalError(
            f"string equation closure at margin {margin} moves b_1..b_{m_max} "
            f"by {drift:.2e} relative when the margin doubles")
    h0, s = _trapezoid_mass(p, t, g)
    f, total, sj = _string_defect(t, g, b[:-1], float(b[-1]), p.n)
    bound = _STRING_TOL * float(np.max(b[:-1] * (abs(t) + g * total) / sj, initial=1.0))
    res = float(np.max(np.abs(f) / sj, initial=0.0))  # string_residual of the fit
    if not res <= bound:
        raise NumericalError(f"string residual {res:.2e} exceeds {bound:.2e}")
    return Recurrence(a=(0.0,) * m_max, b=tuple(b.tolist()), h0=h0, log_shift=s,
                      omega_max=0.0)


# ---------------------------------------------------------------------------
# Laguerre closed forms


def _laguerre(p: Potential):
    """(e, sigma, c, A, steps) when V_reg' = c on one half-line with end
    e, with no pole terms, at most one charge A/2 sitting at e, and every
    other charge real, beyond e and with 2 alpha a positive integer;
    else None.

    sigma = +1 for [e, inf) and -1 for (-inf, e]; the Potential's own
    check makes the weight decay along the half-line, so sigma c > 0.
    steps lists each charge z beyond e 2 alpha times: on the half-line
    |x - z|^{2 alpha} is (sigma (x - z))^{2 alpha}, one Christoffel step
    (_christoffel) per factor.
    """
    ivs = p.support.intervals
    if p.reg_degree() != 1 or len(ivs) != 1 or any(any(s.t) for s in p.singularities):
        return None
    lo, hi = ivs[0]
    if math.isinf(lo) == math.isinf(hi):
        return None
    e, sigma = (lo, 1.0) if math.isinf(hi) else (hi, -1.0)
    big_a, steps = 0.0, []
    for s in p.singularities:
        power = 2.0 * s.alpha
        if s.b == e and not big_a:
            big_a = power
        elif s.b.imag == 0.0 and sigma * (e - s.b.real) > 0.0 and power.is_integer():
            steps += [float(s.b.real)] * int(power)
        else:
            return None
    return e, sigma, float(p.reg[0]), big_a, tuple(steps)


def _christoffel(a: list[float], b: list[float], z: float, sigma: float):
    """(a, b, sigma q_0): one Christoffel step, from the monic coefficients
    of mu to those of sigma (x - z) dmu, one degree shorter.

    It is one LU step of J - z I without pivoting, in Python floats:
    q_0 = a_0 - z, e_k = b_k / q_{k-1}, q_k = a_k - z - e_k, and the new
    coefficients are a_k = z + q_k + e_{k+1} and b_k = q_k e_k, with
    h_0 multiplied by sigma q_0.  sigma (x - z) > 0 on the support makes
    sigma (J - z I) positive definite, so every pivot has sigma q_k > 0;
    NumericalError is raised at the first pivot that does not, or is
    not finite.  len(b) >= len(a), and b's entries past len(a) - 1 are
    not read.
    """
    qs, es = [], [0.0]
    for k, ak in enumerate(a):
        q = ak - z - es[k]
        if not (sigma * q > 0.0 and math.isfinite(q)):
            raise NumericalError(
                f"Christoffel step at z = {z:.17g}: pivot q_{k} = {q:.3g} "
                f"does not have the sign {sigma:+g}")
        qs.append(q)
        es.append(b[k] / q)
    return ([z + q + e for q, e in zip(qs, es[1:-1])],
            [q * e for q, e in zip(qs[1:], es[1:-1])],
            sigma * qs[0])


def laguerre_recurrence(p: Potential, m_max: int) -> Recurrence:
    """Recurrence coefficients from the Laguerre closed forms, degrees 0..m_max.

    For V_reg' = c on one half-line with end e, no pole terms and at
    most one charge alpha, at e, the weight is
    w = |x - e|^A e^{-n c x}, A = 2 alpha: with y = sigma (x - e) and
    k = n |c| it is e^{-n c e} y^A e^{-k y}, a scaled Laguerre weight
    (Chihara, An Introduction to Orthogonal Polynomials, 1978, ch. V).
    So a_j = e + sigma (2j + A + 1)/k, b_j = j (j + A)/k^2 and
    log h_0 = -n c e + lgamma(A + 1) - (A + 1) log k, carried as
    h0 = h_0 e^{-s}, s = max(0, max log w - 690) as elsewhere.
    Each further charge z beyond e with 2 alpha a positive integer
    multiplies w by (sigma (x - z))^{2 alpha}, a polynomial with no zero
    on the half-line.  By Christoffel's theorem each of its 2 alpha
    linear factors is one exact LU step of J - z I on the coefficients
    (_christoffel; Gautschi, Orthogonal Polynomials: Computation and
    Approximation, OUP 2004, sec. 2.4; Galant, Math. Comp. 25, 1971), so
    the closed forms are written to m_max plus the number of steps, and
    each step gives up one degree and multiplies h_0 by its sigma q_0.
    s then comes from a bound on log w: with d_i = sigma (e - z_i) > 0,
    log w <= -n c e + M log(y + D) - k y for M = A + the number of
    steps and D the largest d_i, whose peak over y >= 0 is exact when
    there are no steps.  No quadrature carries the coefficients, so
    omega_max is 0.0.  ValidationError is raised outside the family,
    NumericalError at a pivot of the wrong sign and when h0 is not a
    positive finite double.
    """
    fam = _laguerre(p)
    if fam is None:
        raise ValidationError(
            "laguerre_recurrence needs V' = c on a half-line with no pole "
            "terms, at most one charge at its end, and charges beyond it "
            "only with 2 alpha a positive integer")
    if not m_max >= 1:
        raise ValidationError("m_max must be at least 1")
    e, sigma, c, big_a, steps = fam
    k = p.n * abs(c)
    size = m_max + len(steps)
    a = [e + sigma * (2 * j + big_a + 1.0) / k for j in range(size)]
    b = [j * (j + big_a) / (k * k) for j in range(1, size + 1)]
    log_h0 = -p.n * c * e + math.lgamma(big_a + 1.0) - (big_a + 1.0) * math.log(k)
    for z in steps:
        a, b, mass = _christoffel(a, b, z, sigma)
        log_h0 += math.log(mass)
    # M log(y + D) - k y peaks at y = M/k - D when that is positive, else
    # at the end itself
    top = big_a + len(steps)
    far = max((sigma * (e - z) for z in steps), default=0.0)
    if top > k * far:
        peak = top * (math.log(top / k) - 1.0) + k * far
    else:
        peak = top * math.log(far) if far else 0.0
    s = max(0.0, -p.n * c * e + peak - _LOG_TOP)
    h0 = math.exp(log_h0 - s)
    if not (h0 > 0.0 and math.isfinite(h0)):
        raise NumericalError("Laguerre weight has no representable mass")
    return Recurrence(a=tuple(a), b=tuple(b), h0=h0, log_shift=s, omega_max=0.0)


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
