"""Quadrature discretization and the Stieltjes recurrence."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npp
from scipy.integrate import quad as scipy_quad

from rmtlab import orthopoly
from rmtlab.errors import NumericalError, ValidationError
from rmtlab.potential import IntervalSet, Potential, Singularity, log_weight, v_reg
from rmtlab.quad import gauss_legendre
from rmtlab.orthopoly import (
    _OMEGA_TOL,
    QuadratureRule,
    Recurrence,
    build_quadrature,
    gram_check,
    laguerre_recurrence,
    orthonormal_rows,
    stieltjes_recurrence,
    string_recurrence,
    string_residual,
)
from rmtlab.kernel import kernel_diag, trace_check
from rmtlab.scenarios import default_fit, get_scenario

LINE = IntervalSet(((-math.inf, math.inf),))
HALF = IntervalSet(((0.0, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))


def gaussian(n=10):
    return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)


# ---------------------------------------------------------------------------
# quadrature


def test_gaussian_mass():
    q = build_quadrature(gaussian(10), 400)
    exact = math.sqrt(2.0 * math.pi / 10.0)
    assert np.sum(q.base * np.exp(q.log_w)) == pytest.approx(exact, rel=1e-10)


def test_nodes_sorted_inside_domain():
    p = Potential(n=20, reg=(-1.0,), singularities=(), support=NEG)
    q = build_quadrature(p, 400)
    assert np.all(np.diff(q.nodes) > 0)
    assert np.all(q.nodes < 0.0)
    assert np.all(q.base > 0.0)
    # the tail reaches n V ~ 1380 where w itself underflows; the
    # half-exponent form everything downstream uses must survive
    assert np.all(np.isfinite(q.log_w))
    assert np.all(np.exp(0.5 * q.log_w) > 0.0)
    assert q.cut_lo is not None and q.cut_lo < -4.0
    assert q.cut_hi is None


def test_charged_weight_mass():
    # |x| e^{-x^2/2} integrates to 2 exactly
    p = Potential(n=1, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=0.5),), support=LINE)
    q = build_quadrature(p, 400)
    mass = np.sum(q.base * np.exp(q.log_w))
    assert mass == pytest.approx(2.0, rel=1e-10)
    oracle, err = scipy_quad(lambda x: math.exp(log_weight(p, x)), -12.0, 12.0)
    assert mass == pytest.approx(oracle, rel=1e-9)


def test_hard_edge_node_grading():
    p = Potential(n=40, reg=(-1.0,), singularities=(), support=NEG)
    q = build_quadrature(p, 800)
    assert abs(q.nodes.max()) < 1e-8


def test_under_resolved_rule_rejected(monkeypatch):
    # order-2 panels miss the mass that the doubled-order rule finds
    monkeypatch.setattr(orthopoly, "_MIN_ORDER", 2)
    monkeypatch.setattr(orthopoly, "_MAX_ORDER", 2)
    with pytest.raises(NumericalError, match="doubled-rule"):
        build_quadrature(gaussian(10), 60)


def test_weight_values_recovered():
    p = gaussian(5)
    q = build_quadrature(p, 300)
    assert np.array_equal(q.log_w, log_weight(p, q.nodes))


@st.composite
def overflowing_quartics(draw):
    # V = t x^2/2 + x^4/4 has min V = -t^2/4, so max log w = n t^2/4;
    # draw n <= 600 with that past log(float max) = 709.78 but <= 1400
    t = draw(st.floats(-4.0, -2.0))
    top = t * t / 4.0
    lo, hi = math.floor(710.0 / top) + 1, min(600, math.floor(1400.0 / top))
    assume(lo <= hi)
    n = draw(st.integers(lo, hi))
    return Potential(n=n, reg=(0.0, t, 0.0, 1.0), singularities=(), support=LINE)


@settings(max_examples=4, deadline=None)
@given(p=overflowing_quartics())
def test_fit_where_weight_overflows(p):
    assert float(np.max(log_weight(p, np.linspace(-3.0, 3.0, 601)))) > 709.8
    r, q = default_fit(p)
    assert abs(trace_check(r, p, q) - p.n) / p.n < 1e-8
    assert gram_check(r, q, p.n) < 1e-10


def critical_quartic(n):
    return Potential(n=n, reg=(0.0, -2.0, 0.0, 1.0), singularities=(), support=LINE)


def test_critical_kernel_follows_its_scaling_past_overflow():
    # V = x^4/4 - x^2 has max log w = n, and its density vanishes like x^2
    # at x = 0, where K_n(0, 0) grows like n^(1/3); trace and Gram checks
    # pass on any discrete orthonormal system, this one needs the weight
    # at x = 0, where w is e^(-n) of its maximum
    scaled = []
    for n in (700, 1000):
        r, _ = default_fit(critical_quartic(n))
        scaled.append(float(kernel_diag(r, critical_quartic(n), np.array([0.0]))[0])
                      / n ** (1.0 / 3.0))
    assert scaled[1] == pytest.approx(scaled[0], rel=0.02)


def test_weight_beyond_one_scale_refused():
    # at n = 1400, sqrt(w / h_0) ~ e^((log w - n) / 2) underflows beside the
    # soft edges x = +-2 (log w = 0 there), where degree-n polynomials live
    with pytest.raises(NumericalError, match="below the double-precision floor"):
        default_fit(critical_quartic(1400))


# ---------------------------------------------------------------------------
# recurrence oracles


def test_gaussian_recurrence():
    n = 10
    q = build_quadrature(gaussian(n), 500, degree_hint=64)
    r = stieltjes_recurrence(q, 30)
    assert max(abs(a) for a in r.a) < 1e-12
    for j in range(1, 31):
        assert r.b[j - 1] == pytest.approx(j / n, rel=1e-9)
    h0 = r.h0 * math.exp(r.log_shift)
    assert h0 == pytest.approx(math.sqrt(2.0 * math.pi / n), rel=1e-10)
    # h_j = h_0 b_1 ... b_j = sqrt(2 pi/n) j! / n^j
    assert h0 * math.prod(r.b[:5]) == pytest.approx(
        math.sqrt(2.0 * math.pi / n) * math.factorial(5) / n ** 5, rel=1e-9)


def test_laguerre_recurrence():
    p = Potential(n=1, reg=(1.0,), singularities=(), support=HALF)
    q = build_quadrature(p, 500, degree_hint=64)
    r = stieltjes_recurrence(q, 30)
    for j in range(30):
        assert r.a[j] == pytest.approx(2 * j + 1, rel=1e-9)
    for j in range(1, 31):
        assert r.b[j - 1] == pytest.approx(j * j, rel=1e-9)


def test_laguerre_type_deep_exponent_range():
    # w = e^{n x} on (-inf, 0]: at n = 200 the pointwise product p_j^2 w
    # spans ~600 decades across the support, so this exercises the
    # sqrt-weight representation end to end
    n = 200
    p = Potential(n=n, reg=(-1.0,), singularities=(), support=NEG)
    q = build_quadrature(p, 1400, degree_hint=2 * (n + 2))
    r = stieltjes_recurrence(q, n + 1)
    for j in range(1, n + 2):
        assert r.b[j - 1] == pytest.approx(j * j / n ** 2, rel=1e-9)
    for j in range(n + 1):
        assert r.a[j] == pytest.approx(-(2 * j + 1) / n, rel=1e-9)


def test_clipped_tail_is_rejected():
    # at n = 340 the representable budget for e^{n x} runs out inside
    # the oscillatory region of degree-341 polynomials; the recurrence
    # must refuse rather than return drifted coefficients
    n = 340
    p = Potential(n=n, reg=(-1.0,), singularities=(), support=NEG)
    q = build_quadrature(p, 1400, degree_hint=2 * (n + 2))
    with pytest.raises(NumericalError, match="clips"):
        stieltjes_recurrence(q, n + 1)


def test_orthonormal_rows_match_hermite_functions():
    # n = 1: w = e^{-x^2/2}, p_j = He_j, h_j = sqrt(2 pi) j!
    p = gaussian(1)
    r = stieltjes_recurrence(build_quadrature(p, 400), 10)
    xs = np.linspace(-3.0, 3.0, 61)
    rows = list(orthonormal_rows(r, xs, log_weight(p, xs), 10))
    assert len(rows) == 11
    for j, row in enumerate(rows):
        ref = (np.exp(-xs ** 2 / 4.0) * sps.eval_hermitenorm(j, xs)
               / math.sqrt(math.sqrt(2.0 * math.pi) * math.factorial(j)))
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_h_positive_and_finite():
    p = Potential(n=30, reg=(0.0, -2.0, 0.0, 1.0), singularities=(), support=LINE)
    q = build_quadrature(p, 600, degree_hint=60)
    r = stieltjes_recurrence(q, 25)
    assert r.h0 > 0 and math.isfinite(r.h0)


# ---------------------------------------------------------------------------
# orthogonality checks


def test_gram_gaussian():
    q = build_quadrature(gaussian(10), 600, degree_hint=44)
    r = stieltjes_recurrence(q, 21)
    assert gram_check(r, q, 20) < 1e-10
    assert gram_check(r, q, 0) < 1e-14


def test_gram_against_doubled_rule():
    p = Potential(n=12, reg=(0.0, 1.0, 0.0, 0.5),
                  singularities=(Singularity(b=0.5, alpha=0.4),), support=LINE)
    q = build_quadrature(p, 500, degree_hint=50)
    r = stieltjes_recurrence(q, 20)
    q2 = build_quadrature(p, 1000, degree_hint=50)
    assert gram_check(r, q2, 18) < 1e-8


def test_under_resolved_gram_is_large(monkeypatch):
    # a recurrence built on a coarse rule (order-5 panels; _MIN_ORDER also
    # sizes the width rule's panels) orthogonalizes the wrong discrete
    # measure; checking against an independent fine rule must report a
    # large residual, not a silent pass
    with monkeypatch.context() as m:
        m.setattr(orthopoly, "_MIN_ORDER", 5)
        m.setattr(orthopoly, "_MAX_ORDER", 5)
        q = build_quadrature(gaussian(10), 300, degree_hint=8)
    r = stieltjes_recurrence(q, 60)
    ref = build_quadrature(gaussian(10), 1200, degree_hint=130)
    assert gram_check(r, ref, 60) > 1e-3
    assert gram_check(r, q, 60) < 1e-12  # self-consistent by construction


def test_doubling_resolution_converges():
    p = Potential(n=10, reg=(0.0, 1.0, 0.0, 1.0),
                  singularities=(Singularity(b=0.5, alpha=0.3),), support=LINE)
    r1 = stieltjes_recurrence(build_quadrature(p, 400, degree_hint=50), 24)
    r2 = stieltjes_recurrence(build_quadrature(p, 800, degree_hint=50), 24)
    for j in range(12):
        assert r1.a[j] == pytest.approx(r2.a[j], abs=1e-8 * (1 + abs(r2.a[j])))
        assert r1.b[j] == pytest.approx(r2.b[j], rel=1e-8)


def test_lost_orthogonality_is_rejected():
    # one heavy node far outside [-1, 1]: the extreme Ritz value
    # converges to it within a few steps, the plain Lanczos vectors lose
    # orthogonality, and the coefficients past that point are wrong
    # (their forward recurrence has a Gram defect ~1e24); the monitor
    # must refuse instead of returning them
    x, w = np.polynomial.legendre.leggauss(240)
    q = QuadratureRule(nodes=np.append(x, 3.0), base=np.append(w, 0.05),
                       log_w=np.zeros(241), provenance="hand-built")
    with pytest.raises(NumericalError, match="orthogonality"):
        stieltjes_recurrence(q, 40)


def test_monitor_refusal_on_a_mirrored_rule_is_unchanged():
    # the heavy-node rule made mirror-symmetric: the mirrored path, which
    # drops the (a_k - a_j) w_{j,k} term, refuses at the degree and with
    # the message of the full omega-recurrence
    t, w = gauss_legendre(240)
    h = t.size // 2
    x = np.concatenate(([-3.0], -t[h:][::-1], t[h:], [3.0]))
    base = np.concatenate(([0.05], w[h:][::-1], w[h:], [0.05]))
    q = QuadratureRule(nodes=x, base=base, log_w=np.zeros(x.size), provenance="hand-built")
    assert orthopoly._is_mirrored(q)
    with pytest.raises(NumericalError) as got:
        stieltjes_recurrence(q, 40)
    with pytest.raises(NumericalError) as ref:
        reference_recurrence(q, 40)
    assert str(got.value) == str(ref.value) == (
        "Lanczos vectors lost orthogonality at degree 12 "
        "(estimated |<phi_i, phi_j>| = 4.81e-08 > 1.5e-08)")


def test_omega_max_recorded():
    r, _ = default_fit(gaussian(60))
    assert 0.0 < r.omega_max <= _OMEGA_TOL


# ---------------------------------------------------------------------------
# the fit layers against their straightforward forms: a width rule on
# npp.polyval, one Gauss-Legendre rule per panel, and a recurrence that
# allocates every vector; each must agree with the fast form bit for bit


def reference_width_rule(p, d_hint):
    def width(x, anchors):
        dv1 = abs(npp.polyval(x, p.reg))
        d2 = [j * t for j, t in enumerate(p.reg)][1:]
        dv2 = abs(npp.polyval(x, d2)) if d2 else 0.0
        cap = max(1.0, 0.25 * (abs(x) + 1.0))
        w = min(cap, orthopoly._EXP_BUDGET / (p.n * dv1 + 1e-12))
        w = min(w, math.sqrt(2.0 * orthopoly._EXP_BUDGET / (p.n * dv2 + 1e-12)))
        dist = min((abs(x - a) for a in anchors), default=math.inf)
        k2 = 2.0 * d_hint * (p.n * dv2 + p.n * dv1 / max(dist, 1e-300))
        return min(w, orthopoly._MIN_ORDER / math.sqrt(max(k2, 1e-12)))
    return width


def reference_panel_rules(panels, m):
    t, wt = gauss_legendre(m)
    xs, ws = [], []
    for a, b in panels:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * t)
        ws.append(half * wt)
    return np.concatenate(xs), np.concatenate(ws)


def reference_is_mirrored(q):
    return (q.nodes.size % 2 == 0 and np.array_equal(q.nodes, -q.nodes[::-1])
            and np.array_equal(q.base, q.base[::-1])
            and np.array_equal(q.log_w, q.log_w[::-1]))


def reference_plain_panels(width, x0, x1, anchors):
    """_plain_panels with both width calls made at every panel."""
    out, x, span = [], x0, x1 - x0
    while x < x1 - 1e-13 * max(1.0, abs(x1)):
        w = width(x, anchors)
        w = min(w, width(min(x1, x + w), anchors))
        w = max(w, 1e-8 * span)
        nxt = min(x1, x + w)
        out.append((x, nxt))
        x = nxt
    return out


def reference_recurrence(q, m_max):
    """(a, b, h0, omega_max) of stieltjes_recurrence, one new array per step.

    A mirrored rule runs on its x > 0 half with doubled weights and
    a_j = 0; the omega monitor's rounding seed stays that of all N nodes.
    """
    x, wt, lw, npts = q.nodes, q.base, q.log_w, q.nodes.size
    mirrored = reference_is_mirrored(q)
    if mirrored:
        x, wt, lw = x[npts // 2:], 2.0 * wt[npts // 2:], lw[npts // 2:]
    s = max(0.0, float(np.max(lw)) - orthopoly._LOG_TOP)
    sw = np.exp(0.5 * (lw - s))
    h0 = float(np.sum(wt * sw * sw))
    a, beta, b_list = np.zeros(m_max), np.zeros(m_max + 1), []
    omega, omega_prev = np.zeros(m_max + 1), np.zeros(m_max + 1)
    omega[0] = 1.0
    omega_max = 0.0
    rounding = orthopoly._EPS * math.sqrt(npts) * float(np.max(np.abs(x)))
    cur, prev = sw / math.sqrt(h0), np.zeros(x.size)
    for j in range(m_max):
        aj = 0.0 if mirrored else float(np.sum(wt * x * cur * cur))
        r = (x - aj) * cur - beta[j] * prev
        b2 = float(np.sum(wt * r * r))
        if not (b2 > 0.0 and math.isfinite(b2)):
            raise NumericalError(
                f"degree exceeds discretization resolution (b_{j + 1} lost positivity)")
        a[j] = aj
        beta[j + 1] = math.sqrt(b2)
        b_list.append(b2)
        prev, cur = cur, r / beta[j + 1]
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
                f"(estimated |<phi_i, phi_j>| = {worst:.2e} > {_OMEGA_TOL:.1e})")
        omega_max = max(omega_max, worst)
        omega_prev, omega = omega, nxt
    return tuple(a.tolist()), tuple(b_list), h0, omega_max


def mp_hard_edge(n, alpha):
    return get_scenario("mp-hard-edge", alpha=alpha).make_potential(n)


@pytest.mark.parametrize("p", [
    gaussian(60),
    critical_quartic(120),
    mp_hard_edge(100, 0.0),
    mp_hard_edge(100, 0.5),
    get_scenario("mp-two-charge").make_potential(40),
], ids=["gue", "quartic", "mp0", "mp-half", "mp-two-charge"])
def test_fit_layers_match_reference_exactly(monkeypatch, p):
    m = p.n + 1
    res, hint = max(900, 6 * p.n), 2 * (m + 1)
    q = build_quadrature(p, res, degree_hint=hint)
    r = stieltjes_recurrence(q, m)
    with monkeypatch.context() as mp:
        mp.setattr(orthopoly, "_width_rule", reference_width_rule)
        mp.setattr(orthopoly, "_panel_rules", reference_panel_rules)
        mp.setattr(orthopoly, "_plain_panels", reference_plain_panels)
        ref = build_quadrature(p, res, degree_hint=hint)
    for field in ("nodes", "base", "log_w"):
        assert np.array_equal(getattr(q, field), getattr(ref, field)), field
    assert (q.provenance, q.cut_lo, q.cut_hi) == (ref.provenance, ref.cut_lo, ref.cut_hi)
    a, b, h0, omega_max = reference_recurrence(ref, m)
    assert r.a == a and r.b == b
    assert r.h0 == h0 and r.omega_max == omega_max
    # the even models' rules are mirrored by construction
    assert orthopoly._is_mirrored(q) == p.is_even()


def odd_symmetric_rule():
    # exactly symmetric, but N is odd: the middle node sits at 0
    t, w = gauss_legendre(401)
    x = 6.0 * t
    return QuadratureRule(nodes=x, base=6.0 * w, log_w=-10.0 * x * x / 2.0,
                          provenance="hand-built")


def nudged_rule():
    # a mirrored Gaussian rule with one log_w entry moved by one ulp
    q = build_quadrature(gaussian(40), 900, degree_hint=84)
    log_w = q.log_w.copy()
    log_w[10] = np.nextafter(log_w[10], 0.0)
    return QuadratureRule(nodes=q.nodes, base=q.base, log_w=log_w, provenance="hand-built")


def conjugate_pair_rule():
    p = Potential(n=40, reg=(0.0, 1.0),
                  singularities=(Singularity(b=1 + 1j, alpha=0.5),
                                 Singularity(b=1 - 1j, alpha=0.5)), support=LINE)
    return build_quadrature(p, 900, degree_hint=84)


@pytest.mark.parametrize("rule", [odd_symmetric_rule, nudged_rule, conjugate_pair_rule],
                         ids=["odd-n", "one-ulp", "conjugate-pair"])
def test_unmirrored_rules_take_the_full_path(rule):
    q = rule()
    assert not orthopoly._is_mirrored(q)
    r = stieltjes_recurrence(q, 41)
    a, b, h0, omega_max = reference_recurrence(q, 41)
    assert (r.a, r.b, r.h0, r.omega_max) == (a, b, h0, omega_max)


@pytest.mark.parametrize("reg", [(-1.0,), (0.0, 1.0), (0.0, -2.0, 0.0, 1.0),
                                 (0.3, -1.7, 0.25, 1.1, -0.05, 0.4)])
def test_width_rule_matches_reference_exactly(reg):
    # the rule reads only n and reg; a bounded support keeps V = -x valid
    p = Potential(n=37, reg=reg, singularities=(), support=IntervalSet(((-10.0, 10.0),)))
    width, ref = orthopoly._width_rule(p, 75), reference_width_rule(p, 75)
    xs = np.linspace(-7.0, 7.0, 2001).tolist()
    for anchors in ((), (-1.0, 0.0)):
        assert [width(x, anchors) for x in xs] == [ref(x, anchors) for x in xs]


def single_point_rule():
    # one node carries all the mass, so a_0 is that node exactly and
    # (x - a_0) psi_0 vanishes: b_1 = 0
    log_w = np.full(41, -math.inf)
    log_w[30] = 0.0
    return QuadratureRule(nodes=np.linspace(-1.0, 1.0, 41), base=np.ones(41),
                          log_w=log_w, provenance="hand-built")


def heavy_outlier_rule():
    # the rule of test_lost_orthogonality_is_rejected
    x, w = np.polynomial.legendre.leggauss(240)
    return QuadratureRule(nodes=np.append(x, 3.0), base=np.append(w, 0.05),
                          log_w=np.zeros(241), provenance="hand-built")


@pytest.mark.parametrize("rule, m_max, match", [
    (single_point_rule, 5, "b_1 lost positivity"),
    (heavy_outlier_rule, 40, "orthogonality"),
])
def test_recurrence_refuses_as_reference(rule, m_max, match):
    with pytest.raises(NumericalError, match=match) as ref:
        reference_recurrence(rule(), m_max)
    with pytest.raises(NumericalError) as got:
        stieltjes_recurrence(rule(), m_max)
    assert str(got.value) == str(ref.value)


def reference_gram_error(r, q, m):
    """|G - I| for the Gram matrix G of the whole (m+1) x N rule, nothing cleared."""
    psi = np.empty((m + 1, q.nodes.size))
    for j, row in enumerate(orthonormal_rows(r, q.nodes, q.log_w, m)):
        psi[j] = row
    psi *= np.sqrt(q.base)
    return np.abs(psi @ psi.T - np.eye(m + 1))


def reference_gram_defect(r, q, m):
    """gram_check on the whole (m+1) x N matrix, nothing cleared."""
    return float(reference_gram_error(r, q, m).max())


@pytest.mark.parametrize("p", [
    gaussian(60),
    gaussian(240),
    critical_quartic(120),
    critical_quartic(240),
    mp_hard_edge(100, 0.0),
    mp_hard_edge(100, 0.5),
    get_scenario("mp-two-charge").make_potential(40),
], ids=["gue60", "gue240", "quartic120", "quartic240", "mp0", "mp-half",
        "mp-two-charge"])
def test_gram_check_matches_reference(p):
    # the blocks change only the order of the sums, and the cleared
    # entries are below sqrt(tiny)
    r, q = default_fit(p)
    assert gram_check(r, q, p.n) == pytest.approx(
        reference_gram_defect(r, q, p.n), rel=0, abs=1e-15)


@pytest.mark.parametrize("p", [gaussian(120), critical_quartic(120)],
                         ids=["gue120", "quartic120"])
def test_parity_gram_matches_full_rule(p):
    # the half rule's even- and odd-degree blocks are the full Gram's
    # same-parity entries; its mixed-parity entries are summation noise
    r, q = default_fit(p)
    assert orthopoly._is_mirrored(q) and not any(r.a)
    err = reference_gram_error(r, q, p.n)
    idx = np.arange(p.n + 1)
    mixed = np.add.outer(idx, idx) % 2 == 1
    assert err[mixed].max() <= 1e-15
    assert gram_check(r, q, p.n) == pytest.approx(err[~mixed].max(), rel=0, abs=1e-15)


@pytest.mark.parametrize("block", [1, 13 * 11 + 5, 1 << 18])
def test_gram_check_any_block_width(monkeypatch, block):
    # one node per block, a ragged last block, and a single block
    q = build_quadrature(gaussian(10), 400, degree_hint=24)
    r = stieltjes_recurrence(q, 10)
    monkeypatch.setattr(orthopoly, "_GRAM_BLOCK", block)
    assert gram_check(r, q, 10) == pytest.approx(
        reference_gram_defect(r, q, 10), rel=0, abs=1e-15)


def traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_check_memory_is_bounded():
    # the whole 241 x 6912 matrix would take 13.3 MB
    r, q = default_fit(critical_quartic(240))
    assert traced_peak(gram_check, r, q, 240) < 6e6


def test_gram_check_degree_checked_before_allocating():
    r, q = default_fit(gaussian(20))

    def refused():
        with pytest.raises(ValidationError, match="degree"):
            gram_check(r, q, 10 ** 9)

    assert traced_peak(refused) < 1e5


# ---------------------------------------------------------------------------
# even models


def test_even_model_with_two_charges_is_mirrored():
    p = Potential(n=40, reg=(0.0, 1.0),
                  singularities=(Singularity(b=1.0, alpha=0.5),
                                 Singularity(b=-1.0, alpha=0.5)), support=LINE)
    assert p.is_even()
    q = build_quadrature(p, 900)
    assert np.array_equal(q.nodes, -q.nodes[::-1])
    assert np.array_equal(q.base, q.base[::-1])
    # log w is evaluated on x > 0 and mirrored: summing the charges' terms
    # at -x in the other order left entries an ulp off
    assert np.array_equal(q.log_w, q.log_w[::-1])
    assert orthopoly._is_mirrored(q)


@pytest.mark.parametrize("support", [((-3.0, -0.5), (0.5, 3.0)),
                                     ((-math.inf, -1.0), (1.0, math.inf))],
                         ids=["bounded", "unbounded"])
def test_even_model_on_two_mirrored_intervals(support):
    # the x >= 0 half of the domain is its right component alone: the
    # left one (hi <= 0) is skipped and comes back as the mirror image
    p = Potential(n=40, reg=(0.0, 1.0), singularities=(),
                  support=IntervalSet(support))
    assert p.is_even()
    r, q = default_fit(p)
    assert orthopoly._is_mirrored(q) and reference_is_mirrored(q)
    assert not any(r.a)
    if math.isinf(support[0][0]):
        assert q.cut_lo == -q.cut_hi
    else:
        assert q.cut_lo is None and q.cut_hi is None
    assert gram_check(r, q, p.n) < 1e-12
    assert trace_check(r, p, q) == pytest.approx(p.n, rel=1e-12)
    a, b, h0, omega_max = reference_recurrence(q, r.m_max)
    assert (r.a, r.b, r.h0, r.omega_max) == (a, b, h0, omega_max)


def test_conjugate_pair_fits_as_non_even_model():
    p = Potential(n=40, reg=(0.0, 1.0),
                  singularities=(Singularity(b=1 + 1j, alpha=0.5),
                                 Singularity(b=1 - 1j, alpha=0.5)), support=LINE)
    assert not p.is_even()
    r, q = default_fit(p)
    assert gram_check(r, q, p.n) < 1e-12
    # |x - 1 - i| |x - 1 + i| = (x - 1)^2 + 1 weights mass away from x = 1
    assert r.a[0] < 0.0


# ---------------------------------------------------------------------------
# string equation


def even_quartic(n, t, g=1.0):
    return Potential(n=n, reg=(0.0, t, 0.0, g), singularities=(), support=LINE)


def merge(tau, n):
    return get_scenario("quartic-merge", tau=tau).make_potential(n)


STRING_CASES = {
    **{f"gue-{n}": gaussian(n) for n in (40, 200, 400)},
    **{f"critical-{n}": even_quartic(n, -2.0) for n in (60, 240, 600)},
    **{f"merge-tau{tau:g}-{n}": merge(tau, n) for tau in (0.0, 2.0)
       for n in (30, 60, 120, 240)},
    "two-cut-100": even_quartic(100, -3.0),
    "two-cut-400": even_quartic(400, -3.0),
    "one-cut-200": even_quartic(200, -1.0),
    "g0.4-150": even_quartic(150, 0.7, 0.4),
    "g2.5-90": even_quartic(90, -1.2, 2.5),
}


@pytest.mark.parametrize("p", STRING_CASES.values(), ids=STRING_CASES.keys())
def test_string_recurrence_matches_stieltjes_fit(p):
    r, ref = string_recurrence(p, p.n + 1), default_fit(p)[0]
    b, b_ref = np.array(r.b), np.array(ref.b)
    assert np.max(np.abs(b - b_ref) / b_ref) <= 1e-13
    # each rule takes its own shift, so h_0 compares through log h0 + log_shift
    assert abs(math.log(r.h0) + r.log_shift
               - (math.log(ref.h0) + ref.log_shift)) <= 1e-13
    assert r.a == (0.0,) * (p.n + 1) and r.omega_max == 0.0


def test_string_recurrence_is_exact_for_the_gaussian():
    for n in (1, 7, 300):
        assert string_recurrence(gaussian(n), n + 1).b == tuple(
            j / n for j in range(1, n + 2))


def test_h0_of_two_fits_compares_with_its_shift():
    p = even_quartic(400, -3.0)
    r, ref = string_recurrence(p, 401), default_fit(p)[0]
    assert r.log_shift == pytest.approx(209.99991, abs=1e-5)
    assert ref.log_shift == pytest.approx(209.99998, abs=1e-5)
    assert abs(math.log(r.h0) - math.log(ref.h0)) > 5e-5
    assert math.log(r.h0) + r.log_shift == pytest.approx(
        math.log(ref.h0) + ref.log_shift, abs=1e-13)


TRAPEZOID_CASES = [(t, g, n) for t, g in ((-3.0, 1.0), (-2.0, 1.0), (-1.0, 1.0),
                                           (1.0, 1.0), (1.0, 0.0))
                   for n in (30, 400, 3000, 20000)]


@pytest.mark.parametrize("t, g, n", TRAPEZOID_CASES)
def test_trapezoid_h0_matches_the_quadrature_rule(t, g, n):
    # the rule string_recurrence took h_0 from before: measured at most
    # 2.8e-16 relative over these cases
    p = even_quartic(n, t, g)
    h0, s = orthopoly._trapezoid_mass(p, t, g)
    *_, h0_ref, s_ref = orthopoly._rule_mass(build_quadrature(p, 64, degree_hint=8))
    ref = math.log(h0_ref) + s_ref
    assert abs(math.log(h0) + s - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("t, g, n", [c for c in TRAPEZOID_CASES if c[2] >= 400])
def test_trapezoid_h0_refuses_a_coarse_step(monkeypatch, t, g, n):
    # 8x the step: the rule on every other node then differs by 4.6e-6
    # (t = 1, g = 1, n = 400) or more, against at most 9.1e-13 at the real
    # step (rounding of log w ~ 4.5e4 at t = -3, n = 20 000); at n = 30
    # the weight is wide enough that t = 1, g = 1 still agrees to 1.4e-14
    p = even_quartic(n, t, g)
    monkeypatch.setattr(orthopoly, "_TRAPEZOID_STEP", 8 * orthopoly._TRAPEZOID_STEP)
    with pytest.raises(NumericalError, match="rule on every other node differs"):
        orthopoly._trapezoid_mass(p, t, g)


def laguerre_potential(n, alpha, side):
    sings = (Singularity(b=0.0, alpha=alpha),) if alpha else ()
    return Potential(n=n, reg=(side,), singularities=sings,
                     support=NEG if side < 0 else HALF)


def laguerre_defects(r, ref):
    """Worst relative gaps of a_j and b_j, and the gap of log h0 + log_shift."""
    a, a_ref = np.array(r.a), np.array(ref.a)
    b, b_ref = np.array(r.b), np.array(ref.b)
    return (float(np.max(np.abs(a - a_ref) / np.abs(a_ref))),
            float(np.max(np.abs(b - b_ref) / b_ref)),
            abs(math.log(r.h0) + r.log_shift - math.log(ref.h0) - ref.log_shift))


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["neg", "pos"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
@pytest.mark.parametrize("n", [50, 150, 300])
def test_laguerre_closed_form_certifies_stieltjes_fits(n, alpha, side):
    # measured worst gaps: 9.0e-15 (a_j), 6.9e-15 (b_j), 3.6e-15 (log h_0);
    # alpha moved by 1e-3 gives at least 5.6e-4, a shifted b index 1.6
    p = laguerre_potential(n, alpha, side)
    r, ref = laguerre_recurrence(p, n + 1), default_fit(p)[0]
    da, db, dh = laguerre_defects(r, ref)
    assert da <= 2e-14 and db <= 2e-14 and dh <= 1e-13
    assert r.omega_max == 0.0
    moved = laguerre_recurrence(laguerre_potential(n, alpha + 1e-3, side), n + 1)
    assert max(laguerre_defects(moved, ref)[:2]) > 2e-14
    shifted = replace(r, b=r.b[1:] + (r.b[-1],))
    assert laguerre_defects(shifted, ref)[1] > 2e-14


def test_laguerre_closed_form_off_the_origin():
    # V = 2x on [1, inf), charge 1/2 at 1: a_j = 1 + (2j + 2)/2n
    p = Potential(n=40, reg=(2.0,), singularities=(Singularity(b=1.0, alpha=0.5),),
                  support=IntervalSet(((1.0, math.inf),)))
    r = laguerre_recurrence(p, 41)
    assert r.a[:2] == (1.0 + 2.0 / 80.0, 1.0 + 4.0 / 80.0)
    assert r.b[:2] == (2.0 / 6400.0, 6.0 / 6400.0)
    da, db, dh = laguerre_defects(r, default_fit(p)[0])
    assert da <= 2e-14 and db <= 2e-14 and dh <= 1e-13


def test_laguerre_h0_is_shifted_past_the_overflow():
    # V = -x on (-inf, 1000], n = 10: log w peaks at n e = 10 000
    p = Potential(n=10, reg=(-1.0,), singularities=(),
                  support=IntervalSet(((-math.inf, 1000.0),)))
    r = laguerre_recurrence(p, 11)
    assert r.log_shift == 10000.0 - 690.0
    assert math.log(r.h0) + r.log_shift == pytest.approx(10000.0 - math.log(10.0),
                                                         rel=1e-15)
    with pytest.raises(NumericalError, match="no representable mass"):
        laguerre_recurrence(replace(p, support=IntervalSet(((-math.inf, -1000.0),))), 11)


def two_at_the_end():
    # the Potential refuses a duplicate point itself; the family test
    # takes one charge at the end and must not take a second
    p = laguerre_potential(40, 0.5, -1.0)
    object.__setattr__(p, "singularities", p.singularities * 2)
    return p


@pytest.mark.parametrize("p", [
    even_quartic(40, 1.0),
    Potential(n=40, reg=(-1.0, 0.5), singularities=(), support=NEG),
    Potential(n=40, reg=(-1.0,), singularities=(), support=IntervalSet(((-3.0, 0.0),))),
    Potential(n=40, reg=(-1.0,), singularities=(Singularity(b=-1.0, alpha=0.5),),
              support=NEG),
    Potential(n=40, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.5),
                                                Singularity(b=-1.0, alpha=0.5)),
              support=NEG),
    Potential(n=40, reg=(-1.0,), singularities=(
        Singularity(b=0.0, alpha=0.5, t=(0.0, -1.0)),), support=NEG),
    Potential(n=40, reg=(-1.0,), singularities=(Singularity(b=0.01, alpha=0.75),),
              support=NEG),
    Potential(n=40, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.5),
                                                Singularity(b=0.01, alpha=0.25)),
              support=NEG),
    Potential(n=40, reg=(-1.0,), singularities=(
        Singularity(b=0.01, alpha=0.5, t=(0.0, -1.0)),), support=NEG),
    Potential(n=40, reg=(-1.0,), singularities=(Singularity(b=1 + 1j, alpha=0.5),
                                                Singularity(b=1 - 1j, alpha=0.5)),
              support=NEG),
    two_at_the_end(),
], ids=["line", "quadratic", "interval", "charge-inside", "two-charges", "pole",
        "beyond-non-integer", "beyond-quarter", "beyond-pole", "complex-pair",
        "two-at-the-end"])
def test_laguerre_route_is_refused_outside_its_family(p):
    with pytest.raises(ValidationError, match="V' = c on a half-line"):
        laguerre_recurrence(p, 3)


def test_laguerre_family_ignores_zero_padding():
    p = laguerre_potential(40, 0.5, -1.0)
    padded = replace(p, reg=(-1.0, 0.0), singularities=(
        Singularity(b=0.0, alpha=0.5, t=(0.0, 0.0)),))
    assert laguerre_recurrence(padded, 41) == laguerre_recurrence(p, 41)
    with pytest.raises(ValidationError, match="m_max"):
        laguerre_recurrence(p, 0)


def reference_truncation_point(p, x0, direction):
    """_truncation_point with the fixed 80 halvings it once took."""
    def f(x):
        return p.n * orthopoly.v_reg(p, x) + orthopoly._LOG_FLOOR

    step = 1.0
    hi = x0 + direction * step
    while f(hi) < 0.0:
        step *= 2.0
        hi = x0 + direction * step
    lo = x0 if step == 1.0 else x0 + direction * step / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


TRUNCATION_MODELS = [
    *(get_scenario(name, **params).make_potential(n)
      for name, params, ns in [
          ("gue-bulk", {}, (40, 80, 160, 320)),
          ("gue-edge", {}, (50, 100, 200, 400)),
          ("mp-hard-edge", {"alpha": 0.5}, (50, 100, 200, 280)),
          ("quartic-merge", {"tau": 0.0}, (30, 60, 120, 240)),
          ("quartic-merge", {"tau": 2.0}, (30, 60, 120, 240)),
          ("mp-two-charge", {}, (20, 40, 80, 160))]
      for n in ns),
    gaussian(1000),
    *(critical_quartic(n) for n in (40, 100, 200, 400, 1000)),
    *(laguerre_potential(n, 0.5, -1.0) for n in (40, 400, 1000)),
]


@pytest.mark.parametrize("p", TRUNCATION_MODELS,
                         ids=lambda p: f"{p.reg}-{len(p.singularities)}-{p.n}")
def test_truncation_point_stops_where_bisection_stalls(monkeypatch, p):
    calls = []
    monkeypatch.setattr(orthopoly, "v_reg", lambda p, x: calls.append(x) or v_reg(p, x))
    for direction in (-1.0, 1.0):
        if math.isinf(p.support.lo if direction < 0 else p.support.hi):
            x = orthopoly._truncation_point(p, 0.0, direction)
            fast = len(calls)
            assert x == reference_truncation_point(p, 0.0, direction)
            # only 51-52 of the 80 halvings move lo or hi
            assert len(calls) - 2 * fast in (28, 29)
            calls.clear()


def test_laguerre_without_steps_is_the_closed_form_bit_for_bit():
    # the mp-hard-edge fits: no Christoffel step touches a, b, h0 or s
    for alpha in (0.0, 0.5):
        p = mp_hard_edge(200, alpha)
        big_a, k = 2.0 * alpha, 200.0
        r = laguerre_recurrence(p, 201)
        assert r.a == tuple(0.0 + -1.0 * (2 * j + big_a + 1.0) / k for j in range(201))
        assert r.b == tuple(j * (j + big_a) / (k * k) for j in range(1, 202))
        assert r.h0 == math.exp(
            -200 * -1.0 * 0.0 + math.lgamma(big_a + 1.0) - (big_a + 1.0) * math.log(k) - 0.0)
        assert r.log_shift == 0.0


def two_charge(n, alpha1, alpha2, tau):
    """V = -x on (-inf, 0], charge alpha1 at 0 (none for 0) and alpha2 at tau/n^2."""
    sings = (Singularity(b=0.0, alpha=alpha1),) if alpha1 else ()
    return Potential(n=n, reg=(-1.0,), support=NEG,
                     singularities=sings + (Singularity(b=tau / n ** 2, alpha=alpha2),))


# measured worst gaps over this grid: 2.4e-14 (a_j), 3.2e-14 (b_j) and
# 1.9e-14 (log h_0); the charge moved by 1e-3 relative gives at least
# 3.8e-7, a shifted b index at least 1
@pytest.mark.parametrize("n", [20, 80, 160])
@pytest.mark.parametrize("tau", [1.0, 5.0])
@pytest.mark.parametrize("alpha2", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("alpha1", [0.0, 0.25, 0.5, 1.3])
def test_christoffel_steps_certify_stieltjes_fits(alpha1, alpha2, tau, n):
    p = two_charge(n, alpha1, alpha2, tau)
    r, ref = laguerre_recurrence(p, n + 1), default_fit(p)[0]
    da, db, dh = laguerre_defects(r, ref)
    assert da <= 1e-13 and db <= 1e-13 and dh <= 1e-13
    assert r.omega_max == 0.0 and r.m_max == n + 1
    moved = laguerre_recurrence(two_charge(n, alpha1, alpha2, tau * (1.0 + 1e-3)), n + 1)
    assert max(laguerre_defects(moved, ref)[:2]) > 1e-13
    shifted = replace(r, b=r.b[1:] + (r.b[-1],))
    assert laguerre_defects(shifted, ref)[1] > 1e-13


def test_christoffel_steps_on_both_half_lines():
    # V = 2x on [1, inf) with a charge 1/2 at 1 and a charge 1 at 0.75:
    # two steps from the left, against the quadrature fit
    p = Potential(n=40, reg=(2.0,), support=IntervalSet(((1.0, math.inf),)),
                  singularities=(Singularity(b=1.0, alpha=0.5),
                                 Singularity(b=0.75, alpha=1.0)))
    da, db, dh = laguerre_defects(laguerre_recurrence(p, 41), default_fit(p)[0])
    assert da <= 1e-13 and db <= 1e-13 and dh <= 1e-13


def test_christoffel_step_past_the_overflow():
    # V = -x on (-inf, 1000], n = 10, charge 1 at 1000.5: w = (y + 1/2)^2
    # e^{10 000 - 10 y} with y = 1000 - x, so h_0 = e^{10 000} (2/10^3 +
    # 1/10^2 + 1/40) and log w peaks at the end, 10 000 + 2 log(1/2)
    end = IntervalSet(((-math.inf, 1000.0),))
    p = Potential(n=10, reg=(-1.0,), support=end,
                  singularities=(Singularity(b=1000.5, alpha=1.0),))
    r = laguerre_recurrence(p, 11)
    assert r.log_shift == pytest.approx(10000.0 + 2.0 * math.log(0.5) - 690.0, rel=1e-15)
    assert math.log(r.h0) + r.log_shift == pytest.approx(10000.0 + math.log(0.037),
                                                         rel=1e-15)
    # the same weight moved to the origin: a_j move by the shift, b_j not
    near = laguerre_recurrence(Potential(n=10, reg=(-1.0,), support=NEG,
                                         singularities=(Singularity(b=0.5, alpha=1.0),)), 11)
    assert np.allclose(np.array(r.a) - 1000.0, near.a, rtol=0.0, atol=1e-12)
    assert np.allclose(r.b, near.b, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("z", [-0.5, -0.01, math.nan], ids=["first", "later", "nan"])
def test_christoffel_pivot_of_the_wrong_sign_is_refused(monkeypatch, z):
    # a step at a point inside the support is no positive factor: some
    # pivot q_k leaves the sign of sigma, the first one at z = -0.5
    p = laguerre_potential(40, 0.5, -1.0)
    e, sigma, c, big_a, steps = orthopoly._laguerre(p)
    assert steps == ()
    monkeypatch.setattr(orthopoly, "_laguerre", lambda p: (e, sigma, c, big_a, (z,)))
    with pytest.raises(NumericalError, match="Christoffel step") as err:
        laguerre_recurrence(p, 41)
    assert ("pivot q_0 " in str(err.value)) == (z != -0.01)


# measured worst residuals of default_fit: 3.5e-15 (GUE, n = 500),
# 1.8e-12 (critical quartic, n = 1 340) and 2.3e-13 (quartic-merge);
# a 1e-10 relative bump of one b_j gives at least 1.0e-10 and 1.8e-10
@pytest.mark.parametrize("p, bound", [
    *((gaussian(n), 1e-14) for n in (60, 120, 250, 500)),
    *((even_quartic(n, -2.0), 5e-12) for n in (200, 400, 800, 1340)),
    *((merge(tau, n), 1e-12) for tau in (0.0, 2.0) for n in (30, 60, 120, 240)),
], ids=lambda v: f"{v.reg[1]:g}-{v.n}" if isinstance(v, Potential) else None)
def test_string_residual_certifies_stieltjes_fits(p, bound):
    r = default_fit(p)[0]
    assert string_residual(p, r) <= bound
    b = np.array(r.b)
    for j in (0, p.n // 2, p.n - 1):
        bumped = b.copy()
        bumped[j] *= 1.0 + 1e-10
        assert string_residual(p, replace(r, b=tuple(bumped))) > bound
    # b_j read as b_{j-1} or b_{j+1}
    assert string_residual(p, replace(r, b=tuple(b[1:]))) > bound
    assert string_residual(p, replace(r, b=(b[0], *b[:-1]))) > bound


@pytest.mark.parametrize("n", [1400, 1600])
def test_string_residual_flags_fits_past_the_clip_guard(monkeypatch, n):
    # with the faint-mass guard off, the critical quartic fits past its
    # ceiling (n = 1 340), and the certificate sees the damage: measured
    # 1.9e-10 at n = 1 400 and 6.65e-2 at n = 1 600, against the 5e-12
    # bound of test_string_residual_certifies_stieltjes_fits
    p = even_quartic(n, -2.0)
    with pytest.raises(NumericalError, match="double-precision floor"):
        default_fit(p)
    monkeypatch.setattr(orthopoly, "_CLIP_TOL", math.inf)
    assert string_residual(p, default_fit(p)[0]) > 5e-12


def test_string_residual_of_string_fits():
    for p in STRING_CASES.values():
        r = string_recurrence(p, p.n + 1)
        assert string_residual(p, r) <= (1e-14 if p.reg == (0.0, 1.0) else 1e-12)


@pytest.mark.parametrize("p", [
    Potential(n=40, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.5),),
              support=NEG),
    Potential(n=40, reg=(0.3, 0.5, 0.0, 0.2, 0.0, 0.3), singularities=(), support=LINE),
    Potential(n=40, reg=(0.0, 1.0, 0.6, 1.0), singularities=(), support=LINE),
    Potential(n=40, reg=(0.0, -2.0, 0.0, 1.0), singularities=(), support=HALF),
    Potential(n=40, reg=(0.0, 1.0), singularities=(Singularity(b=0.0, alpha=0.5),),
              support=LINE),
], ids=["mp-charge", "sextic", "odd-quartic", "half-line", "gue-charge"])
def test_string_route_is_refused_outside_its_family(p):
    r = Recurrence(a=(0.0,) * 3, b=(1.0,) * 3, h0=1.0, log_shift=0.0, omega_max=0.0)
    assert string_residual(p, r) is None
    with pytest.raises(ValidationError, match=r"t x \+ g x\^3"):
        string_recurrence(p, 3)


def test_margin_doubling_refuses_a_short_closure(monkeypatch):
    p = even_quartic(200, -2.0)
    string_recurrence(p, 201)
    # margin ceil(1 * 1000^(1/3)) = 10 equations past m_max
    monkeypatch.setattr(orthopoly, "_STRING_MARGIN", 1)
    with pytest.raises(NumericalError, match="closure at margin 10 moves"):
        string_recurrence(p, 201)


@pytest.mark.parametrize("n", [3000, 10000])
def test_margin_grows_with_the_critical_width(n):
    # a fixed margin of 200 drifted by 1.3e-14 at n = 3 000 when doubled;
    # 20 n^(1/3) equations keep the critical quartic's closure converged
    p = even_quartic(n, -2.0)
    r = string_recurrence(p, n + 1)
    assert string_residual(p, r) <= 1e-11


def test_wrong_parity_start_is_refused(monkeypatch):
    # each b_j started from the continuum at j + 1: below s = t^2/4g odd
    # j take the smaller root of the two-cut pair
    def swapped(t, g, j, n):
        return continuum(t, g, j + 1, n)

    continuum = orthopoly._continuum_b
    monkeypatch.setattr(orthopoly, "_continuum_b", swapped)
    with pytest.raises(NumericalError, match="lost positivity"):
        string_recurrence(even_quartic(200, -3.0), 201)


def test_string_solver_refusals(monkeypatch):
    p = even_quartic(200, -2.0)
    with pytest.raises(ValidationError, match="m_max"):
        string_recurrence(p, 0)
    with monkeypatch.context() as m:
        m.setattr(orthopoly, "_STRING_ITER", 2)
        with pytest.raises(NumericalError, match="did not converge in 2"):
            string_recurrence(p, 201)
    # the acceptance reads the defect of the b_1..b_201 it returns: offset
    # by s_j there (and not in the Newton solves, which run past 201),
    # every relative residual is 1
    defect = orthopoly._string_defect

    def offset(t, g, b, b_next, n):
        f, total, s = defect(t, g, b, b_next, n)
        return (f + s if b.size == 200 else f), total, s

    monkeypatch.setattr(orthopoly, "_string_defect", offset)
    with pytest.raises(NumericalError, match="string residual 1.00e\\+00 exceeds"):
        string_recurrence(p, 201)


# ---------------------------------------------------------------------------
# preconditions and plumbing


def test_precondition_errors():
    q = build_quadrature(gaussian(5), 300)
    with pytest.raises(ValidationError, match="node count"):
        stieltjes_recurrence(q, q.nodes.size)
    r = stieltjes_recurrence(q, 10)
    with pytest.raises(ValidationError, match="degree"):
        orthonormal_rows(r, q.nodes, q.log_w, 11)


@pytest.mark.parametrize("call, message", [
    (lambda: build_quadrature(gaussian(5), 7), "resolution must be at least 8"),
    (lambda: stieltjes_recurrence(build_quadrature(gaussian(5), 300), 0),
     "m_max must be at least 1"),
], ids=["resolution", "m_max"])
def test_fit_refusals(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@settings(max_examples=12, deadline=None)
@given(t2=st.floats(-1.5, 3.0), t4=st.floats(0.2, 2.0))
def test_even_weight_diagonal_vanishes(t2, t4):
    p = Potential(n=15, reg=(0.0, t2, 0.0, t4), singularities=(), support=LINE)
    q = build_quadrature(p, 300, degree_hint=24)
    r = stieltjes_recurrence(q, 10)
    assert max(abs(a) for a in r.a) < 1e-12
    assert all(b > 0 for b in r.b)
