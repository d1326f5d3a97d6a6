"""Quadrature discretization and the Stieltjes recurrence."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npp
from scipy.integrate import quad as scipy_quad

from rmtlab import orthopoly
from rmtlab.errors import NumericalError, ValidationError
from rmtlab.potential import IntervalSet, Potential, Singularity, log_weight
from rmtlab.quad import gauss_legendre
from rmtlab.orthopoly import (
    _OMEGA_TOL,
    QuadratureRule,
    build_quadrature,
    gram_check,
    orthonormal_rows,
    stieltjes_recurrence,
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


def test_under_resolved_rule_rejected():
    with pytest.raises(NumericalError, match="doubled-rule"):
        build_quadrature(gaussian(10), 60, order=2)


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


def test_under_resolved_gram_is_large():
    # a recurrence built on a coarse rule orthogonalizes the wrong
    # discrete measure; checking against an independent fine rule must
    # report a large residual, not a silent pass
    q = build_quadrature(gaussian(10), 300, order=8, degree_hint=8)
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


@pytest.mark.parametrize("p, order", [
    (gaussian(60), None),
    (gaussian(60), 16),
    (critical_quartic(120), None),
    (mp_hard_edge(100, 0.0), None),
    (mp_hard_edge(100, 0.5), None),
    (mp_hard_edge(100, 0.5), 7),
    (get_scenario("mp-two-charge").make_potential(40), None),
], ids=["gue", "gue-order16", "quartic", "mp0", "mp-half", "mp-half-order7",
        "mp-two-charge"])
def test_fit_layers_match_reference_exactly(monkeypatch, p, order):
    m = p.n + 1
    res, hint = max(900, 6 * p.n), 2 * (m + 1)
    q = build_quadrature(p, res, order=order, degree_hint=hint)
    r = stieltjes_recurrence(q, m)
    with monkeypatch.context() as mp:
        mp.setattr(orthopoly, "_width_rule", reference_width_rule)
        mp.setattr(orthopoly, "_panel_rules", reference_panel_rules)
        ref = build_quadrature(p, res, order=order, degree_hint=hint)
    for field in ("nodes", "base", "log_w"):
        assert np.array_equal(getattr(q, field), getattr(ref, field)), field
    assert (q.provenance, q.cut_lo, q.cut_hi) == (ref.provenance, ref.cut_lo, ref.cut_hi)
    a, b, h0, omega_max = reference_recurrence(ref, m)
    assert r.a == a and r.b == b
    assert r.h0 == h0 and r.omega_max == omega_max
    # the even models' rules are mirrored by construction
    assert orthopoly._is_mirrored(q) == orthopoly._is_even_model(p)


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
    assert orthopoly._is_even_model(p)
    q = build_quadrature(p, 900)
    assert np.array_equal(q.nodes, -q.nodes[::-1])
    assert np.array_equal(q.base, q.base[::-1])
    # log w is evaluated on x > 0 and mirrored: summing the charges' terms
    # at -x in the other order left entries an ulp off
    assert np.array_equal(q.log_w, q.log_w[::-1])
    assert orthopoly._is_mirrored(q)


def test_conjugate_pair_fits_as_non_even_model():
    p = Potential(n=40, reg=(0.0, 1.0),
                  singularities=(Singularity(b=1 + 1j, alpha=0.5),
                                 Singularity(b=1 - 1j, alpha=0.5)), support=LINE)
    assert not orthopoly._is_even_model(p)
    r, q = default_fit(p)
    assert gram_check(r, q, p.n) < 1e-12
    # |x - 1 - i| |x - 1 + i| = (x - 1)^2 + 1 weights mass away from x = 1
    assert r.a[0] < 0.0


# ---------------------------------------------------------------------------
# preconditions and plumbing


def test_precondition_errors():
    q = build_quadrature(gaussian(5), 300)
    with pytest.raises(ValidationError, match="node count"):
        stieltjes_recurrence(q, q.nodes.size)
    r = stieltjes_recurrence(q, 10)
    with pytest.raises(ValidationError, match="degree"):
        orthonormal_rows(r, q.nodes, q.log_w, 11)


@settings(max_examples=12, deadline=None)
@given(t2=st.floats(-1.5, 3.0), t4=st.floats(0.2, 2.0))
def test_even_weight_diagonal_vanishes(t2, t4):
    p = Potential(n=15, reg=(0.0, t2, 0.0, t4), singularities=(), support=LINE)
    q = build_quadrature(p, 300, degree_hint=24)
    r = stieltjes_recurrence(q, 10)
    assert max(abs(a) for a in r.a) < 1e-12
    assert all(b > 0 for b in r.b)
