"""Quadrature discretization and the Stieltjes recurrence."""

import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from rmtlab.errors import NumericalError, ValidationError
from rmtlab.potential import IntervalSet, Potential, Singularity, log_weight
from rmtlab.orthopoly import (
    QuadratureRule,
    build_quadrature,
    gram_check,
    orthonormal_rows,
    poly_zeros,
    recurrence_table,
    stieltjes_recurrence,
)
from rmtlab.scenarios import default_fit

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
    assert q.mass() == pytest.approx(exact, rel=1e-10)


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
    assert q.mass() == pytest.approx(2.0, rel=1e-10)
    oracle, err = scipy_quad(lambda x: math.exp(log_weight(p, x)), -12.0, 12.0)
    assert q.mass() == pytest.approx(oracle, rel=1e-9)


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


def test_weight_overflow_named():
    # V = x^4/4 - x^2 has min V = -1, so max log w = n passes log(float max)
    # = 709.78 between n = 700 and n = 720
    def quartic(n):
        return Potential(n=n, reg=(0.0, -2.0, 0.0, 1.0), singularities=(), support=LINE)

    with pytest.raises(NumericalError, match=r"overflows .* max log w 720 exceeds 709\.78"):
        default_fit(quartic(720))
    r, q = default_fit(quartic(700))
    assert r.m_max == 701


# ---------------------------------------------------------------------------
# recurrence oracles


def test_gaussian_recurrence():
    n = 10
    q = build_quadrature(gaussian(n), 500, degree_hint=64)
    r = stieltjes_recurrence(q, 30)
    assert max(abs(a) for a in r.a) < 1e-12
    for j in range(1, 31):
        assert r.b[j - 1] == pytest.approx(j / n, rel=1e-9)
    assert r.h[0] == pytest.approx(math.sqrt(2.0 * math.pi / n), rel=1e-10)
    # h_j = sqrt(2 pi/n) j! / n^j
    assert r.h[5] == pytest.approx(
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
    h = np.asarray(r.h)
    assert np.all(h > 0) and np.all(np.isfinite(h))


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


def test_zeros_inside_node_hull():
    p = Potential(n=25, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.25),),
                  support=NEG)
    q = build_quadrature(p, 600, degree_hint=60)
    r = stieltjes_recurrence(q, 25)
    z = poly_zeros(r, 25)
    assert z.min() > q.nodes.min() and z.max() < q.nodes.max()
    assert np.all(np.diff(z) > 0)


# ---------------------------------------------------------------------------
# preconditions and plumbing


def test_precondition_errors():
    q = build_quadrature(gaussian(5), 300)
    with pytest.raises(ValidationError, match="node count"):
        stieltjes_recurrence(q, q.nodes.size)
    r = stieltjes_recurrence(q, 10)
    with pytest.raises(ValidationError, match="degree"):
        orthonormal_rows(r, q.nodes, q.log_w, 11)
    with pytest.raises(ValidationError):
        poly_zeros(r, 11)


def test_recurrence_table_layout():
    q = build_quadrature(gaussian(5), 300)
    r = stieltjes_recurrence(q, 6)
    rows = recurrence_table(r)
    assert len(rows) == 7
    assert rows[0][2] == 0.0 and math.isnan(rows[6][1])
    assert rows[3] == (3, r.a[3], r.b[2], r.h[3])


@settings(max_examples=12, deadline=None)
@given(t2=st.floats(-1.5, 3.0), t4=st.floats(0.2, 2.0))
def test_even_weight_diagonal_vanishes(t2, t4):
    p = Potential(n=15, reg=(0.0, t2, 0.0, t4), singularities=(), support=LINE)
    q = build_quadrature(p, 300, degree_hint=24)
    r = stieltjes_recurrence(q, 10)
    assert max(abs(a) for a in r.a) < 1e-12
    assert all(b > 0 for b in r.b)
