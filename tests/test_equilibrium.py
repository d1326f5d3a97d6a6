"""Equilibrium solver against closed-form curves and exact identities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab import (
    IntervalSet,
    NumericalError,
    Potential,
    Singularity,
    check_variational,
    curve_eval,
    density,
    example_curve,
    filling_fractions,
    g_eval,
    solve_support,
    xi_eval,
)
from rmtlab.equilibrium import _bisect, _newton_2x2, mass_right_of

LINE = IntervalSet(((-math.inf, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))


def gaussian(n=40):
    return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)


def quartic(t, n=40):
    return Potential(n=n, reg=(0.0, float(t), 0.0, 1.0), singularities=(), support=LINE)


# ---------------------------------------------------------------------------
# closed forms


def test_gaussian_semicircle():
    em = solve_support(gaussian(), "one_cut")
    assert em.curve.zeros == pytest.approx((-2.0, 2.0), abs=1e-10)
    assert em.curve.poles == ()
    h = np.trim_zeros(np.asarray(em.curve.h), "b")
    np.testing.assert_allclose(h, [1.0], atol=1e-10)
    x = np.linspace(-1.99, 1.99, 41)
    np.testing.assert_allclose(
        density(em, x), np.sqrt(4 - x**2) / (2 * np.pi), atol=1e-10)
    assert em.masses == pytest.approx((1.0,), abs=1e-12)
    # 2 int log|x-y| rho_sc dy - x^2/2 = -1 on [-2, 2]
    assert em.ell == pytest.approx(-1.0, abs=1e-9)


def test_gaussian_density_off_support_zero():
    em = solve_support(gaussian(), "one_cut")
    assert density(em, 2.5) == 0.0
    assert density(em, -7.0) == 0.0


def test_quartic_one_cut_against_closed_form():
    t = -1.0
    em = solve_support(quartic(t), "one_cut")
    a = math.sqrt((2.0 / 3.0) * (-t + math.sqrt(t * t + 12.0)))
    c = (t + math.sqrt(t * t / 4.0 + 3.0)) / 3.0
    assert em.curve.zeros == pytest.approx((-a, a), abs=1e-10)
    h = np.asarray(em.curve.h)
    np.testing.assert_allclose(h, [2 * c, 0.0, 1.0], atol=1e-10)


def test_quartic_example_matches_solver():
    for t in (-1.5, 0.5, 2.0):
        em1 = solve_support(quartic(t), "one_cut")
        em2 = example_curve("quartic", t=t)
        assert em1.curve.zeros == pytest.approx(em2.curve.zeros, abs=1e-9)
        np.testing.assert_allclose(em1.curve.h, em2.curve.h, atol=1e-9)


def test_quartic_stable_c_form():
    # rearranged c agrees with the textbook expression away from t = -2
    for t in (-1.9999, -1.0, 0.0, 3.0):
        naive = (t + math.sqrt(t * t / 4.0 + 3.0)) / 3.0
        stable = 0.25 * (4.0 - t * t) / (math.sqrt(0.25 * t * t + 3.0) - t)
        assert stable == pytest.approx(naive, rel=1e-12, abs=1e-13)


def test_quartic_critical_h_vanishing():
    em = example_curve("quartic", t=-2.0)
    # at the critical coupling h = x^2: density x^2 sqrt(4-x^2)/(2 pi)
    assert em.curve.zeros == pytest.approx((-2.0, 2.0), abs=1e-12)
    np.testing.assert_allclose(em.curve.h, [0.0, 0.0, 1.0], atol=1e-12)
    x = np.linspace(-1.9, 1.9, 21)
    np.testing.assert_allclose(
        density(em, x), x**2 * np.sqrt(4 - x**2) / (2 * np.pi), atol=1e-12)


def test_symmetric_two_cut_closed_form():
    t = -3.0
    em = solve_support(quartic(t), "symmetric_two_cut")
    a, b = math.sqrt(-t - 2.0), math.sqrt(-t + 2.0)
    assert em.curve.zeros == pytest.approx((-b, -a, a, b), abs=1e-9)
    h = np.asarray(em.curve.h)
    np.testing.assert_allclose(h, [0.0, 1.0], atol=1e-9)
    assert em.masses == pytest.approx((0.5, 0.5), abs=1e-10)
    (gap, eps), = filling_fractions(em)
    assert gap == pytest.approx((-a, a), abs=1e-9)
    assert eps == pytest.approx(0.5, abs=1e-10)


def test_marchenko_pastur_curve():
    em = example_curve("marchenko_pastur", n=30)
    assert em.support.intervals == ((-4.0, 0.0),)
    x = np.linspace(-3.9, -0.1, 31)
    np.testing.assert_allclose(
        density(em, x), np.sqrt((x + 4) / -x) / (2 * np.pi), atol=1e-12)
    assert em.masses == pytest.approx((1.0,), abs=1e-10)


# ---------------------------------------------------------------------------
# refusals


def test_one_cut_refuses_negative_density():
    with pytest.raises(NumericalError, match="negative density"):
        solve_support(quartic(-3.0), "one_cut")


def test_two_cut_refuses_odd_potential():
    p = Potential(n=10, reg=(1.0, -1.0, 0.0, 1.0), singularities=(), support=LINE)
    with pytest.raises(NumericalError, match="even"):
        solve_support(p, "symmetric_two_cut")


def test_hard_edge_needs_finite_endpoint():
    with pytest.raises(NumericalError):
        solve_support(gaussian(), "hard_edge_one_cut")


def test_one_cut_refuses_domain_escape():
    # equilibrium for V = x^2/2 on [0, inf) wants support across 0
    p = Potential(n=10, reg=(0.0, 1.0), singularities=(),
                  support=IntervalSet(((-1.0, 1.0),)))
    with pytest.raises(NumericalError, match="escapes"):
        solve_support(p, "one_cut")


def test_hard_edge_solver_finds_mp():
    p = Potential(n=30, reg=(-1.0,), singularities=(),
                  support=IntervalSet(((-math.inf, 0.0),)))
    em = solve_support(p, "hard_edge_one_cut")
    assert em.curve.poles == pytest.approx((0.0,), abs=1e-12)
    assert em.curve.zeros == pytest.approx((-4.0,), abs=1e-9)
    np.testing.assert_allclose(em.curve.h, [-1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# endpoint solvers


def mp_charge(n=200):
    return Potential(n=n, reg=(-1.0,), singularities=(Singularity(b=0j, alpha=0.5),),
                     support=NEG)


@pytest.mark.parametrize("reg, structure, support", [
    ((0.0, 1.0), "one_cut", ((-2.0, 2.0),)),
    ((0.0, -2.0, 0.0, 1.0), "one_cut", ((-2.0, 2.0),)),
    ((0.0, -3.0, 0.0, 1.0), "symmetric_two_cut",
     ((-math.sqrt(5.0), -1.0), (1.0, math.sqrt(5.0)))),
], ids=["gue", "critical-quartic", "two-cut"])
def test_solver_closed_form_supports(reg, structure, support):
    p = Potential(n=200, reg=reg, singularities=(), support=LINE)
    em = solve_support(p, structure)
    np.testing.assert_allclose(em.support.intervals, support, rtol=1e-14, atol=1e-14)


def test_hard_edge_endpoints_are_python_floats():
    em = solve_support(mp_charge(), "hard_edge_one_cut")
    np.testing.assert_allclose(em.support.intervals, ((-4.0, 0.0),), rtol=1e-14, atol=1e-14)
    ends = em.curve.zeros + em.curve.poles + em.support.intervals[0]
    assert all(type(x) is float for x in ends)


def test_solver_refusals_keep_their_messages():
    with pytest.raises(NumericalError, match="^one_cut endpoint equations did not converge$"):
        solve_support(mp_charge(), "one_cut")
    with pytest.raises(NumericalError, match=r"^symmetric_two_cut endpoint equations "
                       r"did not converge \(near a merge point, one_cut may be the right "
                       r"structure\)$"):
        solve_support(gaussian(200), "symmetric_two_cut")


def test_newton_converges_and_reports_failure_quietly():
    u, fmax = _newton_2x2(lambda u: (u[0] * u[0] - 2.0, u[1] - u[0]), (1.0, 0.0))
    assert fmax < 1e-15
    assert u == pytest.approx((math.sqrt(2.0), math.sqrt(2.0)), rel=1e-15)
    calls = []

    def no_root(u):
        calls.append(u)
        return (u[0] * u[0] + 1.0, 1e300 * u[1])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u0 in ((0.0, 0.0), (3.0, 1.0), (0.5, -2.0), (-1e200, 1e10)):
            calls.clear()
            _, fmax = _newton_2x2(no_root, u0)
            assert fmax >= 1.0
            # a failing start gives up after a few dozen evaluations
            assert len(calls) < 60


def test_bisect_stops_at_adjacent_doubles():
    root = _bisect(lambda x: x * x - 2.0, 1.0, 2.0)
    assert type(root) is float
    below, above = math.nextafter(root, 0.0), math.nextafter(root, 3.0)
    assert (below * below - 2.0) * (above * above - 2.0) < 0.0
    assert _bisect(lambda x: x - 0.5, 0.0, 1.0) == 0.5


# ---------------------------------------------------------------------------
# analytic structure


def test_curve_boundary_values_conjugate():
    em = solve_support(gaussian(), "one_cut")
    x = np.array([-1.0, 0.3, 1.7])
    up = curve_eval(em.curve, x + 1e-300j)
    dn = curve_eval(em.curve, x - 1e-300j)
    np.testing.assert_allclose(up, np.conj(dn), rtol=1e-12)
    assert np.all(up.imag > 0)


def test_curve_asymptotics():
    em = solve_support(quartic(-1.0), "one_cut")
    z = 150.0 + 80.0j
    y = curve_eval(em.curve, z)
    vp = -z + z**3
    assert abs(y - (vp - 2.0 / z)) < 1e-4 * abs(vp)


def test_xi_g_ell_identity():
    # 2 xi = 2 g - V_reg - ell at points off the support
    em = solve_support(quartic(0.5), "one_cut")
    for z in (1.0 + 1.0j, -2.0 + 0.5j, 3.0, 0.2 - 1.3j):
        lhs = 2.0 * xi_eval(em, z)
        v = sum(c / (j + 1) * complex(z) ** (j + 1)
                for j, c in enumerate(em.potential.reg))
        rhs = 2.0 * g_eval(em, z) - v - em.ell
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-7)


def test_xi_plus_is_filling_measure():
    em = solve_support(gaussian(), "one_cut")
    for x in (-1.0, 0.0, 0.8):
        val = xi_eval(em, x, side=+1)
        mass = mass_right_of(em, x)
        assert val.real == pytest.approx(0.0, abs=1e-8)
        assert val.imag == pytest.approx(math.pi * mass, abs=1e-8)


def test_xi_sides_opposite_on_support():
    em = solve_support(quartic(1.0), "one_cut")
    up = xi_eval(em, 0.4, side=+1)
    dn = xi_eval(em, 0.4, side=-1)
    assert up == pytest.approx(-dn, rel=1e-9, abs=1e-10)


def test_variational_conditions_gaussian():
    em = solve_support(gaussian(), "one_cut")
    rep = check_variational(em, grid_points=120)
    assert rep["eq_max"] < 1e-7
    assert rep["ineq_max"] < -1e-6


def test_variational_conditions_two_cut():
    em = solve_support(quartic(-3.0), "symmetric_two_cut")
    rep = check_variational(em, grid_points=120)
    assert rep["eq_max"] < 1e-7
    assert rep["ineq_max"] < -1e-6


def test_mass_right_interpolates():
    em = solve_support(gaussian(), "one_cut")
    assert mass_right_of(em, -3.0) == pytest.approx(1.0, abs=1e-12)
    assert mass_right_of(em, 0.0) == pytest.approx(0.5, abs=1e-10)
    assert mass_right_of(em, 3.0) == 0.0


@settings(max_examples=12, deadline=None)
@given(t=st.floats(-1.8, 3.0))
def test_one_cut_family_invariants(t):
    em = solve_support(quartic(t), "one_cut")
    assert abs(sum(em.masses) - 1.0) < 1e-9
    lo, hi = em.support.intervals[0]
    assert lo < 0 < hi
    x = np.linspace(lo + 1e-6, hi - 1e-6, 101)
    assert np.all(density(em, x) > -1e-12)
    z = 0.7 + 0.9j
    lhs = 2.0 * xi_eval(em, z)
    v = sum(c / (j + 1) * z ** (j + 1) for j, c in enumerate(em.potential.reg))
    rhs = 2.0 * g_eval(em, z) - v - em.ell
    assert abs(lhs - rhs) < 1e-6
