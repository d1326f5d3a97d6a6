"""Equilibrium solver against closed-form curves and exact identities."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab import (
    EquilibriumMeasure,
    IntervalSet,
    NumericalError,
    Potential,
    Singularity,
    ValidationError,
    check_variational,
    curve_eval,
    density,
    example_curve,
    find_critical_points,
    g_eval,
    solve_support,
    xi_eval,
)
from rmtlab import equilibrium
from rmtlab.equilibrium import (
    _expansion_at_infinity,
    _newton,
    mass_right_of,
)
from rmtlab.potential import v_reg
from rmtlab.quad import clustered_rule

LINE = IntervalSet(((-math.inf, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))
POS = IntervalSet(((0.0, math.inf),))


def gaussian(n=40):
    return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)


def quartic(t, n=40):
    return Potential(n=n, reg=(0.0, float(t), 0.0, 1.0), singularities=(), support=LINE)


# one fit per support structure
FITS = [
    (gaussian(), "one_cut"),
    (quartic(-3.0), "symmetric_two_cut"),
    (Potential(n=30, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.5),),
               support=NEG), "hard_edge_one_cut"),
]


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
    (gap,) = em.support.gaps()
    assert gap == pytest.approx((-a, a), abs=1e-9)
    assert mass_right_of(em, 0.0) == pytest.approx(0.5, abs=1e-10)


def cubic_tilt(t3):
    # V' = -3x + t3 x^2 + x^3; at t3c the one-cut measure is tight at a
    # real zero of h right of the cut, where a new cut is born
    return Potential(n=100, reg=(0.0, -3.0, t3, 1.0), singularities=(), support=LINE)


def test_birth_of_a_cut_keeps_its_exterior_point():
    em = solve_support(cubic_tilt(1.3449373838204057))
    assert em.exterior_points == pytest.approx((1.294458,), abs=1e-6)
    ext = [cp for cp in find_critical_points(em) if cp.kind == "exterior"]
    assert [(round(cp.x_star, 6), cp.order_k) for cp in ext] == [(1.294458, 1)]
    assert solve_support(cubic_tilt(1.5)).exterior_points == ()


def test_variational_inequality_violation_is_refused():
    # past the birth of the cut the zero of h at 1.309 sits above ell
    with pytest.raises(NumericalError, match=r"inequality at x=1\.30876 \(\+0\.233\)"):
        solve_support(cubic_tilt(1.3))


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


def test_one_cut_refuses_support_across_domain_gap():
    # the semicircle [-2, 2] has both ends in the domain but crosses the gap
    # (-0.5, 0.5), where the weight vanishes
    p = Potential(n=10, reg=(0.0, 1.0), singularities=(),
                  support=IntervalSet(((-3.0, -0.5), (0.5, 3.0))))
    with pytest.raises(NumericalError,
                       match=r"^support component \[-2, 2\] crosses the domain gap "
                       r"\(-0.5, 0.5\)"):
        solve_support(p, "one_cut")


def test_hard_edge_solver_finds_mp():
    p = Potential(n=30, reg=(-1.0,), singularities=(),
                  support=IntervalSet(((-math.inf, 0.0),)))
    em = solve_support(p, "hard_edge_one_cut")
    assert em.curve.poles == pytest.approx((0.0,), abs=1e-12)
    assert em.curve.zeros == pytest.approx((-4.0,), abs=1e-9)
    np.testing.assert_allclose(em.curve.h, [-1.0], atol=1e-9)


def test_hard_edge_judges_density_once(monkeypatch):
    # V = x^2/2 + 3x on [-1, 1]: the support is [-1, 1/3], hard edge at -1
    scans = []
    floor = equilibrium._density_floor
    monkeypatch.setattr(equilibrium, "_density_floor",
                        lambda *args: scans.append(args) or floor(*args))
    p = Potential(n=40, reg=(3.0, 1.0), singularities=(),
                  support=IntervalSet(((-1.0, 1.0),)))
    em = solve_support(p, "hard_edge_one_cut")
    np.testing.assert_allclose(em.support.intervals, ((-1.0, 1.0 / 3.0),), atol=1e-12)
    assert len(scans) == 1


@pytest.mark.parametrize("p", [
    Potential(n=200, reg=(-1.0,), singularities=(Singularity(b=0j, alpha=0.5),),
              support=NEG),
    Potential(n=40, reg=(3.0, 1.0), singularities=(), support=IntervalSet(((-1.0, 1.0),))),
], ids=["mp-charge", "box"])
def test_hard_edge_residual_budget(monkeypatch, p):
    # each endpoint residual is one _laurent_split call; a grid scan and
    # bisection took 80 (mp-charge) and 714 (box, both edges tried)
    calls = []
    split = equilibrium._laurent_split
    monkeypatch.setattr(equilibrium, "_laurent_split",
                        lambda *args: calls.append(args) or split(*args))
    solve_support(p, "hard_edge_one_cut")
    assert len(calls) <= 60


def test_hard_edge_takes_the_root_nearest_the_edge():
    # c_1(s) - 2 = (40/9)(s - 0.1)(s - 1.5)(s - 3) for a hard edge at 0: the
    # density is nonnegative on [0, 0.1] and not on [0, 1.5]
    p = Potential(n=40, reg=(44.0, -1472.0 / 27.0, 128.0 / 9.0), singularities=(),
                  support=POS)
    em = solve_support(p, "hard_edge_one_cut")
    np.testing.assert_allclose(em.support.intervals, ((0.0, 0.1),), rtol=1e-13, atol=1e-15)


def test_hard_edge_judges_the_nearest_root_first(monkeypatch):
    # c_1(s) - 2 has roots s ~ 1.4786 and 2.7440 beside a hard edge at 0;
    # the first starts converge to the far one, which the bracket check
    # passes over, so the first curve judged ends at the near one.  Its
    # measure still violates the variational inequality far out.
    judged = []
    check = equilibrium._check_curve
    monkeypatch.setattr(equilibrium, "_check_curve",
                        lambda p, curve, verdict: judged.append(curve.zeros)
                        or check(p, curve, verdict))
    p = Potential(n=1, reg=(1.32, 2.681, -1.184, 0.017), singularities=(), support=POS)
    with pytest.raises(NumericalError,
                       match=r"^the equilibrium measure violates the variational "
                             r"inequality at x=67\.2865 "):
        solve_support(p, "hard_edge_one_cut")
    assert judged[0] == pytest.approx((1.4786,), abs=1e-4)


def test_hard_edge_refuses_negative_density():
    # V = x^2/2 - 5x on [0, inf) pulls the charge off the wall at 0
    p = Potential(n=40, reg=(-5.0, 1.0), singularities=(),
                  support=IntervalSet(((0.0, math.inf),)))
    with pytest.raises(NumericalError,
                       match=r"^negative density near x=.*: hard edge at 0 infeasible$"):
        solve_support(p, "hard_edge_one_cut")


# ---------------------------------------------------------------------------
# endpoint solvers


def mp_charge(n=200):
    return Potential(n=n, reg=(-1.0,), singularities=(Singularity(b=0j, alpha=0.5),),
                     support=NEG)


@pytest.mark.parametrize("reg, domain, structure, support", [
    ((0.0, 1.0), LINE, "one_cut", ((-2.0, 2.0),)),
    ((0.0, -2.0, 0.0, 1.0), LINE, "one_cut", ((-2.0, 2.0),)),
    ((0.0, -3.0, 0.0, 1.0), LINE, "symmetric_two_cut",
     ((-math.sqrt(5.0), -1.0), (1.0, math.sqrt(5.0)))),
    # left hard edges: V = x and V = x^2/2 on [0, inf)
    ((1.0,), POS, "hard_edge_one_cut", ((0.0, 4.0),)),
    ((0.0, 1.0), POS, "hard_edge_one_cut", ((0.0, 4.0 / math.sqrt(3.0)),)),
], ids=["gue", "critical-quartic", "two-cut", "left-hard-linear", "left-hard-gaussian"])
def test_solver_closed_form_supports(reg, domain, structure, support):
    p = Potential(n=200, reg=reg, singularities=(), support=domain)
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


@pytest.mark.parametrize("structure", equilibrium.STRUCTURES)
def test_pole_terms_refused(structure):
    # V = -x - 1/x^2 on (-inf, 0]: the solvers would balance -x alone
    p = Potential(n=40, reg=(-1.0,), singularities=(
        Singularity(b=0.0, alpha=0.5, t=(0.0, -1.0)),), support=NEG)
    with pytest.raises(ValidationError,
                       match=r"^singularities\[0\] has pole coefficient t_2 != 0"):
        solve_support(p, structure)


def test_zero_pole_coefficients_solve_as_before():
    p = Potential(n=40, reg=(-1.0,), singularities=(
        Singularity(b=0.0, alpha=0.5, t=(0.0, 0.0)),), support=NEG)
    em = solve_support(p, "hard_edge_one_cut")
    assert em.support == solve_support(mp_charge(40), "hard_edge_one_cut").support


def test_newton_converges_and_reports_failure_quietly():
    u, fmax = _newton(lambda u: (u[0] * u[0] - 2.0, u[1] - u[0]), (1.0, 0.0))
    assert fmax < 1e-15
    assert u == pytest.approx((math.sqrt(2.0), math.sqrt(2.0)), rel=1e-15)
    (x,), fmax = _newton(lambda u: (u[0] ** 3 - 2.0,), (1.0,))
    assert fmax < 1e-15
    assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    calls = []

    def no_root(u):
        calls.append(u)
        return (u[0] * u[0] + 1.0, 1e300 * u[1])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u0 in ((0.0, 0.0), (3.0, 1.0), (0.5, -2.0), (-1e200, 1e10)):
            calls.clear()
            _, fmax = _newton(no_root, u0)
            assert fmax >= 1.0
            # a failing start gives up after a few dozen evaluations
            assert len(calls) < 60


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


def reference_log_integral(em, x):
    """int log|x - y| rho(y) dy one point at a time, summed as Python floats."""
    total = 0.0
    for (lo, hi), (xs, ws) in zip(em.support.intervals, em.rules):
        if lo < x < hi:
            for a, b in ((lo, x), (x, hi)):
                t, wt = clustered_rule(a, b, equilibrium._M_PATH)
                total += float(np.sum(wt * density(em, t) * np.log(np.abs(x - t))))
        else:
            with np.errstate(divide="ignore"):
                total += float(np.sum(ws * np.log(np.abs(x - xs))))
    return total


@pytest.mark.parametrize("p, structure", FITS)
def test_variational_values_match_pointwise_reference_exactly(p, structure):
    em = solve_support(p, structure)
    rep = check_variational(em, grid_points=90)

    def values(xs):
        return [2.0 * reference_log_integral(em, x) - v_reg(p, x) - em.ell for x in xs]

    assert rep["support_residual"].tolist() == [abs(v) for v in values(rep["support_x"])]
    assert rep["off_value"].tolist() == values(rep["off_x"])
    # ell is the value at the middle of the widest component, taken at ell = 0
    mid = 0.5 * sum(max(em.support.intervals, key=lambda iv: iv[1] - iv[0]))
    assert 2.0 * reference_log_integral(em, mid) - v_reg(p, mid) - 0.0 == em.ell


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("p, structure", FITS)
def test_measure_is_fixed_by_potential_and_curve(p, structure):
    em = solve_support(p, structure)
    again = EquilibriumMeasure(p, em.curve)
    for name in ("support", "masses", "ell", "exterior_points"):
        assert getattr(again, name) == getattr(em, name), name


def test_measure_takes_only_potential_and_curve_and_is_frozen():
    em = solve_support(gaussian(), "one_cut")
    with pytest.raises(TypeError):
        EquilibriumMeasure(em.potential, em.curve, support=IntervalSet(((-1.0, 1.0),)))
    with pytest.raises(TypeError):
        EquilibriumMeasure(em.potential, em.curve, ell=5.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        em.ell = 5.0


def test_measure_refuses_a_curve_of_the_wrong_mass():
    em = solve_support(gaussian(), "one_cut")
    doubled = dataclasses.replace(em.curve, h=tuple(2.0 * c for c in em.curve.h))
    with pytest.raises(NumericalError, match="^equilibrium mass 2 != 1"):
        EquilibriumMeasure(em.potential, doubled)


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


@settings(max_examples=200, deadline=None)
@given(
    # subnormal coefficients give products finer than any 1e-12 relative bound
    coeffs=st.lists(st.floats(-5.0, 5.0, allow_subnormal=False), min_size=1, max_size=4),
    inverse=st.lists(st.floats(-2.0, 2.0), max_size=3),
    direct=st.lists(st.floats(-2.0, 2.0), max_size=2),
    theta=st.floats(0.01, math.pi - 0.01),
)
def test_expansion_at_infinity_matches_direct_evaluation(coeffs, inverse, direct, theta):
    # poly(z) prod (1 - r/z)^(-1/2) prod (1 - q/z)^(1/2) summed from its
    # series at |z| = 20, where the terms past order 30 are below 1e-30
    z = 20.0 * complex(math.cos(theta), math.sin(theta))
    e = _expansion_at_infinity(coeffs, inverse, direct, 30)
    deg = len(coeffs) - 1
    series = sum(el * z ** (deg - l) for l, el in enumerate(e))
    direct_val = sum(c * z**k for k, c in enumerate(coeffs))
    for r in inverse:
        direct_val /= np.sqrt(1.0 - r / z)
    for q in direct:
        direct_val *= np.sqrt(1.0 - q / z)
    scale = sum(abs(c) * 20.0**k for k, c in enumerate(coeffs))
    assert abs(series - direct_val) <= 1e-12 * max(abs(direct_val), scale)
