"""Acceptance checks: closed-form data reproduction, kernel identities,
the four scaling-limit regimes, variational conditions, MCMC
cross-validation, recurrence oracles and special-function residuals.

One test per criterion; the -rA summary gives a pass/fail line each.
Every test asserts its own wall-time budget.
"""

import math
import time

import numpy as np
import pytest

from rmtlab.potential import IntervalSet, Potential
from rmtlab.equilibrium import (
    check_variational,
    curve_eval,
    example_curve,
    solve_support,
)
from rmtlab.classify import (
    extract_model_data,
    find_critical_points,
    scaled_curve,
)
from rmtlab.orthopoly import build_quadrature, stieltjes_recurrence
from rmtlab.kernel import convergence_scan, kernel_matrix, projection_residual, trace_check
from rmtlab.sampler import compare_density, histogram_density, mcmc_chain
from rmtlab.scenarios import default_fit, get_scenario, scenario_names
from rmtlab.specfun import airy_ai, bessel_j

from test_specfun import _airy_taylor_step, _bessel_taylor_step

LINE = IntervalSet(((-math.inf, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))
HALF = IntervalSet(((0.0, math.inf),))


class _Budget:
    """Context manager asserting elapsed wall time under the limit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.limit, (
                f"budget {self.limit}s exceeded: {elapsed:.1f}s")
        return False


def test_criterion_01_quartic_merge_data():
    """Quartic family: curve endpoints, classification, tau_inf entries."""
    with _Budget(1.0):
        em = example_curve("quartic", t=-2.0)
        a = em.support.hi
        c = 0.5 * em.curve.h[0]          # h = x^2 + 2c
        assert a == pytest.approx(2.0, abs=1e-12)
        assert abs(c) < 1e-12

        mids = [cp for cp in find_critical_points(em) if cp.kind == "interior"]
        assert len(mids) == 1
        assert mids[0].order_k == 1
        assert mids[0].delta == pytest.approx(1.0 / 3.0, abs=1e-15)

        for tau in (0.0, 1.0, -1.0):
            n = 10**15
            em = example_curve("quartic_merge", tau=tau, n=n)
            mid = [cp for cp in find_critical_points(em, proximity_tol=1e-4)
                   if cp.kind == "interior"][0]
            md = extract_model_data(em, mid)
            assert md.tau_inf[3] == pytest.approx(1.0, abs=1e-8)
            assert md.tau_inf[2] == pytest.approx(0.0, abs=1e-8)
            assert md.tau_inf[1] == pytest.approx(3.0 * tau, abs=1e-8)


def test_criterion_02_hard_edge_collision_data():
    """Two-charge hard edge: order, exponent, scaled curve, charge set."""
    with _Budget(1.0):
        n = 50
        tau = 1.0
        em = example_curve("marchenko_pastur", n=n, alpha1=0.5, alpha2=0.5,
                           tau=tau)
        hard = [cp for cp in find_critical_points(em)
                if abs(cp.x_star) < 1e-9][0]
        assert hard.order_k == -1
        assert hard.delta == 2.0

        sc = scaled_curve(em, hard, n)
        zeta = np.array([0.25, 1.0, 4.0, 9.0])
        np.testing.assert_allclose(curve_eval(sc, zeta),
                                   -2.0 / np.sqrt(zeta), atol=1e-10)

        md = extract_model_data(em, hard)
        assert md.tau_inf[0] == pytest.approx(-1.0, abs=1e-10)
        locs = sorted(c.location.real for c in md.charges)
        assert locs == pytest.approx([0.0, tau], abs=1e-10)
        assert [c.alpha for c in md.charges] == [0.5, 0.5]


def test_criterion_03_kernel_identities():
    """Trace, projection and symmetry of K_n at n in {10, 30, 60}."""
    with _Budget(60.0):
        families = [
            ("gaussian", (0.0, 1.0)),
            ("quartic_critical", (0.0, -2.0, 0.0, 1.0)),
        ]
        probes = [(-1.3, 0.7), (0.0, 0.0), (0.5, -0.5), (1.2, 1.1)]
        for _, reg in families:
            for n in (10, 30, 60):
                p = Potential(n=n, reg=reg, singularities=(), support=LINE)
                r, q = default_fit(p)
                assert abs(trace_check(r, p, q) - n) / n < 1e-8
                assert projection_residual(r, p, q, probes) < 1e-7
                xs = np.linspace(-1.9, 1.9, 11)
                K = kernel_matrix(r, p, xs, xs)
                assert np.array_equal(K, K.T)


def test_criterion_04_bulk_sine_limit():
    """GUE bulk vs sin(u-v)/(pi(u-v)), decreasing in n, < 2e-2 at 160."""
    with _Budget(120.0):
        sc = get_scenario("gue-bulk")
        grid = np.linspace(-2.0, 2.0, 9)
        out = convergence_scan(sc, [40, 80, 160], grid)
        errs = [row["sup_error"] for row in out["rows"]]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-2


def test_criterion_05_soft_edge_airy_limit():
    """GUE edge vs the Airy kernel (unit map), < 5e-2 at 200."""
    with _Budget(180.0):
        sc = get_scenario("gue-edge")
        grid = np.linspace(-4.0, 1.0, 9)
        out = convergence_scan(sc, [50, 100, 200], grid)
        errs = [row["sup_error"] for row in out["rows"]]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-2


def test_criterion_06_hard_edge_bessel_limit():
    """Linear V on R- vs bessel_kernel(2 alpha), both charge values."""
    with _Budget(180.0):
        for alpha in (0.0, 0.5):
            sc = get_scenario("mp-hard-edge", alpha=alpha)
            out = convergence_scan(sc, [50, 100, 200],
                                   np.asarray(sc.default_grid))
            errs = [row["sup_error"] for row in out["rows"]]
            assert errs[0] > errs[1] > errs[2], f"alpha={alpha}: {errs}"
            assert errs[2] < 5e-2, f"alpha={alpha}: {errs}"
            assert out["reference"]["scale"] == pytest.approx(4.0, abs=1e-6)


def test_criterion_07_merge_scaling_collapse():
    """Quartic merge family: scaled kernels collapse as n grows."""
    with _Budget(180.0):
        for tau in (0.0, 2.0):
            sc = get_scenario("quartic-merge", tau=tau)
            grid = np.linspace(-2.0, 2.0, 9)
            out = convergence_scan(sc, [30, 60, 120], grid)
            d_30_60 = out["rows"][0]["sup_error"]
            d_60_120 = out["rows"][1]["sup_error"]
            assert d_60_120 < 8e-2, f"tau={tau}: {d_60_120}"
            assert d_60_120 < d_30_60, f"tau={tau}: {d_30_60} vs {d_60_120}"


def test_criterion_08_variational_conditions():
    """Equality on the support, strict negativity off it, all presets."""
    with _Budget(120.0):
        for name in scenario_names():
            sc = get_scenario(name)
            p = sc.make_potential(40)
            em = sc.equilibrium(p)
            rep = check_variational(em)
            assert rep["eq_max"] < 1e-6, f"{name}: eq_max {rep['eq_max']}"
            assert rep["ineq_max"] < 0.0, f"{name}: ineq_max {rep['ineq_max']}"


def test_criterion_09_mcmc_cross_check():
    """GUE chain, 1e5 kept sweeps: density matches rho, rejects MP."""
    with _Budget(300.0):
        n = 40
        p = Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)
        kept, state = mcmc_chain(p, steps=102_000, burn_in=2_000, seed=2026)
        assert len(kept) == 100_000
        em = solve_support(p, "one_cut")
        emp = histogram_density(kept, np.linspace(-2.2, 2.2, 25))
        dev = compare_density(emp, em)
        assert dev["l1_dev"] < 0.08

        mp = Potential(n=n, reg=(-1.0,), singularities=(), support=NEG)
        mp_em = solve_support(mp, "hard_edge_one_cut")
        control = compare_density(emp, mp_em)
        assert control["l1_dev"] > 0.3


def test_criterion_10_recurrence_oracles():
    """Gaussian b_j = j/n and Laguerre a_j = 2j+1, b_j = j^2, j <= 30."""
    with _Budget(30.0):
        n = 10
        p = Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)
        q = build_quadrature(p, 500, degree_hint=64)
        r = stieltjes_recurrence(q, 30)
        for j in range(1, 31):
            assert r.b[j - 1] == pytest.approx(j / n, rel=1e-9)

        p = Potential(n=1, reg=(1.0,), singularities=(), support=HALF)
        q = build_quadrature(p, 500, degree_hint=64)
        r = stieltjes_recurrence(q, 30)
        for j in range(30):
            assert r.a[j] == pytest.approx(2 * j + 1, rel=1e-9)
        for j in range(1, 31):
            assert r.b[j - 1] == pytest.approx(j * j, rel=1e-9)


def test_criterion_11_special_function_residuals():
    """Airy and Bessel values satisfy their ODEs to 1e-9; Gamma anchors."""
    with _Budget(30.0):
        assert airy_ai(0.0)[0] == pytest.approx(
            1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0)), abs=1e-10)
        assert airy_ai(0.0)[1] == pytest.approx(
            -1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0)), abs=1e-10)

        h = 0.1
        for z in np.arange(-10.0, 7.8, 0.23):
            pv, pd = _airy_taylor_step(z, h)
            av, ad = airy_ai(z + h)
            assert abs(pv - av) < 1e-9, f"Ai at {z}"
            assert abs(pd - ad) < 1e-9, f"Ai' at {z}"

        for alpha in (0.0, 0.5, 1.0, 2.0):
            for x0 in np.arange(0.4, 19.5, 0.37):
                step = 0.08 * min(1.0, x0)
                pv, pd = _bessel_taylor_step(alpha, x0, step)
                bv, bd = bessel_j(alpha, x0 + step)
                assert abs(pv - bv) < 1e-9, f"J_{alpha} at {x0}"
                assert abs(pd - bd) < 1e-9, f"J_{alpha}' at {x0}"
