"""Christoffel-Darboux kernels, their identities and scaling limits."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from rmtlab import kernel, orthopoly
from rmtlab.errors import NumericalError, ValidationError
from rmtlab.potential import IntervalSet, Potential, Singularity, log_weight
from rmtlab.equilibrium import solve_support, density
from rmtlab.classify import CriticalPoint, bulk_point, extract_model_data, find_critical_points
from rmtlab.orthopoly import build_quadrature, stieltjes_recurrence, string_recurrence
from rmtlab.scenarios import default_fit, get_scenario
from rmtlab.kernel import (
    _psi_rows,
    airy_kernel,
    bessel_kernel,
    convergence_scan,
    kernel_diag,
    kernel_matrix,
    projection_residual,
    scaled_kernel_grid,
    sine_kernel,
    trace_check,
)

LINE = IntervalSet(((-math.inf, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))


def gaussian(n):
    return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)


def quartic_critical(n):
    return Potential(n=n, reg=(0.0, -2.0, 0.0, 1.0), singularities=(), support=LINE)


def mp_potential(n, alpha=0.0):
    sings = () if alpha == 0.0 else (Singularity(b=0.0, alpha=alpha),)
    return Potential(n=n, reg=(-1.0,), singularities=sings, support=NEG)


def fit(p, resolution=None):
    n = p.n
    res = resolution or max(900, 6 * n)
    q = build_quadrature(p, res, degree_hint=2 * (n + 2))
    return stieltjes_recurrence(q, n + 1), q


# ---------------------------------------------------------------------------
# finite-n identities


def test_k1_gaussian_closed_form():
    p = gaussian(1)
    r, q = fit(p, 400)
    assert kernel_matrix(r, p, [0.0], [0.0])[0, 0] == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)


@pytest.mark.parametrize("make", [gaussian, quartic_critical])
@pytest.mark.parametrize("n", [10, 30])
def test_trace_counts_states(make, n):
    p = make(n)
    r, q = fit(p)
    assert abs(trace_check(r, p, q) - n) / n < 1e-12


@pytest.mark.parametrize("make", [gaussian, quartic_critical])
def test_projection_identity(make):
    p = make(10)
    r, q = fit(p)
    probes = [(-1.3, 0.7), (0.0, 0.0), (0.5, -0.5), (1.2, 1.1)]
    assert projection_residual(r, p, q, probes) < 1e-7


def test_kernel_matrix_symmetric_to_roundoff():
    # exact symmetry and a nonnegative diagonal: the critical quartic and
    # the MP charge on the raw grids the cli benchmark evaluates at n=200
    cases = [(gaussian(20), np.linspace(-1.8, 1.8, 13)),
             (quartic_critical(200), np.linspace(-2.5, 2.5, 41)),
             (mp_potential(200, 0.5), np.linspace(-4.5, -0.05, 41))]
    for p, xs in cases:
        r, _ = default_fit(p)
        K = kernel_matrix(r, p, xs, xs)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) >= 0.0)


def test_kernel_matrix_matches_pointwise():
    # shared points, a duplicate, a pair 5e-9 apart (a difference
    # quotient) and an off-domain point, with len(xs) != len(ys)
    p = mp_potential(12, 0.5)
    r, q = fit(p, 700)
    xs = np.array([-2.0, -1.0, -0.3, 0.5])
    ys = np.array([-1.0 + 5e-9, -2.0, -0.7, -0.3, -2.0])
    K = kernel_matrix(r, p, xs, ys)
    pointwise = np.array([[kernel_matrix(r, p, [x], [y])[0, 0] for y in ys] for x in xs])
    np.testing.assert_allclose(K, pointwise, rtol=1e-13, atol=0.0)
    assert np.all(K[3] == 0.0)
    assert K[1, 0] == pytest.approx(kernel_diag(r, p, -1.0), rel=1e-6)


def test_scalar_points_are_scalars():
    # a 0-d point is one point: a float for two of them, a row for one
    for p in (quartic_critical(12), mp_potential(12, 0.5)):
        r, _ = default_fit(p)
        ys = np.array([-0.7, 0.2, -1.5])
        grid = kernel_matrix(r, p, [0.3, -0.4], ys)
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            assert kernel_matrix(r, p, x, np.array(0.2)) == kernel_matrix(r, p, [x], [0.2])[0, 0]
            assert type(kernel_matrix(r, p, x, 0.2)) is float
            assert np.array_equal(kernel_matrix(r, p, x, ys), grid[0])
            assert type(kernel_diag(r, p, x)) is float
        assert np.array_equal(kernel_matrix(r, p, [0.3, -0.4], np.array(-0.7)), grid[:, 0])
        assert kernel_diag(r, p, np.array(-0.4)) == kernel_diag(r, p, [-0.4])[0]


def test_projection_residual_matches_probe_loop():
    p = quartic_critical(10)
    r, q = fit(p)
    probes = [(-1.3, 0.7), (0.0, 0.0), (0.5, -0.5), (1.2, 1.1)]
    worst = 0.0
    for x, z in probes:
        kxy = kernel_matrix(r, p, [x], q.nodes)[0]
        kyz = kernel_matrix(r, p, q.nodes, [z])[:, 0]
        direct = kernel_matrix(r, p, [x], [z])[0, 0]
        worst = max(worst, abs(np.sum(q.base * kxy * kyz) - direct))
    assert projection_residual(r, p, q, probes) == worst


def reference_kernel_matrix(r, p, xs, ys, confluence=None):
    """kernel_matrix as one expression over P x Q temporaries.

    Pairs with x == y take the mean of the two diagonals, which is the
    one diagonal.  A confluence length instead gives that mean to every
    pair closer than it, 0 where exactly one diagonal is 0: the rule
    kernel_matrix followed with the length 1e-8 * scale.
    """
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    pts, inv = np.unique(np.concatenate((xa, ya)), return_inverse=True)
    ix, iy = inv[:xa.size], inv[xa.size:]
    psi_n, psi_m, diag = _psi_rows(r, p, pts)
    beta_n = math.sqrt(r.b[p.n - 1])
    pnx, pmx, pny, pmy = psi_n[ix], psi_m[ix], psi_n[iy], psi_m[iy]
    dx = xa[:, None] - ya[None, :]
    num = beta_n * (pnx[:, None] * pmy[None, :] - pny[None, :] * pmx[:, None])
    close = dx == 0.0 if confluence is None else np.abs(dx) < confluence
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(close, 0.0, num) / np.where(close, 1.0, dx)
    if np.any(close):
        ii, jj = np.nonzero(close)
        kx, ky = diag[ix[ii]], diag[iy[jj]]
        out[ii, jj] = np.where((kx == 0.0) != (ky == 0.0), 0.0, 0.5 * (kx + ky))
    return out


def reference_projection_residual(r, p, q, probes):
    pairs = np.asarray(probes, dtype=float).reshape(-1, 2)
    rows = reference_kernel_matrix(r, p, pairs.ravel(), q.nodes)
    integral = np.sum(q.base * rows[0::2] * rows[1::2], axis=1)
    direct = np.diag(reference_kernel_matrix(r, p, pairs[:, 0], pairs[:, 1]))
    return float(np.max(np.abs(integral - direct), initial=0.0))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_kernel_matrix_matches_reference_exactly():
    mp = mp_potential(12, 0.5)
    r_mp, q_mp = fit(mp, 700)
    quartic = quartic_critical(200)
    r_q, q_q = default_fit(quartic)
    # xs != ys with a duplicate, a pair 5e-9 apart and an off-domain point
    xs = np.array([-2.0, -1.0, -0.3, 0.5])
    ys = np.array([-1.0 + 5e-9, -2.0, -0.7, -0.3, -2.0])
    assert same_bits(kernel_matrix(r_mp, mp, xs, ys), reference_kernel_matrix(r_mp, mp, xs, ys))
    # xs = ys with pairs 3e-9 and 1e-9 apart next to the diagonal, which
    # take the quotient on both sides, off-domain points (x > 0) and a
    # point on the charge
    grid = np.sort(np.concatenate((np.linspace(-4.5, 1.0, 31),
                                   [-2.0, -2.0 + 3e-9, 0.0, 0.3, 0.3 + 1e-9])))
    assert same_bits(kernel_matrix(r_mp, mp, grid, grid),
                     reference_kernel_matrix(r_mp, mp, grid, grid))
    assert same_bits(kernel_matrix(r_mp, mp, grid, q_mp.nodes),
                     reference_kernel_matrix(r_mp, mp, grid, q_mp.nodes))
    g = np.linspace(-2.5, 2.5, 41)
    assert same_bits(kernel_matrix(r_q, quartic, g, g),
                     reference_kernel_matrix(r_q, quartic, g, g))
    probes = [(-1.3, 0.7), (0.0, 0.0), (0.5, -0.5), (1.2, 1.1)]
    assert (projection_residual(r_q, quartic, q_q, probes)
            == reference_projection_residual(r_q, quartic, q_q, probes))


@pytest.mark.parametrize("make", [gaussian, quartic_critical])
def test_parity_rows_match_direct_evaluation(monkeypatch, make):
    # an even fit evaluates its rows at the distinct |x| and signs them
    # by parity; with that switched off every value keeps its bits.  Where
    # sqrt(w) underflows every row is zero, and the direct recurrence's
    # zero signs follow no parity ((-0) - (-0) = +0), so -0 is read as +0
    p = make(120)
    r, q = default_fit(p)
    assert not any(r.a[:p.n]) and p.is_even()
    grid = np.concatenate((np.linspace(-2.5, 2.5, 41), [-1.3, 1.3 + 1e-9, 0.77, 3.1]))
    probes = [(-1.3, 0.7), (0.0, 0.0), (0.5, -0.5), (1.2, 1.1)]

    def evaluate():
        return (kernel_matrix(r, p, grid, grid), kernel_matrix(r, p, grid, q.nodes[::7]),
                kernel_diag(r, p, q.nodes), kernel_diag(r, p, grid),
                np.array(projection_residual(r, p, q, probes)))

    got = evaluate()
    monkeypatch.setattr(Potential, "is_even", lambda self: False)
    for a, b in zip(got, evaluate()):
        assert same_bits(a + 0.0, b + 0.0)


@pytest.mark.parametrize("p", [gaussian(40), gaussian(41), mp_potential(40, 0.5)],
                         ids=["gue-40", "gue-41", "mp-charge-40"])
def test_kernel_diag_and_matrix_share_one_pass(p):
    # _psi_rows alone folds repeats and, on a parity fit, the sign of x;
    # both entry points read the same values from it
    r, _ = default_fit(p)
    xs = np.linspace(-3.0, 2.0, 26)
    assert same_bits(kernel_matrix(r, p, xs, xs).diagonal().copy(), kernel_diag(r, p, xs))
    pts = np.array([0.7, -0.7, 0.0, -1.3, 0.7, 1.3, -0.7, 0.0, -2.2, 2.2, -1.3])
    each = np.array([kernel_diag(r, p, x) for x in pts])
    assert same_bits(kernel_diag(r, p, pts), each)


def _switch_fit(label):
    """(fit, potential, point sets) for the loop-switch test.

    Each fit gets 1 point, 31, 32 and 33 distinct points inside its
    support and a mixed set.  GUE's mixed set has repeats and x < 0 for
    the parity gather, and tail points where psi_0 is subnormal
    (|x| = 3.8) and where it underflows to 0 (x = 4); the MP sets hold
    points off the domain (x > 0), the charge at 0, where w = 0, and
    x = -30, where psi_0 underflows and the rows are zeros of
    alternating sign.
    """
    if label == "gue-string-200":
        p = gaussian(200)
        r, lo, hi = string_recurrence(p, 201), -2.0, 2.0
        mixed = [0.7, -0.7, 0.0, -1.3, 0.7, 1.3, 3.8, -3.8, 4.0, -4.0, 2.2, -2.2]
    elif label == "mp-charge-120":
        p = mp_potential(120, 0.5)
        r, lo, hi = default_fit(p)[0], -4.0, -0.01
        mixed = [-2.0, -2.0, 0.0, 0.5, -0.3, 3.0, -0.3, -5.5, -1e-9, -30.0]
    else:
        sc = get_scenario("mp-two-charge")
        p = sc.make_potential(80)
        r, lo, hi = sc.recurrence(p), -4.0, -0.01
        mixed = [-1.0, 0.0, p.singularities[1].b.real, -0.05, 0.2, -1.0, -3.3, -30.0]
    sets = [np.array([0.5 * (lo + hi)])]
    sets += [np.linspace(lo, hi, k) for k in (31, 32, 33)]
    sets.append(np.array(mixed))
    return r, p, sets


@pytest.mark.parametrize("label", ["gue-string-200", "mp-charge-120", "mp-two-charge-80"])
def test_float_loop_and_numpy_sweep_give_the_same_bits(monkeypatch, label):
    # orthopoly.cd_rows runs up to _FEW_POINTS distinct points in Python
    # floats and more in numpy; forcing either loop moves no bit of any
    # kernel value, signed zeros included.  Its rows are compared too, at
    # three successive degrees: the zero rows at x = -30 repeat their
    # signs with period 3 in the degree
    r, p, sets = _switch_fit(label)

    def evaluate(few):
        monkeypatch.setattr(orthopoly, "_FEW_POINTS", few)
        return [(kernel_matrix(r, p, x, x), kernel_diag(r, p, x), kernel_diag(r, p, x[:1]),
                 *(row for m in (p.n - 1, p.n, p.n + 1)
                   for row in orthopoly.cd_rows(r, x, log_weight(p, x), m)))
                for x in sets]

    for floats, sweep in zip(evaluate(1 << 30), evaluate(0)):
        for a, b in zip(floats, sweep):
            assert same_bits(a, b)
    monkeypatch.undo()
    # by default the switch sits between 32 and 33 distinct points
    calls = []
    sweep = orthopoly._scaled_rows
    monkeypatch.setattr(orthopoly, "_scaled_rows", lambda *a: calls.append(1) or sweep(*a))
    for k in (31, 32, 33):
        calls.clear()
        kernel_diag(r, p, np.linspace(-1.2, -0.8, k))
        assert bool(calls) == (k > 32)


def test_cd_rows_tail_points_reach_subnormal_and_zero():
    # the GUE points of the switch test really probe the tail: psi_0 is
    # subnormal at |x| = 3.8 and exactly 0 at x = 4 (n = 200)
    p = gaussian(200)
    r = string_recurrence(p, 201)
    x = np.array([3.8, 4.0])
    psi_0 = next(orthopoly.orthonormal_rows(r, x, log_weight(p, x), 0))
    assert 0.0 < psi_0[0] < np.finfo(float).tiny and psi_0[1] == 0.0


def test_projection_residual_detects_wrong_kernel():
    r, q = fit(gaussian(10))
    probes = [(-1.3, 0.7), (0.0, 0.0), (0.5, -0.5), (1.2, 1.1)]
    assert projection_residual(r, gaussian(11), q, probes) > 1e-3


def confluent_diag(r, p, x):
    """beta_n (chi_n psi_{n-1} - chi_{n-1} psi_n), chi_j = sqrt(w) p_j' / sqrt(h_j)."""
    psi_prev = np.zeros_like(x)
    psi = np.exp(0.5 * (log_weight(p, x) - r.log_shift)) / math.sqrt(r.h0)
    chi_prev, chi = np.zeros_like(x), np.zeros_like(x)
    beta = 0.0
    for j in range(p.n):
        beta_next = math.sqrt(r.b[j])
        psi_prev, psi, chi_prev, chi = (
            psi, ((x - r.a[j]) * psi - beta * psi_prev) / beta_next,
            chi, (psi + (x - r.a[j]) * chi - beta * chi_prev) / beta_next)
        beta = beta_next
    return beta * (chi * psi_prev - chi_prev * psi)


@pytest.mark.parametrize("make", [gaussian, quartic_critical,
                                  lambda n: mp_potential(n, 0.5)],
                         ids=["gaussian", "quartic", "mp-charge"])
def test_sum_of_squares_matches_confluent_form(make):
    # the Christoffel-Darboux identity sum_{j<n} psi_j^2 = beta_n
    # (chi_n psi_{n-1} - chi_{n-1} psi_n) at every node of the fit
    p = make(60)
    r, q = fit(p)
    np.testing.assert_allclose(kernel_diag(r, p, q.nodes), confluent_diag(r, p, q.nodes),
                               rtol=1e-11, atol=1e-300)


def test_diagonal_approaches_density():
    n = 40
    p = gaussian(n)
    r, q = fit(p)
    em = solve_support(p, "one_cut")
    xs = np.linspace(-1.5, 1.5, 11)
    assert np.max(np.abs(kernel_diag(r, p, xs) / n - density(em, xs))) < 1e-2


def test_off_domain_points_give_zero():
    p = mp_potential(12)
    r, q = fit(p, 700)
    assert kernel_matrix(r, p, [0.5], [-1.0])[0, 0] == 0.0
    assert kernel_matrix(r, p, [1.0], [2.0])[0, 0] == 0.0
    # a near pair across the edge, and a coincident pair off the domain
    assert kernel_matrix(r, p, [1e-12], [-1e-12])[0, 0] == 0.0
    assert kernel_matrix(r, p, [0.5], [0.5])[0, 0] == 0.0
    g = kernel_matrix(r, p, [-1.0, 0.5], [-1.0, 0.5])
    assert np.all(g[1] == 0.0) and np.all(g[:, 1] == 0.0) and g[0, 0] > 0.0


def test_real_pole_point_gives_zero():
    # a valid Potential has w decaying into the pole at b = 0 along [0, inf): w(0) = 0
    p = Potential(n=20, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=1.0, t=(-1.0,)),),
                  support=IntervalSet(((0.0, math.inf),)))
    r, _ = default_fit(p)
    x = np.array([0.0, 0.5])
    assert log_weight(p, 0.0) == -math.inf
    assert log_weight(p, 1e-200) < -1e200   # no power of 1/x past t_1 is formed
    lw = log_weight(p, x)
    assert lw[0] == -math.inf and math.isfinite(lw[1])
    assert kernel_diag(r, p, 0.0) == 0.0
    diag = kernel_diag(r, p, x)
    assert diag[0] == 0.0 and diag[1] > 0.0
    k = kernel_matrix(r, p, x, x)
    assert np.all(k[0] == 0.0) and np.all(k[:, 0] == 0.0) and k[1, 1] > 0.0
    assert kernel_matrix(r, p, [0.0], [0.5])[0, 0] == 0.0


def test_confluent_branch_continuous():
    # only x == y takes the diagonal; every distinct pair is a difference
    # quotient, and near the diagonal it meets K(x, x) to its rounding
    p = gaussian(15)
    r, q = fit(p)
    x = 0.3
    near = kernel_matrix(r, p, [x], [x + 5e-9])[0, 0]
    far = kernel_matrix(r, p, [x], [x + 5e-7])[0, 0]
    assert near == pytest.approx(kernel_matrix(r, p, [x], [x])[0, 0], rel=1e-7)
    assert far == pytest.approx(near, rel=1e-5)
    # pairs 1e-8 and 1e-10 apart: measured 3.3e-9 and 4.6e-8 relative at
    # n = 40, 4.4e-10 and 3.0e-8 at n = 200
    for n in (40, 200):
        p = gaussian(n)
        r, _ = fit(p)
        diag = kernel_matrix(r, p, [x], [x])[0, 0]
        for h in (1e-8, 1e-10):
            assert kernel_matrix(r, p, [x], [x + h])[0, 0] == pytest.approx(diag, rel=1e-7)
        # -0.0 == +0.0, so the pair is coincident: the diagonal's bits
        assert same_bits(kernel_matrix(r, p, [-0.0], [0.0]).ravel(), kernel_diag(r, p, [0.0]))


def test_recurrence_must_reach_degree_n():
    # both loops of orthopoly.cd_rows, the float loop at 1 point and the
    # numpy sweep at 64, refuse the degree before any row
    p = gaussian(10)
    q = build_quadrature(p, 600, degree_hint=22)
    r = stieltjes_recurrence(q, 5)
    for x in (np.array([0.0]), np.linspace(0.1, 3.0, 64)):
        with pytest.raises(ValidationError, match="degree"):
            kernel_matrix(r, p, x, x)


def test_scaled_points_must_stay_in_domain():
    n = 30
    p = mp_potential(n)
    r, q = fit(p, 800)
    em = solve_support(p, "hard_edge_one_cut")
    cp = [c for c in find_critical_points(em) if abs(c.x_star) < 1e-9][0]
    with pytest.raises(ValidationError, match="domain"):
        scaled_kernel_grid(r, p, cp, np.array([-1.0, 0.5]))


def test_scaled_grid_values():
    n = 30
    p = gaussian(n)
    r, q = fit(p)
    cp = bulk_point(solve_support(p, "one_cut"), 0.0)
    us = np.linspace(-1, 1, 5)
    g = scaled_kernel_grid(r, p, cp, us)
    assert isinstance(g, np.ndarray)
    assert cp.delta == 1.0
    assert g.shape == (5, 5)
    s = float(n) ** -1.0   # n^{-delta} K_n(x_* + n^{-delta} u, ...) with x_* = 0
    assert np.array_equal(g, s * kernel_matrix(r, p, s * us, s * us))


# ---------------------------------------------------------------------------
# scaling limits


def test_bulk_limit_is_sine():
    n = 80
    p = gaussian(n)
    r, q = fit(p)
    em = solve_support(p, "one_cut")
    cp = bulk_point(em, 0.0)
    us = np.linspace(-2, 2, 9)
    g = scaled_kernel_grid(r, p, cp, us)
    # with E_1 = rho(0) = 1/pi the mapped sine law is sin(u-v)/(pi(u-v))
    ref = np.array([[math.sin(a - b) / (math.pi * (a - b)) if a != b else 1.0 / math.pi
                     for b in us] for a in us])
    assert np.max(np.abs(g - ref)) < 5e-3


def test_soft_edge_limit_is_airy():
    n = 100
    p = gaussian(n)
    r, q = fit(p)
    em = solve_support(p, "one_cut")
    cp = [c for c in find_critical_points(em) if c.kind == "edge" and c.x_star > 0][0]
    us = np.linspace(-4, 1, 9)
    g = scaled_kernel_grid(r, p, cp, us)
    ref = np.array([[airy_kernel(a, b) for b in us] for a in us])
    assert np.max(np.abs(g - ref)) < 3e-2


@pytest.mark.parametrize("alpha,tol", [(0.0, 1e-3), (0.5, 1e-2)])
def test_hard_edge_limit_is_bessel(alpha, tol):
    n = 100
    p = mp_potential(n, alpha)
    r, q = fit(p)
    em = solve_support(p, "hard_edge_one_cut")
    cp = [c for c in find_critical_points(em) if abs(c.x_star) < 1e-9][0]
    md = extract_model_data(em, cp)
    s = 4.0 * md.e_series[0] ** 2
    assert s == pytest.approx(4.0, abs=1e-9)
    us = np.linspace(-3.0, -0.05, 9)
    g = scaled_kernel_grid(r, p, cp, us)
    ref = np.array([[s * bessel_kernel(2 * alpha, s * abs(a), s * abs(b))
                     for b in us] for a in us])
    assert np.max(np.abs(g - ref)) < tol


def test_merge_family_kernels_collapse():
    tau = 2.0
    cp = CriticalPoint(x_star=0.0, kind="interior", order_k=1,
                       m_h=2, m_r=0, m_p=0, radius=0.5)
    us = np.linspace(-2, 2, 7)
    mats = []
    for n in (30, 60):
        t = -2.0 + tau * n ** (-2.0 / 3.0)
        p = Potential(n=n, reg=(0.0, t, 0.0, 1.0), singularities=(), support=LINE)
        r, q = fit(p)
        mats.append(scaled_kernel_grid(r, p, cp, us))
    assert np.max(np.abs(mats[0] - mats[1])) < 6e-2


# ---------------------------------------------------------------------------
# reference kernels


def test_sine_kernel_values():
    assert sine_kernel(0.7, 0.7) == 1.0
    assert sine_kernel(0.5, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-14)
    assert sine_kernel(0.25, -0.25) == sine_kernel(-0.25, 0.25)


def test_airy_kernel_against_scipy():
    for u, v in [(-2.0, 0.5), (0.0, 1.0), (-3.5, -3.2)]:
        aiu, apu, _, _ = sps.airy(u)
        aiv, apv, _, _ = sps.airy(v)
        assert airy_kernel(u, v) == pytest.approx(
            (aiu * apv - aiv * apu) / (u - v), abs=1e-10)
    u = -1.3
    ai, ap, _, _ = sps.airy(u)
    assert airy_kernel(u, u) == pytest.approx(ap * ap - u * ai * ai, abs=1e-10)


def test_bessel_kernel_against_scipy():
    for alpha in (0.0, 1.0):
        for u, v in [(0.5, 2.0), (3.0, 7.5), (0.01, 0.02)]:
            su, sv = math.sqrt(u), math.sqrt(v)
            ref = (sps.jv(alpha, su) * sv * sps.jvp(alpha, sv)
                   - sps.jv(alpha, sv) * su * sps.jvp(alpha, su)) / (2.0 * (u - v))
            assert bessel_kernel(alpha, u, v) == pytest.approx(ref, abs=1e-10)


def test_bessel_kernel_diagonal_continuity():
    # alpha = 0 tends to 1/4 at the edge, alpha > 0 vanishes
    assert bessel_kernel(0.0, 0.0, 0.0) == 0.25
    assert bessel_kernel(0.0, 1e-10, 1e-10) == pytest.approx(0.25, abs=1e-6)
    assert bessel_kernel(1.0, 0.0, 0.0) == 0.0
    assert bessel_kernel(1.0, 1e-10, 1e-10) == pytest.approx(0.0, abs=1e-6)


def test_bessel_kernel_input_validation():
    with pytest.raises(ValidationError):
        bessel_kernel(-1.5, 1.0, 2.0)
    with pytest.raises(ValidationError):
        bessel_kernel(0.0, -1.0, 2.0)


# ---------------------------------------------------------------------------
# convergence scan plumbing


class _BulkScenario:
    """Minimal scenario: Gaussian bulk against the sine law."""

    name = "inline-gue-bulk"
    compare_abs = False

    def make_potential(self, n):
        return gaussian(n)

    def equilibrium(self, p):
        return solve_support(p, "one_cut")

    def critical_point(self, em):
        return bulk_point(em, 0.0)

    def recurrence(self, p):
        return fit(p)[0]

    def reference_law(self, em, cp):
        md = extract_model_data(em, cp)
        s = md.e_series[1] / math.pi
        return (lambda u, v: s * sine_kernel(s * u, s * v)), {"kind": "sine", "scale": s}


def test_convergence_scan_reports_decay():
    sc = _BulkScenario()
    out = convergence_scan(sc, [20, 40, 80], np.linspace(-1.5, 1.5, 5))
    errs = [row["sup_error"] for row in out["rows"]]
    assert len(errs) == 3
    assert errs[0] > errs[1] > errs[2]
    assert out["fitted_decay"] == pytest.approx(-1.0, abs=0.2)
    assert out["reference"]["kind"] == "sine"
    assert len(convergence_scan(sc, [20], np.linspace(-1.5, 1.5, 5))["rows"]) == 1


class _LostFit(_BulkScenario):
    def recurrence(self, p):
        raise NumericalError("lost orthogonality")


class _Collapse(_BulkScenario):
    def reference_law(self, em, cp):
        return None


@pytest.mark.parametrize("ns, errs", [
    ((40, 80, 160, 320), (8.0e-3, 4.0e-3, 2.0e-3, 1.0e-3)),
    ((50, 100, 200, 400), (2.1e-2, 1.3e-2, 8.4e-3, 5.3e-3)),
    ((30, 60, 120, 240), (3.2e-2, 2.5e-2, 1.6e-2, 1.0e-2)),
    ((20, 40, 80, 160), (5.8e-3, 3.0e-3, 1.5e-3, 7.4e-4)),
    ((60, 120), (2.0e-2, 1.6e-2)),
])
def test_fit_decay_is_the_least_squares_slope(ns, errs):
    # the benchmark scans' ladders: np.polyfit agrees to 1e-13, and the
    # slope is the exact least-squares slope of the logs to a few eps
    slope = kernel._fit_decay(ns, errs)
    x, y = np.log(np.asarray(ns, float)), np.log(np.asarray(errs, float))
    assert slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-13)
    fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    exact = (sum((a - mx) * (b - my) for a, b in zip(fx, fy))
             / sum((a - mx) ** 2 for a in fx))
    assert slope == pytest.approx(float(exact), rel=4 * np.finfo(float).eps)
    assert math.isnan(kernel._fit_decay(ns[:1], errs[:1]))


def _edge_grid_error(n):
    sc = get_scenario("gue-edge")
    p = sc.make_potential(n)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em)
    grid = np.asarray(sc.default_grid)
    values = scaled_kernel_grid(sc.recurrence(p), p, cp, grid)
    law, _ = sc.reference_law(em, cp)
    return float(np.max(np.abs(values - [[law(u, v) for v in grid] for u in grid])))


def test_scaled_grid_refuses_subnormal_psi0(monkeypatch):
    # a string-equation fit has no clip guard: at n = 760 psi_0 is
    # subnormal on the gue-edge grid, and the kernel there is wrong
    assert _edge_grid_error(700) < 5e-3
    with pytest.raises(NumericalError, match=r"sqrt\(w / h0\) is below the smallest "
                       r"normal double at 9 scaled grid points .* at n=760"):
        _edge_grid_error(760)
    monkeypatch.setattr(kernel, "_TINY", 0.0)
    assert _edge_grid_error(760) > 0.3


def test_hard_edge_scans_past_the_old_confluence_length():
    # the hard-edge grid's x spacing 0.36875/n^2 fell under the old
    # confluence length 1e-8 from n = 6 073, whose pairs took the mean of
    # two diagonals; with exact coincidence the scan reads on past it
    sc = get_scenario("mp-hard-edge")
    grid = np.asarray(sc.default_grid)
    assert convergence_scan(sc, [3200, 6072], grid)["rows"] == [
        {"n": 3200, "sup_error": 1.070994437579742e-08},
        {"n": 6072, "sup_error": 3.170958273734925e-09}]
    errs = [row["sup_error"] for row in convergence_scan(sc, [3200, 6400], grid)["rows"]]
    assert errs[0] > errs[1] == pytest.approx(2.7e-9, rel=0.01)
    # the old rule, mean of two diagonals under 1e-8, on the same stage
    p = sc.make_potential(6400)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em)
    s = 6400.0 ** (-cp.delta)
    xs = cp.x_star + s * grid
    old = s * reference_kernel_matrix(sc.recurrence(p), p, xs, xs, 1e-8 * p.scale())
    law, _ = sc.reference_law(em, cp)
    ref = kernel._law_table(law, grid)
    assert np.max(np.abs(old - ref)) == pytest.approx(0.019, rel=0.05)
    # the second charge's collapse falls on past n = 6 073 too
    sc = get_scenario("mp-two-charge")
    rows = convergence_scan(sc, [2560, 5120, 10240], np.asarray(sc.default_grid))["rows"]
    assert rows[0]["sup_error"] > rows[1]["sup_error"] > 0.0
    assert rows[0]["sup_error"] == pytest.approx(4.72e-5, rel=0.01)
    assert rows[1]["sup_error"] == pytest.approx(2.36e-5, rel=0.01)
    # a repeated grid point is one point at every n, and a distinct pair
    # is a quotient at every n: at n = 51 200 the two points are 1.9e-10
    # apart in x, where the old rule gave them the mean of two diagonals
    sc = get_scenario("mp-hard-edge")
    for n in (40, 51200):
        p = sc.make_potential(n)
        em = sc.equilibrium(p)
        r = sc.recurrence(p)
        cp = sc.critical_point(em)
        g = scaled_kernel_grid(r, p, cp, [-1.0, -1.0, -0.5])
        assert g[0, 1] == g[0, 0] == g[1, 1]
        xs = cp.x_star + n ** (-cp.delta) * np.array([-1.0, -0.5])
        assert g[0, 2] == n ** (-cp.delta) * kernel_matrix(r, p, xs[0], xs[1])
        assert g[0, 2] != 0.5 * (g[0, 0] + g[2, 2])


@pytest.mark.parametrize("alpha, decay", [(0.0, -2.0), (0.5, -1.0)])
def test_hard_edge_scan_past_the_quadrature_ceiling(alpha, decay):
    # fitted from the Laguerre closed forms, the Bessel scan runs at
    # n = 1 600, where the quadrature route's clip guard refused from
    # n ~ 310 on; measured decay -2.00003 (alpha = 0) and -0.99938
    sc = get_scenario("mp-hard-edge", alpha=alpha)
    out = convergence_scan(sc, [200, 400, 800, 1600], np.asarray(sc.default_grid))
    errs = [row["sup_error"] for row in out["rows"]]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert out["fitted_decay"] == pytest.approx(decay, abs=0.05)


def test_convergence_scan_stage_failure_keeps_its_type():
    grid = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(NumericalError, match="stage n=20: lost orthogonality"):
        convergence_scan(_LostFit(), [20, 40], grid)
    with pytest.raises(ValidationError, match="stage n=20: .* leave the domain"):
        convergence_scan(get_scenario("mp-hard-edge"), [20, 40], grid)
    with pytest.raises(ValidationError, match="at least one n"):
        convergence_scan(_BulkScenario(), [], grid)
    with pytest.raises(ValidationError, match=r"needs two, got \[20\]"):
        convergence_scan(_Collapse(), [20], grid)


@pytest.mark.parametrize("name, params", [
    ("gue-bulk", {}), ("gue-edge", {}),
    ("mp-hard-edge", {"alpha": 0.0}), ("mp-hard-edge", {"alpha": 0.5}),
], ids=["sine", "airy", "bessel-a0", "bessel-a05"])
def test_law_table_is_the_full_double_loop(name, params):
    sc = get_scenario(name, **params)
    em = sc.equilibrium(sc.make_potential(200))
    law, _ = sc.reference_law(em, sc.critical_point(em))
    grid = np.asarray(sc.default_grid)
    # with a partner 5e-10 away from each point, every confluent branch runs
    for g in (grid, np.sort(np.concatenate((grid, grid + 5e-10)))):
        full = np.array([[law(float(u), float(v)) for v in g] for u in g])
        assert kernel._law_table(law, g).tobytes() == full.tobytes()


def test_bessel_kernel_is_symmetric_at_the_confluence_threshold():
    # |u - v| is below 1e-9 max(1, v) but not below 1e-9 max(1, u): a
    # test relative to the first argument alone is not symmetric here
    u, v = 3.3297813385383903, 3.3297813418681717
    assert 1e-9 * max(1.0, u) <= abs(u - v) < 1e-9 * max(1.0, v)
    for alpha in (0.0, 1.0):
        assert bessel_kernel(alpha, u, v) == bessel_kernel(alpha, v, u)
