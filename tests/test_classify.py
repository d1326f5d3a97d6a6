"""Critical point classification, scaled curves, and model data."""

import json
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from rmtlab import (
    CriticalPoint,
    IntervalSet,
    NumericalError,
    Potential,
    Singularity,
    SpectralCurve,
    ValidationError,
    bulk_point,
    curve_eval,
    example_curve,
    extract_model_data,
    find_critical_points,
    get_scenario,
    nearest_critical_point,
    scaled_curve,
    scenario_names,
    series_at_infinity,
    solve_support,
)
from rmtlab.classify import (
    _delta_frac,
    _poly_from_roots,
    critical_point_dict,
    model_data_dict,
)

LINE = IntervalSet(((-math.inf, math.inf),))


def gaussian(n=40):
    return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)


# ---------------------------------------------------------------------------
# classification


def test_delta_table():
    assert _delta_frac("edge", -1) == 2
    assert _delta_frac("edge", 0) == pytest.approx(2 / 3)
    assert _delta_frac("edge", 2) == pytest.approx(2 / 7)
    assert _delta_frac("interior", 1) == pytest.approx(1 / 3)
    assert _delta_frac("interior", 0) == 1
    assert _delta_frac("exterior", 1) == pytest.approx(1 / 2)


@pytest.mark.parametrize("kind,k,delta", [
    ("edge", -1, 2.0), ("edge", 0, 2 / 3), ("edge", 2, 2 / 7),
    ("interior", 0, 1.0), ("interior", 1, 1 / 3), ("interior", 2, 1 / 5),
    ("exterior", 1, 1 / 2), ("exterior", 2, 1 / 4),
])
def test_critical_point_delta_follows_kind_and_order(kind, k, delta):
    cp = CriticalPoint(x_star=0.0, kind=kind, order_k=k)
    assert cp.delta == delta
    with pytest.raises(TypeError):
        CriticalPoint(x_star=0.0, kind=kind, order_k=k, delta=delta)


@pytest.mark.parametrize("kind,k,cause", [
    ("saddle", 0, "unknown critical point kind 'saddle'"),
    ("exterior", 0, "exterior point cannot have order k=0"),
    ("interior", -1, "interior point cannot have order k=-1"),
    ("edge", 1, "edge point cannot have order k=1"),
])
def test_critical_point_refuses_order_outside_table(kind, k, cause):
    # once these built: exterior k = 0 then failed in delta with
    # ZeroDivisionError, interior k = -1 gave delta = -1, edge k = 1 0.4
    with pytest.raises(ValidationError, match=cause):
        CriticalPoint(x_star=0.0, kind=kind, order_k=k)


def test_produced_orders_are_in_the_table():
    # every point the classifier, bulk_point and the scenario presets
    # (QuarticMerge among them) build passes the construction check
    found = set()
    for name in scenario_names():
        sc = get_scenario(name)
        em = sc.equilibrium(sc.make_potential(40))
        for cp in [sc.critical_point(em), *find_critical_points(em)]:
            found.add((cp.kind, cp.order_k))
    assert found == {("edge", -1), ("edge", 0), ("interior", 0), ("interior", 1)}


def test_quartic_merge_point_delta_is_one_third():
    cp = get_scenario("quartic-merge").critical_point(None)
    assert (cp.kind, cp.order_k) == ("interior", 1)
    assert cp.delta == 1.0 / 3.0


def test_gaussian_two_soft_edges():
    em = solve_support(gaussian(), "one_cut")
    pts = find_critical_points(em)
    assert len(pts) == 2
    left, right = pts
    assert (left.x_star, left.kind, left.order_k, left.side) == (
        pytest.approx(-2.0), "edge", 0, "left")
    assert (right.x_star, right.kind, right.order_k, right.side) == (
        pytest.approx(2.0), "edge", 0, "right")
    assert left.delta == pytest.approx(2 / 3)


def test_nearest_critical_point_picks_closest():
    em = solve_support(gaussian(), "one_cut")
    left, right = find_critical_points(em)
    assert nearest_critical_point(em, 1.9) == right
    assert nearest_critical_point(em, -0.1) == left
    assert nearest_critical_point(em, 0.0) == left   # a tie keeps the first
    mid = nearest_critical_point(example_curve("quartic", t=-2.0), 0.1)
    assert (mid.kind, mid.order_k) == ("interior", 1)


def test_unknown_example_family_rejected():
    with pytest.raises(ValidationError, match="unknown example family"):
        example_curve("cubic")


def test_critical_quartic_interior_point():
    em = example_curve("quartic", t=-2.0)
    pts = find_critical_points(em)
    kinds = [(cp.kind, cp.order_k) for cp in pts]
    assert kinds == [("edge", 0), ("interior", 1), ("edge", 0)]
    mid = pts[1]
    assert mid.x_star == pytest.approx(0.0, abs=1e-9)
    assert mid.delta == pytest.approx(1 / 3)
    assert mid.m_h == 2


def test_mp_hard_edge():
    em = example_curve("marchenko_pastur", n=30)
    pts = find_critical_points(em)
    assert [cp.kind for cp in pts] == ["edge", "edge"]
    soft, hard = pts
    assert soft.x_star == pytest.approx(-4.0)
    assert soft.order_k == 0
    assert hard.x_star == pytest.approx(0.0)
    assert hard.order_k == -1
    assert hard.delta == pytest.approx(2.0)
    assert hard.m_p == 1


def test_near_critical_merge_clusters():
    em = example_curve("quartic_merge", tau=1.0, n=10**6)
    pts = find_critical_points(em, proximity_tol=1e-2)
    mid = [cp for cp in pts if cp.kind == "interior"]
    assert len(mid) == 1
    assert mid[0].order_k == 1
    assert mid[0].x_star == pytest.approx(0.0, abs=1e-12)


def test_generic_quartic_no_interior_point():
    em = solve_support(Potential(n=40, reg=(0.0, 1.0, 0.0, 1.0),
                                 singularities=(), support=LINE), "one_cut")
    pts = find_critical_points(em)
    assert [cp.kind for cp in pts] == ["edge", "edge"]


def test_charge_on_support_is_interior_point():
    p = Potential(n=40, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.5, alpha=0.3),), support=LINE)
    em = solve_support(p, "one_cut")
    pts = find_critical_points(em)
    bulk = [cp for cp in pts if cp.kind == "interior"]
    assert len(bulk) == 1
    assert bulk[0].x_star == pytest.approx(0.5)
    assert bulk[0].order_k == 0
    assert bulk[0].delta == 1.0


def test_ambiguous_clustering_raises():
    em = example_curve("quartic_merge", tau=1.0, n=10**6)
    c = em.curve.h[0] / 2.0
    d = math.sqrt(2.0 * c)  # h-roots sit at +- i d
    # the pair is too far apart to cluster at this tol, yet close enough
    # that a larger tol would report an order-1 point
    with pytest.raises(NumericalError, match="ambiguous"):
        find_critical_points(em, proximity_tol=0.6 * d)


def test_bulk_point_validates():
    em = solve_support(gaussian(), "one_cut")
    cp = bulk_point(em, 0.0)
    assert (cp.kind, cp.order_k, cp.delta) == ("interior", 0, 1.0)
    with pytest.raises(ValidationError):
        bulk_point(em, 5.0)


# ---------------------------------------------------------------------------
# scaled curves


def test_gue_right_edge_scaled_curve():
    em = solve_support(gaussian(), "one_cut")
    right = find_critical_points(em)[1]
    sc = scaled_curve(em, right, n=100)
    assert sc.zeros == (0.0,)
    assert sc.poles == ()
    np.testing.assert_allclose(sc.h, [2.0], atol=1e-10)
    z = np.array([0.5 + 0.5j, 2.0, -1.0 + 0.2j])
    np.testing.assert_allclose(curve_eval(sc, z), 2.0 * np.sqrt(z), atol=1e-10)


def test_gue_left_edge_mirrors_to_right_form():
    em = solve_support(gaussian(), "one_cut")
    left, right = find_critical_points(em)
    assert left.mirrored and not right.mirrored
    sc = scaled_curve(em, left, n=100)
    np.testing.assert_allclose(sc.h, [2.0], atol=1e-10)
    assert sc.zeros == (0.0,)


def test_critical_quartic_scaled_curve_exact():
    em = example_curve("quartic", t=-2.0)
    mid = find_critical_points(em)[1]
    sc = scaled_curve(em, mid, n=1000)
    # yhat = 2 i zeta^2 at exact criticality
    np.testing.assert_allclose(sc.h, [0.0, 0.0, 2.0j], atol=1e-8)
    assert sc.zeros == () and sc.poles == ()


def test_merge_family_scaled_curve():
    tau = 1.5
    em = example_curve("quartic_merge", tau=tau, n=10**9)
    mid = [cp for cp in find_critical_points(em, proximity_tol=1e-2)
           if cp.kind == "interior"][0]
    sc = scaled_curve(em, mid, n=10**9)
    z = np.array([0.3 + 0.7j, -1.2 + 0.1j, 2.0 + 0.0j])
    target = 1j * (2.0 * z**2 + tau)
    np.testing.assert_allclose(curve_eval(sc, z), target, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("complex_roots", [False, True])
def test_root_product_is_polyfromroots_bit_for_bit(complex_roots):
    # bit for bit up to the three near roots a critical point holds;
    # polyfromroots pairs the factors of more roots in another order
    rng = np.random.default_rng(17)
    for count in range(1, 10):
        roots = rng.normal(size=count)
        if complex_roots:
            roots = roots + 1j * rng.normal(size=count)
        got, ref = _poly_from_roots(list(roots)), npp.polyfromroots(list(roots))
        assert got.dtype == ref.dtype
        if count <= 3:
            assert got.tobytes() == ref.tobytes()
        else:
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert _poly_from_roots([]).tolist() == [1.0]


def test_mp_hard_edge_scaled_curve():
    em = example_curve("marchenko_pastur", n=50)
    hard = find_critical_points(em)[1]
    sc = scaled_curve(em, hard, n=50)
    np.testing.assert_allclose(sc.h, [-2.0], atol=1e-12)
    assert sc.poles == (0.0,)
    z = np.array([1.0 + 1.0j, 4.0])
    np.testing.assert_allclose(curve_eval(sc, z), -2.0 / np.sqrt(z), atol=1e-12)


def test_scaled_curve_consistency_rate():
    # n^{1-delta} y(x_* + n^{-delta} zeta) -> yhat(zeta) at rate n^{-delta}
    em = solve_support(gaussian(), "one_cut")
    right = find_critical_points(em)[1]
    zeta = np.exp(1j * np.linspace(0.3, math.pi - 0.3, 9))

    def err(n):
        sc = scaled_curve(em, right, n)
        approx = float(n) ** (1 - right.delta) * curve_eval(
            em.curve, right.x_star + float(n) ** (-right.delta) * zeta)
        return np.max(np.abs(approx - curve_eval(sc, zeta)))

    e1, e2 = err(400), err(800)
    ratio = e1 / e2
    expect = 2.0 ** right.delta
    assert abs(ratio - expect) < 0.25 * expect


def test_scaled_curve_consistency_mirrored():
    em = solve_support(gaussian(), "one_cut")
    left = find_critical_points(em)[0]
    sc = scaled_curve(em, left, n=600)
    zeta = np.exp(1j * np.linspace(0.3, math.pi - 0.3, 7))
    approx = -float(600) ** (1 - left.delta) * curve_eval(
        em.curve, left.x_star - float(600) ** (-left.delta) * zeta)
    assert np.max(np.abs(approx - curve_eval(sc, zeta))) < 0.05


# ---------------------------------------------------------------------------
# series and model data


def test_series_simple_cases():
    em = solve_support(gaussian(), "one_cut")
    right = find_critical_points(em)[1]
    q = series_at_infinity(scaled_curve(em, right, 100), right.order_k)
    np.testing.assert_allclose(q[0], 2.0, atol=1e-10)
    np.testing.assert_allclose(q[1:], 0.0, atol=1e-10)

    mp = example_curve("marchenko_pastur", n=50)
    hard = find_critical_points(mp)[1]
    qh = series_at_infinity(scaled_curve(mp, hard, 50), hard.order_k)
    np.testing.assert_allclose(qh[0], -2.0, atol=1e-12)


def test_series_merge_family():
    tau = 0.8
    em = example_curve("quartic_merge", tau=tau, n=10**12)
    mid = [cp for cp in find_critical_points(em, proximity_tol=1e-3)
           if cp.kind == "interior"][0]
    q = series_at_infinity(scaled_curve(em, mid, 10**12), mid.order_k)
    np.testing.assert_allclose(q[0], 2.0j, atol=1e-7)
    np.testing.assert_allclose(q[1], 0.0, atol=1e-7)
    np.testing.assert_allclose(q[2], 1j * tau, atol=1e-7)


def test_gue_edge_model_data():
    em = solve_support(gaussian(), "one_cut")
    for cp in find_critical_points(em):
        md = extract_model_data(em, cp)
        assert md.tau_inf[1] == pytest.approx(1.0, abs=1e-9)
        assert md.tau_inf[0] == pytest.approx(0.0, abs=1e-9)
        assert md.window.intervals == ((-math.inf, 0.0),)
        assert md.charges == ()
        assert md.c_hat == 0.0


def test_merge_model_data_tau_inf():
    for tau in (1.0, -1.0):
        n = 10**15
        em = example_curve("quartic_merge", tau=tau, n=n)
        mid = [cp for cp in find_critical_points(em, proximity_tol=1e-4)
               if cp.kind == "interior"][0]
        md = extract_model_data(em, mid)
        assert md.tau_inf[3] == pytest.approx(1.0, abs=1e-8)
        assert md.tau_inf[2] == pytest.approx(0.0, abs=1e-8)
        assert md.tau_inf[1] == pytest.approx(3.0 * tau, abs=1e-8)
        assert md.window.intervals == ((-math.inf, math.inf),)


def test_bulk_model_data_phases():
    em = solve_support(gaussian(n=40), "one_cut")
    md = extract_model_data(em, bulk_point(em, 0.0))
    # E_1 = pi rho(0) = 1; constant entry carries -n pi mu([0, inf)) = -20 pi
    assert md.tau_inf[1] == pytest.approx(1.0, abs=1e-8)
    assert md.tau_inf[0] == pytest.approx(-20.0 * math.pi, abs=1e-6)


def test_mp_model_data():
    tau = 1.3
    n = 50
    em = example_curve("marchenko_pastur", n=n, alpha1=0.5, alpha2=0.5, tau=tau)
    hard = find_critical_points(em)[1]
    md = extract_model_data(em, hard)
    assert md.tau_inf == pytest.approx((-1.0,), abs=1e-12)
    assert md.window.intervals == ((-math.inf, 0.0),)
    locs = sorted(c.location.real for c in md.charges)
    assert locs == pytest.approx([0.0, tau], abs=1e-12)
    assert all(c.alpha == 0.5 for c in md.charges)


def test_exterior_template_synthetic():
    # yhat = 3(zeta - 0.2): xihat = -(1/2)(E_2 zeta^2 + E_1 zeta), c_hat = 0
    sc = SpectralCurve(h=(-0.6, 3.0), zeros=(), poles=())
    q = series_at_infinity(sc, 1)
    np.testing.assert_allclose(q[:2], [3.0, -0.6], atol=1e-14)


def test_model_reports_serialize():
    em = example_curve("marchenko_pastur", n=30)
    pts = find_critical_points(em)
    md = extract_model_data(em, pts[1])
    blob = json.dumps([critical_point_dict(cp) for cp in pts])
    assert "hard" not in blob  # kinds are the enum names
    blob2 = json.dumps(model_data_dict(md))
    assert "tau_inf" in blob2


def test_exponent_balance_guard():
    # a bulk point whose window accidentally swallows an edge must refuse
    em = solve_support(gaussian(), "one_cut")
    cp = CriticalPoint(x_star=1.9999999, kind="interior", order_k=0, radius=1e-3)
    with pytest.raises(NumericalError, match="balance"):
        scaled_curve(em, cp, 100)
