"""Scenario registry: presets, parameters, critical-point wiring."""

import math

import numpy as np
import pytest

from rmtlab.classify import extract_model_data
from rmtlab.equilibrium import example_curve, xi_eval
from rmtlab.errors import ValidationError
from rmtlab import orthopoly
from rmtlab.kernel import convergence_scan
from rmtlab.orthopoly import Recurrence, laguerre_recurrence
from rmtlab.scenarios import default_fit, get_scenario, scenario_names


def test_registry_ships_five_presets():
    assert scenario_names() == (
        "gue-bulk", "gue-edge", "quartic-merge", "mp-hard-edge", "mp-two-charge")


@pytest.mark.parametrize("name", scenario_names())
def test_xi_vanishes_at_path_start(name):
    # xi integrates from p_sup, so the path to p_sup itself is empty
    sc = get_scenario(name)
    em = sc.equilibrium(sc.make_potential(100))
    assert xi_eval(em, em.p_sup) == 0


# the benchmark's scan ladders (benchmark/workloads.py, Scan.RUNS)
LADDERS = [
    ("gue-bulk", {}, (40, 80, 160, 320)),
    ("gue-edge", {}, (50, 100, 200, 400)),
    ("mp-hard-edge", {"alpha": 0.0}, (50, 100, 200, 280)),
    ("mp-hard-edge", {"alpha": 0.5}, (50, 100, 200, 280)),
    ("quartic-merge", {"tau": 0.0}, (30, 60, 120, 240)),
    ("quartic-merge", {"tau": 2.0}, (30, 60, 120, 240)),
    ("mp-two-charge", {}, (20, 40, 80, 160)),
]
LADDER_IDS = ["gue-bulk", "gue-edge", "mp-hard-edge-a0", "mp-hard-edge-a05",
              "quartic-merge-t0", "quartic-merge-t2", "mp-two-charge"]


@pytest.mark.parametrize("name, params, ns", LADDERS, ids=LADDER_IDS)
def test_critical_point_is_the_same_at_every_n(name, params, ns):
    # a scan reads the point once, at its last n: exact only because the
    # point each n would give is the same double
    sc = get_scenario(name, **params)
    points = [sc.critical_point(sc.equilibrium(sc.make_potential(n))) for n in ns]
    assert all(cp == points[-1] for cp in points)


@pytest.mark.parametrize("name, params, ns", LADDERS, ids=LADDER_IDS)
def test_scan_reads_its_family_once(name, params, ns):
    sc = get_scenario(name, **params)
    calls = {"equilibrium": 0, "critical_point": 0, "reference_law": 0,
             "recurrence": 0}

    def counted(method):
        bound = getattr(sc, method)

        def wrapper(*args):
            calls[method] += 1
            return bound(*args)
        return wrapper

    for method in calls:
        setattr(sc, method, counted(method))
    convergence_scan(sc, ns, np.asarray(sc.default_grid))
    assert calls == {"equilibrium": 1, "critical_point": 1, "reference_law": 1,
                     "recurrence": len(ns)}


def test_unknown_scenario_rejected():
    with pytest.raises(ValidationError, match="unknown scenario"):
        get_scenario("gue-bulk-typo")
    with pytest.raises(ValidationError, match="bad parameters"):
        get_scenario("gue-bulk", tau=1.0)


def test_bulk_scenario_wiring():
    sc = get_scenario("gue-bulk")
    p = sc.make_potential(24)
    assert p.n == 24 and p.reg == (0.0, 1.0)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em)
    assert cp.kind == "interior" and cp.delta == 1.0
    fn, meta = sc.reference_law(em, cp)
    assert meta["scale"] == pytest.approx(1.0 / math.pi, abs=1e-8)
    assert fn(0.3, 0.3) == pytest.approx(1.0 / math.pi, abs=1e-8)


def test_edge_scenario_wiring():
    sc = get_scenario("gue-edge")
    p = sc.make_potential(30)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em)
    assert cp.kind == "edge" and cp.x_star == pytest.approx(2.0, abs=1e-8)
    assert cp.delta == pytest.approx(2.0 / 3.0, abs=1e-12)
    fn, meta = sc.reference_law(em, cp)
    assert meta["scale"] == pytest.approx(1.0, abs=1e-8)


def test_merge_scenario_is_self_compared():
    sc = get_scenario("quartic-merge", tau=2.0)
    p = sc.make_potential(27)
    assert p.reg[1] == pytest.approx(-2.0 + 2.0 * 27.0 ** (-2.0 / 3.0), abs=1e-14)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em)
    assert cp.kind == "interior" and cp.order_k == 1
    assert cp.delta == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sc.reference_law(em, cp) is None


def test_hard_edge_scenario_wiring():
    sc = get_scenario("mp-hard-edge", alpha=0.5)
    assert sc.compare_abs is True
    assert get_scenario("mp-hard-edge").compare_abs is False
    p = sc.make_potential(40)
    assert len(p.singularities) == 1
    em = sc.equilibrium(p)
    cp = sc.critical_point(em)
    assert cp.order_k == -1 and cp.delta == 2.0
    fn, meta = sc.reference_law(em, cp)
    assert meta["scale"] == pytest.approx(4.0, abs=1e-8)
    assert meta["alpha"] == 1.0


def test_two_charge_scenario_charges_land_in_window():
    sc = get_scenario("mp-two-charge", tau=1.0)
    n = 30
    p = sc.make_potential(n)
    assert p.singularities[1].b == pytest.approx(1.0 / n ** 2, abs=1e-18)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em)
    assert sc.reference_law(em, cp) is None
    md = extract_model_data(em, cp)
    locs = sorted(c.location.real for c in md.charges)
    assert locs[0] == pytest.approx(0.0, abs=1e-9)
    assert locs[1] == pytest.approx(1.0, abs=1e-9)
    assert [c.alpha for c in md.charges] == [0.5, 0.5]


def test_model_data_zoom_is_the_potentials_n():
    # one n scales the curve and the charges: built at n = 60, the second
    # charge lands at tau = 1 (read at a second n = 60 against a potential
    # built at 30, it once landed at 4)
    sc = get_scenario("mp-two-charge", tau=1.0)
    em = sc.equilibrium(sc.make_potential(60))
    md = extract_model_data(em, sc.critical_point(em))
    assert md.n == 60
    locs = sorted(c.location.real for c in md.charges)
    assert locs == pytest.approx([0.0, 1.0], abs=1e-9)


def test_default_grids_stay_in_domain():
    # hard-edge grids must be strictly negative (domain is R-)
    for name in ("mp-hard-edge", "mp-two-charge"):
        sc = get_scenario(name)
        assert max(sc.default_grid) < 0.0
    for name in ("gue-bulk", "gue-edge", "quartic-merge"):
        sc = get_scenario(name)
        assert len(sc.default_grid) >= 5


@pytest.mark.parametrize("name, string_route", [
    ("gue-bulk", True), ("gue-edge", True), ("quartic-merge", True),
    ("mp-hard-edge", False), ("mp-two-charge", False)])
def test_recurrence_is_a_recurrence_from_its_route(name, string_route):
    # the scan reads no nodes: even quartics are fitted from the string
    # equation, the MP hard edge from the Laguerre closed forms (neither
    # has Lanczos vectors, so omega_max is 0.0), the rest by default_fit
    sc = get_scenario(name)
    p = sc.make_potential(40)
    r = sc.recurrence(p)
    assert isinstance(r, Recurrence) and r.m_max == 41
    if string_route:
        assert r.omega_max == 0.0 and not any(r.a)
    elif name == "mp-hard-edge":
        assert r == laguerre_recurrence(p, 41) and r.omega_max == 0.0
        charged = get_scenario(name, alpha=0.5)
        p = charged.make_potential(40)
        assert charged.recurrence(p) == laguerre_recurrence(p, 41)
    else:
        # the defaults' second charge lies beyond the hard edge with
        # 2 alpha2 = 1: one Christoffel step on the Laguerre closed forms;
        # a non-integer 2 alpha2, or a charge inside the support, keeps
        # default_fit
        assert r == laguerre_recurrence(p, 41) and r.omega_max == 0.0
        for params in ({"alpha2": 0.75}, {"tau": -1.0}):
            other = get_scenario(name, **params)
            p = other.make_potential(40)
            assert other.recurrence(p) == default_fit(p)[0]


@pytest.mark.parametrize("params", [
    {}, {"alpha2": 1.5}, {"alpha1": 1.3, "alpha2": 2.0, "tau": 5.0}, {"alpha2": 0.75},
    {"alpha2": 0.25, "tau": 5.0}, {"tau": -1.0}, {"alpha2": 1.0, "tau": -1.0}])
def test_two_charge_falls_back_exactly_where_the_closed_forms_refuse(params):
    sc = get_scenario("mp-two-charge", **params)
    p = sc.make_potential(40)
    try:
        expected = laguerre_recurrence(p, 41)
    except ValidationError:
        expected = default_fit(p)[0]
    assert sc.recurrence(p) == expected


def test_two_charge_scans_past_the_quadrature_ceiling():
    # default_fit's clip guard refuses the defaults from n = 320 on; on
    # Christoffel steps the collapse errors are 3.77e-4 and 1.89e-4
    sc = get_scenario("mp-two-charge")
    out = convergence_scan(sc, [320, 640, 1280], np.asarray(sc.default_grid))
    errs = [row["sup_error"] for row in out["rows"]]
    assert [row["n"] for row in out["rows"]] == [640, 1280]
    assert errs[1] < errs[0]
    assert -1.05 <= out["fitted_decay"] <= -0.95


@pytest.mark.parametrize("name, params", [
    ("gue-bulk", {}), ("gue-edge", {}), ("quartic-merge", {"tau": 0.0}),
    ("quartic-merge", {"tau": 2.0}), ("mp-hard-edge", {"alpha": 0.0}),
    ("mp-hard-edge", {"alpha": 0.5}), ("mp-two-charge", {})])
def test_closed_form_scans_build_no_rule(monkeypatch, name, params):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed-form scan built a quadrature fit")

    monkeypatch.setattr(orthopoly, "build_quadrature", refuse)
    monkeypatch.setattr(orthopoly, "stieltjes_recurrence", refuse)
    sc = get_scenario(name, **params)
    out = convergence_scan(sc, [40, 80], np.asarray(sc.default_grid))
    assert len(out["rows"]) in (1, 2)
    with pytest.raises(AssertionError, match="built a quadrature fit"):
        default_fit(sc.make_potential(40))


@pytest.mark.parametrize("tau", [0.0, 2.0, -1.5])
def test_merge_equilibrium_is_built_on_the_scans_potential(tau):
    sc = get_scenario("quartic-merge", tau=tau)
    p = sc.make_potential(120)
    em = sc.equilibrium(p)
    assert em.potential is p
    ref = example_curve("quartic_merge", tau=tau, n=120)
    assert ref.potential == p
    assert (em.curve, em.support, em.ell) == (ref.curve, ref.support, ref.ell)
