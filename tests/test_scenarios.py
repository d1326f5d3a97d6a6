"""Scenario registry: presets, parameters, critical-point wiring."""

import math

import pytest

from rmtlab.equilibrium import xi_eval
from rmtlab.errors import ValidationError
from rmtlab.scenarios import get_scenario, scenario_names


def test_registry_ships_five_presets():
    assert scenario_names() == (
        "gue-bulk", "gue-edge", "quartic-merge", "mp-hard-edge", "mp-two-charge")


@pytest.mark.parametrize("name", scenario_names())
def test_xi_vanishes_at_path_start(name):
    # xi integrates from p_sup, so the path to p_sup itself is empty
    sc = get_scenario(name)
    em = sc.equilibrium(sc.make_potential(100))
    assert xi_eval(em, em.p_sup) == 0


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
    cp = sc.critical_point(em, p)
    assert cp.kind == "interior" and cp.delta == 1.0
    md = sc.model_data(em, cp, p)
    fn, meta = sc.reference_law(md)
    assert meta["scale"] == pytest.approx(1.0 / math.pi, abs=1e-8)
    assert fn(0.3, 0.3) == pytest.approx(1.0 / math.pi, abs=1e-8)


def test_edge_scenario_wiring():
    sc = get_scenario("gue-edge")
    p = sc.make_potential(30)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em, p)
    assert cp.kind == "edge" and cp.x_star == pytest.approx(2.0, abs=1e-8)
    assert cp.delta == pytest.approx(2.0 / 3.0, abs=1e-12)
    md = sc.model_data(em, cp, p)
    fn, meta = sc.reference_law(md)
    assert meta["scale"] == pytest.approx(1.0, abs=1e-8)


def test_merge_scenario_is_self_compared():
    sc = get_scenario("quartic-merge", tau=2.0)
    assert sc.reference == "self"
    p = sc.make_potential(27)
    assert p.reg[1] == pytest.approx(-2.0 + 2.0 * 27.0 ** (-2.0 / 3.0), abs=1e-14)
    cp = sc.critical_point(sc.equilibrium(p), p)
    assert cp.kind == "interior" and cp.order_k == 1
    assert cp.delta == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sc.model_data(None, cp, p) is None
    with pytest.raises(ValidationError, match="no closed-form"):
        sc.reference_law(None)


def test_hard_edge_scenario_wiring():
    sc = get_scenario("mp-hard-edge", alpha=0.5)
    assert sc.compare_abs is True
    assert get_scenario("mp-hard-edge").compare_abs is False
    p = sc.make_potential(40)
    assert len(p.singularities) == 1
    em = sc.equilibrium(p)
    cp = sc.critical_point(em, p)
    assert cp.order_k == -1 and cp.delta == 2.0
    md = sc.model_data(em, cp, p)
    fn, meta = sc.reference_law(md)
    assert meta["scale"] == pytest.approx(4.0, abs=1e-8)
    assert meta["alpha"] == 1.0


def test_two_charge_scenario_charges_land_in_window():
    sc = get_scenario("mp-two-charge", tau=1.0)
    n = 30
    p = sc.make_potential(n)
    assert p.singularities[1].b == pytest.approx(1.0 / n ** 2, abs=1e-18)
    em = sc.equilibrium(p)
    cp = sc.critical_point(em, p)
    md = sc.model_data(em, cp, p)
    locs = sorted(c.location.real for c in md.charges)
    assert locs[0] == pytest.approx(0.0, abs=1e-9)
    assert locs[1] == pytest.approx(1.0, abs=1e-9)
    assert [c.alpha for c in md.charges] == [0.5, 0.5]


def test_default_grids_stay_in_domain():
    # hard-edge grids must be strictly negative (domain is R-)
    for name in ("mp-hard-edge", "mp-two-charge"):
        sc = get_scenario(name)
        assert max(sc.default_grid) < 0.0
    for name in ("gue-bulk", "gue-edge", "quartic-merge"):
        sc = get_scenario(name)
        assert len(sc.default_grid) >= 5
