"""Potential parsing, validation, and weight evaluation."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rmtlab import (
    FormatError,
    IntervalSet,
    Potential,
    Singularity,
    ValidationError,
    log_weight,
    parse_potential,
    v_reg,
)
from rmtlab.potential import to_document


def gaussian(n=20):
    return Potential(
        n=n,
        reg=(0.0, 1.0),
        singularities=(),
        support=IntervalSet(((-math.inf, math.inf),)),
    )


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip():
    doc = {
        "n": 12,
        "reg": [0.0, -2.0, 0.0, 1.0],
        "singularities": [
            {"b": 0.5, "alpha": 0.25, "t": [1.0, -0.5]},
        ],
        "support": [["-inf", 0.0], [1.0, "inf"]],
    }
    p = parse_potential(doc)
    assert p.n == 12
    assert p.reg == (0.0, -2.0, 0.0, 1.0)
    assert p.singularities[0].b == 0.5
    assert p.singularities[0].alpha == 0.25
    assert p.support.intervals == ((-math.inf, 0.0), (1.0, math.inf))
    doc2 = to_document(p)
    assert parse_potential(doc2) == p


def test_parse_complex_pair():
    doc = {
        "n": 5,
        "reg": [0.0, 1.0],
        "singularities": [
            {"b": [1.0, 2.0], "alpha": 0.5, "t": []},
            {"b": [1.0, -2.0], "alpha": 0.5, "t": []},
        ],
        "support": [["-inf", "inf"]],
    }
    p = parse_potential(doc)
    assert p.singularities[0].b == 1 + 2j
    assert p.singularities[1].b == 1 - 2j


def test_parse_rejects_unknown_key():
    with pytest.raises(FormatError):
        parse_potential({"n": 3, "reg": [0, 1], "singularities": [],
                         "support": [["-inf", "inf"]], "extra": 1})


def test_parse_rejects_missing_key():
    with pytest.raises(FormatError):
        parse_potential({"n": 3, "reg": [0, 1], "support": [["-inf", "inf"]]})


def test_parse_rejects_bad_interval():
    with pytest.raises((FormatError, ValidationError)):
        parse_potential({"n": 3, "reg": [0, 1], "singularities": [],
                         "support": [[2.0, 1.0]]})


# ---------------------------------------------------------------------------
# validation: a Potential checks itself on construction

LINE = IntervalSet(((-math.inf, math.inf),))


def test_validate_needs_growth():
    with pytest.raises(ValidationError):
        Potential(n=4, reg=(0.0, -1.0), singularities=(), support=LINE)


def test_validate_odd_degree_one_sided():
    # V ~ x^3/3 grows at +inf only; fine on [0, inf), bad on the line
    Potential(n=4, reg=(0.0, 0.0, 1.0), singularities=(),
              support=IntervalSet(((0.0, math.inf),)))
    with pytest.raises(ValidationError):
        Potential(n=4, reg=(0.0, 0.0, 1.0), singularities=(), support=LINE)


def test_validate_alpha_positive():
    with pytest.raises(ValidationError):
        Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=0.0),), support=LINE)


@pytest.mark.parametrize("reg,sing,what", [
    ((math.nan, 1.0), None, "reg[0]"),
    ((0.0, math.inf), None, "reg[1]"),
    ((0.0, 1.0), Singularity(b=complex(0.0, math.nan), alpha=1.0), "singularities[0].b"),
    ((0.0, 1.0), Singularity(b=0.5, alpha=math.nan), "singularities[0].alpha"),
    ((0.0, 1.0), Singularity(b=0.5, alpha=1.0, t=(-1.0, complex(math.inf, 0.0))),
     "singularities[0].t[1]"),
])
def test_validate_rejects_non_finite_numbers(reg, sing, what):
    with pytest.raises(ValidationError, match=re.escape(f"{what} must be finite")):
        Potential(n=10, reg=reg, singularities=(sing,) if sing else (), support=LINE)


def test_validate_conjugate_closure():
    with pytest.raises(ValidationError):
        Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=1 + 1j, alpha=0.5),), support=LINE)
    Potential(n=4, reg=(0.0, 1.0),
              singularities=(Singularity(b=1 + 1j, alpha=0.5, t=(1j,)),
                             Singularity(b=1 - 1j, alpha=0.5, t=(-1j,))),
              support=LINE)
    # conjugate locations but mismatched pole coefficients
    with pytest.raises(ValidationError):
        Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=1 + 1j, alpha=0.5, t=(1j,)),
                                 Singularity(b=1 - 1j, alpha=0.5, t=(1j,))),
                  support=LINE)


def test_validate_real_pole_decay():
    # interior real pole: top order must be even with negative coefficient
    Potential(n=4, reg=(0.0, 1.0),
              singularities=(Singularity(b=0.0, alpha=0.5, t=(0.0, -1.0)),),
              support=LINE)
    with pytest.raises(ValidationError):  # odd top index
        Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=0.5, t=(1.0,)),),
                  support=LINE)
    with pytest.raises(ValidationError):  # wrong sign
        Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=0.5, t=(0.0, 1.0)),),
                  support=LINE)


def test_validate_pole_at_left_domain_endpoint():
    # weight must vanish as x decreases to the endpoint from the right:
    # V_sing ~ -(1/m) t_m (x-b)^{-m} -> need t_m (x-b)^{-m} -> -inf
    half = IntervalSet(((0.0, math.inf),))
    Potential(n=4, reg=(0.0, 1.0),
              singularities=(Singularity(b=0.0, alpha=0.5, t=(-1.0,)),),
              support=half)
    with pytest.raises(ValidationError):
        Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=0.5, t=(1.0,)),),
                  support=half)


def test_validate_outside_pole_free():
    # a real pole strictly outside the domain needs no sign condition
    Potential(n=4, reg=(0.0, 1.0),
              singularities=(Singularity(b=-1.0, alpha=0.5, t=(1.0,)),),
              support=IntervalSet(((0.0, math.inf),)))


def test_validate_duplicate_singularity():
    with pytest.raises(ValidationError):
        Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=0.5),
                                 Singularity(b=0.0, alpha=0.25)),
                  support=LINE)


@pytest.mark.parametrize("n,reg,sings,cause", [
    (0, (0.0, 1.0), (), "n must be >= 1, got 0"),
    (10, (0.0, 1.0), (Singularity(b=0.0, alpha=-0.5),),
     "charge alpha at b=0.0 must be > 0, got -0.5"),
    (10, (0.0, 1.0), (Singularity(b=1j, alpha=0.5),),
     "complex singular point b=1j has no conjugate partner"),
    (10, (0.0, math.nan), (), "reg[1] must be finite, got nan"),
    (10, (0.0, -1.0), (), "support is unbounded above but V_reg does not grow there"),
], ids=["n0", "negative-alpha", "unpaired-b", "nan-reg", "no-growth"])
def test_invalid_potential_cannot_be_built(n, reg, sings, cause):
    # each of these once reached solve_support and find_critical_points
    # unchecked, which returned a semicircle or a convergence failure
    with pytest.raises(ValidationError, match=re.escape(cause)):
        Potential(n=n, reg=reg, singularities=sings, support=LINE)


def document(**changes):
    return {"n": 3, "reg": [0, 1], "singularities": [], "support": [["-inf", "inf"]],
            **changes}


def real_pole(t, support=LINE):
    return lambda: Potential(n=4, reg=(0.0, 1.0),
                             singularities=(Singularity(b=0.0, alpha=0.5, t=t),),
                             support=support)


NEG = IntervalSet(((-math.inf, 0.0),))  # b = 0 is its right end
REFUSALS = {
    "reg-entry": (lambda: parse_potential(document(reg=[0, "1"])), FormatError,
                  "reg[1]: expected a number, got '1'"),
    "endpoint": (lambda: parse_potential(document(support=[["-inf", "infinity"]])),
                 FormatError, "support[0][1]: expected a number, \"inf\" or \"-inf\", "
                 "got 'infinity'"),
    "complex-entry": (lambda: parse_potential(document(
        singularities=[{"b": [0, 1, 2], "alpha": 0.5}])), FormatError,
        "singularities[0].b: complex entries are [re, im] pairs, got [0, 1, 2]"),
    "not-json": (lambda: parse_potential("{"), FormatError, "invalid JSON: "),
    "not-object": (lambda: parse_potential("[1]"), FormatError,
                   "potential document must be a JSON object"),
    "n-float": (lambda: parse_potential(document(n=3.0)), FormatError,
                '"n" must be an integer'),
    "reg-not-list": (lambda: parse_potential(document(reg=1)), FormatError,
                     '"reg" must be a list of coefficients'),
    "singularities-not-list": (lambda: parse_potential(document(singularities={})),
                               FormatError, '"singularities" must be a list'),
    "support-not-list": (lambda: parse_potential(document(support="line")), FormatError,
                         '"support" must be a nonempty list of [lo, hi] pairs'),
    "singularity-not-object": (lambda: parse_potential(document(singularities=[0])),
                               FormatError, "singularities[0] must be an object"),
    "singularity-key": (lambda: parse_potential(document(
        singularities=[{"b": 0, "alpha": 0.5, "c": 1}])), FormatError,
        "singularities[0]: unknown keys ['c']"),
    "singularity-no-alpha": (lambda: parse_potential(document(singularities=[{"b": 0}])),
                             FormatError, 'singularities[0] needs "b" and "alpha"'),
    "singularity-t": (lambda: parse_potential(document(
        singularities=[{"b": 0, "alpha": 0.5, "t": 1}])), FormatError,
        "singularities[0].t must be a list"),
    "support-pair": (lambda: parse_potential(document(support=[[0]])), FormatError,
                     "support[0] must be a [lo, hi] pair"),
    "overlap": (lambda: IntervalSet(((0.0, 2.0), (1.0, 3.0))), ValidationError,
                "intervals overlap or touch near 1.0; they must be disjoint and sorted"),
    "no-interval": (lambda: IntervalSet(()), ValidationError, "interval set is empty"),
    "complex-pole-at-real-b": (real_pole((0.0, -1j)), ValidationError,
                               "real singular point b=0.0 has complex pole coefficients"),
    "pair-alpha": (lambda: Potential(n=4, reg=(0.0, 1.0), singularities=(
        Singularity(b=1 + 1j, alpha=0.5), Singularity(b=1 - 1j, alpha=0.25)), support=LINE),
        ValidationError, "conjugate pair at b=(1+1j) must share alpha"),
    "even-top-sign": (real_pole((0.0, 1.0), NEG), ValidationError,
                      "pole at b=0.0: even top coefficient t_2 must be negative"),
    "odd-top-sign": (real_pole((-1.0,), NEG), ValidationError,
                     "pole at b=0.0: odd top coefficient t_1 must be positive"),
    "interior-odd-top": (real_pole((-1.0,)), ValidationError,
                         "pole at b=0.0 interior to the domain needs an even top index, "
                         "got 1"),
}


@pytest.mark.parametrize("build, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_name_their_cause(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


# ---------------------------------------------------------------------------
# evaluation


def test_v_reg_values():
    # V_reg grows only at +inf, so the support is bounded below
    p = Potential(n=3, reg=(1.0, 2.0, 3.0), singularities=(),
                  support=IntervalSet(((-10.0, 10.0),)))
    # V = x + x^2 + x^3
    x = np.array([-1.5, 0.0, 0.3, 2.0])
    np.testing.assert_allclose(v_reg(p, x), x + x**2 + x**3, rtol=1e-14)


def test_log_weight_factorization():
    p = Potential(n=4, reg=(0.0, 1.0),
                  singularities=(Singularity(b=0.0, alpha=1.0, t=(-1.0,)),),
                  support=IntervalSet(((0.0, math.inf),)))
    x = np.array([0.25, 1.0, 2.0])
    lw = log_weight(p, x)
    expect = 2.0 * np.log(x) - 4 * (x**2 / 2 + 1.0 / x)
    np.testing.assert_allclose(lw, expect, rtol=1e-13)
    assert log_weight(p, -1.0) == -math.inf


def test_weight_is_n_v_full():
    p = Potential(n=6, reg=(0.0, 1.0),
                  singularities=(Singularity(b=-2.0, alpha=0.75),),
                  support=IntervalSet(((-math.inf, math.inf),)))
    x = np.linspace(-1.5, 3.0, 7)
    lw = log_weight(p, x)
    # -n (V_reg + V_br) with V_br = -(2 * 0.75 / 6) log|x + 2|
    nv = -p.n * (x**2 / 2 - 0.25 * np.log(np.abs(x + 2.0)))
    np.testing.assert_allclose(lw, nv, rtol=1e-12, atol=1e-12)


def test_log_weight_conjugate_pole_pair():
    # b = 1 +- i with t = (+-i,): V_sing = 2 / ((x-1)^2 + 1), and the two
    # charges give 2 * 0.5 * log|x-b| * 2 = log((x-1)^2 + 1)
    p = Potential(n=7, reg=(0.0, 1.0),
                  singularities=(Singularity(b=1 + 1j, alpha=0.5, t=(1j,)),
                                 Singularity(b=1 - 1j, alpha=0.5, t=(-1j,))),
                  support=IntervalSet(((-math.inf, math.inf),)))
    x = np.linspace(-3.0, 4.0, 29)
    q = (x - 1.0) ** 2 + 1.0
    expect = -p.n * (x**2 / 2 + 2.0 / q) + 2.0 * 0.5 * np.log(np.sqrt(q)) * 2
    np.testing.assert_allclose(log_weight(p, x), expect, rtol=1e-13)
    for xi, ei in zip(x, expect):
        got = log_weight(p, float(xi))
        assert isinstance(got, float)
        assert got == pytest.approx(ei, rel=1e-13)


@pytest.mark.parametrize("t", [(0.0, -1.0, 0.0, -1.0), (0.0, 1.0, 0.0, -1.0), (0.1, -1.0)])
def test_log_weight_next_to_real_pole(t):
    # within ~1e-154 of the pole a power of 1/x overflows; w underflows to 0
    # there, so log w is -inf with no NaN and no RuntimeWarning
    p = Potential(n=4, reg=(0.0, 1.0), singularities=(Singularity(b=0.0, alpha=0.5, t=t),),
                  support=IntervalSet(((-math.inf, math.inf),)))

    def closed_form(x):
        try:
            v_sing = -sum(c / j * x ** -j for j, c in enumerate(t, start=1))
        except OverflowError:
            return -math.inf
        return -p.n * (x * x / 2 + v_sing) + math.log(abs(x))

    x = np.array([1e-300, 1e-100, -1e-100])
    expect = [closed_form(float(xi)) for xi in x]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_weight(p, x)
        scalars = [log_weight(p, float(xi)) for xi in x]
    assert expect[0] == -math.inf
    assert not np.any(np.isnan(got))
    for g, sc, e in zip(got, scalars, expect):
        assert sc == g
        assert g == (e if e == -math.inf else pytest.approx(e, rel=1e-14))


@pytest.mark.parametrize("t", [(), (-1.0,)], ids=["charge-only", "pole"])
def test_log_weight_at_its_singular_point_in_an_array(t):
    # log|x - b| at a charge, and 1/(x - b) at a real pole, divide by
    # zero; each is suppressed inside the block for its kind of term,
    # which a charge-only model enters without the pole block
    p = Potential(n=4, reg=(0.0, 1.0), singularities=(Singularity(b=0.0, alpha=1.0, t=t),),
                  support=IntervalSet(((0.0, math.inf),)))
    x = np.array([0.0, 0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lw = log_weight(p, x)
    v_sing = -np.array([t[0] / xi for xi in x[1:]]) if t else 0.0
    assert lw[0] == -math.inf
    np.testing.assert_allclose(lw[1:], 2.0 * np.log(x[1:]) - 4 * (x[1:] ** 2 / 2 + v_sing),
                               rtol=1e-13)


def test_gaussian_weight_integral():
    p = gaussian(n=20)
    val, _ = quad(lambda x: math.exp(log_weight(p, x)), -np.inf, np.inf)
    assert val == pytest.approx(math.sqrt(2 * math.pi / 20), rel=1e-9)


def test_weight_vanishes_off_domain():
    p = Potential(n=5, reg=(-1.0,), singularities=(),
                  support=IntervalSet(((-math.inf, 0.0),)))
    x = np.array([-2.0, -0.5, 0.5, 3.0])
    w = np.exp(log_weight(p, x))
    assert np.all(w[:2] > 0)
    assert np.all(w[2:] == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=6),
    x=st.floats(-2, 2, allow_nan=False),
)
def test_reg_eval_matches_direct_sum(coeffs, x):
    # a bounded support keeps every coefficient list a valid potential
    p = Potential(n=2, reg=tuple(coeffs), singularities=(),
                  support=IntervalSet(((-10.0, 10.0),)))
    direct = sum(c / (j + 1) * x ** (j + 1) for j, c in enumerate(coeffs))
    got = v_reg(p, x)
    assert isinstance(got, float)
    assert got == pytest.approx(direct, rel=1e-10, abs=1e-10)
