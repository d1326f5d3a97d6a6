"""Named scenario presets for the kernel convergence scans.

convergence_scan reads seven members of a scenario, duck-typed: name,
compare_abs (compare |kernel|, for charges on the scaled axis),
make_potential(n), equilibrium(p), critical_point(em), recurrence(p)
and reference_law(em, cp).  Each preset names its measure and its fit.
A scan reads equilibrium, critical_point and reference_law once, at its
last n, so a preset's critical point must be the same at every n of the
family.  equilibrium(p) is the base class's solve_support(p,
self.structure) for gue-bulk, gue-edge, mp-hard-edge and mp-two-charge,
whose charges do not enter the measure, and equilibrium.quartic_measure
for quartic-merge, which stays accurate near the merge point.
recurrence(p) returns the Recurrence to degree n + 1 the scan's kernels
run on.  A scan reads no quadrature nodes, so the even quartics
gue-bulk, gue-edge and quartic-merge take orthopoly.string_recurrence,
the Laguerre weight of mp-hard-edge orthopoly.laguerre_recurrence, and
mp-two-charge the same closed forms with 2 alpha2 Christoffel steps
when its second charge lies beyond the hard edge (tau > 0) with
2 alpha2 an integer, as the defaults do; any other mp-two-charge keeps
the base class's default_fit.  The law is (kernel, meta),
the closed form with its affine map from the extracted E-coefficients,
or None for scaling collapse, where successive n are compared directly.
The scan evaluates the kernel on the upper triangle of its grid and
mirrors it, so kernel(u, v) must be the same double as kernel(v, u);
the sine, Airy and Bessel laws here are.
The registry ships five presets:

    gue-bulk       Gaussian, interior point 0, sine law
    gue-edge       Gaussian, soft edge at 2, Airy law
    quartic-merge  quartic at t = -2 + tau n^{-2/3}, collapse only
    mp-hard-edge   linear V on R-, charge alpha at 0, Bessel law
    mp-two-charge  second charge at tau/n^2, collapse only
"""

from __future__ import annotations

import math

import numpy as np

from .classify import (
    CriticalPoint,
    bulk_point,
    extract_model_data,
    nearest_critical_point,
)
from .equilibrium import quartic_measure, quartic_merge_coupling, solve_support
from .errors import ValidationError
from .kernel import airy_kernel, bessel_kernel, sine_kernel
from .orthopoly import cached_recurrence, laguerre_recurrence, string_recurrence
from .potential import IntervalSet, Potential, Singularity

_LINE = IntervalSet(((-math.inf, math.inf),))
_NEG = IntervalSet(((-math.inf, 0.0),))


def default_fit(p: Potential):
    """Shared fitting rule: resolution max(900, 6n), degree n+1."""
    return cached_recurrence(p, max(900, 6 * p.n), p.n + 1)


class _Scenario:
    """Base: shared solve and fit, critical point nearest x_star, collapse."""

    compare_abs = False

    def equilibrium(self, p):
        return solve_support(p, self.structure)

    def critical_point(self, em):
        return nearest_critical_point(em, self.x_star)

    def recurrence(self, p):
        """Recurrence to degree n + 1 from default_fit."""
        return default_fit(p)[0]

    def reference_law(self, em, cp):
        return None


class GueBulk(_Scenario):
    """Gaussian ensemble, interior point x_* = 0, sine-kernel law."""

    name = "gue-bulk"
    structure = "one_cut"
    default_n_list = (40, 80, 160)
    default_grid = tuple(np.linspace(-2.0, 2.0, 9))

    def make_potential(self, n):
        return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=_LINE)

    def critical_point(self, em):
        return bulk_point(em, 0.0)

    def recurrence(self, p):
        return string_recurrence(p, p.n + 1)

    def reference_law(self, em, cp):
        md = extract_model_data(em, cp)
        s = md.e_series[1] / math.pi   # = local density rho(x_*)
        return (lambda u, v: s * sine_kernel(s * u, s * v)), {
            "kind": "sine", "scale": s}


class GueEdge(_Scenario):
    """Gaussian ensemble, right soft edge x_* = 2, Airy-kernel law."""

    name = "gue-edge"
    structure = "one_cut"
    x_star = 2.0
    default_n_list = (50, 100, 200)
    default_grid = tuple(np.linspace(-4.0, 1.0, 9))

    def make_potential(self, n):
        return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=_LINE)

    def recurrence(self, p):
        return string_recurrence(p, p.n + 1)

    def reference_law(self, em, cp):
        md = extract_model_data(em, cp)
        s = md.e_series[1] ** (2.0 / 3.0)   # unit for the Gaussian edge
        return (lambda u, v: s * airy_kernel(s * u, s * v)), {
            "kind": "airy", "scale": s}


class QuarticMerge(_Scenario):
    """Quartic at t = -2 + tau n^{-2/3}; verified by scaling collapse.

    The local law is Painleve-type with no desk-scale closed form, so
    the scan compares successive n directly.  The critical point is the
    merging interior zero pinned at the origin with k = 1, delta = 1/3
    for every member of the family.
    """

    name = "quartic-merge"
    default_n_list = (30, 60, 120)
    default_grid = tuple(np.linspace(-2.0, 2.0, 9))

    def __init__(self, tau: float = 0.0):
        self.tau = float(tau)

    def make_potential(self, n):
        t, _ = quartic_merge_coupling(self.tau, n)
        return Potential(n=n, reg=(0.0, t, 0.0, 1.0), singularities=(),
                         support=_LINE)

    def equilibrium(self, p):
        # cancellation-free closed form; solve_support loses accuracy
        # near the merge point where c(t) ~ (t + 2)
        return quartic_measure(p, quartic_merge_coupling(self.tau, p.n)[1])

    def critical_point(self, em):
        return CriticalPoint(x_star=0.0, kind="interior", order_k=1,
                             m_h=2, radius=0.5)

    def recurrence(self, p):
        return string_recurrence(p, p.n + 1)


class MpHardEdge(_Scenario):
    """Linear V on R- with one charge alpha at 0; Bessel-kernel law."""

    name = "mp-hard-edge"
    structure = "hard_edge_one_cut"
    x_star = 0.0
    default_n_list = (50, 100, 200)
    default_grid = tuple(np.linspace(-3.0, -0.05, 9))

    def __init__(self, alpha: float = 0.0):
        self.alpha = float(alpha)
        self.compare_abs = alpha != 0.0

    def make_potential(self, n):
        sings = () if self.alpha == 0.0 else (
            Singularity(b=0.0, alpha=self.alpha),)
        return Potential(n=n, reg=(-1.0,), singularities=sings, support=_NEG)

    def recurrence(self, p):
        return laguerre_recurrence(p, p.n + 1)

    def reference_law(self, em, cp):
        md = extract_model_data(em, cp)
        s = 4.0 * md.e_series[0] ** 2
        a = 2.0 * self.alpha
        return (lambda u, v: s * bessel_kernel(a, s * abs(u), s * abs(v))), {
            "kind": "bessel", "scale": s, "alpha": a}


class MpTwoCharge(_Scenario):
    """Hard edge colliding with a second charge at tau/n^2.

    The scaled charge set is B = {0, tau}; the limit kernel is genuinely
    Painleve-type, so the scan compares successive n (scaling collapse),
    and the model-problem data of the two-charge family comes from
    extract_model_data at the hard edge.  Comparisons use |kernel|
    because charges sit on the scaled axis.
    """

    name = "mp-two-charge"
    structure = "hard_edge_one_cut"
    compare_abs = True
    x_star = 0.0
    default_n_list = (20, 40, 80)
    default_grid = tuple(np.linspace(-3.0, -0.05, 9))

    def __init__(self, alpha1: float = 0.5, alpha2: float = 0.5,
                 tau: float = 1.0):
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        self.tau = float(tau)

    def make_potential(self, n):
        sings = (Singularity(b=0.0, alpha=self.alpha1),
                 Singularity(b=self.tau / float(n) ** 2, alpha=self.alpha2))
        return Potential(n=n, reg=(-1.0,), singularities=sings, support=_NEG)

    def recurrence(self, p):
        """Christoffel steps on the Laguerre closed forms when the second
        charge lies beyond the hard edge (tau > 0) with 2 alpha2 an
        integer, else default_fit."""
        if self.tau > 0.0 and (2.0 * self.alpha2).is_integer():
            return laguerre_recurrence(p, p.n + 1)
        return default_fit(p)[0]


_REGISTRY = {
    "gue-bulk": GueBulk,
    "gue-edge": GueEdge,
    "quartic-merge": QuarticMerge,
    "mp-hard-edge": MpHardEdge,
    "mp-two-charge": MpTwoCharge,
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_scenario(name: str, **params):
    """Instantiate a preset by name; params go to its constructor."""
    if name not in _REGISTRY:
        raise ValidationError(
            f"unknown scenario {name!r}; choose from {', '.join(_REGISTRY)}")
    try:
        return _REGISTRY[name](**params)
    except TypeError as e:
        raise ValidationError(f"bad parameters for scenario {name!r}: {e}") from e
