"""Semi-classical potentials and their eigenvalue weights.

A model is the eigenvalue measure (1/Z_n) prod_{i<j} (x_i-x_j)^2
prod_k e^{-n V(x_k)} restricted to a union of intervals.  The potential
splits into three parts:

    V_reg(z)  = sum_{j>=1} (1/j) t_j z^j            polynomial
    V_sing(z) = -sum_b sum_{j>=1} (1/j) t_{b,j} (z-b)^{-j}
    V_br(z)   = -sum_b (2 alpha_b / n) log|z - b|   log charges

so the weight factors as

    w(x) = prod_b |x-b|^{2 alpha_b} * exp(-n (V_reg + V_sing)(x))

on the domain and vanishes off it.  Singular points b come in
conjugate-closed sets so that V is real on the real axis.  Every
Potential checks such constraints on construction (ValidationError).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint closed real intervals ordered left to right.

    Endpoints may be -inf / +inf.  Intervals never touch: consecutive
    ones are separated by an open gap.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = -math.inf
        first = True
        for lo, hi in self.intervals:
            if not (lo < hi):
                raise ValidationError(f"interval [{lo}, {hi}] is empty or reversed")
            if not first and not (lo > prev_hi):
                raise ValidationError(
                    f"intervals overlap or touch near {lo}; they must be disjoint and sorted"
                )
            prev_hi = hi
            first = False
        if not self.intervals:
            raise ValidationError("interval set is empty")

    def contains(self, x, tol: float = 0.0):
        """Boolean mask (or scalar) for membership, with slack tol."""
        xa = np.asarray(x, dtype=float)
        out = np.zeros(xa.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (xa >= lo - tol) & (xa <= hi + tol)
        if np.isscalar(x):
            return bool(out)
        return out

    def finite_endpoints(self) -> tuple[float, ...]:
        ends = []
        for lo, hi in self.intervals:
            if math.isfinite(lo):
                ends.append(lo)
            if math.isfinite(hi):
                ends.append(hi)
        return tuple(ends)

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[-1][1]

    def gaps(self) -> tuple[tuple[float, float], ...]:
        """Open gaps between consecutive intervals."""
        out = []
        for (lo1, hi1), (lo2, hi2) in zip(self.intervals, self.intervals[1:]):
            out.append((hi1, lo2))
        return tuple(out)


@dataclass(frozen=True)
class Singularity:
    """One singular point of the weight: a log charge and optional poles.

    b      location (real or complex; complex ones occur in conjugate pairs)
    alpha  log-charge exponent, > 0 (0 means absent, use no Singularity)
    t      pole coefficients t_{b,1}, ..., t_{b,d-1}; empty for a bare charge
    """

    b: complex
    alpha: float
    t: tuple[complex, ...] = ()


@dataclass(frozen=True)
class Potential:
    n: int
    reg: tuple[float, ...]
    singularities: tuple[Singularity, ...]
    support: IntervalSet

    def scale(self) -> float:
        """Crude length scale of the model, used for relative tolerances."""
        ends = [abs(e) for e in self.support.finite_endpoints()]
        ends += [abs(s.b) for s in self.singularities]
        ends += [1.0]
        return max(ends)

    def __post_init__(self):
        _validate(self)


# ---------------------------------------------------------------------------
# parsing


def _num(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"{where}: expected a number, got {v!r}")
    return float(v)


def _endpoint(v, where: str) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if isinstance(v, str):
        raise FormatError(f'{where}: expected a number, "inf" or "-inf", got {v!r}')
    return _num(v, where)


def _cnum(v, where: str) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise FormatError(f"{where}: complex entries are [re, im] pairs, got {v!r}")
        return complex(_num(v[0], where), _num(v[1], where))
    return complex(_num(v, where))


def parse_potential(doc) -> Potential:
    """Build a Potential from a JSON document (text or parsed dict).

    Schema::

        {"reg": [t1, t2, ...],
         "singularities": [{"b": [re, im], "alpha": a, "t": [t1, ...]}, ...],
         "support": [[lo, hi], ...],
         "n": 100}

    Unbounded support ends use the sentinels "-inf" / "inf".  Pole
    coefficients in "t" may be numbers or [re, im] pairs.  Schema faults
    raise FormatError; a well-formed document whose model breaks a
    structural constraint raises ValidationError from the Potential itself.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError("potential document must be a JSON object")
    unknown = set(doc) - {"reg", "singularities", "support", "n"}
    if unknown:
        raise FormatError(f"unknown keys in potential document: {sorted(unknown)}")
    missing = {"reg", "singularities", "support", "n"} - set(doc)
    if missing:
        raise FormatError(f"potential document is missing keys: {sorted(missing)}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or isinstance(n, float):
        raise FormatError('"n" must be an integer')

    reg_raw = doc["reg"]
    if not isinstance(reg_raw, list):
        raise FormatError('"reg" must be a list of coefficients')
    reg = tuple(_num(v, f"reg[{i}]") for i, v in enumerate(reg_raw))

    sing_raw = doc["singularities"]
    if not isinstance(sing_raw, list):
        raise FormatError('"singularities" must be a list')
    sings = []
    for i, s in enumerate(sing_raw):
        if not isinstance(s, dict):
            raise FormatError(f"singularities[{i}] must be an object")
        bad = set(s) - {"b", "alpha", "t"}
        if bad:
            raise FormatError(f"singularities[{i}]: unknown keys {sorted(bad)}")
        if "b" not in s or "alpha" not in s:
            raise FormatError(f'singularities[{i}] needs "b" and "alpha"')
        b = _cnum(s["b"], f"singularities[{i}].b")
        alpha = _num(s["alpha"], f"singularities[{i}].alpha")
        t_raw = s.get("t", [])
        if not isinstance(t_raw, list):
            raise FormatError(f'singularities[{i}].t must be a list')
        t = tuple(_cnum(v, f"singularities[{i}].t[{j}]") for j, v in enumerate(t_raw))
        sings.append(Singularity(b=b, alpha=alpha, t=t))

    sup_raw = doc["support"]
    if not isinstance(sup_raw, list) or not sup_raw:
        raise FormatError('"support" must be a nonempty list of [lo, hi] pairs')
    ivals = []
    for i, pair in enumerate(sup_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(f"support[{i}] must be a [lo, hi] pair")
        lo = _endpoint(pair[0], f"support[{i}][0]")
        hi = _endpoint(pair[1], f"support[{i}][1]")
        ivals.append((lo, hi))
    try:
        support = IntervalSet(tuple(ivals))
    except ValidationError as e:
        raise FormatError(str(e)) from None

    return Potential(n=n, reg=reg, singularities=tuple(sings), support=support)


def to_document(p: Potential) -> dict:
    """Inverse of parse_potential, suitable for manifests."""

    def end(v):
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        return v

    return {
        "reg": list(p.reg),
        "singularities": [
            {
                "b": [s.b.real, s.b.imag],
                "alpha": s.alpha,
                "t": [[c.real, c.imag] for c in s.t],
            }
            for s in p.singularities
        ],
        "support": [[end(lo), end(hi)] for lo, hi in p.support.intervals],
        "n": p.n,
    }


# ---------------------------------------------------------------------------
# validation


def _trimmed_top(t: tuple[complex, ...]) -> int:
    """Index (1-based) of the last nonzero coefficient, 0 if none."""
    for j in range(len(t), 0, -1):
        if t[j - 1] != 0:
            return j
    return 0


def _validate(p: Potential) -> None:
    """Check structural constraints; raise ValidationError on the first hit."""
    if p.n < 1:
        raise ValidationError(f"n must be >= 1, got {p.n}")

    # JSON admits NaN and Infinity; only support endpoints may be infinite
    numbers = [(f"reg[{i}]", c) for i, c in enumerate(p.reg)]
    for i, s in enumerate(p.singularities):
        numbers += [(f"singularities[{i}].b", s.b), (f"singularities[{i}].alpha", s.alpha)]
        numbers += [(f"singularities[{i}].t[{j}]", c) for j, c in enumerate(s.t)]
    for what, v in numbers:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValidationError(f"{what} must be finite, got {v}")

    # growth: the weight must decay along every unbounded end (V_reg = 0 has lead 0)
    deg = _trimmed_top(p.reg)
    lead = p.reg[deg - 1] if deg else 0.0
    if p.support.hi == math.inf and lead <= 0:
        raise ValidationError(
            "support is unbounded above but V_reg does not grow there "
            "(leading coefficient must be positive)"
        )
    if p.support.lo == -math.inf and lead * (-1.0) ** deg <= 0:
        raise ValidationError(
            "support is unbounded below but V_reg does not grow there "
            "(leading term must be even with positive coefficient, or odd negative)"
        )

    tol = 1e-12 * p.scale()

    for i, s in enumerate(p.singularities):
        if s.alpha <= 0:
            raise ValidationError(f"charge alpha at b={s.b} must be > 0, got {s.alpha}")
        for prev in p.singularities[:i]:
            if abs(prev.b - s.b) <= tol:
                raise ValidationError(f"duplicate singular point b={s.b}")

    # conjugate closure
    for s in p.singularities:
        if abs(s.b.imag) <= tol:
            if any(abs(c.imag) > 1e-12 * max(1.0, abs(c)) for c in s.t):
                raise ValidationError(
                    f"real singular point b={s.b.real} has complex pole coefficients"
                )
            continue
        partner = None
        for s2 in p.singularities:
            if abs(s2.b - s.b.conjugate()) <= tol:
                partner = s2
                break
        if partner is None:
            raise ValidationError(
                f"complex singular point b={s.b} has no conjugate partner"
            )
        if abs(partner.alpha - s.alpha) > 1e-12 * max(1.0, abs(s.alpha)):
            raise ValidationError(
                f"conjugate pair at b={s.b} must share alpha"
            )
        if len(partner.t) != len(s.t) or any(
            abs(c2 - c.conjugate()) > 1e-12 * max(1.0, abs(c))
            for c, c2 in zip(s.t, partner.t)
        ):
            raise ValidationError(
                f"conjugate pair at b={s.b} must have conjugate pole coefficients"
            )

    # real poles: the weight must decay into b along the domain
    for s in p.singularities:
        if abs(s.b.imag) > tol:
            continue
        m = _trimmed_top(s.t)
        if m == 0:
            continue
        br = s.b.real
        tm = s.t[m - 1].real
        right = any(
            lo_i - tol <= br < hi_i - tol for lo_i, hi_i in p.support.intervals
        )
        left = any(
            lo_i + tol < br <= hi_i + tol for lo_i, hi_i in p.support.intervals
        )
        if right and tm >= 0:
            raise ValidationError(
                f"pole at b={br}: top coefficient t_{m} must be negative for the "
                "weight to decay from the right"
            )
        if left and not right:
            # b sits at the right endpoint of an interval
            if m % 2 == 0 and tm >= 0:
                raise ValidationError(
                    f"pole at b={br}: even top coefficient t_{m} must be negative"
                )
            if m % 2 == 1 and tm <= 0:
                raise ValidationError(
                    f"pole at b={br}: odd top coefficient t_{m} must be positive "
                    "for decay from the left"
                )
        if right and left and m % 2 == 1:
            raise ValidationError(
                f"pole at b={br} interior to the domain needs an even top index, got {m}"
            )


# ---------------------------------------------------------------------------
# evaluation


def v_reg(p: Potential, x):
    """V_reg(x) = sum_j (1/j) t_j x^j by real Horner: a float gives a
    float, an array an array."""
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    v = 0.0
    for j in range(len(p.reg), 0, -1):
        v = v * x + p.reg[j - 1] / j
    return v * x


def log_weight(p: Potential, x):
    """log w(x) on the domain, -inf off it and at real pole points.

    V_reg runs in real arithmetic and charges enter exactly as
    2 alpha_b log|x-b|.  Pole terms use complex arithmetic because their
    points may come in conjugate pairs; at a real pole point w is 0,
    since a Potential's own check makes it decay into b along the
    domain.  Points where a power of 1/(x-b) overflows (within 1e-154 of
    a real pole with two coefficients, 1e-77 with four) are -inf as
    well: w underflows to 0 there.  The exponential part stays factored
    so nothing overflows before the final exp."""
    xa = np.asarray(x, dtype=float)
    keep = p.support.contains(xa)
    v_sing = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in p.singularities:
            if not s.t:
                continue
            inv = 1.0 / (xa - complex(s.b))
            for j, c in enumerate(s.t, start=1):
                pw = inv if j == 1 else pw * inv
                v_sing = v_sing - ((c / j) * pw).real
            # pw is non-finite at b itself and once a power has overflowed
            # (later powers stay inf or nan)
            keep = keep & np.isfinite(pw)
    lw = -p.n * (v_reg(p, xa) + v_sing)
    with np.errstate(divide="ignore"):
        for s in p.singularities:
            b = s.b if s.b.imag else s.b.real
            lw = lw + 2.0 * s.alpha * np.log(np.abs(xa - b))
    lw = np.where(keep, lw, -np.inf)
    return float(lw) if lw.ndim == 0 else lw
