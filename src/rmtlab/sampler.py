"""Metropolis sampling of the joint eigenvalue density.

The chain targets

    log pi(x_1..x_n) = 2 sum_{i<j} log|x_i - x_j| + sum_k log w(x_k),

the Coulomb-gas form of the eigenvalue measure; log w already carries
the -n V and charge terms.  Single-site Gaussian proposals, step scale
tuned during burn-in only, so fixed-seed runs are reproducible and the
post-burn-in chain satisfies detailed balance exactly.

A sweep draws all n proposals and evaluates their log-weights in one
array call before visiting the sites.  That is exact, not an
approximation: site i keeps its position until its own turn, so its
proposal xs[i] + step * noise[i] is the same double whether formed at
the start of the sweep or at the visit, and log w of it does not
depend on the other sites.

Pair terms come from three n x n tables of log-distances.  `logd`
holds log|x_i - x_j| for the current positions and lives across
sweeps.  At the start of each sweep two more are built, one array call
each: `cur` holds log|props_i - x_j| against the positions the sweep
starts from, and `moved` holds log|props_i - props_j|.  When site j
accepts, column j of `cur` is overwritten with column j of `moved`, so
row i of `cur` always equals log|props_i - x_j| for the positions at
site i's turn, and a visit needs one numpy reduction for both of its
row sums.  Each entry is the same double a fresh log|x_i - x_j| gives
(the diagonal is log 1 = 0 in every table), so the row sums, and with
them every accept/reject decision, are those of the site-by-site
evaluation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumMeasure, mass_right_of
from .errors import NumericalError, ValidationError
from .potential import Potential, log_weight, v_reg

_RECHECK_EVERY = 10_000   # proposals between cache-vs-recompute audits
_TUNE_WINDOW = 50         # sweeps per burn-in tuning decision


@dataclass
class ChainState:
    """Mutable single-chain state; positions always inside the domain."""

    positions: np.ndarray
    log_density: float
    rng_seed: int
    step_scale: float
    accept_count: int = 0
    propose_count: int = 0
    max_drift: float = 0.0   # largest relative drift the audit saw

    def acceptance_rate(self) -> float:
        return self.accept_count / max(1, self.propose_count)


def chain_log_density(p: Potential, xs: np.ndarray) -> float:
    """Full recomputation of the chain's log target."""
    xs = np.asarray(xs, dtype=float)
    lw = float(np.sum(log_weight(p, xs)))
    d = xs[:, None] - xs[None, :]
    iu = np.triu_indices(xs.size, k=1)
    return 2.0 * float(np.sum(np.log(np.abs(d[iu])))) + lw


def _initial_positions(p: Potential, n: int) -> np.ndarray:
    """Spread n points over the region where e^{-V} is not negligible."""
    spots = []
    for lo, hi in p.support.intervals:
        a, b = lo, hi
        ref = 0.0 if a < 0.0 < b else (a if math.isfinite(a) else b)
        if not math.isfinite(a):
            a = ref - 1.0
            while p.n * (v_reg(p, a) - v_reg(p, ref)) < 20.0 \
                    and ref - a < 1e6:
                a = ref - 2.0 * (ref - a)
        if not math.isfinite(b):
            b = ref + 1.0
            while p.n * (v_reg(p, b) - v_reg(p, ref)) < 20.0 \
                    and b - ref < 1e6:
                b = ref + 2.0 * (b - ref)
        spots.append((a, b))
    total = sum(b - a for a, b in spots)
    if not (total > 0.0 and math.isfinite(total)):
        raise NumericalError("cannot place chain points inside the domain")
    out, nudge = [], []
    left = n
    for i, (a, b) in enumerate(spots):
        take = left if i == len(spots) - 1 else max(1, round(n * (b - a) / total))
        take = min(take, left)
        pad = 0.01 * (b - a)
        # a lone point sits mid-window; linspace would put it at the left end
        out.append(np.linspace(a + pad, b - pad, take) if take > 1
                   else np.array([0.5 * (a + b)]))
        # a point on a zero of the weight (a charge) steps right by half
        # the pad or half the spacing, whichever is smaller
        spacing = (b - a - 2.0 * pad) / (take - 1) if take > 1 else pad
        nudge.append(np.full(take, 0.5 * min(pad, spacing)))
        left -= take
        if left == 0:
            break
    xs = np.concatenate(out)
    if xs.size != n:
        raise NumericalError("cannot place chain points inside the domain")
    off = ~np.isfinite(log_weight(p, xs))
    if np.any(off):
        xs[off] += np.concatenate(nudge)[off]
        if not np.all(np.isfinite(log_weight(p, xs[off]))):
            raise NumericalError("initial chain points landed on a zero of the weight")
    return xs


def check_chain_args(steps: int, burn_in: int, thin: int, seed: int) -> None:
    """Reject a sweep count, burn-in, thinning or seed no chain can run with."""
    if burn_in < 0:
        raise ValidationError(f"burn_in must be non-negative, got {burn_in}")
    if steps <= burn_in:
        raise ValidationError("steps must exceed burn_in")
    if thin < 1:
        raise ValidationError("thin must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


def _log_gaps(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = log|a_i - b_j|, with log 1 = 0 on the diagonal."""
    np.subtract(a[:, None], b[None, :], out=out)
    np.abs(out, out=out)
    np.fill_diagonal(out, 1.0)
    np.log(out, out=out)


def mcmc_chain(p: Potential, steps: int, burn_in: int, thin: int = 1,
               seed: int = 0) -> tuple[list[np.ndarray], ChainState]:
    """Run the chain for `steps` sweeps and keep every thin-th after burn-in.

    One sweep proposes one Gaussian move per site in fixed order.  All n
    proposals and their log-weights are computed in one batch when the
    sweep starts; this is exact because no site moves before its turn.
    The sweep also builds `cur` (log|props_i - x_j|) and `moved`
    (log|props_i - props_j|); `cur` sits beside the persistent
    log-distance table `logd` in one (2, n, n) array, so a visit gets
    both row sums from one reduction.  An accept at site i copies row i
    of `cur` into row and column i of `logd`, and row i of `moved` into
    column i of `cur` (`moved` is symmetric bit for bit: |a - b| and
    |b - a| are the same double).  Every entry is the double a fresh
    log|x_i - x_j| would give, so each accept/reject decision matches
    the site-by-site evaluation bit for bit.  The cached log density is
    audited against full recomputation from the positions every 10^4
    proposals; drift beyond 1e-9 (relative) aborts the run, and the
    largest drift seen is kept in ChainState.max_drift.
    """
    check_chain_args(steps, burn_in, thin, seed)
    n = p.n
    xs = _initial_positions(p, n)
    span = float(xs.max() - xs.min()) if n > 1 else 1.0
    state = ChainState(
        positions=xs,
        log_density=chain_log_density(p, xs),
        rng_seed=int(seed),
        step_scale=max(span / max(n, 4), 1e-3),
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    kept: list[np.ndarray] = []
    lw_cache = log_weight(p, xs).tolist()
    tab = np.empty((2, n, n))   # tab[0] = cur, tab[1] = logd
    cur, logd = tab
    moved = np.empty((n, n))
    _log_gaps(xs, xs, logd)
    pairs = list(tab.swapaxes(0, 1))   # pairs[i] is the view tab[:, i]
    window_acc = window_prop = 0
    since_check = 0

    for sweep in range(steps):
        noise = rng.standard_normal(n)
        gates = np.log(rng.random(n)).tolist()
        props = xs + state.step_scale * noise
        lw_props = log_weight(p, props).tolist()
        _log_gaps(props, xs, cur)
        _log_gaps(props, props, moved)
        for i in range(n):
            state.propose_count += 1
            window_prop += 1
            since_check += 1
            lw_new = lw_props[i]
            if math.isfinite(lw_new):
                # ndarray.sum(axis=1) without its Python-level wrapper
                s_new, s_old = np.add.reduce(pairs[i], 1).tolist()
                delta = 2.0 * (s_new - s_old) + lw_new - lw_cache[i]
                if gates[i] < delta:
                    xs[i] = props[i]
                    lw_cache[i] = lw_new
                    logd[i] = cur[i]
                    logd[:, i] = cur[i]
                    cur[:, i] = moved[i]
                    state.log_density += delta
                    state.accept_count += 1
                    window_acc += 1
            if since_check >= _RECHECK_EVERY:
                since_check = 0
                full = chain_log_density(p, xs)
                drift = abs(full - state.log_density)
                scale = max(1.0, abs(full))
                state.max_drift = max(state.max_drift, drift / scale)
                if drift > 1e-9 * scale:
                    raise NumericalError(f"incremental log density drifted by {drift:.3g}")
                state.log_density = full
        if sweep < burn_in and (sweep + 1) % _TUNE_WINDOW == 0 and window_prop > 0:
            rate = window_acc / window_prop
            if rate < 0.2:
                state.step_scale *= 0.8
            elif rate > 0.6:
                state.step_scale *= 1.25
            window_acc = window_prop = 0
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            kept.append(xs.copy())
    return kept, state


# ---------------------------------------------------------------------------
# empirical densities


@dataclass(frozen=True)
class EmpiricalDensity:
    """Histogram density: values[i] on [edges[i], edges[i + 1]]."""

    edges: np.ndarray
    values: np.ndarray

    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def mass(self) -> float:
        return float(np.sum(self.values * self.widths()))


def histogram_density(samples, edges) -> EmpiricalDensity:
    """Normalized histogram over contiguous bins given by their edges.

    Samples falling outside the edges are discarded before normalizing,
    so the values integrate to 1 over [edges[0], edges[-1]].
    """
    if len(samples) == 0:
        raise ValidationError("histogram needs at least one sample")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValidationError("bin edges must be increasing with at least two entries")
    if not np.all(np.isfinite(edges)):
        raise ValidationError("histogram bins must be finite")
    data = np.concatenate([np.atleast_1d(np.asarray(s, dtype=float)) for s in samples])
    counts = np.histogram(data, bins=edges)[0].astype(float)
    total = counts.sum()
    if total == 0:
        raise ValidationError("no samples fall inside the bins")
    return EmpiricalDensity(edges=edges, values=counts / (total * np.diff(edges)))


def compare_density(emp: EmpiricalDensity, em: EquilibriumMeasure) -> dict:
    """Sup and L1 deviation of the histogram from bin-averaged rho."""
    widths = emp.widths()
    mass = np.array([mass_right_of(em, e) for e in emp.edges.tolist()])
    avg = (mass[:-1] - mass[1:]) / widths
    dev = np.abs(emp.values - avg)
    return {
        "sup_dev": float(np.max(dev)),
        "l1_dev": float(np.sum(dev * widths)),
    }
