"""Coulomb-gas Metropolis chain and histogram comparisons."""

import dataclasses
import math

import numpy as np
import pytest

from rmtlab import sampler
from rmtlab.errors import NumericalError, ValidationError
from rmtlab.potential import IntervalSet, Potential, Singularity, log_weight
from rmtlab.equilibrium import mass_right_of, solve_support
from rmtlab.sampler import (
    ChainState,
    EmpiricalDensity,
    chain_log_density,
    compare_density,
    histogram_density,
    mcmc_chain,
)

LINE = IntervalSet(((-math.inf, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))
HALF = IntervalSet(((0.0, math.inf),))


def gaussian(n):
    return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)


def mp_charge(n):
    return Potential(n=n, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.5),),
                     support=NEG)


def pole_half_line(n):
    return Potential(n=n, reg=(1.0,), singularities=(Singularity(b=0.0, alpha=1.0, t=(-1.0,)),),
                     support=HALF)


def critical_quartic(n):
    return Potential(n=n, reg=(0.0, -2.0, 0.0, 1.0), singularities=(), support=LINE)


def site_by_site_chain(p, steps, burn_in, thin=1, seed=0):
    """Reference chain: one scalar log_weight call and two fresh
    log-distance arrays per proposal, no batching and no cached table."""
    n = p.n
    xs = sampler._initial_positions(p, n)
    span = float(xs.max() - xs.min()) if n > 1 else 1.0
    state = ChainState(positions=xs, log_density=chain_log_density(p, xs),
                       rng_seed=int(seed), step_scale=max(span / max(n, 4), 1e-3))
    rng = np.random.Generator(np.random.PCG64(seed))
    kept = []
    lw_cache = np.asarray(log_weight(p, xs), dtype=float)
    window_acc = window_prop = 0
    since_check = 0
    for sweep in range(steps):
        noise = rng.standard_normal(n)
        gates = np.log(rng.random(n))
        for i in range(n):
            state.propose_count += 1
            window_prop += 1
            since_check += 1
            old = xs[i]
            new = old + state.step_scale * noise[i]
            lw_new = float(log_weight(p, new))
            if math.isfinite(lw_new):
                d_new = np.abs(new - xs)
                d_old = np.abs(old - xs)
                d_new[i] = 1.0
                d_old[i] = 1.0
                delta = (2.0 * float(np.sum(np.log(d_new)) - np.sum(np.log(d_old)))
                         + lw_new - lw_cache[i])
                if gates[i] < delta:
                    xs[i] = new
                    lw_cache[i] = lw_new
                    state.log_density += delta
                    state.accept_count += 1
                    window_acc += 1
            if since_check >= sampler._RECHECK_EVERY:
                since_check = 0
                full = chain_log_density(p, xs)
                drift = abs(full - state.log_density) / max(1.0, abs(full))
                state.max_drift = max(state.max_drift, drift)
                state.log_density = full
        if sweep < burn_in and (sweep + 1) % sampler._TUNE_WINDOW == 0 and window_prop > 0:
            rate = window_acc / window_prop
            if rate < 0.2:
                state.step_scale *= 0.8
            elif rate > 0.6:
                state.step_scale *= 1.25
            window_acc = window_prop = 0
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            kept.append(xs.copy())
    state.positions = xs
    return kept, state


def test_same_seed_reproduces_exactly():
    p = gaussian(6)
    a, _ = mcmc_chain(p, steps=120, burn_in=40, thin=2, seed=99)
    b, _ = mcmc_chain(p, steps=120, burn_in=40, thin=2, seed=99)
    assert len(a) == len(b) == 40
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_parameter_validation():
    p = gaussian(4)
    with pytest.raises(ValidationError, match="burn_in"):
        mcmc_chain(p, steps=10, burn_in=10)
    with pytest.raises(ValidationError, match="thin"):
        mcmc_chain(p, steps=10, burn_in=2, thin=0)
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        mcmc_chain(p, steps=10, burn_in=2, seed=-1)
    with pytest.raises(ValidationError, match="burn_in must be non-negative, got -3"):
        mcmc_chain(p, steps=5, burn_in=-3)


def test_domain_restriction_holds():
    p = Potential(n=8, reg=(-1.0,), singularities=(), support=NEG)
    kept, st = mcmc_chain(p, steps=400, burn_in=100, seed=5)
    assert all(np.all(cfg < 0.0) for cfg in kept)
    assert np.all(st.positions < 0.0)


def test_charge_position_never_occupied():
    p = Potential(n=6, reg=(-1.0,),
                  singularities=(Singularity(b=0.0, alpha=0.5),), support=NEG)
    kept, _ = mcmc_chain(p, steps=300, burn_in=100, seed=3)
    assert all(np.all(cfg != 0.0) for cfg in kept)


def test_lone_component_point_sits_mid_window():
    # GUE at n = 1 searches the window [-8, 8]
    assert sampler._initial_positions(gaussian(1), 1).tolist() == [0.0]
    gapped = Potential(n=3, reg=(0.0, 1.0), singularities=(),
                       support=IntervalSet(((-5.0, -0.5), (0.5, 5.0))))
    xs = sampler._initial_positions(gapped, 3)
    assert xs.tolist() == [-5.0 + 0.045, -0.5 - 0.045, 2.75]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_start_on_a_charge_steps_off_it(n):
    # an odd count centred on a charge at 0 puts one point on it; only
    # that point moves, half a pad (window [-8, 8] at n = 1) or half a
    # spacing to its right
    p = Potential(n=n, reg=(0.0, 1.0), singularities=(Singularity(b=0.0, alpha=0.5),),
                  support=LINE)
    xs = sampler._initial_positions(p, n)
    plain = sampler._initial_positions(gaussian(n), n)
    moved = plain == 0.0
    assert moved.sum() == 1
    assert np.array_equal(xs[~moved], plain[~moved])
    assert 0.0 < xs[moved][0] <= 0.08
    assert np.all(np.isfinite(log_weight(p, xs)))
    kept, _ = mcmc_chain(p, steps=20, burn_in=5, seed=1)
    assert all(np.all(cfg != 0.0) for cfg in kept)
    # a second charge where the step lands: refused as before
    twice = dataclasses.replace(
        p, singularities=p.singularities + (Singularity(b=float(xs[moved][0]), alpha=0.5),))
    with pytest.raises(NumericalError, match="landed on a zero of the weight"):
        sampler._initial_positions(twice, n)


def test_incremental_log_density_consistent():
    p = gaussian(10)
    _, st = mcmc_chain(p, steps=250, burn_in=50, seed=11)
    full = chain_log_density(p, st.positions)
    assert abs(full - st.log_density) < 1e-9 * max(1.0, abs(full))


@pytest.mark.parametrize("model, n, recheck", [
    # the n = 9 cases keep the bare model name as their id
    pytest.param(model, n, recheck,
                 id=model.__name__ if n == 9 else f"{model.__name__}-n{n}")
    for model in (gaussian, mp_charge, pole_half_line, critical_quartic)
    for n, recheck in ((1, 40), (2, 60), (9, 300), (40, 1_020))
])
def test_batched_sweep_matches_site_by_site_exactly(model, n, recheck, monkeypatch):
    # 130 sweeps: two tuning windows and several audits; at n = 40 an
    # audit every 1020 proposals lands mid-sweep (1020 = 25 * 40 + 20)
    monkeypatch.setattr(sampler, "_RECHECK_EVERY", recheck)
    p = model(n)
    kept, st = mcmc_chain(p, steps=130, burn_in=110, thin=3, seed=21)
    ref_kept, ref = site_by_site_chain(p, steps=130, burn_in=110, thin=3, seed=21)
    assert len(kept) == len(ref_kept) == 7
    assert all(np.array_equal(x, y) for x, y in zip(kept, ref_kept))
    assert np.array_equal(st.positions, ref.positions)
    assert (st.accept_count, st.propose_count) == (ref.accept_count, ref.propose_count)
    assert st.step_scale == ref.step_scale
    assert st.log_density == ref.log_density
    assert st.max_drift == ref.max_drift


@pytest.mark.parametrize("model, accepted", [(gaussian, 22_519), (mp_charge, 23_789)])
def test_fixed_seed_acceptance_counts(model, accepted):
    _, st = mcmc_chain(model(40), steps=1000, burn_in=200, seed=3)
    assert (st.accept_count, st.propose_count) == (accepted, 40_000)
    assert 0.0 <= st.max_drift < 1e-9


def test_drift_audit_fires(monkeypatch):
    # every call is offset by 1e-6 times its call number, so cached and
    # fresh log-weights of the same point disagree and the audit must fire
    real = sampler.log_weight
    calls = []

    def drifting(p, x):
        calls.append(None)
        return real(p, x) + 1e-6 * len(calls)

    monkeypatch.setattr(sampler, "log_weight", drifting)
    monkeypatch.setattr(sampler, "_RECHECK_EVERY", 200)
    with pytest.raises(NumericalError, match="drifted"):
        mcmc_chain(gaussian(10), steps=60, burn_in=20, seed=4)


def test_acceptance_rate_lands_in_band():
    p = gaussian(12)
    _, st = mcmc_chain(p, steps=1200, burn_in=600, seed=42)
    assert 0.2 <= st.acceptance_rate() <= 0.65


def test_move_and_reverse_ratios_cancel():
    p = gaussian(5)
    kept, _ = mcmc_chain(p, steps=60, burn_in=20, seed=8)
    x = kept[0].copy()
    for i, dx in [(0, 0.3), (2, -0.15), (4, 0.05)]:
        y = x.copy()
        y[i] += dx
        forward = chain_log_density(p, y) - chain_log_density(p, x)
        reverse = chain_log_density(p, x) - chain_log_density(p, y)
        assert forward + reverse == pytest.approx(0.0, abs=1e-12)


def test_single_particle_gaussian_mean():
    # n = 1 target is exactly e^{-x^2/2}: mean 0 within 3 batch-mean SEs
    p = gaussian(1)
    kept, _ = mcmc_chain(p, steps=4200, burn_in=200, seed=17)
    vals = np.array([k[0] for k in kept])
    batches = vals.reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    assert abs(vals.mean()) < 3.0 * se


# ---------------------------------------------------------------------------
# histograms


def test_histogram_constant_samples_single_spike():
    emp = histogram_density([np.array([0.5, 0.5])] * 3, np.linspace(0, 1, 5))
    assert np.count_nonzero(emp.values) == 1
    assert emp.mass() == pytest.approx(1.0, abs=1e-12)


def test_histogram_normalization():
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=10) for _ in range(50)]
    emp = histogram_density(samples, np.linspace(-3, 3, 25))
    assert emp.mass() == pytest.approx(1.0, abs=1e-12)


def test_histogram_error_cases():
    with pytest.raises(ValidationError, match="at least one"):
        histogram_density([], np.linspace(0, 1, 5))
    with pytest.raises(ValidationError, match="inside"):
        histogram_density([np.array([5.0])], np.linspace(0, 1, 5))
    with pytest.raises(ValidationError, match="increasing"):
        histogram_density([np.array([0.5])], [0.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        histogram_density([np.array([0.5])], [0.0, 1.0, math.inf])


def test_histogram_keeps_its_edges():
    edges = np.array([0.0, 0.25, 1.0])
    emp = histogram_density([np.array([0.1, 0.2, 0.5, 0.9])], edges)
    assert np.array_equal(emp.edges, edges)
    assert np.array_equal(emp.widths(), [0.25, 0.75])
    assert np.array_equal(emp.values, [2 / (4 * 0.25), 2 / (4 * 0.75)])


def test_compare_density_zero_for_exact_bin_averages():
    p = gaussian(20)
    em = solve_support(p, "one_cut")
    edges = np.linspace(-2.2, 2.2, 23)
    cum = np.array([mass_right_of(em, float(e)) for e in edges])
    avg = (cum[:-1] - cum[1:]) / np.diff(edges)
    emp = EmpiricalDensity(edges=edges, values=avg)
    out = compare_density(emp, em)
    assert out["sup_dev"] < 1e-12
    assert out["l1_dev"] < 1e-12


def test_gaussian_chain_matches_semicircle_roughly():
    p = gaussian(24)
    kept, _ = mcmc_chain(p, steps=1500, burn_in=300, seed=123)
    em = solve_support(p, "one_cut")
    emp = histogram_density(kept, np.linspace(-2.2, 2.2, 23))
    out = compare_density(emp, em)
    assert out["l1_dev"] < 0.12
