import hashlib
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import levylil as ll
from levylil import simulate
from levylil.scenario import run_scenario
from levylil.simulate import _cms

from tests_support import path_generator

ROOT = Path(__file__).resolve().parent.parent


STABLE_15 = ll.SymmetricStableProcess(alpha=1.5)
GRID_256 = ll.PathGrid(t_max=1.0, steps=256)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

def test_uniform_grid_points():
    g = ll.PathGrid(t_max=2.0, steps=8)
    t = g.times()
    assert t[0] > 0.0
    assert t[-1] == 2.0
    assert np.allclose(np.diff(t), 0.25)


def test_geometric_grid_spans_dyadic_bands():
    g = ll.PathGrid(t_max=1.0, steps=16, layout="geometric", levels=4, points_per_level=4)
    t = g.times()
    assert t[0] == pytest.approx(2.0 ** -4)
    assert t[-1] == 1.0
    assert np.all(np.diff(t) > 0)
    assert t.size == 17   # levels * points_per_level + shared band edges
    for level in range(5):
        assert np.any(np.isclose(t, 2.0 ** -level))


def test_grid_validation():
    with pytest.raises(ValueError):
        ll.PathGrid(t_max=1.0, steps=12)          # not a power of two
    with pytest.raises(ValueError):
        ll.PathGrid(t_max=0.0, steps=8)
    with pytest.raises(ValueError):
        ll.PathGrid(t_max=1.0, steps=8, layout="geometric", levels=3, points_per_level=2)
    with pytest.raises(ValueError):
        ll.PathGrid(t_max=1.0, steps=8, layout="spiral")


# --------------------------------------------------------------------------
# stable sampler: the in-place CMS transform on one path's draws
# --------------------------------------------------------------------------

def _cms_reference(u, w, alpha):
    """The textbook Chambers-Mallows-Stuck formula, allocating every term."""
    theta = np.pi * (u - 0.5)
    w = np.maximum(w, 1e-300)
    t1 = np.sin(alpha * theta) / np.cos(theta) ** (1.0 / alpha)
    t2 = (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    return t1 * t2


def _stable_sample(alpha, gen, n):
    return _cms(gen.random(n), gen.standard_exponential(n), alpha, np.empty(n))


def test_stable_sampler_median_symmetric():
    s = _stable_sample(1.0, path_generator(42, 0), 100_000)
    assert abs(np.median(s)) < 0.02


def test_stable_sampler_cauchy_ks():
    # alpha = 1 is standard Cauchy: distribution function 1/2 + arctan(x)/pi
    s = _stable_sample(1.0, path_generator(42, 1), 100_000)
    ks = stats.kstest(s, lambda x: 0.5 + np.arctan(x) / np.pi)
    assert ks.statistic < 0.01


def test_stable_sampler_ecf():
    # E e^{i xi S} = e^{-|xi|^alpha}
    n = 100_000
    s = _stable_sample(1.5, path_generator(42, 2), n)
    ecf = np.mean(np.exp(1j * s))
    assert abs(ecf - math.exp(-1.0)) < 4.0 / math.sqrt(n)


def test_stable_sampler_alpha_validation():
    for alpha in (2.0, 0.0, -0.5, 2.5):
        with pytest.raises(ValueError, match="alpha"):
            ll.SymmetricStableProcess(alpha=alpha)


def test_stable_sampler_alpha_two_limit_is_gaussian_variance_two():
    # continuity check near the Gaussian edge: Var -> 2 as alpha -> 2
    s = _stable_sample(1.999, path_generator(9, 0), 200_000)
    assert np.var(np.clip(s, -50, 50)) == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 1.0, 1.5, 1.99])
def test_cms_in_place_matches_textbook_formula(alpha):
    # scalar alpha (the stable kernel) and an alpha per element (the
    # stable-like step); u and w are overwritten, the variates land in out
    gen = path_generator(5, 1)
    u, w = gen.random(1000), gen.standard_exponential(1000)
    w[:3] = 0.0    # the 1e-300 floor
    want = _cms_reference(u, w, alpha)
    out = np.empty(1000)
    assert _cms(u.copy(), w.copy(), alpha, out) is out
    assert np.array_equal(out, want)
    alphas = np.linspace(alpha, 1.0, 1000)
    assert np.array_equal(_cms(u.copy(), w.copy(), alphas, out), _cms_reference(u, w, alphas))


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------

def test_path_determinism_bit_identical():
    p1 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 7, 5)
    p2 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 7, 5)
    assert np.array_equal(p1.positions, p2.positions)
    assert np.array_equal(p1.running_sup, p2.running_sup)
    assert not np.array_equal(p1.positions[3], p1.positions[4])


def test_running_sup_invariant():
    for proc in (STABLE_15,
                 ll.StableLikeProcess(alpha=ll.TanhRampProfile(center=1.2, amplitude=0.3)),
                 ll.CompoundPoissonProcess(atoms=((1.0, 2.0), (-0.5, 1.0)))):
        p = ll.simulate_ensemble(proc, 0.3, GRID_256, 1, 1)
        want = np.maximum.accumulate(np.abs(p.positions - 0.3), axis=1)
        assert np.array_equal(p.running_sup, want)
        assert np.all(np.diff(p.running_sup) >= 0)


def test_subsample_dominated_by_fine_grid():
    # resolution_drift's coarse ensemble: the stride columns, with a running
    # sup that never exceeds the fine grid's at the same times
    ens = ll.simulate_ensemble(STABLE_15, 0.0, ll.PathGrid(t_max=1.0, steps=1024), 5, 20)
    seen = []

    def stat(e):
        seen.append(e)
        return float(np.median(e.running_sup[:, -1]))

    rep = ll.resolution_drift(ens, stat, stride=4)
    coarse = seen[1]
    assert np.array_equal(coarse.times, ens.times[3::4])
    assert np.array_equal(coarse.positions, ens.positions[:, 3::4])
    assert np.array_equal(coarse.running_sup,
                          np.maximum.accumulate(np.abs(coarse.positions), axis=1))
    assert np.all(coarse.running_sup <= ens.running_sup[:, 3::4])
    assert not coarse.recorded
    assert rep["coarse"] <= rep["full"]


def test_exit_times_monotone_in_radius():
    p = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 2, 3)
    radii = np.geomspace(1e-3, 2.0, 12)
    prev = 0.0
    for a in radii:
        tau = p.first_passage_times(a)[2]
        if np.isnan(tau):
            continue
        assert tau >= prev
        prev = tau


def test_exit_time_trivial_cases():
    p = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 2, 4)
    big = p.running_sup[3, -1] * 2.0
    assert np.isnan(p.first_passage_times(big)[3])
    tiny = 1e-300
    assert p.first_passage_times(tiny)[3] == p.times[0]
    # refined grid exits no later than every 8th column of the same path
    a = float(np.median(p.running_sup[3]))
    tau_fine = p.first_passage_times(a)[3]
    coarse_hit = np.maximum.accumulate(np.abs(p.positions[3, 7::8])) >= a
    if coarse_hit.any():
        assert tau_fine <= p.times[7::8][np.argmax(coarse_hit)]


def _first_passage_by_definition(ens, a):
    out = np.full(ens.n_paths, np.nan)
    for i in range(ens.n_paths):
        for t, r in zip(ens.times, ens.running_sup[i]):
            if r >= a:
                out[i] = t
                break
    return out


@pytest.mark.parametrize("record", [None, [0.125, 0.25, 0.5, 1.0]], ids=["full", "recorded"])
def test_first_passage_times_match_definition(record):
    ens = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 8, 40, record_times=record)
    first = ens.running_sup[:, 0]
    radii = (first.min(), first[3], float(np.median(ens.running_sup)),
             2.0 * ens.running_sup.max())
    for a in radii:
        np.testing.assert_array_equal(ens.first_passage_times(a),
                                      _first_passage_by_definition(ens, a))
    assert np.all(ens.first_passage_times(first.min()) == ens.times[0])
    assert ens.first_passage_times(first[3])[3] == ens.times[0]
    assert np.all(np.isnan(ens.first_passage_times(radii[-1])))
    for a in (0.0, -1.0):
        with pytest.raises(ValueError):
            ens.first_passage_times(a)


def test_recorded_first_passage_is_full_grid_exit():
    # a recorded ensemble answers with the first recorded time at or after
    # the full-grid exit, not the exit of its recorded positions
    rec = [0.125, 0.25, 0.5, 1.0]
    full = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 8, 40)
    part = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 8, 40, record_times=rec)
    a = float(np.median(full.running_sup[:, 20]))
    tau = full.first_passage_times(a)
    want = [next((t for t in rec if t >= s), np.nan) for s in tau]
    np.testing.assert_array_equal(part.first_passage_times(a), want)


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

def test_ensemble_chunk_size_irrelevant():
    e1 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 13, 20, chunk_size=4)
    e2 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 13, 20, chunk_size=17)
    assert np.array_equal(e1.positions, e2.positions)


GRID_GEOMETRIC = ll.PathGrid(t_max=1.0, steps=64, layout="geometric", levels=8,
                             points_per_level=8)
KINDS = {
    "stable": STABLE_15,
    "stable_like": ll.StableLikeProcess(alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3),
                                        scale=ll.TanhRampProfile(center=1.0, amplitude=0.5)),
    "compound_poisson": ll.CompoundPoissonProcess(atoms=((1.0, 20.0), (-0.5, 10.0)),
                                                  path_drift=0.3),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_ensemble_rows_match_individual_paths(kind):
    # path i simulated alone, as the last row of an (i + 1)-path ensemble in
    # one-path blocks, is row i of a larger ensemble in blocks of three
    ens = ll.simulate_ensemble(KINDS[kind], 0.5, GRID_256, 7, 10, chunk_size=3)
    for i in (0, 4, 9):
        p = ll.simulate_ensemble(KINDS[kind], 0.5, GRID_256, 7, i + 1, chunk_size=1)
        assert np.array_equal(ens.positions[i], p.positions[i])
        assert np.array_equal(ens.running_sup[i], p.running_sup[i])


@pytest.mark.parametrize("record", [None, [0.125, 0.5, 1.0]], ids=["full", "recorded"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_ensemble_bits_independent_of_blocks_and_workers(kind, record, monkeypatch):
    grid = ll.PathGrid(t_max=1.0, steps=64)
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "_WORKERS", workers)
        for chunk in (1, 7, None):
            runs[workers, chunk] = ll.simulate_ensemble(KINDS[kind], 0.2, grid, 41, 23,
                                                        record_times=record, chunk_size=chunk)
    ref = runs[1, None]
    for key, ens in runs.items():
        assert np.array_equal(ens.positions, ref.positions), key
        assert np.array_equal(ens.running_sup, ref.running_sup), key


def test_stable_threads_stress_and_empty_ensemble(monkeypatch):
    # more threads than cores, one path per block, switching as often as the
    # interpreter allows: a row written by the wrong thread or twice shows
    monkeypatch.setattr(simulate, "_WORKERS", 1)
    ref = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 50)
    monkeypatch.setattr(simulate, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ens = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 50, chunk_size=1)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(ens.positions, ref.positions)
    assert np.array_equal(ens.running_sup, ref.running_sup)
    assert ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 0).positions.shape == (0, 256)
    with pytest.raises(ValueError):
        ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 4, chunk_size=0)


@pytest.mark.parametrize("grid", [GRID_256, GRID_GEOMETRIC], ids=["uniform", "geometric"])
@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 1.0, 1.5, 1.99])
def test_stable_kernel_matches_cms_reference(alpha, grid, monkeypatch):
    # the blocked in-place kernel against the textbook CMS formula applied path
    # by path; alpha in
    # {0.5, 2/3, 1} hits numpy's sqrt, square and identity fast paths of **
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    proc = ll.SymmetricStableProcess(alpha=alpha, scale=1.3)
    ens = ll.simulate_ensemble(proc, 0.4, grid, 8, 9, chunk_size=4)
    times = grid.times()
    step = (proc.scale * np.diff(times, prepend=0.0)) ** (1.0 / alpha)
    for i in range(ens.n_paths):
        gen = path_generator(8, i)
        u, w = gen.random(times.size), gen.standard_exponential(times.size)
        pos = 0.4 + np.cumsum(step * _cms_reference(u, w, alpha))
        assert np.array_equal(ens.positions[i], pos)
        assert np.array_equal(ens.running_sup[i], np.maximum.accumulate(np.abs(pos - 0.4)))


@pytest.mark.parametrize("scale", [ll.SinusoidalProfile(center=1.0, amplitude=0.5, frequency=3.0),
                                   ll.ConstantProfile(0.7)], ids=["sinusoidal", "constant"])
@pytest.mark.parametrize("grid", [
    ll.PathGrid(t_max=1.0, steps=64), GRID_GEOMETRIC, ll.PathGrid(t_max=0.5, steps=1),
    ll.PathGrid(t_max=0.5, steps=2),
    ll.PathGrid(t_max=1.0, steps=512, layout="geometric", levels=8, points_per_level=64),
], ids=["uniform_64", "geometric_65", "one_step", "two_steps", "geometric_513"])
def test_stable_like_kernel_matches_euler_reference(grid, scale):
    # the blocked kernel against the Euler recursion stepped one path at a
    # time on 1-element arrays, from the path's own stream: n uniforms, then
    # n exponentials
    proc = ll.StableLikeProcess(alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3),
                                scale=scale)
    times = grid.times()
    dts = np.diff(times, prepend=0.0)
    pos, rs = np.empty((9, times.size)), np.empty((9, times.size))
    for i in range(9):
        gen = path_generator(8, i)
        u, w = gen.random(times.size), gen.standard_exponential(times.size)
        x, dev = np.array([0.4]), np.zeros(1)
        for k in range(times.size):
            a = np.asarray(proc.alpha(x), dtype=float)
            c = np.asarray(proc.scale(x), dtype=float)
            x = x + (c * dts[k]) ** (1.0 / a) * _cms_reference(u[k:k + 1], w[k:k + 1], a)
            dev = np.maximum(dev, np.abs(x - 0.4))
            pos[i, k], rs[i, k] = x[0], dev[0]
    for chunk in (1, 7, None):
        ens = ll.simulate_ensemble(proc, 0.4, grid, 8, 9, chunk_size=chunk)
        assert np.array_equal(ens.positions, pos), chunk
        assert np.array_equal(ens.running_sup, rs), chunk


def _compound_poisson_reference(proc, x0, times, seed, i):
    """Path i by its definition: the jumps at times at most t, summed at t."""
    gen = path_generator(seed, i)
    k = gen.poisson(proc.rate * times[-1])
    at = times[-1] * (1.0 - gen.random(k))
    masses = np.array([m for _, m in proc.atoms])
    atom = np.searchsorted(np.cumsum(masses) / masses.sum(), gen.random(k), side="right")
    sizes = np.array([loc for loc, _ in proc.atoms])[atom]
    return np.array([x0 + proc.path_drift * t + sizes[at <= t].sum() for t in times])


def test_compound_poisson_jumps_land_on_first_grid_time_at_or_after():
    # integer jumps: every summation order gives the same bits
    proc = ll.CompoundPoissonProcess(atoms=((1.0, 192.0), (2.0, 64.0)))
    times = GRID_GEOMETRIC.times()
    ens = ll.simulate_ensemble(proc, 0.0, GRID_GEOMETRIC, 12, 40, chunk_size=3)
    for i in range(ens.n_paths):
        assert np.array_equal(ens.positions[i],
                              _compound_poisson_reference(proc, 0.0, times, 12, i))
    # jumps in (0, times[0]] = (0, 2^-8] count at index 0: one expected per path
    assert np.count_nonzero(ens.positions[:, 0]) >= 10


def test_compound_poisson_no_jump_probability():
    # one-sided jumps: X_t = 0 exactly when no jump came by t, P = e^{-rate t}
    proc = ll.CompoundPoissonProcess(atoms=((0.5, 1.0), (1.5, 2.0)))
    rec = [0.125, 0.5, 1.0]
    ens = ll.simulate_ensemble(proc, 0.0, GRID_256, 19, 4000, record_times=rec)
    for j, t in enumerate(rec):
        p = math.exp(-proc.rate * t)
        p_hat = np.mean(ens.positions[:, j] == 0.0)
        assert abs(p_hat - p) <= 5.0 * math.sqrt(p * (1.0 - p) / ens.n_paths), t


def test_compound_poisson_path_drift_applied():
    atoms = ((1.0, 2.0), (-1.0, 1.0))
    flat, drifting = (ll.simulate_ensemble(ll.CompoundPoissonProcess(atoms=atoms, path_drift=d),
                                           0.5, GRID_256, 3, 10) for d in (0.0, -0.7))
    assert np.allclose(drifting.positions - flat.positions, -0.7 * flat.times,
                       rtol=0.0, atol=1e-12)
    assert np.array_equal(drifting.running_sup,
                          np.maximum.accumulate(np.abs(drifting.positions - 0.5), axis=1))


@pytest.mark.parametrize("kind", ["stable", "stable_like"])
def test_recorded_stable_ensemble_memory_stays_in_blocks(kind, monkeypatch):
    # 2048 x 4096 paths at four recorded times: block buffers only (three per
    # thread for the stable kernel, three tiles of draws for the stable-like
    # one), not the 64 MiB (paths x steps) arrays an unblocked kernel would
    # allocate, nor the 128 MiB of draws of a whole stable-like block
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    grid = ll.PathGrid(t_max=1.0, steps=4096)
    tracemalloc.start()
    try:
        ens = ll.simulate_ensemble(KINDS[kind], 0.0, grid, 2, 2048,
                                   record_times=[0.125, 0.25, 0.5, 1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.positions.shape == (2048, 4)
    assert peak < 32 * 2 ** 20


def test_record_times_subset():
    rec = [0.25, 0.5, 1.0]
    full = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 9, 8)
    part = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 9, 8, record_times=rec)
    assert part.recorded
    idx = [full.time_index(t) for t in rec]
    assert np.array_equal(part.positions, full.positions[:, idx])
    assert np.array_equal(part.running_sup, full.running_sup[:, idx])
    with pytest.raises(ValueError):
        ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 9, 2, record_times=[0.123456789])


def test_stable_like_constant_alpha_matches_stable_in_distribution():
    sl = ll.StableLikeProcess(alpha=ll.ConstantProfile(1.5))
    e1 = ll.simulate_ensemble(sl, 0.0, GRID_256, 21, 10_000)
    e2 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 22, 10_000)
    ks = stats.ks_2samp(e1.positions[:, -1], e2.positions[:, -1])
    assert ks.statistic < 0.02


def test_running_sup_self_similar_scaling():
    # median sup at t over median sup at t/16 = 16^{1/alpha} within 10%
    grid = ll.PathGrid(t_max=1.0, steps=4096)
    ens = ll.simulate_ensemble(STABLE_15, 0.0, grid, 33, 20_000,
                               record_times=[1.0 / 16.0, 1.0])
    ratio = (np.median(ens.running_sup[:, 1]) / np.median(ens.running_sup[:, 0]))
    assert ratio == pytest.approx(16.0 ** (1 / 1.5), rel=0.10)


def test_symmetric_ensemble_mean_within_3se():
    ens = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 17, 5_000)
    # alpha > 1: the mean exists; clip only the standard error estimate
    for k in (0, 63, 255):
        x = ens.positions[:, k]
        se = np.std(x) / math.sqrt(x.size)
        assert abs(np.mean(x)) <= 3.0 * se


def test_compound_poisson_ecf_matches_exponent():
    proc = ll.CompoundPoissonProcess(atoms=((1.0, 1.0), (-1.0, 1.0)))
    ens = ll.simulate_ensemble(proc, 0.0, GRID_256, 11, 20_000)
    trip = ll.LevyTriplet(measure=proc.levy_measure)
    for xi in (0.7, 2.0):
        lam = ll.empirical_charfn(ens, xi, 1.0)
        want = math.exp(-ll.eval_exponent(trip, 0.0, xi).real)
        assert abs(lam - want) < 4.0 / math.sqrt(ens.n_paths)


def test_compound_poisson_from_triplet_drift():
    trip = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((0.5, 2.0),)), drift=0.3)
    proc = ll.CompoundPoissonProcess.from_triplet(trip)
    # path drift compensates l + int_{|y|<=1} y nu(dy) = 0.3 + 1.0
    assert proc.path_drift == pytest.approx(-1.3)


def test_process_from_triplet_stable():
    m = ll.PowerLawMeasure(alpha=1.5)   # normalized: p^U = |xi|^1.5
    proc = ll.process_from_triplet(ll.LevyTriplet(measure=m))
    assert isinstance(proc, ll.SymmetricStableProcess)
    assert proc.scale == pytest.approx(0.1875 * 2.0 * ll.stable_levy_constant(1.5))
    # round trip: the process measure reproduces the original coefficient
    assert proc.levy_measure.coeff_at(0.0) == pytest.approx(0.1875)
    with pytest.raises(ValueError):
        ll.process_from_triplet(ll.LevyTriplet(measure=M_SIN_STATE))


M_SIN_STATE = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))


def test_process_dict_roundtrip():
    for proc in (STABLE_15,
                 ll.CompoundPoissonProcess(atoms=((1.0, 1.0),), path_drift=-0.5),
                 ll.StableLikeProcess(alpha=ll.TanhRampProfile(center=1.2, amplitude=0.2))):
        q = ll.process_from_dict(proc.to_dict())
        assert q.to_dict() == proc.to_dict()


def test_integer_stable_alpha_hashes_like_float():
    grid = ll.PathGrid(t_max=0.5, steps=16)
    ens = [ll.simulate_ensemble(ll.process_from_dict({"kind": "stable", "alpha": a, "scale": s}),
                                0.0, grid, 5, 3)
           for a, s in ((1, 2), (1.0, 2.0))]
    assert ens[0].metadata()["spec_hash"] == ens[1].metadata()["spec_hash"]
    assert np.array_equal(ens[0].positions, ens[1].positions)


# --------------------------------------------------------------------------
# path streams: Philox keys from a vectorized SeedSequence hash, one re-keyed
# generator per kernel call, and bits pinned to the per-path generators
# --------------------------------------------------------------------------

def _seed_sequence_keys(seed, indices):
    return np.array([np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
                     for i in indices], dtype=np.uint64).reshape(-1, 2)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 1, 2 ** 128 - 1, 2 ** 128],
                         ids=["0", "7", "2^64+1", "2^128-1", "2^128_fallback"])
def test_philox_keys_match_seed_sequence(seed):
    # a numpy change to SeedSequence's hash must fail here, not move every stream
    rng = np.random.default_rng(seed % 2 ** 32)
    for i in [0, 2 ** 32 - 1] + rng.integers(0, 2 ** 32, 100).tolist():
        assert np.array_equal(simulate._philox_keys(seed, i, 1),
                              _seed_sequence_keys(seed, [i])), i
    for first, n in ((0, 300), (2 ** 32 - 5, 10)):   # the second block crosses 2^32
        assert np.array_equal(simulate._philox_keys(seed, first, n),
                              _seed_sequence_keys(seed, range(first, first + n))), first
    # and the key is the one Philox takes from the path's SeedSequence
    key = path_generator(seed, 9).bit_generator.state["state"]["key"]
    assert np.array_equal(simulate._philox_keys(seed, 9, 1)[0], key)


def test_rekey_discards_buffered_words():
    # after an odd number of 64-bit words and a buffered 32-bit half, a re-keyed
    # generator must draw exactly what a fresh one on the new key draws
    gen = path_generator(3, 0)
    gen.random(5)
    gen.integers(0, 10, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    simulate._rekey(gen, simulate._philox_keys(3, 1, 1).tolist()[0])
    ref = path_generator(3, 1)
    assert np.array_equal(gen.random(7), ref.random(7))
    assert np.array_equal(gen.integers(0, 10, 3, dtype=np.uint32),
                          ref.integers(0, 10, 3, dtype=np.uint32))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_negative_seed_or_path_index_raises(kind):
    grid = ll.PathGrid(t_max=1.0, steps=16)
    with pytest.raises(ValueError):
        ll.simulate_ensemble(KINDS[kind], 0.0, grid, -1, 3)
    for seed, first in ((-1, 0), (5, -1)):
        with pytest.raises(ValueError):
            simulate._philox_keys(seed, first, 3)


CP_LOW_RATE = ll.CompoundPoissonProcess(atoms=((0.7, 1.5), (-0.2, 0.5)))
SL_SINUSOIDAL = ll.StableLikeProcess(
    alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3),
    scale=ll.SinusoidalProfile(center=1.0, amplitude=0.5, frequency=3.0))
GRID_GEOMETRIC_513 = ll.PathGrid(t_max=1.0, steps=512, layout="geometric", levels=8,
                                 points_per_level=64)
# _ensemble_sha256 of ensembles made with one SeedSequence-built generator per path
PINNED_STREAMS = {
    "stable_geometric": ((STABLE_15, 0.2, GRID_GEOMETRIC, 41, 23, None),
                         "ce8cd34f3ae805d355d577ac86d4df100ebbfce835d9e874460d29b671f4bc48"),
    "stable_one_step": ((ll.SymmetricStableProcess(alpha=0.8, scale=2.0), 0.0,
                         ll.PathGrid(t_max=0.5, steps=1), 7, 9, None),
                        "d0d4c1e2ee9b4aa2aaa496abd5187b9ad5c51634cf6aa0e1854216b19630be54"),
    "stable_recorded": ((STABLE_15, 0.0, ll.PathGrid(t_max=1.0, steps=64), 2 ** 64 + 1, 12,
                         [0.125, 0.5, 1.0]),
                        "585a34a411f4aecd08f4c9ce840e1d959052ff28123a58765a33c79014133d21"),
    "stable_seed_2^128": ((STABLE_15, 0.0, ll.PathGrid(t_max=1.0, steps=64), 2 ** 128, 5, None),
                          "083ad4827cce5b9e41ef22802d84f53f3a93e4b62e6d0ab918259f87a77f155b"),
    "compound_poisson": ((KINDS["compound_poisson"], 0.2, ll.PathGrid(t_max=1.0, steps=64),
                          41, 23, None),
                         "62cbe625a9404203b222d18ed2bbb276493049530ad46ab5c4618bf8fb6904b0"),
    "compound_poisson_low_rate": (
        (CP_LOW_RATE, 0.0, GRID_GEOMETRIC, 3, 40, None),
        "88ff3449940ea198c72c4a5e6d871d0b6a04145d276415e44773e7b9dfead4dd"),
    # exponentials from word n = 64, 513 and 1: n % 4 is 0, 1 and 1
    "stable_like_uniform_64": (
        (SL_SINUSOIDAL, 0.2, ll.PathGrid(t_max=1.0, steps=64), 41, 23, None),
        "24ad61d6ae5a97244a3dd020ff8239cd61b274f65a9548359812b0a39a1593b2"),
    "stable_like_geometric_513": (
        (SL_SINUSOIDAL, 0.2, GRID_GEOMETRIC_513, 41, 9, None),
        "05c25d5da107060b411bbe87c48e9d2be971073b74604e36d5598c89039ee272"),
    "stable_like_one_step": (
        (SL_SINUSOIDAL, 0.2, ll.PathGrid(t_max=0.5, steps=1), 7, 9, None),
        "f304e1ed09edf87b03af5c44b74483430d64019f6dee320d1f63d082e934f336"),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_stream_bits_pinned(name, monkeypatch):
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    (proc, x0, grid, seed, n, record), digest = PINNED_STREAMS[name]
    ens = ll.simulate_ensemble(proc, x0, grid, seed, n, record_times=record, chunk_size=4)
    assert simulate._ensemble_sha256(ens) == digest


def test_low_rate_compound_poisson_paths_leave_odd_words():
    # Poisson(2) by multiplication draws k + 1 words, then 2k more: a path with
    # even k leaves part of a Philox block, which the next path must not read
    lam = CP_LOW_RATE.rate * GRID_GEOMETRIC.t_max
    odd = []
    for i in range(39):
        gen = path_generator(3, i)
        k = gen.poisson(lam)
        gen.random(2 * k)
        odd.append(gen.bit_generator.state["buffer_pos"] % 2 == 1)
    assert 0 < sum(odd) < len(odd)


def test_example_manifest_hash_pinned(tmp_path):
    run_scenario(ROOT / "docs" / "example_scenario.json", stages=("simulate",),
                 out=str(tmp_path))
    (manifest,) = tmp_path.glob("*_simulate_paths.jsonl")
    assert (json.loads(manifest.read_text())["sha256"]
            == "1c91995d4c2c92d63f667b122e38d9737a6bc72ceb9ce6a56c5b3c84501e03c9")


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    sinusoidal = ll.StableLikeProcess(alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3),
                                      scale=ll.ConstantProfile(2.0))
    cases = [
        ll.simulate_ensemble(STABLE_15, 0.25, ll.PathGrid(t_max=0.5, steps=16), 99, 5),
        ll.simulate_ensemble(sinusoidal, 0.1, ll.PathGrid(t_max=0.5, steps=32), 7, 6,
                             record_times=[0.0625, 0.25, 0.5]),
        ll.simulate_ensemble(ll.CompoundPoissonProcess(atoms=((1.0, 2.0), (-0.5, 1.0)),
                                                       path_drift=0.1),
                             -1.0, ll.PathGrid(t_max=2.0, steps=64), 3, 4),
    ]
    assert [e.recorded for e in cases] == [False, True, False]
    for i, ens in enumerate(cases):
        path = tmp_path / f"{i}_paths.jsonl"
        ll.save_ensemble_jsonl(ens, path, {"scenario_hash": "abc"})
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        meta = json.loads(lines[0])
        assert meta["seed"] == ens.master_seed and meta["scenario_hash"] == "abc"
        assert meta["n_paths"] == ens.n_paths
        back = ll.load_ensemble_jsonl(path)
        for field in ("positions", "running_sup", "times"):
            assert np.array_equal(getattr(back, field), getattr(ens, field)), (i, field)
        assert back.recorded == ens.recorded
        assert back.metadata() == ens.metadata()


def test_manifest_hash_is_sha256_of_c_order_bytes():
    # hashed without a .tobytes() copy; the digest must not depend on layout
    base = np.arange(128, dtype=float).reshape(8, 16) / 7.0
    layouts = {"c_order": base, "fortran_order": np.asfortranarray(base),
               "strided_view": np.arange(256, dtype=float).reshape(8, 32)[:, ::2]}
    ens = ll.simulate_ensemble(STABLE_15, 0.0, ll.PathGrid(t_max=1.0, steps=16), 1, 8)
    for name, arr in layouts.items():
        assert arr.flags.c_contiguous == (name == "c_order")
        got = simulate._ensemble_sha256(replace(ens, positions=arr, running_sup=arr))
        assert got == hashlib.sha256(arr.tobytes() + arr.tobytes()).hexdigest(), name


def _edit_manifest(path, **changes):
    meta = json.loads(path.read_text())
    meta.update(changes)
    path.write_text(json.dumps(meta) + "\n")


def _write_per_path_rows(ens, path):
    # the earlier format: a header without a hash, then one JSON row per path
    meta = dict(ens.metadata(), times=ens.times.tolist(), recorded=ens.recorded)
    rows = [json.dumps({"path_index": i, "positions": ens.positions[i].tolist(),
                        "running_sup": ens.running_sup[i].tolist()})
            for i in range(ens.n_paths)]
    path.write_text("\n".join([json.dumps(meta)] + rows) + "\n")


@pytest.mark.parametrize("corrupt", [
    lambda ens, p: (ll.save_ensemble_jsonl(ens, p), _edit_manifest(p, seed=5)),
    lambda ens, p: (ll.save_ensemble_jsonl(ens, p), _edit_manifest(p, sha256="0" * 64)),
    _write_per_path_rows,
    lambda ens, p: (ll.save_ensemble_jsonl(ens, p), _edit_manifest(p, recorded=True,
                                                                   times=[0.13])),
    lambda ens, p: p.write_text(""),
    lambda ens, p: p.write_text("[1, 2]\n"),
    # a seed of 4.9 must not regenerate (and so match) the seed-4 ensemble
    lambda ens, p: (ll.save_ensemble_jsonl(ens, p), _edit_manifest(p, seed=4.9)),
], ids=["seed_edited", "hash_edited", "old_format", "off_grid_time",
        "empty_file", "not_an_object", "fractional_seed"])
def test_jsonl_load_rejects_mismatch(tmp_path, corrupt):
    ens = ll.simulate_ensemble(STABLE_15, 0.0, ll.PathGrid(t_max=0.5, steps=16), 4, 3)
    path = tmp_path / "paths.jsonl"
    corrupt(ens, path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        ll.load_ensemble_jsonl(path)


def test_seed_must_be_an_integer():
    grid = ll.PathGrid(t_max=1.0, steps=16)
    for seed in (1.5, 1.0):
        with pytest.raises(TypeError):
            ll.simulate_ensemble(STABLE_15, 0.0, grid, seed, 3)
    ens = ll.simulate_ensemble(STABLE_15, 0.0, grid, np.int64(7), 3)
    ref = ll.simulate_ensemble(STABLE_15, 0.0, grid, 7, 3)
    assert type(ens.master_seed) is int and ens.metadata() == ref.metadata()
    assert np.array_equal(ens.positions, ref.positions)


def test_stable_like_matches_local_index_away_from_ramp():
    # far from the tanh ramp the index is nearly constant, so over a short
    # horizon the process is statistically indistinguishable from the stable
    # process with the local index (frozen-coefficient diagnostic)
    prof = ll.TanhRampProfile(center=1.0, amplitude=0.25)
    proc = ll.StableLikeProcess(alpha=prof)
    grid = ll.PathGrid(t_max=0.01, steps=256)
    for x0, seed_pair in ((-4.0, (7, 8)), (4.0, (7, 8))):
        a_loc = float(prof(x0))
        e = ll.simulate_ensemble(proc, x0, grid, seed_pair[0], 8000)
        ref = ll.simulate_ensemble(ll.SymmetricStableProcess(alpha=a_loc), x0, grid,
                                   seed_pair[1], 8000)
        ks = stats.ks_2samp(e.positions[:, -1], ref.positions[:, -1])
        assert ks.statistic < 0.03
        # displacements stay local relative to the ramp scale
        assert np.median(np.abs(e.positions[:, -1] - x0)) < 0.1
