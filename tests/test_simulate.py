import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import levylil as ll
from levylil import simulate
from levylil.simulate import _cms, _path_generator


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
# stable sampler
# --------------------------------------------------------------------------

def test_stable_sampler_median_symmetric():
    rng = _path_generator(42, 0)
    s = ll.sample_symmetric_stable(1.0, rng, 100_000)
    assert abs(np.median(s)) < 0.02


def test_stable_sampler_cauchy_ks():
    # alpha = 1 is standard Cauchy: distribution function 1/2 + arctan(x)/pi
    rng = _path_generator(42, 1)
    s = ll.sample_symmetric_stable(1.0, rng, 100_000)
    ks = stats.kstest(s, lambda x: 0.5 + np.arctan(x) / np.pi)
    assert ks.statistic < 0.01


def test_stable_sampler_ecf():
    # E e^{i xi S} = e^{-|xi|^alpha}
    rng = _path_generator(42, 2)
    n = 100_000
    s = ll.sample_symmetric_stable(1.5, rng, n)
    ecf = np.mean(np.exp(1j * s))
    assert abs(ecf - math.exp(-1.0)) < 4.0 / math.sqrt(n)


def test_stable_sampler_alpha_validation():
    rng = _path_generator(0, 0)
    with pytest.raises(ValueError):
        ll.sample_symmetric_stable(2.0, rng)
    with pytest.raises(ValueError):
        ll.sample_symmetric_stable(0.0, rng)


def test_stable_sampler_alpha_two_limit_is_gaussian_variance_two():
    # continuity check near the Gaussian edge: Var -> 2 as alpha -> 2
    rng = _path_generator(9, 0)
    s = ll.sample_symmetric_stable(1.999, rng, 200_000)
    assert np.var(np.clip(s, -50, 50)) == pytest.approx(2.0, rel=0.05)


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------

def test_path_determinism_bit_identical():
    p1 = ll.simulate_path(STABLE_15, 0.0, GRID_256, (7, 3))
    p2 = ll.simulate_path(STABLE_15, 0.0, GRID_256, (7, 3))
    assert np.array_equal(p1.positions, p2.positions)
    assert np.array_equal(p1.running_sup, p2.running_sup)
    p3 = ll.simulate_path(STABLE_15, 0.0, GRID_256, (7, 4))
    assert not np.array_equal(p1.positions, p3.positions)


def test_running_sup_invariant():
    for proc in (STABLE_15,
                 ll.StableLikeProcess(alpha=ll.TanhRampProfile(center=1.2, amplitude=0.3)),
                 ll.CompoundPoissonProcess(atoms=((1.0, 2.0), (-0.5, 1.0)))):
        p = ll.simulate_path(proc, 0.3, GRID_256, (1, 0))
        want = np.maximum.accumulate(np.abs(p.positions - 0.3))
        assert np.array_equal(p.running_sup, want)
        assert np.all(np.diff(p.running_sup) >= 0)


def test_subsample_dominated_by_fine_grid():
    p = ll.simulate_path(STABLE_15, 0.0, ll.PathGrid(t_max=1.0, steps=1024), (5, 5))
    coarse = p.subsample(4)
    fine_at_coarse = p.running_sup[3::4]
    assert np.all(coarse.running_sup <= fine_at_coarse + 1e-15)
    assert np.array_equal(coarse.positions, p.positions[3::4])


def test_exit_times_monotone_in_radius():
    p = ll.simulate_path(STABLE_15, 0.0, GRID_256, (2, 2))
    radii = np.geomspace(1e-3, 2.0, 12)
    taus = ll.path_statistics(p, radii)
    prev = 0.0
    for a in radii:
        tau = taus[float(a)]
        if tau is None:
            continue
        assert tau >= prev
        prev = tau


def test_exit_time_trivial_cases():
    p = ll.simulate_path(STABLE_15, 0.0, GRID_256, (2, 3))
    big = p.running_sup[-1] * 2.0
    assert ll.path_statistics(p, [big])[big] is None
    tiny = 1e-300
    assert ll.path_statistics(p, [tiny])[tiny] == p.times[0]
    # refined grid exits no later than the coarse view of the same path
    coarse = p.subsample(8)
    a = float(np.median(p.running_sup))
    tau_fine = ll.path_statistics(p, [a])[a]
    tau_coarse = ll.path_statistics(coarse, [a])[a]
    if tau_coarse is not None:
        assert tau_fine is not None and tau_fine <= tau_coarse


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

def test_ensemble_rows_match_individual_paths():
    ens = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 7, 10, chunk_size=3)
    for i in (0, 4, 9):
        p = ll.simulate_path(STABLE_15, 0.0, GRID_256, (7, i))
        assert np.array_equal(ens.positions[i], p.positions)
        assert np.array_equal(ens.running_sup[i], p.running_sup)


def test_ensemble_chunk_size_irrelevant():
    e1 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 13, 20, chunk_size=4)
    e2 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 13, 20, chunk_size=17)
    assert np.array_equal(e1.positions, e2.positions)


def test_ensemble_stable_like_matches_paths():
    proc = ll.StableLikeProcess(alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3))
    ens = ll.simulate_ensemble(proc, 0.5, GRID_256, 3, 6, chunk_size=2)
    for i in (0, 5):
        p = ll.simulate_path(proc, 0.5, GRID_256, (3, i))
        assert np.array_equal(ens.positions[i], p.positions)


def test_ensemble_compound_poisson_matches_paths():
    proc = ll.CompoundPoissonProcess(atoms=((1.0, 2.0), (-1.0, 2.0)), path_drift=0.1)
    ens = ll.simulate_ensemble(proc, 0.0, GRID_256, 5, 6, chunk_size=4)
    for i in (1, 3, 5):
        p = ll.simulate_path(proc, 0.0, GRID_256, (5, i))
        assert np.array_equal(ens.positions[i], p.positions)
        assert np.array_equal(ens.running_sup[i], p.running_sup)


GRID_GEOMETRIC = ll.PathGrid(t_max=1.0, steps=64, layout="geometric", levels=8,
                             points_per_level=8)
KINDS = {
    "stable": STABLE_15,
    "stable_like": ll.StableLikeProcess(alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3),
                                        scale=ll.TanhRampProfile(center=1.0, amplitude=0.5)),
    "compound_poisson": ll.CompoundPoissonProcess(atoms=((1.0, 20.0), (-0.5, 10.0)),
                                                  path_drift=0.3),
}


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
    # the blocked in-place kernel against _cms applied path by path; alpha in
    # {0.5, 2/3, 1} hits numpy's sqrt, square and identity fast paths of **
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    proc = ll.SymmetricStableProcess(alpha=alpha, scale=1.3)
    ens = ll.simulate_ensemble(proc, 0.4, grid, 8, 9, chunk_size=4)
    times = grid.times()
    step = (proc.scale * np.diff(times, prepend=0.0)) ** (1.0 / alpha)
    for i in range(ens.n_paths):
        gen = _path_generator(8, i)
        u, w = gen.random(times.size), gen.standard_exponential(times.size)
        pos = 0.4 + np.cumsum(step * _cms(u, w, alpha))
        assert np.array_equal(ens.positions[i], pos)
        assert np.array_equal(ens.running_sup[i], np.maximum.accumulate(np.abs(pos - 0.4)))


def _compound_poisson_reference(proc, x0, times, seed, i):
    """Path i by its definition: the jumps at times at most t, summed at t."""
    gen = _path_generator(seed, i)
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


def test_recorded_stable_ensemble_memory_stays_in_blocks(monkeypatch):
    # 2048 x 4096 paths at four recorded times: block buffers only (four per
    # thread), not the 64 MiB (paths x steps) arrays an unblocked kernel
    # would allocate
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    grid = ll.PathGrid(t_max=1.0, steps=4096)
    tracemalloc.start()
    try:
        ens = ll.simulate_ensemble(STABLE_15, 0.0, grid, 2, 2048,
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
        part.path(0)
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


def test_max_step_for_resolution():
    assert ll.max_step_for_resolution(0.01, 1.8) == pytest.approx(0.01 ** 1.8)


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
        for field in ("positions", "running_sup", "times", "path_indices"):
            assert np.array_equal(getattr(back, field), getattr(ens, field)), (i, field)
        assert back.recorded == ens.recorded
        assert back.metadata() == ens.metadata()


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
    lambda ens, p: ll.save_ensemble_jsonl(ens.subsample(2), p),
    lambda ens, p: (ll.save_ensemble_jsonl(ens, p), _edit_manifest(p, recorded=True,
                                                                   times=[0.13])),
], ids=["seed_edited", "hash_edited", "old_format", "subsampled", "off_grid_time"])
def test_jsonl_load_rejects_mismatch(tmp_path, corrupt):
    ens = ll.simulate_ensemble(STABLE_15, 0.0, ll.PathGrid(t_max=0.5, steps=16), 4, 3)
    path = tmp_path / "paths.jsonl"
    corrupt(ens, path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        ll.load_ensemble_jsonl(path)


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
