import hashlib
import json
import math
import mmap
import os
import re
import subprocess
import sys
import time
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
    """The Chambers-Mallows-Stuck formula with each trigonometric factor from
    the tangent of half its angle, allocating every term."""
    v = u - 0.5
    w = np.maximum(w, 1e-300)
    t = np.tan(v * ((1.0 - alpha) * (np.pi / 2)))
    cos_one_minus = (1.0 - t) * (1.0 + t) / ((1.0 + t * t) * w)   # over w
    t = np.tan(v * (alpha * (np.pi / 2)))
    sin_alpha = 2.0 * t / (1.0 + t * t)
    t = np.tan(np.pi / 2 * np.minimum(u, 1.0 - u))
    cos_theta = 2.0 * t / (1.0 + t * t)
    return sin_alpha / cos_theta ** (1.0 / alpha) * cos_one_minus ** ((1.0 - alpha) / alpha)


def _stable_sample(alpha, gen, n):
    return _cms(gen.random(n), gen.standard_exponential(n), alpha, np.empty(n), np.empty(n))


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
    out, tmp = np.empty(1000), np.empty(1000)
    assert _cms(u.copy(), w.copy(), alpha, out, tmp) is out
    assert np.array_equal(out, want)
    alphas = np.linspace(alpha, 1.0, 1000)
    assert np.array_equal(_cms(u.copy(), w.copy(), alphas, out, tmp),
                          _cms_reference(u, w, alphas))


@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 1.0, 1.5, 1.99])
def test_cms_against_mpmath_at_the_exact_angle(alpha):
    # the variate against the transform at the exact angle pi (u - 1/2),
    # evaluated to 50 digits.  Bound, set before the first run: relative
    # error at most 1e-12 at every draw, median at most 2 ulp.  u goes within
    # 2^-20 ... 2^-45 of 0 and of 1, where cos(theta) of a rounded theta
    # loses its relative accuracy; w reaches the 1e-300 floor.
    import mpmath
    gen = path_generator(11, 3)
    u, w = gen.random(2000), gen.standard_exponential(2000)
    tiny = 2.0 ** -np.arange(20, 46)
    u[:26], u[26:52] = tiny, 1.0 - tiny
    w[52:56] = [0.0, 1e-310, 1e-300, 2e-300]
    got = _cms(u.copy(), w.copy(), alpha, np.empty(u.size), np.empty(u.size))
    a = mpmath.mpf(alpha)
    want = np.empty(u.size)
    with mpmath.workdps(50):
        for i, (ui, wi) in enumerate(zip(u.tolist(), np.maximum(w, 1e-300).tolist())):
            theta = mpmath.pi * (mpmath.mpf(ui) - 0.5)
            want[i] = (mpmath.sin(a * theta) / mpmath.cos(theta) ** (1 / a)
                       * (mpmath.cos((1 - a) * theta) / wi) ** ((1 - a) / a))
    err = np.abs(got - want)
    assert np.max(err / np.abs(want)) <= 1e-12
    assert np.median(err / np.spacing(np.abs(want))) <= 2.0


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


def assert_no_child_left():
    # every forked worker has been reaped: no child runs, none is a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stable_processes_stress_and_empty_ensemble(monkeypatch):
    # more worker processes than cores, one path per block: a row written by
    # the wrong worker, or twice, or not at all, shows
    monkeypatch.setattr(simulate, "_WORKERS", 1)
    ref = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 50)
    monkeypatch.setattr(simulate, "_WORKERS", 8)
    ens = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 50, chunk_size=1)
    assert np.array_equal(ens.positions, ref.positions)
    assert np.array_equal(ens.running_sup, ref.running_sup)
    assert_no_child_left()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for an empty ensemble"))
    assert ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 0).positions.shape == (0, 256)
    with pytest.raises(ValueError):
        ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 6, 4, chunk_size=0)


def test_stable_like_processes_stress_and_empty_ensemble(monkeypatch):
    # more worker processes than cores, one path per block: a row written by
    # the wrong worker, or lost outside the shared mapping, shows
    monkeypatch.setattr(simulate, "_WORKERS", 1)
    ref = ll.simulate_ensemble(SL_SINUSOIDAL, 0.0, GRID_256, 6, 50)
    monkeypatch.setattr(simulate, "_WORKERS", 8)
    for chunk in (1, None):
        ens = ll.simulate_ensemble(SL_SINUSOIDAL, 0.0, GRID_256, 6, 50, chunk_size=chunk)
        assert np.array_equal(ens.positions, ref.positions), chunk
        assert np.array_equal(ens.running_sup, ref.running_sup), chunk
        assert_no_child_left()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for an empty ensemble"))
    assert ll.simulate_ensemble(SL_SINUSOIDAL, 0.0, GRID_256, 6, 0).positions.shape == (0, 256)


# the kinds whose kernels fork, and their kernels' names in failure notes
FORKED_KERNELS = {"stable": "stable kernel", "stable_like": "stable-like kernel"}


def _with_kernel(kind, kernel):
    """The registry entry of ``kind`` with its block kernel replaced."""
    cls, _, *rest = simulate._PROCESS_KINDS[kind]
    return (cls, kernel, *rest)


@pytest.mark.parametrize("kind, failing", [("stable_like", "child"), ("stable_like", "parent"),
                                           ("stable", "child"), ("stable", "parent")],
                         ids=["child", "parent", "stable-child", "stable-parent"])
def test_stable_like_worker_failure_raises_and_leaves_no_child(kind, failing, monkeypatch):
    # 23 paths in blocks of 5 on two workers: this process runs rows [0, 5),
    # [10, 15) and [20, 23), the forked child [5, 10) and [15, 20)
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    grid = ll.PathGrid(t_max=1.0, steps=64)
    proc, name = KINDS[kind], FORKED_KERNELS[kind]
    ref = ll.simulate_ensemble(proc, 0.2, grid, 41, 23, chunk_size=5)
    assert_no_child_left()
    entry = simulate._PROCESS_KINDS[kind]
    kernel = entry[1]
    fail_at, rows = {"child": (15, "[5, 10), [15, 20)"),
                     "parent": (10, "[0, 5), [10, 15), [20, 23)")}[failing]

    def failing_kernel(*args, parent=None):
        if any(start == fail_at for start, _ in args[-1]):
            raise FloatingPointError(f"injected at row {fail_at}")
        if parent is not None and failing == "parent":
            time.sleep(60)   # a child still at work when this process fails is killed
        kernel(*args, parent=parent)

    monkeypatch.setitem(simulate._PROCESS_KINDS, kind, _with_kernel(kind, failing_kernel))
    started = time.perf_counter()
    with pytest.raises(FloatingPointError, match=f"injected at row {fail_at}") as info:
        ll.simulate_ensemble(proc, 0.2, grid, 41, 23, chunk_size=5)
    assert time.perf_counter() - started < 30.0
    note = "\n".join(info.value.__notes__)
    assert f"the {name}" in note and f"path rows {rows}" in note
    if failing == "child":
        assert "worker process" in note and "injected at row 15" in note   # its traceback
    assert_no_child_left()
    monkeypatch.setitem(simulate._PROCESS_KINDS, kind, entry)
    ens = ll.simulate_ensemble(proc, 0.2, grid, 41, 23, chunk_size=5)
    assert np.array_equal(ens.positions, ref.positions)
    assert np.array_equal(ens.running_sup, ref.running_sup)
    assert_no_child_left()


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


def test_stable_like_worker_exception_that_cannot_be_pickled(monkeypatch):
    # a child's exception that does not survive pickling comes back as a
    # RuntimeError carrying the child's traceback text; 8 paths in blocks of
    # 4, of either forked kernel
    monkeypatch.setattr(simulate, "_WORKERS", 2)

    class LocalError(Exception):
        pass

    for kind, name in FORKED_KERNELS.items():
        kernel = simulate._PROCESS_KINDS[kind][1]

        def failing_kernel(*args, parent=None, kernel=kernel):
            if parent is not None:
                raise LocalError("raised in the child")
            kernel(*args)

        monkeypatch.setitem(simulate._PROCESS_KINDS, kind, _with_kernel(kind, failing_kernel))
        with pytest.raises(RuntimeError, match="exited with status 1") as info:
            ll.simulate_ensemble(KINDS[kind], 0.2, GRID_256, 41, 8, chunk_size=4)
        note = "\n".join(info.value.__notes__)
        assert f"the {name}'s worker process on path rows [4, 8)" in note, note
        assert "LocalError: raised in the child" in note
        assert_no_child_left()


@pytest.mark.parametrize("kind", ["stable", "stable_like"])
def test_recorded_stable_ensemble_memory_stays_in_blocks(kind, monkeypatch):
    # 2048 x 4096 paths at four recorded times: block buffers only (three per
    # worker for the stable kernel; for the stable-like one, two tiles of draws
    # and a 64-path fill scratch), not the 64 MiB (paths x steps) arrays an
    # unblocked kernel would allocate, nor the 128 MiB of draws of a whole
    # stable-like block.  tracemalloc sees this process only, so each kernel
    # also runs on one worker, which does every block itself (the stable-like
    # one in a whole 2048-path block) instead of sharing them with a forked
    # child.
    grid = ll.PathGrid(t_max=1.0, steps=4096)
    for workers in (2, 1):
        monkeypatch.setattr(simulate, "_WORKERS", workers)
        tracemalloc.start()
        try:
            ens = ll.simulate_ensemble(KINDS[kind], 0.0, grid, 2, 2048,
                                       record_times=[0.125, 0.25, 0.5, 1.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.positions.shape == (2048, 4)
        assert peak < 32 * 2 ** 20, workers


SPARSE_256 = [GRID_256.times()[0], 0.1015625, 0.5, 0.75]
EVERY_2ND_64 = ll.PathGrid(t_max=1.0, steps=64).times()[1::2].tolist()


def test_record_times_subset():
    # at most 1/8 of the grid stored, the stable kernel takes segment maxima;
    # at every 2nd grid time, its row-wise accumulate.  Compound Poisson reads
    # both from its events.  Either way the stored columns are the full grid's.
    for kind in sorted(KINDS):
        full = ll.simulate_ensemble(KINDS[kind], 0.3, GRID_256, 9, 8)
        for rec in (SPARSE_256, GRID_256.times()[1::2].tolist()):
            part = ll.simulate_ensemble(KINDS[kind], 0.3, GRID_256, 9, 8, record_times=rec)
            assert part.recorded
            idx = [full.time_index(t) for t in rec]
            assert np.array_equal(part.positions, full.positions[:, idx]), (kind, len(rec))
            assert np.array_equal(part.running_sup, full.running_sup[:, idx]), (kind, len(rec))
    with pytest.raises(ValueError):
        ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 9, 2, record_times=[0.123456789])


def _mapping_of(arr):
    """The object whose buffer holds ``arr``: the end of its chain of bases."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


@pytest.mark.skipif(not simulate._FORK, reason="forked workers run on Linux only")
@pytest.mark.parametrize("record", [None, [0.125, 0.5, 1.0], EVERY_2ND_64],
                         ids=["full", "sparse", "every_2nd"])
@pytest.mark.parametrize("kind", ["stable", "stable_like"])
def test_forked_workers_write_into_the_ensembles_mapping(kind, record, monkeypatch):
    # the children write their rows into the arrays the ensemble holds, the
    # two halves of one shared mapping: no copy comes back.  One worker forks
    # no child, so its arrays are private memory.
    grid = ll.PathGrid(t_max=1.0, steps=64)
    forked, calls = simulate._forked, []

    def spy(kernel, name, args, shares):
        calls.append(args[-2:])
        forked(kernel, name, args, shares)

    monkeypatch.setattr(simulate, "_forked", spy)
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(simulate, "_WORKERS", workers)
        runs[workers] = ens = ll.simulate_ensemble(KINDS[kind], 0.3, grid, 5, 23,
                                                   record_times=record, chunk_size=4)
        mapping = _mapping_of(ens.positions)
        if workers == 1:
            assert mapping is None and _mapping_of(ens.running_sup) is None
            continue
        assert isinstance(mapping, mmap.mmap) and _mapping_of(ens.running_sup) is mapping
        assert ens.running_sup.ctypes.data == ens.positions.ctypes.data + ens.positions.nbytes
        assert len(mapping) == 2 * ens.positions.nbytes
    ((pos, sup),) = calls   # only the two-worker run forks
    assert pos is runs[2].positions and sup is runs[2].running_sup
    assert np.array_equal(runs[2].positions, runs[1].positions)
    assert np.array_equal(runs[2].running_sup, runs[1].running_sup)
    assert_no_child_left()


def _cp_jump_times(proc, t_max, seed, i):
    gen = path_generator(seed, i)
    return t_max * (1.0 - gen.random(gen.poisson(proc.rate * t_max)))


# integer jumps, so the order of summation cannot change a bit of the reference
CP_EDGE = ll.CompoundPoissonProcess(atoms=((1.0, 6.0), (-2.0, 2.0)), path_drift=-0.7)
CP_EDGE_CASES = {
    # (process, grid, paths, record_times, property of the draws the case needs)
    "zero_paths": (CP_EDGE, GRID_256, 0, SPARSE_256, lambda jumps: True),
    # some block of 2 paths (the test's chunk size) has no jump, some path has one
    "block_without_jumps": (
        ll.CompoundPoissonProcess(atoms=((1.0, 0.2), (-2.0, 0.1)), path_drift=-0.7),
        GRID_256, 16, SPARSE_256,
        lambda jumps: (any(j.size for j in jumps)
                       and any(not (a.size or b.size) for a, b in zip(jumps[::2], jumps[1::2])))),
    "jump_at_index_0": (CP_EDGE, ll.PathGrid(t_max=1.0, steps=4), 12, [0.5, 1.0],
                        lambda jumps: any(np.any(j <= 0.25) for j in jumps)),
    "one_step": (CP_EDGE, ll.PathGrid(t_max=0.5, steps=1), 12, None,
                 lambda jumps: any(j.size >= 2 for j in jumps)),
    "last_record_before_t_max": (CP_EDGE, GRID_256, 12, [0.125, 0.5],
                                 lambda jumps: any(np.any(j > 0.5) for j in jumps)),
}


@pytest.mark.parametrize("case", list(CP_EDGE_CASES))
def test_compound_poisson_event_kernel_edge_cases(case):
    # against the dense reference: the path at every grid time and its
    # running max of |X - x0|, read at the stored columns
    proc, grid, n, rec, needs = CP_EDGE_CASES[case]
    times = grid.times()
    assert needs([_cp_jump_times(proc, times[-1], 31, i) for i in range(n)])
    pos = np.array([_compound_poisson_reference(proc, 0.3, times, 31, i)
                    for i in range(n)]).reshape(n, times.size)
    sup = np.maximum.accumulate(np.abs(pos - 0.3), axis=1)
    idx = list(range(times.size)) if rec is None else [simulate._grid_index(times, t) for t in rec]
    for chunk in (2, None):
        ens = ll.simulate_ensemble(proc, 0.3, grid, 31, n, record_times=rec, chunk_size=chunk)
        assert np.array_equal(ens.positions, pos[:, idx]), chunk
        assert np.array_equal(ens.running_sup, sup[:, idx]), chunk


def test_stable_like_constant_alpha_matches_stable_in_distribution():
    sl = ll.StableLikeProcess(alpha=ll.ConstantProfile(1.5))
    e1 = ll.simulate_ensemble(sl, 0.0, GRID_256, 21, 10_000)
    e2 = ll.simulate_ensemble(STABLE_15, 0.0, GRID_256, 22, 10_000)
    ks = stats.ks_2samp(e1.positions[:, -1], e2.positions[:, -1])
    assert ks.statistic < 0.02


@pytest.mark.parametrize("alpha, scale", [(1.5, 1.0), (0.8, 2.0), (1.9, 0.7)])
def test_stable_like_at_constant_profiles_is_the_stable_kernel(alpha, scale, monkeypatch):
    # the stable kernel is the stable-like Euler recursion at constant
    # profiles, bit for bit, when the paths start at 0: the stable kernel adds
    # x0 after its cumsum, the stable-like step starts from x0
    stable = ll.SymmetricStableProcess(alpha=alpha, scale=scale)
    like = ll.StableLikeProcess(alpha=ll.ConstantProfile(alpha), scale=ll.ConstantProfile(scale))
    for grid in (GRID_256, GRID_GEOMETRIC):
        for record in (None, [0.125, 0.5, 1.0]):
            for workers in (1, 2):
                monkeypatch.setattr(simulate, "_WORKERS", workers)
                a, b = (ll.simulate_ensemble(proc, 0.0, grid, 12, 40, record_times=record,
                                             chunk_size=16) for proc in (stable, like))
                key = (grid.layout, record is None, workers)
                assert np.array_equal(a.positions, b.positions), key
                assert np.array_equal(a.running_sup, b.running_sup), key


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
    trip = ll.LevyTriplet(measure=proc.levy_triplet.measure)
    for xi in (0.7, 2.0):
        lam = ll.empirical_charfn(ens, xi, 1.0)
        want = math.exp(-ll.eval_exponent(trip, 0.0, xi).real)
        assert abs(lam - want) < 4.0 / math.sqrt(ens.n_paths)


def test_compound_poisson_from_triplet_drift():
    trip = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((0.5, 2.0),)), drift=0.3)
    proc = ll.process_from_triplet(trip)
    # path drift compensates l + int_{|y|<=1} y nu(dy) = 0.3 + 1.0
    assert proc.path_drift == pytest.approx(-1.3)
    # levy_triplet is the inverse: it gives back l, and the process
    assert proc.levy_triplet.drift_at(0.0) == pytest.approx(0.3, rel=1e-15)
    for path_drift in (0.0, 0.7, -2.5):
        cp = ll.CompoundPoissonProcess(atoms=((0.5, 2.0), (-3.0, 1.0)), path_drift=path_drift)
        back = ll.process_from_triplet(cp.levy_triplet)
        assert isinstance(back, ll.CompoundPoissonProcess) and back.atoms == cp.atoms
        assert back.path_drift == pytest.approx(path_drift, rel=1e-15)


def test_compound_poisson_triplet_round_trip_is_exact():
    # -(l + m1) with l = -path_drift - m1 need not round back to path_drift:
    # here it gives 0.29999999999999993
    cp = ll.CompoundPoissonProcess(((0.7, 1.5), (-0.2, 0.5)), path_drift=0.3)
    assert ll.process_from_triplet(cp.levy_triplet) == cp
    rng = np.random.default_rng(31)
    for _ in range(300):
        atoms = tuple((rng.uniform(-3.0, 3.0), rng.uniform(0.01, 3.0))
                      for _ in range(int(rng.integers(1, 6))))
        cp = ll.CompoundPoissonProcess(atoms, path_drift=float(rng.normal(0.0, 2.0)))
        trip = cp.levy_triplet
        assert ll.process_from_triplet(trip) == cp
        assert trip.to_dict()["drift"] == {"kind": "constant", "value": trip.drift_at(0.0)}


def test_process_from_triplet_stable():
    m = ll.PowerLawMeasure(alpha=1.5)   # normalized: p^U = |xi|^1.5
    proc = ll.process_from_triplet(ll.LevyTriplet(measure=m))
    assert isinstance(proc, ll.SymmetricStableProcess)
    assert proc.scale == pytest.approx(0.1875 * 2.0 * ll.stable_levy_constant(1.5))
    # round trip: the process measure reproduces the original coefficient
    assert proc.levy_triplet.measure.coeff_at(0.0) == pytest.approx(0.1875)
    # levy_triplet then process_from_triplet gives the process back, bit for bit
    for alpha in np.linspace(0.3, 1.9, 17).tolist():
        for scale in (0.1, 0.7, 1.0, 1.3, 2.5, 10.0):
            proc = ll.SymmetricStableProcess(alpha, scale)
            assert ll.process_from_triplet(proc.levy_triplet) == proc
    for proc in (ll.StableLikeProcess(alpha=M_SIN_STATE.alpha),
                 ll.StableLikeProcess(alpha=M_SIN_STATE.alpha, scale=ll.TanhRampProfile(1.0, 0.5)),
                 ll.StableLikeProcess(alpha=ll.ConstantProfile(1.2),
                                      scale=ll.SinusoidalProfile(1.0, 0.5))):
        assert ll.process_from_triplet(proc.levy_triplet) == proc
    # the process and the stable symbol family hold one coefficient, bit for bit
    want = 1.3 / (2.0 * ll.stable_levy_constant(1.5))
    assert ll.SymmetricStableProcess(1.5, 1.3).levy_triplet.measure.coeff_at(0.0) == want
    assert ll.SymbolFamily.from_stable(1.5, 1.3).triplet.measure.coeff_at(0.0) == want
    with pytest.raises(ValueError, match="state-dependent power_law measure; "
                                         "give this law as a stable_like 'process'"):
        ll.process_from_triplet(ll.LevyTriplet(measure=M_SIN_STATE))
    with pytest.raises(ValueError, match="no sampler for a tabulated measure"):
        ll.process_from_triplet(ll.LevyTriplet(measure=ll.TabulatedMeasure(
            grid=(0.5, 1.0, 2.0), density=(1.0, 0.5, 0.25))))


M_SIN_STATE = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))


@pytest.mark.parametrize("kind", list(simulate._PROCESS_KINDS))
def test_process_dict_roundtrip(kind):
    proc = KINDS[kind]
    q = ll.process_from_dict(proc.to_dict())
    assert q.to_dict() == proc.to_dict()
    assert q == proc and proc.to_dict()["kind"] == kind


# every registered kind, with each number of its dict form an integer
INTEGER_SPELLED = {
    "stable": {"kind": "stable", "alpha": 1, "scale": 2},
    "stable_like": {"kind": "stable_like", "alpha": 1, "scale": 2},
    "compound_poisson": {"kind": "compound_poisson", "atoms": [[1, 3], [-2, 1]], "path_drift": 1},
}


def test_integer_stable_alpha_hashes_like_float():
    # a law, grid or start point spelled with integers is the one spelled with
    # floats: one spec hash, the same paths
    assert list(INTEGER_SPELLED) == list(simulate._PROCESS_KINDS)
    grid = ll.PathGrid(t_max=0.5, steps=16)
    constant = {"kind": "stable_like", "alpha": {"kind": "constant", "value": 1}}
    for kind, spelled in {**INTEGER_SPELLED, "constant_profile": constant}.items():
        ens = [ll.simulate_ensemble(ll.process_from_dict(d), 0.0, grid, 5, 3)
               for d in (spelled, json.loads(json.dumps(spelled), parse_int=float))]
        assert ens[0].metadata()["spec_hash"] == ens[1].metadata()["spec_hash"], kind
        assert np.array_equal(ens[0].positions, ens[1].positions), kind
    grids = [ll.PathGrid.from_dict({"t_max": t_max, "steps": 64}) for t_max in (1, 1.0)]
    for name, ens in (("t_max", [ll.simulate_ensemble(STABLE_15, 0.0, g, 5, 3) for g in grids]),
                      ("x0", [ll.simulate_ensemble(STABLE_15, x0, grid, 5, 3) for x0 in (0, 0.0)])):
        assert ens[0].metadata()["spec_hash"] == ens[1].metadata()["spec_hash"], name
        assert np.array_equal(ens[0].positions, ens[1].positions), name


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
CP_CROWDED = ll.CompoundPoissonProcess(atoms=((0.37, 400.0), (-0.61, 300.0)), path_drift=-0.7)
SL_SINUSOIDAL = ll.StableLikeProcess(
    alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3),
    scale=ll.SinusoidalProfile(center=1.0, amplitude=0.5, frequency=3.0))
GRID_GEOMETRIC_513 = ll.PathGrid(t_max=1.0, steps=512, layout="geometric", levels=8,
                                 points_per_level=64)
# _ensemble_sha256 of ensembles made with one SeedSequence-built generator per path
PINNED_STREAMS = {
    "stable_geometric": ((STABLE_15, 0.2, GRID_GEOMETRIC, 41, 23, None),
                         "cbf3840224afbd7d28a4243f8da3575f085557869105d52f16d2ee28712c78f0"),
    "stable_one_step": ((ll.SymmetricStableProcess(alpha=0.8, scale=2.0), 0.0,
                         ll.PathGrid(t_max=0.5, steps=1), 7, 9, None),
                        "6465a861d14aac75a439d8a8268ef2547d3ac4cc6bc026a2a65bba041eacbae1"),
    "stable_recorded": ((STABLE_15, 0.0, ll.PathGrid(t_max=1.0, steps=64), 2 ** 64 + 1, 12,
                         [0.125, 0.5, 1.0]),
                        "aed79d1f92652040be467e76a4ce33de7010bfc5267e45c650e44709ad12369c"),
    "stable_seed_2^128": ((STABLE_15, 0.0, ll.PathGrid(t_max=1.0, steps=64), 2 ** 128, 5, None),
                          "04ab0adbaf1034bb0fc44f3059019ea32079f83fcdf2ee337ad8b44da417ccea"),
    "compound_poisson": ((KINDS["compound_poisson"], 0.2, ll.PathGrid(t_max=1.0, steps=64),
                          41, 23, None),
                         "62cbe625a9404203b222d18ed2bbb276493049530ad46ab5c4618bf8fb6904b0"),
    "compound_poisson_low_rate": (
        (CP_LOW_RATE, 0.0, GRID_GEOMETRIC, 3, 40, None),
        "88ff3449940ea198c72c4a5e6d871d0b6a04145d276415e44773e7b9dfead4dd"),
    # rate 700 puts up to 12 (256 steps) and 22 (64 steps) non-integer jumps
    # in one cell, so a change in the order of summation shows
    "compound_poisson_crowded_cells_sparse": (
        (CP_CROWDED, 0.3, GRID_256, 5, 23, SPARSE_256),
        "275d3418f3b37e83a31b5cdece21cf37c5dd54cd1bf6e91e29b290aa20f8363d"),
    "compound_poisson_crowded_cells_every_2nd": (
        (CP_CROWDED, 0.3, ll.PathGrid(t_max=1.0, steps=64), 5, 23, EVERY_2ND_64),
        "9dc9bd89d00ec5b297c2aadc708c8b749b16fb197fa2021d1a2c04c99943349d"),
    # the stable kernel's two running-sup branches: row-wise accumulate and
    # segment maxima
    "stable_every_2nd": ((STABLE_15, 0.3, ll.PathGrid(t_max=1.0, steps=64), 5, 23, EVERY_2ND_64),
                         "c26ed187dc2914689e359850fd94cfd9ada66c986f240dc550ddd541e31b05bf"),
    "stable_sparse_x0": ((STABLE_15, 0.3, GRID_256, 5, 23, SPARSE_256),
                         "1b0ad4c838fff64ce76fc3295dfcbe7c85517fb695a39cec63745b2d3613de3c"),
    # exponentials from word n = 64, 513 and 1: n % 4 is 0, 1 and 1
    "stable_like_uniform_64": (
        (SL_SINUSOIDAL, 0.2, ll.PathGrid(t_max=1.0, steps=64), 41, 23, None),
        "fabf610a01dabbbd4f5efd51787eb5d90471df07d20e707aa25aa08e51491e2f"),
    "stable_like_geometric_513": (
        (SL_SINUSOIDAL, 0.2, GRID_GEOMETRIC_513, 41, 9, None),
        "2ee11c3e9153f5a427991bdf92ec803983a95a6d668911d5688f87a39ce8b6ab"),
    "stable_like_one_step": (
        (SL_SINUSOIDAL, 0.2, ll.PathGrid(t_max=0.5, steps=1), 7, 9, None),
        "f19b48f4e875ea0609c91eeb7ab4c6fb8e01edbea0bc1eded96538cd9693c685"),
    # at the default block size on two workers, 150 paths make two 75-path
    # blocks that fill a tile in 64 + 11 rows, and the 513 grid times make step
    # tiles of 256, 256 and 1
    "stable_like_geometric_513_150": (
        (SL_SINUSOIDAL, 0.2, GRID_GEOMETRIC_513, 41, 150, None),
        "6b7bae9688c05030437c78bfb8a5890c2129b7084289d3cef64d75de2c7ef2ca"),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_stream_bits_pinned(name, monkeypatch):
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    (proc, x0, grid, seed, n, record), digest = PINNED_STREAMS[name]
    for chunk_size in (4, None):
        ens = ll.simulate_ensemble(proc, x0, grid, seed, n, record_times=record,
                                   chunk_size=chunk_size)
        assert simulate._ensemble_sha256(ens) == digest


WITHOUT_AVX512 = """
import numpy as np
import levylil as ll
from levylil import simulate
from numpy._core._multiarray_umath import __cpu_features__
assert not __cpu_features__["X86_V4"]
grid = ll.PathGrid(t_max=1.0, steps=64)
sl = ll.StableLikeProcess(alpha=ll.SinusoidalProfile(center=1.4, amplitude=0.3),
                          scale=ll.SinusoidalProfile(center=1.0, amplitude=0.5, frequency=3.0))
for proc in (ll.SymmetricStableProcess(alpha=1.5), sl):
    for record in (None, [0.125, 0.5, 1.0]):
        digests = set()
        for workers in (1, 2):
            simulate._WORKERS = workers
            for chunk in (1, 7, None):
                ens = ll.simulate_ensemble(proc, 0.2, grid, 41, 23, record_times=record,
                                           chunk_size=chunk)
                digests.add(simulate._ensemble_sha256(ens))
        assert len(digests) == 1, (proc, record)
for alpha, scale in ((1.5, 1.0), (0.8, 2.0), (1.9, 0.7)):
    for workers in (1, 2):
        simulate._WORKERS = workers
        a, b = (ll.simulate_ensemble(proc, 0.0, grid, 12, 40, chunk_size=16)
                for proc in (ll.SymmetricStableProcess(alpha=alpha, scale=scale),
                             ll.StableLikeProcess(alpha=ll.ConstantProfile(alpha),
                                                  scale=ll.ConstantProfile(scale))))
        assert np.array_equal(a.positions, b.positions), (alpha, workers)
        assert np.array_equal(a.running_sup, b.running_sup), (alpha, workers)
print("ok")
"""


NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _dispatch_targets():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        return set()
    return set(__cpu_dispatch__)


@pytest.mark.skipif(not set(NO_AVX512.split()) <= _dispatch_targets(),
                    reason="this numpy build does not dispatch to these AVX-512 targets")
def test_stream_bits_independent_of_blocks_and_workers_without_avx512():
    # with AVX-512 dispatch off, numpy's float64 tan and power run on other
    # code, so the pinned digests do not hold; blocks, workers and the
    # kernel equality at x0 = 0 still must
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error", "-c", WITHOUT_AVX512], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


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
            == "4edd843cda1510e40da13cd57f33140726d588d05ec528f402a19782ceb80706")


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
        # an integer scale: the manifest holds 2.0, the float the reload reads
        ll.simulate_ensemble(ll.SymmetricStableProcess(1.5, 2), 0.0,
                             ll.PathGrid(t_max=0.5, steps=16), 4, 3),
    ]
    assert [e.recorded for e in cases] == [False, True, False, False]
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
