"""Path simulation for symmetric stable, compound Poisson and stable-like
processes, with running suprema and first exit times.

Randomness contract: every path owns a counter-based Philox stream derived
statelessly from (master seed, path index) via SeedSequence spawn keys.  The
stable and stable-like kinds draw a fixed layout (all uniforms, then all
exponentials, one of each per step).  Compound Poisson draws a
count-dependent layout: a jump count, then that many jump times, then that
many atom choices; it is still a fixed function of the path's own stream.
Paths are therefore reproducible bit-exactly and order-independent, whether
generated one at a time or inside an ensemble, in blocks of any size and on
any number of threads.

Persistence follows from the same contract: an ensemble is saved as a
one-line manifest of its spec, seed and path count plus the SHA-256 of its
arrays, and loading regenerates it and checks that hash.

Stable marginals use the Chambers-Mallows-Stuck transform, standardized so a
unit-scale variate S satisfies E e^{i xi S} = e^{-|xi|^alpha}.  Stable-like
paths use frozen-coefficient Euler stepping: the displacement over a step of
length h started at X is (scale(X) h)^{1/alpha(X)} S.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .measures import (AtomicMeasure, ConstantProfile, LevyTriplet, PowerLawMeasure,
                       Profile, profile_from_dict)
from .symbols import stable_levy_constant

_MAX_POINTS = 2 ** 26


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PathGrid:
    """Simulation time grid on (0, t_max].

    ``uniform`` has ``steps`` equispaced points k * t_max / steps; the
    geometric layout places ``points_per_level`` points in each dyadic band
    and spans [t_max 2^-levels, t_max] with levels * points_per_level + 1
    points.  ``steps`` must be a power of two.
    """

    t_max: float
    steps: int
    layout: str = "uniform"
    levels: Optional[int] = None
    points_per_level: Optional[int] = None

    def __post_init__(self):
        if self.t_max <= 0.0:
            raise ValueError("t_max must be positive")
        if self.steps < 1 or (self.steps & (self.steps - 1)) != 0:
            raise ValueError("steps must be a positive power of two")
        if self.layout == "geometric":
            if not self.levels or not self.points_per_level:
                raise ValueError("geometric layout needs levels and points_per_level")
            if self.levels * self.points_per_level != self.steps:
                raise ValueError("steps must equal levels * points_per_level")
        elif self.layout != "uniform":
            raise ValueError(f"unknown layout {self.layout!r}")

    def times(self) -> np.ndarray:
        if self.layout == "uniform":
            return np.arange(1, self.steps + 1, dtype=float) * (self.t_max / self.steps)
        bands = []
        for level in range(self.levels - 1, -1, -1):
            ub = self.t_max * 2.0 ** (-level)
            lb = 0.5 * ub
            bands.append(np.linspace(lb, ub, self.points_per_level + 1))
        return np.unique(np.concatenate(bands))

    def to_dict(self):
        d = {"t_max": self.t_max, "steps": self.steps, "layout": self.layout}
        if self.layout == "geometric":
            d["levels"] = self.levels
            d["points_per_level"] = self.points_per_level
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def max_step_for_resolution(delta_x: float, alpha_hi: float) -> float:
    """Step-size bound h <= delta_x^alpha_hi for frozen-coefficient stepping."""
    return delta_x ** alpha_hi


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricStableProcess:
    """Levy process with characteristic exponent scale * |xi|^alpha."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must be in (0, 2)")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    @property
    def is_state_independent(self):
        return True

    @property
    def is_symmetric(self):
        return True

    @property
    def levy_measure(self) -> PowerLawMeasure:
        c = self.scale / (2.0 * stable_levy_constant(self.alpha))
        return PowerLawMeasure(alpha=ConstantProfile(self.alpha),
                               coefficient=ConstantProfile(c))

    def exponent(self, xi):
        return self.scale * np.abs(xi) ** self.alpha

    def to_dict(self):
        return {"kind": "stable", "alpha": self.alpha, "scale": self.scale}


class _StableCoefficient:
    """Coefficient profile c(x) = scale(x) / (2 I(alpha(x))) for stable-like
    measures, where I(alpha) is the cosine integral of the stable exponent."""

    def __init__(self, alpha: Profile, scale: Profile):
        self.alpha = alpha
        self.scale = scale

    def __call__(self, x):
        a = np.asarray(self.alpha(x), dtype=float)
        s = np.asarray(self.scale(x), dtype=float)
        consts = np.array([stable_levy_constant(float(av)) for av in np.atleast_1d(a).ravel()])
        out = np.atleast_1d(s) / (2.0 * consts.reshape(np.atleast_1d(a).shape))
        return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)

    def bounds(self):
        a_lo, a_hi = self.alpha.bounds()
        s_lo, s_hi = self.scale.bounds()
        consts = [stable_levy_constant(float(a)) for a in np.linspace(a_lo, a_hi, 65)]
        return (s_lo / (2.0 * max(consts)), s_hi / (2.0 * min(consts)))

    @property
    def is_constant(self):
        return self.alpha.is_constant and self.scale.is_constant

    def to_dict(self):
        return {"kind": "stable_coefficient", "alpha": self.alpha.to_dict(),
                "scale": self.scale.to_dict()}


@dataclass(frozen=True)
class StableLikeProcess:
    """Feller process with local exponent scale(x) |xi|^alpha(x)."""

    alpha: Profile
    scale: Profile = ConstantProfile(1.0)

    def __post_init__(self):
        lo, hi = self.alpha.bounds()
        if not (0.0 < lo <= hi < 2.0):
            raise ValueError("alpha profile must stay inside (0, 2)")
        s_lo, _ = self.scale.bounds()
        if s_lo <= 0.0:
            raise ValueError("scale profile must be positive")

    @property
    def is_state_independent(self):
        return self.alpha.is_constant and self.scale.is_constant

    @property
    def is_symmetric(self):
        return True

    @property
    def levy_measure(self) -> PowerLawMeasure:
        return PowerLawMeasure(alpha=self.alpha,
                               coefficient=_StableCoefficient(self.alpha, self.scale))

    def to_dict(self):
        return {"kind": "stable_like", "alpha": self.alpha.to_dict(),
                "scale": self.scale.to_dict()}


@dataclass(frozen=True)
class CompoundPoissonProcess:
    """Finite-activity jump process: atoms plus a deterministic path drift."""

    atoms: tuple
    path_drift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((float(l), float(m)) for l, m in self.atoms))
        AtomicMeasure(atoms=self.atoms)   # validates

    @property
    def is_state_independent(self):
        return True

    @property
    def is_symmetric(self):
        return self.levy_measure.is_symmetric and self.path_drift == 0.0

    @property
    def levy_measure(self) -> AtomicMeasure:
        return AtomicMeasure(atoms=self.atoms)

    @property
    def rate(self):
        return sum(m for _, m in self.atoms)

    @classmethod
    def from_triplet(cls, triplet: LevyTriplet):
        """Path realization of a triplet (l, 0, atomic nu): the compensation of
        small jumps and the drift l turn into the linear part -(l + m1) t."""
        if not isinstance(triplet.measure, AtomicMeasure):
            raise TypeError("from_triplet needs an atomic measure")
        if not triplet.drift.is_constant:
            raise ValueError("state-dependent drift is not a Levy process")
        m1 = sum(loc * mass for loc, mass in triplet.measure.atoms if abs(loc) <= 1.0)
        return cls(atoms=triplet.measure.atoms, path_drift=-(triplet.drift_at(0.0) + m1))

    def to_dict(self):
        return {"kind": "compound_poisson", "atoms": [[l, m] for l, m in self.atoms],
                "path_drift": self.path_drift}


ProcessSpec = Union[SymmetricStableProcess, StableLikeProcess, CompoundPoissonProcess]


def process_from_dict(d) -> ProcessSpec:
    kind = d.get("kind")
    if kind == "stable":
        return SymmetricStableProcess(alpha=float(d["alpha"]), scale=float(d.get("scale", 1.0)))
    if kind == "stable_like":
        scale = profile_from_dict(d["scale"]) if "scale" in d else ConstantProfile(1.0)
        return StableLikeProcess(alpha=profile_from_dict(d["alpha"]), scale=scale)
    if kind == "compound_poisson":
        return CompoundPoissonProcess(atoms=tuple((a[0], a[1]) for a in d["atoms"]),
                                      path_drift=d.get("path_drift", 0.0))
    raise ValueError(f"unknown process kind {kind!r}")


def process_from_triplet(triplet: LevyTriplet) -> ProcessSpec:
    """Exactly simulatable process for a state-independent triplet."""
    measure = triplet.measure
    if isinstance(measure, AtomicMeasure):
        return CompoundPoissonProcess.from_triplet(triplet)
    if isinstance(measure, PowerLawMeasure) and measure.is_state_independent:
        if not (triplet.drift.is_constant and triplet.drift_at(0.0) == 0.0):
            raise ValueError("power-law triplets are simulated without drift")
        a = measure.alpha_at(0.0)
        scale = measure.coeff_at(0.0) * 2.0 * stable_levy_constant(a)
        return SymmetricStableProcess(alpha=a, scale=scale)
    raise ValueError("no exact sampler for this triplet; use StableLikeProcess")


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def _path_generator(master_seed: int, path_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))


def _cms(u, w, alpha):
    """Chambers-Mallows-Stuck transform for symmetric stable variates.

    u uniform on [0,1), w standard exponential; alpha may be an array
    (matched elementwise) for state-dependent stepping.
    """
    theta = np.pi * (u - 0.5)
    w = np.maximum(w, 1e-300)
    t1 = np.sin(alpha * theta) / np.cos(theta) ** (1.0 / alpha)
    t2 = (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    return t1 * t2


def sample_symmetric_stable(alpha: float, rng: np.random.Generator, size=None):
    """Standardized symmetric alpha-stable variates: E e^{i xi S} = e^{-|xi|^alpha}."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must be in (0, 2)")
    u = rng.random(size)
    w = rng.standard_exponential(size)
    return _cms(u, w, alpha)


# --------------------------------------------------------------------------
# paths and ensembles
# --------------------------------------------------------------------------

@dataclass
class PathSample:
    """One simulated path on its grid.

    running_sup[k] = max_{j <= k} |positions[j] - x0| (nondecreasing).
    """

    x0: float
    times: np.ndarray
    positions: np.ndarray
    running_sup: np.ndarray
    seed_tag: tuple

    def subsample(self, stride: int) -> "PathSample":
        """Coarse view of the same underlying path (nested-grid comparison)."""
        idx = np.arange(stride - 1, self.times.size, stride)
        pos = self.positions[idx]
        return PathSample(x0=self.x0, times=self.times[idx], positions=pos,
                          running_sup=np.maximum.accumulate(np.abs(pos - self.x0)),
                          seed_tag=self.seed_tag)


def path_statistics(sample: PathSample, radii) -> dict:
    """Per-radius first grid time with running_sup >= a (None if never)."""
    out = {}
    rs = sample.running_sup
    for a in radii:
        if a <= 0.0:
            raise ValueError("radii must be positive")
        idx = int(np.searchsorted(rs, a, side="left"))
        out[float(a)] = float(sample.times[idx]) if idx < rs.size else None
    return out


def simulate_path(process: ProcessSpec, x0: float, grid: PathGrid,
                  seed_tag: tuple) -> PathSample:
    """One path, deterministic given seed_tag = (master seed, path index).

    Runs the same kernels as ensemble generation (on a one-path block) so a
    path is bit-identical however it is produced.
    """
    times = grid.times()
    if times.size > _MAX_POINTS:
        raise ValueError("step count overflow")
    master_seed, path_index = int(seed_tag[0]), int(seed_tag[1])
    pos, rs = np.empty((1, times.size)), np.empty((1, times.size))
    _simulate_into(process, x0, times, np.arange(times.size), master_seed, path_index,
                   pos, rs)
    return PathSample(x0=x0, times=times, positions=pos[0], running_sup=rs[0],
                      seed_tag=(master_seed, path_index))


@dataclass
class PathEnsemble:
    """Paths sharing one process spec and grid.

    With ``recorded=True`` the stored arrays are snapshots at a subset of the
    grid: stepping still happened on the full grid and ``running_sup`` is the
    full-grid supremum sampled at the recorded times (so it may exceed the
    cummax of the recorded positions).  The one exception is a ``subsample``
    view, which is flagged ``recorded`` too but whose ``running_sup`` is the
    cummax of the coarse positions.
    """

    process: ProcessSpec
    grid: PathGrid
    x0: float
    master_seed: int
    times: np.ndarray
    positions: np.ndarray
    running_sup: np.ndarray
    path_indices: np.ndarray
    recorded: bool = False

    @property
    def n_paths(self):
        return self.positions.shape[0]

    def path(self, i: int) -> PathSample:
        if self.recorded:
            raise ValueError("recorded ensembles do not carry full paths")
        return PathSample(x0=self.x0, times=self.times, positions=self.positions[i],
                          running_sup=self.running_sup[i],
                          seed_tag=(self.master_seed, int(self.path_indices[i])))

    def time_index(self, t: float, *, tol: float = 1e-9) -> int:
        """Column of the stored time t; ValueError unless t is a stored time."""
        return _grid_index(self.times, t, tol)

    def nearest_index(self, t: float) -> int:
        """Column of the stored time nearest to t."""
        return _grid_index(self.times, t, None)

    def nearest_time(self, t: float) -> float:
        return float(self.times[self.nearest_index(t)])

    def metadata(self):
        d = {"process": self.process.to_dict(), "grid": self.grid.to_dict(),
             "x0": self.x0, "seed": self.master_seed}
        d["spec_hash"] = spec_hash(d)
        return d

    def subsample(self, stride: int) -> "PathEnsemble":
        """Every ``stride``-th grid time, flagged ``recorded``.

        Its ``running_sup`` is the cummax of the coarse positions, not the
        full-grid supremum: that gap is what ``mc.resolution_drift`` measures,
        and regeneration cannot reproduce it, so ``load_ensemble_jsonl``
        rejects a saved view.
        """
        if self.recorded:
            raise ValueError("cannot subsample a recorded ensemble")
        idx = np.arange(stride - 1, self.times.size, stride)
        pos = self.positions[:, idx]
        return PathEnsemble(process=self.process, grid=self.grid, x0=self.x0,
                            master_seed=self.master_seed, times=self.times[idx],
                            positions=pos,
                            running_sup=np.maximum.accumulate(np.abs(pos - self.x0), axis=1),
                            path_indices=self.path_indices, recorded=True)


def simulate_ensemble(process: ProcessSpec, x0: float, grid: PathGrid,
                      master_seed: int, n_paths: int, *, record_times=None,
                      chunk_size: Optional[int] = None) -> PathEnsemble:
    """Generate n_paths independent paths (paths keyed by index).

    ``record_times`` restricts storage to a subset of grid times while the
    stepping and the running supremum still use the full grid.

    Paths are simulated in blocks of ``chunk_size`` paths (default: about
    1 MiB of float64 per block buffer for the stable and compound-Poisson
    kernels, 2048 paths for the stable-like step loop).  The stable kernel
    shares its blocks over one thread per CPU this process may run on; the
    other two kernels run on one thread.  Neither the block size nor the
    thread count changes any bit of the result.
    """
    times = grid.times()
    if times.size > _MAX_POINTS:
        raise ValueError("step count overflow")
    if record_times is None:
        rec_idx = np.arange(times.size)
        if n_paths * times.size > _MAX_POINTS:
            raise MemoryError(
                "ensemble too large to store at full resolution; pass record_times")
    else:
        rec_idx = np.array([_grid_index(times, t) for t in record_times], dtype=int)
        if np.any(np.diff(rec_idx) <= 0):
            raise ValueError("record_times must be strictly increasing grid times")
    positions = np.empty((n_paths, rec_idx.size))
    running_sup = np.empty((n_paths, rec_idx.size))
    _simulate_into(process, x0, times, rec_idx, master_seed, 0, positions, running_sup,
                   chunk_size)
    return PathEnsemble(process=process, grid=grid, x0=x0, master_seed=int(master_seed),
                        times=times[rec_idx], positions=positions, running_sup=running_sup,
                        path_indices=np.arange(n_paths),
                        recorded=rec_idx.size != times.size)


def _grid_index(times, t, tol=1e-9) -> int:
    """Index of the grid time nearest to t.  Unless ``tol`` is None, t must be
    a grid time up to that relative tolerance (ValueError otherwise)."""
    i = int(np.argmin(np.abs(times - t)))
    if tol is not None and abs(times[i] - t) > tol * max(abs(t), times[0]):
        raise ValueError(f"t={t} is not a stored grid time")
    return i


# --------------------------------------------------------------------------
# block kernels: each fills rows [start, stop) of the output arrays with the
# paths first + start, ..., first + stop - 1 at the grid columns rec_idx
# --------------------------------------------------------------------------

_BLOCK_POINTS = 2 ** 17     # grid points per block buffer (1 MiB of float64)
_STEP_LOOP_ROWS = 2048      # paths per stable-like block: the loop costs per step
# threads for the stable kernel (sched_getaffinity is missing on macOS and Windows)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _simulate_into(process, x0, times, rec_idx, master_seed, first, positions,
                   running_sup, chunk_size=None):
    """Fill ``positions`` and ``running_sup`` (row r is path first + r) at the
    grid columns ``rec_idx``.  Each path reads only its own stream, so any
    split of the rows into blocks, and of the blocks over threads, gives the
    same bits.

    Only the stable kernel spends its time in ufuncs and fills that release
    the GIL; the other two run per-path or per-step Python that holds it,
    and measured slower on two threads than on one.
    """
    block_rows = max(1, _BLOCK_POINTS // times.size)
    if isinstance(process, SymmetricStableProcess):
        kernel, workers = _stable_blocks, _WORKERS
    elif isinstance(process, CompoundPoissonProcess):
        kernel, workers = _compound_poisson_blocks, 1
    elif isinstance(process, StableLikeProcess):
        kernel, workers, block_rows = _stable_like_blocks, 1, _STEP_LOOP_ROWS
    else:
        raise TypeError(f"unknown process type {type(process).__name__}")
    if chunk_size is None:
        chunk_size = block_rows
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    n = positions.shape[0]
    blocks = [(b, min(b + chunk_size, n)) for b in range(0, n, chunk_size)]
    if not blocks:
        return
    workers = min(workers, len(blocks))
    args = (process, x0, times, rec_idx, int(master_seed), first, positions, running_sup)
    if workers == 1:
        kernel(*args, blocks)
        return
    from concurrent.futures import ThreadPoolExecutor   # kept off the import of levylil
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(kernel, *args, blocks[i::workers]) for i in range(workers)]
        for future in futures:
            future.result()


def _draw_uniform_exponential(master_seed, first, u, w):
    """Row r of u and w: the uniforms, then the exponentials, of path first + r.

    The generators are built first, so that the fills, which release the GIL,
    run back to back; two threads interleaving them path by path contend."""
    gens = [_path_generator(master_seed, first + row) for row in range(u.shape[0])]
    for gen, u_row, w_row in zip(gens, u, w):
        gen.random(out=u_row)
        gen.standard_exponential(out=w_row)


def _store(positions, running_sup, rec_idx, start, stop, pos, rs):
    positions[start:stop] = pos[:, rec_idx]
    running_sup[start:stop] = rs[:, rec_idx]


def _stable_blocks(process, x0, times, rec_idx, master_seed, first, positions,
                   running_sup, blocks):
    """Stable increments, cumsum and running sup in place on four block
    buffers.  The ufunc sequence, ``**`` included (numpy has sqrt and square
    fast paths for it), is that of ``_cms`` and the scaling, so the bits are
    those of the unblocked transform."""
    a = process.alpha
    step = (process.scale * np.diff(times, prepend=0.0)) ** (1.0 / a)
    rows = max(stop - start for start, stop in blocks)
    bufs = [np.empty((rows, times.size)) for _ in range(4)]
    for start, stop in blocks:
        theta, w, s, c = (buf[:stop - start] for buf in bufs)
        _draw_uniform_exponential(master_seed, first + start, theta, w)
        theta -= 0.5
        theta *= np.pi
        np.maximum(w, 1e-300, out=w)
        np.multiply(theta, a, out=s)
        np.sin(s, out=s)
        np.cos(theta, out=c)
        c **= 1.0 / a
        s /= c
        np.multiply(theta, 1.0 - a, out=c)
        np.cos(c, out=c)
        c /= w
        c **= (1.0 - a) / a
        s *= c
        s *= step
        np.cumsum(s, axis=1, out=s)
        s += x0
        np.subtract(s, x0, out=c)
        np.abs(c, out=c)
        np.maximum.accumulate(c, axis=1, out=c)
        _store(positions, running_sup, rec_idx, start, stop, s, c)


def _compound_poisson_blocks(process, x0, times, rec_idx, master_seed, first, positions,
                             running_sup, blocks):
    """Exact compound Poisson.  Each path draws a Poisson(rate t_max) jump
    count k, then k jump times uniform on (0, t_max], each added at the first
    grid time at or after it, then k atoms by inverse CDF of the masses.  One
    bincount per block sums the jumps per grid cell."""
    n, t_max = times.size, times[-1]
    locs = np.array([loc for loc, _ in process.atoms])
    cdf = np.cumsum([mass for _, mass in process.atoms])
    cdf /= cdf[-1]
    base = x0 + process.path_drift * times
    lam = process.rate * t_max
    for start, stop in blocks:
        m = stop - start
        counts, at, pick = np.empty(m, dtype=int), [], []
        for row in range(m):
            gen = _path_generator(master_seed, first + start + row)
            counts[row] = k = gen.poisson(lam)
            at.append(gen.random(k))
            pick.append(gen.random(k))
        cells = (np.repeat(np.arange(m) * n, counts)
                 + np.searchsorted(times, t_max * (1.0 - np.concatenate(at)), side="left"))
        jumps = locs[np.searchsorted(cdf, np.concatenate(pick), side="right")]
        # (bincount of no cells at all returns integer zeros)
        pos = np.bincount(cells, jumps, m * n).astype(float, copy=False).reshape(m, n)
        np.cumsum(pos, axis=1, out=pos)
        pos += base
        rs = np.abs(pos - x0)
        np.maximum.accumulate(rs, axis=1, out=rs)
        _store(positions, running_sup, rec_idx, start, stop, pos, rs)


def _stable_like_blocks(process, x0, times, rec_idx, master_seed, first, positions,
                        running_sup, blocks):
    """Frozen-coefficient Euler steps over a block of paths at once; only
    recorded steps are stored."""
    n = times.size
    dts = np.diff(times, prepend=0.0)
    slot = dict(zip(rec_idx.tolist(), range(rec_idx.size)))
    rows = max(stop - start for start, stop in blocks)
    u_buf, w_buf = np.empty((rows, n)), np.empty((rows, n))
    for start, stop in blocks:
        u, w = u_buf[:stop - start], w_buf[:stop - start]
        _draw_uniform_exponential(master_seed, first + start, u, w)
        xcur = np.full(stop - start, float(x0))
        dev = np.zeros(stop - start)
        for k in range(n):
            a = np.asarray(process.alpha(xcur), dtype=float)
            c = np.asarray(process.scale(xcur), dtype=float)
            xcur = xcur + (c * dts[k]) ** (1.0 / a) * _cms(u[:, k], w[:, k], a)
            dev = np.maximum(dev, np.abs(xcur - x0))
            if k in slot:
                positions[start:stop, slot[k]] = xcur
                running_sup[start:stop, slot[k]] = dev


# --------------------------------------------------------------------------
# persistence: seed manifests, regenerated and hash-checked on load
# --------------------------------------------------------------------------

def _ensemble_sha256(ensemble: PathEnsemble) -> str:
    """SHA-256 of positions then running_sup, little-endian float64 C-order."""
    h = hashlib.sha256()
    for arr in (ensemble.positions, ensemble.running_sup):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def save_ensemble_jsonl(ensemble: PathEnsemble, path, extra_metadata=None):
    """One canonical-JSON manifest line: the spec and seed that regenerate the
    ensemble, plus the SHA-256 of its arrays.  No per-path rows are written."""
    meta = ensemble.metadata()
    meta.update(extra_metadata or {})
    meta.update(n_paths=ensemble.n_paths, times=ensemble.times.tolist(),
                recorded=ensemble.recorded, sha256=_ensemble_sha256(ensemble))
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(canonical_json(meta) + "\n")
    os.replace(tmp, path)


def load_ensemble_jsonl(path) -> PathEnsemble:
    """Regenerate the ensemble a manifest describes.  ValueError naming the
    file unless the regenerated spec hash and array hash match the manifest."""
    with open(path) as fh:
        meta = json.loads(fh.readline())
    stored = {k: meta.get(k) for k in ("spec_hash", "sha256")}
    ens = got = None
    if stored["sha256"] is not None:
        try:
            ens = simulate_ensemble(process_from_dict(meta["process"]), meta["x0"],
                                    PathGrid.from_dict(meta["grid"]), meta["seed"],
                                    meta["n_paths"],
                                    record_times=meta["times"] if meta["recorded"] else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: cannot regenerate the ensemble: {exc!r}") from exc
        got = {"spec_hash": ens.metadata()["spec_hash"], "sha256": _ensemble_sha256(ens)}
    if got != stored:
        raise ValueError(f"{path}: the manifest records {stored}, but the regenerated "
                         f"ensemble gives {got}")
    return ens
