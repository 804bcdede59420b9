"""Path simulation for symmetric stable, compound Poisson and stable-like
processes, with running suprema and first exit times.

Randomness contract: every path owns a counter-based Philox stream keyed by
(master seed, path index) through numpy's SeedSequence spawn keys.
``_philox_keys`` computes the keys of a block of paths with one vectorized
copy of SeedSequence's hash; every kernel takes its keys from it.
The stable and stable-like kinds draw a fixed layout (all uniforms, then all
exponentials, one of each per step).  Compound Poisson draws a
count-dependent layout: a jump count, then that many jump times, then that
many atom choices; it is still a fixed function of the path's own stream.
Paths are therefore reproducible bit-exactly and order-independent, in
blocks of any size and on any number of threads.

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
import operator
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


def _atomic_write(path, text):
    """Write text to a temporary file beside path, then rename it over path."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    def levy_measure(self) -> PowerLawMeasure:
        c = self.scale / (2.0 * stable_levy_constant(self.alpha))
        return PowerLawMeasure(alpha=ConstantProfile(self.alpha),
                               coefficient=ConstantProfile(c))

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
        out = np.asarray(self.scale(x), dtype=float) / (2.0 * stable_levy_constant(a))
        return float(out) if a.ndim == 0 else out

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

# numpy's SeedSequence hash constants (uint32 words, pool of four)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hashmix of uint32 words (ints or uint32 arrays) under the
    hash constant ``const``; returns the mixed words and the next constant."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - _MIX_R * y) & _M32
    return r ^ r >> 16


def _hash_consts(const, mult):
    """The constants of four successive hashmix calls from ``const``, as a
    (4, 1) uint32 column, so that one call does all four."""
    out = []
    for _ in range(4):
        out.append(const)
        const = const * mult & _M32
    return np.array(out, dtype=np.uint32)[:, None]


def _philox_keys(master_seed: int, first: int, n: int) -> np.ndarray:
    """Philox keys of paths first, ..., first + n - 1 as an (n, 2) uint64 array:
    row r is ``SeedSequence(master_seed, spawn_key=(first + r,))
    .generate_state(2, np.uint64)``, the key ``Philox(SeedSequence(...))``
    would take.  This is the only derivation of a path's stream.

    For a seed in [0, 2^128) and indices in [0, 2^32) the entropy is the
    seed's words, zero-padded to four, then the index.  The pool mixing of
    the seed words does not depend on the path, so it runs once on ints; the
    index word is then mixed into the four pool words, and the pool hashed
    into the four output words, for all paths at once.  Any other seed or
    index goes through SeedSequence, which raises ValueError on a negative
    one."""
    if not (0 <= master_seed < 2 ** 128 and 0 <= first and first + n <= 2 ** 32):
        return np.array([np.random.SeedSequence(master_seed, spawn_key=(i,))
                         .generate_state(2, np.uint64) for i in range(first, first + n)],
                        dtype=np.uint64).reshape(n, 2)
    pool, const = [], _INIT_A
    for j in range(4):
        word, const = _hashmix(master_seed >> 32 * j & _M32, const)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    index = np.arange(first, first + n, dtype=np.uint32)
    word, _ = _hashmix(index, _hash_consts(const, _MULT_A))
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], word)
    state, _ = _hashmix(pool, _hash_consts(_INIT_B, _MULT_B), _MULT_B)
    state = state.astype(np.uint64)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _rekey(gen: np.random.Generator, key) -> None:
    """Move ``gen`` to word 0 of the Philox stream with this key: zero counter,
    empty buffer, no cached 32-bit half, as a freshly built generator has."""
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": (0, 0, 0, 0), "key": key},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}


def _cms(u, w, alpha, out):
    """Chambers-Mallows-Stuck transform for symmetric stable variates, in place:
    with theta = pi (u - 1/2),

        S = sin(alpha theta) / cos(theta)^(1/alpha)
            * (cos((1 - alpha) theta) / w)^((1 - alpha) / alpha).

    u uniform on [0,1), w standard exponential; alpha a scalar or an array
    matched elementwise (state-dependent stepping).  Overwrites u and w and
    writes S into ``out``, which it returns.  ``**=`` keeps numpy's sqrt and
    square fast paths for a scalar exponent of 0.5 or 2.
    """
    u -= 0.5
    u *= np.pi
    np.maximum(w, 1e-300, out=w)
    np.multiply(u, 1.0 - alpha, out=out)
    np.cos(out, out=out)
    out /= w
    out **= (1.0 - alpha) / alpha
    np.multiply(u, alpha, out=w)
    np.sin(w, out=w)
    np.cos(u, out=u)
    u **= 1.0 / alpha
    w /= u
    out *= w
    return out


# --------------------------------------------------------------------------
# paths and ensembles
# --------------------------------------------------------------------------

@dataclass
class PathEnsemble:
    """Paths sharing one process spec and grid.

    With ``recorded=True`` the stored arrays are snapshots at a subset of the
    grid: stepping still happened on the full grid and ``running_sup`` is the
    full-grid supremum sampled at the recorded times (so it may exceed the
    cummax of the recorded positions).
    """

    process: ProcessSpec
    grid: PathGrid
    x0: float
    master_seed: int
    times: np.ndarray
    positions: np.ndarray
    running_sup: np.ndarray
    recorded: bool = False

    @property
    def n_paths(self):
        return self.positions.shape[0]

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

    def first_passage_times(self, a: float) -> np.ndarray:
        """Per path, the first stored time with running_sup >= a (nan if none):
        on a recorded ensemble, the first recorded time by which the full-grid
        path has left the ball of radius a."""
        if a <= 0.0:
            raise ValueError("radius must be positive")
        first = np.sum(self.running_sup < a, axis=1)   # running_sup is nondecreasing
        return np.append(self.times, np.nan)[first]


def simulate_ensemble(process: ProcessSpec, x0: float, grid: PathGrid,
                      master_seed: int, n_paths: int, *, record_times=None,
                      chunk_size: Optional[int] = None) -> PathEnsemble:
    """Generate n_paths independent paths; row i is path i of ``master_seed``.
    This is the only constructor, so every ensemble is what its manifest
    regenerates (``save_ensemble_jsonl``).

    ``record_times`` restricts storage to a subset of grid times while the
    stepping and the running supremum still use the full grid.

    Paths are simulated in blocks of ``chunk_size`` paths (default: about
    1 MiB of float64 per block buffer for the stable and compound-Poisson
    kernels, 2048 paths for the stable-like step loop).  The stable-like
    kernel reads each path's uniforms from word 0 of its stream and its
    exponentials from word n, and holds the draws of one tile of
    ``_STEP_TILE`` steps per block, so its memory does not grow with the
    step count.  The stable kernel shares its blocks over one thread per CPU
    this process may run on; the other two kernels run on one thread.
    Neither the block size nor the thread count changes any bit of the
    result.  A float ``master_seed``, even 1.0, raises TypeError.
    """
    master_seed = operator.index(master_seed)
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
    _simulate_into(process, x0, times, rec_idx, master_seed, positions, running_sup,
                   chunk_size)
    return PathEnsemble(process=process, grid=grid, x0=x0, master_seed=master_seed,
                        times=times[rec_idx], positions=positions, running_sup=running_sup,
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
# paths start, ..., stop - 1 at the grid columns rec_idx
# --------------------------------------------------------------------------

_BLOCK_POINTS = 2 ** 17     # grid points per block buffer (1 MiB of float64)
_STEP_LOOP_ROWS = 2048      # paths per stable-like block: the loop costs per step
_STEP_TILE = 256            # steps per stable-like draw tile: 3 x 4 MiB at 2048 paths
# threads for the stable kernel (sched_getaffinity is missing on macOS and Windows)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _simulate_into(process, x0, times, rec_idx, master_seed, positions, running_sup,
                   chunk_size=None):
    """Fill ``positions`` and ``running_sup`` (row i is path i) at the grid
    columns ``rec_idx``.  Each path reads only its own stream, so any split
    of the rows into blocks, and of the blocks over threads, gives the same
    bits.

    Each kernel call runs on one thread and takes the Philox keys of its
    blocks from ``_philox_keys``: the stable and compound-Poisson kernels
    re-key one ``Generator`` from path to path, the stable-like kernel builds
    two per path of a block, one at each end of its draws.

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
    args = (process, x0, times, rec_idx, master_seed, positions, running_sup)
    if workers == 1:
        kernel(*args, blocks)
        return
    from concurrent.futures import ThreadPoolExecutor   # kept off the import of levylil
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(kernel, *args, blocks[i::workers]) for i in range(workers)]
        for future in futures:
            future.result()


def _draw_uniform_exponential(gen, master_seed, start, u, w):
    """Row r of u and w: the uniforms, then the exponentials, of path start + r,
    drawn by re-keying ``gen`` to each path's stream in turn."""
    for key, u_row, w_row in zip(_philox_keys(master_seed, start, u.shape[0]).tolist(), u, w):
        _rekey(gen, key)
        gen.random(out=u_row)
        gen.standard_exponential(out=w_row)


def _store(positions, running_sup, rec_idx, start, stop, pos, rs):
    positions[start:stop] = pos[:, rec_idx]
    running_sup[start:stop] = rs[:, rec_idx]


def _stable_blocks(process, x0, times, rec_idx, master_seed, positions, running_sup,
                   blocks):
    """Stable increments (``_cms``), cumsum and running sup in place on three
    block buffers."""
    a = process.alpha
    step = (process.scale * np.diff(times, prepend=0.0)) ** (1.0 / a)
    rows = max(stop - start for start, stop in blocks)
    bufs = [np.empty((rows, times.size)) for _ in range(3)]
    gen = np.random.Generator(np.random.Philox(0))   # re-keyed to every path
    for start, stop in blocks:
        u, w, s = (buf[:stop - start] for buf in bufs)
        _draw_uniform_exponential(gen, master_seed, start, u, w)
        _cms(u, w, a, s)
        s *= step
        np.cumsum(s, axis=1, out=s)
        s += x0
        np.subtract(s, x0, out=u)
        np.abs(u, out=u)
        np.maximum.accumulate(u, axis=1, out=u)
        _store(positions, running_sup, rec_idx, start, stop, s, u)


def _compound_poisson_blocks(process, x0, times, rec_idx, master_seed, positions,
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
    gen = np.random.Generator(np.random.Philox(0))   # re-keyed to every path
    for start, stop in blocks:
        m = stop - start
        counts, at, pick = np.empty(m, dtype=int), [], []
        for row, key in enumerate(_philox_keys(master_seed, start, m).tolist()):
            _rekey(gen, key)
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


def _stable_like_blocks(process, x0, times, rec_idx, master_seed, positions, running_sup,
                        blocks):
    """Frozen-coefficient Euler steps over a block of paths at once; only
    recorded steps are stored.

    Each path keeps two generators on its stream for the whole block: one
    reads its uniforms from word 0, the other its exponentials from word n
    (Philox is counter-based: a generator built at counter n // 4 starts
    past n // 4 blocks of four words, and n % 4 raw words finish the skip).
    The grid is walked in tiles of ``_STEP_TILE`` steps: a tile's draws are
    filled path by path, then copied step-major so that each step reads
    contiguous rows.  The draws held never exceed three tile buffers,
    whatever the step count.
    """
    n = times.size
    dts = np.diff(times, prepend=0.0)
    slot = dict(zip(rec_idx.tolist(), range(rec_idx.size)))
    rows = max(stop - start for start, stop in blocks)
    tile = min(_STEP_TILE, n)
    fill, u_buf, w_buf = np.empty((rows, tile)), np.empty((tile, rows)), np.empty((tile, rows))
    variates = np.empty(rows)
    fixed_scale = process.scale.is_constant
    for start, stop in blocks:
        m = stop - start
        keys = _philox_keys(master_seed, start, m)
        u_gens = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
        w_gens = [np.random.Generator(np.random.Philox(key=k, counter=n // 4)) for k in keys]
        for gen in w_gens:
            gen.bit_generator.random_raw(n % 4)
        xcur = np.full(m, float(x0))
        dev = np.zeros(m)
        if fixed_scale:
            c = np.asarray(process.scale(xcur), dtype=float)
        for k0 in range(0, n, tile):
            kt = min(tile, n - k0)
            f, u, w = fill[:m, :kt], u_buf[:kt, :m], w_buf[:kt, :m]
            for gen, row in zip(u_gens, f):
                gen.random(out=row)
            u[...] = f.T
            for gen, row in zip(w_gens, f):
                gen.standard_exponential(out=row)
            w[...] = f.T
            for j, k in enumerate(range(k0, k0 + kt)):
                a = np.asarray(process.alpha(xcur), dtype=float)
                if not fixed_scale:
                    c = np.asarray(process.scale(xcur), dtype=float)
                xcur = xcur + (c * dts[k]) ** (1.0 / a) * _cms(u[j], w[j], a, variates[:m])
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
        h.update(np.ascontiguousarray(arr, dtype="<f8"))
    return h.hexdigest()


def save_ensemble_jsonl(ensemble: PathEnsemble, path, extra_metadata=None):
    """One canonical-JSON manifest line: the spec and seed that regenerate the
    ensemble, plus the SHA-256 of its arrays.  No per-path rows are written."""
    meta = ensemble.metadata()
    meta.update(extra_metadata or {})
    meta.update(n_paths=ensemble.n_paths, times=ensemble.times.tolist(),
                recorded=ensemble.recorded, sha256=_ensemble_sha256(ensemble))
    _atomic_write(path, canonical_json(meta) + "\n")


def load_ensemble_jsonl(path) -> PathEnsemble:
    """Regenerate the ensemble a manifest describes.  ValueError naming the
    file unless the regenerated spec hash and array hash match the manifest."""
    with open(path) as fh:
        line = fh.readline()
    try:
        meta = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: the first line is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: the first line is not a manifest object")
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
