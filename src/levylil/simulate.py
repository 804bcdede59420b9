"""Path simulation for symmetric stable, compound Poisson and stable-like
processes, with running suprema and first exit times.  Each process kind is
declared once, in ``_PROCESS_KINDS``: its class, whose typed fields give its
dict form (``measures._Declared``), and its block kernel with that kernel's
fork and block-size rules.

Randomness contract: every path owns a counter-based Philox stream keyed by
(master seed, path index) through numpy's SeedSequence spawn keys.
``_philox_keys`` computes the keys of a block of paths with one vectorized
copy of SeedSequence's hash; every kernel takes its keys from it.
The stable and stable-like kinds draw a fixed layout (all uniforms, then all
exponentials, one of each per step).  Compound Poisson draws a
count-dependent layout: a jump count, then that many jump times, then that
many atom choices; it is still a fixed function of the path's own stream.
Paths are therefore reproducible bit-exactly and order-independent, in
blocks of any size and on any number of processes.

Persistence follows from the same contract: an ensemble is saved as a
one-line manifest of its spec, seed and path count plus the SHA-256 of its
arrays, and loading regenerates it and checks that hash.

Stable marginals use the Chambers-Mallows-Stuck transform, standardized so a
unit-scale variate S satisfies E e^{i xi S} = e^{-|xi|^alpha}.  Stable-like
paths use frozen-coefficient Euler stepping: the displacement over a step of
length h started at X is (scale(X) h)^{1/alpha(X)} S.  numpy picks its float64
tan and power code by CPU: these bits are those of its AVX-512 code.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import (_TAG_OF, AtomicMeasure, Atoms, ConstantProfile, LevyTriplet,
                       PowerLawMeasure, Profile, _declare, _Declared, _from_dict)
from .symbols import _StableCoefficient, stable_levy_constant

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
        object.__setattr__(self, "t_max", float(self.t_max))
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

class ProcessSpec(_Declared):
    """A process of a kind in ``_PROCESS_KINDS``."""


@dataclass(frozen=True)
class SymmetricStableProcess(ProcessSpec):
    """Levy process with characteristic exponent scale * |xi|^alpha."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must be in (0, 2)")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    @property
    def levy_triplet(self) -> LevyTriplet:
        return StableLikeProcess(ConstantProfile(self.alpha),
                                 ConstantProfile(self.scale)).levy_triplet


@dataclass(frozen=True)
class StableLikeProcess(ProcessSpec):
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
    def levy_triplet(self) -> LevyTriplet:
        return LevyTriplet(measure=PowerLawMeasure(
            alpha=self.alpha, coefficient=_StableCoefficient(self.alpha, self.scale)))


def _small_jump_mean(atoms):
    """m1 = int_{|y|<=1} y nu(dy), the mean of the compensated small jumps."""
    return sum(loc * mass for loc, mass in atoms if abs(loc) <= 1.0)


@dataclass(frozen=True)
class _CompensatedDrift(ConstantProfile):
    """The constant drift l = -path_drift - m1 of a compound-Poisson triplet,
    holding the path drift it came from: -(l + m1) need not round back to it."""

    path_drift: float = 0.0


@dataclass(frozen=True)
class CompoundPoissonProcess(ProcessSpec):
    """Finite-activity jump process: atoms plus a deterministic path drift."""

    atoms: Atoms
    path_drift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((float(l), float(m)) for l, m in self.atoms))
        AtomicMeasure(atoms=self.atoms)   # validates

    @property
    def levy_triplet(self) -> LevyTriplet:
        """(l, 0, nu) with l = -path_drift - m1: the path drift holds the
        compensation of the small jumps (``process_from_triplet`` inverts it)."""
        m1 = _small_jump_mean(self.atoms)
        return LevyTriplet(measure=AtomicMeasure(atoms=self.atoms),
                           drift=_CompensatedDrift(-self.path_drift - m1, self.path_drift))

    @property
    def rate(self):
        return sum(m for _, m in self.atoms)


def process_from_dict(d) -> ProcessSpec:
    """The inverse of ``to_dict``."""
    return _from_dict(_PROCESS_CLASSES, d, ProcessSpec)


def process_from_triplet(triplet: LevyTriplet) -> ProcessSpec:
    """The one map from a triplet to a sampler, the inverse of ``levy_triplet``:
    atoms give compound Poisson with path drift -(l + m1), or the path drift
    that ``levy_triplet`` put in l when it gives this l.  A power law
    without drift gives the stable kernel at a constant index, or the
    stable-like one when its coefficient holds a stable index and scale,
    which come back as they are."""
    measure = triplet.measure
    if isinstance(measure, AtomicMeasure):
        if not triplet.drift.is_constant:
            raise ValueError("state-dependent drift is not a Levy process")
        l, m1 = triplet.drift_at(0.0), _small_jump_mean(measure.atoms)
        drift = triplet.drift
        if isinstance(drift, _CompensatedDrift) and -drift.path_drift - m1 == l:
            return CompoundPoissonProcess(atoms=measure.atoms, path_drift=drift.path_drift)
        return CompoundPoissonProcess(atoms=measure.atoms, path_drift=-(l + m1))
    if not isinstance(measure, PowerLawMeasure):
        raise ValueError(f"no sampler for a {_TAG_OF[type(measure)]} measure")
    if not (triplet.drift.is_constant and triplet.drift_at(0.0) == 0.0):
        raise ValueError("power-law triplets are simulated without drift")
    coeff = measure.coefficient
    if isinstance(coeff, _StableCoefficient):
        if measure.is_state_independent:
            return SymmetricStableProcess(alpha=measure.alpha_at(0.0),
                                          scale=float(coeff.scale(0.0)))
        return StableLikeProcess(alpha=coeff.alpha, scale=coeff.scale)
    if not measure.is_state_independent:
        raise ValueError("no exact sampler for a state-dependent power_law measure; "
                         "give this law as a stable_like 'process'")
    a = measure.alpha_at(0.0)
    scale = measure.coeff_at(0.0) * 2.0 * stable_levy_constant(a)
    return SymmetricStableProcess(alpha=a, scale=scale)


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


class _KeySeq(np.random.bit_generator.ISeedSequence):
    """``Philox(_KeySeq(k))`` is ``Philox(key=k)`` without its unused OS entropy."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _cms(u, w, alpha, out, tmp):
    """Chambers-Mallows-Stuck transform for symmetric stable variates, in place:
    with theta = pi (u - 1/2),

        S = sin(alpha theta) / cos(theta)^(1/alpha)
            * (cos((1 - alpha) theta) / w)^((1 - alpha) / alpha).

    u uniform on [0,1), w standard exponential; alpha a scalar or an array
    matched elementwise (state-dependent stepping).  Overwrites u, w and the
    scratch ``tmp``; S goes into ``out``, which it returns.  ``**=`` keeps
    numpy's sqrt and square fast paths for a scalar exponent of 0.5 or 2.

    The two halves can be called apart: ``_cms_prepare`` does not depend on
    alpha, so the stable-like kernel runs it once per tile of draws.
    """
    _cms_prepare(u, w)
    one_minus = 1.0 - alpha
    return _cms_finish(u, w, alpha * (np.pi / 2), one_minus * (np.pi / 2), one_minus / alpha,
                       1.0 / alpha, out, tmp)


def _cms_prepare(u, w):
    """u - 1/2 into u (exact) and w floored at 1e-300, in place."""
    u -= 0.5
    np.maximum(w, 1e-300, out=w)


def _cms_finish(v, w, half_alpha, half_one_minus, ratio, inverse, out, tmp):
    """The alpha-dependent half of ``_cms`` on prepared draws v = u - 1/2 and
    w, given pi alpha / 2, pi (1 - alpha) / 2, (1 - alpha) / alpha and
    1 / alpha; overwrites v, w and ``tmp``.  Under AVX-512 numpy's float64 tan
    is SIMD, its sin and cos scalar libm, so each factor is a function of the
    tangent t of half its angle: sin(alpha theta) = 2t / (1 + t^2), and so is
    cos(theta) = sin(pi delta); cos((1 - alpha) theta) = (1 - t)(1 + t) /
    (1 + t^2).  delta = 1/2 - |v| = min(u, 1 - u) is exact, so cos(theta)
    keeps its relative accuracy as u nears 0 or 1."""
    np.multiply(v, half_one_minus, out=out)
    np.tan(out, out=out)
    np.multiply(out, out, out=tmp)
    tmp += 1.0
    w *= tmp
    np.subtract(1.0, out, out=tmp)
    out += 1.0
    out *= tmp
    out /= w
    out **= ratio
    np.multiply(v, half_alpha, out=w)
    np.abs(v, out=v)
    np.subtract(0.5, v, out=v)
    v *= np.pi / 2
    for t in (w, v):   # sin(alpha theta), then cos(theta)
        np.tan(t, out=t)
        np.multiply(t, t, out=tmp)
        tmp += 1.0
        t += t
        t /= tmp
    v **= inverse
    w /= v
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

    Paths are simulated in blocks of ``chunk_size`` paths.  By default the
    stable and compound-Poisson kernels take 2^17 / (grid points) paths per
    block, so a stable block buffer is 1 MiB of float64; a compound-Poisson
    block holds only its jumps and its stored columns.  The stable-like
    step loop takes n_paths / (workers) paths per block, at most 2048.  The
    stable-like kernel reads each path's uniforms from word 0 of its stream
    and its exponentials from word n, and holds the draws of one tile of
    ``_STEP_TILE`` steps per block in two buffers, so its memory does not
    grow with the step count.  On Linux the stable and stable-like kernels
    share their blocks over one process per CPU this process may run on: this
    one and forked children, which write their rows straight into
    ``positions`` and ``running_sup``, the two halves of one shared anonymous
    mapping.  Elsewhere, and always for compound Poisson, the kernel runs on
    one worker.  An ensemble that no child writes lies in private memory.
    Neither the block size nor the worker count changes any bit of the
    result.  A float ``master_seed``, even 1.0, raises TypeError; ``x0`` is a
    float, so 0 and 0.0 give one spec hash."""
    master_seed, x0 = operator.index(master_seed), float(x0)
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
    positions, running_sup = _simulate_into(process, x0, times, rec_idx, master_seed, n_paths,
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
_STEP_LOOP_ROWS = 2048      # most paths per stable-like block: the loop costs per step
_STEP_TILE = 256            # steps per stable-like draw tile: 2 x 4 MiB at 2048 paths
_FILL_ROWS = 64             # paths per path-major fill of a tile: 128 KiB, stays in cache
# processes per stable or stable-like ensemble on Linux: this one and forked
# children (sched_getaffinity is missing on macOS and Windows)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_FORK = sys.platform.startswith("linux")


def _simulate_into(process, x0, times, rec_idx, master_seed, n, chunk_size=None):
    """``positions`` and ``running_sup`` of n paths (row i is path i) at the
    grid columns ``rec_idx``, from the block kernel of the process's kind in
    ``_PROCESS_KINDS``.  Each path reads only its own stream, so any split
    of the rows into blocks, and of the blocks over workers, gives the same
    bits.

    On Linux worker ``i`` of ``_WORKERS`` takes blocks i, i + workers, ...
    of a kind whose kernel forks, and every worker but this process is a
    forked child (``_forked``), so the arrays are then allocated in one
    shared mapping, else in private memory.  Processes, not threads: the
    stable-like kernel runs about 30 short ufuncs per step, whose GIL
    hand-offs made two threads slower than one, and the stable kernel's 2-D
    cumsum, accumulate and reduceat hold the GIL.  The stable-like blocks
    shrink to share the paths over the workers.  Compound Poisson runs
    per-path Python in this process.
    """
    kind = _TAG_OF.get(type(process))
    if kind not in _PROCESS_KINDS:
        raise TypeError(f"unknown process type {type(process).__name__}")
    _, kernel, forks, rows = _PROCESS_KINDS[kind]
    workers = _WORKERS if _FORK and forks else 1
    if chunk_size is None:
        chunk_size = rows(n, times.size, workers)
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    blocks = [(b, min(b + chunk_size, n)) for b in range(0, n, chunk_size)]
    workers = min(workers, len(blocks)) if rec_idx.size else 0
    shape = (2, n, rec_idx.size)
    if workers > 1:
        import mmap   # kept off the import of levylil; mmap(-1, size) is shared, anonymous
        positions, running_sup = np.frombuffer(mmap.mmap(-1, 8 * np.prod(shape))).reshape(shape)
    else:
        positions, running_sup = np.empty(shape)
    args = (process, x0, times, rec_idx, master_seed, positions, running_sup)
    if workers == 1:
        kernel(*args, blocks)
    elif workers:
        _forked(kernel, kind.replace("_", "-"), args,
                [blocks[i::workers] for i in range(workers)])
    return positions, running_sup


def _note(exc, text):
    """Attach ``text`` to ``exc`` as ``BaseException.add_note`` does (Python
    3.11 prints it under the traceback; 3.10 keeps it in ``__notes__``)."""
    exc.__notes__ = [*getattr(exc, "__notes__", ()), text]
    return exc


def _forked(kernel, name, args, shares):
    """Run the block ``kernel`` (its ``name`` goes into failure notes) on each
    share of blocks, the first share in this process and each other one in a
    forked child.  Every worker writes its rows straight into ``positions``
    and ``running_sup``, which must lie in a shared mapping.

    A child runs its share and leaves through ``os._exit``: no atexit handler
    runs and no stdio buffer of the parent is flushed twice.  A child that
    raises sends the exception, pickled with its traceback text, through a
    pipe and exits with status 1; this process raises the same exception,
    with a note naming the kernel, the child's path rows and that traceback,
    so a failure has the type it has on one worker.  An exception in this
    process's own share gets the same note; its children are killed first.
    Every child is reaped before this returns or raises.
    """
    import pickle
    import signal
    import traceback
    import warnings
    rows = [", ".join(f"[{start}, {stop})" for start, stop in share) for share in shares]
    parent, children = os.getpid(), {}   # pid -> (read end of its pipe, its share's index)
    try:
        for i, share in enumerate(shares[1:], 1):
            read_end, write_end = os.pipe()
            # Python 3.12 warns that fork() in a multi-threaded process (numpy's
            # BLAS pool is running) may deadlock the child.  This child runs only
            # numpy ufuncs and fills of generators it builds itself, takes no
            # lock that another thread can hold, and exits through os._exit.
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is "
                                            r"multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    kernel(*args, share, parent=parent)
                    status = 0
                except BaseException as exc:
                    text = traceback.format_exc()
                    try:   # only an exception that round-trips is sent
                        payload = pickle.dumps((exc, text))
                        pickle.loads(payload)
                    except Exception:
                        payload = pickle.dumps((None, text))
                    os.write(write_end, payload)
                finally:
                    os._exit(status)
            os.close(write_end)
            children[pid] = (read_end, i)
        try:
            kernel(*args, shares[0])
        except Exception as exc:
            _note(exc, f"raised in the {name} kernel on path rows {rows[0]}")
            raise
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        ended = []   # (share index, payload, exit status) of each child
        for pid, (read_end, i) in children.items():
            with os.fdopen(read_end, "rb") as pipe:
                payload = pipe.read()
            ended.append((i, payload, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for i, payload, status in ended:
        if status:
            exc, text = pickle.loads(payload) if payload else (None, "")   # none if killed
            raise _note(exc if exc is not None else RuntimeError(f"exited with status {status}"),
                        f"raised in the {name} kernel's worker process on path rows "
                        f"{rows[i]}\n{text}")


def _draw_uniform_exponential(gen, master_seed, start, u, w):
    """Row r of u and w: the uniforms, then the exponentials, of path start + r,
    drawn by re-keying ``gen`` to each path's stream in turn."""
    for key, u_row, w_row in zip(_philox_keys(master_seed, start, u.shape[0]).tolist(), u, w):
        _rekey(gen, key)
        gen.random(out=u_row)
        gen.standard_exponential(out=w_row)


def _stable_blocks(process, x0, times, rec_idx, master_seed, positions, running_sup,
                   blocks, parent=None):
    """Stable increments (``_cms``, with a scratch block), cumsum and running
    sup in place, beside two block buffers of draws: in the block's rows of
    ``positions`` and ``running_sup`` when every grid column is stored,
    otherwise in a fourth buffer, from which the stored columns are gathered.

    When the stored columns are at most 1/8 of the grid, the running sup at
    them is the running max of the segment maxima of |X - x0| between
    stored columns (``np.maximum.reduceat``); otherwise it is one row-wise
    ``np.maximum.accumulate``.  Max is exact, so both give the same bits.
    On a 32 x 4097 block, segment maxima measured even with the accumulate
    at a mean segment of 8 columns, 2-30 times faster at 12 to 315, and
    1.4-2 times slower at 1 or 2.

    A forked worker passes the pid of its ``parent``; the worker exits at the
    next block once that process is gone."""
    a = process.alpha
    step = (process.scale * np.diff(times, prepend=0.0)) ** (1.0 / a)
    last = rec_idx[-1] + 1
    full = rec_idx.size == times.size
    seg_starts = (np.concatenate(([0], rec_idx[:-1] + 1))
                  if 8 * rec_idx.size <= times.size else None)
    rows = max(stop - start for start, stop in blocks)
    bufs = [np.empty((rows, times.size)) for _ in range(3 if full else 4)]
    gen = np.random.Generator(np.random.Philox(0))   # re-keyed to every path
    for start, stop in blocks:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        u, w, tmp = (buf[:stop - start] for buf in bufs[:3])
        s = positions[start:stop] if full else bufs[3][:stop - start]
        _draw_uniform_exponential(gen, master_seed, start, u, w)
        _cms(u, w, a, s, tmp)
        s *= step
        np.cumsum(s, axis=1, out=s)
        s += x0
        if not full:
            positions[start:stop] = s[:, rec_idx]
        dev = running_sup[start:stop] if full else u[:, :last]
        np.subtract(s[:, :last], x0, out=dev)
        np.abs(dev, out=dev)
        if seg_starts is None:
            np.maximum.accumulate(dev, axis=1, out=dev)
            if not full:
                running_sup[start:stop] = dev[:, rec_idx]
        else:
            np.maximum.accumulate(np.maximum.reduceat(dev, seg_starts, axis=1), axis=1,
                                  out=running_sup[start:stop])


def _compound_poisson_blocks(process, x0, times, rec_idx, master_seed, positions,
                             running_sup, blocks):
    """Exact compound Poisson.  Each path draws a Poisson(rate t_max) jump
    count k, then k jump times uniform on (0, t_max], each added at the first
    grid time at or after it, then k atoms by inverse CDF of the masses.

    A block's work is per jump and per stored column, never per grid step.
    The occupied cells of a path are its events.  Each event sums its jumps
    in draw order from +0.0 (``np.bincount``), and the sequential prefix
    sums C of a path's events give X at grid index j as C + base[j], with C
    the prefix up to the last event at or before j.  That is the dense cumsum
    of the cell sums bit for bit: an empty cell adds +0.0, and no cell sum
    is -0.0.  Between events fl(fl(C + base[j]) - x0) is monotone in j,
    because base is, so |X - x0| peaks at an end of each stretch: an event
    cell, the cell before one, or a stored column.  Index 0 is not needed:
    before the first event fl(base[j] - x0) has the sign of the drift at
    every j, so its modulus grows along the stretch.  Each end joins the
    next stored column, and a running max over those gives the sup."""
    n, t_max = times.size, times[-1]
    locs = np.array([loc for loc, _ in process.atoms])
    cdf = np.cumsum([mass for _, mass in process.atoms])
    cdf /= cdf[-1]
    base = x0 + process.path_drift * times
    lam = process.rate * t_max
    n_rec = rec_idx.size
    slot_of = np.searchsorted(rec_idx, np.arange(n))   # next stored column; n_rec past the last
    gen = np.random.Generator(np.random.Philox(0))   # re-keyed to every path
    for start, stop in blocks:
        m = stop - start
        counts, at, pick = np.empty(m, dtype=int), [], []
        for row, key in enumerate(_philox_keys(master_seed, start, m).tolist()):
            _rekey(gen, key)
            counts[row] = k = gen.poisson(lam)
            at.append(gen.random(k))
            pick.append(gen.random(k))
        row_keys = np.arange(m) * n
        cells = (np.repeat(row_keys, counts)
                 + np.searchsorted(times, t_max * (1.0 - np.concatenate(at)), side="left"))
        jumps = locs[np.searchsorted(cdf, np.concatenate(pick), side="right")]
        events, cell_of = np.unique(cells, return_inverse=True)   # in (row, cell) order
        ev_row, ev_cell = np.divmod(events, n)
        first = np.searchsorted(events, row_keys)
        rank = np.arange(events.size) - first[ev_row]
        # prefix[r, i]: the sum of the first i events of row r
        prefix = np.zeros((m, np.bincount(ev_row, minlength=m).max() + 1))
        prefix[ev_row, rank + 1] = np.bincount(cell_of, jumps, events.size)
        np.cumsum(prefix, axis=1, out=prefix)
        # upto[r, q]: the events of row r at or before stored column q
        upto = np.bincount(ev_row * (n_rec + 1) + slot_of[ev_cell], minlength=m * (n_rec + 1))
        upto = np.cumsum(upto.reshape(m, n_rec + 1)[:, :n_rec], axis=1)
        pos = prefix[np.arange(m)[:, None], upto]
        pos += base[rec_idx]
        positions[start:stop] = pos
        dev = np.abs(pos - x0)
        if n_rec < n:   # otherwise every stretch end is a stored column
            # stretch ends: each event cell and the cell before it, with the
            # number of the row's events at or before each
            end_row = np.concatenate((ev_row, ev_row))
            end_cell = np.concatenate((ev_cell, ev_cell - 1))
            end_upto = np.concatenate((rank + 1, rank))
            keep = (end_cell >= 0) & (end_cell <= rec_idx[-1])
            end_row, end_cell, end_upto = end_row[keep], end_cell[keep], end_upto[keep]
            x = prefix[end_row, end_upto]
            x += base[end_cell]
            np.maximum.at(dev, (end_row, slot_of[end_cell]), np.abs(x - x0))
        np.maximum.accumulate(dev, axis=1, out=running_sup[start:stop])


def _stable_like_blocks(process, x0, times, rec_idx, master_seed, positions, running_sup,
                        blocks, parent=None):
    """Frozen-coefficient Euler steps over a block of paths at once; only
    recorded steps are stored.

    Each path keeps two generators on its stream for the whole block: one
    reads its uniforms from word 0, the other its exponentials from word n
    (Philox is counter-based: a generator built at counter n // 4 starts
    past n // 4 blocks of four words, and n % 4 raw words finish the skip).
    The grid is walked in tiles of ``_STEP_TILE`` steps: a tile's draws are
    filled path by path, ``_FILL_ROWS`` paths at a time, into a scratch whose
    transpose goes to the step-major ``u`` and ``w`` while still in cache, so
    each step reads contiguous rows.  The draws held never exceed two tile
    buffers and the scratch, whatever the step count.  ``_cms_prepare`` runs
    once per tile, and each step writes into per-block rows allocated once.

    A forked worker passes the pid of its ``parent``; the worker exits at the
    next tile once that process is gone.
    """
    n = times.size
    dts = np.diff(times, prepend=0.0)
    slot = dict(zip(rec_idx.tolist(), range(rec_idx.size)))
    rows = max(stop - start for start, stop in blocks)
    tile = min(_STEP_TILE, n)
    fill, draw_bufs = np.empty((_FILL_ROWS, tile)), np.empty((2, tile * rows))
    # per step: position, running sup, step factor (first the CMS scratch),
    # variate; pi a / 2, pi (1 - a) / 2, (1 - a) / a, 1 / a
    row_bufs = np.empty((8, rows))
    for start, stop in blocks:
        m = stop - start
        keys = _philox_keys(master_seed, start, m)
        u_gens = [np.random.Generator(np.random.Philox(_KeySeq(k))) for k in keys]
        w_gens = [np.random.Generator(np.random.Philox(_KeySeq(k), counter=n // 4)) for k in keys]
        for gen in w_gens:
            gen.bit_generator.random_raw(n % 4)
        x, dev, fac, var, half_a, half_one_minus, ratio, inverse = row_bufs[:, :m]
        x.fill(x0)
        dev.fill(0.0)
        for k0 in range(0, n, tile):
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            kt = min(tile, n - k0)
            u, w = (buf[:kt * m].reshape(kt, m) for buf in draw_bufs)
            for p0 in range(0, m, _FILL_ROWS):
                p1 = min(p0 + _FILL_ROWS, m)
                f = fill[:p1 - p0, :kt]
                for gen, row in zip(u_gens[p0:p1], f):
                    gen.random(out=row)
                u[:, p0:p1] = f.T
                for gen, row in zip(w_gens[p0:p1], f):
                    gen.standard_exponential(out=row)
                w[:, p0:p1] = f.T
            _cms_prepare(u, w)
            for j, k in enumerate(range(k0, k0 + kt)):
                a = np.asarray(process.alpha(x), dtype=float)
                c = np.asarray(process.scale(x), dtype=float)
                np.multiply(a, np.pi / 2, out=half_a)
                np.subtract(1.0, a, out=half_one_minus)
                np.divide(half_one_minus, a, out=ratio)
                half_one_minus *= np.pi / 2
                np.divide(1.0, a, out=inverse)
                _cms_finish(u[j], w[j], half_a, half_one_minus, ratio, inverse, var, fac)
                np.multiply(c, dts[k], out=fac)
                fac **= inverse
                fac *= var
                x += fac
                np.subtract(x, x0, out=var)
                np.abs(var, out=var)
                np.maximum(dev, var, out=dev)
                if k in slot:
                    positions[start:stop, slot[k]] = x
                    running_sup[start:stop, slot[k]] = dev


def _grid_rows(n, points, workers):
    return max(1, _BLOCK_POINTS // points)


# every process kind by its dict ``kind``, in schema order: (class, block kernel,
# whether the kernel forks, default paths per block rows(n_paths, grid_points, workers))
_PROCESS_KINDS = {
    "stable": (SymmetricStableProcess, _stable_blocks, True, _grid_rows),
    "stable_like": (StableLikeProcess, _stable_like_blocks, True,
                    lambda n, points, workers: max(1, min(_STEP_LOOP_ROWS, -(-n // workers)))),
    "compound_poisson": (CompoundPoissonProcess, _compound_poisson_blocks, False, _grid_rows),
}
_PROCESS_CLASSES = _declare({kind: cls for kind, (cls, *_) in _PROCESS_KINDS.items()})


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
