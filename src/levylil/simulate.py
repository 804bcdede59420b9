"""Path simulation for symmetric stable, compound Poisson and stable-like
processes, with running suprema and first exit times.

Randomness contract: every path owns a counter-based Philox stream derived
statelessly from (master seed, path index) via SeedSequence spawn keys; the
position inside the stream is a fixed function of the step index because each
process kind draws a fixed layout of variates.  Paths are therefore
reproducible bit-exactly and order-independent, whether generated one at a
time or inside a vectorized ensemble.

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

    Delegates to the same vectorized kernels as ensemble generation (with a
    one-path chunk) so a path is bit-identical however it is produced.
    """
    times = grid.times()
    if times.size > _MAX_POINTS:
        raise ValueError("step count overflow")
    master_seed, path_index = seed_tag
    dts = np.diff(times, prepend=0.0)
    pos, rs = _simulate_chunk(process, x0, times, dts, int(master_seed),
                              int(path_index), int(path_index) + 1)
    return PathSample(x0=x0, times=times, positions=pos[0], running_sup=rs[0],
                      seed_tag=(int(master_seed), int(path_index)))


def _cp_positions(process, x0, times, dts, gen):
    locs = np.array([l for l, _ in process.atoms])
    masses = np.array([m for _, m in process.atoms])
    probs = masses / masses.sum()
    counts = gen.poisson(lam=process.rate * dts)
    total = int(counts.sum())
    step_sums = np.zeros(times.size)
    if total > 0:
        choices = gen.choice(locs.size, size=total, p=probs)
        idx = np.repeat(np.arange(times.size), counts)
        step_sums = np.bincount(idx, weights=locs[choices], minlength=times.size)
    return x0 + process.path_drift * times + np.cumsum(step_sums)


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
                      master_seed: int, n_paths: int, *,
                      record_times=None, chunk_size: int = 2048) -> PathEnsemble:
    """Generate n_paths independent paths (paths keyed by index).

    ``record_times`` restricts storage to a subset of grid times while the
    stepping and the running supremum still use the full grid.
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
    rec_times = times[rec_idx]
    positions = np.empty((n_paths, rec_idx.size))
    running_sup = np.empty((n_paths, rec_idx.size))
    dts = np.diff(times, prepend=0.0)

    for start in range(0, n_paths, chunk_size):
        stop = min(start + chunk_size, n_paths)
        pos, rs = _simulate_chunk(process, x0, times, dts, master_seed, start, stop)
        positions[start:stop] = pos[:, rec_idx]
        running_sup[start:stop] = rs[:, rec_idx]

    return PathEnsemble(process=process, grid=grid, x0=x0, master_seed=int(master_seed),
                        times=rec_times, positions=positions, running_sup=running_sup,
                        path_indices=np.arange(n_paths),
                        recorded=rec_idx.size != times.size)


def _grid_index(times, t, tol=1e-9) -> int:
    """Index of the grid time nearest to t.  Unless ``tol`` is None, t must be
    a grid time up to that relative tolerance (ValueError otherwise)."""
    i = int(np.argmin(np.abs(times - t)))
    if tol is not None and abs(times[i] - t) > tol * max(abs(t), times[0]):
        raise ValueError(f"t={t} is not a stored grid time")
    return i


def _draw_chunk(master_seed, start, stop, n):
    u = np.empty((stop - start, n))
    w = np.empty((stop - start, n))
    for row, i in enumerate(range(start, stop)):
        gen = _path_generator(master_seed, i)
        u[row], w[row] = gen.random(n), gen.standard_exponential(n)
    return u, w


def _simulate_chunk(process, x0, times, dts, master_seed, start, stop):
    """Positions and running suprema for paths [start, stop) on the full grid."""
    if isinstance(process, SymmetricStableProcess):
        u, w = _draw_chunk(master_seed, start, stop, times.size)
        inc = (process.scale * dts) ** (1.0 / process.alpha) * _cms(u, w, process.alpha)
        pos = x0 + np.cumsum(inc, axis=1)
        return pos, np.maximum.accumulate(np.abs(pos - x0), axis=1)
    if isinstance(process, StableLikeProcess):
        u, w = _draw_chunk(master_seed, start, stop, times.size)
        n_rows = stop - start
        xcur = np.full(n_rows, float(x0))
        dev = np.zeros(n_rows)
        pos = np.empty((n_rows, times.size))
        rs = np.empty((n_rows, times.size))
        for k in range(times.size):
            a = np.asarray(process.alpha(xcur), dtype=float)
            c = np.asarray(process.scale(xcur), dtype=float)
            xcur = xcur + (c * dts[k]) ** (1.0 / a) * _cms(u[:, k], w[:, k], a)
            dev = np.maximum(dev, np.abs(xcur - x0))
            pos[:, k] = xcur
            rs[:, k] = dev
        return pos, rs
    if isinstance(process, CompoundPoissonProcess):
        n_rows = stop - start
        pos = np.empty((n_rows, times.size))
        for row, i in enumerate(range(start, stop)):
            gen = _path_generator(master_seed, i)
            pos[row] = _cp_positions(process, x0, times, dts, gen)
        return pos, np.maximum.accumulate(np.abs(pos - x0), axis=1)
    raise TypeError(f"unknown process type {type(process).__name__}")


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
