"""Jump-measure specifications and state-dependent coefficient profiles.

A measure spec describes a (possibly x-dependent) Levy measure nu(x, dy) on
R \\ {0}.  Three variants are supported:

* ``PowerLawMeasure`` -- density c(x) |y|^(-1-alpha(x)) dy with a
  state-dependent index alpha(x) in a compact subinterval of (0, 2);
* ``AtomicMeasure`` -- finitely many atoms (location, mass);
* ``TabulatedMeasure`` -- density samples on a log-spaced |y| grid,
  interpreted as piecewise power-law (log-log linear) between knots; a
  panel with a zero knot carries no mass.

Coefficients that vary with x are expressed through a small set of named
profiles (constant, affine-clamped, sinusoidal, tanh-ramp); there is no
general expression parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


# --------------------------------------------------------------------------
# coefficient profiles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantProfile:
    value: float

    def __call__(self, x):
        return self.value + np.zeros_like(np.asarray(x, dtype=float))

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def bounds(self):
        return (self.value, self.value)

    @property
    def is_constant(self):
        return True

    def to_dict(self):
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class AffineClampedProfile:
    """clip(intercept + slope * x, lo, hi)."""

    intercept: float
    slope: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("affine-clamped profile needs lo <= hi")

    def __call__(self, x):
        return np.clip(self.intercept + self.slope * np.asarray(x, dtype=float), self.lo, self.hi)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        raw = self.intercept + self.slope * x
        inside = (raw > self.lo) & (raw < self.hi)
        return np.where(inside, self.slope, 0.0)

    def bounds(self):
        return (self.lo, self.hi)

    @property
    def is_constant(self):
        return self.slope == 0.0 or self.lo == self.hi

    def to_dict(self):
        return {"kind": "affine_clamped", "intercept": self.intercept,
                "slope": self.slope, "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class SinusoidalProfile:
    """center + amplitude * sin(frequency * x + phase)."""

    center: float
    amplitude: float
    frequency: float = 1.0
    phase: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.center + self.amplitude * np.sin(self.frequency * x + self.phase)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * self.frequency * np.cos(self.frequency * x + self.phase)

    def bounds(self):
        a = abs(self.amplitude)
        return (self.center - a, self.center + a)

    @property
    def is_constant(self):
        return self.amplitude == 0.0

    def to_dict(self):
        return {"kind": "sinusoidal", "center": self.center, "amplitude": self.amplitude,
                "frequency": self.frequency, "phase": self.phase}


@dataclass(frozen=True)
class TanhRampProfile:
    """center + amplitude * tanh(rate * (x - x0))."""

    center: float
    amplitude: float
    rate: float = 1.0
    x0: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.center + self.amplitude * np.tanh(self.rate * (x - self.x0))

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        sech2 = 1.0 / np.cosh(self.rate * (x - self.x0)) ** 2
        return self.amplitude * self.rate * sech2

    def bounds(self):
        a = abs(self.amplitude)
        return (self.center - a, self.center + a)

    @property
    def is_constant(self):
        return self.amplitude == 0.0

    def to_dict(self):
        d = {"kind": "tanh_ramp", "center": self.center, "amplitude": self.amplitude,
             "rate": self.rate}
        if self.x0 != 0.0:
            d["x0"] = self.x0
        return d


Profile = Union[ConstantProfile, AffineClampedProfile, SinusoidalProfile, TanhRampProfile]

_PROFILE_KINDS = {
    "constant": ConstantProfile,
    "affine_clamped": AffineClampedProfile,
    "sinusoidal": SinusoidalProfile,
    "tanh_ramp": TanhRampProfile,
}


def profile_from_dict(d) -> Profile:
    if isinstance(d, (int, float)):
        return ConstantProfile(float(d))
    kind = d.get("kind")
    if kind not in _PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {kind!r}")
    kwargs = {k: v for k, v in d.items() if k != "kind"}
    return _PROFILE_KINDS[kind](**kwargs)


def _as_profile(p) -> Profile:
    if isinstance(p, (int, float)):
        return ConstantProfile(float(p))
    return p


# --------------------------------------------------------------------------
# measure specifications
# --------------------------------------------------------------------------

NORMALIZED = "normalized"


@dataclass(frozen=True)
class PowerLawMeasure:
    """nu(x, dy) = c(x) |y|^(-1-alpha(x)) dy on R \\ {0}.

    ``coefficient`` is either a positive profile or the sentinel
    ``"normalized"``, meaning c(x) = alpha(x)(2 - alpha(x))/4 which makes the
    maximal symbol exactly |xi|^alpha(x).
    """

    alpha: Profile
    coefficient: object = NORMALIZED   # Profile | "normalized"
    truncation_radius: float = 1e8

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_profile(self.alpha))
        lo, hi = self.alpha.bounds()
        if not (0.0 < lo <= hi < 2.0):
            raise ValueError(f"alpha profile range [{lo}, {hi}] must be inside (0, 2)")
        if self.coefficient != NORMALIZED:
            object.__setattr__(self, "coefficient", _as_profile(self.coefficient))
            clo, _ = self.coefficient.bounds()
            if clo <= 0.0:
                raise ValueError("coefficient profile must be positive")
        if self.truncation_radius <= 0:
            raise ValueError("truncation_radius must be positive")

    @property
    def is_state_independent(self):
        if not self.alpha.is_constant:
            return False
        return self.coefficient == NORMALIZED or self.coefficient.is_constant

    @property
    def is_symmetric(self):
        return True

    def alpha_at(self, x):
        return float(self.alpha(x))

    def coeff_at(self, x):
        a = self.alpha_at(x)
        if self.coefficient == NORMALIZED:
            return a * (2.0 - a) / 4.0
        return float(self.coefficient(x))

    def pu_factor(self, x):
        """p^U(x, xi) = pu_factor(x) * |xi|^alpha(x); x may be an array."""
        if self.coefficient == NORMALIZED:
            return 1.0
        a = self.alpha(x)
        out = self.coefficient(x) * 4.0 / (a * (2.0 - a))
        return float(out) if np.ndim(out) == 0 else out

    def to_dict(self):
        coeff = NORMALIZED if self.coefficient == NORMALIZED else self.coefficient.to_dict()
        return {"variant": "power_law", "alpha": self.alpha.to_dict(),
                "coefficient": coeff, "truncation_radius": self.truncation_radius}


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms: nu = sum_j mass_j * delta_{loc_j}, loc_j != 0."""

    atoms: tuple      # ((location, mass), ...)

    def __post_init__(self):
        atoms = tuple((float(loc), float(mass)) for loc, mass in self.atoms)
        if not atoms:
            raise ValueError("atomic measure needs at least one atom")
        for loc, mass in atoms:
            if loc == 0.0:
                raise ValueError("atom locations must be nonzero")
            if mass <= 0.0:
                raise ValueError("atom masses must be positive")
        object.__setattr__(self, "atoms", atoms)

    @property
    def is_state_independent(self):
        return True

    @property
    def is_symmetric(self):
        """True when atoms pair up as (y, m), (-y, m)."""
        seen = {}
        for loc, mass in self.atoms:
            seen[loc] = seen.get(loc, 0.0) + mass
        return all(abs(seen.get(-loc, 0.0) - m) <= 1e-15 * max(1.0, m) for loc, m in seen.items())

    def locations(self):
        return np.array([loc for loc, _ in self.atoms])

    def masses(self):
        return np.array([m for _, m in self.atoms])

    def to_dict(self):
        return {"variant": "atomic", "atoms": [[loc, m] for loc, m in self.atoms]}


@dataclass(frozen=True)
class TabulatedMeasure:
    """Density samples on a strictly increasing log-spaced |y| grid.

    Between two positive knots the density is interpolated log-log linearly
    (piecewise power law).  A panel with a zero knot carries no mass, and the
    density vanishes outside [grid[0], grid[-1]] -- the zero tail correction
    for tabulated data.  So ``density`` needs two adjacent positive knots.
    With ``density_neg`` unset the measure is symmetric, the samples
    describing both half-lines.
    """

    grid: tuple
    density: tuple
    density_neg: tuple = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("tabulated grid needs at least two points")
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("tabulated grid must be positive and strictly increasing")
        if dens.shape != grid.shape:
            raise ValueError("density must match the grid")
        if np.any(dens < 0) or not np.any((dens[:-1] > 0) & (dens[1:] > 0)):
            raise ValueError("density must be nonnegative and positive at two adjacent knots")
        object.__setattr__(self, "grid", tuple(grid))
        object.__setattr__(self, "density", tuple(dens))
        if self.density_neg is not None:
            dn = np.asarray(self.density_neg, dtype=float)
            if dn.shape != grid.shape or np.any(dn < 0):
                raise ValueError("density_neg must match the grid and be nonnegative")
            object.__setattr__(self, "density_neg", tuple(dn))

    @property
    def is_state_independent(self):
        return True

    @property
    def is_symmetric(self):
        return self.density_neg is None

    def sides(self):
        """(weight, samples) per half-line; symmetric data carries weight 2."""
        if self.density_neg is None:
            return ((2.0, np.asarray(self.density)),)
        return ((1.0, np.asarray(self.density)), (1.0, np.asarray(self.density_neg)))

    def to_dict(self):
        d = {"variant": "tabulated", "grid": list(self.grid), "density": list(self.density)}
        if self.density_neg is not None:
            d["density_neg"] = list(self.density_neg)
        return d


MeasureSpec = Union[PowerLawMeasure, AtomicMeasure, TabulatedMeasure]


def measure_from_dict(d) -> MeasureSpec:
    variant = d.get("variant")
    if variant == "power_law":
        coeff = d.get("coefficient", NORMALIZED)
        if coeff != NORMALIZED:
            coeff = profile_from_dict(coeff)
        return PowerLawMeasure(alpha=profile_from_dict(d["alpha"]), coefficient=coeff,
                               truncation_radius=d.get("truncation_radius", 1e8))
    if variant == "atomic":
        return AtomicMeasure(atoms=tuple((a[0], a[1]) for a in d["atoms"]))
    if variant == "tabulated":
        return TabulatedMeasure(grid=tuple(d["grid"]), density=tuple(d["density"]),
                                density_neg=tuple(d["density_neg"]) if "density_neg" in d else None)
    raise ValueError(f"unknown measure variant {variant!r}")


# --------------------------------------------------------------------------
# triplet
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyTriplet:
    """(l(x), 0, nu(x, dy)).  A Gaussian part is structurally excluded."""

    measure: MeasureSpec
    drift: Profile = ConstantProfile(0.0)
    gaussian: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "drift", _as_profile(self.drift))
        if self.gaussian != 0.0:
            raise ValueError("diffusion part must be zero for this process class")

    def drift_at(self, x):
        return float(self.drift(x))

    def to_dict(self):
        return {"drift": self.drift.to_dict(), "measure": self.measure.to_dict()}

