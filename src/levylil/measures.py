"""Jump-measure specifications and state-dependent coefficient profiles.

A measure spec describes a (possibly x-dependent) Levy measure nu(x, dy) on
R \\ {0}.  Three variants are supported:

* ``PowerLawMeasure`` -- density c(x) |y|^(-1-alpha(x)) dy with a
  state-dependent index alpha(x) in a compact subinterval of (0, 2);
* ``AtomicMeasure`` -- finitely many atoms (location, mass);
* ``TabulatedMeasure`` -- density samples on a log-spaced |y| grid, held
  as panels: between two positive knots the density is the power law
  A y^b through both, and a panel with a zero knot carries no mass.

Coefficients that vary with x are expressed through a small set of named
profiles (constant, affine-clamped, sinusoidal, tanh-ramp); there is no
general expression parser.

Profiles, measure variants and processes share one dict form: a class
declared under its tag in its family's registry (``_PROFILE_KINDS``,
``_MEASURE_VARIANTS``, ``simulate._PROCESS_KINDS``) writes and reads each
field in the form ``_FIELD_FORMS`` gives its annotated type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# the declared field types besides float and Profile, keys of _FIELD_FORMS
Atoms = tuple          # ((location, mass), ...)
Samples = tuple        # one float per grid knot
Coefficient = object   # "normalized" or a Profile, such as a process's _StableCoefficient

_TAG_OF = {}   # each declared class -> its tag in its family's registry


def _declare(registry):
    """Enter ``registry`` (tag -> class, in schema order) in ``_TAG_OF``."""
    _TAG_OF.update({cls: tag for tag, cls in registry.items()})
    return registry


class _Declared:
    """A frozen dataclass declared in a registry, its tag under ``_key``."""

    _key = "kind"

    def to_dict(self):
        """Its tag, then each field not None in the form of its type; a
        subclass of a declared class writes as that class."""
        cls = next(c for c in type(self).__mro__ if c in _TAG_OF)
        return {self._key: _TAG_OF[cls],
                **{f.name: _FIELD_FORMS[f.type][1](v) for f in fields(cls)
                   if (v := getattr(self, f.name)) is not None}}


def _from_dict(registry, d, what):
    """The inverse of ``to_dict`` over ``registry``, whose classes derive from
    ``what``; a field left out takes its default.  ValueError naming the
    family for a value that is not a mapping, or naming an unknown tag or field."""
    key = what._key
    if not isinstance(d, dict):
        raise ValueError(f"a {what.__name__} is a mapping, not {d!r}")
    tag = d.get(key)
    if tag not in registry:
        raise ValueError(f"unknown {what.__name__} {key} {tag!r}")
    forms = {f.name: _FIELD_FORMS[f.type][0] for f in fields(registry[tag])}
    unknown = sorted(d.keys() - forms.keys() - {key})
    if unknown:
        raise ValueError(f"{what.__name__} {key} {tag!r} has no field {unknown[0]!r}")
    return registry[tag](**{k: forms[k](v) for k, v in d.items() if k != key})


# --------------------------------------------------------------------------
# coefficient profiles
# --------------------------------------------------------------------------

class Profile(_Declared):
    """A coefficient profile of a kind in ``_PROFILE_KINDS``, or a process's
    coefficient (``symbols._StableCoefficient``, which writes its own dict)."""


@dataclass(frozen=True)
class ConstantProfile(Profile):
    value: float

    def __call__(self, x):
        return np.full(np.shape(x), self.value, dtype=float)[()]

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def bounds(self):
        return (self.value, self.value)

    @property
    def is_constant(self):
        return True


@dataclass(frozen=True)
class AffineClampedProfile(Profile):
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


class _WaveProfile(Profile):
    """center + amplitude * w(x) with w in [-1, 1]."""

    def bounds(self):
        a = abs(self.amplitude)
        return (self.center - a, self.center + a)

    @property
    def is_constant(self):
        return self.amplitude == 0.0


@dataclass(frozen=True)
class SinusoidalProfile(_WaveProfile):
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


@dataclass(frozen=True)
class TanhRampProfile(_WaveProfile):
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


_PROFILE_KINDS = _declare({
    "constant": ConstantProfile,
    "affine_clamped": AffineClampedProfile,
    "sinusoidal": SinusoidalProfile,
    "tanh_ramp": TanhRampProfile,
})


def profile_from_dict(d) -> Profile:
    """The inverse of ``to_dict``; a number is a constant profile, a profile
    (a process's coefficient among them) itself."""
    if isinstance(d, (int, float)):
        return ConstantProfile(float(d))
    return d if isinstance(d, Profile) else _from_dict(_PROFILE_KINDS, d, Profile)


# --------------------------------------------------------------------------
# measure specifications
# --------------------------------------------------------------------------

NORMALIZED = "normalized"


class MeasureSpec(_Declared):
    """A Levy measure of a variant in ``_MEASURE_VARIANTS``; unless its
    variant says otherwise, it does not depend on x and is symmetric."""

    _key = "variant"
    is_state_independent = is_symmetric = True


@dataclass(frozen=True)
class PowerLawMeasure(MeasureSpec):
    """nu(x, dy) = c(x) |y|^(-1-alpha(x)) dy on R \\ {0}.

    ``coefficient`` is either a positive profile or the sentinel
    ``"normalized"``, meaning c(x) = alpha(x)(2 - alpha(x))/4 which makes the
    maximal symbol exactly |xi|^alpha(x).
    """

    alpha: Profile
    coefficient: Coefficient = NORMALIZED

    def __post_init__(self):
        object.__setattr__(self, "alpha", profile_from_dict(self.alpha))
        lo, hi = self.alpha.bounds()
        if not (0.0 < lo <= hi < 2.0):
            raise ValueError(f"alpha profile range [{lo}, {hi}] must be inside (0, 2)")
        if self.coefficient != NORMALIZED:
            object.__setattr__(self, "coefficient", profile_from_dict(self.coefficient))
            clo, _ = self.coefficient.bounds()
            if clo <= 0.0:
                raise ValueError("coefficient profile must be positive")

    @property
    def is_state_independent(self):
        if not self.alpha.is_constant:
            return False
        return self.coefficient == NORMALIZED or self.coefficient.is_constant

    def alpha_at(self, x):
        return float(self.alpha(x))

    def coeff_at(self, x):
        """c(x); x may be an array."""
        a = self.alpha(x)
        out = a * (2.0 - a) / 4.0 if self.coefficient == NORMALIZED else self.coefficient(x)
        return float(out) if np.ndim(out) == 0 else out

    def pu_factor(self, x):
        """p^U(x, xi) = pu_factor(x) * |xi|^alpha(x); x may be an array."""
        if self.coefficient == NORMALIZED:
            return 1.0
        a = self.alpha(x)
        out = self.coefficient(x) * 4.0 / (a * (2.0 - a))
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class AtomicMeasure(MeasureSpec):
    """Finitely many atoms: nu = sum_j mass_j * delta_{loc_j}, loc_j != 0."""

    atoms: Atoms

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


def _panels(grid, dens):
    """(y1, y2, A, b) for each panel that carries mass, with density A y^b on
    [y1, y2]: both knots positive, the power law through them.  ValueError
    when A or b is not a finite float."""
    panels = []
    for y1, y2, d1, d2 in zip(grid, grid[1:], dens, dens[1:]):
        if d1 > 0.0 and d2 > 0.0:
            b = math.log(d2 / d1) / math.log(y2 / y1)
            try:
                A = d1 / y1 ** b
            except ArithmeticError:   # y1 ** b past the float range
                A = math.inf
            if not (math.isfinite(A) and math.isfinite(b)):
                raise ValueError(f"panel [{y1}, {y2}]: its power law leaves the float range")
            panels.append((y1, y2, A, b))
    return tuple(panels)


@dataclass(frozen=True)
class TabulatedMeasure(MeasureSpec):
    """Density samples on a strictly increasing log-spaced |y| grid.

    The samples are held as panels ``(y1, y2, A, b)``, which every integral
    of the measure reads through ``sides()``: between two positive knots the
    density is the power law A y^b through both.  A panel with a zero knot
    carries no mass, and the density vanishes outside [grid[0], grid[-1]] --
    the zero tail correction for tabulated data.  So ``density`` needs two
    adjacent positive knots.  With ``density_neg`` unset the measure is
    symmetric, the samples describing both half-lines.
    """

    grid: Samples
    density: Samples
    density_neg: Samples = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("tabulated grid needs at least two points")
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("tabulated grid must be positive and strictly increasing")
        if dens.shape != grid.shape:
            raise ValueError("density must match the grid")
        object.__setattr__(self, "grid", tuple(grid))
        object.__setattr__(self, "density", tuple(dens))
        pos = _panels(grid.tolist(), dens.tolist())
        if np.any(dens < 0) or not pos:
            raise ValueError("density must be nonnegative and positive at two adjacent knots")
        sides = ((2.0, pos),)
        if self.density_neg is not None:
            dn = np.asarray(self.density_neg, dtype=float)
            if dn.shape != grid.shape or np.any(dn < 0):
                raise ValueError("density_neg must match the grid and be nonnegative")
            object.__setattr__(self, "density_neg", tuple(dn))
            sides = ((1.0, pos), (1.0, _panels(grid.tolist(), dn.tolist())))
        object.__setattr__(self, "_sides", sides)

    @property
    def is_symmetric(self):
        return self.density_neg is None

    def sides(self):
        """(weight, panels) per half-line, positive first; symmetric data
        carries weight 2."""
        return self._sides


_MEASURE_VARIANTS = _declare({
    "power_law": PowerLawMeasure,
    "atomic": AtomicMeasure,
    "tabulated": TabulatedMeasure,
})


def measure_from_dict(d) -> MeasureSpec:
    """The inverse of ``to_dict``."""
    return _from_dict(_MEASURE_VARIANTS, d, MeasureSpec)


def _coefficient_from_dict(c):
    """A power law's coefficient: "normalized", a stable one or a profile."""
    if isinstance(c, dict) and c.get("kind") == "stable_coefficient":
        from .symbols import _StableCoefficient   # a process's; no scenario names one
        return _StableCoefficient(profile_from_dict(c["alpha"]), profile_from_dict(c["scale"]))
    return c if c == NORMALIZED else profile_from_dict(c)


# the dict form of a declared field, by its annotated type: (reader, writer)
_FIELD_FORMS = {
    "float": (float, float),
    "Profile": (profile_from_dict, _Declared.to_dict),
    "Atoms": (tuple, lambda atoms: [list(atom) for atom in atoms]),
    "Samples": (tuple, list),
    "Coefficient": (_coefficient_from_dict, lambda c: c if c == NORMALIZED else c.to_dict()),
}


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
        object.__setattr__(self, "drift", profile_from_dict(self.drift))
        if self.gaussian != 0.0:
            raise ValueError("diffusion part must be zero for this process class")

    def drift_at(self, x):
        return float(self.drift(x))
