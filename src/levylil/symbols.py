"""Characteristic exponents, maximal symbols and sector/envelope estimates.

For a triplet (l(x), 0, nu(x, dy)) the exponent is

    p(x, xi) = i l(x) xi + int (1 - e^{i xi y} + i xi y 1_{|y| <= 1}) nu(x, dy)

and the maximal symbol is p^U(x, xi) = int min(|xi y|^2, 1) nu(x, dy).

Power-law measures admit closed forms for both; the quadrature route is kept
as an independent evaluation path (log-spaced panels with mandatory
breakpoints at the integrand kink |y| = 1/|xi| and at the compensation cutoff
|y| = 1, analytic tail correction beyond the truncation radius, oscillatory
outer integrals through cos/sin-weighted Gauss quadrature).  Symmetric
measures are evaluated through the real cosine form so the imaginary part is
exactly zero.

Every quadrature runs at absolute tolerance 1e-10, relative tolerance 1e-8
and at most 200 subintervals per panel, and fails with ``QuadratureError``
when the accumulated error estimate exceeds 100 times that tolerance.  All
operations are pure and deterministic; the only shared state is the
thread-safe memo of ``stable_levy_constant``, so concurrent invocation is
safe.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureError, SectorViolationError
from .measures import (AtomicMeasure, ConstantProfile, LevyTriplet, MeasureSpec,
                       PowerLawMeasure)

_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_LIMIT = 200
_ERROR_MARGIN = 100.0   # accept up to margin * tolerance of accumulated estimate
_METHODS = ("auto", "closed", "quadrature")


def stable_levy_constant(alpha: float) -> float:
    """int_0^inf (1 - cos u) u^(-1-alpha) du for alpha in (0, 2), as a float.

    Equals Gamma(2-alpha) cos(pi alpha / 2) / (alpha (1-alpha)), extended
    continuously through alpha = 1 where the value is pi/2.
    """
    return _stable_levy_constant(float(alpha))


@functools.lru_cache(maxsize=4096)
def _stable_levy_constant(alpha: float) -> float:
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must be in (0, 2)")
    # cos(pi a/2)/(1-a) = (pi/2) sinc((1-a)/2) removes the alpha=1 singularity
    return math.gamma(2.0 - alpha) * (math.pi / 2.0) * float(np.sinc((1.0 - alpha) / 2.0)) / alpha


class _ErrorBudget:
    """Accumulates absolute-error estimates across quadrature panels."""

    def __init__(self):
        self.total = 0.0

    def add(self, err):
        self.total += abs(err)

    def check(self, value, what):
        if self.total > max(_ABS_TOL, _REL_TOL * abs(value)) * _ERROR_MARGIN:
            raise QuadratureError(
                f"quadrature failure in {what}: achieved error estimate {self.total:.3e} "
                f"exceeds budget for value {value:.6e}",
                achieved_error=self.total,
            )


def _quad(f, a, b, budget, weight=None, wvar=None):
    if b <= a:
        return 0.0
    kwargs = dict(epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_LIMIT)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar)
    # imported here, its only use: most runs never integrate numerically
    from scipy import integrate
    with warnings.catch_warnings():
        # tolerance shortfalls are handled through the explicit error budget
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, **kwargs)
    budget.add(err)
    return val


def _quad_octaves(f, a, b, budget, weight, wvar):
    """Weighted quadrature panelized in octaves (stable for wide ranges of a
    slowly decaying amplitude under an oscillatory weight)."""
    total = 0.0
    lo = a
    while lo < b:
        hi = min(2.0 * lo, b)
        total += _quad(f, lo, hi, budget, weight=weight, wvar=wvar)
        lo = hi
    return total


def _quad_log_panels(f, s_min, s_max, budget):
    """Plain quadrature over log-spaced panels of width at most 4."""
    total = 0.0
    lo = s_min
    while lo < s_max:
        hi = min(lo + 4.0, s_max)
        total += _quad(f, lo, hi, budget)
        lo = hi
    return total


# --------------------------------------------------------------------------
# tabulated-measure panel integrals (piecewise power law between knots)
# --------------------------------------------------------------------------

def _panel_coeffs(y1, y2, d1, d2):
    """Power-law coefficients (A, b) with d(y) = A y^b through both knots."""
    b = math.log(d2 / d1) / math.log(y2 / y1)
    return d1 / y1 ** b, b


def _panels(grid, dens):
    """(y1, y2, A, b) for each panel of one tabulated side that carries mass.

    The density is A y^b on [y1, y2] when both knots are positive; a panel
    with a zero knot carries no mass, and nothing lies outside the grid.
    """
    g = np.asarray(grid, dtype=float)
    d = np.asarray(dens, dtype=float)
    for i in range(len(g) - 1):
        if d[i] > 0.0 and d[i + 1] > 0.0:
            yield (g[i], g[i + 1]) + _panel_coeffs(g[i], g[i + 1], d[i], d[i + 1])


def _power_moment(A, b, p, lo, hi):
    """int_lo^hi A y^(b+p) dy."""
    q = b + p + 1.0
    if abs(q) < 1e-12:
        return A * math.log(hi / lo)
    return A * (hi ** q - lo ** q) / q


def _tab_moment(grid, dens, p, lo=0.0, hi=math.inf):
    """int y^p d(y) dy over [lo, hi] for one tabulated side."""
    total = 0.0
    for y1, y2, A, b in _panels(grid, dens):
        a, c = max(y1, lo), min(y2, hi)
        if c > a:
            total += _power_moment(A, b, p, a, c)
    return total


def _tab_density_fn(grid, dens) -> Callable:
    """The log-log interpolant as a function of y (zero on a zero-knot panel)."""
    g = np.log(np.asarray(grid, dtype=float))
    with np.errstate(divide="ignore"):
        ld = np.log(np.asarray(dens, dtype=float))

    def f(y):
        y = np.asarray(y, dtype=float)
        out = np.exp(np.interp(np.log(np.maximum(y, 1e-300)), g, ld))
        return np.where((y >= grid[0]) & (y <= grid[-1]), out, 0.0)

    return f


# --------------------------------------------------------------------------
# maximal symbol p^U and tail mass
# --------------------------------------------------------------------------

def tail_mass(measure: MeasureSpec, x: float, r: float) -> float:
    """nu(x, {|y| > r}); monotone decreasing in r."""
    if r <= 0:
        raise ValueError("r must be positive")
    if isinstance(measure, AtomicMeasure):
        return float(np.sum(measure.masses()[np.abs(measure.locations()) > r]))
    if isinstance(measure, PowerLawMeasure):
        a = measure.alpha_at(x)
        return float(2.0 * measure.coeff_at(x) * r ** (-a) / a)
    return float(sum(w * _tab_moment(measure.grid, dens, 0, lo=r)
                     for w, dens in measure.sides()))


def eval_pU(measure: MeasureSpec, x: float, xi: float, *, method: str = "auto") -> float:
    """int min(|xi y|^2, 1) nu(x, dy); even in xi, zero at xi = 0."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if xi == 0.0:
        return 0.0
    axi = abs(xi)
    if isinstance(measure, AtomicMeasure):
        locs, masses = measure.locations(), measure.masses()
        return float(np.sum(masses * np.minimum((axi * locs) ** 2, 1.0)))
    if isinstance(measure, PowerLawMeasure):
        if method in ("auto", "closed"):
            return float(measure.pu_factor(x) * axi ** measure.alpha_at(x))
        return float(_pu_power_law_quadrature(measure, x, axi))
    if method == "closed":
        raise ValueError("no closed form for tabulated measures")
    k = 1.0 / axi
    total = 0.0
    for w, dens in measure.sides():
        total += w * (axi ** 2 * _tab_moment(measure.grid, dens, 2, hi=k)
                      + _tab_moment(measure.grid, dens, 0, lo=k))
    return float(total)


def check_integrability(measure: MeasureSpec, x: float = 0.0) -> float:
    """int min(1, y^2) nu(x, dy), which is p^U(x, 1) and must be finite."""
    return eval_pU(measure, x, 1.0)


def _pu_power_law_quadrature(measure, x, axi):
    a = measure.alpha_at(x)
    c = measure.coeff_at(x)
    k = 1.0 / axi
    budget = _ErrorBudget()
    # inner quadratic part in log space: integrand xi^2 e^{(2-a)s}
    s_top = math.log(k)
    s_min = s_top - 40.0 / (2.0 - a)
    inner = _quad_log_panels(lambda s: axi ** 2 * math.exp((2.0 - a) * s),
                             s_min, s_top, budget)
    budget.add(axi ** 2 * math.exp((2.0 - a) * s_min) / (2.0 - a))
    # outer flat part up to the truncation radius, analytic tail beyond
    rt = max(measure.truncation_radius, 2.0 * k)
    outer = _quad_log_panels(lambda s: math.exp(-a * s), s_top, math.log(rt), budget)
    tail = rt ** (-a) / a
    value = 2.0 * c * (inner + outer + tail)
    budget.check(value, "p^U quadrature")
    return value


# --------------------------------------------------------------------------
# characteristic exponent
# --------------------------------------------------------------------------

def eval_exponent(triplet: LevyTriplet, x: float, xi: float, *,
                  method: str = "auto") -> complex:
    """p(x, xi) = i l(x) xi + int (1 - e^{i xi y} + i xi y 1_{|y|<=1}) nu(x, dy)."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if xi == 0.0:
        return complex(0.0, 0.0)
    measure = triplet.measure
    drift_im = triplet.drift_at(x) * xi
    if isinstance(measure, AtomicMeasure):
        re, im = _exponent_atomic(measure, xi)
    elif isinstance(measure, PowerLawMeasure):
        if method in ("auto", "closed"):
            a = measure.alpha_at(x)
            re = measure.coeff_at(x) * 2.0 * stable_levy_constant(a) * abs(xi) ** a
        else:
            re = _exponent_power_law_quadrature(measure, x, xi)
        im = 0.0
    else:
        re, im = _exponent_tabulated(measure, xi)
    if re < 0.0:
        if re < -_ABS_TOL:
            raise QuadratureError(f"negative real part {re:.3e} from quadrature")
        re = 0.0
    value = complex(re, im + drift_im)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise QuadratureError("non-finite exponent value")
    return value


def _exponent_atomic(measure, xi):
    if measure.is_symmetric:
        locs, masses = measure.locations(), measure.masses()
        return float(np.sum(masses * 2.0 * np.sin(0.5 * xi * locs) ** 2)), 0.0
    re = im = 0.0
    for loc, mass in measure.atoms:
        theta = xi * loc
        re += mass * 2.0 * math.sin(0.5 * theta) ** 2
        im += mass * ((theta if abs(loc) <= 1.0 else 0.0) - math.sin(theta))
    return re, im


def _exponent_power_law_quadrature(measure, x, xi):
    """Re p for a symmetric power-law density through log-panel quadrature."""
    a = measure.alpha_at(x)
    c = measure.coeff_at(x)
    axi = abs(xi)
    k = 1.0 / axi
    budget = _ErrorBudget()
    # smooth inner region, log space: (1 - cos(xi e^s)) e^{-a s}
    s_top = math.log(k)
    s_min = s_top - 40.0 / (2.0 - a)

    def inner_integrand(s):
        theta = axi * math.exp(s)
        if theta < 1e-6:
            # series form; the factored form overflows for very negative s
            return 0.5 * axi * axi * math.exp((2.0 - a) * s) * (1.0 - theta * theta / 12.0)
        return 2.0 * math.sin(0.5 * theta) ** 2 * math.exp(-a * s)

    inner = _quad_log_panels(inner_integrand, s_min, s_top, budget)
    budget.add(axi ** 2 * math.exp((2.0 - a) * s_min) / (2.0 * (2.0 - a)))
    # exact mass of (k, inf) minus the oscillatory cosine integral
    mass = k ** (-a) / a
    osc_tol = max(_ABS_TOL, _REL_TOL * mass) / 10.0
    r_cap = (2.0 / (axi * osc_tol)) ** (1.0 / (1.0 + a))
    r_eff = min(max(measure.truncation_radius, 2.0 * k), max(r_cap, 2.0 * k))
    osc = _quad_octaves(lambda y: y ** (-1.0 - a), k, r_eff, budget, weight="cos", wvar=axi)
    budget.add(2.0 * r_eff ** (-1.0 - a) / axi)
    value = 2.0 * c * (inner + mass - osc)
    budget.check(value, "exponent quadrature")
    return value


def _exponent_tabulated(measure, xi):
    axi = abs(xi)
    k = 1.0 / axi
    budget = _ErrorBudget()
    grid = np.asarray(measure.grid)
    re = 0.0
    im = 0.0
    sides = measure.sides()
    signs = (1.0,) if measure.is_symmetric else (1.0, -1.0)
    for (w, dens), sign in zip(sides, signs):
        f = _tab_density_fn(grid, dens)
        re += w * _tab_oscillatory(grid, dens, f, axi, k, budget, kind="one_minus_cos")
        if not measure.is_symmetric:
            sin_int = _tab_oscillatory(grid, dens, f, axi, k, budget, kind="sin")
            moment = _tab_moment(grid, dens, 1, hi=1.0)
            im += sign * (xi * moment - math.copysign(1.0, xi) * sin_int)
    value = complex(re, im)
    budget.check(abs(value), "tabulated exponent quadrature")
    return re, im


def _tab_oscillatory(grid, dens, f, axi, k, budget, kind):
    """int over the tabulated support of (1 - cos(axi y)) f or sin(axi y) f."""
    total = 0.0
    for y1, y2, A, b in _panels(grid, dens):
        if kind == "sin":
            total += _osc_panel(f, y1, y2, axi, "sin", budget)
            continue
        # below the kink k by plain quadrature, above it as mass minus the cos integral
        split = min(max(k, y1), y2)
        total += _quad(lambda y: 2.0 * math.sin(0.5 * axi * y) ** 2 * f(y), y1, split, budget)
        total += _power_moment(A, b, 0, split, y2) - _osc_panel(f, split, y2, axi, "cos", budget)
    return total


def _osc_panel(f, lo, hi, axi, weight, budget):
    if hi <= lo:
        return 0.0
    if axi * (hi - lo) <= 6.0:
        wf = math.cos if weight == "cos" else math.sin
        return _quad(lambda y: wf(axi * y) * f(y), lo, hi, budget)
    return _quad_octaves(f, lo, hi, budget, weight=weight, wvar=axi)


# --------------------------------------------------------------------------
# sector estimate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorEstimate:
    """sup over a grid of |Im p| / Re p, with a refinement history."""

    value: Optional[float]
    unbounded: bool
    history: tuple

    @property
    def flag(self):
        return "unbounded-on-grid" if self.unbounded else None


def sector_estimate(triplet: LevyTriplet, x_window, xi_grid) -> SectorEstimate:
    """Grid estimate of the sector constant sup |Im p(x,xi)| / Re p(x,xi).

    The grid is doubled in density 4 times within its fixed extent; the
    estimate is declared unbounded-on-grid when the running sup still grows
    by more than 10% at the last doubling.
    """
    xi = np.asarray(sorted(xi_grid), dtype=float)
    if xi.size == 0:
        raise ValueError("xi grid must be nonempty")
    if np.any(xi == 0.0):
        raise ValueError("xi grid entries must be nonzero")
    x_lo, x_hi = x_window
    state_dep = not (triplet.measure.is_state_independent and triplet.drift.is_constant)
    xs = np.linspace(x_lo, x_hi, 9) if state_dep else np.array([0.5 * (x_lo + x_hi)])

    history = []
    for level in range(5):
        sup = 0.0
        for xv in xs:
            for xiv in xi:
                p = eval_exponent(triplet, float(xv), float(xiv))
                re, im = p.real, p.imag
                if re <= 0.0 or abs(im) > 1e15 * re:
                    # Re p vanishes (to machine precision) at this point
                    if abs(im) > 1e-12:
                        raise SectorViolationError(
                            f"sector violated at x={xv:.6g}, xi={xiv:.6g}: "
                            f"Re p = {re:.3e}, Im p = {im:.3e}")
                    continue
                sup = max(sup, abs(im) / re)
        history.append(sup)
        if level < 4:
            xi = _densify(xi)
            if state_dep:
                xs = _densify(xs)

    if history[-1] > 1.10 * history[-2] + 1e-15:
        return SectorEstimate(value=None, unbounded=True, history=tuple(history))
    return SectorEstimate(value=history[-1], unbounded=False, history=tuple(history))


def _densify(grid):
    mids = 0.5 * (grid[:-1] + grid[1:])
    return np.sort(np.concatenate([grid, mids]))


# --------------------------------------------------------------------------
# lower envelope and symbol family
# --------------------------------------------------------------------------

class LowerEnvelope:
    """Monotone increasing minorant g(xi) <= Re p(x, xi) on an xi table.

    Interpolation is log-log linear: Re p of the supported measure families is
    convex in log xi, so log-log chords of the infimum stay below it.
    """

    def __init__(self, xi_grid, values):
        self.xi_grid = np.asarray(xi_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if np.any(self.values <= 0.0):
            raise ValueError("envelope values must be positive for xi >= 1")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("envelope values must be nondecreasing")

    def __call__(self, xi):
        xi = np.abs(np.asarray(xi, dtype=float))
        if np.any(xi < self.xi_grid[0] - 1e-12) or np.any(xi > self.xi_grid[-1] + 1e-12):
            raise ValueError("xi outside envelope domain")
        return np.exp(np.interp(np.log(xi), np.log(self.xi_grid), np.log(self.values)))


class AnalyticEnvelope:
    """Envelope given in closed form (used for exactly known symbols)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, xi):
        return self.fn(np.abs(np.asarray(xi, dtype=float)))


def build_lower_envelope(triplet: LevyTriplet, x_window, xi_hi: float) -> LowerEnvelope:
    """g(xi) = running max over xi of inf_{x in window} Re p(x, xi), xi >= 1,
    on 65 geometric xi points and 257 x points."""
    xi_grid = np.geomspace(1.0, xi_hi, 65)
    xs = np.linspace(x_window[0], x_window[1], 257)
    if triplet.measure.is_state_independent:
        xs = xs[:1]
    raw = np.empty_like(xi_grid)
    for j, xiv in enumerate(xi_grid):
        raw[j] = min(eval_exponent(triplet, float(xv), float(xiv)).real for xv in xs)
    return LowerEnvelope(xi_grid, np.maximum.accumulate(raw))


@dataclass
class SymbolFamily:
    """A symbol p(x, xi) with its sector estimate, lower envelope and C_p."""

    triplet: LevyTriplet
    x_window: tuple
    sector: SectorEstimate
    envelope: object            # LowerEnvelope | AnalyticEnvelope
    coefficient_bound: float

    @property
    def sector_value(self):
        return self.sector.value

    def g(self, xi):
        return self.envelope(xi)

    def validate_on(self, x_grid, xi_grid):
        """Check g <= Re p <= C_p (1 + xi^2) on the given grids, to within 1e-9."""
        for xv in x_grid:
            for xiv in xi_grid:
                re = eval_exponent(self.triplet, float(xv), float(xiv)).real
                g = float(self.envelope(xiv))
                if g > re + 1e-9:
                    raise AssertionError(f"envelope exceeds Re p at x={xv}, xi={xiv}")
                if re > self.coefficient_bound * (1.0 + xiv ** 2) + 1e-9:
                    raise AssertionError(f"Re p above C_p(1+xi^2) at x={xv}, xi={xiv}")

    @classmethod
    def from_stable(cls, alpha: float, scale: float = 1.0):
        """Family for psi(xi) = scale |xi|^alpha with exact analytic envelope."""
        coeff = scale / (2.0 * stable_levy_constant(alpha))
        measure = PowerLawMeasure(alpha=ConstantProfile(alpha), coefficient=ConstantProfile(coeff))
        triplet = LevyTriplet(measure=measure)
        sector = SectorEstimate(value=0.0, unbounded=False, history=(0.0,))
        return cls(triplet=triplet, x_window=(0.0, 0.0), sector=sector,
                   envelope=AnalyticEnvelope(lambda xi: scale * xi ** alpha),
                   coefficient_bound=scale)


def build_symbol_family(triplet: LevyTriplet, x_window, xi_grid) -> SymbolFamily:
    sector = sector_estimate(triplet, x_window, xi_grid)
    xi_hi = float(np.max(np.abs(np.asarray(xi_grid))))
    envelope = build_lower_envelope(triplet, x_window, max(xi_hi, 1.0))
    xs = np.linspace(x_window[0], x_window[1], 33)
    cp = 0.0
    for xv in xs:
        for xiv in np.geomspace(1.0, max(xi_hi, 1.0), 17):
            re = eval_exponent(triplet, float(xv), float(xiv)).real
            cp = max(cp, re / (1.0 + xiv ** 2))
    return SymbolFamily(triplet=triplet, x_window=tuple(x_window), sector=sector,
                        envelope=envelope, coefficient_bound=cp)
