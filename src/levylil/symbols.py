"""Characteristic exponents, maximal symbols and sector/envelope estimates.

For a triplet (l(x), 0, nu(x, dy)) the exponent is

    p(x, xi) = i l(x) xi + int (1 - e^{i xi y} + i xi y 1_{|y| <= 1}) nu(x, dy)

and the maximal symbol is p^U(x, xi) = int min(|xi y|^2, 1) nu(x, dy).

Power-law measures admit closed forms for both; the quadrature route is kept
as an independent evaluation path (log-spaced panels with mandatory
breakpoints at the integrand kink |y| = 1/|xi| and at the compensation cutoff
|y| = 1, analytic tail correction beyond the split radius |y| = 1e8, oscillatory
outer integrals through cos/sin-weighted Gauss quadrature).  A tabulated
measure is integrated over the panels it holds, the oscillatory parts of its
exponent by quadrature of A y^b on each panel (xi y - sin(xi y) below
min(1/|xi|, 1) as one integrand, so Im p does not cancel), the rest in
closed form.  Symmetric
measures are evaluated through the real cosine form so the imaginary part is
exactly zero.

Integrals in log space (the smooth parts of the power-law p^U and exponent)
split their range into equal panels of width at most 4 and integrate each by
the 32-point Gauss-Legendre rule, all panels in one array, with the
panel's difference from the 16-point rule as its error estimate.  The other
integrals (tabulated panels, oscillatory weights) go to QUADPACK at absolute
tolerance 1e-10, relative tolerance 1e-8 and at most 200 subintervals per
interval.  Every evaluation adds up its error estimates and fails with
``QuadratureError`` when the total exceeds 100 times that tolerance.  All
operations are pure and deterministic; the only shared state is two
thread-safe memos, of ``stable_levy_constant`` and of the Gauss-Legendre
rules, so concurrent invocation is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureError, SectorViolationError
from .measures import (AtomicMeasure, ConstantProfile, LevyTriplet, MeasureSpec,
                       PowerLawMeasure, Profile)

_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_LIMIT = 200
_ERROR_MARGIN = 100.0   # accept up to margin * tolerance of accumulated estimate
_METHODS = ("auto", "closed", "quadrature")
_SPLIT_RADIUS = 1e8   # power-law quadrature: numeric up to here, analytic tail beyond


def stable_levy_constant(alpha):
    """int_0^inf (1 - cos u) u^(-1-alpha) du for alpha in (0, 2): a float for
    a scalar alpha, an array for an array.

    Equals Gamma(2-alpha) cos(pi alpha / 2) / (alpha (1-alpha)), extended
    continuously through alpha = 1 where the value is pi/2.
    """
    if np.ndim(alpha) == 0:
        return _stable_levy_constant(float(alpha))
    a = np.asarray(alpha, dtype=float)
    if not np.all((0.0 < a) & (a < 2.0)):
        raise ValueError("alpha must be in (0, 2)")
    gamma = np.array([math.gamma(2.0 - v) for v in a.ravel().tolist()]).reshape(a.shape)
    # cos(pi a/2)/(1-a) = (pi/2) sinc((1-a)/2) removes the alpha=1 singularity
    return gamma * (math.pi / 2.0) * np.sinc((1.0 - a) / 2.0) / a


@functools.lru_cache(maxsize=4096)
def _stable_levy_constant(alpha: float) -> float:
    return float(stable_levy_constant(np.array([alpha]))[0])


class _StableCoefficient(Profile):
    """Coefficient profile c(x) = scale(x) / (2 C(alpha(x))), C the constant
    ``stable_levy_constant``: the power law c(x) |y|^(-1-alpha(x)) has the
    exponent scale(x) |xi|^alpha(x).  The one place this relation is written."""

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


class _ErrorBudget:
    """Accumulates absolute-error estimates across quadrature panels."""

    def __init__(self):
        self.total = 0.0

    def add(self, err):
        """Add one error estimate, or an array of them."""
        self.total += float(np.abs(err).sum())

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
    # with full_output, tolerance shortfalls come back unwarned; the error budget handles them
    val, err = integrate.quad(f, a, b, full_output=1, **kwargs)[:2]
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1],
    read-only since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quad_log_panels(f, s_min, s_max, budget):
    """int f over [s_min, s_max] in equal log-spaced panels of width at most 4,
    each by the 32-point Gauss-Legendre rule; ``f`` takes the array of every
    panel's nodes at once.  A panel's error estimate is its difference from
    the 16-point rule."""
    if s_max <= s_min:
        return 0.0
    n = math.ceil((s_max - s_min) / 4.0)
    edges = s_min + np.arange(n + 1.0) * ((s_max - s_min) / n)
    edges[-1] = s_max   # the top end exactly: p^U's inner integrand peaks there
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    (x32, w32), (x16, w16) = _gauss_legendre(32), _gauss_legendre(16)
    vals = f(mid[:, None] + half[:, None] * np.concatenate([x32, x16]))
    fine, coarse = half * (vals[:, :32] @ w32), half * (vals[:, 32:] @ w16)
    budget.add(fine - coarse)
    return float(fine.sum())


# --------------------------------------------------------------------------
# tabulated-measure panel integrals (the panels of ``TabulatedMeasure.sides``)
# --------------------------------------------------------------------------

def _power_moment(A, b, p, lo, hi):
    """int_lo^hi A y^(b+p) dy: with q = b + p + 1, the larger end's y^q times
    (1 - (lo/hi)^|q|) / q by expm1, which neither cancels as q nears 0 nor
    overflows.  log1p gives log(hi/lo) to full precision for hi near lo."""
    q, L = b + p + 1.0, math.log1p((hi - lo) / lo)
    if q == 0.0:
        return A * L
    y, s = (hi, -1.0) if q > 0.0 else (lo, 1.0)
    return A * y ** q * s * math.expm1(s * q * L) / q


def _tab_moment(panels, p, lo=0.0, hi=math.inf):
    """int y^p d(y) dy over [lo, hi] for one tabulated side."""
    total = 0.0
    for y1, y2, A, b in panels:
        a, c = max(y1, lo), min(y2, hi)
        if c > a:
            total += _power_moment(A, b, p, a, c)
    return total


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
    return float(sum(w * _tab_moment(panels, 0, lo=r) for w, panels in measure.sides()))


def eval_pU(measure: MeasureSpec, x: float, xi: float, *, method: str = "auto") -> float:
    """int min(|xi y|^2, 1) nu(x, dy); even in xi, zero at xi = 0."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if xi == 0.0:
        return 0.0
    axi = abs(xi)
    if isinstance(measure, AtomicMeasure):
        locs, masses = measure.locations(), measure.masses()
        with np.errstate(over="ignore"):   # xi |loc| past 1.8e308 is inf, clipped to 1
            return float(np.sum(masses * np.minimum(axi * np.abs(locs), 1.0) ** 2))
    if isinstance(measure, PowerLawMeasure):
        if method in ("auto", "closed"):
            return float(measure.pu_factor(x) * axi ** measure.alpha_at(x))
        return float(_pu_power_law_quadrature(measure, x, axi))
    if method == "closed":
        raise ValueError("no closed form for tabulated measures")
    k = 1.0 / axi
    total = 0.0
    for w, panels in measure.sides():
        # the quadratic moment is zero exactly when k lies below the grid,
        # where axi ** 2 may overflow
        quad = _tab_moment(panels, 2, hi=k)
        total += w * ((axi ** 2 * quad if quad else 0.0) + _tab_moment(panels, 0, lo=k))
    return float(total)


def _pu_power_law_quadrature(measure, x, axi):
    a = measure.alpha_at(x)
    c = measure.coeff_at(x)
    k = 1.0 / axi
    budget = _ErrorBudget()
    # inner quadratic part in log space: integrand xi^2 e^{(2-a)s}
    s_top = math.log(k)
    s_min = s_top - 40.0 / (2.0 - a)
    inner = _quad_log_panels(lambda s: axi ** 2 * np.exp((2.0 - a) * s),
                             s_min, s_top, budget)
    budget.add(axi ** 2 * math.exp((2.0 - a) * s_min) / (2.0 - a))
    # outer flat part up to the split radius, analytic tail beyond
    rt = max(_SPLIT_RADIUS, 2.0 * k)
    outer = _quad_log_panels(lambda s: np.exp(-a * s), s_top, math.log(rt), budget)
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
    if isinstance(measure, PowerLawMeasure) and method != "quadrature":
        re, im = _exponent_on_grid(triplet, [x], [xi])
        return complex(re[0, 0], im[0, 0])
    drift_im = triplet.drift_at(x) * xi
    if isinstance(measure, AtomicMeasure):
        re, im = _exponent_atomic(measure, xi)
    elif isinstance(measure, PowerLawMeasure):
        re, im = _exponent_power_law_quadrature(measure, x, xi), 0.0
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


def _exponent_on_grid(triplet: LevyTriplet, xs, xis):
    """(Re p, Im p) on xs x xis as two (len(xs), len(xis)) arrays, equal bit for
    bit to ``eval_exponent`` at each point.  A power-law measure takes the one
    closed form, with its x-profiles evaluated once per x and |xi|^alpha(x)
    from Python's float power (libm), which numpy's array power may miss by
    an ulp; any other measure goes through ``eval_exponent`` point by point."""
    xs, xis = np.asarray(xs, dtype=float), np.asarray(xis, dtype=float)
    measure = triplet.measure
    if not isinstance(measure, PowerLawMeasure):
        p = np.array([[eval_exponent(triplet, x, xi) for xi in xis.tolist()]
                      for x in xs.tolist()], dtype=complex).reshape(xs.size, xis.size)
        return p.real, p.imag
    a, c = measure.alpha(xs), measure.coeff_at(xs)
    pw = [[v ** av for v in np.abs(xis).tolist()] for av in a.tolist()]
    with np.errstate(over="ignore"):   # an overflow is the non-finite value raised below
        re = (c * 2.0 * stable_levy_constant(a))[:, None] * np.array(pw).reshape(xs.size, xis.size)
        im = 0.0 + triplet.drift(xs)[:, None] * xis
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise QuadratureError("non-finite exponent value")
    return re, im


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
        # xi^2 e^{(2-a)s} g(theta) with g(theta) = 2 sin^2(theta/2) / theta^2,
        # by its series below theta = 1e-6; e^{-a s} alone overflows for very negative s
        theta = axi * np.exp(s)
        g = 0.5 * (1.0 - theta * theta / 12.0)
        big = theta >= 1e-6
        g[big] = 2.0 * np.sin(0.5 * theta[big]) ** 2 / theta[big] ** 2
        return axi * axi * np.exp((2.0 - a) * s) * g

    inner = _quad_log_panels(inner_integrand, s_min, s_top, budget)
    budget.add(axi ** 2 * math.exp((2.0 - a) * s_min) / (2.0 * (2.0 - a)))
    # exact mass of (k, inf) minus the oscillatory cosine integral
    mass = k ** (-a) / a
    osc_tol = max(_ABS_TOL, _REL_TOL * mass) / 10.0
    r_cap = (2.0 / (axi * osc_tol)) ** (1.0 / (1.0 + a))
    r_eff = min(max(_SPLIT_RADIUS, 2.0 * k), max(r_cap, 2.0 * k))
    osc = _quad_octaves(lambda y: y ** (-1.0 - a), k, r_eff, budget, weight="cos", wvar=axi)
    budget.add(2.0 * r_eff ** (-1.0 - a) / axi)
    value = 2.0 * c * (inner + mass - osc)
    budget.check(value, "exponent quadrature")
    return value


def _exponent_tabulated(measure, xi):
    axi = abs(xi)
    k = 1.0 / axi
    budget = _ErrorBudget()
    re = 0.0
    im = 0.0
    for (w, panels), sign in zip(measure.sides(), (1.0, -1.0)):
        re += w * _tab_even(panels, axi, k, budget)
        if not measure.is_symmetric:
            im += sign * math.copysign(1.0, xi) * _tab_odd(panels, axi, k, budget)
    value = complex(re, im)
    budget.check(abs(value), "tabulated exponent quadrature")
    return re, im


def _tab_even(panels, axi, k, budget):
    """int of (1 - cos(axi y)) d(y) over one side, panel by panel."""
    total = 0.0
    for y1, y2, A, b in panels:
        # below the kink k by plain quadrature, above it as mass minus the cos integral
        split = min(max(k, y1), y2)
        total += _quad(lambda y: 2.0 * math.sin(0.5 * axi * y) ** 2 * A * y ** b, y1, split, budget)
        total += _power_moment(A, b, 0, split, y2) - _osc_panel(A, b, split, y2, axi, "cos",
                                                                 budget)
    return total


def _tab_odd(panels, axi, k, budget):
    """int of (axi y 1_{y <= 1} - sin(axi y)) d(y) over one side, panel by panel:
    below min(k, 1), where theta = axi y <= 1, as one quadrature of the series
    of theta - sin(theta), which would cancel; above k, where theta >= 1, the
    two terms apart."""
    cut = min(k, 1.0)
    total = 0.0
    for y1, y2, A, b in panels:
        c1 = min(max(cut, y1), y2)
        c2 = min(max(1.0, c1), y2)
        total += _quad(lambda y: _theta_minus_sin(axi * y) * A * y ** b, y1, c1, budget)
        total += _quad(lambda y: axi * A * y ** (b + 1.0), c1, c2, budget)
        total -= _osc_panel(A, b, c1, y2, axi, "sin", budget)
    return total


def _theta_minus_sin(theta):
    """theta - sin(theta) for 0 <= theta <= 1, by Taylor series to 1e-19 relative."""
    t2 = theta * theta
    series = 1.0
    for m in (342.0, 272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):
        series = 1.0 - t2 / m * series
    return theta * t2 / 6.0 * series


def _osc_panel(A, b, lo, hi, axi, weight, budget):
    if hi <= lo:
        return 0.0
    if axi * (hi - lo) <= 6.0:
        wf = math.cos if weight == "cos" else math.sin
        return _quad(lambda y: wf(axi * y) * A * y ** b, lo, hi, budget)
    return _quad_octaves(lambda y: A * y ** b, lo, hi, budget, weight=weight, wvar=axi)


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
        re, im = _exponent_on_grid(triplet, xs, xi)
        flat = (re <= 0.0) | (np.abs(im) > 1e15 * re)   # Re p vanishes to machine precision
        bad = flat & (np.abs(im) > 1e-12)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)   # first in row-major order
            raise SectorViolationError(
                f"sector violated at x={xs[i]:.6g}, xi={xi[j]:.6g}: "
                f"Re p = {re[i, j]:.3e}, Im p = {im[i, j]:.3e}")
        history.append(float(np.max(np.abs(im[~flat]) / re[~flat], initial=0.0)))
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


def build_lower_envelope(triplet: LevyTriplet, x_window, xi_hi: float) -> LowerEnvelope:
    """g(xi) = running max over xi of inf_{x in window} Re p(x, xi), xi >= 1,
    on 65 geometric xi points and 257 x points."""
    xi_grid = np.geomspace(1.0, xi_hi, 65)
    xs = np.linspace(x_window[0], x_window[1], 257)
    if triplet.measure.is_state_independent:
        xs = xs[:1]
    re, _ = _exponent_on_grid(triplet, xs, xi_grid)
    return LowerEnvelope(xi_grid, np.maximum.accumulate(re.min(axis=0)))


@dataclass
class SymbolFamily:
    """A symbol p(x, xi) with its sector estimate, lower envelope and C_p."""

    triplet: LevyTriplet
    x_window: tuple
    sector: SectorEstimate
    envelope: Callable          # LowerEnvelope or a closed-form g
    coefficient_bound: float

    @property
    def sector_value(self):
        return self.sector.value

    def g(self, xi):
        return self.envelope(xi)

    def validate_on(self, x_grid, xi_grid):
        """Check g <= Re p <= C_p (1 + xi^2) on the given grids, to within 1e-9."""
        re, _ = _exponent_on_grid(self.triplet, x_grid, xi_grid)
        # g and the bound per xi from scalars: an array ** or square may round otherwise
        low = np.array([float(self.envelope(xiv)) for xiv in xi_grid]) > re + 1e-9
        bound = [self.coefficient_bound * (1.0 + xiv ** 2) + 1e-9 for xiv in xi_grid]
        bad = low | (re > np.array(bound))
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)   # first in row-major order
            what = "envelope exceeds Re p" if low[i, j] else "Re p above C_p(1+xi^2)"
            raise AssertionError(f"{what} at x={x_grid[i]}, xi={xi_grid[j]}")

    @classmethod
    def from_stable(cls, alpha: float, scale: float = 1.0):
        """Family for psi(xi) = scale |xi|^alpha with exact analytic envelope."""
        a = ConstantProfile(alpha)
        coeff = _StableCoefficient(a, ConstantProfile(scale))
        triplet = LevyTriplet(measure=PowerLawMeasure(alpha=a, coefficient=coeff))
        sector = SectorEstimate(value=0.0, unbounded=False, history=(0.0,))
        return cls(triplet=triplet, x_window=(0.0, 0.0), sector=sector,
                   envelope=lambda xi: scale * np.abs(np.asarray(xi, dtype=float)) ** alpha,
                   coefficient_bound=scale)


def build_symbol_family(triplet: LevyTriplet, x_window, xi_grid) -> SymbolFamily:
    sector = sector_estimate(triplet, x_window, xi_grid)
    xi_hi = float(np.max(np.abs(np.asarray(xi_grid))))
    envelope = build_lower_envelope(triplet, x_window, max(xi_hi, 1.0))
    xis = np.geomspace(1.0, max(xi_hi, 1.0), 17)
    re, _ = _exponent_on_grid(triplet, np.linspace(x_window[0], x_window[1], 33), xis)
    # 1 + xi^2 through libm pow, as Python floats: numpy's square rounds differently
    cp = float(np.max(re / np.array([1.0 + v ** 2 for v in xis.tolist()]), initial=0.0))
    return SymbolFamily(triplet=triplet, x_window=tuple(x_window), sector=sector,
                        envelope=envelope, coefficient_bound=cp)
