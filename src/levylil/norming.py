"""Norming functions built from ball extrema of the maximal symbol.

The scale function is u(x, R) = 1 / inf_{|x-y| <= 3R} p^U(y, 1/R); its
generalized inverse u^{-1}(x, rho) = inf{r : u(x, r) >= rho} evaluated at
t / log|log t| gives the small-time rate.  The iterated-logarithm upper
function v(x, t) inverts xi -> p^U(x, xi) at 1/(t ell_{eps,n}(t)).

Everything here is a pure function; tabulated NormingFunction evaluators are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateMeasureError, InverseUndefinedError,
                     IteratedLogDomainError, RhoOutOfRangeError)
from .measures import MeasureSpec, PowerLawMeasure
from .symbols import eval_pU

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ball_extremum(measure: MeasureSpec, x: float, radius: float, xi: float,
                  mode: str) -> float:
    """Extremum of y -> p^U(y, xi) over |x - y| <= radius; ``mode`` is
    'inf' or 'sup'.

    A scan of 257 equispaced points followed by golden-section refinement
    around the best one, down to a bracket of width 1e-12.  State-independent
    measures short-circuit to a point value; the others are power-law
    measures, whose p^U has a closed form.
    """
    if mode not in ("inf", "sup"):
        raise ValueError(f"mode must be 'inf' or 'sup', got {mode!r}")
    if measure.is_state_independent:
        return float(eval_pU(measure, x, xi))
    sign = 1.0 if mode == "sup" else -1.0

    def pu(ys):
        return measure.pu_factor(ys) * abs(xi) ** measure.alpha(ys)

    ys = np.linspace(x - radius, x + radius, 257)
    vals = sign * pu(ys)
    i = int(np.argmax(vals))
    best = vals[i]
    lo = ys[max(i - 1, 0)]
    hi = ys[min(i + 1, 256)]

    def h(y):
        return sign * float(pu(np.array([y]))[0])

    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = h(c1), h(c2)
    while b - a > 1e-12:
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = h(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = h(c1)
    best = max(best, f1, f2)
    return sign * best


def pU_ball_extremum(measure: MeasureSpec, x: float, R: float,
                     radius_multiple: int, mode: str) -> float:
    """Extremum of y -> p^U(y, 1/R) over |x - y| <= radius_multiple * R."""
    if radius_multiple not in (2, 3, 6):
        raise ValueError("radius_multiple must be one of 2, 3, 6")
    if not 0.0 < R <= 1.0:
        raise ValueError("R must be in (0, 1]")
    return ball_extremum(measure, x, radius_multiple * R, 1.0 / R, mode)


def u_of_R(measure: MeasureSpec, x: float, R: float) -> float:
    """u(x, R) = 1 / inf_{|x-y| <= 3R} p^U(y, 1/R) for R in (0, 1]."""
    denom = pU_ball_extremum(measure, x, R, 3, "inf")
    if denom <= 0.0:
        raise DegenerateMeasureError(f"ball infimum of p^U vanished at x={x}, R={R}")
    return 1.0 / denom


def u_inverse(measure: MeasureSpec, x: float, rho: float) -> float:
    """Generalized inverse inf{r : u(x, r) >= rho}.

    Ascending geometric scan (ratio 2 from r = 1e-12) finds the first
    crossing from below, honoring non-monotone u; bisection then shrinks the
    bracket to a relative width of 1e-10.
    """
    if rho <= 0.0:
        raise RhoOutOfRangeError("rho must be positive")
    u_top = u_of_R(measure, x, 1.0)
    if rho > u_top:
        raise RhoOutOfRangeError(f"rho={rho:.3e} above u(x, 1) = {u_top:.3e}")

    def u(r):
        return u_of_R(measure, x, r)

    r = 1e-12
    while u(r) >= rho:
        r *= 0.5
        if r < 1e-300:
            raise RhoOutOfRangeError("rho below the resolvable range of u")
    lo = r
    hi = min(2.0 * r, 1.0)
    while u(hi) < rho:
        lo = hi
        if hi >= 1.0:
            # rho <= u(x, 1) was checked; numerical corner
            raise RhoOutOfRangeError("no crossing found below r = 1")
        hi = min(2.0 * hi, 1.0)
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if u(mid) >= rho:
            hi = mid
        else:
            lo = mid
    return hi


def chung_rate(measure: MeasureSpec, x: float, t: float) -> float:
    """u^{-1}(x, t / log|log t|) for t in (0, e^{-1})."""
    if not 0.0 < t < math.exp(-1.0):
        raise ValueError(f"t={t} outside (0, e^-1); log|log t| must be positive")
    ll = math.log(abs(math.log(t)))
    return u_inverse(measure, x, t / ll)


def iterated_log_factor(t: float, epsilon: float, n: int) -> float:
    """ell_{eps,n}(t): product of the first n iterated logs of 1/t, the n-th
    raised to the power 1 + eps.  Convention: n = 1 gives |log t|^{1+eps}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if t <= 0.0:
        raise ValueError("t must be positive")
    factors = []
    cur = math.log(1.0 / t)
    for _ in range(n):
        if cur <= 1.0:
            raise IteratedLogDomainError(
                f"iterated log undefined: t={t} too large for n={n} factors")
        factors.append(cur)
        cur = math.log(cur)
    value = 1.0
    for f in factors[:-1]:
        value *= f
    return value * factors[-1] ** (1.0 + epsilon)


def upper_norming_v(measure: MeasureSpec, x: float, t: float, epsilon: float,
                    n: int, *, ell_one: bool = False, method: str = "auto") -> float:
    """Iterated-log upper norming function v(x, t) = 1 / chi(x, 1/(t ell)).

    chi(x, .) is the inverse of xi -> p^U(x, xi) on [1, inf).  For power-law
    measures the closed form (pu_factor(x) * t * ell)^{1/alpha(x)} is used
    unless ``method='numeric'`` forces the bisection route.  ``ell_one``
    replaces ell_{eps,n} by 1 (the epsilon-skip diagnostic mode).
    """
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}; expected 'auto', 'closed' or 'numeric'")
    ell = 1.0 if ell_one else iterated_log_factor(t, epsilon, n)
    target = 1.0 / (t * ell)
    if isinstance(measure, PowerLawMeasure) and method in ("auto", "closed"):
        a = measure.alpha_at(x)
        return (measure.pu_factor(x) * t * ell) ** (1.0 / a)
    if method == "closed":
        raise ValueError("closed form only available for power-law measures")
    return 1.0 / _chi_inverse(measure, x, target)


def _chi_inverse(measure, x, target):
    """Invert xi -> p^U(x, xi) at ``target`` on [1, inf) by bisection."""
    lo = 1.0
    p_lo = eval_pU(measure, x, lo)
    if target < p_lo:
        raise InverseUndefinedError(
            f"target {target:.3e} below p^U(x, 1) = {p_lo:.3e}; chi restricted to xi >= 1")
    hi = 2.0
    while eval_pU(measure, x, hi) < target:
        hi *= 2.0
        if hi > 2.0 ** 200:
            raise InverseUndefinedError("p^U does not reach the target level")
    probes = np.geomspace(lo, hi, 33)
    vals = np.array([eval_pU(measure, x, float(p)) for p in probes])
    if np.any(np.diff(vals) <= 0.0):
        raise InverseUndefinedError("inverse undefined: p^U not strictly increasing past xi = 1")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if eval_pU(measure, x, mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# regularity constant kappa
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KappaEstimate:
    x: float
    R_grid: tuple
    kappa_values: tuple
    kappa: float


def kappa_estimate(measure: MeasureSpec, x: float, R_grid) -> KappaEstimate:
    """Per-radius ratio sup_{2R} p^U(., 1/R) / inf_{3R} p^U(., 1/R), sup over grid."""
    values = []
    for R in R_grid:
        num = pU_ball_extremum(measure, x, R, 2, "sup")
        den = pU_ball_extremum(measure, x, R, 3, "inf")
        if den <= 0.0:
            raise DegenerateMeasureError(f"ball infimum vanished at R={R}")
        values.append(num / den)
    return KappaEstimate(x=x, R_grid=tuple(float(R) for R in R_grid),
                         kappa_values=tuple(values), kappa=max(values))


def kappa_reference_bound(measure: PowerLawMeasure, x: float) -> float:
    """64^(max |alpha'| over B(x, 1), sampled at 513 points) for power-law measures."""
    if not isinstance(measure, PowerLawMeasure):
        raise TypeError("reference bound applies to power-law measures")
    ys = np.linspace(x - 1.0, x + 1.0, 513)
    max_deriv = float(np.max(np.abs(measure.alpha.derivative(ys))))
    return 64.0 ** max_deriv


# --------------------------------------------------------------------------
# named norming-function objects (tables + CSV export)
# --------------------------------------------------------------------------

_KINDS = ("u", "u_inverse", "chung_rate", "upper_v")


@dataclass
class NormingFunction:
    """A named scalar norming function with closed-form or tabulated form."""

    kind: str
    x: float
    domain: tuple
    form: str                      # "closed_form" | "numeric"
    arg_grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norming kind {self.kind!r}")

    def __call__(self, arg):
        arg = np.asarray(arg, dtype=float)
        if np.any(arg < self.domain[0]) or np.any(arg > self.domain[1]):
            raise ValueError("argument outside norming-function domain")
        if self.form == "closed_form":
            return self.fn(arg)
        return np.exp(np.interp(np.log(arg), np.log(self.arg_grid), np.log(self.values)))

    def table(self):
        if self.arg_grid is not None:
            return np.asarray(self.arg_grid), np.asarray(self.values)
        grid = np.geomspace(self.domain[0], self.domain[1], 129)
        return grid, self.fn(grid)


def build_norming_function(measure: MeasureSpec, x: float, kind: str, arg_grid,
                           *, epsilon: float = 0.5, n: int = 1) -> NormingFunction:
    """Tabulate one of the named norming functions on ``arg_grid``.

    Constant-index power-law measures get closed forms; everything else is
    sampled and interpolated log-log.
    """
    arg_grid = np.asarray(sorted(arg_grid), dtype=float)
    domain = (float(arg_grid[0]), float(arg_grid[-1]))
    if kind == "u" and (arg_grid[0] <= 0.0 or arg_grid[-1] > 1.0):
        raise ValueError("u is defined for R in (0, 1]")
    if kind == "chung_rate" and arg_grid[-1] >= math.exp(-1.0):
        raise ValueError("chung_rate needs t < e^-1")
    closed = isinstance(measure, PowerLawMeasure) and measure.is_state_independent
    if closed:
        a = measure.alpha_at(x)
        f = measure.pu_factor(x)
        if kind == "u_inverse" and arg_grid[-1] > 1.0 / f:
            raise RhoOutOfRangeError("rho above u(x, 1)")
        closures = {
            "u": lambda r: r ** a / f,
            "u_inverse": lambda rho: (f * rho) ** (1.0 / a),
            "chung_rate": lambda t: (f * t / np.log(np.abs(np.log(t)))) ** (1.0 / a),
            "upper_v": lambda t: (f * t * np.array([iterated_log_factor(float(tv), epsilon, n)
                                                    for tv in np.atleast_1d(t)])) ** (1.0 / a),
        }
        if kind in closures:
            fn = closures[kind]
            return NormingFunction(kind=kind, x=x, domain=domain, form="closed_form", fn=fn,
                                   arg_grid=arg_grid, values=np.asarray(fn(arg_grid)))
    samplers = {
        "u": lambda r: u_of_R(measure, x, float(r)),
        "u_inverse": lambda rho: u_inverse(measure, x, float(rho)),
        "chung_rate": lambda t: chung_rate(measure, x, float(t)),
        "upper_v": lambda t: upper_norming_v(measure, x, float(t), epsilon, n),
    }
    if kind not in samplers:
        raise ValueError(f"cannot tabulate kind {kind!r} from a measure")
    vals = np.array([samplers[kind](a) for a in arg_grid])
    if np.any(vals <= 0.0):
        raise DegenerateMeasureError(f"{kind} must be positive on its domain")
    return NormingFunction(kind=kind, x=x, domain=domain, form="numeric",
                           arg_grid=arg_grid, values=vals)
