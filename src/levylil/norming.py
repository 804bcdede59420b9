"""Norming functions built from ball extrema of the maximal symbol.

The scale function is u(x, R) = 1 / inf_{|x-y| <= 3R} p^U(y, 1/R); its
generalized inverse u^{-1}(x, rho) = inf{r : u(x, r) >= rho} evaluated at
t / log|log t| gives the small-time rate.  The iterated-logarithm upper
function v(x, t) inverts xi -> p^U(x, xi) at 1/(t ell_{eps,n}(t)); where
p^U does not depend on x, u(r) = 1/p^U(1/r), so v(x, t) = u^{-1}(x, t ell)
and ``u_inverse`` is the one numerical inverse of the maximal symbol.

Everything here is a pure function of its arguments.  ``u_of_R``,
``u_inverse``, ``chung_rate`` and ``upper_norming_v`` are the only evaluators
of their quantities: each takes the closed form of a constant-index power law
itself (``upper_norming_v``, which inverts p^U at x alone, that of any power
law) and falls back to numerics otherwise.  These four, ``ball_extremum`` and
``pU_ball_extremum`` take arrays of arguments, broadcast together
(``upper_norming_v`` an array of t), and run their scans and bisections for
every element at once; each element gets the bits a call with it alone gets,
and a scalar call returns a Python float.  Closed forms stay scalar float
arithmetic, element by element.  ``build_norming_function`` tabulates one of
them on an argument grid in one call, so a table equals its function bit for
bit; the ``norming_table`` analysis writes that table as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasureError, IteratedLogDomainError, RhoOutOfRangeError
from .measures import MeasureSpec, PowerLawMeasure
from .symbols import eval_pU


def _lanes(*args):
    """The arguments broadcast together, each flattened to a float array of
    lanes, and their common shape."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        arrays = np.broadcast_arrays(*arrays)
        shape = arrays[0].shape
    return [a.ravel() for a in arrays], shape


def _shaped(values, shape):
    """Lane values in the arguments' shape; a Python float for scalar arguments."""
    values = np.asarray(values, dtype=float)
    return float(values[0]) if shape == () else values.reshape(shape)


_SCAN_STEPS = np.arange(257.0)


def ball_extremum(measure: MeasureSpec, x, radius, xi, mode: str):
    """Extremum of y -> p^U(y, xi) over |x - y| <= radius; ``mode`` is
    'inf' or 'sup'.  ``x``, ``radius`` and ``xi`` broadcast together.

    Scans 257 equispaced points of a bracket, starting from the whole ball,
    keeps the best value seen and narrows the bracket to the two grid cells
    around the best point; stops once the bracket is at most 1e-12 wide or
    no longer shrinks (at large |x| the doubles are coarser than 1e-12).
    Every ball is scanned at once, and a ball leaves the scan when it stops.
    State-independent measures short-circuit to a point value; the others
    are power-law measures, whose p^U has a closed form.
    """
    if mode not in ("inf", "sup"):
        raise ValueError(f"mode must be 'inf' or 'sup', got {mode!r}")
    (x, radius, xi), shape = _lanes(x, radius, xi)
    if measure.is_state_independent:
        return _shaped([eval_pU(measure, xv, xiv) for xv, xiv in zip(x.tolist(), xi.tolist())],
                       shape)
    sign = 1.0 if mode == "sup" else -1.0
    out = np.empty(x.size)
    lanes = np.arange(x.size)
    lo, hi, axi = x - radius, x + radius, np.abs(xi)
    best = np.full(x.size, -np.inf)
    while lanes.size:
        # np.linspace(lo, hi, 257) row by row, bit for bit
        ys = lo[:, None] + _SCAN_STEPS * ((hi - lo) / 256)[:, None]
        ys[:, -1] = hi
        vals = sign * (measure.pu_factor(ys) * axi[:, None] ** measure.alpha(ys))
        rows = np.arange(lanes.size)
        i = np.argmax(vals, axis=1)
        v = vals[rows, i]
        best = np.where(v > best, v, best)
        width = hi - lo
        lo, hi = ys[rows, np.maximum(i - 1, 0)], ys[rows, np.minimum(i + 1, 256)]
        new_width = hi - lo
        done = (new_width <= 1e-12) | (new_width >= width)
        if done.any():
            out[lanes[done]] = sign * best[done]
            keep = ~done
            lanes, lo, hi, axi, best = lanes[keep], lo[keep], hi[keep], axi[keep], best[keep]
    return _shaped(out, shape)


def pU_ball_extremum(measure: MeasureSpec, x, R, radius_multiple: int, mode: str):
    """Extremum of y -> p^U(y, 1/R) over |x - y| <= radius_multiple * R."""
    if radius_multiple not in (2, 3, 6):
        raise ValueError("radius_multiple must be one of 2, 3, 6")
    (x, R), shape = _lanes(x, R)
    bad = ~((0.0 < R) & (R <= 1.0))
    if bad.any():
        raise ValueError(f"R must be in (0, 1], got R={R[np.argmax(bad)]}")
    return _shaped(ball_extremum(measure, x, radius_multiple * R, 1.0 / R, mode), shape)


def u_of_R(measure: MeasureSpec, x, R):
    """u(x, R) = 1 / inf_{|x-y| <= 3R} p^U(y, 1/R) for R in (0, 1]."""
    (x, R), shape = _lanes(x, R)
    denom = pU_ball_extremum(measure, x, R, 3, "inf")
    if np.any(denom <= 0.0):
        i = np.argmax(denom <= 0.0)
        raise DegenerateMeasureError(f"ball infimum of p^U vanished at x={x[i]}, R={R[i]}")
    return _shaped(1.0 / denom, shape)


def u_inverse(measure: MeasureSpec, x, rho):
    """Generalized inverse inf{r : u(x, r) >= rho} for rho in (0, u(x, 1)].

    A constant-index power law has u(x, r) = r^alpha / pu_factor(x), inverted
    in closed form.  Otherwise an ascending geometric scan (ratio 2 from
    r = 1e-12) finds the first crossing from below, honoring non-monotone u;
    bisection then shrinks the bracket to a relative width of 1e-10.  Where
    u(1e-12) >= rho the scan first halves r, and fails once u stops falling.
    Each step evaluates u once for every (x, rho) still searching, each at
    its own point of the scan or the bisection.
    """
    (x, rho), shape = _lanes(x, rho)
    if not np.all(rho > 0.0):
        raise RhoOutOfRangeError(f"rho must be positive, got rho={rho[np.argmin(rho > 0.0)]}")
    u_top = u_of_R(measure, x, np.ones_like(x))
    if np.any(rho > u_top):
        i = np.argmax(rho > u_top)
        raise RhoOutOfRangeError(f"rho={rho[i]:.3e} above u(x, 1) = {u_top[i]:.3e}")
    if isinstance(measure, PowerLawMeasure) and measure.is_state_independent:
        return _shaped([(measure.pu_factor(xv) * r) ** (1.0 / measure.alpha_at(xv))
                        for xv, r in zip(x.tolist(), rho.tolist())], shape)
    # stage 0 halves r = hi while u(r) >= rho, stage 1 steps [lo, hi] to
    # [hi, 2 hi] while u(hi) < rho, stage 2 bisects [lo, hi]
    out = np.empty(x.size)
    lanes = np.arange(x.size)
    stage = np.zeros(x.size, dtype=int)
    lo, hi = np.zeros(x.size), np.full(x.size, 1e-12)
    u_prev = np.full(x.size, np.nan)
    while lanes.size:
        st, l, h = stage[lanes], lo[lanes], hi[lanes]
        mid = 0.5 * (l + h)
        u = u_of_R(measure, x[lanes], np.where(st == 2, mid, h))
        above = u >= rho[lanes]
        down = (st == 0) & above
        # u flat over a halving: a finite measure's u is 1/nu(R) from there down
        flat = down & (u == u_prev[lanes])
        u_prev[lanes] = u
        h[down] *= 0.5
        if np.any(flat) or np.any(h[down] < 1e-300):
            raise RhoOutOfRangeError("rho below the resolvable range of u")
        up = (st < 2) & ~above
        if np.any(h[up] >= 1.0):
            # rho <= u(x, 1) was checked; numerical corner
            raise RhoOutOfRangeError("no crossing found below r = 1")
        l[up] = h[up]
        h[up] = np.minimum(2.0 * h[up], 1.0)
        l[(st == 2) & ~above] = mid[(st == 2) & ~above]
        h[(st == 2) & above] = mid[(st == 2) & above]
        st[up] = 1
        st[(st == 1) & above] = 2
        done = (st == 2) & ~(h - l > 1e-10 * h)
        stage[lanes], lo[lanes], hi[lanes] = st, l, h
        out[lanes[done]] = h[done]
        lanes = lanes[~done]
    return _shaped(out, shape)


def chung_rate(measure: MeasureSpec, x, t):
    """u^{-1}(x, t / log|log t|) for t in (0, e^{-1})."""
    (x, t), shape = _lanes(x, t)
    bad = ~((0.0 < t) & (t < math.exp(-1.0)))
    if bad.any():
        raise ValueError(f"t={t[np.argmax(bad)]} outside (0, e^-1); "
                         "log|log t| must be positive")
    ll = np.array([math.log(abs(math.log(tv))) for tv in t.tolist()])
    return _shaped(u_inverse(measure, x, t / ll), shape)


def iterated_log_factor(t: float, epsilon: float, n: int) -> float:
    """ell_{eps,n}(t): product of the first n iterated logs of 1/t, the n-th
    raised to the power 1 + eps.  Convention: n = 1 gives |log t|^{1+eps}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if t <= 0.0:
        raise ValueError("t must be positive")
    value, cur = 1.0, math.log(1.0 / t)
    for k in range(n):
        if cur <= 1.0:
            raise IteratedLogDomainError(
                f"iterated log undefined: t={t} too large for n={n} factors")
        value *= cur ** (1.0 + epsilon) if k == n - 1 else cur
        cur = math.log(cur)
    return value


def upper_norming_v(measure: MeasureSpec, x: float, t, epsilon: float, n: int, *,
                    ell_one: bool = False):
    """Iterated-log upper norming function v(x, t) = 1 / chi(x, 1/(t ell)) for
    an array of t.

    chi(x, .) is the inverse of xi -> p^U(x, xi) on [1, inf).  A power-law
    measure has p^U(x, xi) = pu_factor(x) |xi|^alpha(x), so v is
    (pu_factor(x) t ell)^{1/alpha(x)}; the other measures are
    state-independent, with u(r) = 1 / p^U(1/r), so v is u^{-1}(x, t ell).
    ``ell_one`` replaces ell_{eps,n} by 1 (the epsilon-skip diagnostic mode).
    """
    (t,), shape = _lanes(t)
    ts = t.tolist()
    ell = [1.0 if ell_one else iterated_log_factor(tv, epsilon, n) for tv in ts]
    if isinstance(measure, PowerLawMeasure):
        pf, inv_a = measure.pu_factor(x), 1.0 / measure.alpha_at(x)
        return _shaped([(pf * tv * lv) ** inv_a for tv, lv in zip(ts, ell)], shape)
    return _shaped(u_inverse(measure, x, t * np.array(ell)), shape)


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
    R = np.asarray(R_grid, dtype=float)
    num = pU_ball_extremum(measure, x, R, 2, "sup")
    den = pU_ball_extremum(measure, x, R, 3, "inf")
    if np.any(den <= 0.0):
        raise DegenerateMeasureError(f"ball infimum vanished at R={R[np.argmax(den <= 0.0)]}")
    values = (num / den).tolist()
    return KappaEstimate(x=x, R_grid=tuple(R.tolist()), kappa_values=tuple(values),
                         kappa=max(values))


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

@dataclass
class NormingFunction:
    """A named norming function tabulated on ``arg_grid``; ``form`` says
    whether the values come from a closed form or from numerics."""

    kind: str
    form: str                      # "closed_form" | "numeric"
    arg_grid: np.ndarray
    values: np.ndarray

    def table(self):
        return self.arg_grid, self.values


def build_norming_function(measure: MeasureSpec, x: float, kind: str, arg_grid,
                           *, epsilon: float = 0.5, n: int = 1) -> NormingFunction:
    """Tabulate ``kind`` ('u', 'u_inverse', 'chung_rate' or 'upper_v') on the
    sorted ``arg_grid``.

    The values are one call of the kind's evaluator on the whole grid, so the
    table equals the evaluator bit for bit and fails where it fails.
    ``form`` is 'closed_form' where the evaluator takes its closed form: every
    kind on a constant-index power law, and 'upper_v' on any power law;
    'numeric' otherwise.
    """
    evaluators = {"u": u_of_R, "u_inverse": u_inverse, "chung_rate": chung_rate,
                  "upper_v": lambda m, x, ts: upper_norming_v(m, x, ts, epsilon, n)}
    if kind not in evaluators:
        raise ValueError(f"cannot tabulate kind {kind!r} from a measure")
    arg_grid = np.asarray(sorted(arg_grid), dtype=float)
    values = evaluators[kind](measure, x, arg_grid)
    if np.any(values <= 0.0):
        raise DegenerateMeasureError(f"{kind} must be positive on its domain")
    closed = isinstance(measure, PowerLawMeasure) and (
        kind == "upper_v" or measure.is_state_independent)
    return NormingFunction(kind=kind, form="closed_form" if closed else "numeric",
                           arg_grid=arg_grid, values=values)
