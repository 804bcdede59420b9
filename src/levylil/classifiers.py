"""Numerical convergence tests for improper integrals at 0+ and liminf levels.

The integral classifier splits (0, t_max] into dyadic blocks
[t_max 2^{-k-1}, t_max 2^{-k}], integrates each block with fixed-order
Gauss-Legendre quadrature, and classifies from the block sequence:

* geometric regime -- least-squares fit of log I_k vs k over the last half of
  the blocks; fitted block ratio <= 1 - DELTA_RATIO with a small tail
  fraction (partial sums Cauchy) is convergent, ratio >= 1 + DELTA_GROWTH is
  divergent;
* subgeometric regime (ratio near 1) -- fit of log I_k vs log k; polynomial
  block exponent p with p >= 1 + DELTA_POLY is convergent, p <= 1 - DELTA_POLY
  divergent, otherwise inconclusive.

The classification is heuristic by construction: every verdict carries its
block table so the decision can be re-derived, and "inconclusive" is a
first-class outcome.  The rule is invariant under scaling the integrand.

Block evaluations are independent (safe to parallelize); the verdict is a
deterministic reduction of the block sequence, independent of evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ClassifierError, LevyOnlyError
from .measures import MeasureSpec
from .norming import ball_extremum, upper_norming_v
from .symbols import _gauss_legendre, tail_mass

DELTA_RATIO = 0.05      # geometric-decay margin below 1
DELTA_GROWTH = 0.05     # growth margin above 1
DELTA_POLY = 0.2        # polynomial-exponent margin around 1
TAIL_FRACTION_MAX = 0.25   # Cauchy proxy: last-quarter share of the total
DELTA_ZERO = 1e-3       # absolute floor for the liminf zero verdict
DELTA_TREND = 0.15      # relative growth/decay over the last half of levels
SPREAD_MAX = 0.10       # relative spread for liminf stabilization
QUAD_ORDER = 32


@dataclass
class TestVerdict:
    """Classifier outcome with the diagnostics needed to re-derive it."""

    verdict: str
    block_values: tuple
    constant: Optional[float] = None
    fitted_ratio: Optional[float] = None
    fitted_exponent: Optional[float] = None
    tail_fraction: Optional[float] = None
    confidence_note: str = ""
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        d = {"verdict": self.verdict, "blocks": list(self.block_values),
             "fitted_exponent": self.fitted_exponent,
             "fitted_ratio": self.fitted_ratio,
             "tail_fraction": self.tail_fraction,
             "confidence_note": self.confidence_note}
        if self.constant is not None:
            d["c"] = self.constant
        d.update(self.extras)
        return d


def classify_integral_at_zero(integrand: Callable[[float], float], t_max: float,
                              levels: int) -> TestVerdict:
    """Classify int_{0+} integrand(t) dt from dyadic block integrals."""
    return _classify_blocks(lambda ts: [float(integrand(t)) for t in ts.tolist()],
                            t_max, levels)


def _classify_blocks(block_integrand, t_max, levels):
    """``classify_integral_at_zero`` with an integrand that takes the array of
    one block's Gauss nodes and returns the values there."""
    if levels < 8:
        raise ValueError("levels must be >= 8")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    nodes, weights = _gauss_legendre(QUAD_ORDER)
    blocks = []
    for k in range(levels):
        b = t_max * 2.0 ** (-k)
        a = 0.5 * b
        ts = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        try:
            vals = np.asarray(block_integrand(ts), dtype=float)
        except Exception as exc:
            raise ClassifierError(f"integrand evaluation failed in block {k}: {exc}") from exc
        if np.any(vals < -1e-12 * np.max(np.abs(vals), initial=1.0)):
            raise ClassifierError(f"integrand negative in block {k}")
        blocks.append(float(np.sum(weights * np.maximum(vals, 0.0)) * 0.5 * (b - a)))
    return _verdict_from_blocks(np.array(blocks))


def _verdict_from_blocks(blocks):
    levels = len(blocks)
    total = float(np.sum(blocks))
    if total == 0.0:
        return TestVerdict(verdict="convergent", block_values=tuple(blocks),
                           confidence_note="integrand vanishes on every block")
    window = np.arange(levels - math.ceil(levels / 2), levels)
    window = window[blocks[window] > 0.0]
    tail_idx = np.arange(levels - math.ceil(levels / 4), levels)
    tail_fraction = float(np.sum(blocks[tail_idx]) / total)
    if window.size < 4:
        return TestVerdict(verdict="inconclusive", block_values=tuple(blocks),
                           tail_fraction=tail_fraction,
                           confidence_note="too few positive blocks in the fit window")
    logs = np.log(blocks[window])
    slope_geom = float(np.polyfit(window, logs, 1)[0])
    ratio = math.exp(slope_geom)
    slope_poly = float(np.polyfit(np.log(window + 1.0), logs, 1)[0])
    common = dict(block_values=tuple(blocks), fitted_ratio=ratio,
                  fitted_exponent=slope_poly, tail_fraction=tail_fraction)

    if ratio <= 1.0 - DELTA_RATIO:
        if tail_fraction <= TAIL_FRACTION_MAX:
            return TestVerdict(verdict="convergent",
                               confidence_note="geometric block decay, partial sums Cauchy",
                               **common)
        return TestVerdict(verdict="inconclusive",
                           confidence_note="geometric decay but tail fraction too large",
                           **common)
    if ratio >= 1.0 + DELTA_GROWTH:
        return TestVerdict(verdict="divergent", confidence_note="blocks growing", **common)
    # subgeometric band: decide from the polynomial block exponent
    p_hat = -slope_poly
    if p_hat >= 1.0 + DELTA_POLY and tail_fraction <= TAIL_FRACTION_MAX:
        return TestVerdict(verdict="convergent",
                           confidence_note=f"subgeometric route: block exponent {p_hat:.3f} > 1",
                           **common)
    if p_hat <= 1.0 - DELTA_POLY:
        return TestVerdict(verdict="divergent",
                           confidence_note=f"blocks bounded below: block exponent {p_hat:.3f} < 1",
                           **common)
    return TestVerdict(verdict="inconclusive",
                       confidence_note=f"block exponent {p_hat:.3f} too close to 1",
                       **common)


def upper_function_test(measure: MeasureSpec, x: float, epsilon: float, n: int,
                        t_max: float, levels: int, *, ell_one: bool = False) -> TestVerdict:
    """Convergence test for int_{0+} sup_{|y-x|<=v(x,t)} p^U(y, 1/v(x,t)) dt."""

    def block_integrand(ts):
        v = upper_norming_v(measure, x, ts, epsilon, n, ell_one=ell_one)
        return ball_extremum(measure, x, v, 1.0 / v, "sup")

    verdict = _classify_blocks(block_integrand, t_max, levels)
    verdict.extras.update(test="upper_function", epsilon=epsilon, n=n, ell_one=ell_one)
    return verdict


def lower_tail_test(measure: MeasureSpec, v: Callable[[float], float], C: float,
                    t_max: float, levels: int) -> TestVerdict:
    """Divergence test for int_{0+} nu{|y| > 2 C v(t)} dt (Levy case only)."""
    if not measure.is_state_independent:
        raise LevyOnlyError("lower tail test requires a state-independent measure")
    if C <= 0.0:
        raise ValueError("C must be positive")

    def integrand(t):
        return tail_mass(measure, 0.0, 2.0 * C * v(t))

    verdict = classify_integral_at_zero(integrand, t_max, levels)
    verdict.extras.update(test="lower_tail", C=C)
    return verdict


def symbol_liminf_test(g: Callable[[float], float], w: Callable[[float], float],
                       t_max: float, levels: int) -> TestVerdict:
    """Classify liminf_{t->0} t g(1/w(t)) as zero, positive-finite or infinite.

    Probes m_j = t_j g(1/w(t_j)) on t_j = t_max 2^{-j}; the verdict is read
    from the suffix minima (the liminf proxies from each level) together with
    the trend of the raw sequence over the last half of the levels.
    """
    if levels < 8:
        raise ValueError("levels must be >= 8")
    ts = t_max * 2.0 ** (-np.arange(levels + 1, dtype=float))
    ws = np.array([float(w(float(t))) for t in ts])
    if np.any(ws <= 0.0):
        raise ValueError("w must be positive on the probe grid")
    if np.any(ws[1:] > ws[:-1] * (1.0 + 1e-12)):
        raise ValueError("w must be decreasing along the probe grid (increasing in t)")
    m = ts * np.array([float(g(1.0 / wv)) for wv in ws])
    if np.any(m < 0.0):
        raise ValueError("t g(1/w) must be nonnegative")
    run_min = np.minimum.accumulate(m[::-1])[::-1]   # suffix minima
    n_levels = m.size
    half = n_levels // 2
    quarter = n_levels - math.ceil(n_levels / 4)
    m_half, m_tail = m[half], m[-1]
    r_half, r_tail = run_min[half], run_min[-1]
    tail_m = m[quarter:]
    tail_r = run_min[quarter:]
    median_m = float(np.median(tail_m))
    spread = float((np.max(tail_m) - np.min(tail_m)) / max(median_m, 1e-300))
    slope = float(np.polyfit(np.arange(half, n_levels), np.log(np.maximum(m[half:], 1e-300)), 1)[0])
    extras = {"test": "symbol_liminf", "probe_times": [float(t) for t in ts],
              "running_minima": [float(v) for v in run_min]}
    common = dict(block_values=tuple(float(v) for v in m), fitted_exponent=slope,
                  tail_fraction=None, extras=extras)

    decayed = m_half > 0 and m_tail <= (1.0 - DELTA_TREND) * m_half and slope < 0.0
    if decayed or (median_m < DELTA_ZERO and slope < 0.0):
        return TestVerdict(verdict="zero",
                           confidence_note="levels decay toward zero", **common)
    grew = r_tail >= (1.0 + DELTA_TREND) * r_half and float(np.min(tail_r)) > DELTA_ZERO
    if grew:
        return TestVerdict(verdict="infinite",
                           confidence_note="running minima keep growing", **common)
    if spread <= SPREAD_MAX:
        c = float(np.median(tail_r))
        return TestVerdict(verdict="positive_finite", constant=c,
                           confidence_note=f"levels stabilize within {spread:.1%}", **common)
    return TestVerdict(verdict="inconclusive",
                       confidence_note="levels neither stabilize nor trend", **common)
