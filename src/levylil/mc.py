"""Monte Carlo estimates of small-time probabilities and inequality checks.

Every probability is a share of paths with its binomial standard error,
computed only by ``ProbabilityEstimate.of``; probe times reach stored columns
only through ``_probes``.  Probability comparisons use 3 standard errors of
slack and characteristic function moduli use a 4/sqrt(N) band.  Aggregations
run over paths in a fixed order with compensated summation, so results are
deterministic given (master seed, spec, grid, window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import LevyOnlyError
from .measures import MeasureSpec
from .norming import ball_extremum, chung_rate, u_of_R
from .simulate import PathEnsemble, PathGrid
from .symbols import SymbolFamily, tail_mass


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Sample proportion with binomial standard error."""

    p_hat: float
    standard_error: float
    sample_size: int

    @classmethod
    def of(cls, hits: np.ndarray) -> "ProbabilityEstimate":
        """The share of True entries of a boolean array, one entry per path."""
        n = hits.size
        if n == 0:
            raise ValueError("empty ensemble")
        p = int(np.count_nonzero(hits)) / n
        return cls(p_hat=p, standard_error=math.sqrt(p * (1.0 - p) / n), sample_size=n)

    def to_dict(self):
        return {"p_hat": self.p_hat, "standard_error": self.standard_error,
                "sample_size": self.sample_size}


def estimate_sup_probability(ensemble: PathEnsemble, t: float, R: float,
                             direction: str = "ge") -> ProbabilityEstimate:
    """P^x(sup_{s<=t} |X_s - x| >= R) or (< R) as a sample proportion."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    if direction not in ("ge", "lt"):
        raise ValueError("direction must be 'ge' or 'lt'")
    rs = ensemble.running_sup[:, ensemble.time_index(t)]
    return ProbabilityEstimate.of(rs >= R if direction == "ge" else rs < R)


def _compensated_mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / values.size


def _probes(ensemble: PathEnsemble, t_list) -> list:
    """(column, stored time) nearest to each probe time, in request order, each
    column once: probes that snap to the same stored time give one row."""
    return [(idx, float(ensemble.times[idx]))
            for idx in dict.fromkeys(ensemble.nearest_index(t) for t in t_list)]


# --------------------------------------------------------------------------
# maximal inequalities (two-sided exit probability bounds)
# --------------------------------------------------------------------------

def maximal_inequality_check(ensemble: PathEnsemble, measure: MeasureSpec, x: float,
                             t_list, R_list) -> dict:
    """Fit the constants in the two-sided exit-probability bounds.

    For each (t, R): c1 candidate = P(sup >= R) / (t sup-ball p^U) and
    c2 candidate = P(sup < R) * (t inf-ball p^U).  PASS when both fitted
    constants are finite and grow at most 2x under grid refinement.  The ball
    extrema depend on R alone, so both fits share them, one per radius.
    """
    if any(R <= 0.0 for R in R_list):
        raise ValueError("R must be positive")
    radii = list(dict.fromkeys([*R_list, *_densify_list(R_list)]))
    r = np.array(radii, dtype=float)
    sups, infs = (ball_extremum(measure, x, r, 1.0 / r, m).tolist() for m in ("sup", "inf"))
    balls = dict(zip(radii, zip(sups, infs)))

    def fitted(ts, Rs):
        c1 = c2 = 0.0
        rows = []
        for idx, t_snap in _probes(ensemble, ts):
            rs = ensemble.running_sup[:, idx]
            for R in Rs:
                sup_ball, inf_ball = balls[R]
                p_ge, p_lt = ProbabilityEstimate.of(rs >= R), ProbabilityEstimate.of(rs < R)
                r1 = p_ge.p_hat / (t_snap * sup_ball)
                r2 = p_lt.p_hat * (t_snap * inf_ball)
                rows.append({"t": t_snap, "R": R, "c1_candidate": r1, "c2_candidate": r2,
                             "p_ge": p_ge.to_dict(), "p_lt": p_lt.to_dict()})
                c1 = max(c1, r1)
                c2 = max(c2, r2)
        return c1, c2, rows

    c1_base, c2_base, rows = fitted(t_list, R_list)
    c1_ref, c2_ref, _ = fitted(_densify_list(t_list), _densify_list(R_list))
    ok = (math.isfinite(c1_ref) and math.isfinite(c2_ref)
          and c1_ref <= 2.0 * max(c1_base, 1e-300) and c2_ref <= 2.0 * max(c2_base, 1e-300))
    return {"check": "maximal_inequality", "pass": bool(ok),
            "c1_hat": c1_base, "c2_hat": c2_base,
            "c1_refined": c1_ref, "c2_refined": c2_ref, "rows": rows}


def _densify_list(values):
    v = np.asarray(sorted(values), dtype=float)
    mids = np.sqrt(v[:-1] * v[1:]) if np.all(v > 0) else 0.5 * (v[:-1] + v[1:])
    return np.sort(np.concatenate([v, mids]))


# --------------------------------------------------------------------------
# geometric decay of confinement probabilities
# --------------------------------------------------------------------------

def multi_interval_decay(ensemble: PathEnsemble, measure: MeasureSpec, x: float,
                         R: float, m_max: int) -> dict:
    """q_m = P(sup_{s <= m u(x,R)} |X_s - x| <= R) for m = 1..m_max with a
    log-linear fit; PASS when the fit is linear (R^2 >= 0.98) with negative
    slope, the two-sided geometric envelope."""
    u = u_of_R(measure, x, R)
    if m_max * u > ensemble.times[-1] * (1.0 + 1e-9):
        raise ValueError("grid does not cover m_max * u(x, R)")
    ms = np.arange(1, m_max + 1)
    idx = [ensemble.nearest_index(m * u) for m in ms]   # one q per m, repeats kept
    q = np.array([ProbabilityEstimate.of(ensemble.running_sup[:, i] <= R).p_hat for i in idx])
    snapped = ensemble.times[idx].tolist()
    truncated = False
    pos = q > 0.0
    if not np.all(pos):
        last = int(np.argmin(pos))   # first zero
        ms_fit, q_fit = ms[:last], q[:last]
        truncated = True
    else:
        ms_fit, q_fit = ms, q
    if q_fit.size < 2:
        return {"check": "multi_interval_decay", "pass": False, "u": u,
                "q": q.tolist(), "note": "too few positive q_m to fit"}
    slope, intercept = np.polyfit(ms_fit, np.log(q_fit), 1)
    fitted = slope * ms_fit + intercept
    ss_res = float(np.sum((np.log(q_fit) - fitted) ** 2))
    ss_tot = float(np.sum((np.log(q_fit) - np.mean(np.log(q_fit))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    ok = r2 >= 0.98 and slope < 0.0 and bool(np.all(np.diff(q) <= 1e-12))
    return {"check": "multi_interval_decay", "pass": bool(ok), "u": u,
            "m": ms.tolist(), "q": q.tolist(), "times": snapped,
            "slope": float(slope), "r_squared": r2, "truncated": truncated,
            "sample_size": ensemble.n_paths}


# --------------------------------------------------------------------------
# one-sided marginal estimate (Spitzer-type)
# --------------------------------------------------------------------------

def spitzer_estimate(ensemble: PathEnsemble, x: float, t_list) -> list:
    """P^x(X_t < x) at the stored time nearest to each probe time (once per
    stored time), with binomial standard errors."""
    return [{"t": ts, **ProbabilityEstimate.of(ensemble.positions[:, idx] < x).to_dict()}
            for idx, ts in _probes(ensemble, t_list)]


# --------------------------------------------------------------------------
# Etemadi chain
# --------------------------------------------------------------------------

def etemadi_check(ensemble: PathEnsemble, v: Callable[[float], float], C: float,
                  t_list) -> dict:
    """Check, with 3-SE slack at every probed t,

        3 P(|X_t - x| >= (C/3) v(t)) >= P(sup_{s<=t}|X_s - x| >= C v(t))
                                      >= 1 - exp(-t nu{|y| >= 2 C v(t)}).
    """
    measure = ensemble.process.levy_triplet.measure
    if not measure.is_state_independent:
        raise LevyOnlyError("Etemadi check requires a Levy (state-independent) ensemble")
    rows = []
    ok = True
    n = ensemble.n_paths
    for idx, ts in _probes(ensemble, t_list):
        vt = float(v(ts))
        marg = ProbabilityEstimate.of(
            np.abs(ensemble.positions[:, idx] - ensemble.x0) >= (C / 3.0) * vt)
        sup = ProbabilityEstimate.of(ensemble.running_sup[:, idx] >= C * vt)
        lower = 1.0 - math.exp(-ts * tail_mass(measure, ensemble.x0, 2.0 * C * vt))
        first = 3.0 * marg.p_hat + 3.0 * marg.standard_error >= sup.p_hat - 3.0 * sup.standard_error
        # 3/n rule-of-three allowance keeps the check meaningful at p_hat = 0
        second = sup.p_hat + 3.0 * sup.standard_error + 3.0 / n >= lower
        ok = ok and first and second
        rows.append({"t": ts, "v": vt, "marginal": marg.to_dict(), "sup": sup.to_dict(),
                     "tail_lower_bound": lower,
                     "etemadi_holds": bool(first), "tail_bound_holds": bool(second)})
    return {"check": "etemadi", "pass": bool(ok), "C": C, "rows": rows}


# --------------------------------------------------------------------------
# empirical characteristic function bound
# --------------------------------------------------------------------------

def empirical_charfn(ensemble: PathEnsemble, xi: float, t: float) -> complex:
    """lambda_hat_t(xi) = ensemble mean of e^{i xi (X_t - x)} (compensated sums)."""
    dx = ensemble.positions[:, ensemble.nearest_index(t)] - ensemble.x0
    if xi == 0.0:
        return complex(1.0, 0.0)
    return complex(_compensated_mean(np.cos(xi * dx)), _compensated_mean(np.sin(xi * dx)))


def empirical_charfn_bound(ensemble: PathEnsemble, symbol: SymbolFamily,
                           xi_list, t_list, *, epsilon: Optional[float] = None) -> dict:
    """Check |lambda_hat_t(x, xi)| <= exp(-delta t g(xi)) + 4/sqrt(N).

    delta = 1 - c0 - epsilon with c0 the sector estimate; epsilon defaults to
    (1 - c0)/2.  Each probed t is snapped to the nearest stored time, at
    which the bound is evaluated and the row reported; probes that snap to
    the same stored time give one row per xi.  PASS when at most 1%
    of the probed (t, xi) pairs violate the bound.  When all violations sit
    at the largest probed t the report is flagged (unknown validity horizon
    t0(xi, eps)) instead of failed.
    """
    c0 = symbol.sector_value
    if c0 is None or c0 >= 1.0:
        raise ValueError("sector too large: need a finite sector estimate c0 < 1")
    if epsilon is None:
        epsilon = (1.0 - c0) / 2.0
    delta = 1.0 - c0 - epsilon
    if delta <= 0.0:
        raise ValueError("need delta = 1 - c0 - epsilon > 0")
    band = 4.0 / math.sqrt(ensemble.n_paths)
    rows = []
    violations = []
    ts = [t for _, t in _probes(ensemble, t_list)]
    t_max_probe = max(ts)
    for t in ts:
        for xi in xi_list:
            lam = empirical_charfn(ensemble, xi, t)
            bound = math.exp(-delta * t * float(symbol.g(xi))) if xi != 0.0 else 1.0
            violated = abs(lam) > bound + band
            rows.append({"t": t, "xi": float(xi),
                         "modulus": abs(lam), "re": lam.real, "im": lam.imag,
                         "bound": bound, "violated": bool(violated)})
            if violated:
                violations.append((t, xi))
    frac = len(violations) / len(rows)
    clustered = bool(violations) and all(t >= t_max_probe * (1.0 - 1e-12) for t, _ in violations)
    ok = frac <= 0.01
    flagged = (not ok) and clustered
    return {"check": "empirical_charfn_bound", "pass": bool(ok or flagged),
            "flagged_t0_horizon": bool(flagged), "violation_fraction": frac,
            "delta": delta, "band": band, "rows": rows}


# --------------------------------------------------------------------------
# Chung statistic
# --------------------------------------------------------------------------

@dataclass
class ChungStatistic:
    """Per-path L_hat = min over dyadic probes of running_sup(t)/rate(t), with
    the dual exit-time statistic sup_a tau(a) / (u(x,a) log|log u(x,a)|)."""

    window: tuple
    probe_times: tuple
    rates: tuple
    values: np.ndarray
    median: float
    q25: float
    q75: float
    dual_median: Optional[float] = None
    dual_q25: Optional[float] = None
    dual_q75: Optional[float] = None
    dual_paths: int = 0

    def summary(self):
        d = {"window": list(self.window), "probe_times": list(self.probe_times),
             "rates": list(self.rates), "median": self.median,
             "q25": self.q25, "q75": self.q75, "n_paths": int(self.values.size)}
        if self.dual_median is not None:
            d.update({"dual_median": self.dual_median, "dual_q25": self.dual_q25,
                      "dual_q75": self.dual_q75, "dual_paths": self.dual_paths})
        return d


def chung_statistic(ensemble: PathEnsemble, measure: MeasureSpec, x: float,
                    t_lo: float, t_hi: float, *,
                    rate_exponent: Optional[float] = None) -> ChungStatistic:
    """Ensemble Chung statistic over the dyadic probe window [t_lo, t_hi].

    The rate is ``chung_rate``; ``rate_exponent`` replaces it by
    (t / log|log t|)^rate_exponent (misspecification diagnostics).  The dual
    exit-time statistic is computed only for the correctly specified rate.
    log|log t| is positive only for t < e^-1, so ``t_hi`` must lie below it.
    """
    if not (0.0 < t_lo <= t_hi):
        raise ValueError("need 0 < t_lo <= t_hi")
    if t_hi >= math.exp(-1.0):
        raise ValueError(f"t_hi={t_hi} outside (0, e^-1); log|log t| must be positive")
    if t_hi > ensemble.times[-1] * (1 + 1e-9) or t_hi < ensemble.times[0] * (1 - 1e-9):
        raise ValueError("window outside the stored grid")
    dyadic = []
    t = t_hi
    while t >= t_lo * (1.0 - 1e-12):
        dyadic.append(t)
        t *= 0.5
    idx, probes = zip(*sorted(_probes(ensemble, dyadic)))
    if probes[-1] >= math.exp(-1.0):
        raise ValueError(f"t_hi={t_hi} snaps to grid time {probes[-1]}, not below e^-1")
    if rate_exponent is None:
        rates = chung_rate(measure, x, np.array(probes)).tolist()
    else:
        rates = [(tp / math.log(abs(math.log(tp)))) ** rate_exponent for tp in probes]
    ratios = ensemble.running_sup[:, list(idx)] / np.asarray(rates)
    values = np.min(ratios, axis=1)

    dual = {}
    if rate_exponent is None:
        dual_vals = _dual_exit_statistic(ensemble, measure, x, rates)
        if dual_vals.size:
            dual = {f"dual_{k}": v for k, v in _quartiles(dual_vals).items()}
            dual["dual_paths"] = int(dual_vals.size)
    return ChungStatistic(window=(t_lo, t_hi), probe_times=probes,
                          rates=tuple(rates), values=values, **_quartiles(values), **dual)


def _quartiles(values):
    """The median and the quartiles of a per-path statistic."""
    return {name: float(np.percentile(values, q))
            for name, q in (("median", 50), ("q25", 25), ("q75", 75))}


def resolution_drift(ensemble: PathEnsemble, statistic, stride: int = 2) -> dict:
    """Grid-discretization diagnostic: evaluate a scalar ensemble statistic at
    full resolution and on every ``stride``-th grid time, report the relative
    drift.  The coarse ensemble's running sup is the cummax of its own
    positions, as the coarser grid would measure it.  On a uniform grid with
    a power-of-two ``stride`` its grid is that coarser grid,
    ``PathGrid(t_max, steps // stride)``; no ``PathGrid`` has the times of any
    other stride or layout, so then it keeps the fine grid and its
    ``metadata()`` names the grid its times were taken from.  Running suprema
    measured on a grid underestimate the true supremum; a small drift
    indicates the grid resolves the statistic."""
    if ensemble.recorded:
        raise ValueError("resolution_drift needs a full-grid ensemble")
    if not 1 <= stride <= ensemble.times.size:
        raise ValueError(f"stride must be in [1, {ensemble.times.size}], the number of "
                         f"stored times; got {stride}")
    grid = ensemble.grid
    if grid.layout == "uniform" and not stride & (stride - 1):
        grid = PathGrid(grid.t_max, grid.steps // stride)
    idx = np.arange(stride - 1, ensemble.times.size, stride)
    pos = ensemble.positions[:, idx]
    rs = np.subtract(pos, ensemble.x0)
    np.abs(rs, out=rs)
    np.maximum.accumulate(rs, axis=1, out=rs)
    coarse_ens = replace(ensemble, grid=grid, times=ensemble.times[idx], positions=pos,
                         running_sup=rs)
    full = float(statistic(ensemble))
    coarse = float(statistic(coarse_ens))
    denom = max(abs(full), 1e-300)
    return {"full": full, "coarse": coarse, "stride": stride,
            "relative_drift": abs(full - coarse) / denom}


def _dual_exit_statistic(ensemble, measure, x, radii):
    """sup over the radius grid of tau(a) / (u(x,a) log|log u(x,a)|) per path."""
    radii = [a for a in radii if 0.0 < a <= 1.0]
    us = u_of_R(measure, x, np.array(radii, dtype=float)).tolist()
    usable = [(a, u * math.log(abs(math.log(u)))) for a, u in zip(radii, us)
              if u < math.exp(-1.0)]
    if not usable:
        return np.array([])
    best = np.full(ensemble.n_paths, np.nan)
    for a, denom in usable:
        # fmax skips nan, the paths that never reach a
        best = np.fmax(best, ensemble.first_passage_times(a) / denom)
    return best[~np.isnan(best)]
