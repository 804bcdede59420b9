import math

import numpy as np
import pytest

import levylil as ll
from levylil import mc
from levylil.norming import ball_extremum, chung_rate

ALPHA = 1.5
STABLE = ll.SymmetricStableProcess(alpha=ALPHA)
# measure with p^U = |xi|^alpha and the process realizing exactly that triplet
M_NORM = ll.PowerLawMeasure(alpha=ALPHA)
PROC_NORM = ll.process_from_triplet(ll.LevyTriplet(measure=M_NORM))
M_SIN = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))


@pytest.fixture(scope="module")
def ens():
    grid = ll.PathGrid(t_max=1.0, steps=2048)
    return ll.simulate_ensemble(STABLE, 0.0, grid, 101, 20_000)


@pytest.fixture(scope="module")
def ens_small():
    grid = ll.PathGrid(t_max=1.0, steps=256)
    return ll.simulate_ensemble(STABLE, 0.0, grid, 55, 4_000)


# --------------------------------------------------------------------------
# sup probabilities
# --------------------------------------------------------------------------

def test_sup_probability_extremes(ens_small):
    t = 0.5
    assert ll.estimate_sup_probability(ens_small, t, 1e9, "ge").p_hat == 0.0
    assert ll.estimate_sup_probability(ens_small, t, 1e-300, "ge").p_hat == 1.0


def test_sup_probability_complementarity(ens_small):
    t, R = 0.25, 0.7
    ge = ll.estimate_sup_probability(ens_small, t, R, "ge")
    lt = ll.estimate_sup_probability(ens_small, t, R, "lt")
    assert ge.p_hat + lt.p_hat == 1.0
    assert ge.standard_error == pytest.approx(
        math.sqrt(ge.p_hat * (1 - ge.p_hat) / ens_small.n_paths))
    # the one estimator: the share of True entries of a column, one per path
    hits = ens_small.running_sup[:, ens_small.time_index(t)] >= R
    assert ll.ProbabilityEstimate.of(hits) == ge
    assert ge.p_hat == int(hits.sum()) / hits.size and ge.sample_size == hits.size
    with pytest.raises(ValueError, match="empty ensemble"):
        ll.ProbabilityEstimate.of(np.zeros(0, dtype=bool))


def test_sup_probability_requires_grid_time(ens_small):
    with pytest.raises(ValueError):
        ll.estimate_sup_probability(ens_small, 0.1234567, 1.0)


def test_sup_probability_self_similarity(ens):
    # P(sup_{s<=t} |X| < R) depends on t / R^alpha only
    t1, R1 = 1.0, 1.2
    t2, R2 = t1 / 8.0, R1 / 8.0 ** (1 / ALPHA)
    p1 = ll.estimate_sup_probability(ens, t1, R1, "lt")
    p2 = ll.estimate_sup_probability(ens, ens.nearest_time(t2), R2, "lt")
    joint = math.hypot(p1.standard_error, p2.standard_error)
    assert abs(p1.p_hat - p2.p_hat) <= 3.0 * joint + 1e-3   # small grid-sup bias allowance


# --------------------------------------------------------------------------
# maximal inequalities
# --------------------------------------------------------------------------

def test_maximal_inequality_stable(ens):
    t_list = [0.125, 0.25, 0.5, 1.0]
    R_list = [0.5, 1.0, 2.0]
    rep = ll.maximal_inequality_check(ens, STABLE.levy_triplet.measure, 0.0, t_list, R_list)
    assert rep["pass"]
    assert math.isfinite(rep["c1_hat"]) and math.isfinite(rep["c2_hat"])
    assert rep["c1_refined"] <= 2.0 * rep["c1_hat"]


def test_maximal_inequality_ball_extrema_once_per_radius(ens_small, monkeypatch):
    # the ball extrema depend on R alone: each mode once per distinct radius
    # of the base and refined lists together, not per (t, R) pair or per fit
    radii = {"sup": [], "inf": []}

    def counted(measure, x, radius, xi, mode):
        radii[mode] += np.atleast_1d(radius).tolist()
        return ball_extremum(measure, x, radius, xi, mode)

    monkeypatch.setattr(mc, "ball_extremum", counted)
    t_list, R_list = [0.25, 0.5, 1.0], [0.5, 1.0, 2.0]
    rep = ll.maximal_inequality_check(ens_small, M_SIN, 0.0, t_list, R_list)
    for mode in ("sup", "inf"):
        assert sorted(radii[mode]) == sorted(set(radii[mode])) and len(radii[mode]) == 5
    # each row is the estimate and the ball extremum of its own (t, R)
    for row in rep["rows"]:
        t, R = row["t"], row["R"]
        p_ge = ll.estimate_sup_probability(ens_small, t, R, "ge")
        p_lt = ll.estimate_sup_probability(ens_small, t, R, "lt")
        assert row["p_ge"] == p_ge.to_dict() and row["p_lt"] == p_lt.to_dict()
        sup_ball, inf_ball = (ball_extremum(M_SIN, 0.0, R, 1.0 / R, m) for m in ("sup", "inf"))
        assert row["c1_candidate"] == p_ge.p_hat / (t * sup_ball)
        assert row["c2_candidate"] == p_lt.p_hat * (t * inf_ball)
    assert rep["c1_hat"] == max(r["c1_candidate"] for r in rep["rows"])


def test_maximal_inequality_large_radius_vanishes(ens_small):
    rep = ll.maximal_inequality_check(ens_small, STABLE.levy_triplet.measure, 0.0, [0.5], [1e7])
    row = rep["rows"][0]
    assert row["c1_candidate"] == 0.0   # no path exceeds a huge radius


# --------------------------------------------------------------------------
# multi-interval decay
# --------------------------------------------------------------------------

def test_multi_interval_decay_monotone():
    # normalized measure gives u(x, 1) = 1 exactly
    grid = ll.PathGrid(t_max=4.0, steps=1024)
    e = ll.simulate_ensemble(PROC_NORM, 0.0, grid, 91, 5000)
    rep = ll.multi_interval_decay(e, M_NORM, 0.0, 1.0, 3)
    assert rep["u"] == pytest.approx(1.0, rel=1e-9)
    q = rep["q"]
    assert all(a >= b for a, b in zip(q, q[1:]))
    assert q[0] <= 1.0
    assert rep["slope"] < 0


def test_multi_interval_decay_needs_grid_coverage(ens_small):
    with pytest.raises(ValueError, match="cover"):
        ll.multi_interval_decay(ens_small, STABLE.levy_triplet.measure, 0.0, 1.0, 50)


# --------------------------------------------------------------------------
# Spitzer estimates
# --------------------------------------------------------------------------

def test_spitzer_symmetric_half(ens):
    rows = ll.spitzer_estimate(ens, 0.0, [2.0 ** -k for k in range(0, 6)])
    for r in rows:
        assert abs(r["p_hat"] - 0.5) <= 3.0 * r["standard_error"]


def test_spitzer_upward_jumps_below_half():
    proc = ll.CompoundPoissonProcess(atoms=((1.0, 1.0),))   # no compensation drift
    grid = ll.PathGrid(t_max=1.0, steps=256)
    e = ll.simulate_ensemble(proc, 0.0, grid, 17, 4000)
    rows = ll.spitzer_estimate(e, 0.0, [0.0625, 0.25])
    for r in rows:
        assert r["p_hat"] == 0.0   # paths only jump upward


def test_spitzer_se_scaling():
    grid = ll.PathGrid(t_max=1.0, steps=64)
    small = ll.simulate_ensemble(STABLE, 0.0, grid, 3, 1000)
    big = ll.simulate_ensemble(STABLE, 0.0, grid, 3, 16000)
    se_small = ll.spitzer_estimate(small, 0.0, [1.0])[0]["standard_error"]
    se_big = ll.spitzer_estimate(big, 0.0, [1.0])[0]["standard_error"]
    assert se_big == pytest.approx(se_small / 4.0, rel=0.2)


# --------------------------------------------------------------------------
# Etemadi chain
# --------------------------------------------------------------------------

def test_etemadi_chain_stable(ens):
    rep = ll.etemadi_check(ens, lambda t: t ** (2.0 / 3.0), 1.0,
                           [2.0 ** -k for k in range(0, 8)])
    assert rep["pass"]
    for row in rep["rows"]:
        assert row["etemadi_holds"] and row["tail_bound_holds"]


def test_etemadi_vacuous_for_huge_C(ens_small):
    rep = ll.etemadi_check(ens_small, lambda t: t ** (2.0 / 3.0), 1e6, [0.25, 0.5])
    assert rep["pass"]
    for row in rep["rows"]:
        assert row["sup"]["p_hat"] == 0.0


def test_etemadi_rejects_state_dependent():
    proc = ll.StableLikeProcess(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))
    grid = ll.PathGrid(t_max=0.5, steps=64)
    e = ll.simulate_ensemble(proc, 0.0, grid, 5, 100)
    with pytest.raises(ll.LevyOnlyError):
        ll.etemadi_check(e, lambda t: t, 1.0, [0.25])


# --------------------------------------------------------------------------
# empirical characteristic function
# --------------------------------------------------------------------------

def test_charfn_at_zero_exact(ens_small):
    lam = ll.empirical_charfn(ens_small, 0.0, 0.5)
    assert lam == complex(1.0, 0.0)


def test_charfn_symmetric_imaginary_small(ens):
    for xi in (0.5, 1.0, 2.0):
        lam = ll.empirical_charfn(ens, xi, 1.0)
        assert abs(lam.imag) <= 4.0 / math.sqrt(ens.n_paths)


def test_charfn_matches_exact_exponent(ens):
    # unit-scale 1.5-stable: E e^{i xi X_t} = exp(-t xi^1.5)
    for t in (0.25, 1.0):
        for xi in (0.5, 1.0, 2.0):
            lam = ll.empirical_charfn(ens, xi, t)
            assert abs(abs(lam) - math.exp(-t * xi ** ALPHA)) <= 4.0 / math.sqrt(ens.n_paths)


def test_charfn_bound_report(ens):
    fam = ll.SymbolFamily.from_stable(ALPHA)
    rep = ll.empirical_charfn_bound(ens, fam, [0.5, 1.0, 2.0, 4.0],
                                    [2.0 ** -k for k in range(0, 6)])
    assert rep["pass"]
    assert rep["violation_fraction"] <= 0.01
    # delta defaults to (1 - c0)/2 = 1/2
    assert rep["delta"] == pytest.approx(0.5)


def test_charfn_bound_reports_the_grid_time_it_measured(ens_small):
    # t = 0.3 lies between stored times; its nearest is 77/256
    fam = ll.SymbolFamily.from_stable(ALPHA)
    rep = ll.empirical_charfn_bound(ens_small, fam, [1.0], [0.3])
    (row,) = rep["rows"]
    assert row["t"] == ens_small.nearest_time(0.3) == 0.30078125
    assert row["bound"] == math.exp(-rep["delta"] * 0.30078125)
    assert row["modulus"] == abs(ll.empirical_charfn(ens_small, 1.0, 0.30078125))


def test_probes_snapping_to_one_stored_time_give_one_row(ens_small):
    # 0.3 and 0.301 both snap to 77/256 on the 256-step grid; the inflated
    # envelope of scale 4 is violated there for each xi, which must count once
    fam = ll.SymbolFamily.from_stable(ALPHA, scale=4.0)
    fam.sector = ll.SectorEstimate(value=0.0, unbounded=False, history=(0.0,))
    dup = ll.empirical_charfn_bound(ens_small, fam, [0.5, 1.0], [0.0625, 0.3, 0.301])
    once = ll.empirical_charfn_bound(ens_small, fam, [0.5, 1.0], [0.0625, 0.3])
    assert [r["t"] for r in dup["rows"]] == [0.0625, 0.0625, 0.30078125, 0.30078125]
    assert dup == once
    assert [r["violated"] for r in dup["rows"]] == [False, False, True, True]
    assert dup["violation_fraction"] == 0.5
    spitzer = ll.spitzer_estimate(ens_small, 0.0, [0.3, 0.301, 0.0625])
    assert spitzer == ll.spitzer_estimate(ens_small, 0.0, [0.3, 0.0625])
    assert [r["t"] for r in spitzer] == [0.30078125, 0.0625]
    etemadi = ll.etemadi_check(ens_small, lambda t: t ** (2.0 / 3.0), 1.0, [0.3, 0.301])
    assert [r["t"] for r in etemadi["rows"]] == [0.30078125]
    maximal = ll.maximal_inequality_check(ens_small, STABLE.levy_triplet.measure, 0.0,
                                          [0.3, 0.301], [1.0])
    assert [r["t"] for r in maximal["rows"]] == [0.30078125]


def test_charfn_bound_sector_too_large(ens_small):
    fam = ll.SymbolFamily.from_stable(ALPHA)
    fam.sector = ll.SectorEstimate(value=1.2, unbounded=False, history=(1.2,))
    with pytest.raises(ValueError, match="sector"):
        ll.empirical_charfn_bound(ens_small, fam, [1.0], [0.5])


# --------------------------------------------------------------------------
# Chung statistic
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ens_chung():
    grid = ll.PathGrid(t_max=1e-2, steps=4096)
    return ll.simulate_ensemble(PROC_NORM, 0.0, grid, 77, 3000)


def test_chung_statistic_degenerate_window(ens_chung):
    t = ens_chung.nearest_time(1e-3)
    stat = ll.chung_statistic(ens_chung, M_NORM, 0.0, t, t)
    assert len(stat.probe_times) == 1
    idx = ens_chung.time_index(t)
    rate = chung_rate(M_NORM, 0.0, t)
    want = ens_chung.running_sup[:, idx] / rate
    assert np.allclose(stat.values, want, rtol=1e-9)


def test_chung_statistic_rates_are_chung_rate(ens_chung):
    sinusoidal = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))
    for measure in (M_NORM, sinusoidal):
        stat = ll.chung_statistic(ens_chung, measure, 0.0, 1e-4, 1e-2)
        assert np.array_equal(stat.rates,
                              [chung_rate(measure, 0.0, t) for t in stat.probe_times])


def test_chung_statistic_window_stability(ens_chung):
    a = ll.chung_statistic(ens_chung, M_NORM, 0.0, 1e-4, 1e-3)
    b = ll.chung_statistic(ens_chung, M_NORM, 0.0, 1e-3, 1e-2)
    assert 0.5 <= b.median / a.median <= 2.0
    assert a.q25 < a.median < a.q75
    assert a.dual_median is not None and a.dual_median > 0


def test_chung_statistic_misspecified_drifts(ens_chung):
    a = ll.chung_statistic(ens_chung, M_NORM, 0.0, 1e-4, 1e-3, rate_exponent=ALPHA + 0.4)
    b = ll.chung_statistic(ens_chung, M_NORM, 0.0, 1e-3, 1e-2, rate_exponent=ALPHA + 0.4)
    assert max(a.median, b.median) / min(a.median, b.median) >= 4.0


def test_chung_statistic_window_validation(ens_chung):
    with pytest.raises(ValueError):
        ll.chung_statistic(ens_chung, M_NORM, 0.0, 1e-3, 1e-1)   # beyond grid
    with pytest.raises(ValueError):
        ll.chung_statistic(ens_chung, M_NORM, 0.0, 0.0, 1e-3)


@pytest.mark.parametrize("steps, t_lo, t_hi", [(64, 0.4, 0.5), (64, 0.4, 1.0), (8, 0.1, 0.36)],
                         ids=["window_above", "window_to_t_max", "probe_snaps_above"])
@pytest.mark.parametrize("rate_exponent", [None, 0.5])
def test_chung_statistic_rejects_window_reaching_inverse_e(steps, t_lo, t_hi, rate_exponent):
    # log|log t| <= 0 from t = e^-1 on: the rate is undefined there
    ens = ll.simulate_ensemble(STABLE, 0.0, ll.PathGrid(t_max=1.0, steps=steps), 3, 16)
    with pytest.raises(ValueError, match="t_hi"):
        ll.chung_statistic(ens, M_NORM, 0.0, t_lo, t_hi, rate_exponent=rate_exponent)


def test_estimates_deterministic_under_regeneration():
    grid = ll.PathGrid(t_max=1.0, steps=128)
    e1 = ll.simulate_ensemble(STABLE, 0.0, grid, 31, 2000)
    e2 = ll.simulate_ensemble(STABLE, 0.0, grid, 31, 2000, chunk_size=333)
    p1 = ll.estimate_sup_probability(e1, 0.5, 0.8, "ge")
    p2 = ll.estimate_sup_probability(e2, 0.5, 0.8, "ge")
    assert p1 == p2
    l1 = ll.empirical_charfn(e1, 1.3, 1.0)
    l2 = ll.empirical_charfn(e2, 1.3, 1.0)
    assert l1 == l2


# --------------------------------------------------------------------------
# diagnostics and edge branches
# --------------------------------------------------------------------------

def test_multi_interval_decay_truncates_at_zero_q():
    grid = ll.PathGrid(t_max=4.0, steps=512)
    e = ll.simulate_ensemble(PROC_NORM, 0.0, grid, 13, 300)
    rep = ll.multi_interval_decay(e, M_NORM, 0.0, 0.5, 8)
    # with 300 paths the later confinement events are unobserved
    assert rep["truncated"]
    assert rep["q"][-1] == 0.0


def test_charfn_bound_flags_violations_clustered_at_largest_t(ens_small):
    # inflate the envelope: the bound is then wrong exactly where t g(xi)
    # is large, i.e. at the largest probed t
    fam = ll.SymbolFamily.from_stable(ALPHA, scale=4.0)
    fam.sector = ll.SectorEstimate(value=0.0, unbounded=False, history=(0.0,))
    rep = ll.empirical_charfn_bound(ens_small, fam, [1.0], [0.03125, 0.0625, 1.0])
    assert rep["violation_fraction"] > 0.01
    assert rep["flagged_t0_horizon"]
    assert rep["pass"]   # flagged, not failed
    viol = [r for r in rep["rows"] if r["violated"]]
    assert all(r["t"] == 1.0 for r in viol)


def test_resolution_drift_diagnostic():
    grid = ll.PathGrid(t_max=1.0, steps=1024)
    e = ll.simulate_ensemble(STABLE, 0.0, grid, 3, 2000)
    stat = lambda ens: float(np.median(ens.running_sup[:, -1]))
    rep = ll.resolution_drift(e, stat, stride=4)
    assert rep["coarse"] <= rep["full"]
    assert rep["relative_drift"] < 0.1
    # a recorded ensemble has no grid columns to coarsen
    part = ll.simulate_ensemble(STABLE, 0.0, grid, 3, 20, record_times=[0.5, 1.0])
    with pytest.raises(ValueError):
        ll.resolution_drift(part, stat)


@pytest.mark.parametrize("stride", [0, -1, 32])
def test_resolution_drift_rejects_stride_outside_grid(stride):
    e = ll.simulate_ensemble(STABLE, 0.0, ll.PathGrid(t_max=1.0, steps=16), 3, 10)
    stat = lambda ens: float(np.median(ens.running_sup[:, -1]))
    with pytest.raises(ValueError, match=rf"\[1, 16\].*got {stride}$"):
        ll.resolution_drift(e, stat, stride=stride)
    # the coarsest stride keeps one column, the last grid time
    rep = ll.resolution_drift(e, stat, stride=16)
    assert rep["coarse"] <= rep["full"]


@pytest.mark.parametrize("stride", [1, 2, 4, 16])
def test_resolution_drift_coarse_ensemble_names_its_own_grid(stride):
    e = ll.simulate_ensemble(STABLE, 0.3, ll.PathGrid(t_max=0.7, steps=16), 3, 10)
    seen = []

    def stat(ens):
        seen.append(ens)
        return float(np.median(ens.running_sup[:, -1]))

    ll.resolution_drift(e, stat, stride=stride)
    coarse = seen[1]
    assert coarse.grid == ll.PathGrid(t_max=0.7, steps=16 // stride)
    assert np.array_equal(coarse.times, coarse.grid.times())
    assert np.array_equal(coarse.times, e.times[stride - 1::stride])
    assert coarse.metadata()["grid"]["steps"] == coarse.times.size
    assert (coarse.metadata()["spec_hash"] == e.metadata()["spec_hash"]) == (stride == 1)
    assert np.array_equal(coarse.running_sup,
                          np.maximum.accumulate(np.abs(coarse.positions - 0.3), axis=1))


@pytest.mark.parametrize("layout, stride", [("uniform", 3), ("uniform", 6),
                                            ("geometric", 2)])
def test_resolution_drift_keeps_fine_grid_without_coarse_grid(layout, stride):
    # no PathGrid has these coarse times: the coarse ensemble keeps the fine grid
    grid = (ll.PathGrid(t_max=1.0, steps=16) if layout == "uniform" else
            ll.PathGrid(t_max=1.0, steps=16, layout="geometric", levels=4, points_per_level=4))
    e = ll.simulate_ensemble(STABLE, 0.3, grid, 3, 10)
    seen = []

    def stat(ens):
        seen.append(ens)
        return float(np.median(ens.running_sup[:, -1]))

    rep = ll.resolution_drift(e, stat, stride=stride)
    coarse = seen[1]
    assert coarse.grid == grid
    assert np.array_equal(coarse.times, e.times[stride - 1::stride])
    assert np.array_equal(coarse.running_sup,
                          np.maximum.accumulate(np.abs(coarse.positions - 0.3), axis=1))
    assert rep["coarse"] <= rep["full"]


def test_maximal_inequality_degenerate_ensemble_passes():
    # vanishing jump activity: paths never move, both fitted constants finite
    proc = ll.CompoundPoissonProcess(atoms=((1.0, 1e-9), (-1.0, 1e-9)))
    grid = ll.PathGrid(t_max=1.0, steps=64)
    e = ll.simulate_ensemble(proc, 0.0, grid, 2, 500)
    assert float(np.max(e.running_sup)) == 0.0
    rep = ll.maximal_inequality_check(e, proc.levy_triplet.measure, 0.0, [0.5, 1.0], [0.5, 1.0])
    assert rep["pass"]
    assert rep["c1_hat"] == 0.0
    assert math.isfinite(rep["c2_hat"])
