import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import levylil as ll
from tests_support import random_tabulated_measures


M_CONST_12 = ll.PowerLawMeasure(alpha=1.2)
M_CONST_15 = ll.PowerLawMeasure(alpha=1.5)
M_CONST_10 = ll.PowerLawMeasure(alpha=1.0)
M_TANH = ll.PowerLawMeasure(alpha=ll.TanhRampProfile(center=1.0, amplitude=0.25))
M_SIN = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))
# alpha with a strict local minimum at x = 0: 1.5 - 0.3 cos(y)
M_LOCAL_MIN = ll.PowerLawMeasure(
    alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3, phase=-math.pi / 2))
# coefficient clip(1 + 2y, 0.5, 2) with kinks at y = -0.25 and y = 0.5
M_KINK = ll.PowerLawMeasure(
    alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3),
    coefficient=ll.AffineClampedProfile(intercept=1.0, slope=2.0, lo=0.5, hi=2.0))
M_KINK_POINTS = (-0.25, 0.5)


# --------------------------------------------------------------------------
# ball extrema
# --------------------------------------------------------------------------

def test_ball_extremum_constant_alpha():
    # closed form (1/R)^alpha for state-independent measures
    val = ll.pU_ball_extremum(M_CONST_12, 0.3, 0.1, 3, "inf")
    assert val == pytest.approx(0.1 ** -1.2, rel=1e-12)


def test_ball_extremum_local_min_alpha():
    # with the minimum of alpha at x, the infimum is (1/R)^alpha(x)
    for R in (0.5, 0.1, 0.02):
        val = ll.pU_ball_extremum(M_LOCAL_MIN, 0.0, R, 3, "inf")
        assert val == pytest.approx((1.0 / R) ** 1.2, rel=1e-10)


def test_ball_extremum_sup_ge_inf():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(-2, 2)
        R = 10 ** rng.uniform(-3, 0)
        sup = ll.pU_ball_extremum(M_SIN, x, R, 3, "sup")
        inf = ll.pU_ball_extremum(M_SIN, x, R, 3, "inf")
        assert sup >= inf


def test_ball_extremum_validates_arguments():
    with pytest.raises(ValueError):
        ll.pU_ball_extremum(M_SIN, 0.0, 0.1, 4, "inf")
    with pytest.raises(ValueError):
        ll.pU_ball_extremum(M_SIN, 0.0, 1.5, 3, "inf")
    with pytest.raises(ValueError):
        ll.pU_ball_extremum(M_SIN, 0.0, 0.1, 3, "min")


# --------------------------------------------------------------------------
# u and its generalized inverse
# --------------------------------------------------------------------------

def test_u_constant_alpha_closed_form():
    assert ll.u_of_R(M_CONST_12, 0.3, 0.1) == pytest.approx(0.1 ** 1.2, rel=1e-12)


def test_u_local_min_equals_power():
    for R in (0.5, 0.1, 0.01):
        assert ll.u_of_R(M_LOCAL_MIN, 0.0, R) == pytest.approx(R ** 1.2, rel=1e-8)


def test_u_doubling_bounded_by_kappa():
    # u(x, 2R) <= 4 kappa(x) u(x, R)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-2, 2)
        R = 10 ** rng.uniform(-3, math.log10(0.5))
        kap = ll.kappa_estimate(M_SIN, x, [R, 2 * R]).kappa
        assert (ll.u_of_R(M_SIN, x, 2 * R)
                <= 4.0 * kap * ll.u_of_R(M_SIN, x, R) * (1 + 1e-9))


def test_u_inverse_identity_for_alpha_one():
    assert ll.u_inverse(M_CONST_10, 0.0, 1e-3) == pytest.approx(1e-3, rel=1e-9)


def test_u_inverse_closed_power():
    m = ll.PowerLawMeasure(alpha=0.5)
    assert ll.u_inverse(m, 0.0, 1e-3) == pytest.approx(1e-6, rel=1e-9)


def test_u_inverse_tanh_ratio_tends_to_one():
    # |u^{-1}(x, rho)/rho^{1/alpha(x)} - 1| shrinks as rho -> 0
    ratios = [ll.u_inverse(M_TANH, 0.0, rho) / rho for rho in (1e-3, 1e-5, 1e-8)]
    devs = [abs(r - 1.0) for r in ratios]
    assert devs[0] < 0.02
    assert devs[1] < devs[0]
    assert devs[2] < devs[1]


def test_u_inverse_sandwich():
    # u(u^{-1}(rho) (1+1e-9)) >= rho and u(u^{-1}(rho)(1-1e-6)) < rho
    rng = np.random.default_rng(3)
    for m in (M_SIN, M_TANH):
        for _ in range(10):
            x = rng.uniform(-1, 1)
            rho = 10 ** rng.uniform(-8, -2)
            r = ll.u_inverse(m, x, rho)
            assert ll.u_of_R(m, x, r * (1 + 1e-9)) >= rho * (1 - 1e-12)
            assert ll.u_of_R(m, x, r * (1 - 1e-6)) < rho


def test_u_inverse_power_law_sandwich_constants():
    # c0 rho^{1/alpha0} <= u^{-1}(x, rho) <= c1 rho^{1/alpha1}; constants fitted
    # on half the grid must keep working on the other half
    a0, a1 = M_SIN.alpha.bounds()
    rhos = np.geomspace(1e-8, 1e-3, 12)
    vals = np.array([ll.u_inverse(M_SIN, 0.0, float(r)) for r in rhos])
    c0 = np.min(vals / rhos ** (1 / a0))
    c1 = np.max(vals / rhos ** (1 / a1))
    assert c0 > 0 and np.isfinite(c1)
    # constants fitted on the grid must keep working at interior midpoints
    mids = np.sqrt(rhos[:-1] * rhos[1:])
    mvals = np.array([ll.u_inverse(M_SIN, 0.0, float(r)) for r in mids])
    assert np.all(mvals >= c0 * mids ** (1 / a0) * (1 - 1e-9))
    assert np.all(mvals <= c1 * mids ** (1 / a1) * (1 + 1e-9))


def test_u_inverse_rho_out_of_range():
    with pytest.raises(ll.RhoOutOfRangeError):
        ll.u_inverse(M_CONST_15, 0.0, 2.0)
    with pytest.raises(ll.RhoOutOfRangeError):
        ll.u_inverse(M_CONST_15, 0.0, -1.0)


# --------------------------------------------------------------------------
# Chung rate
# --------------------------------------------------------------------------

def test_chung_rate_values():
    # direct evaluation: t / log|log t| at alpha = 1
    t = 1e-4
    want = t / math.log(abs(math.log(t)))
    assert ll.chung_rate(M_CONST_10, 0.0, t) == pytest.approx(want, rel=1e-8)
    # at t = e^{-e} the denominator is exactly 1
    t = math.exp(-math.e)
    assert ll.chung_rate(M_CONST_10, 0.0, t) == pytest.approx(t, rel=1e-8)
    # alpha = 1.5: rho^{2/3} = 1.26587e-3 at t = 1e-4
    want = (1e-4 / math.log(abs(math.log(1e-4)))) ** (2.0 / 3.0)
    assert want == pytest.approx(1.26587e-3, rel=1e-4)
    assert ll.chung_rate(M_CONST_15, 0.0, 1e-4) == pytest.approx(want, rel=1e-8)


def test_chung_rate_domain():
    with pytest.raises(ValueError):
        ll.chung_rate(M_CONST_10, 0.0, math.exp(-1.0))
    with pytest.raises(ValueError):
        ll.chung_rate(M_CONST_10, 0.0, 0.5)


def test_chung_rate_increasing_in_t():
    ts = np.geomspace(1e-8, math.exp(-math.e) * 0.99, 20)
    vals = [ll.chung_rate(M_CONST_15, 0.0, float(t)) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# iterated log factor and the upper norming function
# --------------------------------------------------------------------------

def test_iterated_log_factor_values():
    t = math.exp(-math.e)
    assert ll.iterated_log_factor(t, 0.0, 1) == pytest.approx(math.e, rel=1e-12)
    t2 = math.exp(-math.e ** math.e)
    want = math.e ** math.e * math.e ** 2   # |log t| * (log|log t|)^{1+eps}, eps=1
    assert ll.iterated_log_factor(t2, 1.0, 2) == pytest.approx(want, rel=1e-12)


def test_iterated_log_factor_domain_error():
    with pytest.raises(ll.IteratedLogDomainError):
        ll.iterated_log_factor(0.9, 0.5, 2)
    with pytest.raises(ll.IteratedLogDomainError):
        ll.iterated_log_factor(0.9, 0.0, 1)


def test_upper_norming_v_closed_form():
    t = math.exp(-math.e)
    want = (t * math.e ** 1.5) ** (1 / 1.5)
    got = ll.upper_norming_v(M_CONST_15, 0.0, t, 0.5, 1)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.44389, rel=1e-4)


def test_upper_norming_v_alpha_one_eps_zero():
    # ell reduces to |log t| = e at t = e^{-e}, so v = t * e
    t = math.exp(-math.e)
    assert ll.upper_norming_v(M_CONST_10, 0.0, t, 0.0, 1) == pytest.approx(t * math.e, rel=1e-12)


def _pU_root(pU, target):
    """xi >= 1 with pU(xi) = target, for pU increasing and pU(1) <= target:
    bisection on a doubling bracket down to a relative width of 1e-14."""
    lo, hi = 1.0, 2.0
    while pU(hi) < target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if pU(mid) >= target else (mid, hi)
    return 0.5 * (lo + hi)


def test_upper_norming_v_numeric_matches_closed():
    # the closed form against a root of the quadrature p^U: v = 1 / chi(x, 1/(t ell))
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = 10 ** rng.uniform(-6, -1)
        eps = rng.uniform(0.1, 1.0)
        c = ll.upper_norming_v(M_SIN, 0.4, t, eps, 1)
        xi = _pU_root(lambda xi: ll.eval_pU(M_SIN, 0.4, xi, method="quadrature"),
                      1.0 / (t * ll.iterated_log_factor(t, eps, 1)))
        assert 1.0 / xi == pytest.approx(c, rel=1e-8)


@pytest.mark.parametrize("call, bad", [
    (lambda: ll.ball_extremum(M_SIN, 0.0, 0.1, 10.0, "max"), "max"),
    (lambda: ll.ball_extremum(ll.PowerLawMeasure(alpha=1.5), 0.0, 0.1, 10.0, "max"), "max"),
    (lambda: ll.eval_pU(M_SIN, 0.0, 2.0, method="Quadrature"), "Quadrature"),
    (lambda: ll.eval_exponent(ll.LevyTriplet(measure=M_SIN), 0.0, 2.0, method="Quadrature"),
     "Quadrature"),
], ids=["ball_mode", "ball_mode_state_independent", "pU_method", "exponent_method"])
def test_unknown_mode_or_method_is_rejected(call, bad):
    with pytest.raises(ValueError, match=f"'{bad}'"):
        call()


def test_upper_norming_v_inverse_undefined_for_atomic():
    # p^U of an atomic measure saturates at the total mass: no inverse
    at = ll.AtomicMeasure(atoms=((1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ll.RhoOutOfRangeError, match="rho below the resolvable range of u"):
        ll.upper_norming_v(at, 0.0, 1e-3, 0.5, 1)


def test_u_inverse_stops_on_the_plateau_of_a_finite_measure(monkeypatch):
    # u(r) = 1/nu(R) for r below 1/2 here: the downward scan fails once u is
    # flat over a halving, not after halving r down to 1e-300
    calls = []
    u_of_R = ll.norming.u_of_R
    monkeypatch.setattr(ll.norming, "u_of_R", lambda *a: calls.append(a) or u_of_R(*a))
    at = ll.AtomicMeasure(atoms=((0.5, 1.0), (-0.5, 1.0)))
    with pytest.raises(ll.RhoOutOfRangeError, match="rho below the resolvable range of u"):
        ll.u_inverse(at, 0.0, np.full(32, 0.1))
    assert len(calls) <= 3


# an atomic measure whose p^U rises over xi in [1, 1e6] before it saturates
M_ATOMS = ll.AtomicMeasure(atoms=((0.5, 1.0), (-0.5, 1.0), (0.01, 2.0), (-3e-4, 5.0),
                                  (1e-6, 40.0)))


def test_upper_norming_v_of_a_finite_measure_is_the_root_of_pU():
    # v = 1/xi with p^U(xi) = 1/(t ell) for xi >= 1; where p^U(1) exceeds that
    # level or p^U never reaches it, upper_norming_v raises
    ts = np.geomspace(1e-8, 0.1, 15)
    ells = np.array([ll.iterated_log_factor(t, 0.5, 1) for t in ts.tolist()])
    checked = raised = 0
    for m in [M_ATOMS, *random_tabulated_measures(19, 12)]:
        p_one, p_max = ll.eval_pU(m, 0.0, 1.0), ll.eval_pU(m, 0.0, 1e300)
        for t, ell in zip(ts.tolist(), ells.tolist()):
            target = 1.0 / (t * ell)
            if abs(target / p_one - 1.0) < 1e-8 or abs(target / p_max - 1.0) < 1e-8:
                continue
            if not p_one <= target < p_max:
                with pytest.raises(ll.RhoOutOfRangeError):
                    ll.upper_norming_v(m, 0.0, t, 0.5, 1)
                raised += 1
                continue
            xi = _pU_root(lambda xi: ll.eval_pU(m, 0.0, xi), target)
            assert ll.upper_norming_v(m, 0.0, t, 0.5, 1) == pytest.approx(1.0 / xi, rel=1e-9)
            checked += 1
    assert checked >= 40 and raised >= 40


# --------------------------------------------------------------------------
# kappa
# --------------------------------------------------------------------------

def test_kappa_constant_alpha_is_one():
    est = ll.kappa_estimate(M_CONST_15, 0.0, [0.5, 0.1, 0.01])
    assert est.kappa == pytest.approx(1.0)


def test_kappa_sinusoidal_within_paper_bound():
    grid = [2.0 ** -k for k in range(3, 13)]
    est = ll.kappa_estimate(M_SIN, 0.0, grid)
    bound = ll.kappa_reference_bound(M_SIN, 0.0)
    assert bound == pytest.approx(64.0 ** 0.3, rel=1e-6)
    assert est.kappa <= bound * 1.05
    assert est.kappa >= 1.0


def test_kappa_values_tend_to_one():
    grid = [2.0 ** -k for k in range(3, 13)]
    est = ll.kappa_estimate(M_SIN, 0.0, grid)
    vals = list(est.kappa_values)
    # monotone trend toward 1 along shrinking radii
    assert vals[-1] < vals[0]
    assert vals[-1] == pytest.approx(1.0, abs=0.02)


# --------------------------------------------------------------------------
# norming-function objects
# --------------------------------------------------------------------------

def test_norming_function_closed_and_csv():
    # table() gives the rows of the norming_table CSV (header checked in
    # test_full_pipeline_stages)
    grid = np.geomspace(1e-6, 1e-1, 17)
    nf = ll.build_norming_function(M_CONST_15, 0.0, "u_inverse", grid)
    assert nf.form == "closed_form"
    args, vals = nf.table()
    assert len(args) == len(vals) == len(grid)
    assert args[0] == pytest.approx(grid[0])
    assert vals == pytest.approx(grid ** (1 / 1.5), rel=1e-12)


def test_norming_function_numeric_form_and_domain():
    grid = np.geomspace(1e-5, 1e-2, 25)
    nf = ll.build_norming_function(M_TANH, 0.0, "u_inverse", grid)
    assert nf.form == "numeric"
    # past u(x, 1) the table fails as u_inverse does
    rho_above = 2.0 * ll.u_of_R(M_TANH, 0.0, 1.0)
    with pytest.raises(ll.RhoOutOfRangeError):
        ll.build_norming_function(M_TANH, 0.0, "u_inverse", [1e-3, rho_above])


# a tabulated density 0.7 |y|^-2.2 on [1e-4, 1e2]: p^U saturates past xi = 1e4
TAB_GRID = np.geomspace(1e-4, 1e2, 40)
M_TAB = ll.TabulatedMeasure(grid=tuple(TAB_GRID.tolist()),
                            density=tuple((0.7 * TAB_GRID ** -2.2).tolist()))
SCALAR = {
    "u": lambda m, r: ll.u_of_R(m, 0.0, r),
    "u_inverse": lambda m, rho: ll.u_inverse(m, 0.0, rho),
    "chung_rate": lambda m, t: ll.chung_rate(m, 0.0, t),
    "upper_v": lambda m, t: ll.upper_norming_v(m, 0.0, t, 0.5, 1),
}


# the kinds whose evaluator takes a closed form on each measure
@pytest.mark.parametrize("measure, closed", [(M_CONST_15, set(SCALAR)), (M_SIN, {"upper_v"}),
                                             (M_TAB, set())],
                         ids=["constant_index", "sinusoidal", "tabulated"])
@pytest.mark.parametrize("kind, args", [
    ("u", [1e-3, 0.0123, 0.1, 0.37, 1.0]),
    ("u_inverse", [1e-4, 3.3e-4, 1e-3, 7e-3, 1e-2]),
    ("chung_rate", [1e-4, 2e-4, 1e-3, 5e-3, 1e-2]),
    ("upper_v", [1e-6, 1e-4, 1e-3, 3e-3, 1e-2]),
], ids=["u", "u_inverse", "chung_rate", "upper_v"])
def test_norming_table_is_its_scalar_evaluator(measure, closed, kind, args):
    nf = ll.build_norming_function(measure, 0.0, kind, args, epsilon=0.5, n=1)
    assert nf.form == ("closed_form" if kind in closed else "numeric")
    assert np.array_equal(nf.table()[1], [SCALAR[kind](measure, a) for a in args])


def test_upper_v_table_on_a_state_dependent_power_law_is_closed_form():
    # alpha = 1.5 + 0.3 sin x: upper_norming_v takes its power-law branch, so
    # the table is (pu_factor(x) t ell)^(1 / alpha(x)) and says so
    x, ts = 0.7, [1e-4, 1e-3]
    nf = ll.build_norming_function(M_SIN, x, "upper_v", ts, epsilon=0.5, n=1)
    assert nf.form == "closed_form"
    want = [(M_SIN.pu_factor(x) * t * ll.iterated_log_factor(t, 0.5, 1)) ** (1.0 / M_SIN.alpha_at(x))
            for t in ts]
    assert np.array_equal(nf.table()[1], want)


def test_norming_function_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ll.build_norming_function(M_CONST_15, 0.0, "bogus", [0.1, 0.2])


def _dense_scan(measure, x, radius, xi, kinks=()):
    """Extremes of p^U(., xi) on 100001 ball points plus the kinks inside."""
    ys = np.linspace(x - radius, x + radius, 100_001)
    ys = np.union1d(ys, [k for k in kinks if abs(k - x) <= radius])
    vals = measure.pu_factor(ys) * abs(xi) ** measure.alpha(ys)
    return float(np.min(vals)), float(np.max(vals))


def test_ball_extremum_against_dense_scan_oracle():
    # brute-force oracle: 100001-point scan of p^U(., 1/R) over the ball, with
    # the coefficient kinks added, since an extremum may sit on one
    rng = np.random.default_rng(123)
    for m, kinks in ((M_SIN, ()), (M_TANH, ()), (M_KINK, M_KINK_POINTS)):
        cases = [(float(rng.uniform(-2, 2)), float(10 ** rng.uniform(-2, 0)))
                 for _ in range(5)]
        for x, R in cases + [(-0.2, 0.05), (0.45, 0.1)]:
            want_lo, want_hi = _dense_scan(m, x, 3 * R, 1.0 / R, kinks)
            lo = ll.pU_ball_extremum(m, x, R, 3, "inf")
            hi = ll.pU_ball_extremum(m, x, R, 3, "sup")
            assert lo == pytest.approx(want_lo, rel=1e-9)
            assert hi == pytest.approx(want_hi, rel=1e-9)


BALL_FAR_OUT = """
import levylil as ll
m = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))
for x in (8200.0, -9000.0):
    for mode in ("inf", "sup"):
        print(repr(ll.ball_extremum(m, x, 1.5, 2.0, mode)))
"""


def test_ball_extremum_ends_where_doubles_are_coarser_than_its_width():
    # beyond |x| = 8192 neighbouring doubles are 1.8e-12 apart, wider than the
    # 1e-12 stopping width; run in a fresh interpreter so a hang is a timeout
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ll.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error", "-c", BALL_FAR_OUT], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    got = [float(v) for v in run.stdout.split()]
    want = []
    for x in (8200.0, -9000.0):
        lo, hi = _dense_scan(M_SIN, x, 1.5, 2.0)
        want += [lo, hi]
    assert got == pytest.approx(want, rel=1e-9)


def test_ball_extremum_returns_python_float():
    # a monotone index puts the extremum on the ball's edge, a scanned point
    state_independent = (M_CONST_15, ll.AtomicMeasure(atoms=((0.5, 1.0), (-0.5, 1.0))),
                         ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.02)))
    for measure in (M_SIN, M_TANH, M_KINK) + state_independent:
        for mode in ("inf", "sup"):
            for x in (0.0, 1.7, np.float64(-0.3)):
                assert type(ll.ball_extremum(measure, x, 0.4, 5.0, mode)) is float
                assert type(ll.pU_ball_extremum(measure, x, 0.1, 3, mode)) is float


# --------------------------------------------------------------------------
# pinned bits of the state-dependent evaluators
# --------------------------------------------------------------------------

PINNED_MEASURES = {"sin": M_SIN, "tanh": M_TANH, "local_min": M_LOCAL_MIN, "kink": M_KINK}


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def _norming_values(measure):
    """Every state-dependent evaluator on fixed grids, in a fixed order."""
    out = []
    for x in (-0.7, 0.0, 0.4):
        for radius in (1e-6, 1e-3, 0.05, 0.6, 3.0):
            for xi in (0.3, 1.0, 40.0, 1e5):
                out += [ll.ball_extremum(measure, x, radius, xi, m) for m in ("inf", "sup")]
    for x in (0.0, 0.4):
        out += [ll.u_of_R(measure, x, float(R)) for R in np.geomspace(1e-6, 1.0, 13)]
        u_top = ll.u_of_R(measure, x, 1.0)
        out += [ll.u_inverse(measure, x, u_top * float(q)) for q in np.geomspace(1e-10, 0.9, 9)]
        out += [ll.chung_rate(measure, x, t) for t in (1e-8, 1e-6, 1e-4, 1e-2, 0.05)]
        out += ll.kappa_estimate(measure, x, [2.0 ** -k for k in range(1, 11)]).kappa_values
    return out


PINNED_NORMING = {
    "sin": "2c01b0f9ffb31fd7e59bf40d8d00e27d1bee4504255556c5e26a2c5d25e60512",
    "tanh": "3e59e5b4a69c49f139e37daf76277d0f02f0ebfe14d095f79aadd105a87f1fe7",
    "local_min": "66ac610fc2d803306a03c885f1a092f0d15604dd540d5c0fb2621a91cae24402",
    "kink": "4eaa5e56d05c4c791539c9068bd20a602b4b99a3581ba8c3765698517b14aa6f",
}


@pytest.mark.parametrize("name", sorted(PINNED_MEASURES))
def test_norming_bits_pinned(name):
    assert _sha256(_norming_values(PINNED_MEASURES[name])) == PINNED_NORMING[name]


PINNED_UPPER_BLOCKS = {
    ("sin", False): "9d974c8caddeee4ead297e9280b081654293fdc4e8b71c3b241b592f15a325c6",
    ("sin", True): "2ba7c22213fed97974deeff050c7cdcfb9b00b599077fcd0a630e53cc0e7de0a",
    ("tanh", False): "20fec3e61ec14deb7fb12e49830a2e572064591954dc1e6b52fc7fcd6c775c18",
    ("tanh", True): "c928814eefc5e883b6e2b73908d208a7fa663a0c4e5a3aff3c7a08c3cb37c0bc",
    ("local_min", False): "eb4829631d7c695737b6e815b4778325243ee8275e5993fdac11ebf982b1f18e",
    ("local_min", True): "c109de81fd30d9454d6c7bef3e987115802137e5d721830e686e2c593d260973",
    ("kink", False): "4b90e53f046171b085eac093f4a55df9b3a08503ceb635f52d7b32eb344402f9",
    ("kink", True): "9b416b7d27ffff9cb727b8b44f06522ef6e3ef8b15292c451c580fec89215e77",
}


@pytest.mark.parametrize("name, ell_one", sorted(PINNED_UPPER_BLOCKS))
def test_upper_function_blocks_pinned(name, ell_one):
    v = ll.upper_function_test(PINNED_MEASURES[name], 0.2, 0.5, 1, math.exp(-2.0), 16,
                               ell_one=ell_one)
    assert _sha256(v.block_values) == PINNED_UPPER_BLOCKS[(name, ell_one)]


# a constant index with a coefficient other than "normalized": pu_factor(x) != 1
M_CONST_COEFF = ll.PowerLawMeasure(alpha=1.3, coefficient=0.8)
UPPER_V_MEASURES = {**PINNED_MEASURES, "const_coeff": M_CONST_COEFF}


def _upper_v_values(measure):
    """upper_norming_v and its norming_table on fixed grids, in a fixed order."""
    ts = np.geomspace(1e-8, 0.05, 11)
    out = []
    for x in (-0.7, 0.0, 0.4):
        for eps, n in ((0.0, 1), (0.5, 1), (1.0, 2)):
            out += [ll.upper_norming_v(measure, x, t, eps, n) for t in ts.tolist()]
            out += ll.build_norming_function(measure, x, "upper_v", ts, epsilon=eps,
                                             n=n).values.tolist()
        out += [ll.upper_norming_v(measure, x, t, 0.5, 1, ell_one=True) for t in ts.tolist()]
    return out


PINNED_UPPER_V = {
    "const_coeff": "0236c322bfd27533f9473ca97514ff3580c28b61f11c19a0dca3f5cf0e9521dc",
    "kink": "1b3db2f553adfbb350280f6b0f4c1d78bd492cba0ac662604a0bef29452507b5",
    "local_min": "5607007be7a9a5112b3e2106e964c625086590b2a74730cb7b96bc3831d2bc7b",
    "sin": "ffb4fa968652c2e53d09811098a7e2e5bc2d539dcb7ccd05d7a9c553d6c18f0a",
    "tanh": "ebb68d748acaf515e9ba189bc4f0504ea0895aad4e5155d240b20f3d53d0fa99",
}


@pytest.mark.parametrize("name", sorted(UPPER_V_MEASURES))
def test_upper_v_bits_pinned(name):
    assert _sha256(_upper_v_values(UPPER_V_MEASURES[name])) == PINNED_UPPER_V[name]


@pytest.mark.parametrize("name", [*sorted(UPPER_V_MEASURES), "atoms", "tabulated"])
def test_upper_norming_v_array_call_is_the_scalar_loop(name):
    m = {**UPPER_V_MEASURES, "atoms": M_ATOMS, "tabulated": M_TAB}[name]
    # v of a finite measure needs t ell > 1/nu(R): 0.021 for M_ATOMS and
    # 1.4e-5 for M_TAB (ell_one puts ell = 1)
    ts = np.geomspace(0.025 if name == "atoms" else 2e-5, 0.06, 8)
    for eps, n, ell_one in ((0.5, 1, False), (1.0, 2, False), (0.5, 1, True)):
        got = ll.upper_norming_v(m, 0.4, ts.reshape(2, 4), eps, n, ell_one=ell_one)
        assert got.shape == (2, 4)
        assert got.ravel().tolist() == [ll.upper_norming_v(m, 0.4, t, eps, n, ell_one=ell_one)
                                        for t in ts.tolist()]
    assert type(ll.upper_norming_v(m, 0.4, float(ts[-1]), 0.5, 1)) is float
    assert ll.upper_norming_v(m, 0.4, ts[-1:], 0.5, 1).shape == (1,)


PINNED_CHUNG = {
    "sin": "38fb1e8dca814feedea2af0aa79bf0045cc570da605ee2ebb0645dd0a419ce2f",
    "tanh": "bbdff6190396add75ff3328071d38f054e34bf959604d487c611e73a22f0854d",
    "local_min": "36aba549716c4811dd692776cdf64645933143b16ca14fbc98c05c116a414c9a",
    "kink": "771d71641a702b2d1db9b1493cbc12e25fcfcb74ed93d8bc5d6cd79d2772234b",
}


@pytest.fixture(scope="module")
def ens_pinned():
    return ll.simulate_ensemble(ll.SymmetricStableProcess(alpha=1.5), 0.0,
                                ll.PathGrid(t_max=0.1, steps=1024), 9, 16)


@pytest.mark.parametrize("name", sorted(PINNED_CHUNG))
def test_chung_statistic_bits_pinned(name, ens_pinned):
    stat = ll.chung_statistic(ens_pinned, PINNED_MEASURES[name], 0.1, 1e-3, 0.05)
    assert _sha256([*stat.rates, *stat.values, stat.median, stat.dual_median,
                    stat.dual_q25, stat.dual_q75]) == PINNED_CHUNG[name]


@pytest.mark.parametrize("name", sorted(PINNED_MEASURES))
def test_array_call_is_the_scalar_loop(name):
    m = PINNED_MEASURES[name]
    xs = np.array([[-0.7], [0.0], [0.4]])
    radii = np.array([1e-6, 1e-3, 0.05, 0.6, 3.0])
    for mode in ("inf", "sup"):
        got = ll.ball_extremum(m, xs, radii, 40.0, mode)
        assert got.shape == (3, 5)
        assert got.tolist() == [[ll.ball_extremum(m, x, r, 40.0, mode) for r in radii.tolist()]
                                for x in (-0.7, 0.0, 0.4)]
        Rs = np.geomspace(1e-6, 1.0, 7)
        assert (ll.pU_ball_extremum(m, 0.4, Rs, 2, mode).tolist()
                == [ll.pU_ball_extremum(m, 0.4, R, 2, mode) for R in Rs.tolist()])
    Rs = np.geomspace(1e-6, 1.0, 13)
    assert ll.u_of_R(m, 0.0, Rs).tolist() == [ll.u_of_R(m, 0.0, R) for R in Rs.tolist()]
    rhos = ll.u_of_R(m, 0.4, 1.0) * np.geomspace(1e-10, 0.9, 9)
    assert (ll.u_inverse(m, 0.4, rhos).tolist()
            == [ll.u_inverse(m, 0.4, r) for r in rhos.tolist()])
    ts = np.array([1e-8, 1e-6, 1e-4, 1e-2, 0.05])
    assert ll.chung_rate(m, 0.0, ts).tolist() == [ll.chung_rate(m, 0.0, t) for t in ts.tolist()]
    # x broadcasts too, and a one-lane array stays an array
    assert ll.u_of_R(m, np.array([0.0, 0.4]), 0.01).tolist() == [ll.u_of_R(m, x, 0.01)
                                                                 for x in (0.0, 0.4)]
    assert ll.u_inverse(m, 0.0, np.array([1e-4])).shape == (1,)


def test_failing_lane_names_its_argument():
    rhos = np.array([1e-6, 2.0, 1e-3])
    with pytest.raises(ll.RhoOutOfRangeError, match=r"rho=2\.000e\+00 above u\(x, 1\)"):
        ll.u_inverse(M_SIN, 0.0, rhos)
    with pytest.raises(ll.RhoOutOfRangeError, match=r"rho=-1e-05"):
        ll.u_inverse(M_SIN, 0.0, [1e-6, -1e-5])
    with pytest.raises(ValueError, match=r"t=0\.5 outside"):
        ll.chung_rate(M_SIN, 0.0, [1e-4, 0.5])
    with pytest.raises(ValueError, match=r"R=1\.5"):
        ll.pU_ball_extremum(M_SIN, 0.0, [0.1, 1.5], 3, "inf")
    with pytest.raises(ValueError, match=r"R=1\.5"):
        ll.kappa_estimate(M_SIN, 0.0, [0.5, 1.5])
