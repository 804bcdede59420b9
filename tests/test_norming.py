import math

import numpy as np
import pytest

import levylil as ll


M_CONST_12 = ll.PowerLawMeasure(alpha=1.2)
M_CONST_15 = ll.PowerLawMeasure(alpha=1.5)
M_CONST_10 = ll.PowerLawMeasure(alpha=1.0)
M_TANH = ll.PowerLawMeasure(alpha=ll.TanhRampProfile(center=1.0, amplitude=0.25))
M_SIN = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))
# alpha with a strict local minimum at x = 0: 1.5 - 0.3 cos(y)
M_LOCAL_MIN = ll.PowerLawMeasure(
    alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3, phase=-math.pi / 2))


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
    a0, a1 = M_SIN.alpha_range()
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


def test_upper_norming_v_numeric_matches_closed():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = 10 ** rng.uniform(-6, -1)
        eps = rng.uniform(0.1, 1.0)
        c = ll.upper_norming_v(M_SIN, 0.4, t, eps, 1, method="closed")
        n = ll.upper_norming_v(M_SIN, 0.4, t, eps, 1, method="numeric")
        assert n == pytest.approx(c, rel=1e-8)


@pytest.mark.parametrize("call, bad", [
    (lambda: ll.ball_extremum(M_SIN, 0.0, 0.1, 10.0, "max"), "max"),
    (lambda: ll.ball_extremum(ll.PowerLawMeasure(alpha=1.5), 0.0, 0.1, 10.0, "max"), "max"),
    (lambda: ll.eval_pU(M_SIN, 0.0, 2.0, method="Quadrature"), "Quadrature"),
    (lambda: ll.eval_exponent(ll.LevyTriplet(measure=M_SIN), 0.0, 2.0, method="Quadrature"),
     "Quadrature"),
    (lambda: ll.upper_norming_v(M_SIN, 0.0, 1e-3, 0.5, 1, method="Closed"), "Closed"),
], ids=["ball_mode", "ball_mode_state_independent", "pU_method", "exponent_method",
        "upper_v_method"])
def test_unknown_mode_or_method_is_rejected(call, bad):
    with pytest.raises(ValueError, match=f"'{bad}'"):
        call()


def test_upper_norming_v_inverse_undefined_for_atomic():
    # p^U of an atomic measure saturates at the total mass: no inverse
    at = ll.AtomicMeasure(atoms=((1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ll.InverseUndefinedError):
        ll.upper_norming_v(at, 0.0, 1e-3, 0.5, 1)


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
    assert nf(1e-4) == pytest.approx((1e-4) ** (1 / 1.5), rel=1e-12)
    args, vals = nf.table()
    assert len(args) == len(vals) == len(grid)
    assert args[0] == pytest.approx(grid[0])
    assert vals[0] == pytest.approx(nf(grid[0]))


def test_norming_function_numeric_interpolates():
    grid = np.geomspace(1e-5, 1e-2, 25)
    nf = ll.build_norming_function(M_TANH, 0.0, "u_inverse", grid)
    assert nf.form == "numeric"
    mid = math.sqrt(grid[3] * grid[4])
    direct = ll.u_inverse(M_TANH, 0.0, mid)
    assert nf(mid) == pytest.approx(direct, rel=1e-3)
    with pytest.raises(ValueError):
        nf(grid[0] * 0.1)


def test_norming_function_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ll.build_norming_function(M_CONST_15, 0.0, "bogus", [0.1, 0.2])


def test_ball_extremum_against_dense_scan_oracle():
    # brute-force oracle: 100001-point scan of p^U(., 1/R) over the ball
    rng = np.random.default_rng(123)
    for _ in range(5):
        x = float(rng.uniform(-2, 2))
        R = float(10 ** rng.uniform(-2, 0))
        ys = np.linspace(x - 3 * R, x + 3 * R, 100_001)
        alphas = M_SIN.alpha(ys)
        vals = (1.0 / R) ** alphas
        lo = ll.pU_ball_extremum(M_SIN, x, R, 3, "inf")
        hi = ll.pU_ball_extremum(M_SIN, x, R, 3, "sup")
        assert lo == pytest.approx(float(np.min(vals)), rel=1e-9)
        assert hi == pytest.approx(float(np.max(vals)), rel=1e-9)
