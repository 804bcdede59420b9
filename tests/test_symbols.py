import math

import numpy as np
import pytest

import levylil as ll
from levylil import symbols


SYM_ATOMS = ll.AtomicMeasure(atoms=((1.0, 1.0), (-1.0, 1.0)))


# --------------------------------------------------------------------------
# characteristic exponent
# --------------------------------------------------------------------------

def test_exponent_atomic_pair_at_pi():
    # exact finite-atom sum 2(1 - cos xi) at xi = pi
    t = ll.LevyTriplet(measure=SYM_ATOMS)
    p = ll.eval_exponent(t, 0.0, math.pi)
    assert p == complex(4.0, 0.0)


def test_exponent_zero_frequency():
    for m in (SYM_ATOMS, ll.PowerLawMeasure(alpha=1.5)):
        assert ll.eval_exponent(ll.LevyTriplet(measure=m), 0.3, 0.0) == 0j


def test_exponent_stable_scaling():
    # psi(2)/psi(1) = 2^1.5 for constant alpha, checked on the quadrature path
    t = ll.LevyTriplet(measure=ll.PowerLawMeasure(alpha=1.5))
    r = (ll.eval_exponent(t, 0.0, 2.0, method="quadrature").real
         / ll.eval_exponent(t, 0.0, 1.0, method="quadrature").real)
    assert r == pytest.approx(2.0 ** 1.5, rel=1e-8)


def test_exponent_closed_vs_quadrature_power_law():
    m = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))
    t = ll.LevyTriplet(measure=m)
    for x in (-0.7, 0.0, 1.3):
        for xi in (0.3, 2.0, 17.0, 100.0):
            c = ll.eval_exponent(t, x, xi, method="closed")
            q = ll.eval_exponent(t, x, xi, method="quadrature")
            assert q.imag == 0.0
            assert q.real == pytest.approx(c.real, rel=1e-7)


def test_stable_levy_constant_against_quadrature_oracle():
    # I(alpha) = int_0^inf (1 - cos u) u^(-1-alpha) du; oracle: series on [0,1]
    # (integrable singularity) plus Gauss panels per half-period plus the exact
    # mass tail, remainder bounded analytically.
    import mpmath
    for a in (0.5, 1.0, 1.5, 1.9):
        s = mpmath.mpf(0)
        for k in range(1, 40):
            s += (-1) ** (k + 1) / (mpmath.factorial(2 * k) * (2 * k - mpmath.mpf(a)))
        T = 800 * mpmath.pi
        pts = [1] + [mpmath.pi * k for k in range(1, 801)]
        mid = mpmath.quad(lambda u: (1 - mpmath.cos(u)) / u ** (1 + mpmath.mpf(a)), pts)
        oracle = float(s + mid + T ** (-a) / a)
        assert ll.stable_levy_constant(a) == pytest.approx(oracle, rel=5e-6)
    assert ll.stable_levy_constant(1.0) == pytest.approx(math.pi / 2, rel=1e-14)


def test_stable_levy_constant_cached_float_for_any_float_type():
    # Gamma(2 - a) cos(pi a / 2) / (a (1 - a)) at a = 1.5; the second pair
    # of calls is answered from the memo
    want = math.gamma(0.5) * math.cos(0.75 * math.pi) / (1.5 * -0.5)
    for a in (1.5, np.float64(1.5), 1.5, np.float64(1.5)):
        got = ll.stable_levy_constant(a)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-14)
    for bad in (0.0, 2.0, np.float64(2.5), -1, float("nan")):
        with pytest.raises(ValueError):
            ll.stable_levy_constant(bad)


def test_exponent_symmetric_imaginary_exact_zero():
    m = ll.PowerLawMeasure(alpha=ll.TanhRampProfile(center=1.2, amplitude=0.3))
    assert ll.eval_exponent(ll.LevyTriplet(measure=m), 0.5, 3.7).imag == 0.0
    assert ll.eval_exponent(ll.LevyTriplet(measure=SYM_ATOMS), 0.0, 2.2).imag == 0.0


def test_exponent_drift_contributes_imaginary():
    t = ll.LevyTriplet(measure=SYM_ATOMS, drift=0.7)
    p = ll.eval_exponent(t, 0.0, 2.0)
    assert p.imag == pytest.approx(1.4)


def test_exponent_compensated_asymmetric_atom():
    # p(xi) = 1 - e^{i xi y} + i xi y for a single atom at y = 0.5
    t = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((0.5, 1.0),)))
    xi = 3.0
    p = ll.eval_exponent(t, 0.0, xi)
    assert p.real == pytest.approx(1 - math.cos(1.5), rel=1e-12)
    assert p.imag == pytest.approx(1.5 - math.sin(1.5), rel=1e-12)
    # atom outside the compensation cutoff
    t2 = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((2.0, 1.0),)))
    p2 = ll.eval_exponent(t2, 0.0, xi)
    assert p2.imag == pytest.approx(-math.sin(6.0), rel=1e-12)


def test_exponent_tabulated_matches_power_law():
    # tabulated samples of the exact power-law density: the log-log interpolant
    # is exact, so the only differences are support truncation and quadrature
    a, c = 1.5, 0.1875
    grid = np.geomspace(1e-10, 1e6, 321)
    tab = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(c * grid ** (-1 - a)))
    ref = ll.LevyTriplet(measure=ll.PowerLawMeasure(alpha=a))
    t = ll.LevyTriplet(measure=tab)
    for xi in (0.5, 2.0, 11.0):
        got = ll.eval_exponent(t, 0.0, xi)
        want = ll.eval_exponent(ref, 0.0, xi, method="closed")
        assert got.imag == 0.0
        assert got.real == pytest.approx(want.real, rel=1e-4)


def test_exponent_tabulated_asymmetric_against_mpmath():
    import mpmath
    grid = np.geomspace(0.1, 10.0, 25)
    dens_pos = 0.4 * grid ** -2.2
    dens_neg = 0.1 * grid ** -1.7
    tab = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(dens_pos),
                              density_neg=tuple(dens_neg))
    xi = 1.7
    got = ll.eval_exponent(ll.LevyTriplet(measure=tab), 0.0, xi)

    def piecewise(dens):
        # integrate the exact piecewise power-law interpolant panel by panel
        re = mpmath.mpf(0)
        im_mom = mpmath.mpf(0)
        im_sin = mpmath.mpf(0)
        for i in range(len(grid) - 1):
            y1, y2 = map(mpmath.mpf, (grid[i], grid[i + 1]))
            d1, d2 = map(mpmath.mpf, (dens[i], dens[i + 1]))
            b = mpmath.log(d2 / d1) / mpmath.log(y2 / y1)
            A = d1 / y1 ** b
            re += mpmath.quad(lambda y: (1 - mpmath.cos(xi * y)) * A * y ** b, [y1, y2])
            im_sin += mpmath.quad(lambda y: mpmath.sin(xi * y) * A * y ** b, [y1, y2])
            lo, hi = y1, min(y2, mpmath.mpf(1))
            if hi > lo:
                im_mom += A * (hi ** (b + 2) - lo ** (b + 2)) / (b + 2)
        return re, xi * im_mom - im_sin

    re_p, im_p = piecewise(dens_pos)
    re_n, im_n = piecewise(dens_neg)
    assert got.real == pytest.approx(float(re_p + re_n), rel=1e-8)
    assert got.imag == pytest.approx(float(im_p - im_n), rel=1e-8)


# --------------------------------------------------------------------------
# maximal symbol p^U and tail mass
# --------------------------------------------------------------------------

def test_pu_power_law_closed_form():
    # Example value: alpha = 1.5, xi = 2 -> 2^1.5
    m = ll.PowerLawMeasure(alpha=1.5)
    assert ll.eval_pU(m, 0.0, 2.0) == pytest.approx(2.8284271247461903, rel=1e-12)


def test_pu_zero_and_even():
    m = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(1.5, 0.3))
    assert ll.eval_pU(m, 0.4, 0.0) == 0.0
    assert ll.eval_pU(SYM_ATOMS, 0.0, 0.0) == 0.0
    for xi in (0.3, 2.0):
        assert ll.eval_pU(m, 0.4, xi) == ll.eval_pU(m, 0.4, -xi)


def test_pu_atomic_exact():
    assert ll.eval_pU(SYM_ATOMS, 0.0, 0.5) == pytest.approx(0.5)
    assert ll.eval_pU(SYM_ATOMS, 0.0, 3.0) == pytest.approx(2.0)


def test_pu_quadrature_matches_closed():
    m = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))
    for x in (-1.0, 0.2):
        for xi in (0.1, 1.0, 42.0):
            c = ll.eval_pU(m, x, xi, method="closed")
            q = ll.eval_pU(m, x, xi, method="quadrature")
            assert q == pytest.approx(c, rel=1e-8)


def test_pu_tabulated_matches_power_law():
    a, c = 1.5, 0.1875
    grid = np.geomspace(1e-12, 1e6, 361)
    tab = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(c * grid ** (-1 - a)))
    for xi in (0.5, 1.0, 8.0):
        assert ll.eval_pU(tab, 0.0, xi) == pytest.approx(xi ** a, rel=1e-5)


def test_tail_mass_closed_forms():
    m = ll.PowerLawMeasure(alpha=1.0, coefficient=0.25)
    assert ll.tail_mass(m, 0.0, 2.0) == pytest.approx(0.25)
    assert ll.tail_mass(SYM_ATOMS, 0.0, 1.5) == 0.0
    assert ll.tail_mass(SYM_ATOMS, 0.0, 0.5) == pytest.approx(2.0)


def test_zero_knot_panel_carries_no_mass():
    # log-log interpolation of (1, 0.1, 0) on (0.1, 1, 10): d(y) = 0.1/y on
    # [0.1, 1] and nothing on [1, 10], on each half-line
    import mpmath
    tab = ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.0))
    assert ll.tail_mass(tab, 0.0, 1.0) == 0.0
    assert ll.tail_mass(tab, 0.0, 0.5) == pytest.approx(0.2 * math.log(2.0), rel=1e-12)
    # int min(1, y^2) nu(dy) = 2 int_0.1^1 0.1 y dy
    assert ll.eval_pU(tab, 0.0, 1.0) == pytest.approx(0.099, rel=1e-12)
    assert ll.check_integrability(tab) == pytest.approx(0.099, rel=1e-12)
    re = 0.2 * mpmath.quad(lambda y: (1 - mpmath.cos(2 * y)) / y, [0.1, 0.5, 1.0])
    p = ll.eval_exponent(ll.LevyTriplet(measure=tab), 0.0, 2.0)
    assert p.real == pytest.approx(float(re), rel=1e-8)
    assert p.imag == 0.0


@pytest.mark.parametrize("measure", [
    ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3), coefficient=0.3),
    SYM_ATOMS,
    ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.02)),
], ids=["power_law", "atomic", "tabulated"])
def test_scalar_results_are_python_floats(measure):
    # numpy scalars as arguments too: the result type must not depend on them
    for x, xi, r in ((0.2, 1.5, 0.5), (np.float64(0.2), np.float64(1.5), np.float64(0.5))):
        values = [ll.eval_pU(measure, x, xi), ll.tail_mass(measure, x, r),
                  ll.check_integrability(measure, x)]
        if isinstance(measure, ll.PowerLawMeasure):
            values.append(ll.eval_pU(measure, x, xi, method="quadrature"))
        assert [type(v) for v in values] == [float] * len(values)


def test_tail_mass_decreasing_in_r():
    measures = [ll.PowerLawMeasure(alpha=1.3, coefficient=0.4), SYM_ATOMS]
    grid = np.geomspace(0.05, 50, 200)
    tab = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(grid ** -2.3))
    measures.append(tab)
    rs = np.geomspace(0.01, 20.0, 25)
    for m in measures:
        vals = [ll.tail_mass(m, 0.0, float(r)) for r in rs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# randomized property suites (smaller versions of the acceptance suite)
# --------------------------------------------------------------------------

def test_property_doubling_domination_scaling():
    from tests_support import random_symmetric_measure
    rng = np.random.default_rng(2024)
    for _ in range(120):
        m = random_symmetric_measure(rng)
        x = rng.uniform(-2, 2)
        xi = 10 ** rng.uniform(-1.5, 1.8)
        lam = rng.uniform(0.05, 1.0)
        pu = ll.eval_pU(m, x, xi)
        pu2 = ll.eval_pU(m, x, 2 * xi)
        assert pu2 <= 4.0 * pu + 1e-9
        p = ll.eval_exponent(ll.LevyTriplet(measure=m), x, xi)
        assert abs(p) <= 2.0 * pu + 1e-9
        assert p.real >= 0.0
        pu_shrunk = ll.eval_pU(m, x, xi / lam)
        assert pu_shrunk <= pu / lam ** 2 + 1e-9


# --------------------------------------------------------------------------
# sector estimates
# --------------------------------------------------------------------------

def test_sector_symmetric_is_zero():
    t = ll.LevyTriplet(measure=ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(1.5, 0.3)))
    est = ll.sector_estimate(t, (-1.0, 1.0), np.linspace(0.25, 10.0, 9))
    assert est.value == 0.0
    assert not est.unbounded


def test_sector_drift_dominated_flags_unbounded():
    # p(xi) = 1 - cos(xi) + i (xi - sin(xi)): Im grows linearly, Re bounded,
    # and Re vanishes near xi = 2 pi k inside the grid range
    t = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((1.0, 1.0),)))
    est = ll.sector_estimate(t, (0.0, 0.0), np.linspace(0.25, 10.0, 9))
    assert est.unbounded
    assert est.flag == "unbounded-on-grid"


def test_sector_mixture_stabilizes():
    # 0.95 symmetric pair + 0.05 compensated atom; grid avoids the common
    # zeros of Re p at 4 pi k
    atoms = ((1.0, 0.95), (-1.0, 0.95), (0.5, 0.05))
    t = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=atoms))
    est = ll.sector_estimate(t, (0.0, 0.0), np.linspace(0.25, 10.0, 9))
    assert not est.unbounded
    assert est.value is not None and est.value > 0.0
    # stabilization: last two refinement sups within 10%
    assert est.history[-1] <= 1.1 * est.history[-2] + 1e-15


def test_sector_violation_error():
    # exact Re p = 0 with Im p != 0 at xi = float(2 pi)
    t = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((1.0, 1.0),)))
    with pytest.raises(ll.SectorViolationError):
        ll.sector_estimate(t, (0.0, 0.0), [2.0 * math.pi])


# --------------------------------------------------------------------------
# lower envelope and symbol family
# --------------------------------------------------------------------------

def test_lower_envelope_monotone_and_below_re_p():
    m = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(1.5, 0.3))
    t = ll.LevyTriplet(measure=m)
    env = ll.build_lower_envelope(t, (-1.0, 1.0), xi_hi=50.0)
    xi = np.geomspace(1.0, 50.0, 40)
    vals = env(xi)
    assert np.all(np.diff(vals) >= -1e-12)
    for xv in (-0.9, 0.0, 0.8):
        for xiv in xi:
            assert env(xiv) <= ll.eval_exponent(t, xv, float(xiv)).real + 1e-9


def test_symbol_family_build_and_validate():
    m = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(1.5, 0.3))
    t = ll.LevyTriplet(measure=m)
    fam = ll.build_symbol_family(t, (-1.0, 1.0), np.linspace(0.5, 20.0, 7))
    assert fam.sector_value == 0.0
    fam.validate_on(np.linspace(-1, 1, 9), np.geomspace(1.0, 20.0, 9))


def test_symbol_family_from_stable():
    fam = ll.SymbolFamily.from_stable(1.5)
    assert fam.g(2.0) == pytest.approx(2.0 ** 1.5)
    # the associated Levy measure reproduces the unit-scale exponent
    p = ll.eval_exponent(fam.triplet, 0.0, 2.0)
    assert p.real == pytest.approx(2.0 ** 1.5, rel=1e-10)


def test_quadrature_failure_reports_achieved_error(monkeypatch):
    # an unreasonable tolerance cannot be met; the error must carry an estimate
    monkeypatch.setattr(symbols, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(symbols, "_REL_TOL", 1e-16)
    monkeypatch.setattr(symbols, "_ERROR_MARGIN", 1e-3)
    m = ll.PowerLawMeasure(alpha=1.5)
    with pytest.raises(ll.QuadratureError) as ei:
        ll.eval_pU(m, 0.0, 3.0, method="quadrature")
    assert ei.value.achieved_error is not None
