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


def test_stable_levy_constant_on_arrays_matches_scalar_loop():
    # reference: the same arithmetic one float at a time
    def scalar(a):
        return math.gamma(2.0 - a) * (math.pi / 2.0) * float(np.sinc((1.0 - a) / 2.0)) / a

    a = np.array([[0.3, 1.0, 1.7], [np.nextafter(1.0, 2.0), 0.01, 1.99]])
    got = ll.stable_levy_constant(a)
    assert got.shape == a.shape
    assert got.tolist() == [[scalar(v) for v in row] for row in a.tolist()]
    assert [ll.stable_levy_constant(v) for v in a.ravel().tolist()] == got.ravel().tolist()
    with pytest.raises(ValueError):
        ll.stable_levy_constant(np.array([1.0, 2.0]))


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


def _mp_fourier_panel(A, b, w, lo, hi):
    """A int_lo^hi y^b e^{i w y} dy for w > 0, by the generalized incomplete
    gamma function: the substitution u = -i w y."""
    import mpmath
    return A * (1j / w) ** (b + 1) * mpmath.gammainc(b + 1, -1j * w * lo, -1j * w * hi)


def _mp_tabulated_exponent(measure, xi):
    """p(0, xi) of a tabulated measure at 25 digits, panel by panel."""
    import mpmath
    sides = [(2, 1, measure.density)] if measure.is_symmetric else [
        (1, 1, measure.density), (1, -1, measure.density_neg)]
    with mpmath.workdps(25):
        w = abs(mpmath.mpf(xi))
        re = im = mpmath.mpf(0)
        for weight, sign, dens in sides:
            for y1, y2, d1, d2 in zip(measure.grid, measure.grid[1:], dens, dens[1:]):
                if not (d1 > 0 and d2 > 0):
                    continue
                y1, y2, d1, d2 = map(mpmath.mpf, (y1, y2, d1, d2))
                b = mpmath.log(d2 / d1) / mpmath.log(y2 / y1)
                A = d1 / y1 ** b
                f = _mp_fourier_panel(A, b, w, y1, y2)
                re += weight * (A * (y2 ** (b + 1) - y1 ** (b + 1)) / (b + 1) - f.real)
                c = min(max(mpmath.mpf(1), y1), y2)
                im += sign * mpmath.sign(xi) * (w * A * (c ** (b + 2) - y1 ** (b + 2)) / (b + 2)
                                                - f.imag)
        return re, im


def test_exponent_tabulated_imaginary_part_does_not_cancel():
    # Im p sums xi int_{y<=1} y d(y) dy and -int sin(xi y) d(y) dy; on grids
    # starting near 1e-4 both are large and their difference is not, so the
    # difference is integrated as one
    import mpmath
    from tests_support import random_tabulated_measures
    for m in random_tabulated_measures(11, 12):
        if m.is_symmetric:
            continue
        for xi in (0.7, -3.0, 25.0):
            re, im = _mp_tabulated_exponent(m, xi)
            p = ll.eval_exponent(ll.LevyTriplet(measure=m), 0.0, xi)
            assert abs(p.imag - im) <= 1e-14 * abs(mpmath.mpc(re, im)), (m.grid[0], xi)


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


def test_pu_tabulated_past_the_grid_does_not_overflow():
    # at xi = 1e300, 1/xi lies below the grid: no quadratic part, p^U is the
    # total mass, and u_inverse's downward scan ends in RhoOutOfRangeError
    grid = np.geomspace(1e-3, 1e2, 60)
    tab = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(0.7 * grid ** -2.2))
    assert ll.eval_pU(tab, 0.0, 1e300) == pytest.approx(ll.tail_mass(tab, 0.0, 1e-300),
                                                        rel=1e-14)
    with pytest.raises(ll.RhoOutOfRangeError, match="resolvable"):
        ll.u_inverse(tab, 0.0, 1e-4)


def test_pu_atomic_at_huge_xi_saturates_without_warning():
    # squaring xi * loc overflows past xi ~ 1e154; warnings are errors here
    atoms = ll.AtomicMeasure(atoms=((0.5, 1.0), (-0.5, 1.0)))
    assert ll.eval_pU(atoms, 0.0, 1e300) == 2.0
    with pytest.raises(ll.RhoOutOfRangeError):
        ll.u_inverse(atoms, 0.0, 1e-3)


def test_pu_atomic_with_far_atoms_overflows_without_warning():
    # xi * |loc| itself passes 1.8e308 here; the product is inf and clips to 1
    atoms = ll.AtomicMeasure(atoms=((1e10, 1.0), (-1e10, 1.0)))
    assert ll.eval_pU(atoms, 0.0, 1e300) == 2.0
    with pytest.raises(ll.RhoOutOfRangeError):
        ll.u_inverse(atoms, 0.0, 1e-25)


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
    re = 0.2 * mpmath.quad(lambda y: (1 - mpmath.cos(2 * y)) / y, [0.1, 0.5, 1.0])
    p = ll.eval_exponent(ll.LevyTriplet(measure=tab), 0.0, 2.0)
    assert p.real == pytest.approx(float(re), rel=1e-8)
    assert p.imag == 0.0


@pytest.mark.parametrize("q", [1.3e-3, 3e-12, -3e-12, -2e-7, -1e-3, 0.0, 0.5, 61.0])
@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("lo, hi", [(13.1, 17.5), (1.0, 1.0001), (1e-4, 1e3)])
def test_power_moment_against_mpmath(q, p, lo, hi):
    # int_lo^hi A y^(b+p) dy with q = b + p + 1 near 0, where hi^q - lo^q
    # cancels, and with (hi/lo)^q past the float range
    import mpmath
    b = q - p - 1.0
    with mpmath.workdps(50):
        qm = mpmath.mpf(b) + p + 1
        want = 1.3 * (mpmath.log(mpmath.mpf(hi) / lo) if qm == 0
                      else (mpmath.mpf(hi) ** qm - mpmath.mpf(lo) ** qm) / qm)
        assert abs(symbols._power_moment(1.3, b, p, lo, hi) - want) <= 1e-15 * want


def test_tabulated_pu_and_tail_mass_bits_pinned():
    # p^U and the tail mass integrate the panel power laws in closed form, so
    # their bits are a function of the panels alone: sha256 of the float64
    # values, renewed when _power_moment took its expm1 form (312 of the 546
    # values moved, the largest by 1.7e-14 relative)
    import hashlib
    from tests_support import random_tabulated_measures
    vals = []
    for m in random_tabulated_measures(19, 42):
        vals += [ll.eval_pU(m, 0.0, xi) for xi in (1e-3, 0.37, 1.0, 5.5, 1e2, 3e4, 1e6)]
        vals += [ll.tail_mass(m, 0.0, r) for r in (1e-5, 0.01, 0.3, 1.0, 7.0, 1e4)]
    assert (hashlib.sha256(np.array(vals).tobytes()).hexdigest()
            == "88bc4741c55ab2ff90fdc5441936dff6bda917ae48b4a00e3df9d023133a51e7")


@pytest.mark.parametrize("measure", [
    ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3), coefficient=0.3),
    SYM_ATOMS,
    ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.02)),
], ids=["power_law", "atomic", "tabulated"])
def test_scalar_results_are_python_floats(measure):
    # numpy scalars as arguments too: the result type must not depend on them
    for x, xi, r in ((0.2, 1.5, 0.5), (np.float64(0.2), np.float64(1.5), np.float64(0.5))):
        values = [ll.eval_pU(measure, x, xi), ll.tail_mass(measure, x, r),
                  ll.eval_pU(measure, x, 1.0)]
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
# grid evaluation
# --------------------------------------------------------------------------

SIN_ALPHA = ll.SinusoidalProfile(center=1.5, amplitude=0.3)
GRID_TRIPLETS = {
    "sinusoidal_normalized": ll.LevyTriplet(measure=ll.PowerLawMeasure(alpha=SIN_ALPHA)),
    "sinusoidal_profiled": ll.LevyTriplet(measure=ll.PowerLawMeasure(
        alpha=SIN_ALPHA,
        coefficient=ll.SinusoidalProfile(center=1.0, amplitude=0.4, frequency=3.0))),
    "tanh_drift": ll.LevyTriplet(
        measure=ll.PowerLawMeasure(alpha=ll.TanhRampProfile(center=1.0, amplitude=0.25,
                                                            rate=3.0)),
        drift=ll.SinusoidalProfile(center=0.1, amplitude=0.2)),
    "atomic": ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((1.0, 1.0), (-0.5, 2.0))),
                             drift=0.3),
}


def _scalar_exponent(triplet, x, xi):
    """p(x, xi) at one point; for a power law, the closed form from Python
    floats, c(x) 2 C(alpha(x)) |xi|^alpha(x) + i l(x) xi, as the reference
    that the grid evaluation must equal bit for bit."""
    m, x, xi = triplet.measure, float(x), float(xi)
    if not isinstance(m, ll.PowerLawMeasure) or xi == 0.0:
        return ll.eval_exponent(triplet, x, xi)
    a = m.alpha_at(x)
    re = m.coeff_at(x) * 2.0 * ll.stable_levy_constant(a) * abs(xi) ** a
    return complex(re, 0.0 + triplet.drift_at(x) * xi)


@pytest.mark.parametrize("name", sorted(GRID_TRIPLETS))
def test_exponent_on_grid_matches_scalar_loop(name):
    t = GRID_TRIPLETS[name]
    xs = np.linspace(-2.0, 2.0, 41)
    xis = np.concatenate([[0.0, -0.0, -3.0], np.geomspace(1e-3, 1e4, 60)])
    re, im = symbols._exponent_on_grid(t, xs, xis)
    want = np.array([[_scalar_exponent(t, x, xi) for xi in xis] for x in xs])
    assert np.array_equal(re, want.real) and np.array_equal(im, want.imag)
    assert np.array_equal(np.signbit(im), np.signbit(want.imag))
    # the scalar evaluator gives the same bits at every point
    got = np.array([[ll.eval_exponent(t, float(x), float(xi)) for xi in xis] for x in xs])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def _scalar_family(t, x_window, xi_grid):
    """Sector history, envelope values and C_p of ``build_symbol_family``
    from one ``eval_exponent`` call per grid point."""
    xi, xs = np.sort(np.asarray(xi_grid, dtype=float)), np.linspace(*x_window, 9)
    history = []
    for _ in range(5):
        sup = 0.0
        for xv in xs:
            for xiv in xi:
                p = _scalar_exponent(t, xv, xiv)
                if p.real > 0.0 and abs(p.imag) <= 1e15 * p.real:
                    sup = max(sup, abs(p.imag) / p.real)
        history.append(sup)
        xi, xs = symbols._densify(xi), symbols._densify(xs)
    xi_hi = max(float(np.max(np.abs(xi_grid))), 1.0)
    env = np.maximum.accumulate([min(_scalar_exponent(t, xv, xiv).real
                                     for xv in np.linspace(*x_window, 257))
                                 for xiv in np.geomspace(1.0, xi_hi, 65)])
    cp = 0.0
    for xv in np.linspace(*x_window, 33):
        for xiv in np.geomspace(1.0, xi_hi, 17):
            cp = max(cp, _scalar_exponent(t, xv, xiv).real / (1.0 + xiv ** 2))
    return tuple(history), env, cp


@pytest.mark.parametrize("name", ["sinusoidal_normalized", "tanh_drift"])
def test_symbol_family_matches_scalar_loops(name):
    # the window and xi grid of the feller_chung benchmark
    window, xi_grid = (-0.5, 0.5), [0.5, 1.0, 2.0, 4.0, 8.0]
    fam = ll.build_symbol_family(GRID_TRIPLETS[name], window, xi_grid)
    history, env, cp = _scalar_family(GRID_TRIPLETS[name], window, xi_grid)
    assert fam.sector.history == history
    assert np.array_equal(fam.envelope.values, env)
    assert fam.coefficient_bound == cp


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


def test_sector_violation_names_first_point_in_row_major_order():
    # Re p vanishes at xi = 2 pi and 4 pi; Im p is about (1 + l(x)) xi, and
    # l(-1) + 1 = 1.2e-13 keeps it under 1e-12 at (x, xi) = (-1, 2 pi) only,
    # so x-major order meets (-1, 4 pi) before (-0.75, 2 pi)
    drift = ll.AffineClampedProfile(intercept=1.2e-13, slope=1.0, lo=-2.0, hi=2.0)
    t = ll.LevyTriplet(measure=ll.AtomicMeasure(atoms=((1.0, 1.0),)), drift=drift)
    with pytest.raises(ll.SectorViolationError, match=r"at x=-1, xi=12\.5664: "):
        ll.sector_estimate(t, (-1.0, 1.0), [1.0, 2.0 * math.pi, 4.0 * math.pi])


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


def test_log_panel_error_estimate_sees_a_kink():
    # the 32- and 16-point rules agree on smooth panels and not across a kink,
    # and the difference is what the budget holds against its tolerance
    smooth, kinked = symbols._ErrorBudget(), symbols._ErrorBudget()
    value = symbols._quad_log_panels(np.exp, -6.0, 1.0, smooth)
    assert value == pytest.approx(math.exp(1.0) - math.exp(-6.0), rel=1e-14)
    assert smooth.total < 1e-13
    value = symbols._quad_log_panels(lambda s: np.sqrt(np.abs(s - 0.3)), -6.0, 1.0, kinked)
    with pytest.raises(ll.QuadratureError) as ei:
        kinked.check(value, "kinked integrand")
    assert ei.value.achieved_error == kinked.total > 1e-6
