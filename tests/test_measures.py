import math

import numpy as np
import pytest

import levylil as ll


def test_constant_profile():
    p = ll.ConstantProfile(1.5)
    assert p(0.3) == 1.5
    assert np.array_equal(p.derivative(np.linspace(-3.0, 3.0, 7)), np.zeros(7))
    assert p.is_constant


def test_affine_clamped_profile():
    p = ll.AffineClampedProfile(intercept=1.0, slope=0.5, lo=0.8, hi=1.6)
    assert p(0.0) == 1.0
    assert p(10.0) == 1.6
    assert p(-10.0) == 0.8
    assert p.derivative(10.0) == 0.0
    assert p.derivative(0.0) == 0.5
    assert p.bounds() == (0.8, 1.6)


def test_sinusoidal_profile():
    p = ll.SinusoidalProfile(center=1.5, amplitude=0.3)
    xs = np.linspace(-5, 5, 101)
    assert np.all(p(xs) >= 1.2 - 1e-12)
    assert np.all(p(xs) <= 1.8 + 1e-12)
    # derivative against finite differences
    h = 1e-6
    fd = (p(xs + h) - p(xs - h)) / (2 * h)
    assert np.allclose(p.derivative(xs), fd, atol=1e-8)
    assert np.max(np.abs(p.derivative(xs))) == pytest.approx(0.3)   # amplitude * frequency


def test_tanh_ramp_profile():
    p = ll.TanhRampProfile(center=1.0, amplitude=0.25)
    assert p(0.0) == pytest.approx(1.0)
    assert p(100.0) == pytest.approx(1.25)
    h = 1e-6
    xs = np.linspace(-3, 3, 51)
    fd = (p(xs + h) - p(xs - h)) / (2 * h)
    assert np.allclose(p.derivative(xs), fd, atol=1e-8)


def test_profile_roundtrip():
    for p in (ll.ConstantProfile(1.2),
              ll.AffineClampedProfile(1.0, 0.2, 0.5, 1.5),
              ll.SinusoidalProfile(1.5, 0.3, 2.0, 0.1),
              ll.TanhRampProfile(1.0, 0.25, 2.0, 0.5)):
        q = ll.profile_from_dict(p.to_dict())
        assert q == p


def test_power_law_alpha_range_validated():
    with pytest.raises(ValueError):
        ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.0, amplitude=1.5))
    with pytest.raises(ValueError):
        ll.PowerLawMeasure(alpha=2.0)
    with pytest.raises(ValueError):
        ll.PowerLawMeasure(alpha=1.5, coefficient=-1.0)


def test_power_law_normalized_coefficient():
    m = ll.PowerLawMeasure(alpha=1.5)
    assert m.coeff_at(0.0) == pytest.approx(1.5 * 0.5 / 4.0)
    assert m.pu_factor(0.0) == 1.0
    m2 = ll.PowerLawMeasure(alpha=1.0, coefficient=0.25)
    # 0.25 equals the normalization at alpha=1, so the factor is 1
    assert m2.pu_factor(0.0) == pytest.approx(1.0)


def test_atomic_validation():
    with pytest.raises(ValueError):
        ll.AtomicMeasure(atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        ll.AtomicMeasure(atoms=((1.0, -1.0),))
    with pytest.raises(ValueError):
        ll.AtomicMeasure(atoms=())
    m = ll.AtomicMeasure(atoms=((1.0, 1.0), (-1.0, 1.0)))
    assert m.is_symmetric
    assert not ll.AtomicMeasure(atoms=((1.0, 1.0),)).is_symmetric


def test_tabulated_validation():
    grid = np.geomspace(0.1, 10, 20)
    dens = grid ** -2.0
    m = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(dens))
    assert m.is_symmetric
    with pytest.raises(ValueError):
        ll.TabulatedMeasure(grid=(1.0, 0.5), density=(1.0, 1.0))
    with pytest.raises(ValueError):
        ll.TabulatedMeasure(grid=tuple(grid), density=tuple(np.zeros_like(grid)))
    # no panel has two positive knots, so this is the zero measure
    with pytest.raises(ValueError):
        ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(0.0, 1.0, 0.0))


def test_triplet_rejects_gaussian_part():
    m = ll.PowerLawMeasure(alpha=1.5)
    with pytest.raises(ValueError):
        ll.LevyTriplet(measure=m, gaussian=0.5)
    t = ll.LevyTriplet(measure=m)
    assert t.gaussian == 0.0


def test_measure_dict_roundtrip():
    for m in (ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(1.5, 0.3)),
              ll.AtomicMeasure(atoms=((1.0, 2.0), (-0.5, 1.0))),
              ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.01))):
        m2 = ll.measure_from_dict(m.to_dict())
        assert m2.to_dict() == m.to_dict()


def test_integrability_check():
    # power law: 2c (1/(2-a) + 1/a)
    m = ll.PowerLawMeasure(alpha=1.5, coefficient=0.1875)
    expected = 2 * 0.1875 * (1 / 0.5 + 1 / 1.5)
    assert ll.check_integrability(m) == pytest.approx(expected)
    at = ll.AtomicMeasure(atoms=((0.5, 2.0), (3.0, 1.0)))
    assert ll.check_integrability(at) == pytest.approx(2.0 * 0.25 + 1.0)
    grid = np.geomspace(0.01, 100, 300)
    tab = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(0.3 * grid ** -2.5))
    # oracle: same integral for the pure power-law density, alpha = 1.5, c = 0.3,
    # restricted to the support [grid0, grid1]
    a, c, g0, g1 = 1.5, 0.3, grid[0], grid[-1]
    oracle = 2 * c * ((1.0 ** 0.5 - g0 ** 0.5) / 0.5 + (1.0 ** -a - g1 ** -a) / a)
    assert ll.check_integrability(tab) == pytest.approx(oracle, rel=1e-10)
    # a panel with a zero knot carries no mass: 0.1/y on [0.1, 1] only
    zero_knot = ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.0))
    assert ll.check_integrability(zero_knot) == pytest.approx(2 * 0.1 * (1 - 0.1 ** 2) / 2)
