import dataclasses
import json
import math

import numpy as np
import pytest

import levylil as ll
from levylil import measures


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


# every registered profile kind, a tanh ramp with its default x0 included
PROFILES = {
    "constant": [ll.ConstantProfile(1.2)],
    "affine_clamped": [ll.AffineClampedProfile(1.0, 0.2, 0.5, 1.5)],
    "sinusoidal": [ll.SinusoidalProfile(1.5, 0.3, 2.0, 0.1)],
    "tanh_ramp": [ll.TanhRampProfile(1.0, 0.25, 2.0, 0.5), ll.TanhRampProfile(1.0, 0.25)],
}


@pytest.mark.parametrize("kind", list(measures._PROFILE_KINDS))
def test_profile_roundtrip(kind):
    assert list(PROFILES) == list(measures._PROFILE_KINDS)
    for p in PROFILES[kind]:
        d = p.to_dict()
        # its kind, then every field, defaults included
        assert list(d) == ["kind", *(f.name for f in dataclasses.fields(p))]
        assert d["kind"] == kind
        q = ll.profile_from_dict(json.loads(json.dumps(d)))
        assert q == p and q.to_dict() == d


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
    # on an array, c(x) is the scalar value at each point, bit for bit
    sin = ll.SinusoidalProfile(center=1.5, amplitude=0.3)
    xs = np.linspace(-2.0, 2.0, 17)
    for m3 in (ll.PowerLawMeasure(alpha=sin), ll.PowerLawMeasure(alpha=sin, coefficient=sin)):
        got = m3.coeff_at(xs)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [m3.coeff_at(x) for x in xs.tolist()]
        a = m3.alpha_at(0.3)
        assert m3.coeff_at(0.3) == (a * (2.0 - a) / 4.0 if m3.coefficient == "normalized"
                                    else m3.coefficient(0.3))


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
    # a panel power law A y^b whose A is past the float range: y1 ** b
    # underflows, overflows, or A overflows on division
    for grid, dens in (((1e-3, 1.0001e-3, 1.0), (1.0, 1e300, 1e300)),
                       ((1.9999999999999998, 2.0, 3.0), (1.0, 2.0, 1.0)),
                       ((1e-3, 2e-3), (1e-300, 1e300))):
        with pytest.raises(ValueError, match="leaves the float range"):
            ll.TabulatedMeasure(grid=grid, density=dens)


def test_triplet_rejects_gaussian_part():
    m = ll.PowerLawMeasure(alpha=1.5)
    with pytest.raises(ValueError):
        ll.LevyTriplet(measure=m, gaussian=0.5)
    t = ll.LevyTriplet(measure=m)
    assert t.gaussian == 0.0


# every registered measure variant, with the measure of each process kind (a
# stable one's coefficient included) and tabulated data with and without
# density_neg
MEASURES = {
    "power_law": [ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(1.5, 0.3)),
                  ll.PowerLawMeasure(alpha=1.5, coefficient=0.1875),
                  ll.SymmetricStableProcess(alpha=1.5, scale=0.7).levy_triplet.measure,
                  ll.StableLikeProcess(alpha=ll.SinusoidalProfile(1.4, 0.3),
                                       scale=ll.SinusoidalProfile(1.0, 0.5, 3.0))
                  .levy_triplet.measure],
    "atomic": [ll.AtomicMeasure(atoms=((1.0, 2.0), (-0.5, 1.0))),
               ll.CompoundPoissonProcess(atoms=((0.7, 1.5), (-0.2, 0.5)), path_drift=0.3)
               .levy_triplet.measure],
    "tabulated": [ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.01)),
                  ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.01),
                                      density_neg=(0.5, 0.05, 0.0))],
}


@pytest.mark.parametrize("variant", list(measures._MEASURE_VARIANTS))
def test_measure_dict_roundtrip(variant):
    assert list(MEASURES) == list(measures._MEASURE_VARIANTS)
    for m in MEASURES[variant]:
        d = m.to_dict()
        assert d["variant"] == variant
        m2 = ll.measure_from_dict(json.loads(json.dumps(d)))
        assert m2.to_dict() == d and m2.is_symmetric == m.is_symmetric
    # unset density_neg is left out of the dict form
    assert [("density_neg" in m.to_dict()) for m in MEASURES["tabulated"]] == [False, True]


# a misspelt field of each family: named in a ValueError, never dropped
MISSPELT = [(ll.profile_from_dict, {"kind": "constant", "value": 1.0, "valeu": 2.0}, "valeu"),
            (ll.measure_from_dict, {"variant": "power_law", "alpha": 1.5, "coefficent": 0.3},
             "coefficent"),
            (ll.process_from_dict, {"kind": "stable", "alpha": 1.5, "sacle": 2.0}, "sacle")]


@pytest.mark.parametrize("read, d, field", MISSPELT, ids=["profile", "measure", "process"])
def test_unknown_field_raises_naming_it(read, d, field):
    with pytest.raises(ValueError, match=f"has no field '{field}'"):
        read(d)


def test_integrability_check():
    # power law: 2c (1/(2-a) + 1/a)
    m = ll.PowerLawMeasure(alpha=1.5, coefficient=0.1875)
    expected = 2 * 0.1875 * (1 / 0.5 + 1 / 1.5)
    assert ll.eval_pU(m, 0.0, 1.0) == pytest.approx(expected)
    at = ll.AtomicMeasure(atoms=((0.5, 2.0), (3.0, 1.0)))
    assert ll.eval_pU(at, 0.0, 1.0) == pytest.approx(2.0 * 0.25 + 1.0)
    grid = np.geomspace(0.01, 100, 300)
    tab = ll.TabulatedMeasure(grid=tuple(grid), density=tuple(0.3 * grid ** -2.5))
    # oracle: same integral for the pure power-law density, alpha = 1.5, c = 0.3,
    # restricted to the support [grid0, grid1]
    a, c, g0, g1 = 1.5, 0.3, grid[0], grid[-1]
    oracle = 2 * c * ((1.0 ** 0.5 - g0 ** 0.5) / 0.5 + (1.0 ** -a - g1 ** -a) / a)
    assert ll.eval_pU(tab, 0.0, 1.0) == pytest.approx(oracle, rel=1e-10)
    # a panel with a zero knot carries no mass: 0.1/y on [0.1, 1] only
    zero_knot = ll.TabulatedMeasure(grid=(0.1, 1.0, 10.0), density=(1.0, 0.1, 0.0))
    assert ll.eval_pU(zero_knot, 0.0, 1.0) == pytest.approx(2 * 0.1 * (1 - 0.1 ** 2) / 2)
