import json
import math

import numpy as np
import pytest

import levylil as ll
from levylil.classifiers import classify_integral_at_zero

T_MAX = math.exp(-2)
M_15 = ll.PowerLawMeasure(alpha=1.5)
M_SIN = ll.PowerLawMeasure(alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3))


# --------------------------------------------------------------------------
# analytic calibration cases
# --------------------------------------------------------------------------

@pytest.mark.parametrize("levels", [20, 40])
def test_convergent_log_square(levels):
    # antiderivative -1/log t stays bounded at 0
    v = classify_integral_at_zero(lambda t: 1.0 / (t * math.log(t) ** 2), T_MAX, levels)
    assert v.verdict == "convergent"


@pytest.mark.parametrize("levels", [20, 40])
def test_divergent_one_over_t(levels):
    # blocks are exactly log 2
    v = classify_integral_at_zero(lambda t: 1.0 / t, T_MAX, levels)
    assert v.verdict == "divergent"
    assert all(b == pytest.approx(math.log(2.0), rel=1e-10) for b in v.block_values)


@pytest.mark.parametrize("levels", [20, 40])
def test_convergent_inverse_sqrt(levels):
    v = classify_integral_at_zero(lambda t: t ** -0.5, T_MAX, levels)
    assert v.verdict == "convergent"


def test_blocks_match_antiderivative():
    # independent oracle: I_k = F(b_k) - F(a_k) with F = 2 sqrt(t)
    v = classify_integral_at_zero(lambda t: t ** -0.5, T_MAX, 12)
    for k, block in enumerate(v.block_values):
        b = T_MAX * 2.0 ** -k
        want = 2.0 * (math.sqrt(b) - math.sqrt(0.5 * b))
        assert block == pytest.approx(want, rel=1e-12)


def test_growing_blocks_divergent():
    v = classify_integral_at_zero(lambda t: t ** -2.0, T_MAX, 12)
    assert v.verdict == "divergent"


def test_inconclusive_near_boundary():
    # 1/(t log t (log log t)^?): borderline between the calibration families;
    # block exponent ~1, so the classifier must decline to decide
    f = lambda t: 1.0 / (t * abs(math.log(t)))
    v = classify_integral_at_zero(f, T_MAX, 40)
    assert v.verdict in ("inconclusive", "divergent")   # never convergent
    v2 = classify_integral_at_zero(f, T_MAX, 20)
    assert v2.verdict != "convergent" or v2.confidence_note  # diagnostics present


def test_scale_invariance_of_verdicts():
    cases = [lambda t: 1.0 / (t * math.log(t) ** 2), lambda t: 1.0 / t, lambda t: t ** -0.5]
    for f in cases:
        base = classify_integral_at_zero(f, T_MAX, 16).verdict
        for lam in (1e-6, 1.0, 1e6):
            scaled = classify_integral_at_zero(lambda t: lam * f(t), T_MAX, 16)
            assert scaled.verdict == base
            assert scaled.fitted_ratio == pytest.approx(
                classify_integral_at_zero(f, T_MAX, 16).fitted_ratio, rel=1e-9)


def test_no_conv_div_flip_under_level_doubling():
    cases = [lambda t: 1.0 / (t * math.log(t) ** 2), lambda t: 1.0 / t,
             lambda t: t ** -0.5, lambda t: 1.0 / (t * abs(math.log(t)) ** 1.5)]
    for f in cases:
        v20 = classify_integral_at_zero(f, T_MAX, 20).verdict
        v40 = classify_integral_at_zero(f, T_MAX, 40).verdict
        assert {v20, v40} != {"convergent", "divergent"}


def test_integrand_failure_carries_block_index():
    def bad(t):
        if t < T_MAX / 100:
            raise RuntimeError("boom")
        return 1.0
    with pytest.raises(ll.ClassifierError, match="block"):
        classify_integral_at_zero(bad, T_MAX, 16)


def test_negative_integrand_rejected():
    with pytest.raises(ll.ClassifierError):
        classify_integral_at_zero(lambda t: -1.0, T_MAX, 8)


def test_levels_validation():
    with pytest.raises(ValueError):
        classify_integral_at_zero(lambda t: 1.0, T_MAX, 4)


def test_verdict_serialization():
    v = classify_integral_at_zero(lambda t: t ** -0.5, T_MAX, 12)
    d = json.loads(json.dumps(v.to_dict()))
    assert d["verdict"] == "convergent"
    assert len(d["blocks"]) == 12
    assert "fitted_exponent" in d


# --------------------------------------------------------------------------
# upper function test
# --------------------------------------------------------------------------

@pytest.mark.parametrize("levels", [20, 40])
def test_upper_function_constant_alpha_convergent(levels):
    v = ll.upper_function_test(M_15, 0.0, 0.5, 1, T_MAX, levels)
    assert v.verdict == "convergent"


def test_upper_function_ell_skip_divergent():
    # with ell = 1 the integrand is exactly 1/t
    v = ll.upper_function_test(M_15, 0.0, 0.5, 1, T_MAX, 20, ell_one=True)
    assert v.verdict == "divergent"
    assert all(b == pytest.approx(math.log(2.0), rel=1e-9) for b in v.block_values)


def test_upper_function_sinusoidal_convergent():
    v = ll.upper_function_test(M_SIN, 0.0, 0.5, 1, T_MAX, 20)
    assert v.verdict == "convergent"


# --------------------------------------------------------------------------
# lower tail test
# --------------------------------------------------------------------------

def test_lower_tail_divergent_for_critical_v():
    # tail_mass(2C t^{1/alpha}) = const / t, blocks constant
    v = ll.lower_tail_test(M_15, lambda t: t ** (1 / 1.5), 1.0, T_MAX, 20)
    assert v.verdict == "divergent"


def test_lower_tail_convergent_with_log_boost():
    v = ll.lower_tail_test(M_15, lambda t: t ** (1 / 1.5) * abs(math.log(t)) ** (2 / 1.5),
                           1.0, T_MAX, 20)
    assert v.verdict == "convergent"


def test_lower_tail_atomic_bounded_convergent():
    # integrand bounded by the total mass on a finite interval
    at = ll.AtomicMeasure(atoms=((1.0, 1.0), (-1.0, 1.0)))
    v = ll.lower_tail_test(at, lambda t: t, 1.0, T_MAX, 20)
    assert v.verdict == "convergent"


def test_lower_tail_rejects_state_dependent_measure():
    with pytest.raises(ll.LevyOnlyError):
        ll.lower_tail_test(M_SIN, lambda t: t, 1.0, T_MAX, 20)


# --------------------------------------------------------------------------
# symbol liminf test
# --------------------------------------------------------------------------

ALPHA = 1.5
G = staticmethod(lambda xi: xi ** ALPHA)


@pytest.mark.parametrize("levels", [20, 40])
def test_liminf_positive_finite(levels):
    # t g(1/w) = 1 identically
    v = ll.symbol_liminf_test(lambda xi: xi ** ALPHA, lambda t: t ** (1 / ALPHA),
                              T_MAX, levels)
    assert v.verdict == "positive_finite"
    assert v.constant == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("levels", [20, 40])
def test_liminf_infinite(levels):
    # t g(1/w) = log|log t| -> infinity
    w = lambda t: (t / math.log(abs(math.log(t)))) ** (1 / ALPHA)
    v = ll.symbol_liminf_test(lambda xi: xi ** ALPHA, w, T_MAX, levels)
    assert v.verdict == "infinite"


@pytest.mark.parametrize("levels", [20, 40])
def test_liminf_zero(levels):
    # t g(1/w) = 1/|log t| -> 0
    w = lambda t: (t * abs(math.log(t))) ** (1 / ALPHA)
    v = ll.symbol_liminf_test(lambda xi: xi ** ALPHA, w, T_MAX, levels)
    assert v.verdict == "zero"


def test_liminf_reparametrization_invariance():
    w = lambda t: t ** (1 / ALPHA)
    v1 = ll.symbol_liminf_test(lambda xi: xi ** ALPHA, w, T_MAX, 20)
    v2 = ll.symbol_liminf_test(lambda xi: xi ** ALPHA, lambda t: w(float(t)), T_MAX, 20)
    assert v1.verdict == v2.verdict
    assert v1.constant == v2.constant


def test_liminf_rejects_nondecreasing_w():
    with pytest.raises(ValueError, match="decreasing"):
        ll.symbol_liminf_test(lambda xi: xi, lambda t: 1.0 / t, T_MAX, 20)


def test_liminf_decay_to_positive_constant_is_finite():
    # m_j = 1 + 1/j-type decay toward 1 must not be classified zero
    w = lambda t: (t * (1.0 + 1.0 / abs(math.log(t)))) ** (1 / ALPHA)
    v = ll.symbol_liminf_test(lambda xi: xi ** ALPHA, w, T_MAX, 20)
    assert v.verdict == "positive_finite"
    assert v.constant == pytest.approx(1.0, rel=0.1)
