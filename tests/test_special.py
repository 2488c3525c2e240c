import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import polygamma

from statgeo.special import (
    _TRIGAMMA_TAIL,
    log_vmf_normalizer,
    mean_resultant,
    mean_resultant_deriv,
    softplus,
    trigamma,
)


@given(st.floats(min_value=1e-8, max_value=1e6))
def test_trigamma_matches_scipy(x):
    assert trigamma(x) == pytest.approx(float(polygamma(1, x)), rel=1e-12)


def test_trigamma_matches_scipy_on_a_dense_grid():
    # [4, 6.3] is where an upward shift that stops at 6 leaves the series'
    # truncation error above 1e-12
    xs = np.concatenate([np.geomspace(1e-4, 1e6, 20001), np.linspace(4.0, 6.3, 2301)])
    want = polygamma(1, xs)
    assert np.max(np.abs(trigamma(xs) - want) / want) < 1e-13


def trigamma_loop_reference(x):
    """The recurrence as a loop over k = 0..5 in k order, then the tail."""
    x = np.asarray(x, dtype=float)
    out = 1.0 / (x * x)
    for k in range(1, 6):
        out = out + 1.0 / ((x + k) * (x + k))
    inv = 1.0 / (x + 6.0)
    inv2 = inv * inv
    poly = _TRIGAMMA_TAIL[-1]
    for coeff in _TRIGAMMA_TAIL[-2::-1]:
        poly = poly * inv2 + coeff
    return out + inv + inv2 * (0.5 + inv * poly)


def test_trigamma_is_the_loop_bit_for_bit():
    xs = np.geomspace(1e-8, 1e8, 30001)
    assert np.array_equal(trigamma(xs), trigamma_loop_reference(xs))
    stacked = xs[:3000].reshape(3, 250, 4)
    assert np.array_equal(trigamma(stacked), trigamma_loop_reference(stacked))
    for x in xs[::1001]:
        assert trigamma(x) == trigamma_loop_reference(x) and trigamma(x).shape == ()


def test_trigamma_known_values():
    assert trigamma(1.0) == pytest.approx(np.pi**2 / 6, rel=1e-13)
    assert trigamma(2.0) == pytest.approx(np.pi**2 / 6 - 1.0, rel=1e-13)
    assert trigamma(0.5) == pytest.approx(np.pi**2 / 2, rel=1e-13)


def test_trigamma_vectorized_and_domain():
    xs = np.array([0.3, 1.0, 7.5, 42.0])
    assert np.allclose(trigamma(xs), polygamma(1, xs), rtol=1e-12)
    with pytest.raises(ValueError):
        trigamma(-1.0)


def test_mean_resultant_values():
    # K(1) = coth(1) - 1
    assert mean_resultant(1.0) == pytest.approx(1 / np.tanh(1) - 1, rel=1e-13)
    # series and direct branches join smoothly at the switch point: the
    # cross-branch difference is explained by the true local slope
    jump = mean_resultant(0.1 + 1e-9) - mean_resultant(0.1 - 1e-9)
    assert jump == pytest.approx(2e-9 * mean_resultant_deriv(0.1), rel=1e-5)
    # K'(kappa) equals a central difference of K
    for kappa in (0.05, 0.7, 3.0, 25.0):
        h = 1e-6 * max(1.0, kappa)
        fd = (mean_resultant(kappa + h) - mean_resultant(kappa - h)) / (2 * h)
        assert mean_resultant_deriv(kappa) == pytest.approx(fd, rel=1e-7)


def test_log_vmf_normalizer():
    for kappa in (1e-6, 1e-3, 0.5, 5.0, 50.0, 500.0):
        direct = np.log(kappa) - np.log(4 * np.pi) - (
            kappa - np.log(2.0) + np.log1p(-np.exp(-2.0 * kappa))
        ) if kappa >= 20 else np.log(kappa / np.sinh(kappa)) - np.log(4 * np.pi)
        assert log_vmf_normalizer(kappa) == pytest.approx(direct, rel=1e-10)
    # kappa -> 0 limit is the uniform density on the sphere
    assert log_vmf_normalizer(1e-9) == pytest.approx(-np.log(4 * np.pi), abs=1e-12)


@given(st.floats(min_value=-500, max_value=500))
def test_softplus_positive_and_stable(x):
    y = softplus(x)
    assert np.isfinite(y) and y >= 0.0
    if x > 30:
        assert y == pytest.approx(x, rel=1e-12)
