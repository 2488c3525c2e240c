"""Scalar special functions used by the likelihood families.

Trigamma shifts every argument up by six with the recurrence
psi1(x) = psi1(x+1) + 1/x^2 and evaluates the asymptotic Bernoulli series at
x + 6 > 6; this keeps the implementation self-contained at 2e-14 relative
accuracy (the series' truncation error, largest for x near 0.66). The von
Mises-Fisher helpers wrap coth-based expressions with small/large argument
guards.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

# Bernoulli-number coefficients of the asymptotic tail sum_k B_{2k} / x^{2k+1}.
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def trigamma(x):
    """psi_1(x) = d^2/dx^2 log Gamma(x) for x > 0, elementwise."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("trigamma requires x > 0")
    out = 1.0 / (x * x)
    for k in range(1, 6):
        out = out + 1.0 / ((x + k) * (x + k))
    inv = 1.0 / (x + 6.0)
    inv2 = inv * inv
    # sum_k B_2k inv^(2k+1) = inv^3 * poly(inv^2), in Horner form
    poly = _TRIGAMMA_TAIL[-1]
    for coeff in _TRIGAMMA_TAIL[-2::-1]:
        poly = poly * inv2 + coeff
    return out + inv + inv2 * (0.5 + inv * poly)


def softplus(x):
    x = np.asarray(x, dtype=float)
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return expit(x)


def mean_resultant(kappa):
    """K(kappa) = coth(kappa) - 1/kappa, the vMF mean resultant length on S^2.

    The direct form cancels catastrophically for small kappa, so the Laurent
    series of coth takes over below 0.1.
    """
    kappa = np.asarray(kappa, dtype=float)
    scalar = kappa.ndim == 0
    kappa = np.atleast_1d(kappa)
    out = np.empty_like(kappa)
    small = kappa < 0.1
    k = kappa[small]
    k2 = k * k
    out[small] = k * (
        1.0 / 3.0
        + k2 * (-1.0 / 45.0 + k2 * (2.0 / 945.0 + k2 * (-1.0 / 4725.0 + k2 * 2.0 / 93555.0)))
    )
    k = kappa[~small]
    out[~small] = 1.0 / np.tanh(k) - 1.0 / k
    return out[0] if scalar else out


def mean_resultant_deriv(kappa):
    """K'(kappa) = 1/kappa^2 - csch^2(kappa); also the vMF Fisher kappa-entry."""
    kappa = np.asarray(kappa, dtype=float)
    scalar = kappa.ndim == 0
    kappa = np.atleast_1d(kappa)
    out = np.empty_like(kappa)
    small = kappa < 0.1
    k = kappa[small]
    k2 = k * k
    out[small] = (
        1.0 / 3.0
        + k2 * (-1.0 / 15.0 + k2 * (2.0 / 189.0 + k2 * (-1.0 / 675.0 + k2 * 2.0 / 10395.0)))
    )
    k = kappa[~small]
    # csch^2 via exp to stay finite for large kappa
    e = np.exp(-np.minimum(k, 350.0))
    csch2 = (2.0 * e / (1.0 - e * e)) ** 2
    out[~small] = 1.0 / k**2 - csch2
    return out[0] if scalar else out


def log_vmf_normalizer(kappa):
    """log C3(kappa) = log kappa - log(4 pi sinh kappa), stable for all kappa > 0."""
    kappa = np.asarray(kappa, dtype=float)
    scalar = kappa.ndim == 0
    kappa = np.atleast_1d(kappa)
    out = np.empty_like(kappa)
    log4pi = np.log(4.0 * np.pi)
    tiny = kappa < 1e-4
    out[tiny] = -log4pi - kappa[tiny] ** 2 / 6.0
    big = kappa >= 20.0
    k = kappa[big]
    out[big] = np.log(k) - log4pi - (k - np.log(2.0) + np.log1p(-np.exp(-2.0 * k)))
    mid = ~(tiny | big)
    k = kappa[mid]
    out[mid] = np.log(k) - log4pi - np.log(np.sinh(k))
    return out[0] if scalar else out
