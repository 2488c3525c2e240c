"""Scalar special functions used by the likelihood families.

``gammaln``, ``digamma`` and ``expit`` (behind ``sigmoid``) are scipy's own
ufuncs. Importing ``scipy.special`` after numpy takes 0.25-0.35 s, about
half of a ``statgeo`` process's start-up, and most commands never evaluate
any of them: only the Gamma, Beta and Dirichlet densities and divergences
and the decoder's sigmoid do. So the three names start as stubs: the first
call to any of them imports ``scipy.special`` and binds its three functions
over the stubs, and every later call reaches the ufunc through a plain name
lookup. Call them through the module (``special.gammaln``), never import
them by name, or the caller keeps the stub. The CLI binds them itself when
it loads a decoder, so ``--profile`` times the import as loading.

Trigamma shifts every argument up by six with the recurrence
psi1(x) = psi1(x+1) + 1/x^2 and evaluates the asymptotic Bernoulli series at
x + 6 > 6; this keeps the implementation self-contained at 2e-14 relative
accuracy (the series' truncation error, largest for x near 0.66). The von
Mises-Fisher helpers wrap coth-based expressions with small/large argument
guards.
"""

from __future__ import annotations

import numpy as np


def _bind_scipy() -> None:
    """Import scipy.special and bind its ufuncs over the stubs below."""
    global gammaln, digamma, expit
    from scipy import special

    gammaln, digamma, expit = special.gammaln, special.digamma, special.expit


def gammaln(x):
    _bind_scipy()
    return gammaln(x)


def digamma(x):
    _bind_scipy()
    return digamma(x)


def expit(x):
    _bind_scipy()
    return expit(x)


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
_SHIFTS = np.arange(6.0)  # the recurrence's shifts k = 0..5


def _recurrence_sum(x: np.ndarray) -> np.ndarray:
    """sum_{k=0..5} 1/(x+k)^2, added in k order: numpy adds fewer than 8
    terms along an axis one after another, so this is the loop's sum bit
    for bit. The (6, ...) terms are built in place and freed on return:
    on large x, fresh temporaries of that size, or one kept alive through
    the tail, cost more than a loop over k."""
    terms = x + _SHIFTS.reshape((6,) + (1,) * x.ndim)
    terms *= terms
    np.divide(1.0, terms, out=terms)
    return np.add.reduce(terms, axis=0)


def trigamma(x):
    """psi_1(x) = d^2/dx^2 log Gamma(x) for x > 0, elementwise."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("trigamma requires x > 0")
    out = _recurrence_sum(x)
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
