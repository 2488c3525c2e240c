"""Likelihood families: log-densities, sampling, KL divergences and
information tensors.

Each family fixes a per-feature parameter layout (documented on the class)
and implements, fully vectorized over leading axes:

* ``log_pdf`` -- log density, which the sampled KL estimates average,
* ``sample`` -- i.i.d. draws from a seeded generator,
* ``kl`` / ``kl_grad`` -- closed-form divergence between two points,
* ``fisher`` -- closed-form information tensor G(eta) in the stored
  coordinates: the second-order term of the KL divergence,
  KL(eta || eta + d) = 0.5 d^T G(eta) d + O(|d|^3),
* ``max_uncertainty`` -- the maximum-entropy parameters used for
  extrapolation far from the data support.

The library promises no score function; ``log_pdf`` determines it. The
Normal family is parametrized by (mean, variance): the variance
coordinate is what makes the closed-form tensor diag(1/v, 1/(2v^2)) agree
with the local quadratic behaviour of the KL divergence. Categorical and
von Mises-Fisher use over-complete coordinates (full simplex, ambient mean
direction); their tensors are the raw expected outer products of the
log-density gradient, which is what the latent pullback consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import special
from .errors import DomainError, FamilyMismatch, InvalidParam
from .rng import RngStream
from .special import (
    log_vmf_normalizer,
    mean_resultant,
    mean_resultant_deriv,
    trigamma,
)

# Numerical guards: geodesic optimization probes near-boundary points, so
# logs and ratios are evaluated on clamped copies.
POS_FLOOR = 1e-9
BERNOULLI_EPS = 1e-7


class FamilyKind(str, Enum):
    NORMAL = "normal"
    BERNOULLI = "bernoulli"
    CATEGORICAL = "categorical"
    GAMMA = "gamma"
    BETA = "beta"
    EXPONENTIAL = "exponential"
    DIRICHLET = "dirichlet"
    VON_MISES_FISHER_S2 = "vmf_s2"


def _clamp_pos(a):
    return np.maximum(a, POS_FLOOR)


class Family:
    """Base class; subclasses define the per-feature parameter layout."""

    kind: FamilyKind
    param_dim: int
    obs_dim: int = 1  # width of one observation (K for simplex families)

    # which parameter components the uncertainty reweighting blends
    def blend_mask(self) -> np.ndarray:
        return np.ones(self.param_dim, dtype=bool)

    def head_schema(self):
        """(name, per-feature width, default activation) for each head."""
        raise NotImplementedError

    def validate(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.param_dim:
            raise InvalidParam(
                f"{self.kind.value} expects {self.param_dim} parameters, "
                f"got {values.shape[-1]}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParam(f"{self.kind.value} parameters must be finite")
        self._check(values)

    def _check(self, values) -> None:
        raise NotImplementedError

    def log_pdf(self, values, x):
        raise NotImplementedError

    def sample(self, values, gen: np.random.Generator, n: int):
        raise NotImplementedError

    def kl(self, v1, v2):
        raise NotImplementedError

    def kl_grad(self, v1, v2):
        raise NotImplementedError

    def fisher(self, values):
        raise NotImplementedError

    def max_uncertainty(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class NormalFamily(Family):
    """Univariate Normal, parameters (mean, variance)."""

    kind = FamilyKind.NORMAL
    param_dim = 2

    def head_schema(self):
        return (("mean", 1, "identity"), ("var", 1, "softplus"))

    def _check(self, values):
        if np.any(values[..., 1] <= 0):
            raise InvalidParam("normal variance must be > 0")

    def log_pdf(self, values, x):
        mu, var = values[..., 0], _clamp_pos(values[..., 1])
        x = np.asarray(x, dtype=float)
        return -0.5 * (np.log(2.0 * np.pi * var) + (x - mu) ** 2 / var)

    def sample(self, values, gen, n):
        mu, var = values[0], values[1]
        return mu + np.sqrt(var) * gen.standard_normal(n)

    def kl(self, v1, v2):
        m1, s1 = v1[..., 0], _clamp_pos(v1[..., 1])
        m2, s2 = v2[..., 0], _clamp_pos(v2[..., 1])
        return 0.5 * (np.log(s2 / s1) + (s1 + (m1 - m2) ** 2) / s2 - 1.0)

    def kl_grad(self, v1, v2):
        m1, s1 = v1[..., 0], _clamp_pos(v1[..., 1])
        m2, s2 = v2[..., 0], _clamp_pos(v2[..., 1])
        dm = m1 - m2
        g1 = np.stack([dm / s2, 0.5 * (1.0 / s2 - 1.0 / s1)], axis=-1)
        g2 = np.stack(
            [-dm / s2, 0.5 * (1.0 / s2 - (s1 + dm**2) / s2**2)], axis=-1
        )
        return g1, g2

    def fisher(self, values):
        var = _clamp_pos(values[..., 1])
        out = np.zeros(values.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 / var
        out[..., 1, 1] = 0.5 / var**2
        return out

    def max_uncertainty(self):
        return np.array([0.0, 1e6])  # standard deviation 1e3


class BernoulliFamily(Family):
    """Bernoulli, parameter (theta,), support {0, 1}."""

    kind = FamilyKind.BERNOULLI
    param_dim = 1

    def head_schema(self):
        return (("prob", 1, "sigmoid"),)

    def _check(self, values):
        t = values[..., 0]
        if np.any(t <= 0) or np.any(t >= 1):
            raise InvalidParam("bernoulli probability must be in (0, 1)")

    def _theta(self, values):
        return np.clip(values[..., 0], BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)

    def log_pdf(self, values, x):
        x = np.asarray(x, dtype=float)
        if np.any((x != 0) & (x != 1)):
            raise DomainError("bernoulli observations must be 0 or 1")
        t = self._theta(values)
        return x * np.log(t) + (1.0 - x) * np.log1p(-t)

    def sample(self, values, gen, n):
        return (gen.random(n) < values[0]).astype(float)

    def kl(self, v1, v2):
        t1, t2 = self._theta(v1), self._theta(v2)
        return t1 * np.log(t1 / t2) + (1.0 - t1) * np.log((1.0 - t1) / (1.0 - t2))

    def kl_grad(self, v1, v2):
        t1, t2 = self._theta(v1), self._theta(v2)
        g1 = np.log(t1 / t2) - np.log((1.0 - t1) / (1.0 - t2))
        g2 = -t1 / t2 + (1.0 - t1) / (1.0 - t2)
        return g1[..., None], g2[..., None]

    def fisher(self, values):
        t = self._theta(values)
        return (1.0 / (t * (1.0 - t)))[..., None, None]

    def max_uncertainty(self):
        return np.array([0.5])


class CategoricalFamily(Family):
    """Categorical over K classes, full-simplex coordinates (theta_1..theta_K).

    The tensor diag(1/theta_k) is the raw score outer-product expectation on
    the over-complete simplex coordinates; rank deficiency along the
    constraint is handled by whoever parametrizes the simplex (see
    ``metric.simplex_chart``).
    """

    kind = FamilyKind.CATEGORICAL

    def __init__(self, k: int):
        if k < 2:
            raise InvalidParam("categorical needs K >= 2 classes")
        self.k = int(k)
        self.param_dim = self.k
        self.obs_dim = self.k

    def head_schema(self):
        return (("probs", self.k, "softmax"),)

    def normalize(self, values):
        values = np.asarray(values, dtype=float)
        return values / np.sum(values, axis=-1, keepdims=True)

    def _check(self, values):
        if np.any(values <= 0):
            raise InvalidParam("categorical probabilities must be > 0")
        if np.any(np.abs(np.sum(values, axis=-1) - 1.0) > 1e-6):
            raise InvalidParam("categorical probabilities must sum to 1")

    def log_pdf(self, values, x):
        x = np.asarray(x, dtype=float)
        if np.any((x != 0) & (x != 1)) or np.any(np.sum(x, axis=-1) != 1):
            raise DomainError("categorical observations must be one-hot")
        t = _clamp_pos(values)
        return np.sum(x * np.log(t), axis=-1)

    def sample(self, values, gen, n):
        idx = gen.choice(self.k, size=n, p=values / values.sum())
        out = np.zeros((n, self.k))
        out[np.arange(n), idx] = 1.0
        return out

    def kl(self, v1, v2):
        t1, t2 = _clamp_pos(v1), _clamp_pos(v2)
        return np.sum(t1 * np.log(t1 / t2), axis=-1)

    def kl_grad(self, v1, v2):
        t1, t2 = _clamp_pos(v1), _clamp_pos(v2)
        return np.log(t1 / t2) + 1.0, -t1 / t2

    def fisher(self, values):
        t = _clamp_pos(values)
        out = np.zeros(values.shape[:-1] + (self.k, self.k))
        idx = np.arange(self.k)
        out[..., idx, idx] = 1.0 / t
        return out

    def max_uncertainty(self):
        return np.full(self.k, 1.0 / self.k)


class GammaFamily(Family):
    """Gamma, parameters (shape alpha, rate beta)."""

    kind = FamilyKind.GAMMA
    param_dim = 2

    def head_schema(self):
        return (("shape", 1, "softplus"), ("rate", 1, "softplus"))

    def _check(self, values):
        if np.any(values <= 0):
            raise InvalidParam("gamma shape and rate must be > 0")

    def log_pdf(self, values, x):
        a, b = _clamp_pos(values[..., 0]), _clamp_pos(values[..., 1])
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("gamma observations must be > 0")
        return a * np.log(b) + (a - 1.0) * np.log(x) - b * x - special.gammaln(a)

    def sample(self, values, gen, n):
        return gen.gamma(shape=values[0], scale=1.0 / values[1], size=n)

    def kl(self, v1, v2):
        a1, b1 = _clamp_pos(v1[..., 0]), _clamp_pos(v1[..., 1])
        a2, b2 = _clamp_pos(v2[..., 0]), _clamp_pos(v2[..., 1])
        return (
            a2 * np.log(b1 / b2)
            + special.gammaln(a2)
            - special.gammaln(a1)
            + (a1 - a2) * special.digamma(a1)
            + (b2 - b1) * a1 / b1
        )

    def kl_grad(self, v1, v2):
        a1, b1 = _clamp_pos(v1[..., 0]), _clamp_pos(v1[..., 1])
        a2, b2 = _clamp_pos(v2[..., 0]), _clamp_pos(v2[..., 1])
        g1a = (a1 - a2) * trigamma(a1) + (b2 - b1) / b1
        g1b = a2 / b1 - a1 * b2 / b1**2
        g2a = np.log(b1 / b2) + special.digamma(a2) - special.digamma(a1)
        g2b = -a2 / b2 + a1 / b1
        return np.stack([g1a, g1b], axis=-1), np.stack([g2a, g2b], axis=-1)

    def fisher(self, values):
        a, b = _clamp_pos(values[..., 0]), _clamp_pos(values[..., 1])
        out = np.empty(values.shape[:-1] + (2, 2))
        out[..., 0, 0] = trigamma(a)
        out[..., 0, 1] = out[..., 1, 0] = -1.0 / b
        out[..., 1, 1] = a / b**2
        return out

    def max_uncertainty(self):
        return np.array([1.0, 1e-3])


class BetaFamily(Family):
    """Beta, parameters (alpha, beta), support (0, 1).

    ``kl_grad`` and ``fisher`` call each special function once per
    argument, on that argument's stack (alpha, beta, alpha + beta): on the
    5 rows of a pullback stencil one ``trigamma`` call costs about 3x
    the stack, and ``fisher`` on the stack about half of three calls.
    ``kl`` calls ``special.gammaln`` and ``special.digamma`` (scipy's
    ufuncs, imported on first use) on each array, since
    building the two stacks costs more than the calls they save.
    """

    kind = FamilyKind.BETA
    param_dim = 2

    def head_schema(self):
        return (("alpha", 1, "softplus"), ("beta", 1, "softplus"))

    def _check(self, values):
        if np.any(values <= 0):
            raise InvalidParam("beta shape parameters must be > 0")

    def log_pdf(self, values, x):
        a, b = _clamp_pos(values[..., 0]), _clamp_pos(values[..., 1])
        x = np.asarray(x, dtype=float)
        if np.any((x <= 0) | (x >= 1)):
            raise DomainError("beta observations must be in (0, 1)")
        return (
            (a - 1.0) * np.log(x)
            + (b - 1.0) * np.log1p(-x)
            + special.gammaln(a + b)
            - special.gammaln(a)
            - special.gammaln(b)
        )

    def sample(self, values, gen, n):
        return gen.beta(values[0], values[1], size=n)

    @staticmethod
    def _shape_stack(values):
        """(a, b, a + b) of one argument, stacked on a new leading axis.

        Never stack both arguments: ``v1`` and ``v2`` may broadcast against
        each other, e.g. (n, 1, p) against (n, k, p).
        """
        v = _clamp_pos(values)
        a, b = v[..., 0], v[..., 1]
        return np.stack([a, b, a + b])

    def kl(self, v1, v2):
        a1, b1 = _clamp_pos(v1[..., 0]), _clamp_pos(v1[..., 1])
        a2, b2 = _clamp_pos(v2[..., 0]), _clamp_pos(v2[..., 1])
        s1, s2 = a1 + b1, a2 + b2
        return (
            special.gammaln(a2) + special.gammaln(b2) - special.gammaln(s2)
            - (special.gammaln(a1) + special.gammaln(b1) - special.gammaln(s1))
            + (a1 - a2) * special.digamma(a1)
            + (b1 - b2) * special.digamma(b1)
            + (s2 - s1) * special.digamma(s1)
        )

    def kl_grad(self, v1, v2):
        x1, x2 = self._shape_stack(v1), self._shape_stack(v2)
        (a1, b1, s1), (a2, b2, s2) = x1, x2
        tg1, dg1, dg2 = trigamma(x1), special.digamma(x1), special.digamma(x2)
        g1a = (a1 - a2) * tg1[0] + (s2 - s1) * tg1[2]
        g1b = (b1 - b2) * tg1[1] + (s2 - s1) * tg1[2]
        g2a = dg2[0] - dg2[2] - dg1[0] + dg1[2]
        g2b = dg2[1] - dg2[2] - dg1[1] + dg1[2]
        return np.stack([g1a, g1b], axis=-1), np.stack([g2a, g2b], axis=-1)

    def fisher(self, values):
        ta, tb, tab = trigamma(self._shape_stack(values))
        out = np.empty(values.shape[:-1] + (2, 2))
        out[..., 0, 0] = ta - tab
        out[..., 0, 1] = out[..., 1, 0] = -tab
        out[..., 1, 1] = tb - tab
        return out

    def max_uncertainty(self):
        return np.array([1.0, 1.0])


class ExponentialFamily(Family):
    """Exponential, parameter (rate lambda,), support [0, inf)."""

    kind = FamilyKind.EXPONENTIAL
    param_dim = 1

    def head_schema(self):
        return (("rate", 1, "softplus"),)

    def _check(self, values):
        if np.any(values[..., 0] <= 0):
            raise InvalidParam("exponential rate must be > 0")

    def log_pdf(self, values, x):
        lam = _clamp_pos(values[..., 0])
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise DomainError("exponential observations must be >= 0")
        return np.log(lam) - lam * x

    def sample(self, values, gen, n):
        return gen.exponential(scale=1.0 / values[0], size=n)

    def kl(self, v1, v2):
        l1, l2 = _clamp_pos(v1[..., 0]), _clamp_pos(v2[..., 0])
        return np.log(l1 / l2) + l2 / l1 - 1.0

    def kl_grad(self, v1, v2):
        l1, l2 = _clamp_pos(v1[..., 0]), _clamp_pos(v2[..., 0])
        return (1.0 / l1 - l2 / l1**2)[..., None], (1.0 / l1 - 1.0 / l2)[..., None]

    def fisher(self, values):
        lam = _clamp_pos(values[..., 0])
        return (1.0 / lam**2)[..., None, None]

    def max_uncertainty(self):
        return np.array([1e-3])


class DirichletFamily(Family):
    """Dirichlet over the K-simplex, parameters (alpha_1..alpha_K)."""

    kind = FamilyKind.DIRICHLET

    def __init__(self, k: int):
        if k < 2:
            raise InvalidParam("dirichlet needs K >= 2 components")
        self.k = int(k)
        self.param_dim = self.k
        self.obs_dim = self.k

    def head_schema(self):
        return (("conc", self.k, "softplus"),)

    def _check(self, values):
        if np.any(values <= 0):
            raise InvalidParam("dirichlet concentrations must be > 0")

    def log_pdf(self, values, x):
        a = _clamp_pos(values)
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0) or np.any(np.abs(np.sum(x, axis=-1) - 1.0) > 1e-9):
            raise DomainError("dirichlet observations must be interior simplex points")
        return (
            special.gammaln(np.sum(a, axis=-1))
            - np.sum(special.gammaln(a), axis=-1)
            + np.sum((a - 1.0) * np.log(x), axis=-1)
        )

    def sample(self, values, gen, n):
        return gen.dirichlet(values, size=n)

    def kl(self, v1, v2):
        a1, a2 = _clamp_pos(v1), _clamp_pos(v2)
        s1 = np.sum(a1, axis=-1)
        s2 = np.sum(a2, axis=-1)
        return (
            special.gammaln(s1) - special.gammaln(s2)
            - np.sum(special.gammaln(a1) - special.gammaln(a2), axis=-1)
            + np.sum(
                (a1 - a2) * (special.digamma(a1) - special.digamma(s1)[..., None]), axis=-1
            )
        )

    def kl_grad(self, v1, v2):
        a1, a2 = _clamp_pos(v1), _clamp_pos(v2)
        s1 = np.sum(a1, axis=-1)[..., None]
        s2 = np.sum(a2, axis=-1)[..., None]
        da = a1 - a2
        g1 = (a1 - a2) * trigamma(a1) - np.sum(da, axis=-1)[..., None] * trigamma(s1)
        g2 = (
            special.digamma(a2) - special.digamma(s2)
            - special.digamma(a1) + special.digamma(s1)
        )
        return g1, g2

    def fisher(self, values):
        a = _clamp_pos(values)
        s = np.sum(a, axis=-1)
        out = np.zeros(values.shape[:-1] + (self.k, self.k))
        idx = np.arange(self.k)
        out[..., idx, idx] = trigamma(a)
        out -= trigamma(s)[..., None, None]
        return out

    def max_uncertainty(self):
        return np.ones(self.k)


class VonMisesFisherS2Family(Family):
    """von Mises-Fisher on the 2-sphere, parameters (mu in S^2, kappa).

    Closed forms follow from the first moments E[x] = K(kappa) mu and
    E[x x^T]; the kappa-block of the tensor is K'(kappa) with cross terms
    kappa K'(kappa) mu. Only kappa is blended by uncertainty extrapolation
    (a convex combination of unit vectors leaves the sphere).
    """

    kind = FamilyKind.VON_MISES_FISHER_S2
    param_dim = 4
    obs_dim = 3

    def head_schema(self):
        return (("mean_dir", 3, "unit_normalize"), ("conc", 1, "softplus"))

    def blend_mask(self):
        return np.array([False, False, False, True])

    def _check(self, values):
        mu = values[..., :3]
        if np.any(np.abs(np.linalg.norm(mu, axis=-1) - 1.0) > 1e-9):
            raise InvalidParam("vmf mean direction must be unit-norm within 1e-9")
        if np.any(values[..., 3] <= 0):
            raise InvalidParam("vmf concentration must be > 0")

    def log_pdf(self, values, x):
        mu, kappa = values[..., :3], _clamp_pos(values[..., 3])
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(np.linalg.norm(x, axis=-1) - 1.0) > 1e-6):
            raise DomainError("vmf observations must lie on the unit sphere")
        return log_vmf_normalizer(kappa) + kappa * np.sum(mu * x, axis=-1)

    def sample(self, values, gen, n):
        mu, kappa = values[:3], float(values[3])
        u = gen.random(n)
        # exact inverse CDF of the axial cosine on S^2
        w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
        w = np.clip(w, -1.0, 1.0)
        phi = 2.0 * np.pi * gen.random(n)
        r = np.sqrt(np.maximum(0.0, 1.0 - w**2))
        local = np.stack([r * np.cos(phi), r * np.sin(phi), w], axis=-1)
        return local @ _rotation_to(mu).T

    def kl(self, v1, v2):
        mu1, k1 = v1[..., :3], _clamp_pos(v1[..., 3])
        mu2, k2 = v2[..., :3], _clamp_pos(v2[..., 3])
        mean1 = mean_resultant(k1)[..., None] * mu1
        diff = k1[..., None] * mu1 - k2[..., None] * mu2
        return (
            log_vmf_normalizer(k1)
            - log_vmf_normalizer(k2)
            + np.sum(diff * mean1, axis=-1)
        )

    def kl_grad(self, v1, v2):
        mu1, k1 = v1[..., :3], _clamp_pos(v1[..., 3])
        mu2, k2 = v2[..., :3], _clamp_pos(v2[..., 3])
        K1 = mean_resultant(k1)
        K1p = mean_resultant_deriv(k1)
        dot = np.sum(mu1 * mu2, axis=-1)
        g1_mu = K1[..., None] * (2.0 * k1[..., None] * mu1 - k2[..., None] * mu2)
        g1_k = K1p * (k1 - k2 * dot)
        g2_mu = -(k2 * K1)[..., None] * mu1
        g2_k = mean_resultant(k2) - K1 * dot
        g1 = np.concatenate([g1_mu, g1_k[..., None]], axis=-1)
        g2 = np.concatenate([g2_mu, g2_k[..., None]], axis=-1)
        return g1, g2

    def fisher(self, values):
        mu, kappa = values[..., :3], _clamp_pos(values[..., 3])
        K = mean_resultant(kappa)
        Kp = mean_resultant_deriv(kappa)
        eye = np.broadcast_to(np.eye(3), values.shape[:-1] + (3, 3))
        mumu = mu[..., :, None] * mu[..., None, :]
        out = np.zeros(values.shape[:-1] + (4, 4))
        kK = (kappa * K)[..., None, None]
        out[..., :3, :3] = kK * eye + (kappa**2)[..., None, None] * mumu - 3.0 * kK * mumu
        cross = (kappa * Kp)[..., None] * mu
        out[..., :3, 3] = cross
        out[..., 3, :3] = cross
        out[..., 3, 3] = Kp
        return out

    def max_uncertainty(self):
        return np.array([0.0, 0.0, 1.0, 1e-3])


def _rotation_to(mu):
    """Rotation matrix taking e_z to the unit vector mu (deterministic)."""
    mu = np.asarray(mu, dtype=float)
    ez = np.array([0.0, 0.0, 1.0])
    c = float(mu @ ez)
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(ez, mu)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


_FAMILY_CACHE: dict[tuple, Family] = {}


def get_family(kind: FamilyKind | str, k: int | None = None) -> Family:
    """Resolve a family instance; K-ary families are cached per K."""
    kind = FamilyKind(kind)
    key = (kind, k)
    if key in _FAMILY_CACHE:
        return _FAMILY_CACHE[key]
    if kind in (FamilyKind.CATEGORICAL, FamilyKind.DIRICHLET):
        if k is None:
            raise InvalidParam(f"{kind.value} requires the class count K")
        fam = CategoricalFamily(k) if kind == FamilyKind.CATEGORICAL else DirichletFamily(k)
    else:
        fam = {
            FamilyKind.NORMAL: NormalFamily,
            FamilyKind.BERNOULLI: BernoulliFamily,
            FamilyKind.GAMMA: GammaFamily,
            FamilyKind.BETA: BetaFamily,
            FamilyKind.EXPONENTIAL: ExponentialFamily,
            FamilyKind.VON_MISES_FISHER_S2: VonMisesFisherS2Family,
        }[kind]()
    _FAMILY_CACHE[key] = fam
    return fam


@dataclass(frozen=True)
class ParamPoint:
    """One feature's parameter vector in a fixed family.

    Categorical values are renormalized on construction (decoder heads emit
    softmax-like outputs with float drift).
    """

    family: Family
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if isinstance(self.family, CategoricalFamily) and values.ndim == 1:
            if np.any(values <= 0):
                raise InvalidParam("categorical probabilities must be > 0")
            values = self.family.normalize(values)
        object.__setattr__(self, "values", values)
        self.family.validate(values)


@dataclass
class McKl:
    """Monte Carlo settings for sampled KL estimates (common random numbers)."""

    rng: RngStream
    n_samples: int = 10_000


def _same_family(p1: ParamPoint, p2: ParamPoint) -> Family:
    if p1.family is not p2.family:
        raise FamilyMismatch(
            f"cannot mix {p1.family.kind.value} with {p2.family.kind.value}"
        )
    return p1.family


def log_pdf(eta: ParamPoint, x):
    """log p(x | eta); x may be a batch of observations."""
    return eta.family.log_pdf(eta.values, x)


def fisher_rao(eta: ParamPoint) -> np.ndarray:
    """Closed-form information tensor at eta, shape (p, p)."""
    return eta.family.fisher(eta.values)


def sample(eta: ParamPoint, rng: RngStream, n: int) -> np.ndarray:
    """n i.i.d. draws from p(. | eta)."""
    return eta.family.sample(eta.values, rng.generator, n)


def log_ratios(fam: Family, v1, v2, gen: np.random.Generator, n: int) -> np.ndarray:
    """log p(x | v1) - log p(x | v2) at n draws x from p(. | v1), one
    feature's parameters each: their mean is the sampled KL(v1 || v2)."""
    x = fam.sample(v1, gen, n)
    return fam.log_pdf(v1, x) - fam.log_pdf(v2, x)


def sampled_kls(fam: Family, params, mc: McKl) -> np.ndarray:
    """Sampled KL, summed over features, between consecutive rows of params
    (nt, D, p); every call draws from a fresh ``mc.rng.child(0)`` stream,
    segment by segment and feature by feature."""
    gen = mc.rng.child(0).generator
    kls = np.zeros(len(params) - 1)
    for i in range(len(params) - 1):
        for f in range(params.shape[1]):
            kls[i] += np.mean(log_ratios(fam, params[i, f], params[i + 1, f], gen, mc.n_samples))
    return kls


def kl(eta1: ParamPoint, eta2: ParamPoint) -> float:
    """Closed-form KL(p(.|eta1) || p(.|eta2)); ``kl_mc_stats`` samples it."""
    return float(_same_family(eta1, eta2).kl(eta1.values, eta2.values))


def kl_mc_stats(eta1: ParamPoint, eta2: ParamPoint, mc: McKl) -> tuple[float, float]:
    """Monte Carlo KL estimate with its standard error."""
    fam = _same_family(eta1, eta2)
    diffs = log_ratios(fam, eta1.values, eta2.values, mc.rng.generator, mc.n_samples)
    return float(np.mean(diffs)), float(np.std(diffs) / np.sqrt(mc.n_samples))


def max_uncertainty_params(kind: FamilyKind | str, p_dims: int | None = None) -> ParamPoint:
    """Maximum-entropy ("extrapolation") parameters for a family.

    ``p_dims`` is the class count K for categorical/dirichlet families.
    """
    fam = get_family(kind, p_dims)
    return ParamPoint(fam, fam.max_uncertainty())
