import numpy as np
import pytest

from statgeo.decoder import DecoderMap, Head, LayerSpec
from statgeo.families import FamilyKind, ParamPoint, get_family
from statgeo.rng import RngStream
from statgeo.toy import toy_decoder

ALL_KINDS = list(FamilyKind)


def rel_frob(a, b) -> float:
    """Relative Frobenius distance of a from b."""
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def lifted_decoder(latent_dim: int, seed: int = 0) -> DecoderMap:
    """The unregularized toy beta decoder (seed 5) read through a (2, d) map:
    each head's first-layer weights are right-multiplied by a random A
    (scaled by 1/sqrt(d), as the toy layers are), so the decoder evaluates
    the 2-latent one at A z."""
    base = toy_decoder("beta", seed=5, regularized=False)
    a = np.random.default_rng(seed).standard_normal((2, latent_dim)) / np.sqrt(latent_dim)
    heads = []
    for head in base.heads:
        first = head.layers[0]
        lifted = LayerSpec(first.weight @ a, first.bias, first.activation)
        heads.append(Head(head.name, (lifted, *head.layers[1:])))
    return DecoderMap(latent_dim, base.feature_count, base.family, tuple(heads))


def k_for(kind: FamilyKind):
    return 3 if kind in (FamilyKind.CATEGORICAL, FamilyKind.DIRICHLET) else None


def random_interior(kind: FamilyKind, gen: np.random.Generator) -> ParamPoint:
    """A random parameter point comfortably inside the family's domain."""
    fam = get_family(kind, k_for(kind))
    if kind == FamilyKind.NORMAL:
        vals = np.array([gen.uniform(-2, 2), gen.uniform(0.5, 2.5)])
    elif kind == FamilyKind.BERNOULLI:
        vals = np.array([gen.uniform(0.15, 0.85)])
    elif kind == FamilyKind.CATEGORICAL:
        vals = gen.uniform(0.2, 1.0, size=3)
        vals /= vals.sum()
    elif kind in (FamilyKind.GAMMA, FamilyKind.BETA):
        vals = gen.uniform(0.6, 3.0, size=2)
    elif kind == FamilyKind.EXPONENTIAL:
        vals = np.array([gen.uniform(0.4, 3.0)])
    elif kind == FamilyKind.DIRICHLET:
        vals = gen.uniform(0.6, 3.0, size=3)
    else:  # vMF on S^2
        mu = gen.standard_normal(3)
        mu /= np.linalg.norm(mu)
        vals = np.concatenate([mu, [gen.uniform(0.5, 5.0)]])
    return ParamPoint(fam, vals)


def tangent_direction(eta: ParamPoint, gen: np.random.Generator) -> np.ndarray:
    """Unit perturbation direction that keeps eta + eps*u on the manifold
    (simplex-tangent for categorical, sphere-tangent for the vMF mean)."""
    kind = eta.family.kind
    u = gen.standard_normal(eta.values.size)
    if kind == FamilyKind.CATEGORICAL:
        u -= u.mean()
    elif kind == FamilyKind.VON_MISES_FISHER_S2:
        mu = eta.values[:3]
        u[:3] -= (u[:3] @ mu) * mu
    return u / np.linalg.norm(u)


def perturb(eta: ParamPoint, u: np.ndarray, eps: float) -> ParamPoint:
    """eta + eps*u projected back onto the family's manifold."""
    vals = eta.values + eps * u
    if eta.family.kind == FamilyKind.VON_MISES_FISHER_S2:
        vals = vals.copy()
        vals[:3] /= np.linalg.norm(vals[:3])
    return ParamPoint(eta.family, vals)


@pytest.fixture
def gen():
    return np.random.default_rng(20240817)


@pytest.fixture
def rng():
    return RngStream(20240817)
