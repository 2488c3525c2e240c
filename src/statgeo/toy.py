"""Seeded toy fixtures: noisy-circle latent codes and small random decoders.

The decoders mirror the toy experiment setup: a randomly initialized
Linear(2, 3) trunk per parameter head (15 outputs for Bernoulli), positive
heads through softplus with a x10 gain where the original setup scales by
ten, and uncertainty regularization driven by KMeans centers over the
latent codes.
"""

from __future__ import annotations

import numpy as np

from .decoder import DecoderMap, Head, LayerSpec, UncertaintyReg, kmeans_fit
from .errors import InvalidParam
from .families import FamilyKind, get_family
from .rng import RngStream

# translated-sigmoid sharpness per family, matching the reference setup
TOY_BETAS = {
    FamilyKind.NORMAL: -2.5,
    FamilyKind.BERNOULLI: -3.5,
    FamilyKind.BETA: -4.0,
    FamilyKind.DIRICHLET: -4.0,
    FamilyKind.EXPONENTIAL: -4.0,
}


def toy_circle_codes(n: int, noise: float, rng: RngStream) -> np.ndarray:
    """n latent codes on the unit circle with isotropic Gaussian noise of
    standard deviation ``noise`` (finite, >= 0)."""
    if not 0.0 <= noise < np.inf:  # written so that a NaN noise fails too
        raise InvalidParam("noise must be finite and >= 0")
    gen = rng.generator
    theta = gen.uniform(0.0, 2.0 * np.pi, size=n)
    codes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if noise > 0:
        codes = codes + noise * gen.standard_normal((n, 2))
    return codes


def _linear_layer(gen, out_dim, in_dim, activation="identity"):
    w = gen.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)
    b = 0.1 * gen.standard_normal(out_dim)
    return LayerSpec(w, b, activation)


def toy_decoder(
    kind: FamilyKind | str,
    seed: int,
    codes: np.ndarray | None = None,
    k_centers: int = 15,
    regularized: bool = True,
) -> DecoderMap:
    """Random 2-latent decoder for one family, optionally regularized.

    ``codes`` (the training latent codes) drive the KMeans support proxy;
    they default to a 200-point noisy circle under the same seed.
    """
    kind = FamilyKind(kind)
    rng = RngStream(seed)
    gen = rng.child(0).generator
    if kind == FamilyKind.NORMAL:
        fam = get_family(kind)
        heads = (
            Head("mean", (_linear_layer(gen, 3, 2), LayerSpec(np.eye(3), np.zeros(3), "scale:10"))),
            Head("var", (_linear_layer(gen, 3, 2, "softplus"), LayerSpec(np.eye(3), np.zeros(3), "scale:10"))),
        )
        d_features = 3
    elif kind == FamilyKind.BERNOULLI:
        fam = get_family(kind)
        heads = (Head("prob", (_linear_layer(gen, 15, 2, "sigmoid"),)),)
        d_features = 15
    elif kind == FamilyKind.BETA:
        fam = get_family(kind)
        heads = (
            Head("alpha", (_linear_layer(gen, 3, 2, "softplus"), LayerSpec(np.eye(3), np.zeros(3), "scale:10"))),
            Head("beta", (_linear_layer(gen, 3, 2, "softplus"), LayerSpec(np.eye(3), np.zeros(3), "scale:10"))),
        )
        d_features = 3
    elif kind == FamilyKind.DIRICHLET:
        fam = get_family(kind, 3)
        heads = (Head("conc", (_linear_layer(gen, 3, 2, "softplus"),)),)
        d_features = 1
    elif kind == FamilyKind.EXPONENTIAL:
        fam = get_family(kind)
        heads = (Head("rate", (_linear_layer(gen, 3, 2, "softplus"),)),)
        d_features = 3
    elif kind == FamilyKind.GAMMA:
        fam = get_family(kind)
        heads = (
            Head("shape", (_linear_layer(gen, 3, 2, "softplus"),)),
            Head("rate", (_linear_layer(gen, 3, 2, "softplus"),)),
        )
        d_features = 3
    elif kind == FamilyKind.CATEGORICAL:
        fam = get_family(kind, 3)
        heads = (Head("probs", (_linear_layer(gen, 3, 2, "softmax"),)),)
        d_features = 1
    elif kind == FamilyKind.VON_MISES_FISHER_S2:
        fam = get_family(kind)
        heads = (
            Head("mean_dir", (_linear_layer(gen, 3, 2, "unit_normalize"),)),
            Head("conc", (_linear_layer(gen, 1, 2, "softplus"),)),
        )
        d_features = 1
    else:
        raise ValueError(f"no toy decoder for {kind}")

    reg = None
    if regularized:
        if codes is None:
            codes = toy_circle_codes(200, 0.1, rng.child(1))
        centers = kmeans_fit(codes, k_centers, rng.child(2))
        beta = TOY_BETAS.get(kind, -4.0)
        reg = UncertaintyReg(centers=centers, beta=beta)
    return DecoderMap(
        latent_dim=2,
        feature_count=d_features,
        family=fam,
        heads=heads,
        regularization=reg,
    )


def identity_parameter_decoder(kind: FamilyKind | str) -> DecoderMap:
    """The identity chart of a 2-parameter family (z = the parameters)."""
    kind = FamilyKind(kind)
    fam = get_family(kind)
    if fam.param_dim != 2:
        raise ValueError("identity chart needs a 2-parameter family")
    names = [s[0] for s in fam.head_schema()]
    heads = (
        Head(names[0], (LayerSpec(np.array([[1.0, 0.0]]), np.zeros(1)),)),
        Head(names[1], (LayerSpec(np.array([[0.0, 1.0]]), np.zeros(1)),)),
    )
    return DecoderMap(latent_dim=2, feature_count=1, family=fam, heads=heads)
