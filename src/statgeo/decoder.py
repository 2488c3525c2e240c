"""Deterministic decoder maps from latent space to likelihood parameters.

A decoder is a list of named heads, one per parameter kind (e.g. "mean" and
"var" for Normal), each a stack of affine layers with activations. Head
outputs are interleaved feature-major into the stacked parameter vector
[eta_1; ...; eta_D], the layout every metric computation uses.

Jacobians are exact chain-rule products; softmax and unit-normalize use
their full per-feature-block Jacobians. The optional uncertainty wrapper
blends decoded parameters toward maximum-entropy values via a translated
sigmoid of the squared distance to the nearest KMeans center, and its
gradient term is included in the Jacobian (nearest center held fixed at
the non-differentiable min).

Every decoder output comes from one walk over the layers, ``_decode``:
``forward_stacked``, ``jacobian_stacked``, ``forward_and_jacobian_stacked``
and ``raw_forward_stacked`` are views of it that differ only in whether the
Jacobian is carried and whether the blend applies. The walk does no work
that is fixed per layer or per decoder: a ``LayerSpec`` keeps its parsed
activation, and a ``DecoderMap`` its blend mask and extrapolation target.
What is fixed per walk is done once in it: Softplus(beta), which both the
blend weight and its gradient divide by, and one ``argmin`` that gives
both the nearest center and its distance. The Jacobian starts from m
copies of the first layer's weight, since d(W u)/du = W.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidK, NoRegularization, ShapeError
from .families import Family, ParamPoint
from .rng import RngStream
from .special import sigmoid, softplus

ACTIVATIONS = ("identity", "tanh", "sigmoid", "softplus", "softmax", "unit_normalize")


def _parse_activation(name: str):
    if name in ACTIVATIONS:
        return name, None
    if name.startswith("scale:"):
        return "scale", float(name.split(":", 1)[1])
    raise ShapeError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer followed by an activation.

    ``activation`` is one of identity, tanh, sigmoid, softplus, softmax,
    unit_normalize, or "scale:<c>". Softmax/unit-normalize act per
    consecutive feature block.
    """

    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"
    # the parsed activation (name, scale) that ``_decode`` applies
    _act: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ShapeError(
                f"layer weight {w.shape} and bias {b.shape} are inconsistent"
            )
        object.__setattr__(self, "_act", _parse_activation(self.activation))
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class Head:
    name: str
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ShapeError(
                    f"head {self.name!r}: layer out {prev.weight.shape[0]} "
                    f"feeds layer in {nxt.weight.shape[1]}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


@dataclass
class UncertaintyReg:
    """KMeans support proxy plus translated-sigmoid reweighting."""

    centers: np.ndarray  # (k, d)
    beta: float
    c: float = 7.0

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.centers.shape[0] < 1:
            raise InvalidK("uncertainty regularization needs k >= 1 centers")


@dataclass
class DecoderMap:
    """Map z -> stacked likelihood parameters for D i.i.d. features."""

    latent_dim: int
    feature_count: int
    family: Family
    heads: tuple[Head, ...]
    regularization: UncertaintyReg | None = None
    # optional affine change of latent coordinates applied before the heads:
    # forward(z) evaluates the heads at A z + b (see compose_linear)
    pre_transform: tuple[np.ndarray, np.ndarray] | None = None
    _extrap: np.ndarray = field(init=False, repr=False)
    _mask: np.ndarray = field(init=False, repr=False)  # float blend_mask_stacked

    def __post_init__(self):
        self.heads = tuple(self.heads)
        schema = self.family.head_schema()
        if len(self.heads) != len(schema):
            raise ShapeError(
                f"{self.family.kind.value} expects heads "
                f"{[s[0] for s in schema]}, got {[h.name for h in self.heads]}"
            )
        for head, (name, width, _) in zip(self.heads, schema):
            if head.in_dim != self.latent_dim:
                raise ShapeError(
                    f"head {head.name!r} consumes {head.in_dim} dims, "
                    f"latent space has {self.latent_dim}"
                )
            if head.out_dim != self.feature_count * width:
                raise ShapeError(
                    f"head {head.name!r} emits {head.out_dim} values, "
                    f"expected {self.feature_count}*{width} for {name!r}"
                )
        if self.pre_transform is not None:
            a, b = self.pre_transform
            self.pre_transform = (np.asarray(a, float), np.asarray(b, float))
        self._extrap = np.tile(self.family.max_uncertainty(), self.feature_count)
        self._mask = self.blend_mask_stacked().astype(float)

    @property
    def param_dim(self) -> int:
        """Total stacked parameter count D * p."""
        return self.feature_count * self.family.param_dim

    def blend_mask_stacked(self) -> np.ndarray:
        return np.tile(self.family.blend_mask(), self.feature_count)


def _apply_activation(name: str, scale, x: np.ndarray, block: int) -> np.ndarray:
    if name == "identity":
        return x
    if name == "scale":
        return scale * x
    if name == "tanh":
        return np.tanh(x)
    if name == "sigmoid":
        return sigmoid(x)
    if name == "softplus":
        return softplus(x)
    m = x.shape[0]
    blocks = x.reshape(m, -1, block)
    if name == "softmax":
        shifted = blocks - blocks.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return (e / e.sum(axis=-1, keepdims=True)).reshape(m, -1)
    if name == "unit_normalize":
        norms = np.linalg.norm(blocks, axis=-1, keepdims=True)
        return (blocks / norms).reshape(m, -1)
    raise ShapeError(f"unknown activation {name!r}")


def _activation_jacobian(
    name: str, scale, pre: np.ndarray, post: np.ndarray, jac: np.ndarray, block: int
) -> np.ndarray:
    """Push a running Jacobian (m, out, d) through the activation."""
    if name == "identity":
        return jac
    if name == "scale":
        return scale * jac
    if name == "tanh":
        return (1.0 - post**2)[..., None] * jac
    if name == "sigmoid":
        return (post * (1.0 - post))[..., None] * jac
    if name == "softplus":
        return sigmoid(pre)[..., None] * jac
    m, out, d = jac.shape
    jb = jac.reshape(m, -1, block, d)
    if name == "softmax":
        s = post.reshape(m, -1, block)
        sj = np.einsum("mfb,mfbd->mfd", s, jb)
        out_j = s[..., None] * (jb - sj[:, :, None, :])
        return out_j.reshape(m, out, d)
    if name == "unit_normalize":
        xb = pre.reshape(m, -1, block)
        norms = np.linalg.norm(xb, axis=-1, keepdims=True)
        y = post.reshape(m, -1, block)
        yj = np.einsum("mfb,mfbd->mfd", y, jb)
        out_j = (jb - y[..., None] * yj[:, :, None, :]) / norms[..., None]
        return out_j.reshape(m, out, d)
    raise ShapeError(f"unknown activation {name!r}")


def _as_batch(z, latent_dim):
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    zb = np.atleast_2d(z)
    if zb.shape[1] != latent_dim:
        raise ShapeError(f"latent point has dim {zb.shape[1]}, decoder expects {latent_dim}")
    return zb, single


def _decode(dec: DecoderMap, z, with_jac: bool):
    """(h, jac): the decoded stacked parameters, (m, D*p) or (D*p,), and with
    ``with_jac`` their exact Jacobian, (m, D*p, d) or (D*p, d), else None.

    One walk over the heads. The Jacobian is carried through the layers, the
    uncertainty blend and ``pre_transform`` only when asked for; the
    parameters do not depend on whether it is. Non-finite points raise
    ShapeError.
    """
    zb, single = _as_batch(z, dec.latent_dim)
    if not np.all(np.isfinite(zb)):
        raise ShapeError("latent point must be finite")
    u = zb if dec.pre_transform is None else zb @ dec.pre_transform[0].T + dec.pre_transform[1]
    m, d = u.shape
    outs, jacs = [], []
    for head, (_, width, _) in zip(dec.heads, dec.family.head_schema()):
        x, jac = u, None
        for layer in head.layers:
            name, scale = layer._act
            pre = x @ layer.weight.T + layer.bias
            x = _apply_activation(name, scale, pre, width)
            if with_jac:
                # d(W u)/du = W: the first layer seeds the running Jacobian
                jac = (np.repeat(layer.weight[None], m, axis=0)
                       if jac is None else np.matmul(layer.weight, jac))
                jac = _activation_jacobian(name, scale, pre, x, jac, width)
        # head-major (m, D*q_j) -> feature-major blocks (m, D, q_j)
        outs.append(x.reshape(m, dec.feature_count, -1))
        if with_jac:
            jacs.append(jac.reshape(m, dec.feature_count, -1, d))
    h = np.concatenate(outs, axis=2).reshape(m, dec.param_dim)
    if with_jac:
        jac = np.concatenate(jacs, axis=2).reshape(m, dec.param_dim, d)
    reg = dec.regularization
    if reg is not None:
        dist, nearest = _support_distance_argmin(reg, u)
        beta_sp = softplus(reg.beta)
        s = _translated_sigmoid(reg, dist, beta_sp)
        mask = dec._mask
        gap = dec._extrap - h
        if with_jac:
            sp = s * (1.0 - s) / beta_sp
            grad_s = sp[:, None] * (2.0 * (u - reg.centers[nearest]))  # (m, d) wrt u
            jac = (1.0 - s[:, None] * mask)[..., None] * jac + (
                mask * gap
            )[..., None] * grad_s[:, None, :]
        h = h + s[:, None] * mask * gap
    if with_jac and dec.pre_transform is not None:
        jac = jac @ dec.pre_transform[0]
    if single:
        return h[0], None if jac is None else jac[0]
    return h, jac


def raw_forward_stacked(dec: DecoderMap, z) -> np.ndarray:
    """Head outputs without uncertainty reweighting, feature-major."""
    return _decode(replace(dec, regularization=None), z, with_jac=False)[0]


def forward_stacked(dec: DecoderMap, z) -> np.ndarray:
    """Decoded stacked parameters, reweighted when regularization is present."""
    return _decode(dec, z, with_jac=False)[0]


def forward(dec: DecoderMap, z) -> list[ParamPoint]:
    """Decode one latent point into D per-feature parameter points."""
    stacked = forward_stacked(dec, np.asarray(z, dtype=float))
    per_feature = stacked.reshape(dec.feature_count, dec.family.param_dim)
    return [ParamPoint(dec.family, row) for row in per_feature]


def forward_and_jacobian_stacked(dec: DecoderMap, z):
    """(forward_stacked, jacobian_stacked) from one walk over the heads.

    The parameters are bit-identical to ``forward_stacked``'s, shape
    (m, D*p) or (D*p,); the Jacobian has shape (m, D*p, d) or (D*p, d).
    """
    return _decode(dec, z, with_jac=True)


def jacobian_stacked(dec: DecoderMap, z) -> np.ndarray:
    """Exact Jacobian of forward_stacked, shape (m, D*p, d) or (D*p, d)."""
    return _decode(dec, z, with_jac=True)[1]


def jacobian(dec: DecoderMap, z) -> np.ndarray:
    """Jacobian at a single latent point, shape (D*p, d)."""
    return jacobian_stacked(dec, np.asarray(z, dtype=float))


def product_fisher(points: list[ParamPoint]) -> np.ndarray:
    """Block-diagonal information tensor of a product likelihood."""
    from .families import _same_family, fisher_rao

    fam = points[0].family
    for p in points[1:]:
        _same_family(points[0], p)
    p = fam.param_dim
    total = p * len(points)
    out = np.zeros((total, total))
    for i, pt in enumerate(points):
        out[i * p : (i + 1) * p, i * p : (i + 1) * p] = fisher_rao(pt)
    return out


def product_fisher_stacked(family: Family, stacked: np.ndarray) -> np.ndarray:
    """Per-feature tensors from a stacked vector, shape (..., D, p, p)."""
    per_feature = stacked.reshape(stacked.shape[:-1] + (-1, family.param_dim))
    return family.fisher(per_feature)


# ---------------------------------------------------------------------------
# uncertainty regularization


def _support_distance_argmin(reg: UncertaintyReg, zb: np.ndarray):
    # one (m, k) term per axis, added in axis order: the sum over the last
    # axis of the (m, k, d) differences, without building them
    c = reg.centers
    d2 = (zb[:, 0, None] - c[:, 0]) ** 2
    for j in range(1, c.shape[1]):
        d2 += (zb[:, j, None] - c[:, j]) ** 2
    nearest = np.argmin(d2, axis=1)
    return d2[np.arange(d2.shape[0]), nearest], nearest


def support_distance(reg: UncertaintyReg, z):
    """Squared Euclidean distance to the nearest center."""
    zb, single = _as_batch(z, reg.centers.shape[1])
    dist, _ = _support_distance_argmin(reg, zb)
    return float(dist[0]) if single else dist


def translated_sigmoid(reg: UncertaintyReg, d):
    """sigma_tilde(d) = Sigmoid((d - c * Softplus(beta)) / Softplus(beta))."""
    return _translated_sigmoid(reg, np.asarray(d, dtype=float), softplus(reg.beta))


def _translated_sigmoid(reg: UncertaintyReg, d: np.ndarray, sp) -> np.ndarray:
    """``translated_sigmoid`` given sp = Softplus(beta)."""
    return sigmoid((d - reg.c * sp) / sp)


def reweight(dec: DecoderMap, z) -> list[ParamPoint]:
    """Convex combination of decoded and maximum-uncertainty parameters."""
    if dec.regularization is None:
        raise NoRegularization("decoder has no uncertainty regularization")
    return forward(dec, z)


# ---------------------------------------------------------------------------
# KMeans (Lloyd with k-means++ seeding)


def kmeans_fit(points, k: int, rng: RngStream, iters: int = 100) -> np.ndarray:
    """Cluster centers for the uncertainty support proxy.

    Deterministic given the stream; empty clusters are re-seeded to the
    point farthest from its assigned center.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if k < 1 or k > np.unique(pts, axis=0).shape[0]:
        raise InvalidK(f"k={k} exceeds the number of distinct points")
    gen = rng.generator

    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[gen.integers(n)]
    closest = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = pts[gen.integers(n)]
        else:
            centers[j] = pts[gen.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((pts - centers[j]) ** 2, axis=1))

    for _ in range(iters):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        assigned = d2[np.arange(n), labels]
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                new_centers[j] = pts[mask].mean(axis=0)
            else:
                new_centers[j] = pts[np.argmax(assigned)]
                assigned[np.argmax(assigned)] = 0.0
        if np.allclose(new_centers, centers, atol=1e-12):
            centers = new_centers
            break
        centers = new_centers
    return centers


def kmeans_inertia(points, centers) -> float:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
    return float(d2.min(axis=1).sum())


def compose_linear(dec: DecoderMap, a: np.ndarray, b=None) -> DecoderMap:
    """Decoder evaluating the original map at A z + b (latent relabeling)."""
    a = np.asarray(a, dtype=float)
    b = np.zeros(a.shape[0]) if b is None else np.asarray(b, dtype=float)
    if dec.pre_transform is not None:
        a0, b0 = dec.pre_transform
        a, b = a0 @ a, a0 @ b + b0
    return DecoderMap(
        latent_dim=dec.latent_dim,
        feature_count=dec.feature_count,
        family=dec.family,
        heads=dec.heads,
        regularization=dec.regularization,
        pre_transform=(a, b),
    )
