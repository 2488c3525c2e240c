"""Metric fields on the latent space.

Three sources for the d x d tensor at a latent point:

* exact pullback  M(z) = J(z)^T I_H(h(z)) J(z),
* the KL-probe estimator built purely from divergences along coordinate
  perturbations (no Jacobian access): per point, one decoder call over the
  point and its d + d(d-1)/2 probes and one ``kl`` call over the pairs,
* a lattice of precomputed tensors blended with a normalized Gaussian
  kernel. ``MetricGrid`` stores only the tensors, the bandwidth and the
  bounds x resolution that define the lattice; its points are derived.
  ``GridMetric`` uses that the kernel factors across axes: one numpy pass
  over its node table, one row per axis padded with +inf, gives every
  axis's 1-D weights, and the lattice is contracted one axis at a time.
  Far-field queries get the nearest node's tensor; NaN or infinite
  queries get NaN.

A metric implements ``eval_batch``, the tensors at a batch of latent
points; ``eval`` is its one-row view. ``eval_batch_and_grad`` adds dM/dz:
analytic for the constant and grid metrics, otherwise central differences
of step ``FD_STEP`` over the (2d+1)*m stacked points. Those tensors come
from one ``eval_batch`` call, except on the pullback, where they come from
one decoder walk that yields parameters and Jacobian together; the
geodesic ODE's right-hand side then costs one walk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import decoder as dec_mod
from .decoder import DecoderMap
from .errors import InvalidEpsilon, OffSimplex, ShapeError
from .families import FamilyKind, McKl, ParamPoint, get_family, sampled_kls

FD_STEP = 1e-4  # central-difference step of LatentMetric.eval_batch_and_grad


class LatentMetric:
    """Anything that yields a symmetric d x d tensor at each row of a batch
    of latent points. Subclasses implement ``eval_batch``."""

    latent_dim: int

    def eval_batch(self, zs) -> np.ndarray:
        raise NotImplementedError

    def eval(self, z) -> np.ndarray:
        """The tensor at one latent point: the one-row ``eval_batch``."""
        return self.eval_batch(np.asarray(z, dtype=float)[None])[0]

    def eval_batch_and_grad(self, zs):
        """(M, dM) at the rows of zs: M is (m, d, d) and dM[k] = dM/dz_k is
        (d, m, d, d). This default takes central differences of step
        ``FD_STEP`` from one ``eval_batch`` over the (2d+1)*m stacked points."""
        return _central_differences(self.eval_batch, zs)


@functools.cache
def _stencil_shifts(d: int) -> np.ndarray:
    """The (2d, 1, d) shifts +FD_STEP e_k, k = 0..d-1, then -FD_STEP e_k:
    z + (-h) is z - h bit for bit."""
    shifts = FD_STEP * np.eye(d)[:, None, :]
    out = np.concatenate([shifts, -shifts])
    out.flags.writeable = False  # shared by every call
    return out


def _central_differences(tensors, zs):
    """``LatentMetric.eval_batch_and_grad`` with the tensors from one call
    of ``tensors``, which maps (n, d) points to (n, d, d), on the (2d+1)*m
    stacked points: the rows of zs, then zs + FD_STEP e_k for k = 0..d-1,
    then zs - FD_STEP e_k."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    m, d = zs.shape
    stacked = np.concatenate([zs[None], zs[None] + _stencil_shifts(d)])
    mm = tensors(stacked.reshape(-1, d)).reshape(2 * d + 1, m, d, d)
    return mm[0], (mm[1 : d + 1] - mm[d + 1 :]) / (2.0 * FD_STEP)


class ConstantMetric(LatentMetric):
    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ShapeError("constant metric needs a square matrix")
        self.latent_dim = self.matrix.shape[0]

    def eval_batch(self, zs):
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        return np.broadcast_to(self.matrix, (zs.shape[0],) + self.matrix.shape).copy()

    def eval_batch_and_grad(self, zs):
        mm = self.eval_batch(zs)
        return mm, np.zeros((self.latent_dim,) + mm.shape)


class CallableMetric(LatentMetric):
    """Wrap an arbitrary z -> (d, d) callable (test metrics, closed forms)."""

    def __init__(self, fn, latent_dim: int):
        self.fn = fn
        self.latent_dim = latent_dim

    def eval_batch(self, zs):
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        return np.stack([np.asarray(self.fn(z), dtype=float) for z in zs])


class PullbackMetric(LatentMetric):
    """Exact Fisher-Rao pullback through a decoder.

    ``eval_batch_and_grad`` is the base class's central differences, bit for
    bit, with the stencil's parameters and Jacobians from one
    ``forward_and_jacobian_stacked`` walk.
    """

    def __init__(self, decoder: DecoderMap):
        self.decoder = decoder
        self.latent_dim = decoder.latent_dim

    # defined on this class, not inherited, so that a wrapper installed on
    # PullbackMetric.eval (the benchmark's tracer) sees every single-point call
    eval = LatentMetric.eval

    def eval_batch(self, zs):
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        # two walks where forward_and_jacobian_stacked would take one:
        # bench/selftest.py requires decoder.jacobian_stacked spans on
        # geodesic-pullback and cli-toy, and this is their source there
        jac = dec_mod.jacobian_stacked(self.decoder, zs)
        return self._tensors(dec_mod.forward_stacked(self.decoder, zs), jac)

    def eval_batch_and_grad(self, zs):
        def tensors(points):
            return self._tensors(*dec_mod.forward_and_jacobian_stacked(self.decoder, points))

        return _central_differences(tensors, zs)

    def _tensors(self, stacked, jac):
        """J^T G J, symmetrized, from decoded parameters (m, D*p) and their
        Jacobian (m, D*p, d)."""
        fam = self.decoder.family
        blocks = dec_mod.product_fisher_stacked(fam, stacked)  # (m, D, p, p)
        jb = jac.reshape(stacked.shape[0], self.decoder.feature_count, fam.param_dim,
                         self.latent_dim)
        m = np.einsum("mfpi,mfpq,mfqj->mij", jb, blocks, jb)
        return 0.5 * (m + np.swapaxes(m, 1, 2))


class KlProbeMetric(LatentMetric):
    """Numerical metric from KL divergences along coordinate probes.

    ``eval`` decodes z, z + eps e_i and z + eps (e_i + e_j), i < j, in one
    ``forward_stacked`` call and takes their exact KLs from one ``kl`` call.
    ``eval_batch`` calls ``eval`` once per row, so that clamping stays one
    ``eigh`` per point.
    Negative eigenvalues from noisy probes are clamped to 1e-8 * trace / d;
    ``clamp_count`` tallies how often that fired.
    """

    def __init__(self, decoder: DecoderMap, eps: float = 1e-2):
        if not 0.0 < eps < math.inf:  # written so that a NaN step fails too
            raise InvalidEpsilon("probe step must be finite and > 0")
        self.decoder = decoder
        self.eps = float(eps)
        self.latent_dim = decoder.latent_dim
        self.clamp_count = 0

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        d, eps = self.latent_dim, self.eps
        eye = np.eye(d)
        iu, ju = np.triu_indices(d, 1)
        # the d axis probes, then one probe along e_i + e_j for each pair i < j
        probes = z + eps * np.concatenate([eye, eye[iu] + eye[ju]])
        kls = _decoded_kls(self.decoder, z[None], probes[None])[0]
        kl_single, pair = kls[:d], kls[d:]
        m = np.zeros((d, d))
        np.fill_diagonal(m, 2.0 * kl_single / eps**2)
        m[iu, ju] = m[ju, iu] = (pair - kl_single[iu] - kl_single[ju]) / eps**2
        m, clamped = clamp_spd(m)
        self.clamp_count += clamped
        return m

    def eval_batch(self, zs):
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        return np.stack([self.eval(z) for z in zs])


@dataclass
class MetricGrid:
    """Tensors on the bounds x resolution lattice, with a Gaussian bandwidth.

    ``tensors`` hold one d x d tensor per lattice point, in the order of
    ``lattice_points(bounds, resolution)`` (axis 0 outermost); anything
    else raises ``ShapeError``. The points are not stored: ``points`` is
    that lattice.
    """

    tensors: np.ndarray  # (S, d, d)
    bandwidth: float
    bounds: np.ndarray  # (d, 2)
    resolution: tuple[int, ...]

    def __post_init__(self):
        self.tensors = np.asarray(self.tensors, dtype=float)
        self.bounds = np.asarray(self.bounds, dtype=float).reshape(-1, 2)
        self.resolution = tuple(int(r) for r in np.atleast_1d(self.resolution))
        if not 0.0 < self.bandwidth < math.inf:  # written so that a NaN bandwidth fails too
            raise ShapeError("grid bandwidth must be finite and > 0")
        d = self.bounds.shape[0]
        if len(self.resolution) != d or min(self.resolution, default=0) < 1:
            raise ShapeError("resolution must give one count >= 1 per axis")
        if self.tensors.shape != (math.prod(self.resolution), d, d):
            raise ShapeError("grid needs one d x d tensor per lattice point")

    @property
    def points(self) -> np.ndarray:
        """The (S, d) lattice points, axis 0 outermost."""
        return lattice_points(self.bounds, self.resolution)


class GridMetric(LatentMetric):
    """Kernel-smoothed interpolation of a tensor lattice.

    The normalized Gaussian kernel factors across axes. The nodes are kept
    as one (d, r_max) table, row k holding axis k's r_k nodes padded with
    +inf, so that one pass over an (m, d, r_max) block gives the 1-D
    weights of every axis; ``eval_batch`` then contracts the tensor lattice
    one axis at a time. Per axis the weights are shifted so that the node
    nearest the query weighs exactly 1: far-field queries return the
    nearest node's tensor, and a NaN or infinite query returns NaN.
    """

    def __init__(self, grid: MetricGrid):
        self.grid = grid
        self.latent_dim = grid.bounds.shape[0]
        # always 0: no query needs a fallback; kept for callers that read it
        self.fallback_count = 0
        nodes = _axis_nodes(grid.bounds, grid.resolution)
        # row k holds axis k's nodes, padded with +inf to the longest axis
        self._table = np.full((self.latent_dim, max(grid.resolution)), np.inf)
        for k, axis in enumerate(nodes):
            self._table[k, : axis.size] = axis
        self._lo = np.array([axis.min() for axis in nodes])
        self._hi = np.array([axis.max() for axis in nodes])
        self._lattice = grid.tensors.reshape(grid.resolution[0], -1)

    def _contract(self, zs, grad: bool) -> np.ndarray:
        """M, and with ``grad`` also dM/dz_k for each k: (1 or 1 + d, m, d, d).

        One pass over the (m, d, r_max) node table gives every axis's
        unnormalized 1-D weights. A +inf pad is never the nearest node and
        weighs exp(-inf) = 0, and each axis is normalized over its own r_k
        real nodes. Each track then carries one product of 1-D weights
        through the lattice, one axis at a time; the track of dM/dz_k swaps
        axis k's weights w for their derivatives w * (nodes - w @ nodes) /
        sigma^2. One-hot (far-field) weights have a mean of exactly their
        node, so dw = 0.
        """
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        m, d = zs.shape
        table, sigma2 = self._table, self.grid.bandwidth**2
        # w is one (m, d, r_max) buffer, computed in place: first |x - node| for
        # x clipped into the box, so that the nearest node resolves for |x| >> |node|
        w = np.clip(zs, self._lo, self._hi)[:, :, None] - table
        np.abs(w, out=w)
        near = table[np.arange(d), w.argmin(axis=2)][:, :, None]
        # -[(x - n)^2 - (x - near)^2] / 2, factored so that no square of x can overflow
        np.subtract(table, near, out=w)
        mid = table + near
        mid *= 0.5
        np.subtract(zs[:, :, None], mid, out=mid)
        w *= mid
        w /= sigma2
        np.exp(w, out=w)
        ws, dws = [], []
        for k, r in enumerate(self.grid.resolution):
            wk, nodes = w[:, k, :r], table[k, :r]
            # a new, contiguous array: a strided view would miss BLAS's fast path below
            wk = wk / wk.sum(axis=1, keepdims=True)
            ws.append(wk)
            if grad:
                dws.append(wk * (nodes - (wk @ nodes)[:, None]) / sigma2)

        tracks = [v @ self._lattice for v in [ws[0], *dws[:1]]]
        for k in range(1, d):
            lats = [t.reshape(m, ws[k].shape[1], -1) for t in tracks]
            tracks = [(ws[k][:, None, :] @ lat)[:, 0] for lat in lats] + [
                (v[:, None, :] @ lats[0])[:, 0] for v in dws[k : k + 1]
            ]
        return np.stack(tracks).reshape(-1, m, d, d)

    def eval_batch(self, zs):
        return self._contract(zs, grad=False)[0]

    def eval_batch_and_grad(self, zs):
        """Exact M and dM/dz."""
        out = self._contract(zs, grad=True)
        return out[0], out[1:]


def pullback(dec: DecoderMap, z) -> np.ndarray:
    """J^T I_H(h(z)) J, symmetrized, at one latent point."""
    return PullbackMetric(dec).eval(z)


def _decoded_kl(dec: DecoderMap, z1, z2, mc: McKl | None) -> float:
    """Sum of per-feature divergences between two decoded points: exact from
    one decoder call, clamped at 0 (at nearly equal points the closed forms
    can cancel to just below it), or sampled with ``mc`` (each point decoded
    on its own)."""
    z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
    if mc is None:
        return max(0.0, float(_decoded_kls(dec, z1[None], z2[None, None])[0, 0]))
    params = np.stack([dec_mod.forward_stacked(dec, z) for z in (z1, z2)])
    return float(sampled_kls(dec.family, params.reshape(2, dec.feature_count, -1), mc)[0])


def _decoded_kls(dec: DecoderMap, zs, probes) -> np.ndarray:
    """sum_f KL(p(zs[n]) || p(probes[n, k])) for zs (n, d) and probes
    (n, k, d), shape (n, k): one ``forward_stacked`` call over the n(1 + k)
    points and one ``kl`` call over the n*k pairs."""
    n, k, d = probes.shape
    points = np.concatenate([zs[:, None, :], probes], axis=1).reshape(-1, d)
    params = dec_mod.forward_stacked(dec, points).reshape(
        n, 1 + k, dec.feature_count, dec.family.param_dim
    )
    return dec.family.kl(params[:, :1], params[:, 1:]).sum(axis=-1)


def kl_probe(dec: DecoderMap, z, eps: float = 1e-2) -> np.ndarray:
    """Metric estimate from forward KL probes; symmetric by construction."""
    return KlProbeMetric(dec, eps).eval(z)


def clamp_spd(m: np.ndarray):
    """Clamp eigenvalues below 1e-8 * trace / d up to that floor.

    Returns (matrix, n_clamped); a clamped matrix is exactly symmetric.
    No-op for already-PD tensors.
    """
    vals, vecs = np.linalg.eigh(m)
    floor = 1e-8 * max(np.trace(m), np.finfo(float).tiny) / m.shape[0]
    bad = vals < floor
    if not np.any(bad):
        return m, 0
    out = (vecs * np.maximum(vals, floor)) @ vecs.T
    return 0.5 * (out + out.T), int(bad.sum())


def simplex_chart(eta_free) -> tuple[ParamPoint, np.ndarray]:
    """Complete free simplex coordinates and return the chart Jacobian.

    eta_free has K-1 positive entries summing below 1; the returned point
    appends the complement and the (K, K-1) Jacobian is [I; -1^T].
    """
    eta_free = np.asarray(eta_free, dtype=float)
    if eta_free.ndim != 1:
        raise ShapeError("simplex chart expects a flat coordinate vector")
    if np.any(eta_free <= 0) or eta_free.sum() >= 1.0:
        raise OffSimplex("free coordinates must be positive with sum < 1")
    k = eta_free.size + 1
    values = np.concatenate([eta_free, [1.0 - eta_free.sum()]])
    jac = np.vstack([np.eye(k - 1), -np.ones((1, k - 1))])
    return ParamPoint(get_family(FamilyKind.CATEGORICAL, k), values), jac


def simplex_chart_decoder(k: int) -> DecoderMap:
    """The simplex parametrization as an affine categorical decoder."""
    weight = np.vstack([np.eye(k - 1), -np.ones((1, k - 1))])
    bias = np.zeros(k)
    bias[-1] = 1.0
    head = dec_mod.Head("probs", (dec_mod.LayerSpec(weight, bias),))
    return DecoderMap(
        latent_dim=k - 1,
        feature_count=1,
        family=get_family(FamilyKind.CATEGORICAL, k),
        heads=(head,),
    )


def _axis_nodes(bounds, resolution) -> list[np.ndarray]:
    """Each axis's lattice nodes: ``resolution[k]`` evenly spaced over ``bounds[k]``."""
    return [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)]


def lattice_points(bounds, resolution) -> np.ndarray:
    """The (prod(resolution), d) bounds x resolution lattice, axis 0 outermost."""
    mesh = np.meshgrid(*_axis_nodes(bounds, resolution), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_build(
    metric: LatentMetric,
    bounds,
    resolution,
    sigma: float,
) -> MetricGrid:
    """Evaluate a metric on a uniform lattice.

    ``bounds`` is (d, 2) min/max per axis, ``resolution`` the point count
    per axis (>= 2). Lattice points enumerate axis 0 outermost.
    """
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    resolution = tuple(int(r) for r in np.atleast_1d(resolution))
    if len(resolution) != bounds.shape[0]:
        raise ShapeError("resolution must give one count per axis")
    if any(r < 2 for r in resolution):
        raise ShapeError("grid resolution must be >= 2 per axis")
    if not 0.0 < sigma < math.inf:
        raise ShapeError("grid bandwidth must be finite and > 0")
    return MetricGrid(
        tensors=metric.eval_batch(lattice_points(bounds, resolution)),
        bandwidth=float(sigma),
        bounds=bounds,
        resolution=resolution,
    )


def grid_eval(grid: MetricGrid, z) -> np.ndarray:
    """Normalized Gaussian-kernel combination of the lattice tensors."""
    return GridMetric(grid).eval(z)
