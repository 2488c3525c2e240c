"""Curves, discretized energies, shortest-path optimization and the
geodesic ODE system with exponential/logarithmic maps.

Curves are cubic Hermite perturbations of the straight chord: per latent
dimension and per segment there are two free coefficients (interior knot
values and knot derivatives), so endpoint constraints and C^1 continuity
hold by construction rather than by penalty. ``hermite_basis`` gives the
perturbation and its slope as linear maps of the coefficients, for single
curves and batches alike.

Both discrete energies share the nodes t = n/N, n = 0..N: an energy is
N sum_n term_n over the N segments between them, and the matching length
sum_n sqrt(term_n). On a decoder the term is 2 KL(p(c(t_n)) || p(c(t_n+1))),
which converges to the Riemannian energy integral (the categorical
objective's term is its great-circle form; see ``_decoder_energy``); on a
plain metric field it is the graph term Delta_n^T M(mid_n) Delta_n.

Every solver works on a batch of m rows; a single curve or shot is m = 1.
One fitter serves ``minimize_energy_detailed`` and both log maps, on
decoders and metric fields alike: one BFGS descent with Armijo
backtracking over coefficient arrays of shape (m, d, 2S), with an
inverse-Hessian estimate, a step and a stopping rule per curve: max|g| below
``grad_tol`` times (1 + energy), and a stop reason for each curve. Each
estimate starts at the inverse of the energy's Gauss-Newton matrix, which
the Hermite coefficients make badly conditioned (condition number ~2e4 at
S=4), so a scaled identity would need many more iterations: on a metric
field the graph energy's with M held fixed, and on a decoder the KL
energy's with the decoder held linear (the KL divergence's second-order
term is the Fisher information). Each energy is exact (closed-form KLs,
no sampling) and comes with one evaluation that serves both the energy
and its analytic gradient: on a decoder one pass over the nodes that
returns both the parameters and their Jacobians, then a per-pair
derivative (``kl_grad``, or the great-circle form's for the categorical
objective); on a metric field one ``eval_batch_and_grad`` call over the
midpoints. The descent spends that
evaluation on its start and on each iteration's unit-step trial, which
most iterations accept, so an accepted unit step costs one metric or
decoder evaluation for both its energy and the next gradient. One routine,
``_shoot``, serves both exponential maps: one rescale to metric norm |v|,
one SingularMetric rule and one Runge-Kutta-Nystrom loop for the
second-order geodesic equation. Its four stages sit at three positions,
and M and dM/dz come from one ``eval_batch_and_grad`` call per position,
so a step costs 3 metric evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import decoder as dec_mod
from .decoder import DecoderMap
from .errors import (
    FamilyMismatch,
    NonFiniteEnergy,
    OutOfRange,
    ShapeError,
    SingularMetric,
)
from .families import FamilyKind
from .metric import LatentMetric
from .rng import RngStream


def hermite_basis(ts, segments: int):
    """Hermite basis B of the perturbation and its t-derivative dB at ts.

    Both have shape (nt, 2S): a curve with coefficients (d, 2S) has
    perturbation B @ coeffs.T and perturbation velocity dB @ coeffs.T.
    """
    t = np.atleast_1d(np.asarray(ts, dtype=float))
    s = segments
    seg = np.minimum((np.clip(t, 0, 1) * s).astype(int), s - 1)
    u = t * s - seg
    h = 1.0 / s
    u2, u3 = u * u, u * u * u
    rows = np.arange(t.size)
    left_interior = seg >= 1
    right_interior = seg + 1 <= s - 1

    def scatter(w00, w10, w01, w11):
        # knot values of the segment's ends, then its end derivatives
        out = np.zeros((t.size, 2 * s))
        out[rows[left_interior], seg[left_interior] - 1] += w00[left_interior]
        out[rows[right_interior], seg[right_interior]] += w01[right_interior]
        out[rows, s - 1 + seg] += w10
        out[rows, s + seg] += w11
        return out

    basis = scatter(
        2 * u3 - 3 * u2 + 1, h * (u3 - 2 * u2 + u), -2 * u3 + 3 * u2, h * (u3 - u2)
    )
    deriv = scatter(
        s * (6 * u2 - 6 * u), 3 * u2 - 4 * u + 1, s * (-6 * u2 + 6 * u), 3 * u2 - 2 * u
    )
    return basis, deriv


@dataclass
class SplineCurve:
    """Endpoint-pinned piecewise cubic with C^1 knots.

    ``coeffs`` has shape (d, 2S): the first S-1 columns are interior knot
    values of the perturbation, the remaining S+1 its knot derivatives.
    All-zero coefficients give the straight chord.
    """

    z0: np.ndarray
    z1: np.ndarray
    segments: int = 4
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        self.z0 = np.asarray(self.z0, dtype=float)
        self.z1 = np.asarray(self.z1, dtype=float)
        if self.z0.shape != self.z1.shape or self.z0.ndim != 1:
            raise ShapeError("curve endpoints must be equal-length vectors")
        if self.segments < 1:
            raise ShapeError("curve needs at least one segment")
        if self.coeffs is None:
            self.coeffs = np.zeros((self.dim, 2 * self.segments))
        else:
            self.coeffs = np.asarray(self.coeffs, dtype=float)
            if self.coeffs.shape != (self.dim, 2 * self.segments):
                raise ShapeError(
                    f"coefficients must have shape ({self.dim}, {2 * self.segments})"
                )

    @property
    def dim(self) -> int:
        return self.z0.size

    def eval(self, ts):
        """Positions and velocities at parameter values in [0, 1]."""
        ts = np.asarray(ts, dtype=float)
        single = ts.ndim == 0
        t = np.atleast_1d(ts)
        if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
            raise OutOfRange("curve parameter must lie in [0, 1]")
        t = np.clip(t, 0.0, 1.0)
        basis, deriv = hermite_basis(t, self.segments)
        chord = self.z1 - self.z0
        z = self.z0[None, :] + np.outer(t, chord) + basis @ self.coeffs.T
        zdot = chord[None, :] + deriv @ self.coeffs.T
        if single:
            return z[0], zdot[0]
        return z, zdot

    def basis(self, ts) -> np.ndarray:
        """d(perturbation)/d(coefficients) at ts, shape (nt, 2S)."""
        return hermite_basis(ts, self.segments)[0]


def straight_line(z0, z1, segments: int = 4) -> SplineCurve:
    return SplineCurve(np.asarray(z0, float), np.asarray(z1, float), segments)


def curve_eval(c: SplineCurve, t: float):
    """Position and velocity of the curve at t."""
    return c.eval(float(t))


@dataclass
class EnergyConfig:
    """Discretization and optimizer settings for energy minimization. The
    descent's first step is the Gauss-Newton step, or -0.1 g where the
    Gauss-Newton matrix is singular or not finite (see ``_descend``); its
    step wherever the BFGS direction does not descend is -0.1 g. A curve has
    converged when max|g| < grad_tol (1 + E) at its energy E: relative for
    E >> 1, absolute for E << 1. An objective
    other than "kl" or "categorical", fewer than one segment, or a jitter
    that is negative or not finite raises ShapeError."""

    n_disc: int = 128
    segments: int = 4
    max_iters: int = 200
    grad_tol: float = 1e-6
    # every gradient is analytic; the field remains because the benchmark's
    # bench/workloads.py passes gradient_mode="analytic", the one accepted value
    gradient_mode: str = "analytic"
    jitter: float = 1e-4
    objective: str = "kl"  # "kl" or "categorical"; metric targets use quadrature

    def __post_init__(self):
        if self.n_disc < 2:
            raise ShapeError("energy discretization needs N >= 2")
        if self.segments < 1:
            raise ShapeError(f"curves need at least one segment, got {self.segments}")
        if not (np.isfinite(self.jitter) and self.jitter >= 0):
            raise ShapeError(f"start jitter must be finite and >= 0, got {self.jitter}")
        if not (np.isfinite(self.grad_tol) and self.grad_tol >= 0):
            raise ShapeError(f"gradient tolerance must be finite and >= 0, got {self.grad_tol}")
        if self.objective not in ("kl", "categorical"):
            raise ShapeError(f"objective must be 'kl' or 'categorical', got {self.objective!r}")
        if self.gradient_mode != "analytic":
            raise ShapeError(f"gradient_mode must be 'analytic', got {self.gradient_mode!r}")


def _check_finite(ts, values, what: str):
    """Raise NonFiniteEnergy at the t of the first non-finite value of the
    first row (of values (rows, nt) or (nt,)) that has one."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        t_bad = float(ts[np.nonzero(bad)[-1][0]])
        raise NonFiniteEnergy(f"{what} became non-finite near t={t_bad:.4f}", t=t_bad)


def _spline_points(z0, chords, coeffs, ts, basis) -> np.ndarray:
    """Points z0 + t chord + B coeffs at ts of the curves with these chords
    and coefficients (m, d, 2S), shape (m, nt, d)."""
    line = z0[None, None, :] + ts[None, :, None] * chords[:, None, :]
    return line + np.einsum("mdc,tc->mtd", coeffs, basis)


def _decoder_energy(dec: DecoderMap, z0, targets, cfg: EnergyConfig, strict: bool):
    """Energy of the decoded curves z0 -> targets[rows], its terms and its
    evaluation with gradient and Gauss-Newton matrix, in ``_graph_energy``'s
    form.

    The terms (rows, N) are the squared Fisher-Rao lengths of the segments
    between the nodes t = n/N, n = 0..N: 2 sum_f KL(p_n || p_{n+1}) for the
    KL objective, and 4 sum_f (2 - 2 sqrt(h_n)^T sqrt(h_{n+1})) for the
    categorical one, whose term is +inf where either node decodes to a
    negative probability (an affine chart off the simplex). Both energies
    are N sum_n terms, so one relative stop test serves both. ``energy`` and
    ``terms`` decode the nodes with ``forward_stacked``. ``evaluate`` decodes
    them with one ``forward_and_jacobian_stacked`` pass, whose parameters are
    bit-identical, so its energies equal ``energy``'s; its ``gradient_of``
    pulls the per-pair derivative (2N ``kl_grad``, or 4N times -sqrt(h')/sqrt(h)
    and -sqrt(h)/sqrt(h'), taken as 0 where h <= 0) back through the kept
    Jacobians and the Hermite basis, with no second decoder pass. Its
    ``gauss_newton_of`` gives 2N sum_n A_n^T G(eta_n) A_n from the same
    Jacobians and one ``fisher`` call over the nodes, with
    A_n = J_{n+1} (I_d (x) B_{n+1}) - J_n (I_d (x) B_n): the second-order term
    of 2 KL (Fisher-Rao), and of the categorical term, whose Fisher
    information diag(1/h) is the great-circle form's second order. It is the
    energy's Hessian with the decoder held linear. With ``strict`` a
    non-finite term raises NonFiniteEnergy at its t.
    """
    fam, n = dec.family, cfg.n_disc
    categorical = cfg.objective == "categorical"
    if categorical and fam.kind != FamilyKind.CATEGORICAL:
        raise FamilyMismatch("categorical energy needs a categorical decoder")
    ts = np.arange(n + 1) / n
    basis = hermite_basis(ts, cfg.segments)[0]
    size = z0.size * basis.shape[1]
    chords = targets - z0[None, :]

    def nodes(coeffs, rows):
        zs = _spline_points(z0, chords[rows], coeffs, ts, basis)
        return zs, zs.reshape(-1, zs.shape[2])

    def shaped(stacked, zs):
        return stacked.reshape(*zs.shape[:2], dec.feature_count, fam.param_dim)

    def terms_of(params):
        if categorical:
            roots = np.sqrt(np.maximum(params, 0.0))
            per_feature = 2.0 - 2.0 * np.sum(roots[:, :-1] * roots[:, 1:], axis=-1)
            off = np.any(params < 0.0, axis=-1)
            per_feature[off[:, :-1] | off[:, 1:]] = np.inf
            vals = 4.0 * per_feature.sum(axis=-1)
        else:
            vals = 2.0 * fam.kl(params[:, :-1], params[:, 1:]).sum(axis=-1)
        if strict:
            _check_finite(ts, vals, "categorical energy term" if categorical else "segment KL")
        return vals

    def terms(coeffs, rows):
        zs, flat = nodes(coeffs, rows)
        return terms_of(shaped(dec_mod.forward_stacked(dec, flat), zs))

    def energy(coeffs, rows):
        return n * terms(coeffs, rows).sum(axis=1)

    def evaluate(coeffs, rows):
        zs, flat = nodes(coeffs, rows)
        stacked, jac = dec_mod.forward_and_jacobian_stacked(dec, flat)
        params = shaped(stacked, zs)
        jac = jac.reshape(*zs.shape[:2], *jac.shape[1:])

        def gradient_of(sel):
            p = params[sel]
            if categorical:  # d/dh of 2 - 2 sqrt(h)^T sqrt(h'), 0 where h <= 0
                roots = np.sqrt(np.maximum(p, 0.0))
                inv = np.divide(1.0, roots, out=np.zeros_like(roots), where=roots > 0.0)
                g1, g2, factor = -roots[:, 1:] * inv[:, :-1], -roots[:, :-1] * inv[:, 1:], 4.0 * n
            else:
                (g1, g2), factor = fam.kl_grad(p[:, :-1], p[:, 1:]), 2.0 * n
            adj = np.zeros_like(p)
            adj[:, :-1] += g1
            adj[:, 1:] += g2
            j = jac[sel].reshape(-1, *jac.shape[2:])
            pulled = np.einsum("npd,np->nd", j, adj.reshape(j.shape[:2]))
            pulled = pulled.reshape(p.shape[0], zs.shape[1], zs.shape[2])
            return factor * np.einsum("mtd,tc->mdc", pulled, basis)

        def gauss_newton_of(sel):
            # A_n = J_{n+1} (I_d (x) B_{n+1}) - J_n (I_d (x) B_n), per feature
            jb = np.einsum("mtpd,tc->mtpdc", jac[sel], basis)
            jb = jb.reshape(*jb.shape[:2], dec.feature_count, fam.param_dim, size)
            a = jb[:, 1:] - jb[:, :-1]
            ga = np.matmul(fam.fisher(params[sel][:, :-1]), a)
            k = a.shape[0]
            return 2.0 * n * np.matmul(
                np.swapaxes(a.reshape(k, -1, size), 1, 2), ga.reshape(k, -1, size)
            )

        return n * terms_of(params).sum(axis=1), gradient_of, gauss_newton_of

    return energy, terms, evaluate


def _one_curve(c: SplineCurve, dec: DecoderMap, n: int, objective: str):
    """The (energy, terms) of the single curve c under ``_decoder_energy``,
    strict, each a function of no argument."""
    cfg = EnergyConfig(n_disc=n, segments=c.segments, objective=objective)
    energy, terms, _ = _decoder_energy(dec, c.z0, c.z1[None], cfg, True)
    args = (c.coeffs[None], np.arange(1))
    return (lambda: energy(*args)[0]), (lambda: terms(*args)[0])


def kl_energy(c: SplineCurve, dec: DecoderMap, n: int) -> float:
    """(2/dt) sum_n KL(p(c(t_n)) || p(c(t_n+1))), t_n = n dt, dt = 1/N."""
    energy, _ = _one_curve(c, dec, n, "kl")
    return float(energy())


def curve_length(c: SplineCurve, dec: DecoderMap, n: int) -> float:
    """sum_n sqrt(2 KL_n): the discrete Fisher-Rao length."""
    _, terms = _one_curve(c, dec, n, "kl")
    return float(np.sqrt(np.maximum(terms(), 0.0)).sum())


def categorical_energy(c: SplineCurve, dec: DecoderMap, n: int) -> float:
    """Great-circle small-angle energy 4N sum(2 - 2 sqrt(h_n)^T sqrt(h_{n+1})),
    t_n = n/N: N times the summed squared Fisher-Rao segment lengths, on
    ``kl_energy``'s scale."""
    energy, _ = _one_curve(c, dec, n, "categorical")
    return float(energy())


def _graph_energy(metric: LatentMetric, z0, targets, segments: int, n: int, strict: bool):
    """Graph energy of the curves z0 -> targets[rows], its terms and its
    evaluation with gradient and Gauss-Newton matrix.

    For coefficients (rows, d, 2S), energy(coeffs, rows) gives (rows,),
    terms(coeffs, rows) the (rows, n) per-segment Delta^T M(mid) Delta, from
    one ``eval_batch`` call over the midpoints. evaluate(coeffs, rows) gives
    (energies, gradient_of, gauss_newton_of) from one ``eval_batch_and_grad``
    call: the energies equal ``energy``'s bit for bit, gradient_of(sel) gives
    the (len(rows[sel]), d, 2S) gradients of rows[sel] from the same M and
    dM/dz, and gauss_newton_of(sel) their (len(rows[sel]), d 2S, d 2S)
    Gauss-Newton matrices from the same M, with no further metric call. The
    energy N sum_n Delta_n^T M Delta_n is exact for straight chords on
    constant metrics, which keeps the discrete minimizer straight. Its
    gradient is N sum_n [2 M Delta_n (x) D_n + (Delta_n^T dM/dz_k Delta_n) (x)
    B_mids[n]], D_n = B_nodes[n+1] - B_nodes[n], and its Gauss-Newton matrix,
    the Hessian with M held fixed, is 2N sum_n M (x) D_n D_n^T: the exact
    Hessian on a constant metric. With ``strict`` a non-finite term, or in
    ``gradient_of`` a non-finite gradient term, raises NonFiniteEnergy at
    its t.
    """
    ts_nodes = np.arange(n + 1) / n
    ts_mids = (np.arange(n) + 0.5) / n
    b_nodes = hermite_basis(ts_nodes, segments)[0]
    b_mids = hermite_basis(ts_mids, segments)[0]
    db_nodes = b_nodes[1:] - b_nodes[:-1]
    db_outer = 2.0 * n * np.einsum("tc,te->tce", db_nodes, db_nodes)
    size = z0.size * db_nodes.shape[1]
    chords = targets - z0[None, :]

    def deltas_and_mids(coeffs, rows):
        nodes = _spline_points(z0, chords[rows], coeffs, ts_nodes, b_nodes)
        mids = _spline_points(z0, chords[rows], coeffs, ts_mids, b_mids)
        return nodes[:, 1:] - nodes[:, :-1], mids.reshape(-1, nodes.shape[2])

    def checked(vals):
        if strict:
            _check_finite(ts_nodes[:-1], vals, "graph energy")
        return vals

    def quadratic(deltas, mm):
        return checked(np.einsum("mti,mtij,mtj->mt", deltas, mm, deltas))

    def terms(coeffs, rows):
        deltas, mids = deltas_and_mids(coeffs, rows)
        return quadratic(deltas, metric.eval_batch(mids).reshape(*deltas.shape, -1))

    def energy(coeffs, rows):
        return n * terms(coeffs, rows).sum(axis=1)

    def evaluate(coeffs, rows):
        deltas, mids = deltas_and_mids(coeffs, rows)
        mm, dm = metric.eval_batch_and_grad(mids)
        mm = mm.reshape(*deltas.shape, -1)
        dm = dm.reshape(-1, *deltas.shape, deltas.shape[-1])

        def gradient_of(sel):
            dl = deltas[sel]
            m_delta = np.einsum("mtij,mtj->mti", mm[sel], dl)
            quad = np.einsum("kmtij,mti,mtj->mtk", dm[:, sel], dl, dl)
            checked(np.einsum("mti,mti->mt", dl, m_delta) + quad.sum(axis=2))
            return n * (
                2.0 * np.einsum("mti,tc->mic", m_delta, db_nodes)
                + np.einsum("mtk,tc->mkc", quad, b_mids)
            )

        def gauss_newton_of(sel):
            gn = np.einsum("mtij,tce->micje", mm[sel], db_outer)
            return gn.reshape(gn.shape[0], size, size)

        return n * quadratic(deltas, mm).sum(axis=1), gradient_of, gauss_newton_of

    return energy, terms, evaluate


@dataclass
class GeodesicResult:
    curve: SplineCurve
    energy: float
    straight_energy: float
    energy_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    stop_reason: str = ""  # see ``_descend``
    grad_norm: float = float("nan")  # max|g| of the last gradient evaluated


def _start_coeffs(cfg: EnergyConfig, rng: RngStream, shape, warm=None) -> np.ndarray:
    if warm is not None and warm.shape == shape:
        return warm.copy()
    if cfg.jitter > 0:
        return cfg.jitter * rng.child(1).generator.standard_normal(shape)
    return np.zeros(shape)


def _gauss_newton_inverse(gn) -> np.ndarray:
    """The inverses of the Gauss-Newton matrices gn (k, n, n), NaN-filled
    where a matrix is not finite or not positive definite: where its least
    eigenvalue is not above 1e-12 times its largest (M = 0 along the
    curve, or 2S close to N: more coefficients than the node differences
    pin down)."""
    out = np.full(gn.shape, np.nan)
    finite = np.nonzero(np.all(np.isfinite(gn), axis=(1, 2)))[0]
    vals, vecs = np.linalg.eigh(gn[finite])
    ok = vals[:, 0] > 1e-12 * vals[:, -1]
    vecs = vecs[ok]
    out[finite[ok]] = (vecs / vals[ok][:, None, :]) @ np.swapaxes(vecs, 1, 2)
    return out


def _bfgs_update(h_inv, rows, s, y):
    """BFGS update of the inverse-Hessian estimates h_inv[rows] (n, n) with
    the steps s and gradient changes y (rows, n). A row whose curvature
    s^T y is not above 1e-12 |s| |y| keeps its estimate; a row that has no
    estimate yet (NaN: it had no usable Gauss-Newton start) starts from
    (s^T y / y^T y) I at its first update."""
    sy = np.einsum("ki,ki->k", s, y)
    ok = sy > 1e-12 * np.linalg.norm(s, axis=1) * np.linalg.norm(y, axis=1)
    rows, s, y, sy = rows[ok], s[ok], y[ok], sy[ok]
    h = h_inv[rows]
    fresh = np.isnan(h[:, 0, 0])
    h[fresh] = (sy / np.einsum("ki,ki->k", y, y))[fresh, None, None] * np.eye(s.shape[1])
    hy = np.einsum("kij,kj->ki", h, y)
    rho = 1.0 / sy
    outer = np.einsum("ki,kj->kij", s, hy)
    h -= rho[:, None, None] * (outer + np.swapaxes(outer, 1, 2))
    coef = rho * (1.0 + rho * np.einsum("ki,ki->k", y, hy))
    h += coef[:, None, None] * np.einsum("ki,kj->kij", s, s)
    h_inv[rows] = h


def _descend(coeffs, energy, evaluate, cfg: EnergyConfig, first=None):
    """BFGS descent with Armijo backtracking, one inverse-Hessian estimate
    per curve.

    ``coeffs`` (m, d, 2S) is the start; ``energy(c, rows)`` gives the energies
    of curves ``rows`` with coefficients c, and ``evaluate(c, rows)`` gives
    the same energies, ``gradient_of`` and ``gauss_newton_of``, where
    gradient_of(sel) is the gradients of rows[sel] from that one evaluation
    and gauss_newton_of(sel) their Gauss-Newton matrices;
    ``first``, if given, is evaluate(coeffs, all rows), made by the caller.
    Each curve searches along p = -H g from t = 1, halving t until
    e(x + t p) <= e(x) + 1e-4 t g^T p, with H its own dense inverse-Hessian
    estimate of the n = d 2S coefficients. H starts at the inverse of the
    curve's Gauss-Newton matrix at the start, where that matrix is finite
    and positive definite (``_gauss_newton_inverse``); otherwise it has no
    estimate until its first update, and steps p = -0.1 g until then. When
    -H g is not a descent direction, p = -0.1 g. A curve whose start energy
    is not finite never moves; the others stop when max|g| < grad_tol
    (1 + |E|), E its current energy (converged), when g is not finite, or
    when 40 trials find no Armijo step. The test is relative for KL energies
    of 1-100, whose gradients cannot reach an absolute 1e-6 at rounding
    precision, and absolute for E << 1. A non-finite trial energy, or a
    NonFiniteEnergy raised by a trial, rejects the trial.

    The start and each iteration's unit-step trial (t = 1) call
    ``evaluate``, so a curve accepted there has its next gradient without a
    second metric or decoder evaluation; backtracking trials call ``energy``,
    and a curve accepted on one is evaluated again at its next iteration.
    A trial is accepted on its energy alone, and only accepted curves pay
    for ``gradient_of``. So with a strict energy a non-finite gradient at an
    accepted point raises NonFiniteEnergy from ``gradient_of``, also for a
    step accepted in the last allowed iteration, whose gradient is then
    never used.

    State is per curve, so a curve fitted in a batch equals the same curve
    fitted alone. Returns (coeffs, energies, converged, iterations, trace,
    stop), where the trace holds the energies at the start and after every
    iteration that accepted a step, and ``stop`` is a record per curve: its
    ``reason`` ("converged", "line_search", "max_iters" for a curve still
    descending at the cap, or "non_finite" for a start energy or a gradient),
    the ``grad_norm`` max|g| of its last gradient (NaN if it had none), and
    its ``start``: "gauss_newton" or "scaled_identity".
    """
    m, n = coeffs.shape[0], coeffs[0].size
    coeffs = coeffs.copy()
    e_cur, gradient_of, gauss_newton_of = first or evaluate(coeffs, np.arange(m))
    e_cur = np.array(e_cur, dtype=float)  # a copy: the caller may keep first's energies
    trace = [e_cur.copy()]
    active = np.isfinite(e_cur)
    g_cur = np.full((m, n), np.nan)  # the gradient at coeffs, where ``fresh``
    g_cur[active] = gradient_of(active).reshape(-1, n)
    fresh = active.copy()
    iterations = np.zeros(m, dtype=int)
    stop = np.zeros(m, dtype=[("reason", "U11"), ("grad_norm", float), ("start", "U15")])
    stop["reason"] = np.where(active, "max_iters", "non_finite")
    stop["grad_norm"] = np.nan
    h_inv = np.full((m, n, n), np.nan)  # NaN until a curve's first estimate
    h_inv[active] = _gauss_newton_inverse(gauss_newton_of(active))
    stop["start"] = np.where(np.isnan(h_inv[:, 0, 0]), "scaled_identity", "gauss_newton")
    prev_x = np.full((m, n), np.nan)
    prev_g = np.full((m, n), np.nan)
    for _ in range(cfg.max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        iterations[idx] += 1
        stale = idx[~fresh[idx]]  # accepted on a backtracking trial
        if stale.size:
            g_cur[stale] = evaluate(coeffs[stale], stale)[1](slice(None)).reshape(-1, n)
        x, g = coeffs[idx].reshape(idx.size, n), g_cur[idx]
        fresh[idx] = False
        g_max = np.abs(g).max(axis=1)
        stop["grad_norm"][idx] = g_max
        done = g_max < cfg.grad_tol * (1.0 + np.abs(e_cur[idx]))
        keep = ~done & np.all(np.isfinite(g), axis=1)
        stop["reason"][idx[done]] = "converged"
        stop["reason"][idx[~done & ~keep]] = "non_finite"
        active[idx[~keep]] = False
        idx, x, g = idx[keep], x[keep], g[keep]
        if idx.size == 0:
            break
        _bfgs_update(h_inv, idx, x - prev_x[idx], g - prev_g[idx])
        prev_x[idx], prev_g[idx] = x, g
        p = -np.einsum("kij,kj->ki", h_inv[idx], g)
        steepest = ~(np.einsum("ki,ki->k", g, p) < 0)  # also no estimate yet (NaN)
        p[steepest] = -0.1 * g[steepest]
        slope = np.einsum("ki,ki->k", g, p)
        t = np.ones(idx.size)
        pending = np.arange(idx.size)  # positions in idx still searching
        for trial_no in range(40):
            rows = idx[pending]
            trial = (x[pending] + t[pending, None] * p[pending]).reshape(-1, *coeffs.shape[1:])
            try:
                if trial_no == 0:
                    e_trial, gradient_of, _ = evaluate(trial, rows)
                else:
                    e_trial = energy(trial, rows)
            except NonFiniteEnergy:
                e_trial = np.full(rows.size, np.inf)
            ok = np.isfinite(e_trial) & (
                e_trial <= e_cur[rows] + 1e-4 * t[pending] * slope[pending]
            )
            coeffs[rows[ok]] = trial[ok]
            e_cur[rows[ok]] = e_trial[ok]
            if trial_no == 0 and np.any(ok):  # ok is all False if evaluate raised
                g_cur[rows[ok]] = gradient_of(ok).reshape(-1, n)
                fresh[rows[ok]] = True
            pending = pending[~ok]
            if pending.size == 0:
                break
            t[pending] *= 0.5
        active[idx[pending]] = False  # line search failed
        stop["reason"][idx[pending]] = "line_search"
        if pending.size < idx.size:
            trace.append(e_cur.copy())
    return coeffs, e_cur, stop["reason"] == "converged", iterations, trace, stop


def _finite_endpoints(z0, z1):
    z0, z1 = np.asarray(z0, dtype=float), np.asarray(z1, dtype=float)
    if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(z1))):
        raise ShapeError("geodesic endpoints must be finite")
    return z0, z1


def _fit_curves(target, z0, targets, cfg: EnergyConfig, rng: RngStream, warm, strict: bool):
    """Energy-minimizing curves z0 -> targets (m, d) in one batched descent.

    ``target`` is a DecoderMap (``_decoder_energy``) or a LatentMetric
    (``_graph_energy``); either gives its exact energy, which scores the
    straight chords and ``_descend``'s backtracking trials, and one
    evaluation of energy and analytic gradient together, which ``_descend``
    spends on its start and unit-step trials. An all-zero start is the
    chord itself, so its evaluation also gives the straight energies, bit
    for bit, and the chord is evaluated once. A curve that ends above its
    straight chord, at infinite energy included, is reset to the chord.
    Returns (coeffs, energies, straight energies, converged, iterations,
    trace, stop, terms), with ``stop`` as ``_descend`` gives it and ``terms``
    the per-segment squared lengths: on a decoder the exact KL ones,
    whatever the objective.
    """
    shape = (targets.shape[0], z0.size, 2 * cfg.segments)
    if isinstance(target, DecoderMap):
        energy, _, evaluate = _decoder_energy(target, z0, targets, cfg, strict)
        terms = _decoder_energy(target, z0, targets, replace(cfg, objective="kl"), strict)[1]
    else:
        energy, terms, evaluate = _graph_energy(
            target, z0, targets, cfg.segments, cfg.n_disc, strict
        )
    rows = np.arange(shape[0])
    start, first = _start_coeffs(cfg, rng, shape, warm), None
    if np.any(start):
        straight = energy(np.zeros(shape), rows)
    else:  # the start is the chord: one evaluation scores it and starts the descent
        first = evaluate(start, rows)
        straight = first[0]
    coeffs, e_cur, converged, iterations, trace, stop = _descend(
        start, energy, evaluate, cfg, first
    )
    worse = e_cur > straight
    coeffs[worse], e_cur[worse] = 0.0, straight[worse]
    return coeffs, e_cur, straight, converged, iterations, trace, stop, terms


def minimize_energy_detailed(
    z0, z1, target, cfg: EnergyConfig | None = None, rng: RngStream | None = None
) -> GeodesicResult:
    """BFGS descent with backtracking over spline coefficients.

    ``target`` is a DecoderMap (KL or categorical energy) or a
    LatentMetric (graph energy). The returned curve never has more
    energy than the straight chord.
    """
    cfg = cfg or EnergyConfig()
    z0, z1 = _finite_endpoints(z0, z1)
    coeffs, energies, straight, converged, iterations, trace, stop, _ = _fit_curves(
        target, z0, z1[None, :], cfg, rng or RngStream(0), None, strict=True
    )
    return GeodesicResult(
        curve=SplineCurve(z0, z1, cfg.segments, coeffs[0]),
        energy=float(energies[0]),
        straight_energy=float(straight[0]),
        energy_trace=[float(e[0]) for e in trace],
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
        stop_reason=str(stop["reason"][0]),
        grad_norm=float(stop["grad_norm"][0]),
    )


# ---------------------------------------------------------------------------
# geodesic ODE, exponential and logarithmic maps


def _acceleration(mm, dm, vs) -> np.ndarray:
    """Geodesic accelerations at velocities vs from already evaluated M and
    dM/dz (``eval_batch_and_grad``'s pair); the linear systems are solved
    directly rather than inverting the tensors."""
    mdot = np.einsum("mk,kmij->mij", vs, dm)
    term_a = 2.0 * np.einsum("mij,mj->mi", mdot, vs)
    term_b = np.einsum("kmij,mi,mj->mk", dm, vs, vs)
    try:
        return -0.5 * np.linalg.solve(mm, (term_a - term_b)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("metric not invertible along the geodesic") from exc


def ode_rhs(metric: LatentMetric, z, zdot) -> np.ndarray:
    """Geodesic acceleration for the metric field at (z, zdot); see
    ``LatentMetric.eval_batch_and_grad`` for the metric derivatives."""
    z, zdot = np.asarray(z, dtype=float), np.asarray(zdot, dtype=float)
    return _acceleration(*metric.eval_batch_and_grad(z[None]), zdot[None])[0]


def _shoot(metric: LatentMetric, zs, vs, start_tensors, steps: int, return_path: bool):
    """The geodesic ODE z'' = a(z, z') over t in [0, 1] from the rows of
    (zs, vs), each nonzero v first scaled to metric norm |v| under its start
    tensor: ``log_map``'s convention, where |v| is the geodesic length. A
    nonzero v whose squared metric norm is not > 0 (zero, negative or NaN)
    raises SingularMetric, and a step count that is not an integer >= 1
    ShapeError. Returns the endpoints and, with ``return_path``, the
    (steps + 1, m, d) path.

    Each of the ``steps`` steps is one classical fourth-order
    Runge-Kutta-Nystrom step (Hairer, Norsett & Wanner, Solving ODEs I,
    II.14). The costly part of a, M and dM/dz, depends on the position only,
    and stages 2 and 3 share theirs, so a step costs 3 ``eval_batch_and_grad``
    calls.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ShapeError(f"shooting needs an integer step count >= 1, got {steps!r}")
    norm_e = np.linalg.norm(vs, axis=1)
    moving = norm_e > 0
    sq = np.einsum("mi,mij,mj->m", vs, start_tensors, vs)[moving]
    if not np.all(sq > 0):
        raise SingularMetric("metric degenerate along the shooting direction")
    vs = vs.copy()
    vs[moving] *= (norm_e[moving] / np.sqrt(sq))[:, None]
    h = 1.0 / steps
    path = [zs]
    for _ in range(steps):
        f1 = _acceleration(*metric.eval_batch_and_grad(zs), vs)
        mid = metric.eval_batch_and_grad(zs + (0.5 * h) * vs + (h * h / 8.0) * f1)
        f2 = _acceleration(*mid, vs + (0.5 * h) * f1)
        f3 = _acceleration(*mid, vs + (0.5 * h) * f2)
        end = metric.eval_batch_and_grad(zs + h * vs + (0.5 * h * h) * f3)
        f4 = _acceleration(*end, vs + h * f3)
        zs = zs + h * vs + (h * h / 6.0) * (f1 + f2 + f3)
        vs = vs + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        if return_path:
            path.append(zs)
    return zs, (np.stack(path) if return_path else None)


def exp_map(metric: LatentMetric, z, v, steps: int = 100, return_path: bool = False):
    """Geodesic endpoint from z along v, where |v| is the geodesic length:
    ``_shoot`` on one row under ``metric.eval(z)``. A nonzero v whose squared
    metric norm is not > 0 raises SingularMetric, and a non-finite endpoint
    NonFiniteEnergy; ``return_path`` returns (endpoint, ts, path)."""
    z, v = np.asarray(z, dtype=float), np.asarray(v, dtype=float)
    ends, path = _shoot(metric, z[None], v[None], metric.eval(z)[None], steps, return_path)
    if not np.all(np.isfinite(ends)):
        raise NonFiniteEnergy("exponential map diverged")
    if return_path:
        return ends[0], np.linspace(0.0, 1.0, steps + 1), path[:, 0]
    return ends[0]


def exp_map_batch(metric: LatentMetric, zs, vs, steps: int = 50) -> np.ndarray:
    """``exp_map`` on each row of (zs, vs): ``_shoot`` under
    ``metric.eval_batch(zs)``. A non-finite endpoint is not raised: its row
    comes back non-finite, as in ``log_map_batch``."""
    zs, vs = np.atleast_2d(np.asarray(zs, dtype=float)), np.atleast_2d(np.asarray(vs, dtype=float))
    return _shoot(metric, zs, vs, metric.eval_batch(zs), steps, return_path=False)[0]


def _log_maps(target, z0, targets, cfg: EnergyConfig, rng: RngStream, warm, strict: bool):
    """(tangents, lengths, coeffs, iterations, stop) of the fitted curves
    z0 -> targets: the length is sum_n sqrt(term_n) (exact KLs on a
    decoder), and the tangent is the curve's velocity at t = 0 (the
    perturbation's slope there is the first knot-derivative coefficient)
    rescaled to Euclidean norm = length; ``iterations`` and ``stop`` are
    ``_descend``'s."""
    coeffs, _, _, _, iterations, _, stop, terms = _fit_curves(
        target, z0, targets, cfg, rng, warm, strict
    )
    lengths = np.sqrt(np.maximum(terms(coeffs, np.arange(len(coeffs))), 0.0)).sum(axis=1)
    v0 = targets - z0[None, :] + coeffs[:, :, cfg.segments - 1]
    norms = np.linalg.norm(v0, axis=1)
    scale = np.where(norms > 0, lengths / np.maximum(norms, 1e-300), 0.0)
    return v0 * scale[:, None], lengths, coeffs, iterations, stop


def log_map_batch(
    target,
    z0,
    targets,
    cfg: EnergyConfig | None = None,
    rng: RngStream | None = None,
    warm_coeffs: np.ndarray | None = None,
):
    """Logarithmic maps from one base point to many targets at once.

    ``target`` is a LatentMetric or a DecoderMap, as for
    ``minimize_energy_detailed``; all curves are fitted in one batched
    descent; with ``jitter=0`` each row equals the same target fitted
    alone (the start jitter is drawn for the whole batch). Returns
    (tangents, lengths, coeffs); ``coeffs`` can warm-start the next call
    when the base point moves a little, as happens inside density fitting.
    A non-finite base point or target raises ShapeError, as in ``log_map``;
    non-finite energies are not raised: their rows come back non-finite.
    """
    z0, targets = _finite_endpoints(z0, targets)
    return _log_maps(
        target,
        z0,
        np.atleast_2d(targets),
        cfg or EnergyConfig(segments=1, n_disc=16),
        rng or RngStream(0),
        warm_coeffs,
        strict=False,
    )[:3]


def log_map(
    target,
    z,
    y,
    cfg: EnergyConfig | None = None,
    rng: RngStream | None = None,
    stop: dict | None = None,
) -> np.ndarray:
    """Initial velocity of the shortest path z -> y, rescaled so its
    Euclidean norm equals the curve length.

    This is the batched log map with one target, except that a non-finite
    energy term (straight chord, start or, on a metric, a gradient probe;
    not a line-search trial) raises NonFiniteEnergy at its t. A ``stop``
    dict receives the fit's ``iterations``, ``stop_reason`` and
    ``grad_norm``, as ``GeodesicResult`` holds them, and its ``start``
    ("gauss_newton" or "scaled_identity"; see ``_descend``).
    """
    z, y = _finite_endpoints(z, y)
    v, _, _, iterations, record = _log_maps(
        target, z, y[None, :], cfg or EnergyConfig(), rng or RngStream(0), None, strict=True
    )
    if stop is not None:
        stop.update(iterations=int(iterations[0]), stop_reason=str(record["reason"][0]),
                    grad_norm=float(record["grad_norm"][0]), start=str(record["start"][0]))
    return v[0]
