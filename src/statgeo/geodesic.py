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
which converges to the Riemannian energy integral; on a plain metric field
it is the graph term Delta_n^T M(mid_n) Delta_n. (The categorical
objective keeps its own energy scale; see ``_decoder_energy``.)

Every solver works on a batch of m rows; a single curve or shot is m = 1.
One fitter serves ``minimize_energy_detailed`` and both log maps, on
decoders and metric fields alike: one Barzilai-Borwein + Armijo descent
over coefficient arrays of shape (m, d, 2S), with a step and a stopping
rule per curve. Its gradient is analytic for the KL objective (one
decoder pass over the nodes that returns both the parameters and their
Jacobians) and the graph energy (one
``eval_batch_and_grad`` call over the midpoints); for the categorical
objective, and with ``gradient_mode="fd"``, it is one central-difference
routine that makes one energy call over the rows per probe. One RK4 loop
shoots both exponential maps; its right-hand side gets M and dM/dz from
one ``eval_batch_and_grad`` call per stage.
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
from .families import FamilyKind, McKl, sampled_kls
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
    descent's first step is 0.1; ``gradient_mode="fd"`` differences with step 1e-6."""

    n_disc: int = 128
    segments: int = 4
    max_iters: int = 200
    grad_tol: float = 1e-6
    gradient_mode: str = "analytic"  # or "fd": central differences of the energy
    jitter: float = 1e-4
    objective: str = "kl"  # "kl" or "categorical"; metric targets use quadrature
    mc_samples: int | None = None

    def __post_init__(self):
        if self.n_disc < 2:
            raise ShapeError("energy discretization needs N >= 2")


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


def _decoder_energy(dec: DecoderMap, z0, targets, cfg: EnergyConfig, mc: McKl | None, strict: bool):
    """Energy of the decoded curves z0 -> targets[rows], its terms and its
    gradient, in ``_graph_energy``'s form.

    The terms (rows, N) are the squared Fisher-Rao lengths of the segments
    between the nodes t = n/N, n = 0..N: 2 sum_f KL(p_n || p_{n+1}) for the
    KL objective (sampled with ``mc``, from a fresh stream per row), and
    4 sum_f (2 - 2 sqrt(h_n)^T sqrt(h_{n+1})) for the categorical one. The
    KL energy is N sum_n terms; the categorical energy keeps its scale,
    sum (2 - 2 sqrt(h_n)^T sqrt(h_{n+1})) = sum_n terms / 4. The KL gradient
    is analytic: one ``forward_and_jacobian_stacked`` pass decodes the nodes
    and gives their Jacobians, then one ``kl_grad`` call; the categorical
    objective has none (None). With ``strict`` a non-finite term raises
    NonFiniteEnergy at its t.
    """
    fam, n = dec.family, cfg.n_disc
    categorical = cfg.objective == "categorical"
    if categorical and fam.kind != FamilyKind.CATEGORICAL:
        raise FamilyMismatch("categorical energy needs a categorical decoder")
    ts = np.arange(n + 1) / n
    basis = hermite_basis(ts, cfg.segments)[0]
    chords = targets - z0[None, :]
    scale = 0.25 if categorical else float(n)

    def decoded(zs):
        flat = dec_mod.forward_stacked(dec, zs.reshape(-1, zs.shape[2]))
        return flat.reshape(*zs.shape[:2], dec.feature_count, fam.param_dim)

    def terms(coeffs, rows):
        params = decoded(_spline_points(z0, chords[rows], coeffs, ts, basis))
        if categorical:
            roots = np.sqrt(np.maximum(params, 0.0))
            dots = np.sum(roots[:, :-1] * roots[:, 1:], axis=-1)
            vals = 4.0 * (2.0 - 2.0 * dots).sum(axis=-1)
        elif mc is None:
            vals = 2.0 * fam.kl(params[:, :-1], params[:, 1:]).sum(axis=-1)
        else:
            vals = 2.0 * np.stack([sampled_kls(fam, row, mc) for row in params])
        if strict:
            _check_finite(ts, vals, "categorical energy term" if categorical else "segment KL")
        return vals

    def energy(coeffs, rows):
        return scale * terms(coeffs, rows).sum(axis=1)

    def grad(coeffs, rows):
        zs = _spline_points(z0, chords[rows], coeffs, ts, basis)
        flat = zs.reshape(-1, zs.shape[2])
        stacked, jac = dec_mod.forward_and_jacobian_stacked(dec, flat)
        params = stacked.reshape(*zs.shape[:2], dec.feature_count, fam.param_dim)
        g1, g2 = fam.kl_grad(params[:, :-1], params[:, 1:])
        adj = np.zeros_like(params)
        adj[:, :-1] += g1
        adj[:, 1:] += g2
        pulled = np.einsum("npd,np->nd", jac, adj.reshape(flat.shape[0], -1))
        return 2.0 * n * np.einsum("mtd,tc->mdc", pulled.reshape(zs.shape), basis)

    return energy, terms, (None if categorical else grad)


def _one_curve(c: SplineCurve, dec: DecoderMap, n: int, objective: str, mc: McKl | None):
    """The (energy, terms) of the single curve c under ``_decoder_energy``,
    strict, each a function of no argument."""
    cfg = EnergyConfig(n_disc=n, segments=c.segments, objective=objective)
    energy, terms, _ = _decoder_energy(dec, c.z0, c.z1[None], cfg, mc, True)
    args = (c.coeffs[None], np.arange(1))
    return (lambda: energy(*args)[0]), (lambda: terms(*args)[0])


def kl_energy(c: SplineCurve, dec: DecoderMap, n: int, mc: McKl | None = None) -> float:
    """(2/dt) sum_n KL(p(c(t_n)) || p(c(t_n+1))), t_n = n dt, dt = 1/N."""
    energy, _ = _one_curve(c, dec, n, "kl", mc)
    return float(energy())


def curve_length(c: SplineCurve, dec: DecoderMap, n: int, mc: McKl | None = None) -> float:
    """sum_n sqrt(2 KL_n): the discrete Fisher-Rao length."""
    _, terms = _one_curve(c, dec, n, "kl", mc)
    return float(np.sqrt(np.maximum(terms(), 0.0)).sum())


def categorical_energy(c: SplineCurve, dec: DecoderMap, n: int) -> float:
    """Great-circle small-angle energy sum(2 - 2 sqrt(h_n)^T sqrt(h_{n+1}))."""
    energy, _ = _one_curve(c, dec, n, "categorical", None)
    return float(energy())


def _graph_energy(metric: LatentMetric, z0, targets, segments: int, n: int, strict: bool):
    """Graph energy of the curves z0 -> targets[rows], its terms and its
    gradient.

    Returns energy(coeffs, rows) -> (rows,), terms(coeffs, rows) ->
    (rows, n), the per-segment Delta^T M(mid) Delta, and grad(coeffs, rows)
    -> (rows, d, 2S), for coefficients (rows, d, 2S). The energy
    N sum_n Delta_n^T M Delta_n is exact for straight chords on constant
    metrics, which keeps the discrete minimizer straight. Its gradient is
    N sum_n [2 M Delta_n (x) (B_nodes[n+1] - B_nodes[n])
    + (Delta_n^T dM/dz_k Delta_n) (x) B_mids[n]], from one
    ``eval_batch_and_grad`` call over the midpoints. With ``strict`` a
    non-finite term raises NonFiniteEnergy at its t.
    """
    ts_nodes = np.arange(n + 1) / n
    ts_mids = (np.arange(n) + 0.5) / n
    b_nodes = hermite_basis(ts_nodes, segments)[0]
    b_mids = hermite_basis(ts_mids, segments)[0]
    db_nodes = b_nodes[1:] - b_nodes[:-1]
    chords = targets - z0[None, :]

    def deltas_and_mids(coeffs, rows):
        nodes = _spline_points(z0, chords[rows], coeffs, ts_nodes, b_nodes)
        mids = _spline_points(z0, chords[rows], coeffs, ts_mids, b_mids)
        return nodes[:, 1:] - nodes[:, :-1], mids.reshape(-1, nodes.shape[2])

    def checked(vals):
        if strict:
            _check_finite(ts_nodes[:-1], vals, "graph energy")
        return vals

    def terms(coeffs, rows):
        deltas, mids = deltas_and_mids(coeffs, rows)
        mm = metric.eval_batch(mids).reshape(*deltas.shape, -1)
        return checked(np.einsum("mti,mtij,mtj->mt", deltas, mm, deltas))

    def energy(coeffs, rows):
        return n * terms(coeffs, rows).sum(axis=1)

    def grad(coeffs, rows):
        deltas, mids = deltas_and_mids(coeffs, rows)
        mm, dm = metric.eval_batch_and_grad(mids)
        m_delta = np.einsum("mtij,mtj->mti", mm.reshape(*deltas.shape, -1), deltas)
        quad = np.einsum(
            "kmtij,mti,mtj->mtk", dm.reshape(-1, *deltas.shape, deltas.shape[-1]), deltas, deltas
        )
        checked(np.einsum("mti,mti->mt", deltas, m_delta) + quad.sum(axis=2))
        return n * (
            2.0 * np.einsum("mti,tc->mic", m_delta, db_nodes)
            + np.einsum("mtk,tc->mkc", quad, b_mids)
        )

    return energy, terms, grad


@dataclass
class GeodesicResult:
    curve: SplineCurve
    energy: float
    straight_energy: float
    energy_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def _fd_gradient(energy, h: float):
    """Central differences over every coefficient; each probe is one energy
    call over the rows."""

    def grad(coeffs, rows):
        g = np.zeros_like(coeffs)
        for i, j in np.ndindex(*coeffs.shape[1:]):
            probe = coeffs.copy()
            probe[:, i, j] += h
            e_plus = energy(probe, rows)
            probe[:, i, j] -= 2.0 * h
            g[:, i, j] = (e_plus - energy(probe, rows)) / (2.0 * h)
        return g

    return grad


def _start_coeffs(cfg: EnergyConfig, rng: RngStream, shape, warm=None) -> np.ndarray:
    if warm is not None and warm.shape == shape:
        return warm.copy()
    if cfg.jitter > 0:
        return cfg.jitter * rng.child(1).generator.standard_normal(shape)
    return np.zeros(shape)


def _descend(coeffs, energy, grad, cfg: EnergyConfig):
    """Barzilai-Borwein descent with Armijo backtracking, one step per curve.

    ``coeffs`` (m, d, 2S) is the start; ``energy(c, rows)`` gives the energies
    of curves ``rows`` with coefficients c, and ``grad(c, rows)`` their
    gradients. A curve whose start energy is not finite never moves; the
    others stop when max|g| < grad_tol (converged) or when 40 halvings find
    no Armijo step. A non-finite trial energy, or a NonFiniteEnergy raised
    by a trial, rejects the trial. Returns
    (coeffs, energies, converged, iterations, trace), where the trace holds
    the energies at the start and after every iteration that accepted a step.
    """
    m = coeffs.shape[0]
    coeffs = coeffs.copy()
    e_cur = np.asarray(energy(coeffs, np.arange(m)), dtype=float)
    trace = [e_cur.copy()]
    step = np.full(m, 0.1)
    active = np.isfinite(e_cur)
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    prev_coeffs = np.full_like(coeffs, np.nan)
    prev_grad = np.full_like(coeffs, np.nan)
    for _ in range(cfg.max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        iterations[idx] += 1
        sub = coeffs[idx]
        g = grad(sub, idx)
        done = np.abs(g).reshape(idx.size, -1).max(axis=1) < cfg.grad_tol
        converged[idx[done]] = True
        active[idx[done]] = False
        idx, g, sub = idx[~done], g[~done], sub[~done]
        if idx.size == 0:
            break
        # the BB step is only a proposal; the Armijo test keeps each
        # curve's energy decreasing
        dpsi = sub - prev_coeffs[idx]
        dg = g - prev_grad[idx]
        denom = np.sum(dg * dg, axis=(1, 2))
        bb = np.abs(np.sum(dpsi * dg, axis=(1, 2))) / np.where(denom > 0, denom, 1.0)
        usable = np.isfinite(bb) & (bb > 0) & (denom > 0)
        step[idx[usable]] = np.clip(bb[usable], 1e-12, 1e3)
        prev_coeffs[idx] = sub
        prev_grad[idx] = g
        gsq = np.sum(g * g, axis=(1, 2))
        pending = np.arange(idx.size)  # positions in idx still searching
        for _ in range(40):
            rows = idx[pending]
            trial = sub[pending] - step[rows, None, None] * g[pending]
            try:
                e_trial = energy(trial, rows)
            except NonFiniteEnergy:
                e_trial = np.full(rows.size, np.inf)
            ok = np.isfinite(e_trial) & (
                e_trial <= e_cur[rows] - 1e-4 * step[rows] * gsq[pending]
            )
            coeffs[rows[ok]] = trial[ok]
            e_cur[rows[ok]] = e_trial[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            step[idx[pending]] *= 0.5
        active[idx[pending]] = False  # line search failed
        if pending.size < idx.size:
            trace.append(e_cur.copy())
    return coeffs, e_cur, converged, iterations, trace


def _finite_endpoints(z0, z1):
    z0, z1 = np.asarray(z0, dtype=float), np.asarray(z1, dtype=float)
    if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(z1))):
        raise ShapeError("geodesic endpoints must be finite")
    return z0, z1


def _fit_curves(target, z0, targets, cfg: EnergyConfig, rng: RngStream, warm, strict: bool):
    """Energy-minimizing curves z0 -> targets (m, d) in one batched descent.

    ``target`` is a DecoderMap (``_decoder_energy``) or a LatentMetric
    (``_graph_energy``). A curve that ends above its straight chord is reset
    to the chord. Returns (coeffs, energies, straight energies, converged,
    iterations, trace, terms), with ``terms`` the per-segment squared
    lengths: on a decoder the exact KL ones, whatever the objective.
    """
    shape = (targets.shape[0], z0.size, 2 * cfg.segments)
    if isinstance(target, DecoderMap):
        # sampled KLs draw from a fresh child stream per call: common random numbers
        mc = None if cfg.mc_samples is None else McKl(rng.child(1000), cfg.mc_samples)
        energy, _, grad = _decoder_energy(target, z0, targets, cfg, mc, strict)
        terms = _decoder_energy(target, z0, targets, replace(cfg, objective="kl"), None, strict)[1]
    else:
        energy, terms, grad = _graph_energy(target, z0, targets, cfg.segments, cfg.n_disc, strict)
    if cfg.gradient_mode != "analytic" or grad is None:
        grad = _fd_gradient(energy, 1e-6)
    straight = energy(np.zeros(shape), np.arange(shape[0]))
    coeffs, e_cur, converged, iterations, trace = _descend(
        _start_coeffs(cfg, rng, shape, warm), energy, grad, cfg
    )
    worse = e_cur > straight
    coeffs[worse], e_cur[worse] = 0.0, straight[worse]
    return coeffs, e_cur, straight, converged, iterations, trace, terms


def minimize_energy_detailed(
    z0, z1, target, cfg: EnergyConfig | None = None, rng: RngStream | None = None
) -> GeodesicResult:
    """Gradient descent with backtracking over spline coefficients.

    ``target`` is a DecoderMap (KL or categorical energy) or a
    LatentMetric (graph energy). The returned curve never has more
    energy than the straight chord.
    """
    cfg = cfg or EnergyConfig()
    z0, z1 = _finite_endpoints(z0, z1)
    coeffs, energies, straight, converged, iterations, trace, _ = _fit_curves(
        target, z0, z1[None, :], cfg, rng or RngStream(0), None, strict=True
    )
    return GeodesicResult(
        curve=SplineCurve(z0, z1, cfg.segments, coeffs[0]),
        energy=float(energies[0]),
        straight_energy=float(straight[0]),
        energy_trace=[float(e[0]) for e in trace],
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
    )


# ---------------------------------------------------------------------------
# geodesic ODE, exponential and logarithmic maps


def _ode_rhs_batch(metric: LatentMetric, zs, vs, fd_step: float) -> np.ndarray:
    """Geodesic accelerations at the rows of (zs, vs).

    M and dM/dz come from one ``eval_batch_and_grad`` call (``fd_step`` is
    its difference step where the metric has no analytic derivative); the
    linear systems are solved directly rather than inverting the tensors.
    """
    mm, dm = metric.eval_batch_and_grad(zs, fd_step)
    mdot = np.einsum("mk,kmij->mij", vs, dm)
    term_a = 2.0 * np.einsum("mij,mj->mi", mdot, vs)
    term_b = np.einsum("kmij,mi,mj->mk", dm, vs, vs)
    try:
        return -0.5 * np.linalg.solve(mm, (term_a - term_b)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("metric not invertible along the geodesic") from exc


def ode_rhs(metric: LatentMetric, z, zdot, fd_step: float = 1e-4) -> np.ndarray:
    """Geodesic acceleration for the metric field at (z, zdot); see
    ``LatentMetric.eval_batch_and_grad`` for the metric derivatives."""
    z, zdot = np.asarray(z, dtype=float), np.asarray(zdot, dtype=float)
    return _ode_rhs_batch(metric, z[None], zdot[None], fd_step)[0]


def _rk4(metric: LatentMetric, zs, vs, steps: int, fd_step: float, return_path: bool):
    """RK4 over t in [0, 1] for rows (zs, vs): the endpoints, and the
    (steps + 1, m, d) path when ``return_path`` is set."""
    h = 1.0 / steps
    path = [zs]
    for _ in range(steps):
        k1v = _ode_rhs_batch(metric, zs, vs, fd_step)
        k1z = vs
        k2v = _ode_rhs_batch(metric, zs + 0.5 * h * k1z, vs + 0.5 * h * k1v, fd_step)
        k2z = vs + 0.5 * h * k1v
        k3v = _ode_rhs_batch(metric, zs + 0.5 * h * k2z, vs + 0.5 * h * k2v, fd_step)
        k3z = vs + 0.5 * h * k2v
        k4v = _ode_rhs_batch(metric, zs + h * k3z, vs + h * k3v, fd_step)
        k4z = vs + h * k3v
        zs = zs + (h / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        vs = vs + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if return_path:
            path.append(zs)
    return zs, (np.stack(path) if return_path else None)


def _rescale_initial_velocity(metric: LatentMetric, z, v) -> np.ndarray:
    """Match the tangent convention where the Euclidean norm of v is the
    target geodesic length: scale v so its metric norm equals |v|."""
    norm_e = float(np.linalg.norm(v))
    if norm_e == 0.0:
        return v
    norm_m = float(np.sqrt(v @ metric.eval(z) @ v))
    if norm_m <= 0.0:
        raise SingularMetric("metric degenerate along the shooting direction")
    return v * (norm_e / norm_m)


def exp_map(
    metric: LatentMetric,
    z,
    v,
    steps: int = 100,
    fd_step: float = 1e-4,
    return_path: bool = False,
):
    """Shoot the geodesic IVP with RK4 over t in [0, 1].

    The input tangent follows the convention of ``log_map``: its Euclidean
    norm is the geodesic length, so v is first rescaled to metric norm |v|.
    A zero metric norm along a nonzero v raises SingularMetric.
    """
    z, v = np.asarray(z, dtype=float), np.asarray(v, dtype=float)
    v = _rescale_initial_velocity(metric, z, v)
    ends, path = _rk4(metric, z[None], v[None], steps, fd_step, return_path)
    if not np.all(np.isfinite(ends)):
        raise NonFiniteEnergy("exponential map diverged")
    if return_path:
        return ends[0], np.linspace(0.0, 1.0, steps + 1), path[:, 0]
    return ends[0]


def exp_map_batch(metric: LatentMetric, zs, vs, steps: int = 50) -> np.ndarray:
    """Vectorized exponential map across a batch of tangent vectors, with
    ``exp_map``'s tangent convention: each row of vs is rescaled to metric
    norm |v| (a zero metric norm scales by |v| / 1e-300 instead of raising).
    """
    zs, vs = np.atleast_2d(np.asarray(zs, dtype=float)), np.atleast_2d(np.asarray(vs, dtype=float))
    norm_e = np.linalg.norm(vs, axis=1)
    m = metric.eval_batch(zs)
    norm_m = np.sqrt(np.einsum("mi,mij,mj->m", vs, m, vs))
    scale = np.where(norm_e > 0, norm_e / np.maximum(norm_m, 1e-300), 1.0)
    return _rk4(metric, zs, vs * scale[:, None], steps, 1e-4, return_path=False)[0]


def _log_maps(target, z0, targets, cfg: EnergyConfig, rng: RngStream, warm, strict: bool):
    """(tangents, lengths, coeffs) of the fitted curves z0 -> targets: the
    length is sum_n sqrt(term_n) (exact KLs on a decoder), and the tangent
    is the curve's velocity at t = 0 (the perturbation's slope there is the
    first knot-derivative coefficient) rescaled to Euclidean norm = length."""
    coeffs, *_, terms = _fit_curves(target, z0, targets, cfg, rng, warm, strict)
    lengths = np.sqrt(np.maximum(terms(coeffs, np.arange(len(coeffs))), 0.0)).sum(axis=1)
    v0 = targets - z0[None, :] + coeffs[:, :, cfg.segments - 1]
    norms = np.linalg.norm(v0, axis=1)
    scale = np.where(norms > 0, lengths / np.maximum(norms, 1e-300), 0.0)
    return v0 * scale[:, None], lengths, coeffs


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
    Non-finite energies are not raised: their rows come back non-finite.
    """
    return _log_maps(
        target,
        np.asarray(z0, dtype=float),
        np.atleast_2d(np.asarray(targets, dtype=float)),
        cfg or EnergyConfig(segments=1, n_disc=16),
        rng or RngStream(0),
        warm_coeffs,
        strict=False,
    )


def log_map(
    target,
    z,
    y,
    cfg: EnergyConfig | None = None,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Initial velocity of the shortest path z -> y, rescaled so its
    Euclidean norm equals the curve length.

    This is the batched log map with one target, except that a non-finite
    energy term (straight chord, start or, on a metric, a gradient probe;
    not a line-search trial) raises NonFiniteEnergy at its t.
    """
    z, y = _finite_endpoints(z, y)
    return _log_maps(target, z, y[None, :], cfg or EnergyConfig(), rng or RngStream(0),
                     None, strict=True)[0][0]
