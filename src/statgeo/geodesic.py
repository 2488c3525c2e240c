"""Curves, discretized KL energy, shortest-path optimization and the
geodesic ODE system with exponential/logarithmic maps.

Curves are cubic Hermite perturbations of the straight chord: per latent
dimension and per segment there are two free coefficients (interior knot
values and knot derivatives), so endpoint constraints and C^1 continuity
hold by construction rather than by penalty.

The discrete energy is (2/dt) sum_n KL(p(c(n/N)), p(c((n+1)/N))) with
dt = 1/N, which converges to the Riemannian energy integral; the matching
length is sum_n sqrt(2 KL_n). Energies over plain metric fields use
midpoint quadrature of zdot^T M zdot instead of divergences.
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
from .families import FamilyKind, McKl
from .metric import LatentMetric
from .rng import RngStream


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

    def _knot_values(self) -> np.ndarray:
        """Perturbation values at all S+1 knots (endpoints pinned to 0)."""
        s = self.segments
        vals = np.zeros((self.dim, s + 1))
        vals[:, 1:s] = self.coeffs[:, : s - 1]
        return vals

    def _knot_derivs(self) -> np.ndarray:
        s = self.segments
        return self.coeffs[:, s - 1 :]

    def eval(self, ts):
        """Positions and velocities at parameter values in [0, 1]."""
        ts = np.asarray(ts, dtype=float)
        single = ts.ndim == 0
        t = np.atleast_1d(ts)
        if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
            raise OutOfRange("curve parameter must lie in [0, 1]")
        t = np.clip(t, 0.0, 1.0)
        s = self.segments
        seg = np.minimum((t * s).astype(int), s - 1)
        u = t * s - seg
        h = 1.0 / s
        vals = self._knot_values()
        ders = self._knot_derivs()
        u2, u3 = u * u, u * u * u
        h00 = 2 * u3 - 3 * u2 + 1
        h10 = u3 - 2 * u2 + u
        h01 = -2 * u3 + 3 * u2
        h11 = u3 - u2
        d00 = 6 * u2 - 6 * u
        d10 = 3 * u2 - 4 * u + 1
        d01 = -6 * u2 + 6 * u
        d11 = 3 * u2 - 2 * u
        qa, qb = vals[:, seg], vals[:, seg + 1]
        ma, mb = ders[:, seg], ders[:, seg + 1]
        q = h00 * qa + h * h10 * ma + h01 * qb + h * h11 * mb
        qdot = (d00 * qa + h * d10 * ma + d01 * qb + h * d11 * mb) * s
        chord = self.z1 - self.z0
        z = self.z0[:, None] + np.outer(chord, t) + q
        zdot = chord[:, None] + qdot
        if single:
            return z[:, 0], zdot[:, 0]
        return z.T, zdot.T

    def basis(self, ts) -> np.ndarray:
        """d(perturbation)/d(coefficients) at ts, shape (nt, 2S)."""
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        s = self.segments
        seg = np.minimum((np.clip(t, 0, 1) * s).astype(int), s - 1)
        u = t * s - seg
        h = 1.0 / s
        u2, u3 = u * u, u * u * u
        h00 = 2 * u3 - 3 * u2 + 1
        h10 = u3 - 2 * u2 + u
        h01 = -2 * u3 + 3 * u2
        h11 = u3 - u2
        out = np.zeros((t.size, 2 * s))
        rows = np.arange(t.size)
        left_interior = seg >= 1
        out[rows[left_interior], seg[left_interior] - 1] += h00[left_interior]
        right_interior = seg + 1 <= s - 1
        out[rows[right_interior], seg[right_interior]] += h01[right_interior]
        out[rows, s - 1 + seg] += h * h10
        out[rows, s + seg] += h * h11
        return out


def straight_line(z0, z1, segments: int = 4) -> SplineCurve:
    return SplineCurve(np.asarray(z0, float), np.asarray(z1, float), segments)


def curve_eval(c: SplineCurve, t: float):
    """Position and velocity of the curve at t."""
    return c.eval(float(t))


@dataclass
class EnergyConfig:
    """Discretization and optimizer settings for energy minimization."""

    n_disc: int = 128
    segments: int = 4
    max_iters: int = 200
    grad_tol: float = 1e-6
    step_size: float = 0.1
    gradient_mode: str = "fd"  # "fd" or "analytic"
    fd_step: float = 1e-6
    jitter: float = 1e-4
    objective: str = "kl"  # "kl" or "categorical"; metric targets use quadrature
    mc_samples: int | None = None

    def __post_init__(self):
        if self.n_disc < 2:
            raise ShapeError("energy discretization needs N >= 2")


def _decoded_features(dec: DecoderMap, zs: np.ndarray) -> np.ndarray:
    stacked = dec_mod.forward_stacked(dec, zs)
    return stacked.reshape(zs.shape[0], dec.feature_count, dec.family.param_dim)


def _segment_kls(dec: DecoderMap, c: SplineCurve, n: int, mc: McKl | None):
    """Per-segment summed KL between consecutive decoded curve points."""
    ts = np.arange(1, n + 1) / n
    zs, _ = c.eval(ts)
    params = _decoded_features(dec, zs)
    fam = dec.family
    if mc is None:
        kls = fam.kl(params[:-1], params[1:]).sum(axis=-1)
    else:
        gen = mc.rng.child(0).generator
        kls = np.zeros(n - 1)
        for i in range(n - 1):
            for f in range(dec.feature_count):
                x = fam.sample(params[i, f], gen, mc.n_samples)
                kls[i] += np.mean(
                    fam.log_pdf(params[i, f], x) - fam.log_pdf(params[i + 1, f], x)
                )
    return ts, kls


def _check_finite(ts, values, what: str):
    bad = ~np.isfinite(values)
    if np.any(bad):
        t_bad = float(ts[int(np.argmax(bad))])
        raise NonFiniteEnergy(f"{what} became non-finite near t={t_bad:.4f}", t=t_bad)


def kl_energy(c: SplineCurve, dec: DecoderMap, n: int, mc: McKl | None = None) -> float:
    """(2/dt) sum of consecutive decoded KL divergences, dt = 1/N."""
    ts, kls = _segment_kls(dec, c, n, mc)
    _check_finite(ts[:-1], kls, "segment KL")
    return float(2.0 * n * kls.sum())


def curve_length(c: SplineCurve, dec: DecoderMap, n: int, mc: McKl | None = None) -> float:
    """sum_n sqrt(2 KL_n): the discrete Fisher-Rao length."""
    ts, kls = _segment_kls(dec, c, n, mc)
    _check_finite(ts[:-1], kls, "segment KL")
    return float(np.sqrt(2.0 * np.maximum(kls, 0.0)).sum())


def categorical_energy(c: SplineCurve, dec: DecoderMap, n: int) -> float:
    """Great-circle small-angle energy sum(2 - 2 sqrt(h_n)^T sqrt(h_{n+1}))."""
    if dec.family.kind != FamilyKind.CATEGORICAL:
        raise FamilyMismatch("categorical energy needs a categorical decoder")
    ts = np.arange(1, n + 1) / n
    zs, _ = c.eval(ts)
    params = _decoded_features(dec, zs)
    roots = np.sqrt(np.maximum(params, 0.0))
    dots = np.sum(roots[:-1] * roots[1:], axis=-1)
    terms = (2.0 - 2.0 * dots).sum(axis=-1)
    _check_finite(ts[:-1], terms, "categorical energy term")
    return float(terms.sum())


def _segment_quadratics(c: SplineCurve, metric: LatentMetric, n: int):
    """Delta^T M(mid) Delta per polyline segment (graph discretization)."""
    nodes, _ = c.eval(np.arange(n + 1) / n)
    mids, _ = c.eval((np.arange(n) + 0.5) / n)
    deltas = nodes[1:] - nodes[:-1]
    m = metric.eval_batch(mids)
    return np.einsum("ni,nij,nj->n", deltas, m, deltas)


def metric_energy(c: SplineCurve, metric: LatentMetric, n: int) -> float:
    """Graph energy N sum_n Delta_n^T M Delta_n; exact for straight chords
    on constant metrics, which keeps the discrete minimizer straight."""
    vals = _segment_quadratics(c, metric, n)
    _check_finite(np.arange(n) / n, vals, "graph energy")
    return float(n * vals.sum())


def metric_length(c: SplineCurve, metric: LatentMetric, n: int) -> float:
    vals = _segment_quadratics(c, metric, n)
    _check_finite(np.arange(n) / n, vals, "graph length")
    return float(np.sqrt(np.maximum(vals, 0.0)).sum())


@dataclass
class GeodesicResult:
    curve: SplineCurve
    energy: float
    straight_energy: float
    energy_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def _make_objective(target, cfg: EnergyConfig, rng: RngStream):
    """Energy callable over free coefficients plus optional analytic grad."""
    is_decoder = isinstance(target, DecoderMap)
    state = {"mc_key": 0}

    def mc_settings():
        if not is_decoder or cfg.mc_samples is None:
            return None
        return McKl(rng.child(1000 + state["mc_key"]), cfg.mc_samples)

    def energy(curve: SplineCurve) -> float:
        if not is_decoder:
            return metric_energy(curve, target, cfg.n_disc)
        if cfg.objective == "categorical":
            return categorical_energy(curve, target, cfg.n_disc)
        return kl_energy(curve, target, cfg.n_disc, mc_settings())

    def analytic_grad(curve: SplineCurve) -> np.ndarray:
        n = cfg.n_disc
        ts = np.arange(1, n + 1) / n
        zs, _ = curve.eval(ts)
        params = _decoded_features(target, zs)
        g1, g2 = target.family.kl_grad(params[:-1], params[1:])
        adj = np.zeros_like(params)
        adj[:-1] += g1
        adj[1:] += g2
        adj = adj.reshape(n, -1)
        jac = dec_mod.jacobian_stacked(target, zs)
        pulled = np.einsum("npd,np->nd", jac, adj)
        basis = curve.basis(ts)
        return 2.0 * n * np.einsum("nd,nb->db", pulled, basis)

    has_analytic = is_decoder and cfg.objective == "kl"
    return energy, (analytic_grad if has_analytic else None)


def minimize_energy_detailed(
    z0, z1, target, cfg: EnergyConfig | None = None, rng: RngStream | None = None
) -> GeodesicResult:
    """Gradient descent with backtracking over spline coefficients.

    ``target`` is a DecoderMap (KL or categorical energy) or a
    LatentMetric (quadrature energy). The returned curve never has more
    energy than the straight chord.
    """
    cfg = cfg or EnergyConfig()
    rng = rng or RngStream(0)
    z0 = np.asarray(z0, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(z1))):
        raise ShapeError("geodesic endpoints must be finite")

    energy, analytic_grad = _make_objective(target, cfg, rng)
    base = straight_line(z0, z1, cfg.segments)
    straight_energy = energy(base)

    curve = replace(base)
    if cfg.jitter > 0:
        curve.coeffs = cfg.jitter * rng.child(1).generator.standard_normal(
            curve.coeffs.shape
        )

    def fd_grad(cur: SplineCurve) -> np.ndarray:
        g = np.zeros_like(cur.coeffs)
        h = cfg.fd_step
        probe = replace(cur, coeffs=cur.coeffs.copy())
        for idx in np.ndindex(*cur.coeffs.shape):
            orig = probe.coeffs[idx]
            probe.coeffs[idx] = orig + h
            e_plus = energy(probe)
            probe.coeffs[idx] = orig - h
            e_minus = energy(probe)
            probe.coeffs[idx] = orig
            g[idx] = (e_plus - e_minus) / (2.0 * h)
        return g

    use_analytic = cfg.gradient_mode == "analytic" and analytic_grad is not None
    grad = analytic_grad if use_analytic else fd_grad

    e_cur = energy(curve)
    trace = [e_cur]
    step = cfg.step_size
    converged = False
    iterations = 0
    prev_coeffs = prev_grad = None
    for it in range(cfg.max_iters):
        iterations = it + 1
        g = grad(curve)
        gnorm = float(np.max(np.abs(g)))
        if gnorm < cfg.grad_tol:
            converged = True
            break
        # Barzilai-Borwein proposal for the trial step; the Armijo
        # backtracking below still guarantees monotone energy decrease
        if prev_grad is not None:
            dpsi = curve.coeffs - prev_coeffs
            dg = g - prev_grad
            denom = float(np.sum(dg * dg))
            if denom > 0:
                bb = abs(float(np.sum(dpsi * dg))) / denom
                if np.isfinite(bb) and bb > 0:
                    step = min(max(bb, 1e-12), 1e3)
        prev_coeffs, prev_grad = curve.coeffs.copy(), g
        gsq = float(np.sum(g * g))
        accepted = False
        for _ in range(40):
            trial = replace(curve, coeffs=curve.coeffs - step * g)
            try:
                e_new = energy(trial)
            except NonFiniteEnergy:
                e_new = np.inf
            if np.isfinite(e_new) and e_new <= e_cur - 1e-4 * step * gsq:
                curve, e_cur = trial, e_new
                trace.append(e_cur)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

    if e_cur > straight_energy:
        curve, e_cur = base, straight_energy
    return GeodesicResult(
        curve=curve,
        energy=e_cur,
        straight_energy=straight_energy,
        energy_trace=trace,
        converged=converged,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# geodesic ODE, exponential and logarithmic maps


def _metric_derivs(metric: LatentMetric, z: np.ndarray, h: float) -> np.ndarray:
    d = z.size
    out = np.empty((d, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        out[k] = (metric.eval(z + e) - metric.eval(z - e)) / (2.0 * h)
    return out


def ode_rhs(metric: LatentMetric, z, zdot, fd_step: float = 1e-4) -> np.ndarray:
    """Geodesic acceleration for the metric field at (z, zdot).

    Metric derivatives are central finite differences; the linear system
    is solved directly rather than inverting the tensor.
    """
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    dm = _metric_derivs(metric, z, fd_step)
    mdot = np.einsum("k,kij->ij", zdot, dm)
    term_a = 2.0 * mdot @ zdot
    term_b = np.einsum("kij,i,j->k", dm, zdot, zdot)
    try:
        return -0.5 * np.linalg.solve(metric.eval(z), term_a - term_b)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric not invertible at z={z}") from exc


def _ode_rhs_batch(metric: LatentMetric, zs, vs, fd_step: float) -> np.ndarray:
    m, d = zs.shape
    dm = np.empty((d, m, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = fd_step
        dm[k] = (metric.eval_batch(zs + e) - metric.eval_batch(zs - e)) / (2.0 * fd_step)
    mdot = np.einsum("mk,kmij->mij", vs, dm)
    term_a = 2.0 * np.einsum("mij,mj->mi", mdot, vs)
    term_b = np.einsum("kmij,mi,mj->mk", dm, vs, vs)
    try:
        sol = np.linalg.solve(metric.eval_batch(zs), (term_a - term_b)[..., None])
        return -0.5 * sol[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("metric not invertible along batch") from exc


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
    rescale_velocity: bool = True,
    return_path: bool = False,
):
    """Shoot the geodesic IVP with RK4 over t in [0, 1].

    With ``rescale_velocity`` the input tangent follows the convention of
    ``log_map`` (Euclidean norm equals geodesic length); disable it to
    integrate the raw velocity.
    """
    z = np.asarray(z, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    if rescale_velocity:
        v = _rescale_initial_velocity(metric, z, v)
    h = 1.0 / steps
    path = [z.copy()]

    def rhs(state_z, state_v):
        return state_v, ode_rhs(metric, state_z, state_v, fd_step)

    for _ in range(steps):
        k1z, k1v = rhs(z, v)
        k2z, k2v = rhs(z + 0.5 * h * k1z, v + 0.5 * h * k1v)
        k3z, k3v = rhs(z + 0.5 * h * k2z, v + 0.5 * h * k2v)
        k4z, k4v = rhs(z + h * k3z, v + h * k3v)
        z = z + (h / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        path.append(z.copy())
    if not np.all(np.isfinite(z)):
        raise NonFiniteEnergy("exponential map diverged")
    if return_path:
        return z, np.linspace(0.0, 1.0, steps + 1), np.stack(path)
    return z


def exp_map_batch(
    metric: LatentMetric, zs, vs, steps: int = 50, fd_step: float = 1e-4,
    rescale_velocity: bool = True,
) -> np.ndarray:
    """Vectorized exponential map across a batch of tangent vectors."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float)).copy()
    vs = np.atleast_2d(np.asarray(vs, dtype=float)).copy()
    if rescale_velocity:
        norm_e = np.linalg.norm(vs, axis=1)
        m = metric.eval_batch(zs)
        norm_m = np.sqrt(np.einsum("mi,mij,mj->m", vs, m, vs))
        scale = np.where(norm_e > 0, norm_e / np.maximum(norm_m, 1e-300), 1.0)
        vs = vs * scale[:, None]
    h = 1.0 / steps
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
    return zs


def _batch_curve_tables(z0, targets, segments, n):
    """Shared Hermite basis tables for curves from z0 to each target."""
    proto = SplineCurve(z0, targets[0], segments)
    ts_nodes = np.arange(n + 1) / n
    ts_mids = (np.arange(n) + 0.5) / n
    b_nodes = proto.basis(ts_nodes)  # (n+1, 2S)
    b_mids = proto.basis(ts_mids)
    return ts_nodes, ts_mids, b_nodes, b_mids


def _batch_nodes(z0, targets, coeffs, ts, basis):
    """Curve points for a batch: line part plus Hermite perturbation."""
    chords = targets - z0[None, :]
    line = z0[None, None, :] + ts[None, :, None] * chords[:, None, :]
    return line + np.einsum("mdc,tc->mtd", coeffs, basis)


def _batch_graph_energy(metric, z0, targets, coeffs, n, tables):
    _, _, b_nodes, b_mids = tables
    ts_nodes = np.arange(n + 1) / n
    ts_mids = (np.arange(n) + 0.5) / n
    nodes = _batch_nodes(z0, targets, coeffs, ts_nodes, b_nodes)
    mids = _batch_nodes(z0, targets, coeffs, ts_mids, b_mids)
    deltas = nodes[:, 1:] - nodes[:, :-1]
    m_count, _, d = nodes.shape
    mm = metric.eval_batch(mids.reshape(-1, d)).reshape(m_count, n, d, d)
    vals = np.einsum("mti,mtij,mtj->mt", deltas, mm, deltas)
    return n * vals.sum(axis=1), vals


def log_map_batch(
    metric: LatentMetric,
    z0,
    targets,
    cfg: EnergyConfig | None = None,
    rng: RngStream | None = None,
    warm_coeffs: np.ndarray | None = None,
):
    """Logarithmic maps from one base point to many targets at once.

    Runs the spline optimizations in lockstep with fully batched energy
    evaluations (metric objective). Returns (tangents, lengths, coeffs);
    ``coeffs`` can warm-start the next call when the base point moves a
    little, as happens inside density fitting.
    """
    cfg = cfg or EnergyConfig(segments=1, n_disc=16)
    rng = rng or RngStream(0)
    z0 = np.asarray(z0, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m, d = targets.shape
    n = cfg.n_disc
    s2 = 2 * cfg.segments
    tables = _batch_curve_tables(z0, targets, cfg.segments, n)

    if warm_coeffs is not None and warm_coeffs.shape == (m, d, s2):
        coeffs = warm_coeffs.copy()
    elif cfg.jitter > 0:
        coeffs = cfg.jitter * rng.child(1).generator.standard_normal((m, d, s2))
    else:
        coeffs = np.zeros((m, d, s2))

    def energy(c, idx):
        return _batch_graph_energy(metric, z0, targets[idx], c, n, tables)[0]

    all_idx = np.arange(m)
    e_straight = energy(np.zeros((m, d, s2)), all_idx)
    e_cur = energy(coeffs, all_idx)
    step = np.full(m, cfg.step_size)
    h = cfg.fd_step
    active = np.ones(m, dtype=bool)
    prev_coeffs = np.full((m, d, s2), np.nan)
    prev_grad = np.full((m, d, s2), np.nan)
    for _ in range(cfg.max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        sub = coeffs[idx]
        grad = np.zeros_like(sub)
        for i in range(d):
            for j in range(s2):
                probe = sub.copy()
                probe[:, i, j] += h
                e_plus = energy(probe, idx)
                probe[:, i, j] -= 2.0 * h
                grad[:, i, j] = (e_plus - energy(probe, idx)) / (2.0 * h)
        gnorm = np.abs(grad).reshape(idx.size, -1).max(axis=1)
        converged_now = gnorm < cfg.grad_tol
        active[idx[converged_now]] = False
        live = ~converged_now
        idx, grad, sub = idx[live], grad[live], sub[live]
        if idx.size == 0:
            continue
        # per-curve Barzilai-Borwein trial steps, Armijo-safeguarded below
        dpsi = sub - prev_coeffs[idx]
        dg = grad - prev_grad[idx]
        denom = np.sum(dg * dg, axis=(1, 2))
        bb = np.abs(np.sum(dpsi * dg, axis=(1, 2))) / np.where(denom > 0, denom, 1.0)
        usable = np.isfinite(bb) & (bb > 0) & (denom > 0)
        step[idx[usable]] = np.clip(bb[usable], 1e-12, 1e3)
        prev_coeffs[idx] = sub
        prev_grad[idx] = grad
        gsq = np.sum(grad * grad, axis=(1, 2))
        e_sub = e_cur[idx]
        remaining = np.ones(idx.size, dtype=bool)
        for _bt in range(40):
            rem_idx = np.nonzero(remaining)[0]
            trial = sub[rem_idx] - step[idx[rem_idx], None, None] * grad[rem_idx]
            e_trial = energy(trial, idx[rem_idx])
            ok = np.isfinite(e_trial) & (
                e_trial <= e_sub[rem_idx] - 1e-4 * step[idx[rem_idx]] * gsq[rem_idx]
            )
            ok_rows = rem_idx[ok]
            if ok_rows.size:
                coeffs[idx[ok_rows]] = trial[ok]
                e_cur[idx[ok_rows]] = e_trial[ok]
                step[idx[ok_rows]] = np.minimum(step[idx[ok_rows]] * 1.5, 1e3)
            remaining[ok_rows] = False
            if not np.any(remaining):
                break
            step[idx[remaining]] *= 0.5
        # curves whose line search collapsed cannot improve further
        dead = remaining & (step[idx] < 1e-14)
        active[idx[dead]] = False

    worse = e_cur > e_straight
    coeffs[worse] = 0.0

    _, vals = _batch_graph_energy(metric, z0, targets, coeffs, n, tables)
    lengths = np.sqrt(np.maximum(vals, 0.0)).sum(axis=1)
    # velocity at t=0: the perturbation derivative there is the first knot
    # derivative coefficient (Hermite basis), so no differencing is needed
    chords = targets - z0[None, :]
    v0 = chords + coeffs[:, :, cfg.segments - 1]
    norms = np.linalg.norm(v0, axis=1)
    scale = np.where(norms > 0, lengths / np.maximum(norms, 1e-300), 0.0)
    return v0 * scale[:, None], lengths, coeffs


def log_map(
    target,
    z,
    y,
    cfg: EnergyConfig | None = None,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Initial velocity of the shortest path z -> y, rescaled so its
    Euclidean norm equals the curve length."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    cfg = cfg or EnergyConfig()
    result = minimize_energy_detailed(z, y, target, cfg, rng)
    _, v0 = result.curve.eval(0.0)
    norm = float(np.linalg.norm(v0))
    if norm == 0.0:
        return np.zeros_like(z)
    if isinstance(target, DecoderMap):
        length = curve_length(result.curve, target, cfg.n_disc)
    else:
        length = metric_length(result.curve, target, cfg.n_disc)
    return v0 / norm * length
