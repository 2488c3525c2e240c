"""Locally adaptive normal densities on the latent manifold.

The density is rho(z) = C * exp(-0.5 Log_mu(z)^T Gamma Log_mu(z)) with the
log map taken under the model's metric field. The normalization constant
is estimated by importance sampling in the tangent space with proposal
N(0, Gamma^{-1}); each sample is pushed through the exponential map and
weighted by the metric volume ratio sqrt(det M(Exp_mu(v)) / det M(mu)), so
C normalizes the density against the volume measure relative to the mean
point. The estimate raises DegenerateEstimate when its effective sample
size, measured against the mean's own weight w(0) = 1, falls below 10.
Fitting runs gradient descent on the negative log-likelihood over
(mu, Gamma) with Gamma kept SPD through a log-Cholesky parametrization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateEstimate, InvalidParam, NonConvergence, SingularMetric
# log_map stays imported: bench/selftest.py's NAME_IMPORTS pins statgeo.land.log_map
from .geodesic import EnergyConfig, exp_map_batch, log_map, log_map_batch
from .metric import LatentMetric
from .rng import RngStream

# errors that end land_fit's iterations, or reject one line-search trial
_STEP_ERRORS = (DegenerateEstimate, InvalidParam, SingularMetric, np.linalg.LinAlgError)


def _default_logmap_cfg() -> EnergyConfig:
    # single-segment splines keep the per-point optimizations cheap
    return EnergyConfig(segments=1, n_disc=16, max_iters=60, grad_tol=1e-6, jitter=0.0)


@dataclass
class LandModel:
    """Riemannian normal density: mean point, precision, normalizer."""

    mean: np.ndarray
    precision: np.ndarray
    norm_const: float
    metric: LatentMetric
    mc_samples: int = 256
    seed: int = 0
    logmap_cfg: EnergyConfig = field(default_factory=_default_logmap_cfg)
    converged: bool = True
    nll_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.precision = np.asarray(self.precision, dtype=float)
        if self.norm_const <= 0:
            raise InvalidParam("normalization constant must be > 0")
        if np.any(np.linalg.eigvalsh(self.precision) <= 0):
            raise InvalidParam("precision matrix must be positive definite")


def land_logpdf(model: LandModel, z, rng: RngStream | None = None) -> float:
    """``land_logpdf_batch`` of the one point z."""
    return float(land_logpdf_batch(model, [z], rng)[0])


def land_logpdf_batch(model: LandModel, zs, rng: RngStream | None = None) -> np.ndarray:
    """log C - 0.5 v^T Gamma v per row, with v the log map of the row at the
    mean; a row whose log map is not finite gives a non-finite value."""
    vs, _, _ = log_map_batch(
        model.metric, model.mean, np.atleast_2d(np.asarray(zs, dtype=float)),
        model.logmap_cfg, rng or RngStream(model.seed),
    )
    quad = np.einsum("mi,ij,mj->m", vs, model.precision, vs)
    return np.log(model.norm_const) - 0.5 * quad


def _tangent_proposal(precision, gen, n):
    """Draws from N(0, Gamma^{-1}) via the Cholesky factor of Gamma."""
    chol = np.linalg.cholesky(precision)
    xi = gen.standard_normal((n, precision.shape[0]))
    return np.linalg.solve(chol.T, xi.T).T


def _log_volume_ratio(metric: LatentMetric, mean, zs) -> np.ndarray:
    """0.5 log det M(z) - 0.5 log det M(mean) per row z of zs: the log of the
    metric's volume element at z relative to the mean."""
    _, logdet = np.linalg.slogdet(metric.eval_batch(zs))
    _, logdet_mu = np.linalg.slogdet(metric.eval(mean))
    return 0.5 * (logdet - logdet_mu)


def land_normalizer_stats(
    mean,
    precision,
    metric: LatentMetric,
    rng: RngStream,
    n: int,
    exp_steps: int = 25,
):
    """(C, standard error, effective sample size) of the MC normalizer.

    The effective sample size is (sum w)^2 / max(sum w^2, n): the Kish ESS
    measured against the mean's own weight w(0) = 1, so weights that all
    collapse to w << 1 away from the mean count as a collapse. It equals the
    Kish ESS whenever the mean of w^2 is at least 1. Raises
    DegenerateEstimate when it falls below 10, or when 1/C overflows or
    underflows (a tiny or huge precision, or huge weights).
    """
    mean = np.asarray(mean, dtype=float)
    precision = np.asarray(precision, dtype=float)
    d = mean.size
    if np.any(np.linalg.eigvalsh(precision) <= 0):
        raise InvalidParam("precision matrix must be positive definite")
    vs = _tangent_proposal(precision, rng.generator, n)
    ends = exp_map_batch(metric, np.tile(mean, (n, 1)), vs, steps=exp_steps)
    w = np.exp(_log_volume_ratio(metric, mean, ends))
    if not np.all(np.isfinite(w)):
        raise DegenerateEstimate("normalizer weights are not finite")
    ess = float(w.sum() ** 2 / max(float((w**2).sum()), n, 1e-300))
    if ess < 10.0:
        raise DegenerateEstimate(f"normalizer effective sample size {ess:.1f} < 10")
    sign, logdet_g = np.linalg.slogdet(precision)
    with np.errstate(over="ignore"):  # an overflow raises just below
        base = (2.0 * np.pi) ** (d / 2.0) * np.exp(-0.5 * logdet_g)
        inv_c = base * float(np.mean(w))
    if not (np.isfinite(inv_c) and inv_c > 0):
        raise DegenerateEstimate(f"normalizer 1/C = {inv_c} is not a positive finite number")
    c = 1.0 / inv_c
    se_w = float(np.std(w) / np.sqrt(n))
    se_c = c * se_w / max(float(np.mean(w)), 1e-300)
    return c, se_c, ess


def land_normalizer(mean, precision, metric, rng: RngStream, n: int, **kw) -> float:
    """Monte Carlo normalization constant C of the density."""
    return land_normalizer_stats(mean, precision, metric, rng, n, **kw)[0]


@dataclass
class LandFitConfig:
    """Settings of ``land_fit``, whose descent starts at step 0.25, takes
    central differences of step 1e-4 and converges when max|grad| < 1e-4."""

    max_iters: int = 40
    mc_samples: int = 256
    exp_steps: int = 20
    logmap_cfg: EnergyConfig = field(default_factory=_default_logmap_cfg)


def _log_cholesky_pack(precision):
    """theta: the Cholesky factor's row-major lower triangle, log on the diagonal."""
    chol = np.linalg.cholesky(precision)
    rows, cols = np.tril_indices(chol.shape[0])
    theta = chol[rows, cols]
    diag = rows == cols
    theta[diag] = np.log(theta[diag])
    return theta


def _log_cholesky_unpack(theta, d):
    rows, cols = np.tril_indices(d)
    chol = np.zeros((d, d))
    # clip so a wild line-search probe cannot overflow the factor
    chol[rows, cols] = np.where(rows == cols, np.exp(np.clip(theta, -30.0, 30.0)), theta)
    return chol @ chol.T


def land_fit(
    points,
    metric: LatentMetric,
    init: LandModel | None = None,
    cfg: LandFitConfig | None = None,
    rng: RngStream | None = None,
) -> LandModel:
    """Maximum likelihood (mu, Gamma) by gradient descent on the NLL.

    Log maps are recomputed whenever the mean moves (warm-started from the
    previous curves); the normalizer reuses one seed per outer iteration so
    finite differences see common random numbers. A DegenerateEstimate,
    InvalidParam, SingularMetric (a normalizer shot that meets a singular
    metric) or LinAlgError in an iteration's NLL or gradient probes ends
    the iterations, and in a line-search trial rejects the trial; with no
    accepted step the fit raises NonConvergence carrying the model. The
    model's C comes from a final normalizer of max(``mc_samples``, 1024)
    samples, the model's ``mc_samples``; if that raises one of these
    errors, the model keeps the C of the last NLL evaluated at its
    (mu, Gamma) (the opening NLL's if no step was accepted), with
    ``cfg.mc_samples`` its sample count, and the fit raises
    NonConvergence carrying it. The opening NLL is not guarded: with no C
    to keep yet, an error there propagates.
    """
    cfg = cfg or LandFitConfig()
    rng = rng or RngStream(0)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts, d = pts.shape
    if n_pts < d + 1:
        raise InvalidParam(f"need at least {d + 1} points to fit, got {n_pts}")

    if init is not None:
        mu0, gamma0 = init.mean.copy(), init.precision.copy()
    else:
        mu0 = pts.mean(axis=0)
        cov = np.cov(pts.T) if n_pts > 1 else np.eye(d)
        cov = np.atleast_2d(cov) + 1e-6 * np.eye(d)
        gamma0 = np.linalg.inv(cov)

    theta0 = _log_cholesky_pack(gamma0)
    params = np.concatenate([mu0, theta0])

    coeffs_cur = None  # the accepted curves, which warm-start every log map

    def unpack(p):
        return p[:d], _log_cholesky_unpack(p[d:], d)

    def log_maps(mu):
        vs, _, coeffs = log_map_batch(
            metric, mu, pts, cfg.logmap_cfg, rng.child(1), warm_coeffs=coeffs_cur
        )
        return vs, coeffs

    def nll(p, norm_seed, vs=None):
        mu, gamma = unpack(p)
        if vs is None:
            vs, _ = log_maps(mu)
        c, _, _ = land_normalizer_stats(
            mu, gamma, metric, rng.child(norm_seed), cfg.mc_samples,
            exp_steps=cfg.exp_steps,
        )
        quad = np.einsum("mi,ij,mj->m", vs, gamma, vs)
        return float(-n_pts * np.log(c) + 0.5 * quad.sum()), c

    vs_cur, coeffs_cur = log_maps(mu0)
    seed = 10_000
    e_cur, c_cur = nll(params, seed, vs=vs_cur)  # c_cur: C of the last NLL at params
    trace = [e_cur]
    step = 0.25
    converged = False
    for it in range(cfg.max_iters):
        seed = 10_000 + it
        grad = np.zeros_like(params)
        h = 1e-4
        try:
            e_cur, c_cur = nll(params, seed, vs=vs_cur)
            for i in range(params.size):
                probe = params.copy()
                probe[i] += h
                vs_p = vs_cur if i >= d else None  # theta moves leave log maps fixed
                e_plus = nll(probe, seed, vs=vs_p)[0]
                probe[i] -= 2.0 * h
                e_minus = nll(probe, seed, vs=vs_p)[0]
                grad[i] = (e_plus - e_minus) / (2.0 * h)
        except _STEP_ERRORS:
            break
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < 1e-4:
            converged = True
            break
        gsq = float(grad @ grad)
        accepted = False
        for _ in range(25):
            trial = params - step * grad
            mu_t, _ = unpack(trial)
            vs_t, coeffs_t = log_maps(mu_t)
            try:
                e_new, c_new = nll(trial, seed, vs=vs_t)
            except _STEP_ERRORS:
                e_new = np.inf
            if np.isfinite(e_new) and e_new <= e_cur - 1e-4 * step * gsq:
                params, e_cur, c_cur = trial, e_new, c_new
                vs_cur, coeffs_cur = vs_t, coeffs_t
                trace.append(e_cur)
                accepted = True
                step = min(step * 1.5, 10.0)
                break
            step *= 0.5
        if not accepted:
            break

    mu, gamma = unpack(params)
    n_final = max(cfg.mc_samples, 1024)
    try:
        c, _, _ = land_normalizer_stats(
            mu, gamma, metric, rng.child(99_999), n_final, exp_steps=cfg.exp_steps
        )
        final_error = None
    except _STEP_ERRORS as exc:
        c, converged, final_error = c_cur, False, exc
        n_final = cfg.mc_samples
    model = LandModel(
        mean=mu,
        precision=gamma,
        norm_const=c,
        metric=metric,
        mc_samples=n_final,
        seed=rng.seed,
        logmap_cfg=cfg.logmap_cfg,
        converged=converged,
        nll_trace=trace,
    )
    if final_error is not None:
        raise NonConvergence(
            f"final normalizer failed ({type(final_error).__name__}: {final_error}); "
            f"the model keeps C from the last {cfg.mc_samples}-sample NLL",
            last=model,
        )
    if not converged and len(trace) <= 1:
        raise NonConvergence("density fit made no progress", last=model)
    return model
