import numpy as np
import pytest

import statgeo.land as L
import statgeo.metric as M
from statgeo import io
from statgeo.errors import DegenerateEstimate, InvalidParam, NonConvergence, SingularMetric
from statgeo.geodesic import EnergyConfig
from statgeo.metric import ConstantMetric, GridMetric, PullbackMetric, grid_build
from statgeo.rng import RngStream
from statgeo.toy import toy_circle_codes, toy_decoder

IDENTITY = ConstantMetric(np.eye(2))


def make_model(precision=None, metric=IDENTITY, mean=(0.0, 0.0)):
    precision = np.eye(2) if precision is None else np.asarray(precision)
    c, _, _ = L.land_normalizer_stats(np.asarray(mean, float), precision, metric, RngStream(0), 512)
    return L.LandModel(np.asarray(mean, float), precision, c, metric)


class TestLogPdf:
    def test_at_mean_equals_log_norm_const(self):
        model = make_model()
        assert L.land_logpdf(model, model.mean) == pytest.approx(np.log(model.norm_const))

    def test_matches_gaussian_on_identity_metric(self, gen):
        gamma = np.array([[1.5, 0.3], [0.3, 0.9]])
        model = make_model(gamma)
        for _ in range(5):
            z = gen.normal(size=2)
            expect = (
                -np.log(2 * np.pi)
                + 0.5 * np.log(np.linalg.det(gamma))
                - 0.5 * z @ gamma @ z
            )
            assert L.land_logpdf(model, z) == pytest.approx(expect, abs=1e-3)

    def test_symmetric_under_reflection(self):
        # metric symmetric under z -> -z, so density of v and -v agree
        metric = M.CallableMetric(lambda z: np.diag([1 + z[0] ** 2, 1 + z[1] ** 2]), 2)
        c, _, _ = L.land_normalizer_stats(np.zeros(2), np.eye(2), metric, RngStream(1), 256)
        model = L.LandModel(np.zeros(2), np.eye(2), c, metric)
        z = np.array([0.5, 0.3])
        lp, lm = L.land_logpdf(model, z), L.land_logpdf(model, -z)
        assert abs(lp - lm) / abs(lp) < 0.02


class TestNormalizer:
    def test_gaussian_closed_form_identity_metric(self):
        gamma = np.array([[1.3, 0.2], [0.2, 0.8]])
        c, se, ess = L.land_normalizer_stats(np.zeros(2), gamma, IDENTITY, RngStream(0), 4000)
        expect = (2 * np.pi) ** -1 * np.sqrt(np.linalg.det(gamma))
        assert abs(c - expect) <= 3 * se + 1e-12
        assert ess == pytest.approx(4000)

    def test_gamma_scaling(self):
        gamma = np.array([[1.3, 0.2], [0.2, 0.8]])
        c1 = L.land_normalizer(np.zeros(2), gamma, IDENTITY, RngStream(0), 1000)
        c4 = L.land_normalizer(np.zeros(2), 4 * gamma, IDENTITY, RngStream(0), 1000)
        assert c4 / c1 == pytest.approx(4.0, rel=1e-9)

    def test_stderr_scales_with_sqrt_n(self):
        # diag(1 + z0^2, 1 + z1^2), the metric of test_determinism, built for
        # the whole batch at once instead of one Python call per point (a
        # square here can differ in its last bit from that callable's scalar
        # **, which goes through libm's pow)
        class Diagonal(M.LatentMetric):
            latent_dim = 2

            def eval_batch(self, zs):
                zs = np.atleast_2d(np.asarray(zs, dtype=float))
                out = np.zeros((zs.shape[0], 2, 2))
                out[:, [0, 1], [0, 1]] = 1 + zs**2
                return out

        metric = Diagonal()
        ses = []
        for n in (400, 1600):
            reps = [
                L.land_normalizer_stats(np.zeros(2), np.eye(2), metric, RngStream(s), n)[0]
                for s in range(24)
            ]
            ses.append(np.std(reps))
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.5)

    def test_determinism(self):
        metric = M.CallableMetric(lambda z: np.diag([1 + z[0] ** 2, 1 + z[1] ** 2]), 2)
        a = L.land_normalizer(np.zeros(2), np.eye(2), metric, RngStream(5), 300)
        b = L.land_normalizer(np.zeros(2), np.eye(2), metric, RngStream(5), 300)
        assert a == b

    def test_invalid_precision(self):
        with pytest.raises(InvalidParam):
            L.land_normalizer(np.zeros(2), np.diag([1.0, -1.0]), IDENTITY, RngStream(0), 100)


class TestFit:
    def test_euclidean_mle_on_identity_metric(self):
        gen = np.random.default_rng(314)
        pts = gen.normal(size=(500, 2)) + np.array([0.7, -0.3])
        model = L.land_fit(pts, IDENTITY, rng=RngStream(7))
        assert np.linalg.norm(model.mean - pts.mean(axis=0)) < 0.1
        mle = np.linalg.inv(np.cov(pts.T) * (len(pts) - 1) / len(pts))
        assert np.linalg.norm(model.precision - mle) / np.linalg.norm(mle) < 0.15

    def test_single_repeated_point(self):
        pts = np.tile(np.array([0.4, -0.2]), (12, 1))
        cfg = L.LandFitConfig(max_iters=5, mc_samples=64)
        model = L.land_fit(pts, IDENTITY, cfg=cfg, rng=RngStream(3))
        assert np.linalg.norm(model.mean - pts[0]) < 1e-6

    def test_needs_enough_points(self):
        with pytest.raises(InvalidParam):
            L.land_fit(np.zeros((2, 2)), IDENTITY, rng=RngStream(0))

    def test_nll_trace_monotone(self):
        gen = np.random.default_rng(11)
        pts = gen.normal(size=(60, 2))
        cfg = L.LandFitConfig(max_iters=10, mc_samples=128)
        model = L.land_fit(pts, IDENTITY, cfg=cfg, rng=RngStream(2))
        trace = model.nll_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_model_records_the_final_normalizer_sample_count(self):
        # C comes from the final max(mc_samples, 1024)-sample normalizer
        pts = np.random.default_rng(11).normal(size=(30, 2))
        cfg = L.LandFitConfig(max_iters=2, mc_samples=64)
        model = L.land_fit(pts, IDENTITY, cfg=cfg, rng=RngStream(2))
        assert model.mc_samples == 1024
        back = io.land_from_dict(io.land_to_dict(model, metric_ref="identity"), IDENTITY)
        assert back.mc_samples == 1024 and back.norm_const == model.norm_const

    def test_grid_metric_beats_euclidean_gaussian_nll(self):
        # paired comparison on the same data and the same normalizer scheme:
        # the fitted model must strictly improve on its Euclidean-Gaussian
        # initialization (sample mean, inverse sample covariance)
        codes = toy_circle_codes(80, 0.1, RngStream(21))
        dec = toy_decoder("beta", seed=5, regularized=False)
        grid = grid_build(PullbackMetric(dec), [[-1.6, 1.6], [-1.6, 1.6]], (12, 12), 0.35)
        metric = GridMetric(grid)
        cfg = L.LandFitConfig(
            max_iters=6, mc_samples=128, exp_steps=15,
            logmap_cfg=EnergyConfig(segments=1, n_disc=12, max_iters=40, grad_tol=1e-5, jitter=0.0),
        )
        model = L.land_fit(codes, metric, cfg=cfg, rng=RngStream(4))
        trace = model.nll_trace
        assert len(trace) >= 2 and trace[-1] < trace[0]


def test_degenerate_estimate_raises():
    # a metric whose determinant collapses away from the mean gives
    # negligible weights for almost all proposal draws
    def fn(z):
        s = 1e-12 if np.linalg.norm(z) > 1e-3 else 1.0
        return np.diag([s, s])

    metric = M.CallableMetric(fn, 2)
    with pytest.raises(DegenerateEstimate):
        L.land_normalizer(np.zeros(2), np.eye(2), metric, RngStream(0), 200)


def test_uniformly_scaled_metric_is_not_degenerate():
    # weights are ratios to the mean's own volume, so a metric that is tiny
    # everywhere gives w = 1 for every draw: an absolute threshold on w or
    # det M would wrongly call this a collapse
    metric = ConstantMetric(1e-12 * np.eye(2))
    c, _, ess = L.land_normalizer_stats(np.zeros(2), np.eye(2), metric, RngStream(0), 200)
    assert ess == 200
    assert c == pytest.approx(1 / (2 * np.pi), rel=1e-12)


def test_overflowing_normalizer_raises():
    # 1/C = (2 pi)^(d/2) det(Gamma)^(-1/2) mean(w) overflows for a tiny
    # precision; C = 0 would make the NLL log(0) instead of a rejected trial
    metric = ConstantMetric(np.eye(3))
    with pytest.raises(DegenerateEstimate):
        L.land_normalizer_stats(np.zeros(3), 1e-210 * np.eye(3), metric, RngStream(0), 64)


@pytest.mark.parametrize("seed,skip", [(10_001, 0), (10_000, 1)])
def test_failing_iteration_nll_ends_the_fit(monkeypatch, seed, skip):
    # the stub fails every normalizer drawn from rng.child(seed) after the
    # first `skip`: iteration 1's NLL (after one accepted step), or
    # iteration 0's NLL (the opening NLL shares its seed; no step accepted)
    gen = np.random.default_rng(11)
    pts = gen.normal(size=(60, 2))
    cfg = L.LandFitConfig(max_iters=10, mc_samples=128)
    real, calls = L.land_normalizer_stats, []
    bad = RngStream(2).child(seed).generator.bit_generator.state

    def stub(mean, precision, metric, rng, n, **kw):
        if rng.generator.bit_generator.state == bad:
            calls.append(1)
            if len(calls) > skip:
                raise DegenerateEstimate("stub")
        return real(mean, precision, metric, rng, n, **kw)

    monkeypatch.setattr(L, "land_normalizer_stats", stub)
    if skip == 0:
        model = L.land_fit(pts, IDENTITY, cfg=cfg, rng=RngStream(2))
        assert len(model.nll_trace) == 2
    else:
        with pytest.raises(NonConvergence) as err:
            L.land_fit(pts, IDENTITY, cfg=cfg, rng=RngStream(2))
        model = err.value.last
        assert len(model.nll_trace) == 1
    assert not model.converged and model.norm_const > 0


@pytest.mark.parametrize("step_accepted", [True, False], ids=["after-steps", "no-step"])
def test_failing_final_normalizer_keeps_the_last_nll_c(monkeypatch, step_accepted):
    # the final normalizer (rng.child(99_999)) raises SingularMetric: the fit
    # still returns its model through NonConvergence, with the C of the last
    # NLL evaluated at the model's (mu, Gamma); with no step accepted (every
    # iteration-0 normalizer after the opening one fails) that is the opening C
    gen = np.random.default_rng(11)
    pts = gen.normal(size=(60, 2))
    cfg = L.LandFitConfig(max_iters=3, mc_samples=128)
    real, seen, opening = L.land_normalizer_stats, [], []
    final = RngStream(2).child(99_999).generator.bit_generator.state
    first = RngStream(2).child(10_000).generator.bit_generator.state

    def stub(mean, precision, metric, rng, n, **kw):
        state = rng.generator.bit_generator.state
        if state == final:
            raise SingularMetric("stub")
        if not step_accepted and state == first:
            opening.append(1)
            if len(opening) > 1:
                raise SingularMetric("stub")
        out = real(mean, precision, metric, rng, n, **kw)
        seen.append((mean.copy(), precision.copy(), out[0]))
        return out

    monkeypatch.setattr(L, "land_normalizer_stats", stub)
    with pytest.raises(NonConvergence) as err:
        L.land_fit(pts, IDENTITY, cfg=cfg, rng=RngStream(2))
    model = err.value.last
    at_model = [c for mean, precision, c in seen
                if np.array_equal(mean, model.mean) and np.array_equal(precision, model.precision)]
    assert at_model and model.norm_const == at_model[-1]
    assert model.mc_samples == 128 and not model.converged
    assert (len(model.nll_trace) > 1) == step_accepted
    if not step_accepted:
        assert model.norm_const == seen[0][2]


def test_line_search_trial_with_a_singular_normalizer_is_rejected(monkeypatch):
    # a normalizer shot that meets a singular metric raises SingularMetric
    # from the exp map; in a line-search trial that rejects the trial (the
    # step halves and the next trial is tried) instead of ending the fit
    gen = np.random.default_rng(11)
    pts = gen.normal(size=(60, 2))
    init = L.LandModel(pts.mean(axis=0), 4.0 * np.eye(2), 1.0, IDENTITY)
    cfg = L.LandFitConfig(max_iters=3, mc_samples=128)
    real, raised = L.land_normalizer_stats, []

    def stub(mean, precision, metric, rng, n, **kw):
        # gradient probes move the precision by ~1e-3; the first trial moves it further
        if not raised and np.max(np.abs(precision - init.precision)) > 0.05:
            raised.append(precision)
            raise SingularMetric("stub")
        return real(mean, precision, metric, rng, n, **kw)

    monkeypatch.setattr(L, "land_normalizer_stats", stub)
    model = L.land_fit(pts, IDENTITY, init=init, cfg=cfg, rng=RngStream(2))
    assert len(raised) == 1
    assert len(model.nll_trace) >= 2 and model.nll_trace[-1] < model.nll_trace[0]
    assert not np.array_equal(model.precision, raised[0])
