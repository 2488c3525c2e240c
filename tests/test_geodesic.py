from dataclasses import replace

import numpy as np
import pytest

import statgeo.geodesic as G
import statgeo.metric as M
from statgeo.decoder import DecoderMap, Head, LayerSpec
from statgeo.errors import FamilyMismatch, NonFiniteEnergy, OutOfRange, ShapeError, SingularMetric
from statgeo.families import get_family
from statgeo.geodesic import EnergyConfig, SplineCurve, straight_line
from statgeo.rng import RngStream
from statgeo.toy import identity_parameter_decoder, toy_circle_codes, toy_decoder

from conftest import rel_frob


def normal_fisher_rao_distance(a, b) -> float:
    """The closed-form Fisher-Rao distance between N(a) and N(b) in the
    (mean, variance) chart: sqrt(2) arccosh(1 + ((mu1 - mu2)^2 / 2 +
    (s1 - s2)^2) / (2 s1 s2)), s = sqrt(variance)."""
    s1, s2 = np.sqrt(a[1]), np.sqrt(b[1])
    return float(np.sqrt(2.0) * np.arccosh(
        1.0 + ((a[0] - b[0]) ** 2 / 2.0 + (s1 - s2) ** 2) / (2.0 * s1 * s2)
    ))


def fd_gradient(energy, h: float):
    """Central differences over every coefficient, the reference for the
    analytic gradients; each probe is one energy call over the rows."""

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


def gradient(evaluate):
    """An energy's ``evaluate`` as a gradient function of (coeffs, rows):
    every row's gradient from one evaluation."""
    return lambda coeffs, rows: evaluate(coeffs, rows)[1](np.arange(len(rows)))


def edit_gradient(evaluate, edit):
    """``evaluate`` whose gradient_of(sel) passes the gradients of rows[sel]
    through edit(g, rows[sel]); its Gauss-Newton element passes unchanged."""

    def edited(coeffs, rows):
        energies, gradient_of, gauss_newton_of = evaluate(coeffs, rows)
        return energies, lambda sel: edit(gradient_of(sel), rows[sel]), gauss_newton_of

    return edited


class TestCurve:
    def test_zero_coefficients_straight_line(self, gen):
        z0, z1 = gen.normal(size=2), gen.normal(size=2)
        c = straight_line(z0, z1)
        for t in (0.0, 0.25, 0.8, 1.0):
            z, zdot = G.curve_eval(c, t)
            assert np.allclose(z, z0 + t * (z1 - z0))
            assert np.allclose(zdot, z1 - z0)

    def test_endpoints_exact(self, gen):
        c = SplineCurve(gen.normal(size=3), gen.normal(size=3), 4, gen.normal(size=(3, 8)))
        assert np.array_equal(G.curve_eval(c, 0.0)[0], c.z0)
        assert np.array_equal(G.curve_eval(c, 1.0)[0], c.z1)

    def test_velocity_matches_finite_difference(self, gen):
        c = SplineCurve(gen.normal(size=2), gen.normal(size=2), 4, gen.normal(size=(2, 8)))
        h = 1e-6
        # 100 interior parameters away from the knots, where c'' jumps
        ts = np.linspace(0.01, 0.99, 100)
        ts = ts[np.abs(ts * c.segments - np.round(ts * c.segments)) > 2 * h * c.segments]
        zs, zdots = c.eval(ts)
        zp, _ = c.eval(ts + h)
        zm, _ = c.eval(ts - h)
        fd = (zp - zm) / (2 * h)
        assert np.max(np.abs(fd - zdots)) < 1e-6 * (1 + np.max(np.abs(zdots)))

    def test_continuity_at_knots(self, gen):
        c = SplineCurve(gen.normal(size=2), gen.normal(size=2), 4, gen.normal(size=(2, 8)))
        for j in range(1, c.segments):
            t = j / c.segments
            zl, vl = c.eval(t - 1e-12)
            zr, vr = c.eval(t + 1e-12)
            assert np.allclose(zl, zr, atol=1e-9)
            assert np.allclose(vl, vr, atol=1e-9)

    @pytest.mark.parametrize("segments", [1, 4])
    def test_basis_times_coeffs_plus_chord_is_eval(self, gen, segments):
        # the analytic gradient contracts with the basis, so it must be the
        # exact linear map from coefficients to curve points
        c = SplineCurve(
            gen.normal(size=3), gen.normal(size=3), segments, gen.normal(size=(3, 2 * segments))
        )
        ts = np.linspace(0.0, 1.0, 57)
        line = c.z0[None, :] + ts[:, None] * (c.z1 - c.z0)[None, :]
        assert np.max(np.abs(line + c.basis(ts) @ c.coeffs.T - c.eval(ts)[0])) < 1e-14

    def test_out_of_range(self):
        c = straight_line(np.zeros(2), np.ones(2))
        with pytest.raises(OutOfRange):
            G.curve_eval(c, 1.5)
        with pytest.raises(OutOfRange):
            G.curve_eval(c, -0.2)


class TestKlEnergy:
    def test_constant_curve_zero(self):
        dec = identity_parameter_decoder("normal")
        c = straight_line(np.array([0.3, 1.0]), np.array([0.3, 1.0]))
        assert G.kl_energy(c, dec, 500) == pytest.approx(0.0, abs=1e-15)

    def test_straight_line_identity_normal(self):
        # gamma(t) = (t, 1): energy integral of zdot' M zdot = 1 with
        # M = diag(1, 1/2); the discrete sum N=1000 sits within 1%
        dec = identity_parameter_decoder("normal")
        c = straight_line(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert G.kl_energy(c, dec, 1000) == pytest.approx(1.0, rel=0.01)

    def test_refinement_convergence(self, gen):
        dec = toy_decoder("beta", seed=12, regularized=False)
        c = SplineCurve(gen.normal(size=2), gen.normal(size=2), 4, 0.1 * gen.normal(size=(2, 8)))
        e1, e2 = G.kl_energy(c, dec, 1000), G.kl_energy(c, dec, 2000)
        assert abs(e2 - e1) / abs(e1) < 0.005

    def test_nonfinite_reports_t(self):
        # mean differences overflow to inf on the second half of the chord
        dec = identity_parameter_decoder("normal")
        c = straight_line(np.array([0.0, 1.0]), np.array([1e200, 1.0]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEnergy) as err:
            G.kl_energy(c, dec, 100)
        assert err.value.t is not None and 0.0 <= err.value.t <= 1.0


class TestCurveLength:
    def test_constant_curve_zero(self):
        dec = identity_parameter_decoder("normal")
        c = straight_line(np.array([0.3, 1.0]), np.array([0.3, 1.0]))
        assert G.curve_length(c, dec, 500) == 0.0

    def test_cauchy_schwarz_on_random_curves(self, gen):
        dec = toy_decoder("gamma", seed=13, regularized=False)
        for _ in range(20):
            c = SplineCurve(
                gen.normal(size=2), gen.normal(size=2), 4, 0.2 * gen.normal(size=(2, 8))
            )
            energy = G.kl_energy(c, dec, 600)
            length = G.curve_length(c, dec, 600)
            assert length**2 <= energy * 1.0 + 1e-9

    def test_equality_for_constant_speed_line(self):
        dec = identity_parameter_decoder("normal")
        c = straight_line(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        energy = G.kl_energy(c, dec, 2000)
        length = G.curve_length(c, dec, 2000)
        assert length**2 == pytest.approx(energy, rel=0.01)


class TestCategoricalEnergy:
    def test_constant_curve_zero(self):
        dec = M.simplex_chart_decoder(3)
        c = straight_line(np.array([0.3, 0.3]), np.array([0.3, 0.3]))
        # each term's rounding is scaled by 4N with the energy
        n = 300
        assert G.categorical_energy(c, dec, n) == pytest.approx(0.0, abs=4 * n * 1e-12)

    def test_small_angle_terms(self):
        # adjacent points theta apart on the sqrt-sphere contribute ~ 4 theta^2,
        # the squared Fisher-Rao length 2 theta
        dec = M.simplex_chart_decoder(2)
        c = straight_line(np.array([0.1]), np.array([0.9]))
        n = 2000
        energy = G.categorical_energy(c, dec, n)
        total_angle = np.arccos(np.sqrt(0.1) * np.sqrt(0.9) + np.sqrt(0.9) * np.sqrt(0.1))
        # the energy approaches the squared Fisher-Rao distance (2 angle)^2
        # from above as the per-step angles shrink
        assert energy == pytest.approx(4.0 * total_angle**2, rel=0.05)

    def test_family_mismatch(self):
        dec = identity_parameter_decoder("normal")
        c = straight_line(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(FamilyMismatch):
            G.categorical_energy(c, dec, 100)

    def test_k2_geodesic_matches_arccos_oracle(self):
        # minimized energy ~ 4 arccos^2(sqrt(eta) . sqrt(eta')) = 4 arccos(0.6)^2
        dec = M.simplex_chart_decoder(2)
        cfg = EnergyConfig(
            n_disc=500, segments=4, max_iters=400, grad_tol=1e-10,
            objective="categorical",
        )
        res = G.minimize_energy_detailed(
            np.array([0.1]), np.array([0.9]), dec, cfg, RngStream(4)
        )
        oracle = 4.0 * np.arccos(0.6) ** 2
        assert res.energy == pytest.approx(oracle, rel=0.02)

    def test_chart_geodesic_from_the_boundary_stays_on_the_simplex(self):
        # z0 decodes to (0, 0.5, 0.5), on the simplex's boundary; the chart
        # decodes to negative probabilities outside the simplex, whose
        # segments cost +inf, so the fit cannot run off to -inf energy
        dec = M.simplex_chart_decoder(3)
        cfg = EnergyConfig(n_disc=64, segments=4, jitter=0.0, objective="categorical")
        z0, z1 = np.array([0.0, 0.5]), np.array([0.5, 0.2])
        res = G.minimize_energy_detailed(z0, z1, dec, cfg, RngStream(0))
        p, q = np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.2, 0.3])
        oracle = 4.0 * np.arccos(np.sum(np.sqrt(p * q))) ** 2
        assert res.converged
        assert abs(res.energy - oracle) < 4e-4
        zs, _ = res.curve.eval(np.arange(cfg.n_disc + 1) / cfg.n_disc)
        assert np.all(zs >= 0.0) and np.all(zs.sum(axis=1) <= 1.0)

    def test_segment_off_the_simplex_is_not_finite(self):
        # the third probability along the chord is 0.6 - 0.9 t: the node at
        # t = 11/16 is the first outside the simplex, so the segment that
        # starts at t = 10/16 is the first whose term is +inf
        dec = M.simplex_chart_decoder(3)
        c = straight_line(np.array([0.2, 0.2]), np.array([0.6, 0.7]))
        with pytest.raises(NonFiniteEnergy) as err:
            G.categorical_energy(c, dec, 16)
        assert err.value.t == pytest.approx(0.625)


@pytest.mark.parametrize(
    "setting",
    [{"objective": "categorial"}, {"gradient_mode": "fd"}, {"segments": 0}, {"jitter": np.nan},
     {"jitter": -1.0}, {"jitter": np.inf}],
    ids=["objective", "gradient_mode", "segments", "jitter-nan", "jitter-negative", "jitter-inf"],
)
def test_energy_config_rejects_unknown_settings(setting):
    # segments=0 used to fail later with a bare ZeroDivisionError in
    # hermite_basis, and a NaN or negative jitter was silently taken as 0
    with pytest.raises(ShapeError):
        EnergyConfig(**setting)


class TestMinimizeEnergy:
    def test_flat_metric_stays_straight(self, gen):
        cm = M.ConstantMetric(np.array([[1.5, 0.2], [0.2, 0.9]]))
        z0, z1 = gen.normal(size=2), gen.normal(size=2)
        cfg = EnergyConfig(n_disc=64, max_iters=400, grad_tol=1e-9)
        res = G.minimize_energy_detailed(z0, z1, cm, cfg, RngStream(5))
        ts = np.linspace(0, 1, 41)
        zs, _ = res.curve.eval(ts)
        line = z0[None, :] + ts[:, None] * (z1 - z0)[None, :]
        assert np.max(np.abs(zs - line)) < 1e-3

    def test_energy_never_exceeds_straight_line(self, gen):
        dec = toy_decoder("beta", seed=14)
        for i in range(3):
            z0, z1 = gen.normal(size=2), gen.normal(size=2)
            cfg = EnergyConfig(n_disc=64, max_iters=25, gradient_mode="analytic")
            res = G.minimize_energy_detailed(z0, z1, dec, cfg, RngStream(i))
            assert res.energy <= res.straight_energy + 1e-12

    def test_trace_monotone(self, gen):
        dec = toy_decoder("normal", seed=15)
        cfg = EnergyConfig(n_disc=64, max_iters=40, gradient_mode="analytic")
        res = G.minimize_energy_detailed(
            gen.normal(size=2), gen.normal(size=2), dec, cfg, RngStream(2)
        )
        trace = res.energy_trace
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_mirror_symmetric_problem(self):
        # metric symmetric under z1 -> -z1 and endpoints mirrored: optimal
        # curve must equal its own reflection
        def fn(z):
            return np.diag([1.0 + z[1] ** 2, 2.0 + z[0] ** 2])

        metric = M.CallableMetric(fn, 2)
        z0, z1 = np.array([-1.0, 0.4]), np.array([1.0, 0.4])
        cfg = EnergyConfig(n_disc=80, max_iters=400, grad_tol=1e-10)
        res = G.minimize_energy_detailed(z0, z1, metric, cfg, RngStream(6))
        ts = np.linspace(0, 1, 33)
        zs, _ = res.curve.eval(ts)
        mirrored = zs[::-1] * np.array([-1.0, 1.0])
        assert np.max(np.abs(zs - mirrored)) < 1e-3


class TestOdeRhs:
    def test_constant_metric_zero(self):
        cm = M.ConstantMetric(np.diag([2.0, 3.0]))
        acc = G.ode_rhs(cm, np.zeros(2), np.array([1.0, -2.0]))
        assert np.allclose(acc, 0.0, atol=1e-12)

    def test_exponential_1d(self):
        m = M.CallableMetric(lambda z: np.array([[np.exp(2 * z[0])]]), 1)
        acc = G.ode_rhs(m, np.array([0.4]), np.array([1.3]))
        assert acc[0] == pytest.approx(-(1.3**2), abs=1e-4)

    def test_zero_velocity(self):
        m = M.CallableMetric(lambda z: np.diag([np.exp(2 * z[0]), 1.0 + z[1] ** 2]), 2)
        assert np.allclose(G.ode_rhs(m, np.ones(2), np.zeros(2)), 0.0)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.8, -0.3), (1.2, 0.1)])
    def test_diagonal_exponential_christoffels(self, a, b, gen):
        metric = M.CallableMetric(
            lambda z: np.diag([np.exp(2 * a * z[0]), np.exp(2 * b * z[1])]), 2
        )
        for _ in range(5):
            z, v = gen.normal(size=2) * 0.5, gen.normal(size=2)
            got = G.ode_rhs(metric, z, v)
            expected = np.array([-a * v[0] ** 2, -b * v[1] ** 2])
            assert np.max(np.abs(got - expected)) < 1e-4


class TestExpLog:
    smooth = M.CallableMetric(
        lambda z: np.array(
            [[1 + z[1] ** 2, 0.2 * z[0] * z[1]], [0.2 * z[0] * z[1], 1 + z[0] ** 2]]
        ),
        2,
    )

    def test_constant_metric_endpoint(self):
        cm = M.ConstantMetric(np.eye(2))
        assert np.allclose(G.exp_map(cm, [0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])

    def test_zero_velocity_identity(self):
        assert np.allclose(G.exp_map(self.smooth, [0.3, 0.4], [0.0, 0.0]), [0.3, 0.4])

    def test_step_halving_endpoint_stability(self):
        z0, v0 = np.array([0.1, -0.2]), np.array([0.9, 0.5])
        e1 = G.exp_map(self.smooth, z0, v0, steps=64)
        e2 = G.exp_map(self.smooth, z0, v0, steps=128)
        assert np.linalg.norm(e1 - e2) < 1e-6

    def test_rk4_observed_order(self):
        z0, v0 = np.array([0.1, -0.2]), np.array([0.9, 0.5])
        ref = G.exp_map(self.smooth, z0, v0, steps=256)
        errs = [
            np.linalg.norm(G.exp_map(self.smooth, z0, v0, steps=s) - ref)
            for s in (8, 16, 32)
        ]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5

    def test_log_same_point_zero(self):
        cm = M.ConstantMetric(np.eye(2))
        v = G.log_map(cm, np.array([0.4, 0.1]), np.array([0.4, 0.1]),
                      EnergyConfig(n_disc=16, max_iters=50), RngStream(1))
        assert np.allclose(v, 0.0, atol=1e-6)

    def test_log_identity_metric(self):
        cm = M.ConstantMetric(np.eye(2))
        cfg = EnergyConfig(n_disc=32, max_iters=200, grad_tol=1e-11, jitter=0.0)
        z, y = np.array([0.0, 0.0]), np.array([0.6, -0.4])
        assert np.allclose(G.log_map(cm, z, y, cfg, RngStream(2)), y - z, atol=1e-9)

    def test_roundtrip_constant_metrics(self, gen):
        for mat in (np.eye(2), np.diag([2.0, 0.7]), np.array([[1.4, 0.3], [0.3, 0.9]])):
            cm = M.ConstantMetric(mat)
            cfg = EnergyConfig(n_disc=32, max_iters=300, grad_tol=1e-12, jitter=0.0)
            z, y = gen.normal(size=2), gen.normal(size=2)
            v = G.log_map(cm, z, y, cfg, RngStream(3))
            assert np.linalg.norm(G.exp_map(cm, z, v, steps=32) - y) < 1e-9

    def test_roundtrip_smooth_metric(self, gen):
        cfg = EnergyConfig(n_disc=96, segments=4, max_iters=500, grad_tol=1e-10, jitter=0.0)
        z, y = np.array([0.0, 0.3]), np.array([0.8, -0.4])
        v = G.log_map(self.smooth, z, y, cfg, RngStream(4))
        end = G.exp_map(self.smooth, z, v, steps=128)
        assert np.linalg.norm(end - y) < 1e-2


class TestReparametrizationInvariance:
    def test_minimized_length_invariant(self, gen):
        import statgeo.decoder as D

        dec = toy_decoder("beta", seed=17)
        a = np.array([[0.8, 0.25], [-0.15, 1.1]])
        dec_rel = D.compose_linear(dec, np.linalg.inv(a))
        cfg = EnergyConfig(n_disc=128, max_iters=250, gradient_mode="analytic", grad_tol=1e-8)
        codes = np.array([[1.0, 0.0], [-0.6, 0.75]])
        res = G.minimize_energy_detailed(codes[0], codes[1], dec, cfg, RngStream(5))
        length = G.curve_length(res.curve, dec, cfg.n_disc)
        res2 = G.minimize_energy_detailed(a @ codes[0], a @ codes[1], dec_rel, cfg, RngStream(6))
        length2 = G.curve_length(res2.curve, dec_rel, cfg.n_disc)
        assert abs(length - length2) / length < 0.01


class TestBatchedSolvers:
    smooth = TestExpLog.smooth

    def test_log_map_batch_rows_are_independent(self):
        # each curve keeps its own step and stopping rule, so a row solved
        # in a batch equals the same row solved alone
        cfg = EnergyConfig(n_disc=24, segments=2, max_iters=80, jitter=0.0)
        z0 = np.array([0.1, -0.2])
        targets = np.array([[0.8, 0.3], [-0.5, 0.6], [0.2, -0.9]])
        vs, lengths, coeffs = G.log_map_batch(self.smooth, z0, targets, cfg, RngStream(1))
        for k, y in enumerate(targets):
            v1, l1, c1 = G.log_map_batch(self.smooth, z0, y[None], cfg, RngStream(2))
            assert np.max(np.abs(v1[0] - vs[k])) < 1e-12
            assert abs(l1[0] - lengths[k]) < 1e-12
            assert np.max(np.abs(c1[0] - coeffs[k])) < 1e-12
            v = G.log_map(self.smooth, z0, y, cfg, RngStream(3))
            assert np.max(np.abs(v - vs[k])) < 1e-12

    def test_exp_map_batch_rows_match_exp_map(self, gen):
        zs = 0.4 * gen.normal(size=(4, 2))
        vs = 0.5 * gen.normal(size=(4, 2))
        vs[2] = 0.0
        ends = G.exp_map_batch(self.smooth, zs, vs, steps=40)
        for z, v, end in zip(zs, vs, ends):
            assert np.max(np.abs(G.exp_map(self.smooth, z, v, steps=40) - end)) < 1e-12

    @pytest.mark.parametrize("shoot", [
        lambda metric, z, v: G.exp_map(metric, z, v),
        lambda metric, z, v: G.exp_map_batch(metric, z[None], v[None]),
    ], ids=["exp_map", "exp_map_batch"])
    def test_indefinite_start_tensor_is_singular(self, shoot):
        # v = (0, 1) has squared metric norm -1: both maps raise before any
        # square root or division, so no floating-point warning fires
        metric = M.ConstantMetric(np.diag([1.0, -1.0]))
        with np.errstate(all="raise"), pytest.raises(SingularMetric):
            shoot(metric, np.zeros(2), np.array([0.0, 1.0]))

    def test_batch_row_moving_where_the_metric_vanishes_is_singular(self):
        # M = 0 for z_0 >= 1: the second row's nonzero v has no metric norm
        # to be scaled to, which the rescale reports before any shooting step
        metric = M.CallableMetric(lambda z: np.eye(2) * (z[0] < 1), 2)
        zs, vs = np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[0.0, 0.0], [0.1, 0.0]])
        with np.errstate(all="raise"), pytest.raises(SingularMetric, match="shooting direction"):
            G.exp_map_batch(metric, zs, vs)
        # a zero-velocity row on a regular metric stays at its start point
        zs, vs = np.array([[0.3, 0.4], [0.1, -0.2]]), np.array([[0.0, 0.0], [0.2, 0.1]])
        ends = G.exp_map_batch(self.smooth, zs, vs)
        assert np.array_equal(ends[0], zs[0])
        assert np.all(np.isfinite(ends[1])) and not np.array_equal(ends[1], zs[1])

    @pytest.mark.parametrize("steps", [0, -1, -3, 2.5])
    @pytest.mark.parametrize("shoot", [
        lambda metric, z, v, steps: G.exp_map(metric, z, v, steps=steps),
        lambda metric, z, v, steps: G.exp_map_batch(metric, z[None], v[None], steps=steps),
    ], ids=["exp_map", "exp_map_batch"])
    def test_step_count_that_is_not_a_positive_integer_is_a_shape_error(self, shoot, steps):
        # instead of returning the start point (steps < 0) or dividing by zero
        with pytest.raises(ShapeError, match="step count"):
            shoot(self.smooth, np.array([0.1, -0.2]), np.array([0.9, 0.5]), steps)

    @pytest.mark.parametrize("source", ["grid", "callable"])
    def test_a_shooting_step_evaluates_the_metric_three_times(self, monkeypatch, source):
        # stages 2 and 3 share one position, so a step is 3 evaluations of
        # M and dM/dz; the start tensors come from eval/eval_batch
        metric = self.smooth
        if source == "grid":
            metric = M.GridMetric(M.grid_build(self.smooth, [[-1, 1], [-1, 1]], (6, 6), 0.4))
        calls, real = [], metric.eval_batch_and_grad

        def counting(zs):
            calls.append(len(zs))
            return real(zs)

        monkeypatch.setattr(metric, "eval_batch_and_grad", counting)
        z, v = np.array([0.1, -0.2]), np.array([0.3, 0.2])
        for steps in (1, 7):
            calls.clear()
            G.exp_map(metric, z, v, steps=steps)
            assert calls == [1] * (3 * steps)
            calls.clear()
            G.exp_map_batch(metric, np.tile(z, (4, 1)), np.tile(v, (4, 1)), steps=steps)
            assert calls == [4] * (3 * steps)

    def test_single_curve_calls_raise_nonfinite_energy(self):
        # the metric is infinite past x = 0.5: the straight chord's energy is
        # not finite, which single-curve calls report with its t while the
        # batched log map returns a non-finite row
        metric = M.CallableMetric(lambda z: np.diag([1.0 if z[0] <= 0.5 else np.inf] * 2), 2)
        cfg = EnergyConfig(n_disc=16, segments=1, max_iters=5, jitter=0.0)
        z0, z1 = np.zeros(2), np.array([1.0, 0.0])
        # the finite-difference slopes at the infinite tensors are inf - inf
        with pytest.raises(NonFiniteEnergy) as err:
            with pytest.warns(RuntimeWarning, match="invalid value"):
                G.minimize_energy_detailed(z0, z1, metric, cfg, RngStream(0))
        assert err.value.t == pytest.approx(0.5)
        with pytest.raises(NonFiniteEnergy) as err:
            with pytest.warns(RuntimeWarning, match="invalid value"):
                G.log_map(metric, z0, z1, cfg, RngStream(0))
        assert err.value.t == pytest.approx(0.5)
        with np.errstate(invalid="ignore"):
            vs, lengths, _ = G.log_map_batch(metric, z0, z1[None], cfg, RngStream(0))
        assert not np.isfinite(lengths[0]) and not np.all(np.isfinite(vs))


class TestGraphGradient:
    smooth = M.CallableMetric(lambda z: np.diag(1.0 + z**2), 2)

    @staticmethod
    def grid_metric(gen):
        lattice = M.lattice_points([[-2.0, 2.0], [-2.0, 2.0]], (12, 12))
        a = gen.normal(size=(len(lattice), 2, 2))
        tensors = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(2)
        grid = M.MetricGrid(tensors, 0.4, [[-2.0, 2.0], [-2.0, 2.0]], (12, 12))
        return M.GridMetric(grid)

    @pytest.mark.parametrize("segments", [1, 4])
    @pytest.mark.parametrize("source", ["callable", "grid"])
    def test_analytic_matches_fd_gradient(self, gen, source, segments):
        metric = self.smooth if source == "callable" else self.grid_metric(gen)
        z0, targets = np.array([0.3, -0.5]), gen.uniform(-1.5, 1.5, size=(5, 2))
        energy, _, evaluate = G._graph_energy(metric, z0, targets, segments, 16, strict=False)
        grad = gradient(evaluate)
        coeffs, rows = 0.1 * gen.normal(size=(5, 2, 2 * segments)), np.arange(5)
        want = fd_gradient(energy, 1e-6)(coeffs, rows)
        assert rel_frob(grad(coeffs, rows), want) < 1e-6
        sub = rows[[1, 3]]
        assert rel_frob(grad(coeffs[sub], sub), want[sub]) < 1e-6

    def test_strict_gradient_raises_at_its_t(self):
        metric = M.CallableMetric(lambda z: np.diag([1.0 if z[0] <= 0.5 else np.inf] * 2), 2)
        z0, z1 = np.zeros(2), np.array([1.0, 0.0])
        _, _, grad = G._graph_energy(metric, z0, z1[None], 1, 16, strict=True)
        with pytest.raises(NonFiniteEnergy) as err, np.errstate(invalid="ignore"):
            grad(np.zeros((1, 2, 2)), np.arange(1))
        assert err.value.t == pytest.approx(0.5)
        cfg = EnergyConfig(n_disc=16, segments=1, max_iters=5, jitter=0.0,
                           gradient_mode="analytic")
        with pytest.raises(NonFiniteEnergy) as err:
            with pytest.warns(RuntimeWarning, match="invalid value"):
                G.log_map(metric, z0, z1, cfg, RngStream(0))
        assert err.value.t == pytest.approx(0.5)


class TestDecoderEnergy:
    dec = toy_decoder("beta", seed=5)

    def test_identity_normal_chord_is_exact(self):
        # (0, 1) -> (1, 1) moves the mean at unit variance: each of the N
        # segments has 2 KL = 1/N^2, so energy and length are both exactly 1
        dec = identity_parameter_decoder("normal")
        c = straight_line(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        for n in (4, 16):
            assert abs(G.kl_energy(c, dec, n) - 1.0) < 1e-12
            assert abs(G.curve_length(c, dec, n) - 1.0) < 1e-12

    @staticmethod
    def check_gradient(dec, z0, targets, cfg, coeffs):
        energy, _, evaluate = G._decoder_energy(dec, z0, targets, cfg, strict=False)
        grad = gradient(evaluate)
        rows = np.arange(len(coeffs))
        want = fd_gradient(energy, 1e-6)(coeffs, rows)
        assert rel_frob(grad(coeffs, rows), want) < 1e-6
        sub = rows[[1, 3]]
        assert rel_frob(grad(coeffs[sub], sub), want[sub]) < 1e-6

    @pytest.mark.parametrize("segments", [1, 4])
    def test_analytic_matches_fd_gradient(self, gen, segments):
        z0, targets = np.array([0.6, 0.2]), gen.uniform(-1.0, 1.0, size=(5, 2))
        cfg = EnergyConfig(n_disc=16, segments=segments)
        self.check_gradient(self.dec, z0, targets, cfg, 0.1 * gen.normal(size=(5, 2, 2 * segments)))
        # the categorical energy of the 3-simplex chart, on curves inside the simplex
        z0, targets = np.array([0.2, 0.2]), gen.dirichlet([2.0] * 3, size=5)[:, :2]
        cfg = replace(cfg, objective="categorical")
        dec = M.simplex_chart_decoder(3)
        self.check_gradient(dec, z0, targets, cfg, 0.02 * gen.normal(size=(5, 2, 2 * segments)))

    def test_log_map_batch_rows_match_single_calls(self):
        cfg = EnergyConfig(n_disc=12, segments=2, max_iters=15, jitter=0.0)
        z0 = np.array([0.6, 0.2])
        targets = np.array([[-0.4, 0.8], [0.1, -0.7], [0.9, 0.5]])
        vs, lengths, coeffs = G.log_map_batch(self.dec, z0, targets, cfg, RngStream(1))
        assert np.all(np.isfinite(vs)) and np.all(lengths > 0)
        for k, y in enumerate(targets):
            v1, l1, c1 = G.log_map_batch(self.dec, z0, y[None], cfg, RngStream(1))
            assert np.max(np.abs(v1[0] - vs[k])) < 1e-12
            assert abs(l1[0] - lengths[k]) < 1e-12
            assert np.max(np.abs(c1[0] - coeffs[k])) < 1e-12
            v = G.log_map(self.dec, z0, y, cfg, RngStream(1))
            assert np.max(np.abs(v - vs[k])) < 1e-12

    def test_categorical_log_map_length_is_kl_length(self):
        dec = M.simplex_chart_decoder(3)
        z0, targets = np.array([0.3, 0.3]), np.array([[0.1, 0.6], [0.5, 0.2]])
        cfg = EnergyConfig(n_disc=16, segments=2, max_iters=10, objective="categorical")
        _, lengths, coeffs = G.log_map_batch(dec, z0, targets, cfg, RngStream(0))
        for y, length, c in zip(targets, lengths, coeffs):
            want = G.curve_length(SplineCurve(z0, y, 2, c), dec, 16)
            assert abs(length - want) < 1e-12


def _energies(source, gen):
    """(energy, evaluate, coeffs) of 5 curves from one energy factory."""
    z0, targets = np.array([0.3, -0.5]), gen.uniform(-1.5, 1.5, size=(5, 2))
    coeffs = 0.1 * gen.normal(size=(5, 2, 4))
    if source in ("constant", "grid", "callable"):
        metric = {
            "constant": M.ConstantMetric(np.array([[2.0, 0.3], [0.3, 0.5]])),
            "grid": TestGraphGradient.grid_metric(gen),
            "callable": TestGraphGradient.smooth,
        }[source]
        energy, _, evaluate = G._graph_energy(metric, z0, targets, 2, 16, strict=False)
    elif source == "beta":
        cfg = EnergyConfig(n_disc=16, segments=2)
        energy, _, evaluate = G._decoder_energy(TestDecoderEnergy.dec, z0, targets, cfg, False)
    else:  # the categorical energy of the 3-simplex chart, inside the simplex
        cfg = EnergyConfig(n_disc=16, segments=2, objective="categorical")
        z0, targets = np.array([0.2, 0.2]), gen.dirichlet([2.0] * 3, size=5)[:, :2]
        dec = M.simplex_chart_decoder(3)
        energy, _, evaluate = G._decoder_energy(dec, z0, targets, cfg, False)
        coeffs *= 0.2
    return energy, evaluate, coeffs


@pytest.mark.parametrize("source", ["constant", "grid", "callable", "beta", "categorical"])
def test_evaluate_equals_energy_and_fresh_gradients_bit_for_bit(source, gen):
    # evaluate's energies are energy's, and gradient_of(sel) is what a fresh
    # evaluation of rows[sel] gives, with no rounding difference
    energy, evaluate, coeffs = _energies(source, gen)
    rows = np.array([4, 0, 2, 1])
    c = coeffs[rows]
    energies, gradient_of, _ = evaluate(c, rows)
    assert np.array_equal(energies, energy(c, rows))
    for sel in (np.array([True, False, True, True]), np.array([3, 1]), np.arange(4)):
        fresh = evaluate(c[sel], rows[sel])[1](np.arange(len(rows[sel])))
        assert np.array_equal(gradient_of(sel), fresh)
    # a start where no curve is finite asks for no row's gradient
    assert gradient_of(np.zeros(4, dtype=bool)).shape == (0, *c.shape[1:])


def test_fit_evaluates_the_metric_once_per_iteration(gen):
    # every unit step of these fits on diag(1 + z^2) is accepted, so after
    # the chord and the start each iteration makes one metric evaluation,
    # which serves its trial's energy and the next gradient; the last
    # iteration finds every remaining curve converged and tries no step
    class Counted(M.LatentMetric):
        def __init__(self, inner):
            self.inner, self.latent_dim, self.calls = inner, 2, []

        def eval_batch(self, zs):
            self.calls.append("eval_batch")
            return self.inner.eval_batch(zs)

        def eval_batch_and_grad(self, zs):
            self.calls.append("eval_batch_and_grad")
            return self.inner.eval_batch_and_grad(zs)

    metric = Counted(TestGraphGradient.smooth)
    cfg = EnergyConfig(n_disc=16, segments=1)
    z0, targets = np.array([0.1, -0.2]), gen.uniform(-1.5, 1.5, size=(20, 2))
    _, _, _, converged, iterations, _, _, _ = G._fit_curves(
        metric, z0, targets, cfg, RngStream(1), None, strict=False
    )
    assert np.all(converged) and iterations.max() > 2
    assert metric.calls == ["eval_batch"] + ["eval_batch_and_grad"] * iterations.max()


def test_a_chord_start_is_evaluated_once(gen):
    # with jitter 0 and no warm start the descent starts on the chord: the
    # start's evaluation also scores the chord, so no eval_batch call comes
    # before the first eval_batch_and_grad, and the straight energies are
    # the exact energy's bit for bit
    class Counted(M.LatentMetric):
        def __init__(self, inner):
            self.inner, self.latent_dim, self.calls = inner, inner.latent_dim, []

        def eval_batch(self, zs):
            self.calls.append("eval_batch")
            return self.inner.eval_batch(zs)

        def eval_batch_and_grad(self, zs):
            self.calls.append("eval_batch_and_grad")
            return self.inner.eval_batch_and_grad(zs)

    a = gen.normal(size=(36, 2, 2))
    grid = M.MetricGrid(a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(2), 0.5, [[-2, 2], [-2, 2]],
                        (6, 6))
    metric = Counted(M.GridMetric(grid))
    cfg = EnergyConfig(n_disc=16, segments=1, jitter=0.0)
    z0, targets = np.array([0.1, -0.2]), gen.uniform(-1.5, 1.5, size=(20, 2))
    G.log_map_batch(metric, z0, targets, cfg, RngStream(1))
    assert metric.calls[0] == "eval_batch_and_grad"
    straight = G._fit_curves(metric.inner, z0, targets, cfg, RngStream(1), None, False)[2]
    energy = G._graph_energy(metric.inner, z0, targets, 1, 16, strict=False)[0]
    assert np.array_equal(straight, energy(np.zeros((20, 2, 2)), np.arange(20)))


def test_descend_drops_rows_that_start_non_finite(gen):
    # the (1, 0) chord crosses the infinite half of the metric: its start
    # energy is inf, so it must cost no gradient and no line-search trial
    metric = M.CallableMetric(lambda z: np.diag([1.0 if z[0] <= 0.5 else np.inf] * 2), 2)
    cfg = EnergyConfig(n_disc=16, segments=1, max_iters=5, jitter=0.0)
    z0, targets = np.zeros(2), np.array([[1.0, 0.0], [0.3, 0.2]])
    energy, _, evaluate = G._graph_energy(metric, z0, targets, 1, 16, strict=False)
    calls = []  # the rows of every energy, evaluation and gradient

    def counted(coeffs, rows):
        calls.append(rows.copy())
        return energy(coeffs, rows)

    def recorded(g, rows):
        calls.append(rows)
        return g

    def counted_evaluate(coeffs, rows):
        calls.append(rows.copy())
        return edit_gradient(evaluate, recorded)(coeffs, rows)

    start = 0.05 * gen.normal(size=(2, 2, 2))
    with np.errstate(invalid="ignore"):
        coeffs, e, converged, iterations, _, _ = G._descend(start, counted, counted_evaluate, cfg)
    assert len(calls) > 1 and all(0 not in rows for rows in calls[1:])
    assert e[0] == np.inf and not converged[0] and iterations[0] == 0
    energy1, _, evaluate1 = G._graph_energy(metric, z0, targets[1:], 1, 16, strict=False)
    alone = G._descend(start[1:], energy1, evaluate1, cfg)
    assert np.array_equal(coeffs[1], alone[0][0]) and e[1] == alone[1][0]
    assert iterations[1] == alone[3][0] and converged[1] == alone[2][0]


def test_descend_stops_rows_whose_gradient_is_not_finite(gen):
    # row 0's gradient is NaN: it stops before its line search, costing no
    # trial energy, and keeps its start; row 1 fits as it does alone
    metric = M.CallableMetric(lambda z: np.diag(1.0 + z**2), 2)
    cfg = EnergyConfig(n_disc=16, segments=1, max_iters=20, jitter=0.0)
    z0, targets = np.zeros(2), np.array([[1.0, 0.0], [0.3, 0.2]])
    energy, _, evaluate = G._graph_energy(metric, z0, targets, 1, 16, strict=False)
    calls = []  # the rows of every energy and evaluation: the start, then trials

    def counted(coeffs, rows):
        calls.append(rows.copy())
        return energy(coeffs, rows)

    def nan_row0(g, rows):
        g[rows == 0] = np.nan
        return g

    def counted_evaluate(coeffs, rows):
        calls.append(rows.copy())
        return edit_gradient(evaluate, nan_row0)(coeffs, rows)

    start = 0.05 * gen.normal(size=(2, 2, 2))
    coeffs, e, converged, iterations, _, _ = G._descend(start, counted, counted_evaluate, cfg)
    assert all(0 not in rows for rows in calls[1:])
    assert np.array_equal(coeffs[0], start[0]) and e[0] == energy(start[:1], np.arange(1))[0]
    assert not converged[0] and iterations[0] == 1
    energy1, _, evaluate1 = G._graph_energy(metric, z0, targets[1:], 1, 16, strict=False)
    alone = G._descend(start[1:], energy1, evaluate1, cfg)
    assert np.array_equal(coeffs[1], alone[0][0]) and e[1] == alone[1][0]


def test_descend_solves_a_quadratic_energy_in_few_iterations(gen):
    # on a constant metric the graph energy is quadratic in the n = d 2S
    # coefficients; at the log-map settings of density fitting (S=1, N=16)
    # the quasi-Newton fit converges within 2n + 2 iterations
    metric = M.ConstantMetric(np.diag([2.0, 0.5]))
    cfg = EnergyConfig(n_disc=16, segments=1)
    z0, targets = np.array([0.1, -0.2]), gen.uniform(-1.5, 1.5, size=(20, 2))
    _, _, _, converged, iterations, _, _, _ = G._fit_curves(
        metric, z0, targets, cfg, RngStream(1), None, strict=False
    )
    n = 2 * 2 * cfg.segments
    assert np.all(converged) and iterations.max() <= 2 * n + 2


def test_gauss_newton_start_reaches_the_chord_in_one_step(gen):
    # on a constant metric the graph energy is quadratic and its Gauss-Newton
    # matrix is its Hessian: the first step lands on the straight chord, and
    # the second iteration finds the fit converged
    metric = M.ConstantMetric(np.array([[4.0, 1.5], [1.5, 0.7]]))
    z0, targets = np.array([0.1, -0.2]), gen.uniform(-1.5, 1.5, size=(5, 2))
    energy, _, evaluate = G._graph_energy(metric, z0, targets, 4, 16, strict=False)
    start = 0.1 * gen.normal(size=(5, 2, 8))
    cfg = EnergyConfig(n_disc=16, segments=4, max_iters=1)
    coeffs, e, _, _, _, stop = G._descend(start, energy, evaluate, cfg)
    assert np.all(stop["start"] == "gauss_newton")
    assert np.max(np.abs(coeffs)) < 1e-12
    chord = energy(np.zeros_like(start), np.arange(5))
    assert np.allclose(e, chord, rtol=1e-13, atol=0.0)
    full = G._descend(start, energy, evaluate, replace(cfg, max_iters=200))
    assert np.all(full[2]) and np.all(full[3] == 2)


def test_gauss_newton_start_converges_at_four_segments(gen):
    # a scaled-identity start needs more than 60 iterations for some of these
    # fits at S=4 (the coefficients' Hessian has condition number ~2e4 there)
    metric = TestGraphGradient.smooth
    z0, targets = np.array([0.1, -0.2]), gen.uniform(-1.5, 1.5, size=(20, 2))
    cfg = EnergyConfig(n_disc=16, segments=4, max_iters=60, jitter=0.0)
    _, lengths, _, iterations, stop = G._log_maps(
        metric, z0, targets, cfg, RngStream(0), None, False
    )
    assert np.all(stop["reason"] == "converged") and iterations.max() <= 20
    assert np.all(stop["start"] == "gauss_newton")
    ref = G._log_maps(metric, z0, targets, replace(cfg, max_iters=400, grad_tol=1e-10),
                      RngStream(0), None, False)
    assert np.all(ref[4]["reason"] == "converged")
    assert np.max(np.abs(lengths - ref[1]) / ref[1]) < 1e-6


def test_rows_without_a_gauss_newton_start_fit_as_alone(gen):
    # M = diag(1 + z_1^2, max(0, 1 - z_0)^2): row 0 lies where z_0 >= 1, so
    # its second axis has M = 0 along the whole chord and its Gauss-Newton
    # matrix is singular; it keeps the scaled-identity rule, and every row
    # of the batch fits exactly as it fits alone
    metric = M.CallableMetric(lambda z: np.diag([1.0 + z[1] ** 2, max(0.0, 1.0 - z[0]) ** 2]), 2)
    z0 = np.array([1.5, -0.5])
    targets = np.array([[2.0, 0.5], [0.2, 0.4], [-0.6, -0.9]])
    cfg = EnergyConfig(n_disc=16, segments=1, max_iters=60)
    start = 0.05 * gen.normal(size=(3, 2, 2))
    start[0] = 0.0  # on the chord, so every midpoint of row 0 has z_0 >= 1

    def fit(rows):
        energy, _, evaluate = G._graph_energy(metric, z0, targets[rows], 1, 16, strict=False)
        return G._descend(start[rows], energy, evaluate, cfg)

    coeffs, e, converged, iterations, _, stop = fit(np.arange(3))
    assert list(stop["start"]) == ["scaled_identity", "gauss_newton", "gauss_newton"]
    assert iterations[0] > 2 and np.all(converged)
    for k in range(3):
        alone = fit(np.array([k]))
        assert np.array_equal(coeffs[k], alone[0][0]) and e[k] == alone[1][0]
        assert iterations[k] == alone[3][0] and stop[k] == alone[5][0]


def linear_normal_decoder(gen, features: int = 3):
    """Normal features whose means are affine in z and whose variances are
    constant: 2 KL is then (Delta mu)^2 / var, so the KL energy is exactly
    quadratic in the curve coefficients."""
    heads = (
        Head("mean", (LayerSpec(gen.normal(size=(features, 2)), gen.normal(size=features)),)),
        Head("var", (LayerSpec(np.zeros((features, 2)), gen.uniform(0.5, 2.0, size=features)),)),
    )
    return DecoderMap(2, features, get_family("normal"), heads)


def test_decoder_gauss_newton_matrix_is_the_quadratic_energys_hessian(gen):
    dec = linear_normal_decoder(gen)
    cfg = EnergyConfig(n_disc=16, segments=2)
    z0, targets = np.array([0.1, -0.2]), gen.uniform(-1.5, 1.5, size=(3, 2))
    energy, _, evaluate = G._decoder_energy(dec, z0, targets, cfg, strict=True)
    coeffs, rows = 0.3 * gen.normal(size=(3, 2, 4)), np.arange(3)
    gn = evaluate(coeffs, rows)[2](rows)
    # second central differences of the energy, exact on a quadratic up to
    # rounding
    n, h, flat = 8, 0.1, coeffs.reshape(3, -1)
    hess = np.zeros((3, n, n))
    for i in range(n):
        for j in range(n):
            e = [
                energy((flat + si * h * np.eye(n)[i] + sj * h * np.eye(n)[j]).reshape(coeffs.shape), rows)
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))
            ]
            hess[:, i, j] = (e[0] - e[1] - e[2] + e[3]) / (4.0 * h * h)
    assert np.allclose(gn, hess, rtol=1e-8, atol=1e-8 * np.abs(hess).max())


def test_decoder_fit_on_a_quadratic_energy_converges_from_the_gauss_newton_start(gen):
    dec = linear_normal_decoder(gen)
    cfg = EnergyConfig(n_disc=16, segments=2)
    stop = {}
    G.log_map(dec, np.array([0.1, -0.2]), np.array([1.2, 0.7]), cfg, RngStream(3), stop)
    assert stop["start"] == "gauss_newton" and stop["stop_reason"] == "converged"
    assert stop["iterations"] <= 2
    res = G.minimize_energy_detailed([0.1, -0.2], [1.2, 0.7], dec, cfg, RngStream(3))
    assert res.converged and res.iterations <= 2


def test_decoder_log_map_batch_rows_fit_as_alone():
    # every row starts from its own Gauss-Newton matrix, so with jitter 0
    # a batch row is bit for bit the same target fitted alone
    codes = toy_circle_codes(200, 0.1, RngStream(1))
    dec = toy_decoder("beta", seed=5)
    cfg = EnergyConfig(n_disc=16, segments=2, jitter=0.0, max_iters=30)
    z0, targets = codes[0], codes[[17, 60, 101, 150]]
    *_, stop = G._log_maps(dec, z0, targets, cfg, RngStream(0), None, False)
    assert np.all(stop["start"] == "gauss_newton")
    batch = G.log_map_batch(dec, z0, targets, cfg)
    for k in range(len(targets)):
        alone = G.log_map_batch(dec, z0, targets[k : k + 1], cfg)
        for got, want in zip(batch, alone):
            assert np.array_equal(got[k], want[0])


@pytest.mark.parametrize("scale", [1e6, 1e12])
def test_descend_converges_on_a_scaled_quadratic_energy(scale, gen):
    # energies of 1e6-1e13 cannot bring max|g| under an absolute 1e-6 at
    # rounding precision; relative to the energy the fit converges as fast
    # as on the unscaled metric
    metric = M.ConstantMetric(scale * np.diag([2.0, 0.5]))
    cfg = EnergyConfig(n_disc=16, segments=1)
    z0, targets = np.array([0.1, -0.2]), gen.uniform(-1.5, 1.5, size=(20, 2))
    _, e, _, converged, iterations, _, stop, _ = G._fit_curves(
        metric, z0, targets, cfg, RngStream(1), None, strict=False
    )
    n = 2 * 2 * cfg.segments
    assert np.all(converged) and iterations.max() <= 2 * n + 2
    assert np.all(stop["reason"] == "converged")
    assert np.all(stop["grad_norm"] < cfg.grad_tol * (1.0 + e))


def test_kl_fit_stops_where_it_has_converged(monkeypatch):
    # pair 11 -> 157 of the toy workflow at the CLI settings: with an
    # absolute max|g| < 1e-6 it ran all 200 iterations and ~3,000 energy
    # calls, the last ~75 iterations changing only the last digits
    codes = toy_circle_codes(200, 0.1, RngStream(1))
    dec = toy_decoder("beta", seed=5)
    cfg = EnergyConfig(n_disc=200, segments=4, max_iters=200, grad_tol=1e-6)
    calls = []
    fam_kl = dec.family.kl

    def counted(p, q):
        calls.append(1)
        return fam_kl(p, q)

    with monkeypatch.context() as patch:
        patch.setattr(dec.family, "kl", counted)
        res = G.minimize_energy_detailed(codes[11], codes[157], dec, cfg, RngStream(100))
    assert res.converged and res.stop_reason == "converged" and res.iterations < 200
    assert 0 < len(calls) < 300
    full = G.minimize_energy_detailed(
        codes[11], codes[157], dec, replace(cfg, grad_tol=0.0), RngStream(100)
    )
    assert not full.converged
    assert abs(res.energy - full.energy) <= 1e-9 * full.energy


class TestStopReason:
    def quadratic(self, targets, metric=None):
        metric = metric or M.ConstantMetric(np.diag([2.0, 0.5]))
        energy, _, evaluate = G._graph_energy(metric, np.zeros(2), targets, 1, 16, strict=False)
        return energy, evaluate

    def test_converged(self, gen):
        energy, evaluate = self.quadratic(np.array([[1.0, 0.5], [-0.3, 0.8]]))
        cfg = EnergyConfig(n_disc=16, segments=1)
        _, e, converged, _, _, stop = G._descend(
            0.1 * gen.normal(size=(2, 2, 2)), energy, evaluate, cfg
        )
        assert np.all(converged) and list(stop["reason"]) == ["converged"] * 2
        assert np.all(stop["grad_norm"] < cfg.grad_tol * (1.0 + e))

    def test_line_search(self, gen):
        # an ascent direction: 40 halvings find no Armijo step
        energy, evaluate = self.quadratic(np.array([[1.0, 0.5]]))
        cfg = EnergyConfig(n_disc=16, segments=1)
        start = 0.1 * gen.normal(size=(1, 2, 2))
        coeffs, _, converged, iterations, _, stop = G._descend(
            start, energy, edit_gradient(evaluate, lambda g, rows: -g), cfg
        )
        assert stop["reason"][0] == "line_search" and not converged[0] and iterations[0] == 1
        assert stop["grad_norm"][0] == np.abs(gradient(evaluate)(start, np.arange(1))).max()
        assert np.array_equal(coeffs, start)

    def test_max_iters(self, gen):
        # on a constant metric the Gauss-Newton start solves the fit in one
        # step, so the capped fit runs on diag(1 + z^2)
        energy, evaluate = self.quadratic(np.array([[1.0, 0.5]]), TestGraphGradient.smooth)
        cfg = EnergyConfig(n_disc=16, segments=1, max_iters=2)
        _, e, converged, iterations, _, stop = G._descend(
            0.1 * gen.normal(size=(1, 2, 2)), energy, evaluate, cfg
        )
        assert stop["reason"][0] == "max_iters" and not converged[0] and iterations[0] == 2
        assert stop["grad_norm"][0] >= cfg.grad_tol * (1.0 + e[0])

    def test_non_finite_start_and_gradient(self, gen):
        # row 0 starts at an infinite energy and is never differentiated;
        # row 1's gradient is NaN; row 2 fits
        energy, evaluate = self.quadratic(np.array([[1.0, 0.5], [0.3, 0.2], [-0.3, 0.8]]))

        def inf_row0(coeffs, rows):
            e = energy(coeffs, rows)
            return np.where(rows == 0, np.inf, e)

        def nan_row1(g, rows):
            g[rows == 1] = np.nan
            return g

        def evaluate_inf0_nan1(coeffs, rows):
            e, gradient_of, gauss_newton_of = edit_gradient(evaluate, nan_row1)(coeffs, rows)
            return np.where(rows == 0, np.inf, e), gradient_of, gauss_newton_of

        cfg = EnergyConfig(n_disc=16, segments=1)
        _, _, converged, iterations, _, stop = G._descend(
            0.1 * gen.normal(size=(3, 2, 2)), inf_row0, evaluate_inf0_nan1, cfg
        )
        assert list(stop["reason"]) == ["non_finite", "non_finite", "converged"]
        assert np.isnan(stop["grad_norm"][:2]).all() and iterations[:2].tolist() == [0, 1]

    def test_result_carries_the_reason(self):
        metric = M.ConstantMetric(np.diag([2.0, 0.5]))
        res = G.minimize_energy_detailed([0.0, 0.0], [1.0, 0.5], metric, EnergyConfig(n_disc=16))
        assert res.converged and res.stop_reason == "converged"
        assert res.grad_norm < 1e-6 * (1.0 + res.energy)
        capped = G.minimize_energy_detailed(
            [0.0, 0.0], [1.0, 0.5], metric, EnergyConfig(n_disc=16, max_iters=1)
        )
        assert capped.stop_reason == "max_iters" and capped.grad_norm > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_both_log_maps_reject_non_finite_endpoints(bad):
    # the batched log map used to return such a row as NaN; a finite row
    # whose energy is not finite still comes back non-finite
    # (test_single_curve_calls_raise_nonfinite_energy)
    metric = M.ConstantMetric(np.eye(2))
    z0, targets = np.zeros(2), np.array([[1.0, 0.0], [bad, 0.0]])
    for base, ys in ((z0, targets), (np.array([0.0, bad]), targets[:1])):
        with pytest.raises(ShapeError, match="finite"):
            G.log_map_batch(metric, base, ys)
        with pytest.raises(ShapeError, match="finite"):
            G.log_map(metric, base, ys[-1])


@pytest.mark.parametrize("grad_tol", [-1.0, np.nan, np.inf])
def test_grad_tol_must_be_finite_and_non_negative(grad_tol):
    with pytest.raises(ShapeError):
        EnergyConfig(grad_tol=grad_tol)


def test_bfgs_update_satisfies_the_secant_equation(gen):
    # rows 0 and 1 update (row 1 for the first time, from the scaled
    # identity), row 2 has no curvature along its step and keeps its estimate
    n = 4
    a = gen.normal(size=(n, n))
    h_inv = np.stack([np.eye(n) + 0.1 * a @ a.T, np.full((n, n), np.nan), 2.0 * np.eye(n)])
    s = gen.normal(size=(3, n))
    y = np.stack([s[0] @ (a @ a.T + np.eye(n)), 3.0 * s[1], s[2]])
    y[2] -= (y[2] @ s[2]) / (s[2] @ s[2]) * s[2]  # s^T y = 0
    before = h_inv.copy()
    G._bfgs_update(h_inv, np.arange(3), s, y)
    for k in (0, 1):
        assert np.allclose(h_inv[k] @ y[k], s[k], rtol=1e-12, atol=1e-12)
        assert np.allclose(h_inv[k], h_inv[k].T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(h_inv[k]) > 0)
    assert np.allclose(h_inv[1], np.eye(n) / 3.0)  # s^T y / y^T y = 1/3, exact for y = 3 s
    assert np.array_equal(h_inv[2], before[2])


def test_normal_chart_geodesics_converge_to_the_fisher_rao_distance(gen):
    # N(mu, var) in its (mu, var) chart at the CLI settings: the fit stops on
    # grad_tol, and its length is the closed-form Fisher-Rao distance
    dec = identity_parameter_decoder("normal")
    cfg = EnergyConfig(n_disc=200, segments=4, max_iters=200)
    for k in range(4):
        a = np.array([gen.uniform(-1.0, 1.0), gen.uniform(0.5, 2.0)])
        b = np.array([gen.uniform(-1.0, 1.0), gen.uniform(0.5, 2.0)])
        res = G.minimize_energy_detailed(a, b, dec, cfg, RngStream(k))
        assert res.converged and res.iterations < 200
        exact = normal_fisher_rao_distance(a, b)
        assert abs(G.curve_length(res.curve, dec, cfg.n_disc) - exact) / exact < 1e-3


def test_normal_chart_shots_travel_their_fisher_rao_length(gen):
    # the (mean, variance) chart of N under Fisher-Rao is a hyperbolic plane,
    # which has no cut locus, so the shot Exp_z(v) lies at distance exactly |v|
    # from z. 100 steps hold that to 1e-6 relative (measured max 4.3e-7, the
    # floor of the metric's central differences: 400 steps give the same),
    # and the median error falls as a fourth-order scheme's does from 10 to
    # 20 steps (measured 13x)
    metric = M.PullbackMetric(identity_parameter_decoder("normal"))
    errs = {10: [], 20: [], 100: []}
    for _ in range(20):
        z = np.array([gen.uniform(-1.0, 1.0), gen.uniform(0.5, 2.0)])
        angle, length = gen.uniform(0.0, 2.0 * np.pi), gen.uniform(0.2, 2.0)
        v = length * np.array([np.cos(angle), np.sin(angle)])
        for steps, err in errs.items():
            end = G.exp_map(metric, z, v, steps=steps)
            err.append(abs(normal_fisher_rao_distance(z, end) - length) / length)
    assert max(errs[100]) < 1e-6
    assert np.median(errs[10]) >= 8.0 * np.median(errs[20])
