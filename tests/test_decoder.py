import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import statgeo.decoder as D
from statgeo.decoder import DecoderMap, Head, LayerSpec, UncertaintyReg
from statgeo.errors import InvalidK, InvalidParam, NoRegularization, ShapeError
from statgeo.families import FamilyKind, get_family
from statgeo.rng import RngStream
from statgeo.special import softplus
from statgeo.toy import toy_circle_codes, toy_decoder


def normal_identity_softplus():
    """mu = z, sigma-block = softplus(z) per coordinate (d = D = 2... no, D=2 features d=2)."""
    fam = get_family("normal")
    eye = np.eye(2)
    heads = (
        Head("mean", (LayerSpec(eye, np.zeros(2), "identity"),)),
        Head("var", (LayerSpec(eye, np.zeros(2), "softplus"),)),
    )
    return DecoderMap(latent_dim=2, feature_count=2, family=fam, heads=heads)


def fd_jacobian(dec, z, h=1e-5):
    out = np.zeros((dec.param_dim, z.size))
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = h
        out[:, i] = (D.forward_stacked(dec, z + e) - D.forward_stacked(dec, z - e)) / (2 * h)
    return out


class TestForward:
    def test_identity_softplus_heads(self):
        dec = normal_identity_softplus()
        z = np.array([0.3, -0.7])
        points = D.forward(dec, z)
        assert len(points) == 2
        for i, pt in enumerate(points):
            assert pt.values[0] == pytest.approx(z[i])
            assert pt.values[1] == pytest.approx(softplus(z[i]))

    def test_sigmoid_zero_head(self):
        fam = get_family("bernoulli")
        head = Head("prob", (LayerSpec(np.zeros((4, 2)), np.zeros(4), "sigmoid"),))
        dec = DecoderMap(2, 4, fam, (head,))
        for pt in D.forward(dec, np.array([1.3, -2.0])):
            assert pt.values[0] == pytest.approx(0.5)

    def test_beta_heads_strictly_positive(self, gen):
        dec = toy_decoder("beta", seed=1)
        for _ in range(50):
            z = gen.normal(size=2) * 3
            assert np.all(D.forward_stacked(dec, z) > 0)

    def test_shape_error(self):
        dec = normal_identity_softplus()
        with pytest.raises(ShapeError):
            D.forward(dec, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            D.forward(dec, np.array([np.nan, 0.0]))


class TestJacobian:
    def test_linear_decoder_constant_jacobian(self, gen):
        w = gen.normal(size=(3, 2))
        fam = get_family("exponential")
        # keep rates positive via a positive offset
        dec = DecoderMap(
            2, 3, fam, (Head("rate", (LayerSpec(w, 5.0 * np.ones(3), "identity"),)),)
        )
        for _ in range(5):
            assert np.allclose(D.jacobian(dec, gen.normal(size=2) * 0.1), w)

    def test_tanh_at_origin(self):
        fam = get_family("normal")
        eye = np.eye(2)
        heads = (
            Head("mean", (LayerSpec(eye, np.zeros(2), "tanh"),)),
            Head("var", (LayerSpec(eye, np.ones(2), "softplus"),)),
        )
        dec = DecoderMap(2, 2, fam, heads)
        jac = D.jacobian(dec, np.zeros(2))
        # mean rows (features interleave mean/var): rows 0 and 2
        assert jac[0, 0] == pytest.approx(1.0) and jac[2, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", [k.value for k in FamilyKind])
    def test_matches_finite_differences(self, kind, gen):
        for regularized in (False, True):
            dec = toy_decoder(kind, seed=7, regularized=regularized)
            for _ in range(3):
                z = gen.normal(size=2) * 1.5
                jac = D.jacobian(dec, z)
                fd = fd_jacobian(dec, z)
                assert np.max(np.abs(jac - fd) / (1.0 + np.abs(jac))) < 1e-5

    def test_twenty_random_decoders_property(self, gen):
        kinds = [k.value for k in FamilyKind]
        for i in range(20):
            dec = toy_decoder(kinds[i % len(kinds)], seed=100 + i, regularized=i % 2 == 0)
            z = gen.normal(size=2)
            jac, fd = D.jacobian(dec, z), fd_jacobian(dec, z)
            assert np.max(np.abs(jac - fd) / (1.0 + np.abs(jac))) < 1e-5


class TestSharedPass:
    """forward_and_jacobian_stacked: one pass, both outputs bit-identical."""

    @pytest.mark.parametrize("kind", [k.value for k in FamilyKind])
    @pytest.mark.parametrize("regularized", [False, True])
    def test_matches_forward_and_jacobian(self, kind, regularized, gen):
        dec = toy_decoder(kind, seed=7, regularized=regularized)
        zs = gen.uniform(-3.0, 3.0, size=(40, 2))
        params, jac = D.forward_and_jacobian_stacked(dec, zs)
        assert np.array_equal(params, D.forward_stacked(dec, zs))
        assert np.array_equal(jac, D.jacobian_stacked(dec, zs))
        one_params, one_jac = D.forward_and_jacobian_stacked(dec, zs[0])
        assert np.array_equal(one_params, D.forward_stacked(dec, zs[0]))
        assert np.array_equal(one_jac, D.jacobian_stacked(dec, zs[0]))

    def test_matches_with_pre_transform(self, gen):
        a = np.array([[1.2, -0.4], [0.3, 0.9]])
        dec = D.compose_linear(toy_decoder("beta", seed=5), a, np.array([0.1, -0.2]))
        zs = gen.uniform(-2.0, 2.0, size=(40, 2))
        params, jac = D.forward_and_jacobian_stacked(dec, zs)
        assert np.array_equal(params, D.forward_stacked(dec, zs))
        assert np.array_equal(jac, D.jacobian_stacked(dec, zs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_raises(self, bad):
        dec = toy_decoder("beta", seed=5)
        with pytest.raises(ShapeError):
            D.forward_and_jacobian_stacked(dec, np.array([[0.0, 0.0], [bad, 1.0]]))


def first_activation_decoder(activation, regularized, gen):
    """Two-feature decoder whose heads start with ``activation`` and end
    with a dense softplus layer, so both the seeded first layer and a later
    layer's product enter the Jacobian."""
    if activation == "softmax":
        fam, schema = get_family("categorical", 3), [("probs", 3, activation)]
    elif activation == "unit_normalize":
        fam, schema = get_family("vmf_s2"), [("mean_dir", 3, activation), ("conc", 1, "softplus")]
    else:
        fam, schema = get_family("normal"), [("mean", 1, activation), ("var", 1, activation)]
    heads = []
    for name, width, first in schema:
        out = 2 * width
        heads.append(Head(name, (
            LayerSpec(gen.normal(size=(out, 2)), 0.1 * gen.normal(size=out), first),
            LayerSpec(gen.normal(size=(out, out)) / np.sqrt(out), np.zeros(out), "softplus"),
        )))
    reg = None
    if regularized:
        reg = UncertaintyReg(centers=gen.uniform(-1.0, 1.0, size=(4, 2)), beta=-1.0, c=1.0)
    return DecoderMap(2, 2, fam, tuple(heads), regularization=reg)


class TestDecoderWalk:
    """The Jacobian is seeded with the first layer's weight."""

    @pytest.mark.parametrize("activation", [
        "identity", "scale:2.5", "tanh", "sigmoid", "softplus", "softmax", "unit_normalize",
    ])
    @pytest.mark.parametrize("regularized", [False, True])
    @pytest.mark.parametrize("composed", [False, True])
    def test_first_layer_activation(self, activation, regularized, composed, gen):
        dec = first_activation_decoder(activation, regularized, gen)
        if composed:
            dec = D.compose_linear(dec, np.array([[0.8, -0.5], [0.4, 1.1]]), np.array([0.2, -0.1]))
        zs = gen.uniform(-1.5, 1.5, size=(6, 2))
        params, jac = D.forward_and_jacobian_stacked(dec, zs)
        assert np.array_equal(params, D.forward_stacked(dec, zs))
        assert np.array_equal(jac, D.jacobian_stacked(dec, zs))
        for z, one_jac in zip(zs, jac):
            assert np.array_equal(D.forward_and_jacobian_stacked(dec, z)[0], D.forward_stacked(dec, z))
            fd = fd_jacobian(dec, z)
            assert np.max(np.abs(one_jac - fd) / (1.0 + np.abs(one_jac))) < 1e-5

    def test_one_layer_identity_head_returns_its_own_writable_jacobian(self, gen):
        weight = gen.normal(size=(3, 2))
        layer = LayerSpec(weight, 5.0 * np.ones(3), "identity")
        dec = DecoderMap(2, 3, get_family("exponential"), (Head("rate", (layer,)),))
        for z in (gen.normal(size=2), gen.normal(size=(4, 2))):
            for jac in (D.jacobian_stacked(dec, z), D.forward_and_jacobian_stacked(dec, z)[1]):
                assert jac.flags.writeable and not np.shares_memory(jac, layer.weight)
                assert np.array_equal(jac, np.broadcast_to(weight, jac.shape))
                jac[...] = 0.0
            assert np.array_equal(layer.weight, weight)
            assert np.array_equal(D.jacobian_stacked(dec, z), np.broadcast_to(weight, jac.shape))


class TestKMeans:
    def test_single_cluster_is_mean(self, gen):
        pts = gen.normal(size=(40, 2))
        centers = D.kmeans_fit(pts, 1, RngStream(3))
        assert np.allclose(centers[0], pts.mean(axis=0))

    def test_two_separated_clusters(self, gen):
        pts = np.concatenate(
            [gen.normal(size=(30, 2)) * 0.01, gen.normal(size=(30, 2)) * 0.01 + 10.0]
        )
        centers = D.kmeans_fit(pts, 2, RngStream(4))
        centers = centers[np.argsort(centers[:, 0])]
        assert np.linalg.norm(centers[0] - [0, 0]) < 0.05
        assert np.linalg.norm(centers[1] - [10, 10]) < 0.05

    def test_k_equals_n_zero_inertia(self, gen):
        pts = gen.normal(size=(6, 2))
        centers = D.kmeans_fit(pts, 6, RngStream(5))
        assert D.kmeans_inertia(pts, centers) == pytest.approx(0.0, abs=1e-18)

    def test_invalid_k(self, gen):
        pts = np.zeros((5, 2))
        with pytest.raises(InvalidK):
            D.kmeans_fit(pts, 2, RngStream(0))

    def test_inertia_nonincreasing_over_iterations(self, gen):
        pts = gen.normal(size=(80, 2))
        inertias = []
        for iters in (1, 2, 4, 8, 16):
            centers = D.kmeans_fit(pts, 5, RngStream(9), iters=iters)
            inertias.append(D.kmeans_inertia(pts, centers))
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))


class TestUncertainty:
    def reg(self, centers=((0.0, 0.0),), beta=0.0, c=7.0):
        return UncertaintyReg(np.asarray(centers, float), beta, c)

    def test_distance_at_center_zero(self):
        assert D.support_distance(self.reg(), np.zeros(2)) == 0.0

    def test_distance_three_four_five(self):
        assert D.support_distance(self.reg(), np.array([3.0, 4.0])) == pytest.approx(25.0)

    @staticmethod
    def soft_oracle(centers, z, beta):
        """d_tau and sum_k pi_k c_k from the broadcast (m, k, d) differences,
        through scipy's log-sum-exp and softmax."""
        from scipy.special import logsumexp, softmax

        tau = softplus(beta) / D.SOFT_MIN_DIVISOR
        d2 = np.sum((z[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        return d2, tau, -tau * logsumexp(-d2 / tau, axis=1), softmax(-d2 / tau, axis=1) @ centers

    @given(st.integers(0, 2**31 - 1), st.sampled_from([-4.0, 0.0, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_distance_is_within_tau_log_k_of_the_min_over_centers(self, seed, beta):
        gen = np.random.default_rng(seed)
        centers = gen.normal(size=(50, 2))
        z = gen.normal(size=2) * 3
        got = D.support_distance(self.reg(centers, beta=beta), z)
        d2, tau, want, _ = self.soft_oracle(centers, z[None], beta)
        low = d2.min()
        assert got == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert low - tau * np.log(50) - 1e-12 <= got <= low

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 5, 201, 1000])
    @pytest.mark.parametrize("k", [1, 12])
    def test_distance_equals_the_broadcast_sum(self, d, m, k, gen):
        # the soft minimum and the weighted center (the gradient's) against
        # the broadcast log-sum-exp and softmax; at beta = 3 (tau = 0.15)
        # many rows weigh several centers
        centers, z = gen.normal(size=(k, d)), 3.0 * gen.normal(size=(m, d))
        for beta in (-4.0, 0.0, 3.0):
            reg = self.reg(centers, beta=beta)
            dist, center = D._soft_support(reg, z, softplus(beta) / D.SOFT_MIN_DIVISOR)
            d2, tau, want, want_center = self.soft_oracle(centers, z, beta)
            assert np.allclose(dist, want, rtol=1e-12, atol=1e-12)
            assert np.allclose(center, want_center, rtol=1e-12, atol=1e-12)
            # where the runner-up is more than 40 tau farther, every other
            # weight is below exp(-40) and d_tau is the min bit for bit
            ranked = np.sort(d2, axis=1)
            alone = np.ones(m, bool) if k == 1 else ranked[:, 1] - ranked[:, 0] > 40.0 * tau
            assert np.any(alone) or beta > -4.0  # at larger tau few rows are this far apart
            assert np.array_equal(dist[alone], ranked[alone, 0])

    def test_translated_sigmoid_midpoint(self):
        reg = self.reg(beta=0.3, c=7.0)
        d_mid = 7.0 * softplus(0.3)
        assert D.translated_sigmoid(reg, d_mid) == pytest.approx(0.5)

    def test_translated_sigmoid_at_zero(self):
        reg = self.reg(beta=0.0, c=7.0)
        assert D.translated_sigmoid(reg, 0.0) == pytest.approx(9.1105e-4, rel=1e-3)

    @given(st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_translated_sigmoid_monotone(self, d1, d2):
        reg = self.reg(beta=-2.0)
        lo, hi = sorted([d1, d2])
        assert D.translated_sigmoid(reg, lo) <= D.translated_sigmoid(reg, hi)

    def test_reweight_near_center_is_raw(self):
        # sigma_tilde(0) = sigmoid(-c), so the slider only vanishes for large c
        dec = toy_decoder("beta", seed=2)
        dec.regularization.c = 40.0
        z = dec.regularization.centers[0]
        raw = D.raw_forward_stacked(dec, z)
        assert np.allclose(D.forward_stacked(dec, z), raw, atol=1e-6)

    def test_reweight_far_is_extrapolation(self):
        dec = toy_decoder("beta", seed=2)
        far = np.array([50.0, -80.0])
        assert np.allclose(D.forward_stacked(dec, far), dec._extrap, atol=1e-9)

    def test_bernoulli_far_is_half(self):
        dec = toy_decoder("bernoulli", seed=2)
        far = np.array([40.0, 40.0])
        assert np.allclose(D.forward_stacked(dec, far), 0.5, atol=1e-3)

    def test_vmf_blends_concentration_only(self):
        dec = toy_decoder("vmf_s2", seed=2)
        far = np.array([30.0, -30.0])
        out = D.forward_stacked(dec, far)
        raw = D.raw_forward_stacked(dec, far)
        assert np.allclose(out[:3], raw[:3], atol=1e-12)  # mean direction kept
        assert out[3] == pytest.approx(1e-3, rel=1e-3)  # kappa extrapolated

    def test_reweight_requires_regularization(self):
        dec = toy_decoder("beta", seed=2, regularized=False)
        with pytest.raises(NoRegularization):
            D.reweight(dec, np.zeros(2))

    def test_reweight_continuity(self, gen):
        # |reweight(z+delta) - reweight(z)| -> 0 linearly as delta -> 0,
        # even inside the transition band where the slider moves fastest
        dec = toy_decoder("normal", seed=3)
        z = gen.normal(size=2)
        base = D.forward_stacked(dec, z)
        direction = gen.normal(size=2)
        diffs = []
        for scale in (1e-4, 1e-6, 1e-8):
            moved = D.forward_stacked(dec, z + scale * direction)
            diffs.append(np.max(np.abs(moved - base)))
        assert diffs[0] > diffs[1] > diffs[2]
        # ratio ~ delta ratio: linear convergence, no jump discontinuity
        assert diffs[2] / max(diffs[0], 1e-300) < 1e-3


class TestSmoothSupport:
    """The blend is C^1 across the boundaries between nearest centers."""

    @staticmethod
    def boundary_crossings(dec):
        """(z, n): points on the boundary between two nearest centers a and
        b, inside the blend band (squared distance c Softplus(beta) to both),
        and the unit normal (c_b - c_a) / |c_b - c_a| that crosses it."""
        reg = dec.regularization
        band, c = reg.c * softplus(reg.beta), reg.centers
        out = []
        for a in range(len(c)):
            for b in range(a + 1, len(c)):
                normal = c[b] - c[a]
                half = normal @ normal / 4.0
                if half >= band:
                    continue
                normal /= np.linalg.norm(normal)
                for side in (1.0, -1.0):
                    z = 0.5 * (c[a] + c[b]) + side * np.sqrt(band - half) * np.array(
                        [-normal[1], normal[0]]
                    )
                    d2 = np.sum((c - z) ** 2, axis=1)
                    if np.all(np.delete(d2, [a, b]) > d2[a] + 1e-9):
                        out.append((z, normal))
        return out

    def test_metric_is_continuous_across_voronoi_boundaries(self):
        # with a hard nearest-center min, M jumps by about its own size here
        from statgeo.metric import PullbackMetric

        dec = toy_decoder("beta", seed=2)
        crossings = self.boundary_crossings(dec)
        assert len(crossings) >= 10
        pb = PullbackMetric(dec)
        for z, n in crossings:
            jumps = []
            for eps in (1e-3, 1e-5, 1e-7):
                upper, lower = pb.eval(z + eps * n), pb.eval(z - eps * n)
                jumps.append(np.linalg.norm(upper - lower) / np.linalg.norm(upper))
            assert jumps[0] > jumps[1] > jumps[2]
            # linear in eps: the difference quotient stays bounded
            assert jumps[2] < 1e-3 and jumps[2] / jumps[1] < 0.02

    def test_jacobian_matches_central_differences_on_the_boundary(self):
        dec = toy_decoder("beta", seed=2)
        for z, _ in self.boundary_crossings(dec):
            jac = D.jacobian_stacked(dec, z)
            err = np.max(np.abs(fd_jacobian(dec, z, h=1e-6) - jac))
            assert err < 1e-8 * np.max(np.abs(jac))


class TestActivationConstraints:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_constraints_hold_for_random_inputs(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(33, 2)) * 5
        softplus_dec = toy_decoder("exponential", seed=4, regularized=False)
        assert np.all(D.forward_stacked(softplus_dec, x) > 0)
        softmax_dec = toy_decoder("categorical", seed=4, regularized=False)
        probs = D.forward_stacked(softmax_dec, x)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        vmf_dec = toy_decoder("vmf_s2", seed=4, regularized=False)
        out = D.forward_stacked(vmf_dec, x)
        assert np.allclose(np.linalg.norm(out[:, :3], axis=1), 1.0, atol=1e-12)


class TestProductFisher:
    def test_two_fair_bernoullis(self):
        from statgeo.families import ParamPoint

        fam = get_family("bernoulli")
        pts = [ParamPoint(fam, np.array([0.5])), ParamPoint(fam, np.array([0.5]))]
        assert np.allclose(D.product_fisher(pts), np.diag([4.0, 4.0]))

    def test_single_feature_equals_fisher(self, gen):
        from statgeo import families as F
        from conftest import random_interior

        eta = random_interior(FamilyKind.GAMMA, gen)
        assert np.allclose(D.product_fisher([eta]), F.fisher_rao(eta))

    def test_off_blocks_exactly_zero(self, gen):
        from conftest import random_interior

        pts = [random_interior(FamilyKind.BETA, gen) for _ in range(3)]
        full = D.product_fisher(pts)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.all(full[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] == 0.0)


@pytest.mark.parametrize("noise", [-1.0, np.nan, np.inf, -np.inf])
def test_circle_codes_need_a_finite_nonnegative_noise(noise):
    with pytest.raises(InvalidParam):
        toy_circle_codes(8, noise, RngStream(1))
