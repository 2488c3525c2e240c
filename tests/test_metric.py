import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import statgeo.decoder as D
import statgeo.metric as M
from statgeo import io
from statgeo.decoder import DecoderMap, Head, LayerSpec
from statgeo.errors import InvalidEpsilon, OffSimplex, ShapeError
from statgeo.families import FamilyKind, McKl, get_family
from statgeo.geodesic import SplineCurve, exp_map, kl_energy
from statgeo.rng import RngStream
from statgeo.toy import identity_parameter_decoder, toy_decoder

from conftest import fd_score, lifted_decoder, rel_frob


def gram_kernel_reference(grid, zs):
    """Gaussian blend over the lattice as scattered points (Gram expansion)."""
    pts = grid.points
    d2 = (
        np.sum(zs * zs, axis=1)[:, None]
        + np.sum(pts * pts, axis=1)[None, :]
        - 2.0 * zs @ pts.T
    )
    logw = d2 / (-2.0 * grid.bandwidth**2)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    d = pts.shape[1]
    return (w @ grid.tensors.reshape(-1, d * d)).reshape(-1, d, d)


def kl_probe_reference(dec, z, eps):
    """The per-probe estimator: two decoder calls and one KL per probe."""
    d = dec.latent_dim
    eye = np.eye(d)
    kl_single = np.array([M._decoded_kl(dec, z, z + eps * eye[i], None) for i in range(d)])
    m = np.zeros((d, d))
    np.fill_diagonal(m, 2.0 * kl_single / eps**2)
    for i in range(d):
        for j in range(i + 1, d):
            pair = M._decoded_kl(dec, z, z + eps * (eye[i] + eye[j]), None)
            m[i, j] = m[j, i] = (pair - kl_single[i] - kl_single[j]) / eps**2
    return M.clamp_spd(m)[0]


def probe_cases():
    """(decoder, latent points, tolerance): the 20 x 20 [-2, 2]^2 lattice of
    the toy beta decoder, and a 3-latent decoder, which has 3 pair probes.

    One decoder call per point moves the decoded parameters by an ulp. The
    Beta KL formulas cancel terms of order 10-100 down to KLs of order
    eps^2, so that ulp becomes an absolute error of about 1e-10 in M. The
    toy lattice's largest tensor is large enough to make that 1e-12 of it;
    the 3-latent decoder's tensors are small (|M|_F <= 2.1), hence 1e-8.
    """
    square = M.lattice_points([[-2, 2], [-2, 2]], (20, 20))
    cube = M.lattice_points([[-1.5, 1.5]] * 3, (4, 4, 4))
    return [(toy_decoder("beta", seed=5), square, 1e-10), (lifted_decoder(3), cube, 1e-8)]


def grid_contract_reference(grid, zs, grad):
    """``GridMetric._contract`` as a loop over the axes: each axis's 1-D
    weights from its own nodes, then the lattice contracted one axis at a
    time. M alone, or (M, dM) with ``grad``."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    m, d = zs.shape
    sigma2 = grid.bandwidth**2

    def weights(k):
        nodes = np.linspace(*grid.bounds[k], grid.resolution[k])
        x = zs[:, k]
        xc = np.clip(x, nodes.min(), nodes.max())
        near = nodes[np.argmin(np.abs(xc[:, None] - nodes), axis=1)][:, None]
        logw = (nodes - near) * (x[:, None] - 0.5 * (nodes + near))
        w = np.exp(logw / sigma2)
        w = w / w.sum(axis=1, keepdims=True)
        return w, [w * (nodes - (w @ nodes)[:, None]) / sigma2] if grad else []

    w, dw = weights(0)
    tracks = [v @ grid.tensors.reshape(grid.resolution[0], -1) for v in [w, *dw]]
    for k in range(1, d):
        w, dw = weights(k)
        lats = [t.reshape(m, w.shape[1], -1) for t in tracks]
        tracks = [(w[:, None, :] @ lat)[:, 0] for lat in lats] + [
            (v[:, None, :] @ lats[0])[:, 0] for v in dw
        ]
    out = np.stack(tracks).reshape(-1, m, d, d)
    return (out[0], out[1:]) if grad else out[0]


def random_spd_grid(gen, bounds, resolution, sigma):
    d = len(resolution)
    a = gen.normal(size=(int(np.prod(resolution)), d, d))
    tensors = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(d)
    bounds = np.asarray(bounds, dtype=float)
    return M.MetricGrid(tensors, sigma, bounds, resolution)


class TestPullback:
    def test_identity_normal_chart(self):
        dec = identity_parameter_decoder("normal")
        assert np.allclose(M.pullback(dec, [0.0, 1.0]), np.diag([1.0, 0.5]))

    def test_bernoulli_sigmoid_scalar(self):
        dec = DecoderMap(
            1, 1, get_family("bernoulli"),
            (Head("prob", (LayerSpec(np.array([[1.0]]), np.zeros(1), "sigmoid"),)),),
        )
        assert M.pullback(dec, [0.0])[0, 0] == pytest.approx(0.25)

    def test_positive_definite_at_random_points(self, gen):
        for kind in ("normal", "beta", "gamma", "dirichlet"):
            dec = toy_decoder(kind, seed=21, regularized=False)
            for _ in range(20):
                z = gen.normal(size=2)
                assert np.linalg.eigvalsh(M.pullback(dec, z)).min() > 0

    def test_score_outer_product_equivalence(self, gen):
        # pullback equals the latent Fisher tensor estimated from samples
        kinds = ["normal", "beta", "gamma", "exponential", "bernoulli",
                 "dirichlet", "categorical", "vmf_s2", "normal", "beta"]
        for i, kind in enumerate(kinds):
            dec = toy_decoder(kind, seed=300 + i, regularized=False)
            z = gen.normal(size=2) * 0.8
            exact = M.pullback(dec, z)
            jac = D.jacobian(dec, z)
            stacked = D.forward_stacked(dec, z)
            fam = dec.family
            per = stacked.reshape(dec.feature_count, fam.param_dim)
            gen_mc = RngStream(400 + i).generator
            n = 1_000_000
            total = np.zeros((2, 2))
            for f in range(dec.feature_count):
                x = fam.sample(per[f], gen_mc, n)
                score = fd_score(fam, per[f], x)
                jf = jac[f * fam.param_dim : (f + 1) * fam.param_dim]
                zscore = score @ jf
                total += zscore.T @ zscore / n
            assert rel_frob(total, exact) < 0.05, kind

    @pytest.mark.parametrize("regularized", [True, False])
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_one_walk_derivative_is_the_base_stencil(self, kind, regularized, gen):
        pb = M.PullbackMetric(toy_decoder(kind.value, seed=5, regularized=regularized))
        zs = gen.uniform(-2, 2, size=(5, 2))
        got, want = pb.eval_batch_and_grad(zs), M.LatentMetric.eval_batch_and_grad(pb, zs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_one_walk_derivative_on_a_relabeled_decoder(self, gen):
        dec = D.compose_linear(toy_decoder("beta", seed=5), [[0.8, 0.3], [-0.2, 1.1]], [0.1, -0.4])
        pb = M.PullbackMetric(dec)
        zs = gen.uniform(-1.5, 1.5, size=(4, 2))
        got, want = pb.eval_batch_and_grad(zs), M.LatentMetric.eval_batch_and_grad(pb, zs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_exp_map_walks_the_decoder_once_per_rk4_stage(self, monkeypatch):
        walks = []
        real = D._decode

        def counting(*args, **kwargs):
            walks.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(D, "_decode", counting)
        pb = M.PullbackMetric(toy_decoder("beta", seed=5))
        for steps in (1, 7):
            walks.clear()
            exp_map(pb, [0.6, 0.2], [0.3, -0.2], steps=steps)
            # 3 metric evaluations per step (stages 2 and 3 share one
            # position), plus the start tensor's two walks
            assert len(walks) == 3 * steps + 2


class TestKlProbe:
    def test_identity_normal_point(self):
        dec = identity_parameter_decoder("normal")
        got = M.kl_probe(dec, [0.0, 1.0], eps=1e-3)
        assert np.max(np.abs(got - np.diag([1.0, 0.5]))) < 1e-3

    def test_invalid_epsilon(self):
        dec = identity_parameter_decoder("normal")
        with pytest.raises(InvalidEpsilon):
            M.kl_probe(dec, [0.0, 1.0], eps=0.0)
        with pytest.raises(InvalidEpsilon):
            M.KlProbeMetric(dec, eps=-1.0)
        for eps in (np.nan, np.inf):
            with pytest.raises(InvalidEpsilon):
                M.KlProbeMetric(dec, eps=eps)

    @pytest.mark.parametrize("kind,bound", [("normal", 1e-2), ("beta", 1e-2)])
    def test_parameter_space_accuracy(self, kind, bound, gen):
        dec = identity_parameter_decoder(kind)
        errs = []
        for _ in range(100):
            z = gen.uniform(0.5, 2.5, size=2)
            errs.append(rel_frob(M.kl_probe(dec, z, eps=1e-2), M.pullback(dec, z)))
        assert np.mean(errs) < bound

    def test_error_decreases_with_eps(self, gen):
        dec = toy_decoder("beta", seed=31, regularized=False)
        z = gen.normal(size=2) * 0.5
        exact = M.pullback(dec, z)
        errs = [rel_frob(M.kl_probe(dec, z, eps=e), exact) for e in (1e-1, 1e-2, 1e-3)]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("case", [0, 1])
    def test_matches_per_probe_reference(self, case):
        dec, points, tol = probe_cases()[case]
        got = np.stack([M.kl_probe(dec, z, eps=1e-2) for z in points])
        want = np.stack([kl_probe_reference(dec, z, 1e-2) for z in points])
        scale = np.linalg.norm(want, axis=(1, 2)).max()
        assert np.linalg.norm(got - want, axis=(1, 2)).max() <= tol * scale

    def test_clamping_counter(self):
        # a decoder that is locally constant gives ~zero probes; the metric
        # object clamps them SPD and counts it
        fam = get_family("bernoulli")
        dec = DecoderMap(
            2, 1, fam,
            (Head("prob", (LayerSpec(np.zeros((1, 2)), np.zeros(1), "sigmoid"),)),),
        )
        probe = M.KlProbeMetric(dec, eps=1e-2)
        tensor = probe.eval(np.zeros(2))
        assert probe.clamp_count >= 1
        assert np.linalg.eigvalsh(tensor).min() >= 0


def decoded_kl_reference(dec, z1, z2, mc):
    """The per-feature sampled KL: two decoder calls, then one draw and one
    mean per feature from a fresh ``mc.rng.child(0)`` stream."""
    fam = dec.family
    p1 = D.forward_stacked(dec, z1).reshape(dec.feature_count, fam.param_dim)
    p2 = D.forward_stacked(dec, z2).reshape(dec.feature_count, fam.param_dim)
    gen = mc.rng.child(0).generator
    total = 0.0
    for f in range(dec.feature_count):
        x = fam.sample(p1[f], gen, mc.n_samples)
        total += float(np.mean(fam.log_pdf(p1[f], x) - fam.log_pdf(p2[f], x)))
    return total


class TestOneRowViews:
    def test_a_metric_needs_only_eval_batch(self):
        class Scaled(M.LatentMetric):
            latent_dim = 2

            def eval_batch(self, zs):
                zs = np.atleast_2d(zs)
                return (1.0 + zs[:, 0])[:, None, None] * np.eye(2)

        assert np.array_equal(Scaled().eval([0.5, -1.0]), 1.5 * np.eye(2))

    @pytest.mark.parametrize("regularized", [True, False])
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_single_point_tensors_are_rows_of_eval_batch(self, kind, regularized, gen):
        # a batch of m rows may round the decoder's matrix products
        # differently from m = 1, hence the one-row batch for the pullback
        dec = toy_decoder(kind.value, seed=5, regularized=regularized)
        zs = gen.uniform(-2, 2, size=(6, 2))
        pb = M.PullbackMetric(dec)
        rows, probe_rows = pb.eval_batch(zs), M.KlProbeMetric(dec).eval_batch(zs)
        for z, row, probe_row in zip(zs, rows, probe_rows):
            one_row = pb.eval_batch(z[None])[0]
            assert np.array_equal(M.pullback(dec, z), one_row)
            assert np.array_equal(pb.eval(z), one_row)
            assert np.max(np.abs(one_row - row)) <= 1e-14 * np.max(np.abs(rows))
            assert np.array_equal(M.kl_probe(dec, z), probe_row)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_sampled_decoded_kl_matches_per_feature_reference(self, kind, gen):
        dec = toy_decoder(kind.value, seed=5)
        for seed in range(4):
            z1, z2 = gen.uniform(-2, 2, size=(2, 2))
            want = decoded_kl_reference(dec, z1, z2, McKl(RngStream(seed), 32))
            assert M._decoded_kl(dec, z1, z2, McKl(RngStream(seed), 32)) == want


class TestSimplexChart:
    def test_binary_complement(self):
        pt, _ = M.simplex_chart(np.array([0.3]))
        assert np.allclose(pt.values, [0.3, 0.7])

    def test_uniform_pullback_k3(self):
        from statgeo.families import fisher_rao

        pt, jac = M.simplex_chart(np.array([1 / 3, 1 / 3]))
        pulled = jac.T @ fisher_rao(pt) @ jac
        assert np.allclose(pulled, [[6.0, 3.0], [3.0, 6.0]])

    def test_off_simplex(self):
        with pytest.raises(OffSimplex):
            M.simplex_chart(np.array([0.7, 0.4]))
        with pytest.raises(OffSimplex):
            M.simplex_chart(np.array([-0.1, 0.5]))

    def test_chart_decoder_matches_chart(self, gen):
        dec = M.simplex_chart_decoder(3)
        for _ in range(10):
            free = gen.uniform(0.1, 0.4, size=2)
            pt, jac = M.simplex_chart(free)
            from statgeo.families import fisher_rao

            assert np.allclose(M.pullback(dec, free), jac.T @ fisher_rao(pt) @ jac)


class TestGrid:
    @pytest.mark.parametrize("sigma", [np.inf, np.nan, 0.0, -0.5])
    def test_bandwidth_must_be_finite_and_positive(self, sigma):
        cm = M.ConstantMetric(np.eye(2))
        with pytest.raises(ShapeError):
            M.grid_build(cm, [[0, 1], [0, 1]], (2, 2), sigma=sigma)
        with pytest.raises(ShapeError):
            M.MetricGrid(np.tile(np.eye(2), (4, 1, 1)), sigma, [[0, 1], [0, 1]], (2, 2))

    def test_corner_enumeration(self):
        cm = M.ConstantMetric(np.eye(2))
        grid = M.grid_build(cm, [[0, 1], [0, 1]], (2, 2), sigma=0.5)
        assert grid.points.shape == (4, 2)
        assert np.allclose(
            grid.points, [[0, 0], [0, 1], [1, 0], [1, 1]]
        )

    def test_resolution_5x7(self):
        cm = M.ConstantMetric(np.eye(2))
        grid = M.grid_build(cm, [[0, 1], [0, 2]], (5, 7), sigma=0.5)
        assert grid.points.shape[0] == 35

    def test_constant_source_equal_tensors(self):
        cm = M.ConstantMetric(np.array([[2.0, 0.3], [0.3, 1.0]]))
        grid = M.grid_build(cm, [[-1, 1], [-1, 1]], (4, 4), sigma=0.3)
        assert np.allclose(grid.tensors, cm.matrix)

    def test_probe_grid_tensors_symmetric(self):
        dec = toy_decoder("beta", seed=5, regularized=False)
        grid = M.grid_build(M.KlProbeMetric(dec, 1e-2), [[-1, 1], [-1, 1]], (5, 5), 0.3)
        assert np.allclose(grid.tensors, np.swapaxes(grid.tensors, 1, 2), atol=1e-10)

    def test_kernel_concentration(self, gen):
        tensors = np.stack([np.diag([1.0 + i, 2.0 + i]) for i in range(4)])
        grid = M.MetricGrid(
            tensors=tensors,
            bandwidth=1e-3,  # ~ 1e-3 * unit spacing
            bounds=np.array([[0, 1], [0, 1]]),
            resolution=(2, 2),
        )
        gm = M.GridMetric(grid)
        for i, p in enumerate(grid.points):
            assert np.max(np.abs(gm.eval(p) - tensors[i])) < 1e-9

    def test_equidistant_mean_of_two(self):
        tensors = np.stack([np.diag([1.0, 1.0]), np.diag([3.0, 5.0])])
        grid = M.MetricGrid(
            tensors=tensors,
            bandwidth=0.7,
            bounds=np.array([[0, 1], [0, 0]]),
            resolution=(2, 1),
        )
        got = M.grid_eval(grid, np.array([0.5, 0.37]))
        assert np.allclose(got, tensors.mean(axis=0))

    def test_weights_sum_to_one(self, gen):
        cm = M.ConstantMetric(np.eye(2))
        grid = M.grid_build(cm, [[-1, 1], [-1, 1]], (6, 6), sigma=0.4)
        gm = M.GridMetric(grid)
        # a constant lattice reproduces the constant exactly iff weights sum to 1
        for _ in range(20):
            z = gen.normal(size=2) * 2
            assert np.allclose(gm.eval(z), np.eye(2), atol=1e-12)

    def test_far_field_returns_nearest(self):
        tensors = np.stack([np.diag([1.0, 1.0]), np.diag([9.0, 9.0])])
        grid = M.MetricGrid(
            tensors=tensors,
            bandwidth=0.05,
            bounds=np.array([[0, 1], [0, 0]]),
            resolution=(2, 1),
        )
        gm = M.GridMetric(grid)
        assert np.allclose(gm.eval(np.array([1e8, 0.0])), tensors[1])

    @pytest.mark.parametrize(
        "bounds,resolution,sigma",
        [
            ([[-1.0, 2.0], [0.0, 4.2]], (5, 7), 0.6),
            ([[0.0, 1.0], [-1.0, 1.0], [-2.0, 0.5]], (4, 3, 5), 0.4),
        ],
    )
    def test_matches_gram_kernel(self, gen, bounds, resolution, sigma):
        grid = random_spd_grid(gen, bounds, resolution, sigma)
        lo, hi = grid.bounds[:, 0], grid.bounds[:, 1]
        inside = gen.uniform(lo, hi, size=(200, len(resolution)))
        outside = gen.uniform(lo - 10 * sigma, hi + 10 * sigma, size=(200, len(resolution)))
        zs = np.vstack([inside, outside])
        got = M.GridMetric(grid).eval_batch(zs)
        want = gram_kernel_reference(grid, zs)
        for g, w in zip(got, want):
            assert rel_frob(g, w) < 1e-12

    def test_far_field_finite_and_nan_queries(self, gen):
        grid = random_spd_grid(gen, [[0.0, 4.0], [0.0, 6.0]], (5, 7), 0.05)
        gm = M.GridMetric(grid)
        for q, node in [((1e120, 3.0), (4.0, 3.0)), ((-1e200, 1e200), (0.0, 6.0))]:
            i = np.flatnonzero(np.all(grid.points == node, axis=1))[0]
            assert np.allclose(gm.eval(np.array(q)), grid.tensors[i], rtol=1e-12, atol=0)
        with np.errstate(invalid="ignore"):
            for q in [(np.nan, 1.0), (2.0, np.inf)]:
                assert np.all(np.isnan(gm.eval(np.array(q))))

    @pytest.mark.parametrize(
        "bounds,resolution,sigma",
        [
            ([[-1.0, 2.0], [0.0, 4.2]], (5, 7), 0.6),
            ([[0.0, 1.0], [-1.0, 1.0], [-2.0, 0.5]], (4, 3, 5), 0.4),
        ],
    )
    def test_derivative_matches_central_differences(self, gen, bounds, resolution, sigma):
        grid = random_spd_grid(gen, bounds, resolution, sigma)
        lo, hi = grid.bounds[:, 0], grid.bounds[:, 1]
        inside = gen.uniform(lo, hi, size=(200, len(resolution)))
        outside = gen.uniform(lo - 10 * sigma, hi + 10 * sigma, size=(200, len(resolution)))
        zs = np.vstack([inside, outside])
        gm = M.GridMetric(grid)
        mm, dm = gm.eval_batch_and_grad(zs)
        assert np.array_equal(mm, gm.eval_batch(zs))
        _, want = M.LatentMetric.eval_batch_and_grad(gm, zs)
        assert dm.shape == (len(resolution), len(zs), len(resolution), len(resolution))
        assert rel_frob(dm, want) < 1e-6

    def test_derivative_far_field_zero_and_nan_queries(self, gen):
        grid = random_spd_grid(gen, [[0.0, 4.0], [0.0, 6.0]], (5, 7), 0.05)
        gm = M.GridMetric(grid)
        _, dm = gm.eval_batch_and_grad(np.array([[1e120, 3.0], [-1e200, 1e200]]))
        # one-hot weights along a far-field axis: that axis's derivative is
        # exactly 0 (at (1e120, 3) the kernel's exp(-200) tails keep dM/dz_1 > 0)
        assert np.all(dm[0] == 0.0)
        assert np.all(dm[:, 1] == 0.0)
        with np.errstate(invalid="ignore"):
            mm, dm = gm.eval_batch_and_grad(np.array([[np.nan, 1.0], [2.0, np.nan]]))
        assert np.all(np.isnan(mm)) and np.all(np.isnan(dm))

    def test_constant_metric_derivative_is_zero(self, gen):
        mat = np.array([[2.0, 0.3], [0.3, 1.0]])
        mm, dm = M.ConstantMetric(mat).eval_batch_and_grad(gen.normal(size=(4, 2)))
        assert np.array_equal(mm, np.broadcast_to(mat, (4, 2, 2)))
        assert dm.shape == (2, 4, 2, 2) and not np.any(dm)

    def test_points_are_derived_and_an_old_file_with_points_loads(self, gen, tmp_path):
        # the file keeps no points, and a file written with them still loads
        grid = random_spd_grid(gen, [[-1.0, 1.0], [0.0, 2.0]], (3, 4), 0.5)
        assert np.array_equal(grid.points, M.lattice_points(grid.bounds, grid.resolution))
        path, old = tmp_path / "grid.json", tmp_path / "old.json"
        io.save_grid(grid, path)
        doc = io.load_json(path)
        assert list(doc) == [
            "version", "kind", "mode", "latent_dim", "bounds", "resolution", "bandwidth",
            "tensors",
        ]
        io.save_json(dict(doc, points=grid.points.tolist()), old)
        got = io.load_grid(old)
        assert np.array_equal(got.tensors, grid.tensors)
        assert np.array_equal(got.bounds, grid.bounds)
        assert got.resolution == grid.resolution and got.bandwidth == grid.bandwidth

    def test_grid_file_round_trip(self, gen, tmp_path):
        # the file keeps no log_sqrt_det, and a file written with one still loads
        grid = random_spd_grid(gen, [[-1.0, 1.0], [0.0, 2.0]], (3, 4), 0.37)
        path, old = tmp_path / "grid.json", tmp_path / "old.json"
        io.save_grid(grid, path)
        doc = io.load_json(path)
        assert "log_sqrt_det" not in doc
        logdet = np.linalg.slogdet(grid.tensors)[1]
        io.save_json(dict(doc, log_sqrt_det=[0.5 * float(v) for v in logdet]), old)
        for got in (io.load_grid(path), io.load_grid(old)):
            assert np.array_equal(got.tensors, grid.tensors)
            assert np.array_equal(got.bounds, grid.bounds)
            assert got.resolution == grid.resolution and got.bandwidth == grid.bandwidth

    def test_eigenvalue_bounds_commuting_tensors(self, gen):
        # convex combinations of diagonal tensors stay inside the eigenvalue box
        diags = gen.uniform(0.5, 4.0, size=(9, 2))
        tensors = np.stack([np.diag(d) for d in diags])
        grid = M.MetricGrid(tensors, 0.5, np.array([[0, 1], [0, 1]]), (3, 3))
        gm = M.GridMetric(grid)
        lo, hi = diags.min(), diags.max()
        for _ in range(25):
            vals = np.linalg.eigvalsh(gm.eval(gen.uniform(-0.5, 1.5, size=2)))
            assert vals.min() >= lo - 1e-9 and vals.max() <= hi + 1e-9


def assert_matches_the_loop(grid, zs, mm, dm, want_mm, want_dm):
    """The kernel against ``grid_contract_reference``: the same NaN rows, M
    within 1e-14 of the row's largest |M|, dM within 1e-13 of that over
    sigma, and every exact zero of the loop's dM exactly 0."""
    assert np.array_equal(np.isnan(mm), np.isnan(want_mm))
    assert np.array_equal(np.isnan(dm), np.isnan(want_dm))
    ok = ~np.isnan(want_mm).any(axis=(1, 2))
    scale = np.abs(want_mm[ok]).max(axis=(1, 2))
    assert np.all(np.abs(mm[ok] - want_mm[ok]).max(axis=(1, 2)) <= 1e-14 * scale)
    dm_err = np.abs(dm[:, ok] - want_dm[:, ok]).max(axis=(0, 2, 3))
    assert np.all(dm_err <= 1e-13 * scale / grid.bandwidth)
    assert np.all(dm[want_dm == 0] == 0)


@pytest.mark.parametrize("case", ["toy", (5, 7), (4, 3, 5), (2, 1), (37, 9), (11,)])
def test_one_weight_pass_equals_the_per_axis_loop(case, gen):
    # inside, 1 unit beyond the box, far afield and at NaN/inf, the kernel
    # agrees with the per-axis loop to rounding (measured worst, both on the
    # toy grid: M within 4.4e-15 of the row's largest |M|, dM within 2.2e-14
    # of that over sigma; rows the loop gives exactly 0 come out exactly 0),
    # and its M with and without dM are the same bit for bit
    if case == "toy":  # the 40 x 40 pullback grid of the toy workflow
        pullback = M.PullbackMetric(toy_decoder("beta", seed=5))
        grid = M.grid_build(pullback, [[-2, 2], [-2, 2]], (40, 40), 0.25)
    else:
        bounds = gen.uniform(-2.0, 0.0, size=(len(case), 1)) + [[0.0, 2.5]]
        grid = random_spd_grid(gen, bounds, case, 0.3)
    d = grid.bounds.shape[0]
    lo, hi = grid.bounds[:, 0], grid.bounds[:, 1]
    spread = gen.uniform(lo - 1.0, hi + 1.0, size=(3000, d))
    special = np.full((6, d), 0.5 * (lo + hi))
    special[:, 0] = [1e120, -1e200, np.nan, np.inf, -np.inf, hi[0]]
    special[5, -1] = np.nan  # NaN on the last axis only (the first one when d = 1)
    zs = np.vstack([spread, special])
    gm = M.GridMetric(grid)
    with np.errstate(invalid="ignore"):
        mm, dm = gm.eval_batch_and_grad(zs)
        got = gm.eval_batch(zs)
        want_mm, want_dm = grid_contract_reference(grid, zs, grad=True)
        want = grid_contract_reference(grid, zs, grad=False)
    assert np.array_equal(got, mm, equal_nan=True)
    assert np.array_equal(want, want_mm, equal_nan=True)
    assert_matches_the_loop(grid, zs, mm, dm, want_mm, want_dm)
    assert np.all(np.isfinite(got[:3002])) and np.all(np.isnan(got[3002:]))


@pytest.mark.parametrize("bounds,resolution", [
    ([[2.0, -2.0], [1.0, -0.5]], (9, 6)),  # descending, as --bounds=2,-2,... gives
    ([[-1.0, 1.5], [0.0, 0.0]], (7, 1)),  # one node on a zero-span axis
    ([[-1.0, 1.5], [0.3, 2.0]], (7, 1)),  # one node, at the lower bound
    ([[-1.0, 1.0], [0.3, 0.3]], (6, 3)),  # three nodes in one place
    ([[-2.0, 2.0], [-1.0, 1.0]], (6, 4)),  # even counts: the midpoints tie two nodes
])
def test_nearest_node_edge_cases_match_the_loop_without_warnings(bounds, resolution, gen):
    grid = random_spd_grid(gen, bounds, resolution, 0.3)
    nodes = M._axis_nodes(grid.bounds, grid.resolution)
    lo, hi = grid.bounds.min(axis=1), grid.bounds.max(axis=1)
    spread = gen.uniform(lo - 1.0, hi + 1.0, size=(500, 2))
    # every node, every midpoint between neighbours, the box's middle, and
    # far afield up to the largest finite float
    ties = np.array(np.meshgrid(*[np.concatenate([a, 0.5 * (a[1:] + a[:-1])]) for a in nodes]))
    huge = np.finfo(float).max
    far = [[1e120, 0.0], [-1e200, 1e300], [huge, -huge], [0.5 * (lo[0] + hi[0]), huge]]
    zs = np.vstack([spread, ties.reshape(2, -1).T, 0.5 * (lo + hi), far])
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        gm = M.GridMetric(grid)
        mm, dm = gm.eval_batch_and_grad(zs)
        assert np.array_equal(gm.eval_batch(zs), mm)
    with np.errstate(all="ignore"):
        want_mm, want_dm = grid_contract_reference(grid, zs, grad=True)
    assert np.all(np.isfinite(mm)) and np.all(np.isfinite(dm))
    assert_matches_the_loop(grid, zs, mm, dm, want_mm, want_dm)
    # far afield on both axes, the weights are one-hot: the nearest node's
    # tensor and dM exactly 0 (a coincident axis weighs its nodes evenly)
    for row, pick in ((-3, (np.argmin, np.argmax)), (-2, (np.argmax, np.argmin))):
        assert np.all(dm[:, row] == 0)
        if all(np.ptp(a) > 0 or a.size == 1 for a in nodes):
            i = pick[0](nodes[0]) * resolution[1] + pick[1](nodes[1])
            assert np.array_equal(mm[row], grid.tensors[i])


class TestReparametrization:
    def test_energy_identity_under_linear_relabeling(self, gen):
        # energy of c under pullback(dec o g^-1) equals energy of g(c) under
        # pullback(dec) at the same discretization
        dec = toy_decoder("beta", seed=8)
        a = np.array([[0.9, 0.4], [-0.3, 1.2]])
        a_inv = np.linalg.inv(a)
        dec_relabel = D.compose_linear(dec, a_inv)
        z0, z1 = gen.normal(size=2), gen.normal(size=2)
        coeffs = 0.1 * gen.normal(size=(2, 8))
        curve = SplineCurve(a @ z0, a @ z1, 4, coeffs)
        curve_orig = SplineCurve(z0, z1, 4, np.linalg.solve(a, coeffs))
        e_relabel = kl_energy(curve, dec_relabel, 200)
        e_orig = kl_energy(curve_orig, dec, 200)
        assert abs(e_relabel - e_orig) < 1e-8 * max(1.0, abs(e_orig))


def test_clamp_spd():
    m = np.diag([2.0, -0.5])
    fixed, n = M.clamp_spd(m)
    assert n == 1
    assert np.linalg.eigvalsh(fixed).min() > 0
    ok, n2 = M.clamp_spd(np.eye(2))
    assert n2 == 0 and np.allclose(ok, np.eye(2))
    # a clamped tensor is exactly symmetric, as LatentMetric tensors are
    # ((vecs * vals) @ vecs.T alone was not for 143 of these 200)
    gen = np.random.default_rng(0)
    for _ in range(200):
        a = gen.standard_normal((3, 3))
        fixed, _ = M.clamp_spd(a + a.T)
        assert np.array_equal(fixed, fixed.T)
