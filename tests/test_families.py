import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import statgeo.families as F
from statgeo.errors import DomainError, FamilyMismatch, InvalidParam
from statgeo.families import FamilyKind, McKl, ParamPoint, get_family
from statgeo.rng import RngStream

from conftest import (
    ALL_KINDS,
    fd_score,
    k_for,
    perturb,
    random_interior,
    rel_frob,
    tangent_direction,
)


def point(kind, values):
    return ParamPoint(get_family(kind, k_for(FamilyKind(kind))), np.asarray(values, float))


def sampled_kls_reference(fam, params, mc):
    """Per segment and feature, one draw and one mean, all from one fresh
    ``mc.rng.child(0)`` stream."""
    gen = mc.rng.child(0).generator
    kls = np.zeros(len(params) - 1)
    for i in range(len(params) - 1):
        for f in range(params.shape[1]):
            x = fam.sample(params[i, f], gen, mc.n_samples)
            kls[i] += np.mean(fam.log_pdf(params[i, f], x) - fam.log_pdf(params[i + 1, f], x))
    return kls


class TestLogPdf:
    def test_standard_normal_at_zero(self):
        eta = point("normal", [0.0, 1.0])
        assert F.log_pdf(eta, 0.0) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_fair_coin(self):
        assert F.log_pdf(point("bernoulli", [0.5]), 1.0) == pytest.approx(
            np.log(0.5), abs=1e-12
        )

    def test_unit_exponential_at_zero(self):
        assert F.log_pdf(point("exponential", [1.0]), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_support_errors(self):
        with pytest.raises(DomainError):
            F.log_pdf(point("bernoulli", [0.5]), 0.3)
        with pytest.raises(DomainError):
            F.log_pdf(point("gamma", [1.0, 1.0]), -1.0)
        with pytest.raises(DomainError):
            F.log_pdf(point("vmf_s2", [0, 0, 1, 1.0]), np.array([0.0, 0.0, 2.0]))

    def test_invalid_params(self):
        with pytest.raises(InvalidParam):
            point("normal", [0.0, -1.0])
        with pytest.raises(InvalidParam):
            point("bernoulli", [1.5])
        with pytest.raises(InvalidParam):
            point("vmf_s2", [0.0, 0.0, 2.0, 1.0])

    def test_log_pdf_integrates_to_one_normal(self):
        # quadrature oracle over a wide bracket
        eta = point("normal", [0.4, 1.7])
        xs = np.linspace(-15, 15, 20001)
        total = np.trapezoid(np.exp(F.log_pdf(eta, xs)), xs)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestFisherRao:
    def test_normal_paper_value(self):
        # diag(1/sigma^2, 1/(2 sigma^4)) at unit variance
        assert np.allclose(F.fisher_rao(point("normal", [0.0, 1.0])), np.diag([1.0, 0.5]))

    def test_bernoulli_paper_value(self):
        assert F.fisher_rao(point("bernoulli", [0.5]))[0, 0] == pytest.approx(4.0)

    def test_beta_derived_value(self):
        # psi1(1) = pi^2/6, psi1(2) = pi^2/6 - 1
        got = F.fisher_rao(point("beta", [1.0, 1.0]))
        expected = np.array([[1.0, -0.644934], [-0.644934, 1.0]])
        assert np.allclose(got, expected, atol=1e-6)

    def test_categorical_diag(self):
        got = F.fisher_rao(point("categorical", [0.2, 0.3, 0.5]))
        assert np.allclose(got, np.diag([5.0, 10.0 / 3.0, 2.0]))

    def test_gamma_matches_score_moments(self):
        # the (alpha, beta)-ordered tensor: [[psi1(a), -1/b], [-1/b, a/b^2]]
        got = F.fisher_rao(point("gamma", [1.0, 1.0]))
        expected = np.array([[np.pi**2 / 6, -1.0], [-1.0, 1.0]])
        assert np.allclose(got, expected, atol=1e-12)

    def test_symmetric_pd_50_points_per_family(self, gen):
        for kind in ALL_KINDS:
            for _ in range(50):
                eta = random_interior(kind, gen)
                tensor = F.fisher_rao(eta)
                assert np.allclose(tensor, tensor.T, atol=1e-12)
                assert np.linalg.eigvalsh(tensor).min() > 0, kind

    def test_mc_agrees_with_closed_form(self, gen):
        rng = RngStream(99)
        for i, kind in enumerate(ALL_KINDS):
            for j in range(3):
                eta = random_interior(kind, gen)
                closed = F.fisher_rao(eta)
                x = F.sample(eta, rng.child(100 * i + j), 200_000)
                g = fd_score(eta.family, eta.values, x)
                assert rel_frob(g.T @ g / len(g), closed) < 0.05, kind

    @pytest.mark.parametrize(
        "mu,kappa",
        [((0.0, 0.0, 1.0), 0.05), ((1.0, -2.0, 0.5), 2.0), ((-0.3, 0.4, -2.0), 8.0)],
    )
    def test_vmf_tensor_is_the_score_second_moment_by_quadrature(self, mu, kappa):
        # E[s s^T] over S^2, s the score of log_pdf in all four parameters, so
        # the block normal to the sphere (the mu mu^T coefficient and the
        # kappa K' mu cross terms) is checked too. Product quadrature about mu:
        # Gauss-Legendre in t = cos(theta), exact to rounding for the smooth
        # e^{kappa t} factor, and the trapezoid rule in phi, exact for the
        # degree-2 trigonometric polynomials of s s^T
        mu = np.asarray(mu) / np.linalg.norm(mu)
        fam = get_family(FamilyKind.VON_MISES_FISHER_S2)
        values = np.concatenate([mu, [kappa]])
        e1 = np.cross(mu, [1.0, 0.0, 0.0] if abs(mu[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(mu, e1)
        t, wt = np.polynomial.legendre.leggauss(48)
        phi = 2.0 * np.pi * np.arange(8) / 8
        r = np.sqrt(1.0 - t**2)[:, None, None]
        x = (t[:, None, None] * mu + r * np.cos(phi)[:, None] * e1
             + r * np.sin(phi)[:, None] * e2).reshape(-1, 3)
        weights = (wt[:, None] * np.full(phi.size, 2.0 * np.pi / phi.size)).ravel()
        weights = weights * np.exp(fam.log_pdf(values, x))
        s = fd_score(fam, values, x)
        second = np.einsum("n,ni,nj->ij", weights, s, s)
        closed = fam.fisher(values)
        np.testing.assert_allclose(second, closed, rtol=1e-6, atol=1e-6 * np.abs(closed).max())


class TestKl:
    def test_gaussian_mean_shift(self):
        got = F.kl(point("normal", [0.0, 1.0]), point("normal", [0.1, 1.0]))
        assert got == pytest.approx(0.005, rel=1e-12)

    def test_self_kl_zero(self, gen):
        for kind in ALL_KINDS:
            eta = random_interior(kind, gen)
            assert F.kl(eta, eta) == pytest.approx(0.0, abs=1e-12)

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            F.kl(point("normal", [0.0, 1.0]), point("exponential", [1.0]))

    def test_nonnegative_random_pairs(self, gen):
        for kind in ALL_KINDS:
            for _ in range(25):
                e1, e2 = random_interior(kind, gen), random_interior(kind, gen)
                assert F.kl(e1, e2) >= -1e-12, kind

    def test_vmf_closed_form_vs_mc(self):
        e1 = point("vmf_s2", [0.0, 0.0, 1.0, 5.0])
        e2 = point("vmf_s2", [1.0, 0.0, 0.0, 5.0])
        closed = F.kl(e1, e2)
        mc, se = F.kl_mc_stats(e1, e2, McKl(RngStream(7), 1_000_000))
        assert abs(closed - mc) < 3 * se

    def test_mc_path_other_families(self, gen):
        for kind in (FamilyKind.NORMAL, FamilyKind.GAMMA, FamilyKind.DIRICHLET):
            e1, e2 = random_interior(kind, gen), random_interior(kind, gen)
            closed = F.kl(e1, e2)
            mc, se = F.kl_mc_stats(e1, e2, McKl(RngStream(11), 400_000))
            assert abs(closed - mc) < 4 * se + 1e-12

    def test_sampled_kl_is_the_mean_log_ratio(self, gen):
        for kind in ALL_KINDS:
            e1, e2 = random_interior(kind, gen), random_interior(kind, gen)
            fam = e1.family
            x = fam.sample(e1.values, RngStream(4).generator, 64)
            diffs = fam.log_pdf(e1.values, x) - fam.log_pdf(e2.values, x)
            want = float(np.mean(diffs))
            assert F.kl_mc_stats(e1, e2, McKl(RngStream(4), 64)) == (want, float(np.std(diffs) / 8))

    def test_sampled_kls_match_per_feature_reference(self, gen):
        for kind in ALL_KINDS:
            fam = get_family(kind, k_for(kind))
            params = np.array([[random_interior(kind, gen).values for _ in range(3)]
                               for _ in range(5)])
            got = F.sampled_kls(fam, params, McKl(RngStream(2), 16))
            assert np.array_equal(got, sampled_kls_reference(fam, params, McKl(RngStream(2), 16)))

    def test_second_order_ratio_decreases(self, gen):
        for kind in ALL_KINDS:
            eta = random_interior(kind, gen)
            u = tangent_direction(eta, gen)
            tensor = F.fisher_rao(eta)
            ratios = []
            for eps in (1e-1, 1e-2, 1e-3):
                shifted = perturb(eta, u, eps)
                delta = shifted.values - eta.values
                quad = 0.5 * delta @ tensor @ delta
                ratios.append(abs(F.kl(eta, shifted) - quad) / eps**2)
            assert ratios[0] >= ratios[1] - 1e-9 >= ratios[2] - 2e-9, (kind, ratios)
        # Proposition FRapproxKL: (KL(eta || eta + eps u) + KL(eta || eta - eps u)) / eps^2
        # tends to u^T G(eta) u, the odd orders cancelling, so its error is O(eps^2)
        for kind in ALL_KINDS:
            for _ in range(20):
                eta = random_interior(kind, gen)
                u = tangent_direction(eta, gen)
                quad = u @ F.fisher_rao(eta) @ u
                errs = [
                    abs((F.kl(eta, perturb(eta, u, eps)) + F.kl(eta, perturb(eta, -u, eps)))
                        / eps**2 - quad) / quad
                    for eps in (1e-2, 1e-3)
                ]
                assert errs[1] <= 1e-4 and errs[0] >= 50 * errs[1], (kind, errs)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_kernels_broadcast_like_one_pair_at_a_time(kind, gen):
    # the metric code passes v1 as (n, 1, p) against v2 as (n, k, p): each
    # kernel must give exactly what it gives on the pairs one at a time
    fam = get_family(kind, k_for(kind))
    n, k = 4, 3
    v1 = np.array([[random_interior(kind, gen).values] for _ in range(n)])
    v2 = np.array([[random_interior(kind, gen).values for _ in range(k)] for _ in range(n)])
    kl = fam.kl(v1, v2)
    g1, g2 = fam.kl_grad(v1, v2)
    assert kl.shape == (n, k) and g1.shape == g2.shape == (n, k, fam.param_dim)
    for i in range(n):
        assert np.array_equal(fam.fisher(v1)[i, 0], fam.fisher(v1[i, 0]))
        for j in range(k):
            assert np.array_equal(kl[i, j], fam.kl(v1[i, 0], v2[i, j]))
            one_g1, one_g2 = fam.kl_grad(v1[i, 0], v2[i, j])
            assert np.array_equal(g1[i, j], one_g1) and np.array_equal(g2[i, j], one_g2)
            assert np.array_equal(fam.fisher(v2)[i, j], fam.fisher(v2[i, j]))


class TestSampling:
    def test_deterministic_replay(self, gen):
        for kind in ALL_KINDS:
            eta = random_interior(kind, gen)
            a = F.sample(eta, RngStream(123), 50)
            b = F.sample(eta, RngStream(123), 50)
            assert np.array_equal(a, b), kind

    def test_bernoulli_degenerate(self):
        x = F.sample(point("bernoulli", [1 - 1e-15]), RngStream(0), 100)
        assert np.all(x == 1.0)

    def test_normal_moments(self):
        x = F.sample(point("normal", [0.0, 1.0]), RngStream(1), 100_000)
        assert abs(np.var(x) - 1.0) < 0.02
        assert abs(np.mean(x)) < 0.02

    def test_vmf_mean_resultant(self):
        mu = np.array([1.0, 2.0, 2.0]) / 3.0
        eta = point("vmf_s2", np.concatenate([mu, [1.0]]))
        x = F.sample(eta, RngStream(3), 100_000)
        assert np.linalg.norm(x.mean(axis=0) - 0.3130352854993312 * mu) < 0.02
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_score_identity_unconstrained_families(self, gen):
        # E[score] = 0 for families with free parametrizations
        free = (
            FamilyKind.NORMAL,
            FamilyKind.BERNOULLI,
            FamilyKind.GAMMA,
            FamilyKind.BETA,
            FamilyKind.EXPONENTIAL,
            FamilyKind.DIRICHLET,
        )
        for kind in free:
            eta = random_interior(kind, gen)
            fam = eta.family
            x = fam.sample(eta.values, RngStream(17).generator, 1_000_000)
            g = fd_score(fam, eta.values, x)
            se = g.std(axis=0) / np.sqrt(g.shape[0])
            assert np.all(np.abs(g.mean(axis=0)) < 3 * se + 1e-9), kind


class TestMaxUncertainty:
    def test_bernoulli_half(self):
        assert F.max_uncertainty_params("bernoulli").values[0] == 0.5

    def test_beta_ones(self):
        assert np.allclose(F.max_uncertainty_params("beta").values, [1.0, 1.0])

    def test_categorical_uniform(self):
        assert np.allclose(F.max_uncertainty_params("categorical", 4).values, 0.25)

    def test_config_defaults(self):
        assert F.max_uncertainty_params("normal").values[1] == pytest.approx(1e6)
        assert F.max_uncertainty_params("exponential").values[0] == pytest.approx(1e-3)
        assert F.max_uncertainty_params("vmf_s2").values[3] == pytest.approx(1e-3)
        assert np.allclose(F.max_uncertainty_params("dirichlet", 3).values, 1.0)


@given(
    st.sampled_from([k.value for k in ALL_KINDS]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_kl_nonnegative_property(kind, seed):
    gen = np.random.default_rng(seed)
    e1 = random_interior(FamilyKind(kind), gen)
    e2 = random_interior(FamilyKind(kind), gen)
    assert F.kl(e1, e2) >= -1e-12


def test_categorical_renormalized_on_construction():
    eta = point("categorical", [2.0, 3.0, 5.0])
    assert np.allclose(eta.values, [0.2, 0.3, 0.5])
