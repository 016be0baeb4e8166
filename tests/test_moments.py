from types import SimpleNamespace

import numpy as np
import pytest

from riscest.channel import ChannelSampler, ChannelStatistics, FadingParams, build_statistics
from riscest.estimators import _expansion
from riscest.moments import (
    _block_correlation,
    build_moments,
    cov_ss,
    cov_ss_block_ideal,
    cov_uu,
    group_aggregation_matrix,
    mean_s,
    observation_moments,
)
from riscest.scenario import desk_scenario
from riscest.training import make_training_config

from test_channel import default_fading, small_geometry


def contiguous(n_elements, n_groups):
    """The contiguous grouping of a training round (`TrainingConfig.group_index`)."""
    return make_training_config(n_elements, 1, n_groups=n_groups).group_index


def scalar_stats(kappa_a=0.0, kappa_g=0.0, rho_b=1.0):
    """M = 1, N = 1 statistics with unit gains and trivial correlation."""
    fading = FadingParams(
        kappa_a=kappa_a, kappa_g=kappa_g, alpha_a=2.0, alpha_g=2.0, alpha_b=2.0,
        rho_0=1e-3, eta=np.array([0.5, 0.5]),
    )
    return ChannelStatistics(
        rho_b=np.array([rho_b]), rho_g=np.array([1.0]), rho_a=1.0,
        g_bar=np.array([[1.0 + 0j]]), a_bar=np.array([[1.0 + 0j]]),
        R=np.array([[[1.0 + 0j]]]), R0=np.array([[1.0 + 0j]]),
        fading=fading,
    )


def sampler_targets(stats, k, n_draws, seed, chunk=10_000):
    """User k's targets of n_draws realizations from one seeded stream, (n_draws, M(N+1)).

    Each realization is one row of `ChannelSampler.n_normals` normals, drawn in
    chunks of rows; the stream, and so every draw, is that of one
    (n_draws, n_normals) call.
    """
    sampler = ChannelSampler(stats)
    rng = np.random.default_rng(seed)
    out = []
    for lo in range(0, n_draws, chunk):
        normals = rng.standard_normal((min(chunk, n_draws - lo), sampler.n_normals))
        out.append(sampler.sample(normals=normals).s[:, k])
    return np.concatenate(out)


@pytest.fixture(scope="module")
def production_draws():
    """Desk targets from the per-trial sampler the Monte Carlo engine uses, (20000, K, M(N+1))."""
    stats = desk_scenario().statistics()
    sampler = ChannelSampler(stats)
    rng = np.random.default_rng(19)
    return stats, np.stack([sampler.sample(rng).s for _ in range(20_000)])


class TestMeanS:
    def test_zero_without_ris_bs_los(self):
        stats = build_statistics(small_geometry(), default_fading())
        stats.fading.kappa_a = 0.0
        np.testing.assert_array_equal(mean_s(stats, 0), 0.0)

    def test_zero_without_ue_ris_los(self):
        stats = build_statistics(small_geometry(), default_fading())
        stats.fading.kappa_g = 0.0
        np.testing.assert_array_equal(mean_s(stats, 1), 0.0)

    def test_matches_los_product_formula(self):
        stats = build_statistics(small_geometry(), default_fading())
        ka, kg = stats.fading.kappa_a, stats.fading.kappa_g
        coef = np.sqrt(ka * kg / ((1 + ka) * (1 + kg)))
        mu = mean_s(stats, 0)
        m, n = stats.m_antennas, stats.n_elements
        np.testing.assert_array_equal(mu[:m], 0.0)
        for ant in range(m):
            np.testing.assert_allclose(
                mu[m + ant * n : m + (ant + 1) * n],
                coef * stats.a_bar[ant] * stats.g_bar[0],
                rtol=1e-14,
            )

    def test_matches_sample_mean_zscore(self, production_draws):
        # sharper oracle than the max-entry rule: every entry within 5 standard errors
        # inputs: 40 000 block draws of user 0, then the per-trial draws of every user
        stats, draws = production_draws
        inputs = [(0, sampler_targets(stats, 0, 40_000, 13))]
        inputs += [(k, draws[:, k]) for k in range(stats.n_users)]
        for k, s in inputs:
            n_draws = s.shape[0]
            mu_hat = s.mean(axis=0)
            mu = mean_s(stats, k)
            se = np.sqrt(np.diagonal(cov_ss(stats, k)).real / n_draws)
            dev = np.abs(mu_hat - mu)
            mask = se > 0
            assert np.all(dev[mask] < 5 * se[mask]), k
            np.testing.assert_array_equal(dev[~mask], 0.0)


class TestCovSs:
    def test_scalar_rayleigh_case(self):
        # hand evaluation: direct block 1; cascade block R0*(Gbar+Rg) = 1*(0+1)
        c = cov_ss(scalar_stats(), 0)
        np.testing.assert_allclose(c, np.diag([1.0, 1.0]), atol=1e-15)

    def test_deterministic_limit(self):
        stats = build_statistics(small_geometry(), default_fading())
        stats.fading.kappa_a = 1e12
        stats.fading.kappa_g = 1e12
        c = cov_ss(stats, 0)
        m = stats.m_antennas
        assert np.abs(c[m:, m:]).max() < 1e-10

    def test_blocked_direct_block_is_zero(self):
        stats = desk_scenario().statistics()
        c = cov_ss(stats, 0)
        m = stats.m_antennas
        np.testing.assert_array_equal(c[:m, :], 0.0)
        np.testing.assert_array_equal(c[:, :m], 0.0)

    def test_unblocked_direct_block_is_identity(self):
        stats = build_statistics(small_geometry(), default_fading(blocked=False))
        c = cov_ss(stats, 0)
        m = stats.m_antennas
        np.testing.assert_array_equal(c[:m, :m], np.eye(m))

    def test_hermitian_psd_fuzz(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            geo = small_geometry(
                n_x=int(rng.integers(1, 4)), n_y=int(rng.integers(1, 4)),
                m=int(rng.integers(1, 3)), k=1,
            )
            fading = FadingParams(
                kappa_a=float(rng.uniform(0, 5)), kappa_g=float(rng.uniform(0, 5)),
                alpha_a=2.5, alpha_g=2.2, alpha_b=3.0, rho_0=1e-3,
                eta=rng.uniform(0, 1, size=2), direct_blocked=bool(rng.integers(0, 2)),
            )
            stats = build_statistics(geo, fading)
            c = cov_ss(stats, 0)
            assert np.abs(c - c.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() > -1e-8

    def test_matches_sample_covariance(self, production_draws):
        stats, draws = production_draws
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(15)
        n_draws, chunk = 60_000, 20_000
        dim = stats.m_antennas * (stats.n_elements + 1)
        acc_mu = np.zeros(dim, complex)
        acc_cov = np.zeros((dim, dim), complex)
        for _ in range(n_draws // chunk):
            normals = rng.standard_normal((chunk, sampler.n_normals))
            s = sampler.sample(normals=normals).s[:, 1]
            acc_mu += s.sum(axis=0)
            acc_cov += s.T @ s.conj()
        mu_hat = acc_mu / n_draws
        cov_hat = acc_cov / n_draws - np.outer(mu_hat, mu_hat.conj())
        c = cov_ss(stats, 1)
        assert np.abs(cov_hat - c).max() < 0.05 * np.abs(c).max()
        # the production sampler, every user
        for k in range(stats.n_users):
            s = draws[:, k]
            mu_hat = s.mean(axis=0)
            cov_hat = (s.T @ s.conj()) / s.shape[0] - np.outer(mu_hat, mu_hat.conj())
            c = cov_ss(stats, k)
            assert np.abs(cov_hat - c).max() < 0.05 * np.abs(c).max(), k


class TestCovUu:
    def test_identity_grouping_is_identical(self):
        stats = desk_scenario().statistics()
        c = cov_ss(stats, 0)
        np.testing.assert_array_equal(cov_uu(c, contiguous(16, 16), stats.m_antennas), c)

    def test_two_to_one_aggregation(self):
        # M = 1, N = 2 with hand-filled cascade block
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0] = 1.0
        c[1:, 1:] = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 3.0]])
        agg = cov_uu(c, contiguous(2, 1), 1)
        assert agg.shape == (2, 2)
        assert agg[0, 0] == 1.0
        assert agg[1, 1] == pytest.approx(2.0 + 3.0 + 2 * 0.5, rel=1e-15)

    def test_quadratic_form_consistency(self):
        stats = desk_scenario().statistics()
        c = cov_ss(stats, 0)
        agg = cov_uu(c, contiguous(16, 4), stats.m_antennas)
        p = group_aggregation_matrix(contiguous(16, 4), stats.m_antennas)
        rng = np.random.default_rng(16)
        for _ in range(30):
            v = rng.standard_normal(agg.shape[0]) + 1j * rng.standard_normal(agg.shape[0])
            lhs = np.vdot(v, agg @ v).real
            w = p.T @ v
            rhs = np.vdot(w, c @ w).real
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_matches_sample_aggregates(self):
        stats = desk_scenario().statistics()
        s = sampler_targets(stats, 0, 40_000, 17)
        p = group_aggregation_matrix(contiguous(16, 4), stats.m_antennas)
        u = (s - mean_s(stats, 0)[None, :]) @ p.T
        cov_hat = u.T @ u.conj() / s.shape[0]
        agg = cov_uu(cov_ss(stats, 0), contiguous(16, 4), stats.m_antennas)
        assert np.abs(cov_hat - agg).max() < 0.05 * np.abs(agg).max()

    def test_expansion_matrix_left_inverse_on_groups(self):
        p = group_aggregation_matrix(contiguous(8, 2), 2)
        e = _expansion(SimpleNamespace(group_index=contiguous(8, 2), m_antennas=2))
        np.testing.assert_allclose(p @ e, np.eye(p.shape[0]), atol=1e-14)


def _runs(n, g):
    """Members of the contiguous grouping of n elements into g groups."""
    return tuple(range(j * (n // g), (j + 1) * (n // g)) for j in range(g))


GROUPINGS = {
    **{f"{m}-{n}-{g}": (m, _runs(n, g))
       for m, n, g in [(1, 4, 2), (2, 8, 2), (4, 16, 4), (4, 16, 16), (1, 16, 1)]},
    "2-8-scattered": (2, ((0, 3, 5, 6), (1, 2, 4, 7))),
}


@pytest.mark.parametrize("m,members", GROUPINGS.values(), ids=GROUPINGS.keys())
def test_grouping_matrices_match_contiguous_slices(m, members):
    # independent oracle: the direct block is copied and group j of antenna a
    # sums antenna a's cascade entries at group j's members, N/G consecutive
    # indices j*N/G .. (j+1)*N/G - 1 in the contiguous cases
    n, g = sum(len(group) for group in members), len(members)
    index = np.empty(n, dtype=int)
    for j, group in enumerate(members):
        index[list(group)] = j
    x = np.random.default_rng(m * 100 + n + g).standard_normal(m * (n + 1))
    cascade = x[m:].reshape(m, n)
    expected = np.concatenate(
        [x[:m], [sum(cascade[a, i] for i in group) for a in range(m) for group in members]]
    )
    aggregated = group_aggregation_matrix(index, m) @ x
    np.testing.assert_allclose(aggregated, expected, rtol=1e-14, atol=1e-14)
    same_group = np.zeros((n, n))
    for group in members:
        for i in group:
            for j in group:
                same_group[i, j] = 1.0
    np.testing.assert_array_equal(_block_correlation(index), same_group)


class TestObservationMoments:
    def test_zero_power(self):
        stats = desk_scenario().statistics()
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=2.0)
        m = build_moments(stats, 0, tc)
        for b, _ in m.blocks:
            np.testing.assert_array_equal(b.mean_y(0.0), 0.0)
            cov_yy = b.cov_yy(0.0)
            np.testing.assert_allclose(cov_yy, 2 * 2.0 * np.eye(cov_yy.shape[0]), atol=1e-15)

    def test_scalar_noiseless(self):
        stats = scalar_stats()
        z = np.array([[2.0 + 0j, 3.0 - 1.0j]])
        m = observation_moments(
            stats, 0, z_full=z, z_grouped=z, sigma_w2=0.0, n_users=1, group_index=contiguous(1, 1),
        )
        c = cov_ss(stats, 0)
        expected = 0.7 * (z @ c @ z.conj().T)
        np.testing.assert_allclose(m.cov_yy(0.7), expected, rtol=1e-14)

    def test_cov_yy_hermitian_psd_fuzz(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            n_x = int(rng.integers(1, 3))
            n_y = int(rng.integers(1, 3))
            geo = small_geometry(n_x=n_x, n_y=n_y, m=int(rng.integers(1, 3)), k=1)
            n = geo.n_elements
            fading = FadingParams(
                kappa_a=float(rng.uniform(0, 3)), kappa_g=float(rng.uniform(0, 3)),
                alpha_a=2.5, alpha_g=2.2, alpha_b=3.0, rho_0=1e-3,
                eta=rng.uniform(0, 1, size=2), direct_blocked=bool(rng.integers(0, 2)),
            )
            stats = build_statistics(geo, fading)
            divisors = [g for g in range(1, n + 1) if n % g == 0]
            n_groups = int(rng.choice(divisors))
            rho = float(rng.uniform(0, 2))
            tc = make_training_config(
                n, 1, n_groups=n_groups, sigma_w2=float(rng.uniform(1e-6, 1.0)),
            )
            for b, _ in build_moments(stats, 0, tc).blocks:
                cov_yy = b.cov_yy(rho)
                assert np.abs(cov_yy - cov_yy.conj().T).max() < 1e-10
                assert np.linalg.eigvalsh(0.5 * (cov_yy + cov_yy.conj().T)).min() > -1e-8

    def test_grouped_observation_covariance_identity(self):
        # group-constant patterns make Z C_ss Z^H and Z_G C_uu Z_G^H agree
        stats = desk_scenario().statistics()
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=1e-9)
        for b, _ in build_moments(stats, 0, tc).blocks:
            lhs = b.Z @ b.cov_ss @ b.Z.conj().T
            rhs = b.Z_G @ cov_uu(b.cov_ss, tc.group_index, 1) @ b.Z_G.conj().T
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-20)

    def test_block_ideal_prior_structure(self):
        stats = desk_scenario().statistics()
        c = cov_ss_block_ideal(stats, 0, contiguous(16, 4))
        m = stats.m_antennas
        cascade = c[m:, m:]
        # cross-group entries vanish for the same antenna pair
        blk = cascade[:16, :16]
        assert abs(blk[0, 15]) < 1e-15
        assert abs(blk[0, 1]) > 0.1
