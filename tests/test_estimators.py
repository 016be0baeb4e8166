from dataclasses import replace

import numpy as np
import pytest

from riscest.channel import ChannelSampler, ChannelStatistics, FadingParams, build_statistics
from riscest.errors import ConfigurationError
from riscest.estimators import (
    EstimatorKind,
    asymptotic_mse,
    conventional_ls_filter,
    grouping_lmmse_filter,
    grouping_ls_filter,
    lmmse_filter,
    make_estimator,
    rule_kind,
)
from riscest.moments import (
    MomentSet,
    antenna_basis,
    build_moments,
    combine_blocks,
    cov_ss,
    to_antenna_basis,
)
from riscest.montecarlo import applicable_kinds, received_snr_to_power
from riscest.scenario import default_scenario, desk_scenario
from riscest.training import build_Z, make_training_config, mixing_blocks, synthesize_received

from conftest import dense_moments, two_stage_filter
from test_moments import scalar_stats


def rotated_trial(filt, obs, real, k=0):
    """User k's observation and target in the antenna basis squared_error takes."""
    q = antenna_basis(filt.r)
    return to_antenna_basis(q, obs.y_antenna[k]), to_antenna_basis(q, real.s_antenna[k])


def dense_z(m):
    """The dense mixing matrix of an antenna-domain set: every block shares Z_0."""
    return combine_blocks(m.r, [m.aligned.Z, m.aligned.Z], "y", "s")


def scalar_moments(c=2.0, z=1.5 - 0.5j, sigma2=0.3):
    """Hand-assembled scalar moment set: zero-mean target with variance c."""
    cov = np.array([[c + 0j]])
    z_mat = np.array([[z]])
    return MomentSet(
        mean_s=np.zeros(1, complex), cov_ss=cov, Z=z_mat, Z_G=z_mat,
        z_mean=np.zeros(1, complex),
        cov_szh=cov @ z_mat.conj().T,
        z_cov_zh=np.abs(z) ** 2 * cov,
        sigma_w2=sigma2, n_users=1,
        m_antennas=1, group_index=np.arange(0),
    )


def linear_moments(cov, z_mat, sigma2):
    """Zero-mean target with covariance cov seen through z_mat, for the ungrouped kinds."""
    n_y, n_s = z_mat.shape
    return MomentSet(
        mean_s=np.zeros(n_s, complex), cov_ss=cov, Z=z_mat, Z_G=z_mat,
        z_mean=np.zeros(n_y, complex), cov_szh=cov @ z_mat.conj().T,
        z_cov_zh=z_mat @ cov @ z_mat.conj().T,
        sigma_w2=sigma2, n_users=1,
        m_antennas=1, group_index=np.arange(n_s - 1),
    )


@pytest.fixture(scope="module")
def desk():
    scenario = desk_scenario()
    return scenario, scenario.statistics()


def desk_power(scenario, stats, snr_db=20.0, rho_scale=1.0):
    return received_snr_to_power(snr_db, stats, scenario.sigma_w2) * rho_scale


def desk_training(scenario, stats, n_groups):
    return make_training_config(
        stats.n_elements, stats.n_users, n_groups=n_groups, sigma_w2=scenario.sigma_w2,
    )


def desk_moments(scenario, stats, n_groups, k=0, ideal=False):
    tc = desk_training(scenario, stats, n_groups)
    return build_moments(stats, k, tc, block_ideal=ideal)


class TestConventionalLmmse:
    def test_scalar_textbook_formula(self):
        c, z, rho, sigma2 = 2.0, 1.5 - 0.5j, 0.8, 0.3
        m = scalar_moments(c, z, sigma2)
        filt = make_estimator(EstimatorKind.LMMSE, m, rho)
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            expected = np.sqrt(rho) * c * np.conj(z) * y / (rho * abs(z) ** 2 * c + sigma2)
            got = filt.estimate(y)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_zero_innovation_returns_prior_mean(self, desk):
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=16), desk_power(scenario, stats)
        d = dense_moments(stats, 0, desk_training(scenario, stats, n_groups=16))
        s_hat = make_estimator(EstimatorKind.LMMSE, m, rho).estimate(d.mean_y(rho).copy())
        np.testing.assert_allclose(s_hat, d.mean_s, atol=1e-12)

    def test_empirical_mse_matches_trace(self, desk):
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=16), desk_power(scenario, stats, 10.0)
        tc = make_training_config(16, 2, n_groups=16, sigma_w2=scenario.sigma_w2)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(21)
        filt = lmmse_filter(m, rho)
        mixing = np.sqrt(rho) * mixing_blocks(stats, tc)
        errs = []
        for _ in range(3000):
            real = sampler.sample(rng)
            obs = synthesize_received(real, stats, tc, mixing, rng)
            errs.append(filt.squared_error(*rotated_trial(filt, obs, real)))
        assert np.mean(errs) == pytest.approx(filt.mse_trace, rel=0.05)

    def test_zero_noise_singular_q_builds_the_pseudo_inverse_rule(self):
        # eps = 0 with a singular Q_0 inverts Q_0's spectrum at the relative cutoff: the
        # rule is C Z^H Q_0^+, and with Z_G = Z (G = N) its trace is asymptotic_mse's
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        z[:, 2] = z[:, 1]  # rank 2: Q_0 = Z C Z^H is singular
        cov = np.diag([1.0, 2.0, 0.5]).astype(complex)
        m = linear_moments(cov, z, sigma2=0.0)
        f = make_estimator(EstimatorKind.LMMSE, m, 1.0)
        want = m.cov_szh @ np.linalg.pinv(m.z_cov_zh, rcond=1e-10, hermitian=True)
        np.testing.assert_allclose(f.w_blocks[0], want, atol=1e-12)
        assert f.nmse > 0.01  # the direction Z cannot see keeps its error
        assert f.nmse == pytest.approx(asymptotic_mse(m), rel=1e-12)
        assert f.nmse_floor == asymptotic_mse(m)
        blind = make_estimator(EstimatorKind.LMMSE, scalar_moments(sigma2=0.0, z=0.0), 0.8)
        assert blind.w_blocks[0] == 0 and blind.nmse == 1.0


def hermitian_with_spectrum(eigvals, seed=0):
    """Q diag(eigvals) Q^H for a random unitary Q, returned with Q."""
    rng = np.random.default_rng(seed)
    n = len(eigvals)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mat = (q * np.asarray(eigvals)) @ q.conj().T
    return 0.5 * (mat + mat.conj().T), q


class TestSquaredError:
    """Stacked trials fold into one product per block and give each lone trial's value."""

    @pytest.mark.parametrize("n_groups", [4, 16])
    def test_stacked_trials_match_lone_calls_and_the_dense_oracle(self, desk, n_groups):
        scenario, stats = desk
        tc, rho = desk_training(scenario, stats, n_groups), desk_power(scenario, stats)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(8)
        n_trials, n_users = 5, stats.n_users
        real = sampler.sample(normals=rng.standard_normal((n_trials, sampler.n_normals)))
        obs = synthesize_received(real, stats, tc, np.sqrt(rho) * mixing_blocks(stats, tc), rng)
        for k in range(n_users):
            m, m_model = build_moments(stats, k, tc), build_moments(stats, k, tc, block_ideal=True)
            q = antenna_basis(m.r)
            x = to_antenna_basis(q, obs.y_antenna[k])  # (M, B, T), as SweepEngine scores
            s = to_antenna_basis(q, real.s_antenna[k])  # (M, B, N+1)
            for kind in EstimatorKind:
                f = make_estimator(kind, m, rho, m_model)
                lone = np.array([f.squared_error(x[:, t], s[:, t]) for t in range(n_trials)])
                assert lone.dtype == np.float64 and np.ndim(f.squared_error(x[:, 0], s[:, 0])) == 0
                # the dense oracle ||W y + offset - s||^2 in the antenna domain
                s_hat = f.estimate(obs.y_combined[:, k])
                dense = np.sum(np.abs(s_hat - real.s[:, k]) ** 2, axis=-1)
                np.testing.assert_allclose(lone, dense, rtol=1e-10)
                got = f.squared_error(x, s)
                np.testing.assert_allclose(got, lone, rtol=1e-12)
                out = np.full(s.shape, np.nan, dtype=complex)  # a reused buffer
                np.testing.assert_array_equal(f.squared_error(x, s, out=out), got)
                np.testing.assert_array_equal(out, f.residual(x, s))

    def test_dense_column_form(self):
        f = make_estimator(EstimatorKind.LMMSE, scalar_moments(), 0.8)
        rng = np.random.default_rng(9)
        # a dense set has one antenna-basis column, the dense observation itself
        x = rng.standard_normal((1, 3, 4, 1)) + 1j * rng.standard_normal((1, 3, 4, 1))
        s = rng.standard_normal((1, 3, 4, 1)) + 1j * rng.standard_normal((1, 3, 4, 1))
        want = np.abs(f.estimate(x[0]) - s[0])[..., 0] ** 2
        np.testing.assert_allclose(f.squared_error(x, s), want, rtol=1e-12)
        np.testing.assert_allclose(f.squared_error(x[:, 1, 2], s[:, 1, 2]), want[1, 2], rtol=1e-12)


class TestSpectrumClamp:
    def test_negative_eigenvalue_acts_as_zero(self):
        # a negative round-off eigenvalue of Q lies below the relative cutoff and is dropped, like 0
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        rules = []
        for low in (-1e-9, 0.0):
            m = linear_moments(np.eye(3, dtype=complex), z, sigma2=0.1)
            m.z_cov_zh, _ = hermitian_with_spectrum([low, 0.5, 1.0, 2.0, 3.0])
            rules.append(lmmse_filter(m, 1.0).w_blocks[0])
        np.testing.assert_allclose(rules[0], rules[1], rtol=0, atol=1e-12)


class TestConventionalLs:
    def test_noiseless_recovery(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=16, sigma_w2=0.0)
        real = ChannelSampler(stats).sample(np.random.default_rng(22))
        mixing = np.sqrt(0.5) * mixing_blocks(stats, tc)
        obs = synthesize_received(real, stats, tc, mixing, np.random.default_rng(23))
        m = build_moments(stats, 0, tc)
        np.testing.assert_array_equal(dense_z(m), build_Z(0, stats, tc))
        s_hat = make_estimator(EstimatorKind.LS, m, 0.5).estimate(obs.y_combined[0])
        err = np.linalg.norm(s_hat - real.s[0]) / np.linalg.norm(real.s[0])
        assert err < 1e-9

    def test_orthogonal_column_solve_equivalence(self):
        # unblocked single-antenna system with a power-of-two pattern count
        geo_stats = scalar_stats(rho_b=1.0)
        stats = ChannelStatistics(
            rho_b=np.array([1.0]), rho_g=np.array([1.0]), rho_a=1.0,
            g_bar=np.array([[1.0 + 0j, 1.0 + 0j, 1.0 + 0j]]),
            a_bar=np.array([[1.0 + 0j, 1.0 + 0j, 1.0 + 0j]]),
            R=np.stack([np.eye(3, dtype=complex)]), R0=np.eye(3, dtype=complex),
            fading=geo_stats.fading,
        )
        tc = make_training_config(3, 1, n_groups=3, n_patterns=4, sigma_w2=0.1)
        rng = np.random.default_rng(24)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, np.sqrt(0.9) * mixing_blocks(stats, tc), rng)
        z = build_Z(0, stats, tc)
        gram = z.conj().T @ z
        np.testing.assert_allclose(gram, gram[0, 0] * np.eye(4), atol=1e-12)
        direct = z.conj().T @ obs.y_combined[0] / (np.sqrt(0.9) * gram[0, 0].real)
        m = build_moments(stats, 0, tc)
        np.testing.assert_array_equal(m.aligned.Z, z)
        s_hat = make_estimator(EstimatorKind.LS, m, 0.9).estimate(obs.y_combined[0])
        np.testing.assert_allclose(s_hat, direct, rtol=1e-10)

    def test_ls_never_beats_lmmse_in_theory(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16)
        for snr in (-10, 0, 10, 20, 30, 40):
            rho = desk_power(scenario, stats, snr)
            assert lmmse_filter(m, rho).nmse <= conventional_ls_filter(m, rho).nmse + 1e-12

    def test_rank_deficiency_detected(self):
        z = np.zeros((4, 3), dtype=complex)
        z[:, 0] = 1.0
        z[:, 1] = 1.0  # duplicated active column
        m = linear_moments(np.eye(3, dtype=complex), z, sigma2=1.0)
        assert make_estimator(EstimatorKind.LS, m, 1.0).degenerate


class TestGroupingBaselines:
    def test_full_grouping_ls_is_the_ls_rule_unless_ls_is_degenerate(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16)
        rho = desk_power(scenario, stats)
        ls = make_estimator(EstimatorKind.LS, m, rho)
        shared = make_estimator(EstimatorKind.GROUPING_LS, m, rho)
        assert rule_kind(EstimatorKind.GROUPING_LS, m) == EstimatorKind.LS
        assert (ls.degenerate, shared.innovation) == (False, False)
        assert (shared.mse_trace, shared.nmse) == (ls.mse_trace, ls.nmse)
        # the innovation form it stands for agrees with it to round-off
        own = grouping_ls_filter(m, rho)
        assert own.innovation and own.nmse == pytest.approx(ls.nmse, rel=1e-12)
        np.testing.assert_allclose(own.W, ls.W, rtol=0, atol=1e-10 * np.abs(ls.W).max())
        # a degenerate LS drops an active column, so grouping LS keeps its own rule
        z = np.zeros((4, 3), dtype=complex)
        z[:, 0] = 1.0
        z[:, 1] = 1.0
        m = linear_moments(np.eye(3, dtype=complex), z, sigma2=1.0)
        assert rule_kind(EstimatorKind.GROUPING_LS, m) == EstimatorKind.GROUPING_LS
        assert make_estimator(EstimatorKind.GROUPING_LS, m, 1.0).innovation

    def test_ideal_model_is_estimated_perfectly_at_high_power(self):
        # channels generated exactly under the block model the baseline assumes
        groups = [np.arange(0, 2), np.arange(2, 4)]
        block = np.zeros((4, 4), dtype=complex)
        for idx in groups:
            block[np.ix_(idx, idx)] = 1.0
        fading = FadingParams(
            kappa_a=0.0, kappa_g=0.0, alpha_a=2.0, alpha_g=2.0, alpha_b=2.0,
            rho_0=1e-3, eta=np.array([0.5, 0.5]),
        )
        stats = ChannelStatistics(
            rho_b=np.array([0.0]), rho_g=np.array([1.0]), rho_a=1.0,
            g_bar=np.ones((1, 4), complex), a_bar=np.ones((2, 4), complex),
            R=np.stack([block]), R0=block.copy(), fading=fading,
        )
        tc, rho = make_training_config(4, 1, n_groups=2, sigma_w2=1.0), 1e10
        m = build_moments(stats, 0, tc)
        mi = build_moments(stats, 0, tc, block_ideal=True)
        filt = grouping_lmmse_filter(m, rho, mi)
        assert filt.nmse < 1e-6
        rng = np.random.default_rng(25)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, np.sqrt(rho) * mixing_blocks(stats, tc), rng)
        f = make_estimator(EstimatorKind.GROUPING_LMMSE, m, rho, mi)
        s_hat = f.estimate(obs.y_combined[0])
        rel = np.linalg.norm(s_hat - real.s[0]) / np.linalg.norm(real.s[0])
        assert rel < 1e-2  # per-draw error scale is sqrt(nmse) ~ 1e-3

    def test_grouping_ls_collapses_to_ls(self, desk):
        scenario, stats = desk
        tc, rho = make_training_config(16, 2, n_groups=16, sigma_w2=scenario.sigma_w2), 0.7
        m = build_moments(stats, 0, tc)
        rng = np.random.default_rng(26)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, np.sqrt(rho) * mixing_blocks(stats, tc), rng)
        np.testing.assert_array_equal(dense_z(m), build_Z(0, stats, tc))
        a = make_estimator(EstimatorKind.GROUPING_LS, m, rho).estimate(obs.y_combined[0])
        b = make_estimator(EstimatorKind.LS, m, rho).estimate(obs.y_combined[0])
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9

    def test_grouping_lmmse_collapses_under_uncorrelated_scattering(self):
        # with eta = 0 the block-ideal prior at n_groups = N equals the true prior
        scenario = desk_scenario()
        scenario.fading = replace(scenario.fading, eta=np.zeros(3))
        stats = scenario.statistics()
        tc, rho = make_training_config(16, 2, n_groups=16, sigma_w2=scenario.sigma_w2), 0.4
        m = build_moments(stats, 0, tc)
        mi = build_moments(stats, 0, tc, block_ideal=True)
        rng = np.random.default_rng(27)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, np.sqrt(rho) * mixing_blocks(stats, tc), rng)
        a = make_estimator(EstimatorKind.GROUPING_LMMSE, m, rho, mi).estimate(obs.y_combined[0])
        b = make_estimator(EstimatorKind.LMMSE, m, rho).estimate(obs.y_combined[0])
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9

    def test_exponential_model_floors_above_correlated_grouping(self, desk):
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=4), desk_power(scenario, stats, 50.0)
        mi = desk_moments(scenario, stats, n_groups=4, ideal=True)
        soa = grouping_lmmse_filter(m, rho, mi)
        cg = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho)
        assert soa.nmse > cg.nmse * 1.5

    def test_rejects_wrong_kind(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        with pytest.raises(ValueError):
            make_estimator("grouping", m, desk_power(scenario, stats))


class TestCorrelatedGrouping:
    def test_collapse_to_conventional(self, desk):
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=16), desk_power(scenario, stats)
        d = dense_moments(stats, 0, desk_training(scenario, stats, n_groups=16))
        rng = np.random.default_rng(28)
        mean_y = d.mean_y(rho)
        y = mean_y + (rng.standard_normal(mean_y.size) + 1j * rng.standard_normal(mean_y.size))
        a = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho)
        b = make_estimator(EstimatorKind.LMMSE, m, rho)
        a_hat, b_hat = a.estimate(y), b.estimate(y)
        assert np.linalg.norm(a_hat - b_hat) / np.linalg.norm(b_hat) < 1e-8
        assert a.mse_trace == pytest.approx(b.mse_trace, rel=1e-8)

    def test_zero_innovation(self, desk):
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=4), desk_power(scenario, stats)
        d = dense_moments(stats, 0, desk_training(scenario, stats, n_groups=4))
        f = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho)
        s_hat = f.estimate(d.mean_y(rho).copy())
        np.testing.assert_allclose(s_hat, d.mean_s, atol=1e-12)

    def test_lmmse_kinds_never_flagged_degenerate(self, desk):
        # the blocked direct links leave Q_0 singular; only an LS rule is flagged for a drop
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=4), desk_power(scenario, stats)
        for kind in (EstimatorKind.LMMSE, EstimatorKind.CORRELATED_GROUPING_LMMSE):
            assert not make_estimator(kind, m, rho).degenerate, kind

    @pytest.mark.parametrize("setup", ["desk", "reference"])
    def test_matches_the_two_stage_oracle(self, request, setup):
        # the one LMMSE rule on the grouped training against the paper's two-stage filter
        scenario, stats = request.getfixturevalue(setup)
        if setup == "desk":
            grid, users = [(g, snr) for g in (2, 4, 8, 16) for snr in (-10.0, 20.0, 50.0)], None
        else:
            grid, users = [(g, 20.0) for g in (4, 16, 64)], (0,)
        for n_groups, snr in grid:
            tc, rho = desk_training(scenario, stats, n_groups), desk_power(scenario, stats, snr)
            for k in users or range(stats.n_users):
                m, d = build_moments(stats, k, tc), dense_moments(stats, k, tc)
                f = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho)
                want = two_stage_filter(d, rho)
                assert np.abs(f.W - want).max() <= 1e-8 * np.abs(want).max(), (n_groups, snr, k)
                # the oracle's trace in the sum-of-PSD-terms arrangement
                a = np.eye(want.shape[0]) - np.sqrt(rho) * want @ d.Z
                trace = np.vdot(a, a @ d.cov_ss).real
                trace += d.n_users * d.sigma_w2 * np.vdot(want, want).real
                assert f.nmse == pytest.approx(trace / d.prior_trace, rel=1e-10), (n_groups, snr, k)

    def test_empirical_mse_matches_error_covariance(self, desk):
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=4), desk_power(scenario, stats, 20.0)
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=scenario.sigma_w2)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(29)
        filt = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho)
        expected = np.trace(filt.error_cov).real
        mixing = np.sqrt(rho) * mixing_blocks(stats, tc)
        errs = []
        for _ in range(3000):
            real = sampler.sample(rng)
            obs = synthesize_received(real, stats, tc, mixing, rng)
            errs.append(filt.squared_error(*rotated_trial(filt, obs, real)))
        assert np.mean(errs) == pytest.approx(expected, rel=0.05)


class TestErrorCovariance:
    def test_zero_power_returns_prior(self, desk):
        scenario, stats = desk
        tc = desk_training(scenario, stats, n_groups=4)
        rho = desk_power(scenario, stats, rho_scale=1e-30)
        m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho).error_cov
        assert np.trace(c).real / np.trace(d.cov_ss).real == pytest.approx(1.0, rel=1e-6)

    def test_matches_reduction_formula_at_moderate_power(self, desk):
        # independent oracle: the prior-minus-reduction arrangement C_ss - W C_sy^H of the
        # two-stage filter W
        scenario, stats = desk
        tc, rho = desk_training(scenario, stats, n_groups=4), desk_power(scenario, stats, 10.0)
        m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
        direct = d.cov_ss - two_stage_filter(d, rho) @ d.cov_sy(rho).conj().T
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho).error_cov
        np.testing.assert_allclose(c, direct, atol=1e-10 * np.abs(direct).max())

    def test_hermitian_psd_and_bounded_fuzz(self, desk):
        scenario, stats = desk
        rng = np.random.default_rng(30)
        for _ in range(100):
            n_groups = int(rng.choice([1, 2, 4, 8, 16]))
            snr = float(rng.uniform(-20, 60))
            tc, rho = desk_training(scenario, stats, n_groups), desk_power(scenario, stats, snr)
            m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
            c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho).error_cov
            assert np.abs(c - c.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() > -1e-8
            assert np.trace(c).real <= np.trace(d.cov_ss).real * (1 + 1e-10)

    def test_ungrouped_equals_conventional_error_covariance(self, desk):
        scenario, stats = desk
        tc, rho = desk_training(scenario, stats, n_groups=16), desk_power(scenario, stats, 15.0)
        m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
        conv = d.cov_ss - d.cov_sy(rho) @ np.linalg.solve(d.cov_yy(rho), d.cov_sy(rho).conj().T)
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho).error_cov
        assert np.abs(c - conv).max() < 1e-8 * np.abs(conv).max()


class TestNormalizedMse:
    def test_trivial_values(self):
        # an unobserved target keeps its prior as the error; a noiseless
        # identity observation leaves none
        c = np.diag([1.0, 2.0]).astype(complex)
        blind = linear_moments(c, np.zeros((2, 2), complex), sigma2=1.0)
        assert make_estimator(EstimatorKind.LMMSE, blind, 1.0).nmse == 1.0
        exact = linear_moments(c, np.eye(2, dtype=complex), sigma2=0.0)
        assert make_estimator(EstimatorKind.LS, exact, 1.0).nmse == 0.0

    def test_scalar_lmmse_value(self):
        c, z, rho, sigma2 = 2.0, 1.5 - 0.5j, 0.8, 0.3
        m = scalar_moments(c, z, sigma2)
        filt = lmmse_filter(m, rho)
        expected = sigma2 / (rho * abs(z) ** 2 * c + sigma2)
        assert filt.nmse == pytest.approx(expected, rel=1e-12)
        lmmse = make_estimator(EstimatorKind.LMMSE, m, rho)
        assert lmmse.nmse == pytest.approx(expected, rel=1e-12)


class TestAsymptoticMse:
    def test_ungrouped_floor_vanishes(self, desk):
        # the eps = 0 trace is a sum of PSD terms, so a full-rank Z_0 leaves only round-off
        scenario, stats = desk
        for k in range(stats.n_users):
            assert asymptotic_mse(desk_moments(scenario, stats, n_groups=16, k=k)) <= 1e-20

    def test_matches_extreme_power_evaluation(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        m_hi = desk_moments(scenario, stats, n_groups=4)  # a fresh set: no cache shared with m
        floor = asymptotic_mse(m)
        rho_hi = desk_power(scenario, stats, 20.0, rho_scale=1e12)
        at_hi = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m_hi, rho_hi).nmse
        assert at_hi == pytest.approx(floor, rel=0.01)

    def test_lower_bounds_finite_power(self, desk):
        scenario, stats = desk
        floor = asymptotic_mse(desk_moments(scenario, stats, n_groups=4))
        for snr in np.linspace(-20, 60, 9):
            m, rho = desk_moments(scenario, stats, n_groups=4), desk_power(scenario, stats, float(snr))
            cg = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho)
            assert cg.nmse >= floor - 1e-10


class TestTheoryCurves:
    def test_monotone_in_power(self, desk):
        scenario, stats = desk
        base = received_snr_to_power(0.0, stats, scenario.sigma_w2)
        scales = np.geomspace(1e-4, 1e8, 20)
        for n_groups, builder in [
            (16, lambda m, r: lmmse_filter(m, r).nmse),
            (4, lambda m, r: make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, r).nmse),
        ]:
            prev = np.inf
            for s in scales:
                tc = make_training_config(16, 2, n_groups=n_groups, sigma_w2=scenario.sigma_w2)
                val = builder(build_moments(stats, 0, tc), base * s)
                assert val <= prev + 1e-10
                prev = val

    def test_grouped_ordering_all_snr(self, desk):
        scenario, stats = desk
        ratios = []
        for snr in (-10, 0, 10, 20, 30, 40):
            m, rho = desk_moments(scenario, stats, n_groups=4), desk_power(scenario, stats, snr)
            mi = desk_moments(scenario, stats, n_groups=4, ideal=True)
            cg = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m, rho).nmse
            soa = grouping_lmmse_filter(m, rho, mi).nmse
            assert cg <= soa * (1 + 1e-12)
            ratios.append(soa / cg)
        assert ratios[-1] >= 1.10

    def test_make_estimator_dispatch(self, desk):
        scenario, stats = desk
        m, rho = desk_moments(scenario, stats, n_groups=4), desk_power(scenario, stats)
        mi = desk_moments(scenario, stats, n_groups=4, ideal=True)
        rules = {
            EstimatorKind.LS: conventional_ls_filter(m, rho),
            EstimatorKind.LMMSE: lmmse_filter(m, rho),
            EstimatorKind.GROUPING_LS: grouping_ls_filter(m, rho),
            EstimatorKind.GROUPING_LMMSE: grouping_lmmse_filter(m, rho, mi),
        }
        for kind in EstimatorKind:
            est = make_estimator(kind, m, rho, mi)
            want = rules[rule_kind(kind, m)]
            assert (est.nmse, est.innovation, est.nmse_floor) == (
                want.nmse, want.innovation, want.nmse_floor
            )
            assert est.nmse >= 0
        with pytest.raises(ValueError):
            make_estimator(EstimatorKind.GROUPING_LMMSE, m, rho, None)


class TestNoiseRatioForm:
    """Every rule is V(eps) / sqrt(rho) with eps = K sigma^2 / rho."""

    @pytest.mark.parametrize("kind,n_groups", [
        (EstimatorKind.LS, 16), (EstimatorKind.GROUPING_LS, 4), (EstimatorKind.GROUPING_LS, 16),
    ])
    def test_ls_trace_is_affine_in_eps(self, desk, kind, n_groups):
        # V = pinv(Z) holds no power, so the trace is bias + c eps with c = sum ||V||_F^2
        scenario, stats = desk
        eps, traces, norms = [], [], []
        for scale in (1e-2, 1.0, 1e3):
            m = desk_moments(scenario, stats, n_groups=n_groups)
            rho = desk_power(scenario, stats, rho_scale=scale)
            f = make_estimator(kind, m, rho)
            eps.append(stats.n_users * scenario.sigma_w2 / rho)
            traces.append(f.mse_trace)
            norms.append(sum(
                mult * np.linalg.norm(np.sqrt(rho) * w) ** 2
                for (b, mult), w in zip(m.blocks, f.w_blocks)
            ))
        slope = (traces[0] - traces[1]) / (eps[0] - eps[1])
        assert slope == pytest.approx(norms[0], rel=1e-12)
        assert norms[1] == pytest.approx(norms[0], rel=1e-12)
        assert traces[2] == pytest.approx(traces[1] + slope * (eps[2] - eps[1]), rel=1e-12)

    @pytest.mark.parametrize("n_groups", [2, 4, 8, 16])
    def test_bayesian_nmse_falls_to_its_floor(self, desk, n_groups):
        assert_falls_to_floor(*desk, n_groups, range(-20, 281, 2))

    @pytest.mark.parametrize("n_groups", [16, 64])
    def test_bayesian_nmse_falls_to_its_floor_at_the_reference_setup(self, reference, n_groups):
        assert_falls_to_floor(*reference, n_groups, range(-20, 281, 10))

    @pytest.mark.parametrize("setup", ["desk", "reference"])
    def test_ungrouped_lmmse_never_exceeds_ls(self, request, setup):
        # LMMSE is the best affine rule: up to 200 dB its trace is LS's to 1e-6, and where
        # both fall below 1e-20 its excess over LS stays at round-off far below 1e-24
        scenario, stats = request.getfixturevalue(setup)
        n = stats.n_elements
        for k in range(stats.n_users):
            m = desk_moments(scenario, stats, n_groups=n, k=k)
            for snr in range(-20, 281, 10):
                rho = desk_power(scenario, stats, float(snr))
                lmmse = make_estimator(EstimatorKind.LMMSE, m, rho).nmse
                ls = make_estimator(EstimatorKind.LS, m, rho).nmse
                if snr <= 200:
                    assert lmmse <= ls * (1 + 1e-6), (k, snr, lmmse / ls - 1)
                if snr >= 200:
                    assert lmmse <= ls + 1e-24, (k, snr, lmmse - ls)


def _scenario(make, direct_blocked):
    scenario = make()
    scenario.fading.direct_blocked = direct_blocked
    return scenario, scenario.statistics()


# (setup, direct link blocked, group counts): T < N+1 for the smaller, T = N+1 for the larger
SPECTRAL_CASES = [
    ("desk", True, (4, 16)),
    ("desk", False, (4, 16)),
    ("reference", True, (16, 64)),
    ("reference", False, (16, 64)),
]


class TestSpectralTrace:
    """An LMMSE-type trace, projected (T < N+1) or direct (T = N+1), is its error covariance's."""

    @pytest.mark.parametrize(
        "setup,blocked,groups", SPECTRAL_CASES,
        ids=[f"{c[0]}-{'blocked' if c[1] else 'unblocked'}" for c in SPECTRAL_CASES],
    )
    def test_trace_matches_the_error_covariance(self, setup, blocked, groups):
        make = {"desk": desk_scenario, "reference": default_scenario}[setup]
        scenario, stats = _scenario(make, blocked)
        for n_groups in groups:
            m = desk_moments(scenario, stats, n_groups=n_groups)
            mi = desk_moments(scenario, stats, n_groups=n_groups, ideal=True)
            kinds = [EstimatorKind.GROUPING_LMMSE, EstimatorKind.CORRELATED_GROUPING_LMMSE]
            if n_groups == stats.n_elements:
                kinds.append(EstimatorKind.LMMSE)
            for snr in range(-20, 81, 10):
                rho = desk_power(scenario, stats, float(snr))
                for kind in kinds:
                    f = make_estimator(kind, m, rho, mi)
                    dense = sum(
                        mult * np.trace(e).real for (_, mult), e in zip(m.blocks, f.error_blocks)
                    )
                    assert f.mse_trace == pytest.approx(dense, rel=1e-10), (n_groups, snr, kind)


class TestPilotPower:
    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_pilot_power_rejected(self, desk, rho):
        """Every filter builder, and error_cov, rejects a pilot power outside 0 < rho < inf."""
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        mi = desk_moments(scenario, stats, n_groups=4, ideal=True)
        builders = [
            lambda: conventional_ls_filter(m, rho),
            lambda: lmmse_filter(m, rho),
            lambda: grouping_ls_filter(m, rho),
            lambda: grouping_lmmse_filter(m, rho, mi),
        ] + [lambda kind=kind: make_estimator(kind, m, rho, mi) for kind in EstimatorKind]
        for build in builders:
            with pytest.raises(ConfigurationError, match="pilot power"):
                build()
        f = make_estimator(EstimatorKind.LMMSE, m, desk_power(scenario, stats))
        with pytest.raises(ConfigurationError, match="pilot power"):
            replace(f, rho=rho).error_cov


@pytest.fixture(scope="module")
def reference():
    scenario = default_scenario()
    return scenario, scenario.statistics()


def assert_falls_to_floor(scenario, stats, n_groups, snrs):
    """Every Bayesian kind's NMSE is non-increasing in power and never below its floor.

    From 200 dB on, a grouped correlated rule sits on its floor.
    """
    m = desk_moments(scenario, stats, n_groups=n_groups)
    mi = desk_moments(scenario, stats, n_groups=n_groups, ideal=True)
    kinds = [EstimatorKind.GROUPING_LMMSE, EstimatorKind.CORRELATED_GROUPING_LMMSE]
    if n_groups == stats.n_elements:
        kinds.append(EstimatorKind.LMMSE)
    prev = dict.fromkeys(kinds, np.inf)
    for snr in snrs:
        rho = desk_power(scenario, stats, float(snr))
        for kind in kinds:
            f = make_estimator(kind, m, rho, mi)
            assert f.nmse <= prev[kind] * (1 + 1e-9), (kind, snr)
            if f.nmse_floor is not None:
                assert f.nmse >= f.nmse_floor - 1e-12, (kind, snr)
                assert f.nmse >= f.nmse_floor * (1 - 1e-9), (kind, snr)
            grouped_cg = kind == EstimatorKind.CORRELATED_GROUPING_LMMSE and n_groups < stats.n_elements
            if grouped_cg and snr >= 200:
                assert f.nmse == pytest.approx(f.nmse_floor, rel=1e-9), snr
            prev[kind] = f.nmse


def _nmse_of_every_kind(stats, tc, sigma_w2, snrs):
    """{(kind, user, snr): nmse} of every kind applicable at tc's group count."""
    kinds = applicable_kinds(tuple(EstimatorKind), tc.n_groups, stats.n_elements)
    out = {}
    for k in range(stats.n_users):
        m, mi = build_moments(stats, k, tc), build_moments(stats, k, tc, block_ideal=True)
        for snr in snrs:
            rho = received_snr_to_power(snr, stats, sigma_w2)
            for kind in kinds:
                out[kind, k, snr] = make_estimator(kind, m, rho, mi).nmse
    return out


@pytest.mark.parametrize("setup,n_groups", [
    *(("desk", g) for g in (1, 2, 4, 8, 16)), *(("reference", g) for g in (4, 16, 64)),
])
def test_relabelled_elements_keep_every_nmse(setup, n_groups, request):
    """The grouping is the round's group_index, not the element order.

    Relabelling the elements by a permutation, in the statistics and in the
    round's group index and patterns alike, is the same physical system, so
    every kind's NMSE holds; the groups are then no longer contiguous runs.
    """
    scenario, stats = request.getfixturevalue(setup)
    perm = np.random.default_rng(n_groups).permutation(stats.n_elements)
    relabelled = replace(
        stats, R0=stats.R0[perm][:, perm], R=stats.R[:, perm][:, :, perm],
        a_bar=stats.a_bar[:, perm], g_bar=stats.g_bar[:, perm],
    )
    tc = desk_training(scenario, stats, n_groups)
    tc_perm = desk_training(scenario, stats, n_groups)
    tc_perm.group_index, tc_perm.patterns = tc.group_index[perm], tc.patterns[:, perm]
    if 1 < n_groups < stats.n_elements:  # the relabelled groups are not contiguous runs
        assert np.any(np.diff(tc_perm.group_index) < 0)
    snrs = (0.0, 30.0, 80.0)
    want = _nmse_of_every_kind(stats, tc, scenario.sigma_w2, snrs)
    got = _nmse_of_every_kind(relabelled, tc_perm, scenario.sigma_w2, snrs)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
