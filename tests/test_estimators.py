from dataclasses import replace

import numpy as np
import pytest

from riscest.channel import ChannelSampler, ChannelStatistics, FadingParams, build_statistics
from riscest.errors import NumericalError
from riscest.estimators import (
    EstimatorKind,
    asymptotic_mse,
    conventional_lmmse_filter,
    conventional_ls_filter,
    correlated_grouping_filter,
    grouping_lmmse_filter,
    grouping_ls_filter,
    hermitian_pinvs,
    make_estimator,
)
from riscest.moments import MomentSet, build_moments, combine_blocks, cov_ss, split_observation
from riscest.montecarlo import received_snr_to_power
from riscest.scenario import desk_scenario
from riscest.training import build_Z, make_training_config, mixing_blocks, synthesize_received

from conftest import dense_moments
from test_moments import scalar_stats


def split_trial(filt, obs, real, k=0):
    """User k's observation and target in the split forms squared_error takes."""
    return split_observation(filt.r, obs.y_combined[k]), real.S[k]


def dense_z(m):
    """The dense mixing matrix of an antenna-domain set: every block shares Z_0."""
    return combine_blocks(m.r, [m.aligned.Z, m.aligned.Z], "y", "s")


def scalar_moments(c=2.0, z=1.5 - 0.5j, rho=0.8, sigma2=0.3):
    """Hand-assembled scalar moment set: zero-mean target with variance c."""
    cov = np.array([[c + 0j]])
    z_mat = np.array([[z]])
    return MomentSet(
        mean_s=np.zeros(1, complex), cov_ss=cov, cov_uu=cov, Z=z_mat, Z_G=z_mat,
        z_mean=np.zeros(1, complex),
        cov_szh=cov @ z_mat.conj().T,
        cov_uzh=cov @ z_mat.conj().T,
        z_cov_zh=np.abs(z) ** 2 * cov,
        rho=rho, sigma_w2=sigma2, n_users=1,
        m_antennas=1, n_groups=1,
    )


def linear_moments(cov, z_mat, rho, sigma2):
    """Zero-mean target with covariance cov seen through z_mat, for the ungrouped kinds."""
    n_y, n_s = z_mat.shape
    cov_szh = cov @ z_mat.conj().T
    return MomentSet(
        mean_s=np.zeros(n_s, complex), cov_ss=cov, cov_uu=cov, Z=z_mat, Z_G=z_mat,
        z_mean=np.zeros(n_y, complex), cov_szh=cov_szh, cov_uzh=cov_szh,
        z_cov_zh=z_mat @ cov @ z_mat.conj().T,
        rho=rho, sigma_w2=sigma2, n_users=1,
        m_antennas=1, n_groups=1,
    )


@pytest.fixture(scope="module")
def desk():
    scenario = desk_scenario()
    return scenario, scenario.statistics()


def desk_training(scenario, stats, n_groups, snr_db=20.0, rho_scale=1.0):
    rho = received_snr_to_power(snr_db, stats, scenario.sigma_w2) * rho_scale
    return make_training_config(
        stats.n_elements, stats.n_users, n_groups=n_groups,
        rho=rho, sigma_w2=scenario.sigma_w2,
    )


def desk_moments(scenario, stats, n_groups, snr_db=20.0, k=0, rho_scale=1.0, ideal=False):
    tc = desk_training(scenario, stats, n_groups, snr_db, rho_scale)
    return build_moments(stats, k, tc, block_ideal=ideal)


class TestConventionalLmmse:
    def test_scalar_textbook_formula(self):
        c, z, rho, sigma2 = 2.0, 1.5 - 0.5j, 0.8, 0.3
        m = scalar_moments(c, z, rho, sigma2)
        filt = make_estimator(EstimatorKind.LMMSE, m)
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            expected = np.sqrt(rho) * c * np.conj(z) * y / (rho * abs(z) ** 2 * c + sigma2)
            got = filt.estimate(y)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_zero_innovation_returns_prior_mean(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16)
        d = dense_moments(stats, 0, desk_training(scenario, stats, n_groups=16))
        s_hat = make_estimator(EstimatorKind.LMMSE, m).estimate(d.mean_y.copy())
        np.testing.assert_allclose(s_hat, d.mean_s, atol=1e-12)

    def test_empirical_mse_matches_trace(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16, snr_db=10.0)
        tc = make_training_config(16, 2, n_groups=16, rho=m.aligned.rho, sigma_w2=scenario.sigma_w2)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(21)
        filt = conventional_lmmse_filter(m)
        mixing = mixing_blocks(stats, tc)
        errs = []
        for _ in range(3000):
            real = sampler.sample(rng)
            obs = synthesize_received(real, stats, tc, rng, mixing=mixing)
            errs.append(filt.squared_error(*split_trial(filt, obs, real)))
        assert np.mean(errs) == pytest.approx(filt.mse_trace, rel=0.05)

    def test_zero_noise_rank_deficient_raises(self):
        m = scalar_moments(sigma2=0.0, z=0.0)
        with pytest.raises(NumericalError):
            make_estimator(EstimatorKind.LMMSE, m)


def hermitian_with_spectrum(eigvals, seed=0):
    """Q diag(eigvals) Q^H for a random unitary Q, returned with Q."""
    rng = np.random.default_rng(seed)
    n = len(eigvals)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mat = (q * np.asarray(eigvals)) @ q.conj().T
    return 0.5 * (mat + mat.conj().T), q


class TestSquaredError:
    """Stacked trials fold into one product and give each lone trial's value."""

    @pytest.mark.parametrize("n_groups", [4, 16])
    def test_stacked_and_user_major_trials_match_lone_calls(self, desk, n_groups):
        scenario, stats = desk
        tc = desk_training(scenario, stats, n_groups)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(8)
        n_trials, n_users = 5, stats.n_users
        real = sampler.sample(normals=rng.standard_normal((n_trials, sampler.n_normals)))
        obs = synthesize_received(real, stats, tc, rng, mixing=mixing_blocks(stats, tc))
        for k in range(n_users):
            m, m_model = build_moments(stats, k, tc), build_moments(stats, k, tc, block_ideal=True)
            x = split_observation(m.r, obs.y_combined)  # (B, K, 2T, M)
            s = real.S  # (B, K, N+1, M)
            # the layouts SweepEngine scores: (K, B, ...) views whose last two axes are transposed
            x_users = split_observation(m.r, np.moveaxis(obs.y_combined, 1, 0))
            s_users = np.moveaxis(s, 1, 0)
            for a in (x_users, s_users):
                assert a.swapaxes(-1, -2).flags.c_contiguous and not a.flags.c_contiguous
            for kind in EstimatorKind:
                f = make_estimator(kind, m, m_model)
                lone = np.array(
                    [[f.squared_error(x[t, j], s[t, j]) for j in range(n_users)]
                     for t in range(n_trials)]
                )
                assert lone.dtype == np.float64 and np.ndim(f.squared_error(x[0, 0], s[0, 0])) == 0
                want = np.sum(np.abs(f.apply(x) - s) ** 2, axis=(-2, -1))
                np.testing.assert_allclose(lone, want, rtol=1e-12)
                got = f.squared_error(x[:, k], s[:, k])
                np.testing.assert_allclose(got, lone[:, k], rtol=1e-12)
                for target in (s, np.ascontiguousarray(s)):  # a trial-major layout is copied
                    np.testing.assert_allclose(f.squared_error(x, target), lone, rtol=1e-12)
                got = f.squared_error(x_users[k], s_users[k])
                np.testing.assert_allclose(got, lone[:, k], rtol=1e-12)

    def test_dense_column_form(self):
        f = make_estimator(EstimatorKind.LMMSE, scalar_moments())
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 1, 1)) + 1j * rng.standard_normal((3, 4, 1, 1))
        s = rng.standard_normal((3, 4, 1, 1)) + 1j * rng.standard_normal((3, 4, 1, 1))
        want = np.abs(f.apply(x) - s)[..., 0, 0] ** 2
        np.testing.assert_allclose(f.squared_error(x, s), want, rtol=1e-12)
        np.testing.assert_allclose(f.squared_error(x[1, 2], s[1, 2]), want[1, 2], rtol=1e-12)


class TestSpectrumClamp:
    def test_negative_eigenvalue_acts_as_zero(self):
        # Q's spectrum is clamped at 0, as rho Q + K sigma^2 I is bounded below by the noise
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        rules = []
        for low in (-1e-9, 0.0):
            m = linear_moments(np.eye(3, dtype=complex), z, rho=1.0, sigma2=0.1)
            m.z_cov_zh, _ = hermitian_with_spectrum([low, 0.5, 1.0, 2.0, 3.0])
            rules.append(conventional_lmmse_filter(m).w_blocks[0])
        np.testing.assert_allclose(rules[0], rules[1], rtol=0, atol=1e-12)


class TestConventionalLs:
    def test_noiseless_recovery(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=16, rho=0.5, sigma_w2=0.0)
        real = ChannelSampler(stats).sample(np.random.default_rng(22))
        obs = synthesize_received(real, stats, tc, np.random.default_rng(23))
        m = build_moments(stats, 0, tc)
        np.testing.assert_array_equal(dense_z(m), build_Z(0, stats, tc))
        s_hat = make_estimator(EstimatorKind.LS, m).estimate(obs.y_combined[0])
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
        tc = make_training_config(3, 1, n_groups=3, n_patterns=4, rho=0.9, sigma_w2=0.1)
        rng = np.random.default_rng(24)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        z = build_Z(0, stats, tc)
        gram = z.conj().T @ z
        np.testing.assert_allclose(gram, gram[0, 0] * np.eye(4), atol=1e-12)
        direct = z.conj().T @ obs.y_combined[0] / (np.sqrt(0.9) * gram[0, 0].real)
        m = build_moments(stats, 0, tc)
        np.testing.assert_array_equal(m.aligned.Z, z)
        s_hat = make_estimator(EstimatorKind.LS, m).estimate(obs.y_combined[0])
        np.testing.assert_allclose(s_hat, direct, rtol=1e-10)

    def test_ls_never_beats_lmmse_in_theory(self, desk):
        scenario, stats = desk
        for snr in (-10, 0, 10, 20, 30, 40):
            m = desk_moments(scenario, stats, n_groups=16, snr_db=snr)
            assert conventional_lmmse_filter(m).nmse <= conventional_ls_filter(m).nmse + 1e-12

    def test_rank_deficiency_detected(self):
        z = np.zeros((4, 3), dtype=complex)
        z[:, 0] = 1.0
        z[:, 1] = 1.0  # duplicated active column
        m = linear_moments(np.eye(3, dtype=complex), z, rho=1.0, sigma2=1.0)
        assert make_estimator(EstimatorKind.LS, m).degenerate


class TestGroupingBaselines:
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
        tc = make_training_config(4, 1, n_groups=2, rho=1e10, sigma_w2=1.0)
        m = build_moments(stats, 0, tc)
        mi = build_moments(stats, 0, tc, block_ideal=True)
        filt = grouping_lmmse_filter(m, mi)
        assert filt.nmse < 1e-6
        rng = np.random.default_rng(25)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        s_hat = make_estimator(EstimatorKind.GROUPING_LMMSE, m, mi).estimate(obs.y_combined[0])
        rel = np.linalg.norm(s_hat - real.s[0]) / np.linalg.norm(real.s[0])
        assert rel < 1e-2  # per-draw error scale is sqrt(nmse) ~ 1e-3

    def test_grouping_ls_collapses_to_ls(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=16, rho=0.7, sigma_w2=scenario.sigma_w2)
        m = build_moments(stats, 0, tc)
        rng = np.random.default_rng(26)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        np.testing.assert_array_equal(dense_z(m), build_Z(0, stats, tc))
        a = make_estimator(EstimatorKind.GROUPING_LS, m).estimate(obs.y_combined[0])
        b = make_estimator(EstimatorKind.LS, m).estimate(obs.y_combined[0])
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9

    def test_grouping_lmmse_collapses_under_uncorrelated_scattering(self):
        # with eta = 0 the block-ideal prior at n_groups = N equals the true prior
        scenario = desk_scenario()
        scenario.fading = replace(scenario.fading, eta=np.zeros(3))
        stats = scenario.statistics()
        tc = make_training_config(16, 2, n_groups=16, rho=0.4, sigma_w2=scenario.sigma_w2)
        m = build_moments(stats, 0, tc)
        mi = build_moments(stats, 0, tc, block_ideal=True)
        rng = np.random.default_rng(27)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        a = make_estimator(EstimatorKind.GROUPING_LMMSE, m, mi).estimate(obs.y_combined[0])
        b = make_estimator(EstimatorKind.LMMSE, m).estimate(obs.y_combined[0])
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9

    def test_exponential_model_floors_above_correlated_grouping(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4, snr_db=50.0)
        mi = desk_moments(scenario, stats, n_groups=4, snr_db=50.0, ideal=True)
        soa = grouping_lmmse_filter(m, mi)
        cg = correlated_grouping_filter(m)
        assert soa.nmse > cg.nmse * 1.5

    def test_rejects_wrong_kind(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        with pytest.raises(ValueError):
            make_estimator("grouping", m)


class TestCorrelatedGrouping:
    def test_collapse_to_conventional(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16)
        d = dense_moments(stats, 0, desk_training(scenario, stats, n_groups=16))
        rng = np.random.default_rng(28)
        y = d.mean_y + (rng.standard_normal(d.mean_y.size) + 1j * rng.standard_normal(d.mean_y.size))
        a = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m)
        b = make_estimator(EstimatorKind.LMMSE, m)
        a_hat, b_hat = a.estimate(y), b.estimate(y)
        assert np.linalg.norm(a_hat - b_hat) / np.linalg.norm(b_hat) < 1e-8
        assert a.mse_trace == pytest.approx(b.mse_trace, rel=1e-8)

    def test_zero_innovation(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        d = dense_moments(stats, 0, desk_training(scenario, stats, n_groups=4))
        s_hat = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).estimate(d.mean_y.copy())
        np.testing.assert_allclose(s_hat, d.mean_s, atol=1e-12)

    def test_degenerate_inner_gram_flagged(self, desk):
        # blocked direct link zeroes inner-Gram rows, so clipping must engage
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        assert correlated_grouping_filter(m).degenerate

    def test_empirical_mse_matches_error_covariance(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4, snr_db=20.0)
        tc = make_training_config(16, 2, n_groups=4, rho=m.aligned.rho, sigma_w2=scenario.sigma_w2)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(29)
        filt = correlated_grouping_filter(m)
        expected = np.trace(make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov).real
        errs = []
        for _ in range(3000):
            real = sampler.sample(rng)
            obs = synthesize_received(real, stats, tc, rng)
            errs.append(filt.squared_error(*split_trial(filt, obs, real)))
        assert np.mean(errs) == pytest.approx(expected, rel=0.05)


class TestErrorCovariance:
    def test_zero_power_returns_prior(self, desk):
        scenario, stats = desk
        tc = desk_training(scenario, stats, n_groups=4, rho_scale=1e-30)
        m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov
        assert np.trace(c).real / np.trace(d.cov_ss).real == pytest.approx(1.0, rel=1e-6)

    def test_matches_reduction_formula_at_moderate_power(self, desk):
        # independent oracle: the prior-minus-reduction arrangement
        scenario, stats = desk
        tc = desk_training(scenario, stats, n_groups=4, snr_db=10.0)
        m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
        x = np.linalg.solve(d.cov_yy, d.cov_uy.conj().T)
        gram = d.cov_uy @ x
        (gram_pinv,), _ = hermitian_pinvs([0.5 * (gram + gram.conj().T)])
        f = d.cov_sy @ x
        direct = d.cov_ss - f @ gram_pinv @ f.conj().T
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov
        np.testing.assert_allclose(c, direct, atol=1e-10 * np.abs(direct).max())

    def test_hermitian_psd_and_bounded_fuzz(self, desk):
        scenario, stats = desk
        rng = np.random.default_rng(30)
        for _ in range(100):
            n_groups = int(rng.choice([1, 2, 4, 8, 16]))
            snr = float(rng.uniform(-20, 60))
            tc = desk_training(scenario, stats, n_groups=n_groups, snr_db=snr)
            m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
            c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov
            assert np.abs(c - c.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() > -1e-8
            assert np.trace(c).real <= np.trace(d.cov_ss).real * (1 + 1e-10)

    def test_ungrouped_equals_conventional_error_covariance(self, desk):
        scenario, stats = desk
        tc = desk_training(scenario, stats, n_groups=16, snr_db=15.0)
        m, d = build_moments(stats, 0, tc), dense_moments(stats, 0, tc)
        conv = d.cov_ss - d.cov_sy @ np.linalg.solve(d.cov_yy, d.cov_sy.conj().T)
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov
        assert np.abs(c - conv).max() < 1e-8 * np.abs(conv).max()


class TestNormalizedMse:
    def test_trivial_values(self):
        # an unobserved target keeps its prior as the error; a noiseless
        # identity observation leaves none
        c = np.diag([1.0, 2.0]).astype(complex)
        blind = linear_moments(c, np.zeros((2, 2), complex), rho=1.0, sigma2=1.0)
        assert make_estimator(EstimatorKind.LMMSE, blind).nmse == 1.0
        exact = linear_moments(c, np.eye(2, dtype=complex), rho=1.0, sigma2=0.0)
        assert make_estimator(EstimatorKind.LS, exact).nmse == 0.0

    def test_scalar_lmmse_value(self):
        c, z, rho, sigma2 = 2.0, 1.5 - 0.5j, 0.8, 0.3
        m = scalar_moments(c, z, rho, sigma2)
        filt = conventional_lmmse_filter(m)
        expected = sigma2 / (rho * abs(z) ** 2 * c + sigma2)
        assert filt.nmse == pytest.approx(expected, rel=1e-12)
        assert make_estimator(EstimatorKind.LMMSE, m).nmse == pytest.approx(expected, rel=1e-12)


class TestAsymptoticMse:
    def test_ungrouped_floor_vanishes(self, desk):
        # the eps = 0 trace is a sum of PSD terms, so a full-rank Z_0 leaves only round-off
        scenario, stats = desk
        for k in range(stats.n_users):
            assert asymptotic_mse(desk_moments(scenario, stats, n_groups=16, k=k)) <= 1e-20

    def test_matches_extreme_power_evaluation(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4, snr_db=20.0)
        m_hi = desk_moments(scenario, stats, n_groups=4, snr_db=20.0, rho_scale=1e12)
        floor = asymptotic_mse(m)
        at_hi = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m_hi).nmse
        assert at_hi == pytest.approx(floor, rel=0.01)

    def test_lower_bounds_finite_power(self, desk):
        scenario, stats = desk
        floor = asymptotic_mse(desk_moments(scenario, stats, n_groups=4))
        for snr in np.linspace(-20, 60, 9):
            m = desk_moments(scenario, stats, n_groups=4, snr_db=float(snr))
            assert correlated_grouping_filter(m).nmse >= floor - 1e-10


class TestTheoryCurves:
    def test_monotone_in_power(self, desk):
        scenario, stats = desk
        base = received_snr_to_power(0.0, stats, scenario.sigma_w2)
        scales = np.geomspace(1e-4, 1e8, 20)
        for n_groups, builder in [
            (16, lambda m: conventional_lmmse_filter(m).nmse),
            (4, lambda m: correlated_grouping_filter(m).nmse),
        ]:
            prev = np.inf
            for s in scales:
                tc = make_training_config(
                    16, 2, n_groups=n_groups, rho=base * s, sigma_w2=scenario.sigma_w2
                )
                val = builder(build_moments(stats, 0, tc))
                assert val <= prev + 1e-10
                prev = val

    def test_grouped_ordering_all_snr(self, desk):
        scenario, stats = desk
        ratios = []
        for snr in (-10, 0, 10, 20, 30, 40):
            m = desk_moments(scenario, stats, n_groups=4, snr_db=snr)
            mi = desk_moments(scenario, stats, n_groups=4, snr_db=snr, ideal=True)
            cg = correlated_grouping_filter(m).nmse
            soa = grouping_lmmse_filter(m, mi).nmse
            assert cg <= soa * (1 + 1e-12)
            ratios.append(soa / cg)
        assert ratios[-1] >= 1.10

    def test_make_estimator_dispatch(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        mi = desk_moments(scenario, stats, n_groups=4, ideal=True)
        for kind in EstimatorKind:
            est = make_estimator(kind, m, mi)
            assert est.kind == kind
            assert est.nmse >= 0
        with pytest.raises(ValueError):
            make_estimator(EstimatorKind.GROUPING_LMMSE, m, None)


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
            m = desk_moments(scenario, stats, n_groups=n_groups, rho_scale=scale)
            f = make_estimator(kind, m)
            eps.append(stats.n_users * scenario.sigma_w2 / m.aligned.rho)
            traces.append(f.mse_trace)
            norms.append(sum(
                mult * np.linalg.norm(np.sqrt(b.rho) * w) ** 2
                for (b, mult), w in zip(m.blocks, f.w_blocks)
            ))
        slope = (traces[0] - traces[1]) / (eps[0] - eps[1])
        assert slope == pytest.approx(norms[0], rel=1e-12)
        assert norms[1] == pytest.approx(norms[0], rel=1e-12)
        assert traces[2] == pytest.approx(traces[1] + slope * (eps[2] - eps[1]), rel=1e-12)

    @pytest.mark.parametrize("n_groups", [2, 4, 8, 16])
    def test_bayesian_nmse_falls_to_its_floor(self, desk, n_groups):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=n_groups)
        mi = desk_moments(scenario, stats, n_groups=n_groups, ideal=True)
        kinds = [EstimatorKind.GROUPING_LMMSE, EstimatorKind.CORRELATED_GROUPING_LMMSE]
        if n_groups == 16:
            kinds.append(EstimatorKind.LMMSE)
        prev = dict.fromkeys(kinds, np.inf)
        for snr in range(-20, 151, 2):
            rho = float(desk_training(scenario, stats, n_groups, float(snr)).rho[0])
            for kind in kinds:
                f = make_estimator(kind, m.at_power(rho), mi.at_power(rho))
                assert f.nmse <= prev[kind] * (1 + 1e-9), (kind, snr)
                if f.nmse_floor is not None:
                    assert f.nmse >= f.nmse_floor - 1e-12, (kind, snr)
                prev[kind] = f.nmse
