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
    hermitian_pinv,
    make_estimator,
)
from riscest.moments import MomentSet, build_moments, cov_ss
from riscest.montecarlo import received_snr_to_power
from riscest.scenario import desk_scenario
from riscest.training import make_training_config, synthesize_received

from test_moments import scalar_stats


def scalar_moments(c=2.0, z=1.5 - 0.5j, rho=0.8, sigma2=0.3):
    """Hand-assembled scalar moment set: zero-mean target with variance c."""
    cov = np.array([[c + 0j]])
    z_mat = np.array([[z]])
    return MomentSet(
        mean_s=np.zeros(1, complex), cov_ss=cov, cov_uu=cov,
        mean_y=np.zeros(1, complex),
        cov_sy=np.sqrt(rho) * cov @ z_mat.conj().T,
        cov_uy=np.sqrt(rho) * cov @ z_mat.conj().T,
        cov_yy=rho * np.abs(z) ** 2 * cov + sigma2 * np.eye(1),
        Z=z_mat, Z_G=z_mat, rho=rho, sigma_w2=sigma2, n_users=1,
        m_antennas=1, groups=[np.array([0])],
    )


def linear_moments(cov, z_mat, rho, sigma2):
    """Zero-mean target with covariance cov seen through z_mat, for the ungrouped kinds."""
    n_y, n_s = z_mat.shape
    cov_sy = np.sqrt(rho) * cov @ z_mat.conj().T
    return MomentSet(
        mean_s=np.zeros(n_s, complex), cov_ss=cov, cov_uu=cov,
        mean_y=np.zeros(n_y, complex), cov_sy=cov_sy, cov_uy=cov_sy,
        cov_yy=rho * z_mat @ cov @ z_mat.conj().T + sigma2 * np.eye(n_y),
        Z=z_mat, Z_G=z_mat, rho=rho, sigma_w2=sigma2, n_users=1,
        m_antennas=1, groups=[np.array([0])],
    )


@pytest.fixture(scope="module")
def desk():
    scenario = desk_scenario()
    return scenario, scenario.statistics()


def desk_moments(scenario, stats, n_groups, snr_db=20.0, k=0, rho_scale=1.0, ideal=False):
    rho = received_snr_to_power(snr_db, scenario) * rho_scale
    tc = make_training_config(
        stats.n_elements, stats.n_users, n_groups=n_groups,
        rho=rho, sigma_w2=scenario.sigma_w2,
    )
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
            got = filt.estimate(y).s_hat
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_zero_innovation_returns_prior_mean(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16)
        res = make_estimator(EstimatorKind.LMMSE, m).estimate(m.mean_y.copy())
        np.testing.assert_allclose(res.s_hat, m.mean_s, atol=1e-12)

    def test_empirical_mse_matches_trace(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16, snr_db=10.0)
        tc = make_training_config(16, 2, n_groups=16, rho=m.rho, sigma_w2=scenario.sigma_w2)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(21)
        filt = conventional_lmmse_filter(m)
        errs = []
        for _ in range(3000):
            real = sampler.sample(rng)
            obs = synthesize_received(real, stats, tc, rng, z_full=None, z_grouped=None)
            errs.append(filt.squared_error(obs.y_combined[0], real.s[0]))
        assert np.mean(errs) == pytest.approx(filt.mse_trace, rel=0.05)

    def test_zero_noise_rank_deficient_raises(self):
        m = scalar_moments(sigma2=0.0, z=0.0)
        with pytest.raises(NumericalError):
            make_estimator(EstimatorKind.LMMSE, m)


class TestConventionalLs:
    def test_noiseless_recovery(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=16, rho=0.5, sigma_w2=0.0)
        real = ChannelSampler(stats).sample(np.random.default_rng(22))
        obs = synthesize_received(real, stats, tc, np.random.default_rng(23))
        m = build_moments(stats, 0, tc)
        np.testing.assert_array_equal(m.Z, obs.Z[0])
        res = make_estimator(EstimatorKind.LS, m).estimate(obs.y_combined[0])
        err = np.linalg.norm(res.s_hat - real.s[0]) / np.linalg.norm(real.s[0])
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
        z = obs.Z[0]
        gram = z.conj().T @ z
        np.testing.assert_allclose(gram, gram[0, 0] * np.eye(4), atol=1e-12)
        direct = z.conj().T @ obs.y_combined[0] / (np.sqrt(0.9) * gram[0, 0].real)
        m = build_moments(stats, 0, tc)
        np.testing.assert_array_equal(m.Z, z)
        res = make_estimator(EstimatorKind.LS, m).estimate(obs.y_combined[0])
        np.testing.assert_allclose(res.s_hat, direct, rtol=1e-10)

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
        res = make_estimator(EstimatorKind.GROUPING_LMMSE, m, mi).estimate(obs.y_combined[0])
        rel = np.linalg.norm(res.s_hat - real.s[0]) / np.linalg.norm(real.s[0])
        assert rel < 1e-2  # per-draw error scale is sqrt(nmse) ~ 1e-3

    def test_grouping_ls_collapses_to_ls(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=16, rho=0.7, sigma_w2=scenario.sigma_w2)
        m = build_moments(stats, 0, tc)
        rng = np.random.default_rng(26)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        np.testing.assert_array_equal(m.Z, obs.Z[0])
        a = make_estimator(EstimatorKind.GROUPING_LS, m).estimate(obs.y_combined[0]).s_hat
        b = make_estimator(EstimatorKind.LS, m).estimate(obs.y_combined[0]).s_hat
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9

    def test_grouping_lmmse_collapses_under_uncorrelated_scattering(self):
        # with eta = 0 the block-ideal prior at n_groups = N equals the true prior
        scenario = desk_scenario(eta=0.0)
        stats = scenario.statistics()
        tc = make_training_config(16, 2, n_groups=16, rho=0.4, sigma_w2=scenario.sigma_w2)
        m = build_moments(stats, 0, tc)
        mi = build_moments(stats, 0, tc, block_ideal=True)
        rng = np.random.default_rng(27)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        a = make_estimator(EstimatorKind.GROUPING_LMMSE, m, mi).estimate(obs.y_combined[0]).s_hat
        b = make_estimator(EstimatorKind.LMMSE, m).estimate(obs.y_combined[0]).s_hat
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
        rng = np.random.default_rng(28)
        y = m.mean_y + (rng.standard_normal(m.mean_y.size) + 1j * rng.standard_normal(m.mean_y.size))
        a = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).estimate(y)
        b = make_estimator(EstimatorKind.LMMSE, m).estimate(y)
        assert np.linalg.norm(a.s_hat - b.s_hat) / np.linalg.norm(b.s_hat) < 1e-8
        assert a.mse_trace == pytest.approx(b.mse_trace, rel=1e-8)

    def test_zero_innovation(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        res = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).estimate(m.mean_y.copy())
        np.testing.assert_allclose(res.s_hat, m.mean_s, atol=1e-12)

    def test_degenerate_inner_gram_flagged(self, desk):
        # blocked direct link zeroes inner-Gram rows, so clipping must engage
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4)
        assert correlated_grouping_filter(m).degenerate

    def test_empirical_mse_matches_error_covariance(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4, snr_db=20.0)
        tc = make_training_config(16, 2, n_groups=4, rho=m.rho, sigma_w2=scenario.sigma_w2)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(29)
        filt = correlated_grouping_filter(m)
        expected = np.trace(make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov).real
        errs = []
        for _ in range(3000):
            real = sampler.sample(rng)
            obs = synthesize_received(real, stats, tc, rng)
            errs.append(filt.squared_error(obs.y_combined[0], real.s[0]))
        assert np.mean(errs) == pytest.approx(expected, rel=0.05)


class TestErrorCovariance:
    def test_zero_power_returns_prior(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4, rho_scale=1e-30)
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov
        assert np.trace(c).real / np.trace(m.cov_ss).real == pytest.approx(1.0, rel=1e-6)

    def test_matches_reduction_formula_at_moderate_power(self, desk):
        # independent oracle: the prior-minus-reduction arrangement
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=4, snr_db=10.0)
        x = np.linalg.solve(m.cov_yy, m.cov_uy.conj().T)
        gram = m.cov_uy @ x
        gram_pinv, _ = hermitian_pinv(0.5 * (gram + gram.conj().T))
        f = m.cov_sy @ x
        direct = m.cov_ss - f @ gram_pinv @ f.conj().T
        c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov
        np.testing.assert_allclose(c, direct, atol=1e-10 * np.abs(direct).max())

    def test_hermitian_psd_and_bounded_fuzz(self, desk):
        scenario, stats = desk
        rng = np.random.default_rng(30)
        for _ in range(100):
            n_groups = int(rng.choice([1, 2, 4, 8, 16]))
            snr = float(rng.uniform(-20, 60))
            m = desk_moments(scenario, stats, n_groups=n_groups, snr_db=snr)
            c = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).error_cov
            assert np.abs(c - c.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() > -1e-8
            assert np.trace(c).real <= np.trace(m.cov_ss).real * (1 + 1e-10)

    def test_ungrouped_equals_conventional_error_covariance(self, desk):
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16, snr_db=15.0)
        conv = m.cov_ss - m.cov_sy @ np.linalg.solve(m.cov_yy, m.cov_sy.conj().T)
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
        scenario, stats = desk
        m = desk_moments(scenario, stats, n_groups=16)
        assert asymptotic_mse(m) < 1e-8

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
        base = received_snr_to_power(0.0, scenario)
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
