from dataclasses import fields, replace

import numpy as np
import pytest

from riscest.channel import ChannelSampler
from riscest.errors import ConfigurationError, DomainError
from riscest.scenario import desk_scenario
from riscest.training import (
    PatternOrthogonalityWarning,
    TrainingConfig,
    build_Z,
    hadamard,
    make_training_config,
    mixing_blocks,
    pilot_overhead,
    pilot_sequences,
    synthesize_received,
    training_patterns,
    _mixing_block,
)


@pytest.fixture(scope="module")
def desk():
    scenario = desk_scenario()
    return scenario, scenario.statistics()


class TestHadamard:
    def test_order_one(self):
        np.testing.assert_array_equal(hadamard(1), [[1]])

    def test_order_two(self):
        np.testing.assert_array_equal(hadamard(2), [[1, 1], [1, -1]])

    def test_order_four_gram(self):
        h = hadamard(4)
        np.testing.assert_array_equal(h @ h.T, 4 * np.eye(4, dtype=np.int64))

    def test_larger_orders_exact(self):
        for order in (8, 16, 64):
            h = hadamard(order)
            np.testing.assert_array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))

    def test_rejects_non_powers(self):
        for bad in (0, -1, 3, 6, 12):
            with pytest.raises(DomainError):
                hadamard(bad)


class TestTrainingPatterns:
    def test_rows_from_order_four_matrix(self):
        # enumerated order-4 Hadamard rows: columns 2..3 of rows 1..3
        with pytest.warns(PatternOrthogonalityWarning):
            group_patterns = training_patterns(2, 3)
            tc = TrainingConfig(2, 1, 2, 3, sigma_w2=1.0)
        np.testing.assert_array_equal(group_patterns.real, [[1, 1], [-1, 1], [1, -1]])
        np.testing.assert_array_equal(tc.patterns, group_patterns)

    def test_kronecker_replication_shape(self):
        with pytest.warns(PatternOrthogonalityWarning):
            tc = TrainingConfig(4, 1, 2, 3, sigma_w2=1.0)
        np.testing.assert_array_equal(tc.group_index, [0, 0, 1, 1])
        for t in range(3):
            c, d = tc.group_patterns[t]
            np.testing.assert_array_equal(tc.patterns[t], [c, c, d, d])

    def test_warning_names_the_round_and_points_at_the_caller(self):
        match = "T = 5 patterns for n_groups = 4"
        with pytest.warns(PatternOrthogonalityWarning, match=match) as rec:
            make_training_config(16, 2, n_groups=4)
        assert [w.filename for w in rec] == [__file__]

    def test_stacked_gram_power_of_two(self):
        group_patterns = training_patterns(3, 4)
        stacked = np.hstack([np.ones((4, 1)), group_patterns])
        gram = stacked.conj().T @ stacked
        np.testing.assert_array_equal(gram, 4 * np.eye(4))

    def test_identifiability_guard(self):
        with pytest.raises(ConfigurationError):
            training_patterns(4, 4)

    def test_bad_group_count(self):
        for n_groups in (3, 0):
            with pytest.raises(DomainError):
                TrainingConfig(8, 1, n_groups, 5, sigma_w2=1.0)


class TestPilots:
    def test_single_user(self):
        np.testing.assert_array_equal(pilot_sequences(1), [[1.0]])

    def test_two_users(self):
        phi = pilot_sequences(2)
        np.testing.assert_allclose(phi, [[1, 1], [1, -1]], atol=1e-12)
        assert np.vdot(phi[1], phi[0]) == pytest.approx(0.0, abs=1e-12)
        assert np.vdot(phi[0], phi[0]) == pytest.approx(2.0, rel=1e-12)

    def test_four_user_gram(self):
        phi = pilot_sequences(4)
        np.testing.assert_allclose(phi @ phi.conj().T, 4 * np.eye(4), atol=1e-12)

    def test_gram_up_to_64(self):
        for k in (3, 5, 8, 17, 64):
            phi = pilot_sequences(k)
            np.testing.assert_allclose(phi @ phi.conj().T, k * np.eye(k), atol=1e-10)


class TestOverhead:
    def test_reference_counts(self):
        full, grouped = pilot_overhead(4, 64, 16)
        assert full == 260
        assert grouped == 68

    def test_direct_link_only(self):
        assert pilot_overhead(1, 0, 0) == (1, 1)


class TestBuildZ:
    def test_scalar_mixing_block(self):
        block = _mixing_block(1.0, 1.0, 1.0, np.array([1.0 + 0j]), 1)
        np.testing.assert_array_equal(block, [[1.0, 1.0]])

    def test_shapes(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=scenario.sigma_w2)
        z = build_Z(0, stats, tc)
        z_g = build_Z(0, stats, tc, grouped=True)
        m, t = stats.m_antennas, tc.n_patterns
        assert z.shape == (m * t, m * (16 + 1))
        assert z_g.shape == (m * t, m * (4 + 1))

    def test_structure_per_pattern(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=scenario.sigma_w2)
        z = build_Z(1, stats, tc)
        m = stats.m_antennas
        k = tc.n_users
        gain = k * np.sqrt(stats.rho_g[1] * stats.rho_a)
        # antenna row 0 of pattern block t touches only the m=0 cascade columns
        t = 2
        row = z[t * m]
        np.testing.assert_array_equal(row[:m], 0.0)  # blocked direct link
        np.testing.assert_allclose(row[m : m + 16], gain * tc.patterns[t], rtol=1e-12)
        np.testing.assert_array_equal(row[m + 16 :], 0.0)

    def test_grouped_equals_full_when_ungrouped(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=16, sigma_w2=scenario.sigma_w2)
        np.testing.assert_array_equal(
            build_Z(0, stats, tc), build_Z(0, stats, tc, grouped=True)
        )


class TestTrainingConfig:
    def test_minimum_patterns_default(self):
        tc = make_training_config(16, 2, n_groups=4)
        assert tc.n_patterns == 5
        assert tc.tau_p == 10
        np.testing.assert_array_equal(tc.group_index, np.repeat(np.arange(4), 4))

    def test_holds_its_inputs_and_derives_the_rest(self):
        tc = TrainingConfig(6, 2, 3, 4, sigma_w2=1.0)
        assert [f.name for f in fields(tc)] == [
            "n_elements", "n_users", "n_groups", "n_patterns", "sigma_w2",
        ]
        assert tc.sigma_w2 == 1.0
        group_patterns = training_patterns(3, 4)
        np.testing.assert_array_equal(tc.group_index, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(tc.patterns, np.repeat(group_patterns, 2, axis=1))
        np.testing.assert_array_equal(tc.group_patterns, group_patterns)
        np.testing.assert_array_equal(tc.pilot_matrix, pilot_sequences(2))

    @pytest.mark.parametrize("sigma_w2", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_negative_or_non_finite_noise_power(self, sigma_w2):
        with pytest.raises(ConfigurationError, match="noise power"):
            make_training_config(16, 2, n_groups=4, sigma_w2=sigma_w2)

    def test_rejects_non_dividing_groups(self):
        with pytest.raises((ConfigurationError, DomainError)):
            make_training_config(16, 2, n_groups=5)


class TestSynthesis:
    def test_noiseless_single_user(self, desk):
        _, stats = desk
        sub = desk_scenario()
        geo = sub.geometry
        geo.ue_positions = geo.ue_positions[:1]
        sub.fading.eta = sub.fading.eta[:2]
        stats1 = sub.statistics()
        tc = make_training_config(16, 1, n_groups=4, sigma_w2=0.0)
        real = ChannelSampler(stats1).sample(np.random.default_rng(0))
        mixing = np.sqrt(0.25) * mixing_blocks(stats1, tc)
        obs = synthesize_received(real, stats1, tc, mixing, np.random.default_rng(1))
        expected = np.sqrt(0.25) * (build_Z(0, stats1, tc) @ real.s[0])
        np.testing.assert_allclose(obs.y_combined[0], expected, rtol=1e-12)

    def test_interuser_cancellation(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=0.0)
        real = ChannelSampler(stats).sample(np.random.default_rng(4))
        masked = replace(real, S=np.stack([np.zeros_like(real.S[0]), real.S[1]]))
        mixing = np.sqrt(0.25) * mixing_blocks(stats, tc)
        obs = synthesize_received(masked, stats, tc, mixing, np.random.default_rng(5))
        leak = np.linalg.norm(obs.y_combined[0]) / np.linalg.norm(obs.y_combined[1])
        assert leak < 1e-10

    def test_linear_model_reconstruction(self, desk):
        scenario, stats = desk
        tc, rho = make_training_config(16, 2, n_groups=4, sigma_w2=scenario.sigma_w2), 0.3
        rng = np.random.default_rng(6)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, np.sqrt(rho) * mixing_blocks(stats, tc), rng)
        for k in range(2):
            w_comb = np.einsum(
                "tim,i->tm", obs.noise_raw, tc.pilot_matrix[k].conj()
            ).reshape(-1)
            model = np.sqrt(rho) * (build_Z(k, stats, tc) @ real.s[k]) + w_comb
            rel = np.linalg.norm(obs.y_combined[k] - model) / np.linalg.norm(model)
            assert rel < 1e-10

    def test_combined_noise_covariance(self, desk):
        scenario, stats = desk
        sigma = 2.5
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=sigma)
        zero = ChannelSampler(stats).sample(np.random.default_rng(7))
        zero = replace(zero, S=np.zeros_like(zero.S))
        rng = np.random.default_rng(8)
        n_draws = 10_000
        dim = stats.m_antennas * tc.n_patterns
        acc = np.zeros((dim, dim), dtype=complex)
        mixing = mixing_blocks(stats, tc)  # at unit pilot power
        for _ in range(n_draws):
            obs = synthesize_received(zero, stats, tc, mixing, rng)
            y = obs.y_combined[0]
            acc += np.outer(y, y.conj())
        cov = acc / n_draws
        expected = tc.n_users * sigma * np.eye(dim)
        assert np.abs(cov - expected).max() < 0.05 * tc.n_users * sigma

    def test_estimators_share_observations(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=scenario.sigma_w2)
        real = ChannelSampler(stats).sample(np.random.default_rng(9))
        mixing = np.sqrt(0.3) * mixing_blocks(stats, tc)
        obs1 = synthesize_received(real, stats, tc, mixing, np.random.default_rng(10))
        obs2 = synthesize_received(real, stats, tc, mixing, np.random.default_rng(10))
        np.testing.assert_array_equal(obs1.y_combined, obs2.y_combined)
        np.testing.assert_array_equal(obs1.noise_raw, obs2.noise_raw)

    def test_antenna_major_observations_in_a_reused_workspace(self, desk):
        """y_antenna[k, m, ..., t] is y_combined[..., k, t*M + m], in a workspace or not."""
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=scenario.sigma_w2)
        mixing = np.sqrt(0.3) * mixing_blocks(stats, tc)
        sampler = ChannelSampler(stats)
        normals = np.random.default_rng(13).standard_normal((3, sampler.n_normals + 200))
        real = sampler.sample(normals=normals[:, :sampler.n_normals])
        fresh = synthesize_received(real, stats, tc, mixing, normals=normals[:, sampler.n_normals:])
        k_users, m, t = tc.n_users, stats.m_antennas, tc.n_patterns
        assert fresh.y_antenna.shape == (k_users, m, 3, t)
        assert fresh.noise_raw.shape == (3, t, k_users, m)
        y = fresh.y_combined.reshape(3, k_users, t, m)
        np.testing.assert_array_equal(np.moveaxis(y, (1, 3), (0, 1)), fresh.y_antenna)
        workspace = np.full(3 * fresh.y_antenna.size + 5, np.nan, dtype=complex)
        for _ in range(2):
            reused = synthesize_received(
                real, stats, tc, mixing, normals=normals[:, sampler.n_normals:], workspace=workspace
            )
            assert np.shares_memory(reused.y_antenna, workspace)
            np.testing.assert_array_equal(reused.y_antenna, fresh.y_antenna)
            np.testing.assert_array_equal(reused.noise_raw, fresh.noise_raw)

    def test_size_mismatch_rejected(self, desk):
        scenario, stats = desk
        tc = make_training_config(16, 2, n_groups=4, sigma_w2=1.0)
        real = ChannelSampler(stats).sample(np.random.default_rng(11))
        bad = replace(real, S=real.S[:, :-1])
        mixing = np.sqrt(0.3) * mixing_blocks(stats, tc)
        with pytest.raises(ConfigurationError):
            synthesize_received(bad, stats, tc, mixing, np.random.default_rng(12))
