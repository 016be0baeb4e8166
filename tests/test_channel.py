import dataclasses
import math

import numpy as np
import pytest

from riscest.channel import (
    ChannelSampler,
    ChannelStatistics,
    FadingParams,
    SystemGeometry,
    arrival_angles,
    bs_los_vectors,
    build_statistics,
    complex_normal,
    element_distance,
    exp_correlation_matrix,
    path_loss,
    psd_factor,
    ris_steering_vector,
    target_matrix,
    target_vector,
)
from riscest.errors import DomainError, NumericalError
from riscest.scenario import default_scenario, desk_scenario
from riscest.validation import check_correlation_matrix, check_unit_modulus


WAVELENGTH = 0.1


def small_geometry(n_x=4, n_y=4, m=4, k=2):
    ues = np.array([[-8.0, 44.0, 5.0], [8.0, 44.0, 5.0], [0.0, 40.0, 5.0], [4.0, 45.0, 5.0]])
    return SystemGeometry(
        bs_position=np.array([0.0, 0.0, 15.0]),
        ris_position=np.array([0.0, 50.0, 10.0]),
        ue_positions=ues[:k],
        n_x=n_x, n_y=n_y, m_antennas=m,
        delta_x=WAVELENGTH / 2, delta_y=WAVELENGTH / 2, delta_0=WAVELENGTH / 2,
        wavelength=WAVELENGTH,
    )


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 2.5, 1e-3) == 1e-3

    def test_exact_power_arithmetic(self):
        assert path_loss(100.0, 2.0, 1e-3) == pytest.approx(1e-7, rel=1e-15)

    def test_bs_ris_distance_oracle(self):
        # scalar-arithmetic oracle: distance between (0,0,15) and (0,50,10)
        d = math.sqrt(50.0**2 + 5.0**2)
        expected = 1e-3 * d ** (-2.5)
        assert expected == pytest.approx(5.586930539251951e-08, rel=1e-12)
        assert path_loss(d, 2.5, 1e-3) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            path_loss(0.0, 2.0, 1e-3)
        with pytest.raises(DomainError):
            path_loss(-1.0, 2.0, 1e-3)
        with pytest.raises(DomainError):
            path_loss(1.0, 2.0, 0.0)

    def test_gain_must_be_positive_and_finite(self):
        with pytest.raises(DomainError, match="path gain inf"):
            path_loss(50.0, -400.0, 1e-3)  # 50**400 overflows
        with pytest.raises(DomainError, match="path gain 0"):
            path_loss(1e200, 2.2, 1e-3)  # underflows to zero
        with pytest.raises(DomainError, match="path gain 0"):
            path_loss(float("inf"), 2.2, 1e-3)

    def test_strictly_decreasing_in_distance(self):
        rng = np.random.default_rng(1)
        for alpha in (0.5, 2.0, 3.7):
            d = np.sort(rng.uniform(0.1, 1e4, size=50))
            gains = [path_loss(x, alpha, 1e-3) for x in d]
            assert all(a > b for a, b in zip(gains, gains[1:]))


class TestElementDistance:
    def test_same_element(self):
        geo = small_geometry()
        assert element_distance(3, 3, geo) == 0.0

    def test_adjacent_in_x(self):
        geo = small_geometry()
        assert element_distance(1, 2, geo) == pytest.approx(WAVELENGTH / 2, rel=1e-15)

    def test_adjacent_in_y(self):
        # row-major in x: element n_x+1 sits directly above element 1
        geo = small_geometry()
        assert element_distance(1, geo.n_x + 1, geo) == pytest.approx(WAVELENGTH / 2, rel=1e-15)

    def test_diagonal_oracle(self):
        geo = small_geometry()
        # element 1 at (0, 0), element n_x+2 at (dx, dy)
        expected = math.hypot(geo.delta_x, geo.delta_y)
        assert element_distance(1, geo.n_x + 2, geo) == pytest.approx(expected, rel=1e-15)

    def test_out_of_range(self):
        geo = small_geometry()
        for bad in (0, -1, geo.n_elements + 1):
            with pytest.raises(DomainError):
                element_distance(bad, 1, geo)


class TestExpCorrelation:
    def test_unit_diagonal(self):
        geo = small_geometry()
        for eta in (0.0, 0.3, 0.99, 1.0):
            r = exp_correlation_matrix(eta, geo)
            np.testing.assert_allclose(np.diagonal(r), 1.0, rtol=0, atol=0)

    def test_adjacent_value(self):
        # eta**(d/lambda) at half-wavelength spacing: 0.99**0.5
        geo = small_geometry()
        r = exp_correlation_matrix(0.99, geo)
        assert r[0, 1] == pytest.approx(0.99498743710662, rel=1e-12)

    def test_independence_limit(self):
        geo = small_geometry()
        np.testing.assert_array_equal(exp_correlation_matrix(0.0, geo), np.eye(geo.n_elements))

    def test_domain(self):
        geo = small_geometry()
        for eta in (-0.1, 1.0001):
            with pytest.raises(DomainError):
                exp_correlation_matrix(eta, geo)

    def test_symmetric_psd_unit_diag(self):
        geo = small_geometry(n_x=3, n_y=5)
        for eta in (0.2, 0.7, 0.99):
            r = exp_correlation_matrix(eta, geo)
            np.testing.assert_allclose(r, r.T, atol=1e-15)
            assert np.linalg.eigvalsh(r).min() >= -1e-10


class TestSteering:
    def test_broadside_all_ones(self):
        geo = small_geometry()
        v = ris_steering_vector(0.7, 0.0, geo)
        np.testing.assert_allclose(v, 1.0, atol=1e-15)

    def test_single_element(self):
        geo = small_geometry(n_x=1, n_y=1)
        np.testing.assert_array_equal(ris_steering_vector(0.3, 1.1, geo), [1.0])

    def test_two_element_endfire_phases(self):
        geo = small_geometry(n_x=2, n_y=1)
        v = ris_steering_vector(0.0, np.pi / 2, geo)
        phases = np.angle(v)
        assert phases[0] == pytest.approx(0.0, abs=1e-15)
        assert abs(phases[1]) == pytest.approx(np.pi, rel=1e-12)

    def test_unit_modulus(self):
        geo = small_geometry(n_x=5, n_y=3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = ris_steering_vector(rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi), geo)
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)


class TestBsLosVectors:
    def test_zero_bs_angle_identical_rows(self):
        geo = small_geometry(m=4)
        a = bs_los_vectors(geo, 0.4, 0.9, psi=0.0)
        for m in range(1, 4):
            np.testing.assert_array_equal(a[m], a[0])

    def test_single_antenna(self):
        geo = small_geometry(m=1)
        a = bs_los_vectors(geo, 0.4, 0.9, psi=1.0)
        np.testing.assert_allclose(a[0], ris_steering_vector(0.4, 0.9, geo), atol=1e-15)

    def test_second_antenna_phase(self):
        # scalar oracle: 2*pi/lambda * delta_0 * sin(pi/3) with delta_0 = lambda/2
        geo = small_geometry(m=2)
        a = bs_los_vectors(geo, 0.0, 0.0, psi=np.pi / 3)
        phase = np.angle(a[1, 0] / a[0, 0])
        expected = math.pi * math.sin(math.pi / 3)
        assert expected == pytest.approx(2.7206990463513265, rel=1e-15)
        assert phase == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(a[1, 0] / a[0, 0], np.exp(1j * expected), atol=1e-12)


def default_fading(k_users=2, eta=0.99, blocked=True):
    return FadingParams(
        kappa_a=0.01, kappa_g=10 ** 0.3, alpha_a=2.5, alpha_g=2.2, alpha_b=3.0,
        rho_0=1e-3, eta=np.full(k_users + 1, eta), direct_blocked=blocked,
    )


class TestBuildStatistics:
    def test_reference_layout_correlations(self):
        stats = build_statistics(small_geometry(), default_fading())
        for i, r in enumerate([stats.R0, *stats.R]):
            assert check_correlation_matrix(r, f"R{i}").passed
        assert check_unit_modulus(stats.g_bar, "g_bar").passed
        assert check_unit_modulus(stats.a_bar, "a_bar").passed
        for r in [stats.R0, *stats.R]:
            assert np.all(r.real > 0)
            np.testing.assert_allclose(np.diagonal(r).real, 1.0, atol=0)

    def test_zero_eta_gives_identity(self):
        stats = build_statistics(small_geometry(), default_fading(eta=0.0))
        for r in [stats.R0, *stats.R]:
            np.testing.assert_array_equal(r, np.eye(16))

    def test_gain_from_path_loss_oracle(self):
        geo = small_geometry()
        stats = build_statistics(geo, default_fading())
        d = math.sqrt(8.0**2 + 6.0**2 + 5.0**2)
        assert stats.rho_g[0] == pytest.approx(1e-3 * d ** (-2.2), rel=1e-12)

    def test_blocked_direct_link(self):
        stats = build_statistics(small_geometry(), default_fading(blocked=True))
        np.testing.assert_array_equal(stats.rho_b, 0.0)
        stats2 = build_statistics(small_geometry(), default_fading(blocked=False))
        assert np.all(stats2.rho_b > 0)

    def test_huge_position_keeps_its_distance(self):
        # the squares of 1e200 overflow, the distance does not: the gain is the true one
        geo = small_geometry(k=1)
        geo.ue_positions[0] = [-8.0, 1e200, 5.0]
        fading = dataclasses.replace(default_fading(k_users=1), alpha_g=1.0)
        stats = build_statistics(geo, fading)
        assert stats.rho_g[0] == path_loss(1e200, 1.0, 1e-3)
        azimuth, elevation = arrival_angles(geo, geo.ue_positions[0])
        assert azimuth == pytest.approx(-5e-200, rel=1e-12) and elevation == math.pi / 2
        # at the default exponent the gain underflows, and the error names the true distance
        with pytest.raises(DomainError, match=r"path gain 0 at distance 1e\+200, exponent 2.2"):
            build_statistics(geo, default_fading(k_users=1))

    def test_coincident_positions_rejected(self):
        geo = small_geometry()
        geo.ue_positions[0] = geo.ris_position
        with pytest.raises(DomainError):
            build_statistics(geo, default_fading())

    def test_eta_length_mismatch(self):
        with pytest.raises(DomainError):
            build_statistics(small_geometry(k=2), default_fading(k_users=3))

    def test_arrival_angles_recover_direction(self):
        geo = small_geometry()
        az, el = arrival_angles(geo, geo.bs_position)
        u = (geo.bs_position - geo.ris_position)
        u = u / np.linalg.norm(u)
        assert math.cos(el) == pytest.approx(u[0], abs=1e-12)
        assert math.sin(el) * math.cos(az) == pytest.approx(u[1], abs=1e-12)
        assert math.sin(el) * math.sin(az) == pytest.approx(u[2], abs=1e-12)


class TestPsdFactor:
    def test_reconstructs_matrix(self):
        geo = small_geometry()
        r = exp_correlation_matrix(0.99, geo)
        factor = psd_factor(r)
        np.testing.assert_allclose(factor @ factor.conj().T, r, atol=1e-10)

    def test_clips_small_negative_eigenvalues(self):
        r = np.eye(3)
        r[0, 0] = 1.0 - 2e-10  # slightly indefinite after the rank-one update
        u = np.full((3, 1), 1 / np.sqrt(3))
        m = r - 1e-9 * (u @ u.T)
        factor = psd_factor(m)
        np.testing.assert_allclose(factor @ factor.conj().T, m, atol=1e-8)

    def test_rejects_indefinite(self):
        m = np.diag([1.0, -0.5])
        with pytest.raises(NumericalError):
            psd_factor(m)


def _crandn(rng, shape):
    """Standard complex Gaussians, all real parts drawn before the imaginary ones."""
    return complex_normal(rng.standard_normal(shape), rng.standard_normal(shape))


def _sample_per_user(sampler, rng):
    """The dense targets of the original sampler's per-user draw loop: the oracle of its stream."""
    st = sampler.stats
    k_users, n, m = st.n_users, st.n_elements, st.m_antennas
    zb = _crandn(rng, (k_users, m))
    g_unit = np.empty((k_users, n), dtype=complex)
    for k in range(k_users):
        g_unit[k] = sampler._mu_g[k] + sampler._L_g[k] @ _crandn(rng, n)
    a_unit = sampler._mu_a + _crandn(rng, (m, n)) @ sampler._L_a.T
    s = np.empty((k_users, m * (n + 1)), dtype=complex)
    for k in range(k_users):
        b_part = zb[k] if st.rho_b[k] > 0 else np.zeros(m, dtype=complex)
        s[k] = np.concatenate([b_part, (a_unit * g_unit[k][None, :]).reshape(-1)])
    return s


def _ris_link(real, stats, k):
    """User k's gain-scaled UE-RIS link read through S: antenna 0's cascade over a_bar[0].

    Exact up to the RIS-BS link's scattering, which a large kappa_a makes negligible.
    """
    return np.sqrt(stats.rho_g[k]) * real.S[..., k, 1:, 0] / stats.a_bar[0]


class TestSampling:
    @pytest.mark.parametrize("scenario", [desk_scenario, default_scenario])
    def test_batched_draws_match_per_user_loop(self, scenario):
        sampler = ChannelSampler(scenario().statistics())
        for seed in range(50):
            real = sampler.sample(np.random.default_rng(seed))
            want = _sample_per_user(sampler, np.random.default_rng(seed))
            np.testing.assert_array_equal(real.s, want)

    def test_target_matrix_round_trip(self):
        stats = desk_scenario().statistics()
        real = ChannelSampler(stats).sample(np.random.default_rng(8))
        m, n = stats.m_antennas, stats.n_elements
        assert real.S.shape == (stats.n_users, n + 1, m)
        for k in range(stats.n_users):
            np.testing.assert_array_equal(real.S[k, 0], real.s[k, :m])
            for ant in range(m):
                np.testing.assert_array_equal(
                    real.S[k, 1:, ant], real.s[k, m + ant * n : m + (ant + 1) * n]
                )
        np.testing.assert_array_equal(target_vector(real.S), real.s)
        # S is a view of the antenna-major targets, and target_matrix lays it out alike
        assert real.s_antenna.flags.c_contiguous
        assert real.s_antenna.shape == (stats.n_users, m, n + 1)
        again = target_matrix(real.s, m)
        np.testing.assert_array_equal(again, real.S)
        assert np.moveaxis(again, (-3, -1), (0, 1)).flags.c_contiguous

    def test_stacked_targets_match_per_trial(self):
        desk = desk_scenario()
        unblocked = dataclasses.replace(desk.fading, direct_blocked=False)
        single = dataclasses.replace(desk.geometry, m_antennas=1)
        scenarios = {
            "blocked": desk,
            "unblocked": dataclasses.replace(desk, fading=unblocked),
            "single-antenna": dataclasses.replace(desk, geometry=single),
        }
        for name, scenario in scenarios.items():
            stats = scenario.statistics()
            sampler = ChannelSampler(stats)
            assert (stats.rho_b > 0).all() == (name == "unblocked"), name
            # three trials, so the leading axis matches neither M nor K; each row
            # is longer than one realization, as a trial's noise follows its channel
            size = sampler.n_normals + 7
            rows = np.stack([np.random.default_rng(seed).standard_normal(size) for seed in range(3)])
            stacked = sampler.sample(normals=rows)
            assert stacked.S.shape == (3, stats.n_users, stats.n_elements + 1, stats.m_antennas)
            assert stacked.s_antenna.flags.c_contiguous
            for seed in range(3):
                real = sampler.sample(np.random.default_rng(seed))
                for field in ("s", "S"):
                    got = getattr(stacked, field)[seed]
                    assert np.array_equal(got, getattr(real, field)), (name, seed, field)

    @pytest.mark.parametrize(
        "name, lead",
        [("blocked", (4, 30)), ("unblocked", (4, 30)), ("single-antenna", (4, 30)),
         ("reference", (7, 1))],
    )
    def test_engine_shaped_targets_match_per_trial(self, name, lead):
        """At the sweep engine's (blocks, B) shapes every stacked S is bit-equal to a lone draw's."""
        desk = desk_scenario()
        scenario = {
            "blocked": desk,
            "unblocked": dataclasses.replace(
                desk, fading=dataclasses.replace(desk.fading, direct_blocked=False)
            ),
            "single-antenna": dataclasses.replace(
                desk, geometry=dataclasses.replace(desk.geometry, m_antennas=1)
            ),
            "reference": default_scenario(),
        }[name]
        sampler = ChannelSampler(scenario.statistics())
        n_blocks, b = lead
        size = sampler.n_normals
        # as the engine lays them out: per block, B trials' channel normals, then their
        # noise, so the (blocks, B, n_normals) normals are a strided view
        rows = np.zeros((n_blocks, b * (size + 5)))
        for i in range(n_blocks):
            for j in range(b):
                rows[i, j * size:(j + 1) * size] = np.random.default_rng(i * b + j).standard_normal(size)
        stacked = sampler.sample(normals=rows[:, :b * size].reshape(n_blocks, b, size))
        for i in range(n_blocks):
            for j in range(b):
                real = sampler.sample(np.random.default_rng(i * b + j))
                got = np.ascontiguousarray(stacked.S[i, j])
                assert got.tobytes() == real.S.tobytes(), (i, j)

    def test_deterministic_per_seed(self):
        stats = desk_scenario().statistics()
        a = ChannelSampler(stats).sample(np.random.default_rng(99))
        b = ChannelSampler(stats).sample(np.random.default_rng(99))
        for field in ("S", "s"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_blocked_direct_is_exactly_zero(self):
        stats = desk_scenario().statistics()
        real = ChannelSampler(stats).sample(np.random.default_rng(0))
        np.testing.assert_array_equal(real.S[:, 0], 0.0)
        np.testing.assert_array_equal(real.s[:, : stats.m_antennas], 0.0)

    def test_pure_los_limit(self):
        fading = FadingParams(
            kappa_a=1e12, kappa_g=1e12, alpha_a=2.5, alpha_g=2.2, alpha_b=3.0,
            rho_0=1e-3, eta=np.full(3, 0.99),
        )
        stats = build_statistics(small_geometry(), fading)
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(5)
        draws = np.stack([_ris_link(sampler.sample(rng), stats, 0) for _ in range(200)])
        rho_g = stats.rho_g[0]
        assert np.var(draws, axis=0).max() <= 1e-10 * rho_g
        np.testing.assert_allclose(
            draws.mean(axis=0), np.sqrt(rho_g) * stats.g_bar[0], atol=1e-5 * np.sqrt(rho_g)
        )

    def test_ris_link_covariance_oracle(self):
        # Monte Carlo moment oracle on the definition of the correlated draw
        geo = small_geometry(n_x=2, n_y=2, m=1, k=1)
        stats = build_statistics(geo, dataclasses.replace(default_fading(k_users=1), kappa_a=1e12))
        sampler = ChannelSampler(stats)
        rng = np.random.default_rng(3)
        n_draws = 100_000
        draws = np.empty((n_draws, stats.n_elements), dtype=complex)
        for i in range(n_draws):
            draws[i] = _ris_link(sampler.sample(rng), stats, 0)
        mu_hat = draws.mean(axis=0)
        centered = draws - mu_hat
        cov_hat = centered.T @ centered.conj() / n_draws
        kg = stats.fading.kappa_g
        expected = (stats.rho_g[0] / (1 + kg)) * stats.R[0]
        assert np.abs(cov_hat - expected).max() < 0.05 * stats.rho_g[0]

    @pytest.mark.parametrize("name", ["blocked", "unblocked", "reference"])
    def test_cascade_is_one_ris_bs_draw_times_each_users_ris_link(self, name):
        """S_k[n, m] = a_m[n] g_k[n], so S_k[n, m] S_j[n, m'] = S_k[n, m'] S_j[n, m]."""
        desk = desk_scenario()
        scenario = {
            "blocked": desk,
            "unblocked": dataclasses.replace(
                desk, fading=dataclasses.replace(desk.fading, direct_blocked=False)
            ),
            "reference": default_scenario(),
        }[name]
        sampler = ChannelSampler(scenario.statistics())
        rows = np.random.default_rng(4).standard_normal((2, 3, sampler.n_normals))
        cascade = sampler.sample(normals=rows).S[..., 1:, :]  # (2, 3, K, N, M)
        # [..., k, j, n, m, m'] = S_k[n, m] S_j[n, m']
        products = cascade[..., :, None, :, :, None] * cascade[..., None, :, :, None, :]
        tol = 1e-13 * np.abs(products).max()
        np.testing.assert_allclose(products, products.swapaxes(-1, -2), rtol=1e-13, atol=tol)
        # a draw of another user's RIS-BS link breaks it
        other = sampler.sample(normals=rows[::-1]).S[..., 1:, :]
        cascade[..., 1, :, :] = other[..., 1, :, :]
        products = cascade[..., :, None, :, :, None] * cascade[..., None, :, :, None, :]
        assert not np.allclose(products, products.swapaxes(-1, -2), rtol=1e-6)

    def test_validate_catches_corruption(self):
        stats = desk_scenario().statistics()
        stats.R[0][0, 1] = 5.0
        assert not check_correlation_matrix(stats.R[0], "R1").passed
