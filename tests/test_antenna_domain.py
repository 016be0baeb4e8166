"""The antenna-domain block path against the dense M(N+1)-dimensional oracle.

The oracle is `observation_moments` fed with `build_Z`
(`conftest.dense_moments`), evaluated by the named filter functions; the
block path is `build_moments` evaluated by `make_estimator` and
`asymptotic_mse`.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from riscest.errors import DomainError
from riscest.estimators import (
    EstimatorKind,
    asymptotic_mse,
    conventional_ls_filter,
    grouping_lmmse_filter,
    grouping_ls_filter,
    lmmse_filter,
    make_estimator,
)
from riscest.channel import ChannelSampler, target_matrix
from riscest.moments import (
    AntennaMomentSet,
    MomentSet,
    antenna_basis,
    antenna_factor,
    build_moments,
    combine_blocks,
    cov_ss,
    to_antenna_basis,
)
from riscest.montecarlo import received_snr_to_power
from riscest.scenario import default_scenario, desk_scenario
from riscest.training import (
    PatternOrthogonalityWarning,
    build_Z,
    make_training_config,
    mixing_blocks,
    synthesize_received,
)

from conftest import dense_moments, moment_field

MOMENT_FIELDS = ("mean_s", "cov_ss", "mean_y", "cov_sy", "cov_yy", "Z", "Z_G")
# the dense covariance fields and the index kinds ("s" or "y") of their rows and columns
COVARIANCE_INDEX = {"cov_ss": ("s", "s"), "cov_sy": ("s", "y"), "cov_yy": ("y", "y")}


def _desk_unblocked():
    scenario = desk_scenario()
    scenario.fading.direct_blocked = False
    return scenario


def _desk_single_antenna(direct_blocked=True):
    scenario = desk_scenario()
    scenario.geometry.m_antennas = 1
    scenario.fading.direct_blocked = direct_blocked
    return scenario


def _rank_two_los(stats):
    """stats with two different RIS-side LoS vectors, so a_bar has rank 2."""
    rng = np.random.default_rng(31)
    v = np.exp(2j * np.pi * rng.random((2, stats.n_elements)))
    return dataclasses.replace(stats, a_bar=np.repeat(v, stats.m_antennas // 2, axis=0))


SCENARIOS = {
    "desk": desk_scenario, "desk-unblocked": _desk_unblocked, "reference": default_scenario,
    "desk-single-antenna": _desk_single_antenna,
    "desk-single-antenna-unblocked": lambda: _desk_single_antenna(direct_blocked=False),
}

# (scenario, n_groups, snr_db, users); None means every user
CASES = [
    ("desk", 4, -10.0, None),
    ("desk", 4, 40.0, None),
    ("desk", 16, -10.0, None),
    ("desk", 16, 40.0, None),
    ("desk-unblocked", 4, 10.0, None),
    ("desk-unblocked", 16, 30.0, None),
    ("reference", 16, 0.0, (0,)),
    ("reference", 16, 50.0, (0,)),
    ("reference", 64, 20.0, (0,)),
    # M = 1: the aligned block alone, the orthogonal block at multiplicity 0
    ("desk-single-antenna", 4, -10.0, None),
    ("desk-single-antenna", 16, 50.0, None),
    ("desk-single-antenna-unblocked", 4, 20.0, None),
    ("desk-single-antenna-unblocked", 16, -10.0, None),
]


@pytest.fixture(scope="module")
def statistics():
    cache = {}

    def get(name):
        if name not in cache:
            scenario = SCENARIOS[name]()
            cache[name] = scenario, scenario.statistics()
        return cache[name]

    return get


def _training(scenario, stats, n_groups, snr_db):
    """The training round of n_groups and the pilot power of snr_db."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PatternOrthogonalityWarning)
        tc = make_training_config(
            stats.n_elements, stats.n_users, n_groups=n_groups, sigma_w2=scenario.sigma_w2,
        )
    return tc, received_snr_to_power(snr_db, stats, scenario.sigma_w2)


def _dense_filters(m, m_model, rho):
    return {
        EstimatorKind.LS: conventional_ls_filter(m, rho),
        EstimatorKind.LMMSE: lmmse_filter(m, rho),
        EstimatorKind.GROUPING_LS: grouping_ls_filter(m, rho),
        EstimatorKind.GROUPING_LMMSE: grouping_lmmse_filter(m, rho, m_model),
        EstimatorKind.CORRELATED_GROUPING_LMMSE: lmmse_filter(m, rho),
    }


def _check_floor(got, want, ungrouped):
    if want is None:
        assert got is None
    elif ungrouped:
        # The exact floor is 0 (Z_0 has full column rank), so both values are
        # cutoff noise.  The dense oracle's noise grows with the spread of
        # Z C_ss Z^H and reaches 1.5e-11 with an unblocked direct link, so
        # the block path is held to the exact value instead.
        assert 0.0 <= got <= 1e-12
    else:
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "name,n_groups,snr_db,users", CASES, ids=[f"{c[0]}-G{c[1]}-{c[2]:g}dB" for c in CASES]
)
def test_block_path_matches_dense_oracle(statistics, name, n_groups, snr_db, users):
    scenario, stats = statistics(name)
    tc, rho = _training(scenario, stats, n_groups, snr_db)
    # with one antenna the aligned block is the dense problem itself, so its
    # ungrouped floor carries the oracle's cutoff noise and is held to it
    ungrouped = n_groups == stats.n_elements and stats.m_antennas > 1
    for k in users or range(stats.n_users):
        m = build_moments(stats, k, tc)
        m_model = build_moments(stats, k, tc, block_ideal=True)
        assert isinstance(m, AntennaMomentSet) and isinstance(m_model, AntennaMomentSet)
        d, d_model = dense_moments(stats, k, tc), dense_moments(stats, k, tc, block_ideal=True)
        _check_floor(asymptotic_mse(m), asymptotic_mse(d), ungrouped)
        for kind, want in _dense_filters(d, d_model, rho).items():
            got = make_estimator(kind, m, rho, m_model)
            assert got.nmse == pytest.approx(want.nmse, rel=1e-10), kind
            assert got.mse_trace == pytest.approx(want.mse_trace, rel=1e-10), kind
            assert got.degenerate == want.degenerate, kind
            _check_floor(got.nmse_floor, want.nmse_floor, ungrouped)
            assert got.W.shape == want.W.shape and got.W.flags.c_contiguous
            assert np.abs(got.W - want.W).max() <= 1e-8 * np.abs(want.W).max(), kind
            scale = np.abs(want.error_cov).max()
            np.testing.assert_allclose(got.error_cov, want.error_cov, rtol=1e-8, atol=1e-10 * scale)


@pytest.mark.parametrize("block_ideal", [False, True])
@pytest.mark.parametrize("name", ["desk", "desk-unblocked"])
def test_assembled_moments_match_dense(statistics, name, block_ideal):
    scenario, stats = statistics(name)
    tc, rho = _training(scenario, stats, 4, 20.0)
    for k in range(stats.n_users):
        m = build_moments(stats, k, tc, block_ideal=block_ideal)
        d = dense_moments(stats, k, tc, block_ideal=block_ideal)
        assert m.prior_trace == pytest.approx(d.prior_trace, rel=1e-12)
        m_ant = m.r.size
        for field in MOMENT_FIELDS:
            want = moment_field(d, field, rho)
            if field in COVARIANCE_INDEX:
                blocks = [moment_field(b, field, rho) for b, _ in m.blocks]
                got = combine_blocks(m.r, blocks, *COVARIANCE_INDEX[field])
            elif field == "mean_s":
                # only the aligned block has a mean; compare in the target_matrix form
                want = target_matrix(want, m_ant)
                got = np.outer(m.aligned.mean_s, m.r) / np.sqrt(m_ant)
            elif field == "mean_y":
                # observations run (t, m), so the (T, M) matrix is a plain reshape
                want = want.reshape(-1, m_ant)
                got = np.outer(m.aligned.mean_y(rho), m.r) / np.sqrt(m_ant)
            else:
                z0 = getattr(m.aligned, field)  # Z or Z_G: every block shares Z_0
                got = combine_blocks(m.r, [z0, z0], "y", "s")
            np.testing.assert_allclose(
                got, want, rtol=0.0, atol=1e-13 * np.abs(want).max(), err_msg=field
            )


def test_unfactored_los_is_rejected(statistics):
    scenario, stats = statistics("desk")
    stats = _rank_two_los(stats)
    a_bar = stats.a_bar
    assert np.linalg.matrix_rank(a_bar) == 2
    assert antenna_factor(a_bar) is None
    np.testing.assert_array_equal(antenna_factor(a_bar[:1]), [1.0])  # one antenna: r = [1]
    tc, _ = _training(scenario, stats, 4, 20.0)
    with pytest.raises(DomainError):
        build_moments(stats, 1, tc)
    # the oracle still builds the rank-2 set
    d = dense_moments(stats, 1, tc)
    assert isinstance(d, MomentSet)
    np.testing.assert_array_equal(d.cov_ss, cov_ss(stats, 1))
    np.testing.assert_array_equal(d.Z, build_Z(1, stats, tc))


# (scenario, n_groups, users); the last one runs M = 1 on the blocks
ROTATED_CASES = [
    ("desk", 4, None),
    ("desk", 16, None),
    ("reference", 64, (0,)),
    ("desk-single-antenna", 16, None),
]


@pytest.mark.parametrize(
    "name,n_groups,users", ROTATED_CASES, ids=[f"{c[0]}-G{c[1]}" for c in ROTATED_CASES]
)
def test_rotated_rule_matches_dense_rule(statistics, name, n_groups, users):
    """estimate, and squared_error in the antenna basis, against the assembled dense W."""
    scenario, stats = statistics(name)
    q = antenna_basis(antenna_factor(stats.a_bar))
    tc, rho = _training(scenario, stats, n_groups, 20.0)
    sampler = ChannelSampler(stats)
    rng = np.random.default_rng(41)
    draws = [sampler.sample(rng) for _ in range(3)]
    mixing = np.sqrt(rho) * mixing_blocks(stats, tc)
    observations = [synthesize_received(real, stats, tc, mixing, rng) for real in draws]
    for k in users or range(stats.n_users):
        m = build_moments(stats, k, tc)
        m_model = build_moments(stats, k, tc, block_ideal=True)
        d = dense_moments(stats, k, tc)
        assert isinstance(m, AntennaMomentSet) and m.r.size == stats.m_antennas
        for kind in EstimatorKind:
            f = make_estimator(kind, m, rho, m_model)
            for real, obs in zip(draws, observations):
                y, s = obs.y_combined[k], real.s[k]
                want = d.mean_s + f.W @ (y - d.mean_y(rho)) if f.innovation else f.W @ y
                got = f.estimate(y)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), kind
                want_err = float(np.vdot(want - s, want - s).real)
                x, target = (to_antenna_basis(q, a[k]) for a in (obs.y_antenna, real.s_antenna))
                got_err = f.squared_error(x, target)
                assert got_err == pytest.approx(want_err, rel=1e-10), kind


@pytest.mark.parametrize("name", ["desk", "reference", "desk-single-antenna"])
def test_antenna_basis_is_unitary_with_the_aligned_first_column(statistics, name):
    _, stats = statistics(name)
    r = antenna_factor(stats.a_bar)
    q = antenna_basis(r)
    m = stats.m_antennas
    assert q.shape == (m, m)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(m), rtol=0, atol=1e-14)
    np.testing.assert_allclose(q[:, 0], r.conj() / np.sqrt(m), rtol=0, atol=1e-15)
    # one column per antenna in, the same columns rotated out: x[m] -> (X Q)[:, m]
    x = np.random.default_rng(2).standard_normal((m, 3, 5)) + 0j
    np.testing.assert_allclose(
        to_antenna_basis(q, x), np.einsum("mj,m...->j...", q, x), rtol=0, atol=1e-14
    )
