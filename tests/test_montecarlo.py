import dataclasses
import gc
import hashlib
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from riscest import cli
from riscest.channel import ChannelSampler
from riscest.errors import ConfigurationError, NumericalError
from riscest.estimators import AffineEstimator, EstimatorKind, grouping_ls_filter, make_estimator
from riscest.moments import antenna_basis, antenna_factor, build_moments, to_antenna_basis
from riscest.montecarlo import (
    SweepConfig,
    SweepEngine,
    _trial_block,
    applicable_kinds,
    build_cell_bank,
    received_snr_to_power,
    run_sweep,
    snr_chunk_size,
)
from riscest.scenario import default_scenario, desk_scenario
from riscest.training import make_training_config, mixing_blocks, synthesize_received

from conftest import moment_field


DESK_INI = Path(__file__).resolve().parents[1] / "perfbench" / "desk.ini"
ALL_KINDS = tuple(EstimatorKind)
GROUPED = (
    EstimatorKind.GROUPING_LS,
    EstimatorKind.GROUPING_LMMSE,
    EstimatorKind.CORRELATED_GROUPING_LMMSE,
)


def desk_config(**overrides):
    base = dict(
        scenario=desk_scenario(),
        estimators=ALL_KINDS,
        snr_db=(0.0, 20.0),
        n_trials=10,
        n_groups=(4,),
        base_seed=4242,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            desk_config(n_trials=0)
        with pytest.raises(ConfigurationError):
            desk_config(snr_db=())
        with pytest.raises(ConfigurationError):
            desk_config(n_groups=(3,))
        with pytest.raises(ConfigurationError):
            desk_config(estimators=())
        with pytest.raises(ConfigurationError, match="need at least one group count"):
            desk_config(n_groups=())
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            desk_config(base_seed=-1)

    def test_rejects_repeated_entries(self):
        with pytest.raises(ConfigurationError, match="group count repeated: 4"):
            desk_config(n_groups=(4, 16, 4))
        with pytest.raises(ConfigurationError, match="estimator repeated: lmmse"):
            desk_config(estimators=("lmmse", "ls", EstimatorKind.LMMSE))

    def test_estimator_coercion(self):
        cfg = desk_config(estimators=("lmmse", "ls"), n_groups=(16,))
        assert cfg.estimators == (EstimatorKind.LMMSE, EstimatorKind.LS)

    def test_applicability(self):
        assert applicable_kinds(ALL_KINDS, 4, 16) == GROUPED
        assert applicable_kinds(ALL_KINDS, 16, 16) == ALL_KINDS

    def test_malformed_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="need at least one worker"):
            run_sweep(desk_config(), workers=0)


class TestSnrMapping:
    def test_power_scales_linearly_with_snr(self):
        scenario = desk_scenario()
        stats = scenario.statistics()
        r0 = received_snr_to_power(0.0, stats, scenario.sigma_w2)
        r10 = received_snr_to_power(10.0, stats, scenario.sigma_w2)
        assert r10 / r0 == pytest.approx(10.0, rel=1e-12)

    def test_definition(self):
        scenario = desk_scenario()
        stats = scenario.statistics()
        gain = stats.n_users * stats.n_elements * stats.rho_a * np.mean(stats.rho_g)
        assert received_snr_to_power(0.0, stats, scenario.sigma_w2) == pytest.approx(
            scenario.sigma_w2 / gain, rel=1e-12
        )


class TestRunTrial:
    def test_bit_identical_replay(self):
        cfg = desk_config()
        errors_a, digest_a = SweepEngine(cfg).run_cell_trial(0, 1, 3, digest=True)
        errors_b, digest_b = SweepEngine(cfg).run_cell_trial(0, 1, 3, digest=True)
        assert digest_a == digest_b
        assert set(errors_a) == set(errors_b)
        for key in errors_a:
            np.testing.assert_array_equal(errors_a[key], errors_b[key])

    def test_estimator_subsets_share_observations(self):
        # the digest depends only on the seed triple, not on which estimators run
        cfg_a = desk_config(estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE,))
        cfg_b = desk_config(estimators=GROUPED)
        errors_a, digest_a = SweepEngine(cfg_a).run_cell_trial(0, 0, 5, digest=True)
        errors_b, digest_b = SweepEngine(cfg_b).run_cell_trial(0, 0, 5, digest=True)
        assert digest_a == digest_b
        key = EstimatorKind.CORRELATED_GROUPING_LMMSE
        np.testing.assert_array_equal(errors_a[key], errors_b[key])

    def test_noiseless_ls_recovers_exactly(self, monkeypatch):
        # unit pilot power (rho = 1) with no noise
        monkeypatch.setattr("riscest.montecarlo.received_snr_to_power", lambda snr, stats, sigma_w2: 1.0)
        scenario = desk_scenario()
        scenario.sigma_w2 = 0.0
        cfg = SweepConfig(
            scenario=scenario, estimators=(EstimatorKind.LS,), snr_db=(0.0,),
            n_trials=1, n_groups=(16,), base_seed=7,
        )
        engine = SweepEngine(cfg)
        errors = engine.run_cell_trial(0, 0, 0, digest=True)[0][EstimatorKind.LS]
        assert engine.bank(0, 0).rho == 1.0
        scale = engine.bank(0, 0).prior_traces
        assert np.all(errors / scale < 1e-16)

    def test_sibling_cell_reuses_the_realization(self):
        cfg = desk_config(n_groups=(4, 16))
        errors_fresh, digest_fresh = SweepEngine(cfg).run_cell_trial(1, 1, 3, digest=True)
        engine = SweepEngine(cfg)
        engine.run_cell_trial(0, 1, 3)
        errors_shared, digest_shared = engine.run_cell_trial(1, 1, 3, digest=True)
        assert digest_shared == digest_fresh
        assert set(errors_shared) == set(errors_fresh)
        for key in errors_fresh:
            np.testing.assert_array_equal(errors_shared[key], errors_fresh[key])

    def test_trial_errors_are_per_user(self):
        cfg = desk_config()
        errors, _ = SweepEngine(cfg).run_cell_trial(0, 0, 0, digest=True)
        for err in errors.values():
            assert err.shape == (2,)
            assert np.all(err >= 0)


def desk_block_size() -> int:
    return SweepEngine(desk_config()).block_size


# SHA-256 of the little-endian float64 normals of desk block 0 (seed 1, SNR index 0)
DESK_BLOCK0_SHA256 = "1db47cce926e05529f1cadc3f758b1c4154776f168350a7b69a6713f22ff0db0"


def noise_size(engine) -> int:
    """Noise normals per trial in a block's draw: 2 T_max K M."""
    stats = engine.stats
    t_max = max(engine.config.n_groups) + 1
    return 2 * t_max * stats.n_users * stats.m_antennas


def block_draws(engine, trial) -> tuple[np.ndarray, np.ndarray]:
    """A fresh draw of the trial's block: (B, n_normals) channel, then (2 T_max K M, B) noise."""
    rng = engine.trial_rng(trial)
    b = engine.block_size
    channel = rng.standard_normal((b, engine.sampler.n_normals))
    return channel, rng.standard_normal((noise_size(engine), b))


def capture_sample_normals(monkeypatch) -> list[np.ndarray]:
    """Copies of the normals each ChannelSampler.sample(normals=...) call receives, in order."""
    drawn, sample = [], ChannelSampler.sample

    def capturing(self, rng=None, normals=None):
        drawn.append(normals.copy())
        return sample(self, rng, normals)

    monkeypatch.setattr(ChannelSampler, "sample", capturing)
    return drawn


class TestTrialBlocks:
    """Trials are drawn and scored a block at a time, from one random stream per block."""

    def test_block_size_is_fixed_by_the_scenario(self):
        # 2**16 bytes over 16 * K * M * (N+1) = 2176 bytes of desk targets per trial
        assert desk_block_size() == 30

    def test_block_errors_match_a_lone_trial(self):
        b = desk_block_size()
        cfg = desk_config(n_groups=(4, 16), snr_db=(10.0,), n_trials=3 * b + b // 2)
        engine = SweepEngine(cfg)
        q = antenna_basis(antenna_factor(engine.stats.a_bar))
        # the first block, a middle one and the last, clipped one
        for trial in (0, b + b // 2, cfg.n_trials - 1):
            channel, noise = block_draws(engine, trial)
            real = engine.sampler.sample(normals=channel[trial % b])
            for gi in range(len(cfg.n_groups)):
                errors, _ = engine.run_cell_trial(gi, 0, trial)
                bank = engine.bank(gi, 0)
                obs = synthesize_received(
                    real, engine.stats, bank.tconfig, bank.mixing, normals=noise[:, trial % b],
                )
                assert set(errors) == set(bank.filters)
                for kind, per_user in bank.filters.items():
                    want = [
                        f.squared_error(
                            to_antenna_basis(q, obs.y_antenna[k]),
                            to_antenna_basis(q, real.s_antenna[k]),
                        )
                        for k, f in enumerate(per_user)
                    ]
                    np.testing.assert_allclose(errors[kind], want, rtol=1e-12, atol=0)

    def test_desk_block_normals_are_pinned(self, monkeypatch):
        """Block 0 of perfbench/desk.ini at seed 1, SNR index 0: channel rows, then the noise."""
        drawn = capture_sample_normals(monkeypatch)
        config = cli.load_config(str(DESK_INI))
        config.sweep.seed = 1
        engine = SweepEngine(cli._sweep_config(config))
        engine.run_cell_trial(0, 0, 0)
        (channel,) = drawn
        # four 30-trial blocks per batch; 208 channel normals per trial, then
        # 2 T_max K M = 2 * 17 * 2 * 4 noise normals per trial, position-major
        assert engine.batch_size == 4 * 30
        assert channel.shape == (4, 30, 208)
        noise = engine._batch.normals  # (blocks, B, positions), a view of the draws
        assert noise.shape == (4, 30, noise_size(engine)) == (4, 30, 272)
        block = np.concatenate([channel[0].ravel(), noise[0].T.ravel()]).astype("<f8")
        assert hashlib.sha256(block.tobytes()).hexdigest() == DESK_BLOCK0_SHA256

    def test_reference_blocks_keep_the_per_trial_streams(self, monkeypatch):
        """At the reference setup B = 1, so at every SNR point trial t's normals are
        SeedSequence((seed, 0, t))'s, the stream SNR point 0 read when each point drew its own."""
        drawn = capture_sample_normals(monkeypatch)
        cfg = SweepConfig(
            scenario=default_scenario(), estimators=ALL_KINDS, snr_db=(0.0, 20.0),
            n_trials=9, n_groups=(16, 64), base_seed=4242,
        )
        engine = SweepEngine(cfg)
        assert engine.block_size == 1 and engine.batch_size == 7
        noises = []
        keys = [(1, 0), (0, 8), (1, 3)]  # a full batch, a clipped one, the first again
        for snr_index, trial in keys:
            engine.run_cell_trial(0, snr_index, trial)
            noises.append(engine._batch.normals.copy())
        for (_, trial), channel, noise in zip(keys, drawn, noises, strict=True):
            lo = trial - trial % engine.batch_size
            rows = min(engine.batch_size, cfg.n_trials - lo)
            assert channel.shape == (rows, 1, engine.sampler.n_normals)
            assert noise.shape == (rows, 1, noise_size(engine))
            for j in range(rows):
                seq = np.random.SeedSequence((cfg.base_seed, 0, lo + j))
                row = np.concatenate([channel[j, 0], noise[j, 0]])
                want = np.random.default_rng(seq).standard_normal(row.size)
                np.testing.assert_array_equal(row, want)

    def test_batch_rows_are_their_blocks_draws(self, monkeypatch):
        drawn = capture_sample_normals(monkeypatch)
        b = desk_block_size()
        engine = SweepEngine(desk_config(n_groups=(4, 16), n_trials=1))
        n = engine.batch_size
        assert n // b > 1 and n % b == 0
        # the second batch holds a full block and a clipped one, drawn whole
        cfg = desk_config(n_groups=(4, 16), n_trials=n + b + 7)
        engine = SweepEngine(cfg)
        noises = [engine._batch_of(t).normals.copy() for t in (0, cfg.n_trials - 1)]
        for lo, channel, noise in zip((0, n), drawn, noises, strict=True):
            n_blocks = -(-min(n, cfg.n_trials - lo) // b)
            assert channel.shape == (n_blocks, b, engine.sampler.n_normals)
            assert noise.shape == (n_blocks, b, noise_size(engine))
            for i in range(n_blocks):
                want_channel, want_noise = block_draws(engine, lo + i * b)
                np.testing.assert_array_equal(channel[i], want_channel)
                np.testing.assert_array_equal(noise[i].T, want_noise)

    def test_clipped_batch_in_reused_buffers_matches_a_fresh_engine(self):
        """A clipped last batch scored after a full one equals a fresh engine's, bit for bit."""
        b = desk_block_size()
        n = SweepEngine(desk_config(n_trials=1)).batch_size
        cfg = desk_config(n_groups=(4, 16), snr_db=(10.0,), n_trials=n + b + 7)
        engine, fresh = SweepEngine(cfg), SweepEngine(cfg)
        for gi in range(2):
            engine.run_cell_trial(gi, 0, 0)
        assert engine._batch.index == 0
        for gi in range(2):
            engine.run_cell_trial(gi, 0, n)
            fresh.run_cell_trial(gi, 0, n)
        assert engine._batch.index == fresh._batch.index == 1
        np.testing.assert_array_equal(engine._batch.targets, fresh._batch.targets)
        for gi in range(2):
            got, want = engine._batch.cells[gi][1], fresh._batch.cells[gi][1]
            assert got.shape == want.shape == (2 * b, len(engine.bank(gi, 0).filters), 2)
            np.testing.assert_array_equal(got, want)

    def test_trial_range_across_two_batch_boundaries_matches_each_trial(self):
        n = SweepEngine(desk_config(n_trials=1)).batch_size
        cfg = desk_config(n_groups=(4, 16), snr_db=(10.0,), n_trials=2 * n + 20)
        assert_trial_block_matches_each_trial(cfg, n - 7, 2 * n + 5)

    def test_trial_outside_the_sweep_rejected(self):
        engine = SweepEngine(desk_config(n_trials=10))
        with pytest.raises(IndexError):
            engine.run_cell_trial(0, 0, 10)


def assert_trial_block_matches_each_trial(cfg: SweepConfig, lo: int, hi: int) -> None:
    """`_trial_block` over trials lo..hi-1 of the whole grid equals a walk over run_cell_trial."""
    snrs = range(len(cfg.snr_db))
    points = _trial_block(SweepEngine(cfg), snrs, lo, hi)
    assert len(points) == len(snrs)
    engine = SweepEngine(cfg)
    for si, cells in zip(snrs, points):
        for gi, (_, theory, got) in enumerate(cells):
            bank = engine.bank(gi, si)
            assert list(theory) == list(bank.filters)
            want = [list(engine.run_cell_trial(gi, si, t)[0].values()) for t in range(lo, hi)]
            np.testing.assert_array_equal(got, np.array(want) / bank.prior_traces)


@pytest.fixture
def threads_made(monkeypatch) -> list[threading.Thread]:
    """Every threading.Thread made while the test runs."""
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Counted)
    return made


class TestOneThread:
    """A sweep draws, samples and scores every batch on the calling thread, and starts none."""

    def test_batches_of_the_whole_grid_match_a_walk_over_each_trial(self, threads_made):
        """From inside block 1 of batch 0 to inside block 8 of the clipped batch 2, at two
        SNR points that score the same draws, bit for bit."""
        cfg = desk_config(n_groups=(4, 16), snr_db=(10.0, 30.0), n_trials=250)
        engine = SweepEngine(cfg)
        assert (engine.block_size, engine.batch_size, engine.chunk_size) == (30, 120, 2)
        assert_trial_block_matches_each_trial(cfg, 45, 245)
        assert threads_made == []

    @pytest.mark.parametrize("make_scenario, block_size", [(desk_scenario, 30), (default_scenario, 1)])
    def test_one_draw_per_block_is_the_channel_then_the_noise_draw(self, make_scenario, block_size):
        """The block's one standard_normal call gives its (B, n_channel) and (n_noise, B) draws."""
        engine = SweepEngine(desk_config(scenario=make_scenario(), n_groups=(4, 16)))
        b, n_channel, n_noise = engine.block_size, engine.sampler.n_normals, noise_size(engine)
        assert b == block_size
        seq = np.random.SeedSequence((4242, 1, 2))
        row = np.random.default_rng(seq).standard_normal(b * (n_channel + n_noise))
        rng = np.random.default_rng(seq)
        channel = rng.standard_normal((b, n_channel))
        noise = rng.standard_normal((n_noise, b))
        np.testing.assert_array_equal(row, np.concatenate([channel.ravel(), noise.ravel()]))

    def test_a_failing_draw_propagates_on_the_main_thread(self, monkeypatch, threads_made):
        class DrawError(Exception):
            pass

        draw_threads = []

        class FailingGenerator:
            def standard_normal(self, out):
                draw_threads.append(threading.current_thread())
                raise DrawError("draw failed")

        cfg = desk_config(snr_db=(10.0, 30.0), n_trials=250)
        trial_rng = SweepEngine.trial_rng

        def failing_after_the_first_batch(engine, trial_index):
            if trial_index < engine.batch_size:
                return trial_rng(engine, trial_index)
            return FailingGenerator()

        monkeypatch.setattr(SweepEngine, "trial_rng", failing_after_the_first_batch)
        with pytest.raises(DrawError, match="draw failed"):
            run_sweep(cfg, workers=1)
        assert draw_threads == [threading.main_thread()]  # the first draw of batch 1 raised
        assert threads_made == []

    def test_no_thread_for_a_sweep_or_for_theory(self, threads_made, tmp_path):
        n = SweepEngine(desk_config(n_trials=1)).batch_size
        rows = run_sweep(desk_config(n_groups=(4, 16), n_trials=2 * n + 1), workers=1)
        assert rows and threads_made == []
        args = ["theory", "--config", str(DESK_INI), "--groups", "4", "16"]
        assert cli.main([*args, "--out", str(tmp_path / "theory.csv")]) == 0
        assert threads_made == []


@pytest.mark.parametrize("n_groups", [4, 16])
def test_bank_assembles_dense_arrays_only_when_read(n_groups):
    scenario = desk_scenario()
    stats = scenario.statistics()
    rho = received_snr_to_power(20.0, stats, scenario.sigma_w2)
    bank = build_cell_bank(stats, scenario.sigma_w2, n_groups, rho, ALL_KINDS)
    filters = [(kind, f) for kind, per_user in bank.filters.items() for f in per_user]
    assert len(filters) == stats.n_users * len(applicable_kinds(ALL_KINDS, n_groups, 16))
    lazy = ("W", "error_blocks", "error_cov")
    for kind, f in filters:
        assert not set(lazy) & set(vars(f)), kind
    for kind, f in filters:
        assert f.W.flags.c_contiguous, kind
    engine = SweepEngine(desk_config(snr_db=(20.0,), n_groups=(n_groups,)))
    engine.run_cell_trial(0, 0, 0)
    for kind, per_user in engine.bank(0, 0).filters.items():
        for f in per_user:
            assert not set(lazy) & set(vars(f)), kind


def test_full_group_count_pairs_share_their_dense_arrays():
    """Each G = N pair of one rule is one estimator, which assembles W, error_blocks and
    error_cov once for both; at G < N every kind has its own."""
    scenario = desk_scenario()
    stats = scenario.statistics()
    rho = received_snr_to_power(20.0, stats, scenario.sigma_w2)
    grouped = build_cell_bank(stats, scenario.sigma_w2, 4, rho, ALL_KINDS).filters
    for k in range(stats.n_users):
        assert len({id(per_user[k]) for per_user in grouped.values()}) == len(grouped)
    filters = build_cell_bank(stats, scenario.sigma_w2, 16, rho, ALL_KINDS).filters
    for k in range(stats.n_users):
        assert len({id(per_user[k]) for per_user in filters.values()}) == len(filters) - 2
    pairs = [
        (EstimatorKind.LMMSE, EstimatorKind.CORRELATED_GROUPING_LMMSE),
        (EstimatorKind.LS, EstimatorKind.GROUPING_LS),
    ]
    for kind_a, kind_c in pairs:
        for a, c in zip(filters[kind_a], filters[kind_c], strict=True):
            assert a is c, kind_c
            assert a.W is c.W, kind_c
            assert c.error_blocks is a.error_blocks, kind_c
            assert a.error_cov is c.error_cov, kind_c


@pytest.mark.parametrize("estimators", [ALL_KINDS, ALL_KINDS[::-1]])
def test_full_group_count_builds_and_scores_one_lmmse_rule(monkeypatch, estimators):
    """At G = N correlated grouping shares LMMSE's rule and grouping LS LS's; each rule is scored once."""
    engine = SweepEngine(desk_config(estimators=estimators, n_groups=(16,), snr_db=(20.0,)))
    filters = engine.bank(0, 0).filters
    lmmse = filters[EstimatorKind.LMMSE]
    correlated = filters[EstimatorKind.CORRELATED_GROUPING_LMMSE]
    for a, b in zip(lmmse, correlated, strict=True):
        assert a is b
        assert b.w_blocks is a.w_blocks
    for a, b in zip(filters[EstimatorKind.LS], filters[EstimatorKind.GROUPING_LS], strict=True):
        assert a is b
        assert not a.degenerate
        assert b.w_blocks is a.w_blocks and b.offset is a.offset
        assert (b.innovation, b.mse_trace, b.nmse) == (a.innovation, a.mse_trace, a.nmse)
    scored = []
    original = AffineEstimator.squared_error

    def counting(self, *args, **kwargs):
        scored.append(id(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AffineEstimator, "squared_error", counting)
    errors, _ = engine.run_cell_trial(0, 0, 0)
    assert len(scored) == (len(ALL_KINDS) - 2) * engine.stats.n_users
    assert len(set(scored)) == len(scored)
    assert np.array_equal(
        errors[EstimatorKind.LMMSE], errors[EstimatorKind.CORRELATED_GROUPING_LMMSE]
    )
    assert np.array_equal(errors[EstimatorKind.LS], errors[EstimatorKind.GROUPING_LS])


MOMENT_FIELDS = ("mean_s", "cov_ss", "mean_y", "cov_sy", "cov_yy", "Z", "Z_G")


@pytest.mark.parametrize(
    "make_scenario, n_groups, snr_db",
    [
        (desk_scenario, (4, 16), tuple(np.arange(-20.0, 281.0, 20.0))),
        (desk_scenario, (4, 16), tuple(np.arange(280.0, -21.0, -20.0))),
        (default_scenario, (16, 64), (-10.0, 20.0, 50.0)),
    ],
    # the first and last keep the ids they had before the descending grid joined them
    ids=["desk_scenario-n_groups0", "desk_scenario-descending", "default_scenario-n_groups1"],
)
def test_engine_derives_the_moments_and_filters_of_a_fresh_build(make_scenario, n_groups, snr_db):
    """Every SNR point's training, moments and filters equal a fresh build's bit for bit.

    The fresh build makes its training config, moment sets and estimators
    anew at each power, so no power-free cache is shared with the engine's.
    Desk runs -20...280 dB in both orders, so the caches filled at the first
    point serve every later point whichever way the grid runs; the reference
    setup, with 65-dimensional blocks, three points.
    """
    scenario = make_scenario()
    cfg = SweepConfig(
        scenario=scenario, estimators=ALL_KINDS, snr_db=snr_db,
        n_trials=1, n_groups=n_groups, base_seed=0,
    )
    engine = SweepEngine(cfg)
    stats = engine.stats
    for gi, g in enumerate(n_groups):
        state = None
        for si, snr in enumerate(cfg.snr_db):
            bank = engine.bank(gi, si)
            state = engine._states[gi] if state is None else state
            rho = received_snr_to_power(snr, stats, scenario.sigma_w2)
            tc = make_training_config(
                stats.n_elements, stats.n_users, n_groups=g, sigma_w2=scenario.sigma_w2,
            )
            assert bank.rho == rho
            assert dataclasses.asdict(bank.tconfig) == dataclasses.asdict(tc)
            for field in ("patterns", "group_patterns", "pilot_matrix"):
                assert np.array_equal(getattr(bank.tconfig, field), getattr(tc, field)), field
            assert np.array_equal(bank.mixing, np.sqrt(rho) * mixing_blocks(stats, tc))
            for k in range(stats.n_users):
                fresh = {i: build_moments(stats, k, tc, block_ideal=i) for i in (False, True)}
                derived = {
                    False: bank.filters[EstimatorKind.GROUPING_LS][k].moments,
                    True: state.model[k],
                }
                for ideal, m in derived.items():
                    for (b, _), (want, _) in zip(m.blocks, fresh[ideal].blocks, strict=True):
                        for field in MOMENT_FIELDS:
                            got_field, want_field = (
                                moment_field(x, field, rho) for x in (b, want)
                            )
                            assert np.array_equal(got_field, want_field), field
                for kind, per_user in bank.filters.items():
                    got = per_user[k]
                    want = make_estimator(kind, fresh[False], rho, fresh[True])
                    assert (got.innovation, got.degenerate) == (want.innovation, want.degenerate)
                    for field in ("mse_trace", "nmse", "nmse_floor"):
                        assert getattr(got, field) == getattr(want, field), (kind, field)
                    pairs = zip(got.w_blocks, want.w_blocks, strict=True)
                    assert all(np.array_equal(a, b) for a, b in pairs), kind
                    trace = np.trace(got.error_cov).real
                    assert got.mse_trace == pytest.approx(trace, rel=1e-12), kind


class TestRunSweep:
    def test_one_row_per_estimator_cell(self):
        cfg = desk_config(n_trials=1, snr_db=(10.0,), n_groups=(4, 16))
        rows = run_sweep(cfg)
        assert len(rows) == len(GROUPED) + len(ALL_KINDS)
        labels = {(r.estimator, r.n_groups) for r in rows}
        assert (EstimatorKind.LMMSE, 16) in labels
        assert (EstimatorKind.LMMSE, 4) not in labels

    def test_aggregation_matches_direct_trial_average(self):
        cfg = desk_config(n_trials=40, snr_db=(10.0,), estimators=GROUPED)
        rows = run_sweep(cfg)
        engine = SweepEngine(cfg)
        prior = engine.bank(0, 0).prior_traces
        samples = []
        for t in range(40):
            errors, _ = engine.run_cell_trial(0, 0, t)
            samples.append(np.mean(errors[EstimatorKind.CORRELATED_GROUPING_LMMSE] / prior))
        samples = np.asarray(samples)
        row = next(
            r for r in rows
            if r.estimator == EstimatorKind.CORRELATED_GROUPING_LMMSE
        )
        assert row.nmse_empirical == pytest.approx(samples.mean(), rel=1e-12)
        assert row.stderr == pytest.approx(samples.std(ddof=1) / np.sqrt(40), rel=1e-12)

    def test_serial_parallel_identical(self):
        cfg = desk_config(n_trials=24, snr_db=(0.0, 30.0), estimators=GROUPED)
        serial = run_sweep(cfg, workers=1)
        two = run_sweep(cfg, workers=2)
        three = run_sweep(cfg, workers=3)
        for a, b in [(serial, two), (serial, three)]:
            for ra, rb in zip(a, b):
                assert ra.estimator == rb.estimator
                assert ra.nmse_empirical == rb.nmse_empirical
                assert ra.stderr == rb.stderr
                assert ra.nmse_theory == rb.nmse_theory

    def test_rows_equal_across_worker_counts_with_two_group_cells(self):
        cfg = desk_config(n_trials=12, snr_db=(0.0, 30.0), n_groups=(4, 16))

        def fields(rows):
            return [dataclasses.asdict(row) for row in rows]

        serial, pooled = run_sweep(cfg, workers=1), run_sweep(cfg, workers=2)
        np.testing.assert_equal(fields(pooled), fields(serial))

    def test_draws_each_realization_once_for_the_whole_grid(self, monkeypatch):
        seeded, sampled = [], []
        trial_rng, sample = SweepEngine.trial_rng, ChannelSampler.sample

        def counting_rng(self, trial_index):
            seeded.append(trial_index // self.block_size)
            return trial_rng(self, trial_index)

        def counting_sample(self, rng=None, normals=None):
            sampled.append(1 if normals is None else int(np.prod(normals.shape[:-1])))
            return sample(self, rng, normals)

        monkeypatch.setattr(SweepEngine, "trial_rng", counting_rng)
        monkeypatch.setattr(ChannelSampler, "sample", counting_sample)
        b = desk_block_size()
        n = SweepEngine(desk_config(n_trials=1)).batch_size
        cfg = desk_config(n_trials=n + b + 7, snr_db=(0.0, 20.0, 40.0), n_groups=(4, 16))
        run_sweep(cfg)
        n_blocks = -(-cfg.n_trials // b)
        # every block is seeded once, every batch sampled with one call and
        # every block's realization drawn once and whole, so every (SNR point,
        # group count) cell reads the same draw
        assert len(seeded) == len(set(seeded)) == n_blocks
        assert len(sampled) == 2
        assert sum(sampled) == n_blocks * b

    def test_a_cells_rows_depend_on_neither_the_other_group_counts_nor_the_trial_count(self):
        b = desk_block_size()
        cfg = desk_config(n_trials=2 * b + 7, snr_db=(10.0,), n_groups=(4,))
        alone = run_sweep(cfg)
        both = run_sweep(dataclasses.replace(cfg, n_groups=(4, 16)))
        beside = [r for r in both if r.n_groups == 4]
        np.testing.assert_equal(
            [dataclasses.asdict(r) for r in beside], [dataclasses.asdict(r) for r in alone]
        )
        # the clipped last block draws whole, so its trials score alike in a shorter sweep
        short = SweepEngine(dataclasses.replace(cfg, n_trials=2 * b + 1))
        long = SweepEngine(cfg)
        for gi, t in ((0, 2 * b), (0, 2 * b - 1)):
            got, want = short.run_cell_trial(gi, 0, t)[0], long.run_cell_trial(gi, 0, t)[0]
            for kind in want:
                np.testing.assert_array_equal(got[kind], want[kind])

    def test_one_failing_filter_is_nan_for_its_own_kind_and_user(self, monkeypatch):
        cfg = desk_config(n_trials=5, snr_db=(10.0,), estimators=GROUPED)
        engine = SweepEngine(cfg)
        failing = engine.bank(0, 0).filters[EstimatorKind.GROUPING_LS][1]
        original = AffineEstimator.squared_error

        def flaky(self, x, target, out=None):
            if self is failing:
                raise NumericalError("injected")
            return original(self, x, target, out)

        monkeypatch.setattr(AffineEstimator, "squared_error", flaky)
        for trial in range(cfg.n_trials):
            errors, _ = engine.run_cell_trial(0, 0, trial)
            assert set(errors) == set(GROUPED)
            for kind, err in errors.items():
                want = [False, kind == EstimatorKind.GROUPING_LS]
                assert np.isnan(err).tolist() == want, kind

    def test_stderr_shrinks_with_sqrt_trials(self):
        cfg_a = desk_config(
            n_trials=400, snr_db=(10.0,), estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE,)
        )
        cfg_b = desk_config(
            n_trials=800, snr_db=(10.0,), estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE,)
        )
        se_a = run_sweep(cfg_a)[0].stderr
        se_b = run_sweep(cfg_b)[0].stderr
        ratio = se_b / se_a
        assert abs(ratio - 1 / np.sqrt(2)) < 0.2 / np.sqrt(2)

    def test_theory_and_floor_attached(self):
        cfg = desk_config(n_trials=2, snr_db=(20.0,), estimators=GROUPED)
        by_kind = {r.estimator: r for r in run_sweep(cfg)}
        cg = by_kind[EstimatorKind.CORRELATED_GROUPING_LMMSE]
        assert 0 < cg.nmse_floor < cg.nmse_theory < 1
        assert np.isnan(by_kind[EstimatorKind.GROUPING_LS].nmse_floor)

    def test_estimator_failure_recorded_not_fatal(self, monkeypatch):
        cfg = desk_config(n_trials=5, snr_db=(10.0,), estimators=GROUPED)
        original = AffineEstimator.squared_error
        grouping_ls = []  # every grouping LS estimator built

        def recording(*args):
            grouping_ls.append(grouping_ls_filter(*args))
            return grouping_ls[-1]

        def flaky(self, y, s_true, out=None):
            if any(self is f for f in grouping_ls):
                raise NumericalError("injected")
            return original(self, y, s_true, out)

        monkeypatch.setattr("riscest.estimators.grouping_ls_filter", recording)
        monkeypatch.setattr(AffineEstimator, "squared_error", flaky)
        by_kind = {r.estimator: r for r in run_sweep(cfg)}
        assert len(grouping_ls) == cfg.scenario.geometry.n_users
        assert np.isnan(by_kind[EstimatorKind.GROUPING_LS].nmse_empirical)
        assert by_kind[EstimatorKind.CORRELATED_GROUPING_LMMSE].nmse_empirical > 0


def test_snr_chunks_change_no_row_and_bound_the_banks(monkeypatch):
    """One point per chunk and the whole grid in one chunk write the same rows, and the
    engine never keeps banks of more points than its chunk holds."""
    cfg = SweepConfig(
        scenario=default_scenario(), estimators=ALL_KINDS, snr_db=(0.0, 20.0, 40.0),
        n_trials=9, n_groups=(16, 64), base_seed=4242,
    )
    assert snr_chunk_size(cfg) == 1  # 3.1 MB of filters per reference point
    held = []  # (chunk size, the SNR points whose banks are kept) after each bank call
    bank = SweepEngine.bank

    def recording(engine, group_index, snr_index):
        result = bank(engine, group_index, snr_index)
        held.append((engine.chunk_size, {si for _, si in engine._banks}))
        return result

    monkeypatch.setattr(SweepEngine, "bank", recording)
    rows = {}
    for budget, chunk_size in ((1, 1), (1 << 40, 3)):
        monkeypatch.setattr("riscest.montecarlo.SNR_CHUNK_BYTES", budget)
        held.clear()
        rows[chunk_size] = [dataclasses.asdict(r) for r in run_sweep(cfg)]
        assert {size for size, _ in held} == {chunk_size}
        assert all(len({si // chunk_size for si in points}) == 1 for _, points in held)
        assert max(len(points) for _, points in held) == chunk_size
    np.testing.assert_equal(rows[1], rows[3])


class TestBankLifetime:
    """The engine is the one owner of cell banks and keeps one SNR chunk's."""

    @staticmethod
    def count_builds(monkeypatch) -> list[int]:
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build_cell_bank(*args, **kwargs)

        monkeypatch.setattr("riscest.montecarlo.build_cell_bank", counting)
        return calls

    def test_bank_dropped_when_the_snr_chunk_changes(self, monkeypatch):
        engine = SweepEngine(desk_config(snr_db=(0.0, 20.0)))
        first = weakref.ref(engine.bank(0, 0))
        assert engine.bank(0, 0) is first()
        engine.bank(0, 1)  # the same chunk
        gc.collect()
        assert engine.bank(0, 0) is first()
        monkeypatch.setattr("riscest.montecarlo.SNR_CHUNK_BYTES", 1)  # one point per chunk
        engine = SweepEngine(desk_config(snr_db=(0.0, 20.0)))
        assert engine.chunk_size == 1
        first = weakref.ref(engine.bank(0, 0))
        engine.bank(0, 1)
        gc.collect()
        assert first() is None

    @pytest.mark.parametrize(
        "estimators, per_user",
        [(None, 2), ((EstimatorKind.GROUPING_LS, EstimatorKind.CORRELATED_GROUPING_LMMSE), 1)],
    )
    def test_theory_walk_builds_moments_once_per_group_count(
        self, monkeypatch, tmp_path, estimators, per_user
    ):
        """2 sets per user and group count with grouping LMMSE (true and block-ideal), else 1."""
        groups = []

        def counting(stats, k, config, block_ideal=False):
            groups.append(config.n_groups)
            return build_moments(stats, k, config, block_ideal=block_ideal)

        monkeypatch.setattr("riscest.montecarlo.build_moments", counting)
        argv = ["theory", "--config", str(DESK_INI), "--groups", "4", "16",
                "--snr-step-db", "5", "--out", str(tmp_path / "theory.csv")]
        if estimators:
            argv += ["--estimators", *(kind.value for kind in estimators)]
        assert cli.main(argv) == 0
        n_users = desk_scenario().geometry.n_users
        assert sorted(groups) == [4] * per_user * n_users + [16] * per_user * n_users

    def test_state_dropped_after_the_last_snr_point(self):
        engine = SweepEngine(desk_config(snr_db=(0.0, 10.0, 20.0), n_groups=(4, 16)))
        engine.bank(0, 0)
        # the state and its block-ideal sets; the true sets live on in the last bank's filters
        state = engine._states[0]
        states = [weakref.ref(x) for x in (state, *state.model)]
        del state
        assert len(states) == 1 + engine.stats.n_users
        engine.bank(0, 1)
        gc.collect()
        assert all(ref() is not None for ref in states)
        assert engine._states[0] is states[0]()
        engine.bank(0, 2)
        gc.collect()
        assert all(ref() is None for ref in states)
        assert engine._states == {}

    def test_one_point_grid_keeps_no_state(self):
        engine = SweepEngine(desk_config(snr_db=(20.0,), n_groups=(4, 16)))
        for gi in range(2):
            engine.bank(gi, 0)
        assert engine._states == {}

    def test_error_covariances_formed_only_when_read(self):
        cfg = desk_config(snr_db=(0.0, 10.0, 20.0), n_groups=(4, 16))
        engine = SweepEngine(cfg)
        filters = []
        for gi in range(len(cfg.n_groups)):
            for si in range(len(cfg.snr_db)):
                filters += [
                    (kind, f) for kind, fs in engine.bank(gi, si).filters.items() for f in fs
                ]
        for kind, f in filters:
            assert "error_blocks" not in vars(f) and "error_cov" not in vars(f), kind
        for kind, f in filters:
            blocks = zip(f.error_blocks, f.moments.blocks, strict=True)
            traces = [mult * np.trace(c).real for c, (_, mult) in blocks]
            assert sum(traces) == pytest.approx(f.mse_trace, rel=1e-12), kind
            assert np.trace(f.error_cov).real == pytest.approx(f.mse_trace, rel=1e-12), kind

    def test_serial_sweep_builds_each_cell_once(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        cfg = desk_config(n_trials=3, snr_db=(0.0, 10.0, 20.0), n_groups=(4, 16))
        run_sweep(cfg, workers=1)
        assert len(calls) == len(cfg.n_groups) * len(cfg.snr_db)

    def test_pooled_sweep_builds_no_bank_in_the_parent(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        run_sweep(desk_config(n_trials=3, n_groups=(4, 16)), workers=2)
        assert calls == []

    def test_engine_keeps_one_trial_block(self):
        """One scoring batch is kept and dropped on the next batch; each group count keeps
        the scores of the SNR point it ran last on it."""
        n = SweepEngine(desk_config(n_trials=1)).batch_size
        engine = SweepEngine(desk_config(n_groups=(4, 16), n_trials=2 * n))
        for gi in range(2):
            engine.run_cell_trial(gi, 0, 0)
        batch = engine._batch
        assert batch.index == 0 and set(batch.cells) == {0, 1}
        assert batch.normals.shape[:2] == (n // engine.block_size, engine.block_size)
        kept = [weakref.ref(a) for a in (batch, batch.normals, batch.realization.S, batch.targets)]
        kept += [weakref.ref(a) for cell in batch.cells.values() for a in cell[1:]]
        del batch
        engine.run_cell_trial(0, 0, n)  # the next batch of the same SNR point
        gc.collect()
        assert all(ref() is None for ref in kept)
        assert engine._batch.index == 1 and set(engine._batch.cells) == {0}
        kept = weakref.ref(engine._batch)
        engine.run_cell_trial(1, 1, n - 1)  # the first batch again, at the next SNR point
        gc.collect()
        assert kept() is None
        batch = engine._batch
        assert batch.index == 0 and [(gi, c[0]) for gi, c in batch.cells.items()] == [(1, 1)]
        errors = batch.cells[1][1]
        engine.run_cell_trial(1, 0, n - 1)  # the same group count at another point on it
        assert engine._batch is batch and batch.cells[1][0] == 0 and batch.cells[1][1] is not errors
