import numpy as np
import pytest

from riscest.errors import ConfigurationError, NumericalError
from riscest.estimators import AffineEstimator, EstimatorKind
from riscest.montecarlo import (
    SweepConfig,
    SweepEngine,
    applicable_kinds,
    received_snr_to_power,
    resolve_workers,
    run_sweep,
)
from riscest.scenario import desk_scenario


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

    def test_estimator_coercion(self):
        cfg = desk_config(estimators=("lmmse", "ls"))
        assert cfg.estimators == (EstimatorKind.LMMSE, EstimatorKind.LS)

    def test_applicability(self):
        assert applicable_kinds(ALL_KINDS, 4, 16) == GROUPED
        assert applicable_kinds(ALL_KINDS, 16, 16) == ALL_KINDS

    def test_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("RISCEST_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv("RISCEST_WORKERS")
        assert resolve_workers(None) == 1


class TestSnrMapping:
    def test_power_scales_linearly_with_snr(self):
        scenario = desk_scenario()
        r0 = received_snr_to_power(0.0, scenario)
        r10 = received_snr_to_power(10.0, scenario)
        assert r10 / r0 == pytest.approx(10.0, rel=1e-12)

    def test_definition(self):
        scenario = desk_scenario()
        stats = scenario.statistics()
        gain = stats.n_users * stats.n_elements * stats.rho_a * np.mean(stats.rho_g)
        assert received_snr_to_power(0.0, scenario) == pytest.approx(
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
        monkeypatch.setattr("riscest.montecarlo.received_snr_to_power", lambda snr, scenario: 1.0)
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

    def test_trial_errors_are_per_user(self):
        cfg = desk_config()
        errors, _ = SweepEngine(cfg).run_cell_trial(0, 0, 0, digest=True)
        for err in errors.values():
            assert err.shape == (2,)
            assert np.all(err >= 0)


class TestRunSweep:
    def test_one_row_per_estimator_cell(self):
        cfg = desk_config(n_trials=1, snr_db=(10.0,), n_groups=(4, 16))
        report = run_sweep(cfg)
        assert len(report.rows) == len(GROUPED) + len(ALL_KINDS)
        labels = {(r.estimator, r.n_groups) for r in report.rows}
        assert (EstimatorKind.LMMSE, 16) in labels
        assert (EstimatorKind.LMMSE, 4) not in labels

    def test_aggregation_matches_direct_trial_average(self):
        cfg = desk_config(n_trials=40, snr_db=(10.0,), estimators=GROUPED)
        report = run_sweep(cfg)
        engine = SweepEngine(cfg)
        prior = engine.bank(0, 0).prior_traces
        samples = []
        for t in range(40):
            errors, _ = engine.run_cell_trial(0, 0, t)
            samples.append(np.mean(errors[EstimatorKind.CORRELATED_GROUPING_LMMSE] / prior))
        samples = np.asarray(samples)
        row = next(
            r for r in report.rows
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
            for ra, rb in zip(a.rows, b.rows):
                assert ra.estimator == rb.estimator
                assert ra.nmse_empirical == rb.nmse_empirical
                assert ra.stderr == rb.stderr
                assert ra.nmse_theory == rb.nmse_theory

    def test_stderr_shrinks_with_sqrt_trials(self):
        cfg_a = desk_config(
            n_trials=400, snr_db=(10.0,), estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE,)
        )
        cfg_b = desk_config(
            n_trials=800, snr_db=(10.0,), estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE,)
        )
        se_a = run_sweep(cfg_a).rows[0].stderr
        se_b = run_sweep(cfg_b).rows[0].stderr
        ratio = se_b / se_a
        assert abs(ratio - 1 / np.sqrt(2)) < 0.2 / np.sqrt(2)

    def test_theory_and_floor_attached(self):
        cfg = desk_config(n_trials=2, snr_db=(20.0,), estimators=GROUPED)
        report = run_sweep(cfg)
        by_kind = {r.estimator: r for r in report.rows}
        cg = by_kind[EstimatorKind.CORRELATED_GROUPING_LMMSE]
        assert 0 < cg.nmse_floor < cg.nmse_theory < 1
        assert np.isnan(by_kind[EstimatorKind.GROUPING_LS].nmse_floor)

    def test_estimator_failure_recorded_not_fatal(self, monkeypatch):
        cfg = desk_config(n_trials=5, snr_db=(10.0,), estimators=GROUPED)
        original = AffineEstimator.squared_error

        def flaky(self, y, s_true):
            if self.kind == EstimatorKind.GROUPING_LS:
                raise NumericalError("injected")
            return original(self, y, s_true)

        monkeypatch.setattr(AffineEstimator, "squared_error", flaky)
        report = run_sweep(cfg)
        by_kind = {r.estimator: r for r in report.rows}
        assert by_kind[EstimatorKind.GROUPING_LS].failures == 5
        assert np.isnan(by_kind[EstimatorKind.GROUPING_LS].nmse_empirical)
        assert by_kind[EstimatorKind.CORRELATED_GROUPING_LMMSE].failures == 0
        assert by_kind[EstimatorKind.CORRELATED_GROUPING_LMMSE].nmse_empirical > 0

    def test_per_user_breakdown_available(self):
        cfg = desk_config(n_trials=3, snr_db=(10.0,), estimators=GROUPED)
        report = run_sweep(cfg)
        for row in report.rows:
            assert len(row.nmse_per_user) == 2
