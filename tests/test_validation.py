import io

import numpy as np

from riscest import validation
from riscest.channel import ChannelSampler
from riscest.cli import cmd_validate
from riscest.scenario import desk_scenario
from riscest.validation import CheckResult


# one identifier per invariant stated in the module contracts
EXPECTED_CHECKS = {
    "channel.correlation[R0]",
    "channel.correlation[R1]",
    "channel.correlation[R2]",
    "channel.unit_modulus[g_bar]",
    "channel.unit_modulus[a_bar]",
    "channel.path_loss_monotone",
    "channel.sampling_deterministic",
    "channel.sample_mean_matches",
    "training.hadamard_gram",
    "training.pilot_gram",
    "training.pattern_gram",
    "training.observation_reconstruction",
    "training.grouped_degenerate_bitexact",
    "training.interuser_leakage",
    "moments.cov_hermitian_psd",
    "moments.aggregation_quadratic_form",
    "moments.sample_covariance_matches",
    "estimators.theory_monotone_in_power",
    "estimators.correlated_below_grouping",
    "estimators.collapse_ungrouped",
    "estimators.power_floor",
    "estimators.empirical_matches_theory",
    "estimators.lmmse_dominates_ls",
    "estimators.unbiased_mean",
    "montecarlo.order_independent",
    "montecarlo.paired_trials_reproducible",
    "montecarlo.stderr_scaling",
    "cli.csv_roundtrip_17_digits",
    "cli.config_hash_logged",
    "1-moment-oracle",
    "2-theory-vs-empirical",
    "3-collapse-identity",
    "4-ordering",
    "5-power-floor",
    "6-lmmse-dominance",
    "7-protocol-invariants",
    "8-determinism",
    "9-overhead-accounting",
}


def test_fresh_build_passes_every_check(validation_results):
    failed = [r.name for r in validation_results if not r.passed]
    assert not failed, f"failed checks: {failed}"


def test_report_covers_every_stated_invariant(validation_results):
    names = {r.name for r in validation_results}
    assert names == EXPECTED_CHECKS


def test_cmd_validate_exit_codes(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(
        "riscest.validation.run_validation",
        lambda: [CheckResult("x.good", True, "ok"), CheckResult("y.bad", False, "boom")],
    )
    assert cmd_validate(out=out) == 1
    text = out.getvalue()
    assert "x.good" in text and "PASS" in text
    assert "y.bad" in text and "FAIL" in text and "boom" in text

    out = io.StringIO()
    monkeypatch.setattr(
        "riscest.validation.run_validation", lambda: [CheckResult("x.good", True, "ok")]
    )
    assert cmd_validate(out=out) == 0


def test_moment_oracle_draws_through_the_production_sampler(monkeypatch):
    """Criterion 1's oracle takes every draw from ChannelSampler.sample, the trials' sampler."""
    rows = []
    sample = ChannelSampler.sample

    def counted(self, rng=None, normals=None):
        real = sample(self, rng, normals)
        rows.append(int(np.prod(real.s.shape[:-2])))
        return real

    monkeypatch.setattr(ChannelSampler, "sample", counted)
    monkeypatch.setattr(validation, "ORACLE_DRAWS", 20_000)
    mean_dev, cov_dev, _ = validation._cascade_oracle(desk_scenario().statistics())
    assert sum(rows) == 20_000
    assert np.isfinite(mean_dev) and np.isfinite(cov_dev)
