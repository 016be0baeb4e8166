"""Named invariant checks across all modules, runnable as a release gate.

Each check returns a CheckResult with a stable identifier so reports can be
diffed across builds.  Checks take explicit artifacts where that makes fault
injection possible in tests; run_validation wires them to a scaled-down
scenario that keeps the whole suite within a couple of minutes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, ChannelSampler, ChannelStatistics, path_loss
from .errors import NumericalError
from .estimators import (
    EstimatorKind,
    conventional_lmmse_filter,
    conventional_ls_filter,
    correlated_grouping_filter,
    grouping_lmmse_filter,
    grouping_ls_filter,
)
from .moments import build_moments, cov_ss, group_aggregation_matrix, mean_s
from .montecarlo import SweepConfig, SweepEngine, received_snr_to_power, run_sweep
from .scenario import Scenario, desk_scenario
from .training import (
    build_Z,
    hadamard,
    make_training_config,
    pilot_sequences,
    synthesize_received,
    training_patterns,
)


ORACLE_DRAWS = 200_000  # seeded cascade draws behind the sample-moment checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_correlation_matrix(matrix: np.ndarray, name: str = "R") -> CheckResult:
    """Hermitian, unit diagonal, eigenvalues >= -1e-10 and entries in [-1, 1]."""
    problems = []
    if not np.allclose(matrix, matrix.conj().T, atol=1e-12):
        problems.append("not Hermitian")
    if not np.allclose(np.diagonal(matrix).real, 1.0, atol=1e-12):
        problems.append("diagonal differs from one")
    if np.max(np.abs(matrix)) > 1.0 + 1e-12:
        problems.append("entry magnitude exceeds one")
    min_eig = float(np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T)).min())
    if min_eig < -1e-10:
        problems.append(f"min eigenvalue {min_eig:.2e} below -1e-10")
    return CheckResult(
        f"channel.correlation[{name}]", not problems,
        "; ".join(problems) if problems else f"min eigenvalue {min_eig:.2e}",
    )


def check_unit_modulus(vectors: np.ndarray, name: str, tol: float = 1e-12) -> CheckResult:
    dev = float(np.max(np.abs(np.abs(vectors) - 1.0)))
    return CheckResult(f"channel.unit_modulus[{name}]", dev <= tol, f"max deviation {dev:.2e}")


def _sample_cascade_moments(stats: ChannelStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of the first user's cascaded target, from seeded draws.

    One draw serves as the oracle for both the channel mean and the moment
    covariance checks.
    """
    sampler = ChannelSampler(stats)
    rng = np.random.default_rng(19)
    chunk = 40_000
    dim = stats.m_antennas * (stats.n_elements + 1)
    acc_mu = np.zeros(dim, complex)
    acc_cov = np.zeros((dim, dim), complex)
    for _ in range(ORACLE_DRAWS // chunk):
        s = sampler.sample_cascade(0, chunk, rng)
        acc_mu += s.sum(axis=0)
        acc_cov += s.T @ s.conj()
    mu_hat = acc_mu / ORACLE_DRAWS
    return mu_hat, acc_cov / ORACLE_DRAWS - np.outer(mu_hat, mu_hat.conj())


def _scenario_checks(
    scenario: Scenario, oracle: tuple[np.ndarray, np.ndarray]
) -> list[CheckResult]:
    stats = scenario.statistics()
    out = [check_correlation_matrix(stats.R0, "R0")]
    for k in range(stats.n_users):
        out.append(check_correlation_matrix(stats.R[k], f"R{k + 1}"))
    out.append(check_unit_modulus(stats.g_bar, "g_bar"))
    out.append(check_unit_modulus(stats.a_bar, "a_bar"))

    distances = [1.0, 2.0, 5.0, 10.0, 100.0, 1e4]
    gains = [path_loss(d, 2.5, 1e-3) for d in distances]
    monotone = all(a > b for a, b in zip(gains, gains[1:]))
    out.append(CheckResult("channel.path_loss_monotone", monotone, f"{len(distances)} distances"))

    sampler = ChannelSampler(stats)
    r1 = sampler.sample(np.random.default_rng(123))
    r2 = sampler.sample(np.random.default_rng(123))
    same = all(
        np.array_equal(getattr(r1, f), getattr(r2, f)) for f in ("b", "g", "A", "s")
    )
    out.append(CheckResult("channel.sampling_deterministic", same, "seed 123 replayed"))

    mu_hat, _ = oracle
    mu = mean_s(stats, 0)
    dev = float(np.abs(mu_hat - mu).max() / np.abs(mu).max())
    out.append(
        CheckResult(
            "channel.sample_mean_matches", dev < 0.05,
            f"max deviation {dev:.3f} of largest mean entry at {ORACLE_DRAWS} draws",
        )
    )
    return out


def _training_checks(scenario: Scenario) -> list[CheckResult]:
    out = []
    for order in (1, 2, 4, 8, 16):
        h = hadamard(order)
        if not np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64)):
            out.append(CheckResult("training.hadamard_gram", False, f"order {order}"))
            break
    else:
        out.append(CheckResult("training.hadamard_gram", True, "orders 1..16 exact"))

    worst = 0.0
    for k in range(1, 65):
        phi = pilot_sequences(k)
        worst = max(worst, float(np.max(np.abs(phi @ phi.conj().T - k * np.eye(k)))))
    out.append(CheckResult("training.pilot_gram", worst < 1e-10, f"max gram deviation {worst:.2e}"))

    ok = True
    for n_groups, n_patterns in [(3, 4), (7, 8), (15, 16)]:
        _, group_patterns = training_patterns(n_groups * 2, n_groups, n_patterns)
        stacked = np.hstack([np.ones((n_patterns, 1)), group_patterns])
        gram = stacked.conj().T @ stacked
        ok = ok and np.array_equal(gram, n_patterns * np.eye(n_groups + 1))
    out.append(CheckResult("training.pattern_gram", ok, "power-of-two row sets exact"))

    stats = scenario.statistics()
    n, k_users = stats.n_elements, stats.n_users
    rho = received_snr_to_power(20.0, scenario)
    tc = make_training_config(n, k_users, n_groups=n // 4, rho=rho, sigma_w2=scenario.sigma_w2)
    sampler = ChannelSampler(stats)
    rng = np.random.default_rng(3)
    real = sampler.sample(rng)
    obs = synthesize_received(real, stats, tc, rng)
    worst = 0.0
    for k in range(k_users):
        # reconstruct through the combined linear model with the recorded noise
        w_comb = np.einsum("tim,ki->ktm", obs.noise_raw, tc.pilot_matrix.conj())[k].reshape(-1)
        model = np.sqrt(tc.rho[k]) * (obs.Z[k] @ real.s[k]) + w_comb
        worst = max(
            worst,
            float(
                np.linalg.norm(obs.y_combined[k] - model) / np.linalg.norm(obs.y_combined[k])
            ),
        )
    out.append(
        CheckResult("training.observation_reconstruction", worst < 1e-10, f"max rel {worst:.2e}")
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tc_full = make_training_config(n, k_users, n_groups=n, rho=rho, sigma_w2=scenario.sigma_w2)
    same = np.array_equal(tc_full.patterns, tc_full.group_patterns)
    z_a = build_Z(0, stats, tc_full)
    z_b = build_Z(0, stats, tc_full, grouped=True)
    same = same and np.array_equal(z_a, z_b)
    out.append(CheckResult("training.grouped_degenerate_bitexact", bool(same), "n_groups = N"))

    # noiseless two-user synthesis: user 2 must not leak into user 1
    tc0 = make_training_config(n, k_users, n_groups=n // 4, rho=rho, sigma_w2=0.0)
    real0 = sampler.sample(np.random.default_rng(4))
    s_masked = real0.s.copy()
    s_masked[0] = 0.0
    masked = ChannelRealization(b=real0.b, g=real0.g, A=real0.A, s=s_masked)
    obs0 = synthesize_received(masked, stats, tc0, np.random.default_rng(5))
    leak = float(
        np.linalg.norm(obs0.y_combined[0])
        / max(np.linalg.norm(obs0.y_combined[1]), 1e-300)
    )
    out.append(CheckResult("training.interuser_leakage", leak < 1e-10, f"relative leak {leak:.2e}"))
    return out


def _moment_checks(
    scenario: Scenario, oracle: tuple[np.ndarray, np.ndarray]
) -> list[CheckResult]:
    out = []
    stats = scenario.statistics()
    rho = received_snr_to_power(10.0, scenario)
    tc = make_training_config(
        stats.n_elements, stats.n_users, n_groups=stats.n_elements // 4,
        rho=rho, sigma_w2=scenario.sigma_w2,
    )
    m = build_moments(stats, 0, tc)
    herm = float(np.max(np.abs(m.cov_ss - m.cov_ss.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (m.cov_ss + m.cov_ss.conj().T)).min())
    min_eig_u = float(np.linalg.eigvalsh(0.5 * (m.cov_uu + m.cov_uu.conj().T)).min())
    ok = herm < 1e-12 and min_eig > -1e-8 and min_eig_u > -1e-8
    out.append(
        CheckResult(
            "moments.cov_hermitian_psd", ok,
            f"hermitian dev {herm:.2e}, min eig {min_eig:.2e}/{min_eig_u:.2e}",
        )
    )

    p = group_aggregation_matrix(stats.m_antennas, tc.groups, stats.n_elements)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(m.cov_uu.shape[0]) + 1j * rng.standard_normal(m.cov_uu.shape[0])
        lhs = np.vdot(v, m.cov_uu @ v).real
        w = p.T @ v
        rhs = np.vdot(w, m.cov_ss @ w).real
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    out.append(CheckResult("moments.aggregation_quadratic_form", worst < 1e-10, f"max rel {worst:.2e}"))

    _, cov_hat = oracle
    c_true = cov_ss(stats, 0)
    dev = float(np.abs(cov_hat - c_true).max() / np.abs(c_true).max())
    out.append(
        CheckResult(
            "moments.sample_covariance_matches", dev < 0.05,
            f"max deviation {dev:.4f} of largest entry at {ORACLE_DRAWS} draws",
        )
    )
    return out


def _estimator_checks(scenario: Scenario) -> list[CheckResult]:
    out = []
    stats = scenario.statistics()
    n, k_users = stats.n_elements, stats.n_users
    n_groups = n // 4

    def _filters(rho, grouped=True):
        tc = make_training_config(
            n, k_users, n_groups=n_groups if grouped else n,
            rho=rho, sigma_w2=scenario.sigma_w2,
        )
        m = build_moments(stats, 0, tc)
        mi = build_moments(stats, 0, tc, block_ideal=True)
        return m, mi

    # monotone theory curve over a log-spaced power sweep
    rho_grid = np.geomspace(1e-4, 1e8, 20) * received_snr_to_power(0.0, scenario)
    ok, detail = True, ""
    curves = {kind: [] for kind in EstimatorKind}
    for rho in rho_grid:
        m, mi = _filters(rho)
        curves[EstimatorKind.CORRELATED_GROUPING_LMMSE].append(correlated_grouping_filter(m).nmse)
        curves[EstimatorKind.GROUPING_LMMSE].append(grouping_lmmse_filter(m, mi).nmse)
        m_full, _ = _filters(rho, grouped=False)
        curves[EstimatorKind.LMMSE].append(conventional_lmmse_filter(m_full).nmse)
    for kind in (EstimatorKind.LMMSE, EstimatorKind.GROUPING_LMMSE,
                 EstimatorKind.CORRELATED_GROUPING_LMMSE):
        c = curves[kind]
        if any(b > a + 1e-10 for a, b in zip(c, c[1:])):
            ok, detail = False, f"{kind.value} not monotone"
            break
    out.append(CheckResult("estimators.theory_monotone_in_power", ok, detail or "20-point sweep"))

    # ordering and collapse at one moderate power
    rho = received_snr_to_power(30.0, scenario)
    m, mi = _filters(rho)
    cg = correlated_grouping_filter(m)
    soa = grouping_lmmse_filter(m, mi)
    out.append(
        CheckResult(
            "estimators.correlated_below_grouping", cg.nmse <= soa.nmse * (1 + 1e-12),
            f"{cg.nmse:.4g} <= {soa.nmse:.4g}",
        )
    )
    m_full, _ = _filters(rho, grouped=False)
    a = conventional_lmmse_filter(m_full)
    b = correlated_grouping_filter(m_full)
    rel = abs(a.nmse - b.nmse) / a.nmse
    out.append(CheckResult("estimators.collapse_ungrouped", rel < 1e-8, f"rel diff {rel:.2e}"))

    m_hi, _ = _filters(rho * 1e12)
    cg_hi = correlated_grouping_filter(m_hi)
    rel = abs(cg_hi.nmse - cg_hi.nmse_floor) / cg_hi.nmse_floor
    m_full_hi, _ = _filters(rho * 1e12, grouped=False)
    conv_hi = conventional_lmmse_filter(m_full_hi)
    out.append(
        CheckResult(
            "estimators.power_floor", rel < 0.01 and conv_hi.nmse < 1e-6,
            f"floor rel {rel:.2e}, ungrouped nmse {conv_hi.nmse:.2e}",
        )
    )

    # paired empirical-versus-theory and LS-versus-LMMSE dominance
    cfg = SweepConfig(
        scenario=scenario,
        estimators=tuple(EstimatorKind),
        snr_db=(0.0, 20.0, 40.0),
        n_trials=5000,
        n_groups=(n_groups, n),
        base_seed=90210,
    )
    report = run_sweep(cfg)
    worst = 0.0
    dominance = True
    by_cell = {}
    for r in report.rows:
        by_cell[(r.estimator, r.n_groups, r.snr_db)] = r
        if r.estimator in (EstimatorKind.LMMSE, EstimatorKind.CORRELATED_GROUPING_LMMSE):
            worst = max(worst, abs(r.nmse_empirical - r.nmse_theory) / r.nmse_theory)
    for (_, n_g, snr), r in by_cell.items():
        if r.estimator == EstimatorKind.LMMSE:
            if r.nmse_empirical > by_cell[(EstimatorKind.LS, n_g, snr)].nmse_empirical:
                dominance = False
        if r.estimator == EstimatorKind.CORRELATED_GROUPING_LMMSE:
            if r.nmse_empirical > by_cell[(EstimatorKind.GROUPING_LS, n_g, snr)].nmse_empirical:
                dominance = False
    out.append(
        CheckResult(
            "estimators.empirical_matches_theory", worst < 0.05,
            f"worst rel deviation {worst:.3f} at 5000 trials",
        )
    )
    out.append(CheckResult("estimators.lmmse_dominates_ls", dominance, "paired trials"))

    # unbiasedness of the estimate mean over many trials
    rng = np.random.default_rng(11)
    tc = make_training_config(n, k_users, n_groups=n_groups, rho=rho, sigma_w2=scenario.sigma_w2)
    m = build_moments(stats, 0, tc)
    cg_f = correlated_grouping_filter(m)
    sampler = ChannelSampler(stats)
    n_trials = 10_000
    acc = np.zeros(m.mean_s.size, complex)
    for _ in range(n_trials):
        real = sampler.sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        acc += cg_f.estimate(obs.y_combined[0]).s_hat - real.s[0]
    mean_err = acc / n_trials
    # 3 standard errors of the estimator error norm, err entries ~ error covariance
    se = np.sqrt(np.diagonal(cg_f.error_cov).real.sum() / n_trials)
    ok = np.linalg.norm(mean_err) < 3 * se
    out.append(
        CheckResult(
            "estimators.unbiased_mean", bool(ok),
            f"|mean error| {np.linalg.norm(mean_err):.2e} < 3 SE {3 * se:.2e}",
        )
    )
    return out


def _montecarlo_checks(scenario: Scenario) -> list[CheckResult]:
    out = []
    cfg = SweepConfig(
        scenario=scenario,
        estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE, EstimatorKind.GROUPING_LMMSE),
        snr_db=(10.0, 30.0),
        n_trials=50,
        n_groups=(scenario.geometry.n_elements // 4,),
        base_seed=555,
    )
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=2)
    same = all(
        a.nmse_empirical == b.nmse_empirical and a.stderr == b.stderr
        for a, b in zip(serial.rows, parallel.rows)
    )
    out.append(CheckResult("montecarlo.order_independent", same, "1 vs 2 workers"))

    errors_1, digest_1 = SweepEngine(cfg).run_cell_trial(0, 0, 7, digest=True)
    errors_2, digest_2 = SweepEngine(cfg).run_cell_trial(0, 0, 7, digest=True)
    same = digest_1 == digest_2 and all(
        np.array_equal(errors_1[k], errors_2[k]) for k in errors_1
    )
    out.append(CheckResult("montecarlo.paired_trials_reproducible", same, "digest equality"))

    cfg_half = SweepConfig(
        scenario=scenario, estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE,),
        snr_db=(10.0,), n_trials=400, n_groups=(scenario.geometry.n_elements // 4,),
        base_seed=555,
    )
    cfg_full = SweepConfig(
        scenario=scenario, estimators=(EstimatorKind.CORRELATED_GROUPING_LMMSE,),
        snr_db=(10.0,), n_trials=800, n_groups=(scenario.geometry.n_elements // 4,),
        base_seed=555,
    )
    se_half = run_sweep(cfg_half).rows[0].stderr
    se_full = run_sweep(cfg_full).rows[0].stderr
    ratio = se_full / se_half
    ok = abs(ratio - 1 / np.sqrt(2)) < 0.2 / np.sqrt(2)
    out.append(
        CheckResult("montecarlo.stderr_scaling", bool(ok), f"ratio {ratio:.3f} vs 0.707")
    )
    return out


def _cli_checks() -> list[CheckResult]:
    import os
    import tempfile

    from .cli import read_csv, write_csv
    from .scenario import config_digest, load_config

    out = []
    value = 0.12345678901234567
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        path = fh.name
    try:
        write_csv(path, ["estimator", "n_groups", "snr_db"], [["lmmse", 4, value]],
                  comments=["config_hash=deadbeefdeadbeef"])
        header, rows = read_csv(path)
        ok = rows[0]["snr_db"] == value and header == ["estimator", "n_groups", "snr_db"]
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
    finally:
        os.unlink(path)
    out.append(CheckResult("cli.csv_roundtrip_17_digits", ok, f"value {value!r} preserved"))
    out.append(
        CheckResult(
            "cli.config_hash_logged",
            first.startswith("# config_hash=") and len(config_digest(load_config(None))) == 16,
            "leading provenance comment",
        )
    )
    return out


def run_validation(scenario: Scenario | None = None) -> list[CheckResult]:
    """Run the full invariant suite on a scaled-down scenario."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scenario = scenario or desk_scenario()
        oracle = _sample_cascade_moments(scenario.statistics())
        results = []
        results += _scenario_checks(scenario, oracle)
        results += _training_checks(scenario)
        results += _moment_checks(scenario, oracle)
        results += _estimator_checks(scenario)
        results += _montecarlo_checks(scenario)
        results += _cli_checks()
    return results
