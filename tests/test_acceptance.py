"""Acceptance gate: every criterion at its stated tolerance, one line each.

Scale used throughout: M = 4, N = 4x4 = 16, K = 2, n_groups = 4, eta = 0.99,
blocked direct links, 5000 paired trials, 6-point received-SNR sweep.  Run
with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import time

import numpy as np
import pytest

from riscest.channel import ChannelRealization, ChannelSampler
from riscest.estimators import (
    EstimatorKind,
    asymptotic_mse,
    conventional_lmmse_filter,
    correlated_grouping_filter,
    make_estimator,
)
from riscest.moments import build_moments, cov_ss, mean_s
from riscest.montecarlo import SweepConfig, received_snr_to_power, run_sweep
from riscest.scenario import desk_scenario, load_config
from riscest.training import (
    hadamard,
    make_training_config,
    pilot_overhead,
    pilot_sequences,
    synthesize_received,
)
from riscest.cli import main as cli_main


SNR_POINTS = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
N_TRIALS = 5000


def record(name: str, passed: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk():
    scenario = desk_scenario()
    return scenario, scenario.statistics()


@pytest.fixture(scope="module")
def paired_sweep(desk):
    """One 5000-trial paired sweep shared by the empirical criteria."""
    scenario, stats = desk
    cfg = SweepConfig(
        scenario=scenario,
        estimators=tuple(EstimatorKind),
        snr_db=SNR_POINTS,
        n_trials=N_TRIALS,
        n_groups=(4, 16),
        base_seed=20240717,
    )
    start = time.perf_counter()
    report = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    rows = {(r.estimator, r.n_groups, r.snr_db): r for r in report.rows}
    return rows, elapsed


def test_criterion_1_moment_oracle(desk):
    scenario, stats = desk
    start = time.perf_counter()
    sampler = ChannelSampler(stats)
    rng = np.random.default_rng(19)
    n_draws, chunk = 200_000, 40_000
    dim = stats.m_antennas * (stats.n_elements + 1)
    acc_mu = np.zeros(dim, complex)
    acc_cov = np.zeros((dim, dim), complex)
    for _ in range(n_draws // chunk):
        s = sampler.sample_cascade(0, chunk, rng)
        acc_mu += s.sum(axis=0)
        acc_cov += s.T @ s.conj()
    mu_hat = acc_mu / n_draws
    cov_hat = acc_cov / n_draws - np.outer(mu_hat, mu_hat.conj())
    elapsed = time.perf_counter() - start

    mu = mean_s(stats, 0)
    c = cov_ss(stats, 0)
    mean_dev = float(np.abs(mu_hat - mu).max() / np.abs(mu).max())
    cov_dev = float(np.abs(cov_hat - c).max() / np.abs(c).max())
    record(
        "1-moment-oracle",
        mean_dev < 0.05 and cov_dev < 0.05 and elapsed < 30.0,
        f"mean dev {mean_dev:.4f}, cov dev {cov_dev:.4f}, {elapsed:.1f}s at {n_draws} draws",
    )


def test_criterion_2_theory_vs_empirical(paired_sweep):
    rows, elapsed = paired_sweep
    worst = 0.0
    for snr in SNR_POINTS:
        for kind, n_groups in [
            (EstimatorKind.LMMSE, 16),
            (EstimatorKind.CORRELATED_GROUPING_LMMSE, 4),
        ]:
            r = rows[(kind, n_groups, snr)]
            worst = max(worst, abs(r.nmse_empirical - r.nmse_theory) / r.nmse_theory)
    record(
        "2-theory-vs-empirical",
        worst < 0.05 and elapsed < 60.0,
        f"worst rel dev {worst:.4f} over {len(SNR_POINTS)} SNR points, "
        f"{N_TRIALS} trials in {elapsed:.1f}s",
    )


def test_criterion_3_collapse_identity(desk):
    scenario, stats = desk
    rho = received_snr_to_power(20.0, scenario)
    tc = make_training_config(16, 2, n_groups=16, rho=rho, sigma_w2=scenario.sigma_w2)
    worst_est, worst_trace = 0.0, 0.0
    rng = np.random.default_rng(33)
    for k in range(stats.n_users):
        m = build_moments(stats, k, tc)
        conv = conventional_lmmse_filter(m)
        corr = correlated_grouping_filter(m)
        worst_trace = max(worst_trace, abs(conv.mse_trace - corr.mse_trace) / conv.mse_trace)
        real = ChannelSampler(stats).sample(rng)
        obs = synthesize_received(real, stats, tc, rng)
        a = conv.estimate(obs.y_combined[k]).s_hat
        b = corr.estimate(obs.y_combined[k]).s_hat
        worst_est = max(worst_est, float(np.linalg.norm(a - b) / np.linalg.norm(a)))
    record(
        "3-collapse-identity",
        worst_est < 1e-8 and worst_trace < 1e-8,
        f"estimate rel {worst_est:.2e}, trace rel {worst_trace:.2e}",
    )


def test_criterion_4_ordering(desk, paired_sweep):
    scenario, stats = desk
    rows, _ = paired_sweep
    ok = True
    detail = []
    for snr in SNR_POINTS:
        cg = rows[(EstimatorKind.CORRELATED_GROUPING_LMMSE, 4, snr)]
        soa = rows[(EstimatorKind.GROUPING_LMMSE, 4, snr)]
        if cg.nmse_theory > soa.nmse_theory * (1 + 1e-12):
            ok = False
            detail.append(f"theory violated at {snr} dB")
        if cg.nmse_empirical > soa.nmse_empirical * (1 + 1e-12):
            ok = False
            detail.append(f"empirical violated at {snr} dB")
    top = SNR_POINTS[-1]
    cg = rows[(EstimatorKind.CORRELATED_GROUPING_LMMSE, 4, top)]
    soa = rows[(EstimatorKind.GROUPING_LMMSE, 4, top)]
    sep_theory = (soa.nmse_theory - cg.nmse_theory) / soa.nmse_theory
    sep_emp = (soa.nmse_empirical - cg.nmse_empirical) / soa.nmse_empirical
    if sep_theory < 0.10 or sep_emp < 0.10:
        ok = False
        detail.append("separation below 10% at top SNR")
    record(
        "4-ordering",
        ok,
        f"separation at {top} dB: theory {sep_theory:.1%}, empirical {sep_emp:.1%}"
        + ("; " + "; ".join(detail) if detail else ""),
    )


def test_criterion_5_power_floor(desk):
    scenario, stats = desk
    rho = received_snr_to_power(20.0, scenario) * 1e12
    tc = make_training_config(16, 2, n_groups=4, rho=rho, sigma_w2=scenario.sigma_w2)
    m = build_moments(stats, 0, tc)
    at_limit = make_estimator(EstimatorKind.CORRELATED_GROUPING_LMMSE, m).nmse
    floor = asymptotic_mse(m)
    rel = abs(at_limit - floor) / floor

    tc_full = make_training_config(16, 2, n_groups=16, rho=rho, sigma_w2=scenario.sigma_w2)
    m_full = build_moments(stats, 0, tc_full)
    conv = conventional_lmmse_filter(m_full).nmse
    record(
        "5-power-floor",
        rel < 0.01 and conv < 1e-6,
        f"grouped floor rel dev {rel:.2e}, ungrouped nmse {conv:.2e} at rho x 1e12",
    )


def test_criterion_6_lmmse_dominance(paired_sweep):
    rows, _ = paired_sweep
    ok = True
    detail = []
    for snr in SNR_POINTS:
        if (
            rows[(EstimatorKind.LMMSE, 16, snr)].nmse_empirical
            > rows[(EstimatorKind.LS, 16, snr)].nmse_empirical * (1 + 1e-12)
        ):
            ok = False
            detail.append(f"LS beat LMMSE at {snr} dB")
        if (
            rows[(EstimatorKind.CORRELATED_GROUPING_LMMSE, 4, snr)].nmse_empirical
            > rows[(EstimatorKind.GROUPING_LS, 4, snr)].nmse_empirical * (1 + 1e-12)
        ):
            ok = False
            detail.append(f"grouping LS beat correlated grouping at {snr} dB")
    record(
        "6-lmmse-dominance", ok,
        "; ".join(detail) if detail else f"paired over {len(SNR_POINTS)} SNR points",
    )


def test_criterion_7_protocol_invariants(desk):
    scenario, stats = desk
    h = hadamard(8)
    hadamard_ok = np.array_equal(h @ h.T, 8 * np.eye(8, dtype=np.int64))

    pilot_dev = 0.0
    for k in (2, 4, 16, 64):
        phi = pilot_sequences(k)
        pilot_dev = max(pilot_dev, float(np.max(np.abs(phi @ phi.conj().T - k * np.eye(k)))))

    tc = make_training_config(16, 2, n_groups=4, rho=0.25, sigma_w2=0.0)
    real = ChannelSampler(stats).sample(np.random.default_rng(44))
    masked = ChannelRealization(
        b=real.b, g=real.g, A=real.A,
        s=np.stack([np.zeros_like(real.s[0]), real.s[1]]),
    )
    obs = synthesize_received(masked, stats, tc, np.random.default_rng(45))
    leak = float(np.linalg.norm(obs.y_combined[0]) / np.linalg.norm(obs.y_combined[1]))
    record(
        "7-protocol-invariants",
        hadamard_ok and pilot_dev < 1e-10 and leak < 1e-10,
        f"hadamard exact, pilot gram dev {pilot_dev:.2e}, leakage {leak:.2e}",
    )


def test_criterion_8_determinism(tmp_path):
    args = [
        "sweep", "--trials", "6", "--groups", "4",
        "--snr-min-db", "0", "--snr-max-db", "20", "--snr-step-db", "10",
        "--seed", "31415",
    ]
    # desk-size INI keeps this quick
    ini = tmp_path / "desk.ini"
    ini.write_text(
        "[scenario]\nn_x = 4\nn_y = 4\nm_antennas = 4\n"
        "ue_positions = -8 44 5; 8 44 5\n"
    )
    payloads = []
    for name, extra in [("a", []), ("b", []), ("c", ["--workers", "3"])]:
        out = tmp_path / f"{name}.csv"
        assert cli_main(args + ["--config", str(ini), "--out", str(out)] + extra) == 0
        payloads.append(out.read_bytes())
    record(
        "8-determinism",
        payloads[0] == payloads[1] == payloads[2],
        "byte-identical CSV across reruns and worker counts",
    )


def test_criterion_9_overhead_accounting():
    config = load_config(None)  # reference setup: K = 4, N = 8x8
    geo = config.scenario.geometry
    tau_full, tau_grouped = pilot_overhead(geo.n_users, geo.n_elements, 16)
    record(
        "9-overhead-accounting",
        tau_full == 260 and tau_grouped == 68,
        f"tau_p full {tau_full}, grouped {tau_grouped}",
    )
