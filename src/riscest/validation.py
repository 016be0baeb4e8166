"""The one registry of named checks: module invariants and acceptance criteria.

run_validation() returns every check as a CheckResult with a stable name, so
reports can be diffed across builds.  `riscest validate` prints it and the
tier-1 tests assert on it.  The registry holds

- the module invariants, named `<module>.<invariant>`;
- the numbered acceptance criteria `1-moment-oracle` ... `9-overhead-accounting`.

Everything runs on the desk scenario (M = 4, N = 4x4 = 16, K = 2, eta = 0.99,
blocked direct links), through the code `theory` and `sweep` run: every
filter, training config and mixing block comes from
`montecarlo.build_cell_bank` (the noiseless interuser-leakage check builds
its own training config and mixing blocks, as no cell exists at zero noise), and every channel
draw from `ChannelSampler.sample`.  The two expensive artifacts are computed
once and every check that needs them reads them:

- one seeded 200k-draw moment oracle, drawn in blocks through
  `ChannelSampler.sample(normals=...)`, feeds `channel.sample_mean_matches`,
  `moments.sample_covariance_matches` and criterion 1;
- one 5000-trial paired sweep (seed 20240717, received SNR -10..40 dB,
  n_groups 4 and 16, every estimator kind) feeds criteria 2, 4 and 6,
  `estimators.empirical_matches_theory` and `estimators.lmmse_dominates_ls`.

Criterion 1 is timed around the oracle draw and criterion 2 around the
sweep.  check_correlation_matrix and check_unit_modulus take explicit
artifacts so tests can inject faults.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (ChannelRealization, ChannelSampler, ChannelStatistics, path_loss,
                      target_vector)
from .estimators import EstimatorKind
from .moments import (antenna_basis, combine_blocks, cov_ss, cov_uu, group_aggregation_matrix,
                      mean_s, to_antenna_basis)
from .montecarlo import (SweepConfig, SweepEngine, SweepRow, _CellBank, build_cell_bank,
                         build_group_state, received_snr_to_power, run_sweep)
from .scenario import DESK_SCENARIO, Scenario, config_digest, desk_scenario, load_config
from .training import (
    PatternOrthogonalityWarning,
    build_Z,
    hadamard,
    make_training_config,
    mixing_blocks,
    pilot_overhead,
    pilot_sequences,
    synthesize_received,
    training_patterns,
)


ORACLE_DRAWS = 200_000  # seeded cascade draws behind the sample-moment checks
ACCEPTANCE_SNR_DB = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
ACCEPTANCE_TRIALS = 5000

LS = EstimatorKind.LS
LMMSE = EstimatorKind.LMMSE
GROUPING_LS = EstimatorKind.GROUPING_LS
GROUPING_LMMSE = EstimatorKind.GROUPING_LMMSE
CORRELATED = EstimatorKind.CORRELATED_GROUPING_LMMSE


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


def _cascade_oracle(stats: ChannelStatistics) -> tuple[float, float, float]:
    """Seeded sample moments of the first user's cascaded target against mean_s/cov_ss.

    Returns the max deviations of the sample mean and covariance, each
    relative to the largest exact entry, and the seconds the draws took.
    """
    start = time.perf_counter()
    sampler = ChannelSampler(stats)
    rng = np.random.default_rng(19)
    chunk = 10_000
    dim = stats.m_antennas * (stats.n_elements + 1)
    acc_mu = np.zeros(dim, complex)
    acc_cov = np.zeros((dim, dim), complex)
    for _ in range(ORACLE_DRAWS // chunk):
        # the first user's dense targets alone; neither the draw nor the realization is kept
        s = target_vector(
            sampler.sample(normals=rng.standard_normal((chunk, sampler.n_normals))).S[:, 0]
        )
        acc_mu += s.sum(axis=0)
        acc_cov += s.T @ s.conj()
    mu_hat = acc_mu / ORACLE_DRAWS
    cov_hat = acc_cov / ORACLE_DRAWS - np.outer(mu_hat, mu_hat.conj())
    elapsed = time.perf_counter() - start
    mu, c = mean_s(stats, 0), cov_ss(stats, 0)
    mean_dev = float(np.abs(mu_hat - mu).max() / np.abs(mu).max())
    cov_dev = float(np.abs(cov_hat - c).max() / np.abs(c).max())
    return mean_dev, cov_dev, elapsed


def _acceptance_sweep(scenario: Scenario) -> tuple[dict[tuple, SweepRow], float]:
    """The paired sweep behind the empirical checks, keyed by (kind, n_groups, snr_db)."""
    cfg = SweepConfig(
        scenario=scenario,
        estimators=tuple(EstimatorKind),
        snr_db=ACCEPTANCE_SNR_DB,
        n_trials=ACCEPTANCE_TRIALS,
        n_groups=(4, 16),
        base_seed=20240717,
    )
    start = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return {(r.estimator, r.n_groups, r.snr_db): r for r in rows}, elapsed


def _bank(scenario: Scenario, stats: ChannelStatistics, n_groups: int, rho: float,
          kinds: tuple[EstimatorKind, ...] = ()) -> _CellBank:
    """A fresh (G, rho) cell from build_cell_bank, the builder `theory` and `sweep` run."""
    return build_cell_bank(stats, scenario.sigma_w2, n_groups, rho, kinds)


def _power_floor(scenario: Scenario, stats: ChannelStatistics, snr_db: float
                 ) -> tuple[float, float]:
    """At 1e12 times the power of snr_db: the grouped LMMSE's relative distance
    from its floor (n_groups = N/4), and the ungrouped LMMSE's NMSE."""
    n = stats.n_elements
    rho = received_snr_to_power(snr_db, stats, scenario.sigma_w2) * 1e12
    cg = _bank(scenario, stats, n // 4, rho, (CORRELATED,)).filters[CORRELATED][0]
    conv = _bank(scenario, stats, n, rho, (LMMSE,)).filters[LMMSE][0]
    return abs(cg.nmse - cg.nmse_floor) / cg.nmse_floor, conv.nmse


def _hadamard_exact(order: int) -> bool:
    h = hadamard(order)
    return np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))


def _pilot_gram_dev(user_counts) -> float:
    worst = 0.0
    for k in user_counts:
        phi = pilot_sequences(k)
        worst = max(worst, float(np.max(np.abs(phi @ phi.conj().T - k * np.eye(k)))))
    return worst


def _interuser_leakage(stats: ChannelStatistics, rho: float, seed: int) -> float:
    """Noiseless synthesis with user 1 silenced: its combined observation over user 2's."""
    tc = make_training_config(stats.n_elements, stats.n_users, stats.n_elements // 4, sigma_w2=0.0)
    real = ChannelSampler(stats).sample(np.random.default_rng(seed))
    s_masked = real.S.copy()
    s_masked[0] = 0.0
    masked = ChannelRealization(b=real.b, g=real.g, A=real.A, S=s_masked)
    mixing = np.sqrt(rho) * mixing_blocks(stats, tc)
    obs = synthesize_received(masked, stats, tc, mixing, np.random.default_rng(seed + 1))
    return float(
        np.linalg.norm(obs.y_combined[0]) / max(np.linalg.norm(obs.y_combined[1]), 1e-300)
    )


def _scenario_checks(stats: ChannelStatistics, oracle) -> list[CheckResult]:
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

    mean_dev, _, _ = oracle
    out.append(
        CheckResult(
            "channel.sample_mean_matches", mean_dev < 0.05,
            f"max deviation {mean_dev:.3f} of largest mean entry at {ORACLE_DRAWS} draws",
        )
    )
    return out


def _training_checks(scenario: Scenario, stats: ChannelStatistics) -> list[CheckResult]:
    out = []
    bad = [order for order in (1, 2, 4, 8, 16) if not _hadamard_exact(order)]
    out.append(
        CheckResult("training.hadamard_gram", not bad,
                    f"order {bad[0]}" if bad else "orders 1..16 exact")
    )
    worst = _pilot_gram_dev(range(1, 65))
    out.append(CheckResult("training.pilot_gram", worst < 1e-10, f"max gram deviation {worst:.2e}"))

    ok = True
    for n_groups, n_patterns in [(3, 4), (7, 8), (15, 16)]:
        group_patterns = training_patterns(n_groups, n_patterns)
        stacked = np.hstack([np.ones((n_patterns, 1)), group_patterns])
        gram = stacked.conj().T @ stacked
        ok = ok and np.array_equal(gram, n_patterns * np.eye(n_groups + 1))
    out.append(CheckResult("training.pattern_gram", ok, "power-of-two row sets exact"))

    n, k_users = stats.n_elements, stats.n_users
    rho = received_snr_to_power(20.0, stats, scenario.sigma_w2)
    bank = _bank(scenario, stats, n // 4, rho)
    tc = bank.tconfig
    rng = np.random.default_rng(3)
    real = ChannelSampler(stats).sample(rng)
    obs = synthesize_received(real, stats, tc, bank.mixing, rng)
    worst = 0.0
    for k in range(k_users):
        # reconstruct through the combined linear model with the recorded noise
        w_comb = np.einsum("tim,ki->ktm", obs.noise_raw, tc.pilot_matrix.conj())[k].reshape(-1)
        model = np.sqrt(bank.rho) * (build_Z(k, stats, tc) @ real.s[k]) + w_comb
        worst = max(
            worst,
            float(
                np.linalg.norm(obs.y_combined[k] - model) / np.linalg.norm(obs.y_combined[k])
            ),
        )
    out.append(
        CheckResult("training.observation_reconstruction", worst < 1e-10, f"max rel {worst:.2e}")
    )

    tc_full = _bank(scenario, stats, n, rho).tconfig
    same = np.array_equal(tc_full.patterns, tc_full.group_patterns)
    z_a = build_Z(0, stats, tc_full)
    z_b = build_Z(0, stats, tc_full, grouped=True)
    same = same and np.array_equal(z_a, z_b)
    out.append(CheckResult("training.grouped_degenerate_bitexact", bool(same), "n_groups = N"))

    leak = _interuser_leakage(stats, rho, 4)
    out.append(CheckResult("training.interuser_leakage", leak < 1e-10, f"relative leak {leak:.2e}"))
    return out


def _moment_checks(scenario: Scenario, stats: ChannelStatistics, oracle) -> list[CheckResult]:
    out = []
    rho = received_snr_to_power(10.0, stats, scenario.sigma_w2)
    n_groups = stats.n_elements // 4
    m = _bank(scenario, stats, n_groups, rho, (CORRELATED,)).filters[CORRELATED][0].moments
    c_ss = combine_blocks(m.r, [b.cov_ss for b, _ in m.blocks])
    c_uu = cov_uu(c_ss, m.aligned.group_index, stats.m_antennas)
    herm = float(np.max(np.abs(c_ss - c_ss.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (c_ss + c_ss.conj().T)).min())
    min_eig_u = float(np.linalg.eigvalsh(0.5 * (c_uu + c_uu.conj().T)).min())
    ok = herm < 1e-12 and min_eig > -1e-8 and min_eig_u > -1e-8
    out.append(
        CheckResult(
            "moments.cov_hermitian_psd", ok,
            f"hermitian dev {herm:.2e}, min eig {min_eig:.2e}/{min_eig_u:.2e}",
        )
    )

    p = group_aggregation_matrix(m.aligned.group_index, stats.m_antennas)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(c_uu.shape[0]) + 1j * rng.standard_normal(c_uu.shape[0])
        lhs = np.vdot(v, c_uu @ v).real
        w = p.T @ v
        rhs = np.vdot(w, c_ss @ w).real
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    out.append(CheckResult("moments.aggregation_quadratic_form", worst < 1e-10, f"max rel {worst:.2e}"))

    _, cov_dev, _ = oracle
    out.append(
        CheckResult(
            "moments.sample_covariance_matches", cov_dev < 0.05,
            f"max deviation {cov_dev:.4f} of largest entry at {ORACLE_DRAWS} draws",
        )
    )
    return out


def _estimator_checks(scenario: Scenario, stats: ChannelStatistics, sweep) -> list[CheckResult]:
    out = []
    n = stats.n_elements
    n_groups = n // 4

    # monotone theory curve over a log-spaced power sweep from -40 to 240 dB, 6.2 dB
    # apart; each group count keeps one power-free state over the powers, as a sweep does
    rho_grid = np.geomspace(1e-4, 1e24, 46) * received_snr_to_power(0.0, stats, scenario.sigma_w2)
    ok, detail = True, ""
    curves = {LMMSE: [], GROUPING_LMMSE: [], CORRELATED: []}
    cells = {n_groups: (GROUPING_LMMSE, CORRELATED), n: (LMMSE,)}
    states = {g: build_group_state(stats, scenario.sigma_w2, g, kinds)
              for g, kinds in cells.items()}
    for rho in rho_grid:
        grouped, full = (build_cell_bank(stats, scenario.sigma_w2, g, rho, kinds, states[g])
                         for g, kinds in cells.items())
        for kind in curves:
            curves[kind].append((full if kind == LMMSE else grouped).filters[kind][0].nmse)
    for kind, c in curves.items():
        if any(b > a + 1e-10 for a, b in zip(c, c[1:])):
            ok, detail = False, f"{kind.value} not monotone"
            break
    out.append(CheckResult("estimators.theory_monotone_in_power", ok, detail or "46-point sweep"))

    # ordering and collapse at one moderate power
    rho = received_snr_to_power(30.0, stats, scenario.sigma_w2)
    bank = _bank(scenario, stats, n_groups, rho, (GROUPING_LMMSE, CORRELATED))
    cg, soa = bank.filters[CORRELATED][0], bank.filters[GROUPING_LMMSE][0]
    out.append(
        CheckResult(
            "estimators.correlated_below_grouping", cg.nmse <= soa.nmse * (1 + 1e-12),
            f"{cg.nmse:.4g} <= {soa.nmse:.4g}",
        )
    )
    full = _bank(scenario, stats, n, rho, (LMMSE, CORRELATED))
    a, b = full.filters[LMMSE][0], full.filters[CORRELATED][0]
    rel = abs(a.nmse - b.nmse) / a.nmse
    out.append(CheckResult("estimators.collapse_ungrouped", rel < 1e-8, f"rel diff {rel:.2e}"))

    rel, conv = _power_floor(scenario, stats, 30.0)
    out.append(
        CheckResult(
            "estimators.power_floor", rel < 0.01 and conv < 1e-6,
            f"floor rel {rel:.2e}, ungrouped nmse {conv:.2e}",
        )
    )

    # paired empirical-versus-theory and LS-versus-LMMSE dominance
    rows, _ = sweep
    worst = max(
        abs(r.nmse_empirical - r.nmse_theory) / r.nmse_theory
        for r in rows.values() if r.estimator in (LMMSE, CORRELATED)
    )
    baseline = {LMMSE: LS, CORRELATED: GROUPING_LS}
    dominance = all(
        r.nmse_empirical <= rows[(baseline[r.estimator], r.n_groups, r.snr_db)].nmse_empirical
        for r in rows.values() if r.estimator in baseline
    )
    out.append(
        CheckResult(
            "estimators.empirical_matches_theory", worst < 0.05,
            f"worst rel deviation {worst:.3f} at {ACCEPTANCE_TRIALS} trials",
        )
    )
    out.append(CheckResult("estimators.lmmse_dominates_ls", dominance, "paired trials"))

    # unbiasedness of the estimate mean over many trials, scored as one block as a
    # sweep scores one, in the antenna basis; row j holds trial j's channel normals,
    # then its noise normals
    tc = bank.tconfig
    sampler = ChannelSampler(stats)
    n_trials = 10_000
    n_noise = 2 * tc.n_patterns * tc.n_users * stats.m_antennas
    normals = np.random.default_rng(11).standard_normal((n_trials, sampler.n_normals + n_noise))
    real = sampler.sample(normals=normals)
    obs = synthesize_received(real, stats, tc, bank.mixing, normals=normals[:, sampler.n_normals:])
    q = antenna_basis(cg.r)
    x, target = (to_antenna_basis(q, a[0]) for a in (obs.y_antenna, real.s_antenna))
    mean_err = cg.residual(x, target).mean(axis=1)  # the same norm as in the antenna domain
    # 3 standard errors of the estimator error norm, err entries ~ error covariance
    se = np.sqrt(cg.mse_trace / n_trials)
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
        estimators=(CORRELATED, GROUPING_LMMSE),
        snr_db=(10.0, 30.0),
        n_trials=50,
        n_groups=(scenario.geometry.n_elements // 4,),
        base_seed=555,
    )
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=2)
    same = all(
        a.nmse_empirical == b.nmse_empirical and a.stderr == b.stderr
        for a, b in zip(serial, parallel)
    )
    out.append(CheckResult("montecarlo.order_independent", same, "1 vs 2 workers"))

    errors_1, digest_1 = SweepEngine(cfg).run_cell_trial(0, 0, 7, digest=True)
    errors_2, digest_2 = SweepEngine(cfg).run_cell_trial(0, 0, 7, digest=True)
    same = digest_1 == digest_2 and all(
        np.array_equal(errors_1[k], errors_2[k]) for k in errors_1
    )
    out.append(CheckResult("montecarlo.paired_trials_reproducible", same, "digest equality"))

    cfg_half = SweepConfig(
        scenario=scenario, estimators=(CORRELATED,),
        snr_db=(10.0,), n_trials=400, n_groups=(scenario.geometry.n_elements // 4,),
        base_seed=555,
    )
    se_half = run_sweep(cfg_half)[0].stderr
    se_full = run_sweep(dataclasses.replace(cfg_half, n_trials=800))[0].stderr
    ratio = se_full / se_half
    ok = abs(ratio - 1 / np.sqrt(2)) < 0.2 / np.sqrt(2)
    out.append(
        CheckResult("montecarlo.stderr_scaling", bool(ok), f"ratio {ratio:.3f} vs 0.707")
    )
    return out


def _cli_checks() -> list[CheckResult]:
    from .cli import read_csv, write_csv

    out = []
    value = 0.12345678901234567
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.csv"
        write_csv(path, ["estimator", "n_groups", "snr_db"], [["lmmse", 4, value]],
                  comments=["config_hash=deadbeefdeadbeef"])
        header, rows = read_csv(path)
        ok = rows[0]["snr_db"] == value and header == ["estimator", "n_groups", "snr_db"]
        text = path.read_text(encoding="utf-8")
    out.append(CheckResult("cli.csv_roundtrip_17_digits", ok, f"value {value!r} preserved"))
    out.append(
        CheckResult(
            "cli.config_hash_logged",
            text.startswith("# config_hash=") and len(config_digest(load_config(None))) == 16,
            "leading provenance comment",
        )
    )
    return out


def _cli_determinism() -> bool:
    """Three desk-size CLI sweeps, the last on 3 workers, write the same CSV bytes."""
    from .cli import main

    args = [
        "sweep", "--trials", "6", "--groups", "4",
        "--snr-min-db", "0", "--snr-max-db", "20", "--snr-step-db", "10",
        "--seed", "31415",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "desk.ini"
        ini.write_text("[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in DESK_SCENARIO.items()))
        payloads = set()
        for name, extra in [("a", []), ("b", []), ("c", ["--workers", "3"])]:
            out = Path(tmp) / f"{name}.csv"
            if main(args + ["--config", str(ini), "--out", str(out)] + extra) != 0:
                return False
            payloads.add(out.read_bytes())
    return len(payloads) == 1


def _acceptance_criteria(scenario: Scenario, stats: ChannelStatistics, oracle, sweep
                         ) -> list[CheckResult]:
    """The numbered acceptance criteria, each at its stated tolerance and time gate."""
    out = []
    mean_dev, cov_dev, oracle_s = oracle
    out.append(
        CheckResult(
            "1-moment-oracle", mean_dev < 0.05 and cov_dev < 0.05 and oracle_s < 30.0,
            f"mean dev {mean_dev:.4f}, cov dev {cov_dev:.4f}, {oracle_s:.1f}s "
            f"at {ORACLE_DRAWS} draws",
        )
    )

    rows, sweep_s = sweep
    worst = max(
        abs(r.nmse_empirical - r.nmse_theory) / r.nmse_theory
        for snr in ACCEPTANCE_SNR_DB
        for r in (rows[(LMMSE, 16, snr)], rows[(CORRELATED, 4, snr)])
    )
    out.append(
        CheckResult(
            "2-theory-vs-empirical", worst < 0.05 and sweep_s < 60.0,
            f"worst rel dev {worst:.4f} over {len(ACCEPTANCE_SNR_DB)} SNR points, "
            f"{ACCEPTANCE_TRIALS} trials in {sweep_s:.1f}s",
        )
    )

    n = stats.n_elements
    rho = received_snr_to_power(20.0, stats, scenario.sigma_w2)
    bank = _bank(scenario, stats, n, rho, (LMMSE, CORRELATED))
    worst_est, worst_trace = 0.0, 0.0
    rng = np.random.default_rng(33)
    sampler = ChannelSampler(stats)
    for k in range(stats.n_users):
        conv, corr = bank.filters[LMMSE][k], bank.filters[CORRELATED][k]
        worst_trace = max(worst_trace, abs(conv.mse_trace - corr.mse_trace) / conv.mse_trace)
        real = sampler.sample(rng)
        obs = synthesize_received(real, stats, bank.tconfig, bank.mixing, rng)
        a = conv.estimate(obs.y_combined[k])
        b = corr.estimate(obs.y_combined[k])
        worst_est = max(worst_est, float(np.linalg.norm(a - b) / np.linalg.norm(a)))
    out.append(
        CheckResult(
            "3-collapse-identity", worst_est < 1e-8 and worst_trace < 1e-8,
            f"estimate rel {worst_est:.2e}, trace rel {worst_trace:.2e}",
        )
    )

    problems = []
    for snr in ACCEPTANCE_SNR_DB:
        cg, soa = rows[(CORRELATED, 4, snr)], rows[(GROUPING_LMMSE, 4, snr)]
        if cg.nmse_theory > soa.nmse_theory * (1 + 1e-12):
            problems.append(f"theory violated at {snr} dB")
        if cg.nmse_empirical > soa.nmse_empirical * (1 + 1e-12):
            problems.append(f"empirical violated at {snr} dB")
    top = ACCEPTANCE_SNR_DB[-1]
    cg, soa = rows[(CORRELATED, 4, top)], rows[(GROUPING_LMMSE, 4, top)]
    sep_theory = (soa.nmse_theory - cg.nmse_theory) / soa.nmse_theory
    sep_emp = (soa.nmse_empirical - cg.nmse_empirical) / soa.nmse_empirical
    if sep_theory < 0.10 or sep_emp < 0.10:
        problems.append("separation below 10% at top SNR")
    out.append(
        CheckResult(
            "4-ordering", not problems,
            f"separation at {top} dB: theory {sep_theory:.1%}, empirical {sep_emp:.1%}"
            + ("; " + "; ".join(problems) if problems else ""),
        )
    )

    rel, conv_nmse = _power_floor(scenario, stats, 20.0)
    out.append(
        CheckResult(
            "5-power-floor", rel < 0.01 and conv_nmse < 1e-6,
            f"grouped floor rel dev {rel:.2e}, ungrouped nmse {conv_nmse:.2e} at rho x 1e12",
        )
    )

    problems = []
    for snr in ACCEPTANCE_SNR_DB:
        if rows[(LMMSE, 16, snr)].nmse_empirical > (
            rows[(LS, 16, snr)].nmse_empirical * (1 + 1e-12)
        ):
            problems.append(f"LS beat LMMSE at {snr} dB")
        if rows[(CORRELATED, 4, snr)].nmse_empirical > (
            rows[(GROUPING_LS, 4, snr)].nmse_empirical * (1 + 1e-12)
        ):
            problems.append(f"grouping LS beat correlated grouping at {snr} dB")
    out.append(
        CheckResult(
            "6-lmmse-dominance", not problems,
            "; ".join(problems) or f"paired over {len(ACCEPTANCE_SNR_DB)} SNR points",
        )
    )

    pilot_dev = _pilot_gram_dev((2, 4, 16, 64))
    leak = _interuser_leakage(stats, 0.25, 44)
    out.append(
        CheckResult(
            "7-protocol-invariants", _hadamard_exact(8) and pilot_dev < 1e-10 and leak < 1e-10,
            f"hadamard exact, pilot gram dev {pilot_dev:.2e}, leakage {leak:.2e}",
        )
    )

    out.append(
        CheckResult(
            "8-determinism", _cli_determinism(),
            "byte-identical CSV across reruns and worker counts",
        )
    )

    geo = load_config(None).scenario.geometry  # reference setup: K = 4, N = 8x8
    tau_full, tau_grouped = pilot_overhead(geo.n_users, geo.n_elements, 16)
    out.append(
        CheckResult(
            "9-overhead-accounting", tau_full == 260 and tau_grouped == 68,
            f"tau_p full {tau_full}, grouped {tau_grouped}",
        )
    )
    return out


def run_validation() -> list[CheckResult]:
    """Run every module invariant and acceptance criterion on the desk scenario."""
    with warnings.catch_warnings():
        # default T = G + 1 is rarely a Hadamard order; every other warning stays visible
        warnings.simplefilter("ignore", PatternOrthogonalityWarning)
        scenario = desk_scenario()
        stats = scenario.statistics()
        oracle = _cascade_oracle(stats)
        sweep = _acceptance_sweep(scenario)
        return (
            _scenario_checks(stats, oracle)
            + _training_checks(scenario, stats)
            + _moment_checks(scenario, stats, oracle)
            + _estimator_checks(scenario, stats, sweep)
            + _montecarlo_checks(scenario)
            + _cli_checks()
            + _acceptance_criteria(scenario, stats, oracle, sweep)
        )
