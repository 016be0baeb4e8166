"""Seeded, order-independent Monte Carlo trial engine.

A sweep cell is one (group count, SNR) pair.  Within a trial every estimator
consumes the same channel realization and the same synthesized observation,
so estimator comparisons are paired.  The per-trial random stream is derived
from (base_seed, snr_index, trial_index) through numpy's SeedSequence, which
makes every result independent of execution order and worker count; the same
triple also shares the channel realization across group cells.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSampler, ChannelStatistics
from .errors import ConfigurationError, NumericalError
from .estimators import (
    AffineEstimator,
    EstimatorKind,
    GROUPED_KINDS,
    asymptotic_mse,
    make_estimator,
)
from .moments import build_moments
from .scenario import Scenario
from .training import TrainingConfig, make_training_config, synthesize_received

WORKERS_ENV = "RISCEST_WORKERS"


@dataclass
class SweepConfig:
    """Full description of one Monte Carlo sweep."""

    scenario: Scenario
    estimators: tuple[EstimatorKind, ...]
    snr_db: tuple[float, ...]
    n_trials: int
    n_groups: tuple[int, ...]
    base_seed: int

    def __post_init__(self):
        self.estimators = tuple(EstimatorKind(e) for e in self.estimators)
        self.snr_db = tuple(float(s) for s in self.snr_db)
        self.n_groups = tuple(int(g) for g in self.n_groups)
        if self.n_trials < 1:
            raise ConfigurationError("need at least one trial")
        if not self.snr_db:
            raise ConfigurationError("need at least one SNR point")
        if not self.estimators:
            raise ConfigurationError("need at least one estimator")
        n = self.scenario.geometry.n_elements
        for g in self.n_groups:
            if g < 1 or n % g != 0:
                raise ConfigurationError(f"group count {g} does not divide N = {n}")


@dataclass
class SweepRow:
    """Aggregated result for one (estimator, group count, SNR) cell."""

    estimator: EstimatorKind
    n_groups: int
    snr_db: float
    rho: float
    trials: int
    nmse_empirical: float
    stderr: float
    nmse_theory: float
    nmse_floor: float
    seed: int
    wall_time: float = 0.0
    failures: int = 0
    nmse_per_user: tuple[float, ...] = ()


@dataclass
class MseReport:
    rows: list[SweepRow] = field(default_factory=list)


def received_snr_to_power(snr_db: float, scenario: Scenario) -> float:
    """Pilot power giving the requested mean combined pilot SNR per BS antenna.

    The received SNR is defined as rho * K * N * rho_a * mean(rho_g) over the
    noise power, i.e. the average cascaded pilot power collected through all
    N elements and K combined slots.
    """
    stats = scenario.statistics()
    k, n = stats.n_users, stats.n_elements
    gain = k * n * stats.rho_a * float(np.mean(stats.rho_g))
    return 10.0 ** (snr_db / 10.0) * scenario.sigma_w2 / gain


def applicable_kinds(
    kinds: tuple[EstimatorKind, ...], n_groups: int, n_elements: int
) -> tuple[EstimatorKind, ...]:
    """Kinds evaluated in a cell: ungrouped ones need the full pattern budget."""
    out = []
    for kind in kinds:
        if kind in GROUPED_KINDS or n_groups == n_elements:
            out.append(kind)
    return tuple(out)


@dataclass
class _CellBank:
    """Precomputed per-(group count, SNR) machinery shared by all trials."""

    tconfig: TrainingConfig
    z_full: np.ndarray  # (K, MT, M(N+1))
    z_grouped: np.ndarray
    filters: dict[EstimatorKind, list[AffineEstimator]]  # kind -> per-user
    prior_traces: np.ndarray  # (K,)
    rho: float


def build_cell_bank(
    stats: ChannelStatistics,
    sigma_w2: float,
    n_groups: int,
    rho: float,
    kinds: tuple[EstimatorKind, ...],
    floors: dict[int, float],
) -> _CellBank:
    """Training config, mixing matrices and per-user filters of one (G, power) cell.

    floors maps user index to the power-independent floor for this group
    count; it is filled on first use and shared by every power point.
    """
    tconfig = make_training_config(
        n_elements=stats.n_elements,
        n_users=stats.n_users,
        n_groups=n_groups,
        rho=rho,
        sigma_w2=sigma_w2,
    )
    kinds = applicable_kinds(kinds, n_groups, stats.n_elements)
    filters: dict[EstimatorKind, list[AffineEstimator]] = {k: [] for k in kinds}
    prior_traces = np.empty(stats.n_users)
    z_full, z_grouped = [], []
    for k in range(stats.n_users):
        m_true = build_moments(stats, k, tconfig)
        m_model = None
        if EstimatorKind.GROUPING_LMMSE in kinds:
            m_model = build_moments(stats, k, tconfig, block_ideal=True)
        for kind in kinds:
            floor = None
            if kind in (EstimatorKind.LMMSE, EstimatorKind.CORRELATED_GROUPING_LMMSE):
                if k not in floors:
                    floors[k] = asymptotic_mse(m_true)
                floor = floors[k]
            filters[kind].append(make_estimator(kind, m_true, m_model, floor=floor))
        prior_traces[k] = np.trace(m_true.cov_ss).real
        z_full.append(m_true.Z)
        z_grouped.append(m_true.Z_G)
    return _CellBank(
        tconfig=tconfig, z_full=np.stack(z_full), z_grouped=np.stack(z_grouped),
        filters=filters, prior_traces=prior_traces, rho=rho,
    )


def theory_means(filters: list[AffineEstimator]) -> tuple[float, float, float]:
    """Per-user means of closed-form NMSE, error trace and floor (NaN if any floor is unset)."""
    nmse = float(np.mean([f.nmse for f in filters]))
    trace = float(np.mean([f.mse_trace for f in filters]))
    floors = [f.nmse_floor for f in filters]
    floor = float(np.mean(floors)) if all(f is not None for f in floors) else float("nan")
    return nmse, trace, floor


class SweepEngine:
    """Builds samplers/filters once and evaluates trials; safe to share read-only."""

    def __init__(self, config: SweepConfig):
        self.config = config
        self.stats = config.scenario.statistics()
        self.sampler = ChannelSampler(self.stats)
        self._banks: dict[tuple[int, int], _CellBank] = {}
        self._floors: dict[int, dict[int, float]] = {}  # group index -> user -> floor

    def bank(self, group_index: int, snr_index: int) -> _CellBank:
        key = (group_index, snr_index)
        if key not in self._banks:
            cfg = self.config
            self._banks[key] = build_cell_bank(
                self.stats, cfg.scenario.sigma_w2, cfg.n_groups[group_index],
                received_snr_to_power(cfg.snr_db[snr_index], cfg.scenario),
                cfg.estimators, self._floors.setdefault(group_index, {}),
            )
        return self._banks[key]

    def trial_rng(self, snr_index: int, trial_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence((self.config.base_seed, snr_index, trial_index))
        return np.random.default_rng(seq)

    def run_cell_trial(
        self, group_index: int, snr_index: int, trial_index: int, digest: bool = False
    ) -> tuple[dict[EstimatorKind, np.ndarray], str | None]:
        """Squared errors per estimator and user for one paired trial.

        Failures of a single estimator are recorded as NaN for that trial
        rather than aborting the sweep.
        """
        bank = self.bank(group_index, snr_index)
        rng = self.trial_rng(snr_index, trial_index)
        realization = self.sampler.sample(rng)
        obs = synthesize_received(
            realization, self.stats, bank.tconfig, rng,
            z_full=bank.z_full, z_grouped=bank.z_grouped,
        )
        k_users = self.stats.n_users
        errors: dict[EstimatorKind, np.ndarray] = {}
        for kind, per_user in bank.filters.items():
            err = np.empty(k_users)
            for k in range(k_users):
                try:
                    err[k] = per_user[k].squared_error(obs.y_combined[k], realization.s[k])
                except NumericalError:
                    err[k] = np.nan
            errors[kind] = err
        obs_digest = None
        if digest:
            obs_digest = hashlib.sha256(
                np.ascontiguousarray(obs.y_combined).tobytes()
            ).hexdigest()
        return errors, obs_digest


def _trial_block(engine: SweepEngine, group_index: int, snr_index: int,
                 lo: int, hi: int) -> np.ndarray:
    """Per-trial per-user squared errors for trials lo..hi-1, shape (hi-lo, n_kinds, K)."""
    bank = engine.bank(group_index, snr_index)
    kinds = list(bank.filters)
    out = np.empty((hi - lo, len(kinds), engine.stats.n_users))
    for j, trial in enumerate(range(lo, hi)):
        errors, _ = engine.run_cell_trial(group_index, snr_index, trial)
        for ki, kind in enumerate(kinds):
            out[j, ki] = errors[kind]
    return out


_WORKER_ENGINE: SweepEngine | None = None


def _init_worker(config: SweepConfig) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = SweepEngine(config)


def _worker_block(args: tuple[int, int, int, int]) -> tuple[tuple[int, int, int], np.ndarray]:
    group_index, snr_index, lo, hi = args
    assert _WORKER_ENGINE is not None
    return (group_index, snr_index, lo), _trial_block(_WORKER_ENGINE, group_index, snr_index, lo, hi)


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    return max(1, workers)


def run_sweep(config: SweepConfig, workers: int | None = None) -> MseReport:
    """Run all cells of a sweep and aggregate empirical and theoretical NMSE.

    Results are bit-identical for a given base seed regardless of the worker
    count: trials are seeded individually and reassembled in index order
    before any reduction.
    """
    workers = resolve_workers(workers)
    engine = SweepEngine(config)
    n_trials = config.n_trials

    blocks: dict[tuple[int, int, int], np.ndarray] = {}
    tasks = []
    chunk = n_trials if workers == 1 else max(1, -(-n_trials // (workers * 4)))
    for gi in range(len(config.n_groups)):
        for si in range(len(config.snr_db)):
            for lo in range(0, n_trials, chunk):
                tasks.append((gi, si, lo, min(lo + chunk, n_trials)))

    cell_times: dict[tuple[int, int], float] = {}
    if workers == 1:
        for gi, si, lo, hi in tasks:
            start = time.perf_counter()
            blocks[(gi, si, lo)] = _trial_block(engine, gi, si, lo, hi)
            cell_times[(gi, si)] = cell_times.get((gi, si), 0.0) + time.perf_counter() - start
    else:
        start = time.perf_counter()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(config,)
        ) as pool:
            for key, block in pool.map(_worker_block, tasks):
                blocks[key] = block
        elapsed = time.perf_counter() - start
        for gi in range(len(config.n_groups)):
            for si in range(len(config.snr_db)):
                cell_times[(gi, si)] = elapsed / (len(config.n_groups) * len(config.snr_db))

    report = MseReport()
    for gi, n_groups in enumerate(config.n_groups):
        for si, snr in enumerate(config.snr_db):
            bank = engine.bank(gi, si)
            kinds = list(bank.filters)
            per_trial = np.concatenate(
                [blocks[(gi, si, lo)] for lo in range(0, n_trials, chunk)], axis=0
            )  # (n_trials, n_kinds, K)
            samples_per_user = per_trial / bank.prior_traces[None, None, :]
            for ki, kind in enumerate(kinds):
                user_samples = samples_per_user[:, ki, :]  # (n_trials, K)
                failures = int(np.isnan(user_samples).any(axis=1).sum())
                valid = user_samples[~np.isnan(user_samples).any(axis=1)]
                trial_means = valid.mean(axis=1)
                nmse = float(trial_means.mean()) if trial_means.size else float("nan")
                if trial_means.size > 1:
                    stderr = float(trial_means.std(ddof=1) / np.sqrt(trial_means.size))
                else:
                    stderr = float("nan")
                theory, _, floor = theory_means(bank.filters[kind])
                if valid.size:
                    per_user = tuple(float(v) for v in valid.mean(axis=0))
                else:
                    per_user = tuple(float("nan") for _ in range(valid.shape[1]))
                report.rows.append(
                    SweepRow(
                        estimator=kind, n_groups=n_groups, snr_db=snr, rho=bank.rho,
                        trials=n_trials, nmse_empirical=nmse, stderr=stderr,
                        nmse_theory=theory, nmse_floor=floor, seed=config.base_seed,
                        wall_time=cell_times.get((gi, si), 0.0), failures=failures,
                        nmse_per_user=per_user,
                    )
                )
    return report
