"""Seeded, order-independent Monte Carlo trial engine.

A sweep cell is one (group count, SNR) pair.  Within a trial every estimator
consumes the same channel realization and the same synthesized observation,
so estimator comparisons are paired.  The per-trial random stream is derived
from (base_seed, snr_index, trial_index) through numpy's SeedSequence, which
makes every result independent of execution order and worker count.  The
same triple shares the channel realization across group cells: it is drawn
once per (SNR, trial), and every cell draws its noise from the generator
state right after the channel draws.

Trials run in the antenna domain: synthesis multiplies each user's
(T, N+1) mixing block with its (N+1, M) target matrix, and each estimator
applies its per-block filters to the split observation (see
`estimators.AffineEstimator`), so no dense mixing matrix or filter is formed.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, ChannelSampler, ChannelStatistics
from .errors import ConfigurationError, NumericalError
from .estimators import (
    AffineEstimator,
    EstimatorKind,
    GROUPED_KINDS,
    asymptotic_mse,
    make_estimator,
)
from .moments import antenna_factor, build_moments, split_observation
from .scenario import Scenario
from .training import (
    TrainingConfig,
    build_Z,
    make_training_config,
    mixing_blocks,
    synthesize_received,
)


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
        try:
            self.estimators = tuple(EstimatorKind(e) for e in self.estimators)
        except ValueError as exc:
            choices = " ".join(k.value for k in EstimatorKind)
            raise ConfigurationError(f"{exc}; choose from {choices}") from None
        self.snr_db = tuple(float(s) for s in self.snr_db)
        self.n_groups = tuple(int(g) for g in self.n_groups)
        if self.n_trials < 1:
            raise ConfigurationError("need at least one trial")
        if not self.snr_db:
            raise ConfigurationError("need at least one SNR point")
        if not self.estimators:
            raise ConfigurationError("need at least one estimator")
        if not self.n_groups:
            raise ConfigurationError("need at least one group count")
        if self.base_seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.base_seed}")
        n = self.scenario.geometry.n_elements
        for g in self.n_groups:
            if g < 1 or n % g != 0:
                raise ConfigurationError(f"group count {g} does not divide N = {n}")
        for name, values in (
            ("group count", [str(g) for g in self.n_groups]),
            ("estimator", [k.value for k in self.estimators]),
        ):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigurationError(f"{name} repeated: {' '.join(repeated)}")


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

    stats: ChannelStatistics
    tconfig: TrainingConfig
    mixing: np.ndarray  # (K, T, N+1), see training.mixing_blocks
    r: np.ndarray  # antenna_factor(a_bar), shared by every user's filters
    filters: dict[EstimatorKind, list[AffineEstimator]]  # kind -> per-user
    prior_traces: np.ndarray  # (K,)
    rho: float

    def _stacked_z(self, grouped: bool) -> np.ndarray:
        n_users = self.stats.n_users
        return np.stack([build_Z(k, self.stats, self.tconfig, grouped) for k in range(n_users)])

    @property
    def z_full(self) -> np.ndarray:
        """Dense (K, MT, M(N+1)) mixing matrices, built on every read; trials never read them."""
        return self._stacked_z(grouped=False)

    @property
    def z_grouped(self) -> np.ndarray:
        """Dense grouped mixing matrices, built on every read like z_full."""
        return self._stacked_z(grouped=True)


def build_cell_bank(
    stats: ChannelStatistics,
    sigma_w2: float,
    n_groups: int,
    rho: float,
    kinds: tuple[EstimatorKind, ...],
    floors: dict[int, float],
) -> _CellBank:
    """Training config, mixing blocks and per-user filters of one (G, power) cell.

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
        prior_traces[k] = m_true.prior_trace
    return _CellBank(
        stats=stats, tconfig=tconfig, mixing=mixing_blocks(stats, tconfig),
        r=antenna_factor(stats.a_bar),
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
    """The one owner of cell banks; evaluates trials.

    Only the banks of the SNR point served last are kept: asking for another
    SNR point drops them, so memory does not grow with the grid.  Floors
    depend on the group count alone and are kept for the engine's life.  The
    last (SNR, trial) realization is cached with its generator, so sibling
    group cells reuse it; calls may come in any order, but run_cell_trial
    mutates that cache, so an engine is not safe to share between threads.
    Each worker process builds its own.
    """

    def __init__(self, config: SweepConfig):
        self.config = config
        self.stats = config.scenario.statistics()
        self._snr_index: int | None = None  # the SNR point whose banks are kept
        self._banks: dict[int, _CellBank] = {}  # group index -> bank
        self._floors: dict[int, dict[int, float]] = {}  # group index -> user -> floor
        # ((snr_index, trial_index), realization, its generator, generator state after it)
        self._draw: tuple[tuple[int, int], ChannelRealization, np.random.Generator, dict] | None
        self._draw = None

    @cached_property
    def sampler(self) -> ChannelSampler:
        return ChannelSampler(self.stats)

    def bank(self, group_index: int, snr_index: int) -> _CellBank:
        if snr_index != self._snr_index:
            self._banks.clear()  # before the new bank is built, so two points never coexist
            self._snr_index = snr_index
        if group_index not in self._banks:
            cfg = self.config
            self._banks[group_index] = build_cell_bank(
                self.stats, cfg.scenario.sigma_w2, cfg.n_groups[group_index],
                received_snr_to_power(cfg.snr_db[snr_index], cfg.scenario),
                cfg.estimators, self._floors.setdefault(group_index, {}),
            )
        return self._banks[group_index]

    def trial_rng(self, snr_index: int, trial_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence((self.config.base_seed, snr_index, trial_index))
        return np.random.default_rng(seq)

    def _realization(
        self, snr_index: int, trial_index: int
    ) -> tuple[ChannelRealization, np.random.Generator]:
        """The trial's channel realization and its generator, positioned for the noise draws.

        The realization is drawn once per (SNR, trial); a later cell of the
        same trial gets it back with the generator reset to the state right
        after the channel draws, so its noise is what a fresh draw would give.
        """
        key = (snr_index, trial_index)
        if self._draw is None or self._draw[0] != key:
            rng = self.trial_rng(snr_index, trial_index)
            realization = self.sampler.sample(rng)
            self._draw = (key, realization, rng, rng.bit_generator.state)
            return realization, rng
        _, realization, rng, state = self._draw
        rng.bit_generator.state = state
        return realization, rng

    def run_cell_trial(
        self, group_index: int, snr_index: int, trial_index: int, digest: bool = False
    ) -> tuple[dict[EstimatorKind, np.ndarray], str | None]:
        """Squared errors per estimator and user for one paired trial.

        Failures of a single estimator are recorded as NaN for that trial
        rather than aborting the sweep.
        """
        bank = self.bank(group_index, snr_index)
        realization, rng = self._realization(snr_index, trial_index)
        obs = synthesize_received(
            realization, self.stats, bank.tconfig, rng, mixing=bank.mixing
        )
        xs = split_observation(bank.r, obs.y_combined)
        k_users = self.stats.n_users
        errors: dict[EstimatorKind, np.ndarray] = {}
        for kind, per_user in bank.filters.items():
            err = np.empty(k_users)
            for k in range(k_users):
                try:
                    err[k] = per_user[k].squared_error(xs[k], realization.S[k])
                except NumericalError:
                    err[k] = np.nan
            errors[kind] = err
        obs_digest = None
        if digest:
            obs_digest = hashlib.sha256(
                np.ascontiguousarray(obs.y_combined).tobytes()
            ).hexdigest()
        return errors, obs_digest


# Per group cell: the pilot power, {kind: theory_means}, and the (trials,
# n_kinds, K) block of per-trial per-user normalized squared errors.
CellResult = tuple[float, dict[EstimatorKind, tuple[float, float, float]], np.ndarray]


def _trial_block(engine: SweepEngine, snr_index: int, lo: int, hi: int) -> list[CellResult]:
    """Trials lo..hi-1 at one SNR over every group cell, one CellResult per cell.

    The cells run inside each trial, so the realization is drawn once per
    trial.  Each result carries its cell's theory, so no caller needs the
    bank again.
    """
    banks = [engine.bank(gi, snr_index) for gi in range(len(engine.config.n_groups))]
    out = [np.empty((hi - lo, len(b.filters), engine.stats.n_users)) for b in banks]
    for j, trial in enumerate(range(lo, hi)):
        for gi, bank in enumerate(banks):
            errors, _ = engine.run_cell_trial(gi, snr_index, trial)
            for ki, kind in enumerate(bank.filters):
                out[gi][j, ki] = errors[kind]
    return [
        (b.rho, {kind: theory_means(f) for kind, f in b.filters.items()}, e / b.prior_traces)
        for b, e in zip(banks, out)
    ]


_WORKER_ENGINE: SweepEngine | None = None


def _init_worker(config: SweepConfig) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = SweepEngine(config)


def _worker_block(args: tuple[int, int, int]) -> list[CellResult]:
    snr_index, lo, hi = args
    assert _WORKER_ENGINE is not None
    return _trial_block(_WORKER_ENGINE, snr_index, lo, hi)


def run_sweep(config: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """Run all cells of a sweep and aggregate empirical and theoretical NMSE.

    A task is one SNR point, split into trial chunks only when there are more
    workers than SNR points.  Results are bit-identical for a given base seed
    regardless of the worker count: trials are seeded individually and
    reassembled in index order before any reduction.
    """
    if workers < 1:
        raise ConfigurationError(f"need at least one worker, got {workers}")
    n_trials, n_snr = config.n_trials, len(config.snr_db)
    chunks_per_snr = -(-workers // n_snr)  # ceil; 1 unless workers outnumber SNR points
    chunk = -(-n_trials // chunks_per_snr)
    starts = range(0, n_trials, chunk)
    tasks = [(si, lo, min(lo + chunk, n_trials)) for si in range(n_snr) for lo in starts]
    if workers == 1:
        engine = SweepEngine(config)
        results = [_trial_block(engine, *task) for task in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(config,)
        ) as pool:
            results = list(pool.map(_worker_block, tasks))

    rows = []
    for gi, n_groups in enumerate(config.n_groups):
        for si, snr in enumerate(config.snr_db):
            # the tasks run SNR-major, len(starts) of them per SNR point
            chunks = [cells[gi] for cells in results[si * len(starts):(si + 1) * len(starts)]]
            rho, theory = chunks[0][:2]
            samples = np.concatenate([c[2] for c in chunks], axis=0)  # (n_trials, n_kinds, K)
            for ki, (kind, (nmse_theory, _, floor)) in enumerate(theory.items()):
                user_samples = samples[:, ki, :]  # (n_trials, K)
                trial_means = user_samples[~np.isnan(user_samples).any(axis=1)].mean(axis=1)
                nmse = float(trial_means.mean()) if trial_means.size else float("nan")
                if trial_means.size > 1:
                    stderr = float(trial_means.std(ddof=1) / np.sqrt(trial_means.size))
                else:
                    stderr = float("nan")
                rows.append(
                    SweepRow(
                        estimator=kind, n_groups=n_groups, snr_db=snr, rho=rho,
                        trials=n_trials, nmse_empirical=nmse, stderr=stderr,
                        nmse_theory=nmse_theory, nmse_floor=floor, seed=config.base_seed,
                    )
                )
    return rows
