"""Seeded, order-independent Monte Carlo trial engine.

A sweep cell is one (group count, SNR) pair.  Within a trial every estimator
consumes the same channel realization and the same synthesized observation,
so estimator comparisons are paired.  Trials run in fixed blocks of
consecutive indices (see `SweepEngine`), and each block's random stream is
derived from (base_seed, snr_index, block_index) through numpy's
SeedSequence.  The partition depends on the trial index alone, which makes
every result independent of execution order and worker count.  One draw
call gives a block's channel normals and a run of noise normals per trial,
one `ChannelSampler.sample` call builds its realizations, and the group
cells share them: every cell takes the prefix of each trial's noise it needs.

Synthesis, the split and every estimator's scoring run once per (cell,
block), and each estimator scores a user's trials with one matrix product.

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
# asymptotic_mse is unused here but stays: perfbench/tracing.py patches it on this module.
from .estimators import (  # noqa: F401
    AffineEstimator,
    EstimatorKind,
    GROUPED_KINDS,
    asymptotic_mse,
    make_estimator,
)
from .moments import AntennaMomentSet, antenna_factor, build_moments, split_observation
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


def received_snr_to_power(snr_db: float, stats: ChannelStatistics, sigma_w2: float) -> float:
    """Pilot power giving the requested mean combined pilot SNR per BS antenna.

    The received SNR is defined as rho * K * N * rho_a * mean(rho_g) over the
    noise power sigma_w2, i.e. the average cascaded pilot power collected
    through all N elements and K combined slots.
    """
    k, n = stats.n_users, stats.n_elements
    gain = k * n * stats.rho_a * float(np.mean(stats.rho_g))
    try:
        rho = 10.0 ** (snr_db / 10.0) * sigma_w2 / gain
    except OverflowError:
        rho = np.inf
    if not 0.0 < rho < np.inf:  # every rule needs a finite, nonzero K sigma^2 / rho
        raise ConfigurationError(f"received SNR {snr_db:g} dB gives the pilot power {rho:g}")
    return rho


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


@dataclass(eq=False)
class _UserState:
    """User k's power-free moments at one group count.

    Every SNR point derives its moment sets from these with `at_power`, which
    shares their power-free caches (spectra, LS rules, floor); the block-ideal
    model is None unless grouping LMMSE is built.
    """

    true: AntennaMomentSet
    model: AntennaMomentSet | None


def _user_state(
    stats: ChannelStatistics, k: int, tconfig: TrainingConfig, kinds: tuple[EstimatorKind, ...]
) -> _UserState:
    """User k's state, built at the power of tconfig with the sets the kinds need."""
    m_model = None
    if EstimatorKind.GROUPING_LMMSE in kinds:
        m_model = build_moments(stats, k, tconfig, block_ideal=True)
    return _UserState(build_moments(stats, k, tconfig), m_model)


def build_cell_bank(
    stats: ChannelStatistics,
    sigma_w2: float,
    n_groups: int,
    rho: float,
    kinds: tuple[EstimatorKind, ...],
    states: dict[int, _UserState],
) -> _CellBank:
    """Training config, mixing blocks and per-user filters of one (G, power) cell.

    states maps user index to that user's power-free moments for this group
    count (`_UserState`).  A missing user's state is built here, at this
    cell's power; every power point then scales the state's moments to its
    own pilot power, which gives the same bits as building them anew.
    Only the per-point products of the cached spectral rules remain per cell.
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
        if k not in states:
            states[k] = _user_state(stats, k, tconfig, kinds)
        state, rho_k = states[k], float(tconfig.rho[k])
        m_true = state.true.at_power(rho_k)
        m_model = None if state.model is None else state.model.at_power(rho_k)
        for kind in kinds:
            filters[kind].append(make_estimator(kind, m_true, m_model))
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


# Bytes of one trial block's stacked complex targets, B * 16 * K * M * (N+1),
# that fix the trial-block size B (at least one trial).  B is part of the
# random stream, since each block has one generator: changing this constant
# changes the empirical columns of every scenario with B > 1.
TRIAL_BLOCK_BYTES = 1 << 16


def _user_major(a: np.ndarray) -> np.ndarray:
    """(B, K, R, C) as a (K, B, R, C) view of a C-contiguous (K, B, C, R) copy.

    A user's slice then folds its (trial, column) pairs into the rows of one
    matrix without a copy (`AffineEstimator.squared_error`), as the split
    observations of `split_observation` do.
    """
    return np.ascontiguousarray(np.moveaxis(a, 1, 0).swapaxes(-1, -2)).swapaxes(-1, -2)


@dataclass
class _TrialBlock:
    """One (SNR, block) of trials: its draws and the scores of the cells run on it."""

    key: tuple[int, int]  # (snr_index, block_index)
    lo: int  # first trial index
    realization: ChannelRealization  # stacked, leading axis over the block's trials
    normals: np.ndarray  # (B, 2 T_max K M) noise normals per trial, a view of the draws
    targets: np.ndarray  # (K, B, N+1, M) user-major view of realization.S (`_user_major`)
    # group index -> ({kind: (B, K) squared errors}, (B, K, M*T) y_combined)
    cells: dict[int, tuple[dict[EstimatorKind, np.ndarray], np.ndarray]]


class SweepEngine:
    """The one owner of cell banks; evaluates trials in fixed blocks.

    Only the banks of the SNR point served last are kept: asking for another
    SNR point drops them, so memory does not grow with the grid.  Each group
    count keeps one power-free state (`_UserState` per user), built with its
    first bank; every later bank of that group count derives its moment sets,
    spectra and floors from it.  The state is dropped once the grid's last SNR point
    is served, so a one-point grid keeps none, and memory grows with the
    number of group counts only.

    Trials are drawn and scored in blocks of B = `block_size` consecutive
    indices, block b covering trials [b*B, (b+1)*B), so the partition never
    depends on the worker count.  Each block has one stream (`trial_rng`):
    one call draws a (rows, n_normals + 2*T_max*K*M) array whose row j holds
    trial b*B + j's channel normals and then its noise normals, T_max being
    the largest T over the group cells, and one `sample` call builds the
    block.  A cell with T takes the first 2*T*K*M noise normals of a row, as
    a lone `synthesize_received(realization, ..., rng)` would draw after the
    channel.  At B = 1 a block's stream is its trial's own.  The first
    `run_cell_trial` of a cell in a block synthesizes, splits and scores the
    whole block at once; the group cells share its realizations.  Only the
    block served last is kept, with its cells' scores.  Calls may come in any
    order, but run_cell_trial mutates that cache, so an engine is not safe to
    share between threads.  Each worker process builds its own.
    """

    def __init__(self, config: SweepConfig):
        self.config = config
        self.stats = config.scenario.statistics()
        k, m, n = self.stats.n_users, self.stats.m_antennas, self.stats.n_elements
        self.block_size = max(1, TRIAL_BLOCK_BYTES // (16 * k * m * (n + 1)))
        # every cell trains with the minimum identifiable T = G + 1 (build_cell_bank)
        self._noise_size = 2 * (max(config.n_groups) + 1) * k * m
        self._snr_index: int | None = None  # the SNR point whose banks are kept
        self._banks: dict[int, _CellBank] = {}  # group index -> bank
        self._states: dict[int, dict[int, _UserState]] = {}  # group index -> user -> state
        self._block: _TrialBlock | None = None

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
                received_snr_to_power(cfg.snr_db[snr_index], self.stats, cfg.scenario.sigma_w2),
                cfg.estimators, self._states.setdefault(group_index, {}),
            )
            if snr_index == len(cfg.snr_db) - 1:
                del self._states[group_index]  # no later point of the grid reads it
        return self._banks[group_index]

    def trial_rng(self, snr_index: int, trial_index: int) -> np.random.Generator:
        """The generator of the block holding the trial.

        It is seeded with SeedSequence((base_seed, snr_index, trial_index //
        block_size)), so every trial of a block shares it; row j of the
        block's draw belongs to its trial j.
        """
        seq = np.random.SeedSequence(
            (self.config.base_seed, snr_index, trial_index // self.block_size)
        )
        return np.random.default_rng(seq)

    def _block_of(self, snr_index: int, trial_index: int) -> _TrialBlock:
        """The block holding the trial, drawn (one call) when it is not the one kept."""
        if not 0 <= trial_index < self.config.n_trials:
            raise IndexError(f"trial {trial_index} outside 0..{self.config.n_trials - 1}")
        key = (snr_index, trial_index // self.block_size)
        if self._block is None or self._block.key != key:
            self._block = None  # before the next block is drawn, so two never coexist
            lo = key[1] * self.block_size
            n_channel = self.sampler.n_normals
            shape = (min(self.block_size, self.config.n_trials - lo), n_channel + self._noise_size)
            normals = self.trial_rng(snr_index, lo).standard_normal(shape)  # row j: trial lo + j
            realization = self.sampler.sample(normals=normals)
            targets = _user_major(realization.S)
            self._block = _TrialBlock(key, lo, realization, normals[:, n_channel:], targets, {})
        return self._block

    def _score_block(
        self, bank: _CellBank, block: _TrialBlock
    ) -> tuple[dict[EstimatorKind, np.ndarray], np.ndarray]:
        """Squared errors per kind of every (trial, user) of a block, and its observations.

        The split observations are built user-major once per (cell, block),
        like the block's targets, so every `squared_error` folds a user's
        trials into one product without a copy.  A NumericalError of
        one estimator is recorded as NaN for that (kind, user) over the block
        rather than aborting the sweep.
        """
        obs = synthesize_received(
            block.realization, self.stats, bank.tconfig, mixing=bank.mixing, normals=block.normals
        )
        xs = split_observation(bank.r, np.moveaxis(obs.y_combined, 1, 0))  # (K, B, 2T, M)
        errors: dict[EstimatorKind, np.ndarray] = {}
        for kind, per_user in bank.filters.items():
            err = np.empty(xs.shape[1::-1])  # (B, K)
            for k, f in enumerate(per_user):
                try:
                    err[:, k] = f.squared_error(xs[k], block.targets[k])
                except NumericalError:
                    err[:, k] = np.nan
            errors[kind] = err
        return errors, obs.y_combined

    def run_cell_trial(
        self, group_index: int, snr_index: int, trial_index: int, digest: bool = False
    ) -> tuple[dict[EstimatorKind, np.ndarray], str | None]:
        """Squared errors per estimator and user for one paired trial.

        The trial's block is scored for this cell on first use and kept;
        digest hashes this trial's own combined observation.  Failures of a
        single estimator are recorded as NaN rather than aborting the sweep.
        """
        bank = self.bank(group_index, snr_index)
        block = self._block_of(snr_index, trial_index)
        if group_index not in block.cells:
            block.cells[group_index] = self._score_block(bank, block)
        errors, y_combined = block.cells[group_index]
        j = trial_index - block.lo
        obs_digest = None
        if digest:
            obs_digest = hashlib.sha256(np.ascontiguousarray(y_combined[j]).tobytes()).hexdigest()
        return {kind: err[j] for kind, err in errors.items()}, obs_digest


# Per group cell: the pilot power, {kind: theory_means}, and the (trials,
# n_kinds, K) block of per-trial per-user normalized squared errors.
CellResult = tuple[float, dict[EstimatorKind, tuple[float, float, float]], np.ndarray]


def _trial_block(engine: SweepEngine, snr_index: int, lo: int, hi: int) -> list[CellResult]:
    """Trials lo..hi-1 at one SNR over every group cell, one CellResult per cell.

    The cells run inside each trial, so each block is drawn once; the
    engine scores a cell's whole trial block on the block's first call.
    Each result carries its cell's theory, so no caller needs the bank again.
    """
    banks = [engine.bank(gi, snr_index) for gi in range(len(engine.config.n_groups))]
    out = [np.empty((hi - lo, len(b.filters), engine.stats.n_users)) for b in banks]
    for j, trial in enumerate(range(lo, hi)):
        for gi, bank in enumerate(banks):
            errors, _ = engine.run_cell_trial(gi, snr_index, trial)
            out[gi][j] = tuple(errors.values())  # in the order of bank.filters
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
    regardless of the worker count: each block of trials is seeded by its
    index, a chunk that starts or ends inside a block draws the whole block,
    and trials are reassembled in index order before any reduction.
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
