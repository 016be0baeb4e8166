"""Seeded, order-independent Monte Carlo trial engine.

A sweep cell is one (group count, SNR) pair.  Within a trial every estimator
consumes the same channel realization and the same synthesized observation,
so estimator comparisons are paired.  Trials are drawn in fixed blocks of
consecutive indices (see `SweepEngine`), and each block's random stream is
derived from (base_seed, 0, block_index) through numpy's SeedSequence.  The
partition depends on the trial index alone, which makes every result
independent of execution order and worker count.  Every SNR point scores
the same draws (common random numbers), so the points are paired as the
estimators are, and a point's rows do not depend on the rest of the grid.
A block's generator draws its trials' channel normals, then their noise
position-major; every cell takes the leading positions it needs, so its
draws do not depend on the other cells.  The block size and this layout are
part of the stream.

Work runs in scoring batches of whole blocks, over chunks of consecutive
SNR points whose filters fit `SNR_CHUNK_BYTES`: a batch is drawn once per
chunk, one `ChannelSampler.sample` call builds its realizations, which
every cell of the chunk shares, and synthesis and every estimator's
scoring run once per (cell, batch), in buffers the engine reuses from batch
to batch, all on the calling thread.  The batch and chunk sizes are not
part of the stream and change no output byte.

Each group count keeps one power-free state (`build_group_state`): its
training round, every user's mixing block and each user's moment sets,
whose caches hold the spectra, LS rules, trace sums, prior traces, the
grouping-LMMSE factor, the LMMSE-type projected trace products and the
floors.  Every SNR point of the group count builds its cell's estimators
from that state at its own pilot power, with the same bits as a fresh
build; their filters are formed only when trials read them.  Kinds that
are one rule (`estimators.rule_kind`: at G = N both LMMSE kinds, and LS
with grouping LS unless LS is degenerate) share one estimator object, which
is scored once.

Trials run in the antenna basis (`moments.antenna_basis`): synthesis
multiplies each user's (T, N+1) mixing block with its antenna-major
targets, the targets and observations are rotated with one product per
user, and each estimator applies its aligned filter to column 0 and its
orthogonal filter to the other columns (`estimators.AffineEstimator`), so no
dense mixing matrix or filter is formed.
"""

from __future__ import annotations

import hashlib
import math
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
    rule_kind,
)
from .moments import (
    AntennaMomentSet,
    antenna_basis,
    antenna_factor,
    build_moments,
    to_antenna_basis,
)
from .scenario import Scenario
from .training import (
    ObservationSet,
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
        if not any(applicable_kinds(self.estimators, g, n) for g in self.n_groups):
            kinds = " ".join(k.value for k in self.estimators)
            groups = " ".join(str(g) for g in self.n_groups)
            raise ConfigurationError(
                f"no estimator applies at group counts {groups}: {kinds} run only at G = N = {n}"
            )


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
    mixing: np.ndarray  # (K, T, N+1), sqrt(rho) times training.mixing_blocks
    filters: dict[EstimatorKind, list[AffineEstimator]]  # kind -> per-user, one object per rule
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
class _GroupState:
    """One group count's power-free state: its training round and every user's moments.

    tconfig holds the round's patterns, group patterns and pilot matrix,
    mixing every user's mixing block (`training.mixing_blocks`), true each
    user's moment set and model each user's block-ideal one (None unless
    grouping LMMSE is built).  None of them holds a pilot power, so every
    power point reads them as they are, and the sets' caches
    (`MomentSet.power_free`: spectra, LS rules and their trace sums, prior
    traces, the grouping-LMMSE factor, the LMMSE-type projected trace
    products and the floor) serve every point.  Grouping LMMSE keeps its
    factor and products in the block-ideal sets' caches, so the products go
    with the state.
    """

    tconfig: TrainingConfig
    mixing: np.ndarray  # (K, T, N+1)
    true: list[AntennaMomentSet]
    model: list[AntennaMomentSet | None]


def build_group_state(
    stats: ChannelStatistics,
    sigma_w2: float,
    n_groups: int,
    kinds: tuple[EstimatorKind, ...],
) -> _GroupState:
    """A group count's state, with the moment sets the kinds need.

    Every cell trains with the minimum identifiable T = G + 1.
    """
    tconfig = make_training_config(
        n_elements=stats.n_elements,
        n_users=stats.n_users,
        n_groups=n_groups,
        sigma_w2=sigma_w2,
    )
    users = range(stats.n_users)
    true = [build_moments(stats, k, tconfig) for k in users]
    model = [None] * stats.n_users
    if EstimatorKind.GROUPING_LMMSE in kinds:
        model = [build_moments(stats, k, tconfig, block_ideal=True) for k in users]
    return _GroupState(tconfig, mixing_blocks(stats, tconfig), true, model)


def build_cell_bank(
    stats: ChannelStatistics,
    sigma_w2: float,
    n_groups: int,
    rho: float,
    kinds: tuple[EstimatorKind, ...],
    state: _GroupState | None = None,
) -> _CellBank:
    """Training config, mixing blocks and per-user filters of one (G, power) cell.

    state is the group count's power-free state (`build_group_state`), from
    which this cell builds its filters at its own pilot power rho, with the
    same bits as building it anew; without one, a state is built.  Only the
    per-point traces of the cached spectral rules, and sqrt(rho) times the
    state's mixing blocks, remain per cell; a filter is formed when trials
    first read it.
    Kinds that are one rule on a user's moment set (`estimators.rule_kind`:
    at G = N correlated grouping is LMMSE's rule, and grouping LS is LS's
    unless LS is degenerate) build it once, as the first of them asked for,
    and every one of their lists holds that one object.
    """
    if state is None:
        state = build_group_state(stats, sigma_w2, n_groups, kinds)
    kinds = applicable_kinds(kinds, n_groups, stats.n_elements)
    filters: dict[EstimatorKind, list[AffineEstimator]] = {k: [] for k in kinds}
    prior_traces = np.empty(stats.n_users)
    for k, (m_true, m_model) in enumerate(zip(state.true, state.model)):
        built: dict[EstimatorKind, AffineEstimator] = {}  # rule kind -> its estimator
        for kind in kinds:
            rule = rule_kind(kind, m_true)
            if rule not in built:
                built[rule] = make_estimator(kind, m_true, rho, m_model)
            filters[kind].append(built[rule])
        prior_traces[k] = m_true.prior_trace
    return _CellBank(
        stats=stats, tconfig=state.tconfig, mixing=np.sqrt(rho) * state.mixing,
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
# Bytes of one scoring batch's stacked targets, which fix how many whole
# trial blocks a batch holds (at least one).  A batch is only the engine's
# unit of work: every trial's draws are still its own block's, so this constant
# changes no output byte, only the time and memory a sweep takes.
SCORE_BATCH_BYTES = 1 << 18
# Bytes of filters the engine keeps banks for at once, which fix how many
# consecutive SNR points a chunk holds (at least one; `snr_chunk_size`).
# Each scoring batch is drawn once per chunk, and every point reads the same
# draws, so this constant changes no output byte either.
SNR_CHUNK_BYTES = 1 << 21


def snr_chunk_size(config: SweepConfig) -> int:
    """SNR points per chunk: as many as the grid has and SNR_CHUNK_BYTES holds, at least one.

    A point's filters take at most two (N+1, T) complex blocks per
    (applicable kind, user) at each group count, T = G + 1.
    """
    geometry = config.scenario.geometry
    n = geometry.n_elements
    point_bytes = sum(
        32 * (n + 1) * (g + 1) * geometry.n_users * len(applicable_kinds(config.estimators, g, n))
        for g in config.n_groups
    )
    return min(len(config.snr_db), max(1, SNR_CHUNK_BYTES // point_bytes))


@dataclass
class _TrialBatch:
    """One scoring batch of trials: its draws and the scores of the cells run on it."""

    index: int  # the batch index
    lo: int  # first trial index
    realization: ChannelRealization  # stacked, leading axes (blocks, B) over the batch's trials
    normals: np.ndarray  # (blocks, B, 2 T_max K M) noise normals per trial, a view of the draws
    targets: np.ndarray  # (K, M, rows, N+1) the realization's targets in the antenna basis
    # group index -> (the SNR index scored last; (rows, n_kinds, K) squared
    # errors, kinds in the order of the bank's filters; the cell's observations)
    cells: dict[int, tuple[int, np.ndarray, ObservationSet]]


class SweepEngine:
    """The one owner of cell banks; evaluates trials in fixed blocks and batches.

    The SNR grid is cut into chunks of `chunk_size` consecutive points
    (`snr_chunk_size`), and only the banks of the chunk served last are
    kept: asking for a point of another chunk drops them, so memory does not
    grow with the grid.  Each group count keeps one power-free state
    (`build_group_state`), built with its first bank; every bank of that
    group count takes its training config, mixing blocks, moment sets and
    cached power-free terms from it.  The state is dropped once the grid's
    last SNR point is served, so a one-point grid keeps none, and memory
    grows with the number of group counts only.

    The random stream is fixed by the trial block: B = `block_size`
    consecutive indices, block b covering trials [b*B, (b+1)*B), so the
    partition never depends on the worker count.  Each block has one stream
    (`trial_rng`), the same at every SNR point, that draws, always for B
    trials, a (B, n_normals) array whose row j holds trial b*B + j's channel
    normals, and then the noise position-major, a (2*T_max*K*M, B) array
    whose column j holds that trial's noise normals, T_max being the largest
    T over the group cells.  A cell with T reads the first 2*T*K*M
    positions, which the stream draws first whatever T_max is, so a cell's
    draws depend neither on the other group counts and SNR points of the
    sweep nor on the trial count.  At B = 1 a block's stream is its trial's
    own: its channel normals, then the noise a lone
    `synthesize_received(realization, ..., rng)` would draw.  B and this
    layout are part of the stream.

    Work is done in scoring batches of `batch_size` trials, a whole number of
    blocks: batch c covers blocks [c*NB, (c+1)*NB).  A batch draws each block
    into a row of one normals array with one call of the block's generator;
    one `sample` call builds its realizations, and their targets are rotated
    into the antenna basis (`moments.antenna_basis`) once, for every cell.
    The first `run_cell_trial` of a (group count, SNR point) cell in a batch
    synthesizes the whole batch at the point's pilot power, rotates each
    user's observations with one product and scores every (rule, user) with
    one `squared_error` call.  The normals, the synthesis of each group count
    and the scoring write into buffers the engine keeps (`_scratch`), a
    contiguous prefix for a clipped last batch, so a sweep allocates them
    once.  The batch and chunk sizes are not part of the stream and change
    no output byte.  Only the batch served last is kept, with the scores of
    the SNR point each group count ran last on it, and its arrays are valid
    until the next batch is built.  Calls may come in any order, but
    run_cell_trial mutates that cache, so an engine is not safe to share
    between threads; each worker process builds its own.
    """

    def __init__(self, config: SweepConfig):
        self.config = config
        self.stats = config.scenario.statistics()
        k, m, n = self.stats.n_users, self.stats.m_antennas, self.stats.n_elements
        trial_bytes = 16 * k * m * (n + 1)  # one trial's complex targets
        self.block_size = max(1, TRIAL_BLOCK_BYTES // trial_bytes)
        block_bytes = self.block_size * trial_bytes
        self.batch_size = self.block_size * max(1, SCORE_BATCH_BYTES // block_bytes)
        self.chunk_size = snr_chunk_size(config)
        # every cell trains with the minimum identifiable T = G + 1 (build_group_state)
        self._noise_size = 2 * (max(config.n_groups) + 1) * k * m
        self._chunk: int | None = None  # the chunk of SNR points whose banks are kept
        self._banks: dict[tuple[int, int], _CellBank] = {}  # (group, SNR index) -> bank
        self._states: dict[int, _GroupState] = {}  # group index -> state
        self._batch: _TrialBatch | None = None
        self._buffers: dict[object, np.ndarray] = {}
        r = antenna_factor(self.stats.a_bar)  # None only where build_moments refuses the scenario
        self.basis = None if r is None else antenna_basis(r)

    @cached_property
    def sampler(self) -> ChannelSampler:
        return ChannelSampler(self.stats)

    def bank(self, group_index: int, snr_index: int) -> _CellBank:
        chunk = snr_index // self.chunk_size
        if chunk != self._chunk:
            self._banks.clear()  # before the new bank is built, so two chunks never coexist
            self._chunk = chunk
        key = (group_index, snr_index)
        if key not in self._banks:
            cfg = self.config
            n_groups, sigma_w2 = cfg.n_groups[group_index], cfg.scenario.sigma_w2
            rho = received_snr_to_power(cfg.snr_db[snr_index], self.stats, sigma_w2)
            if group_index not in self._states:
                self._states[group_index] = build_group_state(
                    self.stats, sigma_w2, n_groups, cfg.estimators
                )
            self._banks[key] = build_cell_bank(
                self.stats, sigma_w2, n_groups, rho, cfg.estimators, self._states[group_index]
            )
            if snr_index == len(cfg.snr_db) - 1:
                del self._states[group_index]  # no later point of the grid reads it
        return self._banks[key]

    def trial_rng(self, trial_index: int) -> np.random.Generator:
        """The generator of the block holding the trial, which every SNR point reads.

        It is seeded with SeedSequence((base_seed, 0, trial_index //
        block_size)), the stream SNR point 0 read when each point drew its
        own, so every trial of a block shares it; row j of the block's
        channel draw and column j of its noise draw belong to its trial j.
        """
        seq = np.random.SeedSequence((self.config.base_seed, 0, trial_index // self.block_size))
        return np.random.default_rng(seq)

    def _scratch(self, name: object, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        """A C-contiguous array of this shape: the prefix of a buffer kept under name.

        The buffer grows to the largest size asked for and is reused after,
        so its contents last until the next request under the same name.
        """
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def _batch_of(self, trial_index: int) -> _TrialBatch:
        """The batch holding the trial, drawn when it is not the one kept.

        Each block is filled by one draw of its own generator, its channel
        rows and then its noise (the stream of the two draws in turn), so a
        trial's draws do not depend on the batch it sits in.  A clipped last
        batch holds whole blocks too; its rows past the last trial are scored
        and never read.
        """
        if not 0 <= trial_index < self.config.n_trials:
            raise IndexError(f"trial {trial_index} outside 0..{self.config.n_trials - 1}")
        index = trial_index // self.batch_size
        if self._batch is None or self._batch.index != index:
            self._batch = None  # before the next batch is built, so two never coexist
            b, n_channel = self.block_size, self.sampler.n_normals
            lo = index * self.batch_size
            n_blocks = -(-(min(lo + self.batch_size, self.config.n_trials) - lo) // b)
            rows = self._scratch("normals", (n_blocks, b * (n_channel + self._noise_size)), float)
            for i, row in enumerate(rows):
                self.trial_rng(lo + i * b).standard_normal(out=row)
            channel = rows[:, :b * n_channel].reshape(-1, b, n_channel)
            noise = rows[:, b * n_channel:].reshape(-1, self._noise_size, b)
            realization = self.sampler.sample(normals=channel)  # leading axes (blocks, B)
            s_antenna = realization.s_antenna  # (K, M, blocks, B, N+1), a view
            k_users, m = s_antenna.shape[:2]
            targets = self._scratch("targets", (k_users, m, n_blocks * b, s_antenna.shape[-1]))
            for k in range(k_users):
                to_antenna_basis(self.basis, s_antenna[k], out=targets[k])
            # each trial's noise normals, a (blocks, B, 2 T_max K M) view of the draws
            self._batch = _TrialBatch(index, lo, realization, noise.swapaxes(1, 2), targets, {})
        return self._batch

    def _score_batch(
        self, group_index: int, bank: _CellBank, batch: _TrialBatch
    ) -> tuple[np.ndarray, ObservationSet]:
        """Squared errors of every (trial, kind, user) of a batch, and its observations.

        Each group count synthesizes into its own workspace, so its
        observations last until it runs another SNR point on the batch, or
        the batch is dropped; each user's observations are rotated into the
        antenna basis with one product, and every `squared_error` scores a
        (kind, user) over the batch in a residual buffer the cells share.  A
        kind whose entry is an earlier kind's estimator (at G = N, LMMSE's or
        LS's; `build_cell_bank`) copies that kind's column instead.  A
        NumericalError of one estimator is recorded as NaN for that
        (kind, user) over the batch rather than aborting the sweep.
        """
        k_users, m, rows, n_s = batch.targets.shape
        t_pats = bank.tconfig.n_patterns
        workspace = self._scratch(("synthesis", group_index), (3 * k_users * m * rows * t_pats,))
        obs = synthesize_received(
            batch.realization, self.stats, bank.tconfig, bank.mixing,
            normals=batch.normals, workspace=workspace,
        )
        xs = self._scratch("observations", (k_users, m, rows, t_pats))
        for k in range(k_users):
            to_antenna_basis(self.basis, obs.y_antenna[k], out=xs[k])
        residual = self._scratch("residual", (m, rows, n_s))
        errors = np.empty((rows, len(bank.filters), k_users))
        scored: dict[int, int] = {}  # id of an estimator -> the kind column scoring it
        for i, per_user in enumerate(bank.filters.values()):
            for k, f in enumerate(per_user):
                j = scored.setdefault(id(f), i)
                if j != i:  # an earlier kind's estimator (build_cell_bank)
                    errors[:, i, k] = errors[:, j, k]
                    continue
                try:
                    errors[:, i, k] = f.squared_error(xs[k], batch.targets[k], out=residual)
                except NumericalError:
                    errors[:, i, k] = np.nan
        return errors, obs

    def run_cell_trial(
        self, group_index: int, snr_index: int, trial_index: int, digest: bool = False
    ) -> tuple[dict[EstimatorKind, np.ndarray], str | None]:
        """Squared errors per estimator and user for one paired trial.

        The trial's batch is scored for this cell on first use and kept
        until the group count runs another SNR point on it, whose synthesis
        takes the same workspace; digest hashes this trial's own combined
        observation.  Failures of a single estimator are recorded as NaN
        rather than aborting the sweep.
        """
        bank = self.bank(group_index, snr_index)
        batch = self._batch_of(trial_index)
        cell = batch.cells.get(group_index)
        if cell is None or cell[0] != snr_index:
            cell = batch.cells[group_index] = (
                snr_index, *self._score_batch(group_index, bank, batch)
            )
        _, errors, obs = cell
        j = trial_index - batch.lo
        obs_digest = None
        if digest:
            y = obs.y_combined.reshape(-1, *obs.y_combined.shape[-2:])[j]
            obs_digest = hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()
        return dict(zip(bank.filters, errors[j])), obs_digest


# Per group cell: the pilot power, {kind: theory_means}, and the (trials,
# n_kinds, K) block of per-trial per-user normalized squared errors.
CellResult = tuple[float, dict[EstimatorKind, tuple[float, float, float]], np.ndarray]


def _trial_block(
    engine: SweepEngine, snrs: range, lo: int, hi: int
) -> list[list[CellResult]]:
    """Trials lo..hi-1 at a chunk of SNR points: per point, one CellResult per group cell.

    Each scoring batch is drawn once and every (SNR point, group count)
    cell runs on it.  For each (cell, batch), `run_cell_trial` on the
    batch's first trial in range scores the batch (it is also the span
    perfbench/tracing.py times), and one slice copies the batch's rows in
    range.  Each result carries its cell's theory, so no caller needs the
    bank again.
    """
    n_cells, n_users, size = len(engine.config.n_groups), engine.stats.n_users, engine.batch_size
    banks = [[engine.bank(gi, si) for gi in range(n_cells)] for si in snrs]
    out = [[np.empty((hi - lo, len(b.filters), n_users)) for b in row] for row in banks]
    for c in range(lo // size, -(-hi // size)):
        start, stop = max(lo, c * size), min(hi, (c + 1) * size)
        for si, row, point in zip(snrs, banks, out):
            for gi, (bank, errors) in enumerate(zip(row, point)):
                engine.run_cell_trial(gi, si, start)
                scored = engine._batch.cells[gi][1][start - c * size:stop - c * size]
                np.divide(scored, bank.prior_traces, out=errors[start - lo:stop - lo])
    return [
        [(b.rho, {kind: theory_means(f) for kind, f in b.filters.items()}, e) for b, e in zip(*p)]
        for p in zip(banks, out)
    ]


_WORKER_ENGINE: SweepEngine | None = None


def _init_worker(config: SweepConfig) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = SweepEngine(config)


def _worker_block(args: tuple[range, int, int]) -> list[list[CellResult]]:
    assert _WORKER_ENGINE is not None
    return _trial_block(_WORKER_ENGINE, *args)


def run_sweep(config: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """Run all cells of a sweep and aggregate empirical and theoretical NMSE.

    A task is one chunk of SNR points (`snr_chunk_size`), split into trial
    ranges only when there are more workers than chunks.  Results are
    bit-identical for a given base seed regardless of the worker count: each
    block of trials is seeded by its index, a range that starts or ends
    inside a block draws the whole block, and trials are reassembled in
    index order before any reduction.
    """
    if workers < 1:
        raise ConfigurationError(f"need at least one worker, got {workers}")
    n_trials, n_snr = config.n_trials, len(config.snr_db)
    size = snr_chunk_size(config)
    chunks = [range(lo, min(lo + size, n_snr)) for lo in range(0, n_snr, size)]
    ranges = -(-workers // len(chunks))  # ceil; 1 unless workers outnumber the chunks
    step = -(-n_trials // ranges)
    starts = range(0, n_trials, step)
    tasks = [(snrs, lo, min(lo + step, n_trials)) for snrs in chunks for lo in starts]
    if workers == 1:
        engine = SweepEngine(config)
        results = [_trial_block(engine, *task) for task in tasks]
    else:
        import concurrent.futures  # only a pooled run pays for the import

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(config,)
        ) as pool:
            results = list(pool.map(_worker_block, tasks))

    points: dict[int, list[list[CellResult]]] = {}  # SNR index -> its cells per trial range
    for (snrs, _, _), cells in zip(tasks, results):
        for si, point in zip(snrs, cells):
            points.setdefault(si, []).append(point)
    rows = []
    for gi, n_groups in enumerate(config.n_groups):
        for si, snr in enumerate(config.snr_db):
            parts = [point[gi] for point in points[si]]  # in trial order
            rho, theory = parts[0][:2]
            samples = np.concatenate([p[2] for p in parts], axis=0)  # (n_trials, n_kinds, K)
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
