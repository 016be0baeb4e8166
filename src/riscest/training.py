"""RIS training patterns, orthogonal UE pilots and pilot-observation synthesis.

One training round holds T RIS patterns; under each pattern every one of the
K users sends one pilot symbol, so the pilot overhead is K*T symbol slots.
Patterns come from Hadamard rows and are constant within an element group,
which reduces the minimum identifiable T from N+1 to n_groups+1.  Which
elements form a group is data: the round's `TrainingConfig.group_index`
names each element's group, and every element pattern, aggregation and
block prior reads it.

Every antenna sees the same single-antenna mixing block Z_0 (T x (N+1)), so
synthesis multiplies each user's Z_0 with its (N+1) x M target matrix, held
antenna-major, and returns antenna-major observations (K, M, ..., T);
`build_Z` assembles the dense (MT) x M(N+1) matrix I_M (x) Z_0, in the dense
index orders, for the moment formulas and the tests.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, ChannelStatistics, complex_normal
from .errors import ConfigurationError, DomainError


class PatternOrthogonalityWarning(UserWarning):
    """Truncated Hadamard row sets can lose pattern-column orthogonality."""


def hadamard(order: int) -> np.ndarray:
    """Sylvester Hadamard matrix of the given power-of-two order, int entries."""
    if order < 1 or order & (order - 1) != 0:
        raise DomainError(f"Hadamard order must be a power of two, got {order}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def _outside_stacklevel() -> int:
    """The `warnings.warn` stacklevel, for its caller here, of the first frame outside this module.

    TrainingConfig's generated __init__ runs with this module's globals and is
    skipped with it, so a warning raised through `make_training_config`
    points at the line that called it.
    """
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def training_patterns(n_groups: int, n_patterns: int) -> np.ndarray:
    """Group +-1 RIS patterns from Hadamard rows, a complex (T, n_groups) array.

    Row t of the order-2^ceil(log2(T)) Hadamard matrix supplies
    [1, group_pattern_t] as its first n_groups+1 entries.  Every element
    takes its group's column (`TrainingConfig.patterns`).
    """
    if n_patterns < n_groups + 1:
        raise ConfigurationError(
            f"need at least n_groups+1 = {n_groups + 1} patterns for "
            f"identifiability, got {n_patterns}"
        )
    order = 1 << max(0, int(np.ceil(np.log2(n_patterns))))
    if n_patterns & (n_patterns - 1) != 0:
        warnings.warn(
            f"T = {n_patterns} patterns for n_groups = {n_groups} is not a power of two; "
            "the truncated Hadamard row set does not guarantee orthogonal pattern columns",
            PatternOrthogonalityWarning,
            stacklevel=_outside_stacklevel(),
        )
    return hadamard(order)[:n_patterns, 1 : n_groups + 1].astype(complex)


def pilot_sequences(n_users: int) -> np.ndarray:
    """K x K unit-modulus pilot matrix; row k is user k's per-slot symbols.

    Rows are DFT sequences, which keeps sum_i phi_k1[i] * conj(phi_k2[i])
    equal to K * delta(k1, k2) for any user count.
    """
    if n_users < 1:
        raise DomainError("need at least one user")
    k = np.arange(n_users)
    return np.exp(-2j * np.pi * np.outer(k, k) / n_users)


def pilot_overhead(n_users: int, n_elements: int, n_groups: int) -> tuple[int, int]:
    """(full, grouped) pilot overhead in symbol slots: K(N+1) and K(N_G+1)."""
    return n_users * (n_elements + 1), n_users * (n_groups + 1)


@dataclass
class TrainingConfig:
    """One training round: N elements, K users, G groups, T patterns and the noise power.

    group_index (N,) names each element's group, the contiguous blocks
    arange(N) // (N/G), and is the one place the grouping is kept; n_groups
    == N recovers the ungrouped protocol.  tau_p = K*T is the pilot overhead
    actually spent.  The Hadamard group patterns (T, G), the element
    patterns (T, N), each its element's group column, and the (K, K) pilot
    matrix are built with the config.  The round holds no pilot power, so one
    round serves every power.
    """

    n_elements: int
    n_users: int
    n_groups: int
    n_patterns: int
    sigma_w2: float  # noise power, watts

    def __post_init__(self):
        if self.n_groups < 1 or self.n_elements % self.n_groups != 0:
            raise DomainError(f"{self.n_groups} groups do not divide N = {self.n_elements}")
        self.group_index = np.arange(self.n_elements) // (self.n_elements // self.n_groups)
        self.group_patterns = training_patterns(self.n_groups, self.n_patterns)
        self.patterns = self.group_patterns[:, self.group_index]
        self.pilot_matrix = pilot_sequences(self.n_users)
        if not 0.0 <= self.sigma_w2 < np.inf:
            raise ConfigurationError(
                f"the noise power must be nonnegative and finite, got {self.sigma_w2:g}"
            )

    @property
    def tau_p(self) -> int:
        return self.n_users * self.n_patterns


def make_training_config(
    n_elements: int,
    n_users: int,
    n_groups: int | None = None,
    n_patterns: int | None = None,
    sigma_w2: float = 1.0,
) -> TrainingConfig:
    """A TrainingConfig with G = N and the minimum identifiable T = G + 1 by default."""
    n_groups = n_elements if n_groups is None else n_groups
    n_patterns = n_groups + 1 if n_patterns is None else n_patterns
    return TrainingConfig(n_elements, n_users, n_groups, n_patterns, sigma_w2)


def _mixing_block(
    rho_b: float, rho_g: float, rho_a: float, pattern: np.ndarray, m: int
) -> np.ndarray:
    """Mixing [sqrt(rho_b) I_M, sqrt(rho_g rho_a) I_M (x) theta] of each pattern theta.

    pattern has shape (..., N); the result has shape (..., M, M(N+1)).
    """
    *lead, n = pattern.shape
    diag = np.arange(m)
    out = np.zeros((*lead, m, m * (n + 1)), dtype=complex)
    out[..., diag, diag] = np.sqrt(rho_b)
    cascade = out[..., m:].reshape(*lead, m, m, n)  # a view: (row antenna, column antenna, n)
    cascade[..., diag, diag, :] = (np.sqrt(rho_g * rho_a) * pattern)[..., None, :]
    return out


def build_Z(
    k: int,
    stats: ChannelStatistics,
    config: TrainingConfig,
    grouped: bool = False,
) -> np.ndarray:
    """Stacked observation matrix for user k, shape (M*T, M*(N+1)).

    Rows run (t, m).  With grouped=True the group patterns are used instead,
    giving (M*T, M*(n_groups+1)); the combining gain K is included.
    """
    m = stats.m_antennas
    pats = config.group_patterns if grouped else config.patterns
    blocks = _mixing_block(stats.rho_b[k], stats.rho_g[k], stats.rho_a, pats, m)
    return config.n_users * blocks.reshape(config.n_patterns * m, -1)


def mixing_blocks(stats: ChannelStatistics, config: TrainingConfig) -> np.ndarray:
    """Every user's single-antenna mixing block with 1/K folded in, (K, T, N+1).

    Block k is Z_0 / K with Z_0 = K [sqrt(rho_b) 1, sqrt(rho_g rho_a) Theta]:
    the pilot power is left out, so one array serves every power of a round,
    and at pilot power rho user k's pilot contribution per slot is the (T, M)
    matrix sqrt(rho) block_k @ S_k.
    """
    k_users = config.n_users
    out = np.empty((k_users, config.n_patterns, config.n_elements + 1), dtype=complex)
    for k in range(k_users):
        block = _mixing_block(stats.rho_b[k], stats.rho_g[k], stats.rho_a, config.patterns, 1)
        out[k] = block[:, 0, :]
    return out


@dataclass
class ObservationSet:
    """Per-user combined observations of one pilot phase.

    y_antenna[k, m] holds user k's combined observations at antenna m, one
    per pattern, antenna-major like `ChannelRealization.s_antenna`.
    noise_raw[t, i, m] is the AWGN draw added to antenna m in slot i of
    pattern t, kept so the linear model can be reconstructed exactly.  The
    dense y_combined, rows in (t, m) order, is formed on first read.
    """

    noise_raw: np.ndarray  # (..., T, K, M)
    y_antenna: np.ndarray  # (K, M, ..., T)

    @cached_property
    def y_combined(self) -> np.ndarray:
        """The dense observations (..., K, M*T), rows run (t, m)."""
        y = np.moveaxis(self.y_antenna, (0, 1), (-3, -1))  # (..., K, T, M)
        return y.reshape(*y.shape[:-2], -1)


def synthesize_received(
    realization: ChannelRealization,
    stats: ChannelStatistics,
    config: TrainingConfig,
    mixing: np.ndarray,
    rng: np.random.Generator | None = None,
    normals: np.ndarray | None = None,
    workspace: np.ndarray | None = None,
) -> ObservationSet:
    """Simulate the pilot phase and combine per-user observations.

    Per slot, every user's pilot rides through its cascaded channel under the
    active RIS pattern; combining with conjugated pilots isolates user k with
    combined noise covariance K*sigma_w2*I.  Each user's contributions over
    every antenna and trial are one product of its mixing block with its
    antenna-major targets (`ChannelRealization.s_antenna`, a view for the
    sampler's realizations), and the pilot scaling and the combining are one
    product each over every trial and slot.  mixing is the (K, T, N+1)
    `mixing_blocks` of the round times sqrt(rho), which sets the pilot power.
    Noise is drawn once, so every estimator consuming this set sees identical
    observations.

    The realization may carry leading trial axes (`ChannelSampler.sample` with
    stacked normals); so do the outputs.  With n = T*K*M, the noise takes its
    real parts from normals[..., :n] and its imaginary parts from
    normals[..., n:2n], both in (t, k, m) order; normals may be longer, or a
    strided view, and when it is None, 2n standard normals per trial are drawn
    from rng in that order, real parts first.  workspace, when given, is a
    complex array of at least 3n entries per trial whose prefix holds the
    noise, the observations and one intermediate, so a caller that
    synthesizes batch after batch allocates nothing; y_antenna and noise_raw
    are then views of it, valid until it is reused.
    """
    m, n = stats.m_antennas, stats.n_elements
    k_users, t_pats = config.n_users, config.n_patterns
    lead = realization.S.shape[:-3]
    if realization.S.shape[-3:] != (k_users, n + 1, m):
        raise ConfigurationError("realization does not match the configured sizes")
    size = t_pats * k_users * m
    if normals is None:
        normals = rng.standard_normal((*lead, 2 * size))
    n_obs = size * math.prod(lead)
    if workspace is None:
        workspace = np.empty(3 * n_obs, dtype=complex)
    shape = (k_users, m, *lead, t_pats)  # antenna-major, like the targets
    noise, y, y_raw = (workspace[i * n_obs:(i + 1) * n_obs].reshape(shape) for i in range(3))
    # a trial's normals run (t, k, m); the noise is written in (k, m, ..., t) order
    order = (len(lead) + 1, len(lead) + 2, *range(len(lead)), len(lead))
    re, im = (
        normals[..., i * size:(i + 1) * size].reshape(*lead, t_pats, k_users, m).transpose(order)
        for i in (0, 1)
    )
    complex_normal(re, im, out=noise)
    noise *= np.sqrt(config.sigma_w2)

    targets = realization.s_antenna.reshape(k_users, -1, n + 1)  # (K, M * ..., N+1)
    np.matmul(targets, mixing.swapaxes(-1, -2), out=y.reshape(k_users, -1, t_pats))
    phi = config.pilot_matrix  # (K, K), row k = user k
    # y_raw[i] holds slot i's received observations of every antenna, trial and pattern
    np.matmul(phi.T, y.reshape(k_users, -1), out=y_raw.reshape(k_users, -1))
    y_raw += noise
    np.matmul(phi.conj(), y_raw.reshape(k_users, -1), out=y.reshape(k_users, -1))
    noise_raw = noise.transpose(*range(2, len(lead) + 3), 0, 1)  # (..., T, K, M)
    return ObservationSet(noise_raw=noise_raw, y_antenna=y)
