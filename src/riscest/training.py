"""RIS training patterns, orthogonal UE pilots and pilot-observation synthesis.

One training round holds T RIS patterns; under each pattern every one of the
K users sends one pilot symbol, so the pilot overhead is K*T symbol slots.
Patterns come from Hadamard rows and are constant within an element group,
which reduces the minimum identifiable T from N+1 to n_groups+1.  The G
groups are contiguous blocks of N/G element indices, so (N, G) alone fixes
the grouping.

Every antenna sees the same single-antenna mixing block Z_0 (T x (N+1)), so
synthesis multiplies each user's Z_0 with its (N+1) x M target matrix;
`build_Z` assembles the dense (MT) x M(N+1) matrix I_M (x) Z_0, in the dense
index orders, for the moment formulas and the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def training_patterns(
    n_elements: int,
    n_groups: int,
    n_patterns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Group-constant +-1 RIS patterns from Hadamard rows.

    Row t of the order-2^ceil(log2(T)) Hadamard matrix supplies
    [1, group_pattern_t] as its first n_groups+1 entries; group g's value is
    then repeated across elements g*N/G .. (g+1)*N/G - 1.  Returns
    (patterns (T, N), group_patterns (T, N_G)) as complex arrays with
    unit-modulus entries.
    """
    if n_groups < 1 or n_elements % n_groups != 0:
        raise DomainError(f"{n_groups} groups do not divide N = {n_elements}")
    if n_patterns < n_groups + 1:
        raise ConfigurationError(
            f"need at least n_groups+1 = {n_groups + 1} patterns for "
            f"identifiability, got {n_patterns}"
        )
    order = 1 << max(0, int(np.ceil(np.log2(n_patterns))))
    order = max(order, 1 << int(np.ceil(np.log2(n_groups + 1))))
    if n_patterns & (n_patterns - 1) != 0:
        warnings.warn(
            f"T = {n_patterns} is not a power of two; the truncated Hadamard "
            "row set does not guarantee orthogonal pattern columns",
            PatternOrthogonalityWarning,
            stacklevel=2,
        )
    h = hadamard(order)
    group_patterns = h[:n_patterns, 1 : n_groups + 1].astype(complex)
    patterns = np.repeat(group_patterns, n_elements // n_groups, axis=1)
    return patterns, group_patterns


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
    """One training round: N elements, K users, G groups, T patterns and the powers.

    Group g holds the contiguous elements g*N/G .. (g+1)*N/G - 1;
    n_groups == N recovers the ungrouped protocol.  tau_p = K*T is the pilot
    overhead actually spent.  The Hadamard patterns (T, N), their group
    columns (T, G) and the (K, K) pilot matrix follow from these and are
    built with the config, as `patterns`, `group_patterns` and `pilot_matrix`.
    """

    n_elements: int
    n_users: int
    n_groups: int
    n_patterns: int
    rho: np.ndarray  # (K,) pilot powers, watts; a scalar is given to every user
    sigma_w2: float  # noise power, watts

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        self.rho = np.full(self.n_users, float(rho)) if rho.ndim == 0 else rho
        self.patterns, self.group_patterns = training_patterns(
            self.n_elements, self.n_groups, self.n_patterns
        )
        self.pilot_matrix = pilot_sequences(self.n_users)
        if self.rho.shape != (self.n_users,):
            raise ConfigurationError(f"need one pilot power per user, got {self.rho.shape}")
        if self.sigma_w2 < 0 or np.any(self.rho < 0):
            raise ConfigurationError("powers must be nonnegative")

    @property
    def tau_p(self) -> int:
        return self.n_users * self.n_patterns

    @property
    def group_size(self) -> int:
        return self.n_elements // self.n_groups


def make_training_config(
    n_elements: int,
    n_users: int,
    n_groups: int | None = None,
    n_patterns: int | None = None,
    rho: float | np.ndarray = 1.0,
    sigma_w2: float = 1.0,
) -> TrainingConfig:
    """A TrainingConfig with G = N and the minimum identifiable T = G + 1 by default."""
    n_groups = n_elements if n_groups is None else n_groups
    n_patterns = n_groups + 1 if n_patterns is None else n_patterns
    return TrainingConfig(n_elements, n_users, n_groups, n_patterns, rho, sigma_w2)


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
    """Every user's single-antenna mixing block with sqrt(rho_k)/K folded in, (K, T, N+1).

    Block k is sqrt(rho_k)/K Z_0 with Z_0 = K [sqrt(rho_b) 1, sqrt(rho_g rho_a) Theta],
    so user k's pilot contribution per slot is the (T, M) matrix block_k @ S_k.
    """
    k_users = config.n_users
    out = np.empty((k_users, config.n_patterns, config.n_elements + 1), dtype=complex)
    for k in range(k_users):
        block = _mixing_block(stats.rho_b[k], stats.rho_g[k], stats.rho_a, config.patterns, 1)
        out[k] = np.sqrt(config.rho[k]) * block[:, 0, :]
    return out


@dataclass
class ObservationSet:
    """Per-user combined observations of one pilot phase.

    noise_raw[t, i] is the AWGN draw added to the BS vector in slot i of
    pattern t, kept so the linear model can be reconstructed exactly.
    """

    noise_raw: np.ndarray  # (..., T, K, M)
    y_combined: np.ndarray  # (..., K, M*T), rows run (t, m)


def synthesize_received(
    realization: ChannelRealization,
    stats: ChannelStatistics,
    config: TrainingConfig,
    rng: np.random.Generator | None = None,
    mixing: np.ndarray | None = None,
    normals: np.ndarray | None = None,
) -> ObservationSet:
    """Simulate the pilot phase and combine per-user observations.

    Per slot, every user's pilot rides through its cascaded channel under the
    active RIS pattern; combining with conjugated pilots isolates user k with
    combined noise covariance K*sigma_w2*I.  Each user's contributions over
    every trial are one product of its mixing block with its target matrices,
    a view of the user-major targets of `target_matrix`, and the pilot
    scaling and the combining are one product each over every trial and
    slot; mixing (from `mixing_blocks`) may be passed in to avoid rebuilding
    it in tight loops.  Noise is drawn once, so every estimator consuming
    this set sees identical observations.

    The realization may carry leading trial axes (`ChannelSampler.sample` with
    stacked normals); so do the outputs.  With n = T*K*M, the noise takes its real parts from
    normals[..., :n] and its imaginary parts from normals[..., n:2n]; normals
    may be longer, and when it is None, 2n standard normals per trial are drawn
    from rng in that order, real parts first.
    """
    m, n = stats.m_antennas, stats.n_elements
    k_users, t_pats = config.n_users, config.n_patterns
    lead = realization.s.shape[:-2]
    if realization.s.shape[-2:] != (k_users, m * (n + 1)):
        raise ConfigurationError("realization does not match the configured sizes")
    if mixing is None:
        mixing = mixing_blocks(stats, config)
    size = t_pats * k_users * m
    if normals is None:
        normals = rng.standard_normal((*lead, 2 * size))
    shape = (*lead, t_pats, k_users, m)
    noise = complex_normal(
        normals[..., :size].reshape(shape), normals[..., size:2 * size].reshape(shape)
    )
    noise *= np.sqrt(config.sigma_w2)

    # user-major throughout: (K, ..., M, T) arrays with user k's rows first
    targets = np.moveaxis(realization.S, -3, 0).swapaxes(-1, -2)  # (K, ..., M, N+1)
    c = targets.reshape(k_users, -1, n + 1) @ mixing.swapaxes(-1, -2)  # (K, ... * M, T)
    phi = config.pilot_matrix  # (K, K), row k = user k
    # y_raw[i] holds slot i's received (T, M) blocks of every trial
    y_raw = (phi.T @ c.reshape(k_users, -1)).reshape(k_users, *lead, m, t_pats)
    y_raw += np.moveaxis(noise, -2, 0).swapaxes(-1, -2)
    y = (phi.conj() @ y_raw.reshape(k_users, -1)).reshape(y_raw.shape)
    # combined observations in their (t, m) row order
    y_combined = np.moveaxis(y, 0, -3).swapaxes(-1, -2).reshape(*lead, k_users, t_pats * m)
    return ObservationSet(noise_raw=noise, y_combined=y_combined)
