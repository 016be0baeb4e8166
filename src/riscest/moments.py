"""Closed-form moments of the cascaded channel, its group aggregates and the
pilot observation.

All moments are expressed for the unit-large-scale-power target vector
s = [b; a_1*g; ...; a_M*g]; the observation matrices carry the gains, which
keeps the direct-link block of the prior covariance at the identity whenever
that link exists.  A blocked direct link zeroes both the corresponding
observation columns and the prior block, so the unobservable coordinates
carry no phantom error.

Antenna domain.  The RIS-BS LoS vectors share one RIS-side factor,
a_bar = outer(r, v) with unit-modulus r (as `bs_los_vectors` builds them),
so user k's prior is (r r^H) (x) A + I_M (x) B in the antenna-major order and
every mixing matrix is I_M (x) Z_0.  Rotating the antennas by any unitary
whose first column is r/sqrt(M) splits the M(N+1)-dimensional problem into
independent (N+1)-dimensional ones: one "aligned" block with prior M A + B
and mean sqrt(M) coef (v . g_bar_k), and M-1 identical "orthogonal" blocks
with prior B and zero mean (none for M = 1).  `build_moments` returns that
form (`AntennaMomentSet`), which holds the two blocks and nothing dense;
`combine_blocks` assembles any dense matrix from its per-block values.
Trials take the rotation `antenna_basis` (first column conj(r)/sqrt(M)) of
their antenna-major targets and observations (`to_antenna_basis`), where
column 0 is the aligned block's and every other column an orthogonal one's.
`observation_moments` builds the dense `MomentSet` directly and is the
oracle the tests hold the antenna form to.

Grouping.  A moment set carries its round's `TrainingConfig.group_index`,
from which alone the aggregation matrix P (`group_aggregation_matrix`), the
aggregates' prior (`cov_uu`) and the block-ideal prior are built.

Pilot power.  A moment set holds no pilot power: the prior, the
observation matrices and their products with the prior serve every power
rho, which enters the observation moments as sqrt(rho) and rho
(`MomentSet.mean_y`, `cov_sy`, `cov_yy`) and a filter only through
`estimators`.  What is derived from a set without rho is kept in its
`MomentSet.power_free` cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .channel import ChannelStatistics
from .errors import DomainError
from .training import TrainingConfig, build_Z

# a_bar factors as outer(r, v) when it matches within this absolute
# tolerance; its entries are unit modulus, so this is relative too.
FACTOR_TOL = 1e-12


@dataclass(eq=False)
class MomentSet:
    """Everything a linear estimator needs for one user, at any pilot power.

    The fields hold no pilot power.  Shapes: mean_s (n_s,), cov_ss (n_s,
    n_s), Z (n_y, n_s), Z_G (n_y, n_u) and the products z_mean = Z mean_s,
    cov_szh = cov_ss Z^H and z_cov_zh = Z cov_ss Z^H, with n_s = M(N+1),
    n_u = M(n_groups+1) and n_y = M*T; group_index (N,) is the round's
    grouping.  The observation moments at pilot power rho, `mean_y`, `cov_sy`
    and `cov_yy`, are formed from them on every call.  power_free caches what
    is derived without pilot power: the prior trace here, and in `estimators`
    the spectrum of z_cov_zh, the LS rules with their error-trace sums, the
    grouping-LMMSE factor and the floor.
    """

    mean_s: np.ndarray
    cov_ss: np.ndarray
    Z: np.ndarray
    Z_G: np.ndarray
    z_mean: np.ndarray
    cov_szh: np.ndarray
    z_cov_zh: np.ndarray
    sigma_w2: float
    n_users: int
    m_antennas: int
    group_index: np.ndarray
    power_free: dict[str, object] = field(default_factory=dict, repr=False)

    def mean_y(self, rho: float) -> np.ndarray:
        return np.sqrt(rho) * self.z_mean

    def cov_sy(self, rho: float) -> np.ndarray:
        return np.sqrt(rho) * self.cov_szh

    def cov_yy(self, rho: float) -> np.ndarray:
        n_y = self.z_cov_zh.shape[0]
        return rho * self.z_cov_zh + self.n_users * self.sigma_w2 * np.eye(n_y)

    @property
    def r(self) -> None:
        """A dense set carries no antenna factor."""
        return None

    @property
    def blocks(self) -> tuple[tuple[MomentSet, int], ...]:
        """The independent problems making up this set, with their multiplicities."""
        return ((self, 1),)

    @property
    def prior_trace(self) -> float:
        """trace(cov_ss), kept in power_free on first read, since it holds no power."""
        if "prior_trace" not in self.power_free:
            self.power_free["prior_trace"] = float(np.trace(self.cov_ss).real)
        return self.power_free["prior_trace"]


def _antenna_order(m_antennas: int, per_antenna: int, observation: bool) -> np.ndarray:
    """Antenna-major position (m, i) of every dense index.

    Dense target and aggregate vectors run [b_1..b_M; (m, n)], where i = 0 is
    antenna m's direct entry; observations run (t, m).
    """
    idx = np.arange(m_antennas * per_antenna).reshape(m_antennas, per_antenna)
    if observation:
        return idx.T.ravel()
    return np.concatenate([idx[:, 0], idx[:, 1:].ravel()])


def combine_blocks(
    r: np.ndarray | None,
    xs: Sequence[np.ndarray],
    rows: str = "s",
    cols: str = "s",
) -> np.ndarray:
    """Dense matrix of a block-diagonal operator given by its per-block values.

    A lone block (a dense set, or one antenna) is returned as is.  Otherwise
    xs holds the aligned and orthogonal blocks X_0, X_1, and the dense matrix
    is (r r^H / M) (x) (X_0 - X_1) + I_M (x) X_1, reordered from antenna-major
    into the dense index order: rows and cols are "s" for target or aggregate
    indices and "y" for observation indices.  The result is C-contiguous.
    """
    if len(xs) == 1:
        return xs[0]
    x0, x1 = xs
    m = r.size
    p, q = x0.shape
    diag = np.arange(m)
    # x[m1, i, m2, j] = r_m1 conj(r_m2) / M (X_0 - X_1)[i, j] + delta(m1, m2) X_1[i, j]
    x = (np.outer(r, r.conj()) / m)[:, None, :, None] * (x0 - x1)[None, :, None, :]
    x[diag, :, diag, :] += x1
    x = x.reshape(m * p, m * q)[:, _antenna_order(m, q, cols == "y")]
    return x[_antenna_order(m, p, rows == "y")]  # a row gather is C-contiguous


def antenna_basis(r: np.ndarray) -> np.ndarray:
    """The unitary (M, M) Q = diag(conj(r)) F / sqrt(M), F the M-point DFT with F[:, 0] = 1.

    Its first column is conj(r)/sqrt(M).  For a target or observation matrix
    X with one column per antenna (`channel.target_matrix`), column 0 of XQ
    is the aligned block's coordinate and columns 1..M-1 are orthogonal
    blocks': the combine_blocks rule of blocks W_0, W_1 maps Y to S_hat with
    S_hat Q = [W_0 (YQ)[:, 0], W_1 (YQ)[:, 1], ..., W_1 (YQ)[:, M-1]], and
    since Q is unitary every error norm is the same in either basis.
    """
    m = r.size
    dft = np.exp(-2j * np.pi / m * np.outer(np.arange(m), np.arange(m)))
    return r.conj()[:, None] * dft / np.sqrt(m)


def to_antenna_basis(q: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Antenna-major x (M, ..., n) in the basis q: out[j] = sum_m q[m, j] x[m].

    This is XQ laid out antenna-major, formed with one (M x M)(M x ...n)
    product; out, when given, is a C-contiguous complex array of x's shape.
    """
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(q, x))
    np.matmul(q.T, x.reshape(x.shape[0], -1), out=out.reshape(x.shape[0], -1))
    return out


@dataclass(eq=False, repr=False)
class AntennaMomentSet:
    """User moments split into the aligned and orthogonal antenna-domain blocks.

    aligned and orthogonal are single-antenna (N+1)-dimensional moment sets;
    the orthogonal one stands for M-1 identical blocks, so with one antenna
    the aligned block is the whole problem.  A dense matrix is
    combine_blocks over the two blocks' values; only the aligned block has a
    mean, so the dense target mean is outer(aligned.mean_s, r)/sqrt(M) in the
    target_matrix form.
    """

    r: np.ndarray  # (M,) unit modulus, a_bar = outer(r, a_bar[0])
    aligned: MomentSet
    orthogonal: MomentSet

    @property
    def blocks(self) -> tuple[tuple[MomentSet, int], ...]:
        if self.r.size == 1:
            return ((self.aligned, 1),)
        return ((self.aligned, 1), (self.orthogonal, self.r.size - 1))

    @property
    def prior_trace(self) -> float:
        return sum(mult * b.prior_trace for b, mult in self.blocks)


def antenna_factor(a_bar: np.ndarray) -> np.ndarray | None:
    """Unit-modulus r with a_bar == outer(r, a_bar[0]), or None; [1] for one antenna."""
    if a_bar[0, 0] == 0:
        return None
    r = a_bar[:, 0] / a_bar[0, 0]
    unit = np.allclose(np.abs(r), 1.0, rtol=0.0, atol=FACTOR_TOL)
    if not (unit and np.allclose(np.outer(r, a_bar[0]), a_bar, rtol=0.0, atol=FACTOR_TOL)):
        return None
    return r


def _mean(stats: ChannelStatistics, k: int, a_bar: np.ndarray) -> np.ndarray:
    ka, kg = stats.fading.kappa_a, stats.fading.kappa_g
    coef = np.sqrt(ka * kg / ((1.0 + ka) * (1.0 + kg)))
    cascade = coef * (a_bar * stats.g_bar[k][None, :])  # (M, N)
    return np.concatenate([np.zeros(a_bar.shape[0], dtype=complex), cascade.reshape(-1)])


def mean_s(stats: ChannelStatistics, k: int) -> np.ndarray:
    """Mean of the cascaded target: LoS products scaled by both Rician weights."""
    return _mean(stats, k, stats.a_bar)


def _cascade_cov(
    a_bar: np.ndarray,
    g_bar_k: np.ndarray,
    r0: np.ndarray,
    rk: np.ndarray,
    kappa_a: float,
    kappa_g: float,
) -> np.ndarray:
    """(MN, MN) covariance of the stacked per-antenna cascades a_m * g."""
    m, n = a_bar.shape
    rg = rk / (1.0 + kappa_g)
    ra = r0 / (1.0 + kappa_a)
    g_outer = (kappa_g / (1.0 + kappa_g)) * np.outer(g_bar_k, g_bar_k.conj())
    same_antenna = ra * (g_outer + rg)  # elementwise products throughout
    # cross[m1, m2] = kappa_a/(1+kappa_a) * outer(a_m1, a_m2*) (.) rg
    cross = (kappa_a / (1.0 + kappa_a)) * np.einsum(
        "ip,jq->ijpq", a_bar, a_bar.conj()
    ) * rg[None, None, :, :]
    cross[np.arange(m), np.arange(m)] += same_antenna[None, :, :]
    return cross.transpose(0, 2, 1, 3).reshape(m * n, m * n)


def _prior(
    stats: ChannelStatistics,
    k: int,
    a_bar: np.ndarray,
    r0: np.ndarray,
    rk: np.ndarray,
    direct_present: bool,
) -> np.ndarray:
    """[b; cascade] prior covariance for the LoS rows a_bar, shape (M'(N+1), M'(N+1))."""
    m, n = a_bar.shape
    out = np.zeros((m * (n + 1), m * (n + 1)), dtype=complex)
    if direct_present:
        out[:m, :m] = np.eye(m)
    out[m:, m:] = _cascade_cov(
        a_bar, stats.g_bar[k], r0, rk, stats.fading.kappa_a, stats.fading.kappa_g,
    )
    return out


def _block_correlation(group_index: np.ndarray) -> np.ndarray:
    """All-ones within a group, zero across groups."""
    return (group_index[:, None] == group_index[None, :]).astype(complex)


def cov_ss(stats: ChannelStatistics, k: int) -> np.ndarray:
    """Prior covariance of the cascaded target for user k, shape (M(N+1), M(N+1)).

    The direct-link block is the identity when that link exists and zero when
    it is blocked (rho_b[k] == 0), matching what the sampler actually emits.
    """
    return _prior(stats, k, stats.a_bar, stats.R0, stats.R[k], stats.rho_b[k] > 0)


def cov_ss_block_ideal(stats: ChannelStatistics, k: int, group_index: np.ndarray) -> np.ndarray:
    """Prior covariance under the idealized block-correlation model.

    Replaces both scattering correlation matrices with the block matrix that
    is all-ones within a group and zero across groups, i.e. the assumption
    that elements in a group share identical scattering while groups are
    independent.  group_index (N,) names each element's group.
    """
    block = _block_correlation(group_index)
    return _prior(stats, k, stats.a_bar, block, block, stats.rho_b[k] > 0)


def group_aggregation_matrix(group_index: np.ndarray, m_antennas: int) -> np.ndarray:
    """Real matrix P with u = P (s - E[s]): direct block copied, groups summed.

    Shape (M(G+1), M(N+1)) for the grouping group_index (N,) of G groups.
    The cascade runs antenna-major, so its block is I_M (x) H with the
    one-hot H[g, n] = (group_index[n] == g).  Row sums are 1 on the direct
    block and the group sizes on the cascade.
    """
    n_groups = int(group_index.max()) + 1
    one_hot = np.arange(n_groups)[:, None] == group_index
    out = np.zeros((m_antennas * (n_groups + 1), m_antennas * (group_index.size + 1)))
    out[:m_antennas, :m_antennas] = np.eye(m_antennas)
    out[m_antennas:, m_antennas:] = np.kron(np.eye(m_antennas), one_hot)
    return out


def cov_uu(cov_ss_mat: np.ndarray, group_index: np.ndarray, m_antennas: int) -> np.ndarray:
    """Covariance of the group-aggregate vector, by summing matched rows/columns."""
    p = group_aggregation_matrix(group_index, m_antennas)
    return p @ cov_ss_mat @ p.T


def _complete(
    mu_s: np.ndarray,
    c_ss: np.ndarray,
    z_full: np.ndarray,
    z_grouped: np.ndarray,
    sigma_w2: float,
    n_users: int,
    m_antennas: int,
    group_index: np.ndarray,
) -> MomentSet:
    """Moments of a target with mean mu_s and prior c_ss seen through z_full."""
    return MomentSet(
        mean_s=mu_s, cov_ss=c_ss, Z=z_full, Z_G=z_grouped,
        z_mean=z_full @ mu_s,
        cov_szh=c_ss @ z_full.conj().T,
        z_cov_zh=z_full @ c_ss @ z_full.conj().T,
        sigma_w2=sigma_w2,
        n_users=n_users, m_antennas=m_antennas, group_index=group_index,
    )


def observation_moments(
    stats: ChannelStatistics,
    k: int,
    z_full: np.ndarray,
    z_grouped: np.ndarray,
    sigma_w2: float,
    n_users: int,
    group_index: np.ndarray,
    cov_ss_mat: np.ndarray | None = None,
) -> MomentSet:
    """Complete the dense moment set for one user given its observation matrices and grouping."""
    if cov_ss_mat is None:
        cov_ss_mat = cov_ss(stats, k)
    return _complete(
        mean_s(stats, k), cov_ss_mat, z_full, z_grouped,
        sigma_w2, n_users, stats.m_antennas, group_index,
    )


def build_moments(
    stats: ChannelStatistics,
    k: int,
    config: TrainingConfig,
    block_ideal: bool = False,
) -> AntennaMomentSet:
    """Moment set for user k under a training configuration, in the antenna domain.

    block_ideal swaps in the idealized block-correlation prior used by the
    plain grouping baselines.  An a_bar that does not factor (see the module
    docstring) raises DomainError; `observation_moments` still covers it.
    """
    if config.n_elements != stats.n_elements or config.n_users != stats.n_users:
        raise DomainError("training configuration does not match the statistics")
    r = antenna_factor(stats.a_bar)
    if r is None:
        raise DomainError("RIS-BS LoS vectors do not share one RIS-side factor")
    if block_ideal:
        r0 = rk = _block_correlation(config.group_index)
    else:
        r0, rk = stats.R0, stats.R[k]
    direct = stats.rho_b[k] > 0
    # Z is I_M (x) Z_0 up to the index order, and Z_0 is the mixing of one antenna
    one_antenna = replace(stats, a_bar=stats.a_bar[:1])
    z0 = build_Z(k, one_antenna, config)
    zg0 = build_Z(k, one_antenna, config, grouped=True)

    def block(a_row: np.ndarray) -> MomentSet:
        return _complete(
            _mean(stats, k, a_row), _prior(stats, k, a_row, r0, rk, direct), z0, zg0,
            config.sigma_w2, config.n_users, 1, config.group_index,
        )

    return AntennaMomentSet(
        r=r,
        aligned=block(np.sqrt(r.size) * stats.a_bar[:1]),
        orthogonal=block(np.zeros_like(stats.a_bar[:1])),
    )
