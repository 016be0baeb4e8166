"""Linear estimators of the cascaded channel and their exact error statistics.

Five estimators are provided: conventional LS/LMMSE over the full target,
two grouping baselines that estimate group aggregates and expand them by
equal division (LS, and LMMSE designed under the idealized block-correlation
prior), and the two-stage correlated-grouping LMMSE that first estimates the
group aggregates under the true correlation and then infers the full target
from them.

Every estimator is affine in the observation, so each carries a precomputed
filter matrix plus its exact error trace under the true moments.  Error
statistics use the stabilized (sum-of-PSD-terms) arrangement to stay
accurate at very high transmit power; the trace is its diagonal sum, formed
when the estimator is built, and the error covariance is formed only when
read.

Each filter function runs on the blocks of its moment set
(`MomentSet.blocks`): the aligned block plus the orthogonal block standing
for M-1 copies for the antenna-domain set `build_moments` returns, and one
block for a hand-built dense set.  An estimator keeps its per-block filters
and the moment set they were built from; traces add up over the blocks with
their multiplicities.  Trials apply the per-block filters to the split
observation [Y P; Y (I - P)] (`moments.split_observation`) and compare with
the (N+1)-by-M target matrix (`ChannelRealization.S`), so no dense filter is
formed.  The per-block error covariances, and the dense filter and error
covariance assembled from the blocks, are formed only when read.  Every
pseudo-inverse cutoff is relative to the largest eigenvalue over all blocks,
i.e. of the whole block-diagonal matrix, so both forms keep the same spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .channel import target_vector
from .moments import (
    AntennaMomentSet,
    MomentSet,
    combine_blocks,
    group_expansion_matrix,
    split_observation,
)

PINV_RCOND = 1e-10


class EstimatorKind(str, Enum):
    LS = "ls"
    LMMSE = "lmmse"
    GROUPING_LS = "grouping_ls"
    GROUPING_LMMSE = "grouping_lmmse"
    CORRELATED_GROUPING_LMMSE = "correlated_grouping_lmmse"


GROUPED_KINDS = frozenset(
    {
        EstimatorKind.GROUPING_LS,
        EstimatorKind.GROUPING_LMMSE,
        EstimatorKind.CORRELATED_GROUPING_LMMSE,
    }
)


@dataclass
class AffineEstimator:
    """Precomputed affine rule s_hat = mean_s + W (y - mean_y) (or W y raw).

    mse_trace / nmse are the exact second-order error statistics of this
    rule under the true observation moments, and error_cov the matching
    error covariance; nmse_floor, when set, is the infinite-power limit.
    w_blocks are the per-block filters of the true moment set `moments`,
    whose antenna factor is r (None for a dense set).  The rule runs on a
    split observation X (`split_observation`) as S_hat = offset + H X with
    H = [W_0, W_1], giving the target matrix (one column for a dense set).
    The per-block error_blocks, the dense W and error_cov are formed on
    first read.
    """

    kind: EstimatorKind
    w_blocks: tuple[np.ndarray, ...]
    innovation: bool  # False: raw-linear rule W y with no mean terms
    moments: MomentSet | AntennaMomentSet
    offset: np.ndarray | float  # split(mean_s) - H split(mean_y), 0 for the raw rule
    mse_trace: float
    nmse: float
    nmse_floor: float | None = None
    degenerate: bool = False

    @property
    def r(self) -> np.ndarray | None:
        return self.moments.r

    @cached_property
    def W(self) -> np.ndarray:
        return combine_blocks(self.r, self.w_blocks, "s", "y")

    @cached_property
    def error_blocks(self) -> tuple[np.ndarray, ...]:
        blocks = [b for b, _ in self.moments.blocks]
        return tuple(_error_cov(w, b, self.innovation) for b, w in zip(blocks, self.w_blocks))

    @cached_property
    def error_cov(self) -> np.ndarray:
        return combine_blocks(self.r, self.error_blocks)

    @cached_property
    def H(self) -> np.ndarray:
        """The per-block filters side by side, acting on a split observation."""
        return np.hstack(self.w_blocks)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Estimate in the split target form from a split observation x."""
        return self.offset + self.H @ x

    def estimate(self, y: np.ndarray) -> np.ndarray:
        """Estimate of the dense target from the dense observation y."""
        s_hat = self.apply(split_observation(self.r, y))
        return s_hat[..., 0] if self.r is None else target_vector(s_hat)

    def squared_error(self, x: np.ndarray, target: np.ndarray) -> np.ndarray | float:
        """Squared error norm against target, both in the split forms.

        Leading axes of x and target are trials; one value per trial is returned.
        """
        diff = self.apply(x) - target
        return (diff.real**2 + diff.imag**2).sum(axis=(-2, -1))


def hermitian_pinvs(
    mats: list[np.ndarray], rcond: float = PINV_RCOND
) -> tuple[list[np.ndarray], bool]:
    """Pseudo-inverses of the diagonal blocks of one Hermitian PSD matrix.

    Eigenvalues at or below rcond times the largest eigenvalue of any block
    are dropped; the second return flags whether anything was dropped.
    """
    eigs = [np.linalg.eigh(mat) for mat in mats]
    # eigh returns ascending order
    cutoff = rcond * max(0.0, *(float(vals[-1]) for vals, _ in eigs))
    pinvs, clipped = [], False
    for eigvals, eigvecs in eigs:
        keep = eigvals > cutoff
        inv_vals = np.zeros_like(eigvals)
        inv_vals[keep] = 1.0 / eigvals[keep]
        pinvs.append((eigvecs * inv_vals[None, :]) @ eigvecs.conj().T)
        clipped = clipped or bool(np.any(~keep))
    return pinvs, clipped


def _solve_cyy(cov_yy: np.ndarray, rhs: np.ndarray, noise_floor: float = 0.0) -> np.ndarray:
    """Solve cov_yy @ x = rhs for a Hermitian positive definite cov_yy.

    At extreme transmit power the eigenvalue spread can push the Cholesky
    factorization past float64; since the observation covariance is bounded
    below by the combined noise level, the fallback clamps the spectrum at
    that floor instead of failing.
    """
    try:
        np.linalg.cholesky(cov_yy)  # the positive-definiteness test
    except np.linalg.LinAlgError as exc:
        if noise_floor <= 0.0:
            raise NumericalError(
                "observation covariance is singular (zero noise with a "
                "rank-deficient mixing matrix?)"
            ) from exc
        eigvals, eigvecs = np.linalg.eigh(cov_yy)
        eigvals = np.clip(eigvals, noise_floor, None)
        return eigvecs @ ((eigvecs.conj().T @ rhs) / eigvals[:, None])
    return np.linalg.solve(cov_yy, rhs)


def _error_terms(
    w: np.ndarray, b: MomentSet, innovation: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """A = I - sqrt(rho) W Z, and the raw-linear rule's deterministic bias A E[s]."""
    sqrt_rho = np.sqrt(b.rho)
    a = np.eye(b.cov_ss.shape[0]) - sqrt_rho * (w @ b.Z)
    bias = None if innovation else b.mean_s - sqrt_rho * (w @ b.z_mean)
    return a, bias


def _error_trace(w: np.ndarray, b: MomentSet, innovation: bool) -> float:
    """Trace of `_error_cov`, summed from the diagonals of its PSD terms.

    Re sum (A C_ss) (.) conj(A) + K sigma^2 ||W||_F^2 + ||bias||^2, which
    forms no covariance.
    """
    a, bias = _error_terms(w, b, innovation)
    trace = np.vdot(a, a @ b.cov_ss).real + b.n_users * b.sigma_w2 * np.vdot(w, w).real
    if bias is not None:
        trace += np.vdot(bias, bias).real
    return float(trace)


def _error_cov(w: np.ndarray, b: MomentSet, innovation: bool) -> np.ndarray:
    """Error covariance of the affine rule with filter w on block b.

    Computed as A C_ss A^H + K sigma^2 W W^H with A = I - sqrt(rho) W Z,
    which is a sum of PSD terms and therefore immune to the cancellation the
    direct prior-minus-reduction form suffers at high power.  The raw-linear
    rule's deterministic bias adds a rank-one term.
    """
    a, bias = _error_terms(w, b, innovation)
    cov = a @ b.cov_ss @ a.conj().T
    cov += b.n_users * b.sigma_w2 * (w @ w.conj().T)
    if bias is not None:
        cov += np.outer(bias, bias.conj())
    return 0.5 * (cov + cov.conj().T)


def _finalize(
    kind: EstimatorKind,
    ws: list[np.ndarray],
    m: MomentSet | AntennaMomentSet,
    innovation: bool = True,
    degenerate: bool = False,
    floor: float | None = None,
) -> AffineEstimator:
    """Estimator from the per-block filters ws of m.

    The error trace is summed over the blocks with their multiplicities
    (`_error_trace`); no error covariance is formed here.  With
    c = mean_s_0 - W_0 mean_y_0 on the first block, the offset is the
    column c for a dense set.  In the antenna form only the aligned block has
    a mean and split(mean_y) is [Y_bar; 0] with Y_bar = outer(mean_y_0, r)/sqrt(M),
    so the offset is outer(c, r)/sqrt(M).
    """
    trace = 0.0
    for (b, mult), w in zip(m.blocks, ws):
        trace += mult * _error_trace(w, b, innovation)
    offset = 0.0
    if innovation:
        b0, _ = m.blocks[0]
        c = b0.mean_s - ws[0] @ b0.mean_y
        offset = c[:, None] if m.r is None else np.outer(c, m.r) / np.sqrt(m.r.size)
    return AffineEstimator(
        kind=kind,
        # C order: a solved filter's conjugate transpose is in F order
        w_blocks=tuple(np.ascontiguousarray(w) for w in ws),
        innovation=innovation, moments=m, offset=offset, mse_trace=trace,
        nmse=trace / m.prior_trace, nmse_floor=floor, degenerate=degenerate,
    )


def conventional_lmmse_filter(
    m: MomentSet | AntennaMomentSet, floor: float | None = None
) -> AffineEstimator:
    """Classic one-shot LMMSE of the full target from the stacked observation.

    floor short-circuits the power-independent limit when the caller has
    already evaluated it for this pattern configuration.
    """
    ws = [
        _solve_cyy(b.cov_yy, b.cov_sy.conj().T, b.n_users * b.sigma_w2).conj().T
        for b, _ in m.blocks
    ]
    if floor is None and _full_rank_patterns(m):
        floor = asymptotic_mse(m)
    return _finalize(EstimatorKind.LMMSE, ws, m, floor=floor)


def _ls_pinv(b: MomentSet, grouped: bool) -> tuple[np.ndarray, bool]:
    """Minimum-norm LS filter for b.Z (b.Z_G when grouped), flagged when rank deficient.

    trace(pinv(z) @ z) is the rank the pseudo-inverse kept; it falls short of
    the active (nonzero) column count exactly when an active column lies
    outside the row space of z.  Blocked columns add nothing to the trace.
    Every block of a moment set shares its z, so the cutoff relative to the
    largest singular value is the dense matrix's.  The power-free
    pseudo-inverse is kept in b.ls_pinvs, which every power of b shares.
    """
    if grouped not in b.ls_pinvs:
        z = b.Z_G if grouped else b.Z
        pinv = np.linalg.pinv(z, rcond=PINV_RCOND)
        kept_rank = np.einsum("ij,ji->", pinv, z).real
        active = np.count_nonzero(np.any(z != 0, axis=0))
        b.ls_pinvs[grouped] = pinv, bool(kept_rank < active - 0.5)
    pinv, degenerate = b.ls_pinvs[grouped]
    return pinv / np.sqrt(b.rho), degenerate


def conventional_ls_filter(m: MomentSet | AntennaMomentSet) -> AffineEstimator:
    """Least squares on the raw observation; minimum-norm on blocked columns."""
    b, _ = m.blocks[0]
    w, degenerate = _ls_pinv(b, grouped=False)
    return _finalize(
        EstimatorKind.LS, [w] * len(m.blocks), m, innovation=False, degenerate=degenerate
    )


def _expansion(b: MomentSet) -> np.ndarray:
    return group_expansion_matrix(b.m_antennas, b.n_groups, b.Z.shape[1] // b.m_antennas - 1)


def grouping_ls_filter(m: MomentSet | AntennaMomentSet) -> AffineEstimator:
    """LS of the group aggregates, expanded by equal division."""
    b, _ = m.blocks[0]
    w_u, degenerate = _ls_pinv(b, grouped=True)
    w = _expansion(b) @ w_u
    return _finalize(EstimatorKind.GROUPING_LS, [w] * len(m.blocks), m, degenerate=degenerate)


def grouping_lmmse_filter(
    m: MomentSet | AntennaMomentSet, m_model: MomentSet | AntennaMomentSet
) -> AffineEstimator:
    """Grouping LMMSE designed under the idealized block-correlation prior.

    m_model supplies the (mismatched) prior the baseline believes in; the
    returned error statistics are still evaluated under the true moments m.
    Both sets must come in the same form (both dense or both antenna-domain).
    """
    if len(m.blocks) != len(m_model.blocks):
        raise ValueError("the model moments and the true moments are in different forms")
    ws = []
    for (b, _), (b_model, _) in zip(m.blocks, m_model.blocks):
        w_u = _solve_cyy(
            b_model.cov_yy, b_model.cov_uy.conj().T, b_model.n_users * b_model.sigma_w2
        ).conj().T
        ws.append(_expansion(b) @ w_u)
    return _finalize(EstimatorKind.GROUPING_LMMSE, ws, m)


def correlated_grouping_filter(
    m: MomentSet | AntennaMomentSet, floor: float | None = None
) -> AffineEstimator:
    """Two-stage LMMSE: group aggregates first, then the full target from them.

    The combined filter is C_sy C_yy^-1 C_uy^H G^+ C_uy C_yy^-1 with the inner
    Gram G = C_uy C_yy^-1 C_uy^H pseudo-inverted at a relative cutoff; a
    clipped inner spectrum is flagged as degenerate.
    """
    xs = [  # (n_y, n_u) per block
        _solve_cyy(b.cov_yy, b.cov_uy.conj().T, b.n_users * b.sigma_w2) for b, _ in m.blocks
    ]
    grams = [_hermitize(b.cov_uy @ x) for (b, _), x in zip(m.blocks, xs)]
    gram_pinvs, clipped = hermitian_pinvs(grams)
    ws = [
        (b.cov_sy @ x) @ gram_pinv @ x.conj().T
        for (b, _), x, gram_pinv in zip(m.blocks, xs, gram_pinvs)
    ]
    if floor is None:
        floor = asymptotic_mse(m)
    return _finalize(
        EstimatorKind.CORRELATED_GROUPING_LMMSE, ws, m,
        degenerate=clipped, floor=floor,
    )


def _full_rank_patterns(m: MomentSet | AntennaMomentSet) -> bool:
    """True when the pattern count supports the ungrouped target dimension.

    T >= N+1 for a block's Z_0 is the same test as MT >= M(N+1) for the dense Z.
    """
    n_y, n_s = m.blocks[0][0].Z.shape
    return n_y >= n_s


def make_estimator(
    kind: EstimatorKind,
    m: MomentSet | AntennaMomentSet,
    m_model: MomentSet | AntennaMomentSet | None = None,
    floor: float | None = None,
) -> AffineEstimator:
    """Build any estimator kind; grouping LMMSE needs its model-prior moments."""
    if kind == EstimatorKind.LMMSE:
        return conventional_lmmse_filter(m, floor=floor)
    if kind == EstimatorKind.LS:
        return conventional_ls_filter(m)
    if kind == EstimatorKind.GROUPING_LS:
        return grouping_ls_filter(m)
    if kind == EstimatorKind.GROUPING_LMMSE:
        if m_model is None:
            raise ValueError("grouping LMMSE needs the block-ideal moment set")
        return grouping_lmmse_filter(m, m_model)
    if kind == EstimatorKind.CORRELATED_GROUPING_LMMSE:
        return correlated_grouping_filter(m, floor=floor)
    raise ValueError(f"unknown estimator kind {kind!r}")


def asymptotic_mse(m: MomentSet | AntennaMomentSet) -> float:
    """Infinite-power limit of the correlated-grouping normalized MSE.

    Noise-free substitution of the error-covariance trace; pseudo-inverses
    with the standard relative cutoff absorb the rank deficiencies that
    appear in that limit.  The tiny negative traces produced by the cutoff
    are clamped to zero.
    """
    qs, _ = hermitian_pinvs([_hermitize(b.z_cov_zh) for b, _ in m.blocks])
    fs, grams = [], []
    for (b, _), q in zip(m.blocks, qs):
        zg_cuu = b.Z_G @ b.cov_uu
        fs.append(b.cov_szh @ q @ zg_cuu)  # (n_s, n_u)
        grams.append(_hermitize(zg_cuu.conj().T @ q @ zg_cuu))
    gram_pinvs, _ = hermitian_pinvs(grams)
    reduction = sum(
        mult * ((f @ gram_pinv) * f.conj()).sum().real
        for (_, mult), f, gram_pinv in zip(m.blocks, fs, gram_pinvs)
    )
    prior = m.prior_trace
    return max(prior - reduction, 0.0) / prior


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)
