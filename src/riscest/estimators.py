"""Linear estimators of the cascaded channel and their exact error statistics.

Five estimators are provided: conventional LS/LMMSE over the full target,
two grouping baselines that estimate group aggregates and expand them by
equal division (LS, and LMMSE designed under the idealized block-correlation
prior), and the two-stage correlated-grouping LMMSE that first estimates the
group aggregates under the true correlation and then infers the full target
from them.

Every estimator is affine in the observation, so each carries a precomputed
filter matrix plus its exact error covariance evaluated under the true
moments; error covariances use the stabilized (sum-of-PSD-terms) arrangement
to stay accurate at very high transmit power.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .moments import MomentSet, group_expansion_matrix

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
class EstimateResult:
    """One estimate plus the theory attached to the estimator that made it."""

    s_hat: np.ndarray
    error_cov: np.ndarray | None = None
    mse_trace: float | None = None
    nmse_theory: float | None = None
    nmse_floor: float | None = None
    degenerate: bool = False


@dataclass
class AffineEstimator:
    """Precomputed affine rule s_hat = mean_s + W (y - mean_y) (or W y raw).

    error_cov / mse_trace / nmse are the exact second-order error statistics
    of this rule under the true observation moments; nmse_floor, when set, is
    the infinite-power limit.
    """

    kind: EstimatorKind
    W: np.ndarray  # (n_s, n_y)
    mean_s: np.ndarray
    mean_y: np.ndarray
    innovation: bool  # False: raw-linear rule W y with no mean terms
    error_cov: np.ndarray
    mse_trace: float
    nmse: float
    nmse_floor: float | None = None
    degenerate: bool = False

    def estimate(self, y: np.ndarray) -> EstimateResult:
        if self.innovation:
            s_hat = self.mean_s + self.W @ (y - self.mean_y)
        else:
            s_hat = self.W @ y
        return EstimateResult(
            s_hat=s_hat, error_cov=self.error_cov, mse_trace=self.mse_trace,
            nmse_theory=self.nmse, nmse_floor=self.nmse_floor,
            degenerate=self.degenerate,
        )

    def squared_error(self, y: np.ndarray, s_true: np.ndarray) -> float:
        diff = self.estimate(y).s_hat - s_true
        return float(np.real(np.vdot(diff, diff)))


def hermitian_pinv(mat: np.ndarray, rcond: float = PINV_RCOND) -> tuple[np.ndarray, bool]:
    """Pseudo-inverse of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues at or below rcond times the largest are dropped; the second
    return flags whether anything was dropped.
    """
    eigvals, eigvecs = np.linalg.eigh(mat)
    cutoff = rcond * max(float(eigvals[-1]), 0.0)  # eigh returns ascending order
    keep = eigvals > cutoff
    inv_vals = np.zeros_like(eigvals)
    inv_vals[keep] = 1.0 / eigvals[keep]
    pinv = (eigvecs * inv_vals[None, :]) @ eigvecs.conj().T
    return pinv, bool(np.any(~keep))


def _solve_cyy(cov_yy: np.ndarray, rhs: np.ndarray, noise_floor: float = 0.0) -> np.ndarray:
    """Solve cov_yy @ x = rhs for a Hermitian positive definite cov_yy.

    At extreme transmit power the eigenvalue spread can push the Cholesky
    factorization past float64; since the observation covariance is bounded
    below by the combined noise level, the fallback clamps the spectrum at
    that floor instead of failing.
    """
    try:
        factor = scipy.linalg.cho_factor(cov_yy)
    except scipy.linalg.LinAlgError as exc:
        if noise_floor <= 0.0:
            raise NumericalError(
                "observation covariance is singular (zero noise with a "
                "rank-deficient mixing matrix?)"
            ) from exc
        eigvals, eigvecs = np.linalg.eigh(cov_yy)
        eigvals = np.clip(eigvals, noise_floor, None)
        return eigvecs @ ((eigvecs.conj().T @ rhs) / eigvals[:, None])
    return scipy.linalg.cho_solve(factor, rhs)


def _stabilized_error_cov(
    w_full: np.ndarray, m: MomentSet, bias: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Error covariance of an affine rule with innovation filter w_full.

    Computed as A C_ss A^H + K sigma^2 W W^H with A = I - sqrt(rho) W Z,
    which is a sum of PSD terms and therefore immune to the cancellation the
    direct prior-minus-reduction form suffers at high power.  A deterministic
    bias adds a rank-one term.
    """
    n_s = m.cov_ss.shape[0]
    a = np.eye(n_s) - np.sqrt(m.rho) * (w_full @ m.Z)
    cov = a @ m.cov_ss @ a.conj().T
    cov += m.n_users * m.sigma_w2 * (w_full @ w_full.conj().T)
    if bias is not None:
        cov += np.outer(bias, bias.conj())
    cov = 0.5 * (cov + cov.conj().T)
    return cov, float(np.trace(cov).real)


def _finalize(
    kind: EstimatorKind,
    w_full: np.ndarray,
    m: MomentSet,
    innovation: bool = True,
    degenerate: bool = False,
    floor: float | None = None,
) -> AffineEstimator:
    bias = None
    if not innovation:
        # raw-linear rule: the deterministic residual (I - sqrt(rho) W Z) E[s]
        bias = m.mean_s - np.sqrt(m.rho) * (w_full @ (m.Z @ m.mean_s))
    error_cov, trace = _stabilized_error_cov(w_full, m, bias)
    prior = float(np.trace(m.cov_ss).real)
    return AffineEstimator(
        kind=kind, W=w_full, mean_s=m.mean_s, mean_y=m.mean_y,
        innovation=innovation, error_cov=error_cov, mse_trace=trace,
        nmse=trace / prior, nmse_floor=floor, degenerate=degenerate,
    )


def conventional_lmmse_filter(m: MomentSet, floor: float | None = None) -> AffineEstimator:
    """Classic one-shot LMMSE of the full target from the stacked observation.

    floor short-circuits the power-independent limit when the caller has
    already evaluated it for this pattern configuration.
    """
    w = _solve_cyy(m.cov_yy, m.cov_sy.conj().T, m.n_users * m.sigma_w2).conj().T
    if floor is None and _full_rank_patterns(m):
        floor = asymptotic_mse(m)
    return _finalize(EstimatorKind.LMMSE, w, m, floor=floor)


def _ls_pinv(z: np.ndarray, rho: float) -> tuple[np.ndarray, bool]:
    """Minimum-norm LS filter for z, flagged degenerate when z is rank deficient.

    trace(pinv(z) @ z) is the rank the pseudo-inverse kept; it falls short of
    the active (nonzero) column count exactly when an active column lies
    outside the row space of z.  Blocked columns add nothing to the trace.
    """
    pinv = np.linalg.pinv(z, rcond=PINV_RCOND)
    kept_rank = np.einsum("ij,ji->", pinv, z).real
    active = np.count_nonzero(np.any(z != 0, axis=0))
    return pinv / np.sqrt(rho), bool(kept_rank < active - 0.5)


def conventional_ls_filter(m: MomentSet) -> AffineEstimator:
    """Least squares on the raw observation; minimum-norm on blocked columns."""
    w, degenerate = _ls_pinv(m.Z, m.rho)
    return _finalize(EstimatorKind.LS, w, m, innovation=False, degenerate=degenerate)


def grouping_ls_filter(m: MomentSet) -> AffineEstimator:
    """LS of the group aggregates, expanded by equal division."""
    expand = group_expansion_matrix(m.m_antennas, m.groups, m.Z.shape[1] // m.m_antennas - 1)
    w_u, degenerate = _ls_pinv(m.Z_G, m.rho)
    return _finalize(EstimatorKind.GROUPING_LS, expand @ w_u, m, degenerate=degenerate)


def grouping_lmmse_filter(m: MomentSet, m_model: MomentSet) -> AffineEstimator:
    """Grouping LMMSE designed under the idealized block-correlation prior.

    m_model supplies the (mismatched) prior the baseline believes in; the
    returned error statistics are still evaluated under the true moments m.
    """
    w_u = _solve_cyy(
        m_model.cov_yy, m_model.cov_uy.conj().T, m_model.n_users * m_model.sigma_w2
    ).conj().T
    expand = group_expansion_matrix(m.m_antennas, m.groups, m.Z.shape[1] // m.m_antennas - 1)
    return _finalize(EstimatorKind.GROUPING_LMMSE, expand @ w_u, m)


def correlated_grouping_filter(m: MomentSet, floor: float | None = None) -> AffineEstimator:
    """Two-stage LMMSE: group aggregates first, then the full target from them.

    The combined filter is C_sy C_yy^-1 C_uy^H G^+ C_uy C_yy^-1 with the inner
    Gram G = C_uy C_yy^-1 C_uy^H pseudo-inverted at a relative cutoff; a
    clipped inner spectrum is flagged as degenerate.
    """
    x = _solve_cyy(m.cov_yy, m.cov_uy.conj().T, m.n_users * m.sigma_w2)  # (n_y, n_u)
    gram = m.cov_uy @ x
    gram = 0.5 * (gram + gram.conj().T)
    gram_pinv, clipped = hermitian_pinv(gram)
    w = (m.cov_sy @ x) @ gram_pinv @ x.conj().T
    if floor is None:
        floor = asymptotic_mse(m)
    return _finalize(
        EstimatorKind.CORRELATED_GROUPING_LMMSE, w, m,
        degenerate=clipped, floor=floor,
    )


def _full_rank_patterns(m: MomentSet) -> bool:
    """True when the pattern count supports the ungrouped target dimension."""
    n_y, n_s = m.Z.shape
    return n_y >= n_s


def make_estimator(
    kind: EstimatorKind,
    m: MomentSet,
    m_model: MomentSet | None = None,
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


def asymptotic_mse(m: MomentSet) -> float:
    """Infinite-power limit of the correlated-grouping normalized MSE.

    Noise-free substitution of the error-covariance trace; pseudo-inverses
    with the standard relative cutoff absorb the rank deficiencies that
    appear in that limit.  The tiny negative traces produced by the cutoff
    are clamped to zero.
    """
    q, _ = hermitian_pinv(_hermitize(m.Z @ m.cov_ss @ m.Z.conj().T))
    zg_cuu = m.Z_G @ m.cov_uu
    f = m.cov_ss @ m.Z.conj().T @ q @ zg_cuu  # (n_s, n_u)
    gram = _hermitize(zg_cuu.conj().T @ q @ zg_cuu)
    gram_pinv, _ = hermitian_pinv(gram)
    reduction = ((f @ gram_pinv) * f.conj()).sum().real
    trace = float(np.trace(m.cov_ss).real - reduction)
    return max(trace, 0.0) / float(np.trace(m.cov_ss).real)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)
