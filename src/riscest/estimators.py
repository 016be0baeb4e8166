"""Linear estimators of the cascaded channel and their exact error statistics.

Five estimators are provided: conventional LS/LMMSE over the full target,
two grouping baselines that estimate group aggregates and expand them by
equal division (LS, and LMMSE designed under the idealized block-correlation
prior), and the correlated-grouping LMMSE.  The paper builds the last in two
stages, the group aggregates u = P s under the true correlation first and
the full target from them next.  Group-constant patterns give Z = Z_G P, so
C_sy = C_su Z_G^H and the two stages reduce to C_sy C_yy^-1: the LMMSE of
the grouped observation.  One LMMSE rule therefore builds both LMMSE kinds,
which differ only in the training their moment set was built from.  At
G = N grouping LS is likewise LS's rule unless LS is degenerate
(`rule_kind`).  An estimator is a rule and carries no kind: `make_estimator`
builds the rule a kind is.

Every estimator is affine in the observation, so each carries its exact
error trace under the true moments and forms its filter only when read.
No moment set holds a pilot power: rho is an argument of every builder
here and enters only through eps = K sigma^2 / rho (`_eps`, which rejects
any rho outside 0 < rho < inf).  Every filter is W = V(eps) / sqrt(rho),
and every LMMSE-type rule (both LMMSE kinds and grouping LMMSE) is
V = F D U^H per block, with the power-free factor F = C Z^H U for LMMSE
and F = E G_u U for grouping LMMSE, U from one cached eigendecomposition
of Q = Z C Z^H per block and D diagonal, so no system is solved.  One
clipped inverse (`_inverse_spectra`) turns Q's spectrum into
1/(lambda + eps), at the rule's eps and at eps = 0, and drops every lambda
at or below the relative cutoff, so round-off in a null direction is
never multiplied by 1/eps.  Error statistics use the stabilized
(sum-of-PSD-terms) arrangement in V and eps to stay accurate at very high
transmit power, and the power floor is LMMSE's trace at eps = 0.

What holds no pilot power is kept in the power_free cache of each block
(`MomentSet.power_free`), which serves every power the block is built at:
the spectrum (lambda, U), the LS and grouping-LS rules with their rank
flags and, per block, the three sums of their error traces
(`_trace_terms`), the grouping-LMMSE factor, the floor and, where
T < N+1, each LMMSE-type rule's `_Projection`: the products along range(F)
that give its trace.  An LS trace at any power is then
t_A + eps t_V (+ t_bias).  An LMMSE-type trace at T < N+1 costs a point two
(T, T) x (T, N+1) products per block and forms no V; at T = N+1 the point
forms V for the trace, and the filter is formed from it.  The trace is formed when
the estimator is built; the filters W = V / sqrt(rho) and the offset are
formed, with the same arithmetic whenever it happens, on their first read
(`AffineEstimator.w_blocks`), so a theory curve forms none, and the error
covariances on theirs.

Each filter function runs on the blocks of its moment set
(`MomentSet.blocks`): the aligned block plus the orthogonal block standing
for M-1 copies for the antenna-domain set `build_moments` returns, and one
block for a hand-built dense set.  An estimator keeps its per-block filters
and the moment set they were built from; traces add up over the blocks with
their multiplicities.  Trials run in the antenna basis
(`moments.antenna_basis`): the aligned block's filter W_0 estimates column 0
of the rotated target from column 0 of the rotated observation, and the
orthogonal block's W_1 every other column from its own, so each trial costs
one product per antenna and no dense filter is formed.  The per-block error
covariances, and the dense filter and error covariance assembled from the
blocks, are formed only when read.  The cutoff is relative to the largest
eigenvalue over all blocks, i.e. of the whole block-diagonal matrix, so both
forms keep the same spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .channel import target_vector
from .errors import ConfigurationError
from .moments import AntennaMomentSet, MomentSet, combine_blocks, cov_uu, group_aggregation_matrix

PINV_RCOND = 1e-10

# t_A, t_V and t_bias of an error trace (`_trace_terms`)
_TraceTerms = tuple[float, float, float | None]


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
    error covariance; nmse_floor, set for both LMMSE kinds, is the
    infinite-power limit.  degenerate flags an LS rule whose pseudo-inverse
    dropped an active column; an LMMSE-type filter is never flagged.
    w_blocks are the per-block filters of the true moment set `moments`,
    whose antenna factor is r (None for a dense set).  In the antenna basis
    the rule estimates column 0 of the target as offset + W_0 x_0 and every
    other column m as W_1 x_m (`residual`).  It is a rule and carries no
    kind: `make_estimator` builds for a kind the rule it is (`rule_kind`),
    and a cell bank holds one object for the kinds that share it.
    w_blocks and offset are formed on the first read of either, from the
    per-block power-free rules V that form returns, and form is dropped then,
    so no V outlives its filters; the per-block error_blocks, the dense W and
    error_cov are formed on their first read and kept.  Each W_i is
    V_i(eps) / sqrt(rho) at the pilot power rho the rule was built for
    (module docstring), and the error terms are formed in V and eps.
    """

    form: Callable[[], list[np.ndarray]] | None = field(repr=False)
    innovation: bool  # False: raw-linear rule W y with no mean terms
    moments: MomentSet | AntennaMomentSet
    rho: float  # the pilot power the rule was built for
    mse_trace: float
    nmse: float
    nmse_floor: float | None = None
    degenerate: bool = False

    @property
    def r(self) -> np.ndarray | None:
        return self.moments.r

    @cached_property
    def _formed(self) -> tuple[tuple[np.ndarray, ...], np.ndarray | float]:
        """(w_blocks, offset): W = V / sqrt(rho) per block, c = mean_s_0 - V_0 Z mean_s_0.

        In the antenna form only the aligned block has a mean, so only
        column 0 of the rotated estimate carries the offset.
        """
        _eps(self.moments, self.rho)  # rejects rho before any filter divides by sqrt(rho)
        vs, self.form = self.form(), None  # no V outlives its filters
        offset = 0.0
        if self.innovation:
            b0, _ = self.moments.blocks[0]
            offset = b0.mean_s - vs[0] @ b0.z_mean
        ws = {id(v): v / np.sqrt(self.rho) for v in vs}  # LS shares one over the blocks
        return tuple(ws[id(v)] for v in vs), offset

    @property
    def w_blocks(self) -> tuple[np.ndarray, ...]:
        return self._formed[0]

    @property
    def offset(self) -> np.ndarray | float:
        """mean_s - W_0 mean_y on the first block, 0 for the raw rule."""
        return self._formed[1]

    @cached_property
    def W(self) -> np.ndarray:
        return combine_blocks(self.r, self.w_blocks, "s", "y")

    @cached_property
    def error_blocks(self) -> tuple[np.ndarray, ...]:
        blocks = [b for b, _ in self.moments.blocks]
        return tuple(
            _error_cov(w, b, self.rho, self.innovation) for b, w in zip(blocks, self.w_blocks)
        )

    @cached_property
    def error_cov(self) -> np.ndarray:
        return combine_blocks(self.r, self.error_blocks)

    def estimate(self, y: np.ndarray) -> np.ndarray:
        """Estimate of the dense target from the dense observation y, through the dense W."""
        s_hat = y @ self.W.T
        if not self.innovation:
            return s_hat
        if self.r is None:
            return s_hat + self.offset
        return s_hat + target_vector(np.outer(self.offset, self.r) / np.sqrt(self.r.size))

    def residual(
        self, x: np.ndarray, target: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Estimate minus target in the antenna basis, of target's shape.

        x (C, ..., n_y) and target (C, ..., n_s) are rotated observations and
        targets (`moments.to_antenna_basis`), axis 0 over the antenna-basis
        columns: column 0 is the aligned block's and every other one an
        orthogonal block's.  A dense set, or one antenna, has column 0 alone,
        and the dense observation and target are that column.  The other axes
        but the last are trials; column 0's trials fold into the rows of one
        product with W_0, the other columns' into one with W_1.  out, when
        given, is a C-contiguous complex array of target's shape that receives
        the result, so a caller scoring batch after batch allocates nothing.
        """
        n_y, n_s = x.shape[-1], target.shape[-1]
        if out is None:
            out = np.empty(target.shape, dtype=complex)
        w0, w1 = self.w_blocks[0], self.w_blocks[-1]
        np.matmul(x[0].reshape(-1, n_y), w0.T, out=out[0].reshape(-1, n_s))
        if self.innovation:
            out[0] += self.offset
        if x.shape[0] > 1:
            np.matmul(x[1:].reshape(-1, n_y), w1.T, out=out[1:].reshape(-1, n_s))
        out -= target
        return out

    def squared_error(
        self, x: np.ndarray, target: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray | float:
        """Squared error norm per trial, from the `residual` of x against target.

        The norm is the same as in the antenna domain, since the basis is
        unitary.  One value per trial (the axes of target between the first
        and the last) is returned.
        """
        diff = self.residual(x, target, out)
        flat = diff.view(np.float64).reshape(diff.shape[0], -1, 2 * diff.shape[-1])
        return np.einsum("cij,cij->i", flat, flat).reshape(target.shape[1:-1])[()]


def _eps(m: MomentSet | AntennaMomentSet, rho: float) -> float:
    """eps = K sigma^2 / rho, the one place pilot power enters a rule; 0 < rho < inf."""
    if not 0.0 < rho < np.inf:
        raise ConfigurationError(f"pilot power must be positive and finite, got {rho:g}")
    b, _ = m.blocks[0]
    return b.n_users * b.sigma_w2 / rho


def _spectrum(b: MomentSet) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, U) of Q = Z C Z^H, kept in b.power_free for every power.

    lambda is eigh's as it comes, round-off below 0 included: `_inverse_spectra`
    drops it with every other lambda at or below the relative cutoff.
    """
    if "spectrum" not in b.power_free:
        b.power_free["spectrum"] = np.linalg.eigh(_hermitize(b.z_cov_zh))
    return b.power_free["spectrum"]


def _inverse_spectra(m: MomentSet | AntennaMomentSet, eps: float) -> list[np.ndarray]:
    """The diagonal of D = (diag(lambda) + eps I)^+ for each block of m, the only spectral inverse.

    Every lambda at or below PINV_RCOND times the largest lambda of any block
    (of the whole block-diagonal matrix) is dropped, i.e. inverted to 0, a
    negative round-off lambda with it, so a null direction's round-off is
    never multiplied by 1/eps.  At eps = 0 this is the pseudo-inverse.
    """
    lams = [_spectrum(b)[0] for b, _ in m.blocks]
    cutoff = PINV_RCOND * max(0.0, *(float(lam[-1]) for lam in lams))  # eigh's are ascending
    return [np.divide(1.0, lam + eps, out=np.zeros_like(lam), where=lam > cutoff) for lam in lams]


def _error_terms(
    v: np.ndarray, b: MomentSet, innovation: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """A = I - V Z, and the raw-linear rule's deterministic bias A E[s]."""
    a = np.eye(b.cov_ss.shape[0]) - v @ b.Z
    bias = None if innovation else b.mean_s - v @ b.z_mean
    return a, bias


def _trace_terms(v: np.ndarray, b: MomentSet, innovation: bool) -> _TraceTerms:
    """The sums of the error trace of rule v on block b.

    Re sum (A C_ss) (.) conj(A), ||V||_F^2 and the raw-linear rule's
    ||bias||^2 (None for an innovation rule), the diagonal sums of the PSD
    terms of `_error_cov`, so no covariance is formed.
    """
    a, bias = _error_terms(v, b, innovation)
    return (
        np.vdot(a, a @ b.cov_ss).real,
        np.vdot(v, v).real,
        None if bias is None else np.vdot(bias, bias).real,
    )


@dataclass(frozen=True)
class _Projection:
    """Power-free products giving the error trace of a rule V = F D U^H on a block with T < N+1.

    With the thin QR F = Q R, V = Q R D U^H lies in range(Q), so
    A = I - V Z = P + Q B with P = I - Q Q^H and B = Q^H - (R D)(U^H Z);
    Q^H P = 0, hence tr(A C A^H) = tr(P C P) + Re <B, B C> with
    B C = Q^H C - (R D)(U^H Z C), and ||V||_F^2 = sum_k d_k^2 ||f_k||^2.  Both
    are sums of PSD terms (Golub and Van Loan, Matrix Computations, on
    orthogonal projectors), and a power costs two (T, T) x (T, N+1) products.
    """

    r: np.ndarray  # (T, T)
    qh: np.ndarray  # (T, N+1) Q^H
    qh_c: np.ndarray  # Q^H C
    uh_z: np.ndarray  # U^H Z
    uh_zc: np.ndarray  # U^H Z C
    t_perp: float  # tr(P C P)
    f_norms: np.ndarray  # (T,) ||f_k||^2


def _projection(b: MomentSet, f: np.ndarray, u: np.ndarray) -> _Projection:
    """The `_Projection` of the rule with factor f and eigenvectors u on block b."""
    q, r = np.linalg.qr(f)
    qh = q.conj().T
    qh_c = qh @ b.cov_ss
    perp = np.eye(f.shape[0]) - q @ qh
    c_perp = b.cov_ss - qh_c.conj().T @ qh  # C P, with C Q = (Q^H C)^H
    return _Projection(
        r=r, qh=qh, qh_c=qh_c, uh_z=u.conj().T @ b.Z,
        uh_zc=(b.cov_szh @ u).conj().T,  # (C Z^H U)^H
        t_perp=np.vdot(perp, c_perp).real,
        f_norms=np.einsum("ij,ij->j", f.conj(), f).real,
    )


def _projected_terms(p: _Projection, d: np.ndarray) -> _TraceTerms:
    """`_trace_terms` of the innovation rule V = F D U^H from its block's `_Projection`."""
    rd = p.r * d
    b = p.qh - rd @ p.uh_z
    return p.t_perp + np.vdot(b, p.qh_c - rd @ p.uh_zc).real, p.f_norms @ (d * d), None


def _trace(terms: _TraceTerms, eps: float) -> float:
    """Trace of `_error_cov` at eps from its `_trace_terms`: t_A + eps t_V (+ t_bias)."""
    t_a, t_v, t_bias = terms
    trace = t_a + eps * t_v
    if t_bias is not None:
        trace += t_bias
    return float(trace)


def _error_cov(w: np.ndarray, b: MomentSet, rho: float, innovation: bool) -> np.ndarray:
    """Error covariance of the affine rule with filter w on block b at pilot power rho.

    Computed as A C_ss A^H + eps V V^H with V = sqrt(rho) W and A = I - V Z,
    which is a sum of PSD terms and therefore immune to the cancellation the
    direct prior-minus-reduction form suffers at high power.  The raw-linear
    rule's deterministic bias adds a rank-one term.
    """
    eps = _eps(b, rho)
    v = np.sqrt(rho) * w
    a, bias = _error_terms(v, b, innovation)
    cov = a @ b.cov_ss @ a.conj().T
    cov += eps * (v @ v.conj().T)
    if bias is not None:
        cov += np.outer(bias, bias.conj())
    return 0.5 * (cov + cov.conj().T)


def _finalize(
    form: Callable[[], list[np.ndarray]],
    m: MomentSet | AntennaMomentSet,
    rho: float,
    terms: list[_TraceTerms],
    innovation: bool = True,
    degenerate: bool = False,
    nmse_floor: float | None = None,
) -> AffineEstimator:
    """Estimator at pilot power rho from the `_trace_terms` of each block of m.

    The error trace is summed over the blocks with their multiplicities
    (`_trace`); no error covariance is formed here.  form returns the
    per-block power-free rules V, which the estimator turns into its filters
    on their first read (`AffineEstimator.w_blocks`).
    """
    trace, eps = 0.0, _eps(m, rho)  # rejects rho before any filter divides by sqrt(rho)
    for (_, mult), t in zip(m.blocks, terms):
        trace += mult * _trace(t, eps)
    return AffineEstimator(
        form=form, innovation=innovation, moments=m, rho=rho,
        mse_trace=trace, nmse=trace / m.prior_trace, nmse_floor=nmse_floor,
        degenerate=degenerate,
    )


def _rules(
    factors: list[np.ndarray], us: list[np.ndarray], ds: list[np.ndarray]
) -> list[np.ndarray]:
    """V = F D U^H per block: the one step that forms a spectral rule."""
    return [(f * d) @ u.conj().T for f, u, d in zip(factors, us, ds)]


def _spectral_rule(
    m: MomentSet | AntennaMomentSet,
    m_model: MomentSet | AntennaMomentSet,
    factors: Callable[[], list[np.ndarray]],
    key: object,
    eps: float,
) -> tuple[list[_TraceTerms], Callable[[], list[np.ndarray]]]:
    """The `_trace_terms` on m of V = F D U^H per block, and a function forming the V.

    factors returns the F, and (lambda, U) are the spectra of m_model's
    blocks, D = `_inverse_spectra(m_model, eps)`.  With fewer observations
    than unknowns (T < N+1) the terms come from each block's `_Projection`,
    kept under key in m_model's first block, and no V is formed until the
    function is called; at T = N+1 the V are formed for their terms, and
    the function returns them.
    """
    ds = _inverse_spectra(m_model, eps)
    us = [_spectrum(b)[1] for b, _ in m_model.blocks]
    z = m_model.blocks[0][0].Z
    if z.shape[0] < z.shape[1]:
        cache = m_model.blocks[0][0].power_free
        if key not in cache:
            cache[key] = [_projection(b, f, u) for (b, _), f, u in zip(m.blocks, factors(), us)]
        terms = [_projected_terms(p, d) for p, d in zip(cache[key], ds)]
        return terms, lambda: _rules(factors(), us, ds)
    vs = _rules(factors(), us, ds)
    return [_trace_terms(v, b, True) for (b, _), v in zip(m.blocks, vs)], lambda: vs


def _lmmse_rule(
    m: MomentSet | AntennaMomentSet, eps: float
) -> tuple[list[_TraceTerms], Callable[[], list[np.ndarray]]]:
    """`_spectral_rule` of LMMSE on m, whose F = C Z^H U is formed where it is used."""

    def factors() -> list[np.ndarray]:
        return [b.cov_szh @ _spectrum(b)[1] for b, _ in m.blocks]

    return _spectral_rule(m, m, factors, "lmmse_projections", eps)


def lmmse_filter(m: MomentSet | AntennaMomentSet, rho: float) -> AffineEstimator:
    """One-shot LMMSE of the full target from the stacked observation, C_sy C_yy^-1.

    On a set built from the grouped training this is the correlated-grouping
    LMMSE (module docstring), which `make_estimator` builds for that kind.
    Its floor is `asymptotic_mse`, the same rule's trace at eps = 0.
    """
    terms, form = _lmmse_rule(m, _eps(m, rho))
    return _finalize(form, m, rho, terms, nmse_floor=asymptotic_mse(m))


def _ls_rule(
    m: MomentSet | AntennaMomentSet, grouped: bool
) -> tuple[np.ndarray, bool, list[_TraceTerms]]:
    """Minimum-norm LS rule pinv(Z), or E pinv(Z_G) when grouped, its flag and trace sums.

    The rule is flagged when rank deficient: trace(pinv(z) @ z) is the rank
    the pseudo-inverse kept; it falls short of the active (nonzero) column
    count exactly when an active column lies outside the row space of z.
    Blocked columns add nothing to the trace.  Every block of a moment set
    shares its z, so the cutoff relative to the largest singular value is the
    dense matrix's, and one rule serves every block.  The rule holds no
    power, so neither do its `_trace_terms` on each block: the rule, its flag
    and the block's sums are kept in every block's power_free, and each
    power forms only t_A + eps t_V (+ t_bias).  The ungrouped rule is
    raw-linear, the grouped one an innovation rule.
    """
    key = "grouping_ls" if grouped else "ls"
    blocks = [b for b, _ in m.blocks]
    if key not in blocks[0].power_free:
        b0 = blocks[0]
        z = b0.Z_G if grouped else b0.Z
        pinv = np.linalg.pinv(z, rcond=PINV_RCOND)
        kept_rank = np.einsum("ij,ji->", pinv, z).real
        active = np.count_nonzero(np.any(z != 0, axis=0))
        rule = _expansion(b0) @ pinv if grouped else pinv
        degenerate = bool(kept_rank < active - 0.5)
        for b in blocks:
            b.power_free[key] = rule, degenerate, _trace_terms(rule, b, innovation=grouped)
    rule, degenerate, _ = blocks[0].power_free[key]
    return rule, degenerate, [b.power_free[key][2] for b in blocks]


def conventional_ls_filter(m: MomentSet | AntennaMomentSet, rho: float) -> AffineEstimator:
    """Least squares on the raw observation; minimum-norm on blocked columns."""
    v, degenerate, terms = _ls_rule(m, grouped=False)
    return _finalize(
        lambda: [v] * len(m.blocks), m, rho, terms, innovation=False, degenerate=degenerate
    )


def _expansion(b: MomentSet) -> np.ndarray:
    """Equal-division expansion: P^T over P's row sums, the group sizes (1 on the direct block)."""
    p = group_aggregation_matrix(b.group_index, b.m_antennas)
    return p.T / p.sum(axis=1)


def grouping_ls_filter(m: MomentSet | AntennaMomentSet, rho: float) -> AffineEstimator:
    """LS of the group aggregates, expanded by equal division."""
    v, degenerate, terms = _ls_rule(m, grouped=True)
    return _finalize(lambda: [v] * len(m.blocks), m, rho, terms, degenerate=degenerate)


def grouping_lmmse_filter(
    m: MomentSet | AntennaMomentSet, rho: float, m_model: MomentSet | AntennaMomentSet
) -> AffineEstimator:
    """Grouping LMMSE designed under the idealized block-correlation prior.

    m_model supplies the (mismatched) prior the baseline believes in; the
    returned error statistics are still evaluated under the true moments m.
    Both sets must come in the same form (both dense or both antenna-domain).
    V = E G_u D U^H on m_model's spectrum, with G_u = C_uu Z_G^H U for the
    aggregates' prior C_uu = P C P^H (`moments.cov_uu`); E G_u is kept in
    m_model's cache, and so are the projections on m, so they go with m_model.
    """
    if len(m.blocks) != len(m_model.blocks):
        raise ValueError("the model moments and the true moments are in different forms")
    cache = m_model.blocks[0][0].power_free
    if "grouping_lmmse" not in cache:  # E and C_uu are built once per set
        e = _expansion(m_model.blocks[0][0])
        cache["grouping_lmmse"] = [
            e @ (cov_uu(b.cov_ss, b.group_index, b.m_antennas) @ b.Z_G.conj().T) @ _spectrum(b)[1]
            for b, _ in m_model.blocks
        ]
    factors = cache["grouping_lmmse"]
    terms, form = _spectral_rule(
        m, m_model, lambda: factors, ("projections", m), _eps(m_model, rho)
    )
    return _finalize(form, m, rho, terms)


def rule_kind(kind: EstimatorKind, m: MomentSet | AntennaMomentSet) -> EstimatorKind:
    """The kind whose rule `kind` is on m, the estimator `make_estimator` builds for it.

    Correlated grouping is LMMSE's rule on every set (module docstring).  At
    G = N, Z_G = Z and the expansion is I, so grouping LS is LS's pinv(Z) in
    innovation form, which adds (I - V Z) mean_s = 0 whenever the pinv keeps
    every active column; a degenerate LS rule drops one, the two forms then
    differ, and grouping LS keeps its own.
    """
    if kind == EstimatorKind.CORRELATED_GROUPING_LMMSE:
        return EstimatorKind.LMMSE
    if kind == EstimatorKind.GROUPING_LS:
        b0, _ = m.blocks[0]
        if b0.Z_G.shape == b0.Z.shape and not _ls_rule(m, grouped=False)[1]:
            return EstimatorKind.LS
    return kind


def make_estimator(
    kind: EstimatorKind,
    m: MomentSet | AntennaMomentSet,
    rho: float,
    m_model: MomentSet | AntennaMomentSet | None = None,
) -> AffineEstimator:
    """Build any estimator kind at pilot power rho.

    A kind that is another kind's rule on m (`rule_kind`) gets that kind's
    estimator.  Grouping LMMSE needs its model-prior moments m_model.
    """
    kind = rule_kind(kind, m)
    if kind == EstimatorKind.LMMSE:
        return lmmse_filter(m, rho)
    if kind == EstimatorKind.LS:
        return conventional_ls_filter(m, rho)
    if kind == EstimatorKind.GROUPING_LS:
        return grouping_ls_filter(m, rho)
    if kind == EstimatorKind.GROUPING_LMMSE:
        if m_model is None:
            raise ValueError("grouping LMMSE needs the block-ideal moment set")
        return grouping_lmmse_filter(m, rho, m_model)
    raise ValueError(f"unknown estimator kind {kind!r}")


def asymptotic_mse(m: MomentSet | AntennaMomentSet) -> float:
    """Infinite-power limit of the LMMSE normalized MSE, the floor of both LMMSE kinds.

    LMMSE's error trace at eps = 0, over the prior trace: the same rule and
    trace every finite power forms (`_lmmse_rule`), with
    D = `_inverse_spectra(m, 0.0)`, the pseudo-inverse of lambda at the one
    relative cutoff.  The trace is a sum of PSD terms, so it needs no clamp.
    The value is power-free and kept in the cache of m's first block.
    """
    b0, _ = m.blocks[0]
    if "floor" not in b0.power_free:
        terms, _ = _lmmse_rule(m, 0.0)
        trace = sum(mult * _trace(t, 0.0) for (_, mult), t in zip(m.blocks, terms))
        b0.power_free["floor"] = trace / m.prior_trace
    return b0.power_free["floor"]


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)
