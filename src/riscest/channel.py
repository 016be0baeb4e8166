"""Geometry, large-scale fading, spatial correlation and channel sampling.

The RIS is a uniform rectangular array in the global y-z plane with its
broadside along +x; element n (1-based) sits at grid coordinates
(x_n, y_n) = (((n-1) mod n_x) * delta_x, ((n-1) // n_x) * delta_y), i.e.
indices run row-major along the grid x axis first.  The BS is a uniform
linear array with spacing delta_0.

Large-scale gains follow a power law rho_0 * d^(-alpha).  UE-RIS and
RIS-BS links are Rician with spatially correlated scattering; the direct
UE-BS links are Rayleigh (optionally blocked entirely).

A realization carries each user's estimation target as the (N+1) x M
matrix S = [b; (a_m*g)^T] (`target_matrix`), whose column m is antenna m's
share, laid out antenna-major so that trials synthesise and score without a
copy; the dense vector s = [b; a_1*g; ...; a_M*g] is formed only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError

# Eigenvalues of a correlation matrix below this are a hard error; anything
# in [-PSD_ERROR_TOL, 0) is clipped to zero before factorization.
PSD_ERROR_TOL = 1e-8
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class SystemGeometry:
    """Node positions and array layouts; the source of all angles and distances."""

    bs_position: np.ndarray  # (3,) metres
    ris_position: np.ndarray  # (3,) metres
    ue_positions: np.ndarray  # (K, 3) metres
    n_x: int
    n_y: int
    m_antennas: int
    delta_x: float  # RIS element spacing along grid x, metres
    delta_y: float
    delta_0: float  # BS antenna spacing, metres
    wavelength: float

    def __post_init__(self):
        self.bs_position = np.asarray(self.bs_position, dtype=float)
        self.ris_position = np.asarray(self.ris_position, dtype=float)
        self.ue_positions = np.atleast_2d(np.asarray(self.ue_positions, dtype=float))
        if self.n_x < 1 or self.n_y < 1:
            raise DomainError("RIS grid dimensions must be >= 1")
        if self.m_antennas < 1:
            raise DomainError("BS array needs at least one antenna")
        if min(self.delta_x, self.delta_y, self.delta_0) <= 0:
            raise DomainError("array spacings must be positive")
        if self.wavelength <= 0:
            raise DomainError("wavelength must be positive")
        if self.ue_positions.shape[0] < 1 or self.ue_positions.shape[1] != 3:
            raise DomainError("ue_positions must be a (K, 3) array with K >= 1")

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_y

    @property
    def n_users(self) -> int:
        return self.ue_positions.shape[0]

    def element_grid(self) -> np.ndarray:
        """In-plane element coordinates, shape (N, 2), row-major in x then y."""
        idx = np.arange(self.n_elements)
        x = (idx % self.n_x) * self.delta_x
        y = (idx // self.n_x) * self.delta_y
        return np.stack([x, y], axis=1)


@dataclass
class FadingParams:
    """Rician factors, path-loss exponents and spatial-correlation coefficients.

    eta holds K+1 coefficients: eta[0] applies to the RIS-BS scattering,
    eta[k] to UE k's RIS link.  All Rician factors and gains are linear.
    """

    kappa_a: float  # RIS-BS Rician factor
    kappa_g: float  # UE-RIS Rician factor
    alpha_a: float
    alpha_g: float
    alpha_b: float
    rho_0: float  # reference gain at 1 m
    eta: np.ndarray  # (K+1,)
    direct_blocked: bool = False

    def __post_init__(self):
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        if self.kappa_a < 0 or self.kappa_g < 0:
            raise DomainError("Rician factors must be nonnegative")
        if self.rho_0 <= 0:
            raise DomainError("reference gain must be positive")
        if np.any(self.eta < 0) or np.any(self.eta > 1):
            raise DomainError("correlation coefficients must lie in [0, 1]")


@dataclass
class ChannelStatistics:
    """First/second-order statistics of every link, ready for moment formulas.

    g_bar[k] and a_bar[m] are unit-modulus LoS vectors; R[k] and R0 are the
    unit-diagonal scattering correlation matrices of the UE-RIS and RIS-BS
    links.  Gains rho_b, rho_g, rho_a are linear large-scale powers.
    """

    rho_b: np.ndarray  # (K,)
    rho_g: np.ndarray  # (K,)
    rho_a: float
    g_bar: np.ndarray  # (K, N) unit modulus
    a_bar: np.ndarray  # (M, N) unit modulus
    R: np.ndarray  # (K, N, N)
    R0: np.ndarray  # (N, N)
    fading: FadingParams

    @property
    def n_users(self) -> int:
        return self.g_bar.shape[0]

    @property
    def n_elements(self) -> int:
        return self.g_bar.shape[1]

    @property
    def m_antennas(self) -> int:
        return self.a_bar.shape[0]


@dataclass
class ChannelRealization:
    """One draw of every user's cascaded estimation target.

    S holds each user's target as the (N+1) x M matrix [b; (a_m*g)^T],
    built from the unit-power (gain-stripped) draws of the direct, UE-RIS
    and RIS-BS links, because the pilot mixing matrices carry the
    large-scale gains themselves; column m is antenna m's share.  The
    sampler lays S out as `target_matrix` does, so `s_antenna` is a view;
    the dense target s = [b; a_1*g; ...; a_M*g] is formed on first read.
    """

    S: np.ndarray  # (K, N+1, M), with any leading trial axes

    @property
    def s_antenna(self) -> np.ndarray:
        """The targets antenna-major, (K, M, ..., N+1): row [k, m] is antenna m's [b_m; a_m*g]."""
        n_lead = self.S.ndim - 3
        return self.S.transpose(n_lead, n_lead + 2, *range(n_lead), n_lead + 1)

    @cached_property
    def s(self) -> np.ndarray:
        """The dense targets (..., K, M(N+1)), [b; a_1*g; ...; a_M*g] per user."""
        return target_vector(self.S)


def target_matrix(s: np.ndarray, m_antennas: int) -> np.ndarray:
    """Dense targets (..., K, M(N+1)) as (..., K, N+1, M) matrices [b; (a_m*g)^T].

    The result is a view of a C-contiguous antenna-major (K, M, ..., N+1)
    array, the layout `ChannelSampler.sample` builds: one user's targets over
    every antenna and leading (trial) axis fold into the rows of one matrix
    without a copy, which synthesis and the rotation into the antenna basis
    both do.  A lone (M(N+1),) target gives the transposed view of an
    (M, N+1) array.
    """
    users = np.moveaxis(s, -2, 0) if s.ndim > 1 else s[None]  # (K, ..., M(N+1))
    lead, n1 = users.shape[1:-1], users.shape[-1] // m_antennas
    out = np.empty((users.shape[0], m_antennas, *lead, n1), s.dtype)
    out[..., 0] = np.moveaxis(users[..., :m_antennas], -1, 1)
    cascade = users[..., m_antennas:].reshape(*users.shape[:-1], m_antennas, -1)
    out[..., 1:] = np.moveaxis(cascade, -2, 1)
    out = np.moveaxis(out, (0, 1), (-3, -1))
    return out if s.ndim > 1 else out[0]


def target_vector(s_mat: np.ndarray) -> np.ndarray:
    """Inverse of target_matrix: (..., N+1, M) matrices back to the dense order."""
    lead = s_mat.shape[:-2]
    cascade = np.swapaxes(s_mat[..., 1:, :], -1, -2).reshape(*lead, -1)
    return np.concatenate([s_mat[..., 0, :], cascade], axis=-1)


def path_loss(distance: float, alpha: float, rho_0: float) -> float:
    """Power-law gain rho_0 * distance**(-alpha), which must be positive and finite."""
    if distance <= 0:
        raise DomainError(f"distance must be positive, got {distance}")
    if rho_0 <= 0:
        raise DomainError(f"reference gain must be positive, got {rho_0}")
    try:
        gain = rho_0 * float(distance) ** (-alpha)
    except OverflowError:
        gain = np.inf
    if not 0.0 < gain < np.inf:
        raise DomainError(f"path gain {gain:g} at distance {distance:g}, exponent {alpha:g}")
    return gain


def element_distance(n1: int, n2: int, geometry: SystemGeometry) -> float:
    """Euclidean distance between RIS elements n1 and n2 (1-based indices)."""
    n = geometry.n_elements
    for idx in (n1, n2):
        if not 1 <= idx <= n:
            raise DomainError(f"element index {idx} outside 1..{n}")
    grid = geometry.element_grid()
    return float(np.linalg.norm(grid[n1 - 1] - grid[n2 - 1]))


def exp_correlation_matrix(eta: float, geometry: SystemGeometry) -> np.ndarray:
    """Correlation matrix with entries eta**(d/wavelength) over the element grid."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"correlation coefficient must be in [0, 1], got {eta}")
    grid = geometry.element_grid()
    diff = grid[:, None, :] - grid[None, :, :]  # (N, N, 2)
    dist = np.sqrt((diff**2).sum(axis=2))
    return eta ** (dist / geometry.wavelength)


def ris_steering_vector(
    azimuth: float, elevation: float, geometry: SystemGeometry
) -> np.ndarray:
    """Planar-wavefront steering vector of the RIS grid, unit-modulus entries.

    elevation is the polar angle from broadside; azimuth rotates within the
    array plane.  Element phase is 2*pi/lambda times the projection of its
    grid position onto the propagation direction.
    """
    grid = geometry.element_grid()
    k0 = 2.0 * np.pi / geometry.wavelength
    phase = k0 * (
        grid[:, 0] * np.sin(elevation) * np.cos(azimuth)
        + grid[:, 1] * np.sin(elevation) * np.sin(azimuth)
    )
    return np.exp(1j * phase)


def bs_los_vectors(
    geometry: SystemGeometry,
    azimuth_d: float,
    elevation_d: float,
    psi: float,
) -> np.ndarray:
    """Per-antenna LoS vectors of the RIS-BS link, shape (M, N).

    Antenna m sees the RIS departure steering vector scaled by the scalar
    BS-side phase exp(j*2*pi/lambda*(m-1)*delta_0*sin(psi)); psi is the
    arrival angle at the BS linear array.
    """
    v = ris_steering_vector(azimuth_d, elevation_d, geometry)
    m_idx = np.arange(geometry.m_antennas)
    ramp = np.exp(1j * 2.0 * np.pi / geometry.wavelength * m_idx * geometry.delta_0 * np.sin(psi))
    return ramp[:, None] * v[None, :]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, rescaled by the largest entry only where the plain one overflows.

    A finite plain norm is returned as it is, so every shipped distance keeps
    its bits; a vector whose squares overflow (entries near 1e200) gets its
    true norm, and one whose norm exceeds the float range gets inf.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if norm == np.inf and np.isfinite(v).all():  # the squares overflowed, not the norm
            scale = np.abs(v).max()
            norm = float(scale * np.linalg.norm(v / scale))
    return norm


def arrival_angles(geometry: SystemGeometry, point: np.ndarray) -> tuple[float, float]:
    """(azimuth, elevation) of `point` seen from the RIS, broadside along +x.

    The grid x axis maps to global y and the grid y axis to global z, so the
    steering phase reduces to the projection onto the unit direction.
    """
    u = np.asarray(point, dtype=float) - geometry.ris_position
    norm = _norm(u)
    if norm == 0:
        raise DomainError("point coincides with the RIS position")
    u = u / norm
    elevation = float(np.arccos(np.clip(u[0], -1.0, 1.0)))
    azimuth = float(np.arctan2(u[2], u[1]))
    return azimuth, elevation


def build_statistics(
    geometry: SystemGeometry,
    fading: FadingParams,
    psi: float = np.pi / 3,
) -> ChannelStatistics:
    """Derive all link statistics from node positions and fading parameters.

    psi is the arrival angle at the BS array; it is a scenario input rather
    than being recomputed from positions.
    """
    k_users = geometry.n_users
    if fading.eta.shape[0] != k_users + 1:
        raise DomainError(
            f"eta needs K+1 = {k_users + 1} coefficients, got {fading.eta.shape[0]}"
        )

    def _dist(p, q):
        with np.errstate(over="ignore"):  # an overflowing distance is inf, which path_loss rejects
            d = _norm(np.asarray(p, float) - np.asarray(q, float))
        if d == 0:
            raise DomainError("coincident node positions give zero distance")
        return d

    rho_a = path_loss(_dist(geometry.ris_position, geometry.bs_position), fading.alpha_a, fading.rho_0)
    rho_g = np.array(
        [
            path_loss(_dist(ue, geometry.ris_position), fading.alpha_g, fading.rho_0)
            for ue in geometry.ue_positions
        ]
    )
    if fading.direct_blocked:
        rho_b = np.zeros(k_users)
    else:
        rho_b = np.array(
            [
                path_loss(_dist(ue, geometry.bs_position), fading.alpha_b, fading.rho_0)
                for ue in geometry.ue_positions
            ]
        )

    g_bar = np.stack(
        [
            ris_steering_vector(*arrival_angles(geometry, ue), geometry)
            for ue in geometry.ue_positions
        ]
    )
    az_d, el_d = arrival_angles(geometry, geometry.bs_position)
    a_bar = bs_los_vectors(geometry, az_d, el_d, psi)

    R = np.stack(
        [exp_correlation_matrix(fading.eta[k + 1], geometry) for k in range(k_users)]
    )
    R0 = exp_correlation_matrix(fading.eta[0], geometry)
    return ChannelStatistics(
        rho_b=rho_b, rho_g=rho_g, rho_a=rho_a,
        g_bar=g_bar, a_bar=a_bar, R=R.astype(complex), R0=R0.astype(complex),
        fading=fading,
    )


def psd_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor L with L @ L^H = matrix for a Hermitian PSD matrix.

    Uses a symmetric eigendecomposition and clips small negative eigenvalues
    to zero, which stays well-behaved where a triangular factorization of a
    nearly singular matrix would fail.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if eigvals.min() < -PSD_ERROR_TOL * max(1.0, eigvals.max()):
        raise NumericalError(
            f"matrix is not PSD within tolerance (min eigenvalue {eigvals.min():.3e})"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[None, :]


def complex_normal(re: np.ndarray, im: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussians from real and imaginary normals.

    Each part is scaled by 1/sqrt(2) straight into the result (out, when
    given), which gives the bits of (re + 1j * im) / sqrt(2) without its
    complex temporaries.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
    np.multiply(re, _INV_SQRT2, out=out.real)
    np.multiply(im, _INV_SQRT2, out=out.imag)
    return out


class ChannelSampler:
    """Draws correlated Rician realizations; factorizations precomputed once.

    Draw order per realization is fixed (direct links, then each user's RIS
    link, then the RIS-BS link) so a given seed reproduces bit-identically;
    `sample` maps stacked rows of `n_normals` normals to stacked realizations,
    writing each draw in the layout its reader takes, with the bits of
    drawing each row alone.
    """

    def __init__(self, stats: ChannelStatistics):
        self.stats = stats
        kg = stats.fading.kappa_g
        ka = stats.fading.kappa_a
        self._mu_g = np.sqrt(kg / (1.0 + kg)) * stats.g_bar  # (K, N)
        self._mu_a = np.sqrt(ka / (1.0 + ka)) * stats.a_bar  # (M, N)
        scale_g = np.sqrt(1.0 / (1.0 + kg))
        scale_a = np.sqrt(1.0 / (1.0 + ka))
        self._L_g = np.stack([scale_g * psd_factor(stats.R[k]) for k in range(stats.n_users)])
        self._L_a = scale_a * psd_factor(stats.R0)
        self._blocked = ~(stats.rho_b > 0)
        # A realization takes its n_normals normals in this order: the K*M real
        # parts of the direct draws zb, then their imaginary parts; per user,
        # the N real then the N imaginary parts of its RIS-link draw w_g; then
        # the M*N real and the M*N imaginary parts of the RIS-BS draw w_a.
        k_users, n, m = stats.n_users, stats.n_elements, stats.m_antennas
        self.n_normals = 2 * (k_users * m + k_users * n + m * n)

    def sample(
        self, rng: np.random.Generator | None = None, normals: np.ndarray | None = None
    ) -> ChannelRealization:
        """A realization from n_normals drawn from rng, or one per row of normals (..., >= n_normals).

        Each draw is written where its reader takes it, over the leading axes
        (rows): the direct draws straight into the targets' direct entries,
        antenna-major (K, M, ...), zero for a blocked user; the RIS-link draws
        user-major, (K, rows, N), through the batched matvec with each user's
        L_g; the RIS-BS draws antenna-major, (M, rows, N), through one
        (M rows, N) x L_a^T product (one per row at M = 1, where the single
        product would change their bits); then one broadcast product of the
        two fills the cascade entries.  The realization holds the targets
        alone: the link draws are dropped once they are multiplied.
        """
        st = self.stats
        k_users, n, m = st.n_users, st.n_elements, st.m_antennas
        km, kn = k_users * m, k_users * n

        if normals is None:
            normals = rng.standard_normal(self.n_normals)
        lead = normals.shape[:-1]
        n_lead = len(lead)
        # each draw's real and imaginary runs, (..., 2, ...), read as views; to_front moves
        # the K or M axis after the leading axes to the front, the K and M axes for zb
        zb_parts = normals[..., :2 * km].reshape(*lead, 2, k_users, m)
        g_parts = normals[..., 2 * km:2 * (km + kn)].reshape(*lead, k_users, 2, n)
        a_parts = normals[..., 2 * (km + kn):self.n_normals].reshape(*lead, 2, m, n)
        to_front = (n_lead, *range(n_lead), n_lead + 1)
        zb_to_front = (n_lead, n_lead + 1, *range(n_lead))

        # the targets antenna-major, (K, M, ..., N+1), as target_matrix lays them out
        targets = np.empty((k_users, m, *lead, n + 1), dtype=complex)
        complex_normal(
            zb_parts[..., 0, :, :].transpose(zb_to_front),
            zb_parts[..., 1, :, :].transpose(zb_to_front),
            out=targets[..., 0],
        )
        targets[self._blocked, ..., 0] = 0.0

        w_g = np.empty((k_users, *lead, n), dtype=complex)
        complex_normal(
            g_parts[..., 0, :].transpose(to_front), g_parts[..., 1, :].transpose(to_front), out=w_g
        )
        g_unit = (self._L_g[:, None] @ w_g.reshape(k_users, -1, n, 1))[..., 0]  # (K, rows, N)
        g_unit += self._mu_g[:, None]

        w_a = np.empty((m, *lead, n), dtype=complex)
        complex_normal(
            a_parts[..., 0, :, :].transpose(to_front), a_parts[..., 1, :, :].transpose(to_front),
            out=w_a,
        )
        per_row = (-1, n) if m > 1 else (-1, 1, n)
        a_unit = (w_a.reshape(per_row) @ self._L_a.T).reshape(m, -1, n)  # (M, rows, N)
        a_unit += self._mu_a[:, None]

        np.multiply(
            a_unit.reshape(1, m, *lead, n), g_unit.reshape(k_users, 1, *lead, n),
            out=targets[..., 1:],
        )
        s_mat = targets.transpose(*range(2, n_lead + 2), 0, n_lead + 2, 1)  # (..., K, N+1, M)
        return ChannelRealization(S=s_mat)
