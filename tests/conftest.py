import numpy as np
import pytest

from riscest.moments import cov_ss_block_ideal, cov_uu, observation_moments
from riscest.training import build_Z
from riscest.validation import run_validation


@pytest.fixture(scope="session")
def validation_results():
    """The whole check registry, run once per session for every test that reads it."""
    return run_validation()


def dense_moments(stats, k, tc, block_ideal=False):
    """The dense M(N+1)-dimensional moment set of user k: the oracle for build_moments."""
    c_ss = cov_ss_block_ideal(stats, k, tc.group_index) if block_ideal else None
    return observation_moments(
        stats, k, build_Z(k, stats, tc), build_Z(k, stats, tc, grouped=True),
        sigma_w2=tc.sigma_w2, n_users=tc.n_users, group_index=tc.group_index,
        cov_ss_mat=c_ss,
    )


def moment_field(m, name, rho):
    """Field name of the moment set m; an observation moment is formed at pilot power rho."""
    value = getattr(m, name)
    return value(rho) if callable(value) else value


def two_stage_filter(d, rho):
    """The paper's two-stage correlated-grouping filter on the dense set d: its oracle.

    The group aggregates u are estimated first, as C_uy C_yy^-1 y, and the
    full target from them next, which gives the dense filter
    C_sy C_yy^-1 C_uy^H Gamma^+ C_uy C_yy^-1 with the inner Gram
    Gamma = C_uy C_yy^-1 C_uy^H pseudo-inverted.
    """
    c_uy = np.sqrt(rho) * cov_uu(d.cov_ss, d.group_index, d.m_antennas) @ d.Z_G.conj().T
    x = np.linalg.solve(d.cov_yy(rho), c_uy.conj().T)  # C_yy^-1 C_uy^H
    gram = c_uy @ x
    gram_pinv = np.linalg.pinv(0.5 * (gram + gram.conj().T), rcond=1e-10, hermitian=True)
    return d.cov_sy(rho) @ x @ gram_pinv @ x.conj().T
