import pytest

from riscest.moments import cov_ss_block_ideal, observation_moments
from riscest.training import build_Z
from riscest.validation import run_validation


@pytest.fixture(scope="session")
def validation_results():
    """The whole check registry, run once per session for every test that reads it."""
    return run_validation()


def dense_moments(stats, k, tc, block_ideal=False):
    """The dense M(N+1)-dimensional moment set of user k: the oracle for build_moments."""
    c_ss = cov_ss_block_ideal(stats, k, tc.n_groups) if block_ideal else None
    return observation_moments(
        stats, k, build_Z(k, stats, tc), build_Z(k, stats, tc, grouped=True),
        rho_k=tc.rho, sigma_w2=tc.sigma_w2, n_users=tc.n_users,
        cov_ss_mat=c_ss,
    )
