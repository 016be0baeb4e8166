import pytest

from riscest.validation import run_validation


@pytest.fixture(scope="session")
def validation_results():
    """The whole check registry, run once per session for every test that reads it."""
    return run_validation()
