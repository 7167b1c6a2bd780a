import pytest
from hypothesis import settings

from ftdiff.dgf import builtin_dgf

# the same examples on every run, and no per-example time limit: the
# property tests run numerical integrations of uneven cost
settings.register_profile("ftdiff", derandomize=True, deadline=None)
settings.load_profile("ftdiff")


@pytest.fixture(scope="session")
def ured():
    return builtin_dgf("ured")


@pytest.fixture(scope="session")
def expdgf():
    return builtin_dgf("exp")


@pytest.fixture(scope="session")
def sqrtdgf():
    return builtin_dgf("sqrt")
