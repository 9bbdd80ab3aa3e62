import mpmath
import pytest

from kraitchik.construct import psi_xi
from kraitchik.numtheory import odd_squarefree_range


@pytest.fixture(scope="session")
def pairs_255():
    """Coefficient records for every odd squarefree 5 <= d <= 255, built once."""
    return {d: psi_xi(d) for d in odd_squarefree_range(5, 255)}


@pytest.fixture(scope="session")
def pairs_149(pairs_255):
    return {d: p for d, p in pairs_255.items() if d <= 149}


@pytest.fixture(autouse=True)
def mpmath_precision_unchanged():
    """Fail any test that leaves mpmath's global precision changed; tests
    that need more digits use ``with mpmath.workdps(...)``."""
    before = mpmath.mp.dps
    yield
    after = mpmath.mp.dps
    mpmath.mp.dps = before  # keep one leak from spreading to later tests
    assert after == before, f"test left mpmath.mp.dps at {after}, was {before}"
