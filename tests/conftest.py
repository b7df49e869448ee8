import numpy as np
import pytest

from setseg import tensor as T
from setseg.verify import central_difference  # noqa: F401  (tests import it from here)

# pass/fail lines from the acceptance suite, echoed after capture ends
CRITERION_LINES: list[str] = []


def pytest_sessionfinish(session):
    if CRITERION_LINES:
        print("\nacceptance criteria:")
        for line in CRITERION_LINES:
            print(f"  {line}")


@pytest.fixture(autouse=True)
def fresh_tape():
    """Give every test its own ambient tape so entries do not pile up."""
    T.reset_ambient_tape()
    yield
    T.reset_ambient_tape()


def max_rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)
