import pytest

from setseg import tensor as T
# tests import these two from here
from setseg.verify import central_difference, max_rel_error  # noqa: F401

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
