import pytest

from setseg import tensor as T
# tests import these two, and inner below, from here
from setseg.verify import central_difference, max_rel_error  # noqa: F401


def inner(a, b):
    """sum(a ⊙ b) as a [1, 1] tensor: matmul_nt of the two flattened tensors."""
    return T.matmul_nt(T.reshape(a, (1, a.size)), T.reshape(b, (1, b.size)))


# pass/fail lines from the acceptance suite, echoed after capture ends
CRITERION_LINES: list[str] = []


def pytest_sessionfinish(session):
    if CRITERION_LINES:
        print("\nacceptance criteria:")
        for line in CRITERION_LINES:
            print(f"  {line}")


@pytest.fixture(autouse=True)
def fresh_tape():
    """Run every test inside its own tape, freed when the test ends."""
    with T.Tape():
        yield
