import numpy as np
import pytest

from setseg import tensor as T
from setseg.evaluator import SegmentSet
# tests import these two, and inner and segments below, from here
from setseg.verify import central_difference, max_rel_error  # noqa: F401


def inner(a, b):
    """sum(a ⊙ b) as a [1, 1] tensor: matmul_nt of the two flattened tensors."""
    return T.matmul_nt(T.reshape(a, (1, a.size)), T.reshape(b, (1, b.size)))


def segments(masks, labels, void=None):
    """A SegmentSet whose segment i covers masks[i]; the masks must be disjoint."""
    ids = np.zeros(np.shape(masks[0]), np.int64)
    for i, m in enumerate(masks, start=1):
        assert not ids[m != 0].any(), "masks overlap"
        ids[m != 0] = i
    return SegmentSet(ids, list(labels), void)


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
