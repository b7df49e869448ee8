import numpy as np
import pytest

from setseg import tensor as T
from setseg.evaluator import SegmentSet
from setseg.pipeline import TargetSet
# tests import these two, and inner, segments and targets below, from here
from setseg.verify import central_difference, max_rel_error  # noqa: F401


def inner(a, b):
    """sum(a ⊙ b) as a [1, 1] tensor: matmul_nt of the two flattened tensors."""
    return T.matmul_nt(T.reshape(a, (1, a.size)), T.reshape(b, (1, b.size)))


def paint(masks, shape=None):
    """The id grid in which id i + 1 covers masks[i]; the masks must be disjoint."""
    ids = np.zeros(np.shape(masks[0]) if len(masks) else shape, np.int64)
    for i, m in enumerate(masks, start=1):
        assert not ids[m != 0].any(), "masks overlap"
        ids[m != 0] = i
    return ids


def segments(masks, labels, void=None):
    """A SegmentSet whose segment i covers masks[i]; the masks must be disjoint."""
    return SegmentSet(paint(masks), list(labels), void)


def targets(masks, labels, shape=None):
    """A TargetSet whose target i covers masks[i]; ``shape`` sizes a grid without masks."""
    return TargetSet(paint(masks, shape), list(labels))


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
