"""Input validation of the shared value types."""

import numpy as np
import pytest

from specsurf.types import CorrespondenceSet


def columns(n=4, **shapes):
    """pixels, x0, x1, x2 of n rows each, with some shapes replaced."""
    arrays = {name: np.zeros((n, 2)) for name in ("pixels", "x0", "x1", "x2")}
    arrays.update({name: np.zeros(shape) for name, shape in shapes.items()})
    return arrays


@pytest.mark.parametrize(
    "arrays",
    [
        columns(n=0),
        columns(x0=(3, 2)),
        columns(x2=(5, 2)),
        columns(x0=(4, 3)),
        columns(x1=(4,)),
        columns(pixels=(4, 3)),
        columns(pixels=(4, 2, 1)),
    ],
    ids=["empty", "short-x0", "long-x2", "x0-three-columns", "x1-flat", "pixels-three-columns", "pixels-3d"],
)
def test_malformed_arrays_rejected(arrays):
    with pytest.raises(ValueError):
        CorrespondenceSet(**arrays)
