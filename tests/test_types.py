"""Input validation of the shared value types."""

import numpy as np
import pytest

from specsurf.types import CorrespondenceSet, Intrinsics


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["pixels", "x0", "x1", "x2"])
def test_non_finite_scan_rejected(name, value):
    # the stages hold no path for a non-finite value: the scan is checked here
    arrays = columns()
    arrays[name][2, 1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CorrespondenceSet(**arrays)


@pytest.mark.parametrize(
    "values",
    [
        (0.0, 1000.0, 320.0, 240.0),
        (1000.0, -1.0, 320.0, 240.0),
        (np.inf, 1000.0, 320.0, 240.0),
        (1000.0, np.nan, 320.0, 240.0),
        (1000.0, 1000.0, np.nan, 240.0),
        (1000.0, 1000.0, 320.0, -np.inf),
    ],
    ids=["zero-fx", "negative-fy", "infinite-fx", "nan-fy", "nan-u0", "infinite-v0"],
)
def test_bad_intrinsics_rejected(values):
    with pytest.raises(ValueError, match="finite"):
        Intrinsics(*values)


def test_planes_are_rows_first_copies():
    # one (2, n) row stack per pose, pose-major, in memory of its own
    rng = np.random.default_rng(5)
    arrays = {name: rng.normal(size=(7, 2)) for name in ("pixels", "x0", "x1", "x2")}
    data = CorrespondenceSet(**arrays)
    planes = data.planes
    assert planes.shape == (3, 2, 7) and planes.dtype == float
    assert planes.flags.c_contiguous
    for k, name in enumerate(("x0", "x1", "x2")):
        assert np.array_equal(planes[k], arrays[name].T)
        assert not np.shares_memory(planes, arrays[name])
    planes[0, 0, 0] += 1.0
    assert np.array_equal(data.planes[0], arrays["x0"].T)
