"""Input validation of the shared value types."""

import dataclasses

import numpy as np
import pytest

from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import CorrespondenceSet, Intrinsics, NoiseSpec


def columns(n=4, **shapes):
    """pixels (n, 2) and planes (3, 2, n) of zeros, with some shapes replaced."""
    arrays = {"pixels": np.zeros((n, 2)), "planes": np.zeros((3, 2, n))}
    arrays.update({name: np.zeros(shape) for name, shape in shapes.items()})
    return arrays


@pytest.mark.parametrize(
    "arrays",
    [
        columns(n=0),
        columns(planes=(3, 2, 3)),
        columns(planes=(3, 2, 5)),
        columns(planes=(3, 3, 4)),
        columns(planes=(3, 8)),
        columns(planes=(2, 2, 4)),
        columns(planes=(3, 4, 2)),
        columns(pixels=(4, 3)),
        columns(pixels=(4, 2, 1)),
    ],
    ids=[
        "empty",
        "short-planes",
        "long-planes",
        "planes-three-rows",
        "planes-flat",
        "planes-two-poses",
        "planes-rows-last",
        "pixels-three-columns",
        "pixels-3d",
    ],
)
def test_malformed_arrays_rejected(arrays):
    with pytest.raises(ValueError):
        CorrespondenceSet(**arrays)


# where a non-finite value goes: a pixel, or a plane point of pose 0, 1 or 2
NON_FINITE_AT = {
    "pixels": ("pixels", (2, 1)),
    "x0": ("planes", (0, 1, 2)),
    "x1": ("planes", (1, 0, 2)),
    "x2": ("planes", (2, 1, 3)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", list(NON_FINITE_AT))
def test_non_finite_scan_rejected(where, value):
    # the stages hold no path for a non-finite value: the scan is checked here
    name, index = NON_FINITE_AT[where]
    arrays = columns()
    arrays[name][index] = value
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
    # one (2, n) row stack per pose, pose-major, in memory of its own and
    # read-only, as are the pixels
    rng = np.random.default_rng(5)
    pixels, planes = rng.normal(size=(7, 2)), rng.normal(size=(3, 2, 7))
    want_pixels, want_planes = pixels.copy(), planes.copy()
    data = CorrespondenceSet(pixels, planes)
    for got, given in ((data.pixels, pixels), (data.planes, planes)):
        assert got.dtype == float and got.flags.c_contiguous and not got.flags.writeable
        assert not np.shares_memory(got, given)
    for k, x in enumerate((data.x0, data.x1, data.x2)):
        assert np.array_equal(x, want_planes[k].T) and not x.flags.writeable
    # the caller's arrays stay the caller's: editing them leaves the scan
    pixels[0, 0] = planes[1, 0, 3] = np.nan
    assert np.array_equal(data.pixels, want_pixels)
    assert np.array_equal(data.planes, want_planes)


def test_integer_points_become_float():
    data = CorrespondenceSet(np.arange(8).reshape(4, 2), np.ones((3, 2, 4), dtype=int))
    assert data.pixels.dtype == data.planes.dtype == float


@pytest.fixture(scope="module")
def clean_g20():
    return generate_dataset(default_two_sphere_scene(), 20, NoiseSpec())


@pytest.mark.parametrize(
    ("name", "index"), [("pixels", 100), ("planes", (0, 0, 100)), ("x0", 100), ("x2", (100, 1))]
)
def test_write_to_the_scan_raises_at_the_write(clean_g20, name, index):
    # an in-place NaN once got round the check and reached the sweep as an
    # untyped LinAlgError; now the write itself is refused
    with pytest.raises(ValueError, match="read-only"):
        getattr(clean_g20, name)[index] = np.nan
    assert np.isfinite(clean_g20.pixels).all() and np.isfinite(clean_g20.planes).all()


@pytest.mark.parametrize("name", ["pixels", "planes", "gt_points"])
def test_fields_cannot_be_reassigned(clean_g20, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(clean_g20, name, getattr(clean_g20, name))


def test_replace_drops_the_ground_truth(clean_g20):
    bare = dataclasses.replace(clean_g20, gt_points=None, gt_normals=None)
    assert bare.gt_points is None and bare.gt_normals is None
    assert np.array_equal(bare.pixels, clean_g20.pixels)
    assert np.array_equal(bare.planes, clean_g20.planes)
    assert not bare.planes.flags.writeable
