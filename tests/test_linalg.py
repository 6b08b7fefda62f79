"""The tall-matrix R-SVD against NumPy's SVD as oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsurf.errors import SpecsurfError
from specsurf.linalg import right_singular
from specsurf.plane_pose import estimate_plane_poses
from specsurf.projection import build_observations, focal_sweep
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import NoiseSpec

seeds = st.integers(0, 2**32 - 1)


def trailing_projector(vt, nullity):
    tail = vt[len(vt) - nullity :]
    return tail.T @ tail


def graded(rng, m, k, decades):
    """Gaussian m x k matrix with columns scaled over `decades` decades."""
    return rng.normal(size=(m, k)) * np.logspace(0, -decades, k)


@settings(max_examples=50)
@given(seed=seeds, m=st.integers(1, 400), k=st.integers(1, 24), decades=st.floats(0.0, 8.0))
def test_singular_values_match_numpy(seed, m, k, decades):
    a = graded(np.random.default_rng(seed), m, k, decades)
    s, vt = right_singular(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert s.shape == (k,) and vt.shape == (k, k)
    assert np.max(np.abs(s[: len(ref)] - ref)) <= 1e-12 * ref[0]
    assert np.all(s[len(ref) :] <= 1e-14 * ref[0])
    np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-13)


@settings(max_examples=50)
@given(seed=seeds, m=st.integers(30, 400), k=st.integers(2, 24), data=st.data())
def test_trailing_subspace_on_rank_deficient_input(seed, m, k, data):
    rank = data.draw(st.integers(1, k - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, k))
    _, vt = right_singular(a)
    _, _, ref = np.linalg.svd(a)
    p = trailing_projector(vt, k - rank)
    np.testing.assert_allclose(p, trailing_projector(ref, k - rank), atol=1e-9)
    # the trailing rows are null vectors of the input
    assert np.max(np.abs(a @ vt[rank:].T)) <= 1e-12 * np.max(np.abs(a)) * m


@pytest.mark.parametrize("column", [0, 7, 17])
def test_zero_column(rng, column):
    a = rng.normal(size=(561, 18))
    a[:, column] = 0.0
    s, vt = right_singular(a)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(vt))
    assert s[-1] < 1e-14 * s[0]
    assert abs(vt[-1, column]) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-12 * s[0])


def test_zero_matrix():
    s, vt = right_singular(np.zeros((30, 6)))
    np.testing.assert_array_equal(s, 0.0)
    np.testing.assert_allclose(vt @ vt.T, np.eye(6), atol=1e-15)


def test_square(rng):
    a = rng.normal(size=(18, 18))
    s, vt = right_singular(a)
    _, ref_s, ref_vt = np.linalg.svd(a)
    np.testing.assert_allclose(s, ref_s, rtol=0, atol=1e-12 * ref_s[0])
    assert abs(vt[-1] @ ref_vt[-1]) == pytest.approx(1.0, abs=1e-12)


def test_wide_input_keeps_a_square_vt(rng):
    # 17 rows of 18 unknowns: np.linalg.svd(full_matrices=False) stops at
    # 17 right vectors; the padded R keeps the 18th, the data's null vector
    a = rng.normal(size=(17, 18))
    s, vt = right_singular(a)
    assert s.shape == (18,) and vt.shape == (18, 18)
    assert s[17] < 1e-14 * s[0]
    assert np.max(np.abs(a @ vt[17])) < 1e-13 * s[0]
    np.testing.assert_allclose(vt @ vt.T, np.eye(18), atol=1e-13)


def test_input_untouched(rng):
    a = rng.normal(size=(50, 6))
    before = a.copy()
    right_singular(a)
    np.testing.assert_array_equal(a, before)


def test_front_end_factors_no_tall_matrix(monkeypatch):
    # OpenBLAS runs LAPACK on tall inputs across its threads, which then
    # spin; the motions and camera must reach LAPACK only through small
    # k x k factors.  Every candidate is swept, as the chain does.
    scene = default_two_sphere_scene()
    data = generate_dataset(scene, grid_step=20, noise=NoiseSpec(seed=0))
    shapes = []
    for name in ("svd", "qr", "lstsq"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    sol = estimate_plane_poses(data)
    for pair in sol.candidates:
        try:
            focal_sweep(build_observations(data, pair), scene.image_size)
        except SpecsurfError:
            pass
    # the R factors of the design and incidence matrices were seen
    assert (24, 24) in shapes and (18, 18) in shapes
    assert max(s[0] for s in shapes) <= 24
