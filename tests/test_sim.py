"""Ray tracer, noise model and scene file tests.

The reflection law and colinearity checks are the ground-truth oracles for
the whole estimation pipeline, so they are tested at machine precision.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from specsurf import sim
from specsurf.errors import EmptyDatasetError, ParseError, SchemaMismatchError, TooFewCorrespondencesError
from specsurf.plane_pose import estimate_plane_poses
from specsurf.sim import (
    MirrorScene,
    ParaboloidMirror,
    SphereMirror,
    apply_radial_distortion,
    default_two_sphere_scene,
    generate_dataset,
    grid_pixels,
    look_at_pose,
    pure_translation_scene,
    read_scene,
    rotation_about_axis,
    trace_pixels,
    write_scene,
)
from specsurf.types import Intrinsics, NoiseSpec, RigidPose


def lift(coords_2d, pose: RigidPose):
    pts = np.column_stack([coords_2d, np.zeros(len(coords_2d))])
    return pts @ pose.rotation.T + pose.translation


class TestRotationHelpers:
    def test_quarter_turn_about_z(self):
        r = rotation_about_axis((0, 0, 1), 90.0)
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_matches_scipy(self):
        axis = np.array([1.0, -2.0, 0.5])
        r = rotation_about_axis(axis, 37.0)
        expected = Rotation.from_rotvec(
            np.deg2rad(37.0) * axis / np.linalg.norm(axis)
        ).as_matrix()
        np.testing.assert_allclose(r, expected, atol=1e-14)

    def test_default_scene_rotations_unchanged(self):
        # the plane poses every test and benchmark scene is built from
        scene = default_two_sphere_scene()
        pose1 = [
            [0.9848432766475461, -0.13841069615108434, 0.10452846326765347],
            [0.11908421768385855, 0.9777498272686621, 0.1726969147805622],
            [-0.12610578710252898, -0.1576317051454865, 0.9794128730990714],
        ]
        pose2 = [
            [0.9632873407929415, 0.16985354835670552, -0.20791169081775934],
            [-0.20045436175062997, 0.9701990375235617, -0.1361318347907717],
            [0.17859324713776506, 0.17281087841623477, 0.9686283355228664],
        ]
        np.testing.assert_allclose(scene.poses[0].rotation, pose1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(scene.poses[1].rotation, pose2, rtol=0, atol=1e-15)

    def test_look_at_geometry(self):
        eye = np.array([100.0, -500.0, 300.0])
        target = np.array([0.0, 0.0, 900.0])
        pose = look_at_pose(eye, target)
        # proper rotation
        np.testing.assert_allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(pose.rotation) > 0
        # eye maps to the camera origin, target to the +z axis
        np.testing.assert_allclose(pose.transform(eye), 0.0, atol=1e-10)
        tc = pose.transform(target)
        assert tc[2] > 0
        np.testing.assert_allclose(tc[:2], 0.0, atol=1e-10)
        # world up appears "up" in the image (negative v direction)
        assert (pose.rotation @ [0, 0, 1])[1] < 0

    def test_look_at_degenerate_up(self):
        with pytest.raises(ValueError):
            look_at_pose((0, 0, 0), (0, 0, 1))


class TestDistortion:
    def test_unit_point(self):
        out = apply_radial_distortion(np.array([1.0, 0.0]), 0.02)
        np.testing.assert_allclose(out, [1.02, 0.0], rtol=0, atol=1e-15)

    def test_generic_point(self):
        # r^2 = 0.5 so the factor is exactly 1 + 0.5*k1
        out = apply_radial_distortion(np.array([0.5, 0.5]), 0.02)
        np.testing.assert_allclose(out, [0.505, 0.505], rtol=0, atol=1e-15)

    def test_zero_coefficient_is_identity(self):
        p = np.array([[0.3, -0.7], [0.0, 0.0]])
        assert np.array_equal(apply_radial_distortion(p, 0.0), p)

    def test_barrel_vs_pincushion(self):
        p = np.array([0.8, 0.0])
        assert apply_radial_distortion(p, -0.05)[0] < 0.8
        assert apply_radial_distortion(p, 0.05)[0] > 0.8


@pytest.fixture(scope="module")
def scene():
    return default_two_sphere_scene()


@pytest.fixture(scope="module")
def traced(scene):
    pixels = grid_pixels(scene.image_size, 8)
    valid, x0, x1, x2, points, normals = trace_pixels(scene, pixels)
    return pixels, valid, x0, x1, x2, points, normals


class TestTracer:
    def test_yield_counts(self, scene, traced):
        # regression pins for the canonical layout
        _, valid, *_ = traced
        assert int(valid.sum()) == 3514
        v12, *_ = trace_pixels(scene, grid_pixels(scene.image_size, 12))
        assert int(v12.sum()) > 1000

    def test_hit_points_on_sphere(self, scene, traced):
        _, valid, _, _, _, points, _ = traced
        pts = points[valid]
        d0 = np.abs(np.linalg.norm(pts - scene.mirrors[0].center, axis=1) - 300.0)
        d1 = np.abs(np.linalg.norm(pts - scene.mirrors[1].center, axis=1) - 300.0)
        assert np.minimum(d0, d1).max() < 1e-9

    def test_reflection_law(self, scene, traced):
        # surface normal bisects the directions to camera and to the plane point
        _, valid, x0, _, _, points, normals = traced
        m = points[valid]
        n = normals[valid]
        to_cam = scene.camera_center() - m
        to_cam /= np.linalg.norm(to_cam, axis=1, keepdims=True)
        to_x0 = lift(x0[valid], RigidPose(np.eye(3), np.zeros(3))) - m
        to_x0 /= np.linalg.norm(to_x0, axis=1, keepdims=True)
        bisector = to_cam + to_x0
        bisector /= np.linalg.norm(bisector, axis=1, keepdims=True)
        assert np.abs(bisector - n).max() < 1e-12

    def test_three_plane_points_colinear(self, scene, traced):
        _, valid, x0, x1, x2, _, _ = traced
        p0 = lift(x0[valid], RigidPose(np.eye(3), np.zeros(3)))
        p1 = lift(x1[valid], scene.poses[0])
        p2 = lift(x2[valid], scene.poses[1])
        d01 = p1 - p0
        d02 = p2 - p0
        cross = np.cross(d01, d02)
        sin_angle = np.linalg.norm(cross, axis=1) / (
            np.linalg.norm(d01, axis=1) * np.linalg.norm(d02, axis=1)
        )
        assert sin_angle.max() < 1e-12

    def test_coordinates_within_extent(self, scene, traced):
        _, valid, x0, x1, x2, _, _ = traced
        hw, hh = scene.plane_half_extent
        for arr in (x0[valid], x1[valid], x2[valid]):
            assert np.abs(arr[:, 0]).max() <= hw
            assert np.abs(arr[:, 1]).max() <= hh

    def test_paraboloid_reflection_law(self):
        base = default_two_sphere_scene()
        scene = MirrorScene(
            intrinsics=base.intrinsics,
            camera_pose=base.camera_pose,
            image_size=base.image_size,
            plane_half_extent=base.plane_half_extent,
            poses=base.poses,
            mirrors=(
                ParaboloidMirror(vertex=(0.0, 0.0, 880.0), axis=(0.0, 0.8, 0.6), focal=250.0),
            ),
        )
        pixels = grid_pixels(scene.image_size, 8)
        valid, x0, _, _, points, normals = (
            lambda t: (t[0], t[1], t[2], t[3], t[4], t[5])
        )(trace_pixels(scene, pixels))
        assert valid.sum() > 50
        m = points[valid]
        n = normals[valid]
        # hit points satisfy the surface equation in the mirror frame
        ax = scene.mirrors[0].axis
        w = m - scene.mirrors[0].vertex
        wa = w @ ax
        w_perp = w - np.outer(wa, ax)
        resid = np.sum(w_perp * w_perp, axis=1) - 4.0 * 250.0 * wa
        assert np.abs(resid).max() < 1e-6
        to_cam = scene.camera_center() - m
        to_cam /= np.linalg.norm(to_cam, axis=1, keepdims=True)
        to_x0 = lift(x0[valid], RigidPose(np.eye(3), np.zeros(3))) - m
        to_x0 /= np.linalg.norm(to_x0, axis=1, keepdims=True)
        bisector = to_cam + to_x0
        bisector /= np.linalg.norm(bisector, axis=1, keepdims=True)
        assert np.abs(bisector - n).max() < 1e-10

    def test_pure_translation_scene_traces(self):
        ds = generate_dataset(pure_translation_scene(), 12, NoiseSpec())
        assert len(ds) >= 12


class TestChunkedTrace:
    def test_grid2_yield_count(self, scene):
        valid, *_ = trace_pixels(scene, grid_pixels(scene.image_size, 2))
        assert int(valid.sum()) == 56232

    def test_split_off_chunk_boundary_matches_whole(self, scene):
        pixels = grid_pixels(scene.image_size, 2)
        assert len(pixels) > 2 * sim._TRACE_CHUNK
        cut = sim._TRACE_CHUNK + 12345
        whole = trace_pixels(scene, pixels)
        halves = zip(trace_pixels(scene, pixels[:cut]), trace_pixels(scene, pixels[cut:]))
        for full, (head, tail) in zip(whole, halves):
            assert np.array_equal(full, np.concatenate([head, tail]), equal_nan=True)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), scale=st.floats(1e-3, 1e6))
def test_dot_matches_sum_reduction(seed, n, scale):
    # the tracer's dot products are component sums; np.sum over the last
    # axis must give the same numbers, also against one (3,) operand
    rng = np.random.default_rng(seed)
    a, b = scale * rng.normal(size=(2, n, 3))
    axis = rng.normal(size=3)
    for x, y in ((a, b), (a, a), (a, axis), (axis, b)):
        assert np.array_equal(sim._dot(x, y), np.sum(x * y, axis=-1))


def reference_dataset(scene, grid_step, noise):
    """The simulator's noise model with one default_rng per triple.

    Triple i of the full grid draws normal(0, 1, 6), then uniform(-1, 1, 2),
    from default_rng([seed, i]); generate_dataset must match it bit for bit.
    """
    pixels = grid_pixels(scene.image_size, grid_step)
    valid, x0, x1, x2, _, _ = trace_pixels(scene, pixels)
    idx = np.nonzero(valid)[0]
    plane_noise = np.zeros((idx.size, 6))
    pixel_noise = np.zeros((idx.size, 2))
    for row, grid_index in enumerate(idx):
        stream = np.random.default_rng([noise.seed, int(grid_index)])
        plane_noise[row] = stream.normal(0.0, 1.0, size=6)
        pixel_noise[row] = stream.uniform(-1.0, 1.0, size=2)
    pix = sim._distort_pixels(pixels[idx], noise.k1, scene.intrinsics, scene.image_size)
    return (
        (pix + noise.gamma_px * pixel_noise).T,
        x0[idx] + noise.sigma_mm * plane_noise[:, 0:2],
        x1[idx] + noise.sigma_mm * plane_noise[:, 2:4],
        x2[idx] + noise.sigma_mm * plane_noise[:, 4:6],
    )


class TestNoiseStreams:
    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 + 7])
    def test_matches_per_triple_streams(self, scene, seed):
        noise = NoiseSpec(sigma_mm=0.5, gamma_px=0.5, k1=0.01, seed=seed)
        ds = generate_dataset(scene, 8, noise)
        for got, want in zip((ds.pixels, ds.x0, ds.x1, ds.x2), reference_dataset(scene, 8, noise)):
            assert np.array_equal(got, want)

    def test_survivors_keep_their_full_grid_stream(self, scene):
        noise = NoiseSpec(sigma_mm=1.0, gamma_px=0.7, seed=11)
        ds = generate_dataset(scene, 12, noise)
        for got, want in zip((ds.pixels, ds.x0, ds.x1, ds.x2), reference_dataset(scene, 12, noise)):
            assert np.array_equal(got, want)
        # dropping triples leaves the noise of the others unchanged
        valid, *_ = trace_pixels(scene, grid_pixels(scene.image_size, 12))
        idx = np.nonzero(valid)[0]
        every, _ = sim._draw_noise(noise.seed, idx)
        some, _ = sim._draw_noise(noise.seed, idx[::7])
        assert np.array_equal(some, every[::7])

    @given(
        seed=st.integers(0, 2**100),
        indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    )
    # one entropy word per 32 bits: at 2**96 the seed and index overflow the
    # four-word pool and take SeedSequence's extra mixing rounds
    @example(seed=2**96 - 1, indices=[0, 2**32 - 1])
    @example(seed=2**96, indices=[0, 2**32 - 1])
    @example(seed=2**100, indices=[7])
    def test_batched_seeding_matches_numpy(self, seed, indices):
        words = sim._stream_words(seed, indices)
        for row, index in enumerate(indices):
            seq = np.random.SeedSequence([seed, index])
            assert np.array_equal(words[row], seq.generate_state(4, np.uint64))
            assert np.random.PCG64(sim._Words(words[row])).state == np.random.PCG64(seq).state

    def test_index_beyond_one_word_rejected(self):
        with pytest.raises(ValueError):
            sim._stream_words(0, [2**32])

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None, True])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            NoiseSpec(seed=seed)

    @pytest.mark.parametrize(
        "terms",
        [{"sigma_mm": -0.1}, {"gamma_px": -0.1}]
        + [{name: value} for name in ("sigma_mm", "gamma_px", "k1") for value in (np.nan, np.inf, -np.inf)],
    )
    def test_negative_or_non_finite_noise_rejected(self, terms):
        with pytest.raises(ValueError, match="finite and the magnitudes non-negative"):
            NoiseSpec(**terms)

    def test_negative_k1_accepted(self):
        assert NoiseSpec(k1=-0.02).k1 == -0.02

    def test_numpy_integer_seed_becomes_int(self):
        spec = NoiseSpec(seed=np.uint64(2**63))
        assert spec.seed == 2**63 and type(spec.seed) is int


class TestGenerateDataset:
    def test_zero_noise_matches_trace_bitwise(self, scene, traced):
        pixels, valid, x0, x1, x2, points, normals = traced
        ds = generate_dataset(scene, 8, NoiseSpec(seed=3))
        assert np.array_equal(ds.pixels, pixels[valid].T)
        assert np.array_equal(ds.x0, x0[valid])
        assert np.array_equal(ds.x1, x1[valid])
        assert np.array_equal(ds.x2, x2[valid])
        assert np.array_equal(ds.gt_points, points[valid])
        assert np.array_equal(ds.gt_normals, normals[valid])

    def test_repeat_runs_bitwise_identical(self, scene):
        spec = NoiseSpec(sigma_mm=1.5, gamma_px=0.7, k1=0.01, seed=42)
        a = generate_dataset(scene, 12, spec)
        b = generate_dataset(scene, 12, spec)
        for left, right in ((a.pixels, b.pixels), (a.x0, b.x0), (a.x1, b.x1), (a.x2, b.x2)):
            assert np.array_equal(left, right)

    def test_seed_changes_noise(self, scene):
        a = generate_dataset(scene, 12, NoiseSpec(sigma_mm=1.0, seed=1))
        b = generate_dataset(scene, 12, NoiseSpec(sigma_mm=1.0, seed=2))
        assert not np.array_equal(a.x0, b.x0)

    def test_noise_statistics(self, scene):
        clean = generate_dataset(scene, 8, NoiseSpec())
        noisy = generate_dataset(scene, 8, NoiseSpec(sigma_mm=2.0, gamma_px=1.5, seed=9))
        delta = np.concatenate(
            [(noisy.x0 - clean.x0).ravel(), (noisy.x1 - clean.x1).ravel(), (noisy.x2 - clean.x2).ravel()]
        )
        assert abs(delta.std() - 2.0) < 0.1
        dpix = (noisy.pixels - clean.pixels).ravel()
        assert np.abs(dpix).max() <= 1.5
        assert np.abs(dpix).max() > 1.2  # uniform noise should reach near the bound

    def test_distortion_moves_pixels_radially(self, scene):
        clean = generate_dataset(scene, 12, NoiseSpec())
        warped = generate_dataset(scene, 12, NoiseSpec(k1=0.02, seed=0))
        centre = np.array([[scene.intrinsics.u0], [scene.intrinsics.v0]])
        r_clean = np.linalg.norm(clean.pixels - centre, axis=0)
        r_warped = np.linalg.norm(warped.pixels - centre, axis=0)
        off_centre = r_clean > 1.0
        assert np.all(r_warped[off_centre] > r_clean[off_centre])
        # plane coordinates untouched by pixel distortion
        assert np.array_equal(clean.x0, warped.x0)

    def test_ground_truth_never_perturbed(self, scene):
        noisy = generate_dataset(scene, 12, NoiseSpec(sigma_mm=3.0, gamma_px=2.0, seed=5))
        clean = generate_dataset(scene, 12, NoiseSpec())
        assert np.array_equal(noisy.gt_points, clean.gt_points)
        assert np.array_equal(noisy.gt_normals, clean.gt_normals)

    def test_too_few_triples_raises(self, scene):
        # grid 500 traces no triple
        with pytest.raises(EmptyDatasetError):
            generate_dataset(scene, 500, NoiseSpec())

    def test_scan_below_the_pose_minimum_returned(self, scene):
        data = generate_dataset(scene, 150, NoiseSpec())
        assert len(data) == 9
        with pytest.raises(TooFewCorrespondencesError):
            estimate_plane_poses(data)


SCENES = Path(__file__).parent / "scenes"


def two_spheres_paraboloid() -> MirrorScene:
    """The default scene plus a tilted paraboloid; scenes/two_spheres_paraboloid.ini holds it."""
    base = default_two_sphere_scene()
    extra = ParaboloidMirror(vertex=(10.0, -20.0, 900.0), axis=(0.1, -0.9, -0.3), focal=210.0)
    return dataclasses.replace(base, mirrors=base.mirrors + (extra,))


def assert_same_fields(a, b):
    """Bitwise equality of every field, through nested dataclasses and tuples."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_fields(x, y)
    else:
        assert np.array_equal(a, b)


class TestSceneFiles:
    def test_round_trip(self, tmp_path):
        scene = two_spheres_paraboloid()
        path = tmp_path / "scene.ini"
        write_scene(scene, path)
        loaded = read_scene(path)
        assert_same_fields(loaded, scene)
        assert len(loaded.poses) == 2
        for got, want in zip(loaded.poses, scene.poses, strict=True):
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)
        assert isinstance(loaded.mirrors[2], ParaboloidMirror)
        assert loaded.mirrors[0].radius == 300.0

    def test_writes_the_pinned_file(self, tmp_path):
        path = tmp_path / "scene.ini"
        write_scene(two_spheres_paraboloid(), path)
        assert path.read_bytes() == (SCENES / "two_spheres_paraboloid.ini").read_bytes()

    def test_reads_the_pinned_file(self):
        assert_same_fields(read_scene(SCENES / "two_spheres_paraboloid.ini"), two_spheres_paraboloid())

    def test_missing_section_raises(self, tmp_path):
        scene = default_two_sphere_scene()
        path = tmp_path / "scene.ini"
        write_scene(scene, path)
        text = path.read_text()
        path.write_text(text.replace("[pose2]", "[pose2_renamed]"))
        with pytest.raises(SchemaMismatchError):
            read_scene(path)

    def test_unread_section_raises(self, tmp_path):
        # a mirror after a gap in the numbering and a third pose would be
        # dropped without a word: one mirror and two motions read back
        path = tmp_path / "scene.ini"
        write_scene(default_two_sphere_scene(), path)
        text = path.read_text().replace("[mirror2]", "[mirror3]")
        pose = text[text.index("[pose2]") : text.index("[mirror1]")]
        path.write_text(text + "\n" + pose.replace("[pose2]", "[pose3]"))
        with pytest.raises(SchemaMismatchError, match="mirror3, pose3"):
            read_scene(path)

    def test_bad_version_raises(self, tmp_path):
        scene = default_two_sphere_scene()
        path = tmp_path / "scene.ini"
        write_scene(scene, path)
        path.write_text(path.read_text().replace("format_version = 1", "format_version = 99"))
        with pytest.raises(SchemaMismatchError):
            read_scene(path)

    def test_non_numeric_raises(self, tmp_path):
        scene = default_two_sphere_scene()
        path = tmp_path / "scene.ini"
        write_scene(scene, path)
        path.write_text(path.read_text().replace("radius = 300", "radius = big"))
        with pytest.raises(ParseError):
            read_scene(path)

    def test_non_finite_pose_raises(self, tmp_path):
        # a NaN rotation entry fails no orthonormality comparison; the scene
        # rejects it before the determinant, and read_scene says ParseError
        path = tmp_path / "scene.ini"
        write_scene(default_two_sphere_scene(), path)
        text = path.read_text()
        start = text.index("[pose2]\nrotation = ") + len("[pose2]\nrotation = ")
        path.write_text(text[:start] + "nan" + text[text.index(" ", start):])
        with pytest.raises(ParseError):
            read_scene(path)

    def test_non_finite_mirror_raises(self, tmp_path):
        path = tmp_path / "scene.ini"
        write_scene(default_two_sphere_scene(), path)
        text = path.read_text()
        assert text.count("center = -340 0 850") == 1
        path.write_text(text.replace("center = -340 0 850", "center = nan 0 850"))
        with pytest.raises(ParseError):
            read_scene(path)

    @pytest.mark.parametrize("size", [("0", "960"), ("-5", "10")])
    def test_bad_image_size_raises(self, tmp_path, size):
        path = tmp_path / "scene.ini"
        write_scene(default_two_sphere_scene(), path)
        text = path.read_text()
        assert text.count("width = 1280\nheight = 960") == 1
        path.write_text(text.replace("width = 1280\nheight = 960", "width = {}\nheight = {}".format(*size)))
        with pytest.raises(ParseError, match="image size"):
            read_scene(path)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "scene.ini"
        path.write_text("not an ini file\x00???")
        with pytest.raises((ParseError, SchemaMismatchError)):
            read_scene(path)


class TestSceneValidation:
    """MirrorScene rejects what the tracer cannot use: NaN fails every
    comparison, so each finiteness is checked before the rotation tests."""

    @staticmethod
    def with_nan(pose: RigidPose, field: str) -> RigidPose:
        value = getattr(pose, field).copy()
        value.flat[1] = np.nan
        return dataclasses.replace(pose, **{field: value})

    @pytest.mark.parametrize("field", ["rotation", "translation"])
    def test_non_finite_camera_pose_rejected(self, field):
        base = default_two_sphere_scene()
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(base, camera_pose=self.with_nan(base.camera_pose, field))

    @pytest.mark.parametrize("field", ["rotation", "translation"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_plane_pose_rejected(self, field, which):
        base = default_two_sphere_scene()
        poses = list(base.poses)
        poses[which] = self.with_nan(poses[which], field)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(base, poses=tuple(poses))

    @pytest.mark.parametrize(
        "extent", [(np.nan, 1000.0), (1000.0, np.nan), (np.inf, 1000.0), (1000.0, 0.0), (-5.0, 1000.0)]
    )
    def test_bad_plane_extent_rejected(self, extent):
        with pytest.raises(ValueError, match="plane extent"):
            dataclasses.replace(default_two_sphere_scene(), plane_half_extent=extent)

    @pytest.mark.parametrize("size", [(0, 0), (1280, np.nan), (-5, 10), (np.inf, 960), (1280, 0)])
    def test_bad_image_size_rejected(self, size):
        with pytest.raises(ValueError, match="image size"):
            dataclasses.replace(default_two_sphere_scene(), image_size=size)

    @pytest.mark.parametrize(
        "cls, geometry",
        [
            (SphereMirror, {"center": (np.nan, 0.0, 850.0), "radius": 300.0}),
            (SphereMirror, {"center": (0.0, 0.0, 850.0), "radius": np.inf}),
            (ParaboloidMirror, {"vertex": (0.0, 0.0, 880.0), "axis": (np.nan, 0.8, 0.6), "focal": 250.0}),
            (ParaboloidMirror, {"vertex": (0.0, np.inf, 880.0), "axis": (0.0, 0.8, 0.6), "focal": 250.0}),
            (ParaboloidMirror, {"vertex": (0.0, 0.0, 880.0), "axis": (0.0, 0.8, 0.6), "focal": np.inf}),
        ],
        ids=["nan-sphere-center", "infinite-radius", "nan-paraboloid-axis", "infinite-vertex", "infinite-focal"],
    )
    def test_non_finite_mirror_rejected(self, cls, geometry):
        with pytest.raises(ValueError, match="finite"):
            cls(**geometry)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_pose_count_other_than_two_rejected(self, count):
        # a CorrespondenceSet holds three plane points: poses 0, 1 and 2
        base = default_two_sphere_scene()
        with pytest.raises(ValueError, match="two plane motions"):
            dataclasses.replace(base, poses=(base.poses * 2)[:count])
