"""Plane motion recovery: design matrix, pencil solvers, factorization.

The independent oracle here builds colinear triples directly from random 3D
lines crossed with three plane poses, with no ray tracing involved, so the
algebraic pipeline is checked against geometry it has never seen.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsurf.errors import (
    RankAmbiguousError,
    SpecsurfError,
    TooFewCorrespondencesError,
)
from specsurf import plane_pose, projection
from specsurf.plane_pose import (
    _factor_null_vector,
    _polish_objective,
    build_design_matrix,
    candidate_null_vectors,
    estimate_plane_poses,
    line_offset_residual,
    nullspace_basis,
    pack_motion,
    refine_plane_poses,
    spurious_null_vector,
)
from specsurf.sim import SphereMirror, default_two_sphere_scene, generate_dataset, pure_translation_scene
from specsurf.types import CorrespondenceSet, NoiseSpec, RigidPose

from conftest import planes_of, random_rotation, second_root_scene


def line_plane_triples(rng, n, pose1, pose2):
    """Colinear triples from random 3D lines hitting the three plane poses."""
    rows0, rows1, rows2 = [], [], []
    while len(rows0) < n:
        a = rng.uniform([-500.0, -500.0, 200.0], [500.0, 500.0, 900.0])
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        if abs(u[2]) < 0.2:
            continue
        x0 = a - (a[2] / u[2]) * u
        locals_ = []
        ok = True
        for pose in (pose1, pose2):
            normal = pose.rotation[:, 2]
            denom = normal @ u
            if abs(denom) < 0.2:
                ok = False
                break
            ti = normal @ (pose.translation - a) / denom
            locals_.append(pose.rotation.T @ (a + ti * u - pose.translation))
        if not ok:
            continue
        rows0.append(x0[:2])
        rows1.append(locals_[0][:2])
        rows2.append(locals_[1][:2])
    return np.asarray(rows0), np.asarray(rows1), np.asarray(rows2)


def tilted_pose_pair():
    def rot(ax, ang):
        c, s = np.cos(np.radians(ang)), np.sin(np.radians(ang))
        if ax == "x":
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        if ax == "y":
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

    r1 = rot("x", -14.0) @ rot("y", 9.0) @ rot("z", 5.0)
    r2 = rot("x", 7.0) @ rot("y", -11.0) @ rot("z", -13.0)
    return (
        RigidPose(r1, np.array([55.0, -35.0, 160.0])),
        RigidPose(r2, np.array([-60.0, 70.0, 330.0])),
    )


def rms_scale(x0, x1, x2):
    return float(np.sqrt(np.mean(np.concatenate([x0.ravel(), x1.ravel(), x2.ravel()]) ** 2)))


def scaled_pack(motions, scale):
    return pack_motion(tuple(RigidPose(p.rotation, p.translation / scale) for p in motions))


def rows_pack(m, n):
    """pack_motion of the motions whose row matrices _factor_null_vector returns."""

    def pose(rows):
        return RigidPose(
            np.column_stack([rows[:, 0], rows[:, 1], np.cross(rows[:, 0], rows[:, 1])]), rows[:, 2]
        )

    return pack_motion((pose(m), pose(n)))


def motion_form(v):
    """The cubic identity every motion pack satisfies (see TestMotionForm)."""
    return v[18] * v[6] * v[23] - v[18] * v[8] * v[21] - v[20] * v[0] * v[23] + v[20] * v[2] * v[21]


def unpolished(monkeypatch):
    """Make estimate_plane_poses return its candidates without the polish."""
    monkeypatch.setattr(plane_pose, "refine_plane_poses", lambda motions, planes: motions)


def rotation_angle_deg(r1, r2):
    cosang = (np.trace(r1.T @ r2) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))


def best_pose_errors(solution, truth):
    """(rotation deg, relative translation) of the closest returned candidate."""
    best = (np.inf, np.inf)
    for cand in solution.candidates:
        pairs = list(zip(cand, truth, strict=True))
        rot = max(rotation_angle_deg(c.rotation, t.rotation) for c, t in pairs)
        tr = max(np.linalg.norm(c.translation - t.translation) / np.linalg.norm(t.translation) for c, t in pairs)
        if rot < best[0]:
            best = (rot, tr)
    return best


@pytest.fixture(scope="module")
def scene():
    return default_two_sphere_scene()


@pytest.fixture(scope="module")
def clean_data(scene):
    return generate_dataset(scene, grid_step=12, noise=NoiseSpec(0.0, 0.0, 0.0, 7))


@pytest.fixture(scope="module")
def synthetic():
    rng = np.random.default_rng(42)
    pose1, pose2 = tilted_pose_pair()
    x0, x1, x2 = line_plane_triples(rng, 240, pose1, pose2)
    return x0, x1, x2, pose1, pose2


class TestDesignMatrix:
    def test_two_rows_per_triple(self, synthetic):
        # rows first: one row per unknown, two constraint columns per triple
        x0, x1, x2, *_ = synthetic
        e = build_design_matrix(planes_of(x0, x1, x2)[..., :13])
        assert e.shape == (24, 26)

    def test_columns_of_each_triple(self, synthetic):
        # column 2i is triple i's x constraint, column 2i + 1 its y one
        x0, x1, x2, *_ = synthetic
        e = build_design_matrix(planes_of(x0, x1, x2))
        for i in (0, 1, 117, len(x0) - 1):
            h1, h2 = np.append(x1[i], 1.0), np.append(x2[i], 1.0)
            kron, zero = np.kron(h2, h1), np.zeros(9)
            a, b = x0[i]
            assert np.array_equal(e[:, 2 * i], np.concatenate([kron, zero, -a * h2, a * h1]))
            assert np.array_equal(e[:, 2 * i + 1], np.concatenate([zero, kron, -b * h2, b * h1]))

    def test_too_few_triples_rejected(self, synthetic):
        x0, x1, x2, *_ = synthetic
        with pytest.raises(TooFewCorrespondencesError):
            build_design_matrix(planes_of(x0, x1, x2)[..., :11])

    def test_ground_truth_motion_annihilated(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        e = build_design_matrix(planes_of(x0, x1, x2) / s)
        w = scaled_pack((pose1, pose2), s)
        rel = np.linalg.norm(w @ e) / (np.linalg.norm(e) * np.linalg.norm(w))
        assert rel < 1e-10

    def test_ground_truth_motion_annihilated_traced(self, scene, clean_data):
        s = rms_scale(clean_data.x0, clean_data.x1, clean_data.x2)
        e = build_design_matrix(clean_data.planes / s)
        w = scaled_pack(scene.poses, s)
        rel = np.linalg.norm(w @ e) / (np.linalg.norm(e) * np.linalg.norm(w))
        assert rel < 1e-10

    def test_structural_column_pair(self, synthetic):
        # translation-z slots of the two third-row blocks enter every
        # constraint with opposite signs, making one null direction
        # data-independent
        x0, x1, x2, *_ = synthetic
        e = build_design_matrix(planes_of(x0, x1, x2))
        assert np.array_equal(e[20], -e[23])
        assert np.max(np.abs(spurious_null_vector() @ e)) < 1e-12 * np.abs(e).max()

    def test_coordinate_doubling_rescales_columns(self, synthetic):
        # doubling all plane coordinates multiplies each row by a fixed
        # factor (the homogeneous entry stays 1), so the nullspace span
        # moves by the inverse diagonal rather than staying put
        x0, x1, x2, *_ = synthetic
        s = rms_scale(x0, x1, x2)
        planes = planes_of(x0, x1, x2) / s
        e1 = build_design_matrix(planes)
        e2 = build_design_matrix(2 * planes)
        sdiag = np.array([2.0, 2.0, 1.0])
        d = np.empty(24)
        for i in range(3):
            for j in range(3):
                d[3 * i + j] = d[9 + 3 * i + j] = sdiag[i] * sdiag[j]
        d[18:21] = 2.0 * sdiag
        d[21:24] = 2.0 * sdiag
        assert np.array_equal(e2, e1 * d[:, None])

        d1a, d2a, _ = nullspace_basis(e1)
        d1b, d2b, _ = nullspace_basis(e2)
        qa, _ = np.linalg.qr(np.column_stack([d1a / d, d2a / d]))
        qb, _ = np.linalg.qr(np.column_stack([d1b, d2b]))
        angles = np.arccos(np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False), -1, 1))
        assert angles.max() < 1e-6


class TestNullspace:
    def test_exactly_two_vanishing_singulars(self, synthetic):
        x0, x1, x2, *_ = synthetic
        s = rms_scale(x0, x1, x2)
        e = build_design_matrix(planes_of(x0, x1, x2) / s)
        sv = np.linalg.svd(e, compute_uv=False)
        assert sv[22] < 1e-10 * sv[0]
        assert sv[23] < 1e-10 * sv[0]
        assert sv[21] > 1e-10 * sv[0]

    def test_gap_large_on_clean_data(self, synthetic):
        x0, x1, x2, *_ = synthetic
        s = rms_scale(x0, x1, x2)
        _, _, gap = nullspace_basis(build_design_matrix(planes_of(x0, x1, x2) / s))
        assert gap >= 100.0

    def test_basis_spans_truth_and_structural_direction(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(planes_of(x0, x1, x2) / s))
        basis = np.column_stack([d1, d2])
        for target in (scaled_pack((pose1, pose2), s), spurious_null_vector()):
            t = target / np.linalg.norm(target)
            coeff, *_ = np.linalg.lstsq(basis, t, rcond=None)
            assert np.linalg.norm(basis @ coeff - t) < 1e-8

    def test_too_few_rows_rejected(self):
        with pytest.raises(TooFewCorrespondencesError):
            nullspace_basis(np.zeros((24, 22)))

    def test_noisy_data_shrinks_gap(self, scene):
        # the gap is a noise readout, not a degeneracy test: healthy data
        # at 3 mm brings it near 1 and the basis is still returned
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(3.0, 0.0, 0.0, 5))
        s = rms_scale(data.x0, data.x1, data.x2)
        _, _, gap = nullspace_basis(build_design_matrix(data.planes / s))
        assert 1.0 < gap < 10.0


class TestBetaSolver:
    """The pencil quadratic of candidate_null_vectors."""

    def test_truth_direction_among_pencil_roots(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(planes_of(x0, x1, x2) / s))
        w = scaled_pack((pose1, pose2), s)
        w /= np.linalg.norm(w)
        best = min(
            min(np.linalg.norm(v - w), np.linalg.norm(v + w)) for v in candidate_null_vectors(d1, d2)
        )
        assert best < 1e-8

    def test_zero_root_when_first_vector_already_solves(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        w = scaled_pack((pose1, pose2), s)
        w /= np.linalg.norm(w)
        vectors = candidate_null_vectors(w, spurious_null_vector())
        assert min(np.linalg.norm(v - w) for v in vectors) < 1e-10

    def test_roots_without_direction_dropped(self):
        # d is orthogonal to the structural direction and its quadratic is
        # beta^2 + 1: no real root, so no direction at all
        d = np.zeros(24)
        d[[0, 8]] = -1.0
        d[[18, 21]] = 1.0
        assert d @ spurious_null_vector() == 0.0
        assert candidate_null_vectors(d, spurious_null_vector()) == []

    @pytest.mark.parametrize(
        "grid, sigma, gamma", [(20, 0.0, 0.0), (8, 1.0, 0.5)], ids=["clean", "noisy"]
    )
    def test_two_directions_and_never_structural(self, scene, grid, sigma, gamma):
        # the structural direction is the cubic's root at infinity: the
        # quadratic along it leaves exactly the two finite roots
        data = generate_dataset(scene, grid_step=grid, noise=NoiseSpec(sigma, gamma, 0.0, 0))
        s = rms_scale(data.x0, data.x1, data.x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(data.planes / s))
        vectors = candidate_null_vectors(d1, d2)
        assert len(vectors) == 2
        structural = spurious_null_vector()
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert abs(motion_form(v)) < 1e-12
            assert min(np.linalg.norm(v - structural), np.linalg.norm(v + structural)) > 0.5

    def test_candidate_directions_are_unit(self, synthetic):
        x0, x1, x2, *_ = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(planes_of(x0, x1, x2) / s))
        for v in candidate_null_vectors(d1, d2):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


class TestAlphaSolver:
    """The scale step of _factor_null_vector."""

    def pencil_truth(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(planes_of(x0, x1, x2) / s))
        w = scaled_pack((pose1, pose2), s)
        unit = w / np.linalg.norm(w)
        v = min(
            candidate_null_vectors(d1, d2),
            key=lambda v: min(np.linalg.norm(v - unit), np.linalg.norm(v + unit)),
        )
        return v, w

    def test_scale_recovers_ground_truth_motion(self, synthetic):
        # the pack is the truth or its negative, and the twin's is its negative
        v, w = self.pencil_truth(synthetic)
        m, n = _factor_null_vector(v)
        pack = rows_pack(m, n)
        assert min(np.linalg.norm(pack - w), np.linalg.norm(pack + w)) < 1e-7 * np.linalg.norm(w)
        twin = plane_pose._mirror_twin(plane_pose._rows_to_motions(m, n))
        assert np.linalg.norm(pack_motion(twin) + pack) < 1e-12 * np.linalg.norm(w)

    def test_both_signs_returned(self, synthetic):
        # the twin is the -alpha factoring: the same first two rows of
        # [R[:, 0] R[:, 1] t], the third negated
        v, _ = self.pencil_truth(synthetic)
        motions = plane_pose._rows_to_motions(*_factor_null_vector(v))
        twin = plane_pose._mirror_twin(motions)
        for a, b in zip(motions, twin, strict=True):
            rows_a = np.column_stack([a.rotation[:, :2], a.translation])
            rows_b = np.column_stack([b.rotation[:, :2], b.translation])
            assert np.array_equal(rows_a[:2], rows_b[:2])
            assert np.array_equal(rows_a[2], -rows_b[2])

    def test_negating_input_flips_signs(self, synthetic):
        # -v factors into the mirror twin of v's motions
        v, _ = self.pencil_truth(synthetic)
        twin = plane_pose._mirror_twin(plane_pose._rows_to_motions(*_factor_null_vector(v)))
        flipped = plane_pose._rows_to_motions(*_factor_null_vector(-v))
        for a, b in zip(twin, flipped, strict=True):
            assert np.allclose(a.rotation, b.rotation, rtol=0, atol=1e-12)
            assert np.allclose(a.translation, b.translation, rtol=0, atol=1e-12)

    def test_scale_halves_when_vector_doubles(self, synthetic):
        # the factored rows do not depend on the input's length, so the
        # scale applied to 2v is half the one applied to v, and so the twins
        # built from them agree too
        v, _ = self.pencil_truth(synthetic)
        (m1, n1), (m2, n2) = _factor_null_vector(v), _factor_null_vector(2.0 * v)
        assert np.allclose(m1, m2, rtol=1e-9, atol=0)
        assert np.allclose(n1, n2, rtol=1e-9, atol=0)
        twin1 = plane_pose._mirror_twin(plane_pose._rows_to_motions(m1, n1))
        twin2 = plane_pose._mirror_twin(plane_pose._rows_to_motions(m2, n2))
        for a, b in zip(twin1, twin2, strict=True):
            assert np.allclose(a.rotation, b.rotation, rtol=1e-9, atol=1e-15)
            assert np.allclose(a.translation, b.translation, rtol=1e-9, atol=0)

    def test_zero_pivot_slot_rejected(self, synthetic):
        v, _ = self.pencil_truth(synthetic)
        v = v.copy()
        v[18:24] = 0.0
        assert _factor_null_vector(v) is None


class TestMotionForm:
    def test_outer_product_blocks_have_rank_two(self, rng):
        for _ in range(25):
            pose1 = RigidPose(random_rotation(rng), rng.uniform(-2, 2, size=3))
            pose2 = RigidPose(random_rotation(rng), rng.uniform(-2, 2, size=3))
            w = pack_motion((pose1, pose2))
            assert abs(motion_form(w)) < 1e-12 * np.linalg.norm(w) ** 3
            for block in (w[:9].reshape(3, 3), w[9:18].reshape(3, 3)):
                sv = np.linalg.svd(block, compute_uv=False)
                assert sv[2] < 1e-6 * sv[0]

    def test_design_matrix_annihilates_random_motions(self, rng):
        # triples synthesized for arbitrary motions must satisfy the
        # constraint rows regardless of any physical plausibility
        for _ in range(5):
            pose1 = RigidPose(random_rotation(rng), rng.uniform(-200, 200, size=3))
            pose2 = RigidPose(random_rotation(rng), rng.uniform(-200, 200, size=3))
            x0, x1, x2 = line_plane_triples(rng, 40, pose1, pose2)
            s = rms_scale(x0, x1, x2)
            e = build_design_matrix(planes_of(x0, x1, x2) / s)
            w = scaled_pack((pose1, pose2), s)
            assert np.linalg.norm(w @ e) / (np.linalg.norm(e) * np.linalg.norm(w)) < 1e-10


class TestEstimate:
    def test_exact_recovery_from_traced_data(self, scene, clean_data):
        sol = estimate_plane_poses(clean_data)
        rot, tr = best_pose_errors(sol, scene.poses)
        assert rot < 1e-5
        assert tr < 1e-6
        assert sol.residual < 1e-6

    def test_exact_recovery_from_synthetic_lines(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        data = CorrespondenceSet(np.zeros((len(x0), 2)), planes_of(x0, x1, x2))
        sol = estimate_plane_poses(data)
        rot, tr = best_pose_errors(sol, (pose1, pose2))
        # the angle readout bottoms out near sqrt(eps); check it and the
        # translations at their respective floors
        assert rot < 1e-5
        assert tr < 1e-8

    def test_mirror_twins_share_residual(self, clean_data):
        sol = estimate_plane_poses(clean_data)
        assert len(sol.candidates) >= 2
        # twins differ in the sign of the translation z-components but fit
        # the collinearity identically
        r0, r1 = (line_offset_residual(c, clean_data.planes) for c in sol.candidates)
        assert r1 <= max(10.0 * max(r0, 1e-14), 1e-6)
        z0 = sol.candidates[0][0].translation[2]
        z1 = sol.candidates[1][0].translation[2]
        assert z0 == pytest.approx(-z1, rel=1e-5)

    def test_candidate_translations_unscaled_to_mm(self, scene, clean_data):
        sol = estimate_plane_poses(clean_data)
        best = min(
            sol.candidates,
            key=lambda c: np.linalg.norm(c[0].translation - scene.poses[0].translation),
        )
        assert np.linalg.norm(best[0].translation - scene.poses[0].translation) < 1e-6

    def test_too_few_triples_rejected(self, clean_data):
        data = CorrespondenceSet(clean_data.pixels[:11], clean_data.planes[..., :11])
        with pytest.raises(TooFewCorrespondencesError):
            estimate_plane_poses(data)

    def test_zero_coordinates_rejected(self, clean_data):
        # coordinates with no scale determine no motion
        data = CorrespondenceSet(clean_data.pixels, np.zeros_like(clean_data.planes))
        with pytest.raises(RankAmbiguousError, match="do not determine"):
            estimate_plane_poses(data)

    def test_noisy_recovery_within_tolerance(self, scene):
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(1.0, 0.0, 0.0, 11))
        sol = estimate_plane_poses(data)
        rot, tr = best_pose_errors(sol, scene.poses)
        assert rot < 0.5
        assert tr < 0.05

    def test_heavy_noise_recovery(self, scene):
        # 3 mm brings the rank gap near 1 (see TestNullspace); the motions
        # are still recovered
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(3.0, 0.0, 0.0, 13))
        sol = estimate_plane_poses(data)
        rot, _ = best_pose_errors(sol, scene.poses)
        assert rot < 2.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_noise_ladder(self, scene, sigma, seed):
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(sigma, 0.5, 0.0, seed))
        sol = estimate_plane_poses(data)
        best = min(
            (
                max(rotation_angle_deg(c.rotation, t.rotation) for c, t in zip(cand, scene.poses, strict=True)),
                max(np.linalg.norm(c.translation - t.translation) for c, t in zip(cand, scene.poses, strict=True)),
            )
            for cand in sol.candidates
        )
        assert best[0] < 0.25 * sigma  # degrees
        assert best[1] < 5.0 * sigma  # mm

    def test_noisy_chain_recovers_camera(self, scene):
        # the benchmark chain with no ground truth: every candidate is
        # swept, and the camera with the lowest point-to-line cost is kept
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(1.0, 0.5, 0.0, 0))
        cameras = []
        for cand in estimate_plane_poses(data).candidates:
            obs = projection.build_observations(data, cand)
            try:
                cameras.append(projection.focal_sweep(obs, scene.image_size))
            except SpecsurfError:
                continue
        camera = min(cameras, key=lambda cam: cam.cost)
        f_true = scene.intrinsics.fx
        assert abs(camera.intrinsics.fx - f_true) / f_true < 0.02
        assert rotation_angle_deg(camera.rotation, scene.camera_pose.rotation) < 0.5

    @pytest.mark.parametrize("grid", [8, 12, 20])
    def test_second_rigid_root_is_dropped(self, grid, monkeypatch):
        # two nullspace roots factor into rigid motions; only the better fit
        # is polished and returned, with its mirror twin
        data = generate_dataset(second_root_scene(), grid_step=grid, noise=NoiseSpec())
        rows_to_motions, refine = plane_pose._rows_to_motions, plane_pose.refine_plane_poses
        rigid, polished = [], []

        def rows_to_motions_traced(*rows):
            motions = rows_to_motions(*rows)
            if motions is not None:
                rigid.append(motions)
            return motions

        def refine_traced(motions, planes):
            polished.append(planes)
            return refine(motions, planes)

        monkeypatch.setattr(plane_pose, "_rows_to_motions", rows_to_motions_traced)
        monkeypatch.setattr(plane_pose, "refine_plane_poses", refine_traced)
        sol = estimate_plane_poses(data)
        assert len(rigid) == 2
        assert len(polished) == 1
        assert len(sol.candidates) == 2
        s = rms_scale(data.x0, data.x1, data.x2)
        offsets = sorted(s * line_offset_residual(motions, polished[0]) for motions in rigid)
        assert offsets[0] < 1e-9 and offsets[1] > 10.0
        assert sol.residual < 1e-9

    def test_pure_translation_rejected_clean(self):
        data = generate_dataset(
            pure_translation_scene(), grid_step=12, noise=NoiseSpec(0.0, 0.0, 0.0, 3)
        )
        with pytest.raises(RankAmbiguousError):
            estimate_plane_poses(data)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pure_translation_rejected_noisy(self, seed):
        for sigma in (0.5, 2.0, 5.0):
            data = generate_dataset(
                pure_translation_scene(), grid_step=12, noise=NoiseSpec(sigma, 0.0, 0.0, seed)
            )
            with pytest.raises(RankAmbiguousError):
                estimate_plane_poses(data)

    @pytest.mark.parametrize("center, radius", [((0.0, 0.0, 850.0), 300.0), ((0.0, 0.0, 1450.0), 900.0)])
    def test_one_sphere_rejected_clean(self, center, radius):
        # one sphere makes the rig an axial camera: every reflected ray
        # meets the line through the camera and the sphere centres, and the
        # design matrix has more than two vanishing singular values
        scene = dataclasses.replace(default_two_sphere_scene(), mirrors=(SphereMirror(center, radius),))
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec())
        with pytest.raises(RankAmbiguousError, match="more than two vanishing singular values"):
            estimate_plane_poses(data)

    def test_diagnostics_present(self, clean_data):
        sol = estimate_plane_poses(clean_data)
        assert np.isfinite(sol.residual)
        assert sol.gap_ratio >= 100.0

    def test_swapped_roles_swap_the_motions(self, scene):
        # exchanging x1 and x2 exchanges the two motions the data encodes
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec(0.0, 0.0, 0.0, 0))
        swapped = CorrespondenceSet(data.pixels, data.planes[[0, 2, 1]])
        sol = estimate_plane_poses(data)
        sol_swapped = estimate_plane_poses(swapped)
        assert len(sol_swapped.candidates) == len(sol.candidates)
        for cand in sol.candidates:
            errors = [
                max(
                    np.abs(other[1].rotation - cand[0].rotation).max(),
                    np.abs(other[0].rotation - cand[1].rotation).max(),
                    np.abs(other[1].translation - cand[0].translation).max(),
                    np.abs(other[0].translation - cand[1].translation).max(),
                )
                for other in sol_swapped.candidates
            ]
            assert min(errors) < 1e-9

    @pytest.mark.parametrize(
        "directions",
        [
            # third-row blocks vanish for both directions
            [np.eye(24)[0], np.eye(24)[9]],
            # one direction vanishes, the other is the structural vector
            [np.eye(24)[0], spurious_null_vector()],
        ],
        ids=["all-vanish", "one-vanishes"],
    )
    def test_unfactorable_directions_raise(self, clean_data, monkeypatch, directions):
        gap = estimate_plane_poses(clean_data).gap_ratio
        monkeypatch.setattr(plane_pose, "candidate_null_vectors", lambda d1, d2: directions)
        with pytest.raises(RankAmbiguousError) as exc:
            estimate_plane_poses(clean_data)
        assert exc.value.gap_ratio == gap


class TestProperties:
    """estimate_plane_poses on noisy grid-20 scans, at its default settings."""

    sigmas = st.floats(0.0, 2.0)
    seeds = st.integers(0, 2**32 - 1)

    @settings(max_examples=25)
    @given(sigma=sigmas, seed=seeds, k=st.floats(0.01, 1000.0))
    def test_scale_invariance(self, scene, sigma, seed, k):
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec(sigma, 0.0, 0.0, seed))
        scaled = CorrespondenceSet(data.pixels, k * data.planes)
        sol = estimate_plane_poses(data)
        sol_scaled = estimate_plane_poses(scaled)
        assert len(sol_scaled.candidates) == len(sol.candidates)
        # the twins tie exactly, so their order is not invariant: match
        # candidates as a set
        for cand in sol_scaled.candidates:
            errors = [
                max(
                    np.abs(cand[0].rotation - other[0].rotation).max(),
                    np.abs(cand[1].rotation - other[1].rotation).max(),
                    np.abs(cand[0].translation - k * other[0].translation).max()
                    / np.linalg.norm(k * other[0].translation),
                    np.abs(cand[1].translation - k * other[1].translation).max()
                    / np.linalg.norm(k * other[1].translation),
                )
                for other in sol.candidates
            ]
            assert min(errors) < 1e-10

    @settings(max_examples=25)
    @given(sigma=sigmas, seed=seeds)
    def test_twin_symmetry(self, scene, sigma, seed):
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec(sigma, 0.0, 0.0, seed))
        sol = estimate_plane_poses(data)
        first, second = sol.candidates[:2]
        assert line_offset_residual(first, data.planes) == line_offset_residual(second, data.planes)
        # the twin is the first candidate reflected in the reference plane
        mirror = np.diag([1.0, 1.0, -1.0])
        for a, b in zip(first, second, strict=True):
            assert np.allclose(mirror @ a.rotation @ mirror, b.rotation, rtol=0, atol=1e-12)
            assert np.allclose(mirror @ a.translation, b.translation, rtol=0, atol=1e-9)


class TestTwinReflection:
    """estimate_plane_poses polishes the factored motions and reflects
    them; polishing the reflected start on its own lands on the same
    motions."""

    @staticmethod
    def traced_estimate(data, monkeypatch):
        """The solution, every factored row pair and every polish
        (start, result, scaled plane stack)."""
        factor, refine = plane_pose._factor_null_vector, plane_pose.refine_plane_poses
        factored, polished = [], []

        def factor_traced(d):
            factored.append(factor(d))
            return factored[-1]

        def refine_traced(motions, planes):
            polished.append((motions, refine(motions, planes), planes))
            return polished[-1][1]

        monkeypatch.setattr(plane_pose, "_factor_null_vector", factor_traced)
        monkeypatch.setattr(plane_pose, "refine_plane_poses", refine_traced)
        return estimate_plane_poses(data), [rows for rows in factored if rows is not None], polished

    @pytest.mark.parametrize(
        "grid, sigma, seed",
        [(20, 0.0, 0)] + [(8, sigma, seed) for sigma in (0.5, 2.0) for seed in range(3)],
    )
    def test_reflection_matches_an_own_polish(self, scene, grid, sigma, seed, monkeypatch):
        data = generate_dataset(scene, grid_step=grid, noise=NoiseSpec(sigma, 0.0, 0.0, seed))
        sol, factored, polished = self.traced_estimate(data, monkeypatch)
        scale = rms_scale(data.x0, data.x1, data.x2)
        mirror = np.diag([1.0, 1.0, -1.0])
        assert polished
        for start, result, planes in polished:
            assert any(
                np.array_equal(plane_pose._rows_to_motions(*rows)[0].rotation, start[0].rotation)
                for rows in factored
            )
            own = refine_plane_poses(plane_pose._mirror_twin(start), planes)
            for a, b in zip(result, own, strict=True):
                assert np.allclose(mirror @ a.rotation @ mirror, b.rotation, rtol=0, atol=1e-12)
                assert np.allclose(scale * mirror @ a.translation, scale * b.translation, rtol=0, atol=1e-9)
            # the returned second twin is the exact reflection
            assert any(
                np.array_equal(c[0].rotation, mirror @ result[0].rotation @ mirror)
                and np.array_equal(c[1].translation, scale * (mirror @ result[1].translation))
                for c in sol.candidates
            )

    def test_one_polish_per_factored_direction(self, scene, monkeypatch):
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec())
        sol, factored, polished = self.traced_estimate(data, monkeypatch)
        assert len(polished) == len(factored) == 1
        assert len(sol.candidates) == 2


class TestCandidateOrder:
    """The twins come in an order the motions themselves fix, not an SVD sign:
    the one whose pose 2 moves toward +z first, pose 1 deciding when pose 2
    keeps z."""

    def test_row_order_keeps_the_candidate_order(self, scene):
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(sigma_mm=0.5, gamma_px=0.5, seed=0))
        want = estimate_plane_poses(data).candidates
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(data))
            shuffled = CorrespondenceSet(data.pixels[order], data.planes[..., order])
            for got, motions in zip(estimate_plane_poses(shuffled).candidates, want, strict=True):
                for a, b in zip(got, motions, strict=True):
                    assert np.linalg.norm(a.translation - b.translation) <= 1e-12 * np.linalg.norm(b.translation)
        assert want[0][1].translation[2] > 0 > want[1][1].translation[2]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pose_one_decides_when_pose_two_keeps_z(self, clean_data, monkeypatch, sign):
        def flattened(motions, planes):
            t1, t2 = (p.translation.copy() for p in motions)
            t1[2], t2[2] = sign * abs(t1[2]), 0.0
            return tuple(RigidPose(p.rotation, t) for p, t in zip(motions, (t1, t2), strict=True))

        monkeypatch.setattr(plane_pose, "refine_plane_poses", flattened)
        first, second = estimate_plane_poses(clean_data).candidates
        assert first[1].translation[2] == second[1].translation[2] == 0.0
        assert first[0].translation[2] > 0 > second[0].translation[2]


class TestLifts:
    """The line every stage reads, on random motions and triples."""

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_line_geometry(self, seed, n):
        rng = np.random.default_rng(seed)
        motions = tuple(RigidPose(random_rotation(rng), rng.uniform(-300.0, 300.0, 3)) for _ in range(2))
        x0, x1, x2 = (rng.uniform(-200.0, 200.0, (n, 2)) for _ in range(3))
        lifts = plane_pose.lift_triples(motions, planes_of(x0, x1, x2))
        offset = lifts.offset()

        # Pythagoras about the foot point of p1, reached from p2 toward p0
        foot = lifts.p2 - lifts.along * lifts.unit
        hyp = np.sum((lifts.p1 - lifts.p2) ** 2, axis=0)
        assert np.allclose(hyp, lifts.along**2 + np.sum(offset**2, axis=0), rtol=1e-10, atol=1e-9)
        assert np.allclose(
            np.linalg.norm(lifts.p1 - foot, axis=0), np.linalg.norm(offset, axis=0), rtol=1e-9, atol=1e-9
        )

        # the observation line of each kept triple runs along unit
        data = CorrespondenceSet(np.zeros((n, 2)), planes_of(x0, x1, x2))
        obs = projection.build_observations(data, motions)
        direction = obs.lines[3:] / np.linalg.norm(obs.lines[3:], axis=0)
        unit = lifts.unit[:, obs.indices]
        assert np.allclose(np.linalg.norm(unit, axis=0), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(np.cross(unit, direction, axis=0), 0.0, rtol=0, atol=1e-12)

        # a zero-length line divides by 1: unit and along stay finite
        p2 = lifts.p2.copy()
        p2[:, 0] = lifts.p0[:, 0]
        flat = plane_pose.Lifts.of(lifts.p0, lifts.p1, p2)
        assert flat.length[0] == 0.0
        assert np.isfinite(flat.unit[:, 0]).all() and np.isfinite(flat.along[0])

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_rows_are_the_rigid_motion_of_each_point(self, seed, n):
        rng = np.random.default_rng(seed)
        motions = tuple(RigidPose(random_rotation(rng), rng.uniform(-300.0, 300.0, 3)) for _ in range(2))
        x0, x1, x2 = (rng.uniform(-200.0, 200.0, (n, 2)) for _ in range(3))
        lifts = plane_pose.lift_triples(motions, planes_of(x0, x1, x2))
        pose0 = RigidPose(np.eye(3), np.zeros(3))
        for rows, pose, x in zip((lifts.p0, lifts.p1, lifts.p2), (pose0, *motions), (x0, x1, x2), strict=True):
            assert rows.shape == (3, n) and rows.flags.c_contiguous
            for i in range(n):
                expected = pose.rotation @ np.array([x[i, 0], x[i, 1], 0.0]) + pose.translation
                assert np.allclose(rows[:, i], expected, rtol=1e-14, atol=1e-12)


    @pytest.mark.parametrize("count", [1, 3])
    def test_motion_count_must_match_the_poses(self, count):
        # one motion per pose after pose 0: a wrong count raises rather
        # than lifting a subset
        rng = np.random.default_rng(count)
        motions = tuple(RigidPose(random_rotation(rng), rng.uniform(-300.0, 300.0, 3)) for _ in range(count))
        planes = rng.uniform(-200.0, 200.0, (3, 2, 5))
        with pytest.raises(ValueError):
            plane_pose.lift_triples(motions, planes)


class TestRefine:
    def test_polish_reduces_residual_on_noisy_data(self, scene, monkeypatch):
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(1.0, 0.0, 0.0, 17))
        with monkeypatch.context() as patch:
            unpolished(patch)
            raw = estimate_plane_poses(data).candidates[0]
        s = rms_scale(data.x0, data.x1, data.x2)
        planes = data.planes / s
        motions = tuple(RigidPose(p.rotation, p.translation / s) for p in raw)
        before = line_offset_residual(motions, planes)
        after = line_offset_residual(refine_plane_poses(motions, planes), planes)
        assert after < before

    def test_polish_improves_mean_pose_accuracy(self, scene, monkeypatch):
        # single seeds can go either way on the noise floor; the mean error
        # across seeds must drop
        raws, refs = [], []
        for seed in range(5):
            data = generate_dataset(
                scene, grid_step=12, noise=NoiseSpec(1.0, 0.0, 0.0, 100 + seed)
            )
            with monkeypatch.context() as patch:
                unpolished(patch)
                sol = estimate_plane_poses(data)
            raws.append(best_pose_errors(sol, scene.poses)[0])
            sol = estimate_plane_poses(data)
            refs.append(best_pose_errors(sol, scene.poses)[0])
        assert np.mean(refs) < np.mean(raws)

    def test_unpolished_rotation_error_per_sigma(self, scene, monkeypatch):
        # the factored candidates before any polish: the unit-norm rows of
        # the scale solve weigh the six constraints alike (0.41 unscaled)
        unpolished(monkeypatch)
        ratios = []
        for sigma in (0.5, 1.0, 2.0):
            for seed in range(6):
                data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(sigma, 0.5, 0.0, seed))
                sol = estimate_plane_poses(data)
                ratios.append(best_pose_errors(sol, scene.poses)[0] / sigma)
        assert np.mean(ratios) < 0.36

    def test_exact_solution_is_fixed_point(self, scene, clean_data):
        s = rms_scale(clean_data.x0, clean_data.x1, clean_data.x2)
        motions = tuple(RigidPose(p.rotation, p.translation / s) for p in scene.poses)
        refined = refine_plane_poses(motions, clean_data.planes / s)
        assert rotation_angle_deg(refined[0].rotation, motions[0].rotation) < 1e-9
        assert np.linalg.norm(refined[0].translation - motions[0].translation) < 1e-9

    def test_polish_jacobian_matches_central_differences(self, scene):
        # away from w = 0 the rotation columns carry the SO(3) left
        # Jacobian; without it they are off by about |w| / 2
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(1.0, 0.0, 0.0, 17))
        s = rms_scale(data.x0, data.x1, data.x2)
        motions = tuple(RigidPose(p.rotation, p.translation / s) for p in scene.poses)
        model = _polish_objective(motions, data.planes / s)
        x = np.concatenate(
            [[0.2, -0.1, 0.15], motions[0].translation, [-0.1, 0.25, 0.05], motions[1].translation]
        )
        jac = model(x)[1]()
        numeric = np.empty_like(jac)
        for k in range(12):
            h = 1e-6 * max(abs(x[k]), 1.0)
            step = h * np.eye(12)[k]
            numeric[:, k] = (model(x + step)[0] - model(x - step)[0]) / (2.0 * h)
        col_max = np.max(np.abs(numeric), axis=0)
        assert np.all(col_max > 0)
        assert np.all(np.max(np.abs(jac - numeric), axis=0) <= 1e-6 * col_max)

    def test_rotations_stay_orthonormal(self, scene):
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(2.0, 0.0, 0.0, 19))
        sol = estimate_plane_poses(data)
        for cand in sol.candidates:
            for pose in cand:
                assert pose.orthonormality_error() < 1e-12
