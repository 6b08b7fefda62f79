"""Plane motion recovery: design matrix, pencil solvers, factorization.

The independent oracle here builds colinear triples directly from random 3D
lines crossed with three plane poses, with no ray tracing involved, so the
algebraic pipeline is checked against geometry it has never seen.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsurf.errors import (
    NoValidCandidateError,
    RankAmbiguousError,
    SpecsurfError,
    TooFewCorrespondencesError,
)
from specsurf import plane_pose, projection
from specsurf.plucker import direction_of
from specsurf.plane_pose import (
    _factor_null_vector,
    _polish_objective,
    build_design_matrix,
    candidate_null_vectors,
    estimate_plane_poses,
    line_offset_residual,
    nullspace_basis,
    pack_motion,
    real_cubic_roots,
    refine_plane_poses,
    spurious_null_vector,
)
from specsurf.sim import default_two_sphere_scene, generate_dataset, pure_translation_scene
from specsurf.types import CorrespondenceSet, NoiseSpec, PlanePosePair, RigidPose

from conftest import random_rotation


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


def scaled_pack(pose1, pose2, scale):
    p1 = RigidPose(pose1.rotation, pose1.translation / scale)
    p2 = RigidPose(pose2.rotation, pose2.translation / scale)
    return pack_motion(p1, p2)


def rows_pack(m, n):
    """pack_motion of the motions whose row matrices _factor_null_vector returns."""

    def pose(rows):
        return RigidPose(
            np.column_stack([rows[:, 0], rows[:, 1], np.cross(rows[:, 0], rows[:, 1])]), rows[:, 2]
        )

    return pack_motion(pose(m), pose(n))


def unpolished(monkeypatch):
    """Make estimate_plane_poses return its candidates without the polish."""
    monkeypatch.setattr(plane_pose, "refine_plane_poses", lambda pair, x0, x1, x2: pair)


def rotation_angle_deg(r1, r2):
    cosang = (np.trace(r1.T @ r2) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))


def best_pose_errors(solution, pose1, pose2):
    """(rotation deg, relative translation) of the closest returned candidate."""
    best = (np.inf, np.inf)
    for cand in solution.candidates:
        rot = max(
            rotation_angle_deg(cand.pose1.rotation, pose1.rotation),
            rotation_angle_deg(cand.pose2.rotation, pose2.rotation),
        )
        tr = max(
            np.linalg.norm(cand.pose1.translation - pose1.translation)
            / np.linalg.norm(pose1.translation),
            np.linalg.norm(cand.pose2.translation - pose2.translation)
            / np.linalg.norm(pose2.translation),
        )
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
        x0, x1, x2, *_ = synthetic
        e = build_design_matrix(x0[:12], x1[:12], x2[:12])
        assert e.shape == (24, 24)

    def test_too_few_triples_rejected(self, synthetic):
        x0, x1, x2, *_ = synthetic
        with pytest.raises(TooFewCorrespondencesError):
            build_design_matrix(x0[:11], x1[:11], x2[:11])

    def test_ground_truth_motion_annihilated(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        e = build_design_matrix(x0 / s, x1 / s, x2 / s)
        w = scaled_pack(pose1, pose2, s)
        rel = np.linalg.norm(e @ w) / (np.linalg.norm(e) * np.linalg.norm(w))
        assert rel < 1e-10

    def test_ground_truth_motion_annihilated_traced(self, scene, clean_data):
        s = rms_scale(clean_data.x0, clean_data.x1, clean_data.x2)
        e = build_design_matrix(clean_data.x0 / s, clean_data.x1 / s, clean_data.x2 / s)
        w = scaled_pack(scene.pose1, scene.pose2, s)
        rel = np.linalg.norm(e @ w) / (np.linalg.norm(e) * np.linalg.norm(w))
        assert rel < 1e-10

    def test_structural_column_pair(self, synthetic):
        # translation-z slots of the two third-row blocks enter every row
        # with opposite signs, making one null direction data-independent
        x0, x1, x2, *_ = synthetic
        e = build_design_matrix(x0, x1, x2)
        assert np.array_equal(e[:, 20], -e[:, 23])
        assert np.max(np.abs(e @ spurious_null_vector())) < 1e-12 * np.abs(e).max()

    def test_coordinate_doubling_rescales_columns(self, synthetic):
        # doubling all plane coordinates multiplies each column by a fixed
        # factor (the homogeneous entry stays 1), so the nullspace span
        # moves by the inverse diagonal rather than staying put
        x0, x1, x2, *_ = synthetic
        s = rms_scale(x0, x1, x2)
        x0, x1, x2 = x0 / s, x1 / s, x2 / s
        e1 = build_design_matrix(x0, x1, x2)
        e2 = build_design_matrix(2 * x0, 2 * x1, 2 * x2)
        sdiag = np.array([2.0, 2.0, 1.0])
        d = np.empty(24)
        for i in range(3):
            for j in range(3):
                d[3 * i + j] = d[9 + 3 * i + j] = sdiag[i] * sdiag[j]
        d[18:21] = 2.0 * sdiag
        d[21:24] = 2.0 * sdiag
        assert np.array_equal(e2, e1 * d)

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
        e = build_design_matrix(x0 / s, x1 / s, x2 / s)
        sv = np.linalg.svd(e, compute_uv=False)
        assert sv[22] < 1e-10 * sv[0]
        assert sv[23] < 1e-10 * sv[0]
        assert sv[21] > 1e-10 * sv[0]

    def test_gap_large_on_clean_data(self, synthetic):
        x0, x1, x2, *_ = synthetic
        s = rms_scale(x0, x1, x2)
        _, _, gap = nullspace_basis(build_design_matrix(x0 / s, x1 / s, x2 / s))
        assert gap >= 100.0

    def test_basis_spans_truth_and_structural_direction(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(x0 / s, x1 / s, x2 / s))
        basis = np.column_stack([d1, d2])
        for target in (scaled_pack(pose1, pose2, s), spurious_null_vector()):
            t = target / np.linalg.norm(target)
            coeff, *_ = np.linalg.lstsq(basis, t, rcond=None)
            assert np.linalg.norm(basis @ coeff - t) < 1e-8

    def test_too_few_rows_rejected(self):
        with pytest.raises(TooFewCorrespondencesError):
            nullspace_basis(np.zeros((22, 24)))

    def test_noisy_data_shrinks_gap(self, scene):
        # the gap is a noise readout, not a degeneracy test: healthy data
        # at 3 mm brings it near 1 and the basis is still returned
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(3.0, 0.0, 0.0, 5))
        s = rms_scale(data.x0, data.x1, data.x2)
        _, _, gap = nullspace_basis(build_design_matrix(data.x0 / s, data.x1 / s, data.x2 / s))
        assert 1.0 < gap < 10.0


class TestBetaSolver:
    """The pencil cubic of candidate_null_vectors."""

    def test_truth_direction_among_pencil_roots(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(x0 / s, x1 / s, x2 / s))
        w = scaled_pack(pose1, pose2, s)
        w /= np.linalg.norm(w)
        best = min(
            min(np.linalg.norm(v - w), np.linalg.norm(v + w)) for v in candidate_null_vectors(d1, d2)
        )
        assert best < 1e-8

    def test_zero_root_when_first_vector_already_solves(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        w = scaled_pack(pose1, pose2, s)
        w /= np.linalg.norm(w)
        vectors = candidate_null_vectors(w, spurious_null_vector())
        assert min(np.linalg.norm(v - w) for v in vectors) < 1e-10

    def test_plain_cubic_roots(self):
        roots = real_cubic_roots(np.array([1.0, 0.0, -1.0, 0.0]))
        assert np.allclose(sorted(roots), [-1.0, 0.0, 1.0], atol=1e-12)

    def test_roots_without_direction_dropped(self):
        # slots chosen so the identity reduces to 1 + beta^2: no finite beta
        # is real, so the only direction left is d2 (beta at infinity)
        d1 = np.zeros(24)
        d2 = np.zeros(24)
        d1[18] = 1.0
        d1[6] = 1.0
        d1[23] = 1.0
        d2[20] = 1.0
        d2[0] = -1.0
        (v,) = candidate_null_vectors(d1, d2)
        assert np.array_equal(v, d2)
        # along 0 + beta*d1 the identity is beta^3: its one real root gives
        # the zero vector, which is no direction at all
        assert candidate_null_vectors(np.zeros(24), d1) == []

    def test_candidate_directions_are_unit(self, synthetic):
        x0, x1, x2, *_ = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(x0 / s, x1 / s, x2 / s))
        for v in candidate_null_vectors(d1, d2):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


class TestAlphaSolver:
    """The scale step of _factor_null_vector."""

    def pencil_truth(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        s = rms_scale(x0, x1, x2)
        d1, d2, _ = nullspace_basis(build_design_matrix(x0 / s, x1 / s, x2 / s))
        w = scaled_pack(pose1, pose2, s)
        unit = w / np.linalg.norm(w)
        v = min(
            candidate_null_vectors(d1, d2),
            key=lambda v: min(np.linalg.norm(v - unit), np.linalg.norm(v + unit)),
        )
        return v, w

    def test_scale_recovers_ground_truth_motion(self, synthetic):
        # the twins' packs are the truth and its negative
        v, w = self.pencil_truth(synthetic)
        packs = [rows_pack(m, n) for m, n in _factor_null_vector(v)]
        assert len(packs) == 2
        errors = sorted(
            min(np.linalg.norm(p - w), np.linalg.norm(p + w)) / np.linalg.norm(w) for p in packs
        )
        assert errors[1] < 1e-7
        assert np.linalg.norm(packs[0] + packs[1]) < 1e-12 * np.linalg.norm(w)

    def test_both_signs_returned(self, synthetic):
        v, _ = self.pencil_truth(synthetic)
        (m_a, n_a), (m_b, n_b) = _factor_null_vector(v)
        assert np.array_equal(m_a[:2], m_b[:2])
        assert np.array_equal(n_a[:2], n_b[:2])
        assert np.array_equal(m_a[2], -m_b[2])
        assert np.array_equal(n_a[2], -n_b[2])

    def test_negating_input_flips_signs(self, synthetic):
        # -v factors into the same twins in the opposite order
        v, _ = self.pencil_truth(synthetic)
        rows_pos = _factor_null_vector(v)
        rows_neg = _factor_null_vector(-v)
        for (m_p, n_p), (m_n, n_n) in zip(rows_pos, rows_neg[::-1]):
            assert np.allclose(m_p, m_n, rtol=0, atol=1e-12)
            assert np.allclose(n_p, n_n, rtol=0, atol=1e-12)

    def test_scale_halves_when_vector_doubles(self, synthetic):
        # the factored rows do not depend on the input's length, so the
        # scale applied to 2v is half the one applied to v
        v, _ = self.pencil_truth(synthetic)
        for (m1, n1), (m2, n2) in zip(_factor_null_vector(v), _factor_null_vector(2.0 * v)):
            assert np.allclose(m1, m2, rtol=1e-9, atol=0)
            assert np.allclose(n1, n2, rtol=1e-9, atol=0)

    def test_zero_pivot_slot_rejected(self, synthetic):
        v, _ = self.pencil_truth(synthetic)
        v = v.copy()
        v[18:24] = 0.0
        assert _factor_null_vector(v) == []


class TestMotionForm:
    def test_outer_product_blocks_have_rank_two(self, rng):
        for _ in range(25):
            pose1 = RigidPose(random_rotation(rng), rng.uniform(-2, 2, size=3))
            pose2 = RigidPose(random_rotation(rng), rng.uniform(-2, 2, size=3))
            w = pack_motion(pose1, pose2)
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
            e = build_design_matrix(x0 / s, x1 / s, x2 / s)
            w = scaled_pack(pose1, pose2, s)
            assert np.linalg.norm(e @ w) / (np.linalg.norm(e) * np.linalg.norm(w)) < 1e-10


class TestEstimate:
    def test_exact_recovery_from_traced_data(self, scene, clean_data):
        sol = estimate_plane_poses(clean_data)
        rot, tr = best_pose_errors(sol, scene.pose1, scene.pose2)
        assert rot < 1e-5
        assert tr < 1e-6
        assert sol.residuals[0] < 1e-6

    def test_exact_recovery_from_synthetic_lines(self, synthetic):
        x0, x1, x2, pose1, pose2 = synthetic
        data = CorrespondenceSet(pixels=np.zeros((len(x0), 2)), x0=x0, x1=x1, x2=x2)
        sol = estimate_plane_poses(data)
        rot, tr = best_pose_errors(sol, pose1, pose2)
        # the angle readout bottoms out near sqrt(eps); check it and the
        # translations at their respective floors
        assert rot < 1e-5
        assert tr < 1e-8

    def test_mirror_twins_share_residual(self, clean_data):
        sol = estimate_plane_poses(clean_data)
        assert len(sol.candidates) >= 2
        # twins differ in the sign of the translation z-components but fit
        # the collinearity identically
        r0, r1 = sol.residuals[:2]
        assert r1 <= max(10.0 * max(r0, 1e-14), 1e-6)
        z0 = sol.candidates[0].pose1.translation[2]
        z1 = sol.candidates[1].pose1.translation[2]
        assert z0 == pytest.approx(-z1, rel=1e-5)

    def test_candidate_translations_unscaled_to_mm(self, scene, clean_data):
        sol = estimate_plane_poses(clean_data)
        best = min(
            sol.candidates,
            key=lambda c: np.linalg.norm(c.pose1.translation - scene.pose1.translation),
        )
        assert np.linalg.norm(best.pose1.translation - scene.pose1.translation) < 1e-6

    def test_too_few_triples_rejected(self, clean_data):
        data = CorrespondenceSet(
            pixels=clean_data.pixels[:11],
            x0=clean_data.x0[:11],
            x1=clean_data.x1[:11],
            x2=clean_data.x2[:11],
        )
        with pytest.raises(TooFewCorrespondencesError):
            estimate_plane_poses(data)

    def test_non_finite_coordinate_rejected(self, clean_data):
        x1 = clean_data.x1.copy()
        x1[3, 0] = np.nan
        data = CorrespondenceSet(
            pixels=clean_data.pixels, x0=clean_data.x0, x1=x1, x2=clean_data.x2
        )
        with pytest.raises(NoValidCandidateError):
            estimate_plane_poses(data)

    def test_noisy_recovery_within_tolerance(self, scene):
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(1.0, 0.0, 0.0, 11))
        sol = estimate_plane_poses(data)
        rot, tr = best_pose_errors(sol, scene.pose1, scene.pose2)
        assert rot < 0.5
        assert tr < 0.05

    def test_heavy_noise_recovery(self, scene):
        # 3 mm brings the rank gap near 1 (see TestNullspace); the motions
        # are still recovered
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(3.0, 0.0, 0.0, 13))
        sol = estimate_plane_poses(data)
        rot, _ = best_pose_errors(sol, scene.pose1, scene.pose2)
        assert rot < 2.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_noise_ladder(self, scene, sigma, seed):
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(sigma, 0.5, 0.0, seed))
        sol = estimate_plane_poses(data)
        best = min(
            (
                max(
                    rotation_angle_deg(cand.pose1.rotation, scene.pose1.rotation),
                    rotation_angle_deg(cand.pose2.rotation, scene.pose2.rotation),
                ),
                max(
                    np.linalg.norm(cand.pose1.translation - scene.pose1.translation),
                    np.linalg.norm(cand.pose2.translation - scene.pose2.translation),
                ),
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

    def test_diagnostics_present(self, clean_data):
        sol = estimate_plane_poses(clean_data)
        assert len(sol.residuals) == len(sol.candidates)
        assert sol.gap_ratio >= 100.0

    def test_swapped_roles_swap_the_motions(self, scene):
        # exchanging x1 and x2 exchanges the two motions the data encodes
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec(0.0, 0.0, 0.0, 0))
        swapped = CorrespondenceSet(pixels=data.pixels, x0=data.x0, x1=data.x2, x2=data.x1)
        sol = estimate_plane_poses(data)
        sol_swapped = estimate_plane_poses(swapped)
        assert len(sol_swapped.candidates) == len(sol.candidates)
        for cand in sol.candidates:
            errors = [
                max(
                    np.abs(other.pose2.rotation - cand.pose1.rotation).max(),
                    np.abs(other.pose1.rotation - cand.pose2.rotation).max(),
                    np.abs(other.pose2.translation - cand.pose1.translation).max(),
                    np.abs(other.pose1.translation - cand.pose2.translation).max(),
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
        scaled = CorrespondenceSet(
            pixels=data.pixels, x0=k * data.x0, x1=k * data.x1, x2=k * data.x2
        )
        sol = estimate_plane_poses(data)
        sol_scaled = estimate_plane_poses(scaled)
        assert len(sol_scaled.candidates) == len(sol.candidates)
        # the twins tie exactly, so their order is not invariant: match
        # candidates as a set
        for cand in sol_scaled.candidates:
            errors = [
                max(
                    np.abs(cand.pose1.rotation - other.pose1.rotation).max(),
                    np.abs(cand.pose2.rotation - other.pose2.rotation).max(),
                    np.abs(cand.pose1.translation - k * other.pose1.translation).max()
                    / np.linalg.norm(k * other.pose1.translation),
                    np.abs(cand.pose2.translation - k * other.pose2.translation).max()
                    / np.linalg.norm(k * other.pose2.translation),
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
        assert sol.residuals[0] == sol.residuals[1]
        # the twin is the first candidate reflected in the reference plane
        mirror = np.diag([1.0, 1.0, -1.0])
        for a, b in ((first.pose1, second.pose1), (first.pose2, second.pose2)):
            assert np.allclose(mirror @ a.rotation @ mirror, b.rotation, rtol=0, atol=1e-12)
            assert np.allclose(mirror @ a.translation, b.translation, rtol=0, atol=1e-9)


class TestLifts:
    """The line every stage reads, on random motions and triples."""

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_line_geometry(self, seed, n):
        rng = np.random.default_rng(seed)
        pair = PlanePosePair(
            RigidPose(random_rotation(rng), rng.uniform(-300.0, 300.0, 3)),
            RigidPose(random_rotation(rng), rng.uniform(-300.0, 300.0, 3)),
        )
        x0, x1, x2 = (rng.uniform(-200.0, 200.0, (n, 2)) for _ in range(3))
        lifts = plane_pose.lift_triples(pair, x0, x1, x2)
        offset = lifts.offset()

        # Pythagoras about the foot point of p1, reached from p2 toward p0
        foot = lifts.p2 - lifts.along[:, None] * lifts.unit
        hyp = np.sum((lifts.p1 - lifts.p2) ** 2, axis=1)
        assert np.allclose(hyp, lifts.along**2 + np.sum(offset**2, axis=1), rtol=1e-10, atol=1e-9)
        assert np.allclose(
            np.linalg.norm(lifts.p1 - foot, axis=1), np.linalg.norm(offset, axis=1), rtol=1e-9, atol=1e-9
        )

        # the observation line of each kept triple runs along unit
        data = CorrespondenceSet(pixels=np.zeros((n, 2)), x0=x0, x1=x1, x2=x2)
        obs = projection.build_observations(data, pair)
        direction = direction_of(obs.lines)
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        unit = lifts.unit[obs.indices]
        assert np.allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(np.cross(unit, direction), 0.0, rtol=0, atol=1e-12)

        # a zero-length line divides by 1: unit and along stay finite
        p2 = lifts.p2.copy()
        p2[0] = lifts.p0[0]
        flat = plane_pose.Lifts.of(lifts.p0, lifts.p1, p2)
        assert flat.length[0] == 0.0
        assert np.isfinite(flat.unit[0]).all() and np.isfinite(flat.along[0])


class TestRefine:
    def test_polish_reduces_residual_on_noisy_data(self, scene, monkeypatch):
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(1.0, 0.0, 0.0, 17))
        with monkeypatch.context() as patch:
            unpolished(patch)
            raw = estimate_plane_poses(data).candidates[0]
        s = rms_scale(data.x0, data.x1, data.x2)
        x0, x1, x2 = data.x0 / s, data.x1 / s, data.x2 / s
        pair = PlanePosePair(
            RigidPose(raw.pose1.rotation, raw.pose1.translation / s),
            RigidPose(raw.pose2.rotation, raw.pose2.translation / s),
        )
        before = line_offset_residual(pair, x0, x1, x2)
        after = line_offset_residual(refine_plane_poses(pair, x0, x1, x2), x0, x1, x2)
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
            raws.append(best_pose_errors(sol, scene.pose1, scene.pose2)[0])
            sol = estimate_plane_poses(data)
            refs.append(best_pose_errors(sol, scene.pose1, scene.pose2)[0])
        assert np.mean(refs) < np.mean(raws)

    def test_exact_solution_is_fixed_point(self, scene, clean_data):
        s = rms_scale(clean_data.x0, clean_data.x1, clean_data.x2)
        x0, x1, x2 = clean_data.x0 / s, clean_data.x1 / s, clean_data.x2 / s
        pair = PlanePosePair(
            RigidPose(scene.pose1.rotation, scene.pose1.translation / s),
            RigidPose(scene.pose2.rotation, scene.pose2.translation / s),
        )
        refined = refine_plane_poses(pair, x0, x1, x2)
        assert rotation_angle_deg(refined.pose1.rotation, pair.pose1.rotation) < 1e-9
        assert np.linalg.norm(refined.pose1.translation - pair.pose1.translation) < 1e-9

    def test_polish_jacobian_matches_central_differences(self, scene):
        # away from w = 0 the rotation columns carry the SO(3) left
        # Jacobian; without it they are off by about |w| / 2
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(1.0, 0.0, 0.0, 17))
        s = rms_scale(data.x0, data.x1, data.x2)
        x0, x1, x2 = data.x0 / s, data.x1 / s, data.x2 / s
        pair = PlanePosePair(
            RigidPose(scene.pose1.rotation, scene.pose1.translation / s),
            RigidPose(scene.pose2.rotation, scene.pose2.translation / s),
        )
        residuals, jacobian = _polish_objective(pair, x0, x1, x2)
        x = np.concatenate(
            [[0.2, -0.1, 0.15], pair.pose1.translation, [-0.1, 0.25, 0.05], pair.pose2.translation]
        )
        jac = jacobian(x)
        numeric = np.empty_like(jac)
        for k in range(12):
            h = 1e-6 * max(abs(x[k]), 1.0)
            step = h * np.eye(12)[k]
            numeric[:, k] = (residuals(x + step) - residuals(x - step)) / (2.0 * h)
        col_max = np.max(np.abs(numeric), axis=0)
        assert np.all(col_max > 0)
        assert np.all(np.max(np.abs(jac - numeric), axis=0) <= 1e-6 * col_max)

    def test_rotations_stay_orthonormal(self, scene):
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(2.0, 0.0, 0.0, 19))
        sol = estimate_plane_poses(data)
        for cand in sol.candidates:
            assert cand.pose1.orthonormality_error() < 1e-12
            assert cand.pose2.orthonormality_error() < 1e-12
