"""Tests for the cross-ratio surface stage and its camera refinement.

The simulator is the oracle: with the true camera on clean data the stage
must be exact, and the closed-form Jacobian of the refinement objective
must agree with central differences of that objective.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from specsurf import crossratio as cr
from specsurf import so3
from specsurf.errors import TooFewCorrespondencesError
from specsurf.plane_pose import Lifts, lift_triples
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import CalibrationEstimate, CorrespondenceSet, NoiseSpec, PlanePosePair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from specbench.tracing import MASK_REASONS  # noqa: E402


def angles_deg(a, b):
    cross = np.linalg.norm(np.cross(a, b), axis=1)
    return np.degrees(np.arctan2(cross, np.einsum("ij,ij->i", a, b)))


@pytest.fixture(scope="module")
def scene():
    return default_two_sphere_scene()


@pytest.fixture(scope="module")
def poses(scene):
    return PlanePosePair(scene.pose1, scene.pose2)


@pytest.fixture(scope="module")
def rig(scene):
    return CalibrationEstimate(
        intrinsics=scene.intrinsics,
        rotation=scene.camera_pose.rotation,
        translation=scene.camera_pose.translation,
        source="rig",
    )


@pytest.fixture(scope="module")
def noisy_data(scene):
    return generate_dataset(scene, 8, NoiseSpec(sigma_mm=0.5, gamma_px=0.5, seed=0))


@pytest.fixture(scope="module")
def clean_data(scene):
    return generate_dataset(scene, 8, NoiseSpec(seed=3))


@pytest.fixture(scope="module")
def noisy_fit(rig, noisy_data, poses):
    return cr.refine(rig, noisy_data, poses)


def lifts_of(data, poses):
    return lift_triples(poses, data.x0, data.x1, data.x2)


def assert_masked_rows_blank(surface):
    invalid = ~surface.valid
    assert sorted(surface.invalid_reason) == np.flatnonzero(invalid).tolist()
    assert not surface.s_values[invalid].any()
    assert np.isnan(surface.points[invalid]).all()
    assert np.isnan(surface.normals[invalid]).all()


class TestFrozenJacobian:
    # (fx, fy, u0, v0) then axis-angle (rad) and translation (mm) offsets
    INTRINSIC_STEP = np.array([30.0, -20.0, 5.0, -5.0])
    EXTRINSIC_STEP = np.array([0.01, -0.02, 0.01, 5.0, 3.0, -4.0])

    @pytest.mark.parametrize("free_intrinsics", [False, True])
    def test_matches_central_differences(self, rig, noisy_data, poses, free_intrinsics):
        theta = cr._pack(rig)
        theta[4:] += self.EXTRINSIC_STEP
        if free_intrinsics:
            theta[:4] += self.INTRINSIC_STEP
        lifts = lifts_of(noisy_data, poses)
        m_obs = np.asarray(noisy_data.pixels, dtype=float)
        frozen = cr._gate(theta, lifts, m_obs, np.zeros_like)[1].valid
        assert frozen.sum() > 0.8 * len(frozen)

        def residuals(vec):
            return cr._frozen_residuals(cr._resolve_offsets(vec, lifts, m_obs), m_obs, frozen)

        jac = cr._frozen_jacobian(cr._resolve_offsets(theta, lifts, m_obs), lifts, m_obs, frozen)
        numeric = np.empty_like(jac)
        for k in range(10):
            h = 1e-6 * max(abs(theta[k]), 1.0)
            step = h * np.eye(10)[k]
            numeric[:, k] = (residuals(theta + step) - residuals(theta - step)) / (2.0 * h)
        assert np.isfinite(numeric).all()
        col_max = np.max(np.abs(numeric), axis=0)
        assert np.all(col_max > 0)
        assert np.all(np.max(np.abs(jac - numeric), axis=0) <= 1e-5 * col_max)

    def test_rows_outside_frozen_set_are_zero(self, rig, noisy_data, poses):
        theta = cr._pack(rig)
        lifts = lifts_of(noisy_data, poses)
        m_obs = np.asarray(noisy_data.pixels, dtype=float)
        frozen = np.arange(len(m_obs)) % 3 != 0
        view = cr._resolve_offsets(theta, lifts, m_obs)
        jac = cr._frozen_jacobian(view, lifts, m_obs, frozen).reshape(-1, 2, 10)
        assert not jac[~frozen].any()
        assert np.abs(jac[frozen & view.feasible]).sum(axis=(1, 2)).min() > 0


class TestRefine:
    def test_exact_at_true_camera_on_clean_data(self, scene, rig, clean_data, poses):
        camera, surface, report = cr.refine(rig, clean_data, poses)
        assert report.status == "non_decreasing_start"
        assert report.iterations == 0
        valid = surface.valid
        assert valid.sum() > 0.8 * len(valid)
        point_err = np.linalg.norm(surface.points[valid] - clean_data.gt_points[valid], axis=1)
        assert point_err.max() < 1e-6
        normal_err = angles_deg(surface.normals[valid], clean_data.gt_normals[valid])
        assert normal_err.max() < 1e-6
        assert np.isnan(surface.points[~valid]).all()
        assert np.isnan(surface.normals[~valid]).all()
        assert camera.intrinsics.fx == pytest.approx(scene.intrinsics.fx, rel=1e-12)

    def test_noisy_refine_regression_pin(self, noisy_fit):
        # final cost and focal reached with a central-difference Jacobian
        # (25 iterations); the objective is the same bit for bit, so the
        # minimum the analytic Jacobian leads to must be the same too
        camera, surface, report = noisy_fit
        assert report.status in ("step", "plateau", "gradient")
        assert report.final_cost == pytest.approx(1728093.0499106315, rel=1e-6)
        assert camera.intrinsics.fx == pytest.approx(2312.3658154153445, rel=1e-6)
        assert report.final_cost < report.initial_cost
        assert report.mask_reasons.get("noise_sensitive", 0) > 0
        assert np.isfinite(surface.points[surface.valid]).all()
        norms = np.linalg.norm(surface.normals[surface.valid], axis=1)
        assert np.allclose(norms, 1.0)

    def test_iterations_count_jacobian_evaluations(self, rig, noisy_data, poses, monkeypatch):
        original = cr.least_squares
        fits = []

        def recorded(*args, **kwargs):
            fits.append(original(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(cr, "least_squares", recorded)
        _, _, report = cr.refine(rig, noisy_data, poses)
        assert len(fits) == 1
        assert report.iterations == fits[0].njev > 0

    def test_too_few_triples_rejected(self, rig, noisy_data, poses):
        few = CorrespondenceSet(
            pixels=noisy_data.pixels[:4],
            x0=noisy_data.x0[:4],
            x1=noisy_data.x1[:4],
            x2=noisy_data.x2[:4],
        )
        with pytest.raises(TooFewCorrespondencesError):
            cr.refine(rig, few, poses)

    def test_camera_facing_away_rejected(self, rig, clean_data, poses):
        # a half turn about the camera x axis negates every depth, so no
        # triple passes the start gate however many rows come in
        flip = so3.exp(np.array([np.pi, 0.0, 0.0]))
        away = CalibrationEstimate(
            intrinsics=rig.intrinsics,
            rotation=flip @ rig.rotation,
            translation=flip @ rig.translation,
            source="rig",
        )
        m_obs = np.asarray(clean_data.pixels, dtype=float)
        _, _, reason = cr._gate(cr._pack(away), lifts_of(clean_data, poses), m_obs, np.zeros_like)
        assert set(reason) == {"behind_camera"}
        with pytest.raises(TooFewCorrespondencesError):
            cr.refine(away, clean_data, poses)


class TestGate:
    # reason counts at the true camera on grid 8, pinned from the three
    # separate validity passes the gate replaced

    def test_noisy_reasons(self, noisy_fit):
        _, surface, report = noisy_fit
        assert report.mask_reasons == {"behind_camera": 82, "noise_sensitive": 301}
        assert Counter(surface.invalid_reason.values()) == {"noise_sensitive": 301}
        assert_masked_rows_blank(surface)

    def test_clean_reasons(self, rig, clean_data, poses):
        _, surface, report = cr.refine(rig, clean_data, poses)
        expected = {"behind_camera": 82, "noise_sensitive": 313}
        assert report.mask_reasons == expected
        assert Counter(surface.invalid_reason.values()) == expected
        assert_masked_rows_blank(surface)

    def test_first_failed_check_wins(self, rig, noisy_data, poses):
        theta = cr._pack(rig)
        m_obs = np.asarray(noisy_data.pixels, dtype=float)
        _, before, _ = cr._gate(theta, lifts_of(noisy_data, poses), m_obs, np.zeros_like)
        # move the three lifts of a valid triple onto one point behind the
        # camera: it fails coincident_lift, noncollinear_lift and behind_camera
        i = int(np.flatnonzero(before.valid)[0])
        lifted = lifts_of(noisy_data, poses)
        p0, p1, p2 = lifted.p0, lifted.p1, lifted.p2
        p0[i] = p1[i] = p2[i] = rig.camera_center() - 100.0 * rig.rotation[2]
        lifts = Lifts.of(p0, p1, p2)
        # and flag every triple noise-sensitive, which comes after all of those
        view, surface, reason = cr._gate(theta, lifts, m_obs, np.ones_like)
        assert view.depths[0][i] < 0
        assert not surface.valid.any()
        expected = {j: "noise_sensitive" for j in range(len(m_obs))}
        expected.update(before.invalid_reason)
        expected[i] = "coincident_lift"
        assert surface.invalid_reason == expected
        assert reason.tolist() == [expected[j] for j in range(len(m_obs))]

    def test_zero_length_line_fails_collinearity(self, rig, noisy_data, poses, monkeypatch):
        # with the separation check switched off, a line of zero length
        # still fails the check after it
        monkeypatch.setattr(cr, "MIN_LIFT_SEPARATION_MM", 0.0)
        lifted = lifts_of(noisy_data, poses)
        p2 = lifted.p2.copy()
        p2[0] = lifted.p0[0]
        lifts = Lifts.of(lifted.p0, lifted.p1, p2)
        m_obs = np.asarray(noisy_data.pixels, dtype=float)
        _, _, reason = cr._gate(cr._pack(rig), lifts, m_obs, np.zeros_like)
        assert reason[0] == "noncollinear_lift"

    def test_reasons_match_benchmark_counters(self):
        # the benchmark counts masked triples under the reasons it lists; a
        # reason missing there would silently read 0
        assert set(cr._CHECKS) == set(MASK_REASONS)
