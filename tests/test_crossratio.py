"""Tests for the cross-ratio surface stage and its camera refinement.

The simulator is the oracle: with the true camera on clean data the stage
must be exact, and the closed-form Jacobian of the refinement objective
must agree with central differences of that objective.
"""

import numpy as np
import pytest

from specsurf import crossratio as cr
from specsurf.errors import TooFewCorrespondencesError
from specsurf.plane_pose import lift_triples
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import CalibrationEstimate, CorrespondenceSet, NoiseSpec, PlanePosePair


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


class TestFrozenJacobian:
    # (fx, fy, u0, v0) then axis-angle (rad) and translation (mm) offsets
    INTRINSIC_STEP = np.array([30.0, -20.0, 5.0, -5.0])
    EXTRINSIC_STEP = np.array([0.01, -0.02, 0.01, 5.0, 3.0, -4.0])

    @pytest.mark.parametrize("free_intrinsics", [False, True])
    def test_matches_central_differences(self, rig, noisy_data, poses, free_intrinsics):
        theta = cr.OptimizationParams.from_estimate(rig).theta.copy()
        theta[4:] += self.EXTRINSIC_STEP
        if free_intrinsics:
            theta[:4] += self.INTRINSIC_STEP
        lifts = cr._Lifts.of(*lift_triples(poses, noisy_data.x0, noisy_data.x1, noisy_data.x2))
        m_obs = np.asarray(noisy_data.pixels, dtype=float)
        _, frozen, _, _, _ = cr._evaluate(theta, lifts, m_obs)
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
        theta = cr.OptimizationParams.from_estimate(rig).theta
        lifts = cr._Lifts.of(*lift_triples(poses, noisy_data.x0, noisy_data.x1, noisy_data.x2))
        m_obs = np.asarray(noisy_data.pixels, dtype=float)
        frozen = np.arange(len(m_obs)) % 3 != 0
        view = cr._resolve_offsets(theta, lifts, m_obs)
        jac = cr._frozen_jacobian(view, lifts, m_obs, frozen).reshape(-1, 2, 10)
        assert not jac[~frozen].any()
        assert np.abs(jac[frozen & view.feasible]).sum(axis=(1, 2)).min() > 0


class TestRefine:
    def test_exact_at_true_camera_on_clean_data(self, scene, rig, poses):
        data = generate_dataset(scene, 8, NoiseSpec(seed=3))
        camera, surface, report = cr.refine(rig, data, poses)
        assert report.status == "non_decreasing_start"
        assert report.iterations == 0
        valid = surface.valid
        assert valid.sum() > 0.8 * len(valid)
        point_err = np.linalg.norm(surface.points[valid] - data.gt_points[valid], axis=1)
        assert point_err.max() < 1e-6
        normal_err = angles_deg(surface.normals[valid], data.gt_normals[valid])
        assert normal_err.max() < 1e-6
        assert np.isnan(surface.points[~valid]).all()
        assert np.isnan(surface.normals[~valid]).all()
        assert camera.intrinsics.fx == pytest.approx(scene.intrinsics.fx, rel=1e-12)

    def test_noisy_refine_regression_pin(self, rig, noisy_data, poses):
        # final cost and focal reached with a central-difference Jacobian
        # (25 iterations); the objective is the same bit for bit, so the
        # minimum the analytic Jacobian leads to must be the same too
        camera, surface, report = cr.refine(rig, noisy_data, poses)
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
