"""Tests for the cross-ratio surface stage and its camera refinement.

The simulator is the oracle: with the true camera on clean data the stage
must be exact, and the closed-form Jacobian of the refinement objective
must agree with central differences of that objective.
"""

import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from specsurf import crossratio as cr
from specsurf import so3
from specsurf.errors import TooFewCorrespondencesError
from specsurf.plane_pose import Lifts, lift_triples
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import CalibrationEstimate, CorrespondenceSet, NoiseSpec, RigidPose

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
    return scene.poses


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
def dense_data(scene):
    # the surface-g4 benchmark draw
    return generate_dataset(scene, 4, NoiseSpec(sigma_mm=0.5, gamma_px=0.5, seed=0))


@pytest.fixture(scope="module")
def noisy_fit(rig, noisy_data, poses):
    return cr.refine(rig, noisy_data, poses)


def lifts_of(data, poses):
    return lift_triples(poses, data.planes)


def pixel_rows(data):
    return np.asarray(data.pixels, dtype=float).T.copy()


def frozen_subset(lifts, m_obs, frozen):
    return Lifts(*(getattr(lifts, f.name)[..., frozen] for f in fields(Lifts))), m_obs[:, frozen]


def centred(lifts, camera):
    """lifts and camera vector in a world frame moved to the mean pose-0
    lift c: p - c and T + R c."""
    centre = lifts.p0.mean(axis=1)
    moved = {name: getattr(lifts, name) - centre[:, None] for name in ("p0", "p1", "p2")}
    theta = cr._pack(camera)
    theta[7:] += camera.rotation @ centre
    return replace(lifts, **moved), theta


def record_fits(monkeypatch):
    """The LeastSquaresFit of every refine fit from here on, in order."""
    fits = []
    original = cr.least_squares

    def recorded(*args, **kwargs):
        fits.append(original(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(cr, "least_squares", recorded)
    return fits


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
        m_obs = pixel_rows(noisy_data)
        frozen = cr._gate(theta, lifts, m_obs, np.zeros_like)[1].valid
        assert frozen.sum() > 0.8 * len(frozen)
        lifts, m_obs = frozen_subset(lifts, m_obs, frozen)

        def residuals(vec):
            return cr._resolve_offsets(vec, lifts, m_obs).residuals.ravel()

        jac = cr._frozen_jacobian(cr._resolve_offsets(theta, lifts, m_obs), lifts)
        numeric = np.empty_like(jac)
        for k in range(10):
            h = 1e-6 * max(abs(theta[k]), 1.0)
            step = h * np.eye(10)[k]
            numeric[:, k] = (residuals(theta + step) - residuals(theta - step)) / (2.0 * h)
        assert np.isfinite(numeric).all()
        col_max = np.max(np.abs(numeric), axis=0)
        assert np.all(col_max > 0)
        assert np.all(np.max(np.abs(jac - numeric), axis=0) <= 1e-5 * col_max)

    def test_matches_per_triple_reference(self, rig, noisy_data, poses, noisy_fit):
        # the docstring's chain rule written out with 3 x 3 matrices, one
        # triple at a time, for 20 triples the fit keeps at the rig camera.
        # The rotation columns are taken in the left increment w and mapped
        # to the angle-axis last.  Entries whose terms cancel are compared
        # on the scale of their column, as in the central-difference test:
        # element by element, 1 of these triples differs by more than 1e-12
        # (1.1e-12), against 1.2e-13 of the column
        theta = cr._pack(rig)
        lifts, m_obs = frozen_subset(lifts_of(noisy_data, poses), pixel_rows(noisy_data), noisy_fit[1].valid)
        view = cr._resolve_offsets(theta, lifts, m_obs)
        jac = cr._frozen_jacobian(view, lifts)
        n = m_obs.shape[1]
        (fx, fy), rotation = theta[:2], so3.exp(theta[4:7])

        def project(point):
            # pixel, its derivative over the camera-frame point, and its
            # Jacobian over (fx, fy, u0, v0, w, T) for a fixed world point
            c = rotation @ point + theta[7:]
            by_c = np.array([[fx, 0.0, -fx * c[0] / c[2]], [0.0, fy, -fy * c[1] / c[2]]]) / c[2]
            jacobian = np.zeros((2, 10))
            jacobian[:, :2] = np.diag(c[:2] / c[2])
            jacobian[:, 2:4] = np.eye(2)
            jacobian[:, 4:7] = by_c @ -so3.skew(rotation @ point)
            jacobian[:, 7:] = by_c
            return c[:2] / c[2] * (fx, fy) + theta[2:4], by_c, jacobian

        rows = list(range(0, n, 150))[:20]
        assert len(rows) == 20
        expected = []
        for i in rows:
            p0, p1, p2, unit = lifts.p0[:, i], lifts.p1[:, i], lifts.p2[:, i], lifts.unit[:, i]
            (x0, _, j0), (x1, _, j1), (x2, _, j2) = (project(p) for p in (p0, p1, p2))
            m = m_obs[:, i]
            d10, d20, d1x, d2m = (np.linalg.norm(a) for a in (x1 - m, x2 - x0, x1 - x0, x2 - m))
            k = (d10 * d20) / (d1x * d2m) * abs(lifts.length[i] - lifts.along[i]) / lifts.length[i]
            dlogk = (
                (x1 - m) @ j1 / d10**2
                + (x2 - x0) @ (j2 - j0) / d20**2
                - (x1 - x0) @ (j1 - j0) / d1x**2
                - (x2 - m) @ j2 / d2m**2
            )
            s = lifts.along[i] / (1.0 - k)
            ds = s * k / (1.0 - k) * dlogk
            _, by_c, fixed = project(p2 - s * unit)
            row = -(fixed + np.outer(by_c @ rotation @ -unit, ds))
            row[:, 4:7] = row[:, 4:7] @ so3.left_jacobian(theta[4:7])
            expected.append(row)
        expected = np.concatenate(expected)
        got = jac[np.ravel([[i, n + i] for i in rows])]
        assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-12 * np.max(np.abs(expected), axis=0))

    def test_fit_sees_the_frozen_subset_alone(self, rig, noisy_data, poses, monkeypatch):
        # refine's fit rows against every triple's rows with those outside
        # the frozen set zeroed, all in the world frame refine fits in:
        # centred on the mean pose-0 lift; the fit ends below their cost
        lifts, theta = centred(lifts_of(noisy_data, poses), rig)
        m_obs = pixel_rows(noisy_data)
        sens = cr.noise_sensitivity(theta, lifts, m_obs, poses)

        def noisy(usable):
            return usable & (sens > cr.SENSITIVITY_CAP * np.median(sens[usable]))

        view, _, reason = cr._gate(theta, lifts, m_obs, noisy)
        frozen = reason == ""
        padded = np.where(frozen, view.residuals, 0.0)
        rows = []
        original = cr.least_squares

        def recorded(model, x0, **kwargs):
            rows.append(model(x0)[0].reshape(2, -1))
            return original(model, x0, **kwargs)

        monkeypatch.setattr(cr, "least_squares", recorded)
        camera, _, report = cr.refine(rig, noisy_data, poses)
        assert report.mask_reasons == dict(Counter(reason[~frozen].tolist()))
        assert np.array_equal(rows[0], padded[:, frozen])
        assert camera.cost < np.sum(padded**2)

    def test_fit_sees_contiguous_stacks(self, rig, noisy_data, poses, monkeypatch):
        # the fit's lift and pixel stacks are the frozen columns copied out
        # row by row (np.compress), not the column-major result of a boolean
        # index on the last axis, whose strided rows are slower and sum some
        # products in another order; the gate and the noise probe see
        # contiguous stacks too
        seen = []
        original = cr._resolve_offsets

        def recorded(theta, lifts, m_obs):
            seen.append([getattr(lifts, f.name) for f in fields(Lifts)] + [m_obs])
            return original(theta, lifts, m_obs)

        monkeypatch.setattr(cr, "_resolve_offsets", recorded)
        fits = record_fits(monkeypatch)
        cr.refine(rig, noisy_data, poses)
        fit_calls = [stacks for stacks in seen if stacks[-1].shape[1] < len(noisy_data)]
        assert len(fit_calls) >= fits[0].nfev > 0
        assert all(a.flags.c_contiguous for stacks in seen for a in stacks)


class TestResolveOffsets:
    def test_matches_per_triple_reference(self, rig, noisy_data, poses, noisy_fit):
        # the rows-first stacks against K [R | T] applied to one triple at
        # a time, for 20 triples the fit keeps
        theta = cr._pack(rig)
        view = cr._resolve_offsets(theta, lifts_of(noisy_data, poses), pixel_rows(noisy_data))
        p = rig.intrinsics.matrix() @ np.column_stack([rig.rotation, rig.translation])

        def project(point):
            h = p @ np.append(point, 1.0)
            return h[:2] / h[2], h[2]

        for i in np.flatnonzero(noisy_fit[1].valid)[::150][:20]:
            lifted = [np.append(noisy_data.x0[i], 0.0)] + [
                pose.rotation @ np.append(x[i], 0.0) + pose.translation
                for pose, x in zip(poses, (noisy_data.x1, noisy_data.x2), strict=True)
            ]
            pixels, depths = zip(*(project(q) for q in lifted))
            for k in range(3):
                assert view.pixels[k][:, i] == pytest.approx(pixels[k], rel=1e-12)
                assert view.depths[k][i] == pytest.approx(depths[k], rel=1e-12)
            m = noisy_data.pixels[i]
            base = lifted[2] - lifted[0]
            length = np.linalg.norm(base)
            along = (lifted[2] - lifted[1]) @ base / length
            x0, x1, x2 = pixels
            d10, d20, d1x, d2m = (np.linalg.norm(a - b) for a, b in ((x1, m), (x2, x0), (x1, x0), (x2, m)))
            k = (d10 * d20) / (d1x * d2m) * abs(length - along) / length
            s = along / (1.0 - k)
            proj, depth = project(lifted[2] - s * base / length)
            assert view.s[i] == pytest.approx(s, rel=1e-12)
            assert view.m_proj[:, i] == pytest.approx(proj, rel=1e-12)
            assert view.depth[i] == pytest.approx(depth, rel=1e-12)

    def test_residuals_contract(self, rig, noisy_data, poses):
        # NaN exactly where infeasible and m_obs - m_proj elsewhere, all u
        # rows before all v rows once raveled: the order the central
        # differences of TestFrozenJacobian hold _frozen_jacobian's rows to.
        # The camera is moved off the rig so that some triples fall infeasible
        theta = cr._pack(rig)
        theta[4:] += TestFrozenJacobian.EXTRINSIC_STEP
        m_obs = pixel_rows(noisy_data)
        view = cr._resolve_offsets(theta, lifts_of(noisy_data, poses), m_obs)
        feasible = view.feasible
        assert 0 < feasible.sum() < len(feasible)
        assert view.residuals.shape == m_obs.shape
        assert np.array_equal(np.isnan(view.residuals), np.broadcast_to(~feasible, m_obs.shape))
        raveled = np.split(view.residuals.ravel(), 2)
        for row, (obs, proj) in enumerate(zip(m_obs, view.m_proj)):
            assert np.array_equal(raveled[row][feasible], obs[feasible] - proj[feasible])


def reference_sensitivity(theta, data, poses):
    """noise_sensitivity by re-lifting perturbed correspondences, one probe
    at a time: each of the six plane coordinates of every triple moved by
    +-SENSITIVITY_STEP_MM before the lift."""
    m_obs = pixel_rows(data)
    base = data.planes
    total = np.zeros(m_obs.shape[1])
    for which in range(3):
        for coord in range(2):
            rows = []
            for sign in (1.0, -1.0):
                moved = base.copy()
                moved[which, coord] += sign * cr.SENSITIVITY_STEP_MM
                rows.append(cr._resolve_offsets(theta, lift_triples(poses, moved), m_obs).residuals)
            dr = (rows[0] - rows[1]) / (2.0 * cr.SENSITIVITY_STEP_MM)
            dr = np.clip(np.nan_to_num(dr, nan=cr._SINGULAR_RESIDUAL), -cr._SINGULAR_RESIDUAL, cr._SINGULAR_RESIDUAL)
            total += np.einsum("ij,ij->j", dr, dr)
    return np.sqrt(total)


class TestNoiseSensitivity:
    @pytest.mark.parametrize("draw", ["noisy_data", "dense_data"])
    def test_matches_relifted_reference(self, rig, poses, draw, request):
        # moving a lift along its pose's in-plane axis differs from
        # re-lifting the moved coordinate only by roundoff (2.7e-10
        # relative at most on these draws, where the nearest usable triple
        # sits 4.8e-4 relative from the mask's threshold); the singular
        # rows (the triples behind the camera) and the mask must not move
        data = request.getfixturevalue(draw)
        theta = cr._pack(rig)
        lifts, m_obs = lifts_of(data, poses), pixel_rows(data)
        sens = cr.noise_sensitivity(theta, lifts, m_obs, poses)
        expected = reference_sensitivity(theta, data, poses)
        singular = expected >= cr._SINGULAR_RESIDUAL
        assert singular.any()
        assert np.array_equal(sens >= cr._SINGULAR_RESIDUAL, singular)
        assert np.all(np.abs(sens - expected) <= 1e-9 * expected)

        gated = []

        def noisy(usable):
            gated.append(usable)
            return np.zeros_like(usable)

        cr._gate(theta, lifts, m_obs, noisy)
        (usable,) = gated

        def mask(values):
            return usable & (values > cr.SENSITIVITY_CAP * np.median(values[usable]))

        assert mask(expected).any()
        assert np.array_equal(mask(sens), mask(expected))


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
        # (27 iterations, cost 242904.90312353038, fx 2177.1265189921874);
        # the objective is the same bit for bit, so the minimum the
        # analytic Jacobian leads to must be the same too
        camera, surface, report = noisy_fit
        assert report.status in ("step", "plateau", "gradient")
        assert camera.cost == pytest.approx(242904.90312354808, rel=1e-6)
        assert camera.intrinsics.fx == pytest.approx(2177.1265085386426, rel=1e-6)
        assert report.mask_reasons.get("noise_sensitive", 0) > 0
        assert np.isfinite(surface.points[surface.valid]).all()
        norms = np.linalg.norm(surface.normals[surface.valid], axis=1)
        assert np.allclose(norms, 1.0)

    def test_iterations_count_jacobian_evaluations(self, rig, noisy_data, poses, monkeypatch):
        fits = record_fits(monkeypatch)
        _, _, report = cr.refine(rig, noisy_data, poses)
        assert len(fits) == 1
        assert report.iterations == fits[0].njev > 0

    def test_lm_counts_pinned(self, rig, noisy_data, poses, monkeypatch):
        # the refine's cost is its Jacobians and residual evaluations; a
        # change that buys time per evaluation must not spend more of them
        fits = record_fits(monkeypatch)
        _, _, report = cr.refine(rig, noisy_data, poses)
        assert report.iterations == 27
        assert fits[0].nfev == 31

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_row_order_changes_nothing(self, rig, noisy_data, poses, noisy_fit, seed, monkeypatch):
        # the refine stops on a plateau, so roundoff from another row order
        # may move it along the plateau; over rng seeds 0-7 the worst were
        # cost 8.3e-14 relative (seed 4), f 1.1e-14 relative (seed 0) and
        # point RMS 5.4e-12 mm (seed 0), all with 27 Jacobians and 31
        # evaluations
        camera, surface, report = noisy_fit
        order = np.random.default_rng(seed).permutation(len(noisy_data))
        shuffled = CorrespondenceSet(noisy_data.pixels[order], noisy_data.planes[..., order])
        fits = record_fits(monkeypatch)
        moved, moved_surface, moved_report = cr.refine(rig, shuffled, poses)
        valid = moved_surface.valid
        assert np.array_equal(valid, surface.valid[order])
        assert moved_surface.invalid_reason == {
            j: surface.invalid_reason[i] for j, i in enumerate(order.tolist()) if not surface.valid[i]
        }
        assert moved_report.mask_reasons == report.mask_reasons
        assert (moved_report.iterations, fits[0].nfev) == (report.iterations, 31)
        assert moved.cost == pytest.approx(camera.cost, rel=1e-12)
        assert moved.intrinsics.fx == pytest.approx(camera.intrinsics.fx, rel=1e-6)
        assert moved.intrinsics.fy == pytest.approx(camera.intrinsics.fy, rel=1e-6)
        gap = moved_surface.points[valid] - surface.points[order][valid]
        assert np.sqrt(np.mean(np.einsum("ij,ij->i", gap, gap))) < 1e-4

    @pytest.mark.parametrize("shift", [(0.0, 1500.0), (1500.0, 0.0), (-2000.0, 700.0)])
    def test_rigid_world_move_moves_only_the_surface(self, rig, noisy_data, poses, shift, monkeypatch):
        # the world moved rigidly by (c, 0): every plane coordinate by c,
        # each pose's translation by (c, 0) - R (c, 0) and the camera's by
        # -R (c, 0), so every lift moves by (c, 0).  The refine fits in a
        # frame centred on the mean pose-0 lift, so its path is the same
        # and the surface moves by (c, 0) alone: measured 8.3e-11, 6.0e-11
        # and 5.7e-11 mm at most over these shifts (3.5e-4 mm, with other
        # iteration counts, when the fit ran about the plane origin)
        c = np.append(shift, 0.0)
        moved_data = CorrespondenceSet(noisy_data.pixels, noisy_data.planes + np.reshape(shift, (2, 1)))
        moved_poses = tuple(RigidPose(p.rotation, p.translation + c - p.rotation @ c) for p in poses)
        moved_rig = replace(rig, translation=rig.translation - rig.rotation @ c)
        fits = record_fits(monkeypatch)
        _, surface, report = cr.refine(rig, noisy_data, poses)
        _, moved, moved_report = cr.refine(moved_rig, moved_data, moved_poses)
        assert (moved_report.iterations, fits[1].nfev) == (report.iterations, fits[0].nfev)
        assert np.array_equal(moved.valid, surface.valid)
        valid = surface.valid
        assert np.max(np.abs(moved.points[valid] - (surface.points[valid] + c))) < 1e-6

    def test_too_few_triples_rejected(self, rig, noisy_data, poses):
        few = CorrespondenceSet(noisy_data.pixels[:4], noisy_data.planes[..., :4])
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
        m_obs = pixel_rows(clean_data)
        _, _, reason = cr._gate(cr._pack(away), lifts_of(clean_data, poses), m_obs, np.zeros_like)
        assert set(reason) == {"behind_camera"}
        with pytest.raises(TooFewCorrespondencesError):
            cr.refine(away, clean_data, poses)


class TestPhysicalRoot:
    """The mirror point comes before all three plane hits on its reflected
    ray, so its offset from X2 toward X0 lies outside the X2-X0 segment:
    s < 0 or s > B.  The cross-ratio's other root, xi1 / (1 + k), lies
    inside it, between X2 and X1."""

    @staticmethod
    def assert_outside(surface, lifts):
        valid = surface.valid
        assert valid.sum() > 0.8 * len(valid)
        s = surface.s_values[valid]
        assert np.all((s < 0) | (s > lifts.length[valid]))

    def test_dense_refine(self, rig, dense_data, poses):
        # the surface-g4 draw refined from the rig camera; the noise gate
        # is what masks the 2 triples that the rig camera, ungated, rebuilds
        # inside the segment (X1 within 0.6 mm of X2, k within 0.4 % of 1)
        self.assert_outside(cr.refine(rig, dense_data, poses)[1], lifts_of(dense_data, poses))

    def test_noisy_refine(self, noisy_data, poses, noisy_fit):
        self.assert_outside(noisy_fit[1], lifts_of(noisy_data, poses))

    def test_clean_grid_20(self, scene, rig, poses):
        data = generate_dataset(scene, 20, NoiseSpec())
        self.assert_outside(cr.refine(rig, data, poses)[1], lifts_of(data, poses))


class TestGate:
    # reason counts at the true camera on grid 8, pinned from the three
    # separate validity passes the gate replaced

    def test_noisy_reasons(self, noisy_fit):
        _, surface, report = noisy_fit
        assert report.mask_reasons == {"behind_camera": 82, "noise_sensitive": 313}
        # one noise-sensitive triple rebuilds behind the final camera
        assert Counter(surface.invalid_reason.values()) == {"noise_sensitive": 312, "behind_camera": 1}
        assert_masked_rows_blank(surface)

    def test_clean_reasons(self, rig, clean_data, poses):
        _, surface, report = cr.refine(rig, clean_data, poses)
        expected = {"behind_camera": 82, "noise_sensitive": 313}
        assert report.mask_reasons == expected
        assert Counter(surface.invalid_reason.values()) == expected
        assert_masked_rows_blank(surface)

    def test_first_failed_check_wins(self, rig, noisy_data, poses):
        theta = cr._pack(rig)
        m_obs = pixel_rows(noisy_data)
        _, before, _ = cr._gate(theta, lifts_of(noisy_data, poses), m_obs, np.zeros_like)
        # move the three lifts of a valid triple onto one point behind the
        # camera: it fails coincident_lift, noncollinear_lift and behind_camera
        i = int(np.flatnonzero(before.valid)[0])
        lifted = lifts_of(noisy_data, poses)
        p0, p1, p2 = lifted.p0, lifted.p1, lifted.p2
        p0[:, i] = p1[:, i] = p2[:, i] = rig.camera_center() - 100.0 * rig.rotation[2]
        lifts = Lifts.of(p0, p1, p2)
        # and flag every triple noise-sensitive, which comes after all of those
        view, surface, reason = cr._gate(theta, lifts, m_obs, np.ones_like)
        assert view.depths[0][i] < 0
        assert not surface.valid.any()
        expected = {j: "noise_sensitive" for j in range(len(noisy_data))}
        expected.update(before.invalid_reason)
        expected[i] = "coincident_lift"
        assert surface.invalid_reason == expected
        assert reason.tolist() == [expected[j] for j in range(len(noisy_data))]

    def test_coincident_pixels(self, rig, noisy_data, poses):
        # a valid triple's pose-1 lift moved onto its pose-2 lift keeps its
        # line and lies on it, but x1 and x2 project to one pixel
        theta = cr._pack(rig)
        m_obs = pixel_rows(noisy_data)
        lifted = lifts_of(noisy_data, poses)
        _, _, before = cr._gate(theta, lifted, m_obs, np.zeros_like)
        i = int(np.flatnonzero(before == "")[0])
        p1 = lifted.p1.copy()
        p1[:, i] = lifted.p2[:, i]
        _, surface, reason = cr._gate(theta, Lifts.of(lifted.p0, p1, lifted.p2), m_obs, np.zeros_like)
        assert reason[i] == "coincident_pixels"
        assert np.isnan(surface.points[i]).all() and np.isnan(surface.normals[i]).all()
        others = np.arange(len(reason)) != i
        assert np.array_equal(reason[others], before[others])

    def test_zero_length_line_fails_collinearity(self, rig, noisy_data, poses, monkeypatch):
        # with the separation check switched off, a line of zero length
        # still fails the check after it
        monkeypatch.setattr(cr, "MIN_LIFT_SEPARATION_MM", 0.0)
        lifted = lifts_of(noisy_data, poses)
        p2 = lifted.p2.copy()
        p2[:, 0] = lifted.p0[:, 0]
        lifts = Lifts.of(lifted.p0, lifted.p1, p2)
        m_obs = pixel_rows(noisy_data)
        _, _, reason = cr._gate(cr._pack(rig), lifts, m_obs, np.zeros_like)
        assert reason[0] == "noncollinear_lift"

    def test_reasons_match_benchmark_counters(self):
        # the benchmark counts masked triples under the reasons it lists; a
        # reason missing there would silently read 0
        assert set(cr._CHECKS) == set(MASK_REASONS)
