"""Tests for the camera recovery stage.

Covers incidence assembly, the point-to-line cost and its closed-form
Jacobian, the constrained solve and the focal sweep, all against the
ray-traced simulator as oracle.
"""

import numpy as np
import pytest

from specsurf import projection as pj
from specsurf import so3
from specsurf.errors import (
    CheiralityUnresolvableError,
    DegenerateLineProjectionError,
    RankDeficientError,
    RankDeficientZError,
    SweepNoMinimumError,
    TooFewObservationsError,
)
from specsurf.plane_pose import estimate_plane_poses
from specsurf.plucker import dual, lines_from_points, normalize_projective
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import (
    CorrespondenceSet,
    Intrinsics,
    NoiseSpec,
    PlanePosePair,
    RigidPose,
    identity_pose,
)


def set_sweep_range(monkeypatch, image_size, f_lo, f_hi, samples):
    """Sweep `samples` focal lengths from f_lo to f_hi pixels."""
    diagonal = float(np.hypot(*image_size))
    monkeypatch.setattr(pj, "SWEEP_SPAN", (f_lo / diagonal, f_hi / diagonal))
    monkeypatch.setattr(pj, "SWEEP_SAMPLES", samples)


def rot_err_deg(r, s):
    c = (np.trace(r @ s.T) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


@pytest.fixture(scope="module")
def scene():
    return default_two_sphere_scene()


@pytest.fixture(scope="module")
def poses(scene):
    return PlanePosePair(scene.pose1, scene.pose2)


@pytest.fixture(scope="module")
def clean_data(scene):
    return generate_dataset(scene, grid_step=8, noise=NoiseSpec(seed=3))


@pytest.fixture(scope="module")
def clean_obs(clean_data, poses):
    return pj.build_observations(clean_data, poses)


@pytest.fixture(scope="module")
def fewest_obs(clean_obs):
    """MIN_OBSERVATIONS incidences spread over the image: a wide 17 x 18
    incidence matrix whose one null vector is the camera."""
    idx = np.linspace(0, len(clean_obs) - 1, pj.MIN_OBSERVATIONS).astype(int)
    return pj.LineObservationSet(clean_obs.pixels[idx], clean_obs.lines[idx], idx)


@pytest.fixture(scope="module")
def gt_lm(scene):
    return pj.camera_line_matrix(
        scene.intrinsics, scene.camera_pose.rotation, scene.camera_pose.translation
    )


@pytest.fixture(scope="module")
def clean_sweep(clean_obs, scene):
    return pj.focal_sweep(clean_obs, scene.image_size)


class TestBuildObservations:
    def test_counts_and_shapes(self, clean_obs, clean_data):
        assert len(clean_obs) == len(clean_data)
        assert clean_obs.n_skipped == 0
        assert np.array_equal(clean_obs.indices, np.arange(len(clean_data)))
        assert np.allclose(clean_obs.pixels[:, 2], 1.0)
        assert np.allclose(np.linalg.norm(clean_obs.lines, axis=1), 1.0, atol=1e-12)

    def test_lines_satisfy_self_intersection(self, clean_obs):
        # a valid line has zero reciprocal product with itself
        prod = np.einsum("ij,ij->i", clean_obs.lines, dual(clean_obs.lines))
        assert np.max(np.abs(prod)) < 1e-12

    def test_incidence_with_ground_truth_camera(self, clean_obs, gt_lm):
        lm = normalize_projective(gt_lm)
        img = clean_obs.lines @ dual(lm).T
        resid = np.abs(np.einsum("ij,ij->i", clean_obs.pixels, img))
        assert resid.max() < 1e-9

    def test_coincident_triples_skipped(self):
        n = 6
        x0 = np.arange(2.0 * n).reshape(n, 2) * 10.0
        x2 = x0 + np.array([5.0, 0.0])
        x2[3] = x0[3]  # identity pose keeps this lift coincident
        pixels = np.full((n, 2), 100.0)
        pixels[1, 0] = np.nan
        pixels[5, 1] = np.inf
        corrs = CorrespondenceSet(
            pixels=pixels,
            x0=x0,
            x1=np.zeros((n, 2)),
            x2=x2,
        )
        pair = PlanePosePair(identity_pose(), identity_pose())
        obs = pj.build_observations(corrs, pair)
        assert len(obs) == n - 3
        assert obs.n_skipped == 3
        assert obs.indices.tolist() == [0, 2, 4]


class TestPointLineCost:
    def test_zero_at_ground_truth(self, clean_obs, gt_lm):
        assert pj.point_line_cost(gt_lm, clean_obs) < 1e-14

    def test_scale_invariance(self, clean_obs, gt_lm):
        # noisy matrix so the cost is a meaningful nonzero number
        rng = np.random.default_rng(5)
        lm = gt_lm + 1e-3 * np.linalg.norm(gt_lm) * rng.normal(size=(3, 6))
        base = pj.point_line_cost(lm, clean_obs)
        for s in (2.0, -3.0, 1e-5):
            assert abs(pj.point_line_cost(s * lm, clean_obs) - base) < 1e-9 * base

    def test_ground_truth_is_local_minimum(self, clean_obs, gt_lm):
        rng = np.random.default_rng(11)
        base = pj.point_line_cost(gt_lm, clean_obs)
        scale = np.linalg.norm(gt_lm)
        for _ in range(10):
            step = rng.normal(size=(3, 6))
            assert pj.point_line_cost(gt_lm + 1e-4 * scale * step, clean_obs) > base

    def test_all_items_degenerate_raises(self, clean_obs):
        lm = np.zeros((3, 6))
        lm[2] = np.ones(6)  # only the w-row survives: every image line is (0,0,c)
        with pytest.raises(DegenerateLineProjectionError):
            pj.point_line_cost(lm, clean_obs)

    def test_line_through_center_excluded(self, scene, clean_obs, gt_lm):
        cam = scene.camera_pose
        center = -cam.rotation.T @ cam.translation
        through = lines_from_points(
            center[None, :], center[None, :] + np.array([[120.0, -40.0, 310.0]])
        )
        through /= np.linalg.norm(through)
        # pixels moved off their lines so the good rows cost something
        good = pj.LineObservationSet(
            pixels=clean_obs.pixels[:40] + [0.5, -0.3, 0.0],
            lines=clean_obs.lines[:40],
            indices=np.arange(40),
        )
        mixed = pj.LineObservationSet(
            pixels=np.vstack([good.pixels, [[5.0, 5.0, 1.0]]]),
            lines=np.vstack([good.lines, through]),
            indices=np.arange(41),
        )
        cost = pj.point_line_cost(gt_lm, good)
        assert cost > 1.0
        assert pj.point_line_cost(gt_lm, mixed) == pytest.approx(cost, rel=1e-12)


class TestPointLineObjective:
    """Closed-form residuals and Jacobian behind the constrained refinement."""

    @staticmethod
    def random_problem(seed, angle):
        # camera diag(f, f aspect, 1)[R T] with R at the given rotation angle;
        # pixels are the projections of random lines, perturbed so that
        # every residual is nonzero
        rng = np.random.default_rng(seed)
        f, aspect = rng.uniform(0.5, 5.0), rng.uniform(0.8, 1.25)
        axis = rng.normal(size=3)
        rvec = angle * axis / np.linalg.norm(axis)
        t = np.array([*rng.uniform(-1.0, 1.0, size=2), rng.uniform(4.0, 8.0)])
        r = so3.exp(rvec)
        n = 40
        cam_pts = np.column_stack([rng.uniform(-2, 2, (n, 2)), rng.uniform(3, 9, n)])
        pts = (cam_pts - t) @ r  # world points in front of the camera
        ends = pts + rng.normal(size=(n, 3))
        lines = lines_from_points(pts, ends)
        lines /= np.linalg.norm(lines, axis=1, keepdims=True)
        img = (cam_pts[:, :2] / cam_pts[:, 2:]) * [f, f * aspect]
        pixels = np.hstack([img + 0.05 * rng.normal(size=(n, 2)), np.ones((n, 1))])
        obs = pj.LineObservationSet(pixels, lines, np.arange(n))
        theta = np.concatenate([[np.log(f)], rvec, t])
        return f, f * aspect, obs, theta

    @pytest.mark.parametrize("free_focal", [False, True])
    @pytest.mark.parametrize("angle", [1e-8, 5e-4, 0.9, np.pi - 1e-4])
    def test_jacobian_matches_central_differences(self, angle, free_focal):
        for seed in range(3):
            fx, fy, obs, theta = self.random_problem(seed, angle)
            residuals, jacobian = pj._point_line_objective(fx, fy, obs)
            cols = range(7) if free_focal else range(1, 7)
            jac = jacobian(theta)[:, list(cols)]
            h = 1e-6
            numeric = np.column_stack(
                [
                    (residuals(theta + h * np.eye(7)[k]) - residuals(theta - h * np.eye(7)[k]))
                    / (2.0 * h)
                    for k in cols
                ]
            )
            assert np.max(np.abs(jac - numeric)) < 1e-6 * np.max(np.abs(jac))

    @pytest.mark.parametrize("angle", [1e-8, 0.9, np.pi - 1e-4])
    def test_squared_residuals_match_line_matrix_cost(self, angle):
        for seed in range(3):
            fx, fy, obs, theta = self.random_problem(seed, angle)
            residuals, _ = pj._point_line_objective(fx, fy, obs)
            f = np.exp(theta[0])
            lm = pj.camera_line_matrix(
                Intrinsics(f, f * fy / fx, 0.0, 0.0),
                so3.exp(theta[1:4]),
                theta[4:],
            )
            cost = pj.point_line_cost(lm, obs)
            assert abs(np.sum(residuals(theta) ** 2) - cost) < 1e-10 * cost

    def test_singular_camera_raises(self):
        fx, fy, obs, theta = self.random_problem(0, 0.9)
        residuals, _ = pj._point_line_objective(fx, fy, obs)
        with pytest.raises(RankDeficientError):
            residuals(np.concatenate([[-800.0], theta[1:]]))  # f underflows to 0
        with pytest.raises(RankDeficientError):
            pj._point_line_objective(fx, 0.0, obs)

    def test_jacobian_at_solution_not_recomputed(self, scene, clean_obs, monkeypatch):
        # scipy asks for the Jacobian once more at the solution after
        # MINPACK returns.  This fit ends on a rejected trial, so the
        # residual state has moved past the solution, where the solver has
        # already differentiated: the kept Jacobian answers that call.
        # so3.left_jacobian runs once per Jacobian the objective computes.
        computed = []
        left_jacobian = so3.left_jacobian
        monkeypatch.setattr(
            so3, "left_jacobian", lambda v: computed.append(1) or left_jacobian(v)
        )
        original = pj.least_squares
        fits = []
        last_trial = []

        def recorded(fun, x0, **kwargs):
            def traced(x):
                last_trial[:] = [x.copy()]
                return fun(x)

            fits.append(original(traced, x0, **kwargs))
            return fits[-1]

        monkeypatch.setattr(pj, "least_squares", recorded)
        intr = scene.intrinsics
        cobs = clean_obs.centered(intr.u0, intr.v0)
        start = (
            so3.exp(np.array([0.02, -0.01, 0.015])) @ scene.camera_pose.rotation,
            scene.camera_pose.translation + np.array([5.0, -5.0, 20.0]),
        )
        pj._refine_metric(1.1 * intr.fx, 1.1 * intr.fy, cobs, start, free_focal=True)
        assert len(fits) == 1
        assert not np.array_equal(last_trial[0], fits[0].x)
        assert len(computed) == fits[0].njev > 0


class TestSolveConstrained:
    def test_exact_recovery_at_true_focals(self, scene, clean_obs):
        intr = scene.intrinsics
        cobs = clean_obs.centered(intr.u0, intr.v0)
        r, t = pj.solve_constrained(intr.fx, intr.fy, cobs)
        assert rot_err_deg(r, scene.camera_pose.rotation) < 1e-6
        t_rel = np.linalg.norm(t - scene.camera_pose.translation) / np.linalg.norm(
            scene.camera_pose.translation
        )
        assert t_rel < 1e-8

    def test_exact_recovery_without_refinement(self, scene, clean_obs, monkeypatch):
        # with the refinement returning its start, the result is the decode
        monkeypatch.setattr(
            pj, "_refine_metric", lambda fx, fy, obs, start: (fx, start[0], start[1], 0.0)
        )
        intr = scene.intrinsics
        cobs = clean_obs.centered(intr.u0, intr.v0)
        r, t = pj.solve_constrained(intr.fx, intr.fy, cobs)
        assert rot_err_deg(r, scene.camera_pose.rotation) < 1e-6
        t_rel = np.linalg.norm(t - scene.camera_pose.translation) / np.linalg.norm(
            scene.camera_pose.translation
        )
        assert t_rel < 1e-8

    def test_wrong_focal_costs_more(self, scene, clean_obs):
        intr = scene.intrinsics
        cobs = clean_obs.centered(intr.u0, intr.v0)
        costs = {}
        for mult in (1.0, 2.0):
            r, t = pj.solve_constrained(mult * intr.fx, mult * intr.fy, cobs)
            lm = pj.camera_line_matrix(
                Intrinsics(mult * intr.fx, mult * intr.fy, 0.0, 0.0), r, t
            )
            costs[mult] = pj.point_line_cost(lm, cobs)
        assert costs[2.0] > costs[1.0]

    def test_warm_start_accepted(self, scene, clean_obs):
        intr = scene.intrinsics
        cobs = clean_obs.centered(intr.u0, intr.v0)
        cam = scene.camera_pose
        r, t = pj.solve_constrained(
            intr.fx, intr.fy, cobs, init=(cam.rotation, cam.translation)
        )
        assert rot_err_deg(r, cam.rotation) < 1e-6

    def test_valid_or_raises_under_noise(self, scene, poses):
        # cold starts under heavy noise may land in a spurious basin, but
        # whatever comes back must be a camera in front of the origin
        intr = scene.intrinsics
        for seed in range(3):
            data = generate_dataset(
                scene, grid_step=8, noise=NoiseSpec(sigma_mm=2.0, seed=seed)
            )
            cobs = pj.build_observations(data, poses).centered(intr.u0, intr.v0)
            try:
                r, t = pj.solve_constrained(intr.fx, intr.fy, cobs)
            except CheiralityUnresolvableError:
                continue
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
            assert np.linalg.det(r) > 0
            assert t[2] > 0

    def test_warm_start_accurate_under_noise(self, scene, poses):
        intr = scene.intrinsics
        cam = scene.camera_pose
        for seed in range(3):
            data = generate_dataset(
                scene, grid_step=8, noise=NoiseSpec(sigma_mm=2.0, seed=seed)
            )
            cobs = pj.build_observations(data, poses).centered(intr.u0, intr.v0)
            r, t = pj.solve_constrained(
                intr.fx, intr.fy, cobs, init=(cam.rotation, cam.translation)
            )
            assert rot_err_deg(r, cam.rotation) < 2.0
            t_rel = np.linalg.norm(t - cam.translation) / np.linalg.norm(cam.translation)
            assert t_rel < 0.02

    def test_exact_recovery_from_fewest_observations(self, scene, fewest_obs):
        intr = scene.intrinsics
        r, t = pj.solve_constrained(intr.fx, intr.fy, fewest_obs.centered(intr.u0, intr.v0))
        assert rot_err_deg(r, scene.camera_pose.rotation) < 1e-6
        assert np.linalg.norm(t - scene.camera_pose.translation) < 1e-6

    def test_too_few_observations(self, clean_obs):
        small = pj.LineObservationSet(
            pixels=clean_obs.pixels[:10],
            lines=clean_obs.lines[:10],
            indices=clean_obs.indices[:10],
        )
        with pytest.raises(TooFewObservationsError):
            pj.solve_constrained(1400.0, 1400.0, small)

    def test_rank_deficient_raises(self, scene, clean_obs):
        # one observation repeated leaves a rank-1 incidence matrix, which
        # the cold start's SVD rejects
        intr = scene.intrinsics
        rep = pj.LineObservationSet(
            pixels=np.tile(clean_obs.pixels[:1], (20, 1)),
            lines=np.tile(clean_obs.lines[:1], (20, 1)),
            indices=np.arange(20),
        ).centered(intr.u0, intr.v0)
        with pytest.raises(RankDeficientZError):
            pj.solve_constrained(intr.fx, intr.fy, rep)


class TestFocalSweep:
    def test_recovers_focal_noise_free(self, clean_sweep, scene):
        est = clean_sweep
        assert abs(est.intrinsics.fx - scene.intrinsics.fx) / scene.intrinsics.fx < 1e-4
        assert est.intrinsics.fx == est.intrinsics.fy

    def test_focal_exact_noise_free(self, clean_sweep, scene):
        # the clean solution is exact to roundoff, about 1e-15 relative
        gt = scene.intrinsics.fx
        assert abs(clean_sweep.intrinsics.fx - gt) / gt < 1e-8

    def test_recovers_pose_noise_free(self, clean_sweep, scene):
        assert rot_err_deg(clean_sweep.rotation, scene.camera_pose.rotation) < 1e-5
        t_rel = np.linalg.norm(
            clean_sweep.translation - scene.camera_pose.translation
        ) / np.linalg.norm(scene.camera_pose.translation)
        assert t_rel < 1e-6

    def test_principal_point_and_source(self, clean_sweep, scene):
        w, h = scene.image_size
        assert clean_sweep.intrinsics.u0 == (w - 1) / 2.0
        assert clean_sweep.intrinsics.v0 == (h - 1) / 2.0
        assert clean_sweep.source == "constrained"

    def test_local_minimum_certificate(self, clean_sweep):
        grid = clean_sweep.diagnostics["f_grid"]
        curve = clean_sweep.diagnostics["cost_curve"]
        b = int(np.argmin(curve))
        assert 0 < b < len(grid) - 1
        assert curve[b] <= curve[b - 1]
        assert curve[b] <= curve[b + 1]
        assert clean_sweep.cost <= curve[b] + 1e-12

    def test_reprojects_through_pixels_noise_free(self, clean_sweep, clean_obs):
        lm = pj.camera_line_matrix(
            clean_sweep.intrinsics, clean_sweep.rotation, clean_sweep.translation
        )
        img = clean_obs.lines @ dual(lm).T
        dist = np.abs(np.einsum("ij,ij->i", clean_obs.pixels, img)) / np.hypot(
            img[:, 0], img[:, 1]
        )
        assert dist.max() < 1e-6

    def test_explicit_range(self, clean_obs, scene, monkeypatch):
        set_sweep_range(monkeypatch, scene.image_size, 200.0, 14000.0, 60)
        est = pj.focal_sweep(clean_obs, scene.image_size)
        assert est.diagnostics["f_grid"][0] == pytest.approx(200.0, rel=1e-12)
        assert est.diagnostics["f_grid"][-1] == pytest.approx(14000.0, rel=1e-12)
        assert len(est.diagnostics["cost_curve"]) == 60
        assert abs(est.intrinsics.fx - 1400.0) / 1400.0 < 0.005

    def test_no_interior_minimum_raises(self, clean_obs, scene, monkeypatch):
        set_sweep_range(monkeypatch, scene.image_size, 5000.0, 16000.0, 12)
        with pytest.raises(SweepNoMinimumError):
            pj.focal_sweep(clean_obs, scene.image_size)

    def test_deterministic(self, clean_sweep, clean_obs, scene):
        again = pj.focal_sweep(clean_obs, scene.image_size)
        assert again.intrinsics.fx == clean_sweep.intrinsics.fx
        assert np.array_equal(again.rotation, clean_sweep.rotation)
        assert np.array_equal(again.translation, clean_sweep.translation)

    def test_least_squares_calls(self, clean_obs, scene, monkeypatch):
        # one fit per grid sample (every sample solves, so no reverse pass)
        # and the free-focal polish
        original = pj.least_squares
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pj, "least_squares", counted)
        pj.focal_sweep(clean_obs, scene.image_size)
        assert len(calls) == pj.SWEEP_SAMPLES + 1

    def test_only_cold_starts_take_the_svd(self, clean_obs, scene, monkeypatch):
        # every clean sample solves, so only the first decodes a cold start;
        # the rest are warm-started and take no incidence-matrix SVD
        right_singular = pj.right_singular
        incidence_svds = []

        def counted(a):
            incidence_svds.append(a.shape)
            return right_singular(a)

        monkeypatch.setattr(pj, "right_singular", counted)
        pj.focal_sweep(clean_obs, scene.image_size)
        assert incidence_svds == [(len(clean_obs), 18)]

    def test_fewest_observations(self, scene, fewest_obs):
        est = pj.focal_sweep(fewest_obs, scene.image_size)
        assert est.intrinsics.fx == pytest.approx(scene.intrinsics.fx, rel=1e-9)

    @pytest.mark.parametrize(
        "seed, focal",
        [(0, 1460.6423731701473), (1, 1441.6992285177505), (2, 1410.812975808804)],
    )
    def test_noisy_focal_regression_pin(self, scene, poses, seed, focal):
        # f reached by the 120-sample grid with golden-section refinement
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(sigma_mm=2.0, seed=seed))
        est = pj.focal_sweep(pj.build_observations(data, poses), scene.image_size)
        assert est.intrinsics.fx == pytest.approx(focal, rel=1e-6)

    def test_noisy_recovery_stays_close(self, scene, poses):
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(sigma_mm=2.0, seed=0))
        obs = pj.build_observations(data, poses)
        est = pj.focal_sweep(obs, scene.image_size)
        assert abs(est.intrinsics.fx - 1400.0) / 1400.0 < 0.06
        assert rot_err_deg(est.rotation, scene.camera_pose.rotation) < 1.2
        assert est.translation[2] > 0
        assert np.max(np.abs(est.rotation.T @ est.rotation - np.eye(3))) < 1e-9

    def test_mirror_twin_rejected(self, scene, clean_data, monkeypatch):
        sol = estimate_plane_poses(clean_data)
        assert len(sol.candidates) >= 2
        set_sweep_range(monkeypatch, scene.image_size, 400.0, 5000.0, 30)
        good = pj.focal_sweep(
            pj.build_observations(clean_data, sol.candidates[0]), scene.image_size
        )
        try:
            twin = pj.focal_sweep(
                pj.build_observations(clean_data, sol.candidates[1]), scene.image_size
            )
        except (SweepNoMinimumError, CheiralityUnresolvableError):
            return
        assert twin.cost > 1e3 * max(good.cost, 1e-12)

    def test_non_finite_pixel_skipped(self, scene, poses):
        # one bad pixel among the 561 of a clean grid-20 scan is skipped:
        # kept, it would stop the incidence SVD from converging
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec())
        pixels = data.pixels.copy()
        pixels[100] = np.nan
        bad = CorrespondenceSet(pixels=pixels, x0=data.x0, x1=data.x1, x2=data.x2)
        obs = pj.build_observations(bad, poses)
        assert obs.n_skipped == pj.build_observations(data, poses).n_skipped + 1
        est = pj.focal_sweep(obs, scene.image_size)
        assert abs(est.intrinsics.fx - scene.intrinsics.fx) / scene.intrinsics.fx < 1e-8
        sol = estimate_plane_poses(bad)
        dist = [rot_err_deg(c.pose1.rotation, poses.pose1.rotation) for c in sol.candidates]
        twin = sol.candidates[int(np.argmax(dist))]
        with pytest.raises(SweepNoMinimumError):
            pj.focal_sweep(pj.build_observations(bad, twin), scene.image_size)

    def test_mirror_twin_has_no_minimum_at_default_range(self, scene, poses, clean_data):
        sol = estimate_plane_poses(clean_data)
        dist = [rot_err_deg(c.pose1.rotation, poses.pose1.rotation) for c in sol.candidates]
        twin = sol.candidates[int(np.argmax(dist))]
        with pytest.raises(SweepNoMinimumError):
            pj.focal_sweep(pj.build_observations(clean_data, twin), scene.image_size)


class TestNormalizationInternals:
    def test_world_scale_reflects_line_distances(self):
        rng = np.random.default_rng(9)
        dists = rng.uniform(50.0, 900.0, size=60)
        anchors = rng.normal(size=(60, 3))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        dirs = np.cross(anchors, rng.normal(size=(60, 3)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a = anchors * dists[:, None]
        lines = lines_from_points(a, a + dirs * 400.0)
        lines /= np.linalg.norm(lines, axis=1, keepdims=True)
        rho = pj._world_scale(lines)
        assert abs(rho - dists.mean()) < 0.02 * dists.mean()
