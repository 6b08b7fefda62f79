"""Tests for the camera recovery stage.

Covers incidence assembly, the point-to-line cost and its closed-form
Jacobian, and the focal sweep with its fixed-focal sample step and its
failure exits, all against the ray-traced simulator as oracle.
"""

import dataclasses
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from specsurf import projection as pj
from specsurf import so3
from specsurf.errors import (
    CheiralityUnresolvableError,
    DegenerateLineProjectionError,
    RankDeficientError,
    SpecsurfError,
    SweepNoMinimumError,
    TooFewObservationsError,
)
from specsurf.plane_pose import estimate_plane_poses
from specsurf.plucker import lines_from_points
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import (
    CalibrationEstimate,
    CorrespondenceSet,
    Intrinsics,
    NoiseSpec,
    RigidPose,
    identity_pose,
)

from conftest import planes_of, second_root_scene

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from specbench.workloads import reconstruct_chain  # noqa: E402

# the reflection in the reference plane that maps one mirror twin to the other
S = np.diag([1.0, 1.0, -1.0])


def set_sweep_range(monkeypatch, image_size, f_lo, f_hi, samples):
    """Sweep `samples` focal lengths from f_lo to f_hi pixels."""
    diagonal = float(np.hypot(*image_size))
    monkeypatch.setattr(pj, "SWEEP_SPAN", (f_lo / diagonal, f_hi / diagonal))
    monkeypatch.setattr(pj, "SWEEP_SAMPLES", samples)


def homogeneous(pixels):
    """(3, n) homogeneous pixels of a (2, n) stack."""
    return np.vstack([pixels, np.ones(pixels.shape[1])])


def rot_err_deg(r, s):
    """Angle between two rotations; so3.log resolves angles far below the
    1e-6 deg that an arccos of the trace can."""
    return np.degrees(np.linalg.norm(so3.log(r @ s.T)))


def sweep_every_candidate(scene, data):
    """focal_sweep on each plane-pose candidate: its estimate, or the
    SpecsurfError it raised."""
    outcomes = []
    for pair in estimate_plane_poses(data).candidates:
        try:
            outcomes.append(pj.focal_sweep(pj.build_observations(data, pair), scene.image_size))
        except SpecsurfError as error:
            outcomes.append(error)
    return outcomes


def right_and_wrong_twin(scene, grid_step, noise):
    """The right and the wrong mirror twin's observations of one scan."""
    data = generate_dataset(scene, grid_step=grid_step, noise=noise)
    cam = scene.camera_pose
    truth = pj.camera_line_matrix(scene.intrinsics, cam.rotation, cam.translation)
    obs = [pj.build_observations(data, pair) for pair in estimate_plane_poses(data).candidates[:2]]
    return sorted(obs, key=lambda o: pj.point_line_cost(truth, o))


@pytest.fixture(scope="module")
def scene():
    return default_two_sphere_scene()


@pytest.fixture(scope="module")
def poses(scene):
    return scene.poses


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
    return pj.LineObservationSet(clean_obs.pixels[:, idx], clean_obs.lines[:, idx], idx)


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
        assert np.array_equal(clean_obs.indices, np.arange(len(clean_data)))
        assert clean_obs.pixels.shape == (2, len(clean_data))
        assert np.array_equal(clean_obs.pixels, clean_data.pixels)
        assert clean_obs.lines.shape == (6, len(clean_data))
        assert np.allclose(np.linalg.norm(clean_obs.lines, axis=0), 1.0, atol=1e-12)

    def test_lines_satisfy_self_intersection(self, clean_obs):
        # a valid line meets itself: its moment is orthogonal to its direction
        prod = np.einsum("in,in->n", clean_obs.lines[:3], clean_obs.lines[3:])
        assert np.max(np.abs(prod)) < 1e-12

    def test_incidence_with_ground_truth_camera(self, clean_obs, gt_lm):
        lm = gt_lm / np.linalg.norm(gt_lm)
        img = lm @ clean_obs.lines
        resid = np.abs(np.einsum("in,in->n", homogeneous(clean_obs.pixels), img))
        assert resid.max() < 1e-9

    def test_coincident_triples_skipped(self):
        n = 6
        x0 = np.arange(2.0 * n).reshape(n, 2) * 10.0
        x2 = x0 + np.array([5.0, 0.0])
        x2[3] = x0[3]  # identity pose keeps this lift coincident
        pixels = (np.arange(2.0 * n).reshape(n, 2) + 100.0).T
        corrs = CorrespondenceSet(pixels, planes_of(x0, np.zeros((n, 2)), x2))
        obs = pj.build_observations(corrs, (identity_pose(), identity_pose()))
        assert len(obs) == n - 1
        assert obs.indices.tolist() == [0, 1, 2, 4, 5]
        assert np.array_equal(obs.pixels, pixels[:, obs.indices])


class TestIncidenceRows:
    def test_row_is_kronecker_product_of_pixel_and_line(self, clean_obs):
        z = pj._incidence_rows(clean_obs)
        assert z.shape == (18, len(clean_obs))
        for i in range(len(clean_obs)):
            u, v = clean_obs.pixels[:, i]
            assert np.array_equal(z[:, i], np.kron([u, v, 1.0], clean_obs.lines[:, i]))


class TestPointLineCost:
    def test_matches_per_item_scalar_loop(self, clean_obs, gt_lm):
        rng = np.random.default_rng(7)
        lm = gt_lm + 1e-3 * np.linalg.norm(gt_lm) * rng.normal(size=(3, 6))
        want = 0.0
        for i in range(len(clean_obs)):
            a, b, c = lm @ clean_obs.lines[:, i]
            u, v = clean_obs.pixels[:, i]
            want += (u * a + v * b + c) ** 2 / (a * a + b * b)
        assert want > 1.0
        assert pj.point_line_cost(lm, clean_obs) == pytest.approx(want, rel=1e-12)

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
            center[:, None], center[:, None] + np.array([[120.0], [-40.0], [310.0]])
        )
        through /= np.linalg.norm(through)
        # pixels moved off their lines so the good items cost something
        good = pj.LineObservationSet(
            pixels=clean_obs.pixels[:, :40] + [[0.5], [-0.3]],
            lines=clean_obs.lines[:, :40],
            indices=np.arange(40),
        )
        mixed = pj.LineObservationSet(
            pixels=np.hstack([good.pixels, [[5.0], [5.0]]]),
            lines=np.hstack([good.lines, through]),
            indices=np.arange(41),
        )
        cost = pj.point_line_cost(gt_lm, good)
        assert cost > 1.0
        assert pj.point_line_cost(gt_lm, mixed) == pytest.approx(cost, rel=1e-12)


def reference_objective(obs, theta):
    """Point-to-line residuals and the 7-row Jacobian at theta, one array
    expression per quantity of _point_line_objective's derivation, the
    moment matrix [R | R's columns x T] built with hstack and so3.cross.
    The objective writes the same arithmetic into preallocated rows and
    must match this bit for bit."""
    x0, x1 = obs.pixels
    f = np.exp(theta[0])
    rotation = so3.exp(theta[1:4])
    t = theta[4:]
    m = np.einsum("ij,jn->in", np.hstack([rotation, so3.cross(rotation, t)]), obs.lines)
    s = np.sqrt(m[0] * m[0] + m[1] * m[1] + 1e-30)
    num = x0 * m[0] + x1 * m[1] + f * m[2]
    c = num / (s * s)
    u = ((x0 - c * m[0]) / s, (x1 - c * m[1]) / s, f / s)
    d_t = so3.cross(u, np.einsum("ij,jn->in", rotation, obs.lines[3:]))
    d_phi = so3.cross(d_t, t) - so3.cross(u, m)
    d_rot = np.einsum("ik,in->kn", so3.left_jacobian(theta[1:4]), d_phi)
    return num / s, np.vstack([f * m[2] / s, d_rot, d_t])


class TestPointLineObjective:
    """Closed-form residuals and Jacobian behind the constrained refinement."""

    @pytest.mark.parametrize("free_focal", [False, True])
    def test_matches_reference_bit_for_bit(self, scene, free_focal):
        # the sweep's own input, the clean grid-20 scan centered and
        # rescaled; a fixed-focal fit holds log f at a grid sample, the
        # free-focal polish moves it; rotations from 1e-8 rad, inside
        # so3.left_jacobian's series branch, to nearly a half turn
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec())
        width, height = scene.image_size
        obs = pj.build_observations(data, scene.poses).centered((width - 1) / 2.0, (height - 1) / 2.0)
        obs_n, s_pix, _ = pj._normalized_copy(obs)
        model = pj._point_line_objective(obs_n)
        diagonal = float(np.hypot(width, height))
        log_f = np.log(np.geomspace(*pj.SWEEP_SPAN, pj.SWEEP_SAMPLES) * diagonal * s_pix)
        rng = np.random.default_rng(8)
        for _ in range(200):
            focal = rng.uniform(log_f[0], log_f[-1]) if free_focal else rng.choice(log_f)
            axis = rng.normal(size=3)
            angle = 10.0 ** rng.uniform(-8.0, np.log10(3.1))
            theta = np.concatenate([[focal], angle * axis / np.linalg.norm(axis), rng.normal(0.0, 2.0, 3)])
            residuals, jacobian = model(theta)
            want_residuals, want_jacobian = reference_objective(obs_n, theta)
            assert np.array_equal(residuals, want_residuals)
            assert np.array_equal(jacobian(), want_jacobian)

    @staticmethod
    def random_problem(seed, angle):
        # camera diag(f, f, 1)[R T] with R at the given rotation angle;
        # pixels are the projections of random lines, perturbed so that
        # every residual is nonzero
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.5, 5.0)
        axis = rng.normal(size=3)
        rvec = angle * axis / np.linalg.norm(axis)
        t = np.array([*rng.uniform(-1.0, 1.0, size=2), rng.uniform(4.0, 8.0)])
        r = so3.exp(rvec)
        n = 40
        cam_pts = np.column_stack([rng.uniform(-2, 2, (n, 2)), rng.uniform(3, 9, n)])
        pts = (cam_pts - t) @ r  # world points in front of the camera
        ends = pts + rng.normal(size=(n, 3))
        lines = lines_from_points(pts.T, ends.T)
        lines /= np.linalg.norm(lines, axis=0)
        img = (cam_pts[:, :2] / cam_pts[:, 2:]) * f
        pixels = img + 0.05 * rng.normal(size=(n, 2))
        obs = pj.LineObservationSet(pixels.T, lines, np.arange(n))
        theta = np.concatenate([[np.log(f)], rvec, t])
        return obs, theta

    @pytest.mark.parametrize("free_focal", [False, True])
    @pytest.mark.parametrize("angle", [1e-8, 5e-4, 0.9, np.pi - 1e-4])
    def test_jacobian_matches_central_differences(self, angle, free_focal):
        for seed in range(3):
            obs, theta = self.random_problem(seed, angle)
            model = pj._point_line_objective(obs)
            cols = range(7) if free_focal else range(1, 7)
            jac = model(theta)[1]()[list(cols)]
            h = 1e-6
            numeric = np.stack(
                [
                    (model(theta + h * np.eye(7)[k])[0] - model(theta - h * np.eye(7)[k])[0])
                    / (2.0 * h)
                    for k in cols
                ]
            )
            assert np.max(np.abs(jac - numeric)) < 1e-6 * np.max(np.abs(jac))

    @pytest.mark.parametrize("angle", [1e-8, 0.9, np.pi - 1e-4])
    def test_squared_residuals_match_line_matrix_cost(self, angle):
        for seed in range(3):
            obs, theta = self.random_problem(seed, angle)
            model = pj._point_line_objective(obs)
            f = np.exp(theta[0])
            lm = pj.camera_line_matrix(
                Intrinsics(f, f, 0.0, 0.0),
                so3.exp(theta[1:4]),
                theta[4:],
            )
            cost = pj.point_line_cost(lm, obs)
            assert abs(np.sum(model(theta)[0] ** 2) - cost) < 1e-10 * cost

    def test_singular_camera_raises(self):
        obs, theta = self.random_problem(0, 0.9)
        model = pj._point_line_objective(obs)
        with pytest.raises(RankDeficientError):
            model(np.concatenate([[-800.0], theta[1:]]))  # f underflows to 0
        with pytest.raises(RankDeficientError):
            model(np.concatenate([[np.inf], theta[1:]]))


def solve_at_focal(f, obs_centered, init=None):
    """The sweep's sample step at focal f on centered observations: each
    start refined, init's or else both cold starts, and the lowest-cost
    fit's (R, T), T back in the observations' units."""
    obs_n, s_pix, rho = pj._normalized_copy(obs_centered)
    f_n = f * s_pix
    if init is None:
        starts = pj._cold_starts(f_n, pj._incidence_rows(obs_n))
    else:
        starts = [(init[0], np.asarray(init[1], dtype=float) / rho)]
    fits = [pj._refine_metric(f_n, obs_n, start) for start in starts]
    _, rotation, t_n, _ = min(fits, key=lambda refined: refined[3].cost)
    return rotation, t_n * rho


class TestSolveConstrained:
    """The constrained solve: the sweep's fixed-focal sample step, and the
    exits of the sweep that runs it."""

    def test_exact_recovery_without_refinement(self, scene, clean_obs, monkeypatch):
        # with the refinement returning its start at no cost, the result is
        # the decode's first start, the sign with det > 0
        unrefined = SimpleNamespace(cost=0.0, nfev=0)
        monkeypatch.setattr(
            pj, "_refine_metric", lambda f, obs, start: (f, start[0], start[1], unrefined)
        )
        intr = scene.intrinsics
        cobs = clean_obs.centered(intr.u0, intr.v0)
        r, t = solve_at_focal(intr.fx, cobs)
        assert rot_err_deg(r, scene.camera_pose.rotation) < 1e-6
        t_rel = np.linalg.norm(t - scene.camera_pose.translation) / np.linalg.norm(
            scene.camera_pose.translation
        )
        assert t_rel < 1e-8

    def test_warm_start_accepted(self, scene, clean_obs):
        intr = scene.intrinsics
        cobs = clean_obs.centered(intr.u0, intr.v0)
        cam = scene.camera_pose
        r, t = solve_at_focal(intr.fx, cobs, init=(cam.rotation, cam.translation))
        assert rot_err_deg(r, cam.rotation) < 1e-6

    def test_valid_or_raises_under_noise(self, scene, poses):
        # whatever the sweep returns under heavy noise must see its lines
        # in front of it
        for seed in range(3):
            data = generate_dataset(
                scene, grid_step=8, noise=NoiseSpec(sigma_mm=2.0, seed=seed)
            )
            obs = pj.build_observations(data, poses)
            try:
                est = pj.focal_sweep(obs, scene.image_size)
            except SpecsurfError:
                continue
            r, t, intr = est.rotation, est.translation, est.intrinsics
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
            assert np.linalg.det(r) > 0
            cobs = obs.centered(intr.u0, intr.v0)
            assert pj._front_fraction(intr.fx, cobs, r, t) >= pj.MIN_FRONT_FRACTION

    def test_warm_start_accurate_under_noise(self, scene, poses):
        intr = scene.intrinsics
        cam = scene.camera_pose
        for seed in range(3):
            data = generate_dataset(
                scene, grid_step=8, noise=NoiseSpec(sigma_mm=2.0, seed=seed)
            )
            cobs = pj.build_observations(data, poses).centered(intr.u0, intr.v0)
            r, t = solve_at_focal(intr.fx, cobs, init=(cam.rotation, cam.translation))
            assert rot_err_deg(r, cam.rotation) < 2.0
            t_rel = np.linalg.norm(t - cam.translation) / np.linalg.norm(cam.translation)
            assert t_rel < 0.02

    def test_too_few_observations(self, scene, clean_obs):
        small = pj.LineObservationSet(
            pixels=clean_obs.pixels[:, :10],
            lines=clean_obs.lines[:, :10],
            indices=clean_obs.indices[:10],
        )
        with pytest.raises(TooFewObservationsError):
            pj.focal_sweep(small, scene.image_size)

    def test_rank_deficient_raises(self, scene, clean_obs, monkeypatch):
        # one observation repeated leaves a rank-1 incidence matrix, from
        # which every cold start decodes no start; the sweep skips each
        # such sample, so none ranks and the sweep raises
        intr = scene.intrinsics
        rep = pj.LineObservationSet(
            pixels=np.tile(clean_obs.pixels[:, :1], (1, 20)),
            lines=np.tile(clean_obs.lines[:, :1], (1, 20)),
            indices=np.arange(20),
        )
        obs_n, s_pix, _ = pj._normalized_copy(rep.centered(intr.u0, intr.v0))
        assert pj._cold_starts(intr.fx * s_pix, pj._incidence_rows(obs_n)) == []

        cold_starts, refine = pj._cold_starts, pj._refine_metric
        returned, refined = [], []

        def recorded(*args):
            returned.append(cold_starts(*args))
            return returned[-1]

        def counted(*args, **kwargs):
            refined.append(1)
            return refine(*args, **kwargs)

        monkeypatch.setattr(pj, "_cold_starts", recorded)
        monkeypatch.setattr(pj, "_refine_metric", counted)
        with pytest.raises(SweepNoMinimumError):
            pj.focal_sweep(rep, scene.image_size)
        # both passes, every sample a cold start with no starts, so no fit
        assert returned == [[]] * (2 * pj.SWEEP_SAMPLES)
        assert refined == []


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
        img = lm @ clean_obs.lines
        dist = np.abs(np.einsum("in,in->n", homogeneous(clean_obs.pixels), img)) / np.hypot(
            img[0], img[1]
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
        # one fit per grid sample (every sample solves, so no reverse pass),
        # a second fit at the cold start, which refines both signs of the
        # decode, and the free-focal polish
        original = pj.least_squares
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pj, "least_squares", counted)
        pj.focal_sweep(clean_obs, scene.image_size)
        assert len(calls) == pj.SWEEP_SAMPLES + 2

    def test_right_twin_drops_no_pass(self, clean_sweep):
        assert clean_sweep.diagnostics["dropped_passes"] == 0

    def test_evaluation_budget(self, scene, monkeypatch):
        # every fit's evaluations, counted the way test_least_squares_calls
        # counts calls: the two clean grid-20 twins took 1,613 with every
        # sample run to a relative cost decrease of 1e-12, 895 with samples
        # stopped at SWEEP_FTOL, 480 with the chirality gate, 243 once a
        # pass whose cold start lands behind the camera ended there, and
        # take 195 on a 10-sample grid: 116 on the kept twin, 79 on the other
        data = generate_dataset(scene, grid_step=20, noise=NoiseSpec())
        original = pj.least_squares
        nfev = []

        def counted(*args, **kwargs):
            fit = original(*args, **kwargs)
            nfev.append(fit.nfev)
            return fit

        monkeypatch.setattr(pj, "least_squares", counted)
        total = 0
        for pair in estimate_plane_poses(data).candidates:
            nfev.clear()
            try:
                est = pj.focal_sweep(pj.build_observations(data, pair), scene.image_size)
            except SpecsurfError:
                pass
            else:
                assert est.diagnostics["nfev"] == sum(nfev)
            total += sum(nfev)
        assert 0 < total <= 200

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "grid_step, sigma_mm, nfev",
        [(20, 0.0, 116), (8, 0.5, 305), (8, 1.0, 221), (8, 2.0, 182), (4, 0.5, 329)],
        ids=["clean-g20", "g8-0.5mm", "g8-1mm", "g8-2mm", "g4-0.5mm"],
    )
    def test_kept_twin_evaluations_pinned(self, scene, grid_step, sigma_mm, nfev):
        # the kept camera's evaluations on the default scene's five scans,
        # the noisy ones with 0.5 px of pixel noise; the 20-sample grid took
        # 164, 345, 297, 290 and 369
        noise = NoiseSpec(sigma_mm=sigma_mm, gamma_px=0.5 if sigma_mm else 0.0, seed=0)
        data = generate_dataset(scene, grid_step=grid_step, noise=noise)
        cameras = [est for est in sweep_every_candidate(scene, data) if isinstance(est, CalibrationEstimate)]
        assert min(cameras, key=lambda est: est.cost).diagnostics["nfev"] == nfev

    @pytest.mark.parametrize(
        "grid_step, noise",
        [(20, NoiseSpec()), (8, NoiseSpec(sigma_mm=1.0, seed=0))],
        ids=["clean-g20", "noisy-g8"],
    )
    def test_ranking_tolerance_keeps_the_outcome(self, scene, grid_step, noise, monkeypatch):
        # samples stopped at SWEEP_FTOL rank the focal lengths as samples
        # run to 1e-12 do: every twin fails or is accepted alike, from the
        # same best sample, and the polish reaches the same camera
        data = generate_dataset(scene, grid_step=grid_step, noise=noise)
        ranked = sweep_every_candidate(scene, data)
        monkeypatch.setattr(pj, "SWEEP_FTOL", 1e-12)
        converged = sweep_every_candidate(scene, data)
        assert [type(a) for a in ranked] == [type(b) for b in converged]
        accepted = [(a, b) for a, b in zip(ranked, converged) if isinstance(b, CalibrationEstimate)]
        assert accepted
        for a, b in accepted:
            assert np.argmin(a.diagnostics["cost_curve"]) == np.argmin(b.diagnostics["cost_curve"])
            assert a.intrinsics.fx == pytest.approx(b.intrinsics.fx, rel=1e-9)
            assert np.max(np.abs(a.rotation - b.rotation)) < 1e-9
            assert np.linalg.norm(a.translation - b.translation) < 1e-9 * np.linalg.norm(b.translation)
            assert a.diagnostics["nfev"] < b.diagnostics["nfev"]

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
        assert incidence_svds == [(18, len(clean_obs))]

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

    def test_polished_camera_behind_raises(self, clean_obs, scene, monkeypatch):
        # the polish gate: the same camera turned half a turn about its x
        # axis sees every line behind it
        refine = pj._refine_metric
        flip = np.diag([1.0, -1.0, -1.0])

        def turned(*args, **kwargs):
            f, rotation, t, fit = refine(*args, **kwargs)
            if kwargs.get("free_focal"):
                return f, flip @ rotation, flip @ t, fit
            return f, rotation, t, fit

        monkeypatch.setattr(pj, "_refine_metric", turned)
        with pytest.raises(CheiralityUnresolvableError):
            pj.focal_sweep(clean_obs, scene.image_size)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_polished_focal_outside_the_range_raises(self, clean_obs, scene, monkeypatch, side):
        # the range gate: the polish moved to half the grid's lowest focal,
        # or twice its highest (120 and 32,000 px on this image)
        want = pj.focal_sweep(clean_obs, scene.image_size).intrinsics.fx
        lo, hi = np.multiply(pj.SWEEP_SPAN, np.hypot(*scene.image_size))
        target = {"below": 0.5 * lo, "above": 2.0 * hi}[side]
        refine = pj._refine_metric

        def moved(*args, **kwargs):
            f, rotation, t, fit = refine(*args, **kwargs)
            if kwargs.get("free_focal"):
                return f * target / want, rotation, t, fit
            return f, rotation, t, fit

        monkeypatch.setattr(pj, "_refine_metric", moved)
        with pytest.raises(SweepNoMinimumError, match=f"left the focal range .* for f = {target:.1f} px"):
            pj.focal_sweep(clean_obs, scene.image_size)

    @pytest.mark.parametrize(
        "size",
        [(0, 0), (1280, np.nan), (-5, 10), (np.inf, 960), (1280, 0)],
        ids=["zero", "nan-height", "negative-width", "infinite-width", "zero-height"],
    )
    def test_malformed_image_size_rejected_before_any_fit(self, clean_obs, size, monkeypatch):
        # (0, 0) once crashed in np.geomspace, (1280, nan) in the first SVD,
        # and (-5, 10) ran the whole sweep about a principal point off the image
        calls = []
        monkeypatch.setattr(pj, "least_squares", lambda *args, **kwargs: calls.append(1))
        with pytest.raises(ValueError, match=re.escape(f"image size {size!r}")):
            pj.focal_sweep(clean_obs, size)
        assert calls == []

    def test_mirror_twin_has_no_minimum_at_default_range(self, scene, poses, clean_data):
        sol = estimate_plane_poses(clean_data)
        dist = [rot_err_deg(c[0].rotation, poses[0].rotation) for c in sol.candidates]
        twin = sol.candidates[int(np.argmax(dist))]
        with pytest.raises(SweepNoMinimumError):
            pj.focal_sweep(pj.build_observations(clean_data, twin), scene.image_size)

    def test_cost_is_the_point_line_cost(self, scene, poses):
        # the estimate reports its polish's own cost, back in pixels; the
        # line-matrix cost at the returned camera is the same sum
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(sigma_mm=0.5, gamma_px=0.5, seed=0))
        obs = pj.build_observations(data, poses)
        est = pj.focal_sweep(obs, scene.image_size)
        lm = pj.camera_line_matrix(est.intrinsics, est.rotation, est.translation)
        assert est.cost == pytest.approx(pj.point_line_cost(lm, obs), rel=1e-12)


def outcomes(scene, data):
    """(candidate, sweep estimate or error) per plane-pose candidate, in
    candidate order."""
    return list(zip(estimate_plane_poses(data).candidates, sweep_every_candidate(scene, data)))


def assert_close(got, want, rel=1e-12):
    assert np.linalg.norm(np.subtract(got, want)) <= rel * np.linalg.norm(want)


class TestRowOrder:
    """Permuting a scan's rows leaves the pose stage and both sweeps as
    they were, the candidates' order included; nfev may move by one and
    is not compared.  Over three permutations of each scan the worst
    drift was 1.6e-14 relative."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "grid_step, noise",
        [(20, NoiseSpec())] + [(8, NoiseSpec(sigma_mm=s, gamma_px=0.5, seed=k)) for k, s in enumerate((0.5, 1.0, 2.0))],
        ids=["clean-g20", "noisy-g8-0.5", "noisy-g8-1", "noisy-g8-2"],
    )
    def test_row_order_changes_nothing(self, scene, grid_step, noise):
        data = generate_dataset(scene, grid_step=grid_step, noise=noise)
        want = outcomes(scene, data)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(data))
            shuffled = CorrespondenceSet(data.pixels[:, order], data.planes[..., order])
            for (motions, est), (want_motions, want_est) in zip(outcomes(scene, shuffled), want, strict=True):
                for got_pose, want_pose in zip(motions, want_motions, strict=True):
                    assert_close(got_pose.rotation, want_pose.rotation)
                    assert_close(got_pose.translation, want_pose.translation)
                if isinstance(want_est, SpecsurfError):
                    assert type(est) is type(want_est)
                    continue
                assert est.intrinsics.fx == pytest.approx(want_est.intrinsics.fx, rel=1e-12)
                assert_close(est.rotation, want_est.rotation)
                assert_close(est.translation, want_est.translation)


class TestNormalizationInternals:
    @staticmethod
    def observations(a, b):
        """Unit lines through the point stacks a and b, with pixels that
        only fill the set."""
        lines = lines_from_points(a, b)
        lines /= np.linalg.norm(lines, axis=0)
        n = lines.shape[1]
        return pj.LineObservationSet(np.ones((2, n)), lines, np.arange(n))

    def test_world_scale_reflects_line_distances(self):
        rng = np.random.default_rng(9)
        dists = rng.uniform(50.0, 900.0, size=60)
        anchors = rng.normal(size=(60, 3))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        dirs = np.cross(anchors, rng.normal(size=(60, 3)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a = anchors * dists[:, None]
        _, _, rho = pj._normalized_copy(self.observations(a.T, (a + dirs * 400.0).T))
        assert abs(rho - dists.mean()) < 0.02 * dists.mean()

    def test_line_rescale_matches_endpoint_rescale(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 40)) * 300.0
        b = a + rng.normal(size=(3, 40)) * 150.0
        obs_n, _, rho = pj._normalized_copy(self.observations(a, b))
        direct = lines_from_points(a / rho, b / rho)
        direct /= np.linalg.norm(direct, axis=0)
        # columns agree up to a per-line sign
        dots = np.abs(np.einsum("in,in->n", direct, obs_n.lines))
        assert np.min(dots) > 1.0 - 1e-12


@pytest.fixture(
    scope="module",
    params=[(20, NoiseSpec()), (8, NoiseSpec(sigma_mm=0.5, gamma_px=0.5, seed=0))],
    ids=["clean-g20", "noisy-g8"],
)
def twins(request, scene):
    return right_and_wrong_twin(scene, *request.param)


class TestMirrorTwins:
    """The twins (R1, t1) and (S R1 S, S t1) cost alike at every camera;
    only the depths of the mirror points tell them apart."""

    def test_twin_costs_are_equal_bit_for_bit(self, scene, twins):
        right, wrong = twins
        cam = scene.camera_pose
        sweep = pj.focal_sweep(right, scene.image_size)
        cameras = [
            (scene.intrinsics, cam.rotation, cam.translation),
            (sweep.intrinsics, sweep.rotation, sweep.translation),
            (scene.intrinsics, so3.exp([0.3, -0.2, 0.1]), np.array([10.0, -20.0, 900.0])),
        ]
        for intr, r, t in cameras:
            for a, b in ((right, wrong), (wrong, right)):
                want = pj.point_line_cost(pj.camera_line_matrix(intr, r, t), a)
                assert pj.point_line_cost(pj.camera_line_matrix(intr, -r @ S, -t), b) == want

    def test_front_fraction_reads_the_twin(self, scene, twins):
        right, wrong = twins
        intr, cam = scene.intrinsics, scene.camera_pose
        r, t = cam.rotation, cam.translation
        assert pj._front_fraction(intr.fx, right.centered(intr.u0, intr.v0), r, t) == 1.0
        assert pj._front_fraction(intr.fx, wrong.centered(intr.u0, intr.v0), -r @ S, -t) == 0.0

    def test_wrong_twin_sweep_ends_at_its_cold_starts(self, scene, monkeypatch):
        # clean grid 20: both passes' cold starts land in the mirror basin,
        # so the sweep fits their two decode signs and nothing else
        _, wrong = right_and_wrong_twin(scene, 20, NoiseSpec())
        original = pj.least_squares
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pj, "least_squares", counted)
        with pytest.raises(SweepNoMinimumError, match="2 of its 2 passes started behind the camera"):
            pj.focal_sweep(wrong, scene.image_size)
        assert len(calls) == 4

    def test_right_twin_forward_pass_dropped_under_noise(self, scene, monkeypatch):
        # noisy grid 8, draw 0: the right twin's first cold start keeps the
        # mirror sign, so the forward pass ends there and the reverse pass
        # finds the camera, the same f as a forward pass run to its end
        right, _ = right_and_wrong_twin(scene, 8, NoiseSpec(sigma_mm=0.5, gamma_px=0.5, seed=0))
        cold_starts, refine = pj._cold_starts, pj._refine_metric
        events = []

        def cold(*args):
            events.append("cold")
            return cold_starts(*args)

        def fit(*args, free_focal=False):
            events.append("polish" if free_focal else "fit")
            return refine(*args, free_focal=free_focal)

        monkeypatch.setattr(pj, "_cold_starts", cold)
        monkeypatch.setattr(pj, "_refine_metric", fit)
        est = pj.focal_sweep(right, scene.image_size)
        assert est.diagnostics["dropped_passes"] == 1
        # each pass opens with a cold start, both of whose starts are fitted;
        # the forward pass ends there, the reverse pass warm-starts the rest
        assert events == ["cold", "fit", "fit"] * 2 + ["fit"] * (pj.SWEEP_SAMPLES - 1) + ["polish"]
        assert est.intrinsics.fx == pytest.approx(1404.631732410813, rel=1e-9)

    def test_chain_keeps_the_right_twin_when_the_wrong_one_returns(self, scene):
        # at grid 12, sigma 1 mm, the wrong twin's sweep finds an interior
        # minimum in front of the camera; the chain keeps the lower cost,
        # the right twin's
        data = generate_dataset(scene, grid_step=12, noise=NoiseSpec(sigma_mm=1.0, gamma_px=0.5, seed=0))
        rec = reconstruct_chain(data, scene.image_size)
        assert sorted(rec.outcomes) == ["accepted", "kept"]
        cam = scene.camera_pose
        truth = pj.camera_line_matrix(scene.intrinsics, cam.rotation, cam.translation)
        costs = [pj.point_line_cost(truth, pj.build_observations(data, pair)) for pair in rec.poses.candidates]
        assert rec.outcomes.index("kept") == int(np.argmin(costs))
        assert abs(rec.start.intrinsics.fx - 1400.0) / 1400.0 < 0.03
        assert rot_err_deg(rec.start.rotation, cam.rotation) < 0.3

    def test_chain_exact_when_a_second_root_factors(self):
        # the dropped root's pair, 11.8 mm off its lines, is never swept
        scene = second_root_scene()
        data = generate_dataset(scene, grid_step=8, noise=NoiseSpec())
        rec = reconstruct_chain(data, scene.image_size)
        assert sorted(rec.outcomes) == ["SweepNoMinimumError", "kept"]
        assert abs(rec.start.intrinsics.fx - scene.intrinsics.fx) < 1e-12 * scene.intrinsics.fx
        assert rot_err_deg(rec.start.rotation, scene.camera_pose.rotation) < 1e-9


# (grid step, noise, tolerances on f relative, rotation in degrees,
# translation relative and points in mm).  The largest deviations over the
# three shifts were 3.0e-14, 1.0e-12, 2.1e-14 and 6.1e-11 clean at grid 8;
# 3.3e-15, 4.5e-13, 1.7e-14 and 7.3e-11 clean at grid 20; and 3.6e-9,
# 2.5e-7, 9.9e-9 and 1.2e-4 at sigma 0.5 mm
CLEAN_GAUGE_TOL = (5e-14, 2e-12, 5e-14, 1e-10)
GAUGE_SCANS = {
    "clean-g8": (8, NoiseSpec(seed=3), CLEAN_GAUGE_TOL),
    "clean-g20": (20, NoiseSpec(), CLEAN_GAUGE_TOL),
    "noisy-g8": (8, NoiseSpec(sigma_mm=0.5, gamma_px=0.5, seed=0), (5e-9, 5e-7, 2e-8, 2e-4)),
}


@pytest.fixture(scope="module")
def gauge_runs(scene):
    """Per scan: its data and the chain's reconstruction of it, unshifted."""
    runs = {}
    for name, (grid_step, noise, _) in GAUGE_SCANS.items():
        data = generate_dataset(scene, grid_step=grid_step, noise=noise)
        runs[name] = data, reconstruct_chain(data, scene.image_size)
    return runs


class TestGauge:
    """The world origin is the plane's coordinate origin, a gauge choice.
    Shifting every plane coordinate by c moves the camera's translation by
    -R (c, 0) and the surface by (c, 0), and changes nothing else."""

    @pytest.mark.parametrize("shift", [(0.0, 1500.0), (1500.0, 0.0), (-2000.0, 700.0)])
    @pytest.mark.parametrize("name", list(GAUGE_SCANS))
    def test_plane_shift_moves_only_the_gauge(self, scene, gauge_runs, name, shift):
        f_tol, rot_tol, t_tol, point_tol = GAUGE_SCANS[name][2]
        data, ref = gauge_runs[name]
        c = np.array(shift)
        moved = CorrespondenceSet(data.pixels, data.planes + c[:, None])
        rec = reconstruct_chain(moved, scene.image_size)
        got, want = rec.start, ref.start
        assert abs(got.intrinsics.fx - want.intrinsics.fx) < f_tol * want.intrinsics.fx
        assert rot_err_deg(got.rotation, want.rotation) < rot_tol
        t_want = want.translation - want.rotation @ np.append(c, 0.0)
        assert np.linalg.norm(got.translation - t_want) < t_tol * np.linalg.norm(want.translation)
        assert np.array_equal(rec.surface.valid, ref.surface.valid)
        valid = ref.surface.valid
        shifted = ref.surface.points[valid] + np.append(c, 0.0)
        assert np.max(np.abs(rec.surface.points[valid] - shifted)) < point_tol


class TestNoGroundTruth:
    """The scan alone is the chain's input: without the simulator's mirror
    points and normals it gives the same answer to the bit."""

    @pytest.mark.parametrize("name", ["clean-g20", "noisy-g8"])
    def test_chain_reads_no_ground_truth(self, scene, gauge_runs, name):
        data, ref = gauge_runs[name]
        rec = reconstruct_chain(dataclasses.replace(data, gt_points=None, gt_normals=None), scene.image_size)
        assert rec.outcomes == ref.outcomes
        for got, want in ((rec.start, ref.start), (rec.camera, ref.camera)):
            assert (got.intrinsics, got.cost) == (want.intrinsics, want.cost)
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)
        assert np.array_equal(rec.surface.points, ref.surface.points, equal_nan=True)
        assert np.array_equal(rec.surface.normals, ref.surface.normals, equal_nan=True)
        assert np.array_equal(rec.surface.valid, ref.surface.valid)
        assert rec.surface.invalid_reason == ref.surface.invalid_reason
