"""Self-test of the benchmark's own scoring and failure accounting.

    python3 -m pytest specbench -q

Runs in a few seconds on a coarse grid; it times nothing.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import score  # noqa: E402
import workloads  # noqa: E402
from specsurf import sim  # noqa: E402
from specsurf.errors import SweepNoMinimumError  # noqa: E402
from specsurf.types import CalibrationEstimate, Intrinsics, NoiseSpec, SurfaceEstimate  # noqa: E402

GRID = 40


@pytest.fixture(scope="module")
def scene():
    return sim.default_two_sphere_scene()


@pytest.fixture(scope="module")
def data(scene):
    return sim.generate_dataset(scene, GRID, NoiseSpec())


def true_camera(scene, focal_scale=1.0):
    intr = scene.intrinsics
    return CalibrationEstimate(
        intrinsics=Intrinsics(intr.fx * focal_scale, intr.fy * focal_scale, intr.u0, intr.v0),
        rotation=scene.camera_pose.rotation,
        translation=scene.camera_pose.translation,
        source="truth",
    )


def truth_result(scene, data, camera):
    surface = SurfaceEstimate(
        points=data.gt_points.copy(),
        normals=data.gt_normals.copy(),
        s_values=np.zeros(len(data)),
        valid=np.ones(len(data), dtype=bool),
    )
    return workloads.Reconstruction(
        poses=None, outcomes=["kept"], start=camera, camera=camera, surface=surface, report=None
    )


def test_ground_truth_scores_zero_error(scene, data):
    result = truth_result(scene, data, true_camera(scene))
    s = score.score_reconstruction(result, data, scene, clean=True)
    assert s.passed, s.failures
    for key in ("focal_rel_err", "cam_rot_deg", "point_rms_mm", "point_max_mm", "normal_med_deg", "focal_drift_rel"):
        assert s.errors[key] == 0.0, key
    assert s.errors["valid_frac"] == 1.0
    # inside the gate, clean errors read as the gate
    assert s.reported["focal_rel_err"] == score.CLEAN_GATES["focal_rel_err"]
    assert s.reported["point_rms_mm"] == score.CLEAN_GATES["point_max_mm"]


def test_perturbed_focal_fails_clean_gate_only(scene, data):
    result = truth_result(scene, data, true_camera(scene, focal_scale=1.01))
    clean = score.score_reconstruction(result, data, scene, clean=True)
    assert not clean.passed
    assert any(f.startswith("focal_rel_err") for f in clean.failures)
    assert clean.reported["focal_rel_err"] == pytest.approx(0.01)
    assert score.score_reconstruction(result, data, scene, clean=False).passed


def test_shifted_points_fail_clean_gate(scene, data):
    result = truth_result(scene, data, true_camera(scene))
    result.surface.points[3] += [0.0, 0.0, 1e-3]
    s = score.score_reconstruction(result, data, scene, clean=True)
    assert any(f.startswith("point_max_mm") for f in s.failures)


def test_non_finite_output_fails_noisy_check(scene, data):
    result = truth_result(scene, data, true_camera(scene))
    result.surface.normals[0] = np.nan
    assert "non-finite output" in score.score_reconstruction(result, data, scene, clean=False).failures


def test_rotation_angle_is_exact_for_small_angles():
    angle = np.radians(1e-7)
    rot = np.array([[np.cos(angle), -np.sin(angle), 0], [np.sin(angle), np.cos(angle), 0], [0, 0, 1]])
    assert score.rotation_angle_deg(rot, np.eye(3)) == pytest.approx(1e-7, rel=1e-6)


@pytest.fixture(scope="module")
def sim_inputs(scene):
    w = replace(workloads.WORKLOADS["simulate-g2"], grid=GRID)
    inputs = workloads.make_inputs(w, seed=7)
    workloads.warm_up(w, inputs)
    return w, inputs


def test_simulated_dataset_passes_its_checks(sim_inputs):
    w, inputs = sim_inputs
    s = score.score_simulation(workloads.run_op(w, inputs), inputs)
    assert s.passed, s.failures
    assert s.reported["point_rms_mm"] == score.SIMULATOR_GATES["point_max_mm"]


def test_simulation_checks_catch_changes(sim_inputs):
    w, inputs = sim_inputs
    other_seed = sim.generate_dataset(inputs.scene, GRID, replace(inputs.noise, seed=8))
    assert "same seed gave different arrays" in score.score_simulation(other_seed, inputs).failures
    loud = sim.generate_dataset(inputs.scene, GRID, replace(inputs.noise, sigma_mm=0.6))
    assert any(f.startswith("plane noise std") for f in score.score_simulation(loud, inputs).failures)
    data = workloads.run_op(w, inputs)
    data.gt_points[0] *= 1.0 + 1e-6
    assert any(f.startswith("point_max_mm") for f in score.score_simulation(data, inputs).failures)


def _raise(exc):
    def op(w, inputs):
        raise exc

    return op


@pytest.mark.parametrize(
    "exc, untyped", [(SweepNoMinimumError("no minimum"), False), (ValueError("focal lengths must be positive"), True)]
)
def test_raised_op_counts_as_failed(monkeypatch, exc, untyped):
    monkeypatch.setattr(workloads, "run_op", _raise(exc))
    ops = run.run_ops(workloads.WORKLOADS["chain-clean-g20"], inputs=None, seconds=0.01, tracer=None)
    assert ops
    assert all(op.error == type(exc).__name__ and op.untyped is untyped for op in ops)
    assert all(op.score is None for op in ops)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100)))[0] == 90
