"""Scoring of every operation's output against simulator ground truth.

A check failure marks the operation incorrect; errors are kept raw in
``Score.errors`` and, where a workload has an exactness gate, reported
against it in ``Score.reported``: an error inside its gate reads as the
gate, so clean-data results show "within 1e-4", not roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from specsurf.sim import SphereMirror

# Exact data must give f within 1e-4 relative and every valid point within
# 1e-6 mm; rotation and normals get gates far above roundoff as well.
CLEAN_GATES = {
    "focal_rel_err": 1e-4,
    "cam_rot_deg": 1e-6,
    "sweep_focal_rel_err": 1e-4,
    "sweep_rot_deg": 1e-6,
    "point_max_mm": 1e-6,
    "normal_max_deg": 1e-6,
}
# The simulator's ground-truth points must lie on a mirror to 1e-9 mm.
SIMULATOR_GATES = {"point_max_mm": 1e-9, "normal_max_deg": 1e-6}
UNIT_NORMAL_TOL = 1e-12
PROPER_ROTATION_TOL = 1e-9
# The sample std of the plane noise must lie within this many standard
# errors of sigma_mm.
NOISE_STD_Z = 5.0

# summary errors reported against the gate of the worst case they summarise
_GATED_BY = {"point_rms_mm": "point_max_mm", "normal_med_deg": "normal_max_deg"}


@dataclass
class Score:
    errors: dict[str, float]
    reported: dict[str, float]
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def rotation_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Angle of a @ b.T; the chord form keeps precision near zero."""
    chord = np.linalg.norm(a - b) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(min(chord, 1.0))))


def vector_angles_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise angles between two stacks of 3-vectors."""
    cross = np.linalg.norm(np.cross(a, b), axis=1)
    return np.degrees(np.arctan2(cross, np.einsum("ij,ij->i", a, b)))


def camera_errors(camera, scene) -> dict[str, float]:
    truth = scene.intrinsics
    intr = camera.intrinsics
    focal = max(abs(intr.fx - truth.fx) / truth.fx, abs(intr.fy - truth.fy) / truth.fy)
    return {
        "focal_rel_err": float(focal),
        "cam_rot_deg": rotation_angle_deg(camera.rotation, scene.camera_pose.rotation),
    }


def _is_proper(rotation: np.ndarray) -> bool:
    ortho = np.max(np.abs(rotation.T @ rotation - np.eye(3)))
    return bool(ortho <= PROPER_ROTATION_TOL and abs(np.linalg.det(rotation) - 1.0) <= PROPER_ROTATION_TOL)


def _against(errors: dict[str, float], gates: dict[str, float]) -> dict[str, float]:
    out = dict(errors)
    for key, value in errors.items():
        gate = gates.get(_GATED_BY.get(key, key))
        if gate is not None:
            out[key] = max(value, gate)
    return out


def _gate_failures(errors: dict[str, float], gates: dict[str, float]) -> list[str]:
    return [f"{key} {errors[key]:.3g} > {gate:g}" for key, gate in gates.items() if not errors[key] <= gate]


def _surface_errors(points, normals, gt_points, gt_normals) -> dict[str, float]:
    point_err = np.linalg.norm(points - gt_points, axis=1)
    normal_err = vector_angles_deg(normals, gt_normals)
    return {
        "point_rms_mm": float(np.sqrt(np.mean(point_err**2))),
        "point_max_mm": float(np.max(point_err)),
        "normal_med_deg": float(np.median(normal_err)),
        "normal_max_deg": float(np.max(normal_err)),
    }


def score_reconstruction(result, data, scene, clean: bool) -> Score:
    """Camera and surface of one solver operation against ground truth.

    Every op must return a proper rotation and finite values for the camera
    and every valid point and normal, with at least one valid point; clean
    data must also pass CLEAN_GATES.
    """
    camera, surface = result.camera, result.surface
    valid = surface.valid
    if not valid.any():
        return Score({}, {}, ["no valid surface point"])
    errors = camera_errors(camera, scene)
    start = camera_errors(result.start, scene)
    errors["sweep_focal_rel_err"] = start["focal_rel_err"]
    errors["sweep_rot_deg"] = start["cam_rot_deg"]
    f_in = result.start.intrinsics.fx
    errors["focal_drift_rel"] = abs(camera.intrinsics.fx - f_in) / f_in
    errors.update(
        _surface_errors(
            surface.points[valid], surface.normals[valid], data.gt_points[valid], data.gt_normals[valid]
        )
    )
    errors["valid_frac"] = float(np.mean(valid))

    failures = []
    intr = camera.intrinsics
    outputs = (
        [intr.fx, intr.fy, intr.u0, intr.v0],
        camera.rotation,
        camera.translation,
        surface.points[valid],
        surface.normals[valid],
    )
    if not all(np.all(np.isfinite(a)) for a in outputs):
        failures.append("non-finite output")
    if not _is_proper(camera.rotation):
        failures.append("camera rotation is not proper")
    gates = CLEAN_GATES if clean else {}
    failures += _gate_failures(errors, gates)
    return Score(errors, _against(errors, gates), failures)


def score_simulation(data, inputs) -> Score:
    """One simulated dataset against the scene's analytic mirrors.

    Ground-truth points must lie on a mirror to 1e-9 mm with unit outward
    normals, the same seed must reproduce the warm-up arrays exactly, and
    the plane noise must have sample std sigma_mm within sampling error.
    """
    scene = inputs.scene
    if not all(isinstance(m, SphereMirror) for m in scene.mirrors):
        raise ValueError("simulator scoring handles sphere mirrors only")
    points, normals = data.gt_points, data.gt_normals
    centers = np.stack([m.center for m in scene.mirrors])
    radii = np.array([m.radius for m in scene.mirrors])
    offsets = np.linalg.norm(points[:, None, :] - centers[None], axis=2) - radii
    nearest = np.argmin(np.abs(offsets), axis=1)
    on_mirror = offsets[np.arange(len(points)), nearest]
    outward = (points - centers[nearest]) / radii[nearest, None]
    normal_err = vector_angles_deg(normals, outward)
    errors = {
        "point_rms_mm": float(np.sqrt(np.mean(on_mirror**2))),
        "point_max_mm": float(np.max(np.abs(on_mirror))),
        "normal_med_deg": float(np.median(normal_err)),
        "normal_max_deg": float(np.max(normal_err)),
        "normal_unit_err": float(np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0))),
    }

    valid, cx0, cx1, cx2, _, _ = inputs.clean
    errors["valid_frac"] = len(data) / len(valid)
    sigma = inputs.noise.sigma_mm
    deltas = np.concatenate([data.x0 - cx0[valid], data.x1 - cx1[valid], data.x2 - cx2[valid]]).ravel()
    std = float(np.std(deltas, ddof=1))
    errors["noise_std_ratio"] = std / sigma

    failures = _gate_failures(errors, SIMULATOR_GATES)
    if not errors["normal_unit_err"] <= UNIT_NORMAL_TOL:
        failures.append(f"normals off unit length by {errors['normal_unit_err']:.3g}")
    if not abs(std - sigma) <= NOISE_STD_Z * sigma / np.sqrt(2.0 * (deltas.size - 1)):
        failures.append(f"plane noise std {std:.6g} does not match sigma_mm {sigma:g}")
    ref = inputs.reference
    names = ("pixels", "x0", "x1", "x2", "gt_points", "gt_normals")
    if not all(np.array_equal(getattr(data, n), getattr(ref, n)) for n in names):
        failures.append("same seed gave different arrays")
    return Score(errors, _against(errors, SIMULATOR_GATES), failures)
