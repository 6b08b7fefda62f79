"""Shared value types used across the pipeline stages.

Conventions
-----------
* World frame = local frame of the reference plane at pose 0 (the plane is
  the z=0 coordinate plane there).  All 3D quantities are in millimeters.
* RigidPose maps local coordinates to world coordinates for plane poses
  (X_world = R @ X_local + t) and world to camera for the camera pose
  (X_cam = R @ X_world + t).
* Image coordinates are pixels, (u, v) with u along the image width.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    u0: float
    v0: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.u0], [0.0, self.fy, self.v0], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class RigidPose:
    """Rotation + translation, acting as X_out = R @ X_in + t."""

    rotation: np.ndarray  # (3, 3), SO(3)
    translation: np.ndarray  # (3,), mm

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(3)
        )

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or a stack (n, 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidPose":
        rt = self.rotation.T
        return RigidPose(rt, -rt @ self.translation)

    def orthonormality_error(self) -> float:
        r = self.rotation
        return float(np.max(np.abs(r.T @ r - np.eye(3))))


def identity_pose() -> RigidPose:
    return RigidPose(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation model applied by the simulator.

    sigma_mm   : std-dev of Gaussian noise on the in-plane correspondence
                 coordinates (each coordinate independently, mm).
    gamma_px   : half-width of uniform noise added to pixel coordinates.
    k1         : one-parameter radial distortion applied to pixels
                 (in [-1,1]-normalized image coordinates) before quantization.
    seed       : non-negative integer.  Triple i of the full pixel grid
                 draws from ``np.random.default_rng([seed, i])``; the
                 simulator seeds these streams in batch, and the tests pin
                 the equality.
    """

    sigma_mm: float = 0.0
    gamma_px: float = 0.0
    k1: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_mm < 0 or self.gamma_px < 0:
            raise ValueError("noise magnitudes must be non-negative")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"noise seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))


@dataclass(frozen=True)
class ReflectionTriple:
    """One pixel's reflection correspondence across the three plane poses."""

    pixel: np.ndarray  # (2,) image point (u, v)
    x0: np.ndarray  # (2,) plane coords at pose 0, mm
    x1: np.ndarray  # (2,) plane coords at pose 1, mm
    x2: np.ndarray  # (2,) plane coords at pose 2, mm
    gt_point: np.ndarray | None = None  # (3,) mirror point, world mm
    gt_normal: np.ndarray | None = None  # (3,) unit normal


@dataclass
class CorrespondenceSet:
    """Column-array container for reflection correspondences.

    meta carries image size, plane extent, units, the noise spec used and
    (optionally) ground-truth camera and plane poses.
    """

    pixels: np.ndarray  # (n, 2)
    x0: np.ndarray  # (n, 2)
    x1: np.ndarray  # (n, 2)
    x2: np.ndarray  # (n, 2)
    gt_points: np.ndarray | None = None  # (n, 3)
    gt_normals: np.ndarray | None = None  # (n, 3)
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.pixels)
        if n < 1:
            raise ValueError("correspondence set may not be empty")
        for name in ("pixels", "x0", "x1", "x2"):
            shape = np.shape(getattr(self, name))
            if shape != (n, 2):
                raise ValueError(f"{name} has shape {shape}, expected ({n}, 2)")

    def __len__(self) -> int:
        return len(self.pixels)

    @property
    def has_ground_truth(self) -> bool:
        return self.gt_points is not None and self.gt_normals is not None


@dataclass(frozen=True)
class PlanePosePair:
    """Rigid poses of the reference plane at poses 1 and 2, relative to pose 0."""

    pose1: RigidPose
    pose2: RigidPose


@dataclass
class CalibrationEstimate:
    """Camera estimate: intrinsics plus world-to-camera extrinsics."""

    intrinsics: Intrinsics
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,) mm
    source: str  # "constrained" (focal_sweep) | "crossratio" (refine)
    cost: float = float("nan")  # point-to-line cost, px^2 (sum)
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def camera_center(self) -> np.ndarray:
        return -self.rotation.T @ self.translation


@dataclass
class SurfaceEstimate:
    """Reconstructed mirror surface samples in the world (pose-0 plane) frame."""

    points: np.ndarray  # (n, 3) mm; rows for invalid entries are NaN
    normals: np.ndarray  # (n, 3) unit vectors; NaN rows when invalid
    # (n,) signed offset, mm, from the lifted pose-2 point toward the pose-0
    # point; 0 where the row is invalid
    s_values: np.ndarray
    valid: np.ndarray  # (n,) bool
    invalid_reason: dict[int, str] = field(default_factory=dict)

