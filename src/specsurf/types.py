"""Shared value types used across the pipeline stages.

Conventions
-----------
* World frame = local frame of the reference plane at pose 0 (the plane is
  the z=0 coordinate plane there).  All 3D quantities are in millimeters.
* RigidPose maps local coordinates to world coordinates for plane poses
  (X_world = R @ X_local + t) and world to camera for the camera pose
  (X_cam = R @ X_world + t).
* The plane motions are a tuple of RigidPose, one per pose after pose 0,
  each relative to pose 0.
* Image coordinates are pixels, (u, v) with u along the image width.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels,
    all finite, the focal lengths positive."""

    fx: float
    fy: float
    u0: float
    v0: float

    def __post_init__(self):
        finite = np.isfinite([self.fx, self.fy, self.u0, self.v0]).all()
        if not (finite and self.fx > 0 and self.fy > 0):
            raise ValueError("intrinsics must be finite and the focal lengths positive")

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
                 simulator hashes every stream's seed words in batch and
                 hands them to numpy's PCG64, and the tests pin the
                 equality.
    sigma_mm, gamma_px and k1 must be finite.
    """

    sigma_mm: float = 0.0
    gamma_px: float = 0.0
    k1: float = 0.0
    seed: int = 0

    def __post_init__(self):
        finite = np.isfinite([self.sigma_mm, self.gamma_px, self.k1]).all()
        if not finite or self.sigma_mm < 0 or self.gamma_px < 0:
            raise ValueError("noise terms must be finite and the magnitudes non-negative")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"noise seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))


@dataclass(frozen=True)
class CorrespondenceSet:
    """Column-array container for reflection correspondences.

    pixels (n, 2) and planes, the plane points at poses 0, 1, 2 as the
    rows-first stack (3, 2, n), are copied here into C-contiguous float64
    arrays, checked finite and made read-only, so the check holds for the
    life of the scan and no stage handles a non-finite value.  gt_points
    and gt_normals, filled by the simulator, are kept as given and are for
    scoring alone; no solver stage reads them.
    """

    pixels: np.ndarray  # (n, 2)
    planes: np.ndarray  # (3, 2, n)
    gt_points: np.ndarray | None = None  # (n, 3)
    gt_normals: np.ndarray | None = None  # (n, 3)

    def __post_init__(self):
        n = len(self.pixels)
        if n < 1:
            raise ValueError("correspondence set may not be empty")
        for name, shape in (("pixels", (n, 2)), ("planes", (3, 2, n))):
            value = np.array(getattr(self, name), dtype=float, order="C")
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.pixels)

    # read-only (n, 2) views of planes, kept for the benchmark's scoring
    x0 = property(lambda self: self.planes[0].T)
    x1 = property(lambda self: self.planes[1].T)
    x2 = property(lambda self: self.planes[2].T)


@dataclass
class CalibrationEstimate:
    """Camera estimate: intrinsics plus world-to-camera extrinsics."""

    intrinsics: Intrinsics
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,) mm
    source: str  # "constrained" (focal_sweep) | "crossratio" (refine)
    # px^2 (sum): the focal sweep polish's own point-to-line cost for
    # "constrained", the cross-ratio reprojection cost for "crossratio"
    cost: float = float("nan")
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

