"""specsurf: mirror surface reconstruction from reflections of a moving plane.

A fixed, uncalibrated pinhole camera observes the reflection of a flat
reference target placed at three unknown poses.  From the per-pixel
reflection correspondences this package recovers the plane motions, the
camera (intrinsics + extrinsics) and a point cloud of the mirror surface,
and ships a ray-tracing simulator to generate ground-truth data end to end.
"""

from .types import (
    CalibrationEstimate,
    CorrespondenceSet,
    Intrinsics,
    NoiseSpec,
    RigidPose,
    SurfaceEstimate,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationEstimate",
    "CorrespondenceSet",
    "Intrinsics",
    "NoiseSpec",
    "RigidPose",
    "SurfaceEstimate",
    "__version__",
]
