"""Shared helpers and fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from specsurf import so3
from specsurf.sim import default_two_sphere_scene
from specsurf.types import RigidPose

# the same examples on every run, and no per-example deadline, so timing
# noise cannot fail a property test
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR of a Gaussian matrix."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def second_root_scene():
    """The default scene under plane motions whose clean scans leave a
    second nullspace root that factors into a rigid pair, about 11.7 mm RMS
    off its lines against 1e-13 mm for the true motions."""
    return dataclasses.replace(
        default_two_sphere_scene(),
        pose1=RigidPose(so3.exp([-0.1333, -0.1176, 0.1564]), (-25.16, -35.36, 188.54)),
        pose2=RigidPose(so3.exp([-0.1881, -0.2361, 0.1183]), (51.29, -40.73, 382.55)),
    )


def random_point_camera(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank 3x4 point projection matrix with sane conditioning."""
    fx, fy = rng.uniform(500, 3000, size=2)
    u0, v0 = rng.uniform(200, 1000, size=2)
    k = np.array([[fx, 0, u0], [0, fy, v0], [0, 0, 1.0]])
    r = random_rotation(rng)
    t = rng.uniform(-500, 500, size=3)
    t[2] = rng.uniform(800, 3000)
    return k @ np.hstack([r, t.reshape(3, 1)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
