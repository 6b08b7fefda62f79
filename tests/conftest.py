"""Shared helpers and fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from specsurf import so3
from specsurf.sim import default_two_sphere_scene
from specsurf.types import NoiseSpec, RigidPose

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
        poses=(
            RigidPose(so3.exp([-0.1333, -0.1176, 0.1564]), (-25.16, -35.36, 188.54)),
            RigidPose(so3.exp([-0.1881, -0.2361, 0.1183]), (51.29, -40.73, 382.55)),
        ),
    )


def random_motion_scene(k: int):
    """Scene k of the random-motion suite and the noise it is scanned with
    at grid 12.

    Both plane motions rotate by so3.exp of an N(0, 0.15) 3-vector and
    translate by (N(0, 50), N(0, 50), z) mm, z uniform on [120, 230] for
    pose 1 and [300, 450] for pose 2, drawn from default_rng(21) in the
    order rotation 1, translation 1, rotation 2, translation 2 and scene
    after scene.  The noise is sigma [0.5, 1.0][k % 2] mm, gamma 0.5 px,
    seed k.
    """
    rng = np.random.default_rng(21)
    for _ in range(k + 1):
        poses = tuple(
            RigidPose(so3.exp(rng.normal(0, 0.15, 3)), (rng.normal(0, 50), rng.normal(0, 50), rng.uniform(*z)))
            for z in ((120, 230), (300, 450))
        )
    scene = dataclasses.replace(default_two_sphere_scene(), poses=poses)
    return scene, NoiseSpec(sigma_mm=[0.5, 1.0][k % 2], gamma_px=0.5, seed=k)


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
