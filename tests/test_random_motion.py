"""The random-motion suite's first 20 scenes, pinned sweep by sweep.

Every gate elsewhere sits on the default scene's motions, which flatter
the chain.  This test runs scenes 0-19 of conftest.random_motion_scene,
chosen by index, and pins what each stage gives: the pose stage's error,
or for each plane-pose candidate the focal sweep's error or its camera's
f and rotation.  A change to the pose stage or the sweep that moves any
outcome shows here, the failures included.
"""

import numpy as np
import pytest

from specsurf import projection as pj
from specsurf import so3
from specsurf.errors import SpecsurfError
from specsurf.plane_pose import estimate_plane_poses
from specsurf.sim import generate_dataset

from conftest import random_motion_scene

# per scene: the pose stage's error name, or per candidate the sweep's
# error name or its camera (f in px, axis-angle of R)
PINNED = {
    0: [
        (1399.4163498079051, [1.4703629341767142, 0.001049969730776743, -0.0009417758498545426]),
        "SweepNoMinimumError",
    ],
    1: [
        (1435.2127994116695, [1.4842175630086918, 0.0026262433032424944, -0.003031699700051271]),
        (1228.6493510233342, [1.2400666410552312, 0.041378602406116856, -0.05827320857028021]),
    ],
    2: [
        (1388.1601717308097, [1.4606401295465246, -0.0007679738882637928, -0.00016311380490000637]),
        "SweepNoMinimumError",
    ],
    3: [
        "SweepNoMinimumError",
        (473.4480581359935, [0.4589188227057288, 0.019466159287658873, -0.025026571256447562]),
    ],
    4: [
        (707.0075837635002, [1.1671043568767714, 0.19335113927443703, -0.10321700213585544]),
        "SweepNoMinimumError",
    ],
    5: [
        "SweepNoMinimumError",
        "SweepNoMinimumError",
    ],
    6: "RankAmbiguousError",
    7: [
        (1407.667455587788, [1.460961541236873, -0.0035801092136581317, 0.0021405573166007317]),
        (1170.1990002792145, [1.3034355637830746, -1.794770144549631e-05, 0.007175560570578859]),
    ],
    8: [
        (1419.471348349697, [1.4757687143414573, -0.0014133310284481046, 0.0017952601807036132]),
        "SweepNoMinimumError",
    ],
    9: [
        "SweepNoMinimumError",
        "SweepNoMinimumError",
    ],
    10: [
        (1379.8008461551676, [1.4565928453673949, -0.0009447096442113731, 0.0007554972640150493]),
        "SweepNoMinimumError",
    ],
    11: [
        (1431.9253213891673, [1.4496391728590272, -0.0067623722052487885, 0.004104790571425734]),
        "SweepNoMinimumError",
    ],
    12: [
        "SweepNoMinimumError",
        "CheiralityUnresolvableError",
    ],
    13: "RankAmbiguousError",
    14: [
        "SweepNoMinimumError",
        "SweepNoMinimumError",
    ],
    15: "RankAmbiguousError",
    16: [
        (1396.425514351304, [1.466087802545844, -0.0015382576570723465, 0.0004327596458418816]),
        "SweepNoMinimumError",
    ],
    17: [
        (1405.3277998247554, [1.4715812095744578, 0.0016518103661912241, 0.00042675902968086575]),
        "SweepNoMinimumError",
    ],
    18: [
        "SweepNoMinimumError",
        "SweepNoMinimumError",
    ],
    19: [
        (1388.4352980267313, [1.386171287139347, 0.0025387174494281694, -0.00019091563122367096]),
        "SweepNoMinimumError",
    ],
}


def sweep_outcomes(k):
    """Scene k's pose-stage error name, or one sweep outcome per candidate."""
    scene, noise = random_motion_scene(k)
    data = generate_dataset(scene, grid_step=12, noise=noise)
    try:
        candidates = estimate_plane_poses(data).candidates
    except SpecsurfError as error:
        return type(error).__name__
    outcomes = []
    for pair in candidates:
        try:
            outcomes.append(pj.focal_sweep(pj.build_observations(data, pair), scene.image_size))
        except SpecsurfError as error:
            outcomes.append(type(error).__name__)
    return outcomes


@pytest.mark.slow
@pytest.mark.parametrize("k", sorted(PINNED))
def test_random_motion_outcomes_pinned(k):
    got, want = sweep_outcomes(k), PINNED[k]
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    for est, pin in zip(got, want):
        if isinstance(pin, str):
            assert est == pin
            continue
        focal, rotvec = pin
        assert not isinstance(est, str), est
        assert est.intrinsics.fx == pytest.approx(focal, rel=1e-9)
        assert np.linalg.norm(so3.log(est.rotation @ so3.exp(rotvec).T)) < 1e-9
