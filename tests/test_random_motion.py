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
        (1399.4163518044372, [1.470362934888046, 0.0010499696878606263, -0.0009417758511506809]),
        "SweepNoMinimumError",
    ],
    1: [
        (1435.2127395644675, [1.4842175433344198, 0.002626251000562699, -0.0030317046579656764]),
        (1228.6495267744865, [1.2400666492459116, 0.041378570270926715, -0.05827312686322472]),
    ],
    2: [
        (1388.1601717308097, [1.4606401295465246, -0.0007679738882637928, -0.00016311380490000637]),
        "SweepNoMinimumError",
    ],
    3: [
        "SweepNoMinimumError",
        (473.44820194539506, [0.4589189394539507, 0.019466154479270983, -0.025026565615090954]),
    ],
    4: [
        (707.0080159384254, [1.1671043461049513, 0.19335124106352844, -0.10321708389538999]),
        (1726.2768836145958, [0.5238243967761318, -0.0448540993182096, 0.01548393861996994]),
    ],
    5: [
        "SweepNoMinimumError",
        "SweepNoMinimumError",
    ],
    6: "RankAmbiguousError",
    7: [
        (1407.667455587788, [1.460961541236873, -0.0035801092136581317, 0.0021405573166007317]),
        "SweepNoMinimumError",
    ],
    8: [
        (1419.471346482418, [1.475768713854307, -0.0014133305962928196, 0.001795259921149288]),
        "SweepNoMinimumError",
    ],
    9: [
        "SweepNoMinimumError",
        "SweepNoMinimumError",
    ],
    10: [
        (1379.8008511069943, [1.4565928472033607, -0.0009447096943607075, 0.0007554973186350383]),
        "SweepNoMinimumError",
    ],
    11: [
        (1431.925304667852, [1.4496391652764005, -0.006762372218748813, 0.004104790593515718]),
        "SweepNoMinimumError",
    ],
    12: [
        "SweepNoMinimumError",
        "CheiralityUnresolvableError",
    ],
    13: "RankAmbiguousError",
    14: [
        (594.5281750953377, [-2.004732689115842, 0.10378335430017752, 0.06523795443923314]),
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
        (1388.435279116307, [1.386171278179225, 0.002538717942787155, -0.00019091594301293632]),
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
