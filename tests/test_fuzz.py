"""The whole chain on the 80 scenes of the fuzz set.

conftest.random_scene varies the plane motions, the focal length, both
mirrors, the noise and the grid step, which the default scene and the
random-motion suite hold fixed.  The chain must end every scene in a
reconstruction or a SpecsurfError, never another exception, and on clean
data its sweep camera must be exact unless it raises.  Every valid row
of a reconstruction's surface must be a finite point with a unit normal.
Each scene's outcome names are pinned: a change to any stage that moves a
candidate's outcome, or the error that ends a chain, shows here.  Only
names are pinned, not refined values: the cross-ratio refine's camera can
differ in its last digits from run to run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from specsurf.errors import SpecsurfError
from specsurf.sim import generate_dataset

from conftest import random_scene

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from specbench.workloads import reconstruct_chain  # noqa: E402

FUZZ_SCENES = 80
# relative focal error of the sweep camera on a clean scan
CLEAN_FOCAL_TOL = 1e-4

# per scene: the chain's outcome of each plane-pose candidate, or the name
# of the error that ended it
PINNED = {
    0: "RankAmbiguousError",
    1: ["SweepNoMinimumError", "kept"],
    2: ["kept", "SweepNoMinimumError"],
    3: "RankAmbiguousError",
    4: "RankAmbiguousError",
    5: "SweepNoMinimumError",
    6: ["kept", "SweepNoMinimumError"],
    7: "RankAmbiguousError",
    8: ["accepted", "kept"],
    9: "SweepNoMinimumError",
    10: ["SweepNoMinimumError", "kept"],
    11: ["kept", "SweepNoMinimumError"],
    12: "SweepNoMinimumError",
    13: ["kept", "SweepNoMinimumError"],
    14: "RankAmbiguousError",
    15: "RankAmbiguousError",
    16: "SweepNoMinimumError",
    17: "RankAmbiguousError",
    18: "RankAmbiguousError",
    19: "SweepNoMinimumError",
    20: ["kept", "SweepNoMinimumError"],
    21: ["kept", "SweepNoMinimumError"],
    22: "RankAmbiguousError",
    23: ["kept", "SweepNoMinimumError"],
    24: "RankAmbiguousError",
    25: ["kept", "SweepNoMinimumError"],
    26: "RankAmbiguousError",
    27: ["kept", "SweepNoMinimumError"],
    28: ["kept", "SweepNoMinimumError"],
    29: ["kept", "SweepNoMinimumError"],
    30: ["kept", "SweepNoMinimumError"],
    31: "RankAmbiguousError",
    32: "SweepNoMinimumError",
    33: ["kept", "SweepNoMinimumError"],
    34: "SweepNoMinimumError",
    35: "RankAmbiguousError",
    36: ["kept", "SweepNoMinimumError"],
    37: "RankAmbiguousError",
    38: ["kept", "SweepNoMinimumError"],
    39: "SweepNoMinimumError",
    40: "RankAmbiguousError",
    41: ["kept", "SweepNoMinimumError"],
    42: "RankAmbiguousError",
    43: "CheiralityUnresolvableError",
    44: "RankAmbiguousError",
    45: "RankAmbiguousError",
    46: ["kept", "SweepNoMinimumError"],
    47: ["kept", "SweepNoMinimumError"],
    48: "SweepNoMinimumError",
    49: ["kept", "SweepNoMinimumError"],
    50: "SweepNoMinimumError",
    51: ["kept", "SweepNoMinimumError"],
    52: "SweepNoMinimumError",
    53: "SweepNoMinimumError",
    54: ["kept", "accepted"],
    55: "RankAmbiguousError",
    56: "SweepNoMinimumError",
    57: "RankAmbiguousError",
    58: "SweepNoMinimumError",
    59: "RankAmbiguousError",
    60: ["kept", "SweepNoMinimumError"],
    61: "RankAmbiguousError",
    62: ["kept", "SweepNoMinimumError"],
    63: "RankAmbiguousError",
    64: "RankAmbiguousError",
    65: ["kept", "SweepNoMinimumError"],
    66: "SweepNoMinimumError",
    67: ["kept", "SweepNoMinimumError"],
    68: ["kept", "SweepNoMinimumError"],
    69: ["kept", "SweepNoMinimumError"],
    70: "RankAmbiguousError",
    71: "RankAmbiguousError",
    72: "CheiralityUnresolvableError",
    73: "SweepNoMinimumError",
    74: "RankAmbiguousError",
    75: ["kept", "SweepNoMinimumError"],
    76: ["kept", "SweepNoMinimumError"],
    77: "SweepNoMinimumError",
    78: ["kept", "accepted"],
    79: "RankAmbiguousError",
}


@pytest.fixture(scope="module")
def chains():
    """Per scene: the scene, its noise, and the chain's reconstruction or
    the exception that ended it; the chain runs once for every test here."""
    runs = []
    for k in range(FUZZ_SCENES):
        scene, noise, grid = random_scene(k)
        try:
            result = reconstruct_chain(generate_dataset(scene, grid, noise), scene.image_size)
        except Exception as error:  # noqa: BLE001 - each test sorts the exceptions it reads
            result = error
        runs.append((scene, noise, result))
    return runs


@pytest.mark.slow
def test_chain_ends_typed_and_exact_on_clean_scans(chains):
    untyped, inexact = [], []
    for k, (scene, noise, result) in enumerate(chains):
        if isinstance(result, SpecsurfError):
            continue
        if isinstance(result, Exception):
            untyped.append((k, repr(result)))
            continue
        f, want = result.start.intrinsics.fx, scene.intrinsics.fx
        if noise.sigma_mm == 0.0 and not abs(f - want) <= CLEAN_FOCAL_TOL * want:
            inexact.append((k, f, want))
    assert untyped == []
    assert inexact == []


@pytest.mark.slow
def test_valid_rows_finite_with_unit_normals(chains):
    # the refine's surface is the triples its start gate passed, rebuilt at
    # the fitted camera; MINPACK accepts no step whose residuals are not
    # finite, so each of them still rebuilds there
    broken = []
    for k, (_, _, result) in enumerate(chains):
        if isinstance(result, Exception):
            continue
        valid = result.surface.valid
        points, normals = result.surface.points[valid], result.surface.normals[valid]
        if not (np.isfinite(points).all() and np.all(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-12)):
            broken.append(k)
    assert broken == []


@pytest.mark.slow
@pytest.mark.parametrize("k", sorted(PINNED))
def test_fuzz_outcomes_pinned(chains, k):
    result = chains[k][2]
    assert (type(result).__name__ if isinstance(result, SpecsurfError) else result.outcomes) == PINNED[k]
