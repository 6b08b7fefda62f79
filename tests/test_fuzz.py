"""The whole chain on the 80 scenes of the fuzz set.

conftest.random_scene varies the plane motions, the focal length, both
mirrors, the noise and the grid step, which the default scene and the
random-motion suite hold fixed.  The chain must end every scene in a
reconstruction or a SpecsurfError, never another exception, and on clean
data its sweep camera must be exact unless it raises.
"""

import sys
from pathlib import Path

import pytest

from specsurf.errors import SpecsurfError
from specsurf.sim import generate_dataset

from conftest import random_scene

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from specbench.workloads import reconstruct_chain  # noqa: E402

FUZZ_SCENES = 80
# relative focal error of the sweep camera on a clean scan
CLEAN_FOCAL_TOL = 1e-4


@pytest.mark.slow
def test_chain_ends_typed_and_exact_on_clean_scans():
    untyped, inexact = [], []
    for k in range(FUZZ_SCENES):
        scene, noise, grid = random_scene(k)
        try:
            result = reconstruct_chain(generate_dataset(scene, grid, noise), scene.image_size)
        except SpecsurfError:
            continue
        except Exception as error:  # noqa: BLE001 - any other exception is the failure
            untyped.append((k, repr(error)))
            continue
        f, want = result.start.intrinsics.fx, scene.intrinsics.fx
        if noise.sigma_mm == 0.0 and not abs(f - want) <= CLEAN_FOCAL_TOL * want:
            inexact.append((k, f, want))
    assert untyped == []
    assert inexact == []
