"""The benchmark's tracer wraps names that exist and puts them back.

The tracer replaces package functions by name; a layer function that is
renamed or deleted would otherwise break only traced benchmark runs.  Its
fit counter wraps projection's least_squares, which must still see every
fit of the focal sweep.
"""

import sys
from pathlib import Path

from specsurf import projection
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import NoiseSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from specbench.tracing import LAYER_CALLS, Tracer  # noqa: E402


def test_installed_wraps_and_restores_every_name():
    names = [(module, attr) for module, attr, _ in LAYER_CALLS]
    names.append((projection, "least_squares"))
    before = [getattr(module, attr) for module, attr in names]
    with Tracer().installed():
        during = [getattr(module, attr) for module, attr in names]
    assert all(d is not b for d, b in zip(during, before))
    assert all(getattr(module, attr) is b for (module, attr), b in zip(names, before))


def test_counts_every_sweep_fit(monkeypatch):
    scene = default_two_sphere_scene()
    data = generate_dataset(scene, grid_step=20, noise=NoiseSpec())
    obs = projection.build_observations(data, scene.poses)
    original = projection.least_squares
    fits = []

    def recorded(*args, **kwargs):
        fits.append(original(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(projection, "least_squares", recorded)
    tracer = Tracer()
    with tracer.installed():
        est = projection.focal_sweep(obs, scene.image_size)
    (sweep,) = [s for s in tracer.spans if s.name == "projection.sweep"]
    # one fit per grid sample (every clean sample solves), the second sign
    # of the cold start's decode and the polish
    assert sweep.lsq_calls == len(fits) == projection.SWEEP_SAMPLES + 2
    assert sweep.nfev == sum(fit.nfev for fit in fits) == est.diagnostics["nfev"] > 0
