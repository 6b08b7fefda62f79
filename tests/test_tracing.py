"""The benchmark's tracer wraps names that exist and puts them back.

The tracer replaces package functions by name; a layer function that is
renamed or deleted would otherwise break only traced benchmark runs.
"""

import sys
from pathlib import Path

from specsurf import projection

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
