"""What a fresh process imports: the solvers load scipy's MINPACK extension
alone, not scipy.optimize (with scipy.linalg about 0.6 s on a 2-vCPU
x86_64 VM), and the simulator no scipy at all.  Each case runs in its
own interpreter, as the test process has long imported scipy.optimize."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run(code: str):
    """The JSON that code prints on its last line, run in a fresh interpreter
    with the package's src on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_solvers_leave_scipy_optimize_and_linalg_unimported():
    loaded = run(
        "import json, sys\n"
        "import specsurf.plane_pose, specsurf.projection, specsurf.crossratio\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.linalg')))))"
    )
    assert loaded == []


def test_simulator_imports_no_scipy():
    loaded = run(
        "import json, sys\n"
        "import specsurf.sim\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    assert loaded == []


TOY_FIT = """
import json
import numpy as np
{before}
from specsurf.linalg import least_squares
{after}
t = np.linspace(0.0, 4.0, 50)

def model(x):
    e = np.exp(-x[1] * t)
    return x[0] * e - 3.0 * np.exp(-0.7 * t), lambda: np.stack([e, -x[0] * t * e])

fit = least_squares(model, np.array([1.0, 0.1]))
print(json.dumps([fit.x.tobytes().hex(), fit.nfev, fit.njev, hasattr(scipy.optimize, "_minpack")]))
"""


def test_fit_independent_of_scipy_optimize_import_order():
    # imported first, scipy.optimize shares its extension with the package;
    # imported second, it loads its own and binds it to the package
    before = run(TOY_FIT.format(before="import scipy.optimize", after=""))
    after = run(TOY_FIT.format(before="", after="import scipy.optimize"))
    assert before == after
    assert after[3] is True
