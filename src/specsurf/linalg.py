"""Linear algebra on long arrays that keeps OpenBLAS's thread pool asleep.

OpenBLAS runs a LAPACK factorization of a tall matrix (SVD or QR alike) on
its thread pool, and also dot on vectors of about 11,000 elements or more
and gemv such as J.T.dot(f) on a 42,147 x 12 Jacobian.  After each such
call the pool's idle thread busy-waits for about 130 ms, so the process
burns CPU while it waits.  einsum over the same data stays on the calling
thread (0.25 ms for a 42,147-element sum of squares), as do dot and gemv
below those sizes (0.2 ms at 9,000 elements, 0.6 ms for 28,098 x 10).

The plane motions and the camera's line projection matrix are null vectors
of tall systems, which their builders hand over rows first, as every
per-triple stack in the package is: 24 x 2n and 18 x n for n triples, one
row per unknown and one column per constraint.  The R-SVD (Chan, "An
improved algorithm for computing the singular value decomposition", ACM
TOMS 1982) needs the tall matrix only to triangularise it: A = Q R has the
singular values and right singular vectors of R.  right_singular
triangularises in NumPy, and only the small k x k R goes to LAPACK: a LAPACK
factorization of the tall matrix would wake the thread pool.

The plane poses, the camera and the cross-ratio refinement are each fitted
by MINPACK's Levenberg-Marquardt (More, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978), whose loop runs no BLAS.
least_squares is the one entry point to it, and it sums squares with
einsum.  A fit hands it a model, which returns the residuals at x and a
closure that builds the Jacobian there; least_squares keeps the last x's
bytes, hands the model a copy of x (MINPACK reuses its buffer) and
answers both of MINPACK's callbacks from that one evaluation.  The
Jacobian is rows first too: n x m for n parameters and m residuals, one
row per parameter.  That is the column-major m x n matrix MINPACK stores,
so lmder takes a C-contiguous one as it is, with one memcpy.

A dense fit is the m >> n case: the plane-pose polish on a 14,049-triple
scan is 42,147 x 12, and MINPACK spent most of its time re-factoring such
Jacobians by Householder QR.  MINPACK needs the Jacobian only through
J^T J and J^T r, and the residuals only through ||r||, so a fit with at
least SQUARE_ROOT_MIN_ROWS residuals hands it a square root of the normal
equations instead (the idea of MINPACK-1's lmstr; More, Garbow & Hillstrom,
"User Guide for MINPACK-1", 1980): the residuals (0, ..., 0, ||r||) and the
(n + 1) x n Jacobian [B; h^T], with h = J^T r / ||r|| and
B^T B = J^T J - h h^T.  Its Gram is J^T J, its gradient J^T r, and
||[B; h^T] p + (0, ..., ||r||)|| = ||J p + r|| for every step p, so
MINPACK's column scaling, steps, gain ratio and stopping tests are the full
problem's in exact arithmetic.  A rejected trial costs only ||r||.  The
Gram is built with einsum and B comes from np.linalg.eigh of the n x n
matrix, so no BLAS call sees the m rows and the thread pool stays asleep.

SQUARE_ROOT_MIN_ROWS is 16,384 for two reasons.  On short fits the Gram
and the eigendecomposition cost more than the QR they save: the camera
sweeps of a 561-triple scan ran about 20 % slower in the square-root form,
while those of a 3,514-triple scan ran about 18 % faster.
And the form agrees with the QR only to roundoff, which moves the outcome
of an ill-posed fit; every fit the tests pin bit for bit, up to the
10,542-row polish of a 3,514-triple scan, keeps MINPACK's own QR.  The
dense scans' fits lie above it: 24,908 and 42,147 rows for the refine and
the polish of a 14,049-triple scan, 56,232 for a 56,232-triple scan's
camera sweep.

least_squares calls lmder in scipy's MINPACK extension directly, and this
module loads that extension on its own: importing scipy.optimize would
cost about 0.6 s per process (scipy 1.17.1 on a 2-vCPU x86_64 VM), as its
__init__ also imports scipy.linalg and scipy's array API layer, none of
which the package uses.  The loader is the one place in the package's
code that names scipy.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

# report status of each MINPACK lmder info code: 1 relative cost decrease
# below ftol, 2 and 3 relative step below xtol, 4 residuals orthogonal to
# the Jacobian to gtol, 5 out of evaluations
_MINPACK_STATUS = {1: "plateau", 2: "step", 3: "step", 4: "gradient", 5: "max_iterations"}


def _load_lmder():
    """MINPACK's lmder, from scipy.optimize's _minpack extension alone.

    find_spec("scipy.optimize") imports only the top-level scipy (about
    15 ms) and names the directory that holds the extension, which then
    loads without scipy.optimize's __init__.  The extension enters itself
    in sys.modules as it loads; unless scipy.optimize put it there first,
    that entry is dropped again, so a later import of scipy.optimize loads
    its own and binds it to the package.  Raises ImportError, naming the
    installed scipy, when the extension or its lmder is missing.
    """
    import scipy

    name = "scipy.optimize._minpack"
    registered = name in sys.modules
    package = importlib.util.find_spec("scipy.optimize")
    spec = None
    if package is not None:
        finder = FileFinder(package.submodule_search_locations[0], (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
    lmder = None
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if not registered:
            sys.modules.pop(name, None)
        lmder = getattr(module, "_lmder", None)
    if lmder is None:
        raise ImportError(f"specsurf needs MINPACK's lmder from {name}, which scipy {scipy.__version__} lacks")
    return lmder


_lmder = _load_lmder()

# least_squares hands MINPACK the (n + 1)-row square-root form of a fit with
# at least this many residuals, and the m-row Jacobian below it
SQUARE_ROOT_MIN_ROWS = 16_384


def right_singular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of the m x k system a.T.

    a holds the system rows first, k x m: row j is unknown j's coefficient
    in each of the m constraints.  Returns (s, vt) as np.linalg.svd(a.T)
    would, with s descending and the rows of vt the right singular vectors,
    except that vt is always k x k: when m < k the missing rows of R are
    zero, so the last k - m singular values vanish and the trailing rows of
    vt span the null space that the data leave free.

    The Householder sweep works on one contiguous copy of a, so each
    unknown costs one matrix-vector product and one elementwise rank-1
    update over contiguous rows.  The products are einsum's, not BLAS's:
    OpenBLAS threads dot and gemv on long vectors too, and a dense scan has
    28k constraints.
    """
    w = np.array(a, dtype=float, order="C")
    k, m = w.shape
    r = np.zeros((k, k))
    for j in range(min(m, k)):
        x = w[j, j:]
        alpha = float(np.sqrt(np.einsum("i,i", x, x)))
        if alpha > 0.0:
            # x goes to alpha e1, the sign chosen so that v = x - alpha e1
            # does not cancel; the reflector is I - v v^T / (v . x)
            if x[0] > 0.0:
                alpha = -alpha
            v = x.copy()
            v[0] -= alpha
            rest = w[j + 1 :, j:]
            vx = alpha * (alpha - x[0])
            rest -= np.multiply.outer(np.einsum("ij,j->i", rest, v) / vx, v)
        r[j, j] = alpha
        r[j, j + 1 :] = w[j + 1 :, j]
    _, s, vt = np.linalg.svd(r)
    return s, vt


def sum_squares(r: np.ndarray) -> float:
    """Sum of squares of a residual vector, off the BLAS thread pool."""
    return float(np.einsum("i,i", r, r))


def _square_root_residuals(r: np.ndarray, n: int) -> np.ndarray:
    """The n + 1 residuals (0, ..., 0, ||r||) that stand for r."""
    f = np.zeros(n + 1)
    f[n] = np.sqrt(sum_squares(r))
    return f


def _square_root_jacobian_t(jt: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Transpose of the (n + 1) x n Jacobian [B; h^T] that stands for the
    n x m rows-first Jacobian jt, J = jt.T, at residuals r.

    h = J^T r / ||r|| (zero when r is) and B^T B = J^T J - h h^T, B taken
    from the eigendecomposition of that n x n matrix, its roundoff-negative
    eigenvalues read as zero.  The products over the m rows are einsum's,
    and the Gram's upper triangle, all eigh reads, takes one matrix-vector
    product per row of jt: half the work of the full n x n einsum.
    """
    n = jt.shape[0]
    norm = np.sqrt(sum_squares(r))
    h = np.einsum("im,m->i", jt, r) / norm if norm > 0.0 else np.zeros(n)
    gram = np.zeros((n, n))
    for i in range(n):
        gram[i, i:] = np.einsum("jm,m->j", jt[i:], jt[i])
    w, v = np.linalg.eigh(gram - np.multiply.outer(h, h), UPLO="U")
    out = np.empty((n, n + 1))
    out[:, :n] = v * np.sqrt(np.maximum(w, 0.0))
    out[:, n] = h
    return out


@dataclass(frozen=True)
class LeastSquaresFit:
    """Result of least_squares.

    cost is the sum of squared residuals at x, status the reason the fit
    stopped (plateau, step, gradient or max_iterations), nfev and njev
    MINPACK's residual and Jacobian evaluation counts.
    """

    x: np.ndarray
    cost: float
    nfev: int
    njev: int
    status: str


def least_squares(model, x0, max_nfev=None, ftol=1e-12) -> LeastSquaresFit:
    """Levenberg-Marquardt fit of model(x) to zero from x0 by MINPACK's lmder.

    model(x) returns the m residuals at x and a zero-argument closure that
    builds the analytic Jacobian there, n x m for the n parameters, one row
    per parameter.  MINPACK asks for a Jacobian only at the x it has just
    evaluated, so one memo entry (x's bytes, residuals, Jacobian once
    built) answers both callbacks; comparing the bytes is exact, and
    cheaper than comparing arrays.  The model gets a copy of x: MINPACK
    reuses the buffer it passes, which would change under a Jacobian built
    later.

    lmder is called directly and given that array as it is (col_deriv 1).
    The other arguments are relative cost decrease ftol (the fit stops once
    both the actual and the predicted relative decrease of the cost over a
    step are at most ftol), relative step 1e-12,
    residual-Jacobian cosine 1e-8, at most max_nfev residual evaluations
    (100 n by default), step bound factor 100 and the parameters scaled by
    the norms of their Jacobian rows (diag None).  scipy.optimize.leastsq passed
    it the same, as does scipy.optimize.least_squares(method="lm",
    x_scale="jac", xtol=1e-12, ftol=ftol), so the iterates are the same.
    The default ftol 1e-12 runs a fit to convergence; a caller that only
    ranks or warm-starts from the result may stop it earlier.  scipy's
    least_squares also takes dot products over the full residual vector and
    gemv with the Jacobian's transpose before and after MINPACK, which on a
    dense scan wakes OpenBLAS's thread pool.  leastsq probed the residual
    and Jacobian functions once each for their shapes, inverted the R
    factor into a covariance that nothing read (a badly scaled Jacobian
    overflowed it) and built status messages.  Here the Jacobian's shape is
    checked once, at x0 and from the memo, and the rest is not done.  lmder
    writes its iterates into the x0 it is handed, a copy here.

    From SQUARE_ROOT_MIN_ROWS residuals on, lmder sees the square-root form
    the module docstring describes: n + 1 residuals (0, ..., 0, ||r||) at
    every point and, at each point whose Jacobian it asks for, the
    (n + 1) x n matrix [B; h^T] built from that Jacobian and r.  Its steps
    are the full problem's up to roundoff; on the dense scans' fits x and
    the cost agree with the full QR's to about 1e-14 relative, with the
    same nfev, njev and status.  The reported cost is the square of ||r||.

    Raises ValueError when the residuals at x0 are not finite or fewer
    than x0 has parameters, or when the Jacobian at x0 is not n x m.
    """
    last = [None]  # x's bytes, residuals, Jacobian closure, Jacobian

    def at(x):
        if x.tobytes() != last[0]:
            x = np.array(x, dtype=float)
            last[:] = [x.tobytes(), *model(x), None]
        return last

    def jac(x):
        entry = at(x)
        if entry[3] is None:
            entry[3] = entry[2]()
        return entry[3]

    x0 = np.array(x0, dtype=float)
    f0 = at(x0)[1]
    if not np.all(np.isfinite(f0)):
        raise ValueError("Residuals are not finite in the initial point.")
    if f0.size < x0.size:
        raise ValueError(
            "Method 'lm' doesn't work when the number of residuals is less than the number of variables."
        )
    shape = np.shape(jac(x0))
    if shape != (x0.size, f0.size):
        raise ValueError(f"The Jacobian at the initial point is {shape}, not ({x0.size}, {f0.size}).")
    square_root = f0.size >= SQUARE_ROOT_MIN_ROWS

    def fun(x):
        residuals = at(x)[1]
        return _square_root_residuals(residuals, x.size) if square_root else residuals

    def jac_t(x):
        return _square_root_jacobian_t(jac(x), at(x)[1]) if square_root else jac(x)

    x, info, code = _lmder(fun, jac_t, x0, (), 1, 1, ftol, 1e-12, 1e-8, max_nfev or 100 * x0.size, 100, None)
    return LeastSquaresFit(
        x, sum_squares(info["fvec"]), int(info["nfev"]), int(info["njev"]), _MINPACK_STATUS[code]
    )
