"""Right singular vectors of tall matrices, factored through their R factor.

The plane motions and the camera's line projection matrix are null vectors
of tall systems: 2n x 24 and n x 18 for n triples.  A LAPACK factorization
of such a matrix (SVD or QR alike) runs on OpenBLAS's thread pool, whose
idle thread then busy-waits for about 130 ms after each call, so the
process burns CPU while it waits.  The R-SVD (Chan, "An improved algorithm
for computing the singular value decomposition", ACM TOMS 1982) needs the
tall matrix only to triangularise it: A = Q R has the singular values and
right singular vectors of R.  Here the triangularisation is Householder's,
in NumPy, and only the small k x k R goes to LAPACK.
"""

from __future__ import annotations

import numpy as np


def right_singular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of an m x k matrix.

    Returns (s, vt) as np.linalg.svd(a) would, with s descending and the
    rows of vt the right singular vectors, except that vt is always k x k:
    when m < k the missing rows of R are zero, so the last k - m singular
    values vanish and the trailing rows of vt span the null space that the
    data leave free.

    The Householder sweep works on a contiguous transposed copy, one row
    per column of a, so each column costs one matrix-vector product and
    one elementwise rank-1 update over contiguous rows.  The products are
    einsum's, not BLAS's: OpenBLAS threads dot and gemv on long vectors
    too, and a dense scan has 28k rows.
    """
    a = np.asarray(a, dtype=float)
    m, k = a.shape
    w = np.array(a.T, order="C")
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
