"""Line geometry on 6-component line coordinates.

A 3D line through Cartesian points ``a`` and ``b`` is stored as the 6-vector

    L = (l1, l2, l3, l4, l5, l6)
      = (a1*b2 - a2*b1,
         a1*b3 - a3*b1,
         a1 - b1,
         a2*b3 - a3*b2,
         a3 - b3,
         b2 - a2)

so that its direction and moment are recovered by fixed index patterns:

    direction  w = a - b     = ( l3, -l6,  l5)
    moment     v = a x b     = ( l4, -l2,  l1)

Two lines are coplanar (meet or are parallel) exactly when the reciprocal
product w.v' + v.w' vanishes; a single line always satisfies w.v = 0, i.e.
l1*l5 + l2*l6 + l3*l4 = 0.

A 3x4 point projection matrix P maps homogeneous points to pixels; the
matching 3x6 line projection matrix maps *dual* line vectors to homogeneous
image lines.  Rows of the line matrix are themselves lines (the pairwise
intersections of the planes encoded by the rows of P), which yields the
closed-form conversions implemented here.  A genuine line projection matrix
satisfies  LP @ dual_rows(LP).T == 0  (each row meets itself and the others).
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentPointsError, DegenerateProjectionError, RankDeficientError

# dual(): element reordering (l5, l6, l4, l3, l1, l2), as an index array
_DUAL_IDX = np.array([4, 5, 3, 2, 0, 1])

# row i of the 3x6 matrix is built from rows j, k of the 3x4 matrix
# (and vice versa), with an alternating sign
_ROW_PAIRS = ((1, 2, 1.0), (0, 2, -1.0), (0, 1, 1.0))


def line_from_points(a, b) -> np.ndarray:
    """Return the 6-vector of the line through Cartesian points a and b.

    Parameters
    ----------
    a, b : array-like, shape (3,)
        Distinct 3D points in mm.

    Returns
    -------
    ndarray, shape (6,)
        Line coordinates with direction a - b and moment a x b.

    Raises
    ------
    CoincidentPointsError
        If the points are closer than 1e-9 mm.
    """
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    d = a - b
    if float(d @ d) <= 1e-18:
        raise CoincidentPointsError("line_from_points: points coincide")
    return np.array(
        [
            a[0] * b[1] - a[1] * b[0],
            a[0] * b[2] - a[2] * b[0],
            d[0],
            a[1] * b[2] - a[2] * b[1],
            d[2],
            -d[1],
        ]
    )


def lines_from_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized line_from_points for stacks of shape (n, 3).

    No coincidence check; callers batching noisy data filter separately.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a - b
    out = np.empty(a.shape[:-1] + (6,))
    out[..., 0] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    out[..., 1] = a[..., 0] * b[..., 2] - a[..., 2] * b[..., 0]
    out[..., 2] = d[..., 0]
    out[..., 3] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 4] = d[..., 2]
    out[..., 5] = -d[..., 1]
    return out


def direction_of(line: np.ndarray) -> np.ndarray:
    """Direction vector w = (l3, -l6, l5); works on stacks (..., 6)."""
    line = np.asarray(line, dtype=float)
    return np.stack(
        [line[..., 2], -line[..., 5], line[..., 4]], axis=-1
    )


def moment_of(line: np.ndarray) -> np.ndarray:
    """Moment vector v = (l4, -l2, l1); works on stacks (..., 6)."""
    line = np.asarray(line, dtype=float)
    return np.stack(
        [line[..., 3], -line[..., 1], line[..., 0]], axis=-1
    )


def rescale_lines(lines: np.ndarray, rho: float) -> np.ndarray:
    """Unit line coordinates of the lines with every point divided by rho.

    The moment a x b (slots 0, 1, 3) is divided by rho^2 and the direction
    a - b (slots 2, 4, 5) by rho; works on stacks of shape (n, 6).
    """
    out = np.array(lines, dtype=float)
    out[:, [0, 1, 3]] /= rho * rho
    out[:, [2, 4, 5]] /= rho
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def dual(line: np.ndarray) -> np.ndarray:
    """Reorder (l1..l6) -> (l5, l6, l4, l3, l1, l2); an involution."""
    return np.asarray(line, dtype=float)[..., _DUAL_IDX]


def self_intersection(line: np.ndarray) -> float | np.ndarray:
    """l1*l5 + l2*l6 + l3*l4, identically zero for genuine lines."""
    line = np.asarray(line, dtype=float)
    s = (
        line[..., 0] * line[..., 4]
        + line[..., 1] * line[..., 5]
        + line[..., 2] * line[..., 3]
    )
    return float(s) if s.ndim == 0 else s


def reciprocal_product(l1: np.ndarray, l2: np.ndarray) -> float | np.ndarray:
    """w1.v2 + v1.w2; zero iff the two lines are coplanar."""
    s = np.sum(
        direction_of(l1) * moment_of(l2) + moment_of(l1) * direction_of(l2),
        axis=-1,
    )
    return float(s) if np.ndim(s) == 0 else s


def project_line(line_matrix: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Project a 3D line to a homogeneous 2D image line.

    Parameters
    ----------
    line_matrix : ndarray, shape (3, 6)
    line : ndarray, shape (6,)

    Returns
    -------
    ndarray, shape (3,)
        Homogeneous image line (a, b, c): pixels (u, v) on the line satisfy
        a*u + b*v + c = 0.

    Raises
    ------
    DegenerateProjectionError
        If the line passes through the optical center (projects to a point).
    """
    line_matrix = np.asarray(line_matrix, dtype=float)
    line = np.asarray(line, dtype=float)
    out = line_matrix @ dual(line)
    scale = np.linalg.norm(line_matrix) * np.linalg.norm(line)
    if np.linalg.norm(out) < 1e-12 * scale:
        raise DegenerateProjectionError(
            "project_line: line passes through the optical center"
        )
    return out


def point_to_line_matrix(p: np.ndarray) -> np.ndarray:
    """Convert a 3x4 point projection matrix to its 3x6 line counterpart.

    Row i of the result is the (signed) pairwise-minor 6-vector built from
    rows j, k of P: each entry is a 2x2 minor of the stacked 2x4 block, laid
    out in the storage order documented at module top.

    Raises
    ------
    RankDeficientError
        If P does not have rank 3.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3, 4):
        raise ValueError("expected a 3x4 matrix")
    sv = np.linalg.svd(p, compute_uv=False)
    if sv[2] < 1e-10 * sv[0]:
        raise RankDeficientError("point_to_line_matrix: input rank < 3")
    out = np.empty((3, 6))
    for i, (j, k, sign) in enumerate(_ROW_PAIRS):
        pj, pk = p[j], p[k]
        out[i] = sign * np.array(
            [
                pj[2] * pk[3] - pj[3] * pk[2],
                pj[3] * pk[1] - pj[1] * pk[3],
                pj[1] * pk[2] - pj[2] * pk[1],
                pj[0] * pk[3] - pj[3] * pk[0],
                pj[0] * pk[1] - pj[1] * pk[0],
                pj[0] * pk[2] - pj[2] * pk[0],
            ]
        )
    return out


def line_to_point_matrix(line_matrix: np.ndarray) -> np.ndarray:
    """Convert a 3x6 line projection matrix back to 3x4 point form.

    Row i of the result is the homogeneous plane spanned by the lines in
    rows j, k:  sign * [w_j x w_k ; v_j . w_k].  The matrix is not checked
    for validity (see line_matrix_validity), so an almost-valid one, such as
    a least-squares solution, converts on a best-effort basis.
    """
    lm = np.asarray(line_matrix, dtype=float)
    if lm.shape != (3, 6):
        raise ValueError("expected a 3x6 matrix")
    out = np.empty((3, 4))
    for i, (j, k, sign) in enumerate(_ROW_PAIRS):
        rj, rk = lm[j], lm[k]
        out[i] = sign * np.array(
            [
                rj[4] * rk[5] - rj[5] * rk[4],
                rj[4] * rk[2] - rj[2] * rk[4],
                rj[5] * rk[2] - rj[2] * rk[5],
                rj[3] * rk[2] + rj[1] * rk[5] + rj[0] * rk[4],
            ]
        )
    return out


def line_matrix_validity(line_matrix: np.ndarray) -> float:
    """Relative residual of LP @ dual_rows(LP).T, zero for valid matrices."""
    lm = np.asarray(line_matrix, dtype=float)
    gram = lm @ dual(lm).T
    denom = float(np.sum(lm * lm))
    if denom == 0.0:
        return float("inf")
    return float(np.linalg.norm(gram) / denom)


def normalize_projective(arr: np.ndarray) -> np.ndarray:
    """Scale to unit Frobenius norm with a canonical sign.

    The sign is chosen so the first entry with magnitude > 1e-12 of the
    flattened array is positive, making solver outputs (defined only up to
    scale) comparable across runs.
    """
    arr = np.asarray(arr, dtype=float)
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero array")
    out = arr / norm
    flat = out.ravel()
    nz = np.nonzero(np.abs(flat) > 1e-12)[0]
    if nz.size and flat[nz[0]] < 0:
        out = -out
    return out
