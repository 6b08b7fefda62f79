"""Line coordinates and the line projection matrix, in (moment, direction) blocks.

A 3D line through Cartesian points a and b is stored as the 6-vector

    L = [v; w] = [a x b; a - b]

its moment v followed by its direction w.  A genuine line satisfies
v . w = 0, and L is defined up to a nonzero scale.

A camera P = [Q | t] maps the two points to Q a + t and Q b + t, and the
image line through them is their cross product

    (Q a + t) x (Q b + t) = cof(Q) v - [t]x Q w,

with cof(Q) the cofactor matrix (rows q1 x q2, q2 x q0, q0 x q1 for the
rows q_i of Q), which carries cross products: (Q a) x (Q b) = cof(Q)(a x b).
So the 3x6 line projection matrix of P is the block matrix

    M = [cof(Q) | -[t]x Q],

and the image line of L is M @ L (Hartley & Zisserman, Multiple View
Geometry, sec. 8.2).  M is quadratic in P: P and -P give the same M, so a
line matrix carries no sign, and scaling P by s scales M by s^2.  For
M = [A | B] = M(P), cof(A) = det(Q) Q and the rows a_i, b_i of A and B give
(b1 . a2, -b0 . a2, b0 . a1) = det(Q) t, which converts M back to the point
camera det(Q) P.

A stack of n lines is (6, n), one line per column, built from (3, n)
point stacks; M maps it to its (3, n) image lines in one product.
"""

from __future__ import annotations

import numpy as np

from . import so3
from .errors import RankDeficientError


def _cofactor(q: np.ndarray) -> np.ndarray:
    """Cofactor matrix of a 3x3 matrix: rows q1 x q2, q2 x q0, q0 x q1."""
    return np.cross(q[[1, 2, 0]], q[[2, 0, 1]])


def lines_from_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lines [a x b; a - b] through Cartesian points a and b, 3-vectors or
    (3, n) column stacks, as one 6-vector or a (6, n) stack.  No
    coincidence check; callers batching noisy data filter separately.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.concatenate([so3.cross(a, b), a - b])


def point_to_line_matrix(p: np.ndarray) -> np.ndarray:
    """The 3x6 line projection matrix [cof(Q) | -[t]x Q] of P = [Q | t].

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
    q, t = p[:, :3], p[:, 3]
    # Q's columns crossed with t make -[t]x Q
    return np.hstack([_cofactor(q), so3.cross(q, t)])


def line_to_point_matrix(line_matrix: np.ndarray) -> np.ndarray:
    """The point camera [cof(A) | (b1 . a2, -b0 . a2, b0 . a1)] of M = [A | B].

    For M = M(P) this is det(Q) P.  The matrix is not checked for validity,
    so an almost-valid one, such as a least-squares solution, converts on a
    best-effort basis.
    """
    lm = np.asarray(line_matrix, dtype=float)
    if lm.shape != (3, 6):
        raise ValueError("expected a 3x6 matrix")
    a, b = lm[:, :3], lm[:, 3:]
    t = np.array([b[1] @ a[2], -(b[0] @ a[2]), b[0] @ a[1]])
    return np.hstack([_cofactor(a), t[:, None]])
