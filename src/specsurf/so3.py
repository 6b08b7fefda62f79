"""Rotations: the SO(3) exponential and logarithm and their helpers.

A rotation vector is the axis-angle v = angle * axis in radians, with the
rotation right-handed about the axis; log returns angles in [0, pi].  The
left Jacobian J(v) carries an increment of v to the left increment of the
rotation, exp(v + dv) = exp(J(v) dv) exp(v) to first order, which is how
the solvers' analytic Jacobians reach their axis-angle parameters.  The
cross-product helpers skew and cross take 3-vectors or (3, n) column
stacks, the layout of the package's per-triple stacks.
"""

from __future__ import annotations

import math

import numpy as np


# flat positions in a 3x3 cross-product matrix of +v[k] and of -v[k]
_SKEW_PLUS = [7, 2, 3]
_SKEW_MINUS = [5, 6, 1]


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x, so that skew(v) @ p = v x p.

    v is one 3-vector or a (3, n) column stack, giving (3, 3) or
    (3, 3, n), the matrix of column i in [:, :, i].  The entries are
    placed, not multiplied: a product with a basis would be a gemm that
    wakes OpenBLAS's thread pool on a long stack.
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros((9,) + v.shape[1:])
    out[_SKEW_PLUS] = v
    out[_SKEW_MINUS] = -v
    return out.reshape((3, 3) + v.shape[1:])


def cross(p, q) -> np.ndarray:
    """p x q by components, for 3-vectors, (3, n) column stacks or one of
    each: np.cross(p, q, axis=0) bit for bit, without the axis moves that
    cost np.cross more than the arithmetic on short stacks."""
    return np.array(
        [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]
    )


def _rodrigues(v, a: float, b: float) -> np.ndarray:
    """I + a [v]x + b [v]x^2 for one 3-vector, entry by entry.

    [v]x^2 = v v^T - |v|^2 I, so each entry is a few scalar products; the
    nine come from floats and math, not from 3 x 3 array arithmetic, whose
    per-call overhead dwarfs the flops.
    """
    x, y, z = v
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    ax, ay, az = a * x, a * y, a * z
    return np.array(
        [
            [1.0 - b * (y * y + z * z), bxy - az, bxz + ay],
            [bxy + az, 1.0 - b * (x * x + z * z), byz - ax],
            [bxz - ay, byz + ax, 1.0 - b * (x * x + y * y)],
        ]
    )


def exp(v: np.ndarray) -> np.ndarray:
    """Rotation matrix of a rotation vector (Rodrigues' formula).

    exp(v) = I + (sin t / t) [v]x + ((1 - cos t) / t^2) [v]x^2 with t = |v|,
    and 1 - cos t = 2 sin^2(t / 2), which does not cancel at small t.
    """
    v = np.asarray(v, dtype=float).tolist()
    theta = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if theta < 1e-12:
        # the second-order term is below roundoff
        return _rodrigues(v, 1.0, 0.0)
    half = math.sin(0.5 * theta) / theta
    return _rodrigues(v, math.sin(theta) / theta, 2.0 * half * half)


def log(r: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix, angle in [0, pi].

    The antisymmetric part of r is 2 sin(angle) [axis]x and its trace
    1 + 2 cos(angle).  The sine vanishes at a half turn and takes the axis
    with it, so past a quarter turn the axis comes from the symmetric part,
    (r + r^T - 2 cos(angle) I) / (2 - 2 cos(angle)) = axis axis^T, with its
    sign from the antisymmetric part.
    """
    r = np.asarray(r, dtype=float)
    twice_sin = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    s = np.linalg.norm(twice_sin)
    twice_cos = np.trace(r) - 1.0
    theta = np.arctan2(s, twice_cos)
    if twice_cos >= 0.0:
        return twice_sin * (theta / s) if s > 0.0 else np.zeros(3)
    outer = (r + r.T - twice_cos * np.eye(3)) / (2.0 - twice_cos)
    j = int(np.argmax(np.diag(outer)))
    axis = outer[j] / np.sqrt(outer[j, j])
    return theta * axis if axis @ twice_sin >= 0.0 else -theta * axis


def left_jacobian(v: np.ndarray) -> np.ndarray:
    """J with exp(v + dv) = exp(J dv) exp(v) to first order.

    J = I + ((1 - cos t) / t^2) [v]x + ((t - sin t) / t^3) [v]x^2 with
    t = |v|, the first coefficient taken as 2 (sin(t / 2) / t)^2 as in exp.
    """
    v = np.asarray(v, dtype=float).tolist()
    t2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    theta = math.sqrt(t2)
    if theta < 1e-3:
        # series: the second coefficient cancels catastrophically here
        return _rodrigues(v, 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0)
    half = math.sin(0.5 * theta) / theta
    return _rodrigues(v, 2.0 * half * half, (theta - math.sin(theta)) / (t2 * theta))


def closest_rotation(g: np.ndarray) -> np.ndarray:
    """Proper rotation nearest to g in the Frobenius norm."""
    u, _, vt = np.linalg.svd(g)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r
