"""Rotations: the SO(3) exponential and logarithm and their helpers.

A rotation vector is the axis-angle v = angle * axis in radians, with the
rotation right-handed about the axis; log returns angles in [0, pi].  The
left Jacobian J(v) carries an increment of v to the left increment of the
rotation, exp(v + dv) = exp(J(v) dv) exp(v) to first order, which is how
the solvers' analytic Jacobians reach their axis-angle parameters.
"""

from __future__ import annotations

import numpy as np


# row k is the flattened cross-product matrix of the k-th unit vector
_SKEW_BASIS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x, so that skew(v) @ p = v x p.

    v is one 3-vector or an (n, 3) stack, giving (3, 3) or (n, 3, 3).  One
    product with the basis builds every entry; the products are by 0 and
    +-1, so the entries are exact.
    """
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape + (3,))


def exp(v: np.ndarray) -> np.ndarray:
    """Rotation matrix of a rotation vector (Rodrigues' formula)."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        # the second-order term is below roundoff
        return np.eye(3) + skew(v)
    k = skew(v / theta)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


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
    """J with exp(v + dv) = exp(J dv) exp(v) to first order."""
    theta = float(np.linalg.norm(v))
    if theta < 1e-3:
        # series: both closed-form coefficients cancel catastrophically here
        a = 0.5 - theta * theta / 24.0
        b = 1.0 / 6.0 - theta * theta / 120.0
    else:
        a = (1.0 - np.cos(theta)) / theta**2
        b = (theta - np.sin(theta)) / theta**3
    vx = skew(v)
    return np.eye(3) + a * vx + b * (vx @ vx)


def closest_rotation(g: np.ndarray) -> np.ndarray:
    """Proper rotation nearest to g in the Frobenius norm."""
    u, _, vt = np.linalg.svd(g)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r
