"""Recovery of the two unknown plane motions from reflection triples.

Each reflection triple gives the in-plane coordinates of one surface point's
image on the reference plane at poses 0, 1 and 2, read as the (3, 2, n)
stack CorrespondenceSet.planes: pose-major, one row per coordinate.  The
motions are a tuple of RigidPose, poses 1 and 2 relative to pose 0.  Lifted
to 3D, the three points lie on one line (the reflected ray), and pose 0 is
the world frame.  lift_triples returns them as Lifts, which fixes that line
for every stage; the pose-1 lift's offset from it is the residual the
motions are fitted by.
Eliminating the ray turns every triple into two linear constraints on a
24-vector packing products of the two unknown motions (the collinearity
constraints of Sturm & Bonfort, ACCV 2006).  The stacked system has two null
directions, and one of them is known in advance: spurious_null_vector.
Along lines parallel to it the motion-form identity is a quadratic, and
each of its real roots is factored back into rigid motions by two linear
solves.

The factorization is sign-ambiguous: flipping the plane normal direction of
both motions (a mirror twin) satisfies the same constraints with identical
residual, so the best-fitting motions are returned with their twin and
the caller disambiguates with camera-side evidence.

Degeneracy is decided by the factoring, not by a threshold on the rank gap
(which shrinks with measurement noise on healthy data): a motion the data
cannot pin down, such as pure translation, leaves no nullspace direction
that factors into rigid motions, and estimate_plane_poses raises
RankAmbiguousError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so3
from .errors import RankAmbiguousError, TooFewCorrespondencesError
from .linalg import least_squares, right_singular
from .types import CorrespondenceSet, RigidPose

MIN_TRIPLES = 12

# a factored candidate is kept when its rotation columns are unit and
# orthogonal to within this
ORTHO_TOL = 0.3

def pack_motion(motions: tuple[RigidPose, ...]) -> np.ndarray:
    """24-vector of motion products annihilated by the design matrix.

    Layout: slots 0..8 and 9..17 hold two 3x3 row-major product blocks of
    the motions, slots 18..20 the third row of [R2[:,0] R2[:,1] T2], slots
    21..23 the third row of [R1[:,0] R1[:,1] T1].
    """
    m, n = (np.column_stack([pose.rotation[:, :2], pose.translation]) for pose in motions)
    a = np.outer(n[2], m[0]) - np.outer(n[0], m[2])
    b = np.outer(n[2], m[1]) - np.outer(n[1], m[2])
    return np.concatenate([a.ravel(), b.ravel(), n[2], m[2]])


def spurious_null_vector() -> np.ndarray:
    """Structural null direction of every design matrix (slots 20 and 23)."""
    v = np.zeros(24)
    v[20] = 1.0
    v[23] = 1.0
    return v / np.sqrt(2.0)


def build_design_matrix(planes: np.ndarray) -> np.ndarray:
    """24 x 2n constraint stack, rows first: column 2i is triple i's x
    constraint and column 2i + 1 its y constraint.

    planes is the (3, 2, n) stack of in-plane coordinates at poses 0, 1, 2
    (CorrespondenceSet.planes).  Rows 20 and 23 are exact negatives by
    construction, which is what creates the structural second null
    direction.
    """
    x0, x1, x2 = planes
    n = x0.shape[1]
    if n < MIN_TRIPLES:
        raise TooFewCorrespondencesError(
            f"need at least {MIN_TRIPLES} triples, got {n}"
        )
    h1, h2 = (np.array([*x, np.ones(n)]) for x in (x1, x2))
    # e[:, i, c]: constraint c (x or y) of triple i
    e = np.zeros((24, n, 2))
    e[0:9, :, 0] = e[9:18, :, 1] = (h2[:, None] * h1).reshape(9, n)
    for c, x in enumerate(x0):
        e[18:21, :, c] = -x * h2
        e[21:24, :, c] = x * h1
    return e.reshape(24, 2 * n)


def nullspace_basis(e: np.ndarray):
    """Two least singular directions of the design matrix and the rank gap.

    The two directions span the structural direction spurious_null_vector
    and the motion pack, in some mix.  The generic system has rank 22; the
    gap ratio sigma_22/sigma_23 (1-based, descending) measures how clearly
    the data separates exactly two null directions.  It shrinks with
    measurement noise on healthy data, so it is returned for the record and
    not tested.  Raises RankAmbiguousError when sigma_22 itself vanishes
    relative to sigma_1: the nullity is above two and the ratio of two
    near-zero values is meaningless.

    The 24 x 2n stack is factored by right_singular, which runs LAPACK's
    SVD on the 24 x 24 R factor alone (see linalg).
    """
    if e.shape[1] < 2 * MIN_TRIPLES:
        raise TooFewCorrespondencesError(
            f"need at least {MIN_TRIPLES} triples, got {e.shape[1] // 2}"
        )
    s, vt = right_singular(e)
    gap = float(s[21] / s[22]) if s[22] > 0 else np.inf
    if s[21] < 1e-9 * s[0]:
        raise RankAmbiguousError(
            "more than two vanishing singular values; the data do not "
            "determine the plane motions",
            gap_ratio=gap,
        )
    return vt[22], vt[23], gap


def candidate_null_vectors(d1: np.ndarray, d2: np.ndarray) -> list[np.ndarray]:
    """Unit null directions satisfying the motion-form identity.

    The span of d1 and d2 holds the structural direction s
    (spurious_null_vector), so the pencil is taken through d, the basis
    vector least aligned with s with its s component removed.  Along
    d + beta*(e20 + e23) the cubic identity
    d18*d6*d23 - d18*d8*d21 - d20*d0*d23 + d20*d2*d21 = 0 drops to a
    quadratic in beta: s is its root at infinity, and never a candidate.
    Returns one direction per real root, so the list may be empty.
    """
    s = spurious_null_vector()
    d = min((d1, d2), key=lambda v: abs(v @ s))
    d = d - (d @ s) * s
    identity = d[18] * d[6] * d[23] - d[18] * d[8] * d[21] - d[20] * d[0] * d[23] + d[20] * d[2] * d[21]
    quadratic = [-d[0], d[18] * d[6] - d[0] * (d[20] + d[23]) + d[2] * d[21], identity]
    out: list[np.ndarray] = []
    for beta in np.roots(quadratic):
        if abs(beta.imag) < 1e-8 * (1.0 + abs(beta.real)):
            v = d + beta.real * np.sqrt(2.0) * s
            out.append(v / np.linalg.norm(v))
    return out


def _factor_null_vector(d: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Factor a motion-form 24-vector into row matrices.

    Returns (m, n), 3x3 matrices whose columns are the first two rotation
    columns and the translation of motions 1 and 2, with the third rows
    scaled by +alpha; -alpha gives the mirror twin (see _mirror_twin).
    None when the vector does not pin the motions down or the scale
    constraint has no positive solution.

    With m3 = d[21:24] and n3 = d[18:21] the third rows up to a scale
    alpha, the blocks d[0:9] and d[9:18] are linear in the first and second
    rows: n3 m1^T - n1 m3^T and n3 m2^T - n2 m3^T.  Their min-norm solution
    leaves out a family (m1, n1) + lam1 (m3, n3), (m2, n2) + lam2 (m3, n3).
    Unit and orthogonal rotation columns are then linear in
    (u, lam1, lam2), u = lam1^2 + lam2^2 + alpha^2.
    """
    d = d / np.linalg.norm(d)
    # x/y slots of both third rows vanishing means both motions keep the
    # plane parallel to the reference pose (pure translation), the third
    # rows vanish altogether, or d is the structural null direction; the
    # scale constraints cannot pin the family down in any of these
    if np.max(np.abs(d[[18, 19, 21, 22]])) < 1e-6:
        return None
    n3 = d[18:21]
    m3 = d[21:24]
    blocks = np.hstack([np.kron(n3[:, None], np.eye(3)), -np.kron(np.eye(3), m3[:, None])])
    sol, *_ = np.linalg.lstsq(blocks, np.column_stack([d[0:9], d[9:18]]), rcond=None)
    (m1, m2), (n1, n2) = sol[:3].T, sol[3:].T

    # entries of the four rotation columns (motion 1 then motion 2): first
    # row a, second row b, third row c before the scale; column p . column q
    # is 1 for the four unit columns and 0 for each motion's pair
    a = np.concatenate([m1[:2], n1[:2]])
    b = np.concatenate([m2[:2], n2[:2]])
    c = np.concatenate([m3[:2], n3[:2]])
    p, q = np.array([0, 1, 2, 3, 0, 2]), np.array([0, 1, 2, 3, 1, 3])
    rows = np.column_stack([c[p] * c[q], a[p] * c[q] + a[q] * c[p], b[p] * c[q] + b[q] * c[p]])
    rhs = (p == q) - a[p] * a[q] - b[p] * b[q]
    # unit-norm rows weigh the six constraints alike
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 1e-14 * norms.max()
    w = norms[keep]
    (u, lam1, lam2), *_ = np.linalg.lstsq(rows[keep] / w[:, None], rhs[keep] / w, rcond=None)
    alpha2 = u - lam1**2 - lam2**2
    if not alpha2 > 0:
        return None
    alpha = np.sqrt(alpha2)
    m = np.vstack([m1 + lam1 * m3, m2 + lam2 * m3, alpha * m3])
    n = np.vstack([n1 + lam1 * n3, n2 + lam2 * n3, alpha * n3])
    return m, n


def _rows_to_motions(*rows: np.ndarray) -> tuple[RigidPose, ...] | None:
    """Build the motions from row matrices, or None when far from rigid."""
    poses = []
    for mat in rows:
        c1 = mat[:, 0]
        c2 = mat[:, 1]
        for col in (c1, c2):
            if abs(np.linalg.norm(col) - 1.0) > ORTHO_TOL:
                return None
        if abs(c1 @ c2) > ORTHO_TOL:
            return None
        frame = np.column_stack([c1, c2, so3.cross(c1, c2)])
        poses.append(RigidPose(so3.closest_rotation(frame), mat[:, 2]))
    return tuple(poses)


# the diagonal of S = diag(1, 1, -1), the reflection in the reference plane
_MIRROR = np.array([1.0, 1.0, -1.0])


def _mirror_twin(motions: tuple[RigidPose, ...]) -> tuple[RigidPose, ...]:
    """The motions reflected in the reference plane: (S R S, S t) each.

    The lifts of every triple reflect with them (the pose-0 lifts lie in
    the plane), so each offset only changes sign in its components and the
    line-offset residual stays the same to the bit.
    """
    return tuple(RigidPose(_MIRROR[:, None] * p.rotation * _MIRROR, _MIRROR * p.translation) for p in motions)


# lifted pose-0/pose-2 points closer than this carry no line direction
MIN_LIFT_SEPARATION_MM = 1.0


@dataclass(frozen=True)
class Lifts:
    """Lifted points of every triple and the line every stage reads.

    The line runs through the pose-0 and pose-2 lifts, the widest
    separation; this is the one place that choice is made.  length is
    |p2 - p0|, unit the direction from p0 toward p2 and along the signed
    coordinate of p1 from p2 toward p0; a zero length divides by 1.

    Rows first: p0, p1, p2 and unit are (3, n), length and along (n,), so
    every per-triple product runs over long contiguous rows, not along a
    length-3 axis.
    """

    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    length: np.ndarray
    unit: np.ndarray
    along: np.ndarray

    @classmethod
    def of(cls, p0, p1, p2) -> "Lifts":
        base = p2 - p0
        length = np.linalg.norm(base, axis=0)
        safe = np.where(length > 0, length, 1.0)
        along = np.einsum("ij,ij->j", p2 - p1, base) / safe
        return cls(p0, p1, p2, length, base / safe, along)

    def offset(self) -> np.ndarray:
        """Offset of each p1 from its line, (p1 - p0) x unit, (3, n)."""
        return so3.cross(self.p1 - self.p0, self.unit)


def lift_triples(motions: tuple[RigidPose, ...], planes: np.ndarray) -> Lifts:
    """Lifts of each triple under the candidate motions (pose-0 frame).

    motions holds one RigidPose per pose after pose 0 and planes is the
    (3, 2, n) stack of CorrespondenceSet.planes; a count that does not
    match raises ValueError.  A plane point (x, y, 0) lifts to
    R[:, 0] x + R[:, 1] y + t, one contraction over the rows.
    """
    x0 = planes[0]
    lifted = (
        np.einsum("ij,jn->in", pose.rotation[:, :2], x) + pose.translation[:, None]
        for pose, x in zip(motions, planes[1:], strict=True)
    )
    return Lifts.of(np.array([*x0, np.zeros(x0.shape[1])]), *lifted)


def line_offset_residual(motions: tuple[RigidPose, ...], planes: np.ndarray) -> float:
    """RMS distance of each lifted pose-1 point from its pose-0/pose-2 line.

    Same units as the plane coordinates.  This is the quantity the
    geometric polish minimizes, so candidate ranking uses it as well.
    """
    lifts = lift_triples(motions, planes)
    good = lifts.length > 1e-12
    if not np.any(good):
        return np.inf
    return float(np.sqrt(np.mean(np.sum(lifts.offset()[:, good] ** 2, axis=0))))


def _polish_objective(motions: tuple[RigidPose, ...], planes: np.ndarray):
    """Line-offset residuals of the polish and their Jacobian, in closed form.

    Returns the least_squares model over x = (w1, t1, w2, t2), the motions
    R_i = exp(w_i) R_i^0 with translations t_i, R_i^0 the rotations of
    motions.

    The residual is r = v x u with v = p1 - p0 and u = (p2 - p0) / L the
    line's unit direction.  A move dp1 changes it by dp1 x u and a move dp2
    by (v x dp2 - (u . dp2) r) / L, as du = (I - u u^T) dp2 / L.  The
    translations move p_i by themselves, and a left increment J(w_i) dw of
    R_i moves p_i by (J(w_i) dw) x q_i, q_i = p_i - t_i.  With
    (a x q) x u = q (a . u) - a (q . u) and v x (a x q) = a (v . q) - q (v . a)
    for a column a of J(w_i), each rotation column is a sum of stacks
    scaled by per-triple dot products, and no 3 x 3 matrix per triple is
    multiplied.

    The Jacobian is filled as its 12 x 3n transpose, one row per parameter,
    and handed over as that array's .T, column-major, which least_squares
    passes to MINPACK without a transposing copy.  The products over the
    triples are einsums and elementwise: a matmul on a long stack wakes
    OpenBLAS's threads.
    """

    def model(x):
        steps = x.reshape(-1, 2, 3)
        (w1, t1), (w2, t2) = steps
        cur = tuple(RigidPose(so3.exp(w) @ p.rotation, t) for (w, t), p in zip(steps, motions, strict=True))
        lifts = lift_triples(cur, planes)
        good = lifts.length > 1e-12
        res = lifts.offset()
        res[:, ~good] = 0.0

        def jacobian():
            u = lifts.unit
            v = lifts.p1 - lifts.p0
            q1 = lifts.p1 - t1[:, None]
            q2 = lifts.p2 - t2[:, None]
            inv = 1.0 / np.where(good, lifts.length, 1.0)
            j1 = so3.left_jacobian(w1)
            j2 = so3.left_jacobian(w2)
            # jt[k, c, i]: derivative of component c of triple i's offset
            jt = np.empty((12, 3, u.shape[1]))
            jt[0:3] = q1 * np.einsum("ai,ak->ki", u, j1)[:, None]
            jt[0:3] -= np.einsum("i,ck->kci", np.einsum("ai,ai->i", q1, u), j1)
            # transposed blocks, [a]x^T = -[a]x: dp1 x u gives [u]x, v x dp2 -[v]x
            jt[3:6] = so3.skew(u)
            jt[6:9] = np.einsum("i,ck->kci", np.einsum("ai,ai->i", v, q2), j2)
            jt[6:9] -= q2 * np.einsum("ai,ak->ki", v, j2)[:, None]
            jt[6:9] -= res * np.einsum("ai,ak->ki", so3.cross(q2, u), j2)[:, None]
            jt[9:12] = -so3.skew(v) - u[:, None] * res
            jt[6:12] *= inv
            jt[..., ~good] = 0.0
            return jt.reshape(12, -1).T

        return res.reshape(-1), jacobian

    return model


def refine_plane_poses(motions: tuple[RigidPose, ...], planes: np.ndarray) -> tuple[RigidPose, ...]:
    """Levenberg-Marquardt polish of the motions on the geometric residual.

    The residual per triple is the offset of the lifted pose-1 point from
    the line through the lifted pose-0 and pose-2 points (the longest
    baseline), which the algebraic nullspace solution only minimizes in a
    weighted algebraic sense.  Twelve parameters: a rotation vector w_i
    with R_i = exp(w_i) R_i^0 and the translation of each motion, solved by
    MINPACK's Levenberg-Marquardt (linalg.least_squares) on the analytic
    Jacobian of _polish_objective.  The three components of each offset
    make 42k residuals on a dense scan; least_squares keeps their products
    off OpenBLAS's thread pool.
    """
    start = np.concatenate([part for p in motions for part in (np.zeros(3), p.translation)])
    fit = least_squares(_polish_objective(motions, planes), start)
    return tuple(
        RigidPose(so3.closest_rotation(so3.exp(w) @ p.rotation), t)
        for (w, t), p in zip(fit.x.reshape(-1, 2, 3), motions, strict=True)
    )


@dataclass(frozen=True)
class PoseSolution:
    """The polished plane motions and their mirror twin; the twin whose
    pose 2 moves toward +z comes first."""

    candidates: tuple[tuple[RigidPose, ...], ...]
    residual: float  # RMS line offset, mm, which the twins share to the bit
    gap_ratio: float


def estimate_plane_poses(data: CorrespondenceSet) -> PoseSolution:
    """Recover the two plane motions from a correspondence set.

    Each candidate direction of the nullspace pencil is factored once into
    the motions.  Their mirror twin (plane normal flipped) fits the data
    identically: it is the motions reflected in the reference plane,
    (S R S, S t) with S = diag(1, 1, -1), and so is every step of a polish
    started from it.  The motions with the lowest line-offset residual are
    polished by refine_plane_poses, and the candidates are they and their
    reflection, always two.  Both twins are returned because only
    camera-side reasoning can tell them apart.  The twin whose pose 2 moves
    toward +z (pose 1, when pose 2 keeps z) comes first: the reflection
    flips both, so neither the row order nor an SVD sign sets the order.

    Raises RankAmbiguousError, carrying the rank gap, when no nullspace
    direction factors into rigid motions: the data do not determine them
    (e.g. pure translation).  It raises it without one when the plane
    coordinates have no scale: all zero, or so large that their squares
    overflow.
    """
    # the (n, 2) points of poses 0, 1 and 2 in turn, row-major: the order
    # of the sum fixes the scale to the last bit
    coords = data.planes.transpose(0, 2, 1).ravel()
    scale = float(np.sqrt(np.mean(coords**2)))
    if not 0.0 < scale < np.inf:
        raise RankAmbiguousError("the data do not determine the plane motions")
    planes = data.planes / scale

    d1, d2, gap = nullspace_basis(build_design_matrix(planes))
    factored = []
    for d in candidate_null_vectors(d1, d2):
        rows = _factor_null_vector(d)
        motions = _rows_to_motions(*rows) if rows is not None else None
        if motions is not None:
            factored.append(motions)
    if not factored:
        raise RankAmbiguousError(
            "no nullspace direction factors into rigid motions; the plane "
            "motions are degenerate",
            gap_ratio=gap,
        )

    # geometric polish of the best motions; the reflection carries the
    # residual and the polish to their twin
    best = min(factored, key=lambda m: line_offset_residual(m, planes))
    best = refine_plane_poses(best, planes)
    residual = scale * line_offset_residual(best, planes)
    twins = (best, _mirror_twin(best))
    if (best[1].translation[2] or best[0].translation[2]) < 0:
        twins = twins[::-1]
    candidates = tuple(tuple(RigidPose(p.rotation, scale * p.translation) for p in twin) for twin in twins)
    return PoseSolution(candidates=candidates, residual=residual, gap_ratio=gap)
