"""Recovery of the two unknown plane motions from reflection triples.

Each reflection triple gives the in-plane coordinates of one surface point's
image on the reference plane at poses 0, 1 and 2.  Lifted to 3D, the three
points lie on one line (the reflected ray), and pose 0 is the world frame.
lift_triples returns them as Lifts, which fixes that line for every stage;
the pose-1 lift's offset from it is the residual the motions are fitted by.
Eliminating the ray turns every triple into two linear constraints on a
24-vector packing products of the two unknown motions; the vector is found
in the nullspace of the stacked system and factored back into rigid motions.

The factorization is sign-ambiguous: flipping the plane normal direction of
both motions (a mirror twin) satisfies the same constraints with identical
residual, so candidates are returned ranked and the caller disambiguates
with camera-side evidence.

Degeneracy is decided by the factoring, not by a threshold on the rank gap
(which shrinks with measurement noise on healthy data): a motion the data
cannot pin down, such as pure translation, leaves no nullspace direction
that factors into a rigid pair, and estimate_plane_poses raises
RankAmbiguousError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from . import so3
from .errors import NoValidCandidateError, RankAmbiguousError, TooFewCorrespondencesError
from .linalg import right_singular
from .types import CorrespondenceSet, PlanePosePair, RigidPose

MIN_TRIPLES = 12

# a factored candidate is kept when its rotation columns are unit and
# orthogonal to within this
ORTHO_TOL = 0.3
# candidates kept after ranking by line-offset residual
MAX_CANDIDATES = 8

# cubic terms of the motion-form identity: slot indices (0-based) and sign
_CUBIC_TERMS = ((18, 6, 23, 1.0), (18, 8, 21, -1.0), (20, 0, 23, -1.0), (20, 2, 21, 1.0))


def pack_motion(pose1: RigidPose, pose2: RigidPose) -> np.ndarray:
    """24-vector of motion products annihilated by the design matrix.

    Layout: slots 0..8 and 9..17 hold two 3x3 row-major product blocks of
    the motions, slots 18..20 the third row of [R2[:,0] R2[:,1] T2], slots
    21..23 the third row of [R1[:,0] R1[:,1] T1].
    """
    m = np.column_stack([pose1.rotation[:, 0], pose1.rotation[:, 1], pose1.translation])
    n = np.column_stack([pose2.rotation[:, 0], pose2.rotation[:, 1], pose2.translation])
    a = np.outer(n[2], m[0]) - np.outer(n[0], m[2])
    b = np.outer(n[2], m[1]) - np.outer(n[1], m[2])
    return np.concatenate([a.ravel(), b.ravel(), n[2], m[2]])


def spurious_null_vector() -> np.ndarray:
    """Structural null direction of every design matrix (slots 20 and 23)."""
    v = np.zeros(24)
    v[20] = 1.0
    v[23] = 1.0
    return v / np.sqrt(2.0)


def build_design_matrix(x0, x1, x2) -> np.ndarray:
    """Stack two 24-column constraint rows per triple.

    x0, x1, x2 are (n,2) in-plane coordinates at poses 0, 1, 2.  Columns 20
    and 23 are exact negatives by construction, which is what creates the
    structural second null direction.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    n = len(x0)
    if n < MIN_TRIPLES:
        raise TooFewCorrespondencesError(
            f"need at least {MIN_TRIPLES} triples, got {n}"
        )
    ones = np.ones((n, 1))
    h1 = np.hstack([x1, ones])
    h2 = np.hstack([x2, ones])
    kron = (h2[:, :, None] * h1[:, None, :]).reshape(n, 9)
    z9 = np.zeros((n, 9))
    rows_x = np.hstack([kron, z9, -x0[:, 0:1] * h2, x0[:, 0:1] * h1])
    rows_y = np.hstack([z9, kron, -x0[:, 1:2] * h2, x0[:, 1:2] * h1])
    e = np.empty((2 * n, 24))
    e[0::2] = rows_x
    e[1::2] = rows_y
    return e


def nullspace_basis(e: np.ndarray):
    """Two least singular directions of the design matrix and the rank gap.

    The generic system has rank 22; the gap ratio sigma_22/sigma_23
    (1-based, descending) measures how clearly the data separates exactly
    two null directions.  It shrinks with measurement noise on healthy data,
    so it is returned for the record and not tested.  Raises
    RankAmbiguousError when sigma_22 itself vanishes relative to sigma_1:
    the nullity is above two and the ratio of two near-zero values is
    meaningless.

    The 2n x 24 matrix is factored by right_singular, which triangularises
    it in NumPy and runs LAPACK's SVD on the 24 x 24 R factor alone: a
    LAPACK factorization of the tall matrix would wake OpenBLAS's thread
    pool, whose idle thread then spins for about 130 ms.
    """
    if e.shape[0] < 2 * MIN_TRIPLES:
        raise TooFewCorrespondencesError(
            f"need at least {MIN_TRIPLES} triples, got {e.shape[0] // 2}"
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


def _cubic_coefficients(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the motion-form cubic along d1 + beta*d2."""
    coeffs = np.zeros(4)
    for i, j, k, sign in _CUBIC_TERMS:
        poly = np.convolve(np.convolve([d1[i], d2[i]], [d1[j], d2[j]]), [d1[k], d2[k]])
        coeffs += sign * poly
    return coeffs


def real_cubic_roots(coeffs: np.ndarray) -> list[float]:
    """Real roots of a polynomial given descending coefficients.

    Near-zero leading coefficients (relative to the largest) are trimmed so
    a degenerate cubic falls back to the lower-degree polynomial it actually
    is.  Roots come from the companion matrix (np.roots); a root counts as
    real when its imaginary part is below 1e-8*(1+|real part|).
    """
    desc = np.asarray(coeffs, dtype=float)
    scale = np.max(np.abs(desc)) if desc.size else 0.0
    if scale < 1e-14:
        return []
    trimmed = desc
    while len(trimmed) > 1 and abs(trimmed[0]) < 1e-10 * scale:
        trimmed = trimmed[1:]
    if len(trimmed) <= 1:
        return []
    out: list[float] = []
    for r in np.roots(trimmed):
        if abs(r.imag) < 1e-8 * (1.0 + abs(r.real)):
            out.append(float(r.real))
    unique: list[float] = []
    for b in sorted(out):
        if not unique or abs(b - unique[-1]) > 1e-9 * (1.0 + abs(b)):
            unique.append(b)
    return unique


def candidate_null_vectors(d1: np.ndarray, d2: np.ndarray) -> list[np.ndarray]:
    """Unit null directions satisfying the cubic motion-form identity.

    Solves the cubic along the pencil d1 + beta*d2; a vanishing leading
    coefficient adds the pure-d2 direction (beta at infinity).  Real roots
    that give the zero vector are dropped, so the list may be empty.
    """
    coeffs = _cubic_coefficients(d1, d2)  # ascending
    desc = coeffs[::-1]
    scale = np.max(np.abs(desc))
    if scale < 1e-14:
        # identity degenerates along the whole pencil; pass both basis
        # directions through and let residual scoring decide
        return [d1.copy(), d2.copy()]
    lead_small = abs(desc[0]) < 1e-10 * scale
    out: list[np.ndarray] = []
    for b in real_cubic_roots(desc):
        v = d1 + b * d2
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            out.append(v / nv)
    if lead_small:
        out.append(d2.copy())
    return out


def _eliminate_family(d: np.ndarray):
    """Shared elimination behind factoring: family params and squared scale.

    d must be unit length.  Returns (m1, m2, n1, n2, lam1, lam2, t) where the
    finished first/second rows are m1 + lam1*m3 etc. and t is the squared
    scale of the third rows, or None when the constraint system is too
    degenerate to pin the family down or t is not positive.
    """
    n3 = d[18:21]
    m3 = d[21:24]

    # block relations are linear in the unknown first/second rows; the
    # min-norm least-squares solution fixes the one-parameter null family
    # (adding (m3, n3)) at zero, reintroduced below as lam1/lam2
    sys = np.zeros((9, 6))
    rhs_a = np.zeros(9)
    rhs_b = np.zeros(9)
    for i in range(3):
        for j in range(3):
            r = 3 * i + j
            sys[r, j] = n3[i]
            sys[r, 3 + i] = -m3[j]
            rhs_a[r] = d[r]
            rhs_b[r] = d[9 + r]
    sol_a, *_ = np.linalg.lstsq(sys, rhs_a, rcond=None)
    sol_b, *_ = np.linalg.lstsq(sys, rhs_b, rcond=None)
    m1, n1 = sol_a[:3], sol_a[3:]
    m2, n2 = sol_b[:3], sol_b[3:]

    # unit/orthogonality of the four rotation columns constrains the family
    # parameters (lam1, lam2) and the squared scale t; eliminating t between
    # pairs of constraints leaves equations linear in (lam1, lam2)
    a = np.array([m1[0], m1[1], n1[0], n1[1]])
    b = np.array([m2[0], m2[1], n2[0], n2[1]])
    c = np.array([m3[0], m3[1], n3[0], n3[1]])

    rows = []
    rhs = []
    for i in range(4):
        for j in range(i + 1, 4):
            rows.append(
                [
                    2.0 * c[i] * c[j] * (c[j] * a[i] - c[i] * a[j]),
                    2.0 * c[i] * c[j] * (c[j] * b[i] - c[i] * b[j]),
                ]
            )
            rhs.append(
                -(
                    c[j] ** 2 * (a[i] ** 2 + b[i] ** 2)
                    - c[i] ** 2 * (a[j] ** 2 + b[j] ** 2)
                    - c[j] ** 2
                    + c[i] ** 2
                )
            )
    for p, q in ((0, 1), (2, 3)):
        cpq = c[p] * c[q]
        for i in range(4):
            rows.append(
                [
                    2.0 * a[i] * c[i] * cpq - c[i] ** 2 * (a[p] * c[q] + a[q] * c[p]),
                    2.0 * b[i] * c[i] * cpq - c[i] ** 2 * (b[p] * c[q] + b[q] * c[p]),
                ]
            )
            rhs.append(
                -(
                    cpq * (a[i] ** 2 + b[i] ** 2 - 1.0)
                    - c[i] ** 2 * (a[p] * a[q] + b[p] * b[q])
                )
            )
    c01 = c[0] * c[1]
    c23 = c[2] * c[3]
    rows.append(
        [
            c23 * (a[0] * c[1] + a[1] * c[0]) - c01 * (a[2] * c[3] + a[3] * c[2]),
            c23 * (b[0] * c[1] + b[1] * c[0]) - c01 * (b[2] * c[3] + b[3] * c[2]),
        ]
    )
    rhs.append(-(c23 * (a[0] * a[1] + b[0] * b[1]) - c01 * (a[2] * a[3] + b[2] * b[3])))

    g = np.asarray(rows)
    gr = np.asarray(rhs)
    norms = np.linalg.norm(g, axis=1)
    keep = norms > 1e-14 * max(norms.max(), 1e-300)
    if keep.sum() < 2:
        return None
    scale_rows = norms[keep][:, None]
    g = g[keep] / scale_rows
    gr = gr[keep] / scale_rows[:, 0]
    lam, *_ = np.linalg.lstsq(g, gr, rcond=None)
    lam1, lam2 = float(lam[0]), float(lam[1])

    # squared scale from all six constraints jointly (each is t*tau + kappa = 0)
    ai = a + lam1 * c
    bi = b + lam2 * c
    taus = [c[0] ** 2, c[1] ** 2, c[2] ** 2, c[3] ** 2, c01, c23]
    kappas = [
        ai[0] ** 2 + bi[0] ** 2 - 1.0,
        ai[1] ** 2 + bi[1] ** 2 - 1.0,
        ai[2] ** 2 + bi[2] ** 2 - 1.0,
        ai[3] ** 2 + bi[3] ** 2 - 1.0,
        ai[0] * ai[1] + bi[0] * bi[1],
        ai[2] * ai[3] + bi[2] * bi[3],
    ]
    taus = np.asarray(taus)
    kappas = np.asarray(kappas)
    denom = float(taus @ taus)
    if denom <= 0:
        return None
    t = float(-(taus @ kappas) / denom)
    if t <= 0:
        return None
    return m1, m2, n1, n2, lam1, lam2, t


def _factor_null_vector(d: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Factor a motion-form 24-vector into candidate row matrices.

    Returns a list of (m, n) 3x3 matrices whose columns are the first two
    rotation columns and the translation of motions 1 and 2; the list holds
    the two mirror twins (sign of the third rows).  Empty when the vector
    does not pin the motions down or the scale constraint has no positive
    solution.
    """
    d = d / np.linalg.norm(d)
    # x/y slots of both third rows vanishing means both motions keep the
    # plane parallel to the reference pose (pure translation), the third
    # rows vanish altogether, or d is the structural null direction; the
    # scale constraints cannot pin the family down in any of these
    if np.max(np.abs(d[[18, 19, 21, 22]])) < 1e-6:
        return []
    res = _eliminate_family(d)
    if res is None:
        return []
    m1, m2, n1, n2, lam1, lam2, t = res
    alpha = np.sqrt(t)
    n3 = d[18:21]
    m3 = d[21:24]

    m1f = m1 + lam1 * m3
    m2f = m2 + lam2 * m3
    n1f = n1 + lam1 * n3
    n2f = n2 + lam2 * n3
    out = []
    for sgn in (1.0, -1.0):
        m = np.vstack([m1f, m2f, sgn * alpha * m3])
        n = np.vstack([n1f, n2f, sgn * alpha * n3])
        out.append((m, n))
    return out


def _rows_to_pair(m: np.ndarray, n: np.ndarray) -> PlanePosePair | None:
    """Build the pose pair from row matrices, or None when far from rigid."""
    poses = []
    for mat in (m, n):
        c1 = mat[:, 0]
        c2 = mat[:, 1]
        for col in (c1, c2):
            if abs(np.linalg.norm(col) - 1.0) > ORTHO_TOL:
                return None
        if abs(c1 @ c2) > ORTHO_TOL:
            return None
        frame = np.column_stack([c1, c2, np.cross(c1, c2)])
        poses.append(RigidPose(so3.closest_rotation(frame), mat[:, 2]))
    return PlanePosePair(poses[0], poses[1])


# lifted pose-0/pose-2 points closer than this carry no line direction
MIN_LIFT_SEPARATION_MM = 1.0


@dataclass(frozen=True)
class Lifts:
    """Lifted points of every triple and the line every stage reads.

    The line runs through the pose-0 and pose-2 lifts, the widest
    separation; this is the one place that choice is made.  length is
    |p2 - p0|, unit the direction from p0 toward p2 and along the signed
    coordinate of p1 from p2 toward p0; a zero length divides by 1.
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
        length = np.linalg.norm(base, axis=1)
        safe = np.where(length > 0, length, 1.0)
        along = np.einsum("ij,ij->i", p1 - p2, -base) / safe
        return cls(p0, p1, p2, length, base / safe[:, None], along)

    def offset(self) -> np.ndarray:
        """Offset of each p1 from its line, (p1 - p0) x unit."""
        return np.cross(self.p1 - self.p0, self.unit)


def lift_triples(pair: PlanePosePair, x0, x1, x2) -> Lifts:
    """Lifts of each triple under the candidate motions (pose-0 frame)."""
    n = len(x0)
    z = np.zeros((n, 1))
    p0 = np.hstack([np.asarray(x0, dtype=float), z])
    p1 = np.hstack([np.asarray(x1, dtype=float), z]) @ pair.pose1.rotation.T + pair.pose1.translation
    p2 = np.hstack([np.asarray(x2, dtype=float), z]) @ pair.pose2.rotation.T + pair.pose2.translation
    return Lifts.of(p0, p1, p2)


def line_offset_residual(pair: PlanePosePair, x0, x1, x2) -> float:
    """RMS distance of each lifted pose-1 point from its pose-0/pose-2 line.

    Same units as the plane coordinates.  This is the quantity the
    geometric polish minimizes, so candidate ranking uses it as well.
    """
    lifts = lift_triples(pair, x0, x1, x2)
    good = lifts.length > 1e-12
    if not np.any(good):
        return np.inf
    return float(np.sqrt(np.mean(np.sum(lifts.offset()[good] ** 2, axis=1))))


def _polish_objective(pair: PlanePosePair, x0, x1, x2):
    """Line-offset residuals of the polish and their Jacobian, in closed form.

    Returns (residuals, jacobian), functions of x = (w1, t1, w2, t2) for the
    motions R_i = exp(w_i) R_i^0 of pair with translations t_i.  Both come
    from one evaluation per x, as the solver asks for the Jacobian at the
    point whose residuals it has just evaluated.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    last: dict = {}

    def evaluate(x):
        if last and np.array_equal(last["x"], x):
            return last
        t1, t2 = x[3:6], x[9:12]
        cur = PlanePosePair(
            RigidPose(so3.exp(x[0:3]) @ pair.pose1.rotation, t1),
            RigidPose(so3.exp(x[6:9]) @ pair.pose2.rotation, t2),
        )
        lifts = lift_triples(cur, x0, x1, x2)
        p1, p2, u = lifts.p1, lifts.p2, lifts.unit
        v = p1 - lifts.p0
        good = lifts.length > 1e-12
        length = np.where(good, lifts.length, 1.0)
        res = lifts.offset()
        res[~good] = 0.0
        # d res / d p1 = -[u]x ; d res / d p2 = [v]x (I - u u^T) / L
        du = -so3.skew(u)
        proj = (np.eye(3)[None, :, :] - u[:, :, None] * u[:, None, :]) / length[:, None, None]
        dv = np.einsum("nij,njk->nik", so3.skew(v), proj)
        dv[~good] = 0.0
        du[~good] = 0.0
        # d p / d w = -[p - t]x J(w), with J(w) the SO(3) left Jacobian
        # carrying w to a left increment of R; d p / d t = I
        dp1_dw = -so3.skew(p1 - t1) @ so3.left_jacobian(x[0:3])
        dp2_dw = -so3.skew(p2 - t2) @ so3.left_jacobian(x[6:9])
        jac = np.zeros((len(x0), 3, 12))
        jac[:, :, 0:3] = np.einsum("nij,njk->nik", du, dp1_dw)
        jac[:, :, 3:6] = du
        jac[:, :, 6:9] = np.einsum("nij,njk->nik", dv, dp2_dw)
        jac[:, :, 9:12] = dv
        last.update(x=x.copy(), res=res.reshape(-1), jac=jac.reshape(-1, 12))
        return last

    return (lambda x: evaluate(x)["res"]), (lambda x: evaluate(x)["jac"])


def refine_plane_poses(pair: PlanePosePair, x0, x1, x2) -> PlanePosePair:
    """Levenberg-Marquardt polish of a motion pair on the geometric residual.

    The residual per triple is the offset of the lifted pose-1 point from
    the line through the lifted pose-0 and pose-2 points (the longest
    baseline), which the algebraic nullspace solution only minimizes in a
    weighted algebraic sense.  Twelve parameters: a rotation vector w_i
    with R_i = exp(w_i) R_i^0 and the translation of each motion, solved by
    MINPACK's Levenberg-Marquardt (scipy least_squares) on the analytic
    Jacobian of _polish_objective.
    """
    residuals, jacobian = _polish_objective(pair, x0, x1, x2)
    start = np.concatenate([np.zeros(3), pair.pose1.translation, np.zeros(3), pair.pose2.translation])
    fit = least_squares(
        residuals, start, jac=jacobian, method="lm", x_scale="jac", xtol=1e-12, ftol=1e-12
    )
    w1, t1, w2, t2 = np.split(fit.x, 4)
    return PlanePosePair(
        RigidPose(so3.closest_rotation(so3.exp(w1) @ pair.pose1.rotation), t1),
        RigidPose(so3.closest_rotation(so3.exp(w2) @ pair.pose2.rotation), t2),
    )


@dataclass(frozen=True)
class PoseSolution:
    """Plane-motion candidates ranked by line-offset residual."""

    candidates: tuple[PlanePosePair, ...]
    residuals: np.ndarray  # RMS line-offset per candidate, mm
    gap_ratio: float


def estimate_plane_poses(data: CorrespondenceSet) -> PoseSolution:
    """Recover the two plane motions from a correspondence set.

    Each candidate direction of the nullspace pencil is factored once.  The
    factored pairs are ranked by line-offset residual, and those within 100
    times the best residual, at most the first four, are polished by
    refine_plane_poses.  Mirror twins (identical residual, plane normal
    flipped) are both returned because only camera-side reasoning can tell
    them apart.

    Raises RankAmbiguousError, carrying the rank gap, when no nullspace
    direction factors into a rigid pair: the data do not determine the
    motions (e.g. pure translation).
    """
    coords = np.concatenate([data.x0.ravel(), data.x1.ravel(), data.x2.ravel()])
    scale = float(np.sqrt(np.mean(coords**2)))
    if not 0.0 < scale < np.inf:
        raise NoValidCandidateError("plane coordinates are all zero or not finite")
    x0 = data.x0 / scale
    x1 = data.x1 / scale
    x2 = data.x2 / scale

    e = build_design_matrix(x0, x1, x2)
    d1, d2, gap = nullspace_basis(e)
    scored: list[tuple[float, PlanePosePair]] = []
    for d in candidate_null_vectors(d1, d2):
        for m, n in _factor_null_vector(d):
            pair = _rows_to_pair(m, n)
            if pair is not None:
                scored.append((line_offset_residual(pair, x0, x1, x2), pair))
    if not scored:
        raise RankAmbiguousError(
            "no nullspace direction factors into a rigid motion pair; the "
            "plane motions are degenerate",
            gap_ratio=gap,
        )
    scored.sort(key=lambda item: item[0])
    scored = scored[:MAX_CANDIDATES]

    # geometric polish of every candidate within reach of the best fit
    # (twins included; they converge to distinct, equally scored optima)
    cutoff = 100.0 * max(scored[0][0], 1e-12)
    polished: list[tuple[float, PlanePosePair]] = []
    for res, pair in scored:
        if res <= cutoff and len(polished) < 4:
            better = refine_plane_poses(pair, x0, x1, x2)
            polished.append((line_offset_residual(better, x0, x1, x2), better))
        else:
            polished.append((res, pair))
    scored = sorted(polished, key=lambda item: item[0])

    candidates = tuple(
        PlanePosePair(
            RigidPose(p.pose1.rotation, scale * p.pose1.translation),
            RigidPose(p.pose2.rotation, scale * p.pose2.translation),
        )
        for _, p in scored
    )
    residuals = scale * np.array([r for r, _ in scored])
    return PoseSolution(candidates=candidates, residuals=residuals, gap_ratio=gap)
