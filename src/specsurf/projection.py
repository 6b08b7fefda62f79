"""Initial camera recovery from pixel/reflected-line incidences.

Each correspondence triple pins a 3D line: the lifted plane points of pose
0 and pose 2 (the widest separation) both lie on the reflected ray, and the
camera must project that line through the pixel that observed it.  The line
is the one plane_pose.Lifts decides, and Lifts.far decides which triples
carry one; this module only reads both, storing each line as the unit
6-vector L = [v; w] of its moment and direction (see plucker).
The camera's 3x6 line projection matrix M maps L to its image line M L, so
a pixel x on that line gives x . (M L) = 0, one row x (x) L of a linear
system in the 18 entries of M.

The camera comes from one route, focal_sweep: a coarse logarithmic grid
over a shared focal length with the principal point pinned to the image
center.  Each sample solves the paper's analytic line projection matrix
with the intrinsics factored out by a diagonal scaling of its unknowns, so
that the linear unknown is the line matrix of a metric camera [R T].
_cold_starts converts it to point form and decodes it to a pose of either
sign, each of which Levenberg-Marquardt then polishes over (R, T) on the
geometric point-to-line cost, with an analytic Jacobian: a line with
direction w and moment v has the camera-frame moment m = R v - T x R w
(the cross product of its two points after the camera moves them), whose
image line is K^-T m.  Each sample is warm-started from its neighbor, so
_cold_starts, the SVD and the decode, runs only on a cold start: the first
sample, or one after a failed neighbor.  The point-to-line cost ranks the
samples, and Levenberg-Marquardt over (f, R, T) polishes the best one.
The inner solves report no diagnostics; the estimate carries the focal
grid, the cost curve and the evaluation count.

A fixed-focal fit stops once a step lowers the cost by at most SWEEP_FTOL
relative: a sample's cost only ranks it against the others and its pose
only warm-starts the next sample, neither of which needs the last digits.
The free-focal polish, whose result is the camera, runs to 1e-12.

The mirror twins of plane_pose cost alike: the wrong twin at (-R S, -T),
S = diag(1, 1, -1), has the right twin's point-to-line cost at (R, T) with
every depth negated.  So only chirality can choose: a camera counts only
if MIN_FRONT_FRACTION of its pixels meet their lines in front of it.  A
cold start whose lower-cost camera sees its lines behind it has landed in
the mirror basin, which the warm chain after it does not leave, so the
sweep ends that pass there.  The wrong twin's sweep is then its two cold
starts: on the clean grid-20 scan both sweeps take 195 evaluations, 79 of
them on the wrong twin.

Conditioning matters here far more than in ordinary resection.  Reflected
rays off a rotationally symmetric mirror all meet the axis through the
optical center and the symmetry center, so each such mirror contributes a
near-null direction to the incidence matrix on top of the true solution;
with two spheres the trailing spectrum is triple and collapses under mm
noise.  Two measures keep the solvers usable:

- observations are rescaled internally (pixels scaled about the principal
  point, a global world scale applied to the line coordinates) before
  assembly, and
- the least-squares vector is only a start: the geometric refinement over
  the rigid-motion manifold excludes the spurious directions by
  construction.

The incidence matrix is 18 x n for n observations, rows first.  Its least
singular vector comes from linalg.right_singular, which hands LAPACK only
the 18 x 18 R factor (see linalg).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CheiralityUnresolvableError,
    DegenerateLineProjectionError,
    RankDeficientError,
    SweepNoMinimumError,
    TooFewObservationsError,
)
from . import so3
from .linalg import least_squares, right_singular
from .plane_pose import lift_triples
from .plucker import line_to_point_matrix, lines_from_points, point_to_line_matrix
from .types import CalibrationEstimate, CorrespondenceSet, Intrinsics, RigidPose

MIN_OBSERVATIONS = 17
SWEEP_SPAN = (0.15, 10.0)  # focal range as multiples of the image diagonal
# the polish, not the grid, sets the camera: 10 samples give the cameras
# 20 gave, to 8.3e-8 in f, on 36 % fewer evaluations (see README)
SWEEP_SAMPLES = 10
# relative cost decrease that stops a sweep sample's fixed-focal fit; the
# free-focal polish runs to 1e-12
SWEEP_FTOL = 1e-6
# share of pixels that must meet their lines in front of a camera for it to
# count (see _front_fraction); the right twin reads 1, its mirror 0
MIN_FRONT_FRACTION = 0.9


@dataclass(frozen=True)
class LineObservationSet:
    """Pixel/line incidence pairs feeding the camera solvers.

    Rows first, one item per column: pixels is the (2, n) stack of (u, v),
    the homogeneous 1 left implicit, and lines the (6, n) stack of unit
    6-vectors [moment; direction] (see plucker), so a line matrix M maps
    them to the (3, n) image lines M L; indices map each item back to its
    source triple.
    """

    pixels: np.ndarray
    lines: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return self.pixels.shape[1]

    def centered(self, u0: float, v0: float) -> "LineObservationSet":
        """Same observations with the image origin moved to (u0, v0)."""
        return replace(self, pixels=self.pixels - [[u0], [v0]])


def build_observations(corrs: CorrespondenceSet, poses: tuple[RigidPose, ...]) -> LineObservationSet:
    """One (pixel, reflected-line) item per triple.

    The line is the one plane_pose.Lifts decides for the triple.  Triples
    whose lifts are not Lifts.far (the line direction would be noise) are
    skipped: indices names the triples kept, so len(corrs) - len(obs)
    counts the skipped ones.
    """
    lifts = lift_triples(poses, corrs.planes)
    far = lifts.far
    indices = np.flatnonzero(far)
    lines = lines_from_points(lifts.p0[:, far], lifts.p2[:, far])
    lines /= np.linalg.norm(lines, axis=0)
    # np.compress keeps the pixel rows contiguous, as a boolean index would not
    return LineObservationSet(np.compress(far, corrs.pixels, axis=1), lines, indices)


def _incidence_rows(obs: LineObservationSet) -> np.ndarray:
    """18 x n incidence matrix [u L; v L; L], column i pixel (u, v, 1) (x)
    line i."""
    u, v = obs.pixels
    return np.concatenate([u * obs.lines, v * obs.lines, obs.lines])


def _normalized_copy(obs: LineObservationSet):
    """Rescaled observations plus the scales that undo the rescale.

    Pixels are scaled about the origin, so a principal-point-centered
    origin stays put.  The world scale rho is the lines' mean distance from
    the world origin, and every line becomes the unit line through its
    points divided by rho: its moment divided by rho^2, its direction by
    rho.  Returns (obs_n, s_pix, rho).
    """
    spread = np.mean(np.linalg.norm(obs.pixels, axis=0))
    s_pix = np.sqrt(2.0) / spread if spread > 1e-12 else 1.0
    moments, directions = obs.lines[:3], obs.lines[3:]
    rho = float(np.mean(np.linalg.norm(moments, axis=0) / np.linalg.norm(directions, axis=0)))
    if not (np.isfinite(rho) and rho > 1e-9):
        rho = 1.0
    lines = np.concatenate([moments / (rho * rho), directions / rho])
    lines /= np.linalg.norm(lines, axis=0)
    return replace(obs, pixels=obs.pixels * s_pix, lines=lines), s_pix, rho


def point_line_cost(line_matrix: np.ndarray, obs: LineObservationSet) -> float:
    """Sum of squared point-to-line distances in pixels squared.

    Each reflected line is projected to the image; the squared distance of
    its pixel from that 2D line is (x . l)^2 / (a^2 + b^2).  Items whose
    projected line has a vanishing direction part are excluded; if every
    item degenerates the cost is undefined and an error is raised.
    """
    # (3, n) rows, the projected lines; a 3 x 6 by 6 x n matmul would wake
    # OpenBLAS's threads on a dense scan
    img = np.einsum("ij,jn->in", line_matrix, obs.lines)
    ab2 = img[0] ** 2 + img[1] ** 2
    good = ab2 > 1e-20
    if not np.any(good):
        raise DegenerateLineProjectionError(
            "every projected line degenerates to a point"
        )
    u, v = obs.pixels
    num = (u * img[0] + v * img[1] + img[2]) ** 2
    return float(np.sum(num[good] / ab2[good]))


def camera_line_matrix(
    intrinsics: Intrinsics, rotation: np.ndarray, translation: np.ndarray
) -> np.ndarray:
    """Line projection matrix of K[R T]."""
    p = intrinsics.matrix() @ np.hstack(
        [rotation, np.asarray(translation, dtype=float).reshape(3, 1)]
    )
    return point_to_line_matrix(p)


def _cold_starts(f_n, z_n):
    """Both starts (R, T) the incidence rows z_n decode to at focal f_n,
    principal point at the origin, in the rescaled frame.

    The line matrix of K P with K = diag(f, f, 1) is cof(K) M(P) =
    diag(f, f, f^2) M(P), since cof(K) carries cross products the way K
    carries points.  Scaling the incidence rows of the rows of M by f, f
    and f^2 therefore reduces the linear unknown to the line matrix of the
    metric camera lambda [R T] itself, the least singular vector of the
    scaled rows.  The SVD is right_singular's, which factors only the
    18 x 18 R factor (see linalg); its padded R keeps the 18th right vector
    when the fewest observations give 17 constraints.

    The vector is converted to a point camera g, scaled by the mean norm of
    its rotation rows.  g has det(g[:, :3]) > 0 (a cofactor block's
    determinant is a square) and comes first; -g, its block taken to the
    nearest rotation, is the second start.  Returns [] when the rows leave
    more than a scale ambiguity, or when the decoded rows collapse to zero
    or are not finite.
    """
    d = np.concatenate([np.full(12, f_n), np.full(6, f_n * f_n)])
    s, vt = right_singular(z_n * d[:, None])
    if s[16] < 1e-12 * s[0]:
        return []
    g = line_to_point_matrix(vt[17].reshape(3, 6))
    lam = float(np.mean(np.linalg.norm(g[:, :3], axis=1)))
    if lam <= 0 or not np.isfinite(lam):
        return []
    g = g / lam
    return [(so3.closest_rotation(sign * g[:, :3]), sign * g[:, 3]) for sign in (1.0, -1.0)]


def _camera_moments(rotation: np.ndarray, t: np.ndarray, lines: np.ndarray, out=None) -> np.ndarray:
    """(3, n) camera-frame moments m = R v - T x R w of the lines [v; w].

    The 3 x 6 matrix [R | -[T]x R] is built from floats, its last three
    columns R's columns crossed with T by components as so3.cross would:
    3 x 3 array arithmetic costs more in calls than in flops.  The moments
    go into out when it is given.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation.tolist()
    t0, t1, t2 = t.tolist()
    matrix = np.array(
        [
            [r00, r01, r02, r10 * t2 - r20 * t1, r11 * t2 - r21 * t1, r12 * t2 - r22 * t1],
            [r10, r11, r12, r20 * t0 - r00 * t2, r21 * t0 - r01 * t2, r22 * t0 - r02 * t2],
            [r20, r21, r22, r00 * t1 - r10 * t0, r01 * t1 - r11 * t0, r02 * t1 - r12 * t0],
        ]
    )
    return np.einsum("ij,jn->in", matrix, lines, out=out)


def _front_fraction(f: float, obs: LineObservationSet, rotation: np.ndarray, t: np.ndarray) -> float:
    """Share of pixels whose viewing ray meets its line in front of the
    camera diag(f, f, 1)[R T], pixels centered on the principal point.

    The ray through pixel (x0, x1) has direction g = (x0, x1, f), and a
    line of camera-frame moment m and direction R w passes nearest the
    optical center at (m x R w) / |w|^2; the ray's point nearest the line,
    where an incident pair meet, has the depth sign of g . (m x R w).
    Unlike a world origin in front, this holds in every gauge (Hartley,
    "Chirality", IJCV 1998).
    """
    m = _camera_moments(rotation, t, obs.lines)
    foot = so3.cross(m, np.einsum("ij,jn->in", rotation, obs.lines[3:]))
    x0, x1 = obs.pixels
    return float(np.mean(x0 * foot[0] + x1 * foot[1] + f * foot[2] > 0.0))


def _point_line_objective(obs: LineObservationSet):
    """Point-to-line residuals and their Jacobian, both in closed form.

    Returns the least_squares model over theta = (log f, axis-angle of R, T)
    for the camera diag(f, f, 1)[R T]; the Jacobian has one row per entry
    of theta.

    A line [v; w] through p and q has moment v = p x q and direction
    w = p - q; the camera maps the points to R p + T and R q + T, whose
    cross product is the camera-frame moment m = R v - T x R w, one product
    of the 3 x 6 matrix [R | -[T]x R] with the line.  The image line is
    K^-T m, proportional to (m0, m1, f m2), so a pixel (x0, x1, 1) lies at
    signed distance r = num / s from it, with num = x0 m0 + x1 m1 + f m2
    and s = sqrt(m0^2 + m1^2).  With u = dr/dm = (g - (num / s^2) h) / s,
    g = (x0, x1, f) and h = (m0, m1, 0): dr/dT = u x R w,
    dr/dlog f = f m2 / s, and a left rotation increment dphi moves r by
    ((u x T) x R w - u x R v) . dphi, which the SO(3) left Jacobian carries
    to the axis-angle.  By the triple-product expansion that rotation
    gradient equals (dr/dT) x T - u x m, one cross product fewer.

    Every product over the n lines is an einsum: a matmul against a 3 x n
    or 6 x n stack wakes OpenBLAS's threads on a dense scan, and sums in
    another order.  On a few hundred lines each NumPy call costs more than
    its arithmetic, so the rest is written into preallocated rows with
    out=, whole stacks at a time, the cross products by _cross_cyclic: the
    same operations on the same operands, so the same bits, as the plain
    expressions above.
    """
    directions = obs.lines[3:]
    n = len(obs)

    def model(theta):
        f = np.exp(theta[0])
        # K R is invertible exactly when f is finite and positive
        if not (np.isfinite(f) and f > 0.0):
            raise RankDeficientError(f"singular camera: focal {f!r}")
        rotation = so3.exp(theta[1:4])
        t = theta[4:]
        # rows 3 and 4 are for the Jacobian's cyclic copy (see _cross_cyclic)
        m = np.empty((5, n))
        _camera_moments(rotation, t, obs.lines, out=m[:3])
        # s, num, f m2, the residual, then two rows of scratch
        s, num, fm2, r, *_ = rows = np.empty((6, n))
        pair = rows[4:]
        np.add(*np.multiply(m[:2], m[:2], out=pair), out=s)
        s += 1e-30
        np.sqrt(s, out=s)
        np.add(*np.multiply(obs.pixels, m[:2], out=pair), out=num)
        num += np.multiply(f, m[2], out=fm2)

        def jacobian():
            # u = dr/dm, R w, m and dr/dT (rows 4-6) each repeat their
            # first two rows after their third, for _cross_cyclic;
            # least_squares reads rows 0-6
            jt = np.empty((9, n))
            u = np.empty((5, n))
            rw = np.empty((5, n))
            scratch = np.empty((6, n))
            # num / s^2, in a row u fills last
            c = np.divide(num, np.multiply(s, s, out=u[3]), out=u[3])
            np.subtract(obs.pixels, np.multiply(c, m[:2], out=u[:2]), out=u[:2])
            u[:2] /= s
            np.divide(f, s, out=u[2])
            u[3:] = u[:2]
            np.divide(fm2, s, out=jt[0])
            np.einsum("ij,jn->in", rotation, directions, out=rw[:3])
            rw[3:] = rw[:2]
            _cross_cyclic(u, rw, jt[4:7], scratch[:3])
            jt[7:] = jt[4:6]
            m[3:] = m[:2]
            # the rotation gradient goes where R w was
            d_phi = _cross_cyclic(jt[4:], t[[0, 1, 2, 0, 1], None], rw[:3], scratch[:3])
            d_phi -= _cross_cyclic(u, m, scratch[:3], scratch[3:])
            np.einsum("ik,in->kn", so3.left_jacobian(theta[1:4]), d_phi, out=jt[1:4])
            return jt[:7]

        return np.divide(num, s, out=r), jacobian

    return model


def _cross_cyclic(p, q, out, scratch):
    """p x q for 3-vectors stored as five rows, the first two repeated after
    the third, into the 3 rows of out, scratch another 3 rows: then
    p[1:4] q[2:5] - p[2:5] q[1:4] is so3.cross's arithmetic, bit for bit,
    in three calls on whole stacks.  Returns out."""
    np.multiply(p[1:4], q[2:5], out=out)
    out -= np.multiply(p[2:5], q[1:4], out=scratch)
    return out


def _refine_metric(f: float, obs: LineObservationSet, start, free_focal=False):
    """Levenberg-Marquardt over (R, T) on the point-to-line residuals.

    Parameters live on the rigid-motion manifold (axis-angle + translation)
    so directions that are not realizable by any metric camera cannot enter
    the solution.  The camera is diag(f, f, 1)[R T]; with free_focal its
    log-focal joins the parameters.  Starts from start = (R, T) and returns
    (f, R, T, fit), fit being linalg.least_squares's result.  A fixed-focal
    fit stops at a relative cost decrease of SWEEP_FTOL or after 300
    evaluations; a free-focal one at 1e-12 or after 400.

    The solver is MINPACK's Levenberg-Marquardt (linalg.least_squares) on
    the analytic Jacobian of _point_line_objective, which works on the
    camera-frame moment m = R v - T x R w of each line (direction w,
    moment v): the cross product of its two points once the camera has
    moved them.
    """
    full = _point_line_objective(obs)
    theta0 = np.concatenate([[np.log(f)], so3.log(start[0]), start[1]])
    # the log-focal leads theta; a fixed-focal fit holds it out of the solve
    held = theta0[: 0 if free_focal else 1]

    def model(q):
        residuals, jacobian = full(np.concatenate([held, q]))
        return residuals, lambda: jacobian()[len(held) :]

    fit = least_squares(
        model,
        theta0[len(held) :],
        max_nfev=400 if free_focal else 300,
        ftol=1e-12 if free_focal else SWEEP_FTOL,
    )
    theta = np.concatenate([held, fit.x])
    return float(np.exp(theta[0])), so3.exp(theta[1:4]), theta[4:], fit


def focal_sweep(obs: LineObservationSet, image_size: tuple[int, int]) -> CalibrationEstimate:
    """Best shared focal length with the principal point at the image center.

    Logarithmic grid of SWEEP_SAMPLES focal lengths spanning SWEEP_SPAN
    times the image diagonal.  Each constrained solve is started from its
    neighbor's solution; only the first, or one after a failed neighbor,
    takes _cold_starts from the incidence matrix, and the chain follows
    the lower-cost of its two refined signs.  Under heavy noise the
    fixed-focal cost has spurious attractors (a reflected and a reversed
    camera) that a cold start can fall into; the warm chain across focal
    lengths escapes them.  A sample's fit stops at a relative cost decrease
    of SWEEP_FTOL: its cost only ranks it and its pose only warm-starts the
    next sample.  A sample ranks only if MIN_FRONT_FRACTION of its pixels
    are in front, so the wrong mirror twin, whose one exact basin lies
    behind the camera, ranks none.  A pass whose cold start has at most
    1 - MIN_FRONT_FRACTION of its pixels in front has landed in that basin
    and ends after it.  The minimum must be interior to the grid; if the
    forward pass leaves none, the grid is swept again from its top.
    Levenberg-Marquardt over (f, R, T) then polishes the best sample to a
    relative cost decrease of 1e-12; the polished focal must lie in the
    grid's range, or SweepNoMinimumError is raised, and the polished camera
    must pass the same gate.

    The estimate's diagnostics hold the focal grid (f_grid), the cost of
    each sample in pixels squared (cost_curve, inf where the solve failed),
    the residual evaluations of all its fits, the polish and the cold
    starts of ended passes included (nfev), the number of passes ended
    after their cold start (dropped_passes, 0 or 1 on an estimate).  The
    estimate's cost is the polish's own point-to-line cost in pixels
    squared.  SweepNoMinimumError's message says how many of the two
    passes ended after their cold start.

    Raises ValueError, before any fit, unless both entries of image_size
    (width, height) are positive and finite.
    """
    if not all(0 < s < np.inf for s in image_size):
        raise ValueError(f"image size {image_size!r} must be positive and finite")
    width, height = image_size
    u0 = (width - 1) / 2.0
    v0 = (height - 1) / 2.0
    diagonal = float(np.hypot(width, height))
    f_lo, f_hi = SWEEP_SPAN[0] * diagonal, SWEEP_SPAN[1] * diagonal
    if len(obs) < MIN_OBSERVATIONS:
        raise TooFewObservationsError(
            f"need at least {MIN_OBSERVATIONS} observations, got {len(obs)}"
        )
    centered = obs.centered(u0, v0)
    obs_n, s_pix, rho = _normalized_copy(centered)
    z_n = _incidence_rows(obs_n)

    grid = np.geomspace(f_lo, f_hi, SWEEP_SAMPLES)
    costs = np.full(len(grid), np.inf)
    solutions: list = [None] * len(grid)
    nfev = []

    def sweep_pass(order):
        # the lowest-cost fit warm-starts the next sample, ranked or not: a
        # sample behind the camera, or one bad focal value, must not cut
        # the chain; a cold start behind the camera lies in the mirror
        # twin's basin, which the warm chain would not leave, so the pass
        # ends there and returns True; a cold start with no starts skips
        # its sample, and the next one starts cold
        warm = None
        for i in order:
            f_n = grid[i] * s_pix
            starts = _cold_starts(f_n, z_n) if warm is None else [warm]
            fits = [_refine_metric(f_n, obs_n, start)[1:] for start in starts]
            if not fits:
                continue
            nfev.extend(fit.nfev for *_, fit in fits)
            rotation, t_n, fit = min(fits, key=lambda refined: refined[2].cost)
            front = _front_fraction(f_n, obs_n, rotation, t_n)
            if warm is None and front <= 1.0 - MIN_FRONT_FRACTION:
                return True
            warm = (rotation, t_n)
            if fit.cost < costs[i] and front >= MIN_FRONT_FRACTION:
                costs[i] = fit.cost
                solutions[i] = warm
        return False

    # argmin reads 0, not interior, when every cost is inf; dropped counts
    # the passes that ended at their cold start
    dropped = int(sweep_pass(range(len(grid))))
    if not 0 < np.argmin(costs) < len(grid) - 1:
        dropped += sweep_pass(range(len(grid) - 1, -1, -1))
    best = int(np.argmin(costs))
    if not 0 < best < len(grid) - 1:
        raise SweepNoMinimumError(
            "no interior cost minimum in the focal range "
            f"[{f_lo:.1f}, {f_hi:.1f}] px; {dropped} of its 2 passes started behind the camera"
        )

    # joint polish of (f, R, T): the free-focal solve takes f off the grid
    f_n, rotation, t_n, polish = _refine_metric(grid[best] * s_pix, obs_n, solutions[best], free_focal=True)
    f_best = f_n / s_pix
    if not f_lo <= f_best <= f_hi:
        raise SweepNoMinimumError(
            f"the polish left the focal range [{f_lo:.1f}, {f_hi:.1f}] px for f = {f_best:.1f} px"
        )
    front = _front_fraction(f_n, obs_n, rotation, t_n)
    if front < MIN_FRONT_FRACTION:
        raise CheiralityUnresolvableError(f"only {front:.1%} of the pixels see their lines in front")
    return CalibrationEstimate(
        intrinsics=Intrinsics(f_best, f_best, u0, v0),
        rotation=rotation,
        translation=t_n * rho,
        source="constrained",
        # the rescaled fits' costs, back to raw pixel units
        cost=polish.cost / (s_pix * s_pix),
        diagnostics={
            "f_grid": grid,
            "cost_curve": costs / (s_pix * s_pix),
            "nfev": polish.nfev + sum(nfev),
            "dropped_passes": dropped,
        },
    )
