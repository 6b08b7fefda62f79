"""Cross-ratio surface recovery and joint camera refinement.

A mirror point and its three plane correspondences are collinear in space,
so their images share the projective cross-ratio of the 3D quadruple.
Equating the two ratios pins the point's signed offset s along the
correspondence line, which turns a camera hypothesis into a reconstructed
surface and a per-point reprojection error.  Minimizing that error over
the 10 camera parameters (focals, principal point, angle-axis rotation,
translation) is a strictly stronger criterion than the point-to-line
distance used for initialization, because a line can pass near a pixel
while the point on it reprojects far away.  The minimization is MINPACK's
Levenberg-Marquardt (linalg.least_squares, as for the camera in
projection and the plane poses in plane_pose) on the closed-form Jacobian
of that error, carried forward from the projections through the
cross-ratio and its one physical root to the rebuilt point, and written
straight into the array MINPACK reads with only the rows of each pixel
derivative that are neither zero nor one formed (see _frozen_jacobian).

The plane poses stay fixed throughout; only the camera moves.  So does
the correspondence line: plane_pose.Lifts decides it once per lift, from
the pose-0 and pose-2 lifts, and this module only reads it.  refine lifts
the triples once, and the noise probe moves those lifts (noise_sensitivity).
refine also decides once which triples are valid, with _gate at the start
camera: the fit runs on those triples, and the surface it returns is the
same triples rebuilt at the fitted camera.
refine works in a world frame centred on the mean pose-0 lift, as the
eight-point algorithm centres its points (Hartley, "In Defense of the
Eight-Point Algorithm", PAMI 1997): the fit's path then does not depend on
where the plane's coordinate origin lies.

Every per-triple stack is rows first, as in Lifts: 3-vectors are (3, n)
and pixels (2, n), so each product, division and norm runs over long
contiguous rows.  Only the returned surface is (n, 3).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import so3
from .errors import TooFewCorrespondencesError
from .linalg import least_squares, sum_squares
from .plane_pose import Lifts, lift_triples
from .types import CalibrationEstimate, CorrespondenceSet, Intrinsics, RigidPose, SurfaceEstimate

# X1 may sit off the X0-X2 line by this fraction of the segment length
# before the triple is treated as corrupted rather than merely noisy
COLLINEARITY_TOL = 0.05
MIN_PIXEL_SEPARATION = 1e-6
# surface points further than 10 km from the plane are poles of the
# cross-ratio, not geometry
MAX_OFFSET_MM = 1e7
# two residuals per triple must at least match the 10 camera parameters
MIN_TRIPLES = 5
# triples whose residual moves more than this multiple of the median
# response per mm of correspondence noise are masked before the
# optimization
SENSITIVITY_CAP = 5.0
# central-difference step of the noise-sensitivity probe
SENSITIVITY_STEP_MM = 1e-3
# what _gate checks, in order; a triple carries the reason of the first
# check it fails
_CHECKS = (
    "coincident_lift",
    "noncollinear_lift",
    "behind_camera",  # a plane point
    "coincident_pixels",
    "behind_camera",  # the rebuilt surface point
    "degenerate_cross_ratio",
    "noise_sensitive",
    "degenerate_normal",
    "degenerate_cross_ratio",  # an offset inside the X2-X0 segment
)


def _pack(est: CalibrationEstimate) -> np.ndarray:
    """Camera vector (fx, fy, u0, v0, rx, ry, rz, tx, ty, tz).

    The rotation block is angle-axis in radians, translation in mm.
    """
    intr = est.intrinsics
    return np.concatenate(
        [[intr.fx, intr.fy, intr.u0, intr.v0], so3.log(est.rotation), est.translation]
    )


def _unpack(theta: np.ndarray, cost: float) -> tuple[np.ndarray, CalibrationEstimate]:
    """Camera vector with its angle-axis block folded back onto the canonical
    chart (angle below pi), and the cross-ratio estimate it describes."""
    theta = np.concatenate([theta[:4], so3.log(so3.exp(theta[4:7])), theta[7:]])
    est = CalibrationEstimate(
        intrinsics=Intrinsics(*theta[:4]),
        rotation=so3.exp(theta[4:7]),
        translation=theta[7:].copy(),
        source="crossratio",
        cost=cost,
    )
    return theta, est


@dataclass
class ConvergenceReport:
    """How refine's fit ended.  The camera carries its cost, and the
    surface's invalid_reason the triples the start gate left out."""

    status: str
    iterations: int


def _dehom(h: np.ndarray) -> np.ndarray:
    """First two rows of a (3, n) stack over the third, kept finite at 0."""
    w = np.where(np.abs(h[2]) < 1e-300, 1e-300, h[2])
    return h[:2] / w


def _cross_ratio_offset(lifts: Lifts, x0, x1, x2, m):
    """Cross-ratio offset of each triple's surface point.

    x*/m are dehomogenized image points.  The line, its length B and the
    signed coordinate xi1 = lifts.along of X1 from X2 toward X0 come from
    Lifts, once per lift; only the image side changes with the camera.
    Equating the 3D length ratio |xi1 - s| / |s| with its image
    counterpart k (built from the four Euclidean segment lengths) gives
    the quadratic (xi1 - s)^2 = k^2 s^2, whose roots are

        s = xi1 / (1 - k)   and   s = xi1 / (1 + k).

    Only the first is physical.  The second lies between X2 and X1, while
    the mirror point comes before all three plane hits on its reflected
    ray, so its offset lies outside the X2-X0 segment: s < 0 or s > B.
    The observation enters through its full 2D position, so the residual
    built from s measures point-to-point error, not merely the distance
    from m to the projected line.  Returns (s, k, segments, squared): the
    segments x1 - m, x2 - x0, x1 - x0, x2 - m and their squared lengths,
    whose square roots are np.linalg.norm's bit for bit.
    """
    segments = (x1 - m, x2 - x0, x1 - x0, x2 - m)
    squared = tuple(np.einsum("ij,ij->j", a, a) for a in segments)
    d10, d20, d1x, d2m = (np.sqrt(sq) for sq in squared)
    with np.errstate(divide="ignore", invalid="ignore"):
        cr_img = (d10 * d20) / (d1x * d2m)
        k = cr_img * np.abs(lifts.length - lifts.along) / lifts.length
        s = lifts.along / (1.0 - k)
    return s, k, segments, squared


# stand-in for a singular evaluation in the noise-sensitivity probe;
# large enough to land far beyond any gate threshold, small enough that
# squaring stays finite
_SINGULAR_RESIDUAL = 1e100


@dataclass(frozen=True)
class _View:
    """The triples seen by one camera, shared by the gate, the fit's model
    and Jacobian, and the noise probe.

    pixels are the images of X0, X1, X2, depths their camera-frame depths
    and s, k, segments and squared those of _cross_ratio_offset; m_proj
    and depth are the image and depth of the rebuilt surface point.
    residuals, (2, n), is m_obs - m_proj where feasible and NaN elsewhere;
    raveled, u rows before v rows, it is the fit's residual vector.  Each
    triple keeps its one root and the fit never re-gates its frozen
    triples, so its objective stays smooth in theta: one that turns
    infeasible turns its rows into NaN, which the solver takes as a failed
    step and answers by shrinking its trust region.
    """

    theta: np.ndarray
    pixels: tuple
    depths: tuple
    segments: tuple
    squared: tuple
    k: np.ndarray
    s: np.ndarray
    m_proj: np.ndarray
    depth: np.ndarray
    feasible: np.ndarray
    residuals: np.ndarray


def _projection_matrix(theta: np.ndarray) -> np.ndarray:
    fx, fy, u0, v0 = theta[:4]
    k = np.array([[fx, 0.0, u0], [0.0, fy, v0], [0.0, 0.0, 1.0]])
    return k @ np.hstack(
        [so3.exp(theta[4:7]), theta[7:].reshape(3, 1)]
    )


def _homogeneous(p: np.ndarray, points: np.ndarray) -> np.ndarray:
    """p[:, :3] @ points + p[:, 3] on (3, n) rows."""
    return np.einsum("ij,jn->in", p[:, :3], points) + p[:, 3:]


def _on_line(lifts: Lifts, s: np.ndarray) -> np.ndarray:
    """Points at signed offset s from X2 toward X0."""
    return lifts.p2 - s * lifts.unit


def _resolve_offsets(theta: np.ndarray, lifts: Lifts, m_obs) -> _View:
    """Solve the cross-ratio for every triple and rebuild its surface point.

    Projects the lifted plane points with the camera described by theta,
    takes the physical offset of _cross_ratio_offset and reprojects the
    point it rebuilds.  feasible marks triples whose plane projections and
    rebuilt point all have positive depth and a finite offset; everything
    else in those rows is unreliable.  No triple is feasible when a focal
    length is not positive: the step that took it there is a failed one,
    as a step that puts a point behind the camera is, and never reaches
    Intrinsics.
    """
    p = _projection_matrix(theta)
    with np.errstate(all="ignore"):
        hs = tuple(_homogeneous(p, q) for q in (lifts.p0, lifts.p1, lifts.p2))
        pixels = tuple(_dehom(h) for h in hs)
        s, k, segments, squared = _cross_ratio_offset(lifts, *pixels, m_obs)
        h = _homogeneous(p, _on_line(lifts, s))
        m_proj = _dehom(h)
        depths = tuple(h[2] for h in hs)
        feasible = (
            np.all(theta[:2] > 0)
            & (depths[0] > 0)
            & (depths[1] > 0)
            & (depths[2] > 0)
            & (h[2] > 0)
            & np.isfinite(s)
            & (np.abs(s) < MAX_OFFSET_MM)
            & np.isfinite(m_proj).all(axis=0)
        )
        residuals = np.where(feasible, m_obs - m_proj, np.nan)
    return _View(
        theta=theta,
        pixels=pixels,
        depths=depths,
        segments=segments,
        squared=squared,
        k=k,
        s=s,
        m_proj=m_proj,
        depth=h[2],
        feasible=feasible,
        residuals=residuals,
    )


def _pixel_jacobian(theta: np.ndarray, x: np.ndarray, z: np.ndarray):
    """Derivatives over theta of the pixels x of fixed world points at depth z.

    With q = (x - (u0, v0)) / (fx, fy) the normalized coordinates, the
    camera-frame point is c = R p + T = (q z, z) and the pixel
    (fx q0 + u0, fy q1 + v0).  A left rotation increment w moves c by
    w x R p and a translation increment by itself; qi then moves by
    (e_i - qi e_z) . dc / z, which for the rotation is
    w . (R p x (e_i - qi e_z)) / z.  The rotation rows are in w; the
    caller maps them to the angle-axis.  x is (2, n).  Of u's ten rows,
    those of fy, v0 and ty are zero and that of u0 is one; v's mirror them.
    Returns, for u and then v, the other rows, each a new (n,) array:
    (q, g = f / z, the three rotation rows, the tz row -g q).
    """
    q0 = (x[0] - theta[2]) / theta[0]
    q1 = (x[1] - theta[3]) / theta[1]
    rp0, rp1, rp2 = q0 * z - theta[7], q1 * z - theta[8], z - theta[9]
    gx = theta[0] / z
    gy = theta[1] / z
    tz_u, tz_v = -gx * q0, -gy * q1
    u = (q0, gx, (tz_u * rp1, gx * (rp2 + q0 * rp0), -gx * rp1), tz_u)
    v = (q1, gy, (-gy * (rp2 + q1 * rp1), gy * q1 * rp0, gy * rp0), tz_v)
    return u, v


def _frozen_jacobian(view: _View, lifts: Lifts) -> np.ndarray:
    """Jacobian of the view's raveled residuals over theta, in closed form.

    Forward mode through the residual.  The image length ratio
    k = c d10 d20 / (d1x d2m), with the 3D factor c fixed, moves by
    dk = k (dd10/d10 + dd20/d20 - dd1x/d1x - dd2m/d2m), and an image
    distance d = |a| by a . da / d, so dk / k is a weighted sum of the
    three plane points' pixel derivatives.  The offset s = xi1 / (1 - k)
    moves by ds = s dk / (1 - k).  The rebuilt point's pixel moves as a
    fixed world point would, plus ds along the camera-frame line direction
    R d, with d = -lifts.unit pointing from X2 toward X0.  The residual is the
    observed pixel minus that one, hence the sign.

    Like the fit's residuals it sees only the frozen triples, and nothing is
    zeroed: MINPACK asks for the Jacobian only at a theta whose residuals
    it has accepted, finite, where every one of them is feasible.  The
    segments a and their squared lengths come with the view, and each
    pixel derivative is only its varying rows (_pixel_jacobian): dk / k
    skips the zero terms, takes the weight itself for a row that is one
    and is summed in place.  The 10 x 2n Jacobian, u columns then v
    columns, is written straight into the one array handed over: a row is
    -ds/dlogk times dk / k less the rebuilt pixel's own row, so the
    negation rides on the products.  Each element sees the operations of
    -(du + du/ds ds) over dense (10, n) blocks, up to exact sign flips, so
    it is the same to the bit.
    """
    theta = view.theta
    n = view.k.shape[0]
    with np.errstate(all="ignore"):
        e10, e20, e1x, e2m = (a / sq for a, sq in zip(view.segments, view.squared))
        dlogk = None
        for x, z, (a, b) in zip(view.pixels, view.depths, (e1x - e20, e10 - e1x, e20 - e2m)):
            (q0, gx, rot_u, tz_u), (q1, gy, rot_v, tz_v) = _pixel_jacobian(theta, x, z)
            # the pixel rows are scratch: each weighted term overwrites its row
            for ru, rv in zip((*rot_u, tz_u), (*rot_v, tz_v)):
                np.multiply(a, ru, out=ru)
                ru += np.multiply(b, rv, out=rv)
            for row, w in zip((q0, q1, gx, gy), (a, b, a, b)):
                row *= w
            terms = (q0, q1, a, b, *rot_u, gx, gy, tz_u)
            dlogk = terms if dlogk is None else [np.add(d, t, out=d) for d, t in zip(dlogk, terms)]
        k, s = view.k, view.s
        # -ds / dlogk over the rebuilt point's depth
        along = -s * k / (1.0 - k) / view.depth
        ray = np.einsum("ij,jn->in", -so3.exp(theta[4:7]), lifts.unit)
        # one row per parameter, in the residuals' order: u rows, then v rows
        jt = np.empty((10, 2 * n))
        for c, (q, g, rot, tz) in enumerate(_pixel_jacobian(theta, view.m_proj, view.depth)):
            half = jt[:, c * n : (c + 1) * n]
            scale = theta[c] * (ray[c] - q * ray[2]) * along
            for row, d in zip(half, dlogk):
                np.multiply(scale, d, out=row)
            for r, d in zip((c, 2 + c, 4, 5, 6, 7 + c, 9), (q, 1.0, *rot, g, tz)):
                half[r] -= d
    jt[4:7] = np.einsum("ak,an->kn", so3.left_jacobian(theta[4:7]), jt[4:7])
    return jt


def noise_sensitivity(theta: np.ndarray, lifts: Lifts, m_obs, poses: tuple[RigidPose, ...]) -> np.ndarray:
    """Per-triple response of the residual to correspondence noise, px/mm.

    Central differences of the view's residual rows at the camera vector
    theta over the six in-plane coordinates of each triple, root-sum-
    squared.  A coordinate moves its lift along its pose's in-plane axis (a
    rotation column; the world axes for pose 0), so each probe moves one of
    refine's lift stacks and rebuilds the line with Lifts.of, against the
    same (2, n) pixel rows m_obs.  The cross-ratio loses its grip on the
    surface point when the middle correspondence lifts close to either end
    of the segment (the ratio saturates), and this derivative is how that
    shows up numerically: such triples answer with hundreds of pixels per
    millimetre while well-posed ones answer with tens.
    """
    stacks = (lifts.p0, lifts.p1, lifts.p2)

    def residuals_at(which, step):
        moved = list(stacks)
        moved[which] = moved[which] + step
        return _resolve_offsets(theta, Lifts.of(*moved), m_obs).residuals

    total = np.zeros(m_obs.shape[1])
    for which, axes in enumerate((np.eye(3), *(pose.rotation for pose in poses))):
        for coord in range(2):
            step = SENSITIVITY_STEP_MM * axes[:, coord : coord + 1]
            dr = (residuals_at(which, step) - residuals_at(which, -step)) / (2.0 * SENSITIVITY_STEP_MM)
            dr = np.clip(np.nan_to_num(dr, nan=_SINGULAR_RESIDUAL), -_SINGULAR_RESIDUAL, _SINGULAR_RESIDUAL)
            total += np.einsum("ij,ij->j", dr, dr)
    return np.sqrt(total)


def _rebuild(theta: np.ndarray, lifts: Lifts, s: np.ndarray):
    """Surface points at offsets s and their normals at one camera.

    The normal at M bisects the ray toward the camera center and the ray
    toward the pose-0 correspondence; both rays leave the surface, so the
    bisector points toward the camera side.  Returns the (3, n) points and
    normals and where each normal is defined: a point whose rays have zero
    length or cancel has none.
    """
    with np.errstate(all="ignore"):
        points = _on_line(lifts, s)
        to_center = (-so3.exp(theta[4:7]).T @ theta[7:])[:, None] - points
        incident = lifts.p0 - points
        nv = np.linalg.norm(to_center, axis=0)
        ni = np.linalg.norm(incident, axis=0)
        bisector = to_center / nv + incident / ni
        nb = np.linalg.norm(bisector, axis=0)
        return points, bisector / nb, (nv > 0) & (ni > 0) & (nb >= 1e-9)


def _gate(theta: np.ndarray, lifts: Lifts, m_obs, poses: tuple[RigidPose, ...]):
    """The validity of every triple at one camera: the stage's one decision.

    Each row of the table masks the triples that fail one check of
    _CHECKS; a triple is valid when it fails none and otherwise carries the
    reason of the first check it fails.  The two lift checks read the line
    that Lifts decided: whether it is Lifts.far, and the offset of X1 from
    it against COLLINEARITY_TOL times its length.  Euclidean segment
    lengths only mean something for points actually on the image plane, so
    the plane points must project with positive depth; the rebuilt surface
    point must too, and the cross-ratio must give a usable offset.  Of the
    triples that pass those six checks, one whose noise_sensitivity exceeds
    SENSITIVITY_CAP times their median is noise_sensitive; with none to
    take a median over, none is.  Then the normal must be defined
    (_rebuild), and last the offset must lie outside the X2-X0 segment,
    where the mirror point lies (_cross_ratio_offset): s < 0 or s > B.

    Returns the view at theta and the reason of every triple ("" when
    valid).
    """
    view = _resolve_offsets(theta, lifts, m_obs)
    depths, (x0, x1, x2) = view.depths, view.pixels
    with np.errstate(all="ignore"):

        def close(a, b):
            return np.linalg.norm(a - b, axis=0) < MIN_PIXEL_SEPARATION

        failed = [
            ~lifts.far,
            # a zero-length line fails here too: 0 < 0 is false
            ~(np.linalg.norm(lifts.offset(), axis=0) < COLLINEARITY_TOL * lifts.length),
            ~((depths[0] > 0) & (depths[1] > 0) & (depths[2] > 0)),
            close(x0, x1) | close(x0, x2) | close(x1, x2),
            view.depth <= 0,
            ~view.feasible,
        ]
    # the triples that pass every check so far, then the noisy ones of them
    noisy = ~np.any(failed, axis=0)
    if noisy.any():
        sens = noise_sensitivity(theta, lifts, m_obs, poses)
        noisy &= sens > SENSITIVITY_CAP * float(np.median(sens[noisy]))
    inside = (view.s >= 0) & (view.s <= lifts.length)
    failed = np.array([*failed, noisy, ~_rebuild(theta, lifts, view.s)[2], inside])
    return view, np.where(failed.any(axis=0), np.array(_CHECKS, dtype=object)[failed.argmax(axis=0)], "")


def _surface(theta: np.ndarray, lifts: Lifts, m_obs, reason) -> SurfaceEstimate:
    """The triples valid by reason, rebuilt at the camera theta.

    Every other row reads NaN points and normals, a zero offset and its
    reason.  The surface is the one (n, 3) stack here, transposed from the
    rows at the end.
    """
    valid = reason == ""
    s = _resolve_offsets(theta, lifts, m_obs).s
    points, normals, _ = _rebuild(theta, lifts, s)
    rows = np.flatnonzero(~valid)
    return SurfaceEstimate(
        points=np.where(valid, points, np.nan).T,
        normals=np.where(valid, normals, np.nan).T,
        s_values=np.where(valid, s, 0.0),
        valid=valid,
        invalid_reason=dict(zip(rows.tolist(), reason[rows].tolist())),
    )


def refine(
    theta0: CalibrationEstimate, corrs: CorrespondenceSet, poses: tuple[RigidPose, ...]
) -> tuple[CalibrationEstimate, SurfaceEstimate, ConvergenceReport]:
    """Levenberg-Marquardt over the 10 camera parameters.

    Starts from a focal-sweep estimate, minimizes the cross-ratio
    reprojection cost, and returns the refined camera, the surface rebuilt
    from it, and a convergence report.  Validity is decided once, by _gate
    at the starting camera, so the objective stays fixed during the
    optimization: the fit takes the valid ("frozen") triples' lifts and
    pixels once, as C-contiguous copies (np.compress; a boolean index on
    the last axis returns column-major stacks, whose strided rows are
    slower), and sees no other triple.  The surface is those same triples
    rebuilt at the fitted camera, and every other triple carries its start
    gate reason.  MINPACK accepts no step whose residuals are not finite,
    so every frozen triple is still feasible at the fitted camera.

    Everything runs in a world frame centred on the mean pose-0 lift c:
    the lifts are p - c and the translation T + R c, and the camera and the
    surface are moved back at the end.  The plane's coordinate origin is a
    gauge choice that may lie metres from the scan; about it a small
    rotation moves the points much as a translation does, and where the fit
    stopped moved with that origin.  On noisy grid 8, moving the world
    rigidly by up to 2.1 m moved the refined surface by up to 3.5e-4 mm
    besides the move, and by 8e-11 mm centred.

    The solver is MINPACK's Levenberg-Marquardt (linalg.least_squares, as
    in projection._refine_metric) on the analytic Jacobian of
    _frozen_jacobian.  The report's status is
    non_decreasing_start (the start is already exact), gradient (residuals
    orthogonal to every Jacobian column to 1e-8), plateau (relative cost
    decrease below 1e-12), step (relative step below 1e-12) or
    max_iterations, and its iterations count the Jacobian evaluations.
    Both costs are sums of squared residuals taken with einsum, so a dense
    scan's 28k residuals do not wake OpenBLAS's thread pool.

    Raises TooFewCorrespondencesError when fewer than MIN_TRIPLES triples
    pass the gate at the start camera.
    """
    lifts = lift_triples(poses, corrs.planes)
    centre = np.mean(lifts.p0, axis=1)
    lifts = replace(lifts, **{name: getattr(lifts, name) - centre[:, None] for name in ("p0", "p1", "p2")})
    theta = _pack(theta0)
    theta[7:] += theta0.rotation @ centre
    m_obs = corrs.pixels
    start, reason = _gate(theta, lifts, m_obs, poses)
    frozen = reason == ""
    if frozen.sum() < MIN_TRIPLES:
        raise TooFewCorrespondencesError(
            f"{frozen.sum()} of {len(corrs)} triples pass the start gate; need {MIN_TRIPLES}"
        )

    def finish(vec, status, iterations, cost):
        theta, camera = _unpack(vec, cost)
        surface = _surface(theta, lifts, m_obs, reason)
        camera.translation -= camera.rotation @ centre
        surface.points += centre
        return camera, surface, ConvergenceReport(status, iterations)

    cost0 = sum_squares(start.residuals[:, frozen].ravel())
    if cost0 < 1e-16:
        return finish(theta, "non_decreasing_start", 0, cost0)
    fit_lifts = Lifts(*(np.compress(frozen, getattr(lifts, f.name), axis=-1) for f in fields(Lifts)))
    fit_obs = np.compress(frozen, m_obs, axis=1)

    def model(vec):
        view = _resolve_offsets(vec, fit_lifts, fit_obs)
        return view.residuals.ravel(), lambda: _frozen_jacobian(view, fit_lifts)

    fit = least_squares(model, theta)
    return finish(fit.x, fit.status, fit.njev, fit.cost)
