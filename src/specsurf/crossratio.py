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
Levenberg-Marquardt (scipy least_squares, as for the camera in projection)
on the closed-form Jacobian of that error, carried forward from the
projections through the cross-ratio and the chosen root to the rebuilt
point (see _frozen_jacobian).

The plane poses stay fixed throughout; only the camera moves.  So does
the correspondence line: plane_pose.Lifts decides it once per lift, from
the pose-0 and pose-2 lifts, and this module only reads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from . import so3
from .errors import TooFewCorrespondencesError
from .plane_pose import MIN_LIFT_SEPARATION_MM, Lifts, lift_triples
from .types import (
    CalibrationEstimate,
    CorrespondenceSet,
    Intrinsics,
    PlanePosePair,
    SurfaceEstimate,
)

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
# report status of each scipy least_squares status refine's fit can end on
_LM_STATUS = {0: "max_iterations", 1: "gradient", 2: "plateau", 3: "step", 4: "step"}
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
    """How refine's fit ended; mask_reasons counts the start mask's reasons."""

    status: str
    iterations: int
    initial_cost: float
    final_cost: float
    mask_reasons: dict[str, int]


def _dehom(h: np.ndarray) -> np.ndarray:
    """First two coordinates of (n, 3) rows over the third, kept finite at 0."""
    w = np.where(np.abs(h[:, 2]) < 1e-300, 1e-300, h[:, 2])
    return h[:, :2] / w[:, None]


def _cross_ratio_roots(lifts: Lifts, x0, x1, x2, m):
    """Candidate cross-ratio offsets for each triple.

    x*/m are dehomogenized image points.  The line, its length B and the
    signed coordinate xi1 = lifts.along of X1 from X2 toward X0 come from
    Lifts, once per lift; only the image side changes with the camera.
    Equating the 3D length ratio |xi1 - s| / |s| with its image
    counterpart k (built from the four Euclidean segment lengths) gives
    the quadratic (xi1 - s)^2 = k^2 s^2, whose roots are

        s = xi1 / (1 - k)   and   s = xi1 / (1 + k).

    Both satisfy the unsigned cross-ratio equality; which one is the
    actual surface point is decided by the caller (the reconstruction
    must land back on the observation).  The observation enters through
    its full 2D position, so the residual built from the winning root
    measures point-to-point error, not merely the distance from m to the
    projected line.  Returns (roots_minus, roots_plus, k).
    """
    d10 = np.linalg.norm(x1 - m, axis=-1)
    d20 = np.linalg.norm(x2 - x0, axis=-1)
    d1x = np.linalg.norm(x1 - x0, axis=-1)
    d2m = np.linalg.norm(x2 - m, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cr_img = (d10 * d20) / (d1x * d2m)
        k = cr_img * np.abs(lifts.length - lifts.along) / lifts.length
        roots_minus = lifts.along / (1.0 - k)
        roots_plus = lifts.along / (1.0 + k)
    return roots_minus, roots_plus, k


# stand-in for a singular evaluation in the noise-sensitivity probe;
# large enough to land far beyond any gate threshold, small enough that
# squaring stays finite
_SINGULAR_RESIDUAL = 1e100


@dataclass(frozen=True)
class _View:
    """The triples seen by one camera, shared by residuals and Jacobian.

    pixels are the images of X0, X1, X2 and depths their camera-frame
    depths.  minus marks triples whose offset s is the root xi1 / (1 - k);
    m_proj and depth are the image and depth of the rebuilt surface point.
    """

    theta: np.ndarray
    pixels: tuple
    depths: tuple
    k: np.ndarray
    minus: np.ndarray
    s: np.ndarray
    m_proj: np.ndarray
    depth: np.ndarray
    feasible: np.ndarray


def _projection_matrix(theta: np.ndarray) -> np.ndarray:
    fx, fy, u0, v0 = theta[:4]
    k = np.array([[fx, 0.0, u0], [0.0, fy, v0], [0.0, 0.0, 1.0]])
    return k @ np.hstack(
        [so3.exp(theta[4:7]), theta[7:].reshape(3, 1)]
    )


def _homogeneous(p: np.ndarray, points: np.ndarray) -> np.ndarray:
    return points @ p[:, :3].T + p[:, 3]


def _on_line(lifts: Lifts, s: np.ndarray) -> np.ndarray:
    """Points at signed offset s from X2 toward X0."""
    return lifts.p2 - s[:, None] * lifts.unit


def _resolve_offsets(theta: np.ndarray, lifts: Lifts, m_obs) -> _View:
    """Solve the cross-ratio for every triple and pick the physical root.

    Projects the lifted plane points with the camera described by theta,
    solves the segment-length cross-ratio equality for both algebraic
    roots, rebuilds a candidate surface point from each, and keeps the
    root whose reprojection lands closer to the observed pixel.  feasible
    marks triples whose plane projections and winning reprojection all
    have positive depth and a finite offset; everything else in those rows
    is unreliable.
    """
    p = _projection_matrix(theta)
    with np.errstate(all="ignore"):
        hs = tuple(_homogeneous(p, q) for q in (lifts.p0, lifts.p1, lifts.p2))
        pixels = tuple(_dehom(h) for h in hs)
        roots_minus, roots_plus, k = _cross_ratio_roots(lifts, *pixels, m_obs)

        def rebuild(s):
            h = _homogeneous(p, _on_line(lifts, s))
            proj = _dehom(h)
            gap = np.einsum("ij,ij->i", m_obs - proj, m_obs - proj)
            gap = np.where(np.isfinite(gap) & (h[:, 2] > 0), gap, np.inf)
            return h[:, 2], proj, gap

        depth_a, proj_a, gap_a = rebuild(roots_minus)
        depth_b, proj_b, gap_b = rebuild(roots_plus)
        minus = gap_a <= gap_b
        s = np.where(minus, roots_minus, roots_plus)
        depth = np.where(minus, depth_a, depth_b)
        m_proj = np.where(minus[:, None], proj_a, proj_b)
        depths = tuple(h[:, 2] for h in hs)
        feasible = (
            (depths[0] > 0)
            & (depths[1] > 0)
            & (depths[2] > 0)
            & (depth > 0)
            & np.isfinite(s)
            & (np.abs(s) < MAX_OFFSET_MM)
            & np.isfinite(m_proj).all(axis=1)
        )
    return _View(
        theta=theta,
        pixels=pixels,
        depths=depths,
        k=k,
        minus=minus,
        s=s,
        m_proj=m_proj,
        depth=depth,
        feasible=feasible,
    )


def _frozen_residuals(view: _View, m_obs, frozen: np.ndarray) -> np.ndarray:
    """Residual vector under a fixed validity mask, continuous in theta.

    Unlike _gate this never re-gates validity: every triple in the
    frozen set is evaluated at every theta, so the optimizer sees a smooth
    objective instead of residuals snapping to zero when a triple crosses
    a gating boundary.  A frozen-in triple that becomes infeasible at this
    theta (plane projection or rebuilt point behind the camera, offset
    blown up) turns its rows into NaN, which the solver takes as a failed
    step and answers by shrinking its trust region.
    """
    with np.errstate(invalid="ignore"):
        residuals = m_obs - view.m_proj
    residuals = np.where(view.feasible[:, None], residuals, np.nan)
    residuals = np.where(frozen[:, None], residuals, 0.0)
    return residuals.ravel()


def _pixel_jacobian(theta: np.ndarray, x: np.ndarray, z: np.ndarray):
    """Derivatives over theta of the pixels x of fixed world points at depth z.

    With q = (x - (u0, v0)) / (fx, fy) the normalized coordinates, the
    camera-frame point is c = R p + T = (q z, z) and the pixel
    (fx q0 + u0, fy q1 + v0).  A left rotation increment w moves c by
    w x R p and a translation increment by itself; qi then moves by
    (e_i - qi e_z) . dc / z, which for the rotation is
    w . (R p x (e_i - qi e_z)) / z.  The rotation rows are in w; the
    caller maps them to the angle-axis.  Returns the transposed Jacobians
    of the two pixel coordinates, (10, n) each.
    """
    n = len(x)
    q0 = (x[:, 0] - theta[2]) / theta[0]
    q1 = (x[:, 1] - theta[3]) / theta[1]
    rp0, rp1, rp2 = q0 * z - theta[7], q1 * z - theta[8], z - theta[9]
    gx = theta[0] / z
    gy = theta[1] / z
    du = np.zeros((10, n))
    dv = np.zeros((10, n))
    du[0] = q0
    du[2] = 1.0
    du[4] = -gx * q0 * rp1
    du[5] = gx * (rp2 + q0 * rp0)
    du[6] = -gx * rp1
    du[7] = gx
    du[9] = -gx * q0
    dv[1] = q1
    dv[3] = 1.0
    dv[4] = -gy * (rp2 + q1 * rp1)
    dv[5] = gy * q1 * rp0
    dv[6] = gy * rp0
    dv[8] = gy
    dv[9] = -gy * q1
    return du, dv


def _frozen_jacobian(view: _View, lifts: Lifts, m_obs, frozen: np.ndarray) -> np.ndarray:
    """Jacobian of _frozen_residuals over theta, in closed form.

    Forward mode through the residual.  The image length ratio
    k = c d10 d20 / (d1x d2m), with the 3D factor c fixed, moves by
    dk = k (dd10/d10 + dd20/d20 - dd1x/d1x - dd2m/d2m), and an image
    distance d = |a| by a . da / d, so dk / k is a weighted sum of the
    three plane points' pixel derivatives.  The chosen root moves by
    ds = s dk / (1 - k) for xi1 / (1 - k) and by -s dk / (1 + k) for
    xi1 / (1 + k).  The rebuilt point's pixel moves as a fixed world point
    would, plus ds along the camera-frame line direction R d, with
    d = -lifts.unit pointing from X2 toward X0.  The residual is the
    observed pixel minus that one, hence the sign.  Rows outside the frozen
    set, infeasible at this theta or without a finite derivative are zero.
    """
    theta = view.theta
    x0, x1, x2 = view.pixels
    n = len(x0)
    with np.errstate(all="ignore"):

        def over_sq(a):
            return a.T / np.einsum("ij,ij->i", a, a)

        e10, e20 = over_sq(x1 - m_obs), over_sq(x2 - x0)
        e1x, e2m = over_sq(x1 - x0), over_sq(x2 - m_obs)
        dlogk = np.zeros((10, n))
        for x, z, w in zip(view.pixels, view.depths, (e1x - e20, e10 - e1x, e20 - e2m)):
            du, dv = _pixel_jacobian(theta, x, z)
            dlogk += w[0] * du + w[1] * dv
        k, s = view.k, view.s
        ds_dlogk = np.where(view.minus, s * k / (1.0 - k), -s * k / (1.0 + k))
        x = view.m_proj
        du, dv = _pixel_jacobian(theta, x, view.depth)
        ray = -lifts.unit @ so3.exp(theta[4:7]).T
        along = ds_dlogk / view.depth
        q0 = (x[:, 0] - theta[2]) / theta[0]
        q1 = (x[:, 1] - theta[3]) / theta[1]
        du += theta[0] * (ray[:, 0] - q0 * ray[:, 2]) * along * dlogk
        dv += theta[1] * (ray[:, 1] - q1 * ray[:, 2]) * along * dlogk
    jac = np.empty((n, 2, 10))
    np.negative(du.T, out=jac[:, 0])
    np.negative(dv.T, out=jac[:, 1])
    keep = frozen & view.feasible & np.isfinite(jac).all(axis=(1, 2))
    jac[~keep] = 0.0
    jac = jac.reshape(2 * n, 10)
    jac[:, 4:7] = jac[:, 4:7] @ so3.left_jacobian(theta[4:7])
    return jac


def noise_sensitivity(
    theta: np.ndarray, corrs: CorrespondenceSet, poses: PlanePosePair
) -> np.ndarray:
    """Per-triple response of the residual to correspondence noise, px/mm.

    theta is the camera vector of _pack.  Central
    differences of the reprojection residual with respect to the six
    in-plane coordinates of the triple, root-sum-squared.  The
    cross-ratio loses its grip on the surface point when the middle
    correspondence lifts close to either end of the segment (the ratio
    saturates), and this derivative is how that shows up numerically:
    such triples answer with hundreds of pixels per millimetre while
    well-posed ones answer with tens.
    """
    m_obs = np.asarray(corrs.pixels, dtype=float)
    base = (
        np.asarray(corrs.x0, dtype=float),
        np.asarray(corrs.x1, dtype=float),
        np.asarray(corrs.x2, dtype=float),
    )
    keep_all = np.ones(len(m_obs), dtype=bool)

    def residuals_at(arrays):
        lifts = lift_triples(poses, *arrays)
        view = _resolve_offsets(theta, lifts, m_obs)
        return _frozen_residuals(view, m_obs, keep_all).reshape(-1, 2)

    total = np.zeros(len(m_obs))
    for which in range(3):
        for coord in range(2):
            plus = [a.copy() for a in base]
            minus = [a.copy() for a in base]
            plus[which][:, coord] += SENSITIVITY_STEP_MM
            minus[which][:, coord] -= SENSITIVITY_STEP_MM
            dr = (residuals_at(plus) - residuals_at(minus)) / (2.0 * SENSITIVITY_STEP_MM)
            dr = np.nan_to_num(
                dr,
                nan=_SINGULAR_RESIDUAL,
                posinf=_SINGULAR_RESIDUAL,
                neginf=-_SINGULAR_RESIDUAL,
            )
            dr = np.clip(dr, -_SINGULAR_RESIDUAL, _SINGULAR_RESIDUAL)
            total += np.einsum("ij,ij->i", dr, dr)
    return np.sqrt(total)


def _gate(theta: np.ndarray, lifts: Lifts, m_obs, noisy):
    """Surface at one camera and the validity of every triple, decided once.

    Each row of the table masks the triples that fail one check of
    _CHECKS; a triple is valid when it fails none and otherwise carries the
    reason of the first check it fails.  The two lift checks read the line
    that Lifts decided: its length, and the offset of X1 from it against
    COLLINEARITY_TOL times that length.  Euclidean segment lengths only
    mean something for points actually on the image plane, so the plane
    points must project with positive depth; the rebuilt surface point
    must too, and the cross-ratio must have a usable root.  noisy maps the
    triples that pass every earlier check to those masked as
    noise_sensitive.

    The normal at M bisects the ray toward the camera center and the ray
    toward the pose-0 correspondence; both rays leave the surface, so the
    bisector points toward the camera side.  A point whose rays have zero
    length or cancel has a degenerate normal.  Invalid rows read NaN
    points and normals and a zero offset.

    Returns the view at theta, the surface and the reason of every triple
    ("" when valid).
    """
    view = _resolve_offsets(theta, lifts, m_obs)
    depths, (x0, x1, x2) = view.depths, view.pixels
    with np.errstate(all="ignore"):

        def close(a, b):
            return np.linalg.norm(a - b, axis=1) < MIN_PIXEL_SEPARATION

        points = _on_line(lifts, view.s)
        to_center = -so3.exp(theta[4:7]).T @ theta[7:] - points
        incident = lifts.p0 - points
        nv = np.linalg.norm(to_center, axis=1)
        ni = np.linalg.norm(incident, axis=1)
        bisector = to_center / nv[:, None] + incident / ni[:, None]
        nb = np.linalg.norm(bisector, axis=1)
        normals = bisector / nb[:, None]
        failed = [
            lifts.length < MIN_LIFT_SEPARATION_MM,
            # a zero-length line fails here too: 0 < 0 is false
            ~(np.linalg.norm(lifts.offset(), axis=1) < COLLINEARITY_TOL * lifts.length),
            ~((depths[0] > 0) & (depths[1] > 0) & (depths[2] > 0)),
            close(x0, x1) | close(x0, x2) | close(x1, x2),
            ~np.isfinite(view.depth) | (view.depth <= 0),
            ~view.feasible,
        ]
    failed.append(noisy(~np.any(failed, axis=0)))
    failed.append((nv <= 0) | (ni <= 0) | (nb < 1e-9))
    failed = np.array(failed)
    valid = ~failed.any(axis=0)
    reason = np.where(valid, "", np.array(_CHECKS, dtype=object)[failed.argmax(axis=0)])
    rows = np.flatnonzero(~valid)
    surface = SurfaceEstimate(
        points=np.where(valid[:, None], points, np.nan),
        normals=np.where(valid[:, None], normals, np.nan),
        s_values=np.where(valid, view.s, 0.0),
        valid=valid,
        invalid_reason=dict(zip(rows.tolist(), reason[rows].tolist())),
    )
    return view, surface, reason


def refine(
    theta0: CalibrationEstimate, corrs: CorrespondenceSet, poses: PlanePosePair
) -> tuple[CalibrationEstimate, SurfaceEstimate, ConvergenceReport]:
    """Levenberg-Marquardt over the 10 camera parameters.

    Starts from a focal-sweep estimate, minimizes the cross-ratio
    reprojection cost, and returns the refined camera, the surface rebuilt
    from it, and a convergence report.  The validity mask is frozen at the
    starting camera so the objective stays fixed during the optimization;
    the returned surface is rebuilt (mask and all) at the optimized camera.
    Both masks come from _gate; the noise-sensitive triples are measured at
    the start and stay masked at the end, and the report counts the start
    mask's reasons.

    The solver is MINPACK's Levenberg-Marquardt (scipy least_squares, as in
    projection._refine_metric) on the analytic Jacobian of _frozen_jacobian:
    each projected plane point moves with the intrinsics directly and with
    the pose through the SO(3) left Jacobian, the image length ratio k
    through its four image distances, the winning root s = xi1 / (1 -+ k)
    through k, and the rebuilt point through s along the camera-frame line
    direction.  Residuals and Jacobian at one camera share one
    _resolve_offsets.  The report's status is non_decreasing_start (the
    start is already exact), gradient (residuals orthogonal to every
    Jacobian column to 1e-8), plateau (relative cost decrease below 1e-12),
    step (relative step below 1e-12) or max_iterations, and its iterations
    count the Jacobian evaluations.

    Raises TooFewCorrespondencesError when fewer than MIN_TRIPLES triples
    pass the gate at the start camera.
    """
    theta = _pack(theta0)
    lifts = lift_triples(poses, corrs.x0, corrs.x1, corrs.x2)
    m_obs = np.asarray(corrs.pixels, dtype=float)

    def measure_noise(usable):
        if not usable.any():
            return usable
        sens = noise_sensitivity(theta, corrs, poses)
        return usable & (sens > SENSITIVITY_CAP * float(np.median(sens[usable])))

    start, _, reason = _gate(theta, lifts, m_obs, measure_noise)
    frozen = reason == ""
    if frozen.sum() < MIN_TRIPLES:
        raise TooFewCorrespondencesError(
            f"{frozen.sum()} of {len(corrs)} triples pass the start gate; need {MIN_TRIPLES}"
        )
    noisy = reason == "noise_sensitive"
    mask_reasons = dict(Counter(reason[~frozen].tolist()))

    def finish(vec, status, iterations, cost0, cost):
        theta, camera = _unpack(vec, cost)
        _, surface, _ = _gate(theta, lifts, m_obs, lambda usable: noisy)
        return camera, surface, ConvergenceReport(status, iterations, cost0, cost, mask_reasons)

    # the view at the last camera: the solver asks for the Jacobian at the
    # point whose residuals it has just evaluated.  The last Jacobian is
    # kept apart: scipy asks for it once more at the solution after MINPACK
    # returns, and a rejected last trial has moved the view on from there.
    last = [start]
    last_jac = [None, None]

    def view_at(vec):
        if not np.array_equal(last[0].theta, vec):
            last[0] = _resolve_offsets(vec.copy(), lifts, m_obs)
        return last[0]

    def jacobian(vec):
        if last_jac[0] is None or not np.array_equal(last_jac[0], vec):
            view = view_at(vec)
            last_jac[:] = view.theta, _frozen_jacobian(view, lifts, m_obs, frozen)
        return last_jac[1]

    r0 = _frozen_residuals(start, m_obs, frozen)
    cost0 = float(r0 @ r0)
    if cost0 < 1e-16:
        return finish(theta, "non_decreasing_start", 0, cost0, cost0)

    fit = least_squares(
        lambda vec: _frozen_residuals(view_at(vec), m_obs, frozen),
        theta,
        jac=jacobian,
        method="lm",
        x_scale="jac",
        xtol=1e-12,
        ftol=1e-12,
    )
    return finish(fit.x, _LM_STATUS[fit.status], int(fit.njev), cost0, 2.0 * float(fit.cost))
