"""Initial camera recovery from pixel/reflected-line incidences.

Each correspondence triple pins a 3D line: the lifted plane points of pose
0 and pose 2 (the widest separation) both lie on the reflected ray, and the
camera must project that line through the pixel that observed it.  The line
is the one plane_pose.Lifts decides; this module only reads it.  Stacking
the incidences gives a linear system in the 18 entries of the camera's line
projection matrix.

The camera comes from one route with two entry points:

- solve_constrained: the paper's analytic line projection matrix, solved
  with the intrinsics factored out by a diagonal column scaling so that
  the linear unknown is the line matrix of a metric camera [R T].  It is
  converted to point form and decoded to a pose, which Levenberg-Marquardt
  then polishes over (R, T) directly on the geometric point-to-line cost,
  with an analytic Jacobian: a line with direction w and moment v has the
  camera-frame moment m = R v - T x R w (the cross product of its two
  points after the camera moves them), whose image line is K^-T m.  Given
  a warm start the solve skips the SVD and the decode and runs the polish
  alone.
- focal_sweep: a coarse logarithmic grid over a shared focal length with
  the principal point pinned to the image center, using the constrained
  solve as the inner solver and the point-to-line cost as the objective,
  then Levenberg-Marquardt over (f, R, T) from the best sample.  Each
  sample is warm-started from its neighbor, so the decode runs only on a
  cold start: the first sample, or one after a failed neighbor.  The
  inner solves report no diagnostics; the estimate carries the focal grid
  and the cost curve.

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

The incidence matrix is n x 18 for n observations.  Its least singular
vector comes from linalg.right_singular, which triangularises it in NumPy
and hands LAPACK only the 18 x 18 R factor: a LAPACK factorization of the
tall matrix would wake OpenBLAS's thread pool, whose idle thread then
spins for about 130 ms after every cold start.

Lines are unit-normalized when observations are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    CheiralityUnresolvableError,
    DegenerateLineProjectionError,
    RankDeficientError,
    RankDeficientZError,
    SweepNoMinimumError,
    TooFewObservationsError,
)
from . import so3
from .linalg import right_singular
from .plane_pose import MIN_LIFT_SEPARATION_MM, lift_triples
from .plucker import (
    direction_of,
    dual,
    line_to_point_matrix,
    lines_from_points,
    moment_of,
    point_to_line_matrix,
    rescale_lines,
)
from .types import CalibrationEstimate, CorrespondenceSet, Intrinsics, PlanePosePair

MIN_OBSERVATIONS = 17
SWEEP_SPAN = (0.15, 10.0)  # focal range as multiples of the image diagonal
SWEEP_SAMPLES = 20


@dataclass(frozen=True)
class LineObservationSet:
    """Pixel/line incidence pairs feeding the camera solvers.

    pixels are homogeneous with third coordinate 1; lines are unit-norm
    6-vectors; indices map each item back to its source triple.
    """

    pixels: np.ndarray
    lines: np.ndarray
    indices: np.ndarray
    n_skipped: int = 0

    def __len__(self) -> int:
        return len(self.pixels)

    def centered(self, u0: float, v0: float) -> "LineObservationSet":
        """Same observations with the image origin moved to (u0, v0)."""
        px = self.pixels.copy()
        px[:, 0] -= u0
        px[:, 1] -= v0
        return LineObservationSet(px, self.lines, self.indices, self.n_skipped)


def build_observations(corrs: CorrespondenceSet, poses: PlanePosePair) -> LineObservationSet:
    """One (pixel, reflected-line) item per triple.

    The line is the one plane_pose.Lifts decides for the triple.  Triples
    whose pose-0 and pose-2 lifts are closer than MIN_LIFT_SEPARATION_MM
    (the line direction would be noise) or whose pixel is not finite are
    skipped; the skip count is kept on the result.
    """
    n = len(corrs)
    lifts = lift_triples(poses, corrs.x0, corrs.x1, corrs.x2)
    pixels = np.asarray(corrs.pixels, dtype=float)
    keep = (lifts.length >= MIN_LIFT_SEPARATION_MM) & np.isfinite(pixels).all(axis=1)
    lines = lines_from_points(lifts.p0[keep], lifts.p2[keep])
    lines /= np.linalg.norm(lines, axis=1, keepdims=True)
    pixels = np.hstack([pixels[keep], np.ones((int(keep.sum()), 1))])
    return LineObservationSet(
        pixels=pixels,
        lines=lines,
        indices=np.flatnonzero(keep),
        n_skipped=int(n - keep.sum()),
    )


def _incidence_rows(obs: LineObservationSet) -> np.ndarray:
    duals = dual(obs.lines)
    return (obs.pixels[:, :, None] * duals[:, None, :]).reshape(len(obs), 18)


def _world_scale(lines: np.ndarray) -> float:
    """Typical distance of the lines from the world origin."""
    dists = np.linalg.norm(moment_of(lines), axis=1) / np.linalg.norm(direction_of(lines), axis=1)
    rho = float(np.mean(dists))
    return rho if np.isfinite(rho) and rho > 1e-9 else 1.0


def _normalized_copy(obs: LineObservationSet):
    """Rescaled observations plus the scales that undo the rescale.

    Pixels are scaled about the origin, so a principal-point-centered
    origin stays put, and every line as if its points were divided by the
    world scale.  Returns (obs_n, s_pix, rho).
    """
    px = obs.pixels[:, :2]
    spread = np.mean(np.linalg.norm(px, axis=1))
    s_pix = np.sqrt(2.0) / spread if spread > 1e-12 else 1.0
    rho = _world_scale(obs.lines)
    obs_n = LineObservationSet(
        pixels=np.hstack([px * s_pix, np.ones((len(px), 1))]),
        lines=rescale_lines(obs.lines, rho),
        indices=obs.indices,
        n_skipped=obs.n_skipped,
    )
    return obs_n, s_pix, rho


def point_line_cost(line_matrix: np.ndarray, obs: LineObservationSet) -> float:
    """Sum of squared point-to-line distances in pixels squared.

    Each reflected line is projected to the image; the squared distance of
    its pixel from that 2D line is (x . l)^2 / (a^2 + b^2).  Items whose
    projected line has a vanishing direction part are excluded; if every
    item degenerates the cost is undefined and an error is raised.
    """
    img = obs.lines @ dual(line_matrix).T  # (n, 3) rows: projected lines
    ab2 = img[:, 0] ** 2 + img[:, 1] ** 2
    good = ab2 > 1e-20
    if not np.any(good):
        raise DegenerateLineProjectionError(
            "every projected line degenerates to a point"
        )
    num = np.einsum("ij,ij->i", obs.pixels[good], img[good]) ** 2
    return float(np.sum(num / ab2[good]))


def camera_line_matrix(
    intrinsics: Intrinsics, rotation: np.ndarray, translation: np.ndarray
) -> np.ndarray:
    """Line projection matrix of K[R T]."""
    p = intrinsics.matrix() @ np.hstack(
        [rotation, np.asarray(translation, dtype=float).reshape(3, 1)]
    )
    return point_to_line_matrix(p)


def _metric_decode(metric_lm: np.ndarray):
    """Scaled line matrix of lambda [R T] -> (R0, T0).

    Scale from the mean rotation-row norm, sign from the cheirality rule
    (world origin in front of the camera).
    """
    g = line_to_point_matrix(metric_lm)
    row_norms = np.linalg.norm(g[:, :3], axis=1)
    lam = float(np.mean(row_norms))
    if lam <= 0 or not np.isfinite(lam):
        raise RankDeficientZError("metric camera rows collapsed to zero")
    g = g / lam
    if g[2, 3] < 0:
        g = -g
    if abs(g[2, 3]) < 1e-9 * max(1.0, float(np.linalg.norm(g[:, 3]))):
        raise CheiralityUnresolvableError(
            "world origin sits in the camera's principal plane; sign of the "
            "camera cannot be fixed"
        )
    return so3.closest_rotation(g[:, :3]), g[:, 3].copy()


def _cross(p, q) -> np.ndarray:
    """p x q by components; p and q are 3-vectors or (3, n) column stacks.

    Spelled out because np.cross costs more than the arithmetic on the
    short stacks the camera refinement works with.
    """
    return np.array(
        [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]
    )


def _point_line_objective(fx: float, fy: float, obs: LineObservationSet):
    """Point-to-line residuals and their Jacobian, both in closed form.

    Returns (residuals, jacobian), functions of theta = (log f, axis-angle
    of R, T) for the camera diag(f, f aspect, 1)[R T] with aspect = fy / fx
    held fixed; the jacobian has one column per entry of theta.

    A line through p and q has direction w = p - q and moment v = p x q; the
    camera maps the points to R p + T and R q + T, whose cross product is
    the camera-frame moment m = R v - T x R w.  The image line is K^-T m,
    proportional to (m0, m1 / aspect, f m2), so a pixel (x0, x1, 1) lies at
    signed distance r = num / s from it, with num = x0 m0 + x1 m1 / aspect + f m2
    and s = sqrt(m0^2 + m1^2 / aspect^2).  With u = dr/dm = (g - (num / s^2) h) / s,
    g = (x0, x1 / aspect, f) and h = (m0, m1 / aspect^2, 0):
    dr/dT = u x R w, dr/dlog f = f m2 / s, and a left rotation increment
    dphi moves r by ((u x T) x R w - u x R v) . dphi, which the SO(3) left
    Jacobian carries to the axis-angle.  By the triple-product expansion
    that rotation gradient equals (dr/dT) x T - u x m, one cross product
    fewer.
    """
    aspect = fy / fx
    if not (np.isfinite(aspect) and aspect != 0.0):
        raise RankDeficientError(f"singular intrinsics: fx={fx!r}, fy={fy!r}")
    n = len(obs)
    x0 = obs.pixels[:, 0]
    x1 = obs.pixels[:, 1] / aspect
    # moments v then directions w, as columns, so one product rotates both
    vw = np.hstack([moment_of(obs.lines).T, direction_of(obs.lines).T])
    # state at the last theta: the solver asks for the Jacobian at the
    # point whose residuals it has just evaluated.  The last Jacobian is
    # kept apart: scipy asks for it once more at the solution after MINPACK
    # returns, and a rejected last trial has moved the state on from there.
    state: dict = {}
    last_jac: dict = {}

    def evaluate(theta):
        if state and np.array_equal(state["theta"], theta):
            return state
        f = np.exp(theta[0])
        # K R is invertible exactly when f is finite and positive
        if not (np.isfinite(f) and f > 0.0):
            raise RankDeficientError(f"singular camera: focal {f!r}")
        ab = so3.exp(theta[1:4]) @ vw
        b = ab[:, n:]
        m = ab[:, :n] - _cross(theta[4:], b)
        h1 = m[1] / (aspect * aspect)
        s = np.sqrt(m[0] * m[0] + m[1] * h1 + 1e-30)
        num = x0 * m[0] + x1 * m[1] + f * m[2]
        state.update(theta=theta.copy(), f=f, b=b, m=m, h1=h1, s=s, num=num)
        return state

    def residuals(theta):
        st = evaluate(theta)
        return st["num"] / st["s"]

    def jacobian(theta):
        if last_jac and np.array_equal(last_jac["theta"], theta):
            return last_jac["jac"]
        st = evaluate(theta)
        m, s = st["m"], st["s"]
        c = st["num"] / (s * s)
        u = np.array([(x0 - c * m[0]) / s, (x1 - c * st["h1"]) / s, st["f"] / s])
        d_t = _cross(u, st["b"])
        d_phi = _cross(d_t, theta[4:]) - _cross(u, m)
        jac = np.empty((n, 7))
        jac[:, 0] = st["f"] * m[2] / s
        jac[:, 1:4] = d_phi.T @ so3.left_jacobian(theta[1:4])
        jac[:, 4:] = d_t.T
        last_jac.update(theta=st["theta"], jac=jac)
        return jac

    return residuals, jacobian


def _refine_metric(fx: float, fy: float, obs: LineObservationSet, start, free_focal=False):
    """Levenberg-Marquardt over (R, T) on the point-to-line residuals.

    Parameters live on the rigid-motion manifold (axis-angle + translation)
    so directions that are not realizable by any metric camera cannot enter
    the solution.  With free_focal a shared log-focal joins the parameters
    (fy scaled in proportion).  Starts from start = (R, T) and returns
    (f, R, T, cost); the fit stops after 300 evaluations, 400 with
    free_focal.

    The solver gets the analytic Jacobian of _point_line_objective, which
    works on the camera-frame moment m = R v - T x R w of each line
    (direction w, moment v): the cross product of its two points once the
    camera has moved them.
    """
    residuals, jacobian = _point_line_objective(fx, fy, obs)
    theta0 = np.concatenate([[np.log(fx)], so3.log(start[0]), start[1]])
    # the log-focal leads theta; a fixed-focal fit holds it out of the solve
    held = theta0[: 0 if free_focal else 1]
    fit = least_squares(
        lambda q: residuals(np.concatenate([held, q])),
        theta0[len(held) :],
        jac=lambda q: jacobian(np.concatenate([held, q]))[:, len(held) :],
        method="lm",
        x_scale="jac",
        xtol=1e-12,
        ftol=1e-12,
        max_nfev=400 if free_focal else 300,
    )
    theta = np.concatenate([held, fit.x])
    return float(np.exp(theta[0])), so3.exp(theta[1:4]), theta[4:], 2.0 * float(fit.cost)


def _solve_constrained_scaled(fx_n, fy_n, obs_n, z_n, init=None):
    """Constrained solve in an already-rescaled frame; T stays in that frame.

    The refinement starts from init when given, else from the decode of the
    column-scaled incidence matrix's least singular vector; only that cold
    start takes the SVD and its rank test.  The SVD is right_singular's, so
    LAPACK sees only the 18 x 18 R factor and OpenBLAS's threads stay
    asleep; its padded R keeps the 18th right vector when the fewest
    observations give 17 rows.  Returns (R, T, cost) with the point-to-line
    cost in rescaled pixel units.
    """
    if init is None:
        d = np.concatenate([np.full(6, fy_n), np.full(6, fx_n), np.full(6, fx_n * fy_n)])
        s, vt = right_singular(z_n * d)
        if s[16] < 1e-12 * s[0]:
            raise RankDeficientZError(
                "incidence matrix leaves more than a scale ambiguity"
            )
        init = _metric_decode(vt[17].reshape(3, 6))
    _, rotation, translation, cost = _refine_metric(fx_n, fy_n, obs_n, init)
    if translation[2] < 0:
        raise CheiralityUnresolvableError(
            "refined camera places the world origin behind itself"
        )
    return rotation, translation, cost


def solve_constrained(
    fx: float,
    fy: float,
    obs_centered: LineObservationSet,
    init: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Metric camera (R, T) given focal lengths, principal point at origin.

    The line matrix of diag(fx,fy,1)[R T] equals diag(fy*6, fx*6, fxfy*6)
    applied to the line matrix of [R T] (row-major flattening), so scaling
    the incidence columns reduces the linear unknown to the metric camera
    itself.  Rigidity is restored from the row norms (|scale| from their
    mean, sign from requiring the world origin in front of the camera) and
    the decoded pose is then refined on the geometric cost by
    Levenberg-Marquardt with an analytic Jacobian.  An optional init (R, T)
    replaces the decoded start (the SVD and decode are then skipped), which
    lets a caller sweeping over focal lengths warm-start each solve from
    its neighbor's.

    Under heavy noise the solve is only as good as its start: the geometric
    cost at a fixed focal length has spurious attractors (a reflected and a
    reversed camera) and the algebraic decode can fall into them, in which
    case the result is valid (orthonormal, in front of the origin) but far
    from the truth.  focal_sweep is the robust entry point; it tracks the
    solution across focal lengths and the continuation escapes basins that
    a fixed-focal solve cannot.

    Returns (rotation, translation).
    """
    if len(obs_centered) < MIN_OBSERVATIONS:
        raise TooFewObservationsError(
            f"need at least {MIN_OBSERVATIONS} observations, got {len(obs_centered)}"
        )
    obs_n, s_pix, rho = _normalized_copy(obs_centered)
    z_n = _incidence_rows(obs_n)
    init_n = None if init is None else (init[0], np.asarray(init[1], dtype=float) / rho)
    rotation, t_n, _ = _solve_constrained_scaled(fx * s_pix, fy * s_pix, obs_n, z_n, init=init_n)
    return rotation, t_n * rho


def focal_sweep(obs: LineObservationSet, image_size: tuple[int, int]) -> CalibrationEstimate:
    """Best shared focal length with the principal point at the image center.

    Logarithmic grid of SWEEP_SAMPLES focal lengths spanning SWEEP_SPAN
    times the image diagonal.  Each constrained solve is started from its
    neighbor's solution; only the first, or one after a failed neighbor,
    decodes a cold start from the incidence matrix.  Levenberg-Marquardt
    over (f, R, T) then polishes the best sample.  The minimum must be
    interior to the grid; a monotone cost curve means the range does not
    contain the answer, or the lines come from the wrong mirror twin.

    The estimate's diagnostics hold the focal grid (f_grid), the cost of
    each sample in pixels squared (cost_curve, inf where the solve failed),
    n_observations and n_skipped.
    """
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

    def sweep_pass(order):
        # the warm start survives failed evaluations: a single bad focal
        # value must not cut the chain for everything after it
        warm = None
        for i in order:
            try:
                rotation, t_n, cost = _solve_constrained_scaled(
                    grid[i] * s_pix, grid[i] * s_pix, obs_n, z_n, init=warm
                )
            except (CheiralityUnresolvableError, RankDeficientZError):
                continue
            warm = (rotation, t_n)
            if cost < costs[i]:
                costs[i] = cost
                solutions[i] = warm

    sweep_pass(range(len(grid)))
    if not np.all(np.isfinite(costs)):
        sweep_pass(range(len(grid) - 1, -1, -1))
    best = int(np.argmin(costs))
    if not np.isfinite(costs[best]) or best == 0 or best == len(grid) - 1:
        raise SweepNoMinimumError(
            "no interior cost minimum in the focal range "
            f"[{f_lo:.1f}, {f_hi:.1f}] px"
        )

    # joint polish of (f, R, T): the free-focal solve takes f off the grid
    f_n, rotation, t_n, _ = _refine_metric(
        grid[best] * s_pix, grid[best] * s_pix, obs_n, solutions[best], free_focal=True
    )
    if t_n[2] <= 0:
        raise CheiralityUnresolvableError(
            "refined camera places the world origin behind itself"
        )
    f_best = f_n / s_pix
    translation = t_n * rho
    intr = Intrinsics(f_best, f_best, u0, v0)
    cost = point_line_cost(camera_line_matrix(intr, rotation, translation), obs)
    return CalibrationEstimate(
        intrinsics=intr,
        rotation=rotation,
        translation=translation,
        source="constrained",
        cost=cost,
        diagnostics={
            "f_grid": grid,
            "cost_curve": costs / (s_pix * s_pix),  # back to raw pixel units
            "n_observations": len(obs),
            "n_skipped": obs.n_skipped,
        },
    )
