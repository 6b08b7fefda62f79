"""Benchmark workloads: the inputs each one builds and the operation it times.

Every solver operation is composed from the package's public functions and
never looks at ground truth; the ground truth in the generated data is used
by ``score`` only.  All calls go through module attributes
(``plane_pose.estimate_plane_poses``, not a name imported here) so that the
tracer can wrap them without editing the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specsurf import crossratio, plane_pose, projection, sim
from specsurf.errors import SpecsurfError
from specsurf.types import CalibrationEstimate, CorrespondenceSet, NoiseSpec, SurfaceEstimate

# Simulator seed of the one noise draw every noisy solver workload uses.
# The solvers' work depends on the draw: at grid 4, refine took 27 to 200
# LM iterations (6 to 34 s) over eight draws, and even the row order of one
# draw moves it between 37 and 44 by roundoff, so per-seed inputs would
# turn input variance into timing spread that no run length absorbs.
SOLVER_NOISE_SEED = 0
NOISY = {"sigma_mm": 0.5, "gamma_px": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "chain", "surface" or "simulate"
    grid: int
    sigma_mm: float = 0.0
    gamma_px: float = 0.0
    k1: float = 0.0

    @property
    def noisy(self) -> bool:
        return self.sigma_mm > 0 or self.gamma_px > 0 or self.k1 != 0


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-clean-g20", "chain", 20),
        Workload("chain-noisy-g8", "chain", 8, **NOISY),
        Workload("surface-g4", "surface", 4, **NOISY),
        Workload("simulate-g2", "simulate", 2, k1=0.01, **NOISY),
    )
}


@dataclass
class Inputs:
    """Everything an operation and its scoring need, built before timing."""

    scene: sim.MirrorScene
    noise: NoiseSpec
    data: CorrespondenceSet | None = None  # solver workloads
    rig: CalibrationEstimate | None = None  # surface workload
    clean: tuple | None = None  # simulate: trace_pixels output over the grid
    reference: CorrespondenceSet | None = None  # simulate: warm-up output


@dataclass
class Reconstruction:
    """Result of one solver operation.

    outcomes has one entry per plane-pose candidate, in candidate order:
    "kept", "accepted" (a camera the chain did not keep) or the name of the
    SpecsurfError that rejected it.
    """

    poses: plane_pose.PoseSolution
    outcomes: list[str]
    start: CalibrationEstimate  # camera handed to refine
    camera: CalibrationEstimate
    surface: SurfaceEstimate
    report: crossratio.ConvergenceReport


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Inputs of workload w for benchmark seed ``seed``.

    simulate-g2 draws its noise from the seed, which leaves its work
    unchanged.  The solver workloads' inputs are the same for every seed:
    clean data, or the fixed draw SOLVER_NOISE_SEED, in simulator order.
    """
    scene = sim.default_two_sphere_scene()
    if w.kind == "simulate":
        noise = NoiseSpec(w.sigma_mm, w.gamma_px, w.k1, seed=seed)
        clean = sim.trace_pixels(scene, sim.grid_pixels(scene.image_size, w.grid))
        return Inputs(scene=scene, noise=noise, clean=clean)
    noise = NoiseSpec(w.sigma_mm, w.gamma_px, w.k1, seed=SOLVER_NOISE_SEED)
    data = sim.generate_dataset(scene, w.grid, noise)
    rig = None
    if w.kind == "surface":
        rig = CalibrationEstimate(
            intrinsics=scene.intrinsics,
            rotation=scene.camera_pose.rotation,
            translation=scene.camera_pose.translation,
            source="rig",
        )
    return Inputs(scene=scene, noise=noise, data=data, rig=rig)


def reconstruct_chain(data: CorrespondenceSet, image_size) -> Reconstruction:
    """Correspondences to surface with no calibration and no ground truth.

    Every plane-pose candidate gets its own focal sweep; a SpecsurfError
    from the sweep rejects that candidate.  The accepted camera with the
    lowest point-to-line cost is refined.
    """
    poses = plane_pose.estimate_plane_poses(data)
    outcomes: list[str] = []
    best = None
    error: SpecsurfError | None = None
    for i, candidate in enumerate(poses.candidates):
        obs = projection.build_observations(data, candidate)
        try:
            camera = projection.focal_sweep(obs, image_size)
        except SpecsurfError as exc:
            outcomes.append(type(exc).__name__)
            error = exc
            continue
        outcomes.append("accepted")
        if best is None or camera.cost < best[0].cost:
            best = (camera, i)
    if best is None:
        raise error
    start, kept = best
    outcomes[kept] = "kept"
    camera, surface, report = crossratio.refine(start, data, poses.candidates[kept])
    return Reconstruction(poses, outcomes, start, camera, surface, report)


def reconstruct_with_rig(data: CorrespondenceSet, rig: CalibrationEstimate) -> Reconstruction:
    """Surface from a calibrated camera: the twin with the lower
    point-to-line cost at the rig camera is refined."""
    poses = plane_pose.estimate_plane_poses(data)
    lines = projection.camera_line_matrix(rig.intrinsics, rig.rotation, rig.translation)
    costs = [
        projection.point_line_cost(lines, projection.build_observations(data, candidate))
        for candidate in poses.candidates
    ]
    kept = int(np.argmin(costs))
    outcomes = ["discarded"] * len(costs)
    outcomes[kept] = "kept"
    camera, surface, report = crossratio.refine(rig, data, poses.candidates[kept])
    return Reconstruction(poses, outcomes, rig, camera, surface, report)


def run_op(w: Workload, inputs: Inputs):
    """The timed operation of workload w."""
    if w.kind == "simulate":
        return sim.generate_dataset(inputs.scene, w.grid, inputs.noise)
    if w.kind == "chain":
        return reconstruct_chain(inputs.data, inputs.scene.image_size)
    return reconstruct_with_rig(inputs.data, inputs.rig)


def warm_up(w: Workload, inputs: Inputs) -> None:
    """One untimed operation before timing starts.

    simulate-g2 runs the whole operation and keeps its output as the
    same-seed reference.  A solver operation costs 8 to 60 s, so the solver
    workloads run its first stage, whose SVD pays the one-off start of the
    BLAS threads (about 0.3 s).
    """
    if w.kind == "simulate":
        inputs.reference = run_op(w, inputs)
    else:
        plane_pose.estimate_plane_poses(inputs.data)
