"""Spans and counters recorded from outside the package.

While installed, the tracer replaces module-level names in ``sim``,
``plane_pose``, ``projection`` and ``crossratio`` with wrappers that record
a span (name, start, end, parent, op id) per call; the package itself is
not edited.  The only counter sits at the scipy boundary: the
``least_squares`` name that ``projection`` imports, whose calls and
function evaluations are added to every open span.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from specsurf import crossratio, plane_pose, projection, sim

LAYER_CALLS = (
    (sim, "generate_dataset", "sim.generate"),
    (sim, "trace_pixels", "sim.trace"),
    (plane_pose, "estimate_plane_poses", "plane_pose.estimate"),
    (plane_pose, "build_design_matrix", "plane_pose.design"),
    (plane_pose, "nullspace_basis", "plane_pose.nullspace"),
    (plane_pose, "refine_plane_poses", "plane_pose.polish"),
    (projection, "build_observations", "projection.build_obs"),
    (projection, "point_line_cost", "projection.point_line_cost"),
    (projection, "focal_sweep", "projection.sweep"),
    (crossratio, "refine", "crossratio.refine"),
    (crossratio, "noise_sensitivity", "crossratio.sensitivity"),
)

# every reason crossratio gives for masking a triple
MASK_REASONS = (
    "behind_camera",
    "coincident_lift",
    "coincident_pixels",
    "degenerate_cross_ratio",
    "degenerate_normal",
    "noise_sensitive",
    "noncollinear_lift",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    lsq_calls: int = 0
    nfev: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def _traced(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fit = fn(*args, **kwargs)
            for index in self._open:
                self.spans[index].lsq_calls += 1
                self.spans[index].nfev += int(fit.nfev)
            return fit

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layer calls for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in LAYER_CALLS]
        saved.append((projection, "least_squares", projection.least_squares))
        for module, attr, name in LAYER_CALLS:
            setattr(module, attr, self._traced(getattr(module, attr), name))
        projection.least_squares = self._counted(projection.least_squares)
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


# figures of a reconstruction; they read 0 on an op that reconstructs nothing
_RECONSTRUCTION_KEYS = (
    "plane_pose.candidates",
    "plane_pose.gap_ratio",
    "crossratio.lm_iterations",
    "crossratio.masked",
    *(f"crossratio.masked.{reason}" for reason in MASK_REASONS),
    "projection.sweep_focal_rel_err",
    "projection.sweep_rot_deg",
    "crossratio.focal_drift_rel",
    "crossratio.focal_rel_err",
    "crossratio.cam_rot_deg",
)


def _sum(spans, name) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _sim_metrics(spans: list[Span]) -> dict[str, float]:
    """Simulator timings from the ops' datasets, else from set-up's."""
    generated = [s for s in spans if s.name == "sim.generate" and s.op != "setup"]
    generated = generated or [s for s in spans if s.name == "sim.generate"]
    if not generated:
        return {"sim.generate_s": 0.0, "sim.trace_s": 0.0, "sim.noise_s": 0.0}
    gen, trace = [], []
    for g in generated:
        parent = spans.index(g)
        gen.append(g.seconds)
        trace.append(sum(s.seconds for s in spans if s.name == "sim.trace" and s.parent == parent))
    return {
        "sim.generate_s": statistics.median(gen),
        "sim.trace_s": statistics.median(trace),
        "sim.noise_s": statistics.median(g - t for g, t in zip(gen, trace)),
    }


def _op_metrics(spans: list[Span], op_index: int, result, score) -> dict[str, float]:
    """Per-layer figures of one traced op; a layer the op skips reads 0."""
    op_span = spans[op_index]
    inside = [s for s in spans if s.op == op_span.op]
    top = [s for s in spans if s.parent == op_index]
    m = {
        "plane_pose.estimate_s": _sum(inside, "plane_pose.estimate"),
        "plane_pose.nullspace_s": _sum(inside, "plane_pose.design") + _sum(inside, "plane_pose.nullspace"),
        "plane_pose.polish_s": _sum(inside, "plane_pose.polish"),
        "plane_pose.polish_calls": _count(inside, "plane_pose.polish"),
        "projection.build_obs_s": _sum(inside, "projection.build_obs"),
        "projection.sweep_s": _sum(inside, "projection.sweep"),
        "crossratio.refine_s": _sum(inside, "crossratio.refine"),
        "crossratio.sensitivity_s": _sum(inside, "crossratio.sensitivity"),
        "trace.uncovered_s": op_span.seconds - sum(s.seconds for s in top),
    }
    sweeps = [s for s in inside if s.name == "projection.sweep"]
    outcomes = getattr(result, "outcomes", [])
    if sweeps and len(sweeps) != len(outcomes):
        raise RuntimeError("the chain sweeps every candidate once, in candidate order")
    m.update({f"projection.{k}.{side}": 0 for k in ("lsq_calls", "nfev") for side in ("accepted", "rejected")})
    m["projection.sweep_rejected_s"] = 0.0
    for s, outcome in zip(sweeps, outcomes):
        side = "accepted" if outcome in ("kept", "accepted") else "rejected"
        m[f"projection.lsq_calls.{side}"] += s.lsq_calls
        m[f"projection.nfev.{side}"] += s.nfev
        if outcome != "kept":
            m["projection.sweep_rejected_s"] += s.seconds
    m["projection.twin_useful_ratio"] = 1.0 / len(sweeps) if sweeps else 0.0

    m.update({key: 0 for key in _RECONSTRUCTION_KEYS})
    if hasattr(result, "surface"):
        reasons = list(result.surface.invalid_reason.values())
        m["plane_pose.candidates"] = len(result.poses.candidates)
        m["plane_pose.gap_ratio"] = result.poses.gap_ratio
        m["crossratio.lm_iterations"] = result.report.iterations
        m["crossratio.masked"] = len(reasons)
        for reason in MASK_REASONS:
            m[f"crossratio.masked.{reason}"] = reasons.count(reason)
        for key in ("sweep_focal_rel_err", "sweep_rot_deg"):
            m[f"projection.{key}"] = score.reported[key]
        for key in ("focal_drift_rel", "focal_rel_err", "cam_rot_deg"):
            m[f"crossratio.{key}"] = score.reported[key]
    return m


def layer_metrics(tracer: Tracer, traced_ops) -> dict[str, float]:
    """Medians over the traced ops of every per-layer figure.

    traced_ops holds (op id, result, score) for each traced op that
    returned.  Simulator figures come from set-up when the op does not
    simulate.
    """
    op_index = {s.op: i for i, s in enumerate(tracer.spans) if s.name == "op"}
    per_op = [_op_metrics(tracer.spans, op_index[op], result, score) for op, result, score in traced_ops]
    out = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]} if per_op else {}
    out.update(_sim_metrics(tracer.spans))
    return out
