"""specsurf benchmark: one workload, timed end to end or per layer.

    python3 specbench/run.py --workload surface-g4 --seed 0 --seconds 10 --trace 0

The package is imported from ``src/`` beside this directory, so nothing
needs installing; without it the run fails before printing a result.  The
run builds its inputs from the seed, sets up, then repeats the workload's operation until ``--seconds``
have passed (at least once; with ``--trace 1`` at least one untraced and
one traced op, alternating).  Every op is scored against simulator ground
truth.  It prints a readable report, then as its last line one JSON object
with the keys correct, attempted, failed and metrics: BENCHMARK.json's
end_to_end metrics with ``--trace 0``, its per_layer metrics with
``--trace 1``.  The full report, with the spans of a traced run, is written
to ``specbench/out/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # setup_s counts from here: imports, inputs, warm-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))  # the package is benchmarked from its sources

import score  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from specsurf.errors import SpecsurfError  # noqa: E402

# set-ups measured per run: this process's own and that of fresh processes
# started after the timed ops, which stop after set-up
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
ACCURACY_UNITS = {"focal_rel_err": "1", "cam_rot_deg": "deg", "point_rms_mm": "mm", "normal_med_deg": "deg", "valid_frac": "1"}
# share of a traced op's wall time its top-level stage spans must cover
COVERAGE_MIN = 0.99


@dataclass
class Op:
    id: str
    traced: bool
    wall_s: float
    cpu_s: float
    result: object = None
    error: str | None = None  # exception type name when the op raised
    untyped: bool = False  # raised something other than a SpecsurfError
    score: object = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run_ops(w, inputs, seconds, tracer):
    """Repeat the op until `seconds` have passed; score each one untimed."""
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline or (tracer and len(ops) < 2):
        traced = tracer is not None and len(ops) % 2 == 1
        op = Op(id=f"op{len(ops)}", traced=traced, wall_s=math.nan, cpu_s=math.nan)
        if traced:
            tracer.op = op.id
        with tracer.installed() if traced else contextlib.nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                with tracer.span("op") if traced else contextlib.nullcontext():
                    op.result = workloads.run_op(w, inputs)
            except Exception as exc:  # the op boundary: record the failure, keep going
                op.error = type(exc).__name__
                op.untyped = not isinstance(exc, SpecsurfError)
                traceback.print_exc(file=sys.stderr)
            op.wall_s = time.perf_counter() - t0
            op.cpu_s = time.process_time() - cpu0
        if op.error is None:
            if w.kind == "simulate":
                op.score = score.score_simulation(op.result, inputs)
            else:
                op.score = score.score_reconstruction(op.result, inputs.data, inputs.scene, clean=not w.noisy)
        ops.append(op)
    return ops


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes, started one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def tail_percentile(values):
    """Highest of p50/p90/p99 with at least ten samples above it, else None."""
    values = sorted(values)
    for q in (99, 90, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return q, values[min(len(values) - 1, math.ceil(len(values) * q / 100) - 1)]
    return None


def _blas_threads():
    """Thread count of each OpenBLAS the process loaded, by file name."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "specsurf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end_metrics(ops, setups) -> dict[str, float]:
    timed = [op for op in ops if not op.traced and op.error is None]
    scored = [op.score.reported for op in ops if op.score is not None]
    return {
        "op_s": statistics.median(op.wall_s for op in timed),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(op.cpu_s for op in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "valid_frac": statistics.median(s["valid_frac"] for s in scored),
        "point_rms_mm": statistics.median(s["point_rms_mm"] for s in scored),
        "normal_med_deg": statistics.median(s["normal_med_deg"] for s in scored),
    }


def print_report(w, args, ops, e2e, layers, units, env):
    """The readable part of the output, one metric per line with its unit."""
    failed = [op for op in ops if op.error is not None]
    wrong = [op for op in ops if op.score is not None and not op.score.passed]
    timed = [op.wall_s for op in ops if not op.traced and op.error is None]
    print(f"specbench {w.name} seed {args.seed}: {len(ops)} ops, {len(failed)} failed, {len(wrong)} incorrect")
    for op in failed:
        print(f"  {op.id} raised {op.error}{' (not a SpecsurfError)' if op.untyped else ''}")
    for op in wrong:
        print(f"  {op.id} incorrect: {'; '.join(op.score.failures)}")
    rows = []
    if e2e:
        name = "simulate_s" if w.kind == "simulate" else "reconstruct_s"
        rows.append((name, e2e["op_s"], "s", f"median of {len(timed)} ops"))
        tail = tail_percentile(timed)
        if tail:
            rows.append((f"{name}.p{tail[0]}", tail[1], "s", ""))
        rows += [
            ("setup_s", e2e["setup_s"], "s", f"median of {SETUP_REPEATS} set-ups"),
            ("cpu_s", e2e["cpu_s"], "s", "process CPU per op"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MiB", ""),
        ]
    rows.append(("fail_frac", len(failed) / len(ops), "1", f"{len(failed)} of {len(ops)}"))
    scored = [op.score.reported for op in ops if op.score is not None]
    keys = ["point_rms_mm", "normal_med_deg", "valid_frac"]
    if w.kind != "simulate":
        keys = ["focal_rel_err", "cam_rot_deg"] + keys
    exact = w.kind == "simulate" or not w.noisy
    for key in keys:
        if scored:
            note = "inside its gate an error reads as the gate" if exact and key != "valid_frac" else ""
            rows.append((key, statistics.median(s[key] for s in scored), ACCURACY_UNITS[key], note))
    for key, value in sorted(layers.items()):
        rows.append((key, value, units.get(key, ""), ""))
    for name, value, unit, note in rows:
        print(f"  {name:36s} {value:14.6g} {unit:5s} {note}")
    if layers:
        traced_s = statistics.median(op.wall_s for op in ops if op.traced and op.error is None)
        covered = 1.0 - layers["trace.uncovered_s"] / traced_s
        print(f"  top-level stage spans cover {covered:.2%} of the traced ops' wall time")
        if covered < COVERAGE_MIN:
            print(f"specbench: stage spans cover only {covered:.2%} of op time", file=sys.stderr)
    statuses = sorted({op.result.report.status for op in ops if hasattr(op.result, "report")})
    if statuses:
        print(f"  crossratio.status: {', '.join(statuses)}")
    print(f"  environment: {json.dumps(env)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"specbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        inputs = workloads.make_inputs(w, args.seed)
        workloads.warm_up(w, inputs)
    setup_s = time.perf_counter() - START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = run_ops(w, inputs, args.seconds, tracer)
    failed = sum(op.error is not None for op in ops)
    untraced_ok = [op for op in ops if not op.traced and op.error is None]
    if not untraced_ok:
        print("specbench: every timed op failed; no metric to report", file=sys.stderr)
        return 1

    e2e, layers = {}, {}
    if tracer:
        traced = [(op.id, op.result, op.score) for op in ops if op.traced and op.error is None]
        if not traced:
            print("specbench: every traced op failed; no metric to report", file=sys.stderr)
            return 1
        layers = tracing.layer_metrics(tracer, traced)
        data = inputs.data if inputs.data is not None else untraced_ok[0].result
        layers["sim.triples"] = len(data)
        layers["chain.untyped_errors"] = sum(op.untyped for op in ops)
        traced_wall = statistics.median(op.wall_s for op in ops if op.traced and op.error is None)
        layers["trace_overhead_frac"] = traced_wall / statistics.median(op.wall_s for op in untraced_ok) - 1.0
        listed = spec["per_layer"]
        values = layers
    else:
        e2e = end_to_end_metrics(ops, [setup_s] + probe_setups(args))
        listed = spec["end_to_end"]
        values = e2e

    env = environment()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_report(w, args, ops, e2e, layers, units, env)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "ops": [
            {
                "id": op.id,
                "traced": op.traced,
                "wall_s": op.wall_s,
                "cpu_s": op.cpu_s,
                "error": op.error,
                "untyped": op.untyped,
                "outcomes": getattr(op.result, "outcomes", None),
                "status": getattr(getattr(op.result, "report", None), "status", None),
                "lm_iterations": getattr(getattr(op.result, "report", None), "iterations", None),
                "errors": op.score.errors if op.score else None,
                "failures": op.score.failures if op.score else None,
            }
            for op in ops
        ],
        "end_to_end": e2e,
        "per_layer": layers,
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1, default=float))
    if tracer:
        tracer.write(Path(f"{stem}-spans.json"))

    metrics = {}
    for m in listed:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            print(f"specbench: metric {m['name']} is not finite", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = all(op.score.passed for op in ops if op.score is not None)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
