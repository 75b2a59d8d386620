"""One benchmark run in a fresh interpreter: set-up, then the timed phase.

Started by run.py with the BLAS thread count pinned in the environment and
PERFBENCH_SPAWN set to the time.monotonic() at which the interpreter was
spawned, so that set-up is timed from a fresh interpreter to the first timed
call.  Prints one JSON line.

The load is a closed loop: one client issuing serial calls in one process.
The timed phase runs whole passes of the workload while another pass of
average length still fits in --seconds (always at least one), after the
workload's first pass if it has one; wall_s is the median pass time.  Around every pass it times the workload's calibration
kernels (calibration.py), which op_rel_p50 divides by.  With --trace
it instead runs the workload's TRACE_PASSES passes untraced, then the first
pass and the same passes again with the layer wrappers installed, so that the
per-layer counts repeat exactly for a seed and the tracing overhead is
measured on equal work.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ionctrl  # noqa: E402
from tracing import Tracer  # noqa: E402
from calibration import calibrate  # noqa: E402
from workloads import WORKLOADS, median  # noqa: E402


def _timed(workload, run, tracer, cal_before: float):
    """Run one pass; return its seconds, its checked operations and the
    calibration time measured after it."""
    t0 = time.perf_counter()
    if tracer is None:
        ops = run()
    else:
        with tracer.span("bench.pass"):
            ops = run(tracer)
    seconds = time.perf_counter() - t0
    cal_after = calibrate(workload.CALIBRATION)
    with tracer.pause() if tracer else contextlib.nullcontext():
        for op in ops:
            workload.check(op)
            op.payload = None
            op.cal = 0.5 * (cal_before + cal_after)
    return seconds, ops, cal_after


def timed_phase(workload, seconds: float, passes: int | None = None, tracer=None, first=True):
    """Run the first pass if the workload has one (and `first`), then passes;
    return the seconds of each pass and all operations."""
    pass_times, ops = [], []
    cal = calibrate(workload.CALIBRATION)
    run_first = getattr(workload, "first_pass", None) if first else None
    if run_first is not None:
        _, ops, cal = _timed(workload, run_first, tracer, cal)
    start = time.perf_counter()
    k = 0
    while True:
        pass_s, pass_ops, cal = _timed(workload, functools.partial(workload.run_pass, k), tracer, cal)
        pass_times.append(pass_s)
        ops += pass_ops
        k += 1
        elapsed = time.perf_counter() - start
        if passes is not None:
            if k >= passes:
                break
        elif elapsed + elapsed / k > seconds:
            break
    return pass_times, ops


def op_metrics(workload, ops) -> dict:
    """Operation times, raw and relative to the calibration kernel, plus the
    workload's own metrics, as {name: (value, unit, samples)}."""
    samples = workload.samples(ops)
    seconds = [s for s, _ in samples]
    relative = [s / c for s, c in samples]
    n = len(samples)
    metrics = {
        "op_rel_p50": (median(relative), "ratio", n),
        "op_s_p50": (median(seconds), "s", n),
    }
    metrics.update(workload.metrics(ops))
    # a traced run's untraced half has no first pass, hence no 28-state sample
    return {name: value for name, value in metrics.items() if value[2]}


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(tr: Tracer, overhead_s: float, steps: dict) -> dict:
    """Per-layer metrics of the traced passes, as {name: (value, unit)}."""
    oracle = "dynamics.propagate_timedep_oracle"
    lie_dim = tr.counts.get("liealg.dimension", 0)
    wall = tr.total_s("bench.pass")
    m = {
        "dynamics.propagate.calls": (tr.calls("dynamics.propagate"), "count"),
        "dynamics.propagate.self_s": (tr.self_s("dynamics.propagate"), "s"),
        "dynamics.propagate.us_per_call": (
            1e6 * _per(tr.total_s("dynamics.propagate"), tr.calls("dynamics.propagate")),
            "us",
        ),
        "dynamics.oracle.calls": (tr.calls(oracle), "count"),
        "dynamics.oracle.self_s": (tr.self_s(oracle), "s"),
        "dynamics.oracle.us_per_step": (1e6 * _per(tr.self_s(oracle), sum(steps.values())), "us"),
    }
    for dim in (24, 50):
        self_s = tr.paths.get((f"bench.schedule.d{dim}", oracle), (0, 0.0, 0.0))[2]
        m[f"dynamics.oracle.us_per_step.d{dim}"] = (1e6 * _per(self_s, steps.get(dim, 0)), "us")
    m.update(
        {
            "dynamics.law_eberly.self_s": (tr.self_s("dynamics.law_eberly_sequence"), "s"),
            "dynamics.self_s": (tr.layer_self_s("dynamics"), "s"),
            "optimize.self_s": (tr.layer_self_s("optimize"), "s"),
            "optimize.evals": (tr.path_calls("optimize.optimize", "dynamics.propagate"), "count"),
            "optimize.failed_evals": (tr.counts.get("optimize.failed_evals", 0), "count"),
            "optimize.score.self_s": (tr.self_s("optimize.Objective.score"), "s"),
            "model.control_raising.calls": (tr.calls("model.control_raising"), "count"),
            "model.self_s": (tr.layer_self_s("model"), "s"),
            "fock.displacement_element.calls": (tr.calls("fock.displacement_element"), "count"),
            "fock.self_s": (tr.layer_self_s("fock"), "s"),
            "liealg.self_s": (tr.layer_self_s("liealg"), "s"),
            "liealg.dimension": (lie_dim, "count"),
            "liealg.generations": (tr.counts.get("liealg.generations", 0), "count"),
            "liealg.dim_per_s": (_per(lie_dim, tr.total_s("liealg.dynamical_lie_algebra")), "1/s"),
            "graph.closed_subspace.calls": (tr.calls("graph.closed_subspace"), "count"),
            "graph.self_s": (tr.layer_self_s("graph"), "s"),
            "laguerre.calls": (tr.layer_calls("laguerre"), "count"),
            "laguerre.self_s": (tr.layer_self_s("laguerre"), "s"),
            "scenario.self_s": (tr.layer_self_s("scenario"), "s"),
            "scenario.emit.calls": (tr.calls("scenario.emit_scenario"), "count"),
            "csvio.write_csv.calls": (tr.calls("csvio.write_csv"), "count"),
            "csvio.self_s": (tr.layer_self_s("csvio"), "s"),
            "csvio.bytes": (tr.counts.get("csvio.bytes", 0), "B"),
            "cli.self_s": (tr.layer_self_s("cli"), "s"),
            "bench.self_s": (tr.layer_self_s("bench"), "s"),
            "trace.wall_s": (wall, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
    )
    return m


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ionctrl").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ionctrl": ionctrl.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    traced_ops = []
    try:
        if args.trace:
            passes = workload.TRACE_PASSES
            # the first pass (controllability's 45 s system) runs traced only,
            # so the overhead is measured on the regular passes
            untraced, ops = timed_phase(workload, args.seconds, passes=passes, first=False)
            tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
            tracer.install()
            try:
                traced, traced_ops = timed_phase(workload, args.seconds, passes=passes, tracer=tracer)
            finally:
                tracer.uninstall()
            steps: dict[int, int] = {}
            for op in traced_ops:
                if "steps" in op.counts and op.error is None:
                    steps[op.counts["dim"]] = steps.get(op.counts["dim"], 0) + op.counts["steps"]
            layers = layer_metrics(tracer, sum(traced) - sum(untraced), steps)
            accounted = sum(row[2] for row in tracer.stats.values())
            result["layers"] = layers
            result["accounting"] = {
                "traced_wall_s": layers["trace.wall_s"][0],
                "layer_and_bench_self_s": accounted,
            }
            tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-{args.seed}.json")
            pass_times = untraced
        else:
            pass_times, ops = timed_phase(workload, args.seconds)
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result.update(
        {
            "wall_s": float(np.median(pass_times)),
            "passes": len(pass_times),
            "peak_rss_mb": rss_kb / 1024.0,
            "metrics": {k: list(v) for k, v in op_metrics(workload, ops).items()},
            "attempted": len(ops) + len(traced_ops),
            "failed": sum(op.failed for op in ops + traced_ops),
            "known_defects": [op.error for op in ops + traced_ops if op.known_defect],
            "errors": [op.error for op in ops + traced_ops if op.error and not op.known_defect][:5],
            "check_failures": [f for op in ops + traced_ops for f in op.failures][:5],
            "env": environment(args.seed),
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
