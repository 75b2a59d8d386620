"""ionctrl benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Workloads: bell_search,
rwa_audit, controllability, cookbook (see perfbench/README.md).

The run happens in a child interpreter (perfbench/worker.py) with the BLAS
thread count pinned to BLAS_THREADS; SETUP_SAMPLES - 1 further interpreters
only do the set-up, and setup_s is the median of all set-up times.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The lines before it give every metric with its unit
and sample count, the failed share, and the run environment; the full record
is also written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bell_search", "rwa_audit", "controllability", "cookbook")
BLAS_THREADS = "1"
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20
END_TO_END = ("setup_s", "op_rel_p50", "peak_rss_mb")


def spawn(args: list[str], timeout: float) -> dict:
    """Run the worker in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the whole machine's memory, and with them
    # the peak RSS of one input moved from 124 to 171 MB within an hour
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    # own process group, so that a timeout also stops the worker's children
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "ionctrl" / "__init__.py").is_file():
        print(f"error: no ionctrl sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        run = spawn(common + ["--trace", str(args.trace)], RUN_TIMEOUT_S)
        setups = [run["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(common + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (run["wall_s"], "s", run["passes"]),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }
    metrics.update({name: tuple(v) for name, v in run["metrics"].items()})
    attempted, failed = run["attempted"], run["failed"]
    # a raise of a named known defect is a failed operation, not a wrong output
    correct = not run["errors"] and not run["check_failures"]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(run["env"], sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<16} n={n}")
    print(f"  {'failed_share':<24} {failed / attempted:>14.6g} {'ratio of ops':<16} n={attempted}")
    for message in run["known_defects"][:3]:
        print(f"  known defect: {message}")
    for message in run["errors"] + run["check_failures"]:
        print(f"  FAILED: {message}")

    if args.trace:
        for name, (value, unit) in run["layers"].items():
            print(f"  {name:<36} {value:>14.6g} {unit}")
        acc = run["accounting"]
        print(
            f"  accounting: layer + bench self time {acc['layer_and_bench_self_s']:.6f} s"
            f" of traced wall {acc['traced_wall_s']:.6f} s"
        )
        reported = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
    else:
        reported = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in END_TO_END}

    record = {**run, "workload": args.workload, "trace": args.trace, "metrics": metrics}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
