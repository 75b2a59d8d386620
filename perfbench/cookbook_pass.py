"""One cookbook pass in a fresh interpreter.

    python3 perfbench/cookbook_pass.py --seed N --out DIR [--trace-out FILE] SCENARIO...

Runs `ionctrl.cli.main(["run", SCENARIO, "--out", DIR, "--seed", N])` for
each scenario and prints one JSON line with the exit codes, the seconds the
scenarios took after the imports, and the time of the cookbook's calibration
kernels measured in this process around them.  With
--trace-out the layer wrappers are installed first and the tracer's summary is
written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("scenarios", nargs="+")
    args = parser.parse_args()

    import ionctrl.cli
    from calibration import calibrate
    from workloads import Cookbook

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer(run_id=f"cookbook-pass-{os.getpid()}")
        tracer.install()
    codes = {}
    # best of three: the interpreter has only just started
    cal_before = min(calibrate(Cookbook.CALIBRATION) for _ in range(3))
    t0 = time.perf_counter()
    with tracer.span("bench.child") if tracer else contextlib.nullcontext():
        for path in args.scenarios:
            with contextlib.redirect_stdout(io.StringIO()):
                code = ionctrl.cli.main(["run", path, "--out", args.out, "--seed", args.seed])
            codes[Path(path).stem] = code
    scenarios_s = time.perf_counter() - t0
    cal_s = 0.5 * (cal_before + min(calibrate(Cookbook.CALIBRATION) for _ in range(3)))
    if tracer:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    print(json.dumps({"exit_codes": codes, "scenarios_s": scenarios_s, "cal_s": cal_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
