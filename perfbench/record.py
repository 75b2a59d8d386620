"""Record the reference data the correctness checks compare against.

    python3 perfbench/record.py rwa        # perfbench/data/rwa_pool.json
    python3 perfbench/record.py cookbook   # perfbench/data/cookbook/

Run from the repository root at the commit whose outputs are the reference
(the data in this directory was recorded at the commit that introduced the
benchmark).  Re-recording replaces the reference, so a change that moves an
output must say why in its changelog.

rwa: a fixed pool of weak carrier + blue schedules, generated from POOL_SEED.
For each schedule it stores the converged oracle's final state at dt (which
the oracle computes at dt/2), the oracle-RWA distance, and the oracle's own
dt-halving drift: the distance between that result and the oracle's first
pass at dt.  A schedule on which the oracle raises is stored with the error.
The workload draws its schedules from this pool.

cookbook: the outputs of every deterministic cookbook scenario (all but the
two optimize scenarios, whose outputs depend on the seed), minus the
timestamp line.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ionctrl as ic  # noqa: E402
import ionctrl.cli  # noqa: E402
from ionctrl.csvio import strip_timestamp  # noqa: E402
from ionctrl.dynamics import _oracle_final_state  # noqa: E402

POOL_SEED = 20040107
DT = 0.005
# cutoff -> (schedules in the pool, total duration of each schedule).  The
# d = 50 schedules last one period 2 pi / mode_freq of the off-resonant terms,
# so they meet every drive phase of the oracle's Hamiltonian; the d = 24 ones
# are short, so that a run holds many of them.
STRATA = {"12": (96, 1.0), "25": (48, 2 * math.pi)}
RABI = (0.01, 0.05)  # rabi / mode_freq, mode_freq = 1
ETA_SQ_L61 = 0.5276681217111285


def generate_pool() -> dict:
    entries = {}
    for cutoff, (count, total) in STRATA.items():
        rng = np.random.default_rng([POOL_SEED, int(cutoff)])
        entries[cutoff] = []
        for _ in range(count):
            n_seg = int(rng.integers(1, 4))
            cuts = np.sort(rng.uniform(0.0, total, size=n_seg - 1))
            bounds = np.concatenate([[0.0], cuts, [total]])
            segments = [
                {
                    "duration": float(b - a),
                    "colors": [
                        [sideband, float(rng.uniform(*RABI)), float(rng.uniform(0.0, 2 * np.pi))]
                        for sideband in ("carrier", "blue")
                    ],
                }
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            entries[cutoff].append({"segments": segments})
    return {"seed": POOL_SEED, "dt": DT, "eta_sq": ETA_SQ_L61, "entries": entries}


def record_rwa() -> None:
    sys.path.insert(0, str(HERE))
    from workloads import _schedule, one_ion, ground

    pool = generate_pool()
    for cutoff, entries in pool["entries"].items():
        model = one_ion(math.sqrt(ETA_SQ_L61), int(cutoff))
        psi0 = ground(model)
        for i, entry in enumerate(entries):
            schedule = _schedule(entry)
            try:
                fine = ic.propagate_timedep_oracle(model, schedule, psi0, dt=DT).final
            except np.linalg.LinAlgError as exc:
                entry["raises"] = f"LinAlgError: {exc}"
                print(f"cutoff {cutoff} #{i}: {entry['raises']}", flush=True)
                continue
            # the oracle's own first pass at DT, which it compares with the
            # returned DT/2 result; it ran without error inside the call above
            coarse = _oracle_final_state(model, schedule, psi0, DT)[-1][1]
            rwa = ic.propagate(model, schedule, psi0).final
            entry["state_re"] = fine.real.tolist()
            entry["state_im"] = fine.imag.tolist()
            entry["distance"] = float(np.linalg.norm(fine - rwa))
            entry["drift"] = float(np.linalg.norm(fine - coarse))
            print(
                f"cutoff {cutoff} #{i}: distance {entry['distance']:.6e} drift {entry['drift']:.3e}",
                flush=True,
            )
    (HERE / "data" / "rwa_pool.json").write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")


def record_cookbook() -> None:
    target = HERE / "data" / "cookbook"
    target.mkdir(parents=True, exist_ok=True)
    scratch = ROOT / ".perfbench" / "record"
    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        if path.stem.startswith("optimize_"):
            continue
        with redirect_stdout(io.StringIO()) as printed:
            code = ionctrl.cli.main(["run", str(path), "--out", str(scratch), "--seed", "0"])
        if code != 0:
            raise SystemExit(f"{path.name}: exit code {code}")
        for line in printed.getvalue().split():
            out = Path(line)
            text = strip_timestamp(out.read_text(encoding="utf-8")) + "\n"
            (target / out.name).write_text(text, encoding="utf-8")
            out.unlink()


if __name__ == "__main__":
    {"rwa": record_rwa, "cookbook": record_cookbook}[sys.argv[1]]()
