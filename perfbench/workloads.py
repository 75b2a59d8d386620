"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `__init__` (the
set-up phase), runs one *pass* of operations in `run_pass(k)` and checks the
operations of that pass in `check(op)`, outside the timed region.  A pass is
the seed's fixed list of operations; worker.py repeats passes while its time
allows; an optional `first_pass()` runs once before them.  Calls into ionctrl
go through module attributes (`ic.optimize`, `ic.propagate`, ...) so that the
tracer's wrappers see them.

bell_search      seeded `optimize` searches on the optimize_bell problem
rwa_audit        weak bichromatic schedules through the oracle and `propagate`
controllability  the acceptance-criterion-4 Lie-algebra verdicts
cookbook         every cookbook scenario but optimize_bell through the CLI,
                 one fresh interpreter per pass
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import ionctrl as ic
from tracing import DiscardCounter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
WORK = ROOT / ".perfbench"

# eta^2 at the smallest zero of L_6^1, as written in the cookbook scenarios
ETA_SQ_L61 = 0.5276681217111285


@dataclass
class Op:
    """One operation of a pass: its time, work counts and check outcome."""

    kind: str
    seconds: float
    counts: dict = field(default_factory=dict)
    error: str | None = None  # raised by the program
    known_defect: bool = False  # the raise is a named known defect
    failures: list = field(default_factory=list)  # failed correctness checks
    payload: object = None  # what the check needs; dropped after checking
    cal: float = float("nan")  # calibrate() seconds around the op's pass

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


def one_ion(eta: float, cutoff: int, ldl: bool = False) -> ic.SystemModel:
    return ic.SystemModel(
        trap=ic.TrapConfig(1.0, eta),
        ions=(ic.IonConfig(),),
        basis=ic.TruncatedBasis(1, cutoff),
        ldl=ldl,
    )


def two_ion(eta: float, cutoff: int) -> ic.SystemModel:
    return ic.SystemModel(
        trap=ic.TrapConfig(1.0, eta, (1.0, 1.0)),
        ions=(ic.IonConfig(), ic.IonConfig()),
        basis=ic.TruncatedBasis(2, cutoff),
    )


def ground(model: ic.SystemModel) -> np.ndarray:
    return model.basis.vector(ic.BasisState((0,) * model.basis.ion_count, 0))


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


# ---------------------------------------------------------------------------


class BellSearch:
    """Two ions, cutoff 8 (d = 32), blue/blue/carrier, 4 segments, spin Bell
    target: the optimize_bell problem at a fixed generation budget.  Each
    operation is one search with a seed drawn from the workload seed.  The
    budget is short so that a run holds dozens of searches; every search
    evaluates its candidates exactly as a long one does."""

    name = "bell_search"
    CALIBRATION = ("eigh", "python")
    GENERATIONS = 8
    TRACE_PASSES = 10

    def __init__(self, seed: int):
        self.model = two_ion(math.sqrt(ETA_SQ_L61), 8)
        self.colors = (
            ic.FieldColor(0, "blue"),
            ic.FieldColor(1, "blue"),
            ic.FieldColor(0, "carrier"),
        )
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        self.objective = ic.Objective(
            kind="spin_fidelity", target=bell, initial=ground(self.model), purity_floor=0.99
        )
        self.search = ic.SearchConfig(
            omega_max=0.2,
            t_max=200.0,
            segments=4,
            generations=self.GENERATIONS,
            restart_after=60,
        )
        self.search_seeds = np.random.default_rng(seed).integers(0, 2**31, size=1000)
        self.discards = DiscardCounter()

    def run_pass(self, k: int, tracer=None) -> list[Op]:
        discarded = self.discards.count
        t0 = time.perf_counter()
        params, score, history = ic.optimize(
            self.model, self.colors, self.objective, self.search, seed=int(self.search_seeds[k])
        )
        seconds = time.perf_counter() - t0
        counts = {
            "evals": checks.count_evaluations(history, self.search),
            "discarded": self.discards.count - discarded,
        }
        return [Op("search", seconds, counts, payload=(params, score, history))]

    def check(self, op: Op) -> None:
        params, score, history = op.payload
        op.failures = checks.check_bell(
            self.model, self.colors, self.objective, params, score, history
        )

    def samples(self, ops: list[Op]) -> list[tuple[float, float]]:
        """(seconds, calibration seconds) of each operation: a candidate evaluation."""
        return [(op.seconds / op.counts["evals"], op.cal) for op in ops]

    def metrics(self, ops: list[Op]) -> dict:
        per_eval = [op.seconds / op.counts["evals"] for op in ops]
        return {
            "search.evals_per_s": (1.0 / median(per_eval), "1/s", len(ops)),
            "search.evals": (sum(op.counts["evals"] for op in ops), "count", len(ops)),
            "search.discarded": (sum(op.counts["discarded"] for op in ops), "count", len(ops)),
        }


# ---------------------------------------------------------------------------


def _schedule(entry: dict) -> ic.PulseSchedule:
    return ic.PulseSchedule(
        segments=tuple(
            ic.Segment(
                colors=tuple(
                    ic.FieldColor(0, sideband, rabi=rabi, phase=phase)
                    for sideband, rabi, phase in seg["colors"]
                ),
                duration=seg["duration"],
            )
            for seg in entry["segments"]
        )
    )


def oracle_steps(schedule: ic.PulseSchedule, dt: float) -> int:
    """Integrator steps of a converged oracle run: the pass at dt and the one at dt/2."""
    return sum(
        max(1, math.ceil(seg.duration / step))
        for seg in schedule.segments
        for step in (dt, dt / 2)
    )


class RwaAudit:
    """Weak carrier + blue schedules (rabi/mode_freq in [0.01, 0.05], 1-3
    segments, one ion at the L_6^1 zero) through the converged oracle and the
    RWA propagator.  Rounds of PER_ROUND schedules are drawn from the recorded
    pool, and each pass runs the next schedule of the current round, so that
    the calibration kernels are timed around every schedule.  A round holds
    eight at cutoff 12 (d = 24, one time unit each) and one at cutoff 25
    (d = 50, the cutoff of evolve_closed_subspace) lasting one drive period
    2 pi / mode_freq, so that it meets every drive phase; on some of those
    steps numpy's eigh raises LinAlgError (the known oracle defect).  The
    oracle rebuilds its manifold terms per segment, so a schedule's cost
    grows with its segment count; drawing the d = 24 schedules by segment
    count (two with one, four with two, two with three) makes the median
    schedule a two-segment one whatever the seed."""

    name = "rwa_audit"
    CALIBRATION = ("eigh", "python")
    DT = 0.005
    # cutoff -> {segment count (None: any): schedules per round}
    PER_ROUND = {"12": {1: 2, 2: 4, 3: 2}, "25": {None: 1}}
    TRACE_PASSES = 18

    def __init__(self, seed: int):
        pool = checks.load_json(DATA / "rwa_pool.json")
        if pool["dt"] != self.DT:
            raise ValueError("rwa pool was recorded at another dt")
        eta = math.sqrt(ETA_SQ_L61)
        self.models = {cutoff: one_ion(eta, int(cutoff)) for cutoff in self.PER_ROUND}
        self.psi0 = {cutoff: ground(m) for cutoff, m in self.models.items()}
        self.pool = {
            cutoff: [(entry, _schedule(entry)) for entry in pool["entries"][cutoff]]
            for cutoff in self.PER_ROUND
        }
        self.round_size = sum(n for draws in self.PER_ROUND.values() for n in draws.values())
        self.rng = np.random.default_rng(seed)
        self.rounds: list[list] = []

    def _round(self, r: int) -> list:
        while len(self.rounds) <= r:
            picks = []
            for cutoff, draws in self.PER_ROUND.items():
                for n_seg, n in draws.items():
                    group = [
                        item for item in self.pool[cutoff]
                        if n_seg is None or len(item[0]["segments"]) == n_seg
                    ]
                    for i in self.rng.choice(len(group), size=n, replace=False):
                        picks.append((cutoff,) + group[int(i)])
            self.rounds.append([picks[int(i)] for i in self.rng.permutation(len(picks))])
        return self.rounds[r]

    def run_pass(self, k: int, tracer=None) -> list[Op]:
        cutoff, entry, schedule = self._round(k // self.round_size)[k % self.round_size]
        model, psi0 = self.models[cutoff], self.psi0[cutoff]
        counts = {
            "sim_time": schedule.total_time,
            "steps": oracle_steps(schedule, self.DT),
            "dim": model.basis.dimension,
        }
        op = Op("schedule", 0.0, counts)
        span = tracer.span(f"bench.schedule.d{counts['dim']}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                exact = ic.propagate_timedep_oracle(
                    model, schedule, psi0, dt=self.DT, check_convergence=True
                )
                rwa = ic.propagate(model, schedule, psi0)
            op.payload = (entry, exact.final, rwa.final)
        except np.linalg.LinAlgError as exc:
            # known defect: numpy's eigh fails to converge on some oracle steps
            op.error, op.known_defect = f"LinAlgError: {exc}", True
        except (ValueError, RuntimeError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        return [op]

    def check(self, op: Op) -> None:
        if op.payload is not None:
            op.failures = checks.check_audit(*op.payload)

    def samples(self, ops: list[Op]) -> list[tuple[float, float]]:
        """One schedule through the oracle and the RWA propagator."""
        return [(op.seconds, op.cal) for op in ops]

    def metrics(self, ops: list[Op]) -> dict:
        done = [op for op in ops if op.error is None]
        sim = sum(op.counts["sim_time"] for op in done)
        d50 = [op.seconds for op in ops if op.counts["dim"] == 50]
        return {
            "audit.schedule_s_p50": (median([op.seconds for op in ops]), "s", len(ops)),
            "audit.d50_schedule_s_p50": (median(d50), "s", len(d50)),
            "audit.sim_time_per_s": (sim / sum(op.seconds for op in ops), "(1/mode_freq)/s", len(ops)),
        }


# ---------------------------------------------------------------------------


class Controllability:
    """The acceptance-criterion-4 systems: the one-ion 14-state closed subspace
    (cutoff 20), the LDL ladders at cutoffs 6, 8 and 10, and the two-ion
    28-state subspace (cutoff 16).  Controls carry seeded phases
    (e^{i phi} K + h.c.), which must not change any verdict.  A pass is the
    small set (14-state and LDL 6/8/10); the 28-state system, about 45 s with
    one BLAS thread, runs once per run as the first pass, so that the peak RSS
    it sets follows the same allocations in every run."""

    name = "controllability"
    CALIBRATION = ("gemm", "python")
    SMALL = ("one_ion_14", "ldl_6", "ldl_8", "ldl_10")
    TRACE_PASSES = 3
    EXPECTED = {
        "one_ion_14": {"subspace": 14, "dimension": 196, "verdict": "controllable"},
        "ldl_6": {"subspace": None, "dimension": 144, "verdict": "controllable"},
        "ldl_8": {"subspace": None, "dimension": 256, "verdict": "controllable"},
        "ldl_10": {"subspace": None, "dimension": 400, "verdict": "controllable"},
        "two_ion_28": {"subspace": 28, "dimension": 784, "verdict": "controllable"},
    }

    def __init__(self, seed: int):
        eta = math.sqrt(ETA_SQ_L61)
        bichromatic = (ic.FieldColor(0, "carrier"), ic.FieldColor(0, "blue"))
        self.systems = {
            "one_ion_14": (one_ion(eta, 20), bichromatic),
            "ldl_6": (one_ion(0.1, 6, ldl=True), bichromatic),
            "ldl_8": (one_ion(0.1, 8, ldl=True), bichromatic),
            "ldl_10": (one_ion(0.1, 10, ldl=True), bichromatic),
            "two_ion_28": (
                two_ion(eta, 16),
                (ic.FieldColor(0, "blue"), ic.FieldColor(1, "blue"), ic.FieldColor(0, "carrier")),
            ),
        }
        self.rng = np.random.default_rng(seed)
        self.phases: list[dict] = []  # per pass, one phase vector per system

    def _verdict(self, name: str, phases) -> Op:
        model, colors = self.systems[name]
        t0 = time.perf_counter()
        subspace = ic.closed_subspace(model, list(colors))
        drift = ic.build_drift(model)
        controls = []
        for color, phi in zip(colors, phases):
            k = np.exp(1j * phi) * ic.control_raising(model, color)
            controls.append(k + k.conj().T)
        if subspace is not None:
            idx = np.ix_(subspace, subspace)
            drift, controls = drift[idx], [c[idx] for c in controls]
        result = ic.dynamical_lie_algebra(drift, controls)
        verdict = ic.controllability_verdict(result, drift.shape[0])
        seconds = time.perf_counter() - t0
        counts = {"dimension": result.dimension, "generations": result.generations}
        return Op(name, seconds, counts, payload=(subspace, result.dimension, verdict))

    def _phases(self, k: int) -> list:
        while len(self.phases) <= k:
            self.phases.append(
                {n: self.rng.uniform(0.0, 2 * np.pi, size=len(c)) for n, (_, c) in self.systems.items()}
            )
        return self.phases[k]

    def run_pass(self, k: int, tracer=None) -> list[Op]:
        phases = self._phases(k)
        return [self._verdict(name, phases[name]) for name in self.SMALL]

    def first_pass(self, tracer=None) -> list[Op]:
        return [self._verdict("two_ion_28", self._phases(0)["two_ion_28"])]

    def check(self, op: Op) -> None:
        op.failures = checks.check_controllability(self.EXPECTED[op.kind], *op.payload)

    def samples(self, ops: list[Op]) -> list[tuple[float, float]]:
        """One small set: the 14-state and LDL 6/8/10 verdicts of one pass."""
        small = [op for op in ops if op.kind != "two_ion_28"]
        n = len(self.SMALL)
        return [
            (sum(op.seconds for op in small[i : i + n]), small[i].cal)
            for i in range(0, len(small) - n + 1, n)
        ]

    def metrics(self, ops: list[Op]) -> dict:
        small_sets = [s for s, _ in self.samples(ops)]
        large = [op for op in ops if op.kind == "two_ion_28"]
        return {
            "lie.small_s": (median(small_sets), "s", len(small_sets)),
            "lie.two_ion_28_s": (median([op.seconds for op in large]), "s", len(large)),
            "lie.two_ion_28_rel": (median([op.seconds / op.cal for op in large]), "ratio", len(large)),
        }


# ---------------------------------------------------------------------------


class Cookbook:
    """Every scenarios/*.yaml except optimize_bell through
    `ionctrl.cli.main(["run", ..., "--seed", seed])`; each pass runs in a fresh
    interpreter (perfbench/cookbook_pass.py), so a pass pays the cold import
    and caches a CLI user pays.  The operation is the nine scenarios, timed and
    calibrated inside that interpreter after its imports, which setup_s covers:
    process start-up does not follow the calibration kernels."""

    name = "cookbook"
    CALIBRATION = ("python",)
    TRACE_PASSES = 5
    SKIP = ("optimize_bell",)

    def __init__(self, seed: int):
        from ionctrl.scenario import parse_scenario

        self.scenarios = sorted(
            p for p in (ROOT / "scenarios").glob("*.yaml") if p.stem not in self.SKIP
        )
        for path in self.scenarios:
            parse_scenario(path.read_text(encoding="utf-8"))
        self.pass_seeds = np.random.default_rng(seed).integers(0, 2**31, size=1000)
        self.out = WORK / f"cookbook-{os.getpid()}"

    def run_pass(self, k: int, tracer=None) -> list[Op]:
        if self.out.exists():
            shutil.rmtree(self.out)
        cmd = [
            sys.executable,
            str(HERE / "cookbook_pass.py"),
            "--seed",
            str(int(self.pass_seeds[k])),
            "--out",
            str(self.out),
        ]
        if tracer is not None:
            cmd += ["--trace-out", str(self.out.with_suffix(".trace.json"))]
        cmd += [str(p) for p in self.scenarios]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        op = Op("pass", seconds)
        if proc.returncode != 0:
            op.error = f"pass interpreter exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
            return [op]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        op.counts = {key: result[key] for key in ("scenarios_s", "cal_s")}
        op.payload = result["exit_codes"]
        if tracer is not None:
            child = checks.load_json(self.out.with_suffix(".trace.json"))
            tracer.merge(child)
            tracer.cover_child(child["stats"]["bench.child"][1])
        return [op]

    def check(self, op: Op) -> None:
        if op.payload is not None:
            op.failures = checks.check_cookbook(self.out, DATA / "cookbook", op.payload)

    def samples(self, ops: list[Op]) -> list[tuple[float, float]]:
        """The nine scenarios of one pass, after the interpreter's imports."""
        done = [op for op in ops if op.error is None]
        return [(op.counts["scenarios_s"], op.counts["cal_s"]) for op in done]

    def metrics(self, ops: list[Op]) -> dict:
        return {
            "cookbook.pass_s": (median([op.seconds for op in ops]), "s", len(ops)),
        }

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.with_suffix(".trace.json").unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (BellSearch, RwaAudit, Controllability, Cookbook)}
