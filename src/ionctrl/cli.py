"""Batch command-line front end.

    ionctrl run <scenario.yaml> [--out DIR] [--seed N]
    ionctrl validate <scenario.yaml>

Each run dispatches exactly one task, which computes its outputs as
`(suffix, columns, rows, extras)` tuples and writes nothing; `main` then
writes them as diff-able CSV (or YAML, where `columns` is None) whose
provenance headers echo the tool version, a hash of the fully-defaulted
scenario, the seed and the task's extras.  A refused or failed task
writes no file.  Outputs are byte-identical across reruns except for the
timestamp line.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import write_csv
from .dynamics import law_eberly_sequence, leakage, propagate, subspace_population
from .fock import BasisState, SPIN_DOWN, displacement_element
from .graph import build_graph, closed_subspace
from .laguerre import laguerre_curve, laguerre_zeros
from .liealg import SweepTooLargeError, controllability_verdict, dynamical_lie_algebra
from .model import _generators
from .optimize import Objective, SearchConfig, optimize, spin_fidelity, state_fidelity
from .scenario import (
    Scenario,
    ScenarioError,
    emit_scenario,
    parse_scenario,
    parse_spin_spec,
    parse_state_spec,
)


def _provenance(scenario: Scenario) -> dict:
    digest = hashlib.sha256(emit_scenario(scenario).encode("utf-8")).hexdigest()
    return {
        "tool": f"ionctrl {__version__}",
        "scenario_sha256": digest,
        "seed": scenario.seed,
        "task": scenario.task,
    }


def _write(scenario: Scenario, base: dict, suffix: str, columns, rows, extras: dict) -> Path:
    """Write one task output under the scenario's output prefix: a CSV
    table, or, where `columns` is None, the text `rows` under a header of
    raw `# key=value` lines."""
    provenance = {**base, **extras}
    if columns is not None:
        return write_csv(scenario.output + suffix, columns, rows, provenance)
    path = Path(scenario.output + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    header = "".join(
        f"# {k}={v}\n" for k, v in provenance.items()
    ) + f"# generated_utc={stamp.isoformat()}\n"
    path.write_text(header + rows, encoding="utf-8")
    return path


def _subspace(scenario: Scenario) -> list[int]:
    """Ascending basis indices of the task's `subspace`: every index for
    `full`, the closed component of |all-down, 0> for `closed`."""
    if scenario.task_params["subspace"] == "full":
        return list(range(scenario.model.basis.dimension))
    sub = closed_subspace(scenario.model, list(scenario.colors), threshold=scenario.threshold)
    if sub is None:
        raise ScenarioError("task.subspace: no finite closed subspace at this Lamb-Dicke parameter")
    return sub


def run_zeros(scenario: Scenario) -> list[tuple]:
    p = scenario.task_params
    # the curve is checked first: it is cheap, and the eigensolve is O(degree^3)
    xs = np.linspace(0.0, p["grid_max"], p["grid_points"])
    with np.errstate(over="ignore", invalid="ignore"):
        curve = laguerre_curve(p["degree"], p["order"], xs)
    if not np.isfinite(curve).all():
        raise ScenarioError(
            f"task.grid_max: L_{p['degree']}^{p['order']} overflows double precision "
            f"on [0, {p['grid_max']}]; lower grid_max"
        )
    try:
        roots = laguerre_zeros(p["degree"], p["order"])
    except ValueError as exc:
        raise ScenarioError(f"task.degree: {exc}") from exc
    extras = {"degree": p["degree"], "order": p["order"]}
    return [
        ("_zeros.csv", ["index", "root"], list(enumerate(roots)), extras),
        ("_curve.csv", ["x", "value"], curve, extras),
    ]


def run_matelem(scenario: Scenario) -> list[tuple]:
    model = scenario.model
    max_n = scenario.task_params["max_n"]
    eta = model.effective_eta(0)
    rows = []
    for n_to in range(max_n + 1):
        for n_from in range(max_n + 1):
            elem = displacement_element(n_to, n_from, eta)
            rows.append((n_to, n_from, elem.real, elem.imag, abs(elem)))
    extras = {"eta": eta, "max_n": max_n}
    return [("_matelem.csv", ["n_to", "n_from", "re", "im", "magnitude"], rows, extras)]


def run_graph(scenario: Scenario) -> list[tuple]:
    model = scenario.model
    graph = build_graph(model, list(scenario.colors), threshold=scenario.threshold)
    edge_rows = [(e.a, e.b, e.weight, e.color) for e in graph.edges]
    vertex_rows = [
        (i, state.spin_label(), state.phonon) for i, state in enumerate(graph.vertices)
    ]
    extras = {"threshold": scenario.threshold}
    return [
        ("_edges.csv", ["from_index", "to_index", "weight", "color_tag"], edge_rows, extras),
        ("_vertices.csv", ["index", "spins", "n"], vertex_rows, extras),
    ]


def run_liealg(scenario: Scenario) -> list[tuple]:
    p = scenario.task_params
    sub = _subspace(scenario)
    # built on the subspace's indices alone: a closed sweep holds no d x d operator
    *controls, drift = _generators(scenario.model, scenario.colors, sub)
    for k in controls:
        k += k.conj().T  # the raising half plus its adjoint
    try:
        result = dynamical_lie_algebra(
            drift, controls, tol=p.get("tol"), max_dim=p.get("max_dim")
        )
    except SweepTooLargeError as exc:
        raise ScenarioError(f"task.max_dim: {exc}") from exc
    verdict = controllability_verdict(result, len(sub))
    extras = {
        "subspace": p["subspace"],
        "space_dim": len(sub),
        "dimension": result.dimension,
        "saturated": result.saturated,
        "verdict": verdict,
    }
    columns = ["generation", "new_directions", "cumulative_dimension"]
    return [("_liealg.csv", columns, list(result.history), extras)]


def run_evolve(scenario: Scenario) -> list[tuple]:
    model = scenario.model
    p = scenario.task_params
    psi0 = parse_state_spec(p["initial"], model.basis, "task.initial")
    # found before propagating, so an unclosed subspace is refused first
    sub = _subspace(scenario) if "subspace" in p else None
    n = p["samples_per_segment"]
    with np.errstate(over="ignore", invalid="ignore"):
        traj = propagate(model, scenario.schedule(), psi0, samples_per_segment=n)
    finite = np.isfinite(traj.times) & np.isfinite(traj.states).all(axis=1)
    if not finite.all():
        # row 0 is the initial state, then n rows per segment
        seg = (int(np.argmin(finite)) - 1) // n
        raise ScenarioError(
            f"schedule.segments[{seg}]: its samples are not finite; lower its rabi or duration"
        )
    rows = []
    for t, state in zip(traj.times, traj.states):
        for i in np.nonzero(np.abs(state) > 1e-12)[0]:
            rows.append((float(t), int(i), state[i].real, state[i].imag))
    extras = {"samples_per_segment": n}
    outputs = [("_trajectory.csv", ["time", "index", "re_amp", "im_amp"], rows, extras)]
    if sub is not None:
        series = subspace_population(traj, sub)
        pop_rows = [(float(t), float(v)) for t, v in zip(traj.times, series)]
        extras = {"subspace_size": len(sub), "max_leakage": leakage(traj, sub)}
        outputs.append(("_population.csv", ["time", "subspace_population"], pop_rows, extras))
    return outputs


def run_laweberly(scenario: Scenario) -> list[tuple]:
    model = scenario.model
    target = parse_state_spec(scenario.task_params["target"], model.basis, "task.target")
    schedule = law_eberly_sequence(model, target)
    replay = propagate(model, schedule, model.basis.vector(BasisState((SPIN_DOWN,), 0)))
    fidelity = state_fidelity(replay.final, target)
    rows = [
        (
            i,
            seg.colors[0].target_ion,
            seg.colors[0].sideband,
            seg.colors[0].rabi,
            seg.colors[0].phase,
            seg.duration,
        )
        for i, seg in enumerate(schedule.segments)
    ]
    extras = {"segments": len(schedule.segments), "replay_fidelity": fidelity}
    columns = ["segment", "ion", "sideband", "rabi", "phase", "duration"]
    return [("_laweberly.csv", columns, rows, extras)]


def run_optimize(scenario: Scenario) -> list[tuple]:
    try:  # the best pulse's scenario records the output path as text
        scenario.output.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ScenarioError(f"--out: the output path is not valid UTF-8 ({exc.reason})") from exc
    model = scenario.model
    p = scenario.task_params
    initial = parse_state_spec(p["initial"], model.basis, "task.initial")
    if p["objective"] == "state":
        target = parse_state_spec(p["target"], model.basis, "task.target")
        objective = Objective(kind="state_fidelity", target=target, initial=initial)
    else:
        target = parse_spin_spec(p["target_spin"], model.basis.ion_count, "task.target_spin")
        objective = Objective(
            kind="spin_fidelity",
            target=target,
            initial=initial,
            purity_floor=p["purity_floor"],
        )
    search = SearchConfig(**{f.name: p[f.name] for f in fields(SearchConfig)})
    best, score, history = optimize(model, scenario.colors, objective, search, seed=scenario.seed)

    schedule = best.to_schedule(scenario.colors)
    final = propagate(model, schedule, initial).final
    if p["objective"] == "state":
        extras = {"best_score": score, "fidelity": state_fidelity(final, target)}
    else:
        fid, purity = spin_fidelity(final, target, model.basis)
        extras = {"best_score": score, "fidelity": fid, "purity": purity}

    rows = [
        (h.generation, h.best_score, h.mean_score, h.mutation_scale) for h in history
    ]
    columns = ["generation", "best_score", "mean_score", "mutation_scale"]

    # best pulse re-emitted as a runnable evolve scenario
    n_colors = len(scenario.colors)
    replay = Scenario(
        model=model,
        colors=tuple(c for seg in schedule.segments for c in seg.colors),
        segments=tuple(
            (tuple(range(s * n_colors, (s + 1) * n_colors)), seg.duration)
            for s, seg in enumerate(schedule.segments)
        ),
        task="evolve",
        task_params={"initial": p["initial"], "samples_per_segment": 20},
        output=scenario.output + "_replay",
        seed=scenario.seed,
        threshold=scenario.threshold,
    )
    return [
        ("_optlog.csv", columns, rows, extras),
        ("_best.yaml", None, emit_scenario(replay), extras),
    ]


_RUNNERS = {
    "zeros": run_zeros,
    "matelem": run_matelem,
    "graph": run_graph,
    "liealg": run_liealg,
    "evolve": run_evolve,
    "laweberly": run_laweberly,
    "optimize": run_optimize,
}


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    return parse_scenario(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ionctrl",
        description="Trapped-ion qubit/oscillator control toolkit (batch scenarios).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its outputs")
    run_p.add_argument("scenario", help="scenario YAML file")
    run_p.add_argument("--out", help="directory overriding the output prefix location")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")

    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("scenario", help="scenario YAML file")

    args = parser.parse_args(argv)

    try:
        scenario = _load_scenario(args.scenario)
        if args.command == "validate":
            summary = f"task={scenario.task}, seed={scenario.seed}, output={scenario.output}"
            print(f"scenario OK: {summary}")
            return 0
        if args.seed is not None and args.seed < 0:
            raise ScenarioError("--seed: must be nonnegative")
        output = scenario.output
        if args.out is not None:
            output = str(Path(args.out) / Path(scenario.output).name)
        scenario = scenario.with_overrides(output=output, seed=args.seed)
        outputs = _RUNNERS[scenario.task](scenario)
        base = _provenance(scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        paths = [_write(scenario, base, *out) for out in outputs]
    except OSError as exc:
        field = "output" if args.out is None else "--out"
        print(f"error: {field}: cannot write: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
