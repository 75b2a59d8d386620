"""Batch command-line front end.

    ionctrl run <scenario.yaml> [--out DIR] [--seed N]
    ionctrl validate <scenario.yaml>

Each run dispatches exactly one task and writes diff-able CSV (or YAML)
outputs whose provenance headers echo the tool version, a hash of the
fully-defaulted scenario, and the seed.  Outputs are byte-identical
across reruns except for the timestamp line.
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
from .fock import BasisState, SPIN_DOWN
from .graph import build_graph, closed_subspace
from .laguerre import laguerre_curve, laguerre_zeros
from .liealg import SweepTooLargeError, controllability_verdict, dynamical_lie_algebra
from .model import build_control, build_drift
from .optimize import Objective, SearchConfig, optimize, spin_fidelity, state_fidelity
from .scenario import (
    Scenario,
    ScenarioError,
    emit_scenario,
    parse_scenario,
    parse_spin_spec,
    parse_state_spec,
)


def _provenance(scenario: Scenario, **extras) -> dict:
    digest = hashlib.sha256(emit_scenario(scenario).encode("utf-8")).hexdigest()
    base = {
        "tool": f"ionctrl {__version__}",
        "scenario_sha256": digest,
        "seed": scenario.seed,
        "task": scenario.task,
    }
    base.update(extras)
    return base


def _closed_subspace(scenario: Scenario) -> list[int]:
    sub = closed_subspace(scenario.model, list(scenario.colors), threshold=scenario.threshold)
    if sub is None:
        raise ScenarioError("task.subspace: no finite closed subspace at this Lamb-Dicke parameter")
    return sub


def run_zeros(scenario: Scenario) -> list[Path]:
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
    prov = _provenance(scenario, degree=p["degree"], order=p["order"])
    return [
        write_csv(scenario.output + "_zeros.csv", ["index", "root"], list(enumerate(roots)), prov),
        write_csv(scenario.output + "_curve.csv", ["x", "value"], curve, prov),
    ]


def run_matelem(scenario: Scenario) -> list[Path]:
    from .fock import displacement_element

    model = scenario.model
    max_n = scenario.task_params["max_n"]
    eta = model.effective_eta(0)
    rows = []
    for n_to in range(max_n + 1):
        for n_from in range(max_n + 1):
            elem = displacement_element(n_to, n_from, eta)
            rows.append((n_to, n_from, elem.real, elem.imag, abs(elem)))
    prov = _provenance(scenario, eta=eta, max_n=max_n)
    return [
        write_csv(
            scenario.output + "_matelem.csv",
            ["n_to", "n_from", "re", "im", "magnitude"],
            rows,
            prov,
        )
    ]


def run_graph(scenario: Scenario) -> list[Path]:
    model = scenario.model
    graph = build_graph(model, list(scenario.colors), threshold=scenario.threshold)
    prov = _provenance(scenario, threshold=scenario.threshold)
    edge_rows = [(e.a, e.b, e.weight, e.color) for e in graph.edges]
    vertex_rows = [
        (i, state.spin_label(), state.phonon) for i, state in enumerate(graph.vertices)
    ]
    return [
        write_csv(
            scenario.output + "_edges.csv",
            ["from_index", "to_index", "weight", "color_tag"],
            edge_rows,
            prov,
        ),
        write_csv(
            scenario.output + "_vertices.csv", ["index", "spins", "n"], vertex_rows, prov
        ),
    ]


def run_liealg(scenario: Scenario) -> list[Path]:
    model = scenario.model
    p = scenario.task_params
    drift = build_drift(model)
    controls = [build_control(model, c) for c in scenario.colors]
    if p["subspace"] == "closed":
        sub = _closed_subspace(scenario)
        idx = np.array(sub)
        drift = drift[np.ix_(idx, idx)]
        controls = [c[np.ix_(idx, idx)] for c in controls]
        space_dim = len(sub)
    else:
        space_dim = model.basis.dimension
    try:
        result = dynamical_lie_algebra(
            drift, controls, tol=p.get("tol"), max_dim=p.get("max_dim")
        )
    except SweepTooLargeError as exc:
        raise ScenarioError(f"task.max_dim: {exc}") from exc
    verdict = controllability_verdict(result, space_dim)
    prov = _provenance(
        scenario,
        subspace=p["subspace"],
        space_dim=space_dim,
        dimension=result.dimension,
        saturated=result.saturated,
        verdict=verdict,
    )
    return [
        write_csv(
            scenario.output + "_liealg.csv",
            ["generation", "new_directions", "cumulative_dimension"],
            list(result.history),
            prov,
        )
    ]


def run_evolve(scenario: Scenario) -> list[Path]:
    model = scenario.model
    p = scenario.task_params
    psi0 = parse_state_spec(p["initial"], model.basis, "task.initial")
    traj = propagate(
        model, scenario.schedule(), psi0, samples_per_segment=p["samples_per_segment"]
    )
    rows = []
    for t, state in zip(traj.times, traj.states):
        for i in np.nonzero(np.abs(state) > 1e-12)[0]:
            rows.append((float(t), int(i), state[i].real, state[i].imag))
    prov = _provenance(scenario, samples_per_segment=p["samples_per_segment"])
    paths = [
        write_csv(
            scenario.output + "_trajectory.csv",
            ["time", "index", "re_amp", "im_amp"],
            rows,
            prov,
        )
    ]
    if "subspace" in p:
        if p["subspace"] == "closed":
            sub = _closed_subspace(scenario)
        else:
            sub = list(range(model.basis.dimension))
        series = subspace_population(traj, sub)
        pop_rows = [(float(t), float(v)) for t, v in zip(traj.times, series)]
        pop_prov = _provenance(
            scenario, subspace_size=len(sub), max_leakage=leakage(traj, sub)
        )
        paths.append(
            write_csv(
                scenario.output + "_population.csv",
                ["time", "subspace_population"],
                pop_rows,
                pop_prov,
            )
        )
    return paths


def run_laweberly(scenario: Scenario) -> list[Path]:
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
    prov = _provenance(
        scenario, segments=len(schedule.segments), replay_fidelity=fidelity
    )
    return [
        write_csv(
            scenario.output + "_laweberly.csv",
            ["segment", "ion", "sideband", "rabi", "phase", "duration"],
            rows,
            prov,
        )
    ]


def run_optimize(scenario: Scenario) -> list[Path]:
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

    prov = _provenance(scenario, **extras)
    rows = [
        (h.generation, h.best_score, h.mean_score, h.mutation_scale) for h in history
    ]
    paths = [
        write_csv(
            scenario.output + "_optlog.csv",
            ["generation", "best_score", "mean_score", "mutation_scale"],
            rows,
            prov,
        )
    ]

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
    best_path = Path(scenario.output + "_best.yaml")
    best_path.parent.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    header = "".join(
        f"# {k}={v}\n" for k, v in prov.items()
    ) + f"# generated_utc={stamp.isoformat()}\n"
    best_path.write_text(header + emit_scenario(replay), encoding="utf-8")
    paths.append(best_path)
    return paths


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
        paths = _RUNNERS[scenario.task](scenario.with_overrides(output=output, seed=args.seed))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
