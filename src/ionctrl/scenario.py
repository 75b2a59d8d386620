"""Scenario files: YAML parsing, validation and canonical emission.

A scenario holds one model, a list of colors, an optional schedule whose
segments reference colors by index, and exactly one task.  Parsing fills
every default so the canonical emission is a fixed point:
emit(parse(emit(s))) == emit(s) byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .dynamics import PulseSchedule, Segment
from .fock import BasisState, TruncatedBasis
from .model import FieldColor, IonConfig, SIDEBANDS, SystemModel, TrapConfig

__all__ = ["ScenarioError", "Scenario", "parse_scenario", "emit_scenario", "TASKS"]

TASKS = ("zeros", "matelem", "graph", "liealg", "evolve", "laweberly", "optimize")

_BELL_AMP = float(1.0 / np.sqrt(2.0))


class ScenarioError(ValueError):
    """Parse or validation failure, naming the offending field."""


@dataclass(frozen=True)
class Scenario:
    model: SystemModel
    colors: tuple[FieldColor, ...]
    segments: tuple[tuple[tuple[int, ...], float], ...]
    task: str
    task_params: dict
    output: str
    seed: int
    threshold: float

    def schedule(self) -> PulseSchedule:
        segs = []
        for color_indices, duration in self.segments:
            segs.append(
                Segment(colors=tuple(self.colors[i] for i in color_indices), duration=duration)
            )
        return PulseSchedule(segments=tuple(segs))

    def with_overrides(self, output: str | None = None, seed: int | None = None) -> "Scenario":
        out = self.output if output is None else output
        sd = self.seed if seed is None else seed
        return replace(self, output=out, seed=sd)


def _fail(field: str, message: str):
    raise ScenarioError(f"{field}: {message}")


def _finite(value, field: str) -> float:
    """A finite real number as float; bools, non-numbers, NaN and inf fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(field, f"expected a finite number, got {value!r}")
    return number


def _get(mapping, field, kind, context, default=None, required=False):
    if not isinstance(mapping, dict):
        _fail(context, "expected a mapping")
    if field not in mapping:
        if required:
            _fail(f"{context}.{field}", "missing required field")
        return default
    value = mapping[field]
    if kind is float:
        return _finite(value, f"{context}.{field}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"{context}.{field}", f"expected an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            _fail(f"{context}.{field}", f"expected true/false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            _fail(f"{context}.{field}", f"expected a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            _fail(f"{context}.{field}", f"expected a list, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            _fail(f"{context}.{field}", f"expected a mapping, got {value!r}")
        return value
    raise AssertionError(kind)


def _check_unknown(mapping: dict, allowed, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            _fail(f"{context}.{key}", "unknown field")


def parse_state_spec(entries, basis: TruncatedBasis, context: str) -> np.ndarray:
    """[[spins, n, re, im], ...] -> normalized full-basis vector."""
    if not isinstance(entries, list) or not entries:
        _fail(context, "expected a nonempty list of [spins, n, re, im] entries")
    vec = np.zeros(basis.dimension, dtype=complex)
    for k, entry in enumerate(entries):
        where = f"{context}[{k}]"
        if not isinstance(entry, list) or len(entry) != 4:
            _fail(where, "expected [spins, n, re, im]")
        spins_str, n, re_amp, im_amp = entry
        if not isinstance(spins_str, str) or len(spins_str) != basis.ion_count:
            _fail(where, f"spins must be a {basis.ion_count}-character d/u string")
        if any(c not in "du" for c in spins_str):
            _fail(where, "spins may contain only 'd' and 'u'")
        if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n < basis.fock_cutoff:
            _fail(where, f"phonon number must be an integer in [0, {basis.fock_cutoff})")
        spins = tuple(0 if c == "d" else 1 for c in spins_str)
        amp = complex(_finite(re_amp, where), _finite(im_amp, where))
        vec[basis.index(BasisState(spins=spins, phonon=n))] += amp
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-6:
        _fail(context, f"state is not normalized (norm {norm:.9f})")
    return vec / norm


def parse_spin_spec(entries, ion_count: int, context: str) -> np.ndarray:
    """[[spins, re, im], ...] -> normalized spin-space vector."""
    if not isinstance(entries, list) or not entries:
        _fail(context, "expected a nonempty list of [spins, re, im] entries")
    vec = np.zeros(2**ion_count, dtype=complex)
    for k, entry in enumerate(entries):
        where = f"{context}[{k}]"
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(where, "expected [spins, re, im]")
        spins_str, re_amp, im_amp = entry
        if not isinstance(spins_str, str) or len(spins_str) != ion_count:
            _fail(where, f"spins must be a {ion_count}-character d/u string")
        if any(c not in "du" for c in spins_str):
            _fail(where, "spins may contain only 'd' and 'u'")
        code = 0
        for c in spins_str:
            code = 2 * code + (0 if c == "d" else 1)
        vec[code] += complex(_finite(re_amp, where), _finite(im_amp, where))
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-6:
        _fail(context, f"spin state is not normalized (norm {norm:.9f})")
    return vec / norm


def _parse_model(data) -> SystemModel:
    ions_raw = data.get("ions", 1)
    if isinstance(ions_raw, int) and not isinstance(ions_raw, bool):
        ion_entries = [{} for _ in range(ions_raw)]
    elif isinstance(ions_raw, list):
        ion_entries = ions_raw
    else:
        _fail("model.ions", "expected an ion count or a list of ion mappings")
    if len(ion_entries) not in (1, 2):
        _fail("model.ions", f"1 or 2 ions supported, got {len(ion_entries)}")
    ions = []
    for i, entry in enumerate(ion_entries):
        if not isinstance(entry, dict):
            _fail(f"model.ions[{i}]", "expected a mapping")
        _check_unknown(entry, {"splitting", "addressable"}, f"model.ions[{i}]")
        ions.append(
            IonConfig(
                qubit_splitting=_get(entry, "splitting", float, f"model.ions[{i}]", default=1.0),
                individually_addressable=_get(
                    entry, "addressable", bool, f"model.ions[{i}]", default=True
                ),
            )
        )

    _check_unknown(
        data,
        {"ions", "mode_freq", "lamb_dicke", "eta_sq", "mode_weights", "cutoff", "ldl"},
        "model",
    )
    mode_freq = _get(data, "mode_freq", float, "model", default=1.0)
    has_ld = "lamb_dicke" in data
    has_sq = "eta_sq" in data
    if has_ld == has_sq:
        _fail("model.lamb_dicke", "give exactly one of lamb_dicke or eta_sq")
    if has_sq:
        eta_sq = _get(data, "eta_sq", float, "model")
        if eta_sq < 0:
            _fail("model.eta_sq", "must be nonnegative")
        lamb_dicke = float(np.sqrt(eta_sq))
    else:
        lamb_dicke = _get(data, "lamb_dicke", float, "model")
    weights_raw = data.get("mode_weights", [1.0] * len(ions))
    if not isinstance(weights_raw, list) or len(weights_raw) != len(ions):
        _fail("model.mode_weights", f"expected a list of {len(ions)} numbers")
    weights = tuple(_finite(w, f"model.mode_weights[{i}]") for i, w in enumerate(weights_raw))
    cutoff = _get(data, "cutoff", int, "model", required=True)
    if cutoff < 1:
        _fail("model.cutoff", "must be a positive integer")
    ldl = _get(data, "ldl", bool, "model", default=False)
    try:
        return SystemModel(
            trap=TrapConfig(
                mode_freq=mode_freq,
                lamb_dicke=lamb_dicke,
                mode_weights=weights,
            ),
            ions=tuple(ions),
            basis=TruncatedBasis(ion_count=len(ions), fock_cutoff=cutoff),
            ldl=ldl,
        )
    except ValueError as exc:
        raise ScenarioError(f"model: {exc}") from exc


def _parse_colors(data, model: SystemModel) -> tuple[FieldColor, ...]:
    colors = []
    for i, entry in enumerate(data):
        ctx = f"colors[{i}]"
        if not isinstance(entry, dict):
            _fail(ctx, "expected a mapping")
        _check_unknown(entry, {"ion", "sideband", "rabi", "phase", "detuning"}, ctx)
        ion = _get(entry, "ion", int, ctx, default=0)
        if not 0 <= ion < len(model.ions):
            _fail(f"{ctx}.ion", f"references undefined ion {ion}")
        sideband = _get(entry, "sideband", str, ctx, required=True)
        if sideband not in SIDEBANDS:
            _fail(f"{ctx}.sideband", f"must be one of {SIDEBANDS}")
        try:
            colors.append(
                FieldColor(
                    target_ion=ion,
                    sideband=sideband,
                    rabi=_get(entry, "rabi", float, ctx, default=1.0),
                    phase=_get(entry, "phase", float, ctx, default=0.0),
                    detuning=_get(entry, "detuning", float, ctx, default=0.0),
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc
    return tuple(colors)


def _parse_segments(data, n_colors: int):
    segs_raw = _get(data, "segments", list, "schedule", default=[])
    segments = []
    for i, entry in enumerate(segs_raw):
        ctx = f"schedule.segments[{i}]"
        if not isinstance(entry, dict):
            _fail(ctx, "expected a mapping")
        _check_unknown(entry, {"colors", "duration"}, ctx)
        indices = _get(entry, "colors", list, ctx, required=True)
        for j in indices:
            if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < n_colors:
                _fail(f"{ctx}.colors", f"references undefined color {j}")
        duration = _get(entry, "duration", float, ctx, required=True)
        if duration <= 0:
            _fail(f"{ctx}.duration", "must be positive")
        segments.append((tuple(indices), duration))
    return tuple(segments)


def _default_ground_state(model: SystemModel):
    return [["d" * model.basis.ion_count, 0, 1.0, 0.0]]


def _default_bell_spin(ion_count: int):
    return [["d" * ion_count, _BELL_AMP, 0.0], ["u" * ion_count, _BELL_AMP, 0.0]]


_TASK_FIELDS = {
    "zeros": ("degree", "order", "grid_points", "grid_max"),
    "matelem": ("max_n",),
    "graph": (),
    "liealg": ("subspace", "tol", "max_dim"),
    "evolve": ("initial", "samples_per_segment", "subspace"),
    "laweberly": ("target",),
    "optimize": (
        "objective",
        "target",
        "target_spin",
        "purity_floor",
        "initial",
        "omega_max",
        "t_max",
        "segments",
        "population",
        "elite",
        "generations",
        "mutation_scale",
        "mutation_decay",
        "mutation_floor",
        "restart_after",
    ),
}


def _parse_task(data, scenario_model: SystemModel, colors) -> tuple[str, dict]:
    kind = _get(data, "kind", str, "task", required=True)
    if kind not in TASKS:
        _fail("task.kind", f"must be one of {TASKS}")
    _check_unknown(data, set(_TASK_FIELDS[kind]) | {"kind"}, "task")
    params = {}
    ctx = "task"
    if kind == "zeros":
        degree = _get(data, "degree", int, ctx, required=True)
        if degree < 1:
            _fail("task.degree", "must be >= 1")
        order = _get(data, "order", int, ctx, default=0)
        if order < 0:
            _fail("task.order", "must be >= 0")
        params["degree"] = degree
        params["order"] = order
        params["grid_points"] = _get(data, "grid_points", int, ctx, default=200)
        if params["grid_points"] < 2:
            _fail("task.grid_points", "must be >= 2")
        params["grid_max"] = _get(
            data, "grid_max", float, ctx, default=float(4 * degree + 2 * order + 2)
        )
        if params["grid_max"] < 0:
            _fail("task.grid_max", "must be >= 0")
    elif kind == "matelem":
        params["max_n"] = _get(
            data, "max_n", int, ctx, default=scenario_model.basis.fock_cutoff - 1
        )
        if params["max_n"] < 0:
            _fail("task.max_n", "must be >= 0")
    elif kind == "graph":
        pass
    elif kind == "liealg":
        subspace = _get(data, "subspace", str, ctx, default="closed")
        if subspace not in ("full", "closed"):
            _fail("task.subspace", "must be 'full' or 'closed'")
        params["subspace"] = subspace
        if "tol" in data:
            params["tol"] = _get(data, "tol", float, ctx)
            if params["tol"] <= 0:
                _fail("task.tol", "must be positive")
        if "max_dim" in data:
            params["max_dim"] = _get(data, "max_dim", int, ctx)
            if params["max_dim"] < 1:
                _fail("task.max_dim", "must be >= 1")
    elif kind == "evolve":
        params["initial"] = data.get("initial", _default_ground_state(scenario_model))
        parse_state_spec(params["initial"], scenario_model.basis, "task.initial")
        params["samples_per_segment"] = _get(data, "samples_per_segment", int, ctx, default=20)
        if params["samples_per_segment"] < 1:
            _fail("task.samples_per_segment", "must be >= 1")
        subspace = data.get("subspace")
        if subspace is not None and subspace not in ("full", "closed"):
            _fail("task.subspace", "must be 'full', 'closed' or omitted")
        if subspace is not None:
            params["subspace"] = subspace
    elif kind == "laweberly":
        target = _get(data, "target", list, ctx, required=True)
        parse_state_spec(target, scenario_model.basis, "task.target")
        params["target"] = target
    elif kind == "optimize":
        objective = _get(data, "objective", str, ctx, default="spin")
        if objective not in ("state", "spin"):
            _fail("task.objective", "must be 'state' or 'spin'")
        params["objective"] = objective
        if objective == "state":
            target = _get(data, "target", list, ctx, required=True)
            parse_state_spec(target, scenario_model.basis, "task.target")
            params["target"] = target
        else:
            target_spin = data.get("target_spin", _default_bell_spin(scenario_model.basis.ion_count))
            parse_spin_spec(target_spin, scenario_model.basis.ion_count, "task.target_spin")
            params["target_spin"] = target_spin
            params["purity_floor"] = _get(data, "purity_floor", float, ctx, default=0.99)
        params["initial"] = data.get("initial", _default_ground_state(scenario_model))
        parse_state_spec(params["initial"], scenario_model.basis, "task.initial")
        if not colors:
            _fail("colors", "optimize requires at least one color")
        params["omega_max"] = _get(
            data, "omega_max", float, ctx, default=0.2 * scenario_model.trap.mode_freq
        )
        params["t_max"] = _get(data, "t_max", float, ctx, default=200.0)
        params["segments"] = _get(data, "segments", int, ctx, default=1)
        params["population"] = _get(data, "population", int, ctx, default=32)
        params["elite"] = _get(data, "elite", int, ctx, default=8)
        params["generations"] = _get(data, "generations", int, ctx, default=200)
        params["mutation_scale"] = _get(data, "mutation_scale", float, ctx, default=0.25)
        params["mutation_decay"] = _get(data, "mutation_decay", float, ctx, default=0.97)
        params["mutation_floor"] = _get(data, "mutation_floor", float, ctx, default=0.005)
        params["restart_after"] = _get(data, "restart_after", int, ctx, default=50)
        for field in ("omega_max", "t_max"):
            if params[field] <= 0:
                _fail(f"task.{field}", "must be positive")
        if not 1 <= params["segments"] <= 8:
            _fail("task.segments", "must be between 1 and 8")
        if not 0 < params["elite"] < params["population"]:
            _fail("task.elite", f"must be between 1 and population - 1 ({params['population'] - 1})")
        if params["generations"] < 1:
            _fail("task.generations", "must be >= 1")
    return kind, params


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document, filling all defaults."""
    try:
        data = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown position"
        raise ScenarioError(f"parse error at {where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a mapping at top level")
    _check_unknown(data, {"seed", "output", "threshold", "model", "colors", "schedule", "task"}, "scenario")

    model = _parse_model(_get(data, "model", dict, "scenario", required=True))
    colors = _parse_colors(_get(data, "colors", list, "scenario", default=[]), model)
    schedule_raw = data.get("schedule", {"segments": []})
    if not isinstance(schedule_raw, dict):
        _fail("schedule", "expected a mapping")
    _check_unknown(schedule_raw, {"segments"}, "schedule")
    segments = _parse_segments(schedule_raw, len(colors))
    task, task_params = _parse_task(_get(data, "task", dict, "scenario", required=True), model, colors)

    seed = _get(data, "seed", int, "scenario", default=0)
    output = _get(data, "output", str, "scenario", default="out/scenario")
    threshold = _get(data, "threshold", float, "scenario", default=1e-9)
    if threshold <= 0:
        _fail("threshold", "must be positive")
    return Scenario(
        model=model,
        colors=colors,
        segments=segments,
        task=task,
        task_params=task_params,
        output=output,
        seed=seed,
        threshold=threshold,
    )


def emit_scenario(scenario: Scenario) -> str:
    """Canonical YAML emission; a fixed point of parse -> emit."""
    model = scenario.model
    doc = {
        "seed": scenario.seed,
        "output": scenario.output,
        "threshold": scenario.threshold,
        "model": {
            "ions": [
                {
                    "splitting": ion.qubit_splitting,
                    "addressable": ion.individually_addressable,
                }
                for ion in model.ions
            ],
            "mode_freq": model.trap.mode_freq,
            "lamb_dicke": model.trap.lamb_dicke,
            "mode_weights": list(model.trap.mode_weights),
            "cutoff": model.basis.fock_cutoff,
            "ldl": model.ldl,
        },
        "colors": [
            {
                "ion": c.target_ion,
                "sideband": c.sideband,
                "rabi": c.rabi,
                "phase": c.phase,
                "detuning": c.detuning,
            }
            for c in scenario.colors
        ],
        "schedule": {
            "segments": [
                {"colors": list(indices), "duration": duration}
                for indices, duration in scenario.segments
            ]
        },
        "task": {"kind": scenario.task, **scenario.task_params},
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=100)
