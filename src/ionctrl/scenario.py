"""Scenario files: YAML parsing, validation and canonical emission.

A scenario holds one model, a list of colors, an optional schedule whose
segments reference colors by index, and exactly one task.  Parsing fills
every default so the canonical emission is a fixed point:
emit(parse(emit(s))) == emit(s) byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import yaml

from .dynamics import PulseSchedule, Segment
from .fock import BasisState, TruncatedBasis
from .model import FieldColor, IonConfig, SIDEBANDS, SystemModel, TrapConfig
from .optimize import SearchConfig

__all__ = ["ScenarioError", "Scenario", "parse_scenario", "emit_scenario", "TASKS"]

TASKS = ("zeros", "matelem", "graph", "liealg", "evolve", "laweberly", "optimize")

_BELL_AMP = float(1.0 / np.sqrt(2.0))

# libyaml where this PyYAML build has it
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# rows any task may write or hold; 2^20 matelem rows are about 68 MB of CSV
_MAX_ROWS = 2**20


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


# what each _get kind expects; float goes through _finite
_KINDS = {int: "an integer", bool: "true/false", str: "a string", list: "a list", dict: "a mapping"}


def _path(context: str, field) -> str:
    """Field path of a key; top-level keys are named bare."""
    return f"{context}.{field}" if context else str(field)


def _get(mapping, field, kind, context, default=None, required=False):
    if not isinstance(mapping, dict):
        _fail(context, "expected a mapping")
    where = _path(context, field)
    if field not in mapping:
        if required:
            _fail(where, "missing required field")
        return default
    value = mapping[field]
    if kind is float:
        return _finite(value, where)
    # bool is an int subclass; true/false is not an integer here
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        _fail(where, f"expected {_KINDS[kind]}, got {value!r}")
    return value


def _check_unknown(mapping: dict, allowed, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            _fail(_path(context, key), "unknown field")


def _parse_amplitudes(entries, basis: TruncatedBasis, context: str, phonons: bool) -> np.ndarray:
    """[[spins, n, re, im], ...], or [[spins, re, im], ...] without
    phonons, -> normalized vector on the basis."""
    layout = "[spins, n, re, im]" if phonons else "[spins, re, im]"
    if not isinstance(entries, list) or not entries:
        _fail(context, f"expected a nonempty list of {layout} entries")
    vec = np.zeros(basis.dimension, dtype=complex)
    for k, entry in enumerate(entries):
        where = f"{context}[{k}]"
        if not isinstance(entry, list) or len(entry) != 3 + phonons:
            _fail(where, f"expected {layout}")
        spins_str, n, re_amp, im_amp = entry if phonons else (entry[0], 0, *entry[1:])
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


def parse_state_spec(entries, basis: TruncatedBasis, context: str) -> np.ndarray:
    """[[spins, n, re, im], ...] -> normalized full-basis vector."""
    return _parse_amplitudes(entries, basis, context, phonons=True)


def parse_spin_spec(entries, ion_count: int, context: str) -> np.ndarray:
    """[[spins, re, im], ...] -> normalized spin-space vector: the state of
    a one-level oscillator, indexed like the full basis."""
    return _parse_amplitudes(entries, TruncatedBasis(ion_count, 1), context, phonons=False)


def _parse_model(data) -> SystemModel:
    ion_entries = data.get("ions", 1)
    if type(ion_entries) is int:
        count = ion_entries
        ion_entries = [{}] * count if count in (1, 2) else None
    elif isinstance(ion_entries, list):
        count = len(ion_entries)
    else:
        _fail("model.ions", "expected an ion count or a list of ion mappings")
    if count not in (1, 2):
        _fail("model.ions", f"1 or 2 ions supported, got {count}")
    ions = []
    for i, entry in enumerate(ion_entries):
        ctx = f"model.ions[{i}]"
        if not isinstance(entry, dict):
            _fail(ctx, "expected a mapping")
        _check_unknown(entry, {"splitting", "addressable"}, ctx)
        where = f"{ctx}.splitting"
        splitting = _get(entry, "splitting", float, ctx, default=1.0)
        if not splitting > 0:
            _fail(where, f"qubit_splitting must be positive and finite, got {splitting}")
        if splitting != 1.0:
            _fail(where, "only the unit qubit splitting is modeled; must be 1.0")
        if not _get(entry, "addressable", bool, ctx, default=True):
            _fail(f"{ctx}.addressable", "only individually addressed ions are modeled; must be true")
        ions.append(IonConfig())

    _check_unknown(
        data,
        {"ions", "mode_freq", "lamb_dicke", "eta_sq", "mode_weights", "cutoff", "ldl"},
        "model",
    )
    mode_freq = _get(data, "mode_freq", float, "model", default=1.0)
    # zero or negative keeps TrapConfig's message
    if mode_freq > 0 and mode_freq != 1.0:
        _fail("model.mode_freq", "only the unit mode frequency is modeled; must be 1.0")
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
        # every message the model classes raise here starts with its field
        raise ScenarioError(f"model.{exc}") from exc


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
        if _get(entry, "detuning", float, ctx, default=0.0) != 0.0:
            _fail(f"{ctx}.detuning", "only resonant colors are modeled; must be 0")
        sideband = _get(entry, "sideband", str, ctx, required=True)
        if sideband not in SIDEBANDS:
            _fail(f"{ctx}.sideband", f"must be one of {SIDEBANDS}")
        rabi = _get(entry, "rabi", float, ctx, default=1.0)
        phase = _get(entry, "phase", float, ctx, default=0.0)
        try:
            colors.append(FieldColor(target_ion=ion, sideband=sideband, rabi=rabi, phase=phase))
        except ValueError as exc:
            raise ScenarioError(f"{ctx}.{exc}") from exc
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


# smallest value of each integer or float task field that has one
_MINIMUM = {
    "degree": 1,
    "order": 0,
    "grid_points": 2,
    "grid_max": 0,
    "max_n": 0,
    "max_dim": 1,
    "samples_per_segment": 1,
}


def _parse_task(data, scenario_model: SystemModel, colors, n_segments: int) -> tuple[str, dict]:
    """Read one task's fields into params; the task accepts exactly the
    keys its branch stores there.  `matelem` refuses an LDL model, whose
    first-order couplings have no form beyond |dn| = 1, and `optimize`'s
    `omega_max` defaults to 0.2 mode frequencies."""
    kind = _get(data, "kind", str, "task", required=True)
    if kind not in TASKS:
        _fail("task.kind", f"must be one of {TASKS}")
    # liealg on subspace: full builds dense d x d operators (closed builds them on the
    # closed states alone); evolve, laweberly, optimize factor d/2 x d/2 blocks
    dim = scenario_model.basis.dimension
    if kind not in ("zeros", "matelem") and 16 * dim * dim > 2**30:
        _fail("model.cutoff", f"a {dim}x{dim} complex operator would exceed 1 GiB")
    params = {}
    ctx = "task"
    if kind == "zeros":
        params["degree"] = degree = _get(data, "degree", int, ctx, required=True)
        params["order"] = order = _get(data, "order", int, ctx, default=0)
        params["grid_points"] = _get(data, "grid_points", int, ctx, default=200)
        params["grid_max"] = _get(
            data, "grid_max", float, ctx, default=float(4 * degree + 2 * order + 2)
        )
    elif kind == "matelem":
        if scenario_model.ldl:
            _fail("model.ldl", "matelem writes the exact displacement elements; must be false")
        params["max_n"] = _get(data, "max_n", int, ctx, default=scenario_model.basis.fock_cutoff - 1)
    elif kind == "liealg":
        if not colors:
            _fail("colors", "liealg requires at least one color")
        params["subspace"] = _get(data, "subspace", str, ctx, default="closed")
        if "tol" in data:
            params["tol"] = _get(data, "tol", float, ctx)
            if params["tol"] <= 0:
                _fail("task.tol", "must be positive")
        if "max_dim" in data:
            params["max_dim"] = _get(data, "max_dim", int, ctx)
    elif kind == "evolve":
        params["initial"] = data.get("initial", _default_ground_state(scenario_model))
        parse_state_spec(params["initial"], scenario_model.basis, "task.initial")
        params["samples_per_segment"] = _get(data, "samples_per_segment", int, ctx, default=20)
        if "subspace" in data:
            params["subspace"] = _get(data, "subspace", str, ctx)
    elif kind == "laweberly":
        if scenario_model.basis.ion_count != 1:
            _fail("model.ions", "laweberly applies to one ion")
        params["target"] = _get(data, "target", list, ctx, required=True)
        parse_state_spec(params["target"], scenario_model.basis, "task.target")
    elif kind == "optimize":
        params["objective"] = objective = _get(data, "objective", str, ctx, default="spin")
        if objective == "state":
            params["target"] = _get(data, "target", list, ctx, required=True)
            parse_state_spec(params["target"], scenario_model.basis, "task.target")
        elif objective == "spin":
            ion_count = scenario_model.basis.ion_count
            params["target_spin"] = data.get("target_spin", _default_bell_spin(ion_count))
            parse_spin_spec(params["target_spin"], ion_count, "task.target_spin")
            params["purity_floor"] = floor = _get(data, "purity_floor", float, ctx, default=0.99)
            if not 0.0 <= floor <= 1.0:
                _fail("task.purity_floor", "must be between 0 and 1")
        else:
            _fail("task.objective", "must be 'state' or 'spin'")
        params["initial"] = data.get("initial", _default_ground_state(scenario_model))
        parse_state_spec(params["initial"], scenario_model.basis, "task.initial")
        if not colors:
            _fail("colors", "optimize requires at least one color")
        params["omega_max"] = _get(data, "omega_max", float, ctx, default=0.2)
        params["t_max"] = _get(data, "t_max", float, ctx, default=200.0)
        # the other search settings, their kinds and defaults are SearchConfig's
        search_fields = fields(SearchConfig)
        for f in search_fields:
            if f.default is not MISSING:
                params[f.name] = _get(data, f.name, type(f.default), ctx, default=f.default)
        try:
            SearchConfig(**{f.name: params[f.name] for f in search_fields})
        except ValueError as exc:
            raise ScenarioError(f"task.{exc}") from exc
    _check_unknown(data, {"kind", *params}, "task")
    for field, low in _MINIMUM.items():
        if field in params and params[field] < low:
            _fail(f"task.{field}", f"must be >= {low}")
    rows = {
        "grid_points": params.get("grid_points"),
        "max_n": (params.get("max_n", 0) + 1) ** 2,
        "samples_per_segment": (1 + n_segments * params.get("samples_per_segment", 0)) * dim,
        "generations": params.get("generations"),
        "population": params.get("population", 0) * (2 * params.get("segments", 0) * len(colors) + 1),
    }
    for field, count in rows.items():
        if field in params and count > _MAX_ROWS:
            where = "model.cutoff" if field == "max_n" and field not in data else f"task.{field}"
            _fail(where, f"{count} rows exceed the {_MAX_ROWS}-row limit")
    if params.get("subspace", "full") not in ("full", "closed"):
        _fail("task.subspace", "must be 'full' or 'closed'")
    return kind, params


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document, filling all defaults."""
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown position"
        raise ScenarioError(f"parse error at {where}: {exc.problem}") from exc
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml refuses a lone surrogate
        raise ScenarioError(f"parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a mapping at top level")
    _check_unknown(data, {"seed", "output", "threshold", "model", "colors", "schedule", "task"}, "")

    model = _parse_model(_get(data, "model", dict, "", required=True))
    colors = _parse_colors(_get(data, "colors", list, "", default=[]), model)
    schedule_raw = _get(data, "schedule", dict, "", default={})
    _check_unknown(schedule_raw, {"segments"}, "schedule")
    segments = _parse_segments(schedule_raw, len(colors))
    task_data = _get(data, "task", dict, "", required=True)
    task, task_params = _parse_task(task_data, model, colors, len(segments))

    seed = _get(data, "seed", int, "", default=0)
    if seed < 0:
        _fail("seed", "must be nonnegative")
    output = _get(data, "output", str, "", default="out/scenario")
    threshold = _get(data, "threshold", float, "", default=1e-9)
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
            # every ion is the one modeled; the keys stay so scenario hashes do not move
            "ions": [{"splitting": 1.0, "addressable": True} for _ in model.ions],
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
                # every color is resonant; the key stays so scenario hashes do not move
                "detuning": 0.0,
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
    # libyaml wraps escaped scalars at other columns and cannot encode a lone surrogate
    plain = scenario.output.isascii() and scenario.output.isprintable()
    dumper = _DUMPER if plain else yaml.SafeDumper
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=None, width=100)
