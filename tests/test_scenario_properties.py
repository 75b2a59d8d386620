"""Property tests of the scenario format.

Generated valid documents of every task kind re-emit byte-identically
(emit(parse(emit(s))) == emit(s)), and a valid document with one field
mutated fails with a ScenarioError whose message starts with that
field's path.
"""

import copy
import itertools
import math
import re
from unittest import mock

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ionctrl import scenario as scenario_module
from ionctrl.scenario import TASKS, ScenarioError, emit_scenario, parse_scenario

SETTINGS = settings(derandomize=True, deadline=None, database=None)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def optional(draw, mapping, key, strategy):
    """Store a drawn value under key, or leave the key out (the default)."""
    if draw(st.booleans()):
        mapping[key] = draw(strategy)


@st.composite
def amplitudes(draw, ion_count, cutoff=None):
    """A normalized [[spins, (n,) re, im], ...] list with distinct labels;
    without a cutoff, a spin state [[spins, re, im], ...]."""
    spins = ["".join(s) for s in itertools.product("du", repeat=ion_count)]
    phonons = [()] if cutoff is None else [(n,) for n in range(cutoff)]
    labels = [(s, *n) for s in spins for n in phonons]
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    amps = [draw(st.tuples(floats(-1.0, 1.0), floats(-1.0, 1.0))) for _ in chosen]
    norm = math.sqrt(sum(re * re + im * im for re, im in amps))
    assume(norm > 0.1)
    return [[*label, re / norm, im / norm] for label, (re, im) in zip(chosen, amps)]


@st.composite
def documents(draw, kind):
    # the alternating-pulse construction of laweberly applies to one ion
    ion_count = 1 if kind == "laweberly" else draw(st.sampled_from([1, 2]))
    cutoff = draw(st.integers(1, 6))
    model = {"cutoff": cutoff}
    if draw(st.booleans()):
        model["ions"] = ion_count
    elif draw(st.booleans()) or ion_count == 2:
        ions = []
        for _ in range(ion_count):
            ion = {}
            # the one modeled ion and mode frequency; other values are refused
            draw(optional(ion, "splitting", st.just(1.0)))
            draw(optional(ion, "addressable", st.just(True)))
            ions.append(ion)
        model["ions"] = ions
    draw(optional(model, "mode_freq", st.just(1.0)))
    eta_key = draw(st.sampled_from(["lamb_dicke", "eta_sq"]))
    model[eta_key] = draw(floats(0.0, 1.0))
    weight = draw(floats(-2.0, 2.0).filter(lambda w: w != 0.0))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=ion_count, max_size=ion_count))
    draw(optional(model, "mode_weights", st.just([s * weight for s in signs])))
    # matelem writes the exact elements alone
    draw(optional(model, "ldl", st.just(False) if kind == "matelem" else st.booleans()))

    colors = []
    min_colors = 1 if kind in ("optimize", "liealg") else 0
    for _ in range(draw(st.integers(min_colors, 3))):
        color = {"sideband": draw(st.sampled_from(["carrier", "blue", "red"]))}
        draw(optional(color, "ion", st.integers(0, ion_count - 1)))
        draw(optional(color, "rabi", floats(0.0, 2.0)))
        draw(optional(color, "phase", floats(-7.0, 7.0)))
        draw(optional(color, "detuning", st.just(0.0)))
        colors.append(color)

    doc = {"model": model, "task": {"kind": kind}}
    if colors or draw(st.booleans()):
        doc["colors"] = colors
    if draw(st.booleans()):
        segment = st.fixed_dictionaries(
            {
                "colors": st.lists(st.integers(0, len(colors) - 1), max_size=3)
                if colors
                else st.just([]),
                "duration": floats(1e-3, 10.0),
            }
        )
        doc["schedule"] = {"segments": draw(st.lists(segment, max_size=3))}
    draw(optional(doc, "seed", st.integers(0, 2**31)))
    draw(optional(doc, "output", st.text("abz_/-", min_size=1, max_size=12)))
    draw(optional(doc, "threshold", floats(1e-15, 1.0)))

    task = doc["task"]
    state = amplitudes(ion_count, cutoff)
    subspace = st.sampled_from(["full", "closed"])
    if kind == "zeros":
        task["degree"] = draw(st.integers(1, 30))
        draw(optional(task, "order", st.integers(0, 5)))
        draw(optional(task, "grid_points", st.integers(2, 500)))
        draw(optional(task, "grid_max", floats(0.0, 100.0)))
    elif kind == "matelem":
        draw(optional(task, "max_n", st.integers(0, 20)))
    elif kind == "liealg":
        draw(optional(task, "subspace", subspace))
        draw(optional(task, "tol", floats(1e-12, 1.0).filter(lambda t: t > 0)))
        draw(optional(task, "max_dim", st.integers(1, 1000)))
    elif kind == "evolve":
        draw(optional(task, "initial", state))
        draw(optional(task, "samples_per_segment", st.integers(1, 50)))
        draw(optional(task, "subspace", subspace))
    elif kind == "laweberly":
        task["target"] = draw(state)
    elif kind == "optimize":
        if draw(st.booleans()):
            task["objective"] = "state"
            task["target"] = draw(state)
        else:
            draw(optional(task, "objective", st.just("spin")))
            draw(optional(task, "target_spin", amplitudes(ion_count)))
            draw(optional(task, "purity_floor", floats(0.0, 1.0)))
        draw(optional(task, "initial", state))
        draw(optional(task, "omega_max", floats(1e-3, 5.0)))
        draw(optional(task, "t_max", floats(1e-3, 500.0)))
        draw(optional(task, "segments", st.integers(1, 8)))
        if draw(st.booleans()):
            task["population"] = draw(st.integers(2, 40))
            task["elite"] = draw(st.integers(1, task["population"] - 1))
        draw(optional(task, "generations", st.integers(1, 300)))
        for name in ("mutation_scale", "mutation_decay", "mutation_floor"):
            draw(optional(task, name, floats(0.0, 1.0)))
        draw(optional(task, "restart_after", st.integers(1, 100)))
    return doc


@pytest.mark.parametrize("kind", TASKS)
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_emission_is_parse_fixed_point(kind, data):
    doc = data.draw(documents(kind))
    once = emit_scenario(parse_scenario(yaml.safe_dump(doc)))
    assert emit_scenario(parse_scenario(once)) == once


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="this PyYAML has no libyaml")
@pytest.mark.parametrize("kind", TASKS)
@settings(SETTINGS, max_examples=25)
@given(data=st.data(), output=st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)))
def test_libyaml_and_pure_yaml_agree(kind, data, output):
    """Emission and parsing through libyaml match the pure-Python pair,
    which serves PyYAML builds without it; the scenario hash rests on this."""
    doc = data.draw(documents(kind))
    doc["output"] = output
    scenario = parse_scenario(yaml.safe_dump(doc))
    emitted = emit_scenario(scenario)
    with mock.patch.object(scenario_module, "_DUMPER", yaml.SafeDumper):
        assert emit_scenario(scenario) == emitted
    for text in (emitted, yaml.safe_dump(doc)):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


# Every field path the generator writes, list indices written [], with
# an out-of-range value where the field has a range rule of its own;
# None where it has none.  Population's own rule is the shared 2^20-row
# limit on population * (2 * segments * colors + 1).
OUT_OF_RANGE = {
    "seed": -1,
    "output": None,
    "threshold": 0.0,
    "model": None,
    "model.ions": 3,
    "model.ions[]": None,
    "model.ions[].splitting": -1.0,
    "model.ions[].addressable": None,
    "model.mode_freq": -1.0,
    "model.lamb_dicke": -0.5,
    "model.eta_sq": -0.5,
    "model.mode_weights": None,
    "model.mode_weights[]": None,
    "model.cutoff": 0,
    "model.ldl": None,
    "colors": None,
    "colors[]": None,
    "colors[].ion": 2,
    "colors[].sideband": "purple",
    "colors[].rabi": -1.0,
    "colors[].phase": None,
    "colors[].detuning": 0.5,
    "schedule": None,
    "schedule.segments": None,
    "schedule.segments[]": None,
    "schedule.segments[].colors": [99],
    "schedule.segments[].duration": -1.0,
    "task": None,
    "task.kind": "frobnicate",
    "task.degree": 0,
    "task.order": -1,
    "task.grid_points": 1,
    "task.grid_max": -1.0,
    "task.max_n": -1,
    "task.subspace": "half",
    "task.tol": 0.0,
    "task.max_dim": 0,
    "task.samples_per_segment": 0,
    "task.objective": "both",
    "task.purity_floor": 1.5,
    "task.omega_max": 0.0,
    "task.t_max": -1.0,
    "task.segments": 9,
    "task.population": 2**20,
    "task.elite": 0,
    "task.generations": 0,
    "task.mutation_scale": -1.0,
    "task.mutation_decay": 1.5,
    "task.mutation_floor": -1.0,
    "task.restart_after": 0,
    # amplitude lists; an entry [spins, (n,) re, im] is out of range
    # with spins other than d and u
    "task.initial": None,
    "task.initial[]": "bad spins",
    "task.target": None,
    "task.target[]": "bad spins",
    "task.target_spin": None,
    "task.target_spin[]": "bad spins",
}
AMPLITUDE_LISTS = ("task.initial", "task.target", "task.target_spin")


def pattern(path):
    return re.sub(r"\[\d+\]", "[]", path)


def sites(node, path=""):
    """(path, container, key) of every field, list entry and mapping
    that OUT_OF_RANGE lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
        if pattern(sub) in OUT_OF_RANGE:
            yield sub, node, key
        if isinstance(value, (dict, list)):
            yield from sites(value, sub)


def mappings(node, path=""):
    """Path of every mapping in the document, the top level included."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from mappings(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from mappings(value, f"{path}[{i}]")


def mutations(doc):
    """Break one field of a valid document at a time, in place, yielding
    its path; the field is restored after each break."""
    for path, mapping in list(mappings(doc)):
        mapping["frobnicate"] = 1
        yield f"{path}.frobnicate" if path else "frobnicate"
        del mapping["frobnicate"]
    for path, container, key in list(sites(doc)):
        value = container[key]
        bad_range = OUT_OF_RANGE[pattern(path)]
        breaks = [7 if isinstance(value, str) else "x", None]
        if path.startswith(AMPLITUDE_LISTS) and path.endswith("]"):
            breaks += [[*value[:-2], bad, value[-1]] for bad in (math.nan, math.inf)]
        elif isinstance(value, float):
            breaks += [math.nan, math.inf]
        if bad_range == "bad spins":
            breaks.append(["x" * len(value[0]), *value[1:]])
        elif bad_range is not None:
            breaks.append(bad_range)
        for bad in breaks:
            container[key] = bad
            yield path
        container[key] = value


@pytest.mark.parametrize("kind", TASKS)
@settings(SETTINGS, max_examples=4)
@given(data=st.data())
def test_mutated_document_names_the_field(kind, data):
    doc = data.draw(documents(kind))
    for path in mutations(doc):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(yaml.safe_dump(doc))
        message = str(info.value)
        assert re.match(re.escape(path) + r"[: ]", message), (path, message)
