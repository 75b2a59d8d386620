"""Every field a scenario writes changes a task's output, is refused, or
is a documented no-op.

Each task kind runs one small document through `ionctrl run`, then again
with one field changed at a time.  The outputs (file names and contents,
less the `# generated_utc` and `# scenario_sha256` lines) must differ
where the table says the field changes them, and match where it says
the field is a no-op; a refused change exits 2 with an error naming the
field.  The fields are those `emit_scenario` writes for the task's
defaulted document, so a field added to the format without an entry
here fails the coverage test.
"""

import copy
import math
import shutil

import pytest
import yaml

from ionctrl import laguerre_zeros
from ionctrl.cli import main
from ionctrl.scenario import TASKS, emit_scenario, parse_scenario

CHANGES, REFUSED, NO_OP = "changes", "refused", "no-op"


# eta^2 at which the blue rung |d,6> -> |u,7> vanishes, and |d,5> -> |u,6>
BLUE_6 = float(laguerre_zeros(6, 1)[0])
BLUE_5 = float(laguerre_zeros(5, 1)[0])

TWO_IONS = {
    "model": {"ions": 2, "lamb_dicke": 0.3, "cutoff": 4},
    "colors": [{"ion": 0, "sideband": "blue"}, {"ion": 1, "sideband": "carrier"}],
    "schedule": {"segments": [{"colors": [0, 1], "duration": 1.0}]},
}
# carrier and blue on one ion close 14 states at BLUE_6, 12 at BLUE_5
CLOSED = {
    "model": {"ions": 1, "eta_sq": BLUE_6, "cutoff": 8},
    "colors": [{"ion": 0, "sideband": "blue"}, {"ion": 0, "sideband": "carrier"}],
    "schedule": {"segments": [{"colors": [0, 1], "duration": 1.0}]},
}
DOCS = {
    "zeros": {**TWO_IONS, "task": {"kind": "zeros", "degree": 4, "grid_points": 20}},
    "matelem": {**TWO_IONS, "task": {"kind": "matelem", "max_n": 3}},
    "graph": {**TWO_IONS, "task": {"kind": "graph"}},
    "liealg": {**CLOSED, "task": {"kind": "liealg", "tol": 1e-6, "max_dim": 500}},
    "evolve": {**CLOSED, "task": {"kind": "evolve", "samples_per_segment": 3, "subspace": "full"}},
    "laweberly": {
        **CLOSED,
        "model": {"ions": 1, "lamb_dicke": 0.3, "cutoff": 4},
        "task": {"kind": "laweberly", "target": [["d", 1, 1.0, 0.0]]},
    },
    "optimize": {
        **TWO_IONS,
        "task": {
            "kind": "optimize",
            "segments": 1,
            "population": 6,
            "elite": 2,
            "generations": 4,
            "restart_after": 2,
        },
    },
}

# the value each field is changed to, or a function of its value
ALTERNATES = {
    "seed": 5,
    "output": "out/other",
    "threshold": 0.3,
    "model.ions[].splitting": 2.0,
    "model.ions[].addressable": False,
    "model.mode_freq": 2.0,
    "model.lamb_dicke": math.sqrt(BLUE_5),
    "model.mode_weights": lambda w: [-w[0], *w[1:]],
    "model.cutoff": lambda n: n + 1,
    "model.ldl": True,
    "colors[].ion": 1,
    "colors[].sideband": "carrier",
    "colors[].rabi": 0.5,
    "colors[].phase": 1.0,
    "colors[].detuning": 0.5,
    "schedule.segments[].colors": [1],
    "schedule.segments[].duration": 2.0,
    "task.degree": 5,
    "task.order": 1,
    "task.grid_points": 21,
    "task.grid_max": 10.0,
    "task.max_n": 2,
    "task.subspace": lambda subspace: {"closed": "full", "full": "closed"}[subspace],
    "task.tol": 0.5,
    "task.max_dim": 20,
    "task.initial": lambda state: [["u" * len(state[0][0]), 0, 1.0, 0.0]],
    "task.samples_per_segment": 2,
    "task.target": [["u", 0, 1.0, 0.0]],
    "task.target_spin": [["uu", 1.0, 0.0]],
    "task.purity_floor": 0.5,
    "task.omega_max": 0.5,
    "task.t_max": 50.0,
    "task.segments": 2,
    "task.population": 8,
    "task.elite": 1,
    "task.generations": 3,
    "task.mutation_scale": 0.5,
    "task.mutation_decay": 0.5,
    "task.mutation_floor": 0.5,
    "task.restart_after": 1,
}
# fields whose change takes others with it: a function of the task mapping
TASK_REWRITES = {
    "task.kind": lambda task: (
        {"kind": "matelem"} if task["kind"] == "zeros" else {"kind": "zeros", "degree": 3}
    ),
    "task.objective": lambda task: {
        **{k: v for k, v in task.items() if k not in ("target_spin", "purity_floor")},
        "objective": "state",
        "target": [["uu", 0, 1.0, 0.0]],
    },
}

# every task: the seed is echoed in each output's header, the output
# prefix names the files, and the ion, mode frequency and detuning admit
# only the values the program models
EVERY_TASK = {
    "seed": CHANGES,
    "output": CHANGES,
    "model.ions[].splitting": REFUSED,
    "model.ions[].addressable": REFUSED,
    "model.mode_freq": REFUSED,
    "colors[].detuning": REFUSED,
    "task.kind": CHANGES,
}
# zeros and laweberly read no color, and only evolve reads the schedule
COLORS_UNREAD = {
    "colors[].ion": NO_OP,
    "colors[].sideband": NO_OP,
    "colors[].rabi": NO_OP,
    "colors[].phase": NO_OP,
}
SCHEDULE_UNREAD = {"schedule.segments[].colors": NO_OP, "schedule.segments[].duration": NO_OP}
EFFECTS = {
    "zeros": {
        **EVERY_TASK,
        **COLORS_UNREAD,
        **SCHEDULE_UNREAD,
        "threshold": NO_OP,
        "model.lamb_dicke": NO_OP,
        "model.mode_weights": NO_OP,
        "model.cutoff": NO_OP,
        "model.ldl": NO_OP,
        "task.degree": CHANGES,
        "task.order": CHANGES,
        "task.grid_points": CHANGES,
        "task.grid_max": CHANGES,
    },
    "matelem": {
        **EVERY_TASK,
        **COLORS_UNREAD,
        **SCHEDULE_UNREAD,
        "threshold": NO_OP,
        "model.lamb_dicke": CHANGES,
        "model.mode_weights": CHANGES,  # the sign of ion 0's weight
        "model.cutoff": NO_OP,  # only max_n's default reads it
        "model.ldl": REFUSED,
        "task.max_n": CHANGES,
    },
    "graph": {
        **EVERY_TASK,
        **SCHEDULE_UNREAD,
        "threshold": CHANGES,
        "model.lamb_dicke": CHANGES,
        "model.mode_weights": NO_OP,  # edges weigh coupling magnitudes
        "model.cutoff": CHANGES,
        "model.ldl": CHANGES,
        "colors[].ion": CHANGES,
        "colors[].sideband": CHANGES,
        "colors[].rabi": NO_OP,  # edges are taken at unit Rabi
        "colors[].phase": NO_OP,
    },
    "liealg": {
        **EVERY_TASK,
        **SCHEDULE_UNREAD,
        "threshold": CHANGES,
        "model.lamb_dicke": CHANGES,
        "model.mode_weights": NO_OP,  # a sign changes no span
        "model.cutoff": NO_OP,  # the closed subspace fits either cutoff
        "model.ldl": REFUSED,  # no LDL coupling vanishes, so nothing closes
        "colors[].ion": REFUSED,  # one ion
        "colors[].sideband": CHANGES,
        "colors[].rabi": NO_OP,  # generators are taken at unit Rabi
        "colors[].phase": NO_OP,
        "task.subspace": CHANGES,
        "task.tol": CHANGES,
        "task.max_dim": CHANGES,
    },
    "evolve": {
        **EVERY_TASK,
        "threshold": NO_OP,  # read only with subspace: closed
        "model.lamb_dicke": CHANGES,
        "model.mode_weights": CHANGES,
        "model.cutoff": CHANGES,
        "model.ldl": CHANGES,
        "colors[].ion": REFUSED,  # one ion
        "colors[].sideband": CHANGES,
        "colors[].rabi": CHANGES,
        "colors[].phase": CHANGES,
        "schedule.segments[].colors": CHANGES,
        "schedule.segments[].duration": CHANGES,
        "task.initial": CHANGES,
        "task.samples_per_segment": CHANGES,
        "task.subspace": CHANGES,
    },
    "laweberly": {
        **EVERY_TASK,
        **SCHEDULE_UNREAD,
        **COLORS_UNREAD,
        "colors[].ion": REFUSED,  # one ion
        "threshold": NO_OP,
        "model.lamb_dicke": CHANGES,
        "model.mode_weights": CHANGES,
        "model.cutoff": NO_OP,
        "model.ldl": CHANGES,
        "task.target": CHANGES,
    },
    "optimize": {
        **EVERY_TASK,
        **SCHEDULE_UNREAD,
        "threshold": CHANGES,  # copied into the best pulse's scenario
        "model.lamb_dicke": CHANGES,
        "model.mode_weights": CHANGES,
        "model.cutoff": CHANGES,
        "model.ldl": CHANGES,
        "colors[].ion": CHANGES,
        "colors[].sideband": CHANGES,
        "colors[].rabi": NO_OP,  # the search sets every amplitude and phase
        "colors[].phase": NO_OP,
        "task.objective": CHANGES,
        "task.target_spin": CHANGES,
        "task.purity_floor": CHANGES,
        "task.initial": CHANGES,
        "task.omega_max": CHANGES,
        "task.t_max": CHANGES,
        "task.segments": CHANGES,
        "task.population": CHANGES,
        "task.elite": CHANGES,
        "task.generations": CHANGES,
        "task.mutation_scale": CHANGES,
        "task.mutation_decay": CHANGES,
        "task.mutation_floor": CHANGES,
        "task.restart_after": CHANGES,
    },
}


def defaulted(kind):
    """The task's document with every default filled, as emitted."""
    return yaml.safe_load(emit_scenario(parse_scenario(yaml.safe_dump(DOCS[kind]))))


def field_paths(node, path=""):
    """Path of every field under node, list entries written []; a list of
    values is one field."""
    for key, value in node.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from field_paths(value, sub)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for entry in value:
                yield from field_paths(entry, f"{sub}[]")
        else:
            yield sub


def changed(doc, path):
    """A copy of doc with the field at path changed, in the first entry of
    each list on the way."""
    doc = copy.deepcopy(doc)
    if path in TASK_REWRITES:
        doc["task"] = TASK_REWRITES[path](doc["task"])
        return doc
    *parents, leaf = path.split(".")
    node = doc
    for key in parents:
        node = node[key[:-2]][0] if key.endswith("[]") else node[key]
    alternate = ALTERNATES[path]
    node[leaf] = alternate(node[leaf]) if callable(alternate) else alternate
    return doc


RUN_LINES = ("# generated_utc=", "# scenario_sha256=")


def run(tmp_path, doc, capsys):
    """Exit code, stderr and outputs of one run: file name -> its lines
    without the run-specific ones."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["run", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err
    outputs = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        lines = path.read_text(encoding="utf-8").splitlines()
        outputs[path.name] = [line for line in lines if not line.startswith(RUN_LINES)]
    return code, err, outputs


@pytest.mark.parametrize("kind", TASKS)
def test_table_covers_every_emitted_field(kind):
    assert sorted(EFFECTS[kind]) == sorted(set(field_paths(defaulted(kind))))


@pytest.mark.parametrize("kind", TASKS)
def test_each_field_changes_an_output_or_is_refused_or_documented(kind, tmp_path, capsys):
    doc = defaulted(kind)
    code, err, base = run(tmp_path, doc, capsys)
    assert code == 0, err
    wrong = []
    for path, expect in EFFECTS[kind].items():
        code, err, outputs = run(tmp_path, changed(doc, path), capsys)
        if code == 0:
            seen = CHANGES if outputs != base else NO_OP
        else:
            named = path.replace("[]", "[0]")
            refused = expect == REFUSED and code == 2 and err.startswith(f"error: {named}")
            seen = expect if refused else (code, err)
        if seen != expect:
            wrong.append((path, expect, seen))
    assert wrong == []
