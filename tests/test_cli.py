import tracemalloc

import numpy as np
import pytest

from ionctrl import cli
from ionctrl.cli import main
from ionctrl.csvio import strip_timestamp
from ionctrl.liealg import LieAlgebraResult, SweepTooLargeError


def read_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_validate_ok_and_exit_codes(tmp_path, capsys):
    good = write(
        tmp_path,
        "good.yaml",
        """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: zeros, degree: 2}
""",
    )
    assert main(["validate", str(good)]) == 0
    assert "scenario OK" in capsys.readouterr().out

    bad = write(tmp_path, "bad.yaml", "model: {ions: 1, cutoff: 4}\ntask: {kind: zeros, degree: 2}\n")
    assert main(["validate", str(bad)]) == 2
    assert "lamb_dicke" in capsys.readouterr().err

    assert main(["run", str(bad)]) == 2


def test_zeros_task_reproduces_truncation_value(tmp_path):
    scn = write(
        tmp_path,
        "zeros.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.527667, cutoff: 4}}
task: {{kind: zeros, degree: 6, order: 1}}
output: {tmp_path}/z
""",
    )
    assert main(["run", str(scn)]) == 0
    _, rows = read_rows(tmp_path / "z_zeros.csv")
    roots = [float(r[1]) for r in rows]
    assert len(roots) == 6
    assert min(abs(r - 0.527667) for r in roots) < 1e-5
    header, curve = read_rows(tmp_path / "z_curve.csv")
    assert header == ["x", "value"]
    assert len(curve) == 200


def test_graph_task_severed_blue_edge(tmp_path):
    scn = write(
        tmp_path,
        "graph.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: 12}}
colors:
  - {{ion: 0, sideband: carrier}}
  - {{ion: 0, sideband: blue}}
task: {{kind: graph}}
output: {tmp_path}/g
""",
    )
    assert main(["run", str(scn)]) == 0
    _, vrows = read_rows(tmp_path / "g_vertices.csv")
    index = {(r[1], int(r[2])): int(r[0]) for r in vrows}
    down6, up7 = index[("d", 6)], index[("u", 7)]
    _, erows = read_rows(tmp_path / "g_edges.csv")
    edges = {(int(r[0]), int(r[1])) for r in erows}
    assert (min(down6, up7), max(down6, up7)) not in edges
    # carrier pairing for the same rung is present
    assert (index[("d", 5)], index[("u", 5)]) in edges


def test_evolve_empty_schedule_keeps_initial_state(tmp_path):
    scn = write(
        tmp_path,
        "evolve.yaml",
        f"""
model: {{ions: 1, lamb_dicke: 0.1, cutoff: 4}}
task: {{kind: evolve}}
output: {tmp_path}/e
""",
    )
    assert main(["run", str(scn)]) == 0
    _, rows = read_rows(tmp_path / "e_trajectory.csv")
    assert len(rows) == 1
    time, index, re_amp, im_amp = rows[0]
    assert float(time) == 0.0
    assert int(index) == 0
    assert float(re_amp) == pytest.approx(1.0)
    assert float(im_amp) == 0.0


def test_two_ion_closed_evolve_peak_memory(tmp_path):
    """A two-ion, three-color evolve with its closed-subspace population at
    cutoff 256 (d = 1024) peaks below one and a half dense d x d
    operators: the resonant couplings are index maps, and the propagator
    holds only the half-size block it factors and its SVD factors."""
    scn = write(
        tmp_path,
        "evolve.yaml",
        f"""
model: {{ions: 2, eta_sq: 0.5276681217111285, cutoff: 256}}
colors:
  - {{ion: 0, sideband: blue, rabi: 0.3}}
  - {{ion: 1, sideband: blue, rabi: 0.3, phase: 0.4}}
  - {{ion: 0, sideband: carrier, rabi: 0.2}}
schedule: {{segments: [{{colors: [0, 1, 2], duration: 5.0}}]}}
task: {{kind: evolve, subspace: closed}}
output: {tmp_path}/e
""",
    )
    d = 4 * 256
    tracemalloc.start()
    try:
        assert main(["run", str(scn)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * d * d


def test_run_outputs_reproducible_modulo_timestamp(tmp_path):
    text = f"""
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: 25}}
colors:
  - {{ion: 0, sideband: carrier, rabi: 0.3, phase: 0.4}}
  - {{ion: 0, sideband: blue, rabi: 0.25, phase: 1.2}}
schedule:
  segments:
    - {{colors: [0, 1], duration: 40.0}}
task: {{kind: evolve, samples_per_segment: 6, subspace: closed}}
output: {tmp_path}/r
"""
    scn = write(tmp_path, "repro.yaml", text)
    assert main(["run", str(scn)]) == 0
    first = {
        p.name: strip_timestamp(p.read_text()) for p in tmp_path.glob("r_*.csv")
    }
    for p in tmp_path.glob("r_*.csv"):
        p.unlink()
    assert main(["run", str(scn)]) == 0
    second = {
        p.name: strip_timestamp(p.read_text()) for p in tmp_path.glob("r_*.csv")
    }
    assert first == second
    assert set(first) == {"r_trajectory.csv", "r_population.csv"}


def test_seed_and_out_overrides(tmp_path, capsys):
    scn = write(
        tmp_path,
        "opt.yaml",
        f"""
model: {{ions: 1, lamb_dicke: 0.1, cutoff: 4, ldl: true}}
colors:
  - {{ion: 0, sideband: carrier}}
task:
  kind: optimize
  objective: state
  target:
    - ["u", 0, 1.0, 0.0]
  generations: 10
  omega_max: 0.5
  t_max: 20.0
output: {tmp_path}/defaultdir/o
""",
    )
    outdir = tmp_path / "override"
    assert main(["run", str(scn), "--out", str(outdir), "--seed", "5"]) == 0
    capsys.readouterr()
    log = outdir / "o_optlog.csv"
    assert log.exists()
    assert "# seed=5" in log.read_text()
    best = outdir / "o_best.yaml"
    assert best.exists()
    from ionctrl.scenario import parse_scenario

    replay = parse_scenario(best.read_text())
    assert replay.task == "evolve"
    assert len(replay.segments) == 1


def test_liealg_task_closed_subspace_verdict(tmp_path):
    scn = write(
        tmp_path,
        "lie.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: 20}}
colors:
  - {{ion: 0, sideband: carrier}}
  - {{ion: 0, sideband: blue}}
task: {{kind: liealg, subspace: closed}}
output: {tmp_path}/lie
""",
    )
    assert main(["run", str(scn)]) == 0
    text = (tmp_path / "lie_liealg.csv").read_text()
    assert "# verdict=controllable" in text
    assert "# space_dim=14" in text
    assert "# dimension=196" in text


def test_closed_liealg_peak_memory(tmp_path):
    """The 14-state liealg at cutoff 256 (d = 512) peaks below one dense
    d x d operator: its generators are built on the closed states alone."""
    scn = write(
        tmp_path,
        "lie.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: 256}}
colors:
  - {{ion: 0, sideband: carrier}}
  - {{ion: 0, sideband: blue}}
task: {{kind: liealg, subspace: closed}}
output: {tmp_path}/lie
""",
    )
    d = 2 * 256
    tracemalloc.start()
    try:
        assert main(["run", str(scn)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "# space_dim=14" in (tmp_path / "lie_liealg.csv").read_text()
    assert peak < 16 * d * d


def test_non_finite_evolve_exits_2_naming_segment(tmp_path, capsys):
    """A phase rabi * duration beyond double precision turns the second
    segment's samples into NaN; the run is refused, not written without
    them."""
    scn = write(
        tmp_path,
        "huge.yaml",
        f"""
model: {{ions: 1, lamb_dicke: 0.1, cutoff: 4}}
colors: [{{ion: 0, sideband: carrier, rabi: 1.0e+300}}]
schedule:
  segments: [{{colors: [0], duration: 1.0}}, {{colors: [0], duration: 1.0e+300}}]
task: {{kind: evolve, subspace: full}}
output: {tmp_path}/e
""",
    )
    assert main(["run", str(scn)]) == 2
    err = capsys.readouterr().err
    assert "schedule.segments[1]" in err
    assert "Warning" not in err
    assert list(tmp_path.glob("e_*")) == []


def test_lamb_dicke_with_overflowing_square_exits_2(tmp_path, capsys):
    scn = write(
        tmp_path,
        "graph.yaml",
        f"""
model: {{ions: 1, lamb_dicke: 1.0e+300, cutoff: 4}}
colors: [{{ion: 0, sideband: carrier}}]
task: {{kind: graph}}
output: {tmp_path}/g
""",
    )
    assert main(["validate", str(scn)]) == 2
    assert "model.lamb_dicke" in capsys.readouterr().err
    assert main(["run", str(scn)]) == 2
    assert "model.lamb_dicke" in capsys.readouterr().err
    assert list(tmp_path.glob("g_*")) == []


def test_oversized_liealg_sweep_exits_2_naming_max_dim(tmp_path, capsys):
    scn = write(
        tmp_path,
        "lie_full.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: 50}}
colors:
  - {{ion: 0, sideband: carrier}}
  - {{ion: 0, sideband: blue}}
task: {{kind: liealg, subspace: full}}
output: {tmp_path}/lie_full
""",
    )
    assert main(["run", str(scn)]) == 2
    assert "task.max_dim" in capsys.readouterr().err
    assert not (tmp_path / "lie_full_liealg.csv").exists()


LIE_FULL = """
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: {cutoff}}}
colors:
  - {{ion: 0, sideband: carrier}}
  - {{ion: 0, sideband: blue}}
task: {{kind: liealg, subspace: full}}
output: {out}/lie
"""


@pytest.mark.parametrize("d", range(66, 83))
def test_liealg_precheck_takes_the_spin_parity_sectors(tmp_path, capsys, monkeypatch, d):
    """Full sweeps on d states split evenly between the spin parities are
    admitted up to d = 81, within 1 GiB for the graded sweep, and d = 82 is
    refused before the sweep runs; the subspace and sweep are stubbed."""
    # d // 2 spin-down states (even) and the rest spin-up (odd) at cutoff 42
    monkeypatch.setattr(cli, "_subspace", lambda scenario: list(range(42 - d // 2, 42 + d - d // 2)))
    calls = []

    def sweep(drift, controls, tol=None, max_dim=None):
        calls.append(drift.shape)
        none = np.zeros((0, d, d), dtype=complex)
        blocks = (np.arange(d), np.arange(0)), (none, none[..., :0]), (none[:, :0, :0], none[:, :0])
        return LieAlgebraResult(d * d, True, 1, ((0, 3, 3), (1, d * d - 3, d * d)), *blocks)

    monkeypatch.setattr(cli, "dynamical_lie_algebra", sweep)
    scn = write(tmp_path, "lie.yaml", LIE_FULL.format(cutoff=42, out=tmp_path))
    code = main(["run", str(scn)])
    if d < 82:
        assert code == 0 and calls == [(d, d)]
        return
    assert code == 2 and calls == []
    assert capsys.readouterr().err == (
        "error: task.max_dim: a sweep over 6724 elements of dimension 82 needs about 1035 MiB,"
        " above the 1024 MiB limit; set max_dim to bound it\n"
    )
    assert list(tmp_path.glob("lie_*")) == []


def test_sweep_refused_by_the_library_exits_2_naming_max_dim(tmp_path, capsys, monkeypatch):
    """A refusal the sweep raises itself, on sectors it infers otherwise
    than the spin parity, exits 2 like the pre-check's."""

    def sweep(drift, controls, tol=None, max_dim=None):
        raise SweepTooLargeError("a sweep over 4 elements needs about 2048 MiB")

    monkeypatch.setattr(cli, "dynamical_lie_algebra", sweep)
    scn = write(tmp_path, "lie.yaml", LIE_FULL.format(cutoff=2, out=tmp_path))
    assert main(["run", str(scn)]) == 2
    assert capsys.readouterr().err == "error: task.max_dim: a sweep over 4 elements needs about 2048 MiB\n"
    assert list(tmp_path.glob("lie_*")) == []


def test_full_liealg_refused_before_building_its_generators(tmp_path, capsys):
    """A full-basis sweep at cutoff 256 (d = 512) is refused from d and
    max_dim alone, before any of its dense d x d generators exists."""
    scn = write(
        tmp_path,
        "lie_full.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: 256}}
colors:
  - {{ion: 0, sideband: carrier}}
  - {{ion: 0, sideband: blue}}
task: {{kind: liealg, subspace: full}}
output: {tmp_path}/lie_full
""",
    )
    d = 2 * 256
    tracemalloc.start()
    try:
        assert main(["run", str(scn)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "task.max_dim" in capsys.readouterr().err
    assert list(tmp_path.glob("lie_full_*")) == []
    assert peak < 16 * d * d


@pytest.mark.parametrize(
    "lamb_dicke, cutoff",
    [
        (20.0, 240),  # eta**239 overflows a double
        (1.0e10, 21),  # exp(-eta^2/2) is 0 and L_20(eta^2) is inf: 0 * inf
    ],
)
def test_matelem_beyond_double_precision_exits_2(tmp_path, capsys, lamb_dicke, cutoff):
    scn = write(
        tmp_path,
        "m.yaml",
        f"""
model: {{ions: 1, lamb_dicke: {lamb_dicke}, cutoff: {cutoff}}}
task: {{kind: matelem}}
output: {tmp_path}/m
""",
    )
    assert main(["run", str(scn)]) == 2
    err = capsys.readouterr().err
    assert "model.lamb_dicke" in err
    assert "Traceback" not in err and "Warning" not in err
    assert list(tmp_path.glob("m_*")) == []


@pytest.mark.parametrize(
    "task, field",
    [
        # the default grid reaches x = 1602, where L_400 overflows a double
        ("{kind: zeros, degree: 400}", "task.grid_max"),
        # the dense eigensolve would need about 1.1 GiB
        ("{kind: zeros, degree: 7000, grid_max: 1.0}", "task.degree"),
    ],
    ids=["curve_overflow", "oversized_eigensolve"],
)
def test_uncomputable_zeros_exit_2_naming_field(tmp_path, capsys, task, field):
    scn = write(
        tmp_path,
        "zeros.yaml",
        f"""
model: {{ions: 1, lamb_dicke: 0.1, cutoff: 4}}
task: {task}
output: {tmp_path}/z
""",
    )
    assert main(["run", str(scn)]) == 2
    assert field in capsys.readouterr().err
    assert list(tmp_path.glob("z_*")) == []


@pytest.mark.parametrize(
    "doc, field",
    [
        (
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
schedule: {segments: [{colors: [0], duration: .nan}]}
task: {kind: evolve}
""",
            "schedule.segments[0].duration",
        ),
        (
            """
model: {ions: 1, lamb_dicke: .inf, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: graph}
""",
            "model.lamb_dicke",
        ),
        (
            """
model: {ions: 1, lamb_dicke: 0.1, mode_weights: [null], cutoff: 4}
task: {kind: graph}
""",
            "model.mode_weights[0]",
        ),
        (
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: laweberly, target: [["d", 0, 1.0, null]]}
""",
            "task.target[0]",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, target_spin: [["dd", 1.0, 0.0], ["uu", .nan, 0.0]]}
""",
            "task.target_spin[1]",
        ),
        (
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: liealg, subspace: full, max_dim: 0}
""",
            "task.max_dim",
        ),
        (
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: zeros, degree: 3, grid_max: -1.0}
""",
            "task.grid_max",
        ),
        *(
            (
                f"""
model: {{ions: 1, lamb_dicke: 0.1, cutoff: 4}}
colors: [{{ion: 0, sideband: carrier}}]
task: {{kind: optimize, {setting}}}
""",
                field,
            )
            for setting, field in (
                ("elite: 40", "task.elite"),
                ("population: 4", "task.elite"),
                ("segments: 9", "task.segments"),
                ("omega_max: -0.5", "task.omega_max"),
                ("t_max: 0.0", "task.t_max"),
                ("generations: 0", "task.generations"),
            )
        ),
        (
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier, detuning: 0.1}]
task: {kind: graph}
""",
            "colors[0].detuning",
        ),
        (
            """
model: {ions: [{splitting: -1.0}], lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: graph}
""",
            "model.ions[0].splitting",
        ),
        (
            # only the unit splitting, individually addressed ions and the unit
            # mode frequency are modeled, and matelem has no LDL form
            """
model: {ions: [{splitting: 2.0}], lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: graph}
""",
            "model.ions[0].splitting",
        ),
        (
            """
model: {ions: [{}, {addressable: false}], lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: liealg}
""",
            "model.ions[1].addressable",
        ),
        (
            """
model: {ions: 1, mode_freq: 2.0, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, generations: 1}
""",
            "model.mode_freq",
        ),
        (
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4, ldl: true}
task: {kind: matelem}
""",
            "model.ldl",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
task: {kind: laweberly, target: [["dd", 0, 1.0, 0.0]]}
""",
            "model.ions",
        ),
        (
            # (1024 + 1)^2 rows pass the 2^20-row limit
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: matelem, max_n: 1024}
""",
            "task.max_n",
        ),
        (
            # max_n defaults to cutoff - 1
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 1025}
task: {kind: matelem}
""",
            "model.cutoff",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, purity_floor: 1.5}
""",
            "task.purity_floor",
        ),
        (
            # every task that writes or holds rows shares the 2^20-row limit
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: zeros, degree: 3, grid_points: 1048577}
""",
            "task.grid_points",
        ),
        (
            # (1 + 1 * 131072) samples of d = 8 amplitudes
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
schedule: {segments: [{colors: [0], duration: 1.0}]}
task: {kind: evolve, samples_per_segment: 131072}
""",
            "task.samples_per_segment",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, generations: 1048577}
""",
            "task.generations",
        ),
        (
            # 349526 candidates of 2 * 1 * 1 + 1 parameters
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, population: 349526}
""",
            "task.population",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, mutation_scale: -1.0}
""",
            "task.mutation_scale",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, mutation_decay: 7.0}
""",
            "task.mutation_decay",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, mutation_floor: -1.0}
""",
            "task.mutation_floor",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, restart_after: 0}
""",
            "task.restart_after",
        ),
        (
            """
seed: -1
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, generations: 1}
""",
            "seed",
        ),
        (
            # a valid document; the negative seed comes from the command line
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, generations: 1}
""",
            "--seed",
        ),
        (
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: liealg}
""",
            "colors",
        ),
        (
            """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
task: {kind: optimize, generations: 1}
""",
            "colors",
        ),
    ],
    ids=[
        "nan_duration",
        "inf_lamb_dicke",
        "null_mode_weight",
        "null_amplitude",
        "nan_spin_amplitude",
        "zero_max_dim",
        "negative_grid_max",
        "elite_above_population",
        "population_below_default_elite",
        "nine_segments",
        "negative_omega_max",
        "zero_t_max",
        "zero_generations",
        "nonzero_detuning",
        "negative_splitting",
        "non_unit_splitting",
        "not_addressable",
        "non_unit_mode_freq",
        "matelem_ldl",
        "two_ion_laweberly",
        "matelem_max_n_rows",
        "matelem_default_max_n_rows",
        "purity_floor_above_one",
        "zeros_grid_points_rows",
        "evolve_samples_rows",
        "optimize_generations_rows",
        "optimize_population_rows",
        "negative_mutation_scale",
        "mutation_decay_above_one",
        "negative_mutation_floor",
        "zero_restart_after",
        "negative_seed",
        "negative_seed_override",
        "liealg_without_colors",
        "optimize_without_colors",
    ],
)
def test_invalid_numbers_exit_2_naming_field(tmp_path, capsys, doc, field):
    scn = write(tmp_path, "bad.yaml", doc)
    # a command-line field is read by run alone; validate sees only the document
    override = [field, "-5"] if field.startswith("--") else []
    assert main(["validate", str(scn)]) == (0 if override else 2)
    assert (field in capsys.readouterr().err) != bool(override)
    assert main(["run", str(scn), "--out", str(tmp_path), *override]) == 2
    assert field in capsys.readouterr().err


def test_unclosed_subspace_exits_2_naming_field(tmp_path, capsys):
    # away from a Laguerre zero the blue ladder reaches the cutoff
    scn = write(
        tmp_path,
        "open.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.3, cutoff: 12}}
colors: [{{ion: 0, sideband: carrier}}, {{ion: 0, sideband: blue}}]
schedule: {{segments: [{{colors: [0, 1], duration: 1.0}}]}}
task: {{kind: evolve, subspace: closed}}
output: {tmp_path}/e
""",
    )
    assert main(["validate", str(scn)]) == 0
    capsys.readouterr()
    assert main(["run", str(scn)]) == 2
    assert "task.subspace" in capsys.readouterr().err
    assert list(tmp_path.glob("e_*")) == []


def test_ldl_closed_subspace_exits_2_naming_ldl(tmp_path, capsys):
    # eta*sqrt(n) vanishes at no rung, so no Lamb-Dicke parameter closes the ladder
    scn = write(
        tmp_path,
        "ldl.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.5276681217111285, cutoff: 12, ldl: true}}
colors: [{{ion: 0, sideband: carrier}}, {{ion: 0, sideband: blue}}]
schedule: {{segments: [{{colors: [0, 1], duration: 1.0}}]}}
task: {{kind: evolve, subspace: closed}}
output: {tmp_path}/e
""",
    )
    assert main(["run", str(scn)]) == 2
    assert capsys.readouterr().err.startswith("error: model.ldl:")
    assert list(tmp_path.glob("e_*")) == []


@pytest.mark.parametrize(
    "mutation, code",
    [("", 0), (", mutation_scale: 0.0, mutation_floor: 0.0", 2)],
    ids=["some_clipped_to_zero", "all_discarded"],
)
def test_search_past_double_range_keeps_its_finite_best_or_exits_2(
    tmp_path, capsys, mutation, code
):
    """Pulse areas past double range leave no finite final state, so such
    candidates score -inf, and a stack of them alone is not scored.  A child
    whose amplitude is clipped to 0 keeps |dd,0>, which scores 0.5; where no
    child moves, every candidate is discarded and the run is refused."""
    scn = write(
        tmp_path,
        "huge.yaml",
        f"""
model: {{ions: 2, lamb_dicke: 0.3, cutoff: 4}}
colors: [{{ion: 0, sideband: carrier}}]
task: {{kind: optimize, omega_max: 1.0e+300, t_max: 1.0e+300, generations: 3{mutation}}}
output: {tmp_path}/o
""",
    )
    assert main(["run", str(scn)]) == code
    err = capsys.readouterr().err
    if code == 0:
        header, rows = read_rows(tmp_path / "o_optlog.csv")
        assert float(rows[-1][header.index("best_score")]) == 0.5
    else:
        assert err.startswith("error: task.omega_max:")
        assert "t_max" in err
        assert list(tmp_path.glob("o_*")) == []


@pytest.mark.parametrize("override, field", [(True, "--out"), (False, "output")])
def test_unwritable_output_exits_2_naming_field(tmp_path, capsys, override, field):
    """An output path under a regular file cannot be written; the error
    names the command-line override or the document field that set it."""
    blocker = write(tmp_path, "blocker", "")
    out = blocker / "sub"
    scn = write(
        tmp_path,
        "zeros.yaml",
        f"""
model: {{ions: 1, lamb_dicke: 0.1, cutoff: 4}}
task: {{kind: zeros, degree: 2}}
output: {"z" if override else out / "z"}
""",
    )
    assert main(["run", str(scn), *(["--out", str(out)] if override else [])]) == 2
    captured = capsys.readouterr()
    assert f"error: {field}: cannot write" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unreachable_laweberly_target_exits_1_without_output(tmp_path, capsys):
    # eta^2 = 2 - sqrt(2) is the smallest zero of L_2^0: the carrier cannot
    # lift |d, 2> to |u, 2>, so |d, 3> is out of reach
    scn = write(
        tmp_path,
        "le.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.5857864376269049, cutoff: 8}}
task: {{kind: laweberly, target: [[d, 3, 1.0, 0.0]]}}
output: {tmp_path}/le
""",
    )
    assert main(["run", str(scn)]) == 1
    assert "carrier coupling vanishes at rung 2" in capsys.readouterr().err
    assert list(tmp_path.glob("le*")) == [tmp_path / "le.yaml"]


def test_full_subspace_keeps_all_population(tmp_path):
    scn = write(
        tmp_path,
        "full.yaml",
        f"""
model: {{ions: 1, eta_sq: 0.3, cutoff: 12}}
colors: [{{ion: 0, sideband: carrier}}, {{ion: 0, sideband: blue}}]
schedule: {{segments: [{{colors: [0, 1], duration: 3.0}}]}}
task: {{kind: evolve, samples_per_segment: 8, subspace: full}}
output: {tmp_path}/e
""",
    )
    assert main(["run", str(scn)]) == 0
    path = tmp_path / "e_population.csv"
    _, rows = read_rows(path)
    assert len(rows) == 9
    assert all(abs(float(v) - 1.0) <= 1e-12 for _, v in rows)
    header = dict(
        line[2:].split("=", 1) for line in path.read_text().splitlines() if line.startswith("# ")
    )
    assert header["subspace_size"] == "24"
    assert float(header["max_leakage"]) <= 1e-12


def test_optimize_out_not_utf8_exits_2_before_search(tmp_path, capsys):
    """The best pulse's scenario embeds its output path, and a path that
    UTF-8 cannot encode would be emitted as an escape no loader reads back."""
    scn = write(
        tmp_path,
        "opt.yaml",
        """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task: {kind: optimize, objective: state, target: [["u", 0, 1.0, 0.0]], generations: 1}
""",
    )
    bad = tmp_path / "bad\udcffdir"
    assert main(["run", str(scn), "--out", str(bad)]) == 2
    assert "--out" in capsys.readouterr().err
    assert not bad.exists()
    assert main(["run", str(scn), "--out", str(tmp_path / "good")]) == 0
    best = tmp_path / "good" / "scenario_best.yaml"
    assert main(["validate", str(best)]) == 0


def test_undecodable_scenario_file_exits_2(tmp_path, capsys):
    scn = tmp_path / "latin1.yaml"
    scn.write_bytes("output: r\xe9sultats\n".encode("latin-1"))
    assert main(["validate", str(scn)]) == 2
    assert "cannot read scenario file" in capsys.readouterr().err


# two ions: d = 4 * cutoff, and one d x d complex operator passes 1 GiB
# above cutoff 2048; validate only, a run would build such operators
@pytest.mark.parametrize("cutoff, code", [(2049, 2), (2048, 0)])
def test_oversized_basis_refused_at_parse(tmp_path, capsys, cutoff, code):
    scn = write(
        tmp_path,
        "big.yaml",
        f"""
model: {{ions: 2, lamb_dicke: 0.1, cutoff: {cutoff}}}
colors: [{{ion: 0, sideband: carrier}}]
task: {{kind: evolve}}
""",
    )
    assert main(["validate", str(scn)]) == code
    assert ("model.cutoff" in capsys.readouterr().err) == (code == 2)


# (1023 + 1)^2 = 2^20 matrix elements, the most a matelem task may write;
# validate only
def test_matelem_row_limit_boundary_validates(tmp_path):
    scn = write(
        tmp_path,
        "rows.yaml",
        """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: matelem, max_n: 1023}
""",
    )
    assert main(["validate", str(scn)]) == 0


# (1 + 1 * 131071) samples of d = 8 amplitudes are exactly 2^20 rows;
# validate only
def test_evolve_row_limit_boundary_validates(tmp_path):
    scn = write(
        tmp_path,
        "rows.yaml",
        """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
schedule: {segments: [{colors: [0], duration: 1.0}]}
task: {kind: evolve, samples_per_segment: 131071}
""",
    )
    assert main(["validate", str(scn)]) == 0


def test_fields_of_the_other_objective_exit_2(tmp_path, capsys):
    # a state objective has no spin target and no purity floor
    scn = write(
        tmp_path,
        "conflict.yaml",
        """
model: {ions: 2, lamb_dicke: 0.1, cutoff: 4}
colors: [{ion: 0, sideband: carrier}]
task:
  kind: optimize
  objective: state
  target: [["uu", 0, 1.0, 0.0]]
  target_spin: [["dd", 1.0, 0.0]]
  purity_floor: 0.5
""",
    )
    assert main(["validate", str(scn)]) == 2
    assert "task.target_spin" in capsys.readouterr().err
    assert main(["run", str(scn), "--out", str(tmp_path)]) == 2
    assert "task.target_spin" in capsys.readouterr().err


def test_laweberly_task_emits_replayable_schedule(tmp_path):
    scn = write(
        tmp_path,
        "le.yaml",
        f"""
model: {{ions: 1, lamb_dicke: 0.15, cutoff: 8, ldl: true}}
task:
  kind: laweberly
  target:
    - ["d", 0, 0.7071067811865476, 0.0]
    - ["u", 1, 0.0, 0.7071067811865476]
output: {tmp_path}/le
""",
    )
    assert main(["run", str(scn)]) == 0
    text = (tmp_path / "le_laweberly.csv").read_text()
    fidelity = float(
        next(l for l in text.splitlines() if l.startswith("# replay_fidelity=")).split("=")[1]
    )
    assert fidelity >= 1.0 - 1e-8
