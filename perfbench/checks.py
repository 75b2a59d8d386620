"""Correctness checks of each workload's outputs.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks hold their own references (scipy `expm`
propagation, recorded oracle states, expected Lie dimensions, a snapshot of
the cookbook outputs) and never loosen a tolerance to let a run pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import ionctrl as ic

SCORE_TOL = 1e-9
NORM_TOL = 1e-9
SNAPSHOT_TOL = 1e-10
# Header keys that legitimately differ between runs: the timestamp, and the
# seed and scenario hash, which follow the --seed and --out overrides.
SNAPSHOT_SKIP = ("generated_utc", "seed", "scenario_sha256")


# -- bell_search -------------------------------------------------------------


def reference_spin_score(model, colors, params, objective) -> tuple[float, float]:
    """Score of a returned pulse, re-propagated with scipy's expm per segment.

    Returns (fidelity, purity) of the reduced spin state."""
    import scipy.linalg  # imported here so that it stays out of the timed set-up

    psi = np.asarray(objective.initial, dtype=complex)
    seg_time = params.duration / len(params.amplitudes)
    for amps, phis in zip(params.amplitudes, params.phases):
        h = np.zeros((model.basis.dimension,) * 2, dtype=complex)
        for color, amp, phi in zip(colors, amps, phis):
            h += amp * np.exp(1j * phi) * ic.control_raising(model, color)
        h = h + h.conj().T
        psi = scipy.linalg.expm(-1j * seg_time * h) @ psi
    spin_dim = 2**model.basis.ion_count
    amp = psi.reshape(spin_dim, model.basis.fock_cutoff)
    rho = amp @ amp.conj().T
    target = np.asarray(objective.target, dtype=complex)
    fidelity = float(np.real(target.conj() @ rho @ target))
    purity = float(np.real(np.trace(rho @ rho)))
    return fidelity, purity


def check_bell(model, colors, objective, params, score, history) -> list[str]:
    errors = []
    fidelity, purity = reference_spin_score(model, colors, params, objective)
    expected = [fidelity if purity >= objective.purity_floor else fidelity * purity]
    if abs(purity - objective.purity_floor) <= SCORE_TOL:
        # at the floor either branch of the objective is a faithful score
        expected = [fidelity, fidelity * purity]
    if min(abs(score - e) for e in expected) > SCORE_TOL:
        errors.append(f"returned score {score!r} differs from the expm reference {expected[0]!r}")
    best = [h.best_score for h in history]
    if any(b < a for a, b in zip(best, best[1:])):
        errors.append("best-score history is not monotone")
    if best and best[-1] != score:
        errors.append(f"last best score {best[-1]!r} is not the returned score {score!r}")
    return errors


def count_evaluations(history, search) -> int:
    """Candidate evaluations of one `optimize` run, read off its history.

    The initial population, the children of each generation and the
    reseeded population at each restart.  A restart shows as the mutation
    scale returning to its start value; one after the final generation
    leaves no record, so it is found by replaying the stagnation counter,
    which resets on an improvement of the best score (> 1e-12) or a restart.
    Exact when the run has more than restart_after + 1 generations.
    """
    children = search.population - search.elite
    restarts = 0
    last_reset = 0
    for g in range(1, len(history)):
        if history[g].mutation_scale == search.mutation_scale:
            restarts += 1
            last_reset = g - 1
        if history[g].best_score > history[g - 1].best_score + 1e-12:
            last_reset = g
    if len(history) - 1 - last_reset == search.restart_after:
        restarts += 1
    return search.population + children * len(history) + (search.population - 1) * restarts


# -- rwa_audit ---------------------------------------------------------------


def check_audit(reference: dict, oracle_final, rwa_final) -> list[str]:
    """Oracle and RWA final states against the values recorded at the seed commit.

    The tolerance is half the recorded dt-halving drift of the oracle on this
    schedule: a result that moved by more than that did not come from a
    converged (dt/2) oracle run."""
    if "raises" in reference:
        return [f"no recorded state: the oracle raised at the reference commit ({reference['raises']})"]
    errors = []
    for label, psi in (("oracle", oracle_final), ("rwa", rwa_final)):
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > NORM_TOL:
            errors.append(f"{label} final state has norm {norm!r}")
    tol = 0.5 * reference["drift"]
    ref_state = np.array(reference["state_re"]) + 1j * np.array(reference["state_im"])
    shift = float(np.linalg.norm(np.asarray(oracle_final) - ref_state))
    if shift > tol:
        errors.append(f"oracle final state moved {shift:.3e} from the recorded one (tol {tol:.3e})")
    distance = float(np.linalg.norm(np.asarray(oracle_final) - np.asarray(rwa_final)))
    if abs(distance - reference["distance"]) > tol:
        errors.append(
            f"oracle-RWA distance {distance!r} differs from the recorded "
            f"{reference['distance']!r} by more than {tol:.3e}"
        )
    return errors


# -- controllability ---------------------------------------------------------


def check_controllability(expected: dict, subspace, dimension: int, verdict: str) -> list[str]:
    errors = []
    size = None if subspace is None else len(subspace)
    if size != expected["subspace"]:
        errors.append(f"closed subspace of size {size}, expected {expected['subspace']}")
    if dimension != expected["dimension"]:
        errors.append(f"Lie dimension {dimension}, expected {expected['dimension']}")
    if verdict != expected["verdict"]:
        errors.append(f"verdict {verdict!r}, expected {expected['verdict']!r}")
    return errors


# -- cookbook ----------------------------------------------------------------


def read_output(path: Path) -> tuple[dict, list[list[str]]]:
    """Provenance header (minus run-specific keys) and data rows of an output."""
    header, rows = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            if key not in SNAPSHOT_SKIP:
                header[key] = value
        elif line:
            rows.append(line.split(","))
    return header, rows


def _same_value(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=SNAPSHOT_TOL, abs_tol=SNAPSHOT_TOL)


def compare_output(produced: Path, expected: Path) -> list[str]:
    got_header, got_rows = read_output(produced)
    want_header, want_rows = read_output(expected)
    errors = []
    if got_header.keys() != want_header.keys():
        errors.append(f"{produced.name}: header keys {sorted(got_header)} != {sorted(want_header)}")
    for key in want_header.keys() & got_header.keys():
        if not _same_value(got_header[key], want_header[key]):
            errors.append(f"{produced.name}: header {key}={got_header[key]} != {want_header[key]}")
    if len(got_rows) != len(want_rows):
        errors.append(f"{produced.name}: {len(got_rows)} rows, snapshot has {len(want_rows)}")
        return errors
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        if len(got) != len(want) or not all(map(_same_value, got, want)):
            errors.append(f"{produced.name}: row {i} {got} != snapshot {want}")
            break
    return errors


def rescore_pi_pulse(out_dir: Path) -> list[str]:
    """Re-propagate the optimize_pi best pulse and compare its reported score."""
    import scipy.linalg

    from ionctrl.scenario import parse_scenario

    log_header, _ = read_output(out_dir / "optimize_pi_optlog.csv")
    scenario = parse_scenario((out_dir / "optimize_pi_best.yaml").read_text(encoding="utf-8"))
    model = scenario.model
    psi = model.basis.vector(ic.BasisState((0,), 0))
    for indices, duration in scenario.segments:
        h = np.zeros((model.basis.dimension,) * 2, dtype=complex)
        for i in indices:
            color = scenario.colors[i]
            h += color.rabi * np.exp(1j * color.phase) * ic.control_raising(model, color)
        h = h + h.conj().T
        psi = scipy.linalg.expm(-1j * duration * h) @ psi
    score = float(abs(psi[model.basis.index(ic.BasisState((1,), 0))]) ** 2)
    reported = float(log_header["best_score"])
    if abs(score - reported) > SCORE_TOL:
        return [f"optimize_pi best_score {reported!r} but the pulse scores {score!r}"]
    return []


def check_cookbook(out_dir: Path, snapshot_dir: Path, exit_codes: dict) -> list[str]:
    errors = [f"{name}: exit code {code}" for name, code in exit_codes.items() if code != 0]
    if errors:
        return errors
    for expected in sorted(snapshot_dir.iterdir()):
        produced = out_dir / expected.name
        if not produced.exists():
            errors.append(f"{expected.name}: not written")
            continue
        errors += compare_output(produced, expected)
    errors += rescore_pi_pulse(out_dir)
    return errors


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))
