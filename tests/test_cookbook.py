"""Every cookbook scenario parses, re-emits stably, runs to exit 0, and
reproduces the recorded outputs in perfbench/data/cookbook."""

import math
import time
from pathlib import Path

import pytest

from ionctrl.cli import main
from ionctrl.scenario import emit_scenario, parse_scenario

ROOT = Path(__file__).parent.parent
COOKBOOK = sorted((ROOT / "scenarios").glob("*.yaml"))
SNAPSHOT = ROOT / "perfbench" / "data" / "cookbook"
# header keys that follow the timestamp and the --out and --seed overrides
RUN_SPECIFIC = ("generated_utc", "seed", "scenario_sha256")

assert COOKBOOK, "cookbook scenarios missing"


@pytest.mark.parametrize("path", COOKBOOK, ids=lambda p: p.stem)
def test_round_trip_stability(path):
    scenario = parse_scenario(path.read_text())
    once = emit_scenario(scenario)
    twice = emit_scenario(parse_scenario(once))
    assert once == twice


def read_output(path):
    """Header (minus run-specific keys) and data rows, values as strings."""
    header, rows = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            if key not in RUN_SPECIFIC:
                header[key] = value
        elif line:
            rows.append(line.split(","))
    return header, rows


def same_value(a, b):
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-10, abs_tol=1e-10)
    except ValueError:
        return a == b


@pytest.mark.parametrize("path", COOKBOOK, ids=lambda p: p.stem)
def test_runs_clean_within_budget(path, tmp_path):
    start = time.monotonic()
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert time.monotonic() - start < 300.0
    assert any(tmp_path.iterdir())
    for produced in tmp_path.iterdir():
        recorded = SNAPSHOT / produced.name
        if not recorded.exists():
            continue
        got_header, got_rows = read_output(produced)
        want_header, want_rows = read_output(recorded)
        assert got_header.keys() == want_header.keys(), produced.name
        for key, want in want_header.items():
            assert same_value(got_header[key], want), (produced.name, key)
        assert len(got_rows) == len(want_rows), produced.name
        for i, (got, want) in enumerate(zip(got_rows, want_rows)):
            assert len(got) == len(want) and all(map(same_value, got, want)), (produced.name, i)
