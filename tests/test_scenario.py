import pytest

from ionctrl.scenario import ScenarioError, emit_scenario, parse_scenario

MINIMAL = """
model:
  ions: 1
  lamb_dicke: 0.1
  cutoff: 6
colors:
  - {ion: 0, sideband: carrier}
task:
  kind: graph
"""


def test_minimal_scenario_fills_defaults():
    s = parse_scenario(MINIMAL)
    assert s.seed == 0
    assert s.threshold == 1e-9
    assert s.output == "out/scenario"
    assert s.model.basis.fock_cutoff == 6
    assert not s.model.ldl
    assert s.colors[0].rabi == 1.0
    assert s.segments == ()
    assert s.task == "graph"


def test_eta_sq_alias():
    s = parse_scenario(
        """
model: {ions: 1, eta_sq: 0.25, cutoff: 4}
task: {kind: zeros, degree: 2}
"""
    )
    assert s.model.trap.lamb_dicke == pytest.approx(0.5)


def test_eta_exclusivity():
    with pytest.raises(ScenarioError, match="lamb_dicke"):
        parse_scenario(
            """
model: {ions: 1, lamb_dicke: 0.1, eta_sq: 0.01, cutoff: 4}
task: {kind: zeros, degree: 2}
"""
        )


def test_undefined_ion_reference():
    with pytest.raises(ScenarioError, match=r"colors\[0\].ion"):
        parse_scenario(
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors:
  - {ion: 1, sideband: carrier}
task: {kind: graph}
"""
        )


def test_undefined_color_reference():
    with pytest.raises(ScenarioError, match=r"schedule.segments\[0\].colors"):
        parse_scenario(
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors:
  - {ion: 0, sideband: carrier}
schedule:
  segments:
    - {colors: [2], duration: 1.0}
task: {kind: evolve}
"""
        )


def test_unknown_field_rejected():
    with pytest.raises(ScenarioError, match="model.frobnicate"):
        parse_scenario(
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4, frobnicate: 1}
task: {kind: graph}
"""
        )


def test_parse_error_reports_position():
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario("model: {ions: 1,\n  bad yaml: [unclosed\n")


def test_task_kind_required_and_known():
    with pytest.raises(ScenarioError, match="task.kind"):
        parse_scenario(
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task: {kind: frobnicate}
"""
        )


def test_state_spec_validation():
    with pytest.raises(ScenarioError, match="task.target"):
        parse_scenario(
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task:
  kind: laweberly
  target:
    - ["x", 0, 1.0, 0.0]
"""
        )
    with pytest.raises(ScenarioError, match="not normalized"):
        parse_scenario(
            """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
task:
  kind: laweberly
  target:
    - ["d", 0, 0.5, 0.0]
"""
        )


def test_schedule_realization():
    s = parse_scenario(
        """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4}
colors:
  - {ion: 0, sideband: carrier, rabi: 0.3, phase: 0.5}
  - {ion: 0, sideband: blue, rabi: 0.2}
schedule:
  segments:
    - {colors: [0, 1], duration: 2.5}
    - {colors: [1], duration: 1.5}
task: {kind: evolve}
"""
    )
    sched = s.schedule()
    assert len(sched.segments) == 2
    assert sched.total_time == pytest.approx(4.0)
    assert sched.segments[0].colors[0].rabi == 0.3
    assert sched.segments[1].colors[0].sideband == "blue"


ROUND_TRIP_DOCS = [
    MINIMAL,
    """
model:
  ions:
    - {splitting: 2.0, addressable: false}
    - {splitting: 2.0, addressable: false}
  eta_sq: 0.527667
  mode_weights: [1.0, -1.0]
  cutoff: 12
colors:
  - {ion: 0, sideband: blue, rabi: 0.1}
  - {ion: 1, sideband: blue, rabi: 0.1, phase: 1.0}
  - {ion: 0, sideband: carrier, rabi: 0.05}
task: {kind: liealg, subspace: closed}
seed: 7
output: /tmp/two_ion
""",
    """
model: {ions: 1, lamb_dicke: 0.15, cutoff: 8, ldl: true}
task:
  kind: laweberly
  target:
    - ["d", 0, 0.7071067811865476, 0.0]
    - ["u", 2, 0.0, 0.7071067811865476]
""",
    """
model: {ions: 1, lamb_dicke: 0.1, cutoff: 4, ldl: true}
colors:
  - {ion: 0, sideband: carrier}
task:
  kind: optimize
  objective: state
  target:
    - ["u", 0, 1.0, 0.0]
  generations: 5
""",
    """
model: {ions: 2, eta_sq: 0.527667, cutoff: 8}
colors:
  - {ion: 0, sideband: blue}
  - {ion: 1, sideband: blue}
  - {ion: 0, sideband: carrier}
task: {kind: optimize, segments: 4, generations: 10}
""",
    """
model: {ions: 1, lamb_dicke: 0.7264, cutoff: 20}
task: {kind: zeros, degree: 6, order: 1}
""",
]


@pytest.mark.parametrize("doc", ROUND_TRIP_DOCS)
def test_emission_is_parse_fixed_point(doc):
    once = emit_scenario(parse_scenario(doc))
    twice = emit_scenario(parse_scenario(once))
    assert once == twice


def test_overrides():
    s = parse_scenario(MINIMAL)
    s2 = s.with_overrides(output="elsewhere/run", seed=9)
    assert s2.output == "elsewhere/run"
    assert s2.seed == 9
    assert s.output == "out/scenario"
