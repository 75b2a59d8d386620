"""The graded Lie sweep: the parity grading it infers from the generators,
and its results on graded generator sets against the all-pairs reference.

Each drawn set is homogeneous under a random 0/1 labelling of the states:
a diagonal drift, odd controls coupling only states of different labels,
and diagonal even controls (an even coupling inside one label runs as
one sector, which `test_liealg_properties` covers).  The sweep must
report the reference's history, dimension and saturation, and every
element it returns must be even or odd under the parity it inferred.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionctrl import (
    FieldColor,
    IonConfig,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    build_control,
    build_drift,
    closed_subspace,
    dynamical_lie_algebra,
)
from ionctrl.cli import _subspace
from ionctrl.liealg import _grading
from ionctrl.model import _generators
from ionctrl.scenario import parse_scenario
from test_liealg import ROOT_BLUE, SX, SZ, ldl_ladder, odd_ring, truncated_subsystem
from test_liealg_properties import ENTRIES, reference_sweep

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@st.composite
def graded_sets(draw):
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 6]))
    label = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    diagonals = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=d, max_size=d)
    mats = [np.diag(draw(diagonals)).astype(complex)]
    for _ in range(draw(st.integers(0, 2))):
        mats.append(np.diag(draw(diagonals)).astype(complex))
    pairs = [(j, k) for j in range(d) for k in range(d) if label[j] != label[k]]
    for _ in range(draw(st.integers(1, 3)) if pairs else 0):
        h = np.zeros((d, d), dtype=complex)
        entries = st.tuples(st.sampled_from(pairs), st.sampled_from(ENTRIES))
        for (j, k), v in draw(st.lists(entries, min_size=1, max_size=2 * d)):
            h[j, k] += v
            h[k, j] += np.conj(v)
        mats.append(h)
    cap = draw(st.sampled_from([None, None, 1, 8 * d * d // 9]))
    cap = cap and draw(st.integers(cap, d * d))
    return mats, cap


def parity(sectors):
    p = np.ones(sum(map(len, sectors)))
    p[sectors[1]] = -1.0
    return p


@SETTINGS
@given(graded_sets())
def test_graded_sweep_matches_all_pairs_reference(case):
    mats, cap = case
    scale = max(np.linalg.norm(m) for m in mats)
    if scale == 0.0:
        return
    result = dynamical_lie_algebra(mats[0], mats[1:], max_dim=cap)
    history, dimension, saturated = reference_sweep(mats, 1e-8 * scale, cap)
    assert result.history == history
    assert result.dimension == dimension
    assert result.saturated is saturated
    # every element is even or odd under the inferred parity P: P X P = +-X
    p = parity(_grading(mats)[0])
    for x in result.basis:
        pxp = p[:, None] * x * p
        assert np.array_equal(pxp, x) or np.array_equal(pxp, -x)


def test_closed_14_splits_seven_and_seven():
    drift, controls, _ = truncated_subsystem()
    mats = [drift, *controls]
    sectors, grades = _grading(mats)
    assert list(map(len, sectors)) == [7, 7]
    assert grades == [0, 1, 1]
    p = parity(sectors)
    for m, g in zip(mats, grades):
        np.testing.assert_array_equal(p[:, None] * m * p, (-1) ** g * m)


def test_ldl_cutoff_10_splits_ten_and_ten():
    _, drift, controls = ldl_ladder(10)
    sectors, _ = _grading([drift, *controls])
    assert list(map(len, sectors)) == [10, 10]


def test_two_ion_28_splits_fourteen_and_fourteen():
    model = SystemModel(
        trap=TrapConfig(1.0, np.sqrt(ROOT_BLUE), (1.0, 1.0)),
        ions=(IonConfig(), IonConfig()),
        basis=TruncatedBasis(2, 16),
    )
    colors = [FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier")]
    idx = np.array(closed_subspace(model, colors))
    mats = [build_drift(model)[np.ix_(idx, idx)]]
    mats += [build_control(model, c)[np.ix_(idx, idx)] for c in colors]
    sectors, grades = _grading(mats)
    assert len(idx) == 28
    assert list(map(len, sectors)) == [14, 14]
    assert grades == [0, 1, 1, 1]


def test_even_coupling_inside_a_sector_runs_as_one_sector():
    # an odd control along the chain 0-3-1-4-2-5 and an even one joining 0-1
    # and 3-4: the sectors {0, 1, 2} and {3, 4, 5} grade both, but the
    # grading colours the states so that every off-diagonal link crosses,
    # which the cycle 0-3-1 forbids, so the set runs as one sector
    drift = np.diag([0.0, 1.0, 2.5, 0.5, 1.5, 3.0]).astype(complex)
    odd, even = np.zeros((2, 6, 6), dtype=complex)
    for h, pairs in ((odd, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5)]), (even, [(0, 1), (3, 4)])):
        for j, k in pairs:
            h[j, k] = h[k, j] = 1.0
    mats = [drift, odd, even]
    sectors, grades = _grading(mats)
    assert [s.tolist() for s in sectors] == [list(range(6)), []]
    assert grades == [0, 0, 0]
    result = dynamical_lie_algebra(drift, [odd, even])
    scale = max(np.linalg.norm(m) for m in mats)
    assert (result.history, result.dimension, result.saturated) == reference_sweep(mats, 1e-8 * scale, None)


def test_parity_conflict_gives_one_sector():
    # SX is odd and joins states 0 and 1; SZ + SX has a diagonal, so it is
    # even and keeps them in one sector.  A ring of 5 states has no 2-colouring
    ring, (around,) = odd_ring(5)
    for mats in ([SZ, SX, SZ + SX], [ring, around]):
        sectors, grades = _grading(mats)
        d = len(mats[0])
        np.testing.assert_array_equal(sectors[0], np.arange(d))
        assert sectors[1].size == 0
        assert grades == [0] * len(mats)
    result = dynamical_lie_algebra(SZ, [SX, SZ + SX])
    assert result.dimension == 3
    assert result.saturated


def one_ion(eta, cutoff, ldl=False):
    return SystemModel(TrapConfig(1.0, eta), (IonConfig(),), TruncatedBasis(1, cutoff), ldl)


BICHROMATIC = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
# criterion 4's systems: model, colors, and whether the sweep takes the closed subspace
TRAFFIC = {
    "closed_14": (one_ion(np.sqrt(ROOT_BLUE), 20), BICHROMATIC, True),
    "ldl_6": (one_ion(0.1, 6, ldl=True), BICHROMATIC, False),
    "ldl_8": (one_ion(0.1, 8, ldl=True), BICHROMATIC, False),
    "ldl_10": (one_ion(0.1, 10, ldl=True), BICHROMATIC, False),
    "two_ion_28": (
        SystemModel(
            TrapConfig(1.0, np.sqrt(ROOT_BLUE), (1.0, 1.0)),
            (IonConfig(), IonConfig()),
            TruncatedBasis(2, 16),
        ),
        [FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier")],
        True,
    ),
}


@pytest.mark.parametrize("name", ["liealg_truncated", *TRAFFIC])
def test_program_traffic_is_graded_by_spin_parity(name):
    # the split `cli.run_liealg` sizes its memory guard by, before any operator
    # is built: the spin parity of the subspace, drift even, every control odd
    if name == "liealg_truncated":
        path = Path(__file__).parents[1] / "scenarios" / f"{name}.yaml"
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        model, sub = scenario.model, _subspace(scenario)
        *controls, drift = _generators(model, scenario.colors, sub)
        controls = [k + k.conj().T for k in controls]
    else:
        model, colors, closed = TRAFFIC[name]
        sub = closed_subspace(model, colors) if closed else range(model.basis.dimension)
        idx = np.ix_(sub, sub)
        drift, controls = build_drift(model)[idx], [build_control(model, c)[idx] for c in colors]
    sectors, grades = _grading([drift, *controls])
    parity = model.basis.spin_parity(sub)
    assert [s.tolist() for s in sectors] == [np.flatnonzero(parity == k).tolist() for k in (0, 1)]
    assert grades == [0] + [1] * len(controls)


def test_unlinked_states_join_the_smaller_sector():
    # blue alone at cutoff 6 links |d,n> to |u,n+1> for n < 5; |d,5> and |u,0>
    # have no link, and one joins each sector: the spin-parity split that
    # `cli.run_liealg`'s pre-check sizes its guard by, not 7 and 5
    model = one_ion(0.3, 6)
    mats = [build_drift(model), build_control(model, FieldColor(0, "blue"))]
    sectors, grades = _grading(mats)
    assert [s.tolist() for s in sectors] == [list(range(6)), list(range(6, 12))]
    assert grades == [0, 1]
    result = dynamical_lie_algebra(mats[0], mats[1:])
    scale = max(np.linalg.norm(m) for m in mats)
    assert (result.history, result.dimension, result.saturated) == reference_sweep(mats, 1e-8 * scale, None)
