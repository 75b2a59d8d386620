"""The time-dependent oracle against a dense per-step reference written
here, its memory bound, its dt checks, and the parity block B that the
resonant propagator factors against an unbuffered scatter-add.
"""

import math
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest

from ionctrl import (
    BasisState,
    FieldColor,
    IonConfig,
    PulseSchedule,
    Segment,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    laguerre_zeros,
    propagate_timedep_oracle,
)
from ionctrl import dynamics
from ionctrl.dynamics import (
    _frequency_table,
    _manifold_terms,
    _oracle_final_state,
    _parity_blocks,
    _parity_propagate,
)
from ionctrl.fock import _evolve


def model_of(ion_count, cutoff, eta=0.3, ldl=False):
    return SystemModel(
        trap=TrapConfig(1.0, eta, (1.0,) * ion_count),
        ions=(IonConfig(),) * ion_count,
        basis=TruncatedBasis(ion_count, cutoff),
        ldl=ldl,
    )


def ground(model):
    return model.basis.vector(BasisState((0,) * model.basis.ion_count, 0))


def dense_reference(model, schedule, psi0, dt):
    """Segment-boundary states of the midpoint rule with one dense d x d
    matrix per frequency multiple, rebuilt term by term at every step."""
    d = model.basis.dimension
    omega = model.trap.mode_freq
    psi, t0, states = np.asarray(psi0, dtype=complex), 0.0, [psi0]
    for seg in schedule.segments:
        groups = defaultdict(lambda: np.zeros((d, d), dtype=complex))
        for color in seg.colors:
            amp = color.rabi * np.exp(1j * color.phase)
            for mult, (upper, lower, value) in _manifold_terms(model, color):
                groups[mult][upper, lower] += amp * value
        n_steps = max(1, math.ceil(seg.duration / dt))
        h_step = seg.duration / n_steps
        for step in range(n_steps):
            t_mid = t0 + (step + 0.5) * h_step
            h = np.zeros((d, d), dtype=complex)
            for mult, w_mat in groups.items():
                h += np.exp(1j * mult * omega * t_mid) * w_mat
            psi = _evolve(h + h.conj().T, psi, [h_step])[0]
        t0 += seg.duration
        states.append(psi)
    return np.array(states)


def support_size(model, colors):
    return len(_frequency_table(model, colors)[1])


REPEATED = (
    FieldColor(0, "blue", rabi=0.03, phase=0.4),
    FieldColor(0, "carrier", rabi=0.02, phase=0.0),
    FieldColor(0, "blue", rabi=0.01, phase=2.5),
)
SCHEDULES = {
    "one segment": (1, [((FieldColor(0, "carrier", 0.04, 1.0), FieldColor(0, "blue", 0.03, 0.0)), 1.305)]),
    "repeated sideband": (1, [(REPEATED, 0.71)]),
    "shorter than dt": (
        1,
        [((FieldColor(0, "red", 0.05, 2.0),), 0.004), ((FieldColor(0, "blue", 0.05, 5.0),), 0.36)],
    ),
    "two ions": (
        2,
        [
            ((FieldColor(1, "blue", 0.03, 0.5), FieldColor(0, "carrier", 0.02, 1.0)), 0.41),
            ((FieldColor(0, "red", 0.02, 3.0), FieldColor(1, "red", 0.01, 0.0)), 0.23),
        ],
    ),
}


@pytest.mark.parametrize("ldl", [False, True], ids=["exact", "ldl"])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
@pytest.mark.parametrize("steps_per_block", [None, 1, 7])
def test_oracle_matches_dense_per_step_reference(name, ldl, steps_per_block):
    ion_count, segments = SCHEDULES[name]
    model = model_of(ion_count, 6, ldl=ldl)
    schedule = PulseSchedule(tuple(Segment(colors, duration) for colors, duration in segments))
    dt = 0.01
    block_bytes = dynamics._STEP_BLOCK_BYTES
    if steps_per_block is not None:
        block_bytes = 16 * steps_per_block * max(support_size(model, c) for c, _ in segments)
    # the longest segment ends inside a block
    colors, duration = max(segments, key=lambda s: s[1])
    block = max(1, block_bytes // (16 * support_size(model, colors)))
    assert block == 1 or math.ceil(duration / dt) % block != 0
    with mock.patch.object(dynamics, "_STEP_BLOCK_BYTES", block_bytes):
        got = np.array([psi for _, psi in _oracle_final_state(model, schedule, ground(model), dt)])
    expected = dense_reference(model, schedule, ground(model), dt)
    assert np.abs(got - expected).max() <= 1e-12


def test_single_entry_steps_match_dense_reference_bit_for_bit():
    """One ion at cutoff 1 under a lone blue color: each step's Hamiltonian
    has one entry, and a segment shorter than dt is one step, the case in
    which a product of a phase and a table row would hold one number."""
    model = SystemModel(trap=TrapConfig(3.0, 0.3), ions=(IonConfig(),), basis=TruncatedBasis(1, 1))
    for phase in np.linspace(0.0, 7.0, 300):
        colors = (FieldColor(0, "blue", rabi=0.07, phase=phase),)
        schedule = PulseSchedule((Segment(colors, 0.003 + phase * 1e-4),))
        got = np.array([psi for _, psi in _oracle_final_state(model, schedule, ground(model), 0.005)])
        assert got.tobytes() == dense_reference(model, schedule, ground(model), 0.005).tobytes()


def test_oracle_peak_memory_is_the_table_and_a_few_dense_matrices():
    """One ion at cutoff 40, carrier + blue: the oracle holds a
    (frequencies, N^2) table and a few d x d matrices, not one dense d x d
    matrix per frequency (8 MB here)."""
    n = 40
    model = model_of(1, n, eta=math.sqrt(laguerre_zeros(6, 1)[0]))
    colors = (FieldColor(0, "carrier", 0.03, 0.2), FieldColor(0, "blue", 0.02, 1.1))
    schedule = PulseSchedule((Segment(colors, 0.05),))
    freqs = len({mult for c in colors for mult, _ in _manifold_terms(model, c)})
    d = model.basis.dimension
    bound = (freqs * n**2 + 4 * d**2) * 16
    _oracle_final_state(model, schedule, ground(model), 0.01)  # fills the index-map cache
    tracemalloc.start()
    try:
        _oracle_final_state(model, schedule, ground(model), 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("dt", [float("nan"), True, False, np.True_, 0.0, -0.01, 5.0])
def test_rejects_dt_outside_the_rule(dt):
    # at mode_freq 0.01 a bool dt read as 1.0 would satisfy dt * mode_freq < 0.05
    model = SystemModel(trap=TrapConfig(0.01, 0.3), ions=(IonConfig(),), basis=TruncatedBasis(1, 4))
    schedule = PulseSchedule((Segment((FieldColor(0, "carrier", 0.01),), 1.0),))
    with pytest.raises(ValueError, match="dt must satisfy"):
        propagate_timedep_oracle(model, schedule, ground(model), dt=dt)


@pytest.mark.parametrize(
    "colors",
    [
        # phase 0 on a blue sideband gives -0.0 products; rabi 0 gives all-zero ones
        [FieldColor(0, "blue"), FieldColor(1, "blue", rabi=0.7, phase=2.0), FieldColor(0, "carrier", rabi=0.0)],
        [FieldColor(0, "blue"), FieldColor(1, "carrier", phase=1.0), FieldColor(0, "blue", rabi=0.5, phase=4.0)],
    ],
    ids=["distinct", "repeated"],
)
def test_parity_block_bytes_match_scatter_add(colors):
    model = model_of(2, 8)
    sectors = _parity_blocks(model, colors)
    even, odd, flat, column, value = sectors
    rng = np.random.default_rng(7)
    amp = np.array([c.rabi * np.exp(1j * c.phase) for c in colors])[None, None] * np.ones((5, 2, 1))
    amp[2:] *= rng.uniform(0.5, 2.0, (3, 2, len(colors))) * np.exp(1j * rng.uniform(0, 7, (3, 2, len(colors))))
    coeff = np.concatenate([amp, amp.conj()], axis=2)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        _parity_propagate(*sectors, amp, np.ones((5, 1)), ground(model))
    assert svd.call_count == 2
    for s, call in enumerate(svd.call_args_list):
        expected = np.zeros((len(amp), len(even) * len(odd)), dtype=complex)
        np.add.at(expected, (slice(None), flat), coeff[:, s, column] * value)
        assert call.args[0].tobytes() == expected.reshape(-1, len(even), len(odd)).tobytes()


def row_sum_reference(model, schedule, psi0, dt):
    """Segment-boundary states of the oracle's step before term layers and
    stacked eigensolves: per block of steps, every row of a dense
    (frequencies, support) table is summed over the whole support, and each
    step is scattered into its own d x d matrix and exponentiated by a 2-D
    `_evolve` call."""
    d = model.basis.dimension
    psi, t0, states = np.asarray(psi0, dtype=complex), 0.0, [psi0]
    for seg in schedule.segments:
        rows, terms = {}, []
        for color in seg.colors:
            amp = color.rabi * np.exp(1j * color.phase)
            for mult, (upper, lower, value) in _manifold_terms(model, color):
                terms.append((rows.setdefault(mult, len(rows)), upper * d + lower, amp * value))
        support = np.union1d(0, np.concatenate([[0]] + [flat for _, flat, _ in terms]))
        table = np.zeros((len(rows), len(support)), dtype=complex)
        for row, flat, entry in terms:
            table[row, np.searchsorted(support, flat)] += entry
        freqs = np.array([1j * mult * model.trap.mode_freq for mult in rows], dtype=complex)
        n_steps = max(1, math.ceil(seg.duration / dt))
        h_step = seg.duration / n_steps
        block = max(1, dynamics._STEP_BLOCK_BYTES // (16 * len(support)))
        for start in range(0, n_steps, block):
            t_mid = t0 + (np.arange(start, min(start + block, n_steps)) + 0.5) * h_step
            acc = np.zeros((len(t_mid), len(support)), dtype=complex)
            for phase, row in zip(np.exp(np.multiply.outer(freqs, t_mid)), table):
                acc += phase[:, None] * row
            for step_h in acc:
                h = np.zeros((d, d), dtype=complex)
                h.reshape(-1)[support] = step_h
                h += h.conj().T
                psi = _evolve(h, psi, [h_step])[0]
        t0 += seg.duration
        states.append(psi)
    return np.array(states)


ETA_L61 = math.sqrt(laguerre_zeros(6, 1)[0])
CARRIER_BLUE = (FieldColor(0, "carrier", 0.04, 1.0), FieldColor(0, "blue", 0.03, 0.0))
# three rows meet every entry, so the order in which they are added shows
THREE_SIDEBANDS = (
    FieldColor(0, "red", 0.02, 0.3),
    FieldColor(0, "carrier", 0.03, 2.0),
    FieldColor(0, "blue", 0.025, 4.1),
)
BIT_CASES = {
    "rwa_audit d=24": (
        lambda: model_of(1, 12, eta=ETA_L61),
        [(CARRIER_BLUE, 0.61), ((FieldColor(0, "carrier", 0.02, 3.3), FieldColor(0, "blue", 0.05, 5.9)), 0.234)],
    ),
    "exact three sidebands": (lambda: model_of(1, 6), [(THREE_SIDEBANDS, 0.37)]),
    "ldl three sidebands": (lambda: model_of(1, 12, ldl=True), [(THREE_SIDEBANDS, 0.37)]),
    "two ions": (lambda: model_of(2, 6), SCHEDULES["two ions"][1]),
    "repeated sideband": (lambda: model_of(1, 6), SCHEDULES["repeated sideband"][1]),
    # cutoff 1 under a lone blue color: one entry per step, and every
    # segment is one step, in which a product of a phase and a layer would
    # hold one number but for the (0, 0) padding
    "single entry": (
        lambda: model_of(1, 1),
        [((FieldColor(0, "blue", 0.07, phase),), 0.003 + 1e-3 * phase) for phase in np.linspace(0.0, 7.0, 41)],
    ),
}


@pytest.mark.parametrize("steps_per_block", [None, 1, 7])
@pytest.mark.parametrize("name", list(BIT_CASES))
def test_oracle_matches_row_sum_reference_bit_for_bit(name, steps_per_block):
    make_model, segments = BIT_CASES[name]
    model = make_model()
    schedule = PulseSchedule(tuple(Segment(colors, duration) for colors, duration in segments))
    block_bytes = dynamics._STEP_BLOCK_BYTES
    if steps_per_block is not None:
        block_bytes = 16 * steps_per_block * max(support_size(model, c) for c, _ in segments)
    with mock.patch.object(dynamics, "_STEP_BLOCK_BYTES", block_bytes):
        got = np.array([psi for _, psi in _oracle_final_state(model, schedule, ground(model), 0.01)])
        expected = row_sum_reference(model, schedule, ground(model), 0.01)
    assert got.tobytes() == expected.tobytes()


def oracle_step_hamiltonians(model, colors, steps, dt=0.01):
    """Dense Hamiltonians h + h_dag of the first oracle steps under colors."""
    d = model.basis.dimension
    groups = defaultdict(lambda: np.zeros((d, d), dtype=complex))
    for color in colors:
        amp = color.rabi * np.exp(1j * color.phase)
        for mult, (upper, lower, value) in _manifold_terms(model, color):
            groups[mult][upper, lower] += amp * value
    stack = []
    for step in range(steps):
        h = sum(np.exp(1j * mult * model.trap.mode_freq * (step + 0.5) * dt) * w for mult, w in groups.items())
        stack.append(h + h.conj().T)
    return np.array(stack)


@pytest.mark.parametrize("steps", [1, 7])
@pytest.mark.parametrize("ldl", [False, True], ids=["exact", "ldl"])
@pytest.mark.parametrize("ion_count", [1, 2])
def test_stacked_evolve_is_the_loop_of_2d_calls(ion_count, ldl, steps):
    model = model_of(ion_count, 6, ldl=ldl)
    colors = SCHEDULES["two ions"][1][0][0] if ion_count == 2 else THREE_SIDEBANDS
    stack = oracle_step_hamiltonians(model, colors, steps)
    rng = np.random.default_rng(steps)
    psi0 = rng.standard_normal(model.basis.dimension) + 1j * rng.standard_normal(model.basis.dimension)
    psi0 /= np.linalg.norm(psi0)
    expected = psi0
    for h in stack:
        expected = _evolve(h, expected, [0.01])[0]
    got = _evolve(stack, psi0, [0.01])
    assert got.shape == (1, model.basis.dimension)
    assert got[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("cutoff, ldl, steps", [(12, False, 14), (40, True, 17)], ids=["exact12", "ldl40"])
def test_oracle_peak_memory_is_the_layers_and_a_block_of_stacks(cutoff, ldl, steps):
    """With a block of many steps the peak is the one stated by
    `_oracle_final_state`: the layers, the block's two (steps, support)
    arrays and three (steps, d, d) complex stacks."""
    model = model_of(1, cutoff, eta=ETA_L61, ldl=ldl)
    _, support, layer_rows, layer_values = _frequency_table(model, CARRIER_BLUE)
    block = dynamics._STEP_BLOCK_BYTES // (16 * len(support))
    assert block == steps
    d = model.basis.dimension
    stated = layer_rows.nbytes + layer_values.nbytes + 16 * (2 * block * len(support) + 3 * block * d * d)
    schedule = PulseSchedule((Segment(CARRIER_BLUE, 2 * block * 0.01),))
    _oracle_final_state(model, schedule, ground(model), 0.01)  # fills the index-map cache
    tracemalloc.start()
    try:
        _oracle_final_state(model, schedule, ground(model), 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stated / 2 <= peak <= stated


@pytest.mark.parametrize(
    "shape, segment_count", [((13,), 1), ((12, 1), 1), ((13,), 0)], ids=["long", "column", "no segments"]
)
def test_oracle_rejects_psi0_of_another_shape(shape, segment_count):
    model = model_of(1, 6)
    psi0 = np.zeros(shape, dtype=complex)
    psi0.flat[0] = 1.0
    schedule = PulseSchedule((Segment(CARRIER_BLUE, 0.05),) * segment_count)
    with pytest.raises(ValueError, match="psi0 must have dimension 12"):
        propagate_timedep_oracle(model, schedule, psi0, dt=0.01)
