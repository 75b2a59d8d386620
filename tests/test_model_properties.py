"""Property test of the raising-operator index maps against dense
references written here.

Over one- and two-ion LDL and exact models (eta zero, a Laguerre zero or
generic) and random colors, one (ion, sideband) always repeated: the
propagator's parity-block entries scatter into the slices of dense
raising operators built entry by entry, the block it assembles is their
amplitude-weighted sum, and the coupling graph equals the
above-threshold scan of the dense Hermitian controls.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionctrl import (
    BasisState,
    FieldColor,
    GraphEdge,
    IonConfig,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    build_graph,
    coupling_strength,
    laguerre_zeros,
)
from ionctrl import dynamics
from ionctrl.dynamics import _parity_blocks, _parity_propagate
from ionctrl.model import PHONON_SHIFT

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)

ETAS = [0.0] + [float(np.sqrt(x)) for n, a in ((6, 1), (4, 0), (5, 0)) for x in laguerre_zeros(n, a)]


@st.composite
def models(draw):
    ion_count = draw(st.sampled_from([1, 2]))
    eta = draw(st.sampled_from(ETAS) | st.floats(0.0, 1.5))
    return SystemModel(
        trap=TrapConfig(1.0, eta, (1.0,) * ion_count),
        ions=(IonConfig(),) * ion_count,
        basis=TruncatedBasis(ion_count, draw(st.integers(1, 10))),
        ldl=draw(st.booleans()),
    )


@st.composite
def colors(draw, model):
    """One to four colors, then a repeat of one (ion, sideband) among them."""
    color = st.builds(
        FieldColor,
        target_ion=st.integers(0, model.basis.ion_count - 1),
        sideband=st.sampled_from(sorted(PHONON_SHIFT)),
        rabi=st.floats(0.0, 2.0),
        phase=st.floats(-7.0, 7.0),
    )
    drawn = draw(st.lists(color, min_size=1, max_size=4))
    repeat = draw(st.sampled_from(drawn))
    drawn.insert(draw(st.integers(0, len(drawn))), FieldColor(repeat.target_ion, repeat.sideband))
    return drawn


def dense_raising(model, color):
    """K of one color at unit Rabi, entry by entry from the basis and
    coupling_strength."""
    basis = model.basis
    shift = PHONON_SHIFT[color.sideband]
    k = np.zeros((basis.dimension,) * 2, dtype=complex)
    for j, state in enumerate(basis.states()):
        n_to = state.phonon + shift
        if state.spins[color.target_ion] != 0 or not 0 <= n_to < basis.fock_cutoff:
            continue
        spins = list(state.spins)
        spins[color.target_ion] = 1
        k[basis.index(BasisState(tuple(spins), n_to)), j] = coupling_strength(model, color, state.phonon)
    return k


def factored_block(model, colors):
    """The odd -> even block B that `_parity_propagate` assembles for one
    segment of the colors, before its gauge and scale, and the amplitudes
    it was built from."""
    amp = np.array([[[c.rabi * np.exp(1j * c.phase) for c in colors]]])
    psi = np.zeros(model.basis.dimension, dtype=complex)
    psi[0] = 1.0
    blocks, segment_block = [], dynamics._segment_block
    capture = lambda *a: blocks.append(segment_block(*a)) or blocks[-1]  # noqa: E731
    with mock.patch.object(dynamics, "_segment_block", capture):
        _parity_propagate(*_parity_blocks(model, colors), amp, np.ones((1, 1)), psi)
    (b,) = blocks
    return b[0], np.concatenate([amp[0, 0], amp[0, 0].conj()])


@settings(SETTINGS)
@given(data=st.data())
def test_parity_blocks_are_dense_slices(data):
    model = data.draw(models())
    drawn = data.draw(colors(model))
    spins = [bin(s).count("1") % 2 for s in range(2**model.basis.ion_count)]
    parity = np.repeat(spins, model.basis.fock_cutoff)
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)

    def expected_blocks(colors):
        raising = [dense_raising(model, c) for c in colors]
        return np.array(
            [k[even[:, None], odd] for k in raising] + [k[odd[:, None], even].conj().T for k in raising]
        )

    expected = expected_blocks(drawn)
    got_even, got_odd, flat, column, value, _ = _parity_blocks(model, drawn)
    assert np.array_equal(got_even, even) and np.array_equal(got_odd, odd)
    assert flat.shape == column.shape == value.shape
    for col, block in enumerate(expected):
        mine = column == col
        assert len(np.unique(flat[mine])) == np.count_nonzero(mine)
        scattered = np.zeros(block.size, dtype=complex)
        scattered[flat[mine]] = value[mine]
        assert np.array_equal(scattered.reshape(block.shape), block)
    assert np.all(column < len(expected))

    # the factored block is the amplitude-weighted sum of the dense blocks:
    # exact for distinct (ion, sideband) pairs, within roundoff of the
    # reordered sum when one repeats
    b, coeff = factored_block(model, drawn)
    reference = np.tensordot(coeff, expected, axes=1)
    assert np.abs(b - reference).max() <= 1e-15 * np.abs(reference).max()
    distinct = list({(c.target_ion, c.sideband): c for c in drawn}.values())
    b, coeff = factored_block(model, distinct)
    assert np.array_equal(b, np.tensordot(coeff, expected_blocks(distinct), axes=1))


@settings(SETTINGS)
@given(data=st.data())
def test_graph_is_the_dense_control_scan(data):
    model = data.draw(models())
    drawn = data.draw(colors(model))
    threshold = data.draw(st.sampled_from([1e-9, 1e-3, 0.2]))
    expected = []
    for ci, color in enumerate(drawn):
        k = dense_raising(model, color)
        h = k + k.conj().T
        rows, cols = np.nonzero(np.abs(h) > threshold)
        expected += [
            GraphEdge(int(i), int(j), float(abs(h[i, j])), ci) for i, j in zip(rows, cols) if i < j
        ]
    graph = build_graph(model, drawn, threshold=threshold)
    assert graph.edges == tuple(expected)
    assert graph.vertices == tuple(model.basis.states())
