"""Property test of the raising-operator index maps against dense
references written here.

Over one- and two-ion LDL and exact models (eta zero, a Laguerre zero or
generic) and random colors, one (ion, sideband) always repeated: the
propagator's parity blocks equal the slices of dense raising operators
built entry by entry, byte for byte (the signed zeros of the conjugated
lowering blocks included), and the coupling graph equals the
above-threshold scan of the dense Hermitian controls.
"""

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
from ionctrl.dynamics import _parity_blocks
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


@settings(SETTINGS)
@given(data=st.data())
def test_parity_blocks_are_dense_slices(data):
    model = data.draw(models())
    drawn = data.draw(colors(model))
    raising = [dense_raising(model, c) for c in drawn]
    spins = [bin(s).count("1") % 2 for s in range(2**model.basis.ion_count)]
    parity = np.repeat(spins, model.basis.fock_cutoff)
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    expected = np.array(
        [k[even[:, None], odd] for k in raising] + [k[odd[:, None], even].conj().T for k in raising]
    ).reshape(2 * len(raising), len(even) * len(odd))
    got_even, got_odd, blocks = _parity_blocks(model, drawn)
    assert np.array_equal(got_even, even) and np.array_equal(got_odd, odd)
    assert blocks.shape == expected.shape
    assert blocks.tobytes() == expected.tobytes()


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
