"""Property tests of resonant propagation.

Over random Rabi amplitudes, phases and durations, on one- and two-ion
LDL and exact models: `propagate` keeps every sample normalized, agrees
with the dense exponential of each segment Hamiltonian, is unitary on a
segment, and at a zero of L_6^1 carrier+blue schedules stay inside the
14-state closed subspace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionctrl import (
    BasisState,
    FieldColor,
    IonConfig,
    PulseSchedule,
    Segment,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    control_raising,
    laguerre_zeros,
    leakage,
    propagate,
)
from ionctrl.fock import _evolve

SETTINGS = settings(derandomize=True, deadline=None, database=None)

# each zero of L_6^1 severs the blue |d,6> -> |u,7> edge
L61_ZEROS = laguerre_zeros(6, 1)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    ion_count = draw(st.sampled_from([1, 2]))
    weight = draw(floats(0.2, 1.0))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=ion_count, max_size=ion_count))
    return SystemModel(
        trap=TrapConfig(1.0, draw(floats(0.0, 1.0)), tuple(s * weight for s in signs)),
        ions=(IonConfig(),) * ion_count,
        basis=TruncatedBasis(ion_count, draw(st.integers(1, 8))),
        ldl=draw(st.booleans()),
    )


@st.composite
def segments(draw, model, sidebands=("carrier", "blue", "red"), min_colors=1):
    """One segment of min_colors to three colors on any ion of the model."""
    n_colors = draw(st.integers(min_colors, 3))
    colors = tuple(
        FieldColor(
            target_ion=draw(st.integers(0, model.basis.ion_count - 1)),
            sideband=draw(st.sampled_from(sidebands)),
            rabi=draw(floats(0.0, 2.0)),
            phase=draw(floats(-7.0, 7.0)),
        )
        for _ in range(n_colors)
    )
    return Segment(colors, draw(floats(1e-3, 20.0)))


def random_state(draw, indices, dim):
    """A normalized state supported on the given basis indices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = np.zeros(dim, dtype=complex)
    psi[indices] = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    return psi / np.linalg.norm(psi)


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_propagate_preserves_norm(data):
    model = data.draw(models())
    schedule = PulseSchedule(tuple(data.draw(st.lists(segments(model), max_size=4))))
    dim = model.basis.dimension
    psi0 = random_state(data.draw, list(range(dim)), dim)
    samples = data.draw(st.integers(1, 4))
    traj = propagate(model, schedule, psi0, samples_per_segment=samples)
    assert traj.states.shape == (1 + samples * len(schedule.segments), dim)
    assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) <= 1e-12


def dense_samples(model, schedule, psi0, samples):
    """Reference trajectory: each segment's H = sum_c rabi_c e^{i phase_c} K_c
    + h.c., with K_c from control_raising, exponentiated densely."""
    states = [psi0]
    for seg in schedule.segments:
        k = np.zeros((model.basis.dimension,) * 2, dtype=complex)
        for color in seg.colors:
            k += color.rabi * np.exp(1j * color.phase) * control_raising(model, color)
        taus = seg.duration * np.arange(1, samples + 1) / samples
        states.extend(_evolve(k + k.conj().T, states[-1], taus))
    return np.array(states)


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_propagate_matches_dense_exponential(data):
    model = data.draw(models())
    segs = st.lists(segments(model, min_colors=0), min_size=1, max_size=3)
    schedule = PulseSchedule(tuple(data.draw(segs)))
    dim = model.basis.dimension
    psi0 = random_state(data.draw, list(range(dim)), dim)
    samples = data.draw(st.integers(1, 4))
    traj = propagate(model, schedule, psi0, samples_per_segment=samples)
    expected = dense_samples(model, schedule, psi0, samples)
    assert np.max(np.abs(traj.states - expected)) <= 1e-12


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_segment_exponential_is_unitary(data):
    model = data.draw(models())
    schedule = PulseSchedule((data.draw(segments(model)),))
    eye = np.eye(model.basis.dimension)
    # column j is the segment's propagator applied to basis vector j
    u = np.array([propagate(model, schedule, e).final for e in eye]).T
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_closed_subspace_holds_at_laguerre_zero(data):
    eta_sq = data.draw(st.sampled_from(list(L61_ZEROS)))
    model = SystemModel(
        trap=TrapConfig(1.0, float(np.sqrt(eta_sq))),
        ions=(IonConfig(),),
        basis=TruncatedBasis(1, data.draw(st.integers(8, 14))),
    )
    closed = [model.basis.index(BasisState((s,), n)) for s in (0, 1) for n in range(7)]
    schedule = PulseSchedule(
        tuple(data.draw(st.lists(segments(model, ("carrier", "blue")), min_size=1, max_size=4)))
    )
    psi0 = random_state(data.draw, closed, model.basis.dimension)
    traj = propagate(model, schedule, psi0, samples_per_segment=4)
    assert leakage(traj, closed) < 1e-8
