"""Property tests of resonant propagation.

Over random Rabi amplitudes, phases and durations, on one- and two-ion
LDL and exact models: `propagate` keeps every sample normalized, agrees
with the dense exponential of each segment Hamiltonian, is unitary on a
segment, and at a zero of L_6^1 carrier+blue schedules stay inside the
14-state closed subspace.  The parity-block kernel, on the whole basis or
on a closed union whose spin-parity sectors differ in size, agrees with
scipy's `expm` for independent, dependent and repeated colors, and factors
a real matrix exactly when the colors' moves are linearly independent.
"""

from unittest import mock

import numpy as np
import scipy.linalg
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
from ionctrl.dynamics import _parity_blocks, _parity_propagate
from ionctrl.fock import _evolve
from ionctrl.model import PHONON_SHIFT
from ionctrl.optimize import _component_blocks

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


@st.composite
def gauge_problems(draw):
    """A model (negative weights, subnormal eta among the draws), its
    colors (a repeated (ion, sideband) pair or not), the parity blocks and
    states of the whole basis or of the closed union of one or two basis
    states, as the search scores on them, P rows of S segments of
    amplitudes and (P, K) sample times."""
    ion_count = draw(st.sampled_from([1, 2]))
    eta = draw(st.sampled_from([0.0, 5e-324, 2.2e-313, 1.0]) | floats(0.0, 1.5))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=ion_count, max_size=ion_count))
    model = SystemModel(
        trap=TrapConfig(1.0, eta, tuple(signs)),
        ions=(IonConfig(),) * ion_count,
        basis=TruncatedBasis(ion_count, draw(st.integers(1, 5))),
        ldl=draw(st.booleans()),
    )
    color = st.builds(
        FieldColor, st.integers(0, ion_count - 1), st.sampled_from(["carrier", "blue", "red"])
    )
    colors = draw(st.lists(color, min_size=1, max_size=4, unique_by=lambda c: (c.target_ion, c.sideband)))
    if draw(st.integers(0, 2)) == 2:
        colors.append(draw(st.sampled_from(colors)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = model.basis.dimension
    initial = np.zeros(dim, dtype=complex)
    initial[rng.choice(dim, size=draw(st.integers(1, 2)), replace=False)] = 1.0
    sectors, states = _component_blocks(model, colors, initial, 1.0)
    if draw(st.integers(0, 3)) == 3:
        sectors, states = _parity_blocks(model, colors), np.arange(dim)
    rows, n_seg = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    amp = 2 * rng.random((rows, n_seg, len(colors))) * np.exp(2j * np.pi * rng.random((rows, n_seg, len(colors))))
    taus = np.sort(20 * rng.random((rows, draw(st.integers(1, 3)))), axis=1)
    psi = rng.standard_normal(len(states)) + 1j * rng.standard_normal(len(states))
    return model, colors, sectors, states, amp, taus, psi / np.linalg.norm(psi)


@settings(SETTINGS, max_examples=150)
@given(problem=gauge_problems())
def test_parity_kernel_matches_expm_and_is_real_for_independent_moves(problem):
    model, colors, sectors, states, amp, taus, psi = problem
    factored = []
    eigh = np.linalg.eigh
    with mock.patch.object(np.linalg, "eigh", lambda g: factored.append(g.dtype) or eigh(g)):
        got = _parity_propagate(*sectors, amp, taus, psi)

    raising = [control_raising(model, c)[np.ix_(states, states)] for c in colors]
    for p in range(len(amp)):
        state = psi
        for s in range(amp.shape[1]):
            k = sum(a * r for a, r in zip(amp[p, s], raising))
            h = k + k.conj().T
            times = taus[p] if s == amp.shape[1] - 1 else taus[p, -1:]
            samples = np.array([scipy.linalg.expm(-1j * h * t) @ state for t in times])
            state = samples[-1]
        assert np.max(np.abs(got[p] - samples)) <= 1e-12

    moves = [[c.target_ion == i for i in range(model.basis.ion_count)] + [PHONON_SHIFT[c.sideband]] for c in colors]
    independent = np.linalg.matrix_rank(np.array(moves, dtype=float)) == len(colors)
    assert (sectors[-1] is not None) == independent
    assert set(factored) == {np.dtype(float) if independent else np.dtype(complex)}
