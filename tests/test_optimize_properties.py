"""Property tests of the search's population scorer and its breeding.

Over one- and two-ion LDL and exact models, carrier/blue/red colors,
1-8 segments, state and spin objectives and random initial states: the
stacked parity-block scorer gives every candidate the score that the dense
exponential of each segment Hamiltonian and `Objective.score` give it one
by one.  At and near the Laguerre zeros that cut a ladder, the scorer's
closed component of the initial state scores every candidate within 1e-12
of the whole basis, and bit for bit as the uncut scorer where it cuts
nothing.  Over population, elite, segment and color counts that force
restarts, the search's array breeding returns exactly what the
one-child-at-a-time reference loop returns.
"""

import importlib
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionctrl import (
    FieldColor,
    GenerationRecord,
    IonConfig,
    Objective,
    SearchConfig,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    build_graph,
    connected_components,
    control_raising,
    laguerre_zeros,
    optimize,
    propagate,
)
from ionctrl.fock import _evolve
from ionctrl.optimize import _component_blocks, _population_scorer, _vector_to_params

# the package's `optimize` attribute is the search function, not this module
optimize_module = importlib.import_module("ionctrl.optimize")

SETTINGS = settings(derandomize=True, deadline=None, database=None)


def random_state(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@st.composite
def problems(draw):
    """A model, its colors, an objective and a (P, 2*S*C + 1) parameter matrix."""
    ions = draw(st.integers(1, 2))
    model = SystemModel(
        trap=TrapConfig(1.0, draw(st.floats(0.0, 1.0)), mode_weights=(1.0,) * ions),
        ions=(IonConfig(),) * ions,
        basis=TruncatedBasis(ions, draw(st.integers(1, 6))),
        ldl=draw(st.booleans()),
    )
    sidebands = st.sampled_from(["carrier", "blue", "red"])
    colors = draw(
        st.lists(st.builds(FieldColor, st.integers(0, ions - 1), sidebands), min_size=1, max_size=3)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = model.basis.dimension
    initial = random_state(rng, dim)
    if draw(st.booleans()):
        objective = Objective("state_fidelity", random_state(rng, dim), initial)
    else:
        objective = Objective(
            "spin_fidelity", random_state(rng, 2**ions), initial, draw(st.floats(0.0, 1.0))
        )
    n_seg, count = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    block = n_seg * len(colors)
    x = np.hstack(
        [
            rng.random((count, block)),
            2 * np.pi * rng.random((count, block)),
            0.1 + 20 * rng.random((count, 1)),
        ]
    )
    return model, tuple(colors), objective, n_seg, x


def one_by_one(model, colors, objective, n_seg, x):
    """Score of one candidate whose segments evolve under the dense
    exponential of H = sum_c rabi_c e^{i phase_c} K_c + h.c., with K_c from
    control_raising; independent of the parity-block propagator."""
    psi = objective.initial
    for seg in _vector_to_params(x, n_seg, len(colors)).to_schedule(colors).segments:
        k = sum(c.rabi * np.exp(1j * c.phase) * control_raising(model, c) for c in seg.colors)
        psi = _evolve(k + k.conj().T, psi, [seg.duration])[0]
    return objective.score(psi, model.basis)


@SETTINGS
@given(problem=problems())
def test_population_scores_match_one_by_one_propagation(problem):
    model, colors, objective, n_seg, x = problem
    # amplitudes below 1, durations below 20.1
    scores = _population_scorer(model, colors, objective, n_seg, 20.1)(x)
    expected = [one_by_one(model, colors, objective, n_seg, row) for row in x]
    assert np.max(np.abs(scores - expected)) <= 1e-12


@st.composite
def cut_problems(draw):
    """A model at or near a zero of a carrier or first-sideband rung, its
    colors, the search box's omega_max * t_max, an objective from a basis
    state or a superposition across two components, and a (P, 2*S*C + 1)
    parameter matrix inside the box."""
    ions, cutoff = draw(st.integers(1, 2)), draw(st.integers(2, 6))
    order = draw(st.integers(0, 1))
    zero = draw(st.sampled_from(list(laguerre_zeros(draw(st.integers(1, cutoff - 1)), order))))
    offset = draw(st.sampled_from([0.0, 0.0, 1e-15, -1e-14, 1e-12, -1e-9, 1e-6, -1e-4]))
    model = SystemModel(
        trap=TrapConfig(1.0, np.sqrt(zero * (1 + offset)), mode_weights=(1.0,) * ions),
        ions=(IonConfig(),) * ions,
        basis=TruncatedBasis(ions, cutoff),
        ldl=draw(st.booleans()),
    )
    sidebands = st.sampled_from(["carrier", "blue", "red"])
    color = st.builds(FieldColor, st.integers(0, ions - 1), sidebands)
    colors = tuple(draw(st.lists(color, min_size=1, max_size=3)))
    omega_max, t_max = draw(st.floats(0.01, 1.0)), draw(st.floats(1.0, 200.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = model.basis.dimension
    initial = np.zeros(dim, dtype=complex)
    start = draw(st.integers(0, dim - 1))
    initial[start] = 1.0
    if draw(st.booleans()):
        graph = build_graph(model, list(colors), threshold=1e-13 / (omega_max * t_max))
        others = [min(c) for c in connected_components(graph) if start not in c]
        if others:
            initial[draw(st.sampled_from(others))] = complex(*rng.standard_normal(2))
            initial /= np.linalg.norm(initial)
    if draw(st.booleans()):
        objective = Objective("state_fidelity", random_state(rng, dim), initial)
    else:
        objective = Objective(
            "spin_fidelity", random_state(rng, 2**ions), initial, draw(st.floats(0.0, 1.0))
        )
    n_seg, count = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    block = n_seg * len(colors)
    x = np.hstack(
        [
            omega_max * rng.random((count, block)),
            2 * np.pi * rng.random((count, block)),
            t_max * rng.random((count, 1)),
        ]
    )
    x[0, :block], x[0, -1] = omega_max, t_max  # the box's corner
    return model, colors, objective, n_seg, omega_max * t_max, x


@SETTINGS
@given(problem=cut_problems())
def test_component_scores_match_the_whole_basis(problem):
    model, colors, objective, n_seg, max_area, x = problem
    scores = _population_scorer(model, colors, objective, n_seg, max_area)(x)
    expected = [
        objective.score(
            propagate(
                model,
                _vector_to_params(row, n_seg, len(colors)).to_schedule(colors),
                objective.initial,
            ).final,
            model.basis,
        )
        for row in x
    ]
    assert np.max(np.abs(scores - expected)) <= 1e-12
    _, states = _component_blocks(model, colors, objective.initial, max_area)
    if len(states) == model.basis.dimension:
        # an area past double range leaves the cut's threshold at 0: nothing is cut
        uncut = _population_scorer(model, colors, objective, n_seg, np.inf)(x)
        assert np.array_equal(scores, uncut)


def test_bell_search_scores_on_the_28_state_component(monkeypatch):
    """At optimize_bell's L_6^1 zero the four blue couplings out of n = 6
    compute to 6.9e-16, so its search (omega_max 0.2, t_max 200) scores on
    the 28 states that hold |dd,0>: 14 x 14 blocks, cut under the bound
    40 * 2 * 6.9e-16 = 5.5e-14.  A box of area 100 keeps the same graph
    (each coupling is below 1e-13 / 100) but fails the bound (1.4e-13), so
    it is scored on all 32 states.  The three colors' moves are linearly
    independent, so every block is gauged real before its eigensolve."""
    model = SystemModel(
        trap=TrapConfig(1.0, np.sqrt(0.5276681217111285), mode_weights=(1.0, 1.0)),
        ions=(IonConfig(), IonConfig()),
        basis=TruncatedBasis(2, 8),
    )
    colors = (FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier"))
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    objective = Objective("spin_fidelity", bell, model.basis.vector(model.basis.state(0)))
    (even, odd, *_), states = _component_blocks(model, colors, objective.initial, 0.2 * 200)
    assert (len(states), len(even), len(odd)) == (28, 14, 14)
    assert len(_component_blocks(model, colors, objective.initial, 100.0)[1]) == 32
    rng = np.random.default_rng(3)
    x = np.hstack(
        [0.2 * rng.random((24, 12)), 2 * np.pi * rng.random((24, 12)), 200 * rng.random((24, 1))]
    )
    factored, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: factored.append(g.dtype) or eigh(g))
    cut = _population_scorer(model, colors, objective, 4, 0.2 * 200)(x)
    uncut = _population_scorer(model, colors, objective, 4, np.inf)(x)
    assert np.max(np.abs(cut - uncut)) <= 1e-12
    assert len(factored) == 8 and set(factored) == {np.dtype(float)}


def bell_problem():
    model = SystemModel(
        trap=TrapConfig(1.0, 0.7, mode_weights=(1.0, 1.0)),
        ions=(IonConfig(), IonConfig()),
        basis=TruncatedBasis(2, 4),
    )
    colors = (FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier"))
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    ground = np.zeros(model.basis.dimension, dtype=complex)
    ground[0] = 1.0
    return model, colors, Objective("spin_fidelity", bell, ground)


# a NaN duration or amplitude leaves the other rows' eigensolves intact, and
# its own final state fails the norm check
@pytest.mark.parametrize("column, tol", [(-1, 0.0), (0, 1e-12)], ids=["duration", "amplitude"])
def test_non_finite_row_is_discarded_alone(caplog, column, tol):
    model, colors, objective = bell_problem()
    rng = np.random.default_rng(5)
    x = np.hstack(
        [0.2 * rng.random((5, 6)), 2 * np.pi * rng.random((5, 6)), 50 * rng.random((5, 1))]
    )
    score = _population_scorer(model, colors, objective, 2, 0.2 * 50)
    clean = score(x)
    x[2, column] = np.nan
    with caplog.at_level(logging.WARNING, logger="ionctrl.optimize"):
        scores = score(x)
    discards = [r for r in caplog.records if r.getMessage().startswith("discarding candidate")]
    assert len(discards) == 1
    assert scores[2] == -np.inf
    assert np.all(np.isfinite(clean))
    assert np.max(np.abs(np.delete(scores, 2) - np.delete(clean, 2))) <= tol


def test_population_is_scored_in_row_chunks(monkeypatch):
    model, colors, objective = bell_problem()
    rng = np.random.default_rng(9)
    x = np.hstack(
        [0.2 * rng.random((5, 6)), 2 * np.pi * rng.random((5, 6)), 50 * rng.random((5, 1))]
    )
    whole = _population_scorer(model, colors, objective, 2, 0.2 * 50)(x)
    # a budget of two (d/2 x d/2) blocks: three chunks, one eigensolve per chunk and segment
    half = model.basis.dimension // 2
    monkeypatch.setattr(optimize_module, "_CHUNK_BYTES", 2 * 16 * half**2)
    stacks = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: stacks.append(len(g)) or eigh(g))
    chunked = _population_scorer(model, colors, objective, 2, 0.2 * 50)(x)
    assert stacks == [2, 2, 2, 2, 1, 1]
    assert np.max(np.abs(chunked - whole)) <= 1e-12


@pytest.mark.parametrize("kind", ["state", "spin"])
def test_search_with_restarts_returns_the_score_of_its_pulse(kind):
    model, colors, objective = bell_problem()
    if kind == "state":
        target = np.zeros(model.basis.dimension, dtype=complex)
        target[model.basis.dimension - model.basis.fock_cutoff] = 1.0
        objective = Objective("state_fidelity", target, objective.initial)
    search = SearchConfig(
        omega_max=0.2,
        t_max=100.0,
        segments=3,
        population=8,
        elite=2,
        generations=12,
        restart_after=2,
    )
    params, score, history = optimize(model, colors, objective, search, seed=4)
    final = propagate(model, params.to_schedule(colors), objective.initial).final
    assert abs(objective.score(final, model.basis) - score) <= 1e-12
    best = [h.best_score for h in history]
    assert all(b <= a for b, a in zip(best, best[1:]))
    assert best[-1] == score
    # a restart resets the mutation scale
    assert any(h.mutation_scale == search.mutation_scale for h in history[1:])


def plateau_scorer(model, colors, objective, n_seg, max_area):
    """Stand-in for `_population_scorer`: a cheap deterministic score per
    row, rounded to plateaus so that searches stagnate and restart."""
    return lambda x: np.round(np.sin(x @ np.arange(1.0, x.shape[1] + 1)), 1)


def reference_search(evaluate, search, n_colors, seed):
    """The search with one child bred at a time: its draws, its 1-D clip
    and its reseeding, row by row."""
    rng = np.random.default_rng(seed)
    n_seg = search.segments
    block = n_seg * n_colors
    dim = 2 * block + 1
    t_floor = 0.05 * search.t_max
    lower = np.concatenate([np.zeros(block), np.zeros(block), [t_floor]])
    upper = np.concatenate(
        [np.full(block, search.omega_max), np.full(block, 2 * np.pi), [search.t_max]]
    )
    span = upper - lower

    def clip(x):
        x = x.copy()
        x[:block] = np.clip(x[:block], lower[:block], upper[:block])
        x[block : 2 * block] = np.mod(x[block : 2 * block], 2 * np.pi)
        x[-1] = np.clip(x[-1], t_floor, search.t_max)
        return x

    def sample():
        return lower + span * rng.random(dim)

    population = np.array([sample() for _ in range(search.population)])
    scores = evaluate(population)
    best_idx = int(np.argmax(scores))
    best_x, best_score = population[best_idx].copy(), float(scores[best_idx])
    history, scale, stagnant = [], search.mutation_scale, 0
    for gen in range(search.generations):
        order = np.argsort(-scores, kind="stable")
        elites = population[order[: search.elite]]
        elite_scores = scores[order[: search.elite]]
        children = []
        for _ in range(search.population - search.elite):
            pa, pb = rng.integers(0, search.elite, size=2)
            mask = rng.random(dim) < 0.5
            child = np.where(mask, elites[pa], elites[pb])
            child = child + rng.standard_normal(dim) * scale * span
            children.append(clip(child))
        child_scores = evaluate(np.array(children))
        population = np.vstack([elites, children])
        scores = np.concatenate([elite_scores, child_scores])
        gen_best = int(np.argmax(scores))
        if scores[gen_best] > best_score + 1e-12:
            best_score, best_x, stagnant = float(scores[gen_best]), population[gen_best].copy(), 0
        else:
            stagnant += 1
        history.append(GenerationRecord(gen, best_score, float(np.mean(scores)), scale))
        scale = max(scale * search.mutation_decay, search.mutation_floor)
        if stagnant >= search.restart_after:
            population = np.array([best_x] + [sample() for _ in range(search.population - 1)])
            scores = np.concatenate([[best_score], evaluate(population[1:])])
            scale, stagnant = search.mutation_scale, 0
    return _vector_to_params(best_x, n_seg, n_colors), best_score, history


@SETTINGS
@given(data=st.data())
def test_array_breeding_is_the_one_child_loop(data):
    population = data.draw(st.integers(2, 24))
    search = SearchConfig(
        omega_max=data.draw(st.floats(0.01, 2.0)),
        t_max=data.draw(st.floats(0.1, 200.0)),
        segments=data.draw(st.integers(1, 3)),
        population=population,
        elite=data.draw(st.integers(1, population - 1)),
        generations=data.draw(st.integers(1, 25)),
        mutation_scale=data.draw(st.floats(0.0, 1.0)),
        restart_after=data.draw(st.integers(1, 4)),
    )
    sidebands = st.sampled_from(["carrier", "blue", "red"])
    colors = data.draw(st.lists(st.builds(FieldColor, st.just(0), sidebands), min_size=1, max_size=3))
    model = SystemModel(TrapConfig(1.0, 0.3), (IonConfig(),), TruncatedBasis(1, 2))
    ground = np.array([1, 0, 0, 0], dtype=complex)
    objective = Objective("state_fidelity", ground, ground)
    seed = data.draw(st.integers(0, 2**32 - 1))
    with mock.patch.object(optimize_module, "_population_scorer", plateau_scorer):
        found = optimize(model, colors, objective, search, seed)
    evaluate = plateau_scorer(None, None, None, None, None)
    expected = reference_search(evaluate, search, len(colors), seed)
    assert found == expected
