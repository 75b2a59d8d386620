"""Derivative-free learning-control search over multi-color pulses.

The parameter space is deliberately small: one amplitude and one phase
per color (per segment, when more than one segment is allowed) plus the
total duration.  An elitist evolutionary strategy with decaying Gaussian
mutation searches it; every run is bit-reproducible from its seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PulseSchedule, Segment, _check_normalized, _parity_blocks, _parity_propagate
from .graph import build_graph, connected_components
from .model import SystemModel

__all__ = [
    "state_fidelity",
    "spin_fidelity",
    "Objective",
    "PulseParams",
    "SearchConfig",
    "GenerationRecord",
    "optimize",
]

log = logging.getLogger(__name__)


def state_fidelity(psi: np.ndarray, target: np.ndarray) -> float:
    """Squared overlap |<target|psi>|^2 of two normalized states."""
    psi = np.asarray(psi, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if psi.shape != target.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {target.shape}")
    _check_normalized(psi, "psi")
    _check_normalized(target, "target")
    return float(_overlaps(psi[None], target)[0])


def _overlaps(psi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|<target|psi>|^2 of each row of a (P, d) stack of states, unchecked."""
    return np.abs(psi @ target.conj()) ** 2


def spin_fidelity(psi: np.ndarray, target_spin: np.ndarray, basis) -> tuple[float, float]:
    """Fidelity of the reduced spin state against a spin-space target,
    plus the purity of the reduced state.

    The phonon index is traced out; purity 1 means the motion factors
    from the spin state exactly.
    """
    psi = _check_normalized(psi, "psi")
    spin_dim = 2**basis.ion_count
    if psi.shape != (spin_dim * basis.fock_cutoff,):
        raise ValueError("psi does not live on the given basis")
    target_spin = np.asarray(target_spin, dtype=complex)
    if target_spin.shape != (spin_dim,):
        raise ValueError(f"target_spin must have dimension {spin_dim}")
    _check_normalized(target_spin, "target_spin")
    fidelity, purity = _spin_fidelity_purity(psi[None], target_spin, basis.fock_cutoff)
    return float(fidelity[0]), float(purity[0])


def _spin_fidelity_purity(psi: np.ndarray, target_spin: np.ndarray, fock_cutoff: int):
    """Reduced-spin fidelity and purity of each row of a (P, d) stack of
    states, unchecked."""
    amp = psi.reshape(len(psi), -1, fock_cutoff)
    rho = amp @ amp.conj().swapaxes(1, 2)
    fidelity = np.real(np.einsum("i,pij,j->p", target_spin.conj(), rho, target_spin))
    purity = np.real(np.einsum("pij,pji->p", rho, rho))
    return fidelity, purity


@dataclass(frozen=True)
class Objective:
    """State-fidelity or reduced-spin-fidelity target from a fixed
    initial state.  For spin targets the score is the fidelity when the
    reduced state is pure enough (purity >= purity_floor) and
    fidelity * purity otherwise, so factorization of the motion is part
    of what the search must achieve."""

    kind: str  # "state_fidelity" | "spin_fidelity"
    target: np.ndarray
    initial: np.ndarray
    purity_floor: float = 0.99

    def __post_init__(self):
        if self.kind not in ("state_fidelity", "spin_fidelity"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        _check_normalized(self.initial, "initial state")
        _check_normalized(self.target, "target")
        if not 0.0 <= self.purity_floor <= 1.0:
            raise ValueError(f"purity_floor: must be between 0 and 1, got {self.purity_floor}")

    def score(self, psi: np.ndarray, basis) -> float:
        if self.kind == "state_fidelity":
            return state_fidelity(psi, self.target)
        return float(self._floored(*spin_fidelity(psi, self.target, basis)))

    def _check_basis(self, basis) -> None:
        if np.shape(self.initial) != (basis.dimension,):
            raise ValueError(f"initial state must have dimension {basis.dimension}")
        size = basis.dimension if self.kind == "state_fidelity" else 2**basis.ion_count
        if np.shape(self.target) != (size,):
            raise ValueError(f"target must have dimension {size}")

    def _floored(self, fidelity, purity):
        return np.where(purity >= self.purity_floor, fidelity, fidelity * purity)

    def _scores(self, psi: np.ndarray, basis) -> np.ndarray:
        """Scores of each row of a (P, d) stack of normalized states."""
        target = np.asarray(self.target, dtype=complex)
        if self.kind == "state_fidelity":
            return _overlaps(psi, target)
        return self._floored(*_spin_fidelity_purity(psi, target, basis.fock_cutoff))


@dataclass(frozen=True)
class PulseParams:
    """One candidate pulse: per-segment amplitudes and phases for each
    color, plus the total duration (segments share it equally)."""

    amplitudes: tuple[tuple[float, ...], ...]
    phases: tuple[tuple[float, ...], ...]
    duration: float

    def to_schedule(self, colors) -> PulseSchedule:
        n_seg = len(self.amplitudes)
        seg_time = self.duration / n_seg
        segments = []
        for amps, phis in zip(self.amplitudes, self.phases):
            realized = tuple(
                replace(color, rabi=float(a), phase=float(p % (2 * np.pi)))
                for color, a, p in zip(colors, amps, phis)
            )
            segments.append(Segment(colors=realized, duration=seg_time))
        return PulseSchedule(segments=tuple(segments))


@dataclass(frozen=True)
class SearchConfig:
    omega_max: float
    t_max: float
    segments: int = 1
    population: int = 32
    elite: int = 8
    generations: int = 200
    mutation_scale: float = 0.25
    mutation_decay: float = 0.97
    mutation_floor: float = 0.005
    restart_after: int = 50

    def __post_init__(self):
        # each message starts with its field; the scenario parser names it task.<field>
        for name in ("omega_max", "t_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be positive")
        if not 1 <= self.segments <= 8:
            raise ValueError("segments: must be between 1 and 8")
        if not 0 < self.elite < self.population:
            raise ValueError(
                f"elite: must be between 1 and population - 1 ({self.population - 1})"
            )
        for name in ("mutation_scale", "mutation_floor"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name}: must be nonnegative and finite")
        if not 0 <= self.mutation_decay <= 1:
            raise ValueError("mutation_decay: must be between 0 and 1")
        for name in ("generations", "restart_after"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name}: must be >= 1")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_score: float
    mean_score: float
    mutation_scale: float


def _vector_to_params(x: np.ndarray, n_seg: int, n_colors: int) -> PulseParams:
    block = n_seg * n_colors
    amps = x[:block].reshape(n_seg, n_colors)
    phis = x[block : 2 * block].reshape(n_seg, n_colors)
    return PulseParams(
        amplitudes=tuple(tuple(float(a) for a in row) for row in amps),
        phases=tuple(tuple(float(p) for p in row) for row in phis),
        duration=float(x[-1]),
    )


# Bytes of one stacked (rows, k/2, k/2) block the population scorer holds
# at a time, k the states it propagates; its SVD factors and workspace take
# about three times as much again.  Larger populations are scored in row chunks.
_CHUNK_BYTES = 64 * 2**20

# Largest 2-norm by which cutting the initial state's component loose may
# move any final state the search scores.
_CUT_TOL = 1e-13


def _component_blocks(model: SystemModel, colors, initial: np.ndarray, max_area: float):
    """`_parity_blocks` of the colors, restricted to the union of the
    coupling-graph components that hold the initial state's support, and
    the ascending basis indices of that union.

    The graph keeps the unit-Rabi couplings above _CUT_TOL / max_area.  The
    entries that cross out of the union are dropped only if the Duhamel
    bound max_area * ||dB||_F <= _CUT_TOL holds, dB the cut entries summed
    by magnitude per position: then no pulse of amplitudes up to omega_max
    and total duration up to t_max, max_area = omega_max * t_max, moves a
    final state by more than _CUT_TOL.  Where the bound fails, the
    threshold leaves double range, the union is the whole basis, or its
    even and odd sectors differ in size (the propagator's blocks are
    square), the whole basis's blocks come back."""
    sectors = _parity_blocks(model, colors)
    whole = sectors, np.arange(model.basis.dimension)
    threshold = _CUT_TOL / max_area
    if not 0 < threshold < np.inf:
        return whole
    support = set(np.flatnonzero(initial).tolist())
    graph = build_graph(model, list(colors), threshold=threshold)
    states = sorted(set().union(*(c for c in connected_components(graph) if c & support)))
    inside = np.zeros(model.basis.dimension, dtype=bool)
    inside[states] = True
    even, odd, flat, column, value = sectors
    row, col = np.divmod(flat, len(odd))
    in_even, in_odd = inside[even], inside[odd]
    cut = in_even[row] != in_odd[col]
    cut_norm = np.linalg.norm(np.bincount(flat[cut], np.abs(value[cut])))
    square = np.count_nonzero(in_even) == np.count_nonzero(in_odd)
    if inside.all() or not square or not max_area * cut_norm <= _CUT_TOL:
        return whole
    kept = in_even[row] & in_odd[col]
    # positions within the union's own even and odd sectors, and its basis indices
    pos_even, pos_odd = np.cumsum(in_even) - 1, np.cumsum(in_odd) - 1
    index = np.cumsum(inside) - 1
    sub_flat = pos_even[row[kept]] * np.count_nonzero(in_odd) + pos_odd[col[kept]]
    sub = (index[even[in_even]], index[odd[in_odd]], sub_flat, column[kept], value[kept])
    return sub, np.array(states)


def _population_scorer(
    model: SystemModel, colors, objective: Objective, n_seg: int, max_area: float
):
    """Score function of (P, 2*S*C + 1) parameter matrices: per-segment
    amplitudes and phases for each color, then the total duration, with
    every amplitude times the duration at most max_area.

    Rows are propagated on the closed component of the initial state that
    `_component_blocks` finds (the whole basis where it cuts nothing), so
    each final state is within 1e-13 of the whole basis's, and scattered
    back to the basis before scoring.  They go through `_parity_propagate`
    in chunks that fit _CHUNK_BYTES, on parity-block entries gathered once;
    a row whose final state is not finite and normalized scores -inf with
    a warning."""
    initial = np.asarray(objective.initial, dtype=complex)
    sectors, states = _component_blocks(model, colors, initial, max_area)
    d = model.basis.dimension
    block = n_seg * len(colors)
    rows = max(1, _CHUNK_BYTES // (4 * len(states) ** 2))

    def score(x: np.ndarray) -> np.ndarray:
        if len(x) > rows:
            return np.concatenate([score(x[i : i + rows]) for i in range(0, len(x), rows)])
        amp = (x[:, :block] * np.exp(1j * x[:, block : 2 * block])).reshape(-1, n_seg, len(colors))
        try:
            psi = _parity_propagate(*sectors, amp, x[:, -1, None] / n_seg, initial[states])[:, -1]
        except np.linalg.LinAlgError as exc:
            if len(x) > 1:
                return np.concatenate([score(row[None]) for row in x])
            log.warning("discarding candidate: %s", exc)
            return np.array([-np.inf])
        norm = np.sqrt(np.sum(np.abs(psi) ** 2, axis=1))
        kept = np.abs(norm - 1.0) <= 1e-8
        for value in norm[~kept]:
            log.warning("discarding candidate: final state is not normalized (norm %s)", value)
        scores = np.full(len(x), -np.inf)
        if kept.any():  # an empty stack has no spin blocks to reshape
            final = np.zeros((np.count_nonzero(kept), d), dtype=complex)
            final[:, states] = psi[kept]
            scores[kept] = objective._scores(final, model.basis)
        return scores

    return score


def optimize(
    model: SystemModel,
    colors,
    objective: Objective,
    search: SearchConfig,
    seed: int,
) -> tuple[PulseParams, float, list[GenerationRecord]]:
    """Elitist evolutionary search; returns the best pulse found, its
    score and the per-generation history (best-so-far is monotone).

    Per generation the elite fraction survives unchanged, children are
    recombined uniformly from two elite parents and Gaussian-mutated
    with a per-bound scaled step that decays generation by generation;
    after `restart_after` stagnant generations everything but the best
    candidate is reseeded and the mutation scale reset.

    Candidates are propagated on the closed component of the initial
    state's support (`_component_blocks`): couplings out of it are cut
    only where no pulse in the search box can move a final state by more
    than 1e-13, and the whole basis is used otherwise.  A candidate whose
    final state is not finite scores -inf; where all do, the returned
    score is -inf.
    """
    colors = tuple(colors)
    if not colors:
        raise ValueError("need at least one color to optimize")
    objective._check_basis(model.basis)
    rng = np.random.default_rng(seed)
    n_seg, n_colors = search.segments, len(colors)
    block = n_seg * n_colors
    dim = 2 * block + 1
    t_floor = 1e-6 * search.t_max

    lower = np.concatenate([np.zeros(block), np.zeros(block), [t_floor]])
    upper = np.concatenate(
        [np.full(block, search.omega_max), np.full(block, 2 * np.pi), [search.t_max]]
    )
    span = upper - lower

    def clip(x: np.ndarray) -> np.ndarray:
        x[:, :block] = np.clip(x[:, :block], lower[:block], upper[:block])
        x[:, block : 2 * block] = np.mod(x[:, block : 2 * block], 2 * np.pi)
        x[:, -1] = np.clip(x[:, -1], t_floor, search.t_max)
        return x

    def sample(rows: int) -> np.ndarray:
        return lower + span * rng.random((rows, dim))

    evaluate = _population_scorer(model, colors, objective, n_seg, search.omega_max * search.t_max)
    population = sample(search.population)
    scores = evaluate(population)

    best_idx = int(np.argmax(scores))
    best_x = population[best_idx].copy()
    best_score = float(scores[best_idx])
    history: list[GenerationRecord] = []
    scale = search.mutation_scale
    stagnant = 0
    n_child = search.population - search.elite
    parents = np.empty((n_child, 2), dtype=np.intp)
    masks, noise = np.empty((n_child, dim)), np.empty((n_child, dim))

    for gen in range(search.generations):
        order = np.argsort(-scores, kind="stable")
        elites = population[order[: search.elite]]
        elite_scores = scores[order[: search.elite]]

        # per-child draws in the stream order of the one-child-at-a-time loop;
        # two scalar integers draw what one integers(0, elite, size=2) would
        for c in range(n_child):
            parents[c] = rng.integers(0, search.elite), rng.integers(0, search.elite)
            rng.random(out=masks[c])
            rng.standard_normal(out=noise[c])
        children = np.where(masks < 0.5, elites[parents[:, 0]], elites[parents[:, 1]])
        children = clip(children + noise * scale * span)
        child_scores = evaluate(children)

        population = np.vstack([elites, children])
        scores = np.concatenate([elite_scores, child_scores])

        gen_best = int(np.argmax(scores))
        if scores[gen_best] > best_score + 1e-12:
            best_score = float(scores[gen_best])
            best_x = population[gen_best].copy()
            stagnant = 0
        else:
            stagnant += 1

        history.append(
            GenerationRecord(
                generation=gen,
                best_score=best_score,
                mean_score=float(np.mean(scores)),
                mutation_scale=scale,
            )
        )
        scale = max(scale * search.mutation_decay, search.mutation_floor)
        if stagnant >= search.restart_after:
            population = np.vstack([best_x, sample(search.population - 1)])
            scores = np.concatenate([[best_score], evaluate(population[1:])])
            scale = search.mutation_scale
            stagnant = 0

    return _vector_to_params(best_x, n_seg, n_colors), best_score, history
