"""Eigenstate coupling graphs: construction, components, closed subspaces.

Vertices are the basis states of a model, edges the above-threshold
control matrix elements of the applied colors.  Transitive connectivity
of (a subset of) this graph is a necessary condition for
controllability; a severed rung turns the ladder into a finite closed
component plus an infinite remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import BasisState
from .model import PHONON_SHIFT, FieldColor, SystemModel, _raising

__all__ = [
    "GraphEdge",
    "CouplingGraph",
    "build_graph",
    "connected_components",
    "is_transitively_connected",
    "closed_subspace",
]


@dataclass(frozen=True)
class GraphEdge:
    a: int
    b: int
    weight: float
    color: int  # index of the contributing color


@dataclass(frozen=True)
class CouplingGraph:
    vertices: tuple[BasisState, ...]
    edges: tuple[GraphEdge, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def build_graph(
    model: SystemModel,
    colors: list[FieldColor],
    threshold: float = 1e-9,
) -> CouplingGraph:
    """One undirected edge (lower, upper) per raising-operator entry above
    threshold, weighted by its magnitude at unit Rabi and tagged by color
    index; ordered by color, then by lower index."""
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    edges = []
    for ci, color in enumerate(colors):
        model.check_color(color)
        upper, lower, value = _raising(model, color.target_ion, PHONON_SHIFT[color.sideband])
        weight = np.abs(value)
        for i in np.flatnonzero(weight > threshold):
            edges.append(GraphEdge(a=int(lower[i]), b=int(upper[i]), weight=float(weight[i]), color=ci))
    return CouplingGraph(vertices=tuple(model.basis.states()), edges=tuple(edges))


def _traverse(neighbours) -> tuple[list[int], list[int]]:
    """Depth-first walk of a graph given as each vertex's neighbours: each
    vertex's component, numbered by its smallest member, and the parity of
    its depth in the walk's spanning forest."""
    component, parity = [-1] * len(neighbours), [0] * len(neighbours)
    for start in range(len(neighbours)):
        if component[start] < 0:
            component[start], stack = start, [start]
            while stack:
                v = stack.pop()
                for w in neighbours[v]:
                    if component[w] < 0:
                        component[w], parity[w] = start, parity[v] ^ 1
                        stack.append(w)
    return component, parity


def connected_components(graph: CouplingGraph) -> list[set[int]]:
    """Vertex partition by transitive coupling, ordered by smallest
    contained index."""
    neighbours: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e in graph.edges:
        neighbours[e.a].append(e.b)
        neighbours[e.b].append(e.a)
    components: dict[int, set[int]] = {}
    for v, c in enumerate(_traverse(neighbours)[0]):
        components.setdefault(c, set()).add(v)
    return list(components.values())


def is_transitively_connected(graph: CouplingGraph, subset) -> bool:
    """True iff every pair in the subset is directly or indirectly coupled."""
    subset = set(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    for comp in connected_components(graph):
        if subset & comp:
            return subset <= comp
    return False


def closed_subspace(
    model: SystemModel,
    colors: list[FieldColor],
    threshold: float = 1e-9,
) -> list[int] | None:
    """Indices of the finite component containing |all-down, 0>, or None.

    The component is computed on the union graph of all colors.  It
    counts as finite only if it stays clear of the top phonon level of
    the truncated basis, so that enlarging the cutoff cannot grow it:
    a component that touches the truncation edge is a numerical
    artifact, not a closed subsystem.
    """
    # |all-down, 0> is index 0, so its component comes first
    comp = connected_components(build_graph(model, colors, threshold=threshold))[0]
    n_levels = model.basis.fock_cutoff
    return None if max(i % n_levels for i in comp) >= n_levels - 1 else sorted(comp)
