import numpy as np
import pytest

from ionctrl import (
    BasisState,
    CouplingGraph,
    FieldColor,
    GraphEdge,
    IonConfig,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    build_graph,
    closed_subspace,
    connected_components,
    is_transitively_connected,
    laguerre_zeros,
)

ROOT_BLUE = laguerre_zeros(6, 1)[0]


def one_ion(eta, cutoff, ldl=False):
    return SystemModel(
        trap=TrapConfig(1.0, eta),
        ions=(IonConfig(),),
        basis=TruncatedBasis(1, cutoff),
        ldl=ldl,
    )


def test_carrier_only_pairs():
    model = one_ion(0.1, 5, ldl=True)
    g = build_graph(model, [FieldColor(0, "carrier")])
    assert len(g.edges) == 5
    comps = connected_components(g)
    assert sorted(len(c) for c in comps) == [2] * 5
    basis = model.basis
    for n in range(5):
        pair = {basis.index(BasisState((0,), n)), basis.index(BasisState((1,), n))}
        assert pair in comps
    assert not is_transitively_connected(g, range(basis.dimension))
    assert is_transitively_connected(g, [0])


def test_carrier_plus_blue_connects_everything():
    model = one_ion(0.1, 8, ldl=True)
    g = build_graph(model, [FieldColor(0, "carrier"), FieldColor(0, "blue")])
    assert len(connected_components(g)) == 1
    assert is_transitively_connected(g, range(model.basis.dimension))


def test_blue_only_pairing_with_isolated_corners():
    model = one_ion(0.1, 6, ldl=True)
    g = build_graph(model, [FieldColor(0, "blue")])
    comps = connected_components(g)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1] + [2] * 5
    basis = model.basis
    assert {basis.index(BasisState((1,), 0))} in comps
    assert {basis.index(BasisState((0,), 5))} in comps


def test_components_deterministic_and_permutation_invariant():
    model = one_ion(np.sqrt(ROOT_BLUE), 12)
    g = build_graph(model, [FieldColor(0, "carrier"), FieldColor(0, "blue")])
    comps = connected_components(g)
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)
    rng = np.random.default_rng(5)
    perm = tuple(g.edges[i] for i in rng.permutation(len(g.edges)))
    shuffled = CouplingGraph(vertices=g.vertices, edges=perm)
    assert connected_components(shuffled) == comps


def test_rabi_scaling_does_not_change_components():
    model = one_ion(0.3, 8)
    weak = [FieldColor(0, "carrier", rabi=1e-3), FieldColor(0, "blue", rabi=1e-3)]
    strong = [FieldColor(0, "carrier", rabi=10.0), FieldColor(0, "blue", rabi=10.0)]
    g_weak = build_graph(model, weak)
    g_strong = build_graph(model, strong)
    assert connected_components(g_weak) == connected_components(g_strong)


def test_severed_component_has_fourteen_vertices():
    model = one_ion(np.sqrt(ROOT_BLUE), 20)
    g = build_graph(model, [FieldColor(0, "carrier"), FieldColor(0, "blue")])
    basis = model.basis
    ground = basis.index(BasisState((0,), 0))
    comp = next(c for c in connected_components(g) if ground in c)
    assert len(comp) == 14
    blue_edges = {(e.a, e.b) for e in g.edges if e.color == 1}
    cut = (basis.index(BasisState((0,), 6)), basis.index(BasisState((1,), 7)))
    assert tuple(sorted(cut)) not in blue_edges


def test_two_ion_finite_subspace_is_one_component():
    model = SystemModel(
        trap=TrapConfig(1.0, np.sqrt(ROOT_BLUE), (1.0, 1.0)),
        ions=(IonConfig(), IonConfig()),
        basis=TruncatedBasis(2, 14),
    )
    colors = [FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier")]
    g = build_graph(model, colors)
    basis = model.basis
    finite = [
        basis.index(BasisState((s1, s2), n))
        for s1 in (0, 1)
        for s2 in (0, 1)
        for n in range(7)
    ]
    assert is_transitively_connected(g, finite)


def test_graph_validation():
    model = one_ion(0.1, 4)
    with pytest.raises(ValueError):
        build_graph(model, [FieldColor(0, "carrier")], threshold=0.0)
    # a NaN threshold would keep no edge and make |down, 0> alone "closed"
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="threshold"):
            build_graph(model, [FieldColor(0, "carrier")], threshold=bad)
        with pytest.raises(ValueError, match="threshold"):
            closed_subspace(model, [FieldColor(0, "carrier")], threshold=bad)
    g = build_graph(model, [FieldColor(0, "carrier")])
    with pytest.raises(ValueError):
        is_transitively_connected(g, [])


def test_edges_have_no_self_loops_and_positive_weights():
    model = one_ion(0.4, 9)
    g = build_graph(model, [FieldColor(0, "carrier"), FieldColor(0, "blue"), FieldColor(0, "red")])
    for e in g.edges:
        assert e.a != e.b
        assert e.weight > 1e-9
        assert isinstance(e, GraphEdge)
    assert g.vertex_count == model.basis.dimension
