import tracemalloc

import numpy as np
import pytest

from ionctrl import (
    FieldColor,
    IonConfig,
    LieAlgebraResult,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    build_control,
    build_drift,
    closed_subspace,
    controllability_verdict,
    dynamical_lie_algebra,
    laguerre_zeros,
)
from ionctrl.liealg import _grading, _real_coordinates, _sweep_bytes

ROOT_BLUE = laguerre_zeros(6, 1)[0]

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def truncated_subsystem():
    model = SystemModel(
        trap=TrapConfig(1.0, np.sqrt(ROOT_BLUE)),
        ions=(IonConfig(),),
        basis=TruncatedBasis(1, 20),
    )
    colors = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
    idx = np.array(closed_subspace(model, colors))
    drift = build_drift(model)[np.ix_(idx, idx)]
    controls = [build_control(model, c)[np.ix_(idx, idx)] for c in colors]
    return drift, controls, len(idx)


def ldl_ladder(cutoff):
    model = SystemModel(
        trap=TrapConfig(1.0, 0.1),
        ions=(IonConfig(),),
        basis=TruncatedBasis(1, cutoff),
        ldl=True,
    )
    colors = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
    return model, build_drift(model), [build_control(model, c) for c in colors]


def odd_ring(d):
    """A diagonal drift and one control around a ring of d states: for odd
    d no parity grading exists, so the sweep runs on one sector."""
    drift = np.diag(np.arange(d, dtype=float)).astype(complex)
    control = np.zeros((d, d), dtype=complex)
    for j in range(d):
        control[j, (j + 1) % d] = control[(j + 1) % d, j] = 1.0 + 0.1 * j
    return drift, [control]


# per-generation (generation, new_directions, cumulative) rows of the sweep
FULL_HISTORY = {
    "closed_14": (
        lambda: truncated_subsystem()[:2],
        None,
        ((0, 3, 3), (1, 2, 5), (2, 5, 10), (3, 24, 34), (4, 150, 184), (5, 12, 196)),
        True,
    ),
    "ldl_6": (
        lambda: ldl_ladder(6)[1:],
        None,
        ((0, 3, 3), (1, 2, 5), (2, 5, 10), (3, 23, 33), (4, 111, 144)),
        True,
    ),
    "ldl_8": (
        lambda: ldl_ladder(8)[1:],
        None,
        ((0, 3, 3), (1, 2, 5), (2, 5, 10), (3, 23, 33), (4, 131, 164), (5, 92, 256)),
        True,
    ),
    "ldl_10": (
        lambda: ldl_ladder(10)[1:],
        None,
        ((0, 3, 3), (1, 2, 5), (2, 5, 10), (3, 23, 33), (4, 131, 164), (5, 236, 400)),
        True,
    ),
    "closed_14_max_dim_50": (
        lambda: truncated_subsystem()[:2],
        50,
        ((0, 3, 3), (1, 2, 5), (2, 5, 10), (3, 24, 34), (4, 16, 50)),
        False,
    ),
    # these two stop at the cap partway through a generation that has
    # switched to the complement filter
    "closed_14_max_dim_190": (
        lambda: truncated_subsystem()[:2],
        190,
        ((0, 3, 3), (1, 2, 5), (2, 5, 10), (3, 24, 34), (4, 150, 184), (5, 6, 190)),
        False,
    ),
    "ldl_10_max_dim_390": (
        lambda: ldl_ladder(10)[1:],
        390,
        ((0, 3, 3), (1, 2, 5), (2, 5, 10), (3, 23, 33), (4, 131, 164), (5, 226, 390)),
        False,
    ),
    # one sector; the ring of 13 is not pinned: generation 7 finds 46 new
    # directions at its default tol and 47 at a third of it
    "ring_11": (
        lambda: odd_ring(11),
        None,
        ((0, 2, 2), (1, 1, 3), (2, 2, 5), (3, 6, 11), (4, 21, 32), (5, 30, 62), (6, 36, 98), (7, 23, 121)),
        True,
    ),
}


class TestDynamicalLieAlgebra:
    def test_su2(self):
        result = dynamical_lie_algebra(SZ, [SX])
        assert result.dimension == 3
        assert result.saturated
        assert controllability_verdict(result, 2) == "controllable"

    def test_basis_elements_skew_hermitian_orthonormal(self):
        result = dynamical_lie_algebra(SZ, [SX])
        for i, a in enumerate(result.basis):
            assert np.max(np.abs(a + a.conj().T)) < 1e-10
            for j, b in enumerate(result.basis):
                inner = np.trace(a.conj().T @ b)
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8

    def test_commuting_controls_stay_small(self):
        drift = np.diag([1.0, 2.0, 3.0]).astype(complex)
        control = np.diag([1.0, -1.0, 0.0]).astype(complex)
        result = dynamical_lie_algebra(drift, [control])
        assert result.dimension == 2
        assert result.saturated
        assert controllability_verdict(result, 3) == "uncontrollable"

    def test_max_dim_cap_reports_unsaturated(self):
        result = dynamical_lie_algebra(SZ, [SX], max_dim=2)
        assert result.dimension == 2
        assert not result.saturated
        assert controllability_verdict(result, 2) == "inconclusive"

    @pytest.mark.parametrize(
        "max_dim",
        [float("inf"), float("nan"), 2.7, True, np.True_, 0],
        ids=["inf", "nan", "2.7", "True", "np.True_", "0"],
    )
    def test_max_dim_must_be_a_positive_integer(self, max_dim):
        with pytest.raises(ValueError, match="max_dim"):
            dynamical_lie_algebra(SZ, [SX], max_dim=max_dim)

    def test_history_accumulates(self):
        result = dynamical_lie_algebra(SZ, [SX])
        assert result.history[0] == (0, 2, 2)
        assert result.history[-1][2] == result.dimension

    def test_real_coordinates_carry_trace_inner_product(self):
        rng = np.random.default_rng(4)
        d = 5
        pack, unpack = _real_coordinates(d)
        raw = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        skew = (raw - raw.conj().transpose(0, 2, 1)) / 2
        coords = pack(raw)
        assert coords.shape == (3, d * d)
        np.testing.assert_allclose(coords, pack(skew), atol=1e-15)
        gram = np.einsum("aij,bij->ab", skew.conj(), skew).real
        np.testing.assert_allclose(coords @ coords.T, gram, atol=1e-12)
        out = np.empty((d, d), dtype=complex)
        unpack(coords[1], out)
        np.testing.assert_allclose(out, skew[1], atol=1e-15)

    @pytest.mark.parametrize("name", sorted(FULL_HISTORY))
    def test_full_history_and_orthonormal_basis(self, name):
        system, max_dim, history, saturated = FULL_HISTORY[name]
        drift, controls = system()
        result = dynamical_lie_algebra(drift, controls, max_dim=max_dim)
        assert result.history == history
        assert result.dimension == history[-1][2]
        assert result.generations == history[-1][0]
        assert result.saturated is saturated
        flat = result.basis.reshape(result.dimension, -1)
        assert np.max(np.abs(result.basis + result.basis.conj().transpose(0, 2, 1))) < 1e-12
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(result.dimension))) < 1e-10

    @pytest.mark.parametrize("name", sorted(FULL_HISTORY))
    def test_pinned_history_holds_from_a_third_to_three_times_tol(self, name):
        # a pin near the edge of its stable window would move with roundoff
        system, max_dim, history, _ = FULL_HISTORY[name]
        drift, controls = system()
        for scale in (1 / 3, 3):
            tol = scale * 1e-8 * len(drift)
            result = dynamical_lie_algebra(drift, controls, tol=tol, max_dim=max_dim)
            assert result.history == history, scale

    @pytest.mark.parametrize("name", ["closed_14", "ldl_10"])
    def test_history_unchanged_by_scaling_the_generators(self, name):
        # the sweep normalises each generator, so the rank decisions do not
        # depend on the Hamiltonian's units; a downdated residual is only
        # accepted once its norm is recomputed above tol
        system, _, history, _ = FULL_HISTORY[name]
        drift, controls = system()
        for scale in (1e-3, 1e3, 1e6):
            result = dynamical_lie_algebra(scale * drift, [scale * c for c in controls])
            assert result.history == history, scale

    def test_basis_is_the_blocks_scattered_even_first_on_first_read(self):
        drift, controls = truncated_subsystem()[:2]
        result = dynamical_lie_algebra(drift, controls, max_dim=50)
        assert "basis" not in vars(result)
        (even, odd), (p0, p1), (q0, q1) = result.sectors, result.ps, result.qs
        assert len(p0) + len(p1) == result.dimension == 50
        basis = result.basis
        assert result.basis is basis
        expected = np.zeros((50, 14, 14), dtype=complex)
        for k in range(len(p0)):
            expected[k][np.ix_(even, even)] = p0[k]
            expected[k][np.ix_(odd, odd)] = q0[k]
        for k in range(len(p1)):
            expected[len(p0) + k][np.ix_(even, odd)] = p1[k]
            expected[len(p0) + k][np.ix_(odd, even)] = q1[k]
        np.testing.assert_array_equal(basis, expected)

    def test_oversized_sweep_refused_before_allocating(self):
        drift = np.diag(np.arange(100.0)).astype(complex)
        control = np.zeros((100, 100), dtype=complex)
        control[0, 1] = control[1, 0] = 1.0
        with pytest.raises(ValueError, match="max_dim"):
            dynamical_lie_algebra(drift, [control])
        capped = dynamical_lie_algebra(drift, [control], max_dim=5)
        assert capped.dimension <= 5

    @pytest.mark.parametrize(
        "system, max_dim",
        [
            (lambda: truncated_subsystem()[:2], None),
            (lambda: truncated_subsystem()[:2], 50),
            (lambda: ldl_ladder(8)[1:], None),
            (lambda: ldl_ladder(10)[1:], None),
            (lambda: ldl_ladder(10)[1:], 390),
            (lambda: odd_ring(11), None),
            # a small cap: a flush of the commutator buffer sets the peak
            (lambda: truncated_subsystem()[:2], 20),
        ],
        ids=[
            "closed_14",
            "closed_14_max_dim_50",
            "ldl_8",
            "ldl_10",
            "ldl_10_max_dim_390",
            "ungraded_11",
            "closed_14_max_dim_20",
        ],
    )
    def test_peak_memory_within_estimate(self, system, max_dim):
        drift, controls = system()
        d = drift.shape[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dynamical_lie_algebra(drift, controls, max_dim=max_dim)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the model of the sectors the sweep infers
        sectors, _ = _grading([drift, *controls])
        model = _sweep_bytes(d * d if max_dim is None else max_dim, *map(len, sectors))
        assert model / 2 <= peak <= model

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dynamical_lie_algebra(SZ + 1j * SX, [SX])
        with pytest.raises(ValueError):
            dynamical_lie_algebra(SZ, [np.eye(3, dtype=complex)])
        with pytest.raises(ValueError):
            dynamical_lie_algebra(np.zeros((2, 2), dtype=complex), [])

    def test_non_finite_generators_refused(self):
        nan_drift = SZ.copy()
        nan_drift[0, 0] = np.nan
        with pytest.raises(ValueError, match="drift must be finite"):
            dynamical_lie_algebra(nan_drift, [SX])
        inf_control = SX.copy()
        inf_control[0, 1] = inf_control[1, 0] = np.inf
        with pytest.raises(ValueError, match="control 1 must be finite"):
            dynamical_lie_algebra(SZ, [SX, inf_control])

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol"):
            dynamical_lie_algebra(SZ, [SX], tol=tol)

    def test_truncated_subsystem_controllable(self):
        drift, controls, dim = truncated_subsystem()
        result = dynamical_lie_algebra(drift, controls)
        assert dim == 14
        assert result.dimension >= dim * dim - 1
        assert result.saturated
        assert controllability_verdict(result, dim) == "controllable"

    def test_ldl_dimension_grows_with_cutoff(self):
        dims = []
        for cutoff in (3, 4, 5):
            model, drift, controls = ldl_ladder(cutoff)
            result = dynamical_lie_algebra(drift, controls)
            space = model.basis.dimension
            dims.append(result.dimension)
            # fills everything available at this cutoff: growth is only
            # stopped by the truncation, never by genuine closure below it
            assert result.dimension == space * space
        assert dims[0] < dims[1] < dims[2]

    def test_saturation_self_consistency(self):
        drift, controls, dim = truncated_subsystem()
        result = dynamical_lie_algebra(drift, controls)
        flat = result.basis.reshape(result.dimension, -1)
        rng = np.random.default_rng(3)
        tol = 1e-8 * max(np.linalg.norm(1j * m) for m in [drift, *controls])
        for _ in range(1000):
            i, j = rng.integers(0, result.dimension, size=2)
            comm = result.basis[i] @ result.basis[j] - result.basis[j] @ result.basis[i]
            vec = comm.ravel()
            residual = vec - (flat.conj() @ vec) @ flat
            assert np.linalg.norm(residual) < 10 * tol

    def test_dimension_invariant_under_conjugation(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        drift = np.diag(np.arange(6.0)).astype(complex)
        control = np.zeros((6, 6), dtype=complex)
        control[0, 1] = control[1, 0] = 1.0
        control[2, 3] = control[3, 2] = 0.5
        base = dynamical_lie_algebra(drift, [control])
        rotated = dynamical_lie_algebra(
            q @ drift @ q.conj().T, [q @ control @ q.conj().T]
        )
        assert rotated.dimension == base.dimension
        assert rotated.saturated == base.saturated


class TestVerdict:
    def test_enumerated_cases(self):
        # no blocks: the verdict reads only dimension and saturated
        none = np.zeros((0, 2, 2), dtype=complex)
        blocks = dict(
            sectors=(np.arange(2), np.arange(0)),
            ps=(none, none[..., :0]),
            qs=(none[:, :0, :0], none[:, :0]),
        )
        sat3 = LieAlgebraResult(dimension=3, saturated=True, generations=1, history=(), **blocks)
        sat2 = LieAlgebraResult(dimension=2, saturated=True, generations=1, history=(), **blocks)
        cap = LieAlgebraResult(dimension=4, saturated=False, generations=1, history=(), **blocks)
        assert controllability_verdict(sat3, 2) == "controllable"
        assert controllability_verdict(sat2, 2) == "uncontrollable"
        assert controllability_verdict(cap, 2) == "inconclusive"


class TestDegeneracyReport:
    def test_two_ion_truncated_model_controllable(self):
        model = SystemModel(
            trap=TrapConfig(1.0, np.sqrt(ROOT_BLUE), (1.0, 1.0)),
            ions=(IonConfig(), IonConfig()),
            basis=TruncatedBasis(2, 10),
        )
        colors = [FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier")]
        sub = closed_subspace(model, colors)
        idx = np.array(sub)
        drift = build_drift(model)[np.ix_(idx, idx)]
        controls = [build_control(model, c)[np.ix_(idx, idx)] for c in colors]
        result = dynamical_lie_algebra(drift, controls)
        assert controllability_verdict(result, len(idx)) == "controllable"
