import numpy as np
import pytest

from ionctrl import (
    BasisState,
    FieldColor,
    IonConfig,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    build_control,
    build_drift,
    closed_subspace,
    control_raising,
    coupling_strength,
    displacement_element,
    laguerre_zeros,
    ldl_coupling,
)
from ionctrl.model import PHONON_SHIFT, _generators, _raising

ROOT_BLUE = laguerre_zeros(6, 1)[0]
ROOT_CARRIER4 = laguerre_zeros(4, 0)[0]
ROOT_CARRIER5 = laguerre_zeros(5, 0)[0]


def one_ion(eta, cutoff, ldl=False):
    return SystemModel(
        trap=TrapConfig(mode_freq=1.0, lamb_dicke=eta),
        ions=(IonConfig(),),
        basis=TruncatedBasis(ion_count=1, fock_cutoff=cutoff),
        ldl=ldl,
    )


def two_ion(eta, cutoff, ldl=False):
    return SystemModel(
        trap=TrapConfig(mode_freq=1.0, lamb_dicke=eta, mode_weights=(1.0, 1.0)),
        ions=(IonConfig(), IonConfig()),
        basis=TruncatedBasis(ion_count=2, fock_cutoff=cutoff),
        ldl=ldl,
    )


class TestConfigValidation:
    def test_trap(self):
        with pytest.raises(ValueError):
            TrapConfig(mode_freq=0.0, lamb_dicke=0.1)
        with pytest.raises(ValueError):
            TrapConfig(mode_freq=1.0, lamb_dicke=-0.1)
        with pytest.raises(ValueError):
            TrapConfig(mode_freq=1.0, lamb_dicke=0.1, mode_weights=(1.0, 0.5))

    def test_lamb_dicke_square_must_be_finite(self):
        # the displacement elements need eta**2 of the largest participation
        with pytest.raises(ValueError, match="lamb_dicke"):
            TrapConfig(mode_freq=1.0, lamb_dicke=1e300)
        with pytest.raises(ValueError, match="lamb_dicke"):
            TrapConfig(mode_freq=1.0, lamb_dicke=1e150, mode_weights=(-1e10, 1e10))
        TrapConfig(mode_freq=1.0, lamb_dicke=1e150)

    def test_color(self):
        with pytest.raises(ValueError):
            FieldColor(target_ion=0, sideband="green")
        with pytest.raises(ValueError):
            FieldColor(target_ion=0, sideband="blue", rabi=-1.0)

    def test_model_consistency(self):
        with pytest.raises(ValueError):
            SystemModel(
                trap=TrapConfig(1.0, 0.1),
                ions=(IonConfig(), IonConfig()),
                basis=TruncatedBasis(1, 4),
            )

    def test_color_outside_model(self):
        model = one_ion(0.1, 4)
        with pytest.raises(ValueError):
            build_control(model, FieldColor(target_ion=1, sideband="carrier"))


class TestDrift:
    def test_one_ion_diagonal(self):
        model = one_ion(0.1, 3)
        assert np.allclose(np.diag(build_drift(model)), [0, 1, 2, 0, 1, 2])

    def test_two_ion_pattern(self):
        model = two_ion(0.1, 2)
        assert np.allclose(np.diag(build_drift(model)), [0, 1] * 4)

    def test_commutes_with_phonon_number(self):
        model = two_ion(0.3, 4)
        n_full = np.kron(np.eye(4), np.diag(np.arange(4.0)))
        h0 = build_drift(model)
        assert np.allclose(h0 @ n_full - n_full @ h0, 0.0)


class TestLdlCoupling:
    def test_reference_values(self):
        assert ldl_coupling(0, "red", 0.1) == 0.0
        assert ldl_coupling(3, "blue", 0.1) == pytest.approx(0.2)
        for n in range(6):
            assert ldl_coupling(n, "carrier", 0.3) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            ldl_coupling(-1, "blue", 0.1)
        with pytest.raises(ValueError):
            ldl_coupling(0, "green", 0.1)


class TestBuildControl:
    @pytest.mark.parametrize("ldl", [False, True])
    @pytest.mark.parametrize("sideband", ["carrier", "blue", "red"])
    def test_hermitian(self, sideband, ldl):
        model = one_ion(0.4, 7, ldl=ldl)
        h = build_control(model, FieldColor(0, sideband))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_ldl_carrier_magnitudes(self):
        model = one_ion(0.2, 6, ldl=True)
        h = build_control(model, FieldColor(0, "carrier"))
        basis = model.basis
        for n in range(6):
            i, j = basis.index(BasisState((1,), n)), basis.index(BasisState((0,), n))
            assert abs(h[i, j]) == pytest.approx(1.0)

    def test_ldl_blue_magnitudes(self):
        eta = 0.2
        model = one_ion(eta, 6, ldl=True)
        h = build_control(model, FieldColor(0, "blue"))
        basis = model.basis
        for n in range(5):
            i, j = basis.index(BasisState((1,), n + 1)), basis.index(BasisState((0,), n))
            assert abs(h[i, j]) == pytest.approx(eta * np.sqrt(n + 1))

    def test_ladder_structure(self):
        shift = {"carrier": 0, "blue": 1, "red": -1}
        model = two_ion(0.3, 4)
        basis = model.basis
        for sideband in ("carrier", "blue", "red"):
            h = build_control(model, FieldColor(target_ion=1, sideband=sideband))
            for i in range(basis.dimension):
                for j in range(basis.dimension):
                    if abs(h[i, j]) < 1e-14:
                        continue
                    si, sj = basis.state(i), basis.state(j)
                    assert si.spins[0] == sj.spins[0]  # spectator ion untouched
                    assert si.spins[1] != sj.spins[1]
                    dn = si.phonon - sj.phonon
                    if si.spins[1] == 1:  # raising direction
                        assert dn == shift[sideband]
                    else:
                        assert dn == -shift[sideband]

    def test_blue_edge_severed_at_zero(self):
        model = one_ion(np.sqrt(ROOT_BLUE), 10)
        h = build_control(model, FieldColor(0, "blue"))
        basis = model.basis
        edge = h[basis.index(BasisState((1,), 7)), basis.index(BasisState((0,), 6))]
        assert abs(edge) < 1e-10

    def test_exact_reduces_to_ldl_at_small_eta(self):
        eta = 0.05
        exact = one_ion(eta, 8)
        for sideband in ("carrier", "blue", "red"):
            for n in range(6):
                if sideband == "red" and n == 0:
                    continue
                full = abs(coupling_strength(exact, FieldColor(0, sideband), n))
                first_order = ldl_coupling(n, sideband, eta)
                assert abs(full - first_order) / first_order < 0.02


def raising_reference(model, ion, dn):
    """One manifold's raising operator, entry by entry."""
    sideband = {0: "carrier", 1: "blue", -1: "red"}
    basis = model.basis
    eta = model.effective_eta(ion)
    k = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for j in range(basis.dimension):
        state = basis.state(j)
        n_to = state.phonon + dn
        if state.spins[ion] != 0 or not 0 <= n_to < basis.fock_cutoff:
            continue
        spins = list(state.spins)
        spins[ion] = 1
        i = basis.index(BasisState(tuple(spins), n_to))
        if model.ldl:
            k[i, j] = 1j ** abs(dn) * ldl_coupling(state.phonon, sideband[dn], eta)
        else:
            k[i, j] = displacement_element(n_to, state.phonon, eta)
    return k


def densify(maps, dim):
    upper, lower, value = maps
    k = np.zeros((dim, dim), dtype=complex)
    k[upper, lower] = value
    return k


class TestRaising:
    @pytest.mark.parametrize("ldl", [False, True])
    @pytest.mark.parametrize("make", [one_ion, two_ion])
    def test_every_manifold_matches_reference(self, make, ldl):
        model = make(0.3, 5, ldl=ldl)
        dim = model.basis.dimension
        dns = (-1, 0, 1) if ldl else range(-4, 5)
        for ion in range(model.basis.ion_count):
            for dn in dns:
                maps = _raising(model, ion, dn)
                assert _raising(model, ion, dn) is maps
                assert not any(a.flags.writeable for a in maps)
                upper, lower, value = maps
                assert len(upper) == len(lower) == len(value) <= dim
                assert np.all(np.diff(lower) > 0) and np.all(upper > lower)
                assert np.array_equal(densify(maps, dim), raising_reference(model, ion, dn))

    @pytest.mark.parametrize("ldl", [False, True])
    def test_control_raising_is_the_cached_manifold(self, ldl):
        model = two_ion(0.3, 5, ldl=ldl)
        for ion in (0, 1):
            for sideband, dn in PHONON_SHIFT.items():
                k = control_raising(model, FieldColor(ion, sideband))
                assert np.array_equal(k, raising_reference(model, ion, dn))
                assert np.array_equal(k, densify(_raising(model, ion, dn), model.basis.dimension))


def sliced_reference(model, colors, indices):
    """The dense full-basis drift and controls sliced to `indices`."""
    idx = np.ix_(indices, indices)
    return build_drift(model)[idx], [build_control(model, c)[idx] for c in colors]


class TestGenerators:
    """`_generators` on an index set equals, byte for byte, the dense
    full-basis operators sliced to that set."""

    @pytest.mark.parametrize(
        "case", ["fourteen_state", "ldl_full", "two_ion_28", "non_contiguous"]
    )
    def test_matches_dense_sliced(self, case):
        carrier, blue = FieldColor(0, "carrier"), FieldColor(0, "blue")
        if case == "fourteen_state":
            model, colors = one_ion(np.sqrt(ROOT_BLUE), 20), [carrier, blue]
            indices = closed_subspace(model, colors)
            assert len(indices) == 14
        elif case == "ldl_full":
            model = one_ion(0.1, 6, ldl=True)
            colors = [carrier, blue, FieldColor(0, "red")]
            indices = list(range(model.basis.dimension))
        elif case == "two_ion_28":
            model = two_ion(np.sqrt(ROOT_BLUE), 16)
            colors = [blue, FieldColor(1, "blue"), carrier]
            indices = closed_subspace(model, colors)
            assert len(indices) == 28
        else:
            model = two_ion(0.3, 5)
            colors = [FieldColor(1, "red"), carrier, blue]
            indices = [0, 2, 3, 6, 7, 11, 14, 19]
        *raising, drift = _generators(model, colors, indices)
        ref_drift, ref_controls = sliced_reference(model, colors, indices)
        assert drift.shape == (len(indices),) * 2
        assert drift.tobytes() == ref_drift.tobytes()
        assert len(raising) == len(colors)
        for k, ref in zip(raising, ref_controls):
            assert (k + k.conj().T).tobytes() == ref.tobytes()

    def test_full_basis_calls(self):
        model = two_ion(0.3, 4)
        color = FieldColor(1, "blue")
        k, drift = _generators(model, [color])
        assert k.tobytes() == control_raising(model, color).tobytes()
        assert drift.tobytes() == build_drift(model).tobytes()
        reference = np.diag(np.tile(np.arange(4.0), 4)).astype(complex)
        assert drift.tobytes() == reference.tobytes()


class TestClosedSubspace:
    def test_blue_cut_gives_fourteen_states(self):
        model = one_ion(np.sqrt(ROOT_BLUE), 20)
        colors = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
        sub = closed_subspace(model, colors)
        basis = model.basis
        expected = sorted(
            basis.index(BasisState((s,), n)) for s in (0, 1) for n in range(7)
        )
        assert sub == expected

    def test_carrier_cut_at_rung_four(self):
        # the printed truncation value 0.322548 zeroes the n=4 carrier
        # coupling, so the cut is the (down,4)<->(up,4) edge
        model = one_ion(np.sqrt(ROOT_CARRIER4), 20)
        colors = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
        sub = closed_subspace(model, colors)
        basis = model.basis
        expected = sorted(
            [basis.index(BasisState((0,), n)) for n in range(4)]
            + [basis.index(BasisState((1,), n)) for n in range(5)]
        )
        assert sub == expected

    def test_carrier_cut_at_rung_five(self):
        # severing the (down,5)<->(up,5) carrier edge needs the smallest
        # zero of L_5^0, which is 0.2635603
        model = one_ion(np.sqrt(ROOT_CARRIER5), 20)
        colors = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
        sub = closed_subspace(model, colors)
        basis = model.basis
        expected = sorted(
            [basis.index(BasisState((0,), n)) for n in range(5)]
            + [basis.index(BasisState((1,), n)) for n in range(6)]
        )
        assert sub == expected

    def test_generic_eta_has_no_closed_subspace(self):
        model = one_ion(np.sqrt(0.5), 20)
        colors = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
        assert closed_subspace(model, colors) is None

    def test_two_ion_truncation(self):
        model = two_ion(np.sqrt(ROOT_BLUE), 16)
        colors = [FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier")]
        sub = closed_subspace(model, colors)
        assert sub is not None and len(sub) == 28
        assert max(model.basis.state(i).phonon for i in sub) == 6
