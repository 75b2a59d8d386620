import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from ionctrl import (
    BasisState,
    TruncatedBasis,
    displacement_element,
    displacement_exact,
    laguerre_zeros,
)
from ionctrl.fock import _evolve, _manifold

ROOT_BLUE = laguerre_zeros(6, 1)[0]   # severs the blue 6->7 edge
ROOT_CARRIER4 = laguerre_zeros(4, 0)[0]
ROOT_CARRIER5 = laguerre_zeros(5, 0)[0]


class TestBasis:
    def test_enumeration_one_ion(self):
        basis = TruncatedBasis(ion_count=1, fock_cutoff=3)
        assert basis.dimension == 6
        labels = [str(basis.state(i)) for i in range(6)]
        assert labels == ["|d,0>", "|d,1>", "|d,2>", "|u,0>", "|u,1>", "|u,2>"]

    def test_enumeration_two_ions(self):
        basis = TruncatedBasis(ion_count=2, fock_cutoff=2)
        assert basis.dimension == 8
        assert basis.state(0).spin_label() == "dd"
        assert basis.state(2).spin_label() == "du"
        assert basis.state(4).spin_label() == "ud"
        assert basis.state(7) == BasisState(spins=(1, 1), phonon=1)

    def test_index_state_inverse(self):
        for ions in (1, 2):
            basis = TruncatedBasis(ion_count=ions, fock_cutoff=5)
            for i in range(basis.dimension):
                assert basis.index(basis.state(i)) == i

    def test_invalid_states(self):
        basis = TruncatedBasis(ion_count=1, fock_cutoff=3)
        with pytest.raises(ValueError):
            basis.index(BasisState(spins=(0,), phonon=3))
        with pytest.raises(ValueError):
            basis.index(BasisState(spins=(0, 1), phonon=0))
        with pytest.raises(ValueError):
            basis.state(6)
        with pytest.raises(ValueError):
            BasisState(spins=(2,), phonon=0)
        with pytest.raises(ValueError):
            TruncatedBasis(ion_count=3, fock_cutoff=2)


class TestDisplacementExact:
    def test_zero_eta_is_identity(self):
        assert np.allclose(displacement_exact(0.0, 5), np.eye(5))

    def test_ground_state_overlap_closed_form(self):
        block = displacement_exact(0.3, 6)
        assert block[0, 0] == pytest.approx(np.exp(-0.3**2 / 2), abs=1e-10)

    def test_interior_unitarity(self):
        block = displacement_exact(0.5, 20)
        gram = block.conj().T @ block
        inner = gram[:8, :8] - np.eye(8)
        assert np.max(np.abs(inner)) < 1e-8

    def test_severed_edge_at_blue_zero(self):
        block = displacement_exact(np.sqrt(ROOT_BLUE), 10)
        assert abs(block[7, 6]) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            displacement_exact(-0.1, 5)


class TestDisplacementElement:
    def test_zero_eta(self):
        for n in range(6):
            assert displacement_element(n, n, 0.0) == pytest.approx(1.0)
        assert displacement_element(3, 1, 0.0) == 0.0

    def test_vanishing_couplings_at_laguerre_zeros(self):
        assert abs(displacement_element(7, 6, np.sqrt(ROOT_BLUE))) < 1e-10
        assert abs(displacement_element(4, 4, np.sqrt(ROOT_CARRIER4))) < 1e-10
        assert abs(displacement_element(5, 5, np.sqrt(ROOT_CARRIER5))) < 1e-10

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
    def test_against_exact_oracle(self, eta):
        block = displacement_exact(eta, 13)
        for n_to in range(13):
            for n_from in range(13):
                elem = displacement_element(n_to, n_from, eta)
                assert abs(elem - block[n_to, n_from]) < 1e-9

    def test_magnitude_symmetry(self):
        for eta in (0.2, 0.727):
            for n in range(16):
                for m in range(16):
                    assert abs(displacement_element(n, m, eta)) == pytest.approx(
                        abs(displacement_element(m, n, eta)), abs=1e-12
                    )

    def test_carrier_limit_small_eta(self):
        eta = 0.01
        for n in range(11):
            drop = 1.0 - abs(displacement_element(n, n, eta))
            assert 0.0 <= drop < (n + 1.0) * eta**2

    @pytest.mark.parametrize("dn", [101, 102, 103])
    def test_phase_is_exact_past_delta_100(self, dn):
        # i^dn: 1j**dn leaves a spurious component of relative size 1e-14
        # from dn = 101 on
        for n_to, n_from in ((dn, 0), (0, dn)):
            elem = displacement_element(n_to, n_from, np.sqrt(ROOT_BLUE))
            assert elem != 0.0
            assert (elem.imag if dn % 2 == 0 else elem.real) == 0.0

    @pytest.mark.parametrize("eta", [0.5, np.sqrt(ROOT_BLUE)])
    def test_element_is_the_manifold_entry_bit_for_bit(self, eta):
        # the element starts the factorial ratio at its own rung, the
        # manifold at rung 0; every product and quotient is the same
        for n_to in (*range(40), 100, 541):
            for n_from in (*range(40), 100, 541):
                dn, n = abs(n_to - n_from), min(n_to, n_from)
                expected = complex(_manifold(dn, eta, n + 1)[-1])
                assert displacement_element(n_to, n_from, eta) == expected

    @pytest.mark.parametrize("n_to, n_from", [(2000, 1000), (1000, 2000)])
    def test_overflowing_recurrence_raises_naming_the_element(self, n_to, n_from):
        # L_1000^1000(0.25) overflows in the recurrence, though the element
        # itself underflows; no NaN comes back and no warning is printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=rf"<{n_to}\|D\|{n_from}> at eta=0.5"):
                displacement_element(n_to, n_from, 0.5)


class TestEvolve:
    """The one Hermitian exponential against scipy's expm at d = 24."""

    @staticmethod
    def hermitian(seed, d=24):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return 0.5 * (m + m.conj().T)

    def test_single_state(self):
        h = self.hermitian(1)
        psi = np.zeros(24, dtype=complex)
        psi[3] = 1.0
        out = _evolve(h, psi, [0.7])
        assert out.shape == (1, 24)
        assert np.max(np.abs(out[0] - expm(-0.7j * h) @ psi)) < 1e-12

    def test_array_of_times(self):
        h = self.hermitian(2)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        psi /= np.linalg.norm(psi)
        times = np.array([0.0, 0.25, 1.0, 3.5])
        out = _evolve(h, psi, times)
        assert out.shape == (4, 24)
        for t, state in zip(times, out):
            assert np.max(np.abs(state - expm(-1j * t * h) @ psi)) < 1e-12

    def test_identity_gives_the_matrix_exponential(self):
        h = self.hermitian(4)
        for t in (0.3, -1.2):
            u = _evolve(h, np.eye(24), [t])
            assert u.shape == (1, 24, 24)
            assert np.max(np.abs(u[0] - expm(-1j * t * h))) < 1e-12
