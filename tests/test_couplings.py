"""Every ladder coupling the package computes from its manifold kernel
equals, bit for bit, the scalar closed form of `coupling_reference`: the
Laguerre values, the displacement elements, the raising index maps, the
pair couplings, the LDL couplings and the matelem rows.  Values are compared as uint64 words, so signed zeros count."""

from functools import lru_cache

import numpy as np
import pytest

import coupling_reference as ref
from ionctrl import (
    FieldColor,
    IonConfig,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    coupling_strength,
    displacement_element,
    laguerre,
    laguerre_zeros,
    ldl_coupling,
)
from ionctrl.cli import run_matelem
from ionctrl.model import PHONON_SHIFT, SIDEBANDS, _raising
from ionctrl.scenario import parse_scenario

# 0, the three reference truncation points, and 14 seeded draws in [0, 3]
ETAS = [0.0] + [float(np.sqrt(laguerre_zeros(n, a)[0])) for n, a in ((6, 1), (5, 0), (4, 0))]
ETAS += np.random.default_rng(2024).uniform(0.0, 3.0, 14).tolist()


@lru_cache(maxsize=None)
def reference_block(eta):
    """The 60 x 60 block [n_to, n_from] of the scalar closed form."""
    return np.array([[ref.element(i, j, eta) for j in range(60)] for i in range(60)])


def make_model(ions, eta, cutoff, ldl):
    return SystemModel(
        trap=TrapConfig(mode_freq=1.0, lamb_dicke=eta, mode_weights=(1.0,) * ions),
        ions=(IonConfig(),) * ions,
        basis=TruncatedBasis(ion_count=ions, fock_cutoff=cutoff),
        ldl=ldl,
    )


def test_laguerre_is_the_scalar_recurrence():
    xs = np.array(ETAS) ** 2
    for alpha in range(6):
        for n in range(41):
            expected = [ref.laguerre(n, alpha, x) for x in xs]
            assert ref.bits([laguerre(n, alpha, x) for x in xs]).tolist() == ref.bits(expected).tolist()
            assert ref.bits(laguerre(n, alpha, xs)).tolist() == ref.bits(expected).tolist()


@pytest.mark.parametrize("eta", ETAS)
def test_displacement_element_every_delta(eta):
    """All 119 phonon differences of the 60 x 60 block."""
    got = [[displacement_element(i, j, eta) for j in range(60)] for i in range(60)]
    assert ref.bits(got).tolist() == ref.bits(reference_block(eta)).tolist()


@pytest.mark.parametrize("ldl", [False, True])
@pytest.mark.parametrize("ions, cutoff", [(1, 60), (2, 12)])
def test_raising_values(ions, cutoff, ldl):
    """Every manifold the oracle reads: all dn of an exact model, the
    first-order ones of an LDL model."""
    dns = (-1, 0, 1) if ldl else range(1 - cutoff, cutoff)
    for eta in ETAS:
        model = make_model(ions, eta, cutoff, ldl)
        for ion in range(ions):
            for dn in dns:
                _, lower, value = _raising(model, ion, dn)
                phonon = lower % cutoff
                if ldl:
                    expected = [ref.pair_coupling(ldl, eta, int(n), dn) for n in phonon]
                else:
                    expected = reference_block(eta)[phonon + dn, phonon]
                assert ref.bits(value).tolist() == ref.bits(np.array(expected, dtype=complex)).tolist()


@pytest.mark.parametrize("ldl", [False, True])
@pytest.mark.parametrize("ions, cutoff", [(1, 60), (2, 12)])
def test_coupling_strength(ions, cutoff, ldl):
    for eta in ETAS:
        model = make_model(ions, eta, cutoff, ldl)
        for ion in range(ions):
            for sideband, dn in PHONON_SHIFT.items():
                color = FieldColor(ion, sideband)
                got = [coupling_strength(model, color, n) for n in range(cutoff + 1)]
                assert all(type(g) is complex for g in got)
                expected = [
                    0j if n + dn < 0 else ref.pair_coupling(ldl, eta, n, dn) for n in range(cutoff + 1)
                ]
                assert ref.bits(got).tolist() == ref.bits(expected).tolist()


def test_ldl_coupling_on_an_array_of_rungs():
    n = np.arange(60)
    for eta in ETAS:
        for sideband in SIDEBANDS:
            expected = [ref.ldl_rung(int(k), sideband, eta) for k in n]
            assert ref.bits(ldl_coupling(n, sideband, eta)).tolist() == ref.bits(expected).tolist()
            scalar = ldl_coupling(7, sideband, eta)
            assert type(scalar) is float
            assert ref.bits([scalar]).tolist() == ref.bits([expected[7]]).tolist()
    with pytest.raises(ValueError, match="nonnegative"):
        ldl_coupling(np.array([0, -1]), "blue", 0.1)


@pytest.mark.parametrize("eta", ETAS[:6])
def test_matelem_rows(eta):
    scenario = parse_scenario(
        f"model: {{ions: 1, lamb_dicke: {eta!r}, cutoff: 60}}\ntask: {{kind: matelem}}\n"
    )
    ((suffix, columns, rows, extras),) = run_matelem(scenario)
    assert [(r[0], r[1]) for r in rows] == [(i, j) for i in range(60) for j in range(60)]
    got = [(r[2], r[3], r[4]) for r in rows]
    want = [(e.real, e.imag, abs(e)) for e in reference_block(eta).ravel().tolist()]
    assert ref.bits(got).tolist() == ref.bits(want).tolist()

