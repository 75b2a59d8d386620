"""Truncated qubit/oscillator basis, displacement elements and the dense
Hermitian exponential of the oracles and the split-product defect.

Basis convention: spin index 0 is down, 1 is up.  States are enumerated
spins-major, phonon-minor, so the flat index of |s_1 .. s_k, n> is
(spin configuration as a binary number, ion 1 most significant) * N + n
for Fock cutoff N.  The operators built here are dense complex ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laguerre import _ladder

__all__ = [
    "ConvergenceError",
    "BasisState",
    "TruncatedBasis",
    "displacement_exact",
    "displacement_element",
]

SPIN_DOWN = 0
SPIN_UP = 1
_SPIN_CHARS = {SPIN_DOWN: "d", SPIN_UP: "u"}


class ConvergenceError(RuntimeError):
    """A brute-force computation failed to reach its stated tolerance."""


@dataclass(frozen=True)
class BasisState:
    """One labeled eigenstate |s_1 .. s_k, n> of the uncoupled system."""

    spins: tuple[int, ...]
    phonon: int

    def __post_init__(self):
        if any(s not in (SPIN_DOWN, SPIN_UP) for s in self.spins):
            raise ValueError(f"spin labels must be 0 (down) or 1 (up), got {self.spins}")
        if self.phonon < 0:
            raise ValueError(f"phonon number must be nonnegative, got {self.phonon}")

    def spin_label(self) -> str:
        return "".join(_SPIN_CHARS[s] for s in self.spins)

    def __str__(self) -> str:
        return f"|{self.spin_label()},{self.phonon}>"


@dataclass(frozen=True)
class TruncatedBasis:
    """Deterministic enumeration of a 1- or 2-ion basis with Fock cutoff N."""

    ion_count: int
    fock_cutoff: int

    def __post_init__(self):
        if self.ion_count not in (1, 2):
            raise ValueError(f"ion_count must be 1 or 2, got {self.ion_count}")
        if self.fock_cutoff < 1:
            raise ValueError(f"fock_cutoff must be positive, got {self.fock_cutoff}")

    @property
    def dimension(self) -> int:
        return 2**self.ion_count * self.fock_cutoff

    def index(self, state: BasisState) -> int:
        if len(state.spins) != self.ion_count:
            raise ValueError(f"state has {len(state.spins)} spins, basis has {self.ion_count} ions")
        if state.phonon >= self.fock_cutoff:
            raise ValueError(f"phonon {state.phonon} outside cutoff {self.fock_cutoff}")
        spin_code = 0
        for s in state.spins:
            spin_code = 2 * spin_code + s
        return spin_code * self.fock_cutoff + state.phonon

    def state(self, index: int) -> BasisState:
        if not 0 <= index < self.dimension:
            raise ValueError(f"index {index} outside basis of dimension {self.dimension}")
        spin_code, phonon = divmod(index, self.fock_cutoff)
        spins = tuple((spin_code >> (self.ion_count - 1 - i)) & 1 for i in range(self.ion_count))
        return BasisState(spins=spins, phonon=phonon)

    def spin_parity(self, indices) -> np.ndarray:
        """0 (even) or 1 (odd) per basis index: its number of spins up, mod 2."""
        parity = np.array([bin(s).count("1") % 2 for s in range(2**self.ion_count)])
        return parity[np.asarray(indices, dtype=np.intp) // self.fock_cutoff]

    def states(self):
        return (self.state(i) for i in range(self.dimension))

    def vector(self, state: BasisState) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        vec[self.index(state)] = 1.0
        return vec


def _evolve(h: np.ndarray, psi: np.ndarray, times) -> np.ndarray:
    """exp(-i h t) psi for each t in `times`, via one eigendecomposition of
    the Hermitian h.

    psi is a state (d,) or a matrix (d, k); the results are stacked along
    a new leading axis, one per time.  The identity as psi gives the
    matrix exponential itself.  A stack h (S, d, d), one time t and a state
    psi give exp(-i h[S-1] t) ... exp(-i h[0] t) psi (1, d), one eigensolve.
    """
    w, v = np.linalg.eigh(h)
    if h.ndim == 3:
        for phases, v_s in zip(np.exp(-1j * np.multiply.outer(times, w))[0], v):
            psi = (phases * (v_s.conj().T @ psi)) @ v_s.T
        return psi[None]
    coeff = v.conj().T @ psi
    phases = np.exp(-1j * np.outer(times, w))
    if coeff.ndim == 1:
        return (phases * coeff) @ v.T
    return v @ (phases[:, :, None] * coeff)


def _displacement_block(eta: float, fock_cutoff: int, pad: int) -> np.ndarray:
    m = max(fock_cutoff + pad, 2)
    a = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    u = _evolve(eta * (a + a.T), np.eye(m), [-1.0])[0]
    return u[:fock_cutoff, :fock_cutoff]


def displacement_exact(eta: float, fock_cutoff: int) -> np.ndarray:
    """exp(i eta (a + a_dag)) restricted to the lowest fock_cutoff levels.

    Brute-force oracle: diagonalizes in an enlarged space of fock_cutoff
    + pad levels and keeps the top-left block, growing the pad from 10
    until a further increase of 10 levels moves no entry by more than
    1e-12.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    pad = 10
    block = _displacement_block(eta, fock_cutoff, pad)
    while True:
        bigger = _displacement_block(eta, fock_cutoff, pad + 10)
        if np.max(np.abs(bigger - block)) <= 1e-12:
            return bigger
        pad += 10
        block = bigger
        if pad > 200:
            raise ConvergenceError(
                f"displacement block not pad-converged by pad=200 (eta={eta}, cutoff={fock_cutoff})"
            )


def _manifold(dn: int, eta: float, count: int, first: int = 0) -> np.ndarray:
    """<n+dn| exp(i eta (a + a_dag)) |n> = <n| ... |n+dn> for n = first .. count-1: the closed
    form i^dn exp(-eta^2/2) sqrt(n!/(n+dn)!) eta^dn L_n^dn(eta^2) from one Laguerre pass,
    the factorial ratio a running product over those n alone, each entry the same bits
    whatever `first`; eta**dn past double precision raises OverflowError."""
    ratio = np.ones(count - first)
    for k in range(1, dn + 1):
        ratio /= np.sqrt(np.arange(first + k, count + k))
    lag = np.fromiter(_ladder(dn, eta**2), float, count)[first:]
    # i^dn from a table: 1j**dn is exact only up to dn = 100
    return (1 + 0j, 1j, -1 + 0j, -1j)[dn % 4] * (np.exp(-0.5 * eta**2) * ratio * eta**dn * lag)


def displacement_element(n_to: int, n_from: int, eta: float) -> complex:
    """Single matrix element <n_to| exp(i eta (a + a_dag)) |n_from>, or OverflowError."""
    if n_to < 0 or n_from < 0:
        raise ValueError("phonon numbers must be nonnegative")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    with np.errstate(over="ignore", invalid="ignore"):
        n = min(n_to, n_from)
        value = complex(_manifold(abs(n_to - n_from), eta, n + 1, n)[0])
    if not np.isfinite(value):
        raise OverflowError(f"<{n_to}|D|{n_from}> at eta={eta} overflows double precision")
    return value
