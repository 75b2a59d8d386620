"""Truncated qubit/oscillator basis, displacement elements and the Hermitian
exponential the other modules propagate with.

Basis convention: spin index 0 is down, 1 is up.  States are enumerated
spins-major, phonon-minor, so the flat index of |s_1 .. s_k, n> is
(spin configuration as a binary number, ion 1 most significant) * N + n
for Fock cutoff N.  All operators are dense complex ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laguerre import laguerre

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
    matrix exponential itself.
    """
    w, v = np.linalg.eigh(h)
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


def displacement_element(n_to: int, n_from: int, eta: float) -> complex:
    """Single matrix element <n_to| exp(i eta (a + a_dag)) |n_from>.

    Closed form i^|dn| exp(-eta^2/2) sqrt(n_<!/n_>!) eta^|dn|
    L_{n_<}^{|dn|}(eta^2); the factorial ratio is accumulated as a
    running product so large quantum numbers do not overflow.
    """
    if n_to < 0 or n_from < 0:
        raise ValueError("phonon numbers must be nonnegative")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    dn = abs(n_to - n_from)
    n_lo = min(n_to, n_from)
    ratio = 1.0
    for k in range(n_lo + 1, n_lo + dn + 1):
        ratio /= np.sqrt(k)
    mag = np.exp(-0.5 * eta**2) * ratio * eta**dn * laguerre(n_lo, dn, eta**2)
    return complex(1j**dn * mag)
