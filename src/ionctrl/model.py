"""Trap/ion/field configuration and the resonant rotating-frame Hamiltonians.

Each resonant color (carrier, first blue or first red sideband on one
ion) contributes only its resonant manifold of couplings; the dropped
off-resonant cross terms oscillate at multiples of the mode frequency
and are kept in the time-dependent oracle in `dynamics` so the
approximation stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import TruncatedBasis, displacement_element

__all__ = [
    "SIDEBANDS",
    "PHONON_SHIFT",
    "TrapConfig",
    "IonConfig",
    "FieldColor",
    "SystemModel",
    "ldl_coupling",
    "coupling_strength",
    "control_raising",
    "build_drift",
    "build_control",
]

SIDEBANDS = ("carrier", "blue", "red")

# phonon change of the resonant manifold for each sideband
PHONON_SHIFT = {"carrier": 0, "blue": +1, "red": -1}


@dataclass(frozen=True)
class TrapConfig:
    """Single active motional mode: frequency, Lamb-Dicke parameter and
    per-ion participation factors (equal magnitude for two ions of the
    same mass, the only multi-ion case in scope)."""

    mode_freq: float
    lamb_dicke: float
    mode_weights: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not 0 < self.mode_freq < np.inf:
            raise ValueError(f"mode_freq must be positive and finite, got {self.mode_freq}")
        if not 0 <= self.lamb_dicke < np.inf:
            raise ValueError(f"lamb_dicke must be nonnegative and finite, got {self.lamb_dicke}")
        if len(self.mode_weights) not in (1, 2):
            raise ValueError("mode_weights must list 1 or 2 ions")
        if not all(-np.inf < w < np.inf for w in self.mode_weights):
            raise ValueError(f"mode_weights must be finite, got {self.mode_weights}")
        mags = [abs(w) for w in self.mode_weights]
        if max(mags) - min(mags) > 1e-12:
            raise ValueError("mode_weights must have equal magnitude across ions")
        eta = max(mags) * self.lamb_dicke
        # a multiplication, not **: a float square that overflows raises
        if not eta * eta < np.inf:
            raise ValueError(
                f"lamb_dicke times the mode weight must have a finite square, got {self.lamb_dicke}"
            )


@dataclass(frozen=True)
class IonConfig:
    qubit_splitting: float = 1.0
    individually_addressable: bool = True

    def __post_init__(self):
        if not 0 < self.qubit_splitting < np.inf:
            raise ValueError(
                f"qubit_splitting must be positive and finite, got {self.qubit_splitting}"
            )


@dataclass(frozen=True)
class FieldColor:
    """One resonant color: target ion, sideband kind, Rabi amplitude and
    phase."""

    target_ion: int
    sideband: str
    rabi: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.sideband not in SIDEBANDS:
            raise ValueError(f"sideband must be one of {SIDEBANDS}, got {self.sideband!r}")
        if self.target_ion < 0:
            raise ValueError(f"target_ion must be nonnegative, got {self.target_ion}")
        if not 0 <= self.rabi < np.inf:
            raise ValueError(f"rabi must be nonnegative and finite, got {self.rabi}")
        if not -np.inf < self.phase < np.inf:
            raise ValueError(f"phase must be finite, got {self.phase}")


@dataclass(frozen=True)
class SystemModel:
    trap: TrapConfig
    ions: tuple[IonConfig, ...]
    basis: TruncatedBasis
    ldl: bool = False

    def __post_init__(self):
        if len(self.ions) != self.basis.ion_count:
            raise ValueError(
                f"{len(self.ions)} ion configs for a {self.basis.ion_count}-ion basis"
            )
        if len(self.trap.mode_weights) != len(self.ions):
            raise ValueError("mode_weights length must match ion count")

    def effective_eta(self, ion: int) -> float:
        """Lamb-Dicke parameter seen by one ion (participation included)."""
        return abs(self.trap.mode_weights[ion]) * self.trap.lamb_dicke

    def check_color(self, color: FieldColor) -> None:
        if not 0 <= color.target_ion < len(self.ions):
            raise ValueError(f"color targets ion {color.target_ion}, model has {len(self.ions)}")


def ldl_coupling(n: int, sideband: str, eta: float) -> float:
    """First-order coupling of one rung: carrier 1, blue eta sqrt(n+1),
    red eta sqrt(n)."""
    if n < 0:
        raise ValueError(f"phonon number must be nonnegative, got {n}")
    if sideband == "carrier":
        return 1.0
    if sideband == "blue":
        return eta * np.sqrt(n + 1.0)
    if sideband == "red":
        return eta * np.sqrt(float(n))
    raise ValueError(f"unknown sideband {sideband!r}")


# sideband of each resonant manifold, by its phonon shift
_SIDEBAND_OF_SHIFT = {shift: name for name, shift in PHONON_SHIFT.items()}


def _pair_coupling(model: SystemModel, ion: int, n: int, dn: int) -> complex:
    """<..up.., n+dn| K |..down.., n> of one ion: the exact displacement
    element, or in LDL models the first-order coupling with the same
    i^|dn| phase, so the LDL model and the time-dependent oracle share
    their resonant term."""
    eta = model.effective_eta(ion)
    if model.ldl:
        return 1j ** abs(dn) * ldl_coupling(n, _SIDEBAND_OF_SHIFT[dn], eta)
    return displacement_element(n + dn, n, eta)


def coupling_strength(model: SystemModel, color: FieldColor, n: int) -> complex:
    """Coupling of the resonant pair starting at |down, n> for one color.

    Carrier pairs (down,n)<->(up,n), blue (down,n)<->(up,n+1), red
    (down,n)<->(up,n-1).  Returns 0 for a red pair at n = 0.  LDL models
    use the first-order real couplings; otherwise the exact complex
    displacement matrix element.
    """
    model.check_color(color)
    shift = PHONON_SHIFT[color.sideband]
    if n + shift < 0:
        return 0.0
    return complex(_pair_coupling(model, color.target_ion, n, shift))


@lru_cache(maxsize=128)
def _raising(model: SystemModel, ion: int, dn: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raising operator of the manifold |..down.., n> -> |..up.., n+dn> of
    one ion as index maps K[upper, lower] = value in the coupling_strength
    convention, lower ascending; cached, the arrays read-only."""
    n_levels = model.basis.fock_cutoff
    flip = 1 << (model.basis.ion_count - 1 - ion)
    spins, phonon = divmod(np.arange(model.basis.dimension), n_levels)
    lower = np.flatnonzero((spins & flip == 0) & (0 <= phonon + dn) & (phonon + dn < n_levels))
    first = max(0, -dn)
    rungs = [_pair_coupling(model, ion, n, dn) for n in range(first, min(n_levels, n_levels - dn))]
    maps = (lower + flip * n_levels + dn, lower, np.array(rungs, dtype=complex)[phonon[lower] - first])
    for a in maps:
        a.setflags(write=False)
    return maps


def _generators(model: SystemModel, colors, indices=None):
    """Each color's unit-Rabi raising half, then the drift (mode frequency
    times phonon number), as dense matrices on the ascending basis
    `indices` (every index when None), scattered from the index maps;
    entries with an end outside `indices` are dropped.  A generator, so a
    caller that takes only the first matrix builds no other."""
    d = model.basis.dimension
    size, where = d, None
    if indices is not None:
        size, where = len(indices), np.full(d, -1)
        where[indices] = np.arange(size)

    def scatter(upper, lower, value):
        if where is not None:
            upper, lower = where[upper], where[lower]
            keep = (upper >= 0) & (lower >= 0)
            upper, lower, value = upper[keep], lower[keep], value[keep]
        k = np.zeros((size, size), dtype=complex)
        k[upper, lower] = value
        return k

    for color in colors:
        model.check_color(color)
        yield scatter(*_raising(model, color.target_ion, PHONON_SHIFT[color.sideband]))
    every = np.arange(d)
    yield scatter(every, every, model.trap.mode_freq * (every % model.basis.fock_cutoff))


def control_raising(model: SystemModel, color: FieldColor) -> np.ndarray:
    """Raising half of one color's control operator at unit Rabi.

    Entry <..up.., n+shift | K | ..down.., n> is the pair coupling; the
    target ion's spin flips up, other spins are untouched.  The full
    Hermitian control is K + K_dag; amplitude and phase enter as
    rabi * (e^{i phase} K + h.c.) when a schedule is realized.  Each call
    returns a new dense array, scattered from the cached index maps.
    """
    return next(_generators(model, (color,)))


def build_drift(model: SystemModel) -> np.ndarray:
    """Field-free Hamiltonian: mode frequency times phonon number,
    repeated over every spin sector."""
    return next(_generators(model, ()))


def build_control(model: SystemModel, color: FieldColor) -> np.ndarray:
    """Hermitian coupling matrix of one color at unit Rabi, zero phase."""
    k = control_raising(model, color)
    return k + k.conj().T
