"""Dynamical Lie algebra generation and controllability verdicts.

The algebra spanned by i*drift, i*controls and their iterated
commutators decides whether a finite system is controllable: saturation
at dimension >= d^2 - 1 (all of su(d) up to a global phase) means every
unitary on the space is reachable.  Growth of the dimension with the
Fock cutoff is the numerical signature of an algebra that does not
close on the untruncated ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PHONON_SHIFT, FieldColor, SIDEBANDS, SystemModel, coupling_strength

__all__ = [
    "LieAlgebraResult",
    "SweepTooLargeError",
    "dynamical_lie_algebra",
    "controllability_verdict",
    "TransitionCoupling",
    "DegenerateGroup",
    "degeneracy_report",
]

# peak memory a sweep may allocate, as counted by _sweep_bytes
_MAX_SWEEP_BYTES = 1 << 30


class SweepTooLargeError(ValueError):
    """The sweep's peak memory would exceed the module's limit."""


@dataclass(frozen=True)
class LieAlgebraResult:
    basis: np.ndarray  # (dimension, d, d) stacked skew-Hermitian, trace-orthonormal
    dimension: int
    saturated: bool
    generations: int
    history: tuple[tuple[int, int, int], ...]  # (generation, new_directions, cumulative)


def _check_hermitian(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10 * scale:
        raise ValueError(f"{name} must be Hermitian")
    return mat


def _real_coordinates(d: int):
    """(pack, unpack) for r(X) = [sqrt2*Re X_jk, sqrt2*Im X_jk for j<k, Im X_jj].

    For skew-Hermitian X and Y, r(X) . r(Y) = Re tr(X^H Y).  `pack` maps
    a stack of d x d matrices to the (n, d^2) coordinates of their
    skew-Hermitian parts; `unpack(v, out)` writes the skew-Hermitian
    matrix with coordinates v into the d x d array `out`.
    """
    rows, cols = np.triu_indices(d, 1)
    upper, lower = rows * d + cols, cols * d + rows
    diag = np.arange(d) * (d + 1)
    n_off = upper.size
    half = np.sqrt(0.5)
    # r of the skew part, read off the interleaved (re, im) float view f
    # of X as f[a] * wa + f[b] * wb
    a = np.concatenate([2 * upper, 2 * upper + 1, 2 * diag + 1])
    b = np.concatenate([2 * lower, 2 * lower + 1, 2 * diag + 1])
    wa = np.concatenate([np.full(2 * n_off, half), np.full(d, 0.5)])
    wb = np.concatenate([np.full(n_off, -half), np.full(n_off, half), np.full(d, 0.5)])

    def pack(mats: np.ndarray) -> np.ndarray:
        f = mats.reshape(-1, d * d).view(float)
        return f[:, a] * wa + f[:, b] * wb

    def unpack(v: np.ndarray, out: np.ndarray) -> None:
        off = (v[:n_off] + 1j * v[n_off : 2 * n_off]) * half
        x = out.reshape(d * d)
        x[upper] = off
        x[lower] = -off.conj()
        x[diag] = 1j * v[2 * n_off :]

    return pack, unpack


def _sweep_bytes(cap: int, d: int) -> int:
    """Peak bytes of a sweep over cap elements of dimension d.

    The real and the complex basis buffers take 24 * cap * d^2.  On top
    of them comes the larger of the last element's commutator batch
    (i = cap - 1: the complex (i*d, d) product and the three real
    (i, d^2) temporaries `pack` holds at once, together 40 * i * d^2;
    inserting holds the batch and at most three more (i, d^2) arrays;
    each element's arrays are released before the next) and the basis
    copy returned by a sweep that stops below cap (16 * cap * d^2).

    The complement phase fits under the batch term.  It starts once
    c > 8n/9 of the n = d^2 directions are found, c <= cap - 1, so
    n < 9 (cap - 1) / 8 and r = n - c < n/9.  Its QR holds two real
    (n, c) and two (n, n) arrays (the copy it factors, R, and Q's LAPACK
    buffer and result), 8n(2c + 2n) < 34 (cap - 1) d^2 bytes.  Then each
    element holds the complex complement and its product with X_i, two
    real arrays of at most r * d^2 entries and r survivors at a time:
    88 r d^2 < 11 (cap - 1) d^2.
    """
    return d * d * (24 * cap + max(40 * (cap - 1), 16 * cap))


def dynamical_lie_algebra(
    drift: np.ndarray,
    controls,
    tol: float | None = None,
    max_dim: int | None = None,
) -> LieAlgebraResult:
    """Orthonormal basis of the algebra generated by i*drift and i*controls.

    Gram-Schmidt under the trace inner product with a re-orthogonalization
    pass per insertion; commutator sweeps pair each newly found element
    with everything found so far and stop when a full sweep adds nothing
    (saturated) or the dimension reaches max_dim.  Reaching d^2, the
    dimension of all skew-Hermitian matrices, is genuine saturation (no
    further direction exists); stopping at a smaller cap is reported as
    unsaturated growth.

    Projections run on d^2 real coordinates per element,
    r(X) = [sqrt2*Re X_jk, sqrt2*Im X_jk for j<k, Im X_jj], which carry
    the trace inner product Re tr(X^H Y) as a dot product, so `tol`
    bounds the same Frobenius norm; the complex matrices are kept only
    to form commutators and to return the basis.  An element's
    commutators are projected against the basis as one block; those
    whose residual exceeds `tol` are projected once more, then
    orthogonalized one by one against the rows that block has already
    inserted.

    Once the basis holds more than 8/9 of all d^2 directions, one QR
    gives orthonormal rows C_r spanning its complement, and element i
    finds the residuals of all its commutators [X_j, X_i] with two
    products: Re tr(C_r^H [X_j, X_i]) = -2 Re tr((C_r X_i)^H X_j), less
    the directions inserted since the QR.  Only the commutators whose
    residual exceeds `tol` are then formed, r at a time.  Each generation's
    dimension, dim(S + [S, S]) of the previous span S, does not depend on
    the basis, so the history is the same as with the plain residual filter.

    For cap = min(max_dim, d^2) elements the sweep, complement phase
    included, peaks at about d^2 * (24 * cap + max(40 * (cap - 1), 16 *
    cap)) bytes; a sweep that would need more than 1 GiB raises
    SweepTooLargeError (a ValueError) before allocating; max_dim bounds it.
    """
    mats = [_check_hermitian(drift, "drift")]
    mats += [_check_hermitian(c, f"control {i}") for i, c in enumerate(controls)]
    d = mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise ValueError("drift and controls must share one dimension")
    full = d * d
    if max_dim is not None and (
        isinstance(max_dim, (bool, np.bool_)) or not 1 <= max_dim < np.inf or max_dim != int(max_dim)
    ):
        raise ValueError(f"max_dim must be a positive integer, got {max_dim!r}")
    cap = full if max_dim is None else min(int(max_dim), full)
    needed = _sweep_bytes(cap, d)
    if needed > _MAX_SWEEP_BYTES:
        raise SweepTooLargeError(
            f"a sweep over {cap} elements of dimension {d} needs about "
            f"{needed / 2**20:.0f} MiB, above the "
            f"{_MAX_SWEEP_BYTES / 2**20:.0f} MiB limit; set max_dim to bound it"
        )
    seeds = np.array([1j * m for m in mats])
    scale = max(np.linalg.norm(s) for s in seeds)
    if scale == 0.0:
        raise ValueError("all generators are zero")
    if tol is None:
        tol = 1e-8 * scale
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")

    pack, unpack = _real_coordinates(d)
    coords = np.zeros((cap, full))
    stacked = np.zeros((cap, d, d), dtype=complex)
    flat = stacked.reshape(cap, -1).view(float)  # carries Re tr(X^H Y) as a dot product
    count = 0

    def insert(block: np.ndarray) -> None:
        nonlocal count
        start = count
        block = block - (block @ coords[:start].T) @ coords[:start]
        block = block[np.linalg.norm(block, axis=1) > tol]
        block = block - (block @ coords[:start].T) @ coords[:start]
        for v in block:
            if count >= cap:
                break
            for _ in range(2):
                v = v - (coords[start:count] @ v) @ coords[start:count]
            norm = np.linalg.norm(v)
            if norm > tol:
                coords[count] = v / norm
                unpack(coords[count], stacked[count])
                count += 1

    # pack keeps only the skew-Hermitian part, so roundoff in the
    # generators never leaks a Hermitian part into the basis
    insert(pack(seeds))
    history = [(0, count, count)]

    generations = 0
    saturated = count >= full
    gen_start = 0
    comp = None
    while count < cap:
        generations += 1
        prev_count = count
        for i in range(max(gen_start, 1), prev_count):
            if count >= cap:
                break
            if comp is None and 8 * (full - count) < count:
                # from here on, test commutators against orthonormal rows
                # spanning the basis's complement, which is the smaller
                qr_count, r = count, full - count
                q = np.linalg.qr(coords[:count].T, mode="complete")[0]
                comp = np.zeros((r, d, d), dtype=complex)
                for c, m in zip(q[:, count:].T, comp):
                    unpack(c, m)
                del q
            if comp is None:
                # elements are exactly skew-Hermitian, so x P = (P x)^H and the
                # commutator P x - x P is twice the skew part of P x
                insert(2 * pack(stacked[:i].reshape(i * d, d) @ stacked[i]))
            else:
                # Re tr(C^H [X_j, X_i]) = -2 Re tr((C X_i)^H X_j) for skew-Hermitian
                # C and X; then drop the parts along rows inserted since the QR
                prod = (comp.reshape(-1, d) @ stacked[i]).reshape(r, -1).view(float)
                parts = -2 * prod @ flat[:i].T
                since = flat[qr_count:count] @ comp.reshape(r, -1).view(float).T
                parts -= since.T @ (since @ parts)
                rows = np.flatnonzero(np.linalg.norm(parts, axis=0) > tol)
                for j in range(0, len(rows), r):
                    insert(2 * pack(stacked[rows[j : j + r]].reshape(-1, d) @ stacked[i]))
        added = count - prev_count
        history.append((generations, added, count))
        if added == 0:
            saturated = True
            break
        gen_start = prev_count
    if count >= cap:
        saturated = saturated or (count >= full)

    return LieAlgebraResult(
        basis=stacked if count == cap else stacked[:count].copy(),
        dimension=count,
        saturated=bool(saturated),
        generations=generations,
        history=tuple(history),
    )


def controllability_verdict(result: LieAlgebraResult, space_dim: int) -> str:
    """'controllable' iff saturated with dimension >= space_dim^2 - 1
    (su(N) up to global phase), 'uncontrollable' iff saturated below,
    'inconclusive' if the sweep never saturated."""
    if not result.saturated:
        return "inconclusive"
    if result.dimension >= space_dim * space_dim - 1:
        return "controllable"
    return "uncontrollable"


@dataclass(frozen=True)
class TransitionCoupling:
    ion: int
    sideband: str
    n_from: int
    n_to: int
    magnitude: float


@dataclass(frozen=True)
class DegenerateGroup:
    color_index: int
    frequency: float
    transitions: tuple[TransitionCoupling, ...]
    distinguishable: bool


def degeneracy_report(
    model: SystemModel,
    colors,
    tol: float = 1e-9,
) -> list[DegenerateGroup]:
    """Transitions driven at one resonance frequency, per color.

    Individually addressed colors drive only their target ion; under
    uniform illumination every ion whose transition frequency matches
    the field is driven.  A degenerate group is distinguishable iff its
    coupling magnitudes are pairwise unequal beyond `tol`: equal-strength
    degenerate transitions cannot be steered apart by that color.
    """
    omega_m = model.trap.mode_freq
    report = []
    for ci, color in enumerate(colors):
        model.check_color(color)
        freq = model.ions[color.target_ion].qubit_splitting + PHONON_SHIFT[color.sideband] * omega_m
        transitions = []
        for ion_index, ion in enumerate(model.ions):
            if model.ions[color.target_ion].individually_addressable and ion_index != color.target_ion:
                continue
            for sideband in SIDEBANDS:
                shift = PHONON_SHIFT[sideband]
                if abs(ion.qubit_splitting + shift * omega_m - freq) > 1e-9:
                    continue
                probe = FieldColor(target_ion=ion_index, sideband=sideband)
                for n in range(model.basis.fock_cutoff):
                    if not 0 <= n + shift < model.basis.fock_cutoff:
                        continue
                    mag = abs(coupling_strength(model, probe, n))
                    if mag < 1e-12:
                        continue
                    transitions.append(
                        TransitionCoupling(
                            ion=ion_index,
                            sideband=sideband,
                            n_from=n,
                            n_to=n + shift,
                            magnitude=float(mag),
                        )
                    )
        mags = [t.magnitude for t in transitions]
        distinguishable = all(
            abs(mags[i] - mags[j]) > tol for i in range(len(mags)) for j in range(i + 1, len(mags))
        )
        report.append(
            DegenerateGroup(
                color_index=ci,
                frequency=float(freq),
                transitions=tuple(transitions),
                distinguishable=distinguishable,
            )
        )
    return report
