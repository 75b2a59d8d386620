"""Dynamical Lie algebra generation and controllability verdicts.

The algebra spanned by i*drift, i*controls and their iterated
commutators decides whether a finite system is controllable: saturation
at dimension >= d^2 - 1 (all of su(d) up to a global phase) means every
unitary on the space is reachable.  Growth of the dimension with the
Fock cutoff is the numerical signature of an algebra that does not
close on the untruncated ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import _traverse

__all__ = [
    "LieAlgebraResult",
    "SweepTooLargeError",
    "dynamical_lie_algebra",
    "controllability_verdict",
]

# peak memory a sweep may allocate, as counted by _sweep_bytes
_MAX_SWEEP_BYTES = 1 << 30


class SweepTooLargeError(ValueError):
    """The sweep's peak memory would exceed the module's limit."""


@dataclass(frozen=True)
class LieAlgebraResult:
    """The sweep's history and its basis, held as the grade blocks it found:
    grade g's elements are `ps[g]` and `qs[g]`, (count_g, ...) blocks p and q
    on `sectors` (sorted state indices of a and b states), even diag(p, q)
    and odd [[0, p], [q, 0]]."""

    dimension: int
    saturated: bool
    generations: int
    history: tuple[tuple[int, int, int], ...]  # (generation, new_directions, cumulative)
    sectors: tuple[np.ndarray, np.ndarray]
    ps: tuple[np.ndarray, np.ndarray]
    qs: tuple[np.ndarray, np.ndarray]

    @cached_property
    def basis(self) -> np.ndarray:
        """(dimension, d, d) stacked skew-Hermitian, trace-orthonormal, in the
        caller's state order, even elements first; 16 dimension d^2 bytes,
        built on first read."""
        d = sum(map(len, self.sectors))
        basis, lo = np.zeros((self.dimension, d, d), dtype=complex), 0
        for g, (p, q) in enumerate(zip(self.ps, self.qs)):
            for x, (rows, cols) in zip((p, q), _places(self.sectors, g)):
                basis[lo : lo + len(x), rows[:, None], cols] = x
            lo += len(p)
        return basis


def _places(sectors, g: int):
    """The rows and columns of grade g's blocks p and q."""
    return (sectors[0], sectors[g]), (sectors[1], sectors[1 - g])


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
    a stack of d x d matrices (or of their d^2 entries) to the (n, d^2)
    coordinates of their skew-Hermitian parts; `unpack(v, out)` writes the
    skew-Hermitian matrices with coordinates v (a row or a stack) to `out`.
    """
    rows, cols = np.triu_indices(d, 1)
    upper, lower = rows * d + cols, cols * d + rows
    diag = np.arange(d) * (d + 1)
    n_off = upper.size
    half = np.sqrt(0.5)
    # r of the skew part, read off the interleaved (re, im) float view f of
    # X as f[a] * wa + f[b] * wb; f[a] = r * ua and f[b] = r * ub write it back
    a = np.concatenate([2 * upper, 2 * upper + 1, 2 * diag + 1])
    b = np.concatenate([2 * lower, 2 * lower + 1, 2 * diag + 1])
    wa = np.concatenate([np.full(2 * n_off, half), np.full(d, 0.5)])
    wb = np.concatenate([np.full(n_off, -half), np.full(n_off, half), np.full(d, 0.5)])
    ua, ub = (np.concatenate([w[: 2 * n_off], np.ones(d)]) for w in (wa, wb))

    def pack(mats: np.ndarray) -> np.ndarray:
        f = mats.reshape(len(mats), d * d).view(float)
        return f[:, a] * wa + f[:, b] * wb

    def unpack(v: np.ndarray, out: np.ndarray) -> None:
        f = out.reshape(*out.shape[:-2], d * d).view(float)
        f[..., 2 * diag] = 0.0
        f[..., a] = v * ua
        f[..., b] = v * ub

    return pack, unpack


def _grading(mats: list) -> tuple[tuple[np.ndarray, np.ndarray], list[int]]:
    """Sectors (sorted state indices) of a parity that grades the generators,
    and each generator's grade.  The states are coloured by the parity of
    their depth in a walk along every off-diagonal link (`graph._traverse`);
    where every link then crosses between the colours, a generator with no
    nonzero diagonal is odd and one with no nonzero off-diagonal entry (a
    diagonal drift) even.  A state with no link joins the smaller sector,
    sector 0 on a tie, in index order.  Any other generator set runs as
    one sector, every generator even."""
    d = len(mats[0])
    links = np.array([m != 0 for m in mats])
    diagonal = links[:, range(d), range(d)].any(axis=1)
    links[:, range(d), range(d)] = False
    joined = links.any(axis=0)
    joined |= joined.T
    colour = np.array(_traverse([np.flatnonzero(row).tolist() for row in joined])[1])
    lone = ~joined.any(axis=1)
    sizes = np.bincount(colour[~lone], minlength=2)
    for i in np.flatnonzero(lone):
        colour[i] = sizes[1] < sizes[0]
        sizes[colour[i]] += 1
    if (diagonal & links.any(axis=(1, 2))).any() or (joined & (colour[:, None] == colour)).any():
        return (np.arange(d), np.arange(0)), [0] * len(mats)
    return (np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)), [int(not g) for g in diagonal]


def _grade_coordinates(a: int, b: int):
    """(pack, unpack) per grade for elements held as blocks (p, q) on
    sectors of a and b states, even diag(p, q) and odd [[0, p], [q, 0]]
    with q = -p^H: `pack[g](u, v)` maps (m, entries) blocks to the real
    coordinates of the skew parts, r(p) and r(q) for even and sqrt2 * (Re
    p, Im p) for odd; `unpack[g](v, p, q)` writes the blocks back."""
    pack_a, unpack_a = _real_coordinates(a)
    pack_b, unpack_b = (pack_a, unpack_a) if b == a else _real_coordinates(b)
    half = np.sqrt(0.5)

    def pack_even(u, v):
        return np.concatenate((pack_a(u), pack_b(v)), axis=1)

    def unpack_even(v, p, q):
        unpack_a(v[..., : a * a], p)
        unpack_b(v[..., a * a :], q)

    def pack_odd(u, v):
        m = len(u)
        w = u.reshape(m, a, b) - v.reshape(m, b, a).conj().transpose(0, 2, 1)
        return w.reshape(m, a * b).view(float) * half

    def unpack_odd(v, p, q):
        p[...] = (v * half).view(complex).reshape(p.shape)
        q[...] = -p.conj().swapaxes(-1, -2)

    return (pack_even, pack_odd), (unpack_even, unpack_odd)


def _sweep_bytes(cap: int, a: int, b: int) -> int:
    """Peak bytes of a sweep over cap elements on sectors of a and b states.

    Grade g holds min(cap, n_g) elements of n_g = (a^2 + b^2, 2ab)[g] real
    coordinates, with their complex blocks 24 * S bytes, S = sum_g min(cap,
    n_g) n_g.  On top come the commutators in flight onto n <= max n_g
    coordinates, m <= min(cap - 1, max_g min(cap, n_g)) per element: a
    batch's products and three real (m, n) temporaries, 40 m n, beside
    < n/4 buffered rows, or a flush of < n/4 + m rows, their copy, the
    filtered block and one (rows, n) temporary, 32 (n/4 + m) n; 8 n (n +
    5 m) bounds both.  A grade's complement phase, from c > 8n/9 found,
    fits under it: its QR takes 8n(2c + 2n) < 34 c n, then r = n - c < n/9
    rows at a time 88 r n.  So do the trimmed copies of the blocks the
    sweep returns, under 32 n min(cap, n) together.  The dense basis, 16
    dimension d^2 bytes, is built only when the result's `basis` is read.
    """
    n = (a * a + b * b, 2 * a * b)
    caps = [min(cap, k) for k in n]
    store = sum(c * k for c, k in zip(caps, n))
    return 24 * store + 8 * max(n) * (max(n) + 5 * min(cap - 1, max(caps)))


def _sweep_cap(a: int, max_dim, b: int) -> int:
    """The number of elements a sweep on sectors of a and b states (d = a + b)
    may find, min(max_dim, d^2); raises ValueError for a max_dim that is
    not a positive integer, and SweepTooLargeError where _sweep_bytes
    exceeds the limit, so a caller can refuse before it builds any operator."""
    if max_dim is not None and (
        isinstance(max_dim, (bool, np.bool_)) or not 1 <= max_dim < np.inf or max_dim != int(max_dim)
    ):
        raise ValueError(f"max_dim must be a positive integer, got {max_dim!r}")
    d = a + b
    cap = d * d if max_dim is None else min(int(max_dim), d * d)
    needed = _sweep_bytes(cap, a, b)
    if needed > _MAX_SWEEP_BYTES:
        raise SweepTooLargeError(
            f"a sweep over {cap} elements of dimension {d} needs about "
            f"{needed / 2**20:.0f} MiB, above the "
            f"{_MAX_SWEEP_BYTES / 2**20:.0f} MiB limit; set max_dim to bound it"
        )
    return cap


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """np.linalg.norm(x, axis=axis) of a real x, bit for bit, without its copy of x.conj()."""
    return np.sqrt(np.add.reduce(x * x, axis))


def _times(p: np.ndarray, q: np.ndarray, g: int, x: np.ndarray, y: np.ndarray):
    """(m, entries) blocks of the products of grade-g (p, q) by (x, y)."""
    if g:
        x, y = y, x
    m = len(p)
    u = p.reshape(m * p.shape[1], p.shape[2]) @ x
    v = q.reshape(m * q.shape[1], q.shape[2]) @ y
    return u.reshape(m, -1), v.reshape(m, -1)


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
    (saturated) or the dimension reaches max_dim.  Reaching d^2, all
    skew-Hermitian matrices, is genuine saturation; stopping at a smaller
    cap is reported as unsaturated growth.

    Each generator is first scaled to unit Frobenius norm, which changes
    no span, so the rank decisions do not depend on the Hamiltonian's
    units: `tol` bounds the Frobenius norm of a residual against unit-norm
    elements, by default 1e-8 d (roundoff in a product of d x d matrices
    grows with d, as in the rank tolerance of numpy's `matrix_rank`).

    The sweep is graded by a parity it infers from the generators
    (`_grading`; the spin parity for a diagonal drift and controls that
    each flip one spin, one sector for a generator set whose off-diagonal
    links admit no 2-colouring or that mixes a diagonal with off-diagonal
    entries): each grade keeps its
    elements as two complex blocks and as real coordinates carrying
    Re tr(X^H Y).  Commutators are block products, buffered per grade and
    inserted as one batch once n_g/4 rows wait, before the grade's
    complement test and at each generation's end: projected against their
    own grade alone, those above `tol` once more, then by column-pivoted
    Gram-Schmidt, the largest downdated residual first, kept if its norm
    recomputed against the batch's new rows exceeds `tol`, and taken from
    the whole batch by a rank-1 update.
    Once a grade holds over 8/9 of its directions, one QR spans its
    complement by rows C_r, and the residuals of element i's commutators
    in it take two block products, Re tr(C_r^H [X_j, X_i]) = -2 Re
    tr((C_r X_i)^H X_j), less the directions inserted since.  Each
    generation's dimension, dim(S + [S, S]), depends on neither basis nor
    grading, so the history is the ungraded sweep's.  The result keeps the
    grade blocks, trimmed to the elements found; its dense `basis`,
    (dimension, d, d) in the caller's state order, is built when first
    read.  The peak stays within `_sweep_bytes(cap, a, b)` for cap =
    min(max_dim, d^2) on sectors of a and b states, 24 S + 8 n (n + 5 m)
    bytes for grades of n_g = a^2 + b^2 and 2ab coordinates (n = max n_g;
    S, m there): d^2 (24 cap + 8 d^2 + 40 (cap - 1)) for one sector, about
    72 d^4 for a full sweep, and 24 d^4 for a full sweep on two equal sectors.
    Above 1 GiB it raises SweepTooLargeError (a ValueError) once the
    grading is inferred, before it allocates.
    """
    mats = [_check_hermitian(drift, "drift")]
    mats += [_check_hermitian(c, f"control {i}") for i, c in enumerate(controls)]
    d = mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise ValueError("drift and controls must share one dimension")
    sectors, grades = _grading(mats)
    a, b = len(sectors[0]), len(sectors[1])
    cap = _sweep_cap(a, max_dim, b)
    norms = [np.linalg.norm(m) for m in mats]
    if max(norms) == 0.0:
        raise ValueError("all generators are zero")
    # unit-norm generators span the same algebra, whatever the Hamiltonian's units
    seeds = [1j * m / (k or 1.0) for m, k in zip(mats, norms)]
    if tol is None:
        tol = 1e-8 * d
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")

    pack, unpack = _grade_coordinates(a, b)
    n = (a * a + b * b, 2 * a * b)  # real coordinates of each grade
    caps = [min(cap, k) for k in n]
    shapes = (((a, a), (b, b)), ((a, b), (b, a)))
    coords = [np.zeros((c, k)) for c, k in zip(caps, n)]
    ps = [np.zeros((c, *s[0]), dtype=complex) for c, s in zip(caps, shapes)]
    qs = [np.zeros((c, *s[1]), dtype=complex) for c, s in zip(caps, shapes)]
    counts = [0, 0]  # elements found of each grade
    places = [_places(sectors, g) for g in (0, 1)]
    grade_of = np.zeros(cap, dtype=np.int8)  # of each element, in insertion order

    def insert(g: int, block: np.ndarray) -> None:
        e, start, count = coords[g], counts[g], sum(counts)
        block -= (block @ e[:start].T) @ e[:start]
        block = block[_norms(block, 1) > tol]
        if not len(block):
            return
        block -= (block @ e[:start].T) @ e[:start]
        # column-pivoted Gram-Schmidt: the largest downdated residual first,
        # accepted on its recomputed norm, as a downdate can cancel
        res = np.einsum("ij,ij->i", block, block)
        k, stop = start, min(caps[g], start + cap - count)
        while k < stop:
            i = res.argmax()
            if not res[i] > tol * tol:
                break
            v = block[i]
            if k > start:  # projecting on no rows would subtract zeros
                found = e[start:k]
                v = v - (v @ found.T) @ found
            # np.linalg.norm of a real vector, without its checks
            res[i], norm = 0.0, math.sqrt(v.dot(v))
            if norm > tol:
                row = e[k]
                np.divide(v, norm, out=row)
                w = block @ row
                block -= w[:, None] * row
                res -= w * w
                k += 1
        if k > start:
            unpack[g](e[start:k], ps[g][start:k], qs[g][start:k])
            grade_of[count : count + k - start], counts[g] = g, k

    pending = [[], []]  # direct-path commutator blocks of each grade, not yet inserted
    waiting = [0, 0]  # their rows

    def flush(g: int) -> None:
        if pending[g]:  # the pieces are released before the batch is inserted
            pending[g], waiting[g], block = [], 0, np.concatenate(pending[g])
            insert(g, block)

    # pack keeps only the skew-Hermitian part, so roundoff in the
    # generators never leaks a Hermitian part into the basis
    for seed, g in zip(seeds, grades):
        insert(g, pack[g](*(seed[np.ix_(*at)].reshape(1, -1) for at in places[g])))
    history = [(0, sum(counts), sum(counts))]

    gen_start, comp = 0, [None, None]
    while sum(counts) < cap:
        prev_count = sum(counts)
        # the grade-h elements among the first i are the first m[h] of grade h
        odd_before = np.cumsum(grade_of[:prev_count]) - grade_of[:prev_count]
        for i in range(max(gen_start, 1), prev_count):
            if sum(counts) >= cap:
                break
            gi = int(grade_of[i])
            m = (i - int(odd_before[i]), int(odd_before[i]))
            x, y = ps[gi][m[gi]], qs[gi][m[gi]]
            for h in (0, 1):
                r = h ^ gi  # the grade of [X_j, X_i] for X_j of grade h
                if m[h] == 0 or counts[r] >= caps[r]:
                    continue
                if comp[r] is None and 8 * (n[r] - counts[r]) < counts[r]:
                    # from here on, test against rows spanning the grade's smaller complement;
                    # counts[r] grows only in a flush of grade r, so none of its rows wait
                    q = np.linalg.qr(coords[r][: counts[r]].T, mode="complete")[0]
                    q = q[:, counts[r] :].T.copy()
                    cp, cq = (np.zeros((len(q), *s), dtype=complex) for s in shapes[r])
                    unpack[r](q, cp, cq)
                    comp[r] = (q, cp, cq, counts[r])
                if comp[r] is None:
                    # elements are exactly skew-Hermitian, so x P = (P x)^H and the
                    # commutator P x - x P is twice the skew part of P x
                    pending[r].append(2 * pack[r](*_times(ps[h][: m[h]], qs[h][: m[h]], h, x, y)))
                    waiting[r] += m[h]
                    if 4 * waiting[r] >= n[r]:
                        flush(r)
                    continue
                # Re tr(C^H [X_j, X_i]) = -2 Re tr((C X_i)^H X_j) for skew-Hermitian
                # C and X; then drop the parts along rows inserted since the QR
                q, cp, cq, qr_count = comp[r]
                cu, cv = _times(cp, cq, r, x, y)
                pj, qj = (z[: m[h]].reshape(m[h], -1).view(float) for z in (ps[h], qs[h]))
                parts = -2 * (cu.view(float) @ pj.T + cv.view(float) @ qj.T)
                since = coords[r][qr_count : counts[r]] @ q.T
                parts -= since.T @ (since @ parts)
                rows = np.flatnonzero(_norms(parts, 0) > tol)
                for j in range(0, len(rows), len(q)):
                    js = rows[j : j + len(q)]
                    insert(r, 2 * pack[r](*_times(ps[h][js], qs[h][js], h, x, y)))
        flush(0)
        flush(1)
        history.append((len(history), sum(counts) - prev_count, sum(counts)))
        if history[-1][1] == 0:
            break
        gen_start = prev_count
    count = sum(counts)
    for blocks in (ps, qs):
        for g, k in enumerate(counts):
            if k < len(blocks[g]):  # a view would keep the whole buffer alive
                blocks[g] = blocks[g][:k].copy()
    return LieAlgebraResult(
        dimension=count,
        saturated=(history[-1][0] > 0 and history[-1][1] == 0) or count >= d * d,
        generations=history[-1][0],
        history=tuple(history),
        sectors=sectors,
        ps=tuple(ps),
        qs=tuple(qs),
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
