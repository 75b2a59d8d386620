"""Pulse schedules and state propagation.

`propagate` evolves under the piecewise-constant multi-color resonant
model (each color contributes only its resonant manifold, drift absorbed
into the frame).  `propagate_timedep_oracle` keeps every color's
coupling to all phonon manifolds, each oscillating at its multiple of
the mode frequency, and serves as the independent check on that
approximation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .fock import BasisState, ConvergenceError, SPIN_DOWN, SPIN_UP, _evolve
from .model import PHONON_SHIFT, FieldColor, SystemModel, _raising, coupling_strength

__all__ = [
    "Segment",
    "PulseSchedule",
    "Trajectory",
    "propagate",
    "propagate_timedep_oracle",
    "BchDefectResult",
    "bch_defect",
    "law_eberly_sequence",
    "subspace_population",
    "leakage",
]


@dataclass(frozen=True)
class Segment:
    """A set of simultaneously active colors held constant for a duration."""

    colors: tuple[FieldColor, ...]
    duration: float

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError(f"segment duration must be positive and finite, got {self.duration}")


@dataclass(frozen=True)
class PulseSchedule:
    segments: tuple[Segment, ...]

    @property
    def total_time(self) -> float:
        return sum(seg.duration for seg in self.segments)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray   # (samples,)
    states: np.ndarray  # (samples, dim)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _check_normalized(psi: np.ndarray, what: str = "state", tol: float = 1e-8) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"{what} is not normalized (norm {norm})")
    return psi


def _parity_blocks(model: SystemModel, colors):
    """Even and odd spin-parity basis indices, and the colors' odd -> even
    block entries: flat (d/2, d/2) position, amplitude column (c raises
    color c, C + c lowers it) and value at unit Rabi, conjugated if lowering."""
    basis = model.basis
    parity = np.repeat([bin(s).count("1") % 2 for s in range(2**basis.ion_count)], basis.fock_cutoff)
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    pos = np.empty(basis.dimension, dtype=np.intp)
    pos[even], pos[odd] = np.arange(len(even)), np.arange(len(odd))
    flat, column, value = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0, complex)]
    for c, color in enumerate(colors):
        model.check_color(color)
        upper, lower, v = _raising(model, color.target_ion, PHONON_SHIFT[color.sideband])
        up = parity[upper] == 0  # entries that raise odd -> even
        flat.append(np.where(up, pos[upper] * len(odd) + pos[lower], pos[lower] * len(odd) + pos[upper]))
        column.append(np.where(up, c, len(colors) + c))
        value.append(np.where(up, v, v.conj()))
    return even, odd, np.concatenate(flat), np.concatenate(column), np.concatenate(value)


def _parity_propagate(even, odd, flat, column, value, amp, taus, psi) -> np.ndarray:
    """Evolve the (d,) or (P, d) states psi through S resonant segments of
    (P, S, C) color amplitudes, sampling each at the (P, K) times taus,
    the last one its duration; returns the (P, K, d) last-segment samples.

    Every color flips one spin, so H = [[0, B], [B_dag, 0]] on the even
    and odd sectors, B = sum_c amp_c raise_c + conj(amp_c) lower_c, scattered
    from the `_parity_blocks` entries.  With B = U S V_dag, one stacked SVD
    per segment serves every state and time:
    exp(-iHt) = [[U cos(St) U_dag, -i U sin(St) V_dag],
                 [-i V sin(St) U_dag, V cos(St) V_dag]].
    """
    coeff = np.concatenate([amp, amp.conj()], axis=2)
    # column vectors per state, (P, sector, K)
    psi_even, psi_odd = psi[..., even, None], psi[..., odd, None]
    for s in range(coeff.shape[1]):
        b = np.zeros((len(coeff), len(even) * len(odd)), dtype=complex)
        np.add.at(b, (slice(None), flat), coeff[:, s, column] * value)
        u, sigma, vh = np.linalg.svd(b.reshape(-1, len(even), len(odd)))
        theta = sigma[..., None] * taus[:, None, :]
        cos, sin = np.cos(theta), np.sin(theta)
        a, c = u.conj().swapaxes(1, 2) @ psi_even[..., -1:], vh @ psi_odd[..., -1:]
        psi_even = u @ (cos * a - 1j * sin * c)
        psi_odd = vh.conj().swapaxes(1, 2) @ (cos * c - 1j * sin * a)
    out = np.empty(psi_even.shape[:-2] + (taus.shape[1], len(even) + len(odd)), dtype=complex)
    out[..., even], out[..., odd] = psi_even.swapaxes(-1, -2), psi_odd.swapaxes(-1, -2)
    return out


def propagate(
    model: SystemModel,
    schedule: PulseSchedule,
    psi0: np.ndarray,
    samples_per_segment: int = 1,
) -> Trajectory:
    """Evolve psi0 through the schedule, sampling each segment uniformly."""
    n = samples_per_segment
    if isinstance(n, (bool, np.bool_)) or not (n >= 1 and n % 1 == 0):
        raise ValueError(f"samples_per_segment must be an integer >= 1, got {n!r}")
    if np.shape(psi0) != (model.basis.dimension,):
        raise ValueError(f"psi0 must have dimension {model.basis.dimension}")
    times, states, t0 = [0.0], [_check_normalized(psi0, "psi0")], 0.0
    for seg in schedule.segments:
        amp = np.array([[[c.rabi * np.exp(1j * c.phase) for c in seg.colors]]], dtype=complex)
        taus = seg.duration * np.arange(1, samples_per_segment + 1) / samples_per_segment
        sectors = _parity_blocks(model, seg.colors)
        states.extend(_parity_propagate(*sectors, amp, taus[None], states[-1])[0])
        times.extend(t0 + taus)
        t0 += seg.duration
    return Trajectory(times=np.array(times), states=np.array(states))


def _manifold_terms(model: SystemModel, color: FieldColor):
    """All phonon-manifold raising operators of one color with the
    multiple of the mode frequency each acquires in the rotating frame.

    Yields (frequency_multiple, (upper, lower, value)) index maps of each
    manifold with a nonzero coupling: the resonant manifold comes out at
    multiple 0 and holds the control_raising entries; LDL models retain
    the three first-order manifolds, exact models all of them.
    """
    n_levels = model.basis.fock_cutoff
    resonant_shift = PHONON_SHIFT[color.sideband]
    dns = (-1, 0, 1) if model.ldl else range(-(n_levels - 1), n_levels)
    for dn in dns:
        maps = _raising(model, color.target_ion, dn)
        if maps[2].any():
            yield dn - resonant_shift, maps


def _oracle_final_state(
    model: SystemModel,
    schedule: PulseSchedule,
    psi0: np.ndarray,
    dt: float,
):
    """Single pass of the time-dependent integrator; returns the list of
    segment-boundary (time, state) samples."""
    omega = model.trap.mode_freq
    psi = np.asarray(psi0, dtype=complex)
    t0 = 0.0
    samples = [(0.0, psi)]
    for seg in schedule.segments:
        groups = defaultdict(lambda: np.zeros((model.basis.dimension,) * 2, dtype=complex))
        for color in seg.colors:
            amp = color.rabi * np.exp(1j * color.phase)
            for mult, (upper, lower, value) in _manifold_terms(model, color):
                groups[mult][upper, lower] += amp * value
        n_steps = max(1, math.ceil(seg.duration / dt))
        h_step = seg.duration / n_steps
        for step in range(n_steps):
            t_mid = t0 + (step + 0.5) * h_step
            h = np.zeros((model.basis.dimension,) * 2, dtype=complex)
            for mult, w_mat in groups.items():
                h += np.exp(1j * mult * omega * t_mid) * w_mat
            psi = _evolve(h + h.conj().T, psi, [h_step])[0]
        t0 += seg.duration
        samples.append((t0, psi))
    return samples


def propagate_timedep_oracle(
    model: SystemModel,
    schedule: PulseSchedule,
    psi0: np.ndarray,
    dt: float,
    check_convergence: bool = True,
) -> Trajectory:
    """Integrate with all off-resonant manifolds retained.

    Stepwise exponentials of the Hamiltonian frozen at step midpoints;
    dt must resolve the mode frequency (dt * mode_freq < 0.05).  With
    check_convergence the integration is repeated at dt/2 and the finer
    result returned; a final-state shift above 1e-6 is an error.
    """
    psi = _check_normalized(psi0, "psi0")
    if dt <= 0 or dt * model.trap.mode_freq >= 0.05:
        raise ValueError("dt must satisfy dt * mode_freq < 0.05")
    for color in (c for seg in schedule.segments for c in seg.colors):
        model.check_color(color)
    samples = _oracle_final_state(model, schedule, psi, dt)
    if check_convergence:
        finer = _oracle_final_state(model, schedule, psi, dt / 2)
        drift = np.linalg.norm(samples[-1][1] - finer[-1][1])
        if drift > 1e-6:
            raise ConvergenceError(
                f"halving dt moved the final state by {drift:.3e} (> 1e-6); decrease dt"
            )
        samples = finer
    times = np.array([t for t, _ in samples])
    states = np.array([s for _, s in samples])
    return Trajectory(times=times, states=states)


@dataclass(frozen=True)
class BchDefectResult:
    rows: tuple[tuple[float, float, float], ...]  # (dt, defect1, defect2)
    slope1: float
    slope2: float


def bch_defect(hc: np.ndarray, hb: np.ndarray, dt_list) -> BchDefectResult:
    """Spectral-norm defect of the split product against the exact
    exponential, without and with the first commutator correction.

    defect1(dt) = |exp(i(Hc+Hb)dt) - exp(iHc dt) exp(iHb dt)|  ~ dt^2
    defect2 adds the correction exp([Hc,Hb] dt^2 / 2)           ~ dt^3

    The correction's sign is fixed by the order fit: with it the defect
    must collapse one order faster, and it vanishes identically when
    either input is zero or the inputs commute.
    """
    hc = np.asarray(hc, dtype=complex)
    hb = np.asarray(hb, dtype=complex)
    if hc.shape != hb.shape:
        raise ValueError("inputs must have equal dimension")
    comm = hc @ hb - hb @ hc
    comm_herm = -1j * comm  # [Hc,Hb] is anti-Hermitian
    eye = np.eye(hc.shape[0])
    rows = []
    for dt in dt_list:
        # exp(i H dt) is exp(-i H t) at t = -dt
        exact = _evolve(hc + hb, eye, [-dt])[0]
        split = _evolve(hc, eye, [-dt])[0] @ _evolve(hb, eye, [-dt])[0]
        correction = _evolve(comm_herm, eye, [-0.5 * dt * dt])[0]
        d1 = float(np.linalg.norm(exact - split, 2))
        d2 = float(np.linalg.norm(exact - split @ correction, 2))
        rows.append((float(dt), d1, d2))

    def _slope(col: int) -> float:
        xs = [math.log(r[0]) for r in rows if r[col] > 1e-13]
        ys = [math.log(r[col]) for r in rows if r[col] > 1e-13]
        if len(xs) < 2:
            return float("nan")
        return float(np.polyfit(xs, ys, 1)[0])

    return BchDefectResult(rows=tuple(rows), slope1=_slope(1), slope2=_slope(2))


def _solve_pair_rotation(amp_from: complex, amp_to: complex, zero: str) -> tuple[float, float]:
    """Angle theta and drive phase psi of a resonant two-level rotation
    U = [[cos t, -i e^{-i psi} sin t], [-i e^{i psi} sin t, cos t]]
    (basis order: from, to) that zeroes the requested component."""
    if zero == "to":
        theta = math.atan2(abs(amp_to), abs(amp_from))
        psi = np.angle(amp_to) - np.angle(amp_from) - np.pi / 2
    else:
        theta = math.atan2(abs(amp_from), abs(amp_to))
        psi = np.angle(amp_to) - np.angle(amp_from) + np.pi / 2
    return theta, float(psi % (2 * np.pi))


def law_eberly_sequence(model: SystemModel, target: np.ndarray) -> PulseSchedule:
    """Single-color carrier/red pulse schedule preparing `target` from
    |down, 0> on a one-ion model.

    Built by backward recursion: from the highest occupied phonon rung
    downward, a carrier rotation empties the up state of that rung and a
    red-sideband rotation moves the remaining down amplitude one rung
    lower; the forward schedule is the inverted pulses in reverse order.
    """
    if model.basis.ion_count != 1:
        raise ValueError("the alternating-pulse construction applies to one ion")
    target = _check_normalized(target, "target")
    basis = model.basis
    n_levels = basis.fock_cutoff

    def idx(spin: int, n: int) -> int:
        return basis.index(BasisState(spins=(spin,), phonon=n))

    occupied = [n for n in range(n_levels) for s in (SPIN_DOWN, SPIN_UP) if abs(target[idx(s, n)]) > 1e-12]
    n_max = max(occupied) if occupied else 0

    state = target.copy()
    forward: list[Segment] = []

    def apply_backward(sideband: str, pair_from: int, pair_to: int, zero: str) -> None:
        if abs(state[pair_to if zero == "to" else pair_from]) < 1e-12:
            return
        color = FieldColor(target_ion=0, sideband=sideband)
        kappa = coupling_strength(model, color, basis.state(pair_from).phonon)
        if abs(kappa) < 1e-12:
            raise ValueError(
                f"{sideband} coupling vanishes at rung {basis.state(pair_from).phonon};"
                " target unreachable with this Lamb-Dicke parameter"
            )
        theta, psi = _solve_pair_rotation(state[pair_from], state[pair_to], zero)
        if theta < 1e-14:
            return
        phase = float((psi - np.angle(kappa)) % (2 * np.pi))
        duration = theta / abs(kappa)
        seg = Segment((FieldColor(0, sideband, phase=phase),), duration)
        state[:] = propagate(model, PulseSchedule((seg,)), state).final
        inverted = FieldColor(0, sideband, phase=float((phase + np.pi) % (2 * np.pi)))
        forward.append(Segment((inverted,), duration))

    for m in range(n_max, 0, -1):
        # carrier pair (down,m) -> (up,m): empty the upper component
        apply_backward("carrier", idx(SPIN_DOWN, m), idx(SPIN_UP, m), zero="to")
        # red pair (down,m) -> (up,m-1): move everything off the rung
        apply_backward("red", idx(SPIN_DOWN, m), idx(SPIN_UP, m - 1), zero="from")
    apply_backward("carrier", idx(SPIN_DOWN, 0), idx(SPIN_UP, 0), zero="to")

    residual = 1.0 - abs(state[idx(SPIN_DOWN, 0)])
    if residual > 1e-8:
        raise ConvergenceError(f"backward recursion left residual {residual:.3e} outside |down,0>")
    return PulseSchedule(segments=tuple(reversed(forward)))


def subspace_population(trajectory: Trajectory, subspace) -> np.ndarray:
    """Population inside the given basis indices at each sample."""
    indices = sorted(set(int(i) for i in subspace))
    if not indices:
        raise ValueError("subspace must be nonempty")
    dim = trajectory.states.shape[1]
    if indices[0] < 0 or indices[-1] >= dim:
        raise ValueError("subspace index outside state dimension")
    return np.sum(np.abs(trajectory.states[:, indices]) ** 2, axis=1)


def leakage(trajectory: Trajectory, subspace) -> float:
    """Maximum population found outside the subspace over the trajectory."""
    inside = subspace_population(trajectory, subspace)
    total = np.sum(np.abs(trajectory.states) ** 2, axis=1)
    return float(np.max(total - inside))
