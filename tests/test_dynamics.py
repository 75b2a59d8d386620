import numpy as np
import pytest

from ionctrl import (
    BasisState,
    ConvergenceError,
    FieldColor,
    IonConfig,
    PulseSchedule,
    Segment,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    bch_defect,
    build_control,
    closed_subspace,
    laguerre_zeros,
    law_eberly_sequence,
    leakage,
    propagate,
    propagate_timedep_oracle,
    subspace_population,
)

ROOT_BLUE = laguerre_zeros(6, 1)[0]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def one_ion(eta, cutoff, ldl=False):
    return SystemModel(
        trap=TrapConfig(1.0, eta),
        ions=(IonConfig(),),
        basis=TruncatedBasis(1, cutoff),
        ldl=ldl,
    )


def ground(model):
    return model.basis.vector(BasisState((0,) * model.basis.ion_count, 0))


def pop(model, state, spins, n):
    return abs(state[model.basis.index(BasisState(spins, n))]) ** 2


def carrier(rabi=1.0, phase=0.0):
    return FieldColor(0, "carrier", rabi=rabi, phase=phase)


def blue(rabi=1.0, phase=0.0):
    return FieldColor(0, "blue", rabi=rabi, phase=phase)


class TestPropagate:
    def test_empty_schedule(self):
        model = one_ion(0.1, 4, ldl=True)
        psi0 = ground(model)
        traj = propagate(model, PulseSchedule(segments=()), psi0)
        assert np.allclose(traj.final, psi0)
        assert traj.times.tolist() == [0.0]

    def test_carrier_pi_pulse(self):
        model = one_ion(0.1, 4, ldl=True)
        sched = PulseSchedule(segments=(Segment((carrier(),), np.pi / 2),))
        traj = propagate(model, sched, ground(model))
        assert pop(model, traj.final, (1,), 0) == pytest.approx(1.0, abs=1e-10)

    def test_blue_pi_pulse(self):
        eta = 0.1
        model = one_ion(eta, 5, ldl=True)
        sched = PulseSchedule(segments=(Segment((blue(),), (np.pi / 2) / eta),))
        traj = propagate(model, sched, ground(model))
        assert pop(model, traj.final, (1,), 1) == pytest.approx(1.0, abs=1e-8)

    def test_unitarity_along_samples(self):
        model = one_ion(0.6, 10)
        sched = PulseSchedule(
            segments=(
                Segment((carrier(0.3, 1.0), blue(0.2, 2.0)), 17.0),
                Segment((blue(0.4, 0.5),), 9.0),
            )
        )
        traj = propagate(model, sched, ground(model), samples_per_segment=13)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_schedule_concatenation(self):
        model = one_ion(0.5, 8)
        s1 = Segment((carrier(0.2, 0.4),), 7.0)
        s2 = Segment((blue(0.3, 1.7),), 11.0)
        joint = propagate(model, PulseSchedule((s1, s2)), ground(model)).final
        first = propagate(model, PulseSchedule((s1,)), ground(model)).final
        second = propagate(model, PulseSchedule((s2,)), first).final
        assert np.linalg.norm(joint - second) < 1e-10

    def test_rejects_bad_inputs(self):
        model = one_ion(0.1, 4)
        psi0 = ground(model)
        with pytest.raises(ValueError):
            propagate(model, PulseSchedule(()), 0.5 * psi0)
        # a normalized state of another dimension
        with pytest.raises(ValueError, match="dimension"):
            propagate(model, PulseSchedule((Segment((carrier(),), 1.0),)), np.append(psi0, 0.0))
        with pytest.raises(ValueError):
            Segment((carrier(),), -1.0)


class TestClosedSubspaceLeakage:
    def test_full_basis_leakage_is_zero(self):
        model = one_ion(0.3, 6)
        sched = PulseSchedule(segments=(Segment((carrier(0.2),), 5.0),))
        traj = propagate(model, sched, ground(model), samples_per_segment=5)
        assert leakage(traj, range(model.basis.dimension)) == pytest.approx(0.0, abs=1e-12)

    def test_random_schedules_stay_inside_truncated_component(self):
        model = one_ion(np.sqrt(ROOT_BLUE), 25)
        sub = closed_subspace(model, [carrier(), blue()])
        rng = np.random.default_rng(1)
        psi0 = ground(model)
        for _ in range(5):
            segs = tuple(
                Segment(
                    (
                        carrier(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0, 2 * np.pi))),
                        blue(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0, 2 * np.pi))),
                    ),
                    float(rng.uniform(30.0, 100.0)),
                )
                for _ in range(int(rng.integers(1, 4)))
            )
            traj = propagate(model, PulseSchedule(segs), psi0, samples_per_segment=8)
            assert leakage(traj, sub) < 1e-8

    def test_generic_eta_leaks(self):
        model = one_ion(np.sqrt(0.5), 25)
        basis = model.basis
        would_be = [basis.index(BasisState((s,), n)) for s in (0, 1) for n in range(7)]
        rng = np.random.default_rng(42)
        psi0 = ground(model)
        leaks = []
        for _ in range(20):
            segs = tuple(
                Segment(
                    (
                        carrier(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0, 2 * np.pi))),
                        blue(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0, 2 * np.pi))),
                    ),
                    float(rng.uniform(30.0, 100.0)),
                )
                for _ in range(int(rng.integers(1, 4)))
            )
            traj = propagate(model, PulseSchedule(segs), psi0, samples_per_segment=8)
            leaks.append(leakage(traj, would_be))
        assert max(leaks) > 1e-3

    def test_population_series_shape(self):
        model = one_ion(0.2, 6)
        sched = PulseSchedule(segments=(Segment((carrier(0.5),), 3.0),))
        traj = propagate(model, sched, ground(model), samples_per_segment=4)
        series = subspace_population(traj, [0, 6])
        assert series.shape == traj.times.shape
        with pytest.raises(ValueError):
            subspace_population(traj, [])


class TestTimedepOracle:
    def test_zero_amplitude_is_identity(self):
        model = one_ion(0.4, 6)
        sched = PulseSchedule(segments=(Segment((carrier(0.0),), 5.0),))
        psi0 = ground(model)
        traj = propagate_timedep_oracle(model, sched, psi0, dt=0.02)
        assert np.linalg.norm(traj.final - psi0) < 1e-12

    def test_oracle_norm_preserved(self):
        model = one_ion(0.5, 8)
        sched = PulseSchedule(segments=(Segment((carrier(0.05), blue(0.05)), 20.0),))
        traj = propagate_timedep_oracle(model, sched, ground(model), dt=0.01)
        assert abs(np.linalg.norm(traj.final) - 1.0) < 1e-7

    def test_weak_drive_matches_rwa(self):
        # leading off-resonant admixture ~ rabi * eta / mode_freq; this
        # drive is weak enough to land under the 1e-3 agreement bound
        model = one_ion(0.1, 8)
        rabi = 0.005
        g = abs(build_control(model, carrier())[model.basis.index(BasisState((1,), 0)), 0])
        sched = PulseSchedule(segments=(Segment((carrier(rabi),), (np.pi / 2) / (rabi * g)),))
        psi0 = ground(model)
        exact = propagate_timedep_oracle(model, sched, psi0, dt=0.008)
        rwa = propagate(model, sched, psi0)
        assert np.linalg.norm(exact.final - rwa.final) < 1e-3

    def test_rejects_coarse_dt(self):
        model = one_ion(0.3, 6)
        sched = PulseSchedule(segments=(Segment((carrier(0.1),), 1.0),))
        with pytest.raises(ValueError):
            propagate_timedep_oracle(model, sched, ground(model), dt=0.06)

    def test_rejects_color_on_missing_ion(self):
        # the second segment's color targets ion 1 of a one-ion model
        model = one_ion(0.3, 6)
        sched = PulseSchedule(
            segments=(
                Segment((carrier(0.1),), 1.0),
                Segment((FieldColor(1, "blue", rabi=0.1),), 1.0),
            )
        )
        with pytest.raises(ValueError, match="color targets ion 1, model has 1"):
            propagate_timedep_oracle(model, sched, ground(model), dt=0.01)

    def test_reports_nonconverged_step(self):
        model = one_ion(np.sqrt(ROOT_BLUE), 12)
        sched = PulseSchedule(segments=(Segment((carrier(0.05), blue(0.05)), 80.0),))
        with pytest.raises(ConvergenceError):
            propagate_timedep_oracle(model, sched, ground(model), dt=0.045)


class TestBchDefect:
    def test_commuting_inputs(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([0.5, -0.5]).astype(complex)
        res = bch_defect(a, b, [0.5, 0.25])
        for _, d1, d2 in res.rows:
            assert d1 < 1e-12
            assert d2 < 1e-12

    def test_pauli_order_counting(self):
        res = bch_defect(SX, SY, [0.2, 0.1, 0.05, 0.025])
        assert res.slope1 == pytest.approx(2.0, abs=0.1)
        assert res.slope2 == pytest.approx(3.0, abs=0.1)

    def test_control_pair_order_counting(self):
        model = one_ion(0.5, 8)
        hc = build_control(model, carrier())
        hb = build_control(model, blue())
        res = bch_defect(hc, hb, [0.2, 0.1, 0.05, 0.025])
        assert res.slope1 == pytest.approx(2.0, abs=0.1)
        assert res.slope2 == pytest.approx(3.0, abs=0.1)

    def test_single_color_collapse(self):
        model = one_ion(0.5, 8)
        hc = build_control(model, carrier())
        res = bch_defect(hc, np.zeros_like(hc), [0.3, 0.1])
        for _, d1, _ in res.rows:
            assert d1 <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bch_defect(SX, np.eye(3, dtype=complex), [0.1])


class TestLawEberly:
    def test_ground_target_gives_empty_schedule(self):
        model = one_ion(0.1, 5, ldl=True)
        sched = law_eberly_sequence(model, ground(model))
        assert sched.segments == ()

    def test_spin_flip_target(self):
        model = one_ion(0.1, 5, ldl=True)
        target = model.basis.vector(BasisState((1,), 0))
        sched = law_eberly_sequence(model, target)
        assert len(sched.segments) == 1
        seg = sched.segments[0]
        assert seg.colors[0].sideband == "carrier"
        # pi pulse: rotation angle 2 * rabi * |coupling| * t equals pi
        assert 2 * seg.colors[0].rabi * 1.0 * seg.duration == pytest.approx(np.pi)
        replay = propagate(model, sched, ground(model))
        assert abs(np.vdot(target, replay.final)) ** 2 >= 1.0 - 1e-10

    def test_phonon_superposition(self):
        model = one_ion(0.1, 6, ldl=True)
        basis = model.basis
        target = np.zeros(basis.dimension, dtype=complex)
        target[basis.index(BasisState((0,), 0))] = 1 / np.sqrt(2)
        target[basis.index(BasisState((0,), 1))] = 1 / np.sqrt(2)
        sched = law_eberly_sequence(model, target)
        for seg in sched.segments:
            assert len(seg.colors) == 1
            assert seg.colors[0].sideband in ("carrier", "red")
        replay = propagate(model, sched, ground(model))
        assert abs(np.vdot(target, replay.final)) ** 2 >= 1.0 - 1e-8

    def test_random_targets_replay(self):
        model = one_ion(0.15, 8, ldl=True)
        basis = model.basis
        rng = np.random.default_rng(12)
        for _ in range(10):
            target = np.zeros(basis.dimension, dtype=complex)
            for s in (0, 1):
                for n in range(5):
                    target[basis.index(BasisState((s,), n))] = rng.standard_normal() + 1j * rng.standard_normal()
            target /= np.linalg.norm(target)
            sched = law_eberly_sequence(model, target)
            replay = propagate(model, sched, ground(model))
            assert abs(np.vdot(target, replay.final)) ** 2 >= 1.0 - 1e-6

    def test_beyond_ldl_targets_replay(self):
        model = one_ion(0.4, 8)
        basis = model.basis
        target = np.zeros(basis.dimension, dtype=complex)
        target[basis.index(BasisState((1,), 2))] = 0.6
        target[basis.index(BasisState((0,), 3))] = 0.8
        sched = law_eberly_sequence(model, target)
        replay = propagate(model, sched, ground(model))
        assert abs(np.vdot(target, replay.final)) ** 2 >= 1.0 - 1e-8

    def test_rejects_bad_targets(self):
        model = one_ion(0.1, 5, ldl=True)
        with pytest.raises(ValueError):
            law_eberly_sequence(model, 0.7 * ground(model))
        two = SystemModel(
            trap=TrapConfig(1.0, 0.1, (1.0, 1.0)),
            ions=(IonConfig(), IonConfig()),
            basis=TruncatedBasis(2, 4),
            ldl=True,
        )
        with pytest.raises(ValueError):
            law_eberly_sequence(two, ground(two))
