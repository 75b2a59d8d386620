import importlib

import numpy as np
import pytest

from ionctrl import (
    BasisState,
    FieldColor,
    IonConfig,
    Objective,
    PulseSchedule,
    SearchConfig,
    Segment,
    SystemModel,
    TrapConfig,
    TruncatedBasis,
    laguerre_zeros,
    optimize,
    propagate,
    spin_fidelity,
    state_fidelity,
)

ROOT_BLUE = laguerre_zeros(6, 1)[0]

# the package's `optimize` attribute is the search function, not this module
optimize_module = importlib.import_module("ionctrl.optimize")


def one_ion(eta, cutoff, ldl=False):
    return SystemModel(
        trap=TrapConfig(1.0, eta),
        ions=(IonConfig(),),
        basis=TruncatedBasis(1, cutoff),
        ldl=ldl,
    )


def two_ion_basis(cutoff):
    return TruncatedBasis(2, cutoff)


def basis_vec(basis, spins, n):
    return basis.vector(BasisState(spins, n))


class TestStateFidelity:
    def test_reference_values(self):
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        e1 = np.array([0, 1, 0, 0], dtype=complex)
        plus = (e0 + e1) / np.sqrt(2)
        assert state_fidelity(e0, e0) == pytest.approx(1.0)
        assert state_fidelity(e0, e1) == pytest.approx(0.0)
        assert state_fidelity(plus, e0) == pytest.approx(0.5)

    def test_errors(self):
        e0 = np.array([1, 0], dtype=complex)
        with pytest.raises(ValueError):
            state_fidelity(e0, np.array([1, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            state_fidelity(2 * e0, e0)


class TestSpinFidelity:
    def test_bell_times_fock_is_pure(self):
        basis = two_ion_basis(3)
        psi = (basis_vec(basis, (0, 0), 0) + basis_vec(basis, (1, 1), 0)) / np.sqrt(2)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        fid, purity = spin_fidelity(psi, bell, basis)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_phonon_entangled_state(self):
        basis = two_ion_basis(3)
        psi = (basis_vec(basis, (0, 0), 0) + basis_vec(basis, (1, 1), 1)) / np.sqrt(2)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        fid, purity = spin_fidelity(psi, bell, basis)
        assert fid == pytest.approx(0.5, abs=1e-12)
        assert purity == pytest.approx(0.5, abs=1e-12)

    def test_motional_superposition_factors(self):
        basis = two_ion_basis(3)
        psi = (basis_vec(basis, (0, 0), 0) + basis_vec(basis, (0, 0), 1)) / np.sqrt(2)
        down = np.array([1, 0, 0, 0], dtype=complex)
        fid, purity = spin_fidelity(psi, down, basis)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_product_states_have_unit_purity(self):
        basis = two_ion_basis(4)
        rng = np.random.default_rng(8)
        spin_dim, fock = 4, 4
        for _ in range(20):
            spin = rng.standard_normal(spin_dim) + 1j * rng.standard_normal(spin_dim)
            spin /= np.linalg.norm(spin)
            motion = rng.standard_normal(fock) + 1j * rng.standard_normal(fock)
            motion /= np.linalg.norm(motion)
            psi = np.kron(spin, motion)
            fid, purity = spin_fidelity(psi, spin, basis)
            assert purity == pytest.approx(1.0, abs=1e-10)
            assert fid == pytest.approx(1.0, abs=1e-10)

    def test_purity_stays_in_unit_interval(self):
        basis = two_ion_basis(4)
        rng = np.random.default_rng(9)
        target = np.array([1, 0, 0, 0], dtype=complex)
        for _ in range(20):
            psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            psi /= np.linalg.norm(psi)
            _, purity = spin_fidelity(psi, target, basis)
            assert 0.0 < purity <= 1.0 + 1e-12


class TestObjective:
    def test_global_phase_invariance(self):
        basis = two_ion_basis(3)
        psi = (basis_vec(basis, (0, 0), 0) + basis_vec(basis, (1, 1), 0)) / np.sqrt(2)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        ground = basis_vec(basis, (0, 0), 0)
        for kind, target in (("spin_fidelity", bell), ("state_fidelity", psi)):
            base = Objective(kind=kind, target=target, initial=ground)
            for theta in (0.3, 1.7, np.pi):
                shifted = Objective(kind=kind, target=np.exp(1j * theta) * target, initial=ground)
                assert abs(base.score(psi, basis) - shifted.score(psi, basis)) < 1e-12

    def test_purity_floor_penalty(self):
        basis = two_ion_basis(3)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        ground = basis_vec(basis, (0, 0), 0)
        obj = Objective(kind="spin_fidelity", target=bell, initial=ground, purity_floor=0.99)
        mixed = (basis_vec(basis, (0, 0), 0) + basis_vec(basis, (1, 1), 1)) / np.sqrt(2)
        fid, purity = spin_fidelity(mixed, bell, basis)
        assert obj.score(mixed, basis) == pytest.approx(fid * purity)
        pure = (basis_vec(basis, (0, 0), 0) + basis_vec(basis, (1, 1), 0)) / np.sqrt(2)
        assert obj.score(pure, basis) == pytest.approx(1.0)

    def test_validation(self):
        basis = two_ion_basis(2)
        ground = basis_vec(basis, (0, 0), 0)
        with pytest.raises(ValueError):
            Objective(kind="other", target=ground, initial=ground)
        with pytest.raises(ValueError):
            Objective(kind="state_fidelity", target=2 * ground, initial=ground)
        for floor in (-3.0, 7.0, 1.5):
            with pytest.raises(ValueError, match="purity_floor"):
                Objective(kind="spin_fidelity", target=ground[:4], initial=ground, purity_floor=floor)


def _state(second=0.0):
    """|d,0> on a one-ion cutoff-4 basis, with `second` as the |d,1> amplitude."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    psi[1] = second
    return psi


@pytest.mark.parametrize(
    "call",
    [
        lambda: propagate(
            one_ion(0.1, 4),
            PulseSchedule((Segment((FieldColor(0, "carrier"),), 1.0),)),
            _state(np.nan),
        ),
        lambda: state_fidelity(_state(np.nan), _state()),
        lambda: state_fidelity(_state(), _state(np.nan)),
        lambda: spin_fidelity(_state(np.nan), np.array([1.0, 0.0]), TruncatedBasis(1, 4)),
        lambda: spin_fidelity(_state(), np.array([1.0, np.nan]), TruncatedBasis(1, 4)),
        lambda: Objective("state_fidelity", target=_state(), initial=_state(np.nan)),
        lambda: Objective("state_fidelity", target=_state(np.nan), initial=_state()),
        lambda: Segment((FieldColor(0, "carrier"),), np.nan),
        lambda: FieldColor(0, "carrier", rabi=np.nan),
        lambda: FieldColor(0, "carrier", rabi=np.inf),
        lambda: FieldColor(0, "carrier", phase=np.nan),
        lambda: TrapConfig(np.nan, 0.1),
        lambda: TrapConfig(1.0, np.nan),
        lambda: TrapConfig(1.0, 0.1, mode_weights=(np.nan,)),
        lambda: Segment((FieldColor(0, "carrier"),), np.inf),
        lambda: Objective("spin_fidelity", np.array([1.0, 0.0]), _state(), purity_floor=np.nan),
    ],
    ids=[
        "propagate_psi0",
        "state_fidelity_psi",
        "state_fidelity_target",
        "spin_fidelity_psi",
        "spin_fidelity_target_spin",
        "objective_initial",
        "objective_target",
        "segment_duration",
        "color_rabi",
        "color_rabi_inf",
        "color_phase",
        "trap_mode_freq",
        "trap_lamb_dicke",
        "trap_mode_weights",
        "segment_duration_inf",
        "objective_purity_floor",
    ],
)
def test_nan_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


class TestOptimize:
    def test_carrier_flip_reaches_analytic_solution(self):
        model = one_ion(0.1, 4, ldl=True)
        basis = model.basis
        psi0 = basis_vec(basis, (0,), 0)
        target = basis_vec(basis, (1,), 0)
        obj = Objective(kind="state_fidelity", target=target, initial=psi0)
        cfg = SearchConfig(omega_max=0.5, t_max=20.0, generations=60)
        _, score, history = optimize(model, [FieldColor(0, "carrier")], obj, cfg, seed=3)
        assert score >= 1.0 - 1e-6
        best = [h.best_score for h in history]
        assert all(b <= a + 1e-15 for b, a in zip(best, best[1:]))

    def test_seed_reproducibility(self):
        model = one_ion(0.1, 4, ldl=True)
        basis = model.basis
        psi0 = basis_vec(basis, (0,), 0)
        target = basis_vec(basis, (1,), 0)
        obj = Objective(kind="state_fidelity", target=target, initial=psi0)
        cfg = SearchConfig(omega_max=0.5, t_max=20.0, generations=25)
        colors = [FieldColor(0, "carrier")]
        a = optimize(model, colors, obj, cfg, seed=11)
        b = optimize(model, colors, obj, cfg, seed=11)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_truncated_superposition_target(self):
        model = one_ion(np.sqrt(ROOT_BLUE), 8)
        basis = model.basis
        psi0 = basis_vec(basis, (0,), 0)
        target = (basis_vec(basis, (0,), 0) + basis_vec(basis, (1,), 1)) / np.sqrt(2)
        obj = Objective(kind="state_fidelity", target=target, initial=psi0)
        cfg = SearchConfig(omega_max=0.2, t_max=100.0, generations=300)
        colors = [FieldColor(0, "carrier"), FieldColor(0, "blue")]
        params, score, _ = optimize(model, colors, obj, cfg, seed=0)
        assert score >= 0.999
        replay = propagate(model, params.to_schedule(colors), psi0)
        assert state_fidelity(replay.final, target) == pytest.approx(score, abs=1e-9)

    def test_objective_off_the_model_basis_rejected(self):
        model = one_ion(0.1, 4, ldl=True)
        ground = basis_vec(model.basis, (0,), 0)
        cfg = SearchConfig(omega_max=0.5, t_max=20.0, generations=2)
        colors = [FieldColor(0, "carrier")]
        wider = np.concatenate([ground, np.zeros(8)])
        for objective in (
            Objective(kind="state_fidelity", target=wider, initial=wider),
            Objective(kind="state_fidelity", target=wider, initial=ground),
            Objective(kind="spin_fidelity", target=np.array([1, 0, 0, 0.0]), initial=ground),
        ):
            with pytest.raises(ValueError, match="dimension"):
                optimize(model, colors, objective, cfg, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(omega_max=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            SearchConfig(omega_max=1.0, t_max=1.0, segments=9)
        with pytest.raises(ValueError):
            SearchConfig(omega_max=1.0, t_max=1.0, elite=32, population=32)


def test_search_outcome_survives_score_noise(monkeypatch):
    """The optimize_bell search (seed 1, 300 generations) returns the same
    history and pulse when every score carries seeded noise of 1e-14: the
    outcome does not hang on the last bits of the scorer.  Near a
    zero-duration floor the initial state's 0.5 makes a plateau whose ranks
    are decided by rounding; the floor at 0.05 t_max lifts the search off it."""
    model = SystemModel(
        trap=TrapConfig(1.0, np.sqrt(ROOT_BLUE), (1.0, 1.0)),
        ions=(IonConfig(), IonConfig()),
        basis=two_ion_basis(8),
    )
    colors = [FieldColor(0, "blue"), FieldColor(1, "blue"), FieldColor(0, "carrier")]
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    objective = Objective("spin_fidelity", bell, basis_vec(model.basis, (0, 0), 0))
    search = SearchConfig(omega_max=0.2, t_max=200.0, segments=4, generations=300, restart_after=60)
    params, score, history = optimize(model, colors, objective, search, seed=1)

    scorer, noise = optimize_module._population_scorer, np.random.default_rng(12345)

    def noisy_scorer(*args):
        score_rows = scorer(*args)
        return lambda x: score_rows(x) + 1e-14 * noise.standard_normal(len(x))

    monkeypatch.setattr(optimize_module, "_population_scorer", noisy_scorer)
    noisy_params, noisy_score, noisy_history = optimize(model, colors, objective, search, seed=1)
    assert len(noisy_history) == len(history)
    for a, b in zip(history, noisy_history):
        assert abs(a.best_score - b.best_score) <= 1e-12, a.generation
        assert abs(a.mean_score - b.mean_score) <= 1e-12, a.generation
    assert abs(noisy_score - score) <= 1e-12
    got, want = (
        np.concatenate([np.ravel(p.amplitudes), np.ravel(p.phases), [p.duration]])
        for p in (noisy_params, params)
    )
    assert np.max(np.abs(got - want)) <= 1e-9
