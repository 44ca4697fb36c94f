import numpy as np
import pytest
from conftest import electron_orbit, separated_state

from magnetotrio import (GLOBAL_INVARIANTS, SPECIAL_SETS, DomainError,
                         IntegratorSettings, PhaseState, SystemSpec,
                         algebra_check, angular_momentum, casimir,
                         classify_system, drift_report, hamiltonian, integrate,
                         invariant_table, involution_check, pair_virial,
                         poisson_bracket, pseudomomentum,
                         third_pseudomomentum_x)
from magnetotrio import invariants
from magnetotrio.invariants import (_eval_on_z, _gradients, _pack,
                                    coulomb_energy, individual_angular_momenta,
                                    invariant_columns, invariant_samples,
                                    kinetic_energies, particle_pseudomomenta,
                                    table_drifts, write_invariant_csv)
from magnetotrio.model import canonical_momenta


@pytest.fixture(scope="module")
def orbit_trajectory():
    spec, pos, vel = electron_orbit()
    settings = IntegratorSettings(t_end=10.0, rel_tol=1e-12, abs_tol=1e-12,
                                  sample_interval=0.5)
    return spec, integrate(spec, PhaseState(pos, vel), settings)


class TestDefinitions:
    def test_hamiltonian_by_hand(self):
        spec = SystemSpec(B=2.0, charges=(1.0, -2.0), masses=(3.0, 1.0))
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        vel = np.array([[1.0, 0.0], [0.0, 2.0]])
        expected = 0.5 * 3.0 * 1.0 + 0.5 * 1.0 * 4.0 + (1.0 * -2.0) / 2.0
        assert hamiltonian(spec, pos, vel) == pytest.approx(expected, rel=1e-15)
        assert coulomb_energy(spec, pos) == pytest.approx(-1.0)
        assert np.allclose(kinetic_energies(spec, vel), [1.5, 2.0])

    def test_casimir_combination(self, spec4, rng):
        # Casimir = K.K - 2 Q B Lz at any state
        for _ in range(5):
            pos, vel = separated_state(rng, 3)
            K = pseudomomentum(spec4, pos, vel)
            expected = K @ K - 2.0 * spec4.total_charge * spec4.B * angular_momentum(spec4, pos, vel)
            assert casimir(spec4, pos, vel) == pytest.approx(expected, rel=1e-13)

    def test_small_n_guards(self):
        one = SystemSpec(B=1.0, charges=(1.0,), masses=(1.0,))
        two = SystemSpec(B=1.0, charges=(1.0, 1.0), masses=(1.0, 1.0))
        with pytest.raises(DomainError):
            pair_virial(one, np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(DomainError):
            third_pseudomomentum_x(two, np.zeros((2, 2)), np.zeros((2, 2)))


# (quantity, smallest n it is defined for, returns one scalar per state)
_QUANTITIES = [
    (lambda s, q, v: kinetic_energies(s, v), 1, False),
    (lambda s, q, v: coulomb_energy(s, q), 1, True),
    (hamiltonian, 1, True),
    (particle_pseudomomenta, 1, False),
    (pseudomomentum, 1, False),
    (individual_angular_momenta, 1, False),
    (angular_momentum, 1, True),
    (casimir, 1, True),
    (pair_virial, 2, True),
    (third_pseudomomentum_x, 3, True),
    (invariant_table, 1, False),
]


def _rows_one_by_one(traj):
    """Invariant rows assembled sample by sample, one state per call."""
    spec, rows = traj.spec, []
    for k in range(traj.n_samples):
        pos, vel = traj.positions[k], traj.velocities[k]
        K = pseudomomentum(spec, pos, vel)
        row = [traj.t[k], hamiltonian(spec, pos, vel), K[0], K[1],
               angular_momentum(spec, pos, vel), casimir(spec, pos, vel)]
        row += list(individual_angular_momenta(spec, pos, vel))
        row += list(kinetic_energies(spec, vel))
        if spec.n == 3:
            row += [third_pseudomomentum_x(spec, pos, vel), pair_virial(spec, pos, vel)]
        rows.append(row)
    return np.array(rows)


def _close(a, b):
    return np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(b)))


class TestBatchEvaluation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_stack_matches_per_state_loop(self, n, rng):
        spec = SystemSpec(B=1.3, charges=rng.uniform(-2.0, 2.0, n),
                          masses=rng.uniform(0.5, 2.0, n))
        states = [separated_state(rng, n) for _ in range(7)]
        pos = np.array([q for q, _ in states])
        vel = np.array([v for _, v in states])
        for func, n_min, scalar in _QUANTITIES:
            if n < n_min:
                continue
            one = [func(spec, q, v) for q, v in states]
            if scalar:
                assert all(isinstance(x, float) for x in one)
            batch = func(spec, pos, vel)
            assert batch.shape == np.shape(one)
            assert _close(batch, np.array(one))

    def test_invariant_samples_match_row_by_row(self, orbit_trajectory):
        _, traj = orbit_trajectory
        assert _close(invariant_samples(traj), _rows_one_by_one(traj))

    def test_invariant_samples_four_charges(self, rng):
        spec = SystemSpec(B=0.7, charges=(1.0, 1.2, 0.9, 1.1), masses=(1.0, 2.0, 1.5, 0.8))
        pos, vel = separated_state(rng, 4, min_sep=1.0)
        traj = integrate(spec, PhaseState(pos, vel),
                         IntegratorSettings(t_end=2.0, sample_interval=0.25))
        assert _close(invariant_samples(traj), _rows_one_by_one(traj))


class TestConservation:
    def test_global_integrals_on_rigid_orbit(self, orbit_trajectory):
        _, traj = orbit_trajectory
        drifts = drift_report(traj)
        for name in ("H", "Kx", "Ky", "Lz", "Casimir"):
            assert drifts[name] < 1e-8, name

    def test_particular_constants_on_rigid_orbit(self, orbit_trajectory):
        # the third charge rides its own circle, so l3, T3, k3x and the
        # pair virial are flat, while l1 and T1 swing with the epicycle
        _, traj = orbit_trajectory
        drifts = drift_report(traj)
        for name in ("l3", "T3", "k3x", "I"):
            assert drifts[name] < 1e-8, name
        assert drifts["l1"] > 0.1
        assert drifts["T1"] > 0.1

    def test_closed_form_rotation_values(self, worked):
        # omega = 18/91 rotation of the (1,4,1)/(1,5,1) species: the
        # conserved quantities come out as exact rationals
        from magnetotrio import build_initial_state
        from magnetotrio.solvers import solve_config_I_v3zero
        sol = solve_config_I_v3zero(worked)[0]
        spec_b, st = build_initial_state(sol, worked)
        assert hamiltonian(spec_b, st.positions, st.velocities) == pytest.approx(159 / 14, rel=1e-12)
        assert angular_momentum(spec_b, st.positions, st.velocities) == pytest.approx(-611 / 12, rel=1e-12)
        assert kinetic_energies(spec_b, st.velocities)[1] == pytest.approx(10.0, rel=1e-12)


def _px1(s, q, v):
    return canonical_momenta(s, q, v)[..., 0, 0]


# the pseudomomentum components as callables, independently of the table
def _Kx(s, q, v):
    return pseudomomentum(s, q, v)[..., 0]


def _Ky(s, q, v):
    return pseudomomentum(s, q, v)[..., 1]


class TestBracketEngine:
    def test_fundamental_bracket(self, spec4):
        # {x1, p_x1} = 1
        def x1(s, q, v):
            return q[..., 0, 0]

        pos = np.array([[1.0, 0.5], [-1.0, 0.2], [0.3, -1.1]])
        vel = np.array([[0.1, 0.2], [0.0, -0.4], [0.5, 0.0]])
        val = poisson_bracket(x1, _px1, spec4, pos, vel)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_non_analytic_quantity_raises_type_error(self, spec4):
        # np.abs returns a real value at a complex point, so the complex
        # step would read a zero slope where the true one is -1
        def kinked(s, q, v):
            return np.abs(q[..., 0, 0] - 1.5)

        pos = np.array([[1.0, 0.5], [-1.0, 0.2], [0.3, -1.1]])
        vel = np.zeros((3, 2))
        with pytest.raises(TypeError, match="quantity kinked is not complex-analytic"):
            poisson_bracket(kinked, _px1, spec4, pos, vel)
        with pytest.raises(TypeError, match="quantity kinked is not complex-analytic"):
            poisson_bracket(_px1, kinked, spec4, pos, vel)

    def test_algebra_on_random_states(self, spec4, electrons_b2, rng):
        for spec in (spec4, electrons_b2):
            for _ in range(5):
                pos, vel = separated_state(rng, 3)
                errs = algebra_check(spec, pos, vel)
                worst = max(abs(v) for v in errs.values())
                assert worst < 1e-6, (spec.charges, errs)

    def test_neutral_pseudomomenta_commute(self, helium, rng):
        assert classify_system(helium).neutral
        pos, vel = separated_state(rng, 3)
        assert abs(poisson_bracket(_Kx, _Ky, helium, pos, vel)) < 1e-6


def _loop_gradient(func, spec, z0, h):
    """The per-coordinate central difference, one scalar call per point."""
    g = np.empty_like(z0)
    for k in range(len(z0)):
        hk = h * max(1.0, abs(z0[k]))
        zp = z0.copy(); zp[k] += hk
        zm = z0.copy(); zm[k] -= hk
        g[k] = (_eval_on_z(func, spec, zp) - _eval_on_z(func, spec, zm)) / (2.0 * hk)
    return g


def _table_column(name):
    """The named quantity as a callable on the invariant table; K2 is
    Kx^2 + Ky^2 of its columns."""
    def column(s, q, v):
        t = invariant_table(s, q, v)
        if name == "K2":
            return t[..., 1] ** 2 + t[..., 2] ** 2
        return t[..., invariant_columns(s.n).index(name) - 1]
    return column


class TestBatchedGradient:
    @pytest.mark.parametrize("name", ["spec4", "helium", "electrons", "four",
                                      "n5", "n6"])
    def test_matches_central_difference_oracle(self, name, request, rng):
        if name.startswith("n"):
            n = int(name[1:])
            spec = SystemSpec(B=0.9, charges=rng.uniform(-2.0, 2.0, n),
                              masses=rng.uniform(0.5, 2.0, n))
        else:
            spec = request.getfixturevalue(name)
        names = invariant_columns(spec.n)[1:] + ["K2"]
        for _ in range(3):
            pos, vel = separated_state(rng, spec.n)
            z0 = _pack(spec, pos, vel)
            for name, row in zip(names, _gradients(spec, pos, vel, names)):
                g = _loop_gradient(_table_column(name), spec, z0, 1e-5)
                assert np.all(np.abs(row - g)
                              <= 1e-8 * np.maximum(1.0, np.abs(g))), name

    @pytest.mark.parametrize("name", ["spec4", "four"])
    def test_algebra_check_equals_pairwise_brackets(self, name, request, rng):
        spec = request.getfixturevalue(name)
        H, Kx, Ky, Lz, C = hamiltonian, _Kx, _Ky, angular_momentum, casimir
        QB = spec.total_charge * spec.B
        for _ in range(3):
            pos, vel = separated_state(rng, spec.n)
            kx, ky = pseudomomentum(spec, pos, vel)
            pb = lambda a, b: poisson_bracket(a, b, spec, pos, vel)
            expected = {
                "{Kx,Ky}+QB": pb(Kx, Ky) + QB, "{Lz,Kx}-Ky": pb(Lz, Kx) - ky,
                "{Lz,Ky}+Kx": pb(Lz, Ky) + kx, "{H,Kx}": pb(H, Kx),
                "{H,Ky}": pb(H, Ky), "{H,Lz}": pb(H, Lz), "{C,H}": pb(C, H),
                "{C,Kx}": pb(C, Kx), "{C,Ky}": pb(C, Ky), "{C,Lz}": pb(C, Lz),
            }
            assert algebra_check(spec, pos, vel) == expected


class TestInvolutionSets:
    def test_variant_selection(self, electrons):
        assert GLOBAL_INVARIANTS == ("H", "Kx", "Ky", "Lz", "Casimir")
        assert SPECIAL_SETS == {
            "I-rest": ("H", "K2", "Lz", "l3", "T1", "T2"),
            "I-orbit": ("H", "K2", "Lz", "l3", "T3", "k3x"),
            "II": ("H", "K2", "Lz", "l2", "T1", "T2"),
        }
        state = separated_state(np.random.default_rng(0), 3)
        for variant, names in SPECIAL_SETS.items():
            _, table = involution_check(electrons, [state], variant)
            assert list(table) == [(a, b) for k, a in enumerate(names)
                                   for b in names[k + 1:]]

    def test_rejects_unknown_variant(self, electrons):
        with pytest.raises(DomainError):
            involution_check(electrons, [], "IV")
        two = SystemSpec(B=1.0, charges=(1.0, 1.0), masses=(1.0, 1.0))
        with pytest.raises(DomainError):
            involution_check(two, [], "I-rest")

    def test_orbit_set_in_involution_along_orbit(self, orbit_trajectory):
        spec, traj = orbit_trajectory
        states = [(traj.positions[k], traj.velocities[k])
                  for k in range(0, traj.n_samples, 5)]
        worst, _ = involution_check(spec, states, "I-orbit")
        assert worst < 1e-8

    def test_rest_set_in_involution(self, worked):
        from magnetotrio import build_initial_state
        from magnetotrio.solvers import solve_config_I_v3zero
        spec_b, st = build_initial_state(solve_config_I_v3zero(worked)[0], worked)
        worst, _ = involution_check(spec_b, [(st.positions, st.velocities)],
                                    "I-rest")
        assert worst < 1e-10

    def test_one_table_evaluation_per_state(self, electrons, monkeypatch, rng):
        calls, table = [], invariants.invariant_table

        def counted(*args):
            calls.append(1)
            return table(*args)

        monkeypatch.setattr(invariants, "invariant_table", counted)
        states = [separated_state(rng, 3) for _ in range(4)]
        for pos, vel in states:
            algebra_check(electrons, pos, vel)
        assert len(calls) == len(states)
        calls.clear()
        involution_check(electrons, states, "I-orbit")
        assert len(calls) == len(states)


def test_invariant_csv(tmp_path, orbit_trajectory):
    spec, traj = orbit_trajectory
    path = tmp_path / "orbit.invariants.csv"
    data = write_invariant_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == invariant_columns(3)
    assert len(lines) == 1 + traj.n_samples
    assert data.shape == (traj.n_samples, len(invariant_columns(3)))
    # the drifts of the written table are those of a fresh evaluation
    assert table_drifts(data, 3) == drift_report(traj)
