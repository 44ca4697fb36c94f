import numpy as np
import pytest
from conftest import electron_orbit, separated_state, table_value

from magnetotrio import (GLOBAL_INVARIANTS, SPECIAL_SETS, DomainError,
                         IntegratorSettings, PhaseState, SystemSpec,
                         algebra_check, classify_system, drift_report,
                         integrate, invariant_table, involution_check,
                         pseudomomentum)
from magnetotrio import cli, invariants, save_system
from magnetotrio.invariants import (_bracket, _eval_on_z, _gradients, _pack,
                                    coulomb_energy, invariant_columns,
                                    invariant_samples, kinetic_energies,
                                    table_drifts, write_invariant_csv)
from magnetotrio.model import canonical_momenta
import oracles
from oracles import (individual_angular_momenta, particle_pseudomomenta,
                     poisson_bracket)


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
        assert table_value(spec, PhaseState(pos, vel), "H") == pytest.approx(expected, rel=1e-15)
        assert coulomb_energy(spec, pos) == pytest.approx(-1.0)
        assert np.allclose(kinetic_energies(spec, vel), [1.5, 2.0])

    def test_casimir_combination(self, spec4, rng):
        # Casimir = K.K - 2 Q B Lz at any state
        for _ in range(5):
            pos, vel = separated_state(rng, 3)
            state = PhaseState(pos, vel)
            K = pseudomomentum(spec4, pos, vel)
            expected = K @ K - 2.0 * spec4.total_charge * spec4.B * table_value(spec4, state, "Lz")
            assert table_value(spec4, state, "Casimir") == pytest.approx(expected, rel=1e-13)

    def test_small_n_guards(self):
        # the pair virial I and particle 3's k3x are columns of the n = 3
        # table alone, so no smaller table reads an absent charge
        for n in (1, 2):
            spec = SystemSpec(B=1.0, charges=np.ones(n), masses=np.ones(n))
            cols = invariant_columns(n)
            assert "I" not in cols and "k3x" not in cols
            pos = np.arange(2.0 * n).reshape(n, 2)
            assert invariant_table(spec, pos, pos).shape == (len(cols) - 1,)


# (quantity, returns one scalar per state)
_QUANTITIES = [
    (lambda s, q, v: kinetic_energies(s, v), False),
    (lambda s, q, v: coulomb_energy(s, q), True),
    (particle_pseudomomenta, False),
    (pseudomomentum, False),
    (individual_angular_momenta, False),
    (invariant_table, False),
]


def _rows_one_by_one(traj):
    """Invariant rows assembled sample by sample, one state per call, each
    quantity evaluated on its own."""
    return np.array([[t, *oracles.separate_invariant_table(traj.spec, q, v)]
                     for t, q, v in zip(traj.t, traj.positions, traj.velocities)])


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
        for func, scalar in _QUANTITIES:
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


class TestOnePassTable:
    """The table's columns and the pseudomomentum are the floats of each
    quantity evaluated on its own, to the bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("kind", ["real", "complex", "step"])
    def test_matches_the_separate_quantities(self, n, lead, kind, rng):
        spec = SystemSpec(B=rng.uniform(-2.0, 2.0), charges=rng.uniform(-2.0, 2.0, n),
                          masses=rng.uniform(0.5, 2.0, n))
        pos = rng.uniform(-2.0, 2.0, (*lead, n, 2))
        vel = rng.uniform(-1.5, 1.5, (*lead, n, 2))
        if kind == "complex":
            pos = pos + 1j * rng.uniform(-1e-3, 1e-3, pos.shape)
            vel = vel + 1j * rng.uniform(-1e-3, 1e-3, vel.shape)
        elif kind == "step":    # the complex step: one coordinate moved by i 1e-100
            pos, vel = pos.astype(complex), vel.astype(complex)
            (pos, vel)[rng.integers(2)].reshape(-1, 2 * n)[:, rng.integers(2 * n)] += 1e-100j
        pairs = [(invariant_table, oracles.separate_invariant_table),
                 (pseudomomentum, oracles.separate_pseudomomentum)]
        for func, oracle in pairs:
            got, want = func(spec, pos, vel), oracle(spec, pos, vel)
            assert type(got) is type(want), func.__name__
            assert np.shape(got) == np.shape(want), func.__name__
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), func.__name__


class TestStackedChecks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bracket_rounds_as_one_dot_per_state(self, n, rng):
        # the row-times-column matmul of a stack must give, state by state,
        # the float of ``@`` of the two rows (n >= 8 reaches BLAS's kernel)
        spec = SystemSpec(B=1.0, charges=np.ones(n), masses=np.ones(n))
        g = rng.normal(size=(7, 3, 4 * n)) * rng.choice([1e-3, 1.0, 1e5], (7, 3, 1))
        n2 = 2 * n
        want = np.array([f[:n2] @ h[n2:] - f[n2:] @ h[:n2]
                         for f, h in zip(g[:, 0], g[:, 2])])
        assert _bracket(spec, g[:, 0], g[:, 2]).tobytes() == want.tobytes()
        assert _bracket(spec, g[0, 0], g[0, 2]) == want[0]

    @pytest.mark.parametrize("name", ["spec4", "four", "n1", "n6"])
    def test_algebra_check_of_a_stack_is_the_per_state_loop(self, name, request, rng):
        if name.startswith("n"):
            n = int(name[1:])
            spec = SystemSpec(B=0.9, charges=rng.uniform(-2.0, 2.0, n),
                              masses=rng.uniform(0.5, 2.0, n))
        else:
            spec = request.getfixturevalue(name)
        pos, vel = map(np.array, zip(*[separated_state(rng, spec.n) for _ in range(6)]))
        loop = [algebra_check(spec, q, v) for q, v in zip(pos, vel)]
        for shape in [(6,), (2, 3)]:
            stacked = algebra_check(spec, pos.reshape(*shape, spec.n, 2),
                                    vel.reshape(*shape, spec.n, 2))
            assert list(stacked) == list(loop[0])
            for label, errs in stacked.items():
                assert errs.shape == shape
                assert errs.ravel().tolist() == [row[label] for row in loop]

    @pytest.mark.parametrize("variant", sorted(SPECIAL_SETS))
    def test_involution_check_of_a_stack_is_the_per_state_loop(self, electrons,
                                                                variant, rng):
        pos, vel = map(np.array, zip(*[separated_state(rng, 3) for _ in range(5)]))
        loop = [involution_check(electrons, q, v, variant) for q, v in zip(pos, vel)]
        worst, table = involution_check(electrons, pos, vel, variant)
        assert worst == max(w for w, _ in loop)
        assert table == {pair: max(t[pair] for _, t in loop) for pair in table}
        assert all(type(x) is float for x in [worst, *table.values()])
        assert involution_check(electrons, pos.reshape(5, 1, 3, 2),
                                vel.reshape(5, 1, 3, 2), variant) == (worst, table)


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
        from magnetotrio.solvers import solve_config_I
        [sol] = solve_config_I(worked, [1.0])
        spec_b, st = build_initial_state(sol, worked)
        assert table_value(spec_b, st, "H") == pytest.approx(159 / 14, rel=1e-12)
        assert table_value(spec_b, st, "Lz") == pytest.approx(-611 / 12, rel=1e-12)
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
        H, Lz, C = map(_table_column, ("H", "Lz", "Casimir"))
        Kx, Ky = _Kx, _Ky
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
            _, table = involution_check(electrons, *state, variant)
            assert list(table) == [(a, b) for k, a in enumerate(names)
                                   for b in names[k + 1:]]

    def test_rejects_unknown_variant(self, electrons):
        none = np.zeros((0, 3, 2))
        with pytest.raises(DomainError):
            involution_check(electrons, none, none, "IV")
        two = SystemSpec(B=1.0, charges=(1.0, 1.0), masses=(1.0, 1.0))
        with pytest.raises(DomainError):
            involution_check(two, none[..., :2, :], none[..., :2, :], "I-rest")
        # an empty stack reads 0 for every pair
        worst, table = involution_check(electrons, none, none, "II")
        assert worst == 0.0 and set(table.values()) == {0.0}

    def test_orbit_set_in_involution_along_orbit(self, orbit_trajectory):
        spec, traj = orbit_trajectory
        worst, _ = involution_check(spec, traj.positions[::5],
                                    traj.velocities[::5], "I-orbit")
        assert worst < 1e-8

    def test_rest_set_in_involution(self, worked):
        from magnetotrio import build_initial_state
        from magnetotrio.solvers import solve_config_I
        [sol] = solve_config_I(worked, [1.0])
        spec_b, st = build_initial_state(sol, worked)
        worst, _ = involution_check(spec_b, st.positions, st.velocities,
                                    "I-rest")
        assert worst < 1e-10

    def test_one_table_evaluation_per_chunk(self, electrons, monkeypatch, rng,
                                            tmp_path, capsys):
        calls, table = [], invariants.invariant_table

        def counted(*args):
            calls.append(1)
            return table(*args)

        monkeypatch.setattr(invariants, "invariant_table", counted)
        pos, vel = map(np.array, zip(*[separated_state(rng, 3) for _ in range(4)]))
        algebra_check(electrons, pos, vel)
        involution_check(electrons, pos, vel, "I-orbit")
        assert len(calls) == 2
        # a brackets op evaluates its states BRACKET_BATCH at a time
        path = tmp_path / "electrons.system"
        save_system(path, electrons)
        batch = cli.BRACKET_BATCH
        for samples in (1, batch, batch + 1, 2 * batch + 3):
            calls.clear()
            assert cli.main(["brackets", str(path), "--samples", str(samples)]) == 0
            assert len(calls) == -(-samples // batch)
        capsys.readouterr()


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
