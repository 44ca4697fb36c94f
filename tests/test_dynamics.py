import numpy as np
import pytest
from conftest import electron_orbit, separated_state

from magnetotrio import (CollisionError, DomainError, IntegratorSettings,
                         PhaseState, SpecParseError, SystemSpec, Trajectory,
                         accelerations, build_initial_state, dynamics,
                         integrate, integrate_jacobi, invariants, jacobi,
                         pair_distances, read_trajectory_csv, rigidity_report,
                         solve_config_II, write_invariant_csv,
                         write_trajectory_csv)
from magnetotrio.dynamics import MAX_SAMPLES, _rhs
from magnetotrio.invariants import coulomb_energy, invariant_columns


def larmor_spec():
    return SystemSpec(B=2.0, charges=(-1.0,), masses=(1.0,))


class TestSingleParticle:
    """One charge in a uniform field travels a circle we can write down.

    For e = -1, m = 1, B = 2 and v(0) = (1, 0) the velocity rotates
    counterclockwise at angular frequency 2, so the orbit is a circle of
    radius 1/2 about (0, 1/2) with period pi.
    """

    def test_circle_geometry(self):
        spec = larmor_spec()
        state = PhaseState(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        settings = IntegratorSettings(t_end=np.pi, sample_interval=np.pi / 64)
        traj = integrate(spec, state, settings)
        center = np.array([0.0, 0.5])
        radii = np.hypot(*(traj.positions[:, 0] - center).T)
        assert np.all(np.abs(radii - 0.5) < 1e-8)
        speeds = np.hypot(*traj.velocities[:, 0].T)
        assert np.all(np.abs(speeds - 1.0) < 1e-8)

    def test_period_closure(self):
        spec = larmor_spec()
        state = PhaseState(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        traj = integrate(spec, state, IntegratorSettings(t_end=np.pi))
        assert np.linalg.norm(traj.positions[-1, 0]) < 1e-8
        assert np.linalg.norm(traj.velocities[-1, 0] - [1.0, 0.0]) < 1e-8


class TestAccelerations:
    def test_coulomb_repulsion(self):
        spec = SystemSpec(B=1.0, charges=(1.0, 1.0), masses=(1.0, 2.0))
        pos = np.array([[-1.0, 0.0], [1.0, 0.0]])
        vel = np.zeros((2, 2))
        acc = accelerations(spec, pos, vel)
        # force magnitude e1 e2 / d^2 = 1/4, directed apart; a = F/m
        assert np.allclose(acc[0], [-0.25, 0.0])
        assert np.allclose(acc[1], [0.125, 0.0])

    def test_magnetic_term(self):
        spec = SystemSpec(B=3.0, charges=(2.0,), masses=(4.0,))
        acc = accelerations(spec, np.zeros((1, 2)), np.array([[1.0, 0.5]]))
        # a = (e/m) (vy B, -vx B)
        assert np.allclose(acc, [[0.5 * 3.0 * 2.0 / 4.0, -1.0 * 3.0 * 2.0 / 4.0]])

    @pytest.mark.parametrize("n_pos, n_vel", [(4, 4), (2, 2), (3, 2)])
    def test_state_of_another_size_is_rejected(self, n_pos, n_vel):
        spec = SystemSpec(B=1.0, charges=(1.0, -1.0, 2.0), masses=(1.0, 1.0, 1.0))
        pos = np.arange(2.0 * n_pos).reshape(n_pos, 2)
        with pytest.raises(DomainError, match="3 planar vectors"):
            accelerations(spec, pos, np.ones((n_vel, 2)))


class TestCollision:
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_bad_threshold_is_rejected(self, threshold):
        # an attracting pair from rest: without the watch the run would end
        # in StepUnderflow at the collision instead of a CollisionError
        spec = SystemSpec(B=0.1, charges=(1.0, -1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(DomainError, match="collision_threshold"):
            integrate(spec, state, IntegratorSettings(
                t_end=5.0, collision_threshold=threshold))

    def test_zero_threshold_switches_the_watch_off(self):
        spec = SystemSpec(B=0.1, charges=(1.0, 1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2)))
        traj = integrate(spec, state, IntegratorSettings(
            t_end=2.0, collision_threshold=0.0))
        assert traj.t[-1] == pytest.approx(2.0)
        assert set(traj.stats) == {"nfev"}

    @pytest.mark.parametrize("route", [integrate, integrate_jacobi])
    def test_coincident_start_collides_with_the_watch_off(self, route):
        # the first RHS call would divide by the zero pair distance
        spec = SystemSpec(1.0, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        state = PhaseState(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]),
                           np.zeros((3, 2)))
        with pytest.raises(CollisionError) as err:
            route(spec, state, IntegratorSettings(t_end=1.0, collision_threshold=0.0))
        assert (err.value.t, err.value.pair, err.value.distance) == (0.0, (0, 1), 0.0)

    def test_attracting_pair_terminates(self):
        spec = SystemSpec(B=0.1, charges=(1.0, -1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(CollisionError) as err:
            integrate(spec, state, IntegratorSettings(t_end=5.0))
        assert err.value.pair == (0, 1)
        assert 0.0 < err.value.t < 5.0
        assert err.value.distance < 1e-6

    def test_repelling_pair_runs_to_the_end(self):
        spec = SystemSpec(B=0.1, charges=(1.0, 1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2)))
        traj = integrate(spec, state, IntegratorSettings(t_end=2.0))
        assert traj.t[-1] == pytest.approx(2.0)


class TestSampling:
    def test_uniform_grid(self):
        spec = larmor_spec()
        state = PhaseState(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        traj = integrate(spec, state, IntegratorSettings(t_end=1.0, sample_interval=0.125))
        assert np.allclose(traj.t, 0.125 * np.arange(9))

    def test_final_time_always_included(self):
        spec = larmor_spec()
        state = PhaseState(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        traj = integrate(spec, state, IntegratorSettings(t_end=1.0, sample_interval=0.3))
        assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)

    def test_grid_above_the_ceiling_is_rejected(self):
        spec = larmor_spec()
        state = PhaseState(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        dt = 1.0 / (2 * MAX_SAMPLES)
        with pytest.raises(DomainError, match="exceeds"):
            integrate(spec, state, IntegratorSettings(t_end=1.0, sample_interval=dt))


class TestSettingsFirst:
    @pytest.mark.parametrize("bad", [
        {"t_end": np.nan}, {"t_end": -1.0}, {"rel_tol": 0.0}, {"abs_tol": np.inf},
        {"collision_threshold": -1.0}, {"sample_interval": 0.0},
    ], ids=["t_end-nan", "t_end-before-start", "rel_tol-zero", "abs_tol-inf",
            "threshold-negative", "interval-zero"])
    def test_rejected_before_either_route_builds_anything(self, bad, monkeypatch):
        def build(*args):
            raise AssertionError("built before the settings were checked")

        monkeypatch.setattr(dynamics, "_rhs", build)
        monkeypatch.setattr(jacobi, "jacobi_weights", build)
        spec, pos, vel = electron_orbit()
        settings = IntegratorSettings(**{"t_end": 1.0, **bad})
        for run in (integrate, integrate_jacobi):
            with pytest.raises(DomainError):
                run(spec, PhaseState(pos, vel), settings)


def test_pair_distances_index_order():
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert np.allclose(pair_distances(pos), [3.0, 4.0, 5.0])


def _double_loop(spec, pos, vel):
    """Reference for the pair table: accelerations, pair distances and
    Coulomb energy of one state by a brute-force loop over the pairs."""
    e, m, n = spec.charges, spec.masses, spec.n
    acc = np.array([[v[1] * spec.B, -v[0] * spec.B] for v in vel]) * e[:, None]
    dist, energy = [], 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = pos[i] - pos[j]
            r = float(np.hypot(d[0], d[1]))
            acc[i] += e[i] * e[j] * d / r ** 3
            acc[j] -= e[i] * e[j] * d / r ** 3
            dist.append(r)
            energy += e[i] * e[j] / r
    return acc / m[:, None], np.array(dist), energy


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_pair_table_matches_double_loop(n):
    rng = np.random.default_rng(100 + n)
    spec = SystemSpec(B=rng.uniform(-2.0, 2.0), charges=rng.uniform(-2.0, 2.0, n),
                      masses=rng.uniform(0.5, 2.0, n))
    positions = rng.uniform(-3.0, 3.0, (6, n, 2))
    velocities = rng.uniform(-1.0, 1.0, (6, n, 2))
    refs = [_double_loop(spec, p, v) for p, v in zip(positions, velocities)]
    for p, v, (acc, dist, energy) in zip(positions, velocities, refs):
        np.testing.assert_allclose(accelerations(spec, p, v), acc, rtol=1e-13)
        np.testing.assert_allclose(pair_distances(p), dist, rtol=1e-13)
        assert coulomb_energy(spec, p) == pytest.approx(energy, rel=1e-13)
    # the same tables over a leading sample axis
    np.testing.assert_allclose(pair_distances(positions),
                               [dist for _, dist, _ in refs], rtol=1e-13)
    np.testing.assert_allclose(coulomb_energy(spec, positions),
                               [energy for _, _, energy in refs], rtol=1e-13)
    d0 = refs[0][1]
    dev = np.max([np.abs(dist - d0) / d0 for _, dist, _ in refs], axis=0)
    rep = rigidity_report(Trajectory(spec, np.arange(6.0), positions, velocities))
    np.testing.assert_allclose(rep.max_deviation, dev, rtol=1e-13)
    assert len(rep.pairs) == n * (n - 1) // 2


class TestRigidity:
    def _rotating_triangle(self, stretch=1.0):
        base = np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
        t = np.linspace(0.0, 2.0, 40)
        pos = np.empty((len(t), 3, 2))
        for k, tk in enumerate(t):
            c, s = np.cos(tk), np.sin(tk)
            R = np.array([[c, -s], [s, c]])
            scale = 1.0 + (stretch - 1.0) * (tk / t[-1])
            pos[k] = scale * base @ R.T
        return Trajectory(None, t, pos, np.zeros_like(pos))

    def test_rigid_rotation_scores_zero(self):
        rep = rigidity_report(self._rotating_triangle())
        assert rep.worst < 1e-14
        assert rep.pairs == [(0, 1), (0, 2), (1, 2)]

    def test_relative_deviation(self):
        # uniform 10% stretch by the final frame -> each pair reports 0.1
        rep = rigidity_report(self._rotating_triangle(stretch=1.1))
        assert np.allclose(rep.max_deviation, 0.1, rtol=1e-12)


class TestTrajectoryCsv:
    def _short_trajectory(self):
        spec = SystemSpec(B=0.5, charges=(1.0, 1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-1.0, 0.0], [1.0, 0.0]]),
                           np.array([[0.0, 0.3], [0.0, -0.3]]))
        return spec, integrate(spec, state, IntegratorSettings(t_end=1.0, sample_interval=0.25))

    def test_round_trip_is_exact(self, tmp_path):
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path, spec)
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.velocities, traj.velocities)

    def test_wrong_header_rejected(self, tmp_path):
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        other = SystemSpec(B=0.5, charges=(1.0, 1.0, 1.0), masses=(1.0, 1.0, 1.0))
        with pytest.raises(SpecParseError) as err:
            read_trajectory_csv(path, other)
        assert err.value.line == 1

    def test_truncated_row_reports_line(self, tmp_path):
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecParseError) as err:
            read_trajectory_csv(path, spec)
        assert err.value.line == 4
        assert "truncated" in str(err.value)

    def test_non_finite_cell_reports_line(self, tmp_path):
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[3] = "nan"
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecParseError) as err:
            read_trajectory_csv(path, spec)
        assert err.value.line == 3
        assert "non-finite" in str(err.value)

    def test_non_increasing_time_reports_line(self, tmp_path):
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecParseError) as err:
            read_trajectory_csv(path, spec)
        assert err.value.line == 5
        assert "does not increase" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "orbit.csv"
        path.write_text("")
        spec = SystemSpec(B=1.0, charges=(1.0,), masses=(1.0,))
        with pytest.raises(SpecParseError):
            read_trajectory_csv(path, spec)


def _oracle_accelerations(spec, positions, velocities):
    """The numpy pair kernel the scalar pair walk replaced, kept as a
    reference: scatter-add of the pair forces onto I, scatter-subtract
    onto J."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    vel = np.asarray(velocities, dtype=float).reshape(-1, 2)
    I, J, ee = spec.pairs
    d = pos[I] - pos[J]
    f = ee[:, None] * d / ((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) ** 1.5)[:, None]
    lorentz = np.column_stack([vel[:, 1] * spec.B, -vel[:, 0] * spec.B])
    force = lorentz * spec.charges[:, None]
    np.add.at(force, I, f)
    np.subtract.at(force, J, f)
    return force / spec.masses[:, None]


def _oracle_rhs(spec):
    n = spec.n

    def f(t, y):
        pos = y[: 2 * n].reshape(n, 2)
        vel = y[2 * n:].reshape(n, 2)
        return np.concatenate([vel.ravel(),
                               _oracle_accelerations(spec, pos, vel).ravel()])

    return f


def _spec4_state():
    """The first certified Configuration II rotation of the SPEC4 species."""
    spec = SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0), masses=(1.0, 1.0, 3.0))
    spec_b, state = build_initial_state(solve_config_II(spec)[0], spec)
    return spec_b, state.positions, state.velocities


def _six_charge_state():
    rng = np.random.default_rng(6)
    spec = SystemSpec(B=1.5, charges=rng.uniform(0.5, 2.0, 6),
                      masses=rng.uniform(0.5, 2.0, 6))
    return spec, *separated_state(rng, 6, box=3.0, min_sep=1.0)


class TestPairWalk:
    """The scalar pair walk against the numpy kernel it replaced and the
    brute-force double loop."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_rhs_and_accelerations_match_the_oracles(self, n):
        rng = np.random.default_rng(200 + n)
        spec = SystemSpec(B=rng.uniform(-2.0, 2.0), charges=rng.uniform(-2.0, 2.0, n),
                          masses=rng.uniform(0.5, 2.0, n))
        f = _rhs(spec)
        for _ in range(6):
            pos, vel = separated_state(rng, n)
            out = f(0.0, np.concatenate([pos.ravel(), vel.ravel()]))
            assert out.shape == (4 * n,)
            assert np.array_equal(out[: 2 * n], vel.ravel())
            want = _oracle_accelerations(spec, pos, vel)
            loop = _double_loop(spec, pos, vel)[0]
            for acc in (out[2 * n:].reshape(n, 2), accelerations(spec, pos, vel)):
                np.testing.assert_allclose(acc, want, rtol=1e-13)
                np.testing.assert_allclose(acc, loop, rtol=1e-13)

    @pytest.mark.parametrize("case", [_spec4_state, electron_orbit, _six_charge_state])
    def test_integration_matches_the_oracle_kernel(self, case, monkeypatch):
        spec, pos, vel = case()
        state = PhaseState(pos, vel)
        settings = IntegratorSettings(t_end=3.0, rel_tol=1e-12, abs_tol=1e-12,
                                      sample_interval=0.25)
        traj = integrate(spec, state, settings)
        monkeypatch.setattr(dynamics, "_rhs", _oracle_rhs)
        ref = integrate(spec, state, settings)
        assert np.array_equal(traj.t, ref.t)
        np.testing.assert_allclose(traj.positions, ref.positions, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.velocities, ref.velocities, rtol=0, atol=1e-12)


class TestClosestApproach:
    @pytest.mark.parametrize("run", [integrate, integrate_jacobi])
    def test_matches_the_accepted_steps(self, run):
        spec, pos, vel = electron_orbit()
        # a generic orbit of the three electrons, not the rotation
        vel = vel + np.array([[0.3, 0.0], [-0.4, 0.2], [0.0, 0.5]])
        traj = run(spec, PhaseState(pos, vel),
                   IntegratorSettings(t_end=6.0, sample_interval=None))
        want = pair_distances(traj.positions).min()
        assert traj.stats["min_pair_distance"] == pytest.approx(want, rel=1e-15)
        assert want < pair_distances(pos).min()

    def test_one_charge_has_no_pairs(self):
        state = PhaseState(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        traj = integrate(larmor_spec(), state, IntegratorSettings(t_end=1.0))
        assert set(traj.stats) == {"nfev"}


def _old_write_csv(path, header, data):
    """The per-value CSV writer, kept as the byte-level reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data.tolist():
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _awkward_floats(rng, shape):
    """Random floats of many magnitudes mixed with signed zeros,
    subnormals, values near 1e+-300 and non-finite values."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e-310, -3.5e-315, 1e300, -1e300, 1e-300, -1e-300,
                     1.7976931348623157e308, 0.1, 1.0, -2.5, np.inf, -np.inf,
                     np.nan])
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    mask = rng.random(shape) < 0.4
    data[mask] = rng.choice(pool, int(mask.sum()))
    return data


class TestCsvWriterBytes:
    """The row-format writer gives the bytes of the per-value writer."""

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_trajectory_csv(self, n, tmp_path):
        rng = np.random.default_rng(300 + n)
        nt = 81
        traj = Trajectory(None, _awkward_floats(rng, nt),
                          _awkward_floats(rng, (nt, n, 2)),
                          _awkward_floats(rng, (nt, n, 2)))
        write_trajectory_csv(traj, tmp_path / "new.csv")
        state = np.concatenate([traj.positions, traj.velocities], axis=-1)
        _old_write_csv(tmp_path / "old.csv", dynamics.trajectory_header(n),
                       np.column_stack([traj.t, state.reshape(nt, 4 * n)]))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_invariant_csv(self, n, tmp_path, monkeypatch):
        rng = np.random.default_rng(400 + n)
        cols = invariant_columns(n)
        data = _awkward_floats(rng, (81, len(cols)))
        monkeypatch.setattr(invariants, "invariant_samples", lambda traj: data)
        spec = SystemSpec(B=1.0, charges=np.ones(n), masses=np.ones(n))
        traj = Trajectory(spec, data[:, 0], np.zeros((81, n, 2)), np.zeros((81, n, 2)))
        write_invariant_csv(traj, tmp_path / "new.csv")
        _old_write_csv(tmp_path / "old.csv", cols, data)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_integrated_run(self, tmp_path):
        spec, pos, vel = electron_orbit()
        traj = integrate(spec, PhaseState(pos, vel),
                         IntegratorSettings(t_end=2.0, sample_interval=0.1))
        data = write_invariant_csv(traj, tmp_path / "new.csv")
        _old_write_csv(tmp_path / "old.csv", invariant_columns(3), data)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
