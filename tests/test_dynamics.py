import numpy as np
import pytest

from magnetotrio import (CollisionError, DomainError, IntegratorSettings,
                         PhaseState, SpecParseError, SystemSpec, Trajectory,
                         accelerations, integrate, pair_distances,
                         read_trajectory_csv, rigidity_report,
                         write_trajectory_csv)
from magnetotrio.dynamics import MAX_SAMPLES
from magnetotrio.invariants import coulomb_energy


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


class TestCollision:
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
