import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from conftest import electron_orbit, separated_state
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import integrate_in_frame
from oracles import read_trajectory_csv as oracle_read_trajectory_csv
from oracles import sampled_walk

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
    @pytest.mark.parametrize("route", [integrate, integrate_jacobi])
    def test_coincident_start_collides_with_the_watch_off(self, route):
        # the first RHS call would divide by the zero pair distance
        spec = SystemSpec(1.0, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        state = PhaseState(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]),
                           np.zeros((3, 2)))
        with pytest.raises(CollisionError) as err:
            route(spec, state, IntegratorSettings(t_end=1.0))
        assert (err.value.t, err.value.pair, err.value.distance) == (0.0, (0, 1), 0.0)

    def test_attracting_pair_terminates(self):
        spec = SystemSpec(B=0.1, charges=(1.0, -1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(CollisionError) as err:
            integrate(spec, state, IntegratorSettings(t_end=5.0))
        assert err.value.pair == (0, 1)
        assert 0.0 < err.value.t < 5.0
        assert err.value.distance < 1e-6

    @pytest.mark.parametrize("w", [0.0, 1.5])
    @pytest.mark.parametrize("d0", [1.0, 1e-3, 1e-6])
    def test_attracting_pair_collides_at_every_scale(self, d0, w):
        # unit masses of charges +-1 from rest fall into each other in the
        # free-fall time pi/4 d0^1.5; the watch stops the run at the same
        # fraction of d0 at every scale, in either frame
        spec = SystemSpec(B=0.0, charges=(1.0, -1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-0.5 * d0, 0.0], [0.5 * d0, 0.0]]),
                           np.zeros((2, 2)))
        settings = IntegratorSettings(t_end=d0 ** 1.5)
        with pytest.raises(CollisionError) as err:
            if w:
                integrate_in_frame(spec, state, settings, w)
            else:
                integrate(spec, state, settings)
        assert err.value.pair == (0, 1)
        assert err.value.distance <= dynamics.COLLISION_FRACTION * d0
        assert abs(err.value.t / d0 ** 1.5 - math.pi / 4) <= 1e-8

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

    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
           log_dt=st.floats(-3.0, 0.5),
           batch=st.sampled_from([1, 2, 3, dynamics.INTERPOLATION_BATCH]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_batched_rows_match_the_per_step_interpolant(self, n, seed, tol,
                                                         log_dt, batch):
        # sample intervals from far below the step size to above most steps,
        # so some steps carry many points and some none; small batches put
        # pass boundaries inside the run
        rng = np.random.default_rng(seed)
        spec = SystemSpec(B=rng.uniform(0.5, 2.0), charges=rng.uniform(0.5, 2.0, n),
                          masses=rng.uniform(0.5, 2.0, n))
        pos, vel = separated_state(rng, n, box=3.0, min_sep=1.0)
        y0 = np.concatenate([pos.ravel(), vel.ravel()])
        run = IntegratorSettings(t_end=3.0, rel_tol=tol, abs_tol=tol,
                                 sample_interval=10.0 ** log_dt)
        t_eval = dynamics._checked_grid(run, 0.0)

        def positions_of(y):
            return y[: 2 * n].tolist()

        with mock.patch.object(dynamics, "INTERPOLATION_BATCH", batch):
            t, rows, stats = dynamics._solve(spec, _rhs(spec), y0, 0.0, t_eval,
                                             run, positions_of)
        ref, ref_stats = sampled_walk(_rhs(spec), y0, 0.0, t_eval, run,
                                      positions_of)
        assert t is t_eval
        # tobytes: a -0.0 against 0.0 shows
        assert rows.tobytes() == ref.tobytes()
        assert stats == ref_stats

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12, 1e6])
    def test_end_point_at_every_time_scale(self, s):
        # a t_end half an interval past the last grid point gets a sample
        # of its own at every scale; a t_end on a grid point is that point
        grid = dynamics._checked_grid(
            IntegratorSettings(t_end=10.5 * s, sample_interval=s), 0.0)
        assert len(grid) == 12 and grid[-1] == 10.5 * s
        assert grid[-2] == pytest.approx(10.0 * s, rel=1e-15)
        grid = dynamics._checked_grid(
            IntegratorSettings(t_end=10.0 * s, sample_interval=s), 0.0)
        assert len(grid) == 11 and grid[-1] == 10.0 * s

    def test_grid_above_the_ceiling_is_rejected(self):
        spec = larmor_spec()
        state = PhaseState(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        dt = 1.0 / (2 * MAX_SAMPLES)
        with pytest.raises(DomainError, match="exceeds"):
            integrate(spec, state, IntegratorSettings(t_end=1.0, sample_interval=dt))


class TestSettingsFirst:
    @pytest.mark.parametrize("bad", [
        {"t_end": np.nan}, {"t_end": -1.0}, {"rel_tol": 0.0}, {"abs_tol": np.inf},
        {"sample_interval": 0.0},
    ], ids=["t_end-nan", "t_end-before-start", "rel_tol-zero", "abs_tol-inf",
            "interval-zero"])
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


def _header_only(tmp_path):
    path = tmp_path / "header-only.csv"
    path.write_text(",".join(dynamics.trajectory_header(1)) + "\n")
    return path


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp_path: integrate(larmor_spec(), PhaseState(np.eye(2), np.zeros((2, 2))),
                                IntegratorSettings(t_end=1.0)),
     DomainError, "state and spec have different particle counts"),
    (lambda tmp_path: read_trajectory_csv(_header_only(tmp_path), larmor_spec()),
     SpecParseError, "trajectory file has a header but no rows"),
], ids=["integrate-particle-count", "csv-header-only"])
def test_public_guards(call, error, message, tmp_path):
    with pytest.raises(error, match=message):
        call(tmp_path)


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
    assert rep == pytest.approx(dev.max(initial=0.0), rel=1e-13)


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
        assert rigidity_report(self._rotating_triangle()) < 1e-14

    def test_relative_deviation(self):
        # uniform 10% stretch by the final frame -> every pair deviates 0.1
        rep = rigidity_report(self._rotating_triangle(stretch=1.1))
        assert type(rep) is float and rep == pytest.approx(0.1, rel=1e-12)


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
        # a Python float's repr, not numpy's "np.float64(...)"
        t = float(lines[4].split(",")[0])
        assert str(err.value) == f"line 5: t = {t!r} does not increase"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "orbit.csv"
        path.write_text("")
        spec = SystemSpec(B=1.0, charges=(1.0,), masses=(1.0,))
        with pytest.raises(SpecParseError):
            read_trajectory_csv(path, spec)

    @pytest.mark.parametrize("faults, line, message", [
        # a short and a long row leave the cell count a multiple of the
        # width; each row's own count must still name the short one
        ({4: "short", 5: "long"}, 4, "expected 9 columns, got 8 (truncated row?)"),
        ({4: "nan", 6: "short"}, 4, "non-finite value in row"),
        ({4: "short", 6: "nan"}, 4, "expected 9 columns, got 8 (truncated row?)"),
        ({3: "abc", 5: "repeat-t"}, 3, "non-numeric value in row"),
    ], ids=["short-then-long", "nan-then-short", "short-then-nan",
            "word-then-repeat"])
    def test_first_faulty_line_is_reported(self, tmp_path, faults, line, message):
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        for no, fault in faults.items():
            parts = lines[no - 1].split(",")
            if fault == "short":
                parts.pop()
            elif fault == "long":
                parts.append("0")
            elif fault == "repeat-t":
                parts[0] = lines[no - 2].split(",")[0]
            else:
                parts[2] = fault
            lines[no - 1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecParseError) as err:
            read_trajectory_csv(path, spec)
        assert str(err.value) == f"line {line}: {message}"
        with pytest.raises(SpecParseError) as ref:
            oracle_read_trajectory_csv(path, spec)
        assert str(ref.value) == str(err.value)

    def test_coincident_charges_are_refused(self, tmp_path):
        # two charges on one point make the Coulomb energy infinite, and
        # every drift NaN; the reader names the first such row
        spec = SystemSpec(B=1.0, charges=(1.0, 1.0, 1.0), masses=(1.0, 1.0, 1.0))
        path = tmp_path / "orbit.csv"
        path.write_text(",".join(dynamics.trajectory_header(3)) + "\n"
                        "0,0,0,0,1,1,0,0,1,2,0,0,1\n\n"
                        "1,0,1,0,1,0,1,1,0,2,1,0,1\n")
        with pytest.raises(SpecParseError) as err:
            read_trajectory_csv(path, spec)
        assert str(err.value) == "line 4: particles 1 and 2 share a point"

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_tampered_files_match_the_row_walk(self, data):
        # the package reader against the reference row walk on short files
        # with up to three faults, or with one lone trap cell: the same
        # arrays to the bit, or the same message at the same line; a file
        # the walk accepts is refused only at its first row with two
        # charges on one point
        n = data.draw(st.integers(1, 3), label="n")
        spec = SystemSpec(B=1.0, charges=(1.0,) * n, masses=(1.0,) * n)
        cell = st.floats(-1e3, 1e3).map(repr)
        times = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1,
                                   max_size=5, unique=True), label="t")
        rows = [[repr(t), *data.draw(st.lists(cell, min_size=4 * n,
                                              max_size=4 * n))]
                for t in sorted(times)]
        lines = [",".join(row) for row in rows]
        tokens = st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "",
                                  " ", "1_0", " 2.5 ", "1\x1f", "\x1f1",
                                  "1#", "1\x1c", "\u0661"])
        # cells numpy parses where float() refuses them: only a file valid
        # but for one of them tells the two readers apart ("1#" only as a
        # row's last cell, where numpy's default comments would cut it)
        traps = st.sampled_from(["1\x1f", "\x1f1", "1#"])
        # about half the files hold one such cell and no other fault
        lone = data.draw(st.booleans(), label="lone token")
        for _ in range(1 if lone else data.draw(st.integers(0, 3), label="faults")):
            k = data.draw(st.integers(0, len(lines) - 1))
            parts = lines[k].split(",")
            fault = "lone-token" if lone else data.draw(st.sampled_from(
                ["drop", "add", "token", "swap-t", "repeat-t", "blank", "cr",
                 "coincide", "token-last"]), label="fault")
            j = data.draw(st.integers(0, len(lines) - 1))
            if fault == "drop" and len(parts) > 1:
                parts.pop(data.draw(st.integers(0, len(parts) - 1)))
            elif fault == "add":
                parts.insert(data.draw(st.integers(0, len(parts))), "0.5")
            elif fault == "token":
                parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(tokens)
            elif fault == "token-last":
                parts[-1] = data.draw(tokens)
            elif fault == "lone-token":
                at = data.draw(st.just(-1) | st.integers(0, len(parts) - 1))
                parts[at] = data.draw(traps)
            elif fault in ("swap-t", "repeat-t"):
                other = lines[j].split(",")
                parts[0], other[0] = other[0], (other[0] if fault == "repeat-t"
                                                else parts[0])
                lines[j] = ",".join(other)
            elif fault == "cr":
                parts[-1] += "\r"
            elif fault == "coincide" and len(parts) == 1 + 4 * n and n > 1:
                parts[5:7] = parts[1:3]
            lines[k] = ",".join(parts)
            if fault == "blank":
                lines.insert(j, data.draw(st.sampled_from(["", "  ", "\t"])))
        text = ",".join(dynamics.trajectory_header(n)) + "\n" + "\n".join(lines)
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "orbit.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                ref = oracle_read_trajectory_csv(path, spec)
            except SpecParseError as err:
                with pytest.raises(SpecParseError) as ours:
                    read_trajectory_csv(path, spec)
                assert (str(ours.value), ours.value.line) == (str(err), err.line)
                return
            shared = [no for no, line in enumerate(text.splitlines(), start=1)
                      if no > 1 and line.strip()]
            for row, pos in zip(shared, ref.positions.tolist()):
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if pos[i] == pos[j]]
                if pairs:
                    with pytest.raises(SpecParseError) as ours:
                        read_trajectory_csv(path, spec)
                    i, j = pairs[0]
                    assert str(ours.value) == (f"line {row}: particles {i + 1} "
                                               f"and {j + 1} share a point")
                    return
            _assert_same_bits(read_trajectory_csv(path, spec), ref)

    @pytest.mark.parametrize("cell", [2, -1], ids=["inner", "last"])
    @pytest.mark.parametrize("token", ["1\x1f", "\x1f1", "1#", "1\x1c", "1_0",
                                       "\u0661"],
                             ids=["unit-separator-after", "unit-separator-before",
                                  "hash", "file-separator", "underscore",
                                  "arabic-indic-one"])
    def test_cells_where_numpy_and_float_may_differ(self, tmp_path, token, cell):
        # numpy's parse and float(), or numpy's tokenizer and str.splitlines,
        # could read these cells apart: the reader must still give the row
        # walk's arrays, or its message at its line
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[cell] = token
        lines[2] = ",".join(parts)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            ref = oracle_read_trajectory_csv(path, spec)
        except SpecParseError as err:
            with pytest.raises(SpecParseError) as ours:
                read_trajectory_csv(path, spec)
            assert (str(ours.value), ours.value.line) == (str(err), err.line)
        else:
            _assert_same_bits(read_trajectory_csv(path, spec), ref)

    def test_a_bench_sized_file_reads_back_to_the_bit(self, tmp_path):
        # the tampered-file test draws at most five rows; this reads a
        # 350-sample run of three charges, the largest file verify replays
        # in the check workload
        spec, pos, vel = electron_orbit()
        traj = integrate(spec, PhaseState(pos, vel),
                         IntegratorSettings(t_end=3.49, sample_interval=0.01))
        assert traj.n_samples == 350
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        got = read_trajectory_csv(path, spec)
        _assert_same_bits(got, oracle_read_trajectory_csv(path, spec))
        _assert_same_bits(got, traj)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, newline):
        spec, traj = self._short_trajectory()
        path = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:5] + "\udcff" + lines[3][5:]
        path.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(SpecParseError) as err:
            read_trajectory_csv(path, spec)
        assert str(err.value) == "line 4: byte 0xff is not UTF-8 (invalid start byte)"


def _assert_same_bits(got, ref):
    """Two trajectories hold the same arrays, dtype and shape included."""
    for a, b in ((got.t, ref.t), (got.positions, ref.positions),
                 (got.velocities, ref.velocities)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _walk_rhs(spec, w=0.0):
    """The scalar pair walk that the compiled kernel replaced, kept as the
    bit-level reference: the same floats in the same order.  Inertial
    frame only (``w`` = 0)."""
    assert w == 0.0
    n2, B = 2 * spec.n, spec.B
    e, m = spec.charges.tolist(), spec.masses.tolist()
    I, J, ee = spec.pairs
    walk = list(zip(I.tolist(), J.tolist(), ee.tolist()))

    def f(t, y):
        s = y.tolist()
        xs, ys = s[0:n2:2], s[1:n2:2]
        out = s[n2:]   # the velocities; the accelerations are appended
        fx = [vy * B * q for vy, q in zip(out[1::2], e)]
        fy = [-vx * B * q for vx, q in zip(out[0::2], e)]
        onto_second = []
        for i, j, c in walk:
            dx, dy = xs[i] - xs[j], ys[i] - ys[j]
            r3 = (dx * dx + dy * dy) ** 1.5
            cx, cy = c * dx / r3, c * dy / r3
            fx[i] += cx
            fy[i] += cy
            onto_second.append((j, cx, cy))
        for j, cx, cy in onto_second:
            fx[j] -= cx
            fy[j] -= cy
        for ax, ay, mk in zip(fx, fy, m):
            out.append(ax / mk)
            out.append(ay / mk)
        return np.array(out)

    return f


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


def _oracle_rhs(spec, w=0.0):
    assert w == 0.0
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


def _random_spec(rng, n):
    return SystemSpec(B=rng.uniform(-2.0, 2.0), charges=rng.uniform(-2.0, 2.0, n),
                      masses=rng.uniform(0.5, 2.0, n))


def _bits(a):
    """The bytes of a float array: equal bits, signed zeros included."""
    return np.asarray(a, dtype=float).tobytes()


class TestPairWalk:
    """The compiled kernel against the scalar pair walk it replaced (bit for
    bit), the numpy kernel before that and the brute-force double loop."""

    @pytest.mark.parametrize("n, neutral", [
        *(pytest.param(n, False, id=str(n)) for n in (1, 2, 3, 4, 6, 7)),
        pytest.param(4, True, id="zero-charge-B0")])
    def test_rhs_and_accelerations_match_the_oracles(self, n, neutral):
        rng = np.random.default_rng(200 + n)
        spec = _random_spec(rng, n)
        if neutral:
            spec = SystemSpec(0.0, np.where(np.arange(n) == 1, 0.0, spec.charges),
                              spec.masses)
        f, walk = _rhs(spec), _walk_rhs(spec)
        for _ in range(6):
            pos, vel = separated_state(rng, n)
            y = np.concatenate([pos.ravel(), vel.ravel()])
            out = np.array(f(0.0, y))
            assert out.shape == (4 * n,)
            assert _bits(out) == _bits(walk(0.0, y))
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
        monkeypatch.setattr(dynamics, "_rhs", _walk_rhs)
        walked = integrate(spec, state, settings)
        assert _bits(traj.t) == _bits(walked.t)
        assert _bits(traj.positions) == _bits(walked.positions)
        assert _bits(traj.velocities) == _bits(walked.velocities)
        assert traj.stats == walked.stats
        assert set(traj.stats) == {"nfev", "min_pair_distance"}
        monkeypatch.setattr(dynamics, "_rhs", _oracle_rhs)
        ref = integrate(spec, state, settings)
        assert np.array_equal(traj.t, ref.t)
        np.testing.assert_allclose(traj.positions, ref.positions, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.velocities, ref.velocities, rtol=0, atol=1e-12)


class TestCompiledKernel:
    """One code object per particle count, bound to each spec's constants."""

    def test_one_code_object_per_particle_count(self):
        rng = np.random.default_rng(500)
        a, b = _random_spec(rng, 4), _random_spec(rng, 4)
        assert (a.B, a.charges[0], a.masses[0]) != (b.B, b.charges[0], b.masses[0])
        fa, fb = _rhs(a), _rhs(b)
        assert fa.__code__ is fb.__code__
        pos, vel = separated_state(rng, 4)
        y = np.concatenate([pos.ravel(), vel.ravel()])
        assert _bits(fa(0.0, y)) == _bits(_walk_rhs(a)(0.0, y))
        assert _bits(fb(0.0, y)) == _bits(_walk_rhs(b)(0.0, y))

    def test_another_particle_count_has_its_own_code(self):
        rng = np.random.default_rng(501)
        three, four = _rhs(_random_spec(rng, 3)), _rhs(_random_spec(rng, 4))
        assert three.__code__ is not four.__code__

    def test_thirty_charges_match_the_walk(self):
        rng = np.random.default_rng(530)
        spec = _random_spec(rng, 30)
        pos, vel = separated_state(rng, 30, box=6.0)
        y = np.concatenate([pos.ravel(), vel.ravel()])
        assert _bits(_rhs(spec)(0.0, y)) == _bits(_walk_rhs(spec)(0.0, y))


def _turned(a, angle):
    """Planar vectors ``a`` of shape (nt, n, 2) turned counterclockwise by
    ``angle`` (nt,): R(angle) a."""
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    return np.stack([c * a[..., 0] - s * a[..., 1], s * a[..., 0] + c * a[..., 1]],
                    axis=-1)


class TestRotatingFrame:
    """The rotating kernel ``_rhs(spec, w)`` on the stepper loop ``_solve``
    (``oracles.integrate_in_frame``): the field f(y) + w (I x J) y and its
    samples, against the inertial run turned into the frame."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_kernel_is_the_inertial_one_plus_the_frame_term(self, n):
        rng = np.random.default_rng(700 + n)
        spec = _random_spec(rng, n)
        for w in (0.37, -2.5):
            g = _rhs(spec, w)
            pos, vel = separated_state(rng, n)
            y = np.concatenate([pos.ravel(), vel.ravel()])
            # J (x, y) = (-y, x) on each planar pair; exact in floats
            Jy = (y.reshape(-1, 2)[:, ::-1] * [-1.0, 1.0]).ravel()
            assert _bits(g(0.0, y)) == _bits(np.array(_rhs(spec)(0.0, y)) + w * Jy)
            # the list the stepper stores into a stage row
            assert all(type(x) is float for x in g(0.0, y))

    def test_one_code_object_per_particle_count_and_frame(self):
        rng = np.random.default_rng(702)
        a, b = _random_spec(rng, 3), _random_spec(rng, 3)
        ga, gb = _rhs(a, 0.5), _rhs(b, -1.0)
        assert ga.__code__ is gb.__code__
        assert ga.__code__ is not _rhs(a).__code__
        # w = 0 binds the inertial kernel, not the rotating one at zero
        assert _rhs(a, 0.0).__code__ is _rhs(a).__code__

    @pytest.mark.parametrize("case", [_spec4_state, _six_charge_state])
    def test_samples_are_the_inertial_ones_turned(self, case):
        spec, pos, vel = case()
        state = PhaseState(pos, vel)
        settings = IntegratorSettings(t_end=3.0, rel_tol=1e-12, abs_tol=1e-12,
                                      sample_interval=0.25)
        w = 0.8
        inertial = integrate(spec, state, settings)
        rotating = integrate_in_frame(spec, state, settings, w)
        assert np.array_equal(rotating.t, inertial.t)
        for a, b in ((rotating.positions, inertial.positions),
                     (rotating.velocities, inertial.velocities)):
            np.testing.assert_allclose(a, _turned(b, w * inertial.t), rtol=0, atol=1e-9)
        np.testing.assert_allclose(pair_distances(rotating.positions),
                                   pair_distances(inertial.positions), rtol=1e-9)
        assert set(rotating.stats) == {"nfev", "min_pair_distance"}

    def test_a_rigid_rotation_is_constant_in_its_frame(self):
        # the first certified Configuration II rotation of SPEC4, clockwise,
        # so its frame turns at w = +omega
        spec = SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0), masses=(1.0, 1.0, 3.0))
        sol = solve_config_II(spec)[0]
        assert sol.sense == "cw"
        spec_b, state = build_initial_state(sol, spec)
        period = 2.0 * np.pi / sol.omega
        settings = IntegratorSettings(t_end=0.25 * period,
                                      sample_interval=period / 800.0)
        traj = integrate_in_frame(spec_b, state, settings, sol.omega)
        assert np.abs(traj.positions - state.positions).max() < 1e-8
        assert np.abs(traj.velocities - state.velocities).max() < 1e-8
        assert rigidity_report(traj) < 1e-9
        inertial = integrate(spec_b, state, settings)
        assert traj.stats["nfev"] < inertial.stats["nfev"] / 3

    def test_collision_watch_runs_in_the_frame(self):
        # an attracting pair at rest falls into itself in either frame
        spec = SystemSpec(B=0.0, charges=(1.0, -1.0), masses=(1.0, 1.0))
        state = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2)))
        settings = IntegratorSettings(t_end=5.0)
        times = []
        for run in (integrate, lambda *args: integrate_in_frame(*args, 1.5)):
            with pytest.raises(CollisionError) as info:
                run(spec, state, settings)
            times.append(info.value.t)
        assert times[1] == pytest.approx(times[0], rel=1e-8)


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
