import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tempfile

import numpy as np
import pytest
from conftest import electron_orbit
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetotrio import (PhaseState, cli, dynamics, format_system,
                         load_system, pair_distance_min, solvers, solve_config_I,
                         solve_config_II, solve_config_III, solve_nbody_II,
                         write_catalog)
from magnetotrio.cli import main


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _env_with_src():
    """The environment of a subprocess that imports this checkout."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _orbit_system(tmp_path):
    spec, pos, vel = electron_orbit()
    return _write(tmp_path, "orbit.system",
                  format_system(spec, PhaseState(pos, vel)))


# an attracting pair at rest next to a distant third charge, B = 0: the
# pair falls straight into itself at t ~ 0.8
_TRIO = ("B 0\nparticle 1 1\nposition -0.5 0\nparticle -1 1\nposition 0.5 0\n"
         "particle 1 1\nposition 5 0\n")


_SPEC4 = "B 1\nparticle 3 1\nparticle -1 1\nparticle 1 3\n"
_FOUR = "B 1\nparticle 3 1\nparticle -1 1\nparticle 1 3\nparticle 2 2\n"
_WORKED = "B 1\nparticle 1 1\nparticle 4 5\nparticle 1 1\n"
_ELECTRONS_B2 = "B 2\nparticle -1 1\nparticle -1 1\nparticle -1 1\n"
_UNDERFLOW_FIVE = ("B 1.193836183348518\n"
                   "particle 1.8442306089407223 0.4058653462752546\n"
                   "particle -0.5743882417054373 0.5741059363996943\n"
                   "particle 1.8577095351189534 1.344651595690686\n"
                   "particle -1.1105559812805688 2.7669483720771604\n"
                   "particle 0.7380447836349893 2.1935673938083875\n")
_SOLVERS = {"I": solve_config_I, "II": solve_config_II, "III": solve_config_III,
            "nbody-II": solve_nbody_II}
_HEADER = "config,branch,v1,v2,v3,omega,omega3,B,residual_norm\n"

# find catalogs frozen to the byte: (system text, config, flags, catalog)
_FROZEN_CATALOGS = [
    (_SPEC4, "II", ["--grid-points", "6"], _HEADER
     + "II,0,0.54568864134100992,1,1.5,0.36345312416590236,0,1.0281968374158683,"
       "4.276513616555778e-15\n"
     "II,0,0.48397928186079453,1,2.5181349824561625,0.37324080040993129,0,"
     "1.1358286343294526,4.1234001675444121e-16\n"
     "II,0,0.4942749026566825,1,4.2273358599129987,0.34466053171955596,0,"
     "1.0373330139751706,1.172885402734905e-16\n"
     "II,0,0.4981088502656304,1,7.0966682076255516,0.33678777819565131,0,"
     "1.0110345679496875,9.9127375254815557e-17\n"
     "II,0,0.49936276867989499,1,11.913578981670913,0.33445242972789119,0,"
     "1.0034946590040965,3.6877342942207508e-16\n"
     "II,0,0.49978112412923015,1,20,0.33370945711432465,0,1.001156876040586,"
     "2.1710426780330091e-16\n"),
    (_SPEC4, "III", ["--grid-points", "6"], _HEADER
     + "III,2,5.0969599085607893,1,0.80000000000000004,9.8069135480102467,0,"
       "2.687427873565281,2.4876237134216187e-16\n"),
    (_SPEC4, "nbody-II", ["--grid-points", "4"], _HEADER
     + "nbody-II,0,0.54568864134100992,1,1.5,0.36345312416590236,0,"
       "1.0281968374158683,4.276513616555778e-15\n"
     "nbody-II,0,0.49173863441035642,1,3.556893304490063,0.35046702452160072,0,"
     "1.0571456326876418,2.8031116159390939e-16\n"
     "nbody-II,0,0.49868731961518237,1,8.4343266530174912,0.33569318978372659,0,"
     "1.0074743184575832,3.2948240235626332e-16\n"
     "nbody-II,0,0.49978112412923015,1,20,0.33370945711432465,0,"
     "1.001156876040586,2.1710426780330091e-16\n"),
    (_FOUR, "nbody-II",
     ["--grid-points", "4", "--grid-min", "1.5", "--grid-max", "6"], _HEADER
     + "nbody-II,0;v4=2.381101577952299,0.62365873196861055,1,2.0742469567831643,"
       "0.1368129732875201,0,0.22381277008517336,3.0923673258729039e-16\n"),
]


def _coincide(line):
    """A trajectory row with charge 2 moved onto charge 1."""
    parts = line.split(",")
    parts[5:7] = parts[1:3]
    return ",".join(parts)


def _spec4_system(tmp_path):
    return _write(tmp_path, "mixed.system", _SPEC4)


class TestSimulate:
    def test_writes_the_three_artifacts(self, tmp_path, capsys):
        sys_path = _orbit_system(tmp_path)
        rc = main(["simulate", sys_path, "--t-end", "5",
                   "--sample-every", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        base = str(tmp_path / "orbit")
        assert os.path.exists(base + ".trajectory.csv")
        assert os.path.exists(base + ".invariants.csv")
        with open(base + ".manifest.json") as fh:
            doc = json.load(fh)
        assert doc["command"] == "simulate"
        assert doc["settings"]["t_end"] == 5.0
        assert set(doc["outputs"]) == {"trajectory", "invariants"}

    @pytest.mark.parametrize("mode", ["newton", "derived"])
    def test_manifest_carries_the_solver_stats(self, tmp_path, mode):
        sys_path = _orbit_system(tmp_path)
        assert main(["simulate", sys_path, "--t-end", "2", "--mode", mode]) == 0
        with open(tmp_path / "orbit.manifest.json") as fh:
            stats = json.load(fh)["stats"]
        assert set(stats) == {"nfev", "min_pair_distance"}
        assert stats["nfev"] > 0
        # the electron orbit is rigid: its closest pair stays at 1.0772...
        assert stats["min_pair_distance"] == pytest.approx(1.0772173450159419, rel=1e-9)

    def test_manifest_carries_the_phase_wall_times(self, tmp_path):
        sys_path = _orbit_system(tmp_path)
        assert main(["simulate", sys_path, "--t-end", "2",
                     "--sample-every", "0.5"]) == 0
        with open(tmp_path / "orbit.manifest.json") as fh:
            doc = json.load(fh)
        phases = doc["phase_s"]
        assert set(phases) == {"integrate", "write_trajectory", "write_invariants"}
        assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())
        assert phases["integrate"] == doc["wall_time_s"]

    def test_a_byte_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        sys_path = tmp_path / "bad.system"
        sys_path.write_bytes(b"B 1\nparticle 1 1\nposition 0 \xff\n")
        rc = main(["simulate", str(sys_path)])
        assert rc == 3
        assert capsys.readouterr().err == ("magnetotrio: parse error: line 3: byte "
                                           "0xff is not UTF-8 (invalid start byte)\n")

    def test_out_dir_is_created(self, tmp_path):
        sys_path = _orbit_system(tmp_path)
        rc = main(["simulate", sys_path, "--t-end", "1",
                   "--out-dir", str(tmp_path / "runs" / "a")])
        assert rc == 0
        assert os.path.exists(tmp_path / "runs" / "a" / "orbit.trajectory.csv")

    def test_stateless_file_is_a_parse_error(self, tmp_path, capsys):
        sys_path = _spec4_system(tmp_path)
        rc = main(["simulate", sys_path])
        assert rc == 3
        assert "initial state" in capsys.readouterr().err

    @pytest.mark.parametrize("text, mode, t_end", [
        ("B 0.1\nparticle 1 1\nposition -0.5 0\n"
         "particle -1 1\nposition 0.5 0\n", "newton", "5"),
        (_TRIO, "newton", "2"),
        (_TRIO, "derived", "2"),
    ], ids=["pair-newton", "trio-newton", "trio-derived"])
    def test_collision_exit_code(self, tmp_path, capsys, text, mode, t_end):
        sys_path = _write(tmp_path, "pair.system", text)
        rc = main(["simulate", sys_path, "--t-end", t_end, "--mode", mode])
        assert rc == 2
        assert "collision" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["newton", "derived"])
    def test_charges_on_one_point_collide_at_the_start(self, tmp_path, capsys,
                                                       mode):
        # the start state is checked before the first RHS call, which
        # would divide by a zero pair distance
        sys_path = _write(tmp_path, "touch.system",
                          "B 1\nparticle 1 1\nposition 0 0\nvelocity 0 1\n"
                          "particle 1 1\nposition 0 0\nvelocity 1 0\n"
                          "particle 1 1\nposition 3 0\n")
        rc = main(["simulate", sys_path, "--mode", mode])
        assert rc == 2
        assert capsys.readouterr().err == (
            "magnetotrio: collision: particles 1 and 2 within 0.000e+00 of "
            "each other at t = 0\n")

    def test_overflowing_invariants_print_without_warnings(self, tmp_path,
                                                           capsys):
        # the invariant table of this charge overflows: its drifts print as
        # nan, as in verify, with no warning (which this suite turns into an
        # error)
        sys_path = _write(tmp_path, "big.system",
                          "B 1e300\nparticle 2 0.5\nposition 1e154 1\n")
        rc = main(["simulate", sys_path, "--t-end", "0.5",
                   "--sample-every", "0.5"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert "  H drift 0.000e+00, Lz drift nan\n" in out

    @pytest.mark.parametrize("masses", [("1e-200", "1e-200", "1"),
                                        ("1e-200", "1e200", "1")],
                             ids=["m1-m2-underflows", "nu1-nu2-underflows"])
    def test_derived_route_refuses_masses_out_of_range(self, tmp_path, capsys,
                                                       masses):
        # a product of masses past the float range would end the run in a
        # ZeroDivisionError; the species is refused before any step
        sys_path = _write(tmp_path, "w.system", "B 1\n" + "".join(
            f"particle 1 {m}\nposition {x} {y}\n"
            for m, (x, y) in zip(masses, ((0, 0), (1, 0), (0, 1)))))
        rc = main(["simulate", sys_path, "--mode", "derived"])
        assert (rc, capsys.readouterr().err) == (
            1, "magnetotrio: error: the masses' products leave the float "
               "range of the Jacobi frame\n")
        assert not (tmp_path / "w.trajectory.csv").exists()

    @pytest.mark.parametrize("mode", ["newton", "derived"])
    def test_step_underflow_exits_1(self, tmp_path, capsys, monkeypatch, mode):
        # with a collision fraction of 0 the pair of the trio falls into
        # itself, and the stepper cannot shrink its step any further
        monkeypatch.setattr(dynamics, "COLLISION_FRACTION", 0.0)
        sys_path = _write(tmp_path, "trio.system", _TRIO)
        rc = main(["simulate", sys_path, "--t-end", "2", "--mode", mode])
        assert rc == 1
        assert capsys.readouterr().err == (
            "magnetotrio: error: Required step size is less than spacing "
            "between numbers.\n")

    def test_spent_step_budget_exits_1(self, tmp_path, capsys, monkeypatch):
        # masses (1e-200, 1, 1e-200) pass the Jacobi frame's range check, and
        # the derived stepper crawls on at steps far above 10 ulp(t); only
        # the step budget ends it.  The Newton route underflows at once.
        monkeypatch.setattr(dynamics, "MAX_STEPS", 1000)
        sys_path = _write(tmp_path, "crawl.system", "B 1\n" + "".join(
            f"particle 1 {m}\nposition {x} {y}\n"
            for m, (x, y) in zip(("1e-200", "1", "1e-200"), ((0, 0), (1, 0), (0, 1)))))
        start = time.monotonic()
        rc = main(["simulate", sys_path, "--mode", "derived", "--t-end", "1"])
        assert time.monotonic() - start < 30.0
        err = capsys.readouterr().err
        assert rc == 1
        assert re.fullmatch(r"magnetotrio: error: the step budget of 1000 accepted "
                            r"steps is spent at t = \S+, before t_end = 1\n", err)
        assert not (tmp_path / "crawl.trajectory.csv").exists()
        rc = main(["simulate", sys_path, "--mode", "newton", "--t-end", "1"])
        assert (rc, capsys.readouterr().err) == (
            1, "magnetotrio: error: Required step size is less than spacing "
               "between numbers.\n")

    # sampled runs interpolate their rows in batched passes, which must not
    # add a warning line either
    @pytest.mark.parametrize("sampling", [[], ["--sample-every", "0.01"]],
                             ids=["steps", "sampled"])
    def test_overflowing_pair_distance_exits_1(self, tmp_path, capsys, sampling):
        # a charge of mass 1e-300 flies off until the cube of its distance
        # overflows the float range; that is a usage error, not a traceback
        sys_path = _write(tmp_path, "light.system",
                          "B 0\nparticle 1 1e-300\nposition 0 0\n"
                          "particle 1 1\nposition 1 0\n")
        rc = main(["simulate", sys_path, "--t-end", "1", *sampling])
        assert rc == 1
        err = capsys.readouterr().err
        head, _, t = err.partition(" after t = ")
        assert head == ("magnetotrio: error: the cube of a pair distance "
                        "overflows the float range in the step")
        assert t.endswith("\n") and 0.0 <= float(t) < 1.0
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sampling", [[], ["--sample-every", "0.01"]],
                             ids=["steps", "sampled"])
    def test_overflowing_pair_distance_exits_1_derived(self, tmp_path, capsys,
                                                       sampling):
        # the same runaway with a third charge: the Jacobi route refuses it
        # as the Newton route does, not with samples 1e150 away
        sys_path = _write(tmp_path, "light.system",
                          "B 0\nparticle 1 1e-300\nposition 0 0\n"
                          "particle 1 1\nposition 1 0\n"
                          "particle 1 1\nposition 0 1\n")
        rc = main(["simulate", sys_path, "--t-end", "1", "--mode", "derived",
                   *sampling])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "magnetotrio: error: the cube of a pair distance overflows the "
            "float range in the step after t = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["newton", "derived"])
    @pytest.mark.parametrize("dt", ["0", "-1", "nan"])
    def test_sample_interval_must_be_positive(self, tmp_path, capsys, mode, dt):
        sys_path = _orbit_system(tmp_path)
        rc = main(["simulate", sys_path, "--t-end", "1", "--mode", mode,
                   "--sample-every", dt])
        assert rc == 1
        assert "sample_interval must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["newton", "derived"])
    @pytest.mark.parametrize("t_end", ["nan", "inf"])
    def test_t_end_must_be_finite(self, tmp_path, mode, t_end):
        # in a subprocess with a timeout: an unchecked infinite horizon
        # integrates forever
        sys_path = _orbit_system(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "magnetotrio.cli", "simulate", sys_path,
             "--t-end", t_end, "--mode", mode],
            env=_env_with_src(), timeout=20, capture_output=True, text=True)
        assert done.returncode == 1
        assert "t_end must be finite" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("flag, value, mode", [
        ("--rel-tol", "nan", "newton"), ("--rel-tol", "-1", "newton"),
        ("--abs-tol", "0", "newton"), ("--abs-tol", "inf", "derived")])
    def test_tolerances_must_be_finite_and_positive(self, tmp_path, flag, value,
                                                    mode):
        # in a subprocess with a timeout: a NaN tolerance never ends a step
        sys_path = _orbit_system(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "magnetotrio.cli", "simulate", sys_path,
             "--t-end", "1", "--mode", mode, flag, value],
            env=_env_with_src(), timeout=20, capture_output=True, text=True)
        assert done.returncode == 1
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite and positive" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("sampling", [[], ["--sample-every", "0.5"]],
                             ids=["unsampled", "sampled"])
    @pytest.mark.parametrize("t_end", ["-1", "0"])
    def test_t_end_must_come_after_the_start(self, tmp_path, capsys, sampling,
                                             t_end):
        sys_path = _orbit_system(tmp_path)
        rc = main(["simulate", sys_path, f"--t-end={t_end}"] + sampling)
        assert rc == 1
        assert "must come after the start time" in capsys.readouterr().err

    def test_sampling_grid_ceiling(self, tmp_path, capsys):
        sys_path = _orbit_system(tmp_path)
        rc = main(["simulate", sys_path, "--t-end", "1",
                   "--sample-every", "1e-300"])
        assert rc == 1
        assert "exceeds" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "nope.system")])
        assert rc == 1

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        sys_path = _write(tmp_path, "bad.system",
                          "B 1\nparticle 1 1\nparticle oops 1\n")
        rc = main(["simulate", sys_path])
        assert rc == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("B 1\nparticle 1 1\nposition nan 0\n", 3),
        ("B inf\nparticle 1 1\nposition 0 0\n", 1),
        ("B 1\nparticle nan 1\nposition 0 0\n", 2),
        ("B 1\nparticle 1 1\nposition 0 0\nvelocity 0 -inf\n", 4),
    ], ids=["position-nan", "field-inf", "charge-nan", "velocity-inf"])
    def test_non_finite_number_reports_line(self, tmp_path, capsys, text, line):
        sys_path = _write(tmp_path, "bad.system", text)
        rc = main(["simulate", sys_path])
        assert rc == 3
        assert f"line {line}: non-finite" in capsys.readouterr().err

    def test_transformed_frame_mode(self, tmp_path):
        sys_path = _orbit_system(tmp_path)
        rc = main(["simulate", sys_path, "--t-end", "1", "--mode", "derived",
                   "--out-dir", str(tmp_path / "jac")])
        assert rc == 0


class TestFindAndVerify:
    def test_round_trip(self, tmp_path):
        """find --emit-states, then simulate each state, then verify."""
        sys_path = _spec4_system(tmp_path)
        rc = main(["find", sys_path, "--config", "II", "--grid-points", "2",
                   "--emit-states", "--out-dir", str(tmp_path / "cat")])
        assert rc == 0
        catalog = tmp_path / "cat" / "mixed.II.catalog.csv"
        assert catalog.exists()
        rows = catalog.read_text().splitlines()
        assert rows[0].startswith("config,branch,")
        assert len(rows) >= 3      # header + 2 grid points
        states = sorted(glob.glob(str(tmp_path / "cat" / "mixed.II-*.system")))
        assert len(states) == len(rows) - 1
        for state_file in states:
            rc = main(["simulate", state_file, "--t-end", "5",
                       "--sample-every", "0.25"])
            assert rc == 0
            traj = state_file[:-len(".system")] + ".trajectory.csv"
            rc = main(["verify", traj, state_file])
            assert rc == 0

    @pytest.mark.parametrize("scale", [1e-6, 1.0])
    def test_emitted_rotations_replay_at_every_scale(self, tmp_path, scale):
        # FOUR's charges times 1e-6 emit a rotation whose charges start about
        # 2e-12 apart, with a period near 5e-11; the collision watch is
        # relative, so it replays over a quarter period as FOUR's does
        sys_path = _write(tmp_path, "four.system", "B 1\n" + "".join(
            f"particle {scale * e!r} {m}\n" for e, m in ((3, 1), (-1, 1), (1, 3), (2, 2))))
        assert main(["find", sys_path, "--config", "nbody-II", "--grid-min", "1.5",
                     "--grid-max", "6", "--grid-points", "4", "--emit-states"]) == 0
        with open(tmp_path / "four.nbody-II.catalog.csv") as fh:
            omegas = [float(row["omega"]) for row in csv.DictReader(fh)]
        assert omegas
        for k, omega in enumerate(omegas):
            state_file = str(tmp_path / f"four.nbody-II-{k:03d}.system")
            t_end = 0.25 * 2.0 * math.pi / omega
            assert main(["simulate", state_file, "--t-end", repr(t_end),
                         "--sample-every", repr(t_end / 50)]) == 0
            traj = state_file[:-len(".system")] + ".trajectory.csv"
            assert main(["verify", traj, state_file, "--tol", "1e-6"]) == 0

    def test_root_far_below_the_scale_speed(self, tmp_path):
        # the certified rotation at v1 ~ 0.0076 of the solver tests
        sys_path = _write(tmp_path, "far.system",
                          "B 1\nparticle 2.75 1.18\nparticle -0.36 0.67\n"
                          "particle 2.09 0.68\n")
        rc = main(["find", sys_path, "--config", "II", "--grid-min", "2.4",
                   "--grid-max", "2.4", "--grid-points", "1"])
        assert rc == 0
        rows = (tmp_path / "far.II.catalog.csv").read_text().splitlines()
        assert len(rows) == 2 and float(rows[1].split(",")[2]) < 10**-1.5

    @pytest.mark.parametrize("text, config, flags, grid", [
        # Configuration I's default grids: an identical pair's separation
        # from its minimum to four times that, else v1 over [0.5, 2]
        (_ELECTRONS_B2, "I", [], lambda spec: np.geomspace(
            pair_distance_min(spec), 4 * pair_distance_min(spec), 12)),
        (_WORKED, "I", [], lambda spec: np.geomspace(0.5, 2.0, 12)),
        (_SPEC4, "II", ["--grid-min", "1.5", "--grid-max", "4.0",
                        "--grid-points", "2"],
         lambda spec: np.geomspace(1.5, 4.0, 2)),
        (_SPEC4, "III", ["--grid-min", "0.3", "--grid-max", "0.8",
                         "--grid-points", "3"],
         lambda spec: np.geomspace(0.3, 0.8, 3)),
        (_FOUR, "nbody-II", ["--grid-min", "1.5", "--grid-max", "6",
                             "--grid-points", "4"],
         lambda spec: np.geomspace(1.5, 6.0, 4)),
    ], ids=["I-electrons", "I-worked", "II", "III", "nbody-II"])
    def test_catalog_matches_library_call(self, tmp_path, text, config, flags, grid):
        sys_path = _write(tmp_path, "species.system", text)
        rc = main(["find", sys_path, "--config", config, *flags])
        assert rc == 0
        catalog = (tmp_path / f"species.{config}.catalog.csv").read_text()
        spec, _ = load_system(sys_path)
        buf = io.StringIO()
        write_catalog(_SOLVERS[config](spec, grid(spec)), buf)
        assert catalog == buf.getvalue()

    @pytest.mark.parametrize("text, config, flags, catalog", _FROZEN_CATALOGS,
                             ids=["II", "III", "nbody-II-3", "nbody-II-4"])
    def test_catalog_bytes_frozen(self, tmp_path, text, config, flags, catalog):
        sys_path = _write(tmp_path, "species.system", text)
        assert main(["find", sys_path, "--config", config, *flags]) == 0
        assert (tmp_path / f"species.{config}.catalog.csv").read_text() == catalog

    def test_small_charges_certify_without_a_collision(self, tmp_path, capsys):
        # FOUR's charges times 1e-6 start the root's charges 3 and 4 about
        # 2e-12 apart; the collision watch and the rigidity gate are both
        # relative, and the row is FOUR's with omega times 1e12 and B times
        # 1e18
        sys_path = _write(tmp_path, "small.system",
                          "B 1\nparticle 3e-6 1\nparticle -1e-6 1\n"
                          "particle 1e-6 3\nparticle 2e-6 2\n")
        assert main(["find", sys_path, "--config", "nbody-II", "--grid-points",
                     "4", "--grid-min", "1.5", "--grid-max", "6"]) == 0
        assert capsys.readouterr().err == ""
        small = (tmp_path / "small.nbody-II.catalog.csv").read_text().splitlines()
        unit = _FROZEN_CATALOGS[-1][3].splitlines()
        assert small[0] == unit[0] and len(small) == len(unit) == 2
        row, ref = small[1].split(","), unit[1].split(",")
        assert row[:2] == ref[:2]
        for k, factor in ((2, 1.0), (3, 1.0), (4, 1.0), (5, 1e12), (7, 1e18)):
            assert float(row[k]) == pytest.approx(factor * float(ref[k]), rel=1e-12)

    def test_stepper_underflow_is_a_rejected_root(self, tmp_path, capsys):
        # one default-grid root of this five-charge species stops the
        # rigidity integration on a step underflow: a rejected root (the
        # search then finds no certified row, exit 4), not an error (exit 1)
        sys_path = _write(tmp_path, "five.system", _UNDERFLOW_FIVE)
        assert main(["find", sys_path, "--config", "nbody-II"]) == 4
        err = capsys.readouterr().err
        assert "v5=2.40229: v1=0.9519600853 (rigidity integration stopped" in err

    @pytest.mark.parametrize("screen", ["on", "off"])
    def test_manifest_counts_how_the_rigidity_gate_decided(self, tmp_path,
                                                           monkeypatch, screen):
        # each row of every search passed the rigidity gate on the spectral
        # screen or by integrating; the manifest counts both, with the
        # largest growth, and times the find's phases
        if screen == "off":
            # a margin this small leaves every row to the integration
            monkeypatch.setattr(solvers, "_SCREEN_MARGIN", 1e-300)
        sys_path = _write(tmp_path, "four.system", _FOUR)
        assert main(["find", sys_path, "--config", "nbody-II", "--grid-points",
                     "4", "--grid-min", "1.5", "--grid-max", "6"]) == 0
        assert main(["find", _spec4_system(tmp_path), "--config", "II",
                     "--grid-points", "2", "--emit-states"]) == 0
        for stem in ("four.nbody-II", "mixed.II"):
            rows = (tmp_path / f"{stem}.catalog.csv").read_text().splitlines()[1:]
            with open(tmp_path / f"{stem}.manifest.json") as fh:
                doc = json.load(fh)
            stats = doc["stats"]
            assert set(stats) == {"rigidity_screened", "rigidity_integrated",
                                  "max_growth"}
            assert stats["rigidity_screened"] + stats["rigidity_integrated"] == len(rows) > 0
            assert stats["rigidity_integrated"] == (0 if screen == "on" else len(rows))
            assert 0.0 < stats["max_growth"] < 10.0
            phases = doc["phase_s"]
            assert set(phases) == {"solve", "write_catalog", "write_states"}
            assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())
            assert phases["solve"] == doc["wall_time_s"]

    def test_degenerate_grid_solves_each_value_once(self, tmp_path, capsys):
        sys_path = _spec4_system(tmp_path)
        rc = main(["find", sys_path, "--config", "II", "--grid-min", "2",
                   "--grid-max", "2", "--grid-points", "3", "--emit-states"])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "found 1 solution(s) on 1 grid point(s)")
        rows = (tmp_path / "mixed.II.catalog.csv").read_text().splitlines()
        assert len(rows) == 2
        assert len(glob.glob(str(tmp_path / "mixed.II-*.system"))) == 1

    def test_no_solution_exit_code(self, tmp_path, capsys):
        sys_path = _write(tmp_path, "equal.system",
                          "B -2\nparticle -1 1\nparticle -1 1\nparticle -1 1\n")
        rc = main(["find", sys_path, "--config", "II"])
        assert rc == 4
        assert "no solution" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["find", "--config", "II", "--grid-points", "-1"],
         "argument --grid-points: must be at least 1"),
        (["find", "--config", "II", "--grid-points", "0"],
         "argument --grid-points: must be at least 1"),
        (["find", "--config", "II", "--grid-min", "nan"],
         "grid bounds must satisfy"),
        (["find", "--config", "II", "--grid-max", "inf"],
         "grid bounds must satisfy"),
        (["brackets", "--samples", "0"], "argument --samples: must be at least 1"),
        (["brackets", "--samples", "-2"], "argument --samples: must be at least 1"),
        (["brackets", "--seed", "-1"], "argument --seed: must be at least 0"),
        (["brackets", "--seed", "1.5"], "argument --seed: invalid seed value"),
        (["verify", "--tol", "nan"], "argument --tol: must be finite and positive"),
        (["verify", "--tol", "inf"], "argument --tol: must be finite and positive"),
        (["verify", "--tol", "-1"], "argument --tol: must be finite and positive"),
        (["verify", "--tol", "0"], "argument --tol: must be finite and positive"),
    ], ids=["points-negative", "points-zero", "min-nan", "max-inf",
            "samples-zero", "samples-negative", "seed-negative",
            "seed-fraction", "tol-nan", "tol-inf", "tol-negative", "tol-zero"])
    def test_flag_out_of_domain_exits_1(self, tmp_path, capsys, argv, message):
        argv = argv[:1] + [_spec4_system(tmp_path)] + argv[1:]
        try:
            rc = main(argv)
        except SystemExit as ex:    # argparse usage errors
            rc = ex.code
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_grid_points_ceiling(self, tmp_path, capsys):
        # past numpy's own size check, which raises before it allocates
        rc = main(["find", _spec4_system(tmp_path), "--config", "II",
                   "--grid-points", "100000000000000000000"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "magnetotrio: error: 100000000000000000000 grid points exceed the "
            "ceiling of 1000000\n")

    @pytest.mark.parametrize("text, message", [
        ("B 0\nparticle -1 1\nparticle -1 1\nparticle -1 1\n",
         "Configuration I of an identical pair needs a nonzero field"),
        ("B 1\nparticle 0 1\nparticle 0 1\nparticle 1 1\n",
         "Configuration I needs a charged pair"),
    ], ids=["no-field", "uncharged-pair"])
    @pytest.mark.parametrize("bounds", [[], ["--grid-min", "1", "--grid-max", "2"]],
                             ids=["default-grid", "explicit-grid"])
    def test_identical_pair_usage_errors(self, tmp_path, capsys, text, message,
                                         bounds):
        # refused before any division, whatever grid was asked for
        sys_path = _write(tmp_path, "pair.system", text)
        rc = main(["find", sys_path, "--config", "I", *bounds])
        assert rc == 1
        assert capsys.readouterr().err == f"magnetotrio: error: {message}\n"

    @pytest.mark.parametrize("text, config, message", [
        ("B 1\nparticle 1 1\nparticle 0 1\nparticle 1 3\n", config,
         "collinear rotations need a charged second particle "
         "(the field closed form divides by e2)")
        for config in ("II", "III", "nbody-II")
    ] + [
        (text, "I", "the rotating pair needs same-sign charges (v2^2 = v1^2 e2/e1)")
        for text in ("B 1\nparticle 0 1\nparticle 1 1\nparticle 1 1\n",
                     "B 1\nparticle 1 1\nparticle -1 1\nparticle 1 1\n")
    ] + [
        # products of these charges overflow the sextic's coefficients to inf
        ("B 1\nparticle 1e103 1\nparticle -1e103 1\nparticle 1e103 3\n", config,
         "the elimination sextic's coefficients overflow")
        for config in ("II", "III", "nbody-II")
    ], ids=["II-uncharged-second", "III-uncharged-second",
            "nbody-II-uncharged-second", "I-uncharged-first", "I-opposite-pair",
            "II-sextic-overflow", "III-sextic-overflow", "nbody-II-sextic-overflow"])
    def test_spec_no_grid_point_serves_exits_1(self, tmp_path, capsys, text,
                                               config, message):
        # refused before the sweep, not reported as "no solution" (exit 4)
        sys_path = _write(tmp_path, "refused.system", text)
        assert main(["find", sys_path, "--config", config]) == 1
        assert capsys.readouterr().err == f"magnetotrio: error: {message}\n"

    def test_equal_charges_of_unequal_masses(self, tmp_path, capsys):
        sys_path = _write(tmp_path, "pair.system",
                          "B 1\nparticle 1 1\nparticle 1 2\nparticle 1 1\n")
        assert main(["find", sys_path, "--config", "I"]) == 4
        err = capsys.readouterr().err
        assert "rotates about a resting third charge only as an identical pair" in err
        assert "solve_config_I" not in err

    @given(particles=st.lists(st.tuples(st.integers(-2, 3), st.integers(1, 3)),
                              min_size=3, max_size=4),
           B=st.sampled_from([-1, 0, 1, 2]),
           config=st.sampled_from(["I", "II", "III", "nbody-II"]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_find_exits_with_a_code_on_small_species(self, particles, B, config):
        # uncharged particles, a zero field, wrong particle counts and the
        # equal charge-to-mass no-go each end in a usage error (1) or "no
        # solution" (4), never in a traceback
        text = f"B {B}\n" + "".join(f"particle {e} {m}\n" for e, m in particles)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "species.system")
            with open(path, "w") as fh:
                fh.write(text)
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(err)):
                rc = main(["find", path, "--config", config, "--grid-points", "2"])
        assert rc in (0, 1, 4)
        assert err.getvalue().count("\n") == (rc != 0)

    def test_coincident_trial_speeds_warn_nothing(self, tmp_path, capsys):
        # on the default grid a Newton trial point of this species puts two
        # speeds on one value; it is rejected as a non-root without a
        # numpy division by zero (warnings are errors under pytest)
        sys_path = _write(tmp_path, "mixed4.system",
                          "B 2\nparticle -1 1\nparticle 3 3\nparticle -2 1\n"
                          "particle 0 3\n")
        assert main(["find", sys_path, "--config", "nbody-II"]) == 4
        assert capsys.readouterr().err == (
            "magnetotrio: no solution: no collinear rigid rotation on the "
            "sampled grid\n")

    @pytest.mark.parametrize("config", ["II", "nbody-II"])
    def test_grid_value_equal_to_v2_is_no_solution(self, tmp_path, config):
        # v3 = v2 = 1 puts two charges on one point; in a subprocess, so a
        # traceback would reach stderr
        sys_path = _spec4_system(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "magnetotrio.cli", "find", sys_path,
             "--config", config, "--grid-min", "1", "--grid-max", "1"],
            env=_env_with_src(), timeout=60, capture_output=True, text=True)
        assert done.returncode == 4
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("magnetotrio: no solution: no ")

    @pytest.mark.parametrize("value", ["1e52", "1e200"])
    @pytest.mark.parametrize("config, name, sign", [
        ("II", "Configuration-II", ""), ("III", "Configuration-III", "-"),
        ("nbody-II", "collinear rigid", "")])
    def test_overflowing_sextic_is_a_skipped_point(self, tmp_path, capsys,
                                                   config, name, sign, value):
        # at 1e52 the sextic's terms overflow to +inf and -inf, at 1e200 a
        # power of v3 overflows; the point is degenerate, not a traceback
        sys_path = _spec4_system(tmp_path)
        assert main(["find", sys_path, "--config", config, "--grid-min", value,
                     "--grid-max", value, "--grid-points", "1"]) == 4
        assert capsys.readouterr().err == (
            f"magnetotrio: no solution: no {name} rotation on the sampled "
            "grid: the elimination sextic overflows at (v2, v3) = "
            f"(1, {sign}{float(value):.6g})\n")

    @pytest.mark.parametrize("charges, flags, code, message", [
        # omega**2 in the balance rows of the III roots at v1 ~ v2 overflows:
        # uncertified roots
        ("0 1 1.2602551660980934e-180",
         ["--config", "III", "--grid-min", "1", "--grid-max", "1",
          "--grid-points", "1"],
         4, "no solution: no Configuration-III rotation on the sampled grid. "
         "Algebraic roots exist but fail certification: v3=1: v1=0.9999999984 "
         "(speed ordering outside the sector, mirror rotation sense, relative "
         "residual inf, Newton imbalance inf); v3=1: v1=1.000000007 (relative "
         "residual inf, Newton imbalance inf)\n"),
        # kappa**2 of the field closed form overflows: a degenerate point
        ("1e200 2e200 1", ["--config", "I", "--grid-points", "2"], 4,
         "no solution: no Configuration-I rotation on the sampled grid: "
         "collinear field closed form leaves the float range\n"),
        # the sextic's coefficients overflow: refused before the sweep
        *(("1e200 2e200 1", ["--config", config], 1,
           "error: the elimination sextic's coefficients overflow\n")
          for config in ("II", "III", "nbody-II")),
        # the identical pair's balance rows overflow: uncertified roots
        ("1e200 1e200 1", ["--config", "I", "--grid-points", "2"], 4,
         "no solution: no Configuration-I rotation on the sampled grid. "
         "Algebraic roots exist but fail certification: v3=0: v1=5e+199 "
         "(relative residual inf, Newton imbalance inf)"),
    ], ids=["III-tiny-third", "I-huge", "II-huge", "III-huge", "nbody-II-huge",
            "I-huge-pair"])
    def test_overflowing_closed_forms_exit_with_a_code(self, tmp_path, charges,
                                                       flags, code, message):
        # in a subprocess with warnings as errors, so a traceback or a numpy
        # RuntimeWarning would reach stderr
        sys_path = _write(tmp_path, "huge.system", "B 1\n" + "".join(
            f"particle {e} 1\n" for e in charges.split()))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "magnetotrio", "find", sys_path,
             "--out-dir", str(tmp_path), *flags],
            env=_env_with_src(), timeout=60, capture_output=True, text=True)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr
        assert done.stderr.startswith("magnetotrio: " + message)
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("B, flags, code, message", [
        ("1e200", [], 1, "error: Configuration I of an identical pair at "
         "B = 1e+200: e B^2 or the critical cube"),
        ("1e-200", [], 1, "error: Configuration I of an identical pair at "
         "B = 1e-200: e B^2 or the critical cube"),
        ("1", ["--grid-min", "1e200", "--grid-max", "1e200"], 4,
         "no solution: no Configuration-I rotation on the sampled grid: "
         "separation 1e+200 leaves the float range of the pair discriminant"),
        ("1", ["--grid-min", "1e-200", "--grid-max", "1e-200"], 4,
         "no solution: no Configuration-I rotation on the sampled grid: "
         "separation 1e-200 leaves the float range of the pair discriminant"),
    ], ids=["huge-field", "tiny-field", "huge-separation", "tiny-separation"])
    def test_identical_pair_out_of_float_range_exits_with_a_code(
            self, tmp_path, capsys, B, flags, code, message):
        # in process, where the suite turns a numpy RuntimeWarning into an
        # error; an OverflowError would escape main as a traceback
        sys_path = _write(tmp_path, "pair.system",
                          f"B {B}\nparticle 1 1\nparticle 1 1\nparticle 2 1\n")
        rc = main(["find", sys_path, "--config", "I", "--grid-points", "1",
                   "--out-dir", str(tmp_path), *flags])
        out, err = capsys.readouterr()
        assert (rc, out) == (code, "")
        assert err.startswith("magnetotrio: " + message)
        assert err.count("\n") == 1

    def test_overflowing_newton_trial_is_no_traceback(self, tmp_path):
        # a damped-Newton step on this species tries v4 ~ 1e152, where
        # (v2 - v4)^3 overflows; backtracking halves such a step
        sys_path = _write(tmp_path, "far.system",
                          "B 0.9460724511932017\n"
                          "particle 0.49642769234506934 1.504749966827686\n"
                          "particle -0.22299819532769366 1.6376868244332188\n"
                          "particle 2.4233129008102505 2.6327128534887874\n"
                          "particle -1.2631391977133124 1.3649988752255569\n"
                          "particle -2.106210409495327 0.5746180706011068\n")
        done = subprocess.run(
            [sys.executable, "-m", "magnetotrio.cli", "find", sys_path,
             "--config", "nbody-II"],
            env=_env_with_src(), timeout=120, capture_output=True, text=True)
        assert done.returncode in (0, 4), done.stderr
        assert "Traceback" not in done.stderr

    def test_identical_pair_catalog(self, tmp_path):
        sys_path = _write(tmp_path, "pair.system",
                          "B 2\nparticle -1 1\nparticle -1 1\nparticle -1 1\n")
        rc = main(["find", sys_path, "--config", "I", "--grid-points", "3"])
        assert rc == 0
        rows = (tmp_path / "pair.I.catalog.csv").read_text().splitlines()[1:]
        assert rows and all(r.startswith("I,") for r in rows)

    def test_verify_flags_tampering(self, tmp_path, capsys):
        sys_path = _orbit_system(tmp_path)
        assert main(["simulate", sys_path, "--t-end", "2",
                     "--sample-every", "0.5"]) == 0
        traj = tmp_path / "orbit.trajectory.csv"
        lines = traj.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[1] = repr(float(parts[1]) + 0.05)
        lines[-1] = ",".join(parts)
        traj.write_text("\n".join(lines) + "\n")
        rc = main(["verify", str(traj), sys_path])
        assert rc == 5
        assert "FAILED" in capsys.readouterr().out

    def test_verify_truncated_trajectory(self, tmp_path, capsys):
        sys_path = _orbit_system(tmp_path)
        assert main(["simulate", sys_path, "--t-end", "2",
                     "--sample-every", "0.5"]) == 0
        traj = tmp_path / "orbit.trajectory.csv"
        lines = traj.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-2])
        traj.write_text("\n".join(lines) + "\n")
        rc = main(["verify", str(traj), sys_path])
        assert rc == 3
        assert "truncated" in capsys.readouterr().err

    def test_verify_a_byte_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        sys_path = _orbit_system(tmp_path)
        assert main(["simulate", sys_path, "--t-end", "2",
                     "--sample-every", "0.5"]) == 0
        capsys.readouterr()
        traj = tmp_path / "orbit.trajectory.csv"
        data = traj.read_bytes().split(b"\n")
        data[2] = b"\xff" + data[2]
        traj.write_bytes(b"\n".join(data))
        rc = main(["verify", str(traj), sys_path])
        assert rc == 3
        assert capsys.readouterr().err == ("magnetotrio: parse error: line 3: byte "
                                           "0xff is not UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("tamper, message", [
        (lambda lines: lines.__setitem__(2, "nan" + lines[2][lines[2].index(","):]),
         "line 3: non-finite"),
        (lambda lines: lines.__setitem__(3, lines[2]), "line 4: t ="),
        (lambda lines: lines.__setitem__(3, _coincide(lines[3])),
         "line 4: particles 1 and 2 share a point"),
        (lambda lines: lines.__delitem__(slice(1, None)),
         "trajectory file has a header but no rows"),
    ], ids=["nan-cell", "repeated-t", "coincident-pair", "header-only"])
    def test_verify_rejects_bad_rows(self, tmp_path, capsys, tamper, message):
        sys_path = _orbit_system(tmp_path)
        assert main(["simulate", sys_path, "--t-end", "2",
                     "--sample-every", "0.5"]) == 0
        traj = tmp_path / "orbit.trajectory.csv"
        lines = traj.read_text().splitlines()
        tamper(lines)
        traj.write_text("\n".join(lines) + "\n")
        rc = main(["verify", str(traj), sys_path])
        assert rc == 3
        assert message in capsys.readouterr().err


    def test_verify_fails_overflowing_invariants(self, tmp_path, capsys):
        # a stored three-charge trajectory checked against charges whose
        # invariants overflow: the drifts print as nan or inf and fail the
        # gate, with no warning (which this suite turns into an error)
        sys_path = _orbit_system(tmp_path)
        assert main(["simulate", sys_path, "--t-end", "2",
                     "--sample-every", "0.5"]) == 0
        capsys.readouterr()
        huge = _write(tmp_path, "huge.system", "B 1\n" + "particle 1e160 1\n" * 3)
        rc = main(["verify", str(tmp_path / "orbit.trajectory.csv"), huge])
        out, err = capsys.readouterr()
        assert (rc, err) == (5, "")
        failed = dict(re.findall(r"^  (\S+)\s+max drift (\S+)  FAIL$", out, re.M))
        assert failed["H"] == failed["Casimir"] == "nan"
        assert out.endswith("FAILED: H, Kx, Ky, Lz, Casimir\n")


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--t-end", "1"], "orbit.manifest.json"),
    (["find", "--config", "I"], "orbit.I.manifest.json"),
], ids=["simulate", "find"])
def test_manifest_keys_and_library_versions(tmp_path, argv, name):
    assert main([argv[0], _orbit_system(tmp_path), *argv[1:]]) == 0
    with open(tmp_path / name) as fh:
        doc = json.load(fh)
    assert set(doc) == {"tool", "version", "versions", "command", "inputs",
                        "settings", "outputs", "wall_time_s", "stats", "phase_s"}
    assert doc["versions"] == {"python": "%d.%d.%d" % sys.version_info[:3],
                               "numpy": np.__version__}


_HELIUM = "B 1\nparticle -2 4\nparticle 1 1\nparticle 1 1\n"

# sha256 of every file a search writes but its manifest, and of its
# standard error, as recorded at commit 1eb95bb; HELIUM's standard error
# names the gates its uncertified roots fail
_FIND_DIGESTS = {
    "spec4": (0, {
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "spec4.II-000.system": "9ed40207e10309166ad779a6ab608504f7b83b3989f7bf41388a90fe83d65dc2",
        "spec4.II-001.system": "30727c70b54d73b7b2e70aeda4dd36662642c6a9cfbda500d92a29a216bbe2da",
        "spec4.II-002.system": "bed3ecdef672be0b55cbb7268a3bb72c6cbcd2fd055160519eddf97862e2faa6",
        "spec4.II-003.system": "b1bf4a442e322c216544b3c075427988d3d36cae1e84a606cb620415ae47ed80",
        "spec4.II-004.system": "77aceced138e73f56d516b7dd8e00d69dbb064fc0ddf69ce853264b59d721617",
        "spec4.II-005.system": "38ec0030bdd2f01ea8273df5bcaa9380623e800ff75434604b038e932aea8af4",
        "spec4.II.catalog.csv": "a39ed9db8bb9234168f16e97785294512fb0ebe2c2522e83dc1b56ffe0035d1b"}),
    "four": (0, {
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "four.nbody-II-000.system": "bd30929653885135f8678fe828c14f1882d7d5fc4286caf388c42e5291e54a41",
        "four.nbody-II.catalog.csv": "1323728a46356491f1189439ce6547656948537c22e9bc28bad36c3bdf767bed"}),
    "helium": (4, {
        "stderr": "c4d2866845c71becd415d58b5cde51fb2bf27532627c167d423976c8e96cbbb0"}),
}


@pytest.mark.parametrize("name, text, argv", [
    ("spec4", _SPEC4, ["--config", "II", "--grid-points", "6", "--emit-states"]),
    ("four", _FOUR, ["--config", "nbody-II", "--grid-min", "1.5", "--grid-max", "6",
                     "--grid-points", "4", "--emit-states"]),
    ("helium", _HELIUM, ["--config", "II"]),
])
def test_find_writes_the_pinned_bytes(tmp_path, capsys, name, text, argv):
    out_dir = tmp_path / "out"
    rc = main(["find", _write(tmp_path, f"{name}.system", text), *argv,
               "--out-dir", str(out_dir)])
    got = {"stderr": hashlib.sha256(capsys.readouterr().err.encode()).hexdigest()}
    for path in sorted(out_dir.glob("*")):
        if not path.name.endswith(".manifest.json"):
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (rc, got) == _FIND_DIGESTS[name]


class TestRerun:
    """A rerun into a directory that holds longer outputs leaves the bytes
    of a fresh run, in the same files: outputs are overwritten in place."""

    def _rerun(self, tmp_path, argv, first_flags, flags):
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert main(argv + first_flags + ["--out-dir", str(rerun)]) == 0
        before = {p: os.stat(p) for p in glob.glob(str(rerun / "*"))}
        assert main(argv + flags + ["--out-dir", str(rerun)]) == 0
        assert main(argv + flags + ["--out-dir", str(fresh)]) == 0
        docs = []
        for out_dir in (rerun, fresh):
            (manifest,) = glob.glob(str(out_dir / "*.manifest.json"))
            with open(manifest) as fh:
                doc = json.load(fh)
            for key in ("wall_time_s", "phase_s"):
                del doc[key]
            doc["outputs"] = {k: os.path.relpath(v, out_dir)
                              for k, v in doc["outputs"].items()}
            docs.append(doc)
        assert docs[0] == docs[1]
        shrank = 0
        for name in docs[1]["outputs"].values():
            new = os.stat(rerun / name)
            old = before[str(rerun / name)]
            assert new.st_ino == old.st_ino
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes()
            shrank += new.st_size < old.st_size
        assert shrank > 0
        return docs[1]["outputs"]

    def test_simulate_with_a_shorter_end_time(self, tmp_path):
        outputs = self._rerun(tmp_path, ["simulate", _orbit_system(tmp_path),
                                         "--sample-every", "0.25"],
                              ["--t-end", "6"], ["--t-end", "2"])
        assert set(outputs) == {"trajectory", "invariants"}

    def test_find_with_fewer_grid_points(self, tmp_path):
        outputs = self._rerun(tmp_path, ["find", _spec4_system(tmp_path),
                                         "--config", "II", "--emit-states"],
                              ["--grid-points", "6"], ["--grid-points", "2"])
        assert set(outputs) == {"catalog", "state-000", "state-001"}

    def test_find_removes_the_states_of_an_earlier_run(self, tmp_path, capsys):
        # the numbered states past this run's rows belong to no catalog row
        argv = ["find", _spec4_system(tmp_path), "--config", "II", "--emit-states",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv + ["--grid-points", "6"]) == 0
        assert len(glob.glob(str(tmp_path / "out" / "mixed.II-*.system"))) == 6
        capsys.readouterr()
        assert main(argv + ["--grid-points", "2"]) == 0
        stale = [str(tmp_path / "out" / f"mixed.II-{k:03d}.system") for k in range(2, 6)]
        assert [line for line in capsys.readouterr().out.splitlines()
                if "removed" in line] == [f"  removed {path}" for path in stale]
        assert sorted(os.listdir(tmp_path / "out")) == [
            "mixed.II-000.system", "mixed.II-001.system", "mixed.II.catalog.csv",
            "mixed.II.manifest.json"]


class TestBrackets:
    def test_reruns_are_bit_identical(self, tmp_path, capsys):
        sys_path = _spec4_system(tmp_path)
        outs = []
        for _ in range(2):
            rc = main(["brackets", sys_path, "--samples", "5", "--seed", "3"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "algebra satisfied" in outs[0]

    def test_seed_changes_the_report(self, tmp_path, capsys):
        sys_path = _spec4_system(tmp_path)
        assert main(["brackets", sys_path, "--samples", "5", "--seed", "3"]) == 0
        a = capsys.readouterr().out
        assert main(["brackets", sys_path, "--samples", "5", "--seed", "4"]) == 0
        b = capsys.readouterr().out
        assert a != b

    def test_large_charges_satisfy_the_algebra(self, tmp_path, capsys):
        # H and the Casimir scale as charge^2; central differences put
        # {C,H} off by 2.7e-4 here, the complex step by about 1e-9
        sys_path = _write(tmp_path, "big.system",
                          "B 1\nparticle 100 1\nparticle -100 1\nparticle 100 3\n")
        rc = main(["brackets", sys_path, "--samples", "3", "--seed", "0"])
        assert rc == 0
        assert "algebra satisfied" in capsys.readouterr().out

    @pytest.mark.parametrize("B, charge, nan_rows", [
        ("1e200", "1e200", "{"), ("1", "1e160", "{H,|{C,")])
    def test_non_finite_deviations_fail_the_gate(self, tmp_path, capsys, B,
                                                 charge, nan_rows):
        # the products of these charges overflow, so some errors are NaN;
        # they are printed as NaN and fail the gate, with no warning
        sys_path = _write(tmp_path, "huge.system", f"B {B}\nparticle {charge} 1\n"
                          f"particle -{charge} 1\nparticle {charge} 3\n")
        rc = main(["brackets", sys_path, "--samples", "2", "--seed", "0"])
        out, err = capsys.readouterr()
        assert (rc, err) == (5, "")
        devs = dict(re.findall(r"^  ({\S+)\s+max deviation (\S+)$", out, re.M))
        assert len(devs) == 10
        for label, dev in devs.items():
            assert (dev == "nan") == bool(re.match(nan_rows, label)), label
        assert "overall max deviation nan\nFAILED: deviation exceeds 1e-06\n" in out

    def test_crowded_system_exits_1(self, tmp_path):
        # thirty charges 0.5 apart in [-2, 2]^2 are never drawn at once, so
        # the bounded draws give up with an error naming n
        sys_path = _write(tmp_path, "crowd.system", "B 1\n" + "particle 1 1\n" * 30)
        done = subprocess.run(
            [sys.executable, "-m", "magnetotrio.cli", "brackets", sys_path,
             "--samples", "1"],
            env=_env_with_src(), timeout=5, capture_output=True, text=True)
        assert done.returncode == 1
        assert "no state of 30 charges" in done.stderr


# Known failures.  Each is a strict xfail (``xfail_strict`` in
# pyproject.toml) that names the CHANGES.md FOUND line recording it, so the
# change that mends it turns the test into an unexpected pass to flip.

@pytest.mark.xfail(raises=AssertionError, reason=(
    "FOUND line 22: brackets gates the absolute deviation at 1e-6, while "
    "{C,H} grows as charge^2 with its rounding; charges (1e3, -1e3, 1e3) "
    "read 1.06e-6 and exit 5"))
def test_brackets_hold_at_charges_of_a_thousand(tmp_path, capsys):
    sys_path = _write(tmp_path, "kilo.system",
                      "B 1\nparticle 1e3 1\nparticle -1e3 1\nparticle 1e3 3\n")
    assert main(["brackets", sys_path, "--samples", "3", "--seed", "0"]) == 0
    assert "algebra satisfied" in capsys.readouterr().out


@pytest.mark.xfail(raises=AssertionError, reason=(
    "FOUND line 69: the damped-Newton stop is absolute below unit row scale, "
    "so every run on FOUR's charges times 1e6 ends on the floor and find "
    "exits 4"))
def test_nbody_search_holds_at_charges_times_a_million(tmp_path):
    # FOUR's one certified row on this grid, (v1, v2, v3, v4); the speeds
    # of a collinear root do not change with the charge scale
    four = (0.62365873196861055, 1.0, 2.0742469567831643, 2.381101577952299)
    sys_path = _write(tmp_path, "mega.system", "B 1\n" + "".join(
        f"particle {e}e6 {m}\n" for e, m in ((3, 1), (-1, 1), (1, 3), (2, 2))))
    assert main(["find", sys_path, "--config", "nbody-II", "--grid-min", "1.5",
                 "--grid-max", "6", "--grid-points", "4"]) == 0
    with open(tmp_path / "mega.nbody-II.catalog.csv") as fh:
        (row,) = csv.DictReader(fh)
    v4 = float(row["branch"].split(";v4=")[1])
    speeds = (float(row["v1"]), float(row["v2"]), float(row["v3"]), v4)
    assert speeds == pytest.approx(four, rel=1e-9)


class TestParser:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        sys_path = _spec4_system(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "magnetotrio", "find", sys_path, "--config",
             "II", "--grid-points", "1", "--out-dir", str(tmp_path)],
            env=_env_with_src(), timeout=60, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("found 1 solution(s) on 1 grid point(s)")
        assert (tmp_path / "mixed.II.catalog.csv").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "magnetotrio" in capsys.readouterr().out

    def test_usage_error_has_its_own_exit_code(self, capsys):
        # must not collide with the collision exit code (2)
        with pytest.raises(SystemExit) as err:
            main(["simulate"])
        assert err.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["explode"])
        assert err.value.code == 1

    def test_help_exits_0(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["simulate", "--help"])
            assert err.value.code == 0
            assert "--sample-every" in capsys.readouterr().out

    def test_one_parser_per_process_carries_no_flag_over(self, tmp_path, capsys):
        # each call must equal a run with a parser of its own: the derived
        # mode and --out-dir of the first run must not reach the second
        def runs(root):
            os.makedirs(root)
            orbit, mixed = _orbit_system(root), _spec4_system(root)
            return [["simulate", orbit, "--t-end", "1", "--mode", "derived",
                     "--out-dir", str(root / "x")],
                    ["simulate", orbit, "--t-end", "1"],
                    ["brackets", mixed, "--samples", "1"],
                    ["find", mixed, "--config", "nbody-II", "--grid-points", "1"]]

        def outputs(root, fresh):
            report = []
            for argv in runs(root):
                if fresh:
                    cli._build_parser.cache_clear()
                with pytest.raises(SystemExit):   # a usage error in between
                    main(["simulate"])
                assert main(argv) == 0
                out = capsys.readouterr().out.replace(str(root), "ROOT")
                report.append(re.sub(r"[\d.]+ s\)", "s)", out))
            for path in sorted(glob.glob(str(root / "**" / "*.*"), recursive=True)):
                with open(path) as fh:
                    text = fh.read()
                if path.endswith(".manifest.json"):
                    doc = json.loads(text)
                    text = (doc["settings"], doc.get("stats"), sorted(doc["outputs"]))
                report.append((os.path.relpath(path, root), text))
            return report

        cli._build_parser.cache_clear()
        shared = outputs(tmp_path / "shared", fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert shared == outputs(tmp_path / "fresh", fresh=True)
        # the second simulate ran in newton mode, next to its input
        files = dict(shared[4:])
        assert files["x/orbit.manifest.json"][0]["mode"] == "derived"
        assert files["orbit.manifest.json"][0]["mode"] == "newton"


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail, and
    # -W error turns any warning on a subcommand's stderr into a failure
    orbit, mixed = _orbit_system(tmp_path), _spec4_system(tmp_path)
    out, derived = str(tmp_path / "out"), str(tmp_path / "derived")
    runs = [
        ["simulate", orbit, "--t-end", "2", "--sample-every", "0.25", "--out-dir", out],
        ["simulate", orbit, "--t-end", "2", "--mode", "derived", "--out-dir", derived],
        # exit 0 needs a root that passed the integrated rigidity gate
        ["find", mixed, "--config", "nbody-II", "--grid-points", "1", "--out-dir", out],
        ["verify", os.path.join(out, "orbit.trajectory.csv"), orbit],
        ["brackets", mixed, "--samples", "1"],
    ]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from magnetotrio.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=_env_with_src(),
                          timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]"
