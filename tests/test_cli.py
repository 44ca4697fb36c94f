import contextlib
import functools
import glob
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from conftest import electron_orbit
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetotrio import (IntegratorSettings, PhaseState, cli, format_system,
                         load_system, pair_distance_min, solve_config_I,
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

    @pytest.mark.parametrize("mode", ["newton", "derived"])
    def test_step_underflow_exits_1(self, tmp_path, capsys, monkeypatch, mode):
        # with the collision watch off the pair of the trio falls into
        # itself, and the stepper cannot shrink its step any further
        monkeypatch.setattr(cli, "IntegratorSettings", functools.partial(
            IntegratorSettings, collision_threshold=0.0))
        sys_path = _write(tmp_path, "trio.system", _TRIO)
        rc = main(["simulate", sys_path, "--t-end", "2", "--mode", mode])
        assert rc == 1
        assert capsys.readouterr().err == (
            "magnetotrio: error: Required step size is less than spacing "
            "between numbers.\n")

    def test_overflowing_pair_distance_exits_1(self, tmp_path, capsys):
        # a charge of mass 1e-300 flies off until the cube of its distance
        # overflows the float range; that is a usage error, not a traceback
        sys_path = _write(tmp_path, "light.system",
                          "B 0\nparticle 1 1e-300\nposition 0 0\n"
                          "particle 1 1\nposition 1 0\n")
        rc = main(["simulate", sys_path, "--t-end", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        head, _, t = err.partition(" after t = ")
        assert head == ("magnetotrio: error: the cube of a pair distance "
                        "overflows the float range in the step")
        assert t.endswith("\n") and 0.0 <= float(t) < 1.0

    def test_overflowing_pair_distance_exits_1_derived(self, tmp_path, capsys):
        # the same runaway with a third charge: the Jacobi route refuses it
        # as the Newton route does, not with samples 1e150 away
        sys_path = _write(tmp_path, "light.system",
                          "B 0\nparticle 1 1e-300\nposition 0 0\n"
                          "particle 1 1\nposition 1 0\n"
                          "particle 1 1\nposition 0 1\n")
        rc = main(["simulate", sys_path, "--t-end", "1", "--mode", "derived"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "magnetotrio: error: the cube of a pair distance overflows the "
            "float range in the step after t = ")

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
    ], ids=["II-uncharged-second", "III-uncharged-second",
            "nbody-II-uncharged-second", "I-uncharged-first", "I-opposite-pair"])
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

    @pytest.mark.parametrize("tamper, message", [
        (lambda lines: lines.__setitem__(2, "nan" + lines[2][lines[2].index(","):]),
         "line 3: non-finite"),
        (lambda lines: lines.__setitem__(3, lines[2]), "line 4: t ="),
    ], ids=["nan-cell", "repeated-t"])
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


class TestParser:
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
