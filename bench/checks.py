"""Output checks, one per op kind, run outside the timed region.

Each check returns ``None`` when the op's output is right and a one-line
reason otherwise.  Numbers are recomputed with the benchmark's own
physics (physics.py) wherever that is cheap; the acceptance bounds are
the published ones: 1e-8 invariant drift (test_04), 1e-6 Newton balance
(the solvers' certification gate), 1e-6 bracket deviation (test_03) and
1e-6 agreement of the Jacobi frame with the Cartesian flow (test_05).
"""

import glob
import os
import re

import numpy as np

import physics

DRIFT_TOL = 1e-8
BALANCE_TOL = 1e-6
BRACKET_TOL = 1e-6
SPLIT_TOL = 1e-6


def _stem(argv):
    return os.path.splitext(os.path.basename(argv[1]))[0]


def _expected_grid(t_end, dt):
    m = int(np.floor(t_end / dt + 1e-9))
    t = dt * np.arange(m + 1)
    if t[-1] < t_end - 1e-12 * max(1.0, t_end):
        t = np.append(t, t_end)
    else:
        t[-1] = t_end
    return t


def _trajectory(op, out_dir):
    """Read the op's trajectory CSV and check its sample grid."""
    expect = op["expect"]
    stem = os.path.join(out_dir, _stem(op["argv"]))
    t, pos, vel = physics.read_trajectory(stem + ".trajectory.csv")
    grid = _expected_grid(expect["t_end"], expect["dt"])
    if len(t) != len(grid) or np.abs(t - grid).max() > 1e-12 * expect["t_end"]:
        return None, f"sample grid differs: {len(t)} samples, expected {len(grid)}"
    inv_rows = sum(1 for _ in open(stem + ".invariants.csv", encoding="utf-8")) - 1
    if inv_rows != len(t):
        return None, f"invariants CSV has {inv_rows} rows for {len(t)} samples"
    return (t, pos, vel), None


def _check_simulate(op, rc, out, out_dir):
    if rc != 0:
        return f"exit {rc}"
    traj, why = _trajectory(op, out_dir)
    if why:
        return why
    t, pos, vel = traj
    charges, masses, B = op["expect"]["species"]
    for name, q in physics.invariants(charges, masses, B, pos, vel).items():
        drift = float(np.abs(q - q[0]).max())
        if not drift < DRIFT_TOL:
            return f"{name} drift {drift:.3e} exceeds {DRIFT_TOL:g}"
    return None


def _catalog_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "config,branch,v1,v2,v3,omega,omega3,B,residual_norm":
        raise ValueError(f"unexpected catalog header {lines[0]!r}")
    for line in lines[1:]:
        config, branch, *nums = line.split(",")
        v1, v2, v3, omega, _, B, _ = (float(x) for x in nums)
        extra = [float(x) for x in re.findall(r";v\d+=([^;:]+)", branch)]
        sense = "ccw" if ":ccw" in branch else "cw"
        yield config, (v1, v2, v3, *extra), omega, B, sense


def _check_find(op, rc, out, out_dir):
    expect = op["expect"]
    if rc != expect["exit"]:
        return f"exit {rc}, expected {expect['exit']}"
    if rc != 0:
        return None
    charges, masses, _ = expect["species"]
    path = os.path.join(out_dir, f"{_stem(op['argv'])}.{expect['config']}.catalog.csv")
    rows = 0
    for config, v, omega, B, sense in _catalog_rows(path):
        rows += 1
        if config != expect["config"] or len(v) != len(charges):
            return f"catalog row {rows} has config {config} and {len(v)} speeds"
        pos, vel = physics.rotation_state(config, v, omega, sense)
        bal = physics.newton_balance(charges, masses, B, pos, vel, omega)
        if not bal <= BALANCE_TOL:
            return f"catalog row {rows}: Newton balance {bal:.3e}"
    if rows == 0:
        return "exit 0 with an empty catalog"
    if "--emit-states" in op["argv"]:
        states = glob.glob(os.path.join(
            out_dir, f"{_stem(op['argv'])}.{expect['config']}-*.system"))
        if len(states) != rows:
            return f"{len(states)} state files for {rows} catalog rows"
    return None


def _check_brackets(op, rc, out, out_dir):
    if rc != 0:
        return f"exit {rc}"
    m = re.search(r"overall max deviation (\S+)", out)
    if not m:
        return "no overall deviation in the output"
    dev = float(m.group(1))
    return None if dev <= BRACKET_TOL else f"bracket deviation {dev:.3e}"


def _check_verify(op, rc, out, out_dir):
    if rc != 0:
        return f"exit {rc}"
    return None if "all checks passed" in out else "no pass line in the output"


def _check_split(op, rc, out, out_dir):
    if rc != 0:
        return f"exit {rc}"
    traj, why = _trajectory(op, out_dir)
    if why:
        return why
    t, pos, vel = traj
    charges, masses, B = op["expect"]["species"]
    p0, v0 = (np.array(x) for x in op["expect"]["state"])
    ref, _ = physics.integrate(charges, masses, B, p0, v0, t)
    dev = float(np.abs(ref - pos).max())
    return None if dev <= SPLIT_TOL else f"deviation from Cartesian {dev:.3e}"


CHECKS = {"simulate": _check_simulate, "find": _check_find,
          "brackets": _check_brackets, "verify": _check_verify,
          "split": _check_split}


def check(op, rc, out, out_dir):
    """Why the op's output is wrong, or None when it is right."""
    try:
        return CHECKS[op["expect"]["kind"]](op, rc, out, out_dir)
    except (OSError, ValueError, IndexError) as ex:
        return f"unreadable output: {ex}"
