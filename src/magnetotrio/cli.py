"""Command-line front end: simulate, find, verify, brackets.

Four subcommands tie the library together into a file-based pipeline::

    magnetotrio simulate fig2.system --t-end 10
    magnetotrio find pair.system --config I --emit-states
    magnetotrio verify fig2.trajectory.csv fig2.system --tol 1e-6
    magnetotrio brackets fig2.system --samples 100 --seed 7

Exit codes discriminate failure classes so scripts can branch on them:
0 success, 2 collision during integration, 3 unparseable input (with the
line number), 4 no solution found by a search, 5 a verification or
bracket check failed.  Anything else unexpected exits 1, as does a system
that ``find``'s solver refuses before it sweeps a grid point.

Every simulate/find run drops a JSON manifest next to its outputs
recording the inputs, the settings actually used, the tool version and
the wall time, so a run can be reproduced exactly; a simulate manifest
also carries the solver stats (``nfev``, ``min_pair_distance``).  All CSV
numbers are written with 17 significant digits and searches are
deterministic.
"""

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dynamics import (IntegratorSettings, integrate, read_trajectory_csv,
                       rigidity_report, write_trajectory_csv)
from .errors import (CollisionError, DomainError, MagnetotrioError,
                     NoSolution, SpecParseError)
from .invariants import (GLOBAL_INVARIANTS, algebra_check, drift_report,
                         table_drifts, write_invariant_csv)
from .jacobi import integrate_jacobi
from .model import load_system, save_system
from .solvers import (DEFAULT_GRID_POINTS, build_initial_state, solve_config_I,
                      solve_config_II, solve_config_III, solve_nbody_II,
                      sweep_grid, write_catalog)

BRACKET_TOL = 1e-6


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _stem(input_path, out_dir):
    base = os.path.basename(input_path)
    base = base.rsplit(".", 1)[0] if "." in base else base
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir or os.path.dirname(input_path) or ".", base)


def _write_manifest(path, command, inputs, settings, outputs, wall_time,
                    stats=None):
    doc = {
        "tool": "magnetotrio",
        "version": __version__,
        "command": command,
        "inputs": {k: os.path.abspath(v) for k, v in inputs.items()},
        "settings": settings,
        "outputs": {k: os.path.abspath(v) for k, v in outputs.items()},
        "wall_time_s": round(wall_time, 6),
    }
    if stats is not None:
        doc["stats"] = stats
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    spec, state = load_system(args.system)
    if state is None:
        raise SpecParseError(
            "system file carries no initial state "
            "(position/velocity lines are required to simulate)")
    settings = IntegratorSettings(
        t_end=args.t_end, rel_tol=args.rel_tol, abs_tol=args.abs_tol,
        sample_interval=args.sample_every)
    stem = _stem(args.system, args.out_dir)

    t0 = time.perf_counter()
    if args.mode == "newton":
        traj = integrate(spec, state, settings)
    else:
        traj = integrate_jacobi(spec, state, settings)
    wall = time.perf_counter() - t0

    traj_path = stem + ".trajectory.csv"
    inv_path = stem + ".invariants.csv"
    write_trajectory_csv(traj, traj_path)
    drifts = table_drifts(write_invariant_csv(traj, inv_path), spec.n)
    print(f"integrated n={spec.n} system to t={args.t_end:g} "
          f"({traj.n_samples} samples, {wall:.2f} s)")
    print(f"  H drift {drifts['H']:.3e}, Lz drift {drifts['Lz']:.3e}")
    if spec.n >= 2:
        print(f"  max relative pair-distance deviation "
              f"{rigidity_report(traj).worst:.3e}")
    print(f"  wrote {traj_path}")
    print(f"  wrote {inv_path}")

    manifest = _write_manifest(
        stem + ".manifest.json", "simulate", {"system": args.system},
        {"t_end": args.t_end, "rel_tol": args.rel_tol,
         "abs_tol": args.abs_tol, "sample_every": args.sample_every,
         "mode": args.mode},
        {"trajectory": traj_path, "invariants": inv_path}, wall, traj.stats)
    print(f"  wrote {manifest}")
    return 0


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------

def _cmd_find(args):
    spec, _ = load_system(args.system)
    grid = sweep_grid(spec, args.config, args.grid_min, args.grid_max,
                      args.grid_points)
    # looked up at call time, so bench/spans.py traces the solver
    solver = {"I": solve_config_I, "II": solve_config_II,
              "III": solve_config_III, "nbody-II": solve_nbody_II}[args.config]
    t0 = time.perf_counter()
    rows = solver(spec, grid)
    wall = time.perf_counter() - t0

    stem = _stem(args.system, args.out_dir)
    cat_path = f"{stem}.{args.config}.catalog.csv"
    with open(cat_path, "w", encoding="utf-8") as fh:
        write_catalog(rows, fh)
    outputs = {"catalog": cat_path}

    print(f"found {len(rows)} solution(s) on {len(grid)} grid point(s) "
          f"({wall:.2f} s)")
    print(f"  wrote {cat_path}")

    if args.emit_states:
        for k, sol in enumerate(rows):
            spec_b, state = build_initial_state(sol, spec)
            path = f"{stem}.{args.config}-{k:03d}.system"
            save_system(path, spec_b, state,
                        comment=(f"config {sol.config} branch {sol.branch} "
                                 f"omega {sol.omega:.17g} sense {sol.sense}"))
            outputs[f"state-{k:03d}"] = path
            print(f"  wrote {path}")

    manifest = _write_manifest(
        f"{stem}.{args.config}.manifest.json", "find",
        {"system": args.system},
        {"config": args.config, "grid_min": float(grid[0]),
         "grid_max": float(grid[-1]), "grid_points": len(grid),
         "emit_states": bool(args.emit_states)},
        outputs, wall)
    print(f"  wrote {manifest}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args):
    spec, _ = load_system(args.system)
    traj = read_trajectory_csv(args.trajectory, spec)
    drifts = drift_report(traj)

    print(f"verify {args.trajectory}  (n={spec.n}, {traj.n_samples} samples, "
          f"t in [{traj.t[0]:g}, {traj.t[-1]:g}], tol {args.tol:g})")
    failed = []
    for name in GLOBAL_INVARIANTS:
        ok = drifts[name] < args.tol
        if not ok:
            failed.append(name)
        print(f"  {name:<8s} max drift {drifts[name]:.3e}  "
              f"{'pass' if ok else 'FAIL'}")
    if spec.n >= 2:
        worst = rigidity_report(traj).worst
        ok = worst < args.tol
        if not ok:
            failed.append("rigidity")
        print(f"  {'rigidity':<8s} max rel pair-distance deviation "
              f"{worst:.3e}  {'pass' if ok else 'FAIL'}")
    # Per-particle quantities and the pairwise-virial checks are constants
    # only on special trajectories of matching shape, so they are reported
    # without being gated.
    for name in drifts:
        if name not in GLOBAL_INVARIANTS:
            print(f"  {name:<8s} max drift {drifts[name]:.3e}  (info)")

    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 5
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

# A brackets state is drawn whole until every pair is more than 0.5 apart.
# The chance of that falls fast with n (about 1e-2 at 14 charges, 4e-5 at
# 20), so the draws per state are bounded, and each draw's pair test stops
# at its first close pair.
_MAX_DRAWS = 100_000


def _random_state(rng, n):
    # keep particles clearly separated: near a Coulomb singularity H grows
    # without bound, and so does the rounding that BRACKET_TOL gates
    for _ in range(_MAX_DRAWS):
        pos = rng.uniform(-2.0, 2.0, (n, 2))
        if all((a - c) * (a - c) + (b - d) * (b - d) > 0.25
               for (a, b), (c, d) in itertools.combinations(pos.tolist(), 2)):
            return pos, rng.uniform(-1.5, 1.5, (n, 2))
    raise DomainError(f"no state of {n} charges with every pair more than 0.5 "
                      f"apart in [-2, 2]^2 after {_MAX_DRAWS} draws")


def _cmd_brackets(args):
    spec, _ = load_system(args.system)
    rng = np.random.default_rng(args.seed)
    worst = {}
    for _ in range(args.samples):
        pos, vel = _random_state(rng, spec.n)
        for label, err in algebra_check(spec, pos, vel).items():
            worst[label] = max(worst.get(label, 0.0), abs(err))

    QB = spec.total_charge * spec.B
    print(f"bracket algebra on {args.samples} random states (seed {args.seed})")
    print(f"  Q*B = {QB:.17g}  (expected {{Kx,Ky}} = {-QB:.17g})")
    for label, dev in worst.items():
        print(f"  {label:<12s} max deviation {dev:.17g}")
    maxdev = max(worst.values())
    print(f"  overall max deviation {maxdev:.17g}")
    if maxdev > BRACKET_TOL:
        print(f"FAILED: deviation exceeds {BRACKET_TOL:g}")
        return 5
    print("algebra satisfied")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def count(text):
    """argparse type of a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def seed(text):
    """argparse type of a seed flag: an integer of at least 0."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def tolerance(text):
    """argparse type of a tolerance flag: a finite number above 0."""
    if not (np.isfinite(value := float(text)) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for
    # collisions; remap to the generic failure code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="magnetotrio",
                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"magnetotrio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[],
                       help="integrate a system file; write trajectory and "
                            "invariant CSVs plus a manifest")
    p.add_argument("system", help="system file with full initial state")
    p.add_argument("--t-end", type=float, default=10.0,
                   help="end time, after the start time (default: 10)")
    p.add_argument("--rel-tol", type=float, default=1e-10,
                   help="relative step tolerance, > 0 (default: 1e-10)")
    p.add_argument("--abs-tol", type=float, default=1e-10,
                   help="absolute step tolerance, > 0 (default: 1e-10)")
    p.add_argument("--sample-every", type=float, default=None,
                   metavar="DT", help="fixed output sampling interval "
                   "(default: the integrator's accepted steps)")
    p.add_argument("--mode", choices=("newton", "derived"),
                   default="newton",
                   help="newton: direct integration of the Newton equations "
                        "(default); derived: Hamilton's equations of the "
                        "center-of-mass/relative frame, mapped back to "
                        "Cartesian samples (three-charge systems)")
    p.add_argument("--out-dir", default=None,
                   help="directory for outputs (default: next to the input)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("find",
                       help="search for rigid rotating configurations; "
                            "write a certified-solution catalog")
    p.add_argument("system", help="system file (initial state not required)")
    p.add_argument("--config", required=True,
                   choices=("I", "II", "III", "nbody-II"))
    p.add_argument("--grid-min", type=float, default=None,
                   help="low end of the swept parameter (pair separation "
                        "for an identical-pair config I, otherwise the "
                        "swept speed)")
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-points", type=count, default=DEFAULT_GRID_POINTS)
    p.add_argument("--emit-states", action="store_true",
                   help="also write one ready-to-simulate system file per "
                        "catalog row")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("verify",
                       help="check a trajectory CSV: global invariants and "
                            "pair-distance rigidity are gated by --tol; "
                            "per-particle quantities are reported")
    p.add_argument("trajectory", help="trajectory CSV from simulate")
    p.add_argument("system", help="matching system file")
    p.add_argument("--tol", type=tolerance, default=1e-6,
                   help="gate of the global drifts and rigidity (default: 1e-6)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("brackets",
                       help="complex-step Poisson-bracket spot check "
                            "of the integral algebra on seeded random "
                            "states")
    p.add_argument("system", help="system file (only field and charges used)")
    p.add_argument("--samples", type=count, default=100)
    p.add_argument("--seed", type=seed, default=0,
                   help="seed of the random states, >= 0 (default: 0)")
    p.set_defaults(func=_cmd_brackets)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as ex:
        print(f"magnetotrio: parse error: {ex}", file=sys.stderr)
        return 3
    except CollisionError as ex:
        print(f"magnetotrio: collision: {ex}", file=sys.stderr)
        return 2
    except NoSolution as ex:
        print(f"magnetotrio: no solution: {ex}", file=sys.stderr)
        return 4
    except MagnetotrioError as ex:
        print(f"magnetotrio: error: {ex}", file=sys.stderr)
        return 1
    except OSError as ex:
        print(f"magnetotrio: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
