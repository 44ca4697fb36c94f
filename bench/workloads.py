"""Seeded inputs of the four workloads.

``build(workload, seed, in_dir)`` writes the input files into ``in_dir``
and returns one cycle: the list of ops the benchmark repeats.  Each op is
the ``magnetotrio`` argv the package receives plus an ``expect`` record
that only the benchmark reads.  File names are neutral (``sys00.system``),
so nothing the package sees names the workload.  The same seed always
gives the same files and argv.
"""

import math
import os

import numpy as np

import physics

# Species of the acceptance suite (tests/test_acceptance.py):
# (charges, masses, B).
SPEC4 = ((3.0, -1.0, 1.0), (1.0, 1.0, 3.0), 1.0)
WORKED = ((1.0, 4.0, 1.0), (1.0, 5.0, 1.0), 1.0)
HELIUM = ((-2.0, 1.0, 1.0), (4.0, 1.0, 1.0), 1.0)
ELECTRONS = ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 2.0)
FOUR = ((3.0, -1.0, 1.0, 2.0), (1.0, 1.0, 3.0, 2.0), 1.0)

# Certified rigid rotations, frozen to 17 digits from the package's
# solvers at the commit that introduced this benchmark:
# (species, config, speeds, omega, B).  The benchmark builds their states
# itself (physics.rotation_state) and checks their Newton balance.
ROTATIONS = (
    (SPEC4, "II", (0.5456886413410134, 1.0, 1.5),
     0.36345312416589365, 1.0281968374158392),
    (SPEC4, "II", (0.48860313725510657, 1.0, 3.040134043720646),
     0.3584776712747112, 1.0847555162968625),
    (SPEC4, "III", (5.580235154726053, 1.0, 0.6217625127083676),
     5.530395523037178, 1.7246923461451231),
    (WORKED, "III", (2.083372406072109, 1.0, 0.8),
     0.1117603536206957, 0.13291357641684973),
    (FOUR, "nbody-II",
     (0.6114352211729295, 1.0, 1.7654629384357983, 2.121320343559643),
     0.15867289401825993, 0.25857507678871117),
    (FOUR, "nbody-II", (0.6459345560691812, 1.0, 2.754118664095354, 3.0),
     0.11431830587065503, 0.18764170434225977),
)

# The identical-pair rotation of three electrons at B = -2 (the frozen
# state of tests/conftest.py): the pair turns at omega = 1 about a guiding
# centre that circles the origin at omega3 = 2.
ELECTRON_ORBIT = (
    (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), -2.0,
    ((1.5772173450159419, 0.0), (-0.57721734501594191, 0.0), (0.5, 0.0)),
    ((0.0, -2.0772173450159421), (0.0, 0.077217345015941907), (0.0, -1.0)),
)

BRACKET_SPECIES = (SPEC4, WORKED, HELIUM, ELECTRONS, FOUR)


def _polygon_state(rng, n, radius, jitter=0.1, speed=0.5):
    """Charges near the corners of a regular n-gon, random velocities.

    The seed moves each charge by up to ``jitter`` and draws velocity
    components up to ``speed``: every orbit is generic, but its cost stays
    close to that of the base shape, so runs with different seeds
    measure about the same work.
    """
    angle = 2.0 * math.pi * np.arange(n) / n
    pos = radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    pos += rng.uniform(-jitter, jitter, (n, 2))
    return pos, rng.uniform(-speed, speed, (n, 2))


def _repelling_species(rng, n, rel=0.1):
    """Unit-scale charges of one sign: every pair repels, so orbits never
    collide.  Charges, masses and |B| lie within ``rel`` of 1."""
    sign = rng.choice([-1.0, 1.0])
    return (tuple(sign * rng.uniform(1 - rel, 1 + rel, n)),
            tuple(rng.uniform(1 - rel, 1 + rel, n)),
            float(rng.choice([-1.0, 1.0]) * rng.uniform(1 - rel, 1 + rel)))


def _perturbed(species, rng, rel=0.02):
    """A mixed-sign species within ``rel`` of a certified one."""
    charges, masses, B = species
    return (tuple(np.multiply(charges, rng.uniform(1 - rel, 1 + rel, len(charges)))),
            tuple(np.multiply(masses, rng.uniform(1 - rel, 1 + rel, len(masses)))),
            B)


class _Writer:
    def __init__(self, in_dir):
        self.in_dir = in_dir
        self.count = 0

    def file(self, text, suffix):
        path = os.path.join(self.in_dir, f"sys{self.count:02d}{suffix}")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def system(self, species, pos=None, vel=None):
        charges, masses, B = species
        return self.file(physics.format_system(charges, masses, B, pos, vel),
                         ".system")


# ---------------------------------------------------------------------------
# simulate: generic orbits of same-sign species, n in {3, 4, 6}, dense and
# sparse sampling at test_04's 1e-12 tolerance (at the default 1e-10 the
# Casimir drifts past test_04's 1e-8 bound).  The pair-force right-hand
# side inside DOP853 does most of the work, the sampled invariants and the
# CSV writers do the rest; solvers, brackets and the Jacobi frame stay idle.
# Varying n and the sample density separates a pair-kernel gain (grows with
# n) from a batch-invariant gain (grows with the sample count).
# ---------------------------------------------------------------------------

SIM_T_END = 4.0
SIM_DENSE, SIM_SPARSE = 0.05, 0.5
SIM_RADIUS = {3: 1.0, 4: 1.2, 6: 1.6}


def _simulate(rng, w):
    ops = []
    for _ in range(3):
        for n in (3, 4, 6):
            for dt in (SIM_SPARSE, SIM_DENSE):
                species = _repelling_species(rng, n)
                pos, vel = _polygon_state(rng, n, SIM_RADIUS[n])
                path = w.system(species, pos, vel)
                ops.append({
                    "argv": ["simulate", path, "--t-end", repr(SIM_T_END),
                             "--sample-every", repr(dt),
                             "--rel-tol", "1e-12", "--abs-tol", "1e-12"],
                    "expect": {"kind": "simulate", "species": species,
                               "t_end": SIM_T_END, "dt": dt}})
    return ops


# ---------------------------------------------------------------------------
# find: the configuration solvers on the acceptance species and on seeded
# mixed-sign species near the certified ones.  The solvers do most of the
# work; dynamics only runs the short certification integrations of
# nbody-II.  Expected no-solution exits (4) are kept because users hit
# them.  The sweep runs serially (MAGNETOTRIO_THREADS unset), so deleting
# the thread pool must read as unchanged here.
# ---------------------------------------------------------------------------

# (species, config, grid points, grid bounds or None, expected exit code).
# The exit codes of the fixed species are the package's answers on these
# grids when the benchmark was introduced; HELIUM's window roots never
# certify (test_07b), and WORKED has no in-phase rotation on the grid.
FIND_FIXED = (
    (SPEC4, "II", 6, None, 0),
    (SPEC4, "III", 6, None, 0),
    (SPEC4, "nbody-II", 4, None, 0),
    (WORKED, "II", 6, None, 4),
    (WORKED, "III", 6, None, 0),
    (WORKED, "nbody-II", 4, None, 4),
    (HELIUM, "II", 6, None, 4),
    (HELIUM, "III", 6, None, 4),
    (HELIUM, "nbody-II", 4, None, 4),
    (FOUR, "nbody-II", 4, (1.5, 6.0), 0),
)


def _find(rng, w):
    ops = []
    seeded = [(_perturbed(SPEC4, rng), "II", 6, None, 0),
              (_perturbed(SPEC4, rng), "nbody-II", 4, None, 0),
              (_perturbed(FOUR, rng), "nbody-II", 4, (1.5, 6.0), 0)]
    for k, (species, config, points, bounds, code) in enumerate(
            FIND_FIXED + tuple(seeded)):
        path = w.system(species)
        argv = ["find", path, "--config", config,
                "--grid-points", str(points)]
        if bounds:
            argv += ["--grid-min", repr(bounds[0]), "--grid-max", repr(bounds[1])]
        if k % 4 == 0:
            argv.append("--emit-states")
        ops.append({"argv": argv,
                    "expect": {"kind": "find", "species": species,
                               "config": config, "exit": code}})
    return ops


# ---------------------------------------------------------------------------
# check: bracket-algebra ops interleaved with verify ops on stored
# trajectories of certified rotations.  Neither integrates inside the
# timed loop: the finite-difference bracket engine, the trajectory-CSV
# reader and the batch invariants do the work, so import, bracket and
# read-side changes show here and not in simulate.  The stored
# trajectories are written by the benchmark's own integrator.
# ---------------------------------------------------------------------------

# Op sizes are spread out so that the latency quantiles fall between ops
# of similar cost: states per brackets op (one per bracket species) and
# samples per stored trajectory (one per rotation).
BRACKET_STATES = (1, 2, 3, 1, 2)
VERIFY_SAMPLES = (100, 150, 200, 250, 300, 350)


def _stored_rotation(rng, w, rotation, samples):
    species, config, v, omega, B = rotation
    charges, masses, _ = species
    pos, vel = physics.rotation_state(config, v, omega)
    pos, vel = physics.rotate(pos, vel, rng.uniform(0.0, 2.0 * math.pi))
    horizon = rng.uniform(0.2, 0.25) * 2.0 * math.pi / omega
    t = np.linspace(0.0, horizon, samples + 1)
    P, V = physics.integrate(charges, masses, B, pos, vel, t)
    system = w.system((charges, masses, B))
    traj = w.file(physics.format_trajectory(t, P, V), ".csv")
    return traj, system


def _check(rng, w):
    """Every bracket species and every stored rotation once per cycle, so
    the seed changes the states but not the amount of work."""
    ops = []
    for k in range(max(len(BRACKET_SPECIES), len(ROTATIONS))):
        if k < len(BRACKET_SPECIES):
            ops.append({"argv": ["brackets", w.system(BRACKET_SPECIES[k]),
                                 "--samples", str(BRACKET_STATES[k]),
                                 "--seed", str(int(rng.integers(1 << 30)))],
                        "expect": {"kind": "brackets"}})
        if k < len(ROTATIONS):
            traj, system = _stored_rotation(rng, w, ROTATIONS[k],
                                            VERIFY_SAMPLES[k])
            ops.append({"argv": ["verify", traj, system, "--tol", "1e-6"],
                        "expect": {"kind": "verify"}})
    return ops


# ---------------------------------------------------------------------------
# split: simulate --mode derived only, on the identical-pair electron
# rotation, a certified SPEC4 rotation and seeded repelling three-charge
# states.  The Jacobi right-hand side differentiates the reduced
# Hamiltonian numerically and does nearly all the work; no other workload
# touches it.  closed-form is left out: it may be deleted.
# ---------------------------------------------------------------------------

# Seeded states run for 0.25, 0.5, ..., 2.25 time units, so op costs are
# spread out.  The electron rotation runs one period: at ten periods an op
# takes about 2 s and a run would collect too few ops for op_p90_ms.
SPLIT_T_ENDS = tuple(0.25 * k for k in range(1, 10))


def _split(rng, w):
    runs = []
    for t_end in SPLIT_T_ENDS:
        p, q = _polygon_state(rng, 3, 1.0)
        runs.append((_repelling_species(rng, 3), p, q, t_end))
    charges, masses, B, pos, vel = ELECTRON_ORBIT
    runs.insert(1, ((charges, masses, B), np.array(pos), np.array(vel),
                    2.0 * math.pi))
    species, config, v, omega, B4 = ROTATIONS[0]
    p4, v4 = physics.rotation_state(config, v, omega)
    p4, v4 = physics.rotate(p4, v4, rng.uniform(0.0, 2.0 * math.pi))
    runs.insert(5, ((species[0], species[1], B4), p4, v4,
                    0.25 * 2.0 * math.pi / omega))
    ops = []
    for species, p, q, t_end in runs:
        path = w.system(species, p, q)
        ops.append({"argv": ["simulate", path, "--mode", "derived",
                             "--t-end", repr(t_end),
                             "--sample-every", repr(t_end / 50.0)],
                    "expect": {"kind": "split", "species": species,
                               "state": [np.asarray(p).tolist(),
                                         np.asarray(q).tolist()],
                               "t_end": t_end, "dt": t_end / 50.0}})
    return ops


WORKLOADS = {"simulate": _simulate, "find": _find, "check": _check,
             "split": _split}


def build(workload, seed, in_dir):
    """Write the seeded inputs of ``workload`` and return its op cycle."""
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, _Writer(in_dir))
