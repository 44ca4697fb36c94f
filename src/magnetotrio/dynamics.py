"""Exact equations of motion and their numerical integration.

The Newton equations integrated here are

    m_i a_i = e_i v_i x B + sum_{j != i} e_i e_j (rho_i - rho_j) / |rho_i - rho_j|^3 ,

i.e. the magnetic force in the plane plus pairwise Coulomb forces.  One scalar
walk over the pair table ``SystemSpec.pairs`` evaluates them; it is the
right-hand side the integrator calls, and :func:`accelerations` is a view of
it.  Integration uses DOP853, the adaptive 8(5,3) Dormand-Prince pair of the
in-package stepper ``_dop853``, with tight default tolerances; it takes the
steps and returns the floats of ``scipy.integrate.solve_ivp`` without
importing scipy.  Trajectories are sampled on a uniform grid, through the
stepper's dense output, when a sample interval is given, otherwise at the
solver's natural steps.  A collision watch walks the same pairs at every
accepted step: when a pair comes closer than the threshold it stops the run
at the crossing, located on the dense output, and it records the closest
approach in ``Trajectory.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dop853 import DOP853, EPS
from .errors import CollisionError, DomainError, SpecParseError
from .model import pair_index

# Largest sampling grid :func:`integrate` accepts; each sample of an
# n-charge run holds 4n + 1 floats in several copies.
MAX_SAMPLES = 10**6


@dataclass
class IntegratorSettings:
    """Knobs for :func:`integrate`.

    ``sample_interval=None`` keeps the solver's own accepted steps; a
    sampling grid may hold at most ``MAX_SAMPLES`` points.  The collision
    threshold terminates integration when any pair distance drops below it;
    it must be finite and non-negative, and 0 switches the watch off (a
    start state with two charges on one point is still a collision).  A
    ``rel_tol`` below 100 eps is raised to 100 eps with a warning.
    """

    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    sample_interval: float | None = None
    collision_threshold: float = 1e-9


@dataclass
class Trajectory:
    """Sampled solution of the Newton equations.

    ``stats`` holds the solver counters of :func:`integrate`: ``nfev``, and
    ``min_pair_distance`` for n >= 2 while the collision watch is on.
    """

    spec: object
    t: np.ndarray            # (nt,)
    positions: np.ndarray    # (nt, n, 2)
    velocities: np.ndarray   # (nt, n, 2)
    stats: dict | None = None

    @property
    def n_samples(self):
        return len(self.t)


def _rhs(spec):
    """The Newton right-hand side ``f(t, y)`` for ``y`` = (positions,
    velocities), each flattened row by row, as one scalar pair walk.

    The charges, masses and pair table become Python lists once per spec;
    each call converts ``y`` once.  For a handful of charges numpy's
    per-call overhead costs more than the arithmetic.  Forces accumulate
    as the magnetic term, then each pair's Coulomb force added onto its
    first charge in pair order, then subtracted from its second, then the
    division by the mass.
    """
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


def accelerations(spec, positions, velocities):
    """Accelerations of all particles, shape (n, 2): the acceleration half
    of the Newton right-hand side, from the same pair walk."""
    pos, vel = (np.asarray(a, dtype=float).ravel() for a in (positions, velocities))
    if not pos.size == vel.size == 2 * spec.n:
        raise DomainError(f"positions and velocities must hold {spec.n} "
                          "planar vectors each")
    return _rhs(spec)(0.0, np.concatenate([pos, vel]))[2 * spec.n:].reshape(spec.n, 2)


def _closest_pair(pos):
    d = pair_distances(pos)
    k = int(np.argmin(d))
    I, J = pair_index(len(pos))
    return (int(I[k]), int(J[k])), float(d[k])


def _checked_grid(settings, t0):
    """Validate ``settings`` for a run that starts at ``t0`` and return its
    sampling grid, or None to sample at the solver's accepted steps.

    Both integration routes call this before they build anything, so a bad
    setting costs no work.
    """
    t1 = settings.t_end
    if not math.isfinite(t1):
        raise DomainError("t_end must be finite")
    if t1 <= t0:
        raise DomainError(f"t_end = {t1:g} must come after the start time {t0:g}")
    for name in ("rel_tol", "abs_tol"):
        tol = getattr(settings, name)
        if not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"{name} must be finite and positive, got {tol!r}")
    threshold = settings.collision_threshold
    if not (math.isfinite(threshold) and threshold >= 0):
        raise DomainError("collision_threshold must be finite and non-negative "
                          f"(0 switches the watch off), got {threshold!r}")
    if settings.sample_interval is None:
        return None
    dt = float(settings.sample_interval)
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("sample_interval must be positive")
    steps = (t1 - t0) / dt
    if not steps < MAX_SAMPLES:
        raise DomainError(f"sample_interval {dt:g} over [{t0:g}, {t1:g}] "
                          f"exceeds {MAX_SAMPLES} samples")
    m = int(np.floor(steps + 1e-9))
    t_eval = t0 + dt * np.arange(m + 1)
    if t_eval[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        t_eval = np.append(t_eval, t1)
    else:
        t_eval[-1] = t1
    return t_eval


def _crossing(g, a, b):
    """A zero of ``g`` between ``a`` and ``b``, where g(a) >= 0 >= g(b):
    the right end of the bisection bracket once it is 4 eps wide,
    relative to the time."""
    while b - a > 4 * EPS * (1.0 + abs(b)):
        mid = 0.5 * (a + b)
        if g(mid) > 0:
            a = mid
        else:
            b = mid
    return b


def _solve(spec, rhs, y0, t0, t_eval, settings, positions_of):
    """Integrate ``y' = rhs(t, y)`` with DOP853 from ``y0`` at ``t0`` to
    ``settings.t_end``, sampled on ``t_eval``, the grid that
    :func:`_checked_grid` returned for ``settings``.

    ``positions_of(y)`` maps a solver vector to the (n, 2) positions the
    collision watch reads.  The watch checks the start state, which raises
    at ``t0`` before any RHS call, and every accepted step; when the closest
    pair distance falls to the threshold, the crossing is located on the
    step's dense output.  With the watch off, a start state with two
    charges on one point still raises at ``t0``.  Returns the sample times,
    the solver vectors at those times as rows, and the solver counters:
    ``nfev`` and, while the watch is on, ``min_pair_distance``, the closest
    approach over the start and every accepted step.
    """
    t1, threshold = settings.t_end, settings.collision_threshold
    watched = []
    if spec.n > 1 and threshold > 0:
        I, J, _ = spec.pairs
        watched = list(zip(I.tolist(), J.tolist()))

    def nearest(y):
        """Squared distance of the closest watched pair."""
        p = positions_of(y).tolist()
        d2 = math.inf
        for i, j in watched:
            dx, dy = p[i][0] - p[j][0], p[i][1] - p[j][1]
            r2 = dx * dx + dy * dy
            if r2 < d2:
                d2 = r2
        return d2

    if watched:
        closest = nearest(y0)
        gap = math.sqrt(closest) - threshold
        if gap <= 0:
            raise CollisionError(float(t0), *_closest_pair(positions_of(y0)))
    elif spec.n > 1 and not pair_distances(positions_of(y0)).all():
        # watch or no watch, the first RHS call would divide by zero
        raise CollisionError(float(t0), *_closest_pair(positions_of(y0)))
    stepper = DOP853(rhs, t0, y0, t1, settings.rel_tol, settings.abs_tol)
    ts, rows = ([t0], [y0]) if t_eval is None else ([], [])
    sampled = 0   # grid points written so far
    while stepper.t < t1:
        stepper.step()
        t, y, dense = stepper.t, stepper.y, None
        if watched:
            d2 = nearest(y)
            closest = min(closest, d2)
            new_gap = math.sqrt(d2) - threshold
            if gap >= 0 >= new_gap:
                dense = stepper.dense_output()

                def at(s):
                    return dense(np.array([s]))[0]

                tc = _crossing(lambda s: math.sqrt(nearest(at(s))) - threshold,
                               stepper.t_old, t)
                pair, dist = _closest_pair(positions_of(at(tc)))
                raise CollisionError(float(tc), pair, dist)
            gap = new_gap
        if t_eval is None:
            ts.append(t)
            rows.append(y)
            continue
        due = int(np.searchsorted(t_eval, t, side="right"))
        if due > sampled:
            if dense is None:
                dense = stepper.dense_output()
            rows.append(dense(t_eval[sampled:due]))
            sampled = due

    stats = {"nfev": stepper.nfev}
    if watched:
        stats["min_pair_distance"] = math.sqrt(closest)
    return (np.array(ts) if t_eval is None else t_eval), np.vstack(rows), stats


def integrate(spec, state, settings):
    """Integrate the Newton equations from ``state`` up to ``settings.t_end``.

    Raises :class:`CollisionError` if a pair distance crosses the collision
    threshold, and :class:`StepUnderflow` if the stepper cannot proceed.
    """
    t_eval = _checked_grid(settings, state.t)
    if state.n != spec.n:
        raise DomainError("state and spec have different particle counts")
    n = spec.n
    y0 = np.concatenate([state.positions.ravel(), state.velocities.ravel()])
    t, y, stats = _solve(spec, _rhs(spec), y0, state.t, t_eval, settings,
                         lambda y: y[: 2 * n].reshape(n, 2))
    pos = y[:, : 2 * n].reshape(-1, n, 2).copy()
    vel = y[:, 2 * n:].reshape(-1, n, 2).copy()
    return Trajectory(spec, t, pos, vel, stats)


def pair_distances(positions):
    """Distances of all pairs (i<j) in index order.

    Positions of shape (..., n, 2) give distances of shape (..., n*(n-1)/2).
    """
    pos = np.asarray(positions, dtype=float)
    I, J = pair_index(pos.shape[-2])
    d = pos[..., I, :] - pos[..., J, :]
    return np.hypot(d[..., 0], d[..., 1])


@dataclass
class RigidityReport:
    """How far each pair distance wandered from its initial value."""

    pairs: list              # [(i, j), ...]
    initial: np.ndarray      # (npairs,)
    max_deviation: np.ndarray  # (npairs,) max_t |d_ij(t) - d_ij(0)| / d_ij(0)

    @property
    def worst(self):
        return float(self.max_deviation.max()) if len(self.max_deviation) else 0.0


def rigidity_report(traj):
    """Per-pair maximum relative deviation of the inter-particle distances.

    On a rigid (special) trajectory every entry of ``max_deviation`` is zero
    up to integration error; a generic trajectory shows O(1) values.
    """
    I, J = pair_index(traj.positions.shape[1])
    d = pair_distances(traj.positions)
    dev = (np.abs(d - d[0]) / d[0]).max(axis=0)
    return RigidityReport(list(zip(I.tolist(), J.tolist())), d[0], dev)


# ---------------------------------------------------------------------------
# trajectory CSV:  t,x1,y1,vx1,vy1,x2,y2,...  with 17 significant digits
# ---------------------------------------------------------------------------

def trajectory_header(n):
    cols = ["t"]
    for i in range(1, n + 1):
        cols += [f"x{i}", f"y{i}", f"vx{i}", f"vy{i}"]
    return cols


def _write_csv(path, header, data):
    """Write the columns ``header`` and the rows of the 2-D array ``data``."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([line % tuple(row) for row in data.tolist()]))


def write_trajectory_csv(traj, path):
    nt, n = traj.positions.shape[:2]
    state = np.concatenate([traj.positions, traj.velocities], axis=-1)
    _write_csv(path, trajectory_header(n),
               np.column_stack([traj.t, state.reshape(nt, 4 * n)]))


def read_trajectory_csv(path, spec):
    """Read a trajectory written by :func:`write_trajectory_csv`.

    Raises :class:`SpecParseError` (with the line number) on malformed,
    truncated or non-finite rows and on times that do not increase.
    """
    n = spec.n
    expected = 1 + 4 * n
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SpecParseError("empty trajectory file")
    header = lines[0].split(",")
    if header != trajectory_header(n):
        raise SpecParseError(
            f"unexpected header for an n={n} system: {lines[0]!r}", line=1
        )
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != expected:
            raise SpecParseError(
                f"expected {expected} columns, got {len(parts)} (truncated row?)",
                line=line_no,
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise SpecParseError(f"non-numeric value in row", line=line_no) from None
        if not all(map(math.isfinite, vals)):
            raise SpecParseError("non-finite value in row", line=line_no)
        if rows and vals[0] <= rows[-1][0]:
            raise SpecParseError(f"t = {vals[0]!r} does not increase", line=line_no)
        rows.append(vals)
    if not rows:
        raise SpecParseError("trajectory file has a header but no rows")
    data = np.array(rows)
    state = data[:, 1:].reshape(-1, n, 4)
    return Trajectory(spec, data[:, 0], state[..., 0:2], state[..., 2:4])
