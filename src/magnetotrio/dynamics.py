"""Exact equations of motion and their numerical integration.

The Newton equations integrated here are

    m_i a_i = e_i v_i x B + sum_{j != i} e_i e_j (rho_i - rho_j) / |rho_i - rho_j|^3 ,

i.e. the magnetic force in the plane plus pairwise Coulomb forces.  Their
right-hand side is straight-line code compiled once per particle count n
(:func:`_rhs_factory`) and bound to a spec's constants; every pair is
spelled out, and the floats are those of a scalar walk over the pair table
``SystemSpec.pairs``.  It returns a list, which the stepper stores
straight into a stage row; :func:`accelerations` is its second half.
The same template plus a frame term (:func:`_rhs`) is the field in which
a rigid rotation is constant; the solvers' rigidity certification
integrates it on :func:`_solve`, the stepper loop under :func:`integrate`.
Integration uses DOP853, the adaptive 8(5,3) Dormand-Prince pair of the
in-package stepper ``_dop853``, with tight default tolerances; it takes
the steps and returns the floats of ``scipy.integrate.solve_ivp`` without
importing scipy.  Trajectories are sampled on a uniform grid, through the
stepper's dense output, when a sample interval is given, otherwise at the
solver's natural steps; the sampled rows of a run come from one batched
interpolation pass.  A collision watch keeps its own walk over the
pairs and runs it at every accepted step: when a pair comes closer than
``COLLISION_FRACTION`` of the start state's closest pair distance it stops
the run at the crossing, located on the dense output, and it records the
closest approach in ``Trajectory.stats``.
"""

from __future__ import annotations

import contextlib
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ._dop853 import DOP853, EPS, interpolate
from .errors import CollisionError, DomainError, SpecParseError, StepUnderflow
from .model import output_file, pair_index, read_text

# Largest sampling grid :func:`integrate` accepts; each sample of an
# n-charge run holds 4n + 1 floats in several copies.
MAX_SAMPLES = 10**6
# Most accepted steps of one run, the step budget of :func:`_solve`.  An
# unsampled run keeps one row per step, so it stays within MAX_SAMPLES too.
MAX_STEPS = MAX_SAMPLES
# Steps per interpolation pass; each holds seven solver vectors until then.
INTERPOLATION_BATCH = 256
# A run collides when its closest pair distance falls to this fraction of
# that of its start state.
COLLISION_FRACTION = 1e-9


@dataclass
class IntegratorSettings:
    """Knobs for :func:`integrate`.

    ``sample_interval=None`` keeps the solver's own accepted steps; a
    sampling grid may hold at most ``MAX_SAMPLES`` points.  A ``rel_tol``
    below 100 eps is raised to 100 eps with a warning.
    """

    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    sample_interval: float | None = None


@dataclass
class Trajectory:
    """Sampled solution of the Newton equations.

    ``stats`` holds the solver counters of :func:`integrate`: ``nfev``, and
    ``min_pair_distance`` for n >= 2.
    """

    spec: object
    t: np.ndarray            # (nt,)
    positions: np.ndarray    # (nt, n, 2)
    velocities: np.ndarray   # (nt, n, 2)
    stats: dict | None = None

    @property
    def n_samples(self):
        return len(self.t)


@functools.cache
def _rhs_factory(n, rotating=False):
    """Compile the Newton right-hand side of n charges; once per n and frame.

    Returns ``make(B, e0.., m0.., c0..)``, which binds a field, the n
    charges and masses and the pair products ``c_k = e_I e_J`` of
    :func:`pair_index` order, and returns ``f(t, y)``, which unpacks ``y``
    into locals, spells out every pair, with no list indexing or loop
    overhead, and returns the derivatives as a list.  The source is built
    from n alone (fixed templates), never from a value of a spec.

    With ``rotating``, ``make`` takes one more argument, the frame
    frequency w, and ``f`` adds w (I_2n x J) y to each derivative, with
    J = [[0, -1], [1, 0]]: per charge, x' = vx - w y, y' = vy + w x,
    vx' = ax - w vy and vy' = ay + w vx (the frame of :func:`_rhs`); the
    inertial source is unchanged.
    """
    pairs = list(zip(*(a.tolist() for a in pair_index(n))))
    e, m = [f"e{i}" for i in range(n)], [f"m{i}" for i in range(n)]
    c = [f"c{k}" for k in range(len(pairs))]
    state = ([f"{v}{i}" for i in range(n) for v in ("x", "y")]
             + [f"{v}{i}" for i in range(n) for v in ("vx", "vy")])
    lines = [f"def make(B, {', '.join(e + m + c + ['w'] * rotating)}):",
             "    def f(t, y):",
             f"        {', '.join(state)} = y.tolist()"]
    for k, (i, j) in enumerate(pairs):
        lines += [f"        dx = x{i} - x{j}",
                  f"        dy = y{i} - y{j}",
                  "        r3 = (dx * dx + dy * dy) ** 1.5",
                  f"        cx{k} = c{k} * dx / r3",
                  f"        cy{k} = c{k} * dy / r3"]
    acc = []
    for i in range(n):
        # ``+`` and ``-`` chain left to right, so each sum takes the walk's
        # order: the magnetic term, the pairs led by i, the pairs trailed
        # by i, each in pair order
        onto = [k for k, p in enumerate(pairs) if p[0] == i]
        off = [k for k, p in enumerate(pairs) if p[1] == i]
        for axis, lorentz in (("x", f"vy{i} * B"), ("y", f"-vx{i} * B")):
            terms = "".join([f" + c{axis}{k}" for k in onto]
                            + [f" - c{axis}{k}" for k in off])
            acc.append(f"({lorentz} * e{i}{terms}) / m{i}")
    out = state[2 * n:] + acc
    if rotating:
        # w J y: -w times the y-like partner of an x-like entry, +w times
        # the x-like partner of a y-like one
        out = [f"{d} - w * {state[k + 1]}" if k % 2 == 0
               else f"{d} + w * {state[k - 1]}" for k, d in enumerate(out)]
    lines += [f"        return [{', '.join(out)}]", "    return f"]
    scope = {}
    name = "rotating" if rotating else "newton"
    exec(compile("\n".join(lines), f"<{name} rhs, n = {n}>", "exec"), scope)
    return scope["make"]


def _rhs(spec, w=0.0, B=None):
    """The Newton right-hand side ``f(t, y)``, a list, for ``y`` =
    (positions, velocities), each flattened row by row: the kernel that
    :func:`_rhs_factory` compiled for ``spec.n``, bound to the spec's field
    (or ``B``), charges, masses and pair products.  A nonzero ``w`` binds
    the rotating kernel instead, the field ``g(t, y) = f(t, y) + w (I_2n x
    J) y`` of R(wt) rho and R(wt) rho', R(a) the counterclockwise rotation
    by a (the forces commute with rotations): a rigid rotation at w,
    clockwise for w > 0, is constant there, at the inertial pair distances.

    It does the floating-point operations of a scalar walk over the pair
    table, in its order: the magnetic force ``(vy B) e``, ``((-vx) B) e``;
    then each pair's Coulomb force ``c d / r^3`` added onto its first
    charge in pair order; then subtracted from its second charge in pair
    order; then the division by the mass.
    """
    make = _rhs_factory(spec.n, rotating=bool(w))
    return make(spec.B if B is None else B, *spec.charges.tolist(),
                *spec.masses.tolist(), *spec.pairs[2].tolist(),
                *((float(w),) if w else ()))


def accelerations(spec, positions, velocities):
    """Accelerations of all particles, shape (n, 2): the acceleration half
    of the Newton right-hand side :func:`_rhs`."""
    pos, vel = (np.asarray(a, dtype=float).ravel() for a in (positions, velocities))
    if not pos.size == vel.size == 2 * spec.n:
        raise DomainError(f"positions and velocities must hold {spec.n} "
                          "planar vectors each")
    acc = _rhs(spec)(0.0, np.concatenate([pos, vel]))[2 * spec.n:]
    return np.array(acc).reshape(spec.n, 2)


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
    # in units of the interval, so the same at every time scale
    if steps - m > 1e-9:
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

    ``positions_of(y)`` maps a solver vector to the flat list ``x0, y0, x1,
    y1, ...`` of the positions the collision watch reads.  The watch runs
    for n >= 2 on the start state and every accepted step; when the closest
    pair distance falls to ``COLLISION_FRACTION`` times that of the start
    state, the crossing is found on the step's interpolant.  A start state
    with two charges on one point raises at ``t0``, before any RHS call.
    The sampled rows come from the same interpolant, in one batched pass
    over the steps that reach grid points, or one per ``INTERPOLATION_BATCH``
    of them.  Returns the sample times, the solver vectors at those times as
    rows, and the solver counters: ``nfev`` and, for n >= 2,
    ``min_pair_distance``, the closest approach over the start and every
    accepted step.  A pair distance whose cube overflows the float range
    raises :class:`DomainError`, naming the last accepted time.  A run
    that has not reached ``t_end`` after ``MAX_STEPS`` accepted steps
    raises :class:`StepUnderflow`, naming the steps and the time reached.
    """
    t1 = settings.t_end
    I, J, _ = spec.pairs
    # each pair with the offsets of its x coordinates in positions_of(y)
    pairs = [((i, j), 2 * i, 2 * j) for i, j in zip(I.tolist(), J.tolist())]

    def nearest(y):
        """The closest pair and its squared distance."""
        p = positions_of(y)
        pair, d2 = None, math.inf
        for ij, a, b in pairs:
            dx, dy = p[a] - p[b], p[a + 1] - p[b + 1]
            r2 = dx * dx + dy * dy
            if r2 < d2:
                pair, d2 = ij, r2
        return pair, d2

    if pairs:
        pair, closest = nearest(y0)
        threshold = COLLISION_FRACTION * math.sqrt(closest)
        gap = math.sqrt(closest) - threshold
        if gap <= 0:
            raise CollisionError(float(t0), pair, math.sqrt(closest))
    ts, rows = ([t0], [y0]) if t_eval is None else ([], [])
    grid = None if t_eval is None else t_eval.tolist()
    sampled = 0   # grid points due so far
    steps, counts = [], []   # the steps with due points, and how many each
    t = t0        # the last accepted time
    try:
        # a runaway charge overflows the stepper's numpy arithmetic
        # first; its warnings give way to the DomainError below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            stepper = DOP853(rhs, t0, y0, t1, settings.rel_tol,
                             settings.abs_tol)
            for _ in range(MAX_STEPS):   # the step budget
                if stepper.t >= t1:
                    break
                stepper.step()
                t, y = stepper.t, stepper.y
                if pairs:
                    d2 = nearest(y)[1]
                    closest = min(closest, d2)
                    new_gap = math.sqrt(d2) - threshold
                    if gap >= 0 >= new_gap:
                        step = [stepper.dense_step()]

                        def at(s):
                            return interpolate(np.array([s]), step, [1])[0]

                        tc = _crossing(lambda s: math.sqrt(nearest(at(s))[1]) - threshold,
                                       stepper.t_old, t)
                        pair, d2 = nearest(at(tc))
                        raise CollisionError(float(tc), pair, math.sqrt(d2))
                    gap = new_gap
                if t_eval is None:
                    ts.append(t)
                    rows.append(y)
                    continue
                due = bisect_right(grid, t)
                if due > sampled:
                    steps.append(stepper.dense_step())
                    counts.append(due - sampled)
                    sampled = due
                    if len(steps) == INTERPOLATION_BATCH or due == len(grid):
                        rows.append(interpolate(t_eval[due - sum(counts):due],
                                                steps, counts))
                        steps, counts = [], []
            if stepper.t < t1:
                raise StepUnderflow(f"the step budget of {MAX_STEPS} accepted "
                                    f"steps is spent at t = {stepper.t:.6g}, "
                                    f"before t_end = {t1:.6g}")
    except OverflowError:
        # a float ``** 1.5`` past 1.8e308 raises instead of giving inf
        raise DomainError("the cube of a pair distance overflows the float "
                          f"range in the step after t = {t:.6g}") from None

    stats = {"nfev": stepper.nfev}
    if pairs:
        stats["min_pair_distance"] = math.sqrt(closest)
    return (np.array(ts) if t_eval is None else t_eval), np.vstack(rows), stats


def integrate(spec, state, settings):
    """Integrate the Newton equations from ``state`` up to ``settings.t_end``.

    Raises :class:`CollisionError` if the closest pair distance falls to
    ``COLLISION_FRACTION`` of the start state's, :class:`StepUnderflow` if
    the stepper cannot proceed or spends ``MAX_STEPS`` accepted steps, and
    :class:`DomainError` if a pair distance outgrows the float range.
    """
    t_eval = _checked_grid(settings, state.t)
    if state.n != spec.n:
        raise DomainError("state and spec have different particle counts")
    n = spec.n
    y0 = np.concatenate([state.positions.ravel(), state.velocities.ravel()])
    t, y, stats = _solve(spec, _rhs(spec), y0, state.t, t_eval, settings,
                         lambda y: y[: 2 * n].tolist())
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


def rigidity_report(traj):
    """The worst relative deviation ``max |d_ij(t) - d_ij(0)| / d_ij(0)`` of
    the inter-particle distances over the pairs and samples, a float: zero
    up to integration error on a rigid (special) trajectory, O(1) on a
    generic one, and 0 with fewer than two charges."""
    d = pair_distances(traj.positions)
    return float(np.max(np.abs(d - d[0]) / d[0], initial=0.0))


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
    with output_file(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * len(data)) % tuple(data.ravel().tolist()))


def write_trajectory_csv(traj, path):
    nt, n = traj.positions.shape[:2]
    state = np.concatenate([traj.positions, traj.velocities], axis=-1)
    _write_csv(path, trajectory_header(n),
               np.column_stack([traj.t, state.reshape(nt, 4 * n)]))


def read_trajectory_csv(path, spec):
    """Read a trajectory written by :func:`write_trajectory_csv`.

    Raises :class:`SpecParseError` (with the line number) on bytes that
    are not UTF-8, on malformed, truncated or non-finite rows, on times that
    do not increase and on a row where two charges share a point.  Blank
    lines are skipped.  The rows are parsed in one pass by ``np.loadtxt``'s
    C tokenizer, whose cells go through CPython's correctly rounded
    ``PyOS_string_to_double``.  Its array is kept only when it has
    ``1 + 4n`` columns, every value is finite and t strictly increases;
    any other outcome, a ``ValueError`` of numpy's included, walks the rows
    one by one with ``float()`` (:func:`_walk_rows`), which names the
    first faulty line.  A file whose text holds U+001F goes to the walk
    at once: numpy strips that unit separator around a cell as whitespace,
    where ``float()`` refuses it.
    """
    n = spec.n
    expected = 1 + 4 * n
    text = read_text(path)
    lines = text.splitlines()
    if not lines:
        raise SpecParseError("empty trajectory file")
    header = lines[0].split(",")
    if header != trajectory_header(n):
        raise SpecParseError(
            f"unexpected header for an n={n} system: {lines[0]!r}", line=1
        )
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise SpecParseError("trajectory file has a header but no rows")
    data = None
    # numpy strips U+001F as whitespace, where float() refuses it
    if "\x1f" not in text:
        # numpy's default comments="#" would cut a last cell "1#" to "1"
        with contextlib.suppress(ValueError):
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    if data is None or not (data.shape[1] == expected
                            and np.isfinite(data).all()
                            and (data[1:, 0] > data[:-1, 0]).all()):
        data = _walk_rows(lines, expected)
    state = data[:, 1:].reshape(-1, n, 4)
    I, J, _ = spec.pairs
    shared = (state[:, I, 0:2] == state[:, J, 0:2]).all(axis=-1)
    if shared.any():
        row, pair = np.unravel_index(shared.argmax(), shared.shape)
        line_no = [k for k, line in enumerate(lines[1:], start=2) if line.strip()][row]
        raise SpecParseError(f"particles {I[pair] + 1} and {J[pair] + 1} "
                             "share a point", line=line_no)
    return Trajectory(spec, data[:, 0], state[..., 0:2], state[..., 2:4])


def _walk_rows(lines, width):
    """Walk the rows after the header in file order and raise
    :class:`SpecParseError` at the first faulty one; the rows as an array
    when none is."""
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SpecParseError(
                f"expected {width} columns, got {len(parts)} (truncated row?)",
                line=line_no,
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise SpecParseError("non-numeric value in row", line=line_no) from None
        if not all(map(math.isfinite, vals)):
            raise SpecParseError("non-finite value in row", line=line_no)
        if rows and vals[0] <= rows[-1][0]:
            raise SpecParseError(f"t = {vals[0]!r} does not increase", line=line_no)
        rows.append(vals)
    return np.array(rows)
