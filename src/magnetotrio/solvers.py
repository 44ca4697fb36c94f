"""Algebraic solvers for the rigid ("special") trajectories.

Three planar charges in a uniform transverse field admit one-parameter
families of motions in which every inter-particle distance is constant.
Each family is a root set of a small algebraic system in the rotation
speeds; this module evaluates those systems, finds their roots, and
certifies the results against the exact Newtonian dynamics.

Configurations
--------------
I   : charges 1 and 2 rotate with frequency omega at opposite ends of a
      diameter through charge 3, which either rests at the center
      (v3 = 0) or runs its own circle at frequency omega3 (v3 != 0,
      which forces a common charge-to-mass ratio and an identical pair).
II  : all three charges rotate collinearly with one frequency omega on
      the same side of the center, radii v_i / omega, speeds ordered
      v1 < v2 < v3.
III : as II but charge 3 sits on the opposite side of the center
      (anti-phase): charges 3, 2, 1 along the line, v1 > v2 with any
      v3 > 0.

The collinear equations generalize to n charges (solve_nbody_II).

Every one of them is one collinear layout (:func:`_layout`) turning
about a center: Configuration I is (v1, -v2, 0) about charge 3, III
reflects the third speed of II, and n-body II generalizes both.  One set
of balance rows (_collinear_terms, then an identical pair's third-charge
circle) and one t = 0 solver vector on the line (_line) serve all four;
one routine (_collinear_solution) takes the field (_collinear_field),
omega = kappa*B and the gates of every root but Configuration I's
identical pair, whose speeds solve a quadratic at the spec's field.
Every search sweeps the values :func:`sweep_grid` decides, the collinear
ones on one sweep (:func:`_collinear_sweep`) of speed tuples: (v1, v1
sqrt(e2/e1), 0) at each v1 for I, else the speeds at each value of the
last speed, the second fixed at 1 (the systems are scale-covariant),
from the roots in v1 of the compiled elimination sextic (the eigenvalues
of its companion matrix, by LAPACK, so every positive real root is
found), or by Newton.

Sign conventions and certification
----------------------------------
The force-balance equations take the sign pattern of the Coulomb terms
from the layout's nominal order and rotation sense (omega > 0), so a root
is a genuine Newtonian motion only inside that sector, where the signed
speeds increase strictly along the order and none is negative.  Every
root is certified the same way (:func:`_certify`): the Newton balance in
floats at the t = 0 line coordinates, then rigidity over a quarter
period, by the rotation's spectrum where that bounds the drift far below
the gate, else by integrating them in the frame turning with it, where
it is a relative equilibrium (Meyer, Hall and Offin, Introduction to
Hamiltonian Dynamical Systems and the N-Body Problem, 2nd ed., 2009).
``notes`` name each gate an uncertified root failed: uncertified roots
are algebra, not trajectories.  A collinear root outside its sector or
sense (most are) is only gated, with no line built, until it leaves the
package: see :func:`_sweep`.  A line, a row or a balance past the float
range keeps its root uncertified (NaN or inf in its note).

Speeds and frequencies are reported positive; ``sense`` records the
actual rotation sense ("cw" for the parametrization
rho(t) = r (cos wt, -sin wt), "ccw" for its mirror).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np
from numpy.linalg import _umath_linalg

from . import dynamics
from .dynamics import IntegratorSettings, rigidity_report
from .errors import (CollisionError, DegenerateError, DomainError,
                     NonConvergence, NoSolution, StepUnderflow)
from .model import PhaseState, classify_system, pair_index

__all__ = [
    "ConfigSolution", "collinear_kappa", "p6_coefficients",
    "solve_config_I_identical", "solve_config_I",
    "solve_config_II", "solve_config_III", "solve_nbody_II",
    "build_initial_state", "conserved_closed_forms", "pair_distance_min",
    "write_catalog", "catalog_header", "sweep_grid", "DEFAULT_GRID_POINTS",
    "MAX_GRID_POINTS",
]

_RESIDUAL_TOL = 1e-10     # relative residual gate for certification
_BALANCE_TOL = 1e-6       # Newton-balance gate (relative)
_RIGIDITY_TOL = 1e-6      # integrated pair-distance gate (relative)
_DEDUP_TOL = 1e-9
_DISC_CLAMP = 1e-12       # identical-pair discriminants below this are 0
_NEWTON_MAX_ITER = 60     # damped-Newton iterations per seed

# The collinear systems are scale-covariant, so the second speed fixes the
# scale (_V2).
_V2 = 1.0
_POLISH_TOL = 1e-12
# Newton's coincidence stop: this many consecutive full steps, each taking
# the gap min_k |u_k - _V2| below _COINCIDENCE_GAP by a ratio in this range
_COINCIDENCE_STEPS, _COINCIDENCE_GAP, _COINCIDENCE_RATIO = 3, 0.05, (0.45, 0.55)
# n > 3 Newton seeds: v1 at these multiples of _V2
_SEEDS_V1 = (0.25, 0.5, 0.8)
# the LAPACK gufuncs np.linalg.solve (dgesv, one right-hand side) and
# np.linalg.eigvals (dgeev) run
_solve1, _eigvals = _umath_linalg.solve1, _umath_linalg.eigvals
# horizon of the rigidity check, in rotation periods (the reason for a
# quarter period is in _certify)
_RIGIDITY_PERIODS = 0.25
# a row skips that check's integration when its imbalance, amplified over
# the horizon, stays below this fraction of the gate (see _certify)
_SCREEN_MARGIN = 1e-2

_GRID_BOUNDS = {"I": (0.5, 2.0), "II": (1.5, 20.0), "III": (0.05, 0.8), "nbody-II": (1.5, 20.0)}
DEFAULT_GRID_POINTS = 12
# Largest grid sweep_grid builds; every point is a root search.
MAX_GRID_POINTS = 10**6


# ---------------------------------------------------------------------------
# solution record
# ---------------------------------------------------------------------------

@dataclass
class ConfigSolution:
    """One rigid-rotation solution.

    Speeds and ``omega``/``omega3`` are magnitudes; ``sense`` carries the
    rotation sense.  ``residual_norm`` is the worst *relative* residual of
    the defining algebraic system (each equation normalized by its largest
    additive term).  ``newton_balance`` is the relative imbalance of the
    exact Newtonian acceleration at its t = 0 line; ``rigidity`` is the
    integrated relative pair-distance deviation when certification ran an
    integration (NaN otherwise, as for a row the spectral screen passed).
    ``growth`` is lambda t_q, the largest real part lambda of the
    rotation's Floquet exponents times the rigidity horizon t_q, for a row
    of any configuration that reached the screen (NaN where no spectrum
    was formed, or for a row an earlier gate rejected).  Every returned row
    is certified in full; a gated root is finished on its way out
    (:func:`_sweep`).
    """

    config: str
    branch: str
    v: tuple
    omega: float
    B: float
    omega3: float = 0.0
    residual_norm: float = math.nan
    sense: str = "cw"
    certified: bool = False
    newton_balance: float = math.nan
    rigidity: float = math.nan
    growth: float = math.nan
    notes: tuple = field(default_factory=tuple)

    def sort_key(self):
        return (self.config, self.v[-1], self.branch)


# ---------------------------------------------------------------------------
# balance rows (term-split for relative norms)
# ---------------------------------------------------------------------------

def _layout(config, v):
    """(u, order): the signed speeds u of a rotation at speeds ``v``, charge i
    at u_i / omega from the center, and the charges' nominal order along
    the line, toward increasing u.  I: (v1, -v2, 0), charges 2, 3, 1;
    III: (v1, v2, -v3), reverse order; II and n-body II: v, index order."""
    if config == "I":
        return (v[0], -v[1], 0.0), (1, 2, 0)
    if config == "III":
        return (v[0], v[1], -v[2]), (2, 1, 0)
    if config in ("II", "nbody-II"):
        return tuple(v), tuple(range(len(v)))
    raise DomainError(f"unknown configuration tag {config!r}")


def _collinear_terms(spec, u, omega, B, order):
    # every layout's balance rows at signed speeds u, one per charge; the
    # (i, j) Coulomb term carries the sign +1 when charge j lies beyond
    # charge i along ``order``, else -1
    n, charges, masses = len(u), spec.charges.tolist(), spec.masses.tolist()
    rank, w2 = {k: r for r, k in enumerate(order)}, omega**2
    return [[B * charges[i] * u[i], -masses[i] * u[i] * omega]
            + [(1 if rank[j] > rank[i] else -1) * charges[i] * charges[j]
               * w2 / (u[i] - u[j])**2 for j in range(n) if j != i]
            for i in range(n)]


def _relative_norm(terms):
    # the worst |sum| / max |term| of the rows terms(); inf where they
    # overflow or a term is not finite (then the sum is not either)
    worst = 0.0
    try:
        for row in terms():
            if not math.isfinite(total := math.fsum(row)):
                return math.inf
            if (scale := max(map(abs, row))) != 0.0:
                worst = max(worst, abs(total) / float(scale))
    except (OverflowError, ValueError):
        return math.inf
    return worst


# ---------------------------------------------------------------------------
# closed forms shared by the collinear configurations
# ---------------------------------------------------------------------------

def collinear_kappa(spec, v):
    """kappa = sum(e_i v_i) / sum(m_i v_i); the frequency is omega = kappa*B."""
    v = np.asarray(v, float)
    num = float(np.dot(spec.charges, v))
    den = float(np.dot(spec.masses, v))
    if den == 0.0:
        raise DegenerateError("sum(m_i v_i) = 0: kappa undefined")
    return num / den


def _collinear_field(spec, v, order):
    """(kappa, C, B) at signed speeds ``v`` with the charges in ``order``
    along the line, as Python floats: B = v2 (m2 kappa - e2) / (e2 kappa^2
    C) solves the second collinear balance row, where C = sum_j s_2j e_j /
    (v2 - v_j)^2 is its Coulomb bracket (signs as in _collinear_terms).
    Two equal speeds put two charges on one point, which is
    DegenerateError, as is a float that leaves the range."""
    kap = collinear_kappa(spec, v)
    e, m, v = spec.charges.tolist(), spec.masses.tolist(), list(map(float, v))
    if e[1] == 0.0 or kap == 0.0:
        raise DegenerateError("collinear field closed form needs e2 != 0, kappa != 0")
    if len(set(v)) < len(v):
        raise DegenerateError("collinear field closed form: two speeds coincide")
    rank = {k: r for r, k in enumerate(order)}
    try:
        bracket = math.fsum([(1 if rank[j] > rank[1] else -1) * e[j] / (v[1] - v[j])**2
                             for j in range(spec.n) if j != 1])
        if bracket == 0.0:
            raise DegenerateError("collinear field closed form: Coulomb bracket vanishes")
        return kap, bracket, v[1] * (m[1] * kap - e[1]) / (e[1] * kap**2 * bracket)
    except (ArithmeticError, ValueError):   # fsum's ValueError: +inf and -inf
        raise DegenerateError("collinear field closed form leaves the float range") from None


# ---------------------------------------------------------------------------
# the degree-six elimination polynomial (three charges)
# ---------------------------------------------------------------------------

def p6_coefficients(spec):
    """Coefficients {(i, j, k): c} of the sextic whose roots in v1 (given
    v2, v3) are the Configuration-II speed triples with omega and B
    eliminated.  Vanishes identically iff all charge-to-mass ratios
    coincide (the collinear no-go); DomainError where one overflows."""
    if spec.n != 3:
        raise DomainError("the elimination sextic is a three-charge object")
    e1, e2, e3 = spec.charges.tolist()
    m1, m2, m3 = spec.masses.tolist()
    try:
        coeffs = {
            (5, 1, 0): e2*e3*(e2*m1 - e1*m2),
            (5, 0, 1): e2*e3*(e3*m1 - e1*m3),
            (4, 2, 0): 2*e2*e3*(e1*m2 - e2*m1),
            (4, 0, 2): 2*e2*e3*(e1*m3 - e3*m1),
            (4, 1, 1): 2*e2*e3*(e1*(m2 + m3) - e2*m1 - e3*m1),
            (3, 3, 0): -(e1 + e2)*e3*(e1*m2 - e2*m1),
            (3, 0, 3): e2*(e1 - e3)*(e1*m3 - e3*m1),
            (3, 1, 2): (e2*e3*(3*m1 - m2 - 4*m3)*e1 - (e3*m2 + 2*e2*m3)*e1**2
                        + e2*e3*(e2 + 4*e3)*m1),
            (3, 2, 1): ((2*e3*m2 + e2*m3)*e1**2 - e2*e3*(3*m1 + 4*m2 + m3)*e1
                        + e2*e3*(4*e2 + e3)*m1),
            (2, 4, 0): 2*e1*e3*(e1*m2 - e2*m1),
            (2, 0, 4): 2*e1*e2*(e3*m1 - e1*m3),
            (2, 1, 3): (4*e2*m3*e1**2
                        + (m3*e2**2 - e3*(4*m1 + m2 - 3*m3)*e2 - e3**2*m2)*e1
                        - 2*e2*e3**2*m1),
            (2, 2, 2): -2*((e3*m1 + e1*m3)*e2**2
                           + (m3*e1**2 - 2*e3*m2*e1 + e3**2*m1)*e2
                           - e1*e3*(e1 + e3)*m2),
            (2, 3, 1): ((m3*e2**2 + e3*(4*m1 + m2 + m3)*e2 - e3**2*m2)*e1
                        - 4*e3*m2*e1**2 - 2*e2**2*e3*m1),
            (1, 5, 0): e1*e3*(e2*m1 - e1*m2),
            (1, 0, 5): e1*e2*(e1*m3 - e3*m1),
            (1, 1, 4): 2*e1*e2*(e3*(m1 + m2) - (e1 + e2)*m3),
            (1, 2, 3): (e2*m3*e1**2
                        + (4*m3*e2**2 - e3*(m1 + 4*m2 + 3*m3)*e2 + 2*e3**2*m2)*e1
                        + e2*e3**2*m1),
            (1, 3, 2): ((e3*(m1 + m2 + 4*m3)*e2 - 2*m3*e2**2 - 4*e3**2*m2)*e1
                        - e3*m2*e1**2 + e2**2*e3*m1),
            (1, 4, 1): 2*e1*e3*((e1 + e3)*m2 - e2*(m1 + m3)),
            (0, 1, 5): e1*e2*(e2*m3 - e3*m2),
            (0, 2, 4): 2*e1*e2*(e3*m2 - e2*m3),
            (0, 3, 3): e1*(e2 + e3)*(e2*m3 - e3*m2),
            (0, 4, 2): 2*e1*e3*(e3*m2 - e2*m3),
            (0, 5, 1): e1*e3*(e2*m3 - e3*m2),
        }
        if all(map(math.isfinite, coeffs.values())):
            return coeffs
    except OverflowError:
        pass
    raise DomainError("the elimination sextic's coefficients overflow")


@cache
def _p6_factory(keys):
    """Compile the sextic of the monomials ``keys`` (those of
    :func:`p6_coefficients`) once.  ``make(a0, ..)`` binds the coefficients
    and returns ``at(v2, v3) -> (coeffs, f, df)``: the descending
    coefficients in v1, and the sextic and its v1-derivative in v1, each
    the ``math.fsum`` of a walk over the keys, term by term
    ``((a * v1**i) * v2**j) * v3**k`` (``i * a`` for the derivative), with
    each power computed once per point or v1."""
    def total(term, pick):
        return "fsum((" + "".join(term.format(k=k, i=i, h=i - 1, j=j, l=l) + ", "
                                  for k, (i, j, l) in enumerate(keys) if pick(i)) + "))"

    def powers(var, base, exps):
        exps = sorted(set(exps))
        return (", ".join(f"{var}{e}" for e in exps) + ", = "
                + ", ".join(f"{base}**{e}" for e in exps))

    # one sum per degree in v1, sextic first
    coeffs = ", ".join(total("a{k} * s{j} * t{l}", d.__eq__)
                       for d in range(6, -1, -1))
    source = f"""\
def make({", ".join(f"a{k}" for k in range(len(keys)))}):
    def at(v2, v3):
        {powers("s", "v2", [j for _, j, _ in keys])}
        {powers("t", "v3", [l for _, _, l in keys])}
        coeffs = [{coeffs}]
        def f(v1):
            {powers("p", "v1", [i for i, _, _ in keys])}
            return {total("a{k} * p{i} * s{j} * t{l}", lambda i: True)}
        def df(v1):
            {powers("p", "v1", [i - 1 for i, _, _ in keys if i])}
            return {total("{i} * a{k} * p{h} * s{j} * t{l}", bool)}
        return coeffs, f, df
    return at"""
    scope = {"fsum": math.fsum}
    exec(compile(source, "<elimination sextic>", "exec"), scope)
    return scope["make"]


# ---------------------------------------------------------------------------
# state construction and Newtonian certification
# ---------------------------------------------------------------------------

def _frame_omega(sol):
    """The signed frequency w of ``sol``'s rotation: each collinear charge
    runs rho(t) = r (cos wt, -sin wt) from its :func:`_line` (clockwise for
    w > 0), constant in the frame of the kernel ``dynamics._rhs(spec, w)``."""
    return sol.omega if sol.sense == "cw" else -sol.omega


def _line(solution, spec):
    """(c, y): the center c and the t = 0 solver vector y (positions, then
    velocities) of ``solution``'s rotation of the charges of ``spec``
    (DomainError if their counts differ).  With the signed speeds u of its
    layout (:func:`_layout`), charge i starts at (x_i, 0), x_i = c + u_i /
    omega, with velocity (0, vy_i), vy_i = c' - sigma u_i, sigma = +1 for
    "cw" and -1 for "ccw": only the velocities read the sense, since
    sigma u_i / (sigma omega) is the float u_i / omega.  The center c and its
    velocity c' are 0 except for a row with a second frequency omega3
    (Configuration I with v3 != 0), whose center, charge 3, runs its own
    circle about the origin at omega3 and speed v3."""
    if tuple(spec.charges.shape) != (len(solution.v),):
        raise DomainError("solution and spec have different particle counts")
    sigma = 1.0 if solution.sense == "cw" else -1.0
    u, _ = _layout(solution.config, solution.v)
    c = cvel = 0.0
    if solution.omega3:
        c, cvel = solution.v[2] / solution.omega3, -sigma * solution.v[2]
    return c, ([q for ui in u for q in (c + ui / solution.omega, 0.0)]
               + [q for ui in u for q in (0.0, cvel - sigma * ui)])


def build_initial_state(solution, spec):
    """Phase-space snapshot of a solution at t = 0.

    Returns ``(spec_b, state)`` where ``spec_b`` is ``spec`` with the
    solution's field value installed.  The parametrization puts the phase
    at angle 0: the state is the solver vector of :func:`_line`, each
    charge i at (x_i, 0) with velocity (0, vy_i).
    """
    _, y = _line(solution, spec)
    return replace(spec, B=solution.B), PhaseState(*np.reshape(y, (2, -1)))


def _newton_balance(solution, spec, line):
    """Relative mismatch between the exact Newtonian accelerations of
    ``solution``'s rotation of the charges of ``spec`` and the rigid-rotation
    kinematics it claims.  Each charge turns at omega about the center c of
    its :func:`_line` ``line``, which turns at omega3, so it should
    accelerate at -omega^2 (x - c) - omega3^2 c.  Zero (to rounding) iff the
    solution is a genuine trajectory; far above the 1e-6 gate for
    algebra-only roots whose sign sector does not match.  The floats, a NaN
    included, are those of ``accelerations`` on the built state, from its
    kernel at the line coordinates; NaN where a coordinate is not finite
    (the built state refuses that line), inf where a power overflows or a
    pair distance underflows to 0."""
    c, y = line
    if not all(map(math.isfinite, y)):
        return math.nan
    try:
        acc = dynamics._rhs(spec, B=solution.B)(0.0, np.array(y))[len(y) // 2:]
        w2, w3 = -solution.omega**2, solution.omega3**2
    except ArithmeticError:
        return math.inf
    # the positions lead y; the center is (c, 0)
    off = [abs(a - (w2 * (q - ck) - w3 * ck))
           for a, q, ck in zip(acc, y, itertools.cycle((c, 0.0)))]
    # a NaN is the worst, as ndarray.max takes it (a NaN in acc is one in off)
    return ((math.nan if math.isnan(sum(off)) else max(off))
            / max(1.0, *map(abs, acc)))


@cache
def _linearization_slots(n):
    """(identity block, flat indices) of :func:`_linearization`'s 4n x 4n A,
    the indices in the order of the values it computes."""
    N, (I, J) = 4 * n, (p.tolist() for p in pair_index(n))
    cells = [rc for k in range(0, N, 2) for rc in ((k, k + 1), (k + 1, k))]
    cells += [(2 * n + 2 * a + xy, 2 * b + xy) for i, j in zip(I, J)
              for a, b in ((i, j), (j, i)) for xy in (0, 1)]
    cells += [(2 * n + 2 * a + xy, 2 * a + xy) for a in range(n) for xy in (0, 1)]
    return np.eye(N, k=2 * n), np.array([r * N + c for r, c in cells])


def _linearization(sol, spec, line):
    """A = Dg(y*): the Jacobian of the field g of ``sol``'s rotating frame,
    the kernel ``dynamics._rhs(spec, w, B=sol.B)``, at the rotation's t = 0
    solver vector y* (of its :func:`_line` ``line``), where g vanishes; in
    closed form, in Python floats.  Over the 2-blocks of positions and
    velocities it holds the identity that maps each velocity onto its
    position, the frame's w (I_2n x J) with J = [[0, -1], [1, 0]], the
    Lorentz block e_i B / m_i [[0, 1], [-1, 0]] of each charge, and the
    Coulomb pair blocks c_ij (I / r^3 - 3 d d^T / r^5) / m_i of the force on
    charge i per unit of x_i (minus that per unit of x_j), with d = x_i -
    x_j, r = |d| and c_ij = e_i e_j: c_ij / r^3 diag(-2, 1) / m_i on the
    line, where d lies along the x axis.  The values go into a copy of the
    identity block at indices cached per n, each sum in the pair order of an
    entry-by-entry fill onto 0.0, whose floats they are.  ArithmeticError
    where a float overflows or a pair distance is 0."""
    n, w, B = spec.n, _frame_omega(sol), sol.B
    _, y = line
    e, m = spec.charges.tolist(), spec.masses.tolist()
    lorentz = [ei * B / mi for ei, mi in zip(e, m)]
    values = [-w, w] * n + [q for L in lorentz for q in (-w + L, w - L)]
    diagonal = [0.0] * (2 * n)
    for i, j, c in zip(*(p.tolist() for p in spec.pairs)):
        cr3 = c / abs(y[2 * i] - y[2 * j]) ** 3
        for a in (i, j):
            cx, cy = 2.0 * cr3 / m[a], cr3 / m[a]
            diagonal[2 * a] -= cx
            diagonal[2 * a + 1] += cy
            values += (0.0 + cx, 0.0 - cy)
    A0, slots = _linearization_slots(n)
    A = A0.copy()
    A.put(slots, values + diagonal)
    return A


def _growth(sol, spec, horizon, line):
    """lambda * ``horizon``, lambda the largest real part of the eigenvalues
    of :func:`_linearization` at ``line`` (the ``eigvals`` gufunc): the rotation's
    Floquet exponents (Meyer, Hall and Offin, 2009; Moeckel, J. Dyn. Diff.
    Eq. 6 (1994) 37), so e^(lambda t) bounds the linear growth of a
    deviation over t.  NaN where the spectrum cannot be formed: a float of
    A overflows, an entry of A is not finite, or LAPACK fails."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            A = _linearization(sol, spec, line)
            if not np.isfinite(A).all():
                return math.nan
            lam = _eigvals(A, signature="d->D").real.max()
    except ArithmeticError:
        return math.nan
    return float(lam) * horizon


def _certify(sol, spec, terms, gates=()):
    """Certify ``sol``: the caller's ``(ok, note)`` gates, then the relative
    residual of its balance rows ``terms()`` and its Newton balance; a root
    that passed them all must also stay rigid over a quarter period (an
    integration that collides or that the stepper cannot finish fails that
    gate).  Each failed gate leaves a note, formatted only then; ``sol`` is
    certified when none failed.  The t = 0 line (:func:`_line`) is built
    here, once, and handed to the balance, the linearization and the
    rigidity integration; no state is built.  A line past the float range
    reads as Newton imbalance NaN, so its root is kept uncertified.  A
    collinear root its sector or sense gate rejected comes here only on its
    way out of the package (:func:`_sweep`), and stops after the balance.

    The rigidity gate reads a single-frequency rotation.  Configuration I's
    row with the third charge on its own circle at omega3 (one common
    charge-to-mass ratio) is that circle added to every charge of its twin
    with the third charge at rest; a cyclotron circle added to every charge
    still solves the equations of motion, so the two keep the same pair
    distances at all times, and the gate reads the twin.

    The gate is screened first by the rotation's spectrum (:func:`_growth`,
    recorded as ``sol.growth``): a root passes without integrating when
    max(balance, eps) e^growth, eps = ulp(1) the float state's own rounding,
    is at most _SCREEN_MARGIN of the gate's tolerance, so no linear
    amplification of that seed over the horizon reaches the gate (and no
    root above growth ln(1e-8 / eps) ~ 17.6 is screened).  The bound is
    compared in logarithms, which no growth overflows.  Every other root,
    NaN growth included, integrates its line with the kernel of the frame
    that turns with the rotation (``dynamics._rhs`` at :func:`_frame_omega`)
    on ``dynamics._solve``, where it is an equilibrium: pair distances are
    those of the inertial frame, but DOP853 takes few steps on a constant
    solution.  Round-off and truncation still seed a deviation that an
    unstable rotation amplifies (mixed-sign charges by ~e^25 per period):
    the quarter-period horizon keeps such seeds below the gate."""
    sol.residual_norm = _relative_norm(terms)
    line = _line(sol, spec)
    sol.newton_balance = _newton_balance(sol, spec, line)
    notes = [note for ok, note in gates if not ok]
    if not sol.residual_norm < _RESIDUAL_TOL:
        notes.append(f"relative residual {sol.residual_norm:.3g}")
    if not sol.newton_balance < _BALANCE_TOL:
        notes.append(f"Newton imbalance {sol.newton_balance:.3g}")
    if not notes:
        rigid, twin = sol, line
        if sol.omega3:
            rigid = replace(sol, v=(*sol.v[:2], 0.0), omega3=0.0)
            twin = _line(rigid, spec)
        t_end = _RIGIDITY_PERIODS * (2 * math.pi / sol.omega)
        sol.growth = _growth(rigid, spec, t_end, twin)
        if not sol.growth <= math.log(_SCREEN_MARGIN * _RIGIDITY_TOL / max(
                sol.newton_balance, math.ulp(1.0))):
            settings = IntegratorSettings(t_end=t_end, sample_interval=t_end / 200.0)
            n = spec.n
            try:
                # looked up at call time, so a caller can watch these runs
                t, y, _ = dynamics._solve(
                    spec, dynamics._rhs(spec, _frame_omega(rigid), B=rigid.B),
                    np.array(twin[1]), 0.0, dynamics._checked_grid(settings, 0.0),
                    settings, lambda y: y[:2 * n].tolist())
            except (CollisionError, StepUnderflow) as err:
                notes = (f"rigidity integration stopped: {err}",)
            else:
                sol.rigidity = rigidity_report(dynamics.Trajectory(
                    spec, t, y[:, :2 * n].reshape(-1, n, 2),
                    y[:, 2 * n:].reshape(-1, n, 2)))
                if not sol.rigidity < _RIGIDITY_TOL:
                    notes = (f"pair distances drift {sol.rigidity:.3g} within "
                             f"{_RIGIDITY_PERIODS:g} period",)
    sol.notes = tuple(notes)
    sol.certified = not notes
    return sol


# ---------------------------------------------------------------------------
# the sweep every search runs
# ---------------------------------------------------------------------------

def sweep_grid(spec, config, grid_min=None, grid_max=None,
               points=DEFAULT_GRID_POINTS):
    """``points`` values from ``grid_min`` to ``grid_max`` in geometric steps,
    by default over the last speed's [1.5, 20] (II, n-body II) or [0.05, 0.8]
    (III), over an identical pair's [rho_min, 4 rho_min] or [0.5, 4], or else
    v1's [0.5, 2] (I), each distinct value once, ascending.  DomainError
    for an unknown ``config`` tag, and unless 0 < min <= max < inf and
    ``points`` is an integer in [1, MAX_GRID_POINTS]."""
    if not isinstance(points, (int, np.integer)) or points < 1:
        raise DomainError(f"grid points must be an integer of at least 1, "
                          f"got {points!r}")
    if points > MAX_GRID_POINTS:
        raise DomainError(f"{points} grid points exceed the ceiling of "
                          f"{MAX_GRID_POINTS}")
    if config == "I" and spec.n == 3 and _identical_pair(spec):
        rmin = pair_distance_min(spec)
        bounds = (rmin, 4 * rmin) if rmin else (0.5, 4.0)
    elif config in _GRID_BOUNDS:
        bounds = _GRID_BOUNDS[config]
    else:
        raise DomainError(f"unknown configuration tag {config!r}")
    lo = bounds[0] if grid_min is None else grid_min
    hi = bounds[1] if grid_max is None else grid_max
    if not 0 < lo <= hi < math.inf:
        raise DomainError(f"grid bounds must satisfy 0 < min <= max < inf, "
                          f"got [{lo:g}, {hi:g}]")
    return np.array(sorted(set(_geomspace(lo, hi, points))))


def _geomspace(lo, hi, num):
    """``np.geomspace(lo, hi, num).tolist()`` to the bit, for 0 < lo <= hi
    < inf and an integer num >= 1, without numpy's wrapping: ``linspace``'s
    exponents between the bounds' ``np.log10`` (its zero-step and
    single-point cases included), ``np.power``, and the pinned bounds."""
    if num == 1:
        return [float(lo)]
    start = np.log10(float(lo))
    span, y = np.log10(float(hi)) - start, np.arange(num, dtype=float)
    step = span / (num - 1)
    out = np.power(10.0, (y * step if step else y / (num - 1) * span) + start)
    out[0], out[-1] = lo, hi
    return out.tolist()


def _finished(row):
    sol, rest = row
    return sol if rest is None else rest()


def _sweep(spec, config, values, point, require_certified):
    """The sorted solutions over the positive finite ``values`` (default
    :func:`sweep_grid`), from the ``(sol, rest)`` pairs ``point(x)`` gives
    (see :func:`_collinear_solution`); a point may raise only NoSolution or
    DegenerateError.  NoSolution, naming the first such error and up to four
    uncertified roots, when none is (certified).

    A root its caller's gate rejected holds only the gate's notes until it
    leaves: ``rest()`` finishes it for every row when ``require_certified``
    is False and for the four a NoSolution message names, for no other."""
    if values is None:
        values = sweep_grid(spec, config)
    out, rejected, reason = [], [], None
    for x in np.atleast_1d(np.asarray(values, float)):
        if not 0.0 < x < math.inf:
            continue
        try:
            rows = point(float(x))
        except (NoSolution, DegenerateError) as ex:
            reason = reason or str(ex)
            continue
        for row in rows:
            if row[0].certified or not require_certified:
                out.append(_finished(row))
            else:
                rejected.append(row)
    if not out:
        name = "collinear rigid" if config == "nbody-II" else f"Configuration-{config}"
        msg = f"no {name} rotation on the sampled grid"
        if reason:
            msg += f": {reason}"
        if rejected:
            msg += ". Algebraic roots exist but fail certification: " + "; ".join(
                f"v{len(s.v)}={s.v[-1]:.6g}: v1={s.v[0]:.10g} ({', '.join(s.notes)})"
                for s in map(_finished, rejected[:4]))
        raise NoSolution(msg)
    out.sort(key=ConfigSolution.sort_key)
    return out


# ---------------------------------------------------------------------------
# Configuration I
# ---------------------------------------------------------------------------

def _identical_pair(spec):
    e1, e2, _ = spec.charges
    m1, m2, _ = spec.masses
    return e1 == e2 and m1 == m2


def _pair_quadratic(spec, B):
    """(a, b) = (8 m (e + 4 e3), e B^2) in floats: an identical pair (e, m)
    at field B and separation rho has the speed discriminant
    1 - a / (b rho^3).  DomainError for a zero field, an uncharged pair,
    or a field whose b or critical cube a / b leaves the float range."""
    e, e3, m = float(spec.charges[0]), float(spec.charges[2]), float(spec.masses[0])
    if e == 0.0:
        raise DomainError("Configuration I needs a charged pair")
    if B == 0.0:
        raise DomainError("Configuration I of an identical pair needs a "
                          "nonzero field")
    a = 8 * m * (e + 4*e3)
    try:
        b = e * B**2
        in_range = abs(b) < math.inf and math.isfinite(a / b)
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise DomainError(f"Configuration I of an identical pair at B = {B:g}: "
                          "e B^2 or the critical cube 8 m (e + 4 e3) / (e B^2) "
                          "leaves the float range")
    return a, b


def pair_distance_min(spec):
    """Smallest pair separation admitting the identical-pair rotation of
    three charges at the spec's field, or None when every separation works.
    DomainError for other than three charges, a zero field or an uncharged pair."""
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    a, b = _pair_quadratic(spec, spec.B)
    cube = a / b
    return cube ** (1.0 / 3.0) if cube > 0 else None


def solve_config_I_identical(spec, rho12, v3=0.0):
    """Configuration I for an identical rotating pair (e1 = e2, m1 = m2)
    at a prescribed pair separation, using the spec's field.

    Returns the two quadratic branches ("+" and "-"); at the critical
    separation they coincide (the discriminant is clamped to zero when
    |disc| < 1e-12 to keep the coincidence exact in floats).  Raises
    DomainError for a zero field, an uncharged pair, a field out of float
    range (:func:`_pair_quadratic`), or a nonzero third speed without a
    common charge-to-mass ratio alpha; NoSolution below the critical
    separation; DegenerateError where rho12**3 overflows or underflows to 0.
    With alpha, the third charge runs its own circle at omega3 = alpha*B,
    in the sense of both branches (that of e B), and any v3 > 0 works (the
    returned row is the representative for the requested v3); its rigidity
    is that of its twin with the third charge at rest (see :func:`_certify`).
    """
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    if not _identical_pair(spec):
        raise DomainError("identical-pair branch needs e1 = e2 and m1 = m2")
    e, m, B = spec.charges.tolist(), spec.masses.tolist(), spec.B
    if rho12 <= 0:
        raise DomainError("pair separation must be positive")
    a, b = _pair_quadratic(spec, B)
    try:
        disc = 1.0 - a / (b * rho12**3)
    except (OverflowError, ZeroDivisionError):
        raise DegenerateError(f"separation {rho12:g} leaves the float range "
                              "of the pair discriminant") from None
    disc = 0.0 if abs(disc) < _DISC_CLAMP else disc
    omega3_signed = 0.0
    if v3 != 0.0:
        cls = classify_system(spec)
        if v3 < 0:
            raise DomainError("v3 must be nonnegative")
        if not cls.equal_larmor:
            raise DomainError(
                "a moving third charge needs a common charge-to-mass ratio")
        omega3_signed = cls.alpha * B
    if disc < 0:
        rmin = pair_distance_min(spec)
        raise NoSolution(
            f"separation {rho12:.6g} below the critical "
            f"{rmin:.6g} at B = {B:.6g}: speed branches are complex")
    out = []
    for tag, s in (("+", 1.0), ("-", -1.0)):
        v_signed = e[0] * B * rho12 / (4*m[0]) * (1.0 + s * math.sqrt(disc))
        if v_signed == 0.0:
            continue
        omega_signed = 2.0 * v_signed / rho12
        # the balance equations hold at the signed speeds: the collinear
        # rows of the layout (v, -v, 0), then the third charge's own circle
        v3_signed = math.copysign(v3, omega_signed) if v3 else 0.0
        circle = [[v3_signed * B * ei, -v3_signed * mi * omega3_signed]
                  for ei, mi in zip(e, m)]
        u, order = _layout("I", (v_signed, v_signed))
        rows = partial(_collinear_terms, spec, u, omega_signed, B, order)
        sol = ConfigSolution(
            config="I", branch=tag, v=(abs(v_signed),) * 2 + (float(v3),),
            omega=abs(omega_signed), B=B, omega3=abs(omega3_signed),
            sense="cw" if omega_signed > 0 else "ccw")
        out.append(_certify(sol, spec, lambda: rows() + circle))
    if not out:
        raise NoSolution("both speed branches degenerate")
    return out


def solve_config_I(spec, values=None, require_certified=True):
    """Sweep an identical pair's separation (:func:`solve_config_I_identical`,
    v3 = 1 when every charge-to-mass ratio agrees, else 0) or else, on
    :func:`_collinear_sweep`, v1 of the collinear root (v1, -v2, 0) about a
    resting third charge, v2 = v1 sqrt(e2/e1): its field is an output, and
    an equal pair (e1 = e2) degenerates at every point.  A spec the branch
    refuses raises DomainError before the sweep; NoSolution as for
    :func:`solve_config_II`, naming roots that fail the gates."""
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    if _identical_pair(spec):
        _pair_quadratic(spec, spec.B)     # refuses a zero field, an uncharged pair
        v3 = 1.0 if classify_system(spec).equal_larmor else 0.0

        def point(rho):
            return [(sol, None) for sol in solve_config_I_identical(spec, rho, v3=v3)]
        return _sweep(spec, "I", values, point, require_certified)
    e1, e2, _ = spec.charges.tolist()
    if e1 * e2 <= 0:
        raise DomainError("the rotating pair needs same-sign charges "
                          "(v2^2 = v1^2 e2/e1)")
    ratio = math.sqrt(e2 / e1)

    def speeds_at(v1):
        if e1 == e2:      # then kappa = 0
            raise DegenerateError(
                "a pair of equal charges (e1 = e2) rotates about a resting third "
                "charge only as an identical pair, with equal masses; the "
                "frequency closed form degenerates")
        return [(v1, ratio * v1, 0.0)]

    return _collinear_sweep(spec, "I", values, speeds_at, require_certified)


# ---------------------------------------------------------------------------
# collinear root search (I at rest, II, III and n-body II share the machinery)
# ---------------------------------------------------------------------------

def _polish(f, df, x):
    """Newton-polish an approximate root ``x`` of ``f``."""
    for _ in range(40):
        d = df(x)
        if d == 0:
            break
        step = f(x) / d
        x -= step
        if abs(step) <= _POLISH_TOL * max(1.0, abs(x)):
            break
    return x


def _p6_roots_v1(at, v2, v3):
    """Positive real roots in v1 of the elimination sextic (``at`` of
    :func:`_p6_factory`) at (v2, v3): the eigenvalues of the companion
    matrix ``np.roots`` builds, from the gufunc and error state of
    ``np.linalg.eigvals``, each Newton-polished on the exact sum.
    DegenerateError where the floats overflow."""
    try:
        coeffs, f, df = at(v2, v3)
        # np.roots strips the zeros at both ends; a trailing one is a root
        # at v1 = 0, which polishing keeps at 0 (f(0) is that zero) and the
        # positivity gate drops
        nonzero = [d for d, a in enumerate(coeffs) if a] or [6]
        p = coeffs[nonzero[0]:nonzero[-1] + 1]
        row = [-a / p[0] for a in p[1:]]
        if not all(map(math.isfinite, coeffs + row)):
            raise OverflowError("non-finite companion matrix")
        candidates = []
        if row:
            companion = np.eye(len(row), k=-1)
            companion[0] = row
            with np.errstate(invalid="raise", over="ignore", divide="ignore",
                             under="ignore"):
                candidates = _eigvals(companion, signature="d->D").tolist()
        roots = []
        for r in candidates:
            if abs(r.imag) > 1e-9 * max(1.0, abs(r)):
                continue
            x = _polish(f, df, float(r.real))
            # spurious factor zeros of the elimination (coincident speeds)
            if min(abs(x - v2), abs(x - v3)) < 1e-9 * max(1.0, abs(v2), abs(v3)):
                continue
            if x > 0 and not any(abs(x - rr) < _DEDUP_TOL * max(1.0, rr)
                                 for rr in roots):
                roots.append(x)
    # OverflowError, LAPACK's FloatingPointError, and fsum's ValueError on
    # +inf and -inf
    except (ArithmeticError, ValueError):
        raise DegenerateError(f"the elimination sextic overflows at (v2, v3) = "
                              f"({v2:.6g}, {v3:.6g})") from None
    return sorted(roots)


def _collinear_solution(spec, v, config, branch):
    """The ``(sol, rest)`` pair of :func:`_sweep` of one collinear root
    (positive speed tuple ``v``); its own gates are the speed ordering and
    the rotation sense.  A root inside both is certified at once (rest
    None); one outside keeps only their notes, and ``rest()`` is the rest
    of :func:`_certify`."""
    u, order = _layout(config, v)
    # the second balance row solved for B
    kap, _, B = _collinear_field(spec, u, order)
    omega_signed = kap * B
    # with kappa != 0, a zero or non-finite B makes omega so as well
    if omega_signed == 0.0 or not math.isfinite(omega_signed):
        raise DegenerateError("frequency or field closed form degenerates")
    terms = partial(_collinear_terms, spec, u, omega_signed, B, order)
    sol = ConfigSolution(
        config=config, branch=branch, v=tuple(map(abs, v)),
        omega=abs(omega_signed), B=B,
        sense="cw" if omega_signed > 0 else "ccw")
    # the Coulomb signs of the terms hold while the charges lie along the
    # line in ``order``: the signed speeds increase along it
    in_sector = min(v) >= 0 and all(u[i] < u[j] for i, j in zip(order, order[1:]))
    if in_sector and omega_signed > 0:
        return _certify(sol, spec, terms), None
    gates = ((in_sector, "speed ordering outside the sector"),
             (omega_signed > 0, "mirror rotation sense"))
    sol.notes = tuple(note for ok, note in gates if not ok)
    return sol, partial(_certify, sol, spec, terms, gates)


def _sextic_speeds(spec, config):
    """``speeds_at`` of the three-charge sweeps: the positive speeds
    (v1, 1, v3) whose signed form roots the elimination sextic."""
    c = p6_coefficients(spec)
    at = _p6_factory(tuple(c))(*c.values())

    def speeds_at(v3):
        u3 = _layout(config, (_V2, _V2, v3))[0][2]
        return [(v1, _V2, v3) for v1 in _p6_roots_v1(at, _V2, u3)]

    return speeds_at


def _collinear_sweep(spec, config, values, speeds_at, require_certified):
    """Sweep I with the third charge at rest, II, III or n-body II:
    ``speeds_at(x)`` gives the positive speed tuples at the swept value
    ``x``; each is certified unless its closed forms degenerate, and a
    point none of whose tuples survives raises the first DegenerateError
    among them, so the search's NoSolution can name it.  One common
    charge-to-mass ratio alpha is NoSolution for every layout: kappa =
    alpha at any speeds, so the field closed form gives B = 0 (and the
    three-charge elimination sextic of II and III vanishes identically)."""
    if spec.charges[1] == 0.0:
        raise DomainError("collinear rotations need a charged second particle "
                          "(the field closed form divides by e2)")
    cls = classify_system(spec)
    if cls.equal_larmor:
        sextic = (" and the elimination polynomial vanishes identically"
                  if spec.n == 3 and config != "I" else "")
        raise NoSolution(
            f"equal charge-to-mass ratios (alpha = {cls.alpha:.6g}): kappa = "
            f"alpha at any speeds, so the field closed form gives B = 0{sextic}; "
            "no collinear rigid rotation exists")

    def point(x):
        # the first reason is kept as text: an exception held in a local
        # would tie its traceback to this frame in a reference cycle
        rows, reason = [], None
        for k, v in enumerate(speeds_at(x)):
            try:
                rows.append(_collinear_solution(spec, v, config, branch=str(k)))
            except DegenerateError as err:
                reason = reason or str(err)
        if reason and not rows:
            raise DegenerateError(reason)
        return rows

    return _sweep(spec, config, values, point, require_certified)


def solve_config_II(spec, v3_values=None, require_certified=True):
    """Sweep the third speed and solve for Configuration-II rotations.

    The second speed is fixed at 1 (the system is scale-covariant); for
    each v3 the candidate v1 are all positive real roots of the
    elimination sextic (companion-matrix eigenvalues, Newton-polished).
    The field and frequency follow from the closed forms; roots are
    certified against ordering, rotation sense, the Newtonian balance of
    the built state and the rigidity gate of :func:`_certify`.
    ``v3_values`` defaults to :func:`sweep_grid`.

    For the neutral identical-pair pattern (e1 = -2e, e2 = e3 = e,
    m2 = m3 = m) the sextic is e^3 (2m + m1) v1 times a quartic in v1,
    whose roots (v1 ~ v3, never in the speed ordering) come back -- with
    residuals -- only when ``require_certified`` is False.

    Raises NoSolution when no (certified) solution exists, including the
    equal charge-to-mass no-go; the message names up to four roots that
    failed certification, with the reasons.
    """
    if spec.n != 3:
        raise DomainError("Configuration II is a three-charge system")
    return _collinear_sweep(spec, "II", v3_values, _sextic_speeds(spec, "II"),
                            require_certified)


def solve_config_III(spec, v3_values=None, require_certified=True):
    """Sweep the third speed for anti-phase collinear rotations.

    Works through the layout (v1, 1, -v3) in reverse order: roots of the
    sextic at (v1, 1, -v3), field -B_II(v1, 1, -v3), frequency from the
    signed speed sum.  Sector: v1 > v2 with any v3 > 0 (charge 3, then 2,
    then 1 along the line).
    ``v3_values`` defaults to :func:`sweep_grid`; certification and
    NoSolution as for :func:`solve_config_II`.
    """
    if spec.n != 3:
        raise DomainError("Configuration III is a three-charge system")
    return _collinear_sweep(spec, "III", v3_values, _sextic_speeds(spec, "III"),
                            require_certified)


# ---------------------------------------------------------------------------
# n-body collinear solver
# ---------------------------------------------------------------------------

@cache
def _nbody_factory(n):
    """Compile the reduced collinear system of n charges; once per n.

    Returns ``make(E, M, vn, e0.., m0..)``, which binds the charge and mass
    arrays (kappa is their ``np.dot`` with the speeds), the fixed last
    speed and the n charges and masses, and returns ``(system, assemble)``
    of :func:`_nbody_system`.  The source is built from n alone; every
    float operation is spelled out, in the order of a walk over the kept
    rows and their pairs: kappa by ``np.dot``, every row sum by
    ``math.fsum``, the Coulomb sums T_i and dT_i/dv_i left to right, and
    ``**2`` and ``**3`` as powers.  Where two speeds coincide, or where
    those floats fail at a far Newton trial point (a power or ``fsum``
    overflows, a squared distance underflows to 0, a row holds +inf and
    -inf), ``system`` returns the non-finite triple.
    """
    free = [0, *range(2, n - 1)]
    x = [f"x{i}" for i in range(n)]
    e, m = [f"e{i}" for i in range(n)], [f"m{i}" for i in range(n)]
    others = [j for j in range(n) if j != 1]

    def sign(i, j):
        return "1" if j > i else "-1"

    def tup(items):
        items = list(items)
        return f"({', '.join(items)}{',' * (len(items) == 1)})"

    lines = [f"def make(E, M, vn, {', '.join(e + m)}):",
             f"    x1, {x[-1]} = V2, vn",
             f"    mx1, mxl = m1 * x1, m{n - 1} * {x[-1]}"]
    # the signed charges and pair products of the bracket, dC and the rows
    lines += [f"    b{j} = {sign(1, j)} * e{j}" for j in others]
    lines += [f"    g{k} = 2 * {sign(1, k)} * e{k}" for k in free]
    lines += [f"    p{i}_{j} = {sign(i, j)} * e{i} * e{j}"
              for i in free for j in range(n) if j != i]
    lines += ["    def assemble(u):",
              "        v1, *inner = map(float, u)",
              f"        return [v1, x1, *inner, {x[-1]}]",
              "    def system(u):",
              f"        {', '.join(x[k] for k in free)}, = map(float, u)",
              f"        if len({{{', '.join(x)}}}) < {n}:",
              "            return NAN",
              "        try:",
              f"            xa = array({tup(x)})",
              "            num, den = float(dot(E, xa)), float(dot(M, xa))",
              "            if den == 0.0:",
              "                raise DegenerateError('sum(m_i v_i) = 0: "
              "kappa undefined')",
              "            kap = num / den",
              "            if e1 == 0.0 or kap == 0.0:",
              "                raise DegenerateError('collinear field closed form needs "
              "e2 != 0, kappa != 0')"]
    lines += [f"            d1_{j} = x1 - x{j}" for j in others]
    lines += [f"            C = fsum({tup(f'b{j} / d1_{j}**2' for j in others)})",
              "            if C == 0.0:",
              "                raise DegenerateError('collinear field closed form: "
              "Coulomb bracket vanishes')",
              "            eC = e1 * kap**2 * C",
              "            B = x1 * (m1 * kap - e1) / eC",
              "            w = kap * B",
              "            w2, ww, tw = w**2, w * w, 2.0 * w"]
    # m_i x_i, shared by smv and the rows: the walk's x_2 m_2 and
    # (-m_i) x_i are m_2 x_2 and -(m_i x_i) to the bit
    lines += [f"            mx{i} = m{i} * x{i}" for i in free]
    mx = [f"mx{i}" for i in range(n - 1)] + ["mxl"]
    lines += [f"            smv = fsum({tup(mx)})"]
    for k in free:
        # d kappa, dB and d omega along each free speed; dB is B d ln B
        # written without the factor 1 / (m2 kappa - e2)
        lines += [f"            dk{k} = (e{k} - kap * m{k}) / smv",
                  f"            dB{k} = mx1 * dk{k} / eC - B * (2.0 * dk{k} / kap "
                  f"+ g{k} / d1_{k}**3 / C)",
                  f"            dw{k} = dk{k} * B + kap * dB{k}"]
    F, S, J = [], [], []
    for i in free:
        js = [j for j in range(n) if j != i]
        row = [f"ra{i}", f"rb{i}", *(f"r{i}_{j}" for j in js)]
        lines += [f"            d{i}_{j} = x{i} - x{j}" for j in js]
        lines += [f"            s{i}_{j} = d{i}_{j}**2" for j in js]
        lines += [f"            Be{i} = B * e{i}",
                  f"            ra{i}, rb{i} = Be{i} * x{i}, -mx{i} * w"]
        lines += [f"            r{i}_{j} = p{i}_{j} * w2 / s{i}_{j}" for j in js]
        lines += [f"            F{i} = fsum({tup(row)})",
                  f"            S{i} = max({', '.join(f'abs({r})' for r in row)})"]
        lines += [f"            q{i}_{j} = p{i}_{j} / s{i}_{j}" for j in js]
        lines += [f"            t{i}_{j} = 2.0 * q{i}_{j} / d{i}_{j}" for j in js]
        # sum() of the walk's lists, which start from the integer 0 and
        # hold 0.0 at j = i: adding +0.0 to a partial sum that is not -0.0
        # changes nothing
        lines += [f"            T{i} = 0.0{''.join(f' + q{i}_{j}' for j in js)}",
                  f"            t{i}_{i} = -(0.0{''.join(f' + t{i}_{j}' for j in js)})"]
        entries = []
        for k in free:
            entry = (f"dB{k} * e{i} * x{i} - mx{i} * dw{k} + tw * dw{k} * T{i} "
                     f"+ ww * t{i}_{k}")
            if k == i:
                entry = f"({entry}) + (Be{i} - m{i} * w)"
            entries.append(entry)
        F.append(f"F{i}")
        S.append(f"S{i}")
        J.append(tup(entries))
    lines += [f"            if {' and '.join(f'isfinite({f})' for f in F)}:",
              f"                return {tup(F)}, {tup(J)}, {tup(S)}",
              f"            return {tup(F)}, NAN[1], {tup(S)}",
              # OverflowError, ZeroDivisionError, and fsum's ValueError
              # on +inf and -inf
              "        except (ArithmeticError, ValueError):",
              "            return NAN",
              "    return system, assemble"]
    nan = (math.nan,) * (n - 2)
    scope = {"V2": _V2, "NAN": (nan, (nan,) * (n - 2), nan), "array": np.array,
             "dot": np.dot, "fsum": math.fsum, "isfinite": math.isfinite,
             "DegenerateError": DegenerateError}
    exec(compile("\n".join(lines), f"<collinear system, n = {n}>", "exec"), scope)
    return scope["make"]


def _nbody_system(spec, vn):
    """The reduced collinear system, differentiated exactly, in Python floats.

    Unknowns u = (v1, v3, ..., v_{n-1}); v2 = _V2 and vn are fixed.  With
    omega = kappa*B and B from the second balance equation, the equation
    sum vanishes identically; only the kept rows {1, 3, ..., n-1} are
    evaluated.  ``system(u)`` returns, from one evaluation, the residuals
    F(u), their Jacobian dF/du (the chain rule through kappa, B by d ln B,
    and the Coulomb sums T_i = sum_j s_ij e_i e_j / (v_i - v_j)^2) and each
    row's scale (its largest |term|).  ``system`` is the straight-line code
    :func:`_nbody_factory` compiled for ``spec.n``, bound to the spec and
    ``vn``.  Two coincident speeds, or a point where the floats overflow,
    give NaN residuals, Jacobian and scales, which Newton's backtracking
    treats as no decrease; non-finite residuals give a NaN Jacobian.
    DegenerateError where kappa = 0, e2 = 0 or the Coulomb bracket of the
    field vanishes (see :func:`_collinear_field`).
    """
    e, m = spec.charges.tolist(), spec.masses.tolist()
    return _nbody_factory(spec.n)(spec.charges, spec.masses, float(vn), *e, *m)


def _norm(f):
    """|f| as ``np.linalg.norm(f)`` gives it: ``x.dot(x)`` (BLAS ddot), then sqrt."""
    x = np.array(f, float)
    return math.sqrt(x.dot(x))


def _newton_step(J, f):
    """The list solving J step = -f as ``np.linalg.solve`` does (dgesv);
    FloatingPointError where J is singular, under :func:`_damped_newton`'s error state."""
    return _solve1(J, [-fi for fi in f], signature="dd->d").tolist()


def _converged(f, scale):
    """Newton's stop: |F_i| <= 1e-12 max(1, scale_i) on every row."""
    for fi, si in zip(f, scale):
        if not abs(fi) <= _POLISH_TOL * (si if si > 1.0 else 1.0):
            return False
    return True


def _gap(v):
    """min_k |v_k - v2|, the first smallest as ``min`` takes it."""
    g = abs(v[0] - _V2)
    for x in v:
        if (d := abs(x - _V2)) < g:
            g = d
    return g


def _damped_newton(system, u0):
    """Damped Newton iteration on ``system(u) -> (F, J, scale)`` from ``u0``.

    The step solves J step = -F with the exact Jacobian and is halved until
    |F| decreases (or the stop holds) at a point with positive speeds.  The
    iteration stops when every row satisfies |F_i| <= 1e-12 max(1, scale_i)
    (:func:`_converged`), a root when also |F_i| <= 1e-12 scale_i and
    scale_i > 0.  Raises NonConvergence otherwise, as where the field
    vanishes or J is singular, and once three full steps in a row about
    halve the gap (:func:`_gap`) below 0.05: a speed coincidence, where
    every row shrinks as the gap squared, a double zero Newton only nears
    linearly.

    The step and |F| are the floats of ``np.linalg.solve`` and
    ``np.linalg.norm``, by dgesv and ddot without numpy's wrapping, which
    costs more than dgesv on these small systems (:func:`_newton_step`,
    :func:`_norm`); a singular pivot raises FloatingPointError under the
    error state set here, a NaN J gives a NaN step.  Root verdicts turn on
    the last bit of F, so neither float is re-derived in Python arithmetic.
    Each iteration runs plain loops and carries the last accepted gap.
    """
    u = np.asarray(u0, float).tolist()
    fu, J, scale = system(u)
    norm, halvings, g0 = _norm(fu), 0, _gap(u)
    lo, hi = _COINCIDENCE_RATIO
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            if _converged(fu, scale):
                break
            if halvings == _COINCIDENCE_STEPS:
                raise NonConvergence(f"Newton falls onto a speed coincidence (|F| = "
                                     f"{norm:.3g}): not a root")
            try:
                step = _newton_step(J, fu)
            except FloatingPointError:
                raise NonConvergence("singular Jacobian in the collinear solver") from None
            lam = 1.0
            for _ in range(30):
                trial = [ui + lam * si for ui, si in zip(u, step)]
                for t in trial:
                    if not t > 0:
                        break
                else:
                    ft, Jt, st = system(trial)
                    nt = _norm(ft)
                    if nt < norm * (1 - 1e-4 * lam) or _converged(ft, st):
                        g = _gap(trial)
                        halvings = (halvings + 1 if lam == 1.0 and 0 < g < _COINCIDENCE_GAP
                                    and lo * g0 <= g <= hi * g0 else 0)
                        u, fu, J, scale, norm, g0 = trial, ft, Jt, st, nt, g
                        break
                lam *= 0.5
            else:
                raise NonConvergence("backtracking stalled in the collinear solver")
    if not _converged(fu, scale):
        raise NonConvergence(f"no convergence (|F| = {norm:.3g})")
    if any(abs(fi) > _POLISH_TOL * si for fi, si in zip(fu, scale)):
        raise NonConvergence(f"stopped on the absolute floor (|F| = {norm:.3g}): "
                             "not a root")
    if not all(si > 0 for si in scale):
        raise NonConvergence("every term is zero where the field vanishes: not a root")
    return u


def solve_nbody_II(spec, vn_values=None, require_certified=True):
    """Collinear rigid rotations for n >= 3 charges.

    Fixes v2 = 1 (scale) and sweeps the outermost speed vn, by default
    over :func:`sweep_grid`.  For n = 3 the candidates are the
    real roots of the elimination sextic, as in solve_config_II, so the two
    return the same roots.  For n > 3 the remaining speeds solve the reduced
    balance system by damped Newton iteration (:func:`_damped_newton`) from
    deterministic seeds: v1 runs over 0.25, 0.5 and 0.8 times v2, with
    interior speeds geometrically interpolated between v2 and vn.
    Certification = relative residuals, ordering, rotation sense, Newton
    balance, and relative pair-distance deviation < 1e-6 over a quarter
    rotation period, the gates of every configuration (see
    :func:`_certify`), so at n = 3 a root gets the verdict it gets from
    :func:`solve_config_II`.  NoSolution as for :func:`solve_config_II`.
    """
    n = spec.n
    if n < 3:
        raise DomainError("collinear rigid rotations need at least 3 charges")
    if n == 3:
        return _collinear_sweep(spec, "nbody-II", vn_values,
                                _sextic_speeds(spec, "nbody-II"), require_certified)

    def speeds_at(vn):
        if vn <= _V2:
            return []
        system, assemble = _nbody_system(spec, vn)
        interior, roots = _geomspace(_V2, vn, n)[2:n - 1], []
        for s1 in _SEEDS_V1:
            try:
                u = _damped_newton(system, [s1 * _V2, *interior])
            except NonConvergence:
                continue
            # np.allclose(u, r, rtol=1e-8, atol=0) on finite speeds
            if not any(all(abs(a - b) <= 1e-8 * abs(b) for a, b in zip(u, r)) for r in roots):
                roots.append(u)
        return [tuple(assemble(u)) for u in sorted(roots, key=lambda x: x[0])]

    return _collinear_sweep(spec, "nbody-II", vn_values, speeds_at,
                            require_certified)


# ---------------------------------------------------------------------------
# closed-form conserved quantities on the special trajectories
# ---------------------------------------------------------------------------

def conserved_closed_forms(spec, solution):
    """Closed-form values of the conserved set along a special trajectory.

    Every configuration gets the same keys: H, K2, Lz, l1..ln and T1..Tn,
    and at n = 3 also k3x and I (both 0), a superset of each of
    ``invariants.SPECIAL_SETS``.  They are algebraic in the solution data
    (no state evaluation), read from the t = 0 line coordinates x_i, vy_i
    in the solver vector of :func:`_line`: T_i = m_i vy_i^2 / 2, l_i = x_i
    (m_i vy_i + e_i B x_i / 2), Lz = sum l_i, K2 = Ky^2 with Ky = sum (m_i
    vy_i + e_i B x_i), and H = sum T_i + omega sum_{i<j} e_i e_j / |u_i -
    u_j| at the layout's signed speeds u.  Tests compare them against
    direct evaluation on the built state.
    """
    u, _ = _layout(solution.config, solution.v)
    _, y = _line(solution, spec)
    x, vy = y[:len(u) * 2:2], y[len(u) * 2 + 1::2]
    e, m, B = spec.charges.tolist(), spec.masses.tolist(), solution.B
    T = [0.5 * mi * vi**2 for mi, vi in zip(m, vy)]
    l = [xi * (mi * vi + ei * B * xi / 2) for xi, vi, ei, mi in zip(x, vy, e, m)]
    Ky = math.fsum(mi * vi + ei * B * xi for xi, vi, ei, mi in zip(x, vy, e, m))
    coulomb = math.fsum(e[i] * e[j] / abs(u[i] - u[j])
                        for i, j in itertools.combinations(range(len(u)), 2))
    out = {"H": math.fsum(T) + solution.omega * coulomb, "K2": Ky**2,
           "Lz": math.fsum(l),
           **{f"l{i + 1}": li for i, li in enumerate(l)},
           **{f"T{i + 1}": Ti for i, Ti in enumerate(T)}}
    if len(u) == 3:
        out.update(k3x=0.0, I=0.0)
    return out


# ---------------------------------------------------------------------------
# catalog serialization
# ---------------------------------------------------------------------------

def catalog_header():
    return "config,branch,v1,v2,v3,omega,omega3,B,residual_norm"


def write_catalog(solutions, fileobj):
    """CSV catalog, one row per solution, 17-significant-digit floats.

    The mirror sense is encoded as a ':ccw' suffix on the branch tag so
    the fixed column schema stays intact.
    """
    fileobj.write(catalog_header() + "\n")
    for s in sorted(solutions, key=ConfigSolution.sort_key):
        branch = s.branch + (":ccw" if s.sense == "ccw" else "")
        # speeds beyond the third ride along in the branch tag to keep the
        # fixed column schema
        branch += "".join(";v%d=%.17g" % (i + 1, x)
                          for i, x in enumerate(s.v) if i >= 3)
        v = list(s.v[:3]) + [0.0] * max(0, 3 - len(s.v))
        row = [s.config, branch] + ["%.17g" % x for x in
                                    (v[0], v[1], v[2], s.omega, s.omega3,
                                     s.B, s.residual_norm)]
        fileobj.write(",".join(row) + "\n")
