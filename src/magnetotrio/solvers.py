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
      (anti-phase), ordering v1 > v2 > v3.

The collinear equations generalize to n charges (solve_nbody_II).

Configuration III is Configuration II with the third speed reflected, and
n-body II generalizes both, so the three collinear solvers share one
sweep: each supplies only the candidate speeds at a swept value of the
last speed (the real roots of the elimination sextic, or damped Newton
from seeds), and one routine assembles the field (closed_form_B_nbody),
the frequency omega = kappa*B and the certification.  The second speed is
fixed at 1 (the systems are scale-covariant).  Every search, Configuration
I's included, runs one sweep over the values :func:`sweep_grid` decides.
The sextic is rooted in v1 by the eigenvalues of its companion matrix, so
every positive real root is found, at any distance from the second speed.

Sign conventions and certification
----------------------------------
The force-balance equations below hard-code the sign pattern of the
Coulomb terms for their nominal speed ordering and rotation sense
(omega > 0).  A root of the equations is therefore only a genuine
Newtonian motion inside that sector; every solver here re-checks the
instantaneous Newton balance of the built state, and the n-body solver
also integrates the state over a quarter period and measures rigidity.
Solutions carry ``certified`` accordingly, and ``notes`` name each gate
an uncertified root failed -- uncertified roots are algebra, not
trajectories.

Speeds and frequencies are reported positive; ``sense`` records the
actual rotation sense ("cw" for the parametrization
rho(t) = r (cos wt, -sin wt), "ccw" for its mirror).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import dynamics
from .dynamics import IntegratorSettings, accelerations, rigidity_report
from .errors import (DegenerateError, DomainError, NonConvergence,
                     NoSolution, ValidityError)
from .model import PhaseState, classify_system

__all__ = [
    "ConfigSolution", "residuals_config_I", "residuals_config_II",
    "residuals_config_III", "residuals_nbody_II", "collinear_kappa",
    "closed_form_B_II", "closed_form_B_III", "closed_form_B_nbody",
    "p6_coefficients", "evaluate_p6", "helium_pattern", "helium_cubic_root",
    "helium_quartic_coefficients", "helium_closed_forms",
    "solve_config_I_v3zero", "solve_config_I_identical", "solve_config_I",
    "solve_config_II", "solve_config_III", "solve_nbody_II",
    "build_initial_state", "newton_balance", "conserved_closed_forms",
    "pair_distance_min", "write_catalog", "catalog_header", "sweep_grid",
    "DEFAULT_GRID_POINTS",
]

_RESIDUAL_TOL = 1e-10     # relative residual gate for certification
_BALANCE_TOL = 1e-6       # Newton-balance gate (relative)
_RIGIDITY_TOL = 1e-6      # integrated pair-distance gate (relative)
_DEDUP_TOL = 1e-9
_DISC_CLAMP = 1e-12       # identical-pair discriminants below this are 0
_PATTERN_TOL = 1e-12      # relative tolerance of helium_pattern's matches
_NEWTON_MAX_ITER = 60     # damped-Newton iterations per seed

# The collinear systems are scale-covariant, so the second speed fixes the
# scale (_V2).
_V2 = 1.0
_POLISH_TOL = 1e-12
# n > 3 Newton seeds: v1 at these multiples of _V2
_SEEDS_V1 = (0.25, 0.5, 0.8)
# horizon of the n-body rigidity check, in rotation periods (the reason
# for a quarter period is in solve_nbody_II)
_RIGIDITY_PERIODS = 0.25

_COLLINEAR_BOUNDS = {"II": (1.5, 20.0), "III": (0.05, 0.8), "nbody-II": (1.5, 20.0)}
DEFAULT_GRID_POINTS = 12


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
    exact Newtonian acceleration on the built state; ``rigidity`` is the
    integrated relative pair-distance deviation when certification ran an
    integration (NaN otherwise).
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
    notes: tuple = field(default_factory=tuple)

    def sort_key(self):
        return (self.config, self.v[-1], self.branch)


# ---------------------------------------------------------------------------
# residual systems (raw, as printed; term-split for relative norms)
# ---------------------------------------------------------------------------

def _config_I_terms(spec, v1, v2, v3, omega, omega3):
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    B = spec.B
    s = v1 + v2
    return [
        [v3 * B * e1, -v3 * m1 * omega3],
        [v3 * B * e2, -v3 * m2 * omega3],
        [v3 * B * e3, -v3 * m3 * omega3],
        [e3 * e1 * omega**2 / v1**2, -e3 * e2 * omega**2 / v2**2],
        [B * e1 * v1, -m1 * v1 * omega,
         -e1 * e2 * omega**2 / s**2, -e1 * e3 * omega**2 / v1**2],
        [B * e2 * v2, -m2 * v2 * omega,
         -e2 * e1 * omega**2 / s**2, -e2 * e3 * omega**2 / v2**2],
    ]


def residuals_config_I(spec, v1, v2, v3, omega, omega3):
    """Raw residuals (length 6) of the Configuration-I balance system.

    Rows: the three third-charge frequency conditions v3*(B e_i - m_i w3),
    the radius-compatibility condition e3*(e1/v1^2 - e2/v2^2)*w^2, and the
    two pair force balances.  ``spec.B`` supplies the field.
    """
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    return np.array([math.fsum(t) for t in
                     _config_I_terms(spec, v1, v2, v3, omega, omega3)])


def _collinear_terms(spec, v, omega, B, s=1):
    # balance rows at signed speeds v; the (i, j) Coulomb term carries the
    # sign s for j > i and -s for j < i (s = 1: the ordering v1 < ... < vn)
    n, charges, masses = len(v), spec.charges.tolist(), spec.masses.tolist()
    rows = []
    for i in range(n):
        row = [B * charges[i] * v[i], -masses[i] * v[i] * omega]
        for j in range(n):
            if j == i:
                continue
            row.append((s if j > i else -s) * charges[i] * charges[j] * omega**2
                       / (v[i] - v[j])**2)
        rows.append(row)
    return rows


def residuals_nbody_II(spec, v, omega, B):
    """Raw residuals (length n) of the collinear rigid-rotation system.

    The sign in front of the (i, j) Coulomb term is +1 for j > i and -1
    for j < i, matching the nominal speed ordering v1 < ... < vn.  For
    n = 3 this is exactly the Configuration-II system.
    """
    v = np.asarray(v, float)
    if spec.n != len(v):
        raise DomainError("speed vector length must equal the particle count")
    if spec.n < 3:
        raise DomainError("collinear rigid rotations need at least 3 charges")
    rows = _collinear_terms(spec, v, omega, B)
    return np.array([math.fsum(r) for r in rows])


def residuals_config_II(spec, v, omega, B):
    """Raw residuals (length 3) of the Configuration-II system."""
    if spec.n != 3:
        raise DomainError("Configuration II is a three-charge system")
    return residuals_nbody_II(spec, v, omega, B)


def _signed_speeds(config, v):
    """Collinear speeds with signs: Configuration III puts charge 3 on the
    other side of the center, which reflects its speed."""
    return (v[0], v[1], -v[2]) if config == "III" else tuple(v)


def residuals_config_III(spec, v, omega, B):
    """Raw residuals (length 3) of the Configuration-III (anti-phase) system:
    the collinear rows at signed speeds (v1, v2, -v3) with the Coulomb signs
    reversed."""
    if spec.n != 3:
        raise DomainError("Configuration III is a three-charge system")
    rows = _collinear_terms(spec, _signed_speeds("III", v), omega, B, -1)
    return np.array([math.fsum(r) for r in rows])


def _relative_norm(term_rows):
    worst = 0.0
    for row in term_rows:
        scale = max(abs(t) for t in row)
        if scale == 0.0:
            continue
        worst = max(worst, abs(math.fsum(row)) / scale)
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


def closed_form_B_II(spec, v1, v2, v3):
    """Field strength that makes (v1, v2, v3) a Configuration-II root."""
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    num = ((v1 - v2)**2 * v2 * (v2 - v3)**2 * (m1*v1 + m2*v2 + m3*v3)
           * (e2*(m1*v1 + m3*v3) - m2*(e1*v1 + e3*v3)))
    den = (e2 * (e1*(v2 - v3)**2 - e3*(v1 - v2)**2)
           * (e1*v1 + e2*v2 + e3*v3)**2)
    if den == 0.0:
        raise DegenerateError("Configuration-II field denominator vanishes")
    return num / den


def closed_form_B_III(spec, v1, v2, v3):
    """Field strength that makes (v1, v2, v3) a Configuration-III root.

    Written out independently of :func:`closed_form_B_II`; the two are
    related by B_III(v1, v2, v3) = -B_II(v1, v2, -v3), which makes a useful
    consistency check.
    """
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    num = ((v1 - v2)**2 * v2 * (v2 + v3)**2 * (m1*v1 + m2*v2 - m3*v3)
           * (e2*(m1*v1 - m3*v3) + m2*(e3*v3 - e1*v1)))
    den = (e2 * (e1*(v2 + v3)**2 - e3*(v1 - v2)**2)
           * (e1*v1 + e2*v2 - e3*v3)**2)
    if den == 0.0:
        raise DegenerateError("Configuration-III field denominator vanishes")
    return -num / den


def _collinear_field(spec, v):
    """(kappa, C, B) at speeds ``v``, as Python floats: B = v2 (m2 kappa -
    e2) / (e2 kappa^2 C) solves the second collinear balance row, where
    C = sum_j s_2j e_j / (v2 - v_j)^2 is its Coulomb bracket."""
    v = np.asarray(v, float)
    kap = collinear_kappa(spec, v)
    e, m, v = spec.charges.tolist(), spec.masses.tolist(), v.tolist()
    if e[1] == 0.0 or kap == 0.0:
        raise DegenerateError("collinear field closed form needs e2 != 0, kappa != 0")
    bracket = math.fsum(
        (1 if j > 1 else -1) * e[j] / (v[1] - v[j])**2
        for j in range(spec.n) if j != 1)
    if bracket == 0.0:
        raise DegenerateError("collinear field closed form: Coulomb bracket vanishes")
    return kap, bracket, v[1] * (m[1] * kap - e[1]) / (e[1] * kap**2 * bracket)


def closed_form_B_nbody(spec, v):
    """Solve the second collinear balance equation for B (any n >= 3)."""
    return _collinear_field(spec, v)[2]


# ---------------------------------------------------------------------------
# the degree-six elimination polynomial (three charges)
# ---------------------------------------------------------------------------

def p6_coefficients(spec):
    """Coefficients {(i, j, k): c} of the sextic whose roots in v1 (given
    v2, v3) are the Configuration-II speed triples with omega and B
    eliminated.  Vanishes identically iff all charge-to-mass ratios
    coincide (the collinear no-go)."""
    if spec.n != 3:
        raise DomainError("the elimination sextic is a three-charge object")
    e1, e2, e3 = spec.charges.tolist()
    m1, m2, m3 = spec.masses.tolist()
    return {
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


def evaluate_p6(spec, v1, v2, v3):
    """Value of the elimination sextic at (v1, v2, v3)."""
    return _evaluate_p6(p6_coefficients(spec), v1, v2, v3)


def _evaluate_p6(c, v1, v2, v3):
    return math.fsum(a * v1**i * v2**j * v3**k for (i, j, k), a in c.items())


def _evaluate_p6_dv1(c, v1, v2, v3):
    return math.fsum(i * a * v1**(i - 1) * v2**j * v3**k
                     for (i, j, k), a in c.items() if i > 0)


# ---------------------------------------------------------------------------
# two-identical-particles neutral pattern and its closed forms
# ---------------------------------------------------------------------------

def helium_pattern(spec):
    """Detect the neutral two-identical-particles pattern
    e2 = e3 = e, m2 = m3 = m, e1 = -2e, e1/m1 != e/m (each to 1e-12
    relative).  Returns (e, m1, m) or None."""
    if spec.n != 3:
        return None
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    if e2 == 0.0 or abs(e2 - e3) > _PATTERN_TOL * abs(e2):
        return None
    if abs(m2 - m3) > _PATTERN_TOL * abs(m2):
        return None
    if abs(e1 + 2*e2) > _PATTERN_TOL * max(abs(e1), abs(e2)):
        return None
    if abs(e1/m1 - e2/m2) <= _PATTERN_TOL * max(abs(e1/m1), abs(e2/m2)):
        return None
    return e2, m1, m2


def helium_cubic_root(v2=1.0):
    """The positive root, about 117.69 v2, of L^3 - 117 v2 L^2 - 81 v2^2 L - 27 v2^3.

    It is not where the neutral pattern's quartic roots begin: at v2 = 1 the
    quartic has two real, uncertified roots at v3 = 5, 20, 60 and 110 alike.
    What the cubic bounds is not established."""
    if v2 <= 0:
        raise DomainError("v2 must be positive")
    x = float(max(r.real for r in np.roots([1.0, -117*v2, -81*v2**2, -27*v2**3])
                  if r.imag == 0))
    return _polish(lambda L: L**3 - 117*v2*L**2 - 81*v2**2*L - 27*v2**3,
                   lambda L: 3*L**2 - 234*v2*L - 81*v2**2, x)


def helium_quartic_coefficients(v2, v3):
    """Descending coefficients of the quartic satisfied by v1 for the
    neutral two-identical-particles pattern (a factor of the elimination
    sextic: P6 = e^3 (2m + m1) v1 * quartic)."""
    return np.array([
        v3 + v2,
        -2*(v3**2 + 2*v3*v2 + v2**2),
        3*v3**3 - v3**2*v2 + 11*v3*v2**2 - v2**3,
        2*(3*v3**3*v2 - 2*v3**2*v2**2 - 5*v3*v2**3 + 2*v2**4 - 2*v3**4),
        2*v3**5 - 4*v3**4*v2 + 3*v3**3*v2**2 - v3**2*v2**3 + 4*v3*v2**4 - 2*v2**5,
    ])


def helium_closed_forms(spec, v1, v2, v3):
    """(omega, B) for the neutral two-identical-particles pattern at a
    quartic root.

    The B returned here carries the sign required by omega = kappa * B
    (it equals the general closed_form_B_II restricted to the pattern);
    the magnitude-matching expression with the opposite overall sign is
    not consistent with the frequency relation and is rejected.
    """
    pat = helium_pattern(spec)
    if pat is None:
        raise DomainError("spec does not match the neutral identical-pair pattern")
    e, m1, m = pat
    q = 2*v1 - v2 - v3
    p = v1**2 - 2*v2*v1 + 3*v2**2 + 2*v3**2 - 4*v2*v3
    if q == 0.0 or p == 0.0:
        raise DegenerateError("closed-form denominator vanishes")
    B = -((2*m + m1) * v1 * v2 * (v1 - v2)**2 * (v2 - v3)**2
          * (m1*v1 + m*(v2 + v3))) / (e**3 * q**2 * p)
    omega = ((2*m + m1) * v1 * (v1 - v2)**2 * v2 * (v2 - v3)**2) / (e**2 * q * p)
    return omega, B


# ---------------------------------------------------------------------------
# state construction and Newtonian certification
# ---------------------------------------------------------------------------

def build_initial_state(solution, spec):
    """Phase-space snapshot of a solution at t = 0.

    Returns ``(spec_b, state)`` where ``spec_b`` is ``spec`` with the
    solution's field value installed.  The parametrization puts every
    rotation center at the origin and its phase at angle 0, so all
    charges start on the x-axis with tangential (y) velocities.
    """
    if tuple(spec.charges.shape) != (len(solution.v),):
        raise DomainError("solution and spec have different particle counts")
    sigma = 1.0 if solution.sense == "cw" else -1.0
    w = sigma * solution.omega
    cfg = solution.config
    v = [sigma * vi for vi in _signed_speeds(cfg, solution.v)]
    if cfg in ("II", "III", "nbody-II"):
        pos = [[vi / w, 0.0] for vi in v]
        vel = [[0.0, -vi] for vi in v]
    elif cfg == "I":
        if solution.v[2] == 0.0:
            center = np.zeros(2)
            cvel = np.zeros(2)
        else:
            w3 = sigma * solution.omega3
            if w3 == 0.0:
                raise DomainError("Configuration I with v3 != 0 needs omega3")
            center = np.array([v[2] / w3, 0.0])
            cvel = np.array([0.0, -v[2]])
        pos = [center + [v[0] / w, 0.0],
               center - [v[1] / w, 0.0],
               center]
        vel = [cvel + [0.0, -v[0]], cvel + [0.0, v[1]], cvel]
    else:
        raise DomainError(f"unknown configuration tag {solution.config!r}")
    spec_b = replace(spec, B=solution.B)
    return spec_b, PhaseState(np.array(pos, float), np.array(vel, float))


def newton_balance(solution, spec):
    """Relative mismatch between the exact Newtonian accelerations of the
    built state and the rigid-rotation kinematics it claims.

    Each charge turns at omega about a center c (the third charge in
    Configuration I, else the origin) that turns at omega3, so it should
    accelerate at -omega^2 (x - c) - omega3^2 c.  Zero (to rounding) iff the
    solution is a genuine trajectory; far above the 1e-6 gate for
    algebra-only roots whose sign sector does not match.
    """
    return _newton_balance(solution, *build_initial_state(solution, spec))


def _newton_balance(solution, spec_b, state):
    """:func:`newton_balance` of the state built from ``solution``."""
    acc = accelerations(spec_b, state.positions, state.velocities)
    c = state.positions[2] if solution.config == "I" else 0.0
    expected = (-solution.omega**2 * (state.positions - c)
                - solution.omega3**2 * c)
    scale = max(1.0, float(np.abs(acc).max()))
    return float(np.abs(acc - expected).max()) / scale


def _certify(sol, spec, terms, gates=()):
    """Certify ``sol``: the caller's ``(ok, note)`` gates, then the relative
    residual of its balance ``terms`` and its Newton balance; an n-body root
    that passed them all must also stay rigid over a quarter period.  Each
    failed gate leaves a note; ``sol`` is certified when none failed."""
    sol.residual_norm = _relative_norm(terms)
    spec_b, state = build_initial_state(sol, spec)
    sol.newton_balance = _newton_balance(sol, spec_b, state)
    gates = (*gates,
             (sol.residual_norm < _RESIDUAL_TOL,
              f"relative residual {sol.residual_norm:.3g}"),
             (sol.newton_balance < _BALANCE_TOL,
              f"Newton imbalance {sol.newton_balance:.3g}"))
    notes = tuple(note for ok, note in gates if not ok)
    if not notes and sol.config == "nbody-II":
        t_end = _RIGIDITY_PERIODS * (2 * math.pi / sol.omega)
        settings = IntegratorSettings(t_end=t_end, rel_tol=1e-10, abs_tol=1e-10,
                                      sample_interval=t_end / 200.0)
        # looked up at call time, so bench/spans.py traces these integrations
        sol.rigidity = rigidity_report(
            dynamics.integrate(spec_b, state, settings)).worst
        if not sol.rigidity < _RIGIDITY_TOL:
            notes = (f"pair distances drift {sol.rigidity:.3g} within "
                     f"{_RIGIDITY_PERIODS:g} period",)
    sol.notes = notes
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
    unless 0 < min <= max < inf."""
    if config != "I":
        bounds = _COLLINEAR_BOUNDS[config]
    elif spec.n == 3 and _identical_pair(spec):
        rmin = pair_distance_min(spec)
        bounds = (rmin, 4 * rmin) if rmin else (0.5, 4.0)
    else:
        bounds = (0.5, 2.0)
    lo = bounds[0] if grid_min is None else grid_min
    hi = bounds[1] if grid_max is None else grid_max
    if not 0 < lo <= hi < math.inf:
        raise DomainError(f"grid bounds must satisfy 0 < min <= max < inf, "
                          f"got [{lo:g}, {hi:g}]")
    return np.array(sorted(set(np.geomspace(lo, hi, points).tolist())))


def _sweep(spec, config, values, point, require_certified):
    """The sorted solutions ``point(x)`` over the positive finite ``values``
    (default :func:`sweep_grid`); a point may raise only NoSolution,
    ValidityError or DegenerateError.  NoSolution, naming the first such
    error and up to four uncertified roots, when none is (certified)."""
    if values is None:
        values = sweep_grid(spec, config)
    out, rejected, reason = [], [], None
    for x in np.atleast_1d(np.asarray(values, float)):
        if not 0.0 < x < math.inf:
            continue
        try:
            sols = point(float(x))
        except (NoSolution, ValidityError, DegenerateError) as ex:
            reason = reason or str(ex)
            continue
        for sol in sols:
            (out if sol.certified or not require_certified else rejected).append(sol)
    if not out:
        name = "collinear rigid" if config == "nbody-II" else f"Configuration-{config}"
        msg = f"no {name} rotation on the sampled grid"
        if reason:
            msg += f": {reason}"
        if rejected:
            msg += ". Algebraic roots exist but fail certification: " + "; ".join(
                f"v{len(s.v)}={s.v[-1]:.6g}: v1={s.v[0]:.10g} ({', '.join(s.notes)})"
                for s in rejected[:4])
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


def _pair_ratio(spec):
    """v2/v1 = sqrt(e2/e1) of a pair rotating about a resting third charge."""
    e1, e2, _ = spec.charges
    if e1 * e2 <= 0:
        raise DomainError("the rotating pair needs same-sign charges "
                          "(v2^2 = v1^2 e2/e1)")
    return math.sqrt(e2 / e1)


def solve_config_I_v3zero(spec, v1=1.0):
    """Closed-form Configuration-I solution with the third charge at rest.

    Needs e1*e2 > 0 (the radius-compatibility condition fixes
    v2 = v1 * sqrt(e2/e1)).  The rotation frequency and the field that
    support the motion follow in closed form; the spec's own field value
    is ignored (B is an output here).  Raises ValidityError when the
    closed forms give omega <= 0 or a vanishing/infinite field.
    """
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    if v1 <= 0:
        raise DomainError("v1 must be positive")
    r = _pair_ratio(spec)
    v2 = r * v1
    d1 = e1 - r * e2
    d2 = e2 + e3 * (1 + r)**2
    if d1 == 0.0:
        raise DegenerateError(
            "a pair of equal charges (e1 = e2) rotates about a resting third "
            "charge only as an identical pair, with equal masses; the "
            "frequency closed form degenerates")
    if d2 == 0.0:
        raise DegenerateError("charge combination e2 + e3(1+r)^2 vanishes")
    omega = (e2*m1 - e1*m2) * r * (1 + r)**2 * v1**3 / (e1 * d1 * d2)
    B = omega * (m1 - m2 * r) / d1
    if omega <= 0:
        raise ValidityError(f"closed-form frequency omega = {omega:.6g} <= 0; "
                            "no rigid rotation in this sector")
    if B == 0.0 or not math.isfinite(B):
        raise ValidityError(f"closed-form field B = {B:.6g} is degenerate")
    terms = _config_I_terms(replace(spec, B=B), v1, v2, 0.0, omega, 0.0)
    sol = ConfigSolution(config="I", branch="v3=0", v=(v1, v2, 0.0),
                         omega=omega, B=B)
    return [_certify(sol, spec, terms)]


def _pair_quadratic(spec, B):
    """(a, b) = (8 m (e + 4 e3), e B^2): an identical pair (e, m) at field B
    and separation rho has the speed discriminant 1 - a / (b rho^3)."""
    e, e3, m = spec.charges[0], spec.charges[2], spec.masses[0]
    if e == 0.0:
        raise DomainError("Configuration I needs a charged pair")
    if B == 0.0:
        raise DomainError("Configuration I of an identical pair needs a "
                          "nonzero field")
    return 8 * m * (e + 4*e3), e * B**2


def _pair_discriminant(spec, B, rho):
    """The identical-pair discriminant at ``rho``, clamped to 0 within 1e-12."""
    a, b = _pair_quadratic(spec, B)
    disc = 1.0 - a / (b * rho**3)
    return 0.0 if abs(disc) < _DISC_CLAMP else disc


def pair_distance_min(spec):
    """Smallest pair separation admitting the identical-pair rotation at
    the spec's field, or None when every separation works.  Raises
    DomainError for a zero field or an uncharged pair."""
    a, b = _pair_quadratic(spec, spec.B)
    cube = a / b
    return cube ** (1.0 / 3.0) if cube > 0 else None


def solve_config_I_identical(spec, rho12, v3=0.0):
    """Configuration I for an identical rotating pair (e1 = e2, m1 = m2)
    at a prescribed pair separation, using the spec's field.

    Returns the two quadratic branches ("+" and "-"); at the critical
    separation they coincide (the discriminant is clamped to zero when
    |disc| < 1e-12 to keep the coincidence exact in floats).  Raises
    DomainError for a zero field or an uncharged pair, NoSolution below the
    critical separation.  A nonzero third speed requires a common
    charge-to-mass ratio alpha; the third charge then runs its own circle at
    omega3 = alpha*B and any v3 > 0 works (the returned row is the
    representative for the requested v3).
    """
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    if not _identical_pair(spec):
        raise DomainError("identical-pair branch needs e1 = e2 and m1 = m2")
    e1, m1 = spec.charges[0], spec.masses[0]
    if rho12 <= 0:
        raise DomainError("pair separation must be positive")
    disc = _pair_discriminant(spec, spec.B, rho12)
    omega3_signed = 0.0
    if v3 != 0.0:
        cls = classify_system(spec)
        if v3 < 0:
            raise DomainError("v3 must be nonnegative")
        if not cls.equal_larmor:
            raise ValidityError(
                "a moving third charge needs a common charge-to-mass ratio")
        omega3_signed = cls.alpha * spec.B
    if disc < 0:
        rmin = pair_distance_min(spec)
        raise NoSolution(
            f"separation {rho12:.6g} below the critical "
            f"{rmin:.6g} at B = {spec.B:.6g}: speed branches are complex")
    out = []
    for tag, s in (("+", 1.0), ("-", -1.0)):
        v_signed = e1 * spec.B * rho12 / (4*m1) * (1.0 + s * math.sqrt(disc))
        if v_signed == 0.0:
            continue
        omega_signed = 2.0 * v_signed / rho12
        if omega3_signed * omega_signed < 0:
            # opposite senses cannot share the rigid frame
            continue
        # the printed balance equations hold at the signed speeds
        terms = _config_I_terms(spec, v_signed, v_signed,
                                math.copysign(v3, omega_signed) if v3 else 0.0,
                                omega_signed, omega3_signed)
        sol = ConfigSolution(
            config="I", branch=tag, v=(abs(v_signed),) * 2 + (float(v3),),
            omega=abs(omega_signed), B=spec.B, omega3=abs(omega3_signed),
            sense="cw" if omega_signed > 0 else "ccw")
        out.append(_certify(sol, spec, terms))
    if not out:
        raise NoSolution("both speed branches degenerate")
    return out


def solve_config_I(spec, values=None, require_certified=True):
    """Sweep an identical pair's separation (:func:`solve_config_I_identical`,
    v3 = 1 when every charge-to-mass ratio agrees, else 0) or else v1
    (:func:`solve_config_I_v3zero`).  A spec the branch refuses raises
    DomainError before the sweep; NoSolution as for :func:`solve_config_II`."""
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    if _identical_pair(spec):
        _pair_quadratic(spec, spec.B)     # refuses a zero field, an uncharged pair
        v3 = 1.0 if classify_system(spec).equal_larmor else 0.0
        point = partial(solve_config_I_identical, spec, v3=v3)
    else:
        _pair_ratio(spec)                 # refuses a pair not of one sign
        point = partial(solve_config_I_v3zero, spec)
    return _sweep(spec, "I", values, point, require_certified)


# ---------------------------------------------------------------------------
# collinear root search (Configurations II/III share the machinery)
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


def _p6_roots_v1(c, v2, v3):
    """Positive real roots in v1 of the elimination sextic (coefficients
    ``c``) at (v2, v3): the eigenvalues of its companion matrix, each
    Newton-polished on the exact sum."""
    coeffs = [math.fsum(a * v2**j * v3**k for (i, j, k), a in c.items() if i == d)
              for d in range(6, -1, -1)]
    f = partial(_evaluate_p6, c, v2=v2, v3=v3)
    df = partial(_evaluate_p6_dv1, c, v2=v2, v3=v3)
    roots = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-9 * max(1.0, abs(r)):
            continue
        x = _polish(f, df, float(r.real))
        # spurious factor zeros of the elimination (coincident speeds)
        if min(abs(x - v2), abs(x - v3)) < 1e-9 * max(1.0, abs(v2), abs(v3)):
            continue
        if x > 0 and not any(abs(x - rr) < _DEDUP_TOL * max(1.0, rr)
                             for rr in roots):
            roots.append(x)
    return sorted(roots)


def _collinear_solution(spec, v, config, branch):
    """Assemble + certify one collinear root (positive speed tuple ``v``);
    its own gates are the speed ordering and the rotation sense."""
    vs = _signed_speeds(config, v)
    s = -1 if config == "III" else 1
    # the second balance row solved for B; s = -1 flips its Coulomb terms
    kap, _, B = _collinear_field(spec, vs)
    B *= s
    omega_signed = kap * B
    # with kappa != 0, a zero or non-finite B makes omega so as well
    if omega_signed == 0.0 or not math.isfinite(omega_signed):
        raise DegenerateError("frequency or field closed form degenerates")
    terms = _collinear_terms(spec, vs, omega_signed, B, s)
    sol = ConfigSolution(
        config=config, branch=branch, v=tuple(abs(x) for x in v),
        omega=abs(omega_signed), B=B,
        sense="cw" if omega_signed > 0 else "ccw")
    return _certify(sol, spec, terms, (
        (_ordering_ok(config, v), "speed ordering outside the sector"),
        (omega_signed > 0, "mirror rotation sense")))


def _ordering_ok(config, v):
    if config == "III":
        return v[0] > v[1] > v[2] > 0
    return all(a < b for a, b in zip(v, v[1:])) and v[0] > 0


def _sextic_speeds(spec, config):
    """``speeds_at`` of the three-charge sweeps: the positive speeds
    (v1, 1, v3) whose signed form roots the elimination sextic."""
    c = p6_coefficients(spec)

    def speeds_at(v3):
        s3 = _signed_speeds(config, (_V2, _V2, v3))[2]
        return [(v1, _V2, v3) for v1 in _p6_roots_v1(c, _V2, s3)]

    return speeds_at


def _collinear_sweep(spec, config, values, speeds_at, require_certified):
    """Sweep II, III or n-body II: ``speeds_at(x)`` gives the speed tuples
    ending in ``x``; each is certified unless its closed forms degenerate."""
    if spec.charges[1] == 0.0:
        raise DomainError("collinear rotations need a charged second particle "
                          "(the field closed form divides by e2)")
    cls = classify_system(spec)
    if cls.equal_larmor:
        raise NoSolution(
            "equal charge-to-mass ratios (alpha = "
            f"{cls.alpha:.6g}): the elimination polynomial vanishes "
            "identically, so no collinear rigid rotation exists")

    def point(x):
        sols = []
        for k, v in enumerate(speeds_at(x)):
            try:
                sols.append(_collinear_solution(spec, v, config, branch=str(k)))
            except DegenerateError:
                continue
        return sols

    return _sweep(spec, config, values, point, require_certified)


def solve_config_II(spec, v3_values=None, require_certified=True):
    """Sweep the third speed and solve for Configuration-II rotations.

    The second speed is fixed at 1 (the system is scale-covariant); for
    each v3 the candidate v1 are all positive real roots of the
    elimination sextic (companion-matrix eigenvalues, Newton-polished).
    The field and frequency follow from the closed forms; roots are
    certified against ordering, rotation sense, and the Newtonian balance
    of the built state.  ``v3_values`` defaults to :func:`sweep_grid`.

    For the neutral identical-pair pattern the sextic is
    e^3 (2m + m1) v1 times helium_quartic_coefficients, so its roots
    (v1 ~ v3, never in the speed ordering) come back -- with residuals --
    only when ``require_certified`` is False.

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

    Works through the sign map v3 -> -v3 of the Configuration-II algebra:
    roots of the sextic at (v1, 1, -v3), field -B_II(v1, 1, -v3),
    frequency from the signed speed sum.  Ordering sector: v1 > v2 > v3.
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

def _nbody_system(spec, vn):
    """The reduced collinear system, differentiated exactly, in Python floats.

    Unknowns u = (v1, v3, ..., v_{n-1}); v2 = _V2 and vn are fixed.  With
    omega = kappa*B and B from the second balance equation, the equation
    sum vanishes identically; only the kept rows {1, 3, ..., n-1} are
    evaluated.  ``system(u)`` returns, from one evaluation, the residuals
    F(u), their Jacobian dF/du and each row's scale (its largest |term|).
    The Jacobian is the chain rule through kappa, B (by d ln B) and the
    Coulomb sums T_i = sum_j s_ij e_i e_j / (v_i - v_j)^2, whose derivatives
    are dT_i/dv_k = 2 s_ik e_i e_k / (v_i - v_k)^3 for k != i.
    """
    n = spec.n
    e, m = spec.charges.tolist(), spec.masses.tolist()
    free = [0, *range(2, n - 1)]   # the unknown speeds, and the rows kept
    # s_ij e_i e_j of each kept row i
    pairs = [[(1 if j > i else -1) * e[i] * e[j] for j in range(n)] for i in free]
    nan = (math.nan,) * (n - 2)

    def assemble(u):
        v1, *inner = map(float, u)
        return [v1, _V2, *inner, vn]

    def system(u):
        x = assemble(u)
        if len(set(x)) < n:
            # two speeds coincide: no residual, no derivative, no iterate
            return nan, (nan,) * (n - 2), nan
        kap, C, B = _collinear_field(spec, x)
        w = kap * B
        # d kappa, dB and d omega along each free speed; dB is B d ln B
        # written without the factor 1 / (m2 kappa - e2)
        smv = math.fsum(mi * xi for mi, xi in zip(m, x))
        dkap = [(e[k] - kap * m[k]) / smv for k in free]
        dC = [2 * (1 if k > 1 else -1) * e[k] / (x[1] - x[k])**3 for k in free]
        dB = [x[1] * m[1] * dk / (e[1] * kap**2 * C) - B * (2 * dk / kap + dc / C)
              for dk, dc in zip(dkap, dC)]
        dw = [dk * B + kap * db for dk, db in zip(dkap, dB)]
        F, J, scale = [], [], []
        for a, (i, p) in enumerate(zip(free, pairs)):
            d = [x[i] - xj for xj in x]
            d2 = [dj**2 for dj in d]
            row = [B * e[i] * x[i], -m[i] * x[i] * w,
                   *[p[j] * w**2 / d2[j] for j in range(n) if j != i]]
            F.append(math.fsum(row))
            scale.append(max(map(abs, row)))
            q = [p[j] / d2[j] if j != i else 0.0 for j in range(n)]
            dT = [2 * q[j] / d[j] if j != i else 0.0 for j in range(n)]
            dT[i] = -sum(dT)
            T = sum(q)
            J.append([dB[b] * e[i] * x[i] - m[i] * x[i] * dw[b]
                      + 2 * w * dw[b] * T + w * w * dT[k] for b, k in enumerate(free)])
            J[a][a] += B * e[i] - m[i] * w
        if not all(map(math.isfinite, F)):
            return F, (nan,) * (n - 2), scale
        return F, J, scale

    return system, assemble


def _damped_newton(system, u0):
    """Damped Newton iteration on ``system(u) -> (F, J, scale)`` from ``u0``.

    The step solves J step = -F with the exact Jacobian and is halved until
    |F| decreases (or the stop holds) at a point with positive speeds.  The
    iteration stops when every row satisfies |F_i| <= 1e-12 max(1, scale_i),
    a root when also |F_i| <= 1e-12 scale_i.  Raises NonConvergence
    otherwise, as where the field vanishes with a speed meeting v2.
    """
    def converged(f, scale):
        return all(abs(fi) <= _POLISH_TOL * max(1.0, si) for fi, si in zip(f, scale))

    u = np.asarray(u0, float).tolist()
    fu, J, scale = system(u)
    norm = np.linalg.norm(fu)
    for _ in range(_NEWTON_MAX_ITER):
        if converged(fu, scale):
            break
        try:
            step = np.linalg.solve(J, np.negative(fu)).tolist()
        except np.linalg.LinAlgError:
            raise NonConvergence("singular Jacobian in the collinear solver")
        lam = 1.0
        for _ in range(30):
            trial = [ui + lam * si for ui, si in zip(u, step)]
            if all(t > 0 for t in trial):
                ft, Jt, st = system(trial)
                nt = np.linalg.norm(ft)
                if nt < norm * (1 - 1e-4 * lam) or converged(ft, st):
                    u, fu, J, scale, norm = trial, ft, Jt, st, nt
                    break
            lam *= 0.5
        else:
            raise NonConvergence("backtracking stalled in the collinear solver")
    if not converged(fu, scale):
        raise NonConvergence(f"no convergence (|F| = {norm:.3g})")
    if any(abs(fi) > _POLISH_TOL * si for fi, si in zip(fu, scale)):
        raise NonConvergence(f"stopped on the absolute floor (|F| = {norm:.3g}): "
                             "not a root")
    return u


def solve_nbody_II(spec, vn_values=None, require_certified=True):
    """Collinear rigid rotations for n >= 3 charges.

    Fixes v2 = 1 (scale) and sweeps the outermost speed vn, by default
    over :func:`sweep_grid`.  For n = 3 the candidates are the
    real roots of the elimination sextic, as in solve_config_II, so the two
    return the same roots.  For n > 3 the remaining speeds solve the reduced
    balance system by damped Newton iteration from deterministic seeds: v1
    runs over 0.25, 0.5 and 0.8 times v2, with interior speeds geometrically
    interpolated between v2 and vn.  Newton steps with the exact Jacobian of
    the balance rows and admits a root to round-off of each row's largest
    |term|.
    Certification = relative residuals, ordering, rotation sense, Newton
    balance, and an integration over a quarter rotation period with
    relative pair-distance deviation < 1e-6.  The quarter-period horizon
    keeps round-off seeds below the gate even for configurations whose
    rigid rotation is linearly unstable (mixed-sign charges can amplify
    perturbations by ~e^25 per full period).  NoSolution as for
    :func:`solve_config_II`.
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
        interior = np.geomspace(_V2, vn, n)[2:n - 1]
        seeds = [np.concatenate(([s1 * _V2], interior)) for s1 in _SEEDS_V1]
        roots = []
        for u0 in seeds:
            try:
                u = _damped_newton(system, u0)
            except NonConvergence:
                continue
            if not any(np.allclose(u, r, rtol=1e-8, atol=0) for r in roots):
                roots.append(u)
        return [tuple(assemble(u)) for u in sorted(roots, key=lambda x: x[0])]

    return _collinear_sweep(spec, "nbody-II", vn_values, speeds_at,
                            require_certified)


# ---------------------------------------------------------------------------
# closed-form conserved quantities on the special trajectories
# ---------------------------------------------------------------------------

def conserved_closed_forms(spec, solution):
    """Closed-form values of the conserved set along a special trajectory.

    Returns a dict of quantity name -> value for the solution's
    configuration.  The forms are algebraic in the solution data only
    (no state evaluation); tests compare them against direct evaluation
    on the built state.
    """
    cfg = solution.config
    if cfg == "I":   # a three-charge configuration
        (e1, _, e3), (m1, m2, m3) = spec.charges, spec.masses
    sigma = 1.0 if solution.sense == "cw" else -1.0
    if cfg == "I" and solution.v[2] == 0.0 and solution.branch == "v3=0":
        r = solution.v[1] / solution.v[0]
        v1 = solution.v[0] * sigma
        B = solution.B
        D = abs(e1 * (r**3 - 1) * (e1 * r**2 + e3 * (1 + r)**2))
        bracket = (m1 + m2 * r**2
                   + 2*e1*r**2*(1 + r) * abs(m2 - m1*r**2)
                   * (e1*r + e3*(1 + r)) / D
                   + 2*e1*e3*(1 + r)**2 * abs(m2*r - m1*r**3) / D)
        H = 0.5 * v1**2 * bracket
        BI = (r*(1 + r)**2*(m1 - m2*r)*(m1*r**2 - m2)*v1**3
              / (e1**2*(r**3 - 1)**2*(e1*r**2 + e3*(1 + r)**2)))
        Lz = (e1*(r**3 - 1)*(e1*r**2 + e3*(1 + r)**2)
              * (BI*e1**2*(r**3 - 1 - r**4 + r**7)*(e1*r**2 + e3*(1 + r)**2)
                 + 2*r*(1 + r)**2*v1**3*(m1*r**2 - m2)*(m2*r**2 + m1))
              / (2*r**2*(1 + r)**4*v1**4*(m2 - m1*r**2)**2))
        return {"H": H, "K2": 0.0, "Lz": Lz, "l3": 0.0,
                "T1": 0.5*m1*v1**2, "T2": 0.5*m2*r**2*v1**2,
                "I": 0.0, "B_check": BI}
    if cfg == "I":
        # identical pair at separation rho12 = 2 v1 / omega
        e, m = e1, m1
        B = solution.B
        rho = 2 * solution.v[0] / solution.omega
        v3 = solution.v[2] * sigma
        s = 1.0 if solution.branch == "+" else -1.0
        root = 1.0 + s * math.sqrt(_pair_discriminant(spec, B, rho))
        H = (0.5*m3*v3**2 + e**2*B**2*rho**2/(16*m) * root**2
             + e*(e + 4*e3)/(4*rho))
        out = {"H": H, "K2": 0.0,
               "l3": (-m3**2*v3**2/(2*e3*B)) if v3 != 0.0 else 0.0,
               "T3": 0.5*m3*v3**2, "I": 0.0}
        if v3 != 0.0:
            out["Lz"] = (e*B*rho**2/4 - (2*m + m3)*m3*v3**2/(2*e3*B)
                         - e*B*rho**2/4 * root)
            out["k3x"] = 0.0
        return out
    if cfg in ("II", "III", "nbody-II"):
        v = np.array(_signed_speeds(cfg, solution.v), float) * sigma
        e = spec.charges
        m = spec.masses
        B = solution.B
        Sev = float(np.dot(e, v))
        Smv = float(np.dot(m, v))
        X = math.fsum(e[i]*e[j]/(v[i] - v[j])
                      for i, j in itertools.combinations(range(spec.n), 2))
        H = 0.5 * (2*B*X*Sev/Smv + float(np.dot(m, v**2)))
        out = {"H": H, "K2": 0.0}
        if spec.n == 3:
            out["I"] = 0.0
            out["Lz"] = (Smv**2/(2*B*Sev**2)
                         * (float(np.dot(e, v**2))
                            - 2*Sev*float(np.dot(m, v**2))/Smv))
            out["l2"] = (v[1]**2*Smv
                         * (e[1]*(m[0]*v[0] - m[1]*v[1] + m[2]*v[2])
                            - 2*m[1]*(e[0]*v[0] + e[2]*v[2]))
                         / (2*B*Sev**2))
        return out
    raise DomainError(f"no closed-form table for configuration {cfg!r}")


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
