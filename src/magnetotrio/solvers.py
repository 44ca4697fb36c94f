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

Sign conventions and certification
----------------------------------
The force-balance equations below hard-code the sign pattern of the
Coulomb terms for their nominal speed ordering and rotation sense
(omega > 0).  A root of the equations is therefore only a genuine
Newtonian motion inside that sector; every solver here re-checks the
instantaneous Newton balance of the built state and, where the contract
asks for it, integrates the state and measures rigidity.  Solutions
carry ``certified`` accordingly — uncertified roots are algebra, not
trajectories.

Speeds and frequencies are reported positive; ``sense`` records the
actual rotation sense ("cw" for the parametrization
rho(t) = r (cos wt, -sin wt), "ccw" for its mirror).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics
from .dynamics import IntegratorSettings, accelerations, rigidity_report
from .errors import (DegenerateError, DomainError, NonConvergence,
                     NoSolution, ValidityError)
from .model import PhaseState, SystemSpec, classify_system

__all__ = [
    "ConfigSolution", "residuals_config_I", "residuals_config_II",
    "residuals_config_III", "residuals_nbody_II", "collinear_kappa",
    "closed_form_B_II", "closed_form_B_III", "closed_form_B_nbody",
    "p6_coefficients", "evaluate_p6", "helium_pattern", "helium_cubic_root",
    "helium_quartic_coefficients", "helium_closed_forms",
    "solve_config_I_v3zero", "solve_config_I_identical", "solve_config_II",
    "solve_config_III", "solve_nbody_II", "build_initial_state",
    "newton_balance", "conserved_closed_forms", "pair_distance_min",
    "write_catalog", "catalog_header",
]

_RESIDUAL_TOL = 1e-10     # relative residual gate for certification
_BALANCE_TOL = 1e-6       # Newton-balance gate (relative)
_DEDUP_TOL = 1e-9


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
    kappa: float = math.nan
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


def _collinear_terms(charges, masses, v, omega, B, s=1):
    # balance rows at signed speeds v; the (i, j) Coulomb term carries the
    # sign s for j > i and -s for j < i (s = 1: the ordering v1 < ... < vn)
    n = len(v)
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
    rows = _collinear_terms(spec.charges, spec.masses, v, omega, B)
    return np.array([math.fsum(r) for r in rows])


def residuals_config_II(spec, v, omega, B):
    """Raw residuals (length 3) of the Configuration-II system."""
    if spec.n != 3:
        raise DomainError("Configuration II is a three-charge system")
    return residuals_nbody_II(spec, v, omega, B)


def residuals_config_III(spec, v, omega, B):
    """Raw residuals (length 3) of the Configuration-III (anti-phase) system:
    the collinear rows at signed speeds (v1, v2, -v3) with the Coulomb signs
    reversed."""
    if spec.n != 3:
        raise DomainError("Configuration III is a three-charge system")
    v1, v2, v3 = v
    rows = _collinear_terms(spec.charges, spec.masses, (v1, v2, -v3), omega, B, -1)
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


def closed_form_B_nbody(spec, v):
    """Solve the second collinear balance equation for B (any n >= 3)."""
    v = np.asarray(v, float)
    e = spec.charges
    m = spec.masses
    kap = collinear_kappa(spec, v)
    if e[1] == 0.0 or kap == 0.0:
        raise DegenerateError("collinear field closed form needs e2 != 0, kappa != 0")
    bracket = math.fsum(
        (1 if j > 1 else -1) * e[j] / (v[1] - v[j])**2
        for j in range(spec.n) if j != 1)
    if bracket == 0.0:
        raise DegenerateError("collinear field closed form: Coulomb bracket vanishes")
    return v[1] * (m[1] * kap - e[1]) / (e[1] * kap**2 * bracket)


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
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
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


def evaluate_p6(spec, v1, v2, v3, _coeffs=None):
    c = _coeffs if _coeffs is not None else p6_coefficients(spec)
    return math.fsum(a * v1**i * v2**j * v3**k for (i, j, k), a in c.items())


def _evaluate_p6_dv1(c, v1, v2, v3):
    return math.fsum(i * a * v1**(i - 1) * v2**j * v3**k
                     for (i, j, k), a in c.items() if i > 0)


# ---------------------------------------------------------------------------
# two-identical-particles neutral pattern and its closed forms
# ---------------------------------------------------------------------------

def helium_pattern(spec, tol=1e-12):
    """Detect the neutral two-identical-particles pattern
    e2 = e3 = e, m2 = m3 = m, e1 = -2e, e1/m1 != e/m.
    Returns (e, m1, m) or None."""
    if spec.n != 3:
        return None
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    if e2 == 0.0 or abs(e2 - e3) > tol * abs(e2):
        return None
    if abs(m2 - m3) > tol * abs(m2):
        return None
    if abs(e1 + 2*e2) > tol * max(abs(e1), abs(e2)):
        return None
    if abs(e1/m1 - e2/m2) <= tol * max(abs(e1/m1), abs(e2/m2)):
        return None
    return e2, m1, m2


def helium_cubic_root(v2=1.0):
    """The positive root of L^3 - 117 v2 L^2 - 81 v2^2 L - 27 v2^3 = 0,
    the lower edge of the third speed's admissible window."""
    if v2 <= 0:
        raise DomainError("v2 must be positive")

    def f(x):
        return x**3 - 117*v2*x**2 - 81*v2**2*x - 27*v2**3

    lo, hi = 100.0 * v2, 200.0 * v2
    x = _bisect(f, lo, hi, f(lo), f(hi))
    for _ in range(4):  # Newton cleanup
        x -= f(x) / (3*x**2 - 234*v2*x - 81*v2**2)
    return x


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

def _signed(sol):
    sigma = 1.0 if sol.sense == "cw" else -1.0
    return sigma


def build_initial_state(solution, spec):
    """Phase-space snapshot of a solution at t = 0.

    Returns ``(spec_b, state)`` where ``spec_b`` is ``spec`` with the
    solution's field value installed.  The parametrization puts every
    rotation center at the origin and its phase at angle 0, so all
    charges start on the x-axis with tangential (y) velocities.
    """
    if tuple(spec.charges.shape) != (len(solution.v),):
        raise DomainError("solution and spec have different particle counts")
    sigma = _signed(solution)
    w = sigma * solution.omega
    v = [sigma * vi for vi in solution.v]
    cfg = solution.config
    if cfg in ("II", "nbody-II"):
        pos = [[vi / w, 0.0] for vi in v]
        vel = [[0.0, -vi] for vi in v]
    elif cfg == "III":
        pos = [[v[0] / w, 0.0], [v[1] / w, 0.0], [-v[2] / w, 0.0]]
        vel = [[0.0, -v[0]], [0.0, -v[1]], [0.0, v[2]]]
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

    Zero (to rounding) iff the solution is a genuine trajectory; far
    above the 1e-6 gate for algebra-only roots whose sign sector does
    not match.
    """
    spec_b, state = build_initial_state(solution, spec)
    acc = accelerations(spec_b, state.positions, state.velocities)
    sigma = _signed(solution)
    w = sigma * solution.omega
    if solution.config == "I" and solution.v[2] != 0.0:
        w3 = sigma * solution.omega3
        center = np.array([sigma * solution.v[2] / w3, 0.0])
        expected = np.empty_like(acc)
        expected[2] = -w3**2 * state.positions[2]
        for i in (0, 1):
            expected[i] = (-w**2 * (state.positions[i] - center)
                           - w3**2 * center)
    else:
        expected = -w**2 * state.positions
    scale = max(1.0, float(np.abs(acc).max()))
    return float(np.abs(acc - expected).max()) / scale


def _rigidity_of(spec_b, state, t_end, **kw):
    settings = IntegratorSettings(t_end=t_end, rel_tol=1e-10, abs_tol=1e-10,
                                  sample_interval=t_end / 200.0, **kw)
    # looked up at call time, so bench/spans.py traces these integrations
    traj = dynamics.integrate(spec_b, state, settings)
    return rigidity_report(traj).worst


# ---------------------------------------------------------------------------
# Configuration I
# ---------------------------------------------------------------------------

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
    if e1 * e2 <= 0:
        raise DomainError("the rotating pair needs same-sign charges "
                          "(v2^2 = v1^2 e2/e1)")
    r = math.sqrt(e2 / e1)
    v2 = r * v1
    d1 = e1 - r * e2
    d2 = e2 + e3 * (1 + r)**2
    if d1 == 0.0:
        raise DegenerateError(
            "identical pair (e1 = e2): frequency closed form degenerates; "
            "use solve_config_I_identical")
    if d2 == 0.0:
        raise DegenerateError("charge combination e2 + e3(1+r)^2 vanishes")
    omega = (e2*m1 - e1*m2) * r * (1 + r)**2 * v1**3 / (e1 * d1 * d2)
    B = omega * (m1 - m2 * r) / d1
    if omega <= 0:
        raise ValidityError(f"closed-form frequency omega = {omega:.6g} <= 0; "
                            "no rigid rotation in this sector")
    if B == 0.0 or not math.isfinite(B):
        raise ValidityError(f"closed-form field B = {B:.6g} is degenerate")
    spec_b = replace(spec, B=B)
    terms = _config_I_terms(spec_b, v1, v2, 0.0, omega, 0.0)
    sol = ConfigSolution(
        config="I", branch="v3=0", v=(v1, v2, 0.0), omega=omega, B=B,
        omega3=0.0, residual_norm=_relative_norm(terms), sense="cw",
        kappa=math.nan)
    bal = newton_balance(sol, spec)
    sol.newton_balance = bal
    sol.certified = (sol.residual_norm < _RESIDUAL_TOL and bal < _BALANCE_TOL)
    return [sol]


def pair_distance_min(spec):
    """Smallest pair separation admitting the identical-pair rotation at
    the spec's field, or None when every separation works."""
    e1, e2, e3 = spec.charges
    m = spec.masses[0]
    arg = 8 * m * (e1 + 4*e3) / (e1 * spec.B**2)
    if arg <= 0:
        return None
    return arg ** (1.0 / 3.0)


_DISC_CLAMP = 1e-12


def solve_config_I_identical(spec, rho12, v3=0.0):
    """Configuration I for an identical rotating pair (e1 = e2, m1 = m2)
    at a prescribed pair separation, using the spec's field.

    Returns the two quadratic branches ("+" and "-"); at the critical
    separation they coincide (the discriminant is clamped to zero when
    |disc| < 1e-12 to keep the coincidence exact in floats).  Raises
    NoSolution below the critical separation.  A nonzero third speed
    requires a common charge-to-mass ratio alpha; the third charge then
    runs its own circle at omega3 = alpha*B and any v3 > 0 works (the
    returned row is the representative for the requested v3).
    """
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    if e1 != e2 or m1 != m2:
        raise DomainError("identical-pair branch needs e1 = e2 and m1 = m2")
    if rho12 <= 0:
        raise DomainError("pair separation must be positive")
    if spec.B == 0.0:
        raise DomainError("needs a nonzero field")
    e, m = e1, m1
    cls = classify_system(spec)
    omega3_signed = 0.0
    if v3 != 0.0:
        if v3 < 0:
            raise DomainError("v3 must be nonnegative")
        if not cls.equal_larmor:
            raise ValidityError(
                "a moving third charge needs a common charge-to-mass ratio")
        omega3_signed = cls.alpha * spec.B
    disc = 1.0 - 8*m*(e + 4*e3) / (e * spec.B**2 * rho12**3)
    if abs(disc) < _DISC_CLAMP:
        disc = 0.0
    if disc < 0:
        rmin = pair_distance_min(spec)
        raise NoSolution(
            f"separation {rho12:.6g} below the critical "
            f"{rmin:.6g} at B = {spec.B:.6g}: speed branches are complex")
    out = []
    for tag, s in (("+", 1.0), ("-", -1.0)):
        v_signed = e * spec.B * rho12 / (4*m) * (1.0 + s * math.sqrt(disc))
        if v_signed == 0.0:
            continue
        omega_signed = 2.0 * v_signed / rho12
        sense = "cw" if omega_signed > 0 else "ccw"
        v1 = abs(v_signed)
        w = abs(omega_signed)
        w3 = abs(omega3_signed)
        if v3 != 0.0 and omega3_signed * omega_signed < 0:
            # opposite senses cannot share the rigid frame
            continue
        # the printed balance equations hold at the signed speeds
        terms = _config_I_terms(spec, v_signed, v_signed,
                                math.copysign(v3, omega_signed) if v3 else 0.0,
                                omega_signed, omega3_signed)
        sol = ConfigSolution(
            config="I", branch=tag, v=(v1, v1, float(v3)), omega=w, B=spec.B,
            omega3=w3, residual_norm=_relative_norm(terms), sense=sense)
        sol.newton_balance = newton_balance(sol, spec)
        sol.certified = (sol.residual_norm < _RESIDUAL_TOL
                         and sol.newton_balance < _BALANCE_TOL)
        out.append(sol)
    if not out:
        raise NoSolution("both speed branches degenerate")
    out.sort(key=ConfigSolution.sort_key)
    return out


# ---------------------------------------------------------------------------
# collinear root search (Configurations II/III share the machinery)
# ---------------------------------------------------------------------------

def _bisect(f, a, b, fa, fb, iters=80):
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
        if b - a <= 1e-15 * b:
            break
    return 0.5 * (a + b)


def _p6_roots_v1(spec, v2, v3, points_per_decade, decades, polish_tol,
                 coeffs=None):
    """Sign-change roots of the elimination sextic in v1 on a log grid
    around v2, bisected then Newton-polished."""
    c = coeffs if coeffs is not None else p6_coefficients(spec)

    def f(x):
        return evaluate_p6(spec, x, v2, v3, _coeffs=c)

    npts = int(2 * decades * points_per_decade) + 1
    xs = np.geomspace(v2 * 10.0**(-decades), v2 * 10.0**decades, npts)
    fv = np.array([f(x) for x in xs])
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], fv, fv[1:]):
        if not (np.isfinite(fa) and np.isfinite(fb)) or fa * fb >= 0:
            continue
        x = _bisect(f, a, b, fa, fb)
        for _ in range(40):  # Newton polish on the polynomial
            dfx = _evaluate_p6_dv1(c, x, v2, v3)
            if dfx == 0.0:
                break
            step = f(x) / dfx
            x -= step
            if abs(step) <= polish_tol * max(1.0, abs(x)):
                break
        # spurious factor zeros of the elimination (coincident speeds)
        if min(abs(x - v2), abs(x - v3)) < 1e-9 * max(1.0, abs(v2), abs(v3)):
            continue
        if x > 0 and not any(abs(x - rr) < _DEDUP_TOL * max(1.0, rr)
                             for rr in roots):
            roots.append(x)
    return roots


def _collinear_solution(spec, v, config, branch):
    """Assemble + certify one collinear root (positive speed tuple ``v``)."""
    if config == "III":
        vs, s = (v[0], v[1], -v[2]), -1   # map to the common signed form
    else:
        vs, s = tuple(v), 1
    kap = collinear_kappa(spec, vs)
    if config == "II":
        B = closed_form_B_II(spec, *vs)
    elif config == "III":
        B = closed_form_B_III(spec, v[0], v[1], v[2])
    else:
        B = closed_form_B_nbody(spec, vs)
    omega_signed = kap * B
    if omega_signed == 0.0 or not math.isfinite(omega_signed):
        raise DegenerateError("frequency closed form degenerates")
    if B == 0.0 or not math.isfinite(B):
        raise DegenerateError("field closed form degenerates")
    terms = _collinear_terms(spec.charges, spec.masses, vs, omega_signed, B, s)
    sense = "cw" if omega_signed > 0 else "ccw"
    sol = ConfigSolution(
        config=config, branch=branch, v=tuple(abs(x) for x in v),
        omega=abs(omega_signed), B=B, residual_norm=_relative_norm(terms),
        sense=sense, kappa=kap)
    sol.newton_balance = newton_balance(sol, spec)
    ordered = _ordering_ok(config, v)
    sol.certified = (ordered and omega_signed > 0
                     and sol.residual_norm < _RESIDUAL_TOL
                     and sol.newton_balance < _BALANCE_TOL)
    if not ordered:
        sol.notes += ("speed ordering outside the sector",)
    if omega_signed < 0:
        sol.notes += ("mirror rotation sense",)
    return sol


def _ordering_ok(config, v):
    if config == "III":
        return v[0] > v[1] > v[2] > 0
    return all(a < b for a, b in zip(v, v[1:])) and v[0] > 0


def _equal_larmor_guard(spec):
    cls = classify_system(spec)
    if cls.equal_larmor:
        raise NoSolution(
            "equal charge-to-mass ratios (alpha = "
            f"{cls.alpha:.6g}): the elimination polynomial vanishes "
            "identically, so no collinear rigid rotation exists")


def solve_config_II(spec, v3_values=None, v2=1.0, points_per_decade=40,
                    decades=1.5, polish_tol=1e-12, require_certified=True):
    """Sweep the third speed and solve for Configuration-II rotations.

    v2 fixes the overall speed scale (the system is scale-covariant); for
    each v3 the elimination sextic is root-solved in v1 on a log grid of
    ``points_per_decade`` points per decade spanning ``decades`` decades
    each side of v2.  The field and frequency follow from the closed
    forms; roots are certified against ordering, rotation sense, and the
    Newtonian balance of the built state.

    The neutral identical-pair pattern short-circuits to its quartic
    (restricted to the admissible window v3 >= helium_cubic_root(v2));
    those roots never satisfy the speed ordering, so they are returned —
    with residuals — only when ``require_certified`` is False.

    Raises NoSolution when no (certified) solution exists, including the
    equal charge-to-mass no-go.
    """
    if spec.n != 3:
        raise DomainError("Configuration II is a three-charge system")
    _equal_larmor_guard(spec)
    if v3_values is None:
        v3_values = v2 * np.geomspace(1.5, 20.0, 12)
    pat = helium_pattern(spec)
    coeffs = p6_coefficients(spec)
    out = []
    uncertified_info = []
    for v3 in np.atleast_1d(np.asarray(v3_values, float)):
        if v3 <= 0:
            continue
        found = []
        if pat is not None and v3 >= helium_cubic_root(v2):
            q = helium_quartic_coefficients(v2, v3)
            rts = [r.real for r in np.roots(q)
                   if abs(r.imag) <= 1e-9 * max(1.0, abs(r))]
            dq = np.polyder(np.poly1d(q))
            for x in sorted(rts):
                for _ in range(40):
                    d = dq(x)
                    if d == 0:
                        break
                    step = np.poly1d(q)(x) / d
                    x -= step
                    if abs(step) <= polish_tol * max(1.0, abs(x)):
                        break
                if x > 0:
                    found.append(x)
        else:
            found = _p6_roots_v1(spec, v2, v3, points_per_decade, decades,
                                 polish_tol, coeffs=coeffs)
        for k, v1 in enumerate(found):
            try:
                sol = _collinear_solution(spec, (v1, v2, float(v3)), "II",
                                          branch=str(k))
            except DegenerateError:
                continue
            if sol.certified or not require_certified:
                out.append(sol)
            elif pat is not None:
                uncertified_info.append((float(v3), v1, sol.notes))
    if not out:
        msg = "no Configuration-II rotation on the sampled grid"
        if uncertified_info:
            pts = "; ".join(f"v3={a:.6g}: v1={b:.10g} ({', '.join(n)})"
                            for a, b, n in uncertified_info[:4])
            msg += (". Algebraic quartic roots exist but fail certification: "
                    + pts)
        raise NoSolution(msg)
    out.sort(key=ConfigSolution.sort_key)
    return out


def solve_config_III(spec, v3_values=None, v2=1.0, points_per_decade=40,
                     decades=1.5, polish_tol=1e-12, require_certified=True):
    """Sweep the third speed for anti-phase collinear rotations.

    Works through the sign map v3 -> -v3 of the Configuration-II algebra:
    roots of the sextic at (v1, v2, -v3), field -B_II(v1, v2, -v3),
    frequency from the signed speed sum.  Ordering sector: v1 > v2 > v3.
    """
    if spec.n != 3:
        raise DomainError("Configuration III is a three-charge system")
    _equal_larmor_guard(spec)
    if v3_values is None:
        v3_values = v2 * np.geomspace(0.05, 0.8, 12)
    coeffs = p6_coefficients(spec)
    out = []
    for v3 in np.atleast_1d(np.asarray(v3_values, float)):
        if v3 <= 0:
            continue
        found = _p6_roots_v1(spec, v2, -float(v3), points_per_decade, decades,
                             polish_tol, coeffs=coeffs)
        for k, v1 in enumerate(found):
            try:
                sol = _collinear_solution(spec, (v1, v2, float(v3)), "III",
                                          branch=str(k))
            except DegenerateError:
                continue
            if sol.certified or not require_certified:
                out.append(sol)
    if not out:
        raise NoSolution("no Configuration-III rotation on the sampled grid")
    out.sort(key=ConfigSolution.sort_key)
    return out


# ---------------------------------------------------------------------------
# n-body collinear solver
# ---------------------------------------------------------------------------

def _nbody_system(spec, v2, vn):
    """Residual map F(u) for the reduced collinear system.

    Unknowns u = (v1, v3, ..., v_{n-1}); v2 and vn are fixed.  With
    omega = kappa*B and B from the second balance equation, the equation
    sum vanishes identically, leaving equations {1, 3, ..., n-1}.
    """
    n = spec.n

    def assemble(u):
        v = np.empty(n)
        v[0] = u[0]
        v[1] = v2
        v[2:n - 1] = u[1:]
        v[n - 1] = vn
        return v

    def F(u):
        v = assemble(u)
        kap = collinear_kappa(spec, v)
        B = closed_form_B_nbody(spec, v)
        res = residuals_nbody_II(spec, v, kap * B, B)
        return np.concatenate(([res[0]], res[2:n - 1]))

    return F, assemble


def _damped_newton(F, u0, tol=1e-12, max_iter=60):
    u = np.asarray(u0, float).copy()
    fu = F(u)
    norm = np.linalg.norm(fu)
    for _ in range(max_iter):
        if norm < tol:
            return u
        J = np.empty((len(fu), len(u)))
        for k in range(len(u)):
            h = 1e-7 * max(1.0, abs(u[k]))
            up = u.copy(); up[k] += h
            um = u.copy(); um[k] -= h
            J[:, k] = (F(up) - F(um)) / (2 * h)
        try:
            step = np.linalg.solve(J, -fu)
        except np.linalg.LinAlgError:
            raise NonConvergence("singular Jacobian in the collinear solver")
        lam = 1.0
        for _ in range(30):
            trial = u + lam * step
            if np.all(trial > 0):
                ft = F(trial)
                nt = np.linalg.norm(ft)
                if nt < norm * (1 - 1e-4 * lam) or nt < tol:
                    u, fu, norm = trial, ft, nt
                    break
            lam *= 0.5
        else:
            raise NonConvergence("backtracking stalled in the collinear solver")
    if norm >= tol:
        raise NonConvergence(f"no convergence (|F| = {norm:.3g})")
    return u


def solve_nbody_II(spec, vn_values=None, v2=1.0, seeds_v1=None,
                   require_certified=True, rigidity_periods=0.25):
    """Collinear rigid rotations for n >= 3 charges.

    Fixes v2 = ``v2`` (scale) and sweeps the outermost speed vn; the
    remaining speeds solve the reduced balance system by damped Newton
    iteration from deterministic seeds (for n = 3 the seeds are the
    elimination-sextic roots themselves, so the root set provably
    coincides with solve_config_II's; for n > 3, v1 runs over
    ``seeds_v1`` times v2 — default (0.25, 0.5, 0.8) — with interior
    speeds geometrically interpolated between v2 and vn).
    Certification = relative residuals, ordering, rotation sense, Newton
    balance, and an integration over ``rigidity_periods`` rotation
    periods with relative pair-distance deviation < 1e-6.  The default
    quarter-period horizon keeps round-off seeds below the gate even for
    configurations whose rigid rotation is linearly unstable (mixed-sign
    charges can amplify perturbations by ~e^25 per full period).
    """
    n = spec.n
    if n < 3:
        raise DomainError("collinear rigid rotations need at least 3 charges")
    _equal_larmor_guard(spec)
    if vn_values is None:
        vn_values = v2 * np.geomspace(1.5, 20.0, 12)
    out = []
    for vn in np.atleast_1d(np.asarray(vn_values, float)):
        if vn <= v2:
            continue
        F, assemble = _nbody_system(spec, v2, float(vn))
        if n == 3:
            seeds = [(s,) for s in _p6_roots_v1(spec, v2, float(vn),
                                                40, 1.5, 1e-12)]
        else:
            seeds = []
            for s1 in (seeds_v1 or (0.25, 0.5, 0.8)):
                u0 = np.empty(n - 2)
                u0[0] = s1 * v2
                u0[1:] = np.geomspace(v2, vn, n)[2:n - 1]
                seeds.append(u0)
        roots = []
        for u0 in seeds:
            try:
                u = _damped_newton(F, np.asarray(u0, float))
            except NonConvergence:
                continue
            if not any(np.allclose(u, r, rtol=1e-8, atol=0) for r in roots):
                roots.append(u)
        for k, u in enumerate(sorted(roots, key=lambda x: x[0])):
            v = assemble(u)
            try:
                sol = _collinear_solution(spec, tuple(v), "nbody-II",
                                          branch=str(k))
            except DegenerateError:
                continue
            if sol.certified:
                spec_b, state = build_initial_state(sol, spec)
                period = 2 * math.pi / sol.omega
                sol.rigidity = _rigidity_of(spec_b, state,
                                            rigidity_periods * period)
                sol.certified = sol.rigidity < 1e-6
            if sol.certified or not require_certified:
                out.append(sol)
    if not out:
        raise NoSolution("no collinear rigid rotation on the sampled grid")
    out.sort(key=ConfigSolution.sort_key)
    return out


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
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    cfg = solution.config
    sigma = _signed(solution)
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
                "pair_virial": 0.0, "B_check": BI}
    if cfg == "I":
        # identical pair at separation rho12 = 2 v1 / omega
        e, m = e1, m1
        B = solution.B
        rho = 2 * solution.v[0] / solution.omega
        v3 = solution.v[2] * sigma
        s = 1.0 if solution.branch == "+" else -1.0
        disc = 1.0 - 8*m*(e + 4*e3) / (e * B**2 * rho**3)
        if abs(disc) < _DISC_CLAMP:
            disc = 0.0
        root = 1.0 + s * math.sqrt(disc)
        H = (0.5*m3*v3**2 + e**2*B**2*rho**2/(16*m) * root**2
             + e*(e + 4*e3)/(4*rho))
        out = {"H": H, "K2": 0.0,
               "l3": (-m3**2*v3**2/(2*e3*B)) if v3 != 0.0 else 0.0,
               "T3": 0.5*m3*v3**2, "pair_virial": 0.0}
        if v3 != 0.0:
            out["Lz"] = (e*B*rho**2/4 - (2*m + m3)*m3*v3**2/(2*e3*B)
                         - e*B*rho**2/4 * root)
            out["k3x"] = 0.0
        return out
    if cfg in ("II", "III", "nbody-II"):
        v = np.array(solution.v, float) * sigma
        if cfg == "III":
            v[2] = -v[2]
        e = spec.charges
        m = spec.masses
        B = solution.B
        Sev = float(np.dot(e, v))
        Smv = float(np.dot(m, v))
        X = math.fsum(e[i]*e[j]/(v[i] - v[j])
                      for i, j in itertools.combinations(range(spec.n), 2))
        H = 0.5 * (2*B*X*Sev/Smv + float(np.dot(m, v**2)))
        out = {"H": H, "K2": 0.0, "pair_virial": 0.0}
        if spec.n == 3:
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
