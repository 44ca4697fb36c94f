"""Center-of-mass/relative (Jacobi) frame for the three-particle system.

Coordinates.  With total mass ``M``, ``mu_i = m_i/M`` and
``nu_i = m_i/(m_1+m_2)``:

    R    = mu_1 rho_1 + mu_2 rho_2 + mu_3 rho_3
    tau1 = rho_2 - rho_1
    tau2 = rho_3 - (nu_1 rho_1 + nu_2 rho_2)

with conjugate momenta

    P     = p_1 + p_2 + p_3
    ptau1 = nu_1 p_2 - nu_2 p_1
    ptau2 = (mu_1 + mu_2) p_3 - mu_3 (p_1 + p_2) .

Momentum shift.  A canonical transformation leaving all coordinates fixed,

    P'     = P     - e_c1 A(tau1) - e_c2 A(tau2)
    ptau1' = ptau1 + e_c1 A(R)
    ptau2' = ptau2 + e_c2 A(R) ,

removes the center-of-mass coordinate from the internal momenta.  Here the
coupling charges and effective charges are

    e_c1  = (m_2 e_1 - m_1 e_2) / (m_1 + m_2)
    e_c2  = (m_3 (e_1 + e_2) - (m_1 + m_2) e_3) / M
    e_1eff = e_2 nu_1^2 + e_1 nu_2^2
    e_2eff = e_3 (mu_1 + mu_2)^2 + (e_1 + e_2) mu_3^2 .

State.  A Jacobi state is the flat vector the stepper integrates,
z = (R, tau1, tau2, P, ptau1, ptau2), x before y in each pair: shape (12,),
or (..., 12) for a stack of samples.  Columns 0-5 are the coordinates and
6-11 their momenta, shifted or not: ``to_jacobi`` returns and
``from_jacobi`` takes unshifted momenta, ``rhs_jacobi`` integrates shifted
ones.  ``apply_cc`` and ``invert_cc`` are the two signs of one map,
``_shift``, which returns a shifted copy.  It moves no coordinate, so
``_positions``, the position half of the inverse map, and its float twin
``_flat_positions``, the collision watch of ``integrate_jacobi``, read
shifted vectors as well.

Each map is one public function of the spec (``to_jacobi``, ``apply_cc``,
``rhs_jacobi``, ``invert_cc``, ``from_jacobi``) that builds the weights it
needs with ``jacobi_weights``, and ``integrate_jacobi`` calls them in that
order; the weights cost microseconds against milliseconds per run.

The equations of motion are Hamilton's equations of the reduced
Hamiltonian in the shifted variables with its exact gradient, straight-line
code in Python floats (``rhs_jacobi``): the chain rule through the momentum
and field part, a quadratic form whose constants are fields of
``JacobiWeights``, and the three Coulomb forces, each written out.  The
package never evaluates the reduced Hamiltonian itself; the test suite
writes it out, checks that it equals the Cartesian Hamiltonian to rounding
and that ``rhs_jacobi`` is its Hamiltonian vector field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _checked_grid, _solve
from .errors import DomainError
from .model import _velocities_from_momenta, canonical_momenta, vector_potential


@dataclass
class JacobiWeights:
    M: float
    Q: float
    mu: tuple
    nu1: float
    nu2: float
    mt1: float       # reduced mass of the (1,2) pair
    mt2: float       # reduced mass of pair-3
    ec1: float
    ec2: float
    e1eff: float
    e2eff: float
    m12: float       # m_1 + m_2
    cross_tt: float  # coefficient of the A(tau1).A(tau2) term of the Hamiltonian


def jacobi_weights(spec):
    if spec.n != 3:
        raise DomainError("the Jacobi frame here is specific to three particles")
    # Python floats: numpy scalars would cost the RHS kernel half its speed
    m1, m2, m3 = spec.masses.tolist()
    e1, e2, e3 = spec.charges.tolist()
    M = m1 + m2 + m3
    m12 = m1 + m2
    mu = (m1 / M, m2 / M, m3 / M)
    nu1, nu2 = m1 / m12, m2 / m12
    # the frame divides by these, so none may round to 0 or inf
    if not all(0.0 < p < math.inf for p in (m1 * m2, m12 * m3, nu1 * nu2)):
        raise DomainError("the masses' products leave the float range of "
                          "the Jacobi frame")
    ec1 = (m2 * e1 - m1 * e2) / m12
    return JacobiWeights(
        M=M,
        Q=e1 + e2 + e3,
        mu=mu,
        nu1=nu1,
        nu2=nu2,
        mt1=m1 * m2 / m12,
        mt2=m12 * m3 / M,
        ec1=ec1,
        ec2=(m3 * (e1 + e2) - m12 * e3) / M,
        e1eff=e2 * nu1 ** 2 + e1 * nu2 ** 2,
        e2eff=e3 * (mu[0] + mu[1]) ** 2 + (e1 + e2) * mu[2] ** 2,
        m12=m12,
        cross_tt=(ec1 / (m1 * m2)) * (e3 * mu[0] * mu[1] * m12
                                      + e2 * mu[0] * mu[2] * (m1 + m3)
                                      + e1 * mu[1] * mu[2] * (m2 + m3)),
    )


def to_jacobi(spec, positions, velocities):
    """Map one Cartesian state to its flat Jacobi vector, shape (12,):
    ``(R, tau1, tau2, P, ptau1, ptau2)`` with unshifted momenta."""
    w = jacobi_weights(spec)
    pos = np.asarray(positions, float).reshape(3, 2)
    p = canonical_momenta(spec, pos, velocities)
    return np.concatenate([
        w.mu[0] * pos[0] + w.mu[1] * pos[1] + w.mu[2] * pos[2],
        pos[1] - pos[0],
        pos[2] - (w.nu1 * pos[0] + w.nu2 * pos[1]),
        p.sum(axis=0),
        w.nu1 * p[1] - w.nu2 * p[0],
        (w.mu[0] + w.mu[1]) * p[2] - w.mu[2] * (p[0] + p[1]),
    ])


def _positions(w, z):
    """Cartesian positions, shape (..., 3, 2), of the coordinate columns of
    the Jacobi vectors ``z`` (weights ``w``).  The momenta are not read, so
    ``z`` may be shifted or not."""
    R, tau1, tau2 = z[..., 0:2], z[..., 2:4], z[..., 4:6]
    S = R - w.mu[2] * tau2
    return np.stack([
        S - w.nu2 * tau1,
        S + w.nu1 * tau1,
        R + (w.mu[0] + w.mu[1]) * tau2,
    ], axis=-2)


def _flat_positions(w):
    """The float twin of :func:`_positions` for the collision watch: a map
    from one Jacobi vector to the list ``x1, y1, x2, y2, x3, y3``."""
    nu1, nu2, mu3, mu12 = w.nu1, w.nu2, w.mu[2], w.mu[0] + w.mu[1]

    def positions_of(z):
        Rx, Ry, t1x, t1y, t2x, t2y = z[:6].tolist()
        Sx, Sy = Rx - mu3 * t2x, Ry - mu3 * t2y
        return [Sx - nu2 * t1x, Sy - nu2 * t1y, Sx + nu1 * t1x, Sy + nu1 * t1y,
                Rx + mu12 * t2x, Ry + mu12 * t2y]

    return positions_of


def from_jacobi(spec, z):
    """Inverse of :func:`to_jacobi`: the unshifted Jacobi vectors ``z``,
    shape (..., 12), to ``(positions, velocities)``, each (..., 3, 2)."""
    w, z = jacobi_weights(spec), np.asarray(z, dtype=float)
    pos = _positions(w, z)
    P, ptau1, ptau2 = z[..., 6:8], z[..., 8:10], z[..., 10:12]
    p3 = w.mu[2] * P + ptau2
    p12 = P - p3
    p = np.stack([
        w.nu1 * p12 - ptau1,
        w.nu2 * p12 + ptau1,
        p3,
    ], axis=-2)
    return pos, _velocities_from_momenta(spec, pos, p)


def _shift(spec, z, sign):
    """A copy of the Jacobi vectors ``z``, shape (..., 12), with the momentum
    shift (``sign = 1``) or its inverse (``sign = -1``) applied."""
    w, B = jacobi_weights(spec), spec.B
    c1, c2 = sign * w.ec1, sign * w.ec2
    z = np.array(z, dtype=float)
    AR = vector_potential(z[..., 0:2], B)
    z[..., 6:8] = (z[..., 6:8] - c1 * vector_potential(z[..., 2:4], B)
                   - c2 * vector_potential(z[..., 4:6], B))
    z[..., 8:10] += c1 * AR
    z[..., 10:12] += c2 * AR
    return z


def apply_cc(spec, z):
    """Shift the momentum columns of ``z`` on a copy: (P, ptau1, ptau2) ->
    (P', ptau1', ptau2')."""
    return _shift(spec, z, 1.0)


def invert_cc(spec, z):
    """Undo :func:`apply_cc`, on a copy."""
    return _shift(spec, z, -1.0)


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def rhs_jacobi(spec):
    """Right-hand side ``f(t, z)`` on the flat shifted Jacobi vector ``z``.

    Hamilton's equations of the reduced Hamiltonian in floats: ``u``, ``v1``,
    ``v2`` are the velocities of the squared terms of the momentum and field
    part, ``g1``, ``g2`` its gradients in ``A(tau1)``, ``A(tau2)``, which
    ``A(r) = B/2 (-r_y, r_x)`` maps back to ``tau1``, ``tau2``, and the
    Coulomb pairs (1,2), (1,3), (2,3) lie along ``tau1``, ``nu2 tau1 + tau2``
    and ``tau2 - nu1 tau1``.  ``f`` returns a list, which the stepper
    stores straight into a stage row.
    """
    w = jacobi_weights(spec)
    hB = 0.5 * spec.B
    M, mt1, mt2, nu1, nu2, mu3 = w.M, w.mt1, w.mt2, w.nu1, w.nu2, w.mu[2]
    ec1, e1eff, e2eff, cross_tt = w.ec1, w.e1eff, w.e2eff, w.cross_tt
    two_ec1, two_ec2, hBQ = 2.0 * ec1, 2.0 * w.ec2, hB * w.Q
    k1q2 = ec1 / w.m12                        # coefficient of A(tau1).q2
    k2q1 = ec1 * mu3 / (nu1 * nu2 * w.m12)    # coefficient of A(tau2).q1
    k11 = ec1 * ec1 * mu3 / w.m12             # twice that of |A(tau1)|^2
    k22 = k2q1 * ec1 * mu3                    # twice that of |A(tau2)|^2
    c12, c13, c23 = spec.pairs[2].tolist()

    def f(t, z):
        Rx, Ry, t1x, t1y, t2x, t2y, Px, Py, q1x, q1y, q2x, q2y = z.tolist()
        a1x, a1y = -hB * t1y, hB * t1x
        a2x, a2y = -hB * t2y, hB * t2x
        ux = (Px + hBQ * Ry + two_ec1 * a1x + two_ec2 * a2x) / M
        uy = (Py - hBQ * Rx + two_ec1 * a1y + two_ec2 * a2y) / M
        v1x, v1y = (q1x - e1eff * a1x) / mt1, (q1y - e1eff * a1y) / mt1
        v2x, v2y = (q2x - e2eff * a2x) / mt2, (q2y - e2eff * a2y) / mt2
        g1x = two_ec1 * ux - e1eff * v1x + k11 * a1x - k1q2 * q2x + cross_tt * a2x
        g1y = two_ec1 * uy - e1eff * v1y + k11 * a1y - k1q2 * q2y + cross_tt * a2y
        g2x = two_ec2 * ux - e2eff * v2x + k22 * a2x - k2q1 * q1x + cross_tt * a1x
        g2y = two_ec2 * uy - e2eff * v2y + k22 * a2y - k2q1 * q1y + cross_tt * a1y
        d13x, d13y = nu2 * t1x + t2x, nu2 * t1y + t2y
        d23x, d23y = t2x - nu1 * t1x, t2y - nu1 * t1y
        s12 = c12 / (t1x * t1x + t1y * t1y) ** 1.5
        s13 = c13 / (d13x * d13x + d13y * d13y) ** 1.5
        s23 = c23 / (d23x * d23x + d23y * d23y) ** 1.5
        # q-dot = dH/dp, p-dot = -dH/dq for the three canonical planar pairs
        return [ux, uy, v1x - k2q1 * a2x, v1y - k2q1 * a2y,
                v2x - k1q2 * a1x, v2y - k1q2 * a1y, hBQ * uy, -hBQ * ux,
                s12 * t1x + nu2 * s13 * d13x - nu1 * s23 * d23x - hB * g1y,
                s12 * t1y + nu2 * s13 * d13y - nu1 * s23 * d23y + hB * g1x,
                s13 * d13x + s23 * d23x - hB * g2y,
                s13 * d13y + s23 * d23y + hB * g2x]

    return f


def integrate_jacobi(spec, state, settings):
    """Integrate in the Jacobi frame; samples are returned in Cartesian form.

    This is a validation path: the Cartesian integrator in
    :mod:`magnetotrio.dynamics` is the authoritative one.  It shares that
    integrator's sampling grid and collision watch; the watch reads the
    positions alone, which the momentum shift leaves as they are.
    """
    t_eval = _checked_grid(settings, state.t)
    z0 = apply_cc(spec, to_jacobi(spec, state.positions, state.velocities))
    t, z, stats = _solve(spec, rhs_jacobi(spec), z0, state.t, t_eval, settings,
                         _flat_positions(jacobi_weights(spec)))
    return Trajectory(spec, t, *from_jacobi(spec, invert_cc(spec, z)), stats)
