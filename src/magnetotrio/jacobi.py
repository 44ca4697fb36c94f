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

``apply_cc`` and ``invert_cc`` are the two signs of one map, ``_shift``.
It moves no coordinate, so ``_positions``, the position half of the inverse
map, serves the collision watch of ``integrate_jacobi`` on shifted data.

``hamiltonian_jacobi`` evaluates the reduced Hamiltonian in the shifted
variables; it agrees with the Cartesian Hamiltonian to rounding, which the
test-suite pins down.  The equations of motion are Hamilton's equations of
the reduced Hamiltonian with its exact gradient: the momentum and field part
is a quadratic form whose constants are fields of ``JacobiWeights`` and
whose matrix is read off once per system, and the three Coulomb forces are
written out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    m1, m2, m3 = spec.masses
    e1, e2, e3 = spec.charges
    M = m1 + m2 + m3
    m12 = m1 + m2
    mu = (m1 / M, m2 / M, m3 / M)
    nu1, nu2 = m1 / m12, m2 / m12
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


@dataclass
class JacobiState:
    """Jacobi coordinates with their conjugate momenta.

    The same container is used before and after the momentum shift; each
    function documents which convention it expects.
    """

    R: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    P: np.ndarray
    ptau1: np.ndarray
    ptau2: np.ndarray


def to_jacobi(spec, positions, velocities):
    """Map Cartesian phase data to Jacobi coordinates (unshifted momenta)."""
    w = jacobi_weights(spec)
    pos = np.asarray(positions, float).reshape(3, 2)
    p = canonical_momenta(spec, pos, velocities)
    R = w.mu[0] * pos[0] + w.mu[1] * pos[1] + w.mu[2] * pos[2]
    tau1 = pos[1] - pos[0]
    tau2 = pos[2] - (w.nu1 * pos[0] + w.nu2 * pos[1])
    P = p.sum(axis=0)
    ptau1 = w.nu1 * p[1] - w.nu2 * p[0]
    ptau2 = (w.mu[0] + w.mu[1]) * p[2] - w.mu[2] * (p[0] + p[1])
    return JacobiState(R, tau1, tau2, P, ptau1, ptau2)


def _positions(w, js):
    """Cartesian positions, shape (..., 3, 2), of the Jacobi coordinates of
    ``js`` (weights ``w``).  The momenta are not read, so the state may be
    shifted or not."""
    S = js.R - w.mu[2] * js.tau2
    return np.stack([
        S - w.nu2 * js.tau1,
        S + w.nu1 * js.tau1,
        js.R + (w.mu[0] + w.mu[1]) * js.tau2,
    ], axis=-2)


def from_jacobi(spec, js):
    """Inverse of :func:`to_jacobi`: returns ``(positions, velocities)``.

    The fields of ``js`` may carry a leading sample axis, shape (..., 2);
    the results then have shape (..., 3, 2).
    """
    w = jacobi_weights(spec)
    pos = _positions(w, js)
    p3 = w.mu[2] * js.P + js.ptau2
    p12 = js.P - p3
    p = np.stack([
        w.nu1 * p12 - js.ptau1,
        w.nu2 * p12 + js.ptau1,
        p3,
    ], axis=-2)
    return pos, _velocities_from_momenta(spec, pos, p)


def _shift(spec, js, sign):
    """The momentum shift (``sign = 1``) or its inverse (``sign = -1``)."""
    w = jacobi_weights(spec)
    B = spec.B
    c1, c2 = sign * w.ec1, sign * w.ec2
    AR = vector_potential(js.R, B)
    return replace(js,
                   P=js.P - c1 * vector_potential(js.tau1, B) - c2 * vector_potential(js.tau2, B),
                   ptau1=js.ptau1 + c1 * AR,
                   ptau2=js.ptau2 + c2 * AR)


def apply_cc(spec, js):
    """Shift momenta: (P, ptau1, ptau2) -> (P', ptau1', ptau2').  The
    coordinate arrays of the result are those of ``js``, not copies."""
    return _shift(spec, js, 1.0)


def invert_cc(spec, js):
    """Undo :func:`apply_cc`."""
    return _shift(spec, js, -1.0)


# ---------------------------------------------------------------------------
# reduced Hamiltonian (shifted momenta)
# ---------------------------------------------------------------------------

def _coulomb_pairs(spec, w):
    """Pair table of the Coulomb terms: row p of ``D`` maps ``(tau1, tau2)``
    to the displacement of pair p = (1,2), (1,3), (2,3), and ``ee`` holds the
    charge products of those pairs (``spec.pairs`` order)."""
    return np.array([[1.0, 0.0], [w.nu2, 1.0], [-w.nu1, 1.0]]), spec.pairs[2]


def _hc_quadratic(w, B, z):
    """Momentum and field part of the reduced Hamiltonian on the flat shifted
    phase vector ``z = (Rx, Ry, t1x, t1y, t2x, t2y, Px, Py, q1x, q1y, q2x, q2y)``,
    where the q's are the shifted internal momenta: a homogeneous quadratic
    form in ``z``, evaluated elementwise on ``z`` of shape (12, ...).
    """
    M, Q, mt1, mt2, nu1, nu2, mu3 = w.M, w.Q, w.mt1, w.mt2, w.nu1, w.nu2, w.mu[2]
    ec1, ec2, e1eff, e2eff, m12, cross_tt = w.ec1, w.ec2, w.e1eff, w.e2eff, w.m12, w.cross_tt
    Rx, Ry, t1x, t1y, t2x, t2y, Px, Py, q1x, q1y, q2x, q2y = z
    half_B = 0.5 * B
    # A(r) = half_B * (-ry, rx)
    aRx, aRy = -half_B * Ry, half_B * Rx
    a1x, a1y = -half_B * t1y, half_B * t1x
    a2x, a2y = -half_B * t2y, half_B * t2x

    cmx = Px - Q * aRx + 2.0 * ec1 * a1x + 2.0 * ec2 * a2x
    cmy = Py - Q * aRy + 2.0 * ec1 * a1y + 2.0 * ec2 * a2y
    H = (cmx * cmx + cmy * cmy) / (2.0 * M)

    b1x, b1y = q1x - e1eff * a1x, q1y - e1eff * a1y
    b2x, b2y = q2x - e2eff * a2x, q2y - e2eff * a2y
    H += (b1x * b1x + b1y * b1y) / (2.0 * mt1)
    H += (b2x * b2x + b2y * b2y) / (2.0 * mt2)

    H += ec1 * ec1 * (a1x * a1x + a1y * a1y) * mu3 / (2.0 * m12)
    H += ec1 * ec1 * (a2x * a2x + a2y * a2y) * mu3 * mu3 / (2.0 * nu1 * nu2 * m12)
    H -= (ec1 / m12) * (a1x * q2x + a1y * q2y)
    H -= (ec1 * mu3 / (nu1 * nu2 * m12)) * (a2x * q1x + a2y * q1y)
    H += cross_tt * (a1x * a2x + a1y * a2y)
    return H


def _flatten(js):
    return np.concatenate([js.R, js.tau1, js.tau2, js.P, js.ptau1, js.ptau2])


def _unflatten(z):
    z = np.asarray(z, float)
    return JacobiState(z[..., 0:2], z[..., 2:4], z[..., 4:6],
                       z[..., 6:8], z[..., 8:10], z[..., 10:12])


def hamiltonian_jacobi(spec, js):
    """Reduced Hamiltonian evaluated on a shifted-momentum Jacobi state."""
    w = jacobi_weights(spec)
    z = _flatten(js)
    D, ee = _coulomb_pairs(spec, w)
    d = D @ z[2:6].reshape(2, 2)
    return float(_hc_quadratic(w, spec.B, z) + ee @ (1.0 / np.hypot(d[:, 0], d[:, 1])))


def pseudomomentum_jacobi(spec, js):
    """Pseudomomentum from shifted Jacobi data: ``K = P' + Q A(R)``."""
    w = jacobi_weights(spec)
    return js.P + w.Q * vector_potential(js.R, spec.B)


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def _hessian(w, B):
    """Hessian of :func:`_hc_quadratic` by polarization,
    ``A_ij = [q(e_i + e_j) - q(e_i - e_j)] / 2``, exact to rounding for a
    quadratic form.  Evaluated elementwise on the stacked points ``e_i + e_j``
    and ``e_i - e_j``, each entry is rounded as a scalar evaluation rounds it."""
    E = np.eye(12)
    # E[k, i] + E[k, j] is coordinate k of the point e_i + e_j
    return (_hc_quadratic(w, B, E[:, :, None] + E[:, None, :])
            - _hc_quadratic(w, B, E[:, :, None] - E[:, None, :])) / 2.0


def rhs_jacobi(spec):
    """Right-hand side ``f(t, z)`` on the flat shifted Jacobi vector ``z``.

    Hamilton's equations of the reduced Hamiltonian with its exact gradient:
    the Hessian of the momentum and field part is read off once per system
    (:func:`_hessian`), and the Coulomb forces act on the ``(tau1, tau2)``
    momenta through the pair table.
    """
    w = jacobi_weights(spec)
    D, ee = _coulomb_pairs(spec, w)
    A = _hessian(w, spec.B)
    # q-dot = dH/dp, p-dot = -dH/dq for the three canonical planar pairs
    SA = np.vstack([A[6:], -A[:6]])

    def f(t, z):
        dz = SA @ z
        d = D @ z[2:6].reshape(2, 2)
        r = np.hypot(d[:, 0], d[:, 1])
        dz[8:12] += (D.T @ ((ee / r**3)[:, None] * d)).ravel()
        return dz

    return f


def integrate_jacobi(spec, state, settings):
    """Integrate in the Jacobi frame; samples are returned in Cartesian form.

    This is a validation path: the Cartesian integrator in
    :mod:`magnetotrio.dynamics` is the authoritative one.  It shares that
    integrator's sampling grid and collision event, at the same threshold;
    the event reads the positions alone, which the momentum shift leaves as
    they are.
    """
    t_eval = _checked_grid(settings, state.t)
    w = jacobi_weights(spec)
    z0 = _flatten(apply_cc(spec, to_jacobi(spec, state.positions, state.velocities)))
    t, z, stats = _solve(spec, rhs_jacobi(spec), z0, state.t, t_eval, settings,
                         lambda y: _positions(w, _unflatten(y)))
    return Trajectory(spec, t, *from_jacobi(spec, invert_cc(spec, _unflatten(z))), stats)
