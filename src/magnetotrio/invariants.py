"""Conserved quantities, their numerical drifts, and Poisson brackets.

Global integrals (conserved for any initial data):

* the Hamiltonian ``H = sum 1/2 m_i |v_i|^2 + sum_{i<j} e_i e_j / rho_ij``,
* the pseudomomentum ``K = sum (p_i + e_i A(rho_i)) = sum (m_i v_i + 2 e_i A)``,
* the total canonical angular momentum ``L_z = sum (rho_i x p_i)_z``,
* the combination ``C = K_x^2 + K_y^2 - 2 Q B L_z`` which commutes with all of
  ``K_x, K_y, L_z`` (it is built here directly from K and L_z, so the identity
  defining it holds to rounding by construction).

The remaining quantities handled here (individual angular momenta, individual
kinetic energies, one pseudomomentum component of particle 3, and the radial
pairing ``tau1 . p_tau1``) are constants only along the special rigid-rotation
trajectories; along generic trajectories they drift at O(1).

Every quantity takes positions and velocities of shape (..., n, 2) and
returns one value per leading index (per particle where it is per-particle),
so one state gives a scalar and a stack of samples is evaluated in one pass.

Poisson brackets are evaluated in canonical coordinates ``(rho, p)`` from
complex-step gradients ``df/dz_k = Im f(z + i h e_k) / h``, for which every
quantity accepts complex input.  With no difference taken, one call on the
stack of the 4n perturbed points gives a gradient exact to rounding.  A
quantity that is not complex-analytic (``abs``, ``hypot``, ``float()``)
raises :class:`TypeError` instead of returning a wrong derivative.
"""

import numpy as np

from .dynamics import _write_csv
from .errors import DomainError
from .model import _velocities_from_momenta, canonical_momenta, vector_potential


# ---------------------------------------------------------------------------
# quantities as functions of (spec, positions, velocities)
# ---------------------------------------------------------------------------

def kinetic_energies(spec, velocities):
    v = np.asarray(velocities)
    return 0.5 * spec.masses * np.einsum("...ij,...ij->...i", v, v)


def coulomb_energy(spec, positions):
    """Sum of ``e_i e_j / rho_ij`` over all pairs (``sqrt``, not the
    complex-rejecting ``np.hypot``)."""
    I, J, ee = spec.pairs
    q = np.asarray(positions)
    dx, dy = q[..., I, 0] - q[..., J, 0], q[..., I, 1] - q[..., J, 1]
    return (ee / np.sqrt(dx * dx + dy * dy)).sum(axis=-1)


def hamiltonian(spec, positions, velocities):
    return kinetic_energies(spec, velocities).sum(axis=-1) + coulomb_energy(spec, positions)


def particle_pseudomomenta(spec, positions, velocities):
    """Individual ``k_i = p_i + e_i A(rho_i) = m_i v_i + 2 e_i A(rho_i)``."""
    A = vector_potential(positions, spec.B)
    v = np.asarray(velocities)
    return spec.masses[:, None] * v + 2.0 * spec.charges[:, None] * A


def pseudomomentum(spec, positions, velocities):
    return particle_pseudomomenta(spec, positions, velocities).sum(axis=-2)


def individual_angular_momenta(spec, positions, velocities):
    """Canonical ``l_zi = (rho_i x p_i)_z`` per particle."""
    pos = np.asarray(positions)
    p = canonical_momenta(spec, pos, velocities)
    return pos[..., 0] * p[..., 1] - pos[..., 1] * p[..., 0]


def angular_momentum(spec, positions, velocities):
    return individual_angular_momenta(spec, positions, velocities).sum(axis=-1)


def casimir(spec, positions, velocities):
    K = pseudomomentum(spec, positions, velocities)
    Lz = angular_momentum(spec, positions, velocities)
    return K[..., 0] ** 2 + K[..., 1] ** 2 - 2.0 * spec.total_charge * spec.B * Lz


def pair_virial(spec, positions, velocities):
    """``tau1 . p_tau1`` for the first relative pair (particles 1, 2).

    ``tau1 = rho_2 - rho_1`` and ``p_tau1 = nu_1 p_2 - nu_2 p_1`` with
    ``nu_i = m_i / (m_1 + m_2)``.  Vanishes identically along the rigid
    circular trajectories.
    """
    if spec.n < 2:
        raise DomainError("pair_virial needs at least two particles")
    pos = np.asarray(positions)
    p = canonical_momenta(spec, pos, velocities)
    m1, m2 = spec.masses[0], spec.masses[1]
    nu1, nu2 = m1 / (m1 + m2), m2 / (m1 + m2)
    tau1 = pos[..., 1, :] - pos[..., 0, :]
    ptau1 = nu1 * p[..., 1, :] - nu2 * p[..., 0, :]
    return (tau1 * ptau1).sum(axis=-1)


def third_pseudomomentum_x(spec, positions, velocities):
    """x-component of particle 3's individual pseudomomentum."""
    if spec.n < 3:
        raise DomainError("third_pseudomomentum_x needs three particles")
    # [()] turns the 0-d array of a single state into a scalar
    return particle_pseudomomenta(spec, positions, velocities)[..., 2, 0][()]


# ---------------------------------------------------------------------------
# sampled reports along a trajectory
# ---------------------------------------------------------------------------

def invariant_columns(n):
    cols = ["t", "H", "Kx", "Ky", "Lz", "Casimir"]
    cols += [f"l{i}" for i in range(1, n + 1)]
    cols += [f"T{i}" for i in range(1, n + 1)]
    if n == 3:
        cols += ["k3x", "I"]
    return cols


def invariant_samples(traj):
    """Evaluate all reported quantities at every sample, shape (nt, ncols)."""
    spec, pos, vel = traj.spec, traj.positions, traj.velocities
    K = pseudomomentum(spec, pos, vel)
    cols = [traj.t, hamiltonian(spec, pos, vel), K[:, 0], K[:, 1],
            angular_momentum(spec, pos, vel), casimir(spec, pos, vel),
            individual_angular_momenta(spec, pos, vel), kinetic_energies(spec, vel)]
    if spec.n == 3:
        cols += [third_pseudomomentum_x(spec, pos, vel), pair_virial(spec, pos, vel)]
    return np.column_stack(cols)


def write_invariant_csv(traj, path):
    data = invariant_samples(traj)
    _write_csv(path, invariant_columns(traj.spec.n), data)
    return data


def table_drifts(data, n):
    """max_t |q(t) - q(0)| for every quantity of an n-charge invariant
    table ``data`` (the rows of :func:`invariant_samples`): absolute drifts
    by column name."""
    drifts = np.abs(data - data[0]).max(axis=0)
    return {name: float(d) for name, d in zip(invariant_columns(n)[1:], drifts[1:])}


def drift_report(traj):
    """max_t |q(t) - q(0)| for every reported quantity (absolute drifts)."""
    return table_drifts(invariant_samples(traj), traj.spec.n)


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------

def _pack(spec, positions, velocities):
    p = canonical_momenta(spec, positions, velocities)
    return np.concatenate([np.asarray(positions, float).ravel(), p.ravel()])


STEP = 1e-100   # the imaginary step of :func:`_gradient`; it loses no digits


def _eval_on_z(func, spec, z):
    """``func`` at canonical points ``z = (rho, p)`` of shape (..., 4n)."""
    pos = z[..., : 2 * spec.n].reshape(*z.shape[:-1], spec.n, 2)
    vel = _velocities_from_momenta(spec, pos, z[..., 2 * spec.n:].reshape(pos.shape))
    return func(spec, pos, vel)


def _gradient(func, spec, z0):
    """Complex-step gradient of ``func`` at ``z0``, one call on the 4n points
    ``z0 + i STEP e_k``; a real value (a non-analytic ``func``) raises."""
    f = _eval_on_z(func, spec, z0 + 1j * STEP * np.eye(len(z0)))
    if not np.iscomplexobj(f):
        raise TypeError(f"quantity {getattr(func, '__name__', func)} is not "
                        "complex-analytic: it returned a real value")
    return f.imag / STEP


def _bracket(spec, gf, gg):
    """The bracket of two quantities from their :func:`_gradient`."""
    n2 = 2 * spec.n
    return float(gf[:n2] @ gg[n2:] - gf[n2:] @ gg[:n2])


def poisson_bracket(f, g, spec, positions, velocities):
    """Canonical Poisson bracket {f, g} at one phase point, of complex-analytic
    callables ``(spec, positions, velocities)`` that take (..., n, 2) stacks
    and return one value per leading index."""
    z0 = _pack(spec, positions, velocities)
    return _bracket(spec, _gradient(f, spec, z0), _gradient(g, spec, z0))


def _named(func, name):
    func.__name__ = name
    return func


def standard_quantities(spec):
    """The global integrals as named callables: H, Kx, Ky, Lz, Casimir."""
    return [
        _named(lambda s, q, v: hamiltonian(s, q, v), "H"),
        _named(lambda s, q, v: pseudomomentum(s, q, v)[..., 0], "Kx"),
        _named(lambda s, q, v: pseudomomentum(s, q, v)[..., 1], "Ky"),
        _named(lambda s, q, v: angular_momentum(s, q, v), "Lz"),
        _named(lambda s, q, v: casimir(s, q, v), "Casimir"),
    ]


def algebra_check(spec, positions, velocities):
    """Errors of the expected bracket table at one state.

    Returns a dict mapping a label to the *error* (computed minus expected):

        {Kx,Ky} = -QB,   {Lz,Kx} = Ky,   {Lz,Ky} = -Kx,
        {H,Kx} = {H,Ky} = {H,Lz} = 0,
        {Casimir, each of H,Kx,Ky,Lz} = 0.
    """
    z0 = _pack(spec, positions, velocities)
    H, Kx, Ky, Lz, C = (_gradient(q, spec, z0) for q in standard_quantities(spec))
    QB = spec.total_charge * spec.B
    kx, ky = pseudomomentum(spec, positions, velocities)
    pb = lambda a, b: _bracket(spec, a, b)
    return {
        "{Kx,Ky}+QB": pb(Kx, Ky) + QB,
        "{Lz,Kx}-Ky": pb(Lz, Kx) - ky,
        "{Lz,Ky}+Kx": pb(Lz, Ky) + kx,
        "{H,Kx}": pb(H, Kx),
        "{H,Ky}": pb(H, Ky),
        "{H,Lz}": pb(H, Lz),
        "{C,H}": pb(C, H),
        "{C,Kx}": pb(C, Kx),
        "{C,Ky}": pb(C, Ky),
        "{C,Lz}": pb(C, Lz),
    }


def special_trajectory_quantities(spec, variant="I-rest"):
    """The six quantities that are in involution along special trajectories.

    variant selects the set appropriate to the rigid configuration:

    * ``"I-rest"``  — third charge at rest:        (H, K^2, Lz, l3, T1, T2)
    * ``"I-orbit"`` — third charge on its circle:  (H, K^2, Lz, l3, T3, k3x)
    * ``"II"``      — collinear rotation (also III): (H, K^2, Lz, l2, T1, T2)
    """
    if spec.n != 3:
        raise DomainError("special-trajectory sets are defined for n = 3")
    if variant not in ("I-rest", "I-orbit", "II"):
        raise DomainError(f"unknown involution-set variant {variant!r}")

    def K2(s, q, v):
        K = pseudomomentum(s, q, v)
        return (K * K).sum(axis=-1)

    def l_i(i):
        return _named(
            lambda s, q, v: individual_angular_momenta(s, q, v)[..., i],
            f"l{i + 1}")

    def T_i(i):
        return _named(lambda s, q, v: kinetic_energies(s, v)[..., i],
                      f"T{i + 1}")

    base = [
        _named(lambda s, q, v: hamiltonian(s, q, v), "H"),
        _named(K2, "K2"),
        _named(lambda s, q, v: angular_momentum(s, q, v), "Lz"),
        l_i(1) if variant == "II" else l_i(2),
    ]
    if variant == "I-orbit":
        base += [
            T_i(2),
            _named(lambda s, q, v: third_pseudomomentum_x(s, q, v), "k3x"),
        ]
    else:
        base += [T_i(0), T_i(1)]
    return base


def involution_check(quantities, spec, states):
    """Max |{q_a, q_b}| over all pairs and all supplied states.

    ``states`` is an iterable of (positions, velocities) pairs.  Returns
    ``(worst, table)`` where ``table[(name_a, name_b)]`` is the worst bracket
    magnitude for that pair.
    """
    table = {}
    worst = 0.0
    for pos, vel in states:
        z0 = _pack(spec, pos, vel)
        grads = [_gradient(q, spec, z0) for q in quantities]
        for a in range(len(quantities)):
            for b in range(a + 1, len(quantities)):
                val = abs(_bracket(spec, grads[a], grads[b]))
                key = (quantities[a].__name__, quantities[b].__name__)
                table[key] = max(table.get(key, 0.0), val)
                worst = max(worst, val)
    return worst, table
