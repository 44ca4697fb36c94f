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
:func:`invariant_table` evaluates every column of :func:`invariant_columns`;
the sampled reports, the bracket algebra and ``SPECIAL_SETS`` read it by name.

Poisson brackets are evaluated in canonical coordinates ``(rho, p)`` from
complex-step gradients ``df/dz_k = Im f(z + i h e_k) / h``, for which every
quantity accepts complex input.  With no difference taken, one table call on
the stack of the 4n perturbed points gives every named gradient exact to
rounding.  A quantity that is not complex-analytic (``abs``, ``hypot``,
``float()``) raises :class:`TypeError` instead of returning a wrong derivative.
"""

import itertools

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
# the named quantities: one table per state or stack of states
# ---------------------------------------------------------------------------

GLOBAL_INVARIANTS = ("H", "Kx", "Ky", "Lz", "Casimir")

# The six quantities in involution along each special trajectory (n = 3).
# K2 = Kx^2 + Ky^2 is the one name that is not a table column.
SPECIAL_SETS = {
    "I-rest": ("H", "K2", "Lz", "l3", "T1", "T2"),    # third charge at rest
    "I-orbit": ("H", "K2", "Lz", "l3", "T3", "k3x"),  # third charge on its circle
    "II": ("H", "K2", "Lz", "l2", "T1", "T2"),        # collinear II, also III
}


def invariant_columns(n):
    cols = ["t", *GLOBAL_INVARIANTS]
    cols += [f"l{i}" for i in range(1, n + 1)]
    cols += [f"T{i}" for i in range(1, n + 1)]
    if n == 3:
        cols += ["k3x", "I"]
    return cols


def invariant_table(spec, positions, velocities):
    """The quantities of :func:`invariant_columns` after ``t``, in its
    order, at a real or complex (..., n, 2) stack: shape (..., ncols)."""
    q, v = positions, velocities
    K = pseudomomentum(spec, q, v)
    cols = [hamiltonian(spec, q, v), K[..., 0], K[..., 1],
            angular_momentum(spec, q, v), casimir(spec, q, v),
            *np.moveaxis(individual_angular_momenta(spec, q, v), -1, 0),
            *np.moveaxis(kinetic_energies(spec, v), -1, 0)]
    if spec.n == 3:
        cols += [third_pseudomomentum_x(spec, q, v), pair_virial(spec, q, v)]
    return np.stack(cols, axis=-1)


def invariant_samples(traj):
    """Evaluate all reported quantities at every sample, shape (nt, ncols)."""
    return np.column_stack([traj.t, invariant_table(traj.spec, traj.positions,
                                                    traj.velocities)])


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


def _gradients(spec, positions, velocities, names):
    """Complex-step gradients of the named quantities at one state, from one
    :func:`_gradient` call of :func:`invariant_table`: one contiguous row
    per name (a strided row would change how ``@`` rounds in
    :func:`_bracket`).  ``K2`` is the row 2 Kx grad Kx + 2 Ky grad Ky."""
    g = _gradient(invariant_table, spec, _pack(spec, positions, velocities))
    rows = dict(zip(invariant_columns(spec.n)[1:], g.T))
    if "K2" in names:
        kx, ky = pseudomomentum(spec, positions, velocities)
        rows["K2"] = 2.0 * kx * rows["Kx"] + 2.0 * ky * rows["Ky"]
    return np.array([rows[name] for name in names])


def algebra_check(spec, positions, velocities):
    """Errors of the expected bracket table at one state.

    Returns a dict mapping a label to the *error* (computed minus expected):

        {Kx,Ky} = -QB,   {Lz,Kx} = Ky,   {Lz,Ky} = -Kx,
        {H,Kx} = {H,Ky} = {H,Lz} = 0,
        {Casimir, each of H,Kx,Ky,Lz} = 0.
    """
    H, Kx, Ky, Lz, C = _gradients(spec, positions, velocities, GLOBAL_INVARIANTS)
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


def involution_check(spec, states, variant):
    """Max |{q_a, q_b}| over the pairs of ``SPECIAL_SETS[variant]`` and all
    supplied states, for a three-charge ``spec``.

    ``states`` is an iterable of (positions, velocities) pairs.  Returns
    ``(worst, table)`` where ``table[(name_a, name_b)]`` is the worst bracket
    magnitude for that pair.
    """
    if spec.n != 3:
        raise DomainError("special-trajectory sets are defined for n = 3")
    if variant not in SPECIAL_SETS:
        raise DomainError(f"unknown involution-set variant {variant!r}")
    names = SPECIAL_SETS[variant]
    table = {}
    for pos, vel in states:
        grads = _gradients(spec, pos, vel, names)
        for (a, ga), (b, gb) in itertools.combinations(zip(names, grads), 2):
            table[a, b] = max(table.get((a, b), 0.0), abs(_bracket(spec, ga, gb)))
    return max(table.values(), default=0.0), table
