"""Conserved quantities, their numerical drifts, and Poisson brackets.

Global integrals (conserved for any initial data):

* the Hamiltonian ``H = sum 1/2 m_i |v_i|^2 + sum_{i<j} e_i e_j / rho_ij``,
* the pseudomomentum ``K = sum (p_i + e_i A(rho_i)) = sum (m_i v_i + 2 e_i A)``,
* the total canonical angular momentum ``L_z = sum (rho_i x p_i)_z``,
* the combination ``C = K_x^2 + K_y^2 - 2 Q B L_z`` which commutes with all of
  ``K_x, K_y, L_z`` (it is built here directly from K and L_z, so the identity
  defining it holds to rounding by construction).

The remaining quantities handled here (the individual angular momenta
``l_i``, the individual kinetic energies ``T_i``, particle 3's pseudomomentum
component ``k3x`` and the radial pairing ``I = tau1 . p_tau1``) are constants
only along the special rigid-rotation trajectories; along generic
trajectories they drift at O(1).

Every quantity takes positions and velocities of shape (..., n, 2) and
returns one value per leading index (per particle where it is per-particle),
so a stack of samples is evaluated in one pass.  :func:`invariant_table`
evaluates every column of :func:`invariant_columns` in one pass over the
shared pieces (``A(rho_i)``, the momenta ``p_i`` and ``k_i``, ``T_i`` and
``l_i``, each computed once).  Its columns are the one implementation of
H, L_z, the Casimir, l_i, k3x and I, and the sampled reports, the bracket
algebra and ``SPECIAL_SETS`` read them by name.

Poisson brackets are evaluated in canonical coordinates ``(rho, p)`` from
complex-step gradients ``df/dz_k = Im f(z + i h e_k) / h``, for which every
quantity accepts complex input.  With no difference taken, one table call on
the 4n perturbed points of every state gives every named gradient exact to
rounding.  :func:`algebra_check` and :func:`involution_check` take a stack of
states, which goes through one table call; only the bracket dot products run
state by state.  A quantity that is not complex-analytic (``abs``, ``hypot``,
``float()``) raises :class:`TypeError` instead of returning a wrong derivative.
"""

import itertools

import numpy as np

from .dynamics import _write_csv
from .errors import DomainError
from .model import _momenta, _velocities_from_momenta, canonical_momenta


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


def pseudomomentum(spec, positions, velocities):
    """``K = sum k_i``, ``k_i = p_i + e_i A(rho_i) = m_i v_i + 2 e_i A(rho_i)``:
    shape (..., 2)."""
    return _momenta(spec, positions, velocities)[1].sum(axis=-2)


def _pair_virial(spec, q, p):
    """The table's column ``I = tau1 . p_tau1`` at positions ``q`` and
    canonical momenta ``p``: ``tau1 = rho_2 - rho_1`` and ``p_tau1 = nu_1 p_2
    - nu_2 p_1`` with ``nu_i = m_i / (m_1 + m_2)``.  Vanishes identically
    along the rigid circular trajectories."""
    m1, m2 = spec.masses[0], spec.masses[1]
    nu1, nu2 = m1 / (m1 + m2), m2 / (m1 + m2)
    tau1 = q[..., 1, :] - q[..., 0, :]
    ptau1 = nu1 * p[..., 1, :] - nu2 * p[..., 0, :]
    return (tau1 * ptau1).sum(axis=-1)


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
    order, at a real or complex (..., n, 2) stack: shape (..., ncols).

    One pass: ``A(rho_i)``, the momenta ``p_i`` and ``k_i``, the kinetic
    energies ``T_i`` and the angular momenta ``l_i = (rho_i x p_i)_z`` are
    computed once, and every column is read from them."""
    q = np.asarray(positions)
    p, k = _momenta(spec, q, velocities)
    T = kinetic_energies(spec, velocities)
    l = q[..., 0] * p[..., 1] - q[..., 1] * p[..., 0]
    K, Lz = k.sum(axis=-2), l.sum(axis=-1)
    H = T.sum(axis=-1) + coulomb_energy(spec, q)
    C = K[..., 0] ** 2 + K[..., 1] ** 2 - 2.0 * spec.total_charge * spec.B * Lz
    cols = [H[..., None], K, Lz[..., None], C[..., None], l, T]
    if spec.n == 3:
        cols += [k[..., 2, :1], _pair_virial(spec, q, p)[..., None]]
    return np.concatenate(cols, axis=-1)


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
    """Canonical points ``z = (rho, p)`` of a (..., n, 2) stack: (..., 4n)."""
    q = np.asarray(positions, float)
    p = canonical_momenta(spec, q, velocities)
    flat = (*q.shape[:-2], 2 * spec.n)
    return np.concatenate([q.reshape(flat), p.reshape(flat)], axis=-1)


STEP = 1e-100   # the imaginary step of :func:`_gradient`; it loses no digits


def _eval_on_z(func, spec, z):
    """``func`` at canonical points ``z = (rho, p)`` of shape (..., 4n)."""
    pos = z[..., : 2 * spec.n].reshape(*z.shape[:-1], spec.n, 2)
    vel = _velocities_from_momenta(spec, pos, z[..., 2 * spec.n:].reshape(pos.shape))
    return func(spec, pos, vel)


def _gradient(func, spec, z0):
    """Complex-step gradient of ``func`` at the points ``z0`` (..., 4n), one
    call on the 4n points ``z0 + i STEP e_k`` of every point: shape
    (..., 4n) plus ``func``'s own axes.  A real value (a non-analytic
    ``func``) raises."""
    f = _eval_on_z(func, spec, z0[..., None, :] + 1j * STEP * np.eye(z0.shape[-1]))
    if not np.iscomplexobj(f):
        raise TypeError(f"quantity {getattr(func, '__name__', func)} is not "
                        "complex-analytic: it returned a real value")
    return f.imag / STEP


def _bracket(spec, gf, gg):
    """The brackets of pairs of quantities from their :func:`_gradient` rows
    ``gf``, ``gg`` of shape (..., 4n): shape (...).  Each bracket is two dot
    products, each a row times a column, which matmul evaluates as ``@`` of
    the two rows would, one state and pair at a time; the rows must be
    contiguous (a strided row would change how the dot rounds)."""
    n2 = 2 * spec.n
    f, g = gf[..., None, :], gg[..., :, None]
    return (f[..., :n2] @ g[..., n2:, :] - f[..., n2:] @ g[..., :n2, :])[..., 0, 0]


def _gradients(spec, positions, velocities, names):
    """Complex-step gradients of the named quantities at a (..., n, 2) stack
    of states, from one :func:`_gradient` call of :func:`invariant_table`:
    shape (..., len(names), 4n), each row contiguous.  ``K2`` is the row
    2 Kx grad Kx + 2 Ky grad Ky."""
    g = _gradient(invariant_table, spec, _pack(spec, positions, velocities))
    rows = dict(zip(invariant_columns(spec.n)[1:], np.moveaxis(g, -1, 0)))
    if "K2" in names:
        K = pseudomomentum(spec, positions, velocities)[..., None]
        rows["K2"] = 2.0 * K[..., 0, :] * rows["Kx"] + 2.0 * K[..., 1, :] * rows["Ky"]
    return np.stack([rows[name] for name in names], axis=-2)


# The brackets of :func:`algebra_check`, in the order of its labels.
_ALGEBRA_PAIRS = (("Kx", "Ky"), ("Lz", "Kx"), ("Lz", "Ky"), ("H", "Kx"),
                  ("H", "Ky"), ("H", "Lz"), ("Casimir", "H"), ("Casimir", "Kx"),
                  ("Casimir", "Ky"), ("Casimir", "Lz"))
_ALGEBRA_LABELS = ("{Kx,Ky}+QB", "{Lz,Kx}-Ky", "{Lz,Ky}+Kx", "{H,Kx}", "{H,Ky}",
                   "{H,Lz}", "{C,H}", "{C,Kx}", "{C,Ky}", "{C,Lz}")


def algebra_check(spec, positions, velocities):
    """Errors of the expected bracket table at a (..., n, 2) stack of
    states, from one table call: a float per label at one state, an array
    of shape (...) at a stack.

    Returns a dict mapping a label to the *error* (computed minus expected):

        {Kx,Ky} = -QB,   {Lz,Kx} = Ky,   {Lz,Ky} = -Kx,
        {H,Kx} = {H,Ky} = {H,Lz} = 0,
        {Casimir, each of H,Kx,Ky,Lz} = 0.
    """
    g = _gradients(spec, positions, velocities, GLOBAL_INVARIANTS)
    a, b = zip(*[map(GLOBAL_INVARIANTS.index, pair) for pair in _ALGEBRA_PAIRS])
    pb = np.moveaxis(_bracket(spec, g[..., a, :], g[..., b, :]), -1, 0)
    K = pseudomomentum(spec, positions, velocities)
    QB = spec.total_charge * spec.B
    return dict(zip(_ALGEBRA_LABELS, [pb[0] + QB, pb[1] - K[..., 1], pb[2] + K[..., 0],
                                      *pb[3:]]))


def involution_check(spec, positions, velocities, variant):
    """Max |{q_a, q_b}| over the pairs of ``SPECIAL_SETS[variant]`` and a
    (..., 3, 2) stack of states, from one table call, for a three-charge
    ``spec``.

    Returns ``(worst, table)`` where ``table[(name_a, name_b)]`` is the worst
    bracket magnitude for that pair; a NaN bracket makes its entry NaN, and
    an empty stack reads 0.
    """
    if spec.n != 3:
        raise DomainError("special-trajectory sets are defined for n = 3")
    if variant not in SPECIAL_SETS:
        raise DomainError(f"unknown involution-set variant {variant!r}")
    names = SPECIAL_SETS[variant]
    pairs = list(itertools.combinations(range(len(names)), 2))
    a, b = zip(*pairs)
    g = _gradients(spec, positions, velocities, names)
    worst = np.abs(_bracket(spec, g[..., a, :], g[..., b, :])).reshape(
        -1, len(pairs)).max(axis=0, initial=0.0)
    table = {(names[i], names[j]): float(w) for (i, j), w in zip(pairs, worst)}
    return float(worst.max()), table
