"""The benchmark's own physics, written apart from the package under test.

Output checks use these functions so that a defect in the package cannot
certify its own output.  Conventions follow PAPER.md: the field is
``B zhat``, the vector potential is the symmetric gauge
``A(r) = (B/2)(-y, x)``, the Lorentz force on a planar velocity is
``e (v_y B, -v_x B)`` and the Coulomb pair energy is ``e_i e_j / r_ij``.
"""

import numpy as np


def accelerations(charges, masses, B, pos, vel):
    """Coulomb + Lorentz accelerations of all charges, shape (n, 2)."""
    e = np.asarray(charges, float)
    d = pos[:, None, :] - pos[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(r2, np.inf)
    coulomb = np.einsum("ij,ijk->ik", e[None, :] / r2 ** 1.5, d)
    lorentz = B * np.stack([vel[:, 1], -vel[:, 0]], axis=1)
    return e[:, None] * (coulomb + lorentz) / np.asarray(masses, float)[:, None]


def invariants(charges, masses, B, pos, vel):
    """H, Kx, Ky, Lz and the Casimir K.K - 2QB Lz along samples.

    ``pos`` and ``vel`` have shape (nt, n, 2); each result has shape (nt,).
    """
    e = np.asarray(charges, float)
    m = np.asarray(masses, float)
    n = len(e)
    kinetic = 0.5 * np.einsum("i,tij,tij->t", m, vel, vel)
    coulomb = np.zeros(len(pos))
    for i in range(n):
        for j in range(i + 1, n):
            coulomb += e[i] * e[j] / np.hypot(*(pos[:, i] - pos[:, j]).T)
    A = 0.5 * B * np.stack([-pos[..., 1], pos[..., 0]], axis=-1)
    p = m[None, :, None] * vel + e[None, :, None] * A
    K = (m[None, :, None] * vel + 2.0 * e[None, :, None] * A).sum(axis=1)
    Lz = (pos[..., 0] * p[..., 1] - pos[..., 1] * p[..., 0]).sum(axis=1)
    C = K[:, 0] ** 2 + K[:, 1] ** 2 - 2.0 * e.sum() * B * Lz
    return {"H": kinetic + coulomb, "Kx": K[:, 0], "Ky": K[:, 1], "Lz": Lz,
            "Casimir": C}


def rotation_state(config, v, omega, sense="cw"):
    """Initial state of a rigid collinear rotation, as PAPER.md builds it.

    Every charge starts on the x axis with a tangential velocity; the
    rotation centre is the origin.  ``config`` is ``II``/``nbody-II``
    (all charges in phase) or ``III`` (the third charge in anti-phase).
    """
    sigma = 1.0 if sense == "cw" else -1.0
    v = np.asarray(v, float)
    x = v / omega
    vy = -sigma * v
    if config == "III":
        x[2], vy[2] = -x[2], -vy[2]
    pos = np.stack([x, np.zeros_like(x)], axis=1)
    vel = np.stack([np.zeros_like(x), vy], axis=1)
    return pos, vel


def newton_balance(charges, masses, B, pos, vel, omega):
    """Relative mismatch between the true accelerations of a state and the
    centripetal ones ``-omega^2 rho`` of a rigid rotation about the origin."""
    acc = accelerations(charges, masses, B, pos, vel)
    scale = max(1.0, float(np.abs(acc).max()))
    return float(np.abs(acc + omega ** 2 * pos).max()) / scale


def rotate(pos, vel, angle):
    """Rotate a planar state about the origin (a symmetry of the flow)."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return pos @ R.T, vel @ R.T


def integrate(charges, masses, B, pos, vel, t_eval):
    """Reference Cartesian integration, DOP853 at 1e-12, sampled at t_eval.

    Returns positions and velocities of shape (len(t_eval), n, 2).
    """
    from scipy.integrate import solve_ivp

    n = len(charges)

    def rhs(t, y):
        p = y[: 2 * n].reshape(n, 2)
        v = y[2 * n:].reshape(n, 2)
        return np.concatenate([v.ravel(),
                               accelerations(charges, masses, B, p, v).ravel()])

    y0 = np.concatenate([np.ravel(pos), np.ravel(vel)])
    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=t_eval)
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    nt = len(sol.t)
    return (sol.y[: 2 * n].T.reshape(nt, n, 2),
            sol.y[2 * n:].T.reshape(nt, n, 2))


def format_system(charges, masses, B, pos=None, vel=None):
    """System-file text in the format PAPER.md documents, 17 digits."""
    lines = [f"B {B:.17g}"]
    for i, (e, m) in enumerate(zip(charges, masses)):
        lines.append(f"particle {e:.17g} {m:.17g}")
        if pos is not None:
            lines.append(f"position {pos[i][0]:.17g} {pos[i][1]:.17g}")
            lines.append(f"velocity {vel[i][0]:.17g} {vel[i][1]:.17g}")
    return "\n".join(lines) + "\n"


def format_trajectory(t, pos, vel):
    """Trajectory-CSV text: ``t,x1,y1,vx1,vy1,...`` with 17 digits."""
    n = pos.shape[1]
    cols = ["t"] + [f"{c}{i}" for i in range(1, n + 1)
                    for c in ("x", "y", "vx", "vy")]
    rows = [",".join(cols)]
    for k in range(len(t)):
        vals = [t[k]]
        for i in range(n):
            vals += [pos[k, i, 0], pos[k, i, 1], vel[k, i, 0], vel[k, i, 1]]
        rows.append(",".join(f"{x:.17g}" for x in vals))
    return "\n".join(rows) + "\n"


def read_trajectory(path):
    """Parse a trajectory CSV into (t, pos, vel)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = (data.shape[1] - 1) // 4
    block = data[:, 1:].reshape(len(data), n, 4)
    return data[:, 0], block[..., 0:2], block[..., 2:4]
