"""Reference forms the tests compare the solvers against.

Closed-form fields of the three-charge collinear rotations, written out.

The solvers take the field of every collinear root from one n-charge form
(``solvers._collinear_field``: the second balance row solved for B, the
charges in reverse order for Configuration III).  These two expressions
are independent of it and of each other, so the tests compare the sweep's
fields and the sign map B_III(v1, v2, v3) = -B_II(v1, v2, -v3) against
them.

``walk_nbody_system`` is the reduced n-body collinear system as a walk
over lists, the form :func:`magnetotrio.solvers._nbody_system` compiles
to straight-line code; the compiled kernel must return its floats to the
bit.

``config_I_terms`` is the Configuration-I balance system written out by
hand; the solvers take its radius and pair rows from the collinear layout
(v1, -v2, 0), in another order and with the second pair row negated, and
the rows must agree to the bit up to each row's sign.

``config_I_v3zero_closed_form`` is the frequency and field of
Configuration I with the third charge at rest, solved by hand from those
rows; the solver takes both from the collinear field formula at the
layout (v1, -v2, 0), and the two must agree to round-off.

``evaluate_p6`` and ``evaluate_p6_dv1`` are the elimination sextic and
its v1-derivative as a walk over the coefficient dict, ``p6_roots_v1``
roots it with ``np.roots`` and polishes each real root on that walk, and
``newton_balance`` measures the Newton balance on the built state with
numpy arrays: the references for the compiled sextic kernel, its direct
LAPACK companion roots and the state-free balance of
:mod:`magnetotrio.solvers`, which must return their floats to the bit.

``integrate_in_frame`` is :func:`magnetotrio.dynamics.integrate` in a
frame that turns at a given frequency: the rotating kernel of
``dynamics._rhs`` on the stepper loop ``dynamics._solve``.
``gate_drifts`` integrates a rotation's built state over the rigidity gate's quarter
period in the inertial frame and in the rotation's own (by
``integrate_in_frame``), and ``gate_drift`` is the drift the gate
measures on a row: its ``rigidity`` where certification integrated it,
else the gate's own integration run here.  They are the references for
the spectral screen of :func:`magnetotrio.solvers._certify`, which passes
rows without integrating them.

``eager_collinear_solution`` assembles one collinear root and certifies
it in full, inside its sector and sense gates or not: swapped in for
:func:`magnetotrio.solvers._collinear_solution`, which finishes a gated
root only when it leaves the package, it is the reference each sweep's
returned rows and NoSolution text must equal field by field.

``complex_step_linearization`` is A = Dg(y*), the Jacobian of a
rotation's co-rotating field at its t = 0 line coordinates, from 4n
complex-step columns of the compiled rotating kernel: the reference for
the closed-form blocks of :func:`magnetotrio.solvers._linearization`,
which must agree to 1e-13 relative.

``read_trajectory_csv`` is the trajectory-CSV reader as a walk over rows
with ``float()``, the reference for
:func:`magnetotrio.read_trajectory_csv`, which parses every row in one
``np.loadtxt`` call and walks only a file that fails a check or holds
U+001F: on each UTF-8 file both return bit-identical arrays or raise the
same message at the same line (the package reader also refuses a row
where two charges share a point, which this walk accepts).

``step_interpolant`` is DOP853's 7th-order dense output built and
evaluated for one step at a time, and ``sampled_walk`` samples a run
through it step by step: the reference for
:func:`magnetotrio._dop853.interpolate`, which evaluates the recorded steps
of a run in one batched pass; the rows must agree to the bit.

``damped_newton_to_the_floor`` is the n-body damped-Newton loop without
its coincidence stop, which runs every seed until its iterate meets the
absolute floor: the reference for :func:`magnetotrio.solvers._damped_newton`,
which must end each run where it ends a root, to the bit, with the same
verdict, and may end early only a run this loop ends as no root.

``damped_newton_walk`` is that loop with its coincidence stop, iterated
through generator passes, and ``linearization_walk`` fills A = Dg(y*) entry
by entry into nested lists: the references for
:func:`magnetotrio.solvers._damped_newton` and
:func:`magnetotrio.solvers._linearization`, which must return the same
floats (or raise the same message) and the same bytes of A.

``residuals_config_I`` and ``residuals_nbody_II`` sum the Configuration-I
rows of ``config_I_terms`` and the collinear balance rows of
:mod:`magnetotrio.solvers` into raw residual vectors: the references the
tests hold the printed equations, their scaling covariance and the
sweeps' roots against.

``helium_pattern``, ``helium_cubic_root``, ``helium_quartic_coefficients``
and ``helium_closed_forms`` are the closed forms of the neutral pattern
e1 = -2e, e2 = e3 = e, m2 = m3 = m: its quartic factor of the elimination
sextic, the cubic root 117.69 v2 and the field and frequency at a quartic
root, the references for what Configuration II's sextic search returns on
that pattern.

``hamiltonian_jacobi`` (with its momentum and field part ``_hc_quadratic``)
is the reduced Hamiltonian on a flat shifted Jacobi vector: the reference
for the Cartesian Hamiltonian, which it equals to rounding, and for
:func:`magnetotrio.jacobi.rhs_jacobi`, which must be its gradient flow.

``poisson_bracket`` is the canonical bracket {f, g} of two callables from
complex-step gradients at one state, one dot product each: the reference
for the complex-step engine (a fundamental bracket, a non-analytic
quantity refused) and for :func:`magnetotrio.algebra_check`, which builds
its table from one gradient call of the invariant table on a stack of
states and must return the same floats.

``particle_pseudomomenta``, ``individual_angular_momenta`` and the
``separate_`` quantities (H, K, L_z, the Casimir, the pair virial and
particle 3's k_x) each evaluate one quantity on its own, recomputing the
vector potential and the momenta they need, and ``separate_invariant_table``
stacks them into the columns of :func:`magnetotrio.invariant_table`: the
references for the one-pass table, the one implementation of each column,
which must return their floats to the bit, real or complex.
"""

import functools
import itertools
import math

import numpy as np

from magnetotrio import (ConfigSolution, DegenerateError, DomainError,
                         IntegratorSettings,
                         NonConvergence, SpecParseError, Trajectory,
                         build_initial_state, dynamics, solvers)
from magnetotrio._dop853 import D, DOP853
from magnetotrio.dynamics import trajectory_header
from magnetotrio.dynamics import accelerations, rigidity_report
from magnetotrio.invariants import (_gradient, _pack, coulomb_energy,
                                    invariant_columns, kinetic_energies)
from magnetotrio.jacobi import _positions, jacobi_weights
from magnetotrio.model import canonical_momenta, vector_potential
from magnetotrio.solvers import (_DEDUP_TOL, _V2, _collinear_field,
                                 _collinear_terms, _frame_omega, _line, _polish)


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
    """Field strength that makes (v1, v2, v3) a Configuration-III root,
    written out independently of :func:`closed_form_B_II`."""
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    num = ((v1 - v2)**2 * v2 * (v2 + v3)**2 * (m1*v1 + m2*v2 - m3*v3)
           * (e2*(m1*v1 - m3*v3) + m2*(e3*v3 - e1*v1)))
    den = (e2 * (e1*(v2 + v3)**2 - e3*(v1 - v2)**2)
           * (e1*v1 + e2*v2 - e3*v3)**2)
    if den == 0.0:
        raise DegenerateError("Configuration-III field denominator vanishes")
    return -num / den


def walk_nbody_system(spec, vn):
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
        kap, C, B = _collinear_field(spec, x, range(n))
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


def evaluate_p6(c, v1, v2, v3):
    return math.fsum(a * v1**i * v2**j * v3**k for (i, j, k), a in c.items())


def evaluate_p6_dv1(c, v1, v2, v3):
    return math.fsum(i * a * v1**(i - 1) * v2**j * v3**k
                     for (i, j, k), a in c.items() if i > 0)


def p6_descending(c, v2, v3):
    """The elimination sextic's coefficients in v1 at (v2, v3), sextic first."""
    return [math.fsum(a * v2**j * v3**k for (i, j, k), a in c.items() if i == d)
            for d in range(6, -1, -1)]


def p6_roots_v1(c, v2, v3):
    """Positive real roots in v1 of the elimination sextic (coefficients
    ``c``) at (v2, v3): the eigenvalues of its companion matrix, each
    Newton-polished on the exact sum."""
    coeffs = p6_descending(c, v2, v3)
    f = functools.partial(evaluate_p6, c, v2=v2, v3=v3)
    df = functools.partial(evaluate_p6_dv1, c, v2=v2, v3=v3)
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


def newton_balance(solution, spec_b, state):
    """Relative mismatch between the exact Newtonian accelerations of the
    state built from ``solution`` and the rigid-rotation kinematics it
    claims: each charge should accelerate at -omega^2 (x - c) - omega3^2 c
    about the center c of the solution's line."""
    acc = accelerations(spec_b, state.positions, state.velocities)
    c = np.array([_line(solution, spec_b)[0], 0.0])
    expected = (-solution.omega**2 * (state.positions - c)
                - solution.omega3**2 * c)
    scale = max(1.0, float(np.abs(acc).max()))
    return float(np.abs(acc - expected).max()) / scale


def integrate_in_frame(spec, state, settings, w):
    """The trajectory of ``state`` integrated with the field
    ``dynamics._rhs(spec, w)`` of the frame that turns at ``w`` (the
    inertial one at w = 0), on ``dynamics._solve`` and the grid of
    ``dynamics._checked_grid``: positions and velocities in the turning
    basis, with the solver counters."""
    n = spec.n
    y0 = np.concatenate([state.positions.ravel(), state.velocities.ravel()])
    t, y, stats = dynamics._solve(spec, dynamics._rhs(spec, w), y0, state.t,
                                  dynamics._checked_grid(settings, state.t),
                                  settings, lambda y: y[:2 * n].tolist())
    return Trajectory(spec, t, y[:, :2 * n].reshape(-1, n, 2),
                      y[:, 2 * n:].reshape(-1, n, 2), stats)


def gate_drifts(sol, spec_b, state, inertial=True):
    """The worst relative pair-distance drift of ``state`` over the
    certification's quarter period and 200 samples, integrated in the
    inertial frame (the oracle; left out unless ``inertial``) and in the
    rotation's own frame (the gate)."""
    t_end = 0.25 * 2.0 * math.pi / sol.omega
    settings = IntegratorSettings(t_end=t_end, rel_tol=1e-10, abs_tol=1e-10,
                                  sample_interval=t_end / 200.0)
    runs = [integrate_in_frame(spec_b, state, settings, _frame_omega(sol))]
    if inertial:
        runs.insert(0, dynamics.integrate(spec_b, state, settings))
    return tuple(map(rigidity_report, runs))


def gate_drift(sol, spec):
    """The drift the rigidity gate measures on the row ``sol`` of ``spec``:
    ``sol.rigidity`` where certification integrated it, else the gate's
    integration of its built state in its own frame."""
    if not math.isnan(sol.rigidity):
        return sol.rigidity
    [drift] = gate_drifts(sol, *build_initial_state(sol, spec), inertial=False)
    return drift


def eager_collinear_solution(spec, v, config, branch):
    """The ``(sol, None)`` pair of one collinear root (positive speeds
    ``v``) of ``config``, certified at once in full: its sector and sense
    gates, then the residual, the balance and, if those pass, rigidity, by
    ``solvers._certify``."""
    u, order = solvers._layout(config, v)
    kap, _, B = _collinear_field(spec, u, order)
    omega_signed = kap * B
    if omega_signed == 0.0 or not math.isfinite(omega_signed):
        raise DegenerateError("frequency or field closed form degenerates")
    terms = functools.partial(_collinear_terms, spec, u, omega_signed, B, order)
    sol = ConfigSolution(
        config=config, branch=branch, v=tuple(map(abs, v)),
        omega=abs(omega_signed), B=B,
        sense="cw" if omega_signed > 0 else "ccw")
    in_sector = min(v) >= 0 and all(u[i] < u[j] for i, j in zip(order, order[1:]))
    return solvers._certify(sol, spec, terms, (
        (in_sector, "speed ordering outside the sector"),
        (omega_signed > 0, "mirror rotation sense"))), None


def complex_step_linearization(sol, spec, step=1e-20):
    """A = Dg(y*) of the rotating kernel ``dynamics._rhs(spec, w, B=sol.B)``
    at ``sol``'s t = 0 solver vector y*: column k is Im g(y* + i h_k e_k) /
    h_k, a complex step that subtracts nothing, with h_k = ``step`` times
    the largest |entry| of the half of y* (positions or velocities) that
    holds k."""
    _, y = _line(sol, spec)
    h = np.repeat(np.abs(np.reshape(y, (2, -1))).max(axis=1), len(y) // 2) * step
    g = dynamics._rhs(spec, _frame_omega(sol), B=sol.B)
    rows = [g(0.0, yk) for yk in np.array(y) + 1j * np.diag(h)]
    return (np.array(rows, complex).imag / h[:, None]).T


def config_I_terms(spec, v1, v2, v3, omega, omega3):
    """The six Configuration-I rows of ``residuals_config_I``, each term
    written out: the third charge's frequency conditions, the radius
    compatibility and the two pair force balances."""
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


def config_I_v3zero_closed_form(spec, v1):
    """(omega, B) of Configuration I with the third charge at rest, at
    v2 = v1 sqrt(e2/e1); omega may come out negative."""
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    r = math.sqrt(e2 / e1)
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
    return omega, B


def read_trajectory_csv(path, spec):
    """Read a trajectory written by :func:`write_trajectory_csv`.

    Raises :class:`SpecParseError` (with the line number) on malformed,
    truncated or non-finite rows and on times that do not increase.
    """
    n = spec.n
    expected = 1 + 4 * n
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SpecParseError("empty trajectory file")
    header = lines[0].split(",")
    if header != trajectory_header(n):
        raise SpecParseError(
            f"unexpected header for an n={n} system: {lines[0]!r}", line=1
        )
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != expected:
            raise SpecParseError(
                f"expected {expected} columns, got {len(parts)} (truncated row?)",
                line=line_no,
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise SpecParseError(f"non-numeric value in row", line=line_no) from None
        if not all(map(math.isfinite, vals)):
            raise SpecParseError("non-finite value in row", line=line_no)
        if rows and vals[0] <= rows[-1][0]:
            raise SpecParseError(f"t = {vals[0]!r} does not increase", line=line_no)
        rows.append(vals)
    if not rows:
        raise SpecParseError("trajectory file has a header but no rows")
    data = np.array(rows)
    state = data[:, 1:].reshape(-1, n, 4)
    return Trajectory(spec, data[:, 0], state[..., 0:2], state[..., 2:4])


def step_interpolant(stepper):
    """The interpolant over ``stepper``'s last step, as a function of a 1-D
    array of times that returns one solution row per time.  Runs the three
    extra stages."""
    K, h, t_old, y_old = stepper.K, stepper.h, stepper.t_old, stepper.y_old
    stepper._stages(stepper._dense_plan, t_old, y_old, h)
    F = np.empty((7, y_old.size))
    f_old = K[0]
    delta_y = stepper.y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (stepper.f + f_old)
    F[3:] = h * D.dot(K)
    span = stepper.t - t_old

    def interpolate(t):
        x = ((t - t_old) / span)[:, None]
        factors = (x, 1 - x)
        y = np.zeros((len(x), len(y_old)))
        for i, f in enumerate(reversed(F)):
            y += f
            y *= factors[i % 2]
        y += y_old
        return y

    return interpolate


def sampled_walk(rhs, y0, t0, t_eval, settings, positions_of):
    """Integrate ``y' = rhs(t, y)`` from ``(t0, y0)`` and evaluate each
    accepted step's own interpolant at the points of ``t_eval`` it reaches.

    Returns the rows and the counters of ``dynamics._solve`` with the
    collision watch on: ``nfev`` and ``min_pair_distance``, the closest
    approach over the start and every accepted step.
    """
    def closest(y):
        p = positions_of(y)
        return min((p[a] - p[b]) * (p[a] - p[b])
                   + (p[a + 1] - p[b + 1]) * (p[a + 1] - p[b + 1])
                   for a, b in itertools.combinations(range(0, len(p), 2), 2))

    stepper = DOP853(rhs, t0, y0, settings.t_end, settings.rel_tol,
                     settings.abs_tol)
    rows, sampled, d2 = [], 0, closest(y0)
    while stepper.t < settings.t_end:
        stepper.step()
        d2 = min(d2, closest(stepper.y))
        due = int(np.searchsorted(t_eval, stepper.t, side="right"))
        if due > sampled:
            rows.append(step_interpolant(stepper)(t_eval[sampled:due]))
            sampled = due
    return np.vstack(rows), {"nfev": stepper.nfev,
                             "min_pair_distance": math.sqrt(d2)}


def damped_newton_to_the_floor(system, u0):
    """Damped Newton on ``system(u) -> (F, J, scale)`` from ``u0``, stopped
    only by the absolute floor |F_i| <= 1e-12 max(1, scale_i), the iteration
    cap or a failed step: the solver's loop without the coincidence stop."""
    def converged(f, scale):
        return all(abs(fi) <= solvers._POLISH_TOL * max(1.0, si)
                   for fi, si in zip(f, scale))

    u = np.asarray(u0, float).tolist()
    fu, J, scale = system(u)
    norm = solvers._norm(fu)
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        for _ in range(solvers._NEWTON_MAX_ITER):
            if converged(fu, scale):
                break
            try:
                step = solvers._newton_step(J, fu)
            except FloatingPointError:
                raise NonConvergence("singular Jacobian in the collinear solver") from None
            lam = 1.0
            for _ in range(30):
                trial = [ui + lam * si for ui, si in zip(u, step)]
                if all(t > 0 for t in trial):
                    ft, Jt, st = system(trial)
                    nt = solvers._norm(ft)
                    if nt < norm * (1 - 1e-4 * lam) or converged(ft, st):
                        u, fu, J, scale, norm = trial, ft, Jt, st, nt
                        break
                lam *= 0.5
            else:
                raise NonConvergence("backtracking stalled in the collinear solver")
    if not converged(fu, scale):
        raise NonConvergence(f"no convergence (|F| = {norm:.3g})")
    if any(abs(fi) > solvers._POLISH_TOL * si for fi, si in zip(fu, scale)):
        raise NonConvergence(f"stopped on the absolute floor (|F| = {norm:.3g}): "
                             "not a root")
    if not all(si > 0 for si in scale):
        raise NonConvergence("every term is zero where the field vanishes: not a root")
    return u


def damped_newton_walk(system, u0):
    """The n-body damped-Newton loop with its coincidence stop, written with
    generator passes and two gap scans per accepted step: the steps, merits
    and messages the solver's plain loops must reproduce."""
    def converged(f, scale):
        return all(abs(fi) <= solvers._POLISH_TOL * max(1.0, si)
                   for fi, si in zip(f, scale))

    u = np.asarray(u0, float).tolist()
    fu, J, scale = system(u)
    norm, halvings = solvers._norm(fu), 0
    lo, hi = solvers._COINCIDENCE_RATIO
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        for _ in range(solvers._NEWTON_MAX_ITER):
            if converged(fu, scale):
                break
            if halvings == solvers._COINCIDENCE_STEPS:
                raise NonConvergence(f"Newton falls onto a speed coincidence (|F| = "
                                     f"{norm:.3g}): not a root")
            try:
                step = solvers._newton_step(J, fu)
            except FloatingPointError:
                raise NonConvergence("singular Jacobian in the collinear solver") from None
            lam = 1.0
            for _ in range(30):
                trial = [ui + lam * si for ui, si in zip(u, step)]
                if all(t > 0 for t in trial):
                    ft, Jt, st = system(trial)
                    nt = solvers._norm(ft)
                    if nt < norm * (1 - 1e-4 * lam) or converged(ft, st):
                        g, g0 = (min(abs(x - _V2) for x in v) for v in (trial, u))
                        halvings = (halvings + 1 if lam == 1.0
                                    and 0 < g < solvers._COINCIDENCE_GAP
                                    and lo * g0 <= g <= hi * g0 else 0)
                        u, fu, J, scale, norm = trial, ft, Jt, st, nt
                        break
                lam *= 0.5
            else:
                raise NonConvergence("backtracking stalled in the collinear solver")
    if not converged(fu, scale):
        raise NonConvergence(f"no convergence (|F| = {norm:.3g})")
    if any(abs(fi) > solvers._POLISH_TOL * si for fi, si in zip(fu, scale)):
        raise NonConvergence(f"stopped on the absolute floor (|F| = {norm:.3g}): "
                             "not a root")
    if not all(si > 0 for si in scale):
        raise NonConvergence("every term is zero where the field vanishes: not a root")
    return u


def linearization_walk(sol, spec):
    """A = Dg(y*) of a rotation's co-rotating field at its t = 0 line
    coordinates, filled entry by entry into 4n x 4n nested lists, in
    Python floats: the identity, the frame's w (I_2n x J), each charge's
    Lorentz block, then the Coulomb pair blocks in pair order."""
    n, (_, y), w, B = spec.n, _line(sol, spec), _frame_omega(sol), sol.B
    e, m = spec.charges.tolist(), spec.masses.tolist()
    A = [[0.0] * (4 * n) for _ in range(4 * n)]
    for k in range(2 * n):
        A[k][2 * n + k] = 1.0
    for k in range(0, 4 * n, 2):
        A[k][k + 1], A[k + 1][k] = -w, w
    for i in range(n):
        a, lorentz = 2 * n + 2 * i, e[i] * B / m[i]
        A[a][a + 1] += lorentz
        A[a + 1][a] -= lorentz
    for i, j, c in zip(*(p.tolist() for p in spec.pairs)):
        cr3 = c / abs(y[2 * i] - y[2 * j]) ** 3
        for a, b in ((i, j), (j, i)):
            ax, ay = A[2 * n + 2 * a], A[2 * n + 2 * a + 1]
            ax[2 * a] -= 2.0 * cr3 / m[a]
            ax[2 * b] += 2.0 * cr3 / m[a]
            ay[2 * a + 1] += cr3 / m[a]
            ay[2 * b + 1] -= cr3 / m[a]
    return np.array(A)


def residuals_config_I(spec, v1, v2, v3, omega, omega3):
    """Raw residuals (length 6) of the Configuration-I balance system.

    Rows: the three third-charge frequency conditions v3*(B e_i - m_i w3),
    the radius-compatibility condition e3*(e1/v1^2 - e2/v2^2)*w^2, and the
    two pair force balances, each summed from :func:`config_I_terms`.
    ``spec.B`` supplies the field.
    A zero v1 or v2 puts a pair charge on the third, v1 + v2 = 0 the pair
    on one point: DegenerateError.
    """
    if spec.n != 3:
        raise DomainError("Configuration I is a three-charge system")
    if v1 == 0.0 or v2 == 0.0 or v1 + v2 == 0.0:
        raise DegenerateError("Configuration-I residuals: two charges coincide")
    return np.array([math.fsum(t) for t in
                     config_I_terms(spec, v1, v2, v3, omega, omega3)])


def residuals_nbody_II(spec, v, omega, B):
    """Raw residuals (length n) of the collinear rigid-rotation system.

    The sign in front of the (i, j) Coulomb term is +1 for j > i and -1
    for j < i, matching the nominal speed ordering v1 < ... < vn.  For
    n = 3 this is exactly the Configuration-II system.  Two equal speeds
    put two charges on one point, which is DegenerateError.
    """
    v = list(map(float, v))
    if spec.n != len(v):
        raise DomainError("speed vector length must equal the particle count")
    if spec.n < 3:
        raise DomainError("collinear rigid rotations need at least 3 charges")
    if len(set(v)) < len(v):
        raise DegenerateError("collinear residuals: two speeds coincide")
    rows = _collinear_terms(spec, v, omega, B, range(len(v)))
    return np.array([math.fsum(r) for r in rows])


_PATTERN_TOL = 1e-12      # relative tolerance of helium_pattern's matches


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
    (it equals the general Configuration-II field restricted to the pattern);
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


def hamiltonian_jacobi(spec, z):
    """Reduced Hamiltonian evaluated on a flat shifted Jacobi vector ``z``,
    shape (12,)."""
    w = jacobi_weights(spec)
    return float(_hc_quadratic(w, spec.B, z) + coulomb_energy(spec, _positions(w, z)))


def poisson_bracket(f, g, spec, positions, velocities):
    """Canonical Poisson bracket {f, g} at one phase point, of complex-analytic
    callables ``(spec, positions, velocities)`` that take (..., n, 2) stacks
    and return one value per leading index."""
    z0 = _pack(spec, positions, velocities)
    gf, gg, n2 = _gradient(f, spec, z0), _gradient(g, spec, z0), 2 * spec.n
    return float(gf[:n2] @ gg[n2:] - gf[n2:] @ gg[:n2])


def particle_pseudomomenta(spec, positions, velocities):
    """Individual ``k_i = p_i + e_i A(rho_i) = m_i v_i + 2 e_i A(rho_i)``."""
    A = vector_potential(positions, spec.B)
    v = np.asarray(velocities)
    return spec.masses[:, None] * v + 2.0 * spec.charges[:, None] * A


def individual_angular_momenta(spec, positions, velocities):
    """Canonical ``l_zi = (rho_i x p_i)_z`` per particle."""
    pos = np.asarray(positions)
    p = canonical_momenta(spec, pos, velocities)
    return pos[..., 0] * p[..., 1] - pos[..., 1] * p[..., 0]


def separate_hamiltonian(spec, positions, velocities):
    return kinetic_energies(spec, velocities).sum(axis=-1) + coulomb_energy(spec, positions)


def separate_pseudomomentum(spec, positions, velocities):
    return particle_pseudomomenta(spec, positions, velocities).sum(axis=-2)


def separate_angular_momentum(spec, positions, velocities):
    return individual_angular_momenta(spec, positions, velocities).sum(axis=-1)


def separate_casimir(spec, positions, velocities):
    K = separate_pseudomomentum(spec, positions, velocities)
    Lz = separate_angular_momentum(spec, positions, velocities)
    return K[..., 0] ** 2 + K[..., 1] ** 2 - 2.0 * spec.total_charge * spec.B * Lz


def separate_pair_virial(spec, positions, velocities):
    pos = np.asarray(positions)
    p = canonical_momenta(spec, pos, velocities)
    m1, m2 = spec.masses[0], spec.masses[1]
    nu1, nu2 = m1 / (m1 + m2), m2 / (m1 + m2)
    tau1 = pos[..., 1, :] - pos[..., 0, :]
    ptau1 = nu1 * p[..., 1, :] - nu2 * p[..., 0, :]
    return (tau1 * ptau1).sum(axis=-1)


def separate_third_pseudomomentum_x(spec, positions, velocities):
    return particle_pseudomomenta(spec, positions, velocities)[..., 2, 0][()]


def separate_invariant_table(spec, positions, velocities):
    """The columns of :func:`magnetotrio.invariant_table`, each quantity
    evaluated on its own."""
    q, v = positions, velocities
    K = separate_pseudomomentum(spec, q, v)
    cols = [separate_hamiltonian(spec, q, v), K[..., 0], K[..., 1],
            separate_angular_momentum(spec, q, v), separate_casimir(spec, q, v),
            *np.moveaxis(individual_angular_momenta(spec, q, v), -1, 0),
            *np.moveaxis(kinetic_energies(spec, v), -1, 0)]
    if spec.n == 3:
        cols += [separate_third_pseudomomentum_x(spec, q, v),
                 separate_pair_virial(spec, q, v)]
    assert len(cols) == len(invariant_columns(spec.n)) - 1
    return np.stack(cols, axis=-1)
