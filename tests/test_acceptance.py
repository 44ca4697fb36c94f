"""End-to-end guarantees of the package at their published tolerances.

Each test states one headline property -- frozen rotation data that
integrate rigidly, the bracket algebra at random states, drift bounds
along generic trajectories, equivalence of the center-of-mass split with
the Cartesian flow, the no-go and duality structure of the collinear
solvers -- and pins it at the tolerance the package promises.  Run with
``pytest -v`` to get one pass/fail line per guarantee.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp, mpf, polyval

from conftest import electron_orbit, separated_state, table_value
from magnetotrio import (DegenerateError, IntegratorSettings, NoSolution,
                         PhaseState, SystemSpec, algebra_check, apply_cc,
                         build_initial_state, closed_form_B_II,
                         closed_form_B_III, conserved_closed_forms,
                         drift_report, evaluate_p6, hamiltonian,
                         hamiltonian_jacobi, helium_cubic_root, integrate,
                         integrate_jacobi, p6_coefficients, pair_distance_min,
                         residuals_config_I, rigidity_report,
                         solve_config_I_identical, solve_config_I_v3zero,
                         solve_config_II, solve_nbody_II, to_jacobi)

SPEC4 = SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0), masses=(1.0, 1.0, 3.0))
WORKED = SystemSpec(B=1.0, charges=(1.0, 4.0, 1.0), masses=(1.0, 5.0, 1.0))
HELIUM = SystemSpec(B=1.0, charges=(-2.0, 1.0, 1.0), masses=(4.0, 1.0, 1.0))


def _electrons(B):
    return SystemSpec(B=B, charges=(-1.0, -1.0, -1.0), masses=(1.0, 1.0, 1.0))


def _tight(t_end, dt):
    return IntegratorSettings(t_end=t_end, rel_tol=1e-12, abs_tol=1e-12,
                              sample_interval=dt)


def test_01_identical_charge_rotation_reproduced():
    """Three identical unit charges at B = -2: the frozen rotation data
    v1 = v2 = (5/4)^(1/3), v3 = 1, omega = 1, omega3 = 2 solve the
    rigid-rotation system to 1e-12, the solver rediscovers them at the
    critical pair separation, and the Newton flow keeps every pair
    distance constant to 1e-6 (relative) through t = 10 in under five
    seconds."""
    spec = _electrons(-2.0)
    v = (5.0 / 4.0) ** (1.0 / 3.0)
    residuals = residuals_config_I(spec, v, v, 1.0, 1.0, 2.0)
    assert np.max(np.abs(residuals)) < 1e-12

    sol = solve_config_I_identical(spec, pair_distance_min(spec), v3=1.0)[0]
    assert sol.v[0] == pytest.approx(v, rel=1e-12)
    assert sol.omega == pytest.approx(1.0, rel=1e-12)
    assert sol.omega3 == pytest.approx(2.0, rel=1e-12)

    spec0, pos, vel = electron_orbit()
    start = time.perf_counter()
    traj = integrate(spec0, PhaseState(pos, vel), _tight(10.0, 0.05))
    elapsed = time.perf_counter() - start
    assert rigidity_report(traj).worst < 1e-6
    assert elapsed < 5.0


def test_02_pair_separation_floor_and_branch_collapse():
    """The identical-pair family exists only down to rho = 10^(1/3) (unit
    charges and masses, B = 2); at that separation the two speed branches
    collapse onto v = (5/4)^(1/3), and below it the solver reports that
    no solution exists.  Tolerance 1e-10."""
    spec = _electrons(2.0)
    rho_min = pair_distance_min(spec)
    assert abs(rho_min - 10.0 ** (1.0 / 3.0)) < 1e-10

    sols = solve_config_I_identical(spec, rho_min)
    assert len(sols) == 2
    speeds = sorted(s.v[0] for s in sols)
    assert speeds[1] - speeds[0] < 1e-10
    for s in sols:
        assert abs(s.v[0] - (5.0 / 4.0) ** (1.0 / 3.0)) < 1e-10

    with pytest.raises(NoSolution):
        solve_config_I_identical(spec, 0.999 * rho_min)


def test_03_bracket_algebra_at_random_states():
    """Finite-difference Poisson brackets reproduce the algebra of the
    energy, the pseudomomentum, and the angular momentum -- {Kx,Ky} =
    -QB, {Lz,Kx} = Ky, {Lz,Ky} = -Kx, vanishing brackets with H, and a
    central K.K - 2QB*Lz -- within 1e-6 at 100 seeded random states.
    For a neutral system the two pseudomomentum components commute."""
    rng = np.random.default_rng(20260803)
    worst = 0.0
    neutral_worst = 0.0
    checked = 0
    for spec in (SPEC4, _electrons(2.0), WORKED, HELIUM):
        for _ in range(25):
            pos, vel = separated_state(rng, 3)
            table = algebra_check(spec, pos, vel)
            worst = max(worst, max(abs(err) for err in table.values()))
            if spec.total_charge == 0.0:
                # QB = 0, so this entry is the raw {Kx,Ky} bracket
                neutral_worst = max(neutral_worst, abs(table["{Kx,Ky}+QB"]))
            checked += 1
    assert checked >= 100
    assert worst < 1e-6
    assert HELIUM.total_charge == 0.0 and neutral_worst < 1e-6


def test_04_drift_bounds_on_generic_trajectories():
    """Along ten seeded random trajectories integrated to t = 50, the
    energy, both pseudomomentum components, the total angular momentum,
    and K.K - 2QB*Lz each drift less than 1e-8 (max |q(t) - q(0)| over
    the raw sampled states).  Charges are drawn with a common sign so
    every pair repels and the flow stays clear of collisions over the
    horizon."""
    rng = np.random.default_rng(20260804)
    for _ in range(10):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        spec = SystemSpec(
            B=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
            charges=tuple(sign * rng.uniform(0.5, 2.0, 3)),
            masses=tuple(rng.uniform(0.5, 2.0, 3)))
        pos, vel = separated_state(rng, 3)
        traj = integrate(spec, PhaseState(pos, vel), _tight(50.0, 1.0))
        drifts = drift_report(traj)
        for name in ("H", "Kx", "Ky", "Lz", "Casimir"):
            assert drifts[name] < 1e-8, (name, drifts[name])


def test_05_center_of_mass_split_matches_cartesian():
    """The transformed Hamiltonian equals the Cartesian one at 100 mapped
    random states (1e-10 relative), and integrating in the transformed
    frame with the exact gradient tracks the Cartesian flow of
    a certified rotation within 1e-6 through ten rotation periods."""
    rng = np.random.default_rng(20260805)
    for spec in (SPEC4, _electrons(2.0), WORKED, HELIUM):
        for _ in range(25):
            pos, vel = separated_state(rng, 3)
            js = apply_cc(spec, to_jacobi(spec, pos, vel))
            direct = hamiltonian(spec, pos, vel)
            mapped = hamiltonian_jacobi(spec, js)
            assert abs(mapped - direct) / max(1.0, abs(direct)) < 1e-10

    spec = _electrons(-2.0)
    sol = solve_config_I_identical(spec, 2.0 * pair_distance_min(spec),
                                   v3=1.0)[0]
    assert sol.branch == "+" and sol.certified
    spec_b, state = build_initial_state(sol, spec)
    horizon = 10.0 * 2.0 * math.pi / sol.omega
    settings = _tight(horizon, horizon / 300.0)
    cartesian = integrate(spec_b, state, settings)
    transformed = integrate_jacobi(spec_b, state, settings)
    deviation = np.max(np.abs(cartesian.positions - transformed.positions))
    assert deviation < 1e-6


def test_06_equal_larmor_no_go():
    """Equal charge-to-mass systems admit no in-phase collinear rotation:
    the solver refuses with its vanishing-elimination message, and the
    elimination polynomial is identically zero on a speed grid
    (|P6| <= 1e-14 x coefficient scale)."""
    mixed = SystemSpec(B=1.0, charges=(1.0, 2.0, 3.0), masses=(2.0, 4.0, 6.0))
    grid = np.geomspace(0.1, 10.0, 8)
    for spec in (_electrons(2.0), mixed):
        with pytest.raises(NoSolution, match="vanishes identically"):
            solve_config_II(spec)
        scale = max(abs(a) for a in p6_coefficients(spec).values())
        worst = max(abs(evaluate_p6(spec, a, b, c))
                    for a in grid for b in grid for c in grid)
        assert worst <= 1e-14 * scale


def test_07a_neutral_pair_window_closed_forms():
    """For the neutral identical-pair pattern (charges -2e, e, e with the
    heavy charge off-ratio), helium_cubic_root returns the positive root
    near 117.689 v2 of L^3 - 117 v2 L^2 - 81 v2^2 L - 27 v2^3 (checked
    against an independent bisection to 1e-9).  That root does not bound
    where the quartic has real roots: it has two at v3 = 20, 40 and 100
    too.  At v3 = 117.690197, 150 and 300 the quartic roots with the
    frequency/field closed forms drive all three balance rows below
    1e-10 in 50-digit arithmetic, and at v3 = 150 the package's float
    pipeline lands on the same roots and fields."""
    lam = helium_cubic_root(1.0)

    def cubic(x):
        return x**3 - 117.0 * x**2 - 81.0 * x - 27.0

    lo, hi = 100.0, 200.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if cubic(lo) * cubic(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    assert abs(lam - 0.5 * (lo + hi)) < 1e-9
    assert lam == pytest.approx(117.689, abs=2e-3)

    mp.dps = 50
    e, m1, m = mpf(1), mpf(4), mpf(1)
    v2 = mpf(1)
    worst_row = mpf(0)
    package = {}
    for v3f in (117.690197, 150.0, 300.0):
        v3 = mpf(repr(v3f))
        coeffs = [
            v3 + v2,
            -2 * (v3**2 + 2 * v3 * v2 + v2**2),
            3 * v3**3 - v3**2 * v2 + 11 * v3 * v2**2 - v2**3,
            2 * (3 * v3**3 * v2 - 2 * v3**2 * v2**2 - 5 * v3 * v2**3
                 + 2 * v2**4 - 2 * v3**4),
            (2 * v3**5 - 4 * v3**4 * v2 + 3 * v3**3 * v2**2 - v3**2 * v2**3
             + 4 * v3 * v2**4 - 2 * v2**5),
        ]
        deriv = [4 * coeffs[0], 3 * coeffs[1], 2 * coeffs[2], coeffs[3]]
        roots = []
        for seed in (0.93 * v3f, 1.07 * v3f):
            v1 = mpf(seed)
            for _ in range(200):
                step = polyval(coeffs, v1) / polyval(deriv, v1)
                v1 -= step
                if abs(step) < mpf("1e-45") * abs(v1):
                    break
            roots.append(v1)
        assert abs(roots[1] - roots[0]) > 1e-6 * v3f  # two distinct roots
        for v1 in roots:
            q = 2 * v1 - v2 - v3
            p = v1**2 - 2 * v2 * v1 + 3 * v2**2 + 2 * v3**2 - 4 * v2 * v3
            B = -((2 * m + m1) * v1 * v2 * (v1 - v2)**2 * (v2 - v3)**2
                  * (m1 * v1 + m * (v2 + v3))) / (e**3 * q**2 * p)
            omega = ((2 * m + m1) * v1 * (v1 - v2)**2 * v2
                     * (v2 - v3)**2) / (e**2 * q * p)
            charges = (-2 * e, e, e)
            masses = (m1, m, m)
            speeds = (v1, v2, v3)
            for i in range(3):
                row = (B * charges[i] * speeds[i]
                       - masses[i] * speeds[i] * omega)
                for j in range(3):
                    if j == i:
                        continue
                    row += ((1 if j > i else -1) * charges[i] * charges[j]
                            * omega**2 / (speeds[i] - speeds[j])**2)
                worst_row = max(worst_row, abs(row))
            if v3f == 150.0:
                package[float(v1)] = (float(omega), float(B))
    assert worst_row < 1e-10

    sols = solve_config_II(HELIUM, v3_values=[150.0], require_certified=False)
    assert len(sols) == 2
    for sol in sols:
        root = min(package, key=lambda r: abs(r - sol.v[0]))
        assert sol.v[0] == pytest.approx(root, rel=1e-10)
        assert sol.omega == pytest.approx(package[root][0], rel=1e-10)
        assert sol.B == pytest.approx(package[root][1], rel=1e-10)


def test_07b_neutral_pair_window_built_state_rigidity():
    """Both admissible-window quartic roots at v3 = 150 are algebra, not
    rigid trajectories: each solves the signed balance rows (relative
    residual < 1e-10), comes back uncertified with the speed-ordering
    note, and its built state fails the quarter-period rigidity check by
    far (worst > 1e-2, four decades above the 1e-6 certification bound).

    The roots put the first speed outside the ascending ordering that
    fixes the signs of the balance rows, so the built states' true
    accelerations miss the rigid kinematics (Newton imbalance 6.0e-2 at
    v1 = 140.51 and 1.10 at v1 = 160.37) and the pair distances leave the
    band within the horizon (rigidity 13.5 and 13.8).  As a control, the
    certified SPEC4 Configuration-II rotation at v3 = 1.5, integrated with
    the same settings, stays rigid to 4e-12: the gap comes from the
    roots, not from the integrator or the rigidity measure."""
    def quarter_period_rigidity(sol, spec):
        spec_b, state = build_initial_state(sol, spec)
        period = 2.0 * math.pi / sol.omega
        traj = integrate(spec_b, state, _tight(0.25 * period, period / 400.0))
        return rigidity_report(traj).worst

    sols = solve_config_II(HELIUM, v3_values=[150.0], require_certified=False)
    assert len(sols) == 2
    for sol in sols:
        assert sol.residual_norm < 1e-10
        assert not sol.certified
        assert "speed ordering outside the sector" in sol.notes
        assert quarter_period_rigidity(sol, HELIUM) > 1e-2

    control = solve_config_II(SPEC4, v3_values=[1.5])[0]
    assert control.certified
    assert quarter_period_rigidity(control, SPEC4) < 1e-6


def test_08_worked_rotation_closed_forms():
    """The third-charge-at-rest rotation for charges (1, 4, 1), masses
    (1, 5, 1), and v1 = 1 lands on omega = 18/91 and B = 162/637,
    satisfies the rigid-rotation system to 1e-12, and its closed-form
    conserved table matches direct evaluation on the built state to 1e-8
    (each comparison is printed)."""
    sol = solve_config_I_v3zero(WORKED, v1=1.0)[0]
    assert sol.omega == pytest.approx(18.0 / 91.0, rel=1e-13)
    assert sol.B == pytest.approx(162.0 / 637.0, rel=1e-13)

    residuals = residuals_config_I(replace(WORKED, B=162.0 / 637.0),
                                   1.0, 2.0, 0.0, 18.0 / 91.0, 0.0)
    assert np.max(np.abs(residuals)) < 1e-12

    spec_b, state = build_initial_state(sol, WORKED)
    forms = conserved_closed_forms(WORKED, sol)
    assert forms.pop("B_check") == pytest.approx(sol.B, rel=1e-12)
    for name, value in sorted(forms.items()):
        direct = table_value(spec_b, state, name)
        print(f"{name}: closed form {value:.12g}  direct {direct:.12g}  "
              f"|diff| {abs(value - direct):.2e}")
        assert value == pytest.approx(direct, abs=1e-8), name


def test_09_orbit_only_constants_detect_perturbation():
    """Kicking one velocity component of the certified rotation by 1%
    leaves the global invariants conserved (drift < 1e-8 to t = 10)
    while at least one per-particle quantity -- an individual angular
    momentum, an individual kinetic energy, or the pair virial -- moves
    by more than 1e-3.  Those quantities are constants of the special
    orbit, not of the system."""
    spec, pos, vel = electron_orbit()
    vel = vel.copy()
    vel[2, 1] *= 1.01
    traj = integrate(spec, PhaseState(pos, vel), _tight(10.0, 0.1))
    drifts = drift_report(traj)
    for name in ("H", "Kx", "Ky", "Lz"):
        assert drifts[name] < 1e-8, (name, drifts[name])
    particular = [drifts[k] for k in ("l1", "l2", "l3", "T1", "T2", "T3", "I")]
    assert max(particular) > 1e-3


def test_10_many_charge_solver_consistency():
    """The n-charge collinear solver reduces to the dedicated three-charge
    one (identical root catalogs on the default grid); a four-charge
    system with equal charge-to-mass ratio alpha has a center of mass
    circling at exactly alpha*B from generic initial data (1e-6 over
    several turns); and certified four-charge rotations stay rigid to
    1e-6 over the quarter-period certification horizon."""
    three = solve_config_II(SPEC4)
    many = solve_nbody_II(SPEC4)
    assert len(three) == len(many) > 0
    for a, b in zip(three, many):
        assert b.config == "nbody-II" and a.branch == b.branch
        assert np.allclose(a.v, b.v, rtol=1e-12, atol=0.0)
        assert b.omega == pytest.approx(a.omega, rel=1e-12)
        assert b.B == pytest.approx(a.B, rel=1e-12)

    spec = SystemSpec(B=2.0, charges=(1.0, 2.0, 3.0, 4.0),
                      masses=(1.0, 2.0, 3.0, 4.0))  # alpha = 1
    rng = np.random.default_rng(20260810)
    pos, vel = separated_state(rng, 4)
    rate = 1.0 * spec.B
    traj = integrate(spec, PhaseState(pos, vel),
                     _tight(3.0 * math.pi, math.pi / 20.0))
    masses = np.asarray(spec.masses)
    vcm = np.einsum("i,tij->tj", masses, traj.velocities) / masses.sum()
    rcm = np.einsum("i,tij->tj", masses, traj.positions) / masses.sum()
    worst_v = 0.0
    for k, t in enumerate(traj.t):
        c, s = math.cos(rate * t), math.sin(rate * t)
        expected = np.array([c * vcm[0, 0] + s * vcm[0, 1],
                             -s * vcm[0, 0] + c * vcm[0, 1]])
        worst_v = max(worst_v, float(np.max(np.abs(vcm[k] - expected))))
    assert worst_v < 1e-6
    # the guiding center R + (Vy, -Vx)/(alpha B) of the CM circle is fixed
    centers = rcm + np.stack([vcm[:, 1], -vcm[:, 0]], axis=1) / rate
    assert float(np.max(np.abs(centers - centers[0]))) < 1e-6

    four = SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0, 2.0),
                      masses=(1.0, 1.0, 3.0, 2.0))
    rows = solve_nbody_II(four, vn_values=np.geomspace(1.5, 6.0, 5))
    assert rows and all(r.certified for r in rows)
    for r in rows:
        assert r.rigidity < 1e-6
        spec_b, state = build_initial_state(r, four)
        period = 2.0 * math.pi / r.omega
        check = integrate(spec_b, state, _tight(0.25 * period, period / 400.0))
        assert rigidity_report(check).worst < 1e-6


def test_11_field_duality_between_phase_sectors():
    """The anti-phase field closed form is the in-phase one with the
    third speed reflected, B_III(v1, v2, v3) = -B_II(v1, v2, -v3),
    checked on 1000 random admissible speed triples across four species
    to 1e-12 relative."""
    rng = np.random.default_rng(20260811)
    species = (SPEC4, HELIUM, WORKED,
               SystemSpec(B=1.0, charges=(2.0, -1.5, 0.7),
                          masses=(1.1, 2.3, 0.9)))
    done = 0
    while done < 1000:
        spec = species[done % len(species)]
        v1, v2, v3 = rng.uniform(0.1, 10.0, 3)
        try:
            b3 = closed_form_B_III(spec, v1, v2, v3)
            b2 = closed_form_B_II(spec, v1, v2, -v3)
        except DegenerateError:
            continue
        if not (math.isfinite(b3) and math.isfinite(b2)):
            continue
        assert b3 == pytest.approx(-b2, rel=1e-12)
        done += 1
