import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import findroot, mp, mpf

from conftest import table_value
from magnetotrio import (ConfigSolution, DegenerateError, DomainError,
                         NonConvergence, NoSolution, SystemSpec, ValidityError,
                         build_initial_state, closed_form_B_II,
                         closed_form_B_III, conserved_closed_forms,
                         evaluate_p6, helium_closed_forms,
                         helium_cubic_root, helium_quartic_coefficients,
                         newton_balance, p6_coefficients, pair_distance_min,
                         residuals_config_I, residuals_config_II,
                         residuals_config_III, residuals_nbody_II,
                         solve_config_I_identical, solve_config_I_v3zero,
                         solve_config_II, solve_config_III, solve_nbody_II,
                         write_catalog)
from magnetotrio import solvers
from magnetotrio.solvers import (catalog_header, collinear_kappa,
                                 helium_pattern)

CBRT_5_4 = (5.0 / 4.0) ** (1.0 / 3.0)       # 1.0772173450159419
CBRT_10 = 10.0 ** (1.0 / 3.0)               # 2.1544346900318838


class TestClosedFormFields:
    def test_sign_map_between_sectors(self, spec4, rng):
        # B_III(v1, v2, v3) = -B_II(v1, v2, -v3), coded independently
        for _ in range(50):
            v1, v2, v3 = rng.uniform(0.1, 10.0, 3)
            try:
                a = closed_form_B_III(spec4, v1, v2, v3)
                b = closed_form_B_II(spec4, v1, v2, -v3)
            except DegenerateError:
                continue
            assert a == pytest.approx(-b, rel=1e-12)

    def test_degenerate_denominator(self, spec4):
        # e1 v1 + e2 v2 + e3 v3 = 0 kills the field expression
        with pytest.raises(DegenerateError):
            closed_form_B_II(spec4, 1.0, 4.0, 1.0)  # 3 - 4 + 1 = 0

    @pytest.mark.parametrize("species", ["spec4", "worked"])
    def test_solver_fields_match_the_dedicated_forms(self, request, species):
        # the sweep takes B from the n-charge form (sign-flipped for III);
        # the written-out three-charge forms are the reference
        spec = request.getfixturevalue(species)
        rows = []
        for solve in (solve_config_II, solve_config_III):
            try:
                rows += solve(spec)
            except NoSolution:
                pass
        assert rows
        for row in rows:
            form = closed_form_B_II if row.config == "II" else closed_form_B_III
            assert row.B == pytest.approx(form(spec, *row.v), rel=1e-13, abs=0)

    def test_kappa(self, spec4):
        v = (1.0, 2.0, 3.0)
        expected = (3.0 * 1 - 1 * 2 + 1 * 3) / (1 * 1 + 1 * 2 + 3 * 3)
        assert collinear_kappa(spec4, v) == pytest.approx(expected, rel=1e-15)
        with pytest.raises(DegenerateError):
            collinear_kappa(SystemSpec(1.0, (1.0, 1.0), (1.0, 1.0)),
                            (1.0, -1.0))


class TestEliminationSextic:
    def test_vanishes_for_equal_ratios(self, electrons):
        coeffs = p6_coefficients(electrons)
        assert all(c == 0.0 for c in coeffs.values())

    def test_three_charges_only(self):
        with pytest.raises(DomainError):
            p6_coefficients(SystemSpec(1.0, (1.0, 1.0), (1.0, 1.0)))

    def test_neutral_pair_factorization(self, helium, rng):
        # P6 = e^3 (2m + m1) * v1 * quartic = 6 v1 q(v1) for (-2,1,1)/(4,1,1)
        for _ in range(10):
            v1, v2, v3 = rng.uniform(0.5, 5.0, 3)
            q = np.polyval(helium_quartic_coefficients(v2, v3), v1)
            assert evaluate_p6(helium, v1, v2, v3) == pytest.approx(6.0 * v1 * q,
                                                                    rel=1e-9)

    @given(s=st.floats(0.25, 4.0), v1=st.floats(0.2, 5.0),
           v2=st.floats(0.2, 5.0), v3=st.floats(0.2, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_degree_six_homogeneity(self, s, v1, v2, v3):
        spec = SystemSpec(1.0, (3.0, -1.0, 1.0), (1.0, 1.0, 3.0))
        base = evaluate_p6(spec, v1, v2, v3)
        scaled = evaluate_p6(spec, s * v1, s * v2, s * v3)
        # round-off floor from the summed-term magnitude at the scaled point
        floor = (sum(abs(a) for a in p6_coefficients(spec).values())
                 * (s * max(v1, v2, v3)) ** 6 * 1e-12)
        assert scaled == pytest.approx(s ** 6 * base, rel=1e-9, abs=floor)


class TestResidualSystems:
    def test_config_II_is_nbody_specialization(self, spec4, rng):
        v = tuple(rng.uniform(0.5, 3.0, 3))
        a = residuals_config_II(spec4, v, 0.7, 1.3)
        b = residuals_nbody_II(spec4, v, 0.7, 1.3)
        assert np.array_equal(a, b)

    @given(s=st.floats(0.25, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_collinear_scaling_covariance(self, s):
        # (v, omega, B) -> (s v, s^3 omega, s^3 B) scales every term by s^4
        spec = SystemSpec(1.0, (3.0, -1.0, 1.0), (1.0, 1.0, 3.0))
        v = np.array([0.5, 1.1, 2.3])
        base = residuals_config_II(spec, v, 0.7, 1.3)
        scaled = residuals_config_II(spec, s * v, s ** 3 * 0.7, s ** 3 * 1.3)
        assert np.allclose(scaled, s ** 4 * base, rtol=1e-9)

    def test_wrong_sizes(self, spec4):
        with pytest.raises(DomainError):
            residuals_nbody_II(spec4, (1.0, 2.0), 1.0, 1.0)
        with pytest.raises(DomainError):
            residuals_config_III(SystemSpec(1.0, (1.0, 1.0), (1.0, 1.0)),
                                 (1.0, 2.0), 1.0, 1.0)


class TestNeutralPairWindow:
    def test_pattern_detection(self, helium, spec4):
        assert helium_pattern(helium) == (1.0, 4.0, 1.0)
        assert helium_pattern(spec4) is None
        # breaking m2 = m3 breaks the pattern
        assert helium_pattern(SystemSpec(1.0, (-2.0, 1.0, 1.0),
                                         (4.0, 1.0, 2.0))) is None

    def test_window_edge_value(self):
        lam = helium_cubic_root(1.0)
        assert lam == pytest.approx(117.69019695759704, rel=1e-12)
        # independent check by plain bisection on the cubic
        f = lambda x: x ** 3 - 117 * x ** 2 - 81 * x - 27
        lo, hi = 100.0, 200.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert lam == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_window_edge_scales_linearly(self):
        assert helium_cubic_root(2.5) == pytest.approx(2.5 * helium_cubic_root(1.0),
                                                       rel=1e-12)

    def test_quartic_roots(self):
        roots = np.roots(helium_quartic_coefficients(1.0, 150.0))
        real = sorted(r.real for r in roots if abs(r.imag) < 1e-9)
        assert real == pytest.approx([140.51161826097874, 160.3656955561019],
                                     rel=1e-10)
        roots = np.roots(helium_quartic_coefficients(1.0, 300.0))
        real = sorted(r.real for r in roots if abs(r.imag) < 1e-9)
        assert real == pytest.approx([286.350956842006, 314.532130183436],
                                     rel=1e-10)

    def test_closed_forms_solve_the_raw_system(self, helium):
        v1 = 140.51161826097874
        omega, B = helium_closed_forms(helium, v1, 1.0, 150.0)
        assert B == pytest.approx(closed_form_B_II(helium, v1, 1.0, 150.0),
                                  rel=1e-12)
        res = residuals_config_II(helium, (v1, 1.0, 150.0), omega, B)
        # raw residuals, gated relative to the huge term scale ~ B e v1
        assert np.abs(res).max() < 1e-10 * abs(B) * v1

    def test_algebra_roots_are_not_trajectories(self, helium):
        sols = solve_config_II(helium, v3_values=[150.0],
                               require_certified=False)
        assert len(sols) == 2 and not any(s.certified for s in sols)
        # measured imbalances 0.0601 and 1.096 -- far above the 1e-6 gate
        assert min(s.newton_balance for s in sols) > 0.01
        assert max(s.newton_balance for s in sols) > 0.5
        assert all("speed ordering outside the sector" in s.notes for s in sols)

    def test_certified_search_reports_why(self, helium):
        with pytest.raises(NoSolution, match="fail certification"):
            solve_config_II(helium, v3_values=[150.0])
        # below the window edge the quartic still has the pair of roots
        # around v3, and they fail certification the same way
        with pytest.raises(NoSolution, match="speed ordering outside") as err:
            solve_config_II(helium, v3_values=[100.0])
        assert "quartic" not in str(err.value)


class TestConfigIThirdAtRest:
    def test_worked_species(self, worked):
        sol = solve_config_I_v3zero(worked)[0]
        assert sol.omega == pytest.approx(18 / 91, rel=1e-15)
        assert sol.B == pytest.approx(162 / 637, rel=1e-15)
        assert sol.v[1] == pytest.approx(2.0, rel=1e-15)   # v2 = v1 sqrt(e2/e1)
        assert sol.certified
        assert sol.residual_norm < 1e-12

    def test_raw_residuals_at_solution(self, worked):
        from dataclasses import replace
        spec_b = replace(worked, B=162 / 637)
        res = residuals_config_I(spec_b, 1.0, 2.0, 0.0, 18 / 91, 0.0)
        assert np.abs(res).max() < 1e-12

    def test_heavy_first_charge_has_no_rotation(self):
        # moving the heavy mass onto the first charge flips the closed-form
        # frequency to omega = -342/91: algebra, but not a rotation
        swapped = SystemSpec(1.0, (1.0, 4.0, 1.0), (5.0, 1.0, 1.0))
        with pytest.raises(ValidityError, match="-3.75824"):
            solve_config_I_v3zero(swapped)

    def test_opposite_sign_pair_rejected(self):
        with pytest.raises(DomainError):
            solve_config_I_v3zero(SystemSpec(1.0, (1.0, -1.0, 1.0),
                                             (1.0, 1.0, 1.0)))

    def test_identical_pair_deferred(self, electrons_b2):
        with pytest.raises(DegenerateError, match="identical"):
            solve_config_I_v3zero(electrons_b2)


class TestConfigIIdenticalPair:
    def test_minimum_separation(self, electrons_b2):
        assert pair_distance_min(electrons_b2) == pytest.approx(CBRT_10,
                                                                rel=1e-14)

    def test_no_minimum_when_branches_always_real(self):
        spec = SystemSpec(2.0, (-1.0, -1.0, 1.0), (1.0, 1.0, 1.0))
        assert pair_distance_min(spec) is None

    def test_branches_coincide_at_critical_separation(self, electrons_b2):
        sols = solve_config_I_identical(electrons_b2, CBRT_10)
        assert len(sols) == 2
        assert abs(sols[0].v[0] - sols[1].v[0]) < 1e-10
        assert sols[0].v[0] == pytest.approx(CBRT_5_4, rel=1e-12)
        assert all(s.certified for s in sols)

    def test_below_critical_separation(self, electrons_b2):
        with pytest.raises(NoSolution, match="below the critical"):
            solve_config_I_identical(electrons_b2, 0.9 * CBRT_10)

    def test_branches_split_above_critical(self, electrons_b2):
        plus, minus = solve_config_I_identical(electrons_b2, 2 * CBRT_10)
        assert plus.branch == "+" and minus.branch == "-"
        assert plus.v[0] > minus.v[0]
        assert plus.v[0] == pytest.approx(4.16972380810184, rel=1e-12)
        assert plus.omega == pytest.approx(1.9354143466934852, rel=1e-12)
        assert all(s.certified for s in (plus, minus))

    def test_rotation_sense_follows_field_sign(self, electrons, electrons_b2):
        for s in solve_config_I_identical(electrons_b2, 2 * CBRT_10):
            assert s.sense == "ccw"
        for s in solve_config_I_identical(electrons, 2 * CBRT_10):
            assert s.sense == "cw"

    def test_moving_third_charge_needs_common_ratio(self):
        spec = SystemSpec(2.0, (-1.0, -1.0, -2.0), (1.0, 1.0, 1.0))
        solve_config_I_identical(spec, 3.0)  # at rest: fine
        with pytest.raises(ValidityError, match="charge-to-mass"):
            solve_config_I_identical(spec, 3.0, v3=1.0)

    def test_built_state_geometry(self, electrons):
        # critical-separation pair with the third electron on its own
        # circle: the snapshot is pinned to 17 digits
        sols = solve_config_I_identical(electrons, pair_distance_min(electrons),
                                        v3=1.0)
        sol = sols[0]
        assert sol.omega == pytest.approx(1.0, rel=1e-12)
        assert sol.omega3 == 2.0
        spec_b, state = build_initial_state(sol, electrons)
        assert spec_b.B == electrons.B
        from conftest import electron_orbit
        _, pos, vel = electron_orbit()
        assert np.array_equal(state.positions, pos)
        assert np.array_equal(state.velocities, vel)


class TestConfigII:
    def test_reference_row(self, spec4):
        sol = solve_config_II(spec4, v3_values=[1.5])[0]
        assert sol.v[0] == pytest.approx(0.54568864134101336, rel=1e-12)
        assert sol.omega == pytest.approx(0.36345312416589365, rel=1e-12)
        assert sol.B == pytest.approx(1.0281968374158392, rel=1e-12)
        assert sol.sense == "cw" and sol.certified
        assert sol.residual_norm < 1e-12
        assert sol.newton_balance < 1e-10

    def test_speed_ordering_in_certified_rows(self, spec4):
        sols = solve_config_II(spec4, v3_values=np.geomspace(1.5, 20.0, 4))
        assert len(sols) >= 4
        for s in sols:
            assert s.v[0] < s.v[1] < s.v[2]
            assert s.certified

    def test_equal_ratio_no_go(self, electrons):
        with pytest.raises(NoSolution, match="charge-to-mass"):
            solve_config_II(electrons)

    def test_root_far_below_v2(self):
        # a certified rotation at v1 ~ 0.0076, more than 1.5 decades below
        # the scale speed v2 = 1
        spec = SystemSpec(1.0, (2.75, -0.36, 2.09), (1.18, 0.67, 0.68))
        sols = solve_config_II(spec, v3_values=[2.4])
        assert len(sols) == 1
        sol = sols[0]
        assert sol.certified and sol.v[0] < 10**-1.5
        assert sol.v[0] == pytest.approx(0.0075566, rel=1e-4)
        assert sol.newton_balance < 1e-12


class TestConfigIII:
    def test_reference_row(self, spec4):
        sol = solve_config_III(spec4, v3_values=[0.6])[0]
        assert sol.v[0] == pytest.approx(5.7736244725433368, rel=1e-12)
        assert sol.omega == pytest.approx(5.0830263123554538, rel=1e-12)
        assert sol.B == pytest.approx(1.6081208333731387, rel=1e-12)
        assert sol.certified
        assert sol.v[0] > sol.v[1] > sol.v[2] > 0

    def test_anti_phase_neutral_relabeling(self):
        # the neutral identical-pair species admits anti-phase rotations
        # once the heavy charge sits in the middle slot
        spec = SystemSpec(1.0, (-1.0, 2.0, -1.0), (1.0, 4.0, 1.0))
        sol = solve_config_III(spec, v3_values=[0.5])[0]
        assert sol.v[0] == pytest.approx(1.8462075589388545, rel=1e-12)
        assert sol.omega == pytest.approx(6.4881873018665424, rel=1e-12)
        assert sol.B == pytest.approx(53.05536408581068, rel=1e-12)
        assert sol.certified

    def test_raw_residuals_at_reference_row(self, spec4):
        sol = solve_config_III(spec4, v3_values=[0.6])[0]
        sigma = 1.0 if sol.sense == "cw" else -1.0
        res = residuals_config_III(spec4, sol.v, sigma * sol.omega, sol.B)
        scale = abs(sol.B) * max(sol.v)
        assert np.abs(res).max() < 1e-10 * scale

    def test_third_speed_must_be_smallest(self, spec4):
        with pytest.raises(NoSolution):
            solve_config_III(spec4, v3_values=[1.5])


def _central_jacobian(system, u, h=1e-7):
    """The per-coordinate central difference of the n-body residuals, the
    Jacobian the damped Newton built before it was differentiated exactly."""
    J = np.empty((len(u), len(u)))
    for k in range(len(u)):
        hk = h * max(1.0, abs(u[k]))
        up = u.copy(); up[k] += hk
        um = u.copy(); um[k] -= hk
        J[:, k] = (np.asarray(system(up)[0]) - system(um)[0]) / (2.0 * hk)
    return J


class TestNbodyCollinear:
    def test_three_charge_catalog_matches_dedicated_solver(self, spec4):
        grid = [1.5, 4.0]
        a = solve_config_II(spec4, v3_values=grid)
        b = solve_nbody_II(spec4, vn_values=grid)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.allclose(sa.v, sb.v, rtol=1e-10)
            assert sa.B == pytest.approx(sb.B, rel=1e-10)
            assert sa.omega == pytest.approx(sb.omega, rel=1e-10)

    def test_three_charges_keep_every_sextic_root(self, spec4):
        # uncertified roots included: none is lost to a Newton pass
        a = solve_config_II(spec4, require_certified=False)
        b = solve_nbody_II(spec4, require_certified=False)
        assert [(s.v, s.B, s.omega) for s in b] == [(s.v, s.B, s.omega) for s in a]

    def test_four_charge_row(self):
        spec = SystemSpec(1.0, (3.0, -1.0, 1.0, 2.0), (1.0, 1.0, 3.0, 2.0))
        sols = solve_nbody_II(spec, vn_values=[3.0])
        assert len(sols) == 1
        sol = sols[0]
        assert np.allclose(sol.v, (0.6459345560691812, 1.0,
                                   2.754118664095354, 3.0), rtol=1e-9)
        assert sol.omega == pytest.approx(0.11431830587065503, rel=1e-9)
        assert sol.B == pytest.approx(0.18764170434225977, rel=1e-9)
        assert sol.certified
        assert sol.rigidity < 1e-6

    def test_four_charge_residuals_at_row(self):
        spec = SystemSpec(1.0, (3.0, -1.0, 1.0, 2.0), (1.0, 1.0, 3.0, 2.0))
        sol = solve_nbody_II(spec, vn_values=[3.0])[0]
        res = residuals_nbody_II(spec, sol.v, sol.omega, sol.B)
        assert np.abs(res).max() < 1e-10

    @pytest.mark.parametrize("name", ["four", "five"])
    def test_exact_jacobian_matches_central_difference(self, name, request, rng):
        spec = request.getfixturevalue(name)
        n = spec.n
        for _ in range(5):
            vn = rng.uniform(1.5, 20.0)
            system, assemble = solvers._nbody_system(spec, vn)
            # ordered speeds v1 < v2 = 1 < v3 < ... < vn, as from the seeds
            u = np.concatenate(([rng.uniform(0.1, 0.9)],
                                np.sort(rng.uniform(1.1, 0.95 * vn, n - 3))))
            F, J, scale = map(np.asarray, system(u))
            oracle = _central_jacobian(system, u)
            assert np.abs(J - oracle).max() <= 1e-7 * np.abs(oracle).max()
            # the residual rows {1, 3, ..., n-1} of the full system, unchanged
            v = assemble(u)
            B = solvers.closed_form_B_nbody(spec, v)
            kept = [0, *range(2, n - 1)]
            assert F.tolist() == residuals_nbody_II(
                spec, v, collinear_kappa(spec, v) * B, B)[kept].tolist()
            assert np.all(scale >= np.abs(F))

    @pytest.mark.parametrize("name, rows", [
        ("four", [((0.6305976741664734, 1.0, 1.4953226950863252, 1.8982718911615246),
                   0.16870221724834977, 0.270448843365876),
                  ((0.6247581055259501, 1.0, 2.0985685370173393, 2.4022907818493007),
                   0.13546402922675513, 0.22163968600275658),
                  ((0.6467995612351296, 1.0, 2.7968267973561356, 3.040134043720646),
                   0.11358445262815765, 0.18647354939853772)]),
        ("five", [((0.659969300189254, 1.0, 1.460363132771728, 1.8177558573069532,
                    2.4022907818493007), 0.13676469581858108, 0.19485107924076447),
                  ((0.6858044030431588, 1.0, 2.4366232454646917, 2.6556822873640114,
                    3.040134043720646), 0.08517200148856088, 0.12472998601129871),
                  ((0.7040193988173459, 1.0, 3.360041003659567, 3.5345834275452086,
                    3.8473340003720824), 0.07359844683225446, 0.10856946573323469)]),
    ])
    def test_default_grid_rows_and_residual_count(self, name, rows, request,
                                                  monkeypatch):
        # rows frozen from the central-difference Newton solve, which made
        # 6066 (four) and 4949 (five) residual evaluations on this grid
        spec = request.getfixturevalue(name)
        calls = 0
        factory = solvers._nbody_system

        def counted(spec, vn):
            system, assemble = factory(spec, vn)

            def count(u):
                nonlocal calls
                calls += 1
                return system(u)

            return count, assemble

        monkeypatch.setattr(solvers, "_nbody_system", counted)
        sols = solve_nbody_II(spec)
        assert calls <= 1000
        assert len(sols) == len(rows)
        for sol, (v, omega, B) in zip(sols, rows):
            np.testing.assert_allclose(sol.v, v, rtol=1e-12)
            assert sol.omega == pytest.approx(omega, rel=1e-12)
            assert sol.B == pytest.approx(B, rel=1e-12)

    @pytest.mark.parametrize("name", ["four", "five"])
    def test_uncertified_rows_are_roots(self, name, request):
        # where a speed meets v2 the field and every balance term tend to 0;
        # Newton stops there on its absolute floor, which is not a root
        sols = solve_nbody_II(request.getfixturevalue(name), require_certified=False)
        assert max(s.residual_norm for s in sols) < 1e-10

    def test_stop_on_the_absolute_floor_alone_is_no_root(self):
        # |F| = 1e-13 meets the floor 1e-12 but equals the row's largest term
        def system(u):
            return np.array([1e-13]), np.eye(1), [1e-13]

        with pytest.raises(NonConvergence, match="absolute floor"):
            solvers._damped_newton(system, [1.0])

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            solve_nbody_II(SystemSpec(1.0, (1.0, 1.0), (1.0, 1.0)))

    def test_equal_ratio_no_go_any_n(self):
        spec = SystemSpec(2.0, (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0))
        with pytest.raises(NoSolution, match="charge-to-mass"):
            solve_nbody_II(spec)


class TestConservedForms:
    def test_third_at_rest_table(self, worked):
        sol = solve_config_I_v3zero(worked)[0]
        spec_b, state = build_initial_state(sol, worked)
        forms = conserved_closed_forms(worked, sol)
        assert forms.pop("B_check") == pytest.approx(sol.B, rel=1e-12)
        for name, value in forms.items():
            direct = table_value(spec_b, state, name)
            assert value == pytest.approx(direct, abs=1e-8), name

    def test_identical_pair_table(self, electrons):
        sol = solve_config_I_identical(electrons, pair_distance_min(electrons),
                                       v3=1.0)[0]
        spec_b, state = build_initial_state(sol, electrons)
        forms = conserved_closed_forms(electrons, sol)
        for name, value in forms.items():
            if name == "H":
                continue
            direct = table_value(spec_b, state, name)
            assert value == pytest.approx(direct, abs=1e-10), name
        # the tabulated H drops the guiding-center kinetic term and scales
        # the Coulomb part by 1/4; the deviation closes exactly
        rho = 2 * sol.v[0] / sol.omega
        e, e3 = electrons.charges[0], electrons.charges[2]
        E_C = e * (e + 4 * e3) / rho
        H_direct = table_value(spec_b, state, "H")
        v3 = sol.v[2]
        assert H_direct - forms["H"] == pytest.approx(
            electrons.masses[2] * v3 ** 2 + 0.75 * E_C, rel=1e-12)

    def test_in_phase_collinear_table(self, spec4):
        sol = solve_config_II(spec4, v3_values=[1.5])[0]
        spec_b, state = build_initial_state(sol, spec4)
        forms = conserved_closed_forms(spec4, sol)
        for name in ("Lz", "l2", "K2", "I"):
            direct = table_value(spec_b, state, name)
            assert forms[name] == pytest.approx(direct, abs=1e-8), name
        # the tabulated H carries signed inverse separations, which in this
        # sector flips the Coulomb part: form = 2T - H
        T = 0.5 * float(np.dot(spec4.masses, np.asarray(sol.v) ** 2))
        assert forms["H"] == pytest.approx(
            2 * T - table_value(spec_b, state, "H"), rel=1e-10)

    def test_anti_phase_collinear_table(self, spec4):
        sol = solve_config_III(spec4, v3_values=[0.6])[0]
        spec_b, state = build_initial_state(sol, spec4)
        forms = conserved_closed_forms(spec4, sol)
        for name, value in forms.items():
            direct = table_value(spec_b, state, name)
            assert value == pytest.approx(direct, abs=1e-8), name

    @pytest.mark.parametrize("vn", [1.5 * math.sqrt(2.0), 3.0])
    def test_nbody_table_beyond_three_charges(self, four, vn):
        [sol] = solve_nbody_II(four, vn_values=[vn])
        spec_b, state = build_initial_state(sol, four)
        forms = conserved_closed_forms(four, sol)
        # Lz, l2 and I are table columns only at n = 3
        assert set(forms) == {"H", "K2"}
        assert forms["K2"] == pytest.approx(table_value(spec_b, state, "K2"), abs=1e-8)
        # form = 2T - H, as in the three-charge in-phase sector
        T = 0.5 * float(np.dot(four.masses, np.asarray(sol.v) ** 2))
        assert forms["H"] == pytest.approx(
            2 * T - table_value(spec_b, state, "H"), rel=1e-10)

    def test_unknown_configuration(self, spec4):
        bogus = ConfigSolution(config="spiral", branch="0", v=(1.0, 1.0, 1.0),
                               omega=1.0, B=1.0)
        with pytest.raises(DomainError):
            conserved_closed_forms(spec4, bogus)


class TestCertification:
    @pytest.mark.parametrize("solve", [solve_config_III, solve_nbody_II])
    def test_no_solution_names_failed_roots(self, helium, solve):
        with pytest.raises(NoSolution, match=r"fail certification: v3=\S+: "
                                             r"v1=\S+ \((speed ordering|mirror)"):
            solve(helium)

    def test_rigidity_rejection_is_noted(self, four, monkeypatch):
        monkeypatch.setattr(solvers, "_RIGIDITY_TOL", 0.0)
        with pytest.raises(NoSolution, match="pair distances drift"):
            solve_nbody_II(four, vn_values=[3.0])
        rows = solve_nbody_II(four, vn_values=[3.0], require_certified=False)
        # only a root that passed every other gate is integrated
        [row] = [r for r in rows if not math.isnan(r.rigidity)]
        assert not row.certified
        assert row.notes == (f"pair distances drift {row.rigidity:.3g} "
                             "within 0.25 period",)

    @pytest.mark.parametrize("name, solve", [
        ("electrons_b2", lambda spec: solve_config_I_identical(spec, 2 * CBRT_10)),
        ("worked", solve_config_I_v3zero),
    ], ids=["identical-pair", "third-at-rest"])
    def test_config_I_rows_name_failed_gates(self, name, solve, request,
                                             monkeypatch):
        monkeypatch.setattr(solvers, "_BALANCE_TOL", 0.0)
        rows = solve(request.getfixturevalue(name))
        assert rows
        for row in rows:
            assert not row.certified
            assert row.notes == (f"Newton imbalance {row.newton_balance:.3g}",)

    @pytest.mark.parametrize("name", ["spec4", "worked", "helium", "electrons",
                                      "electrons_b2", "four"])
    def test_certified_exactly_when_no_gate_failed(self, name, request):
        spec = request.getfixturevalue(name)
        solves = [lambda: solve_nbody_II(spec, [1.5, 2.4, 3.0],
                                         require_certified=False)]
        if spec.n == 3:
            solves += [
                lambda: solve_config_II(spec, require_certified=False),
                lambda: solve_config_III(spec, require_certified=False),
                lambda: solve_config_I_v3zero(spec, 0.7),
                lambda: solve_config_I_identical(spec, 3.0),
                lambda: solve_config_I_identical(spec, 3.0, v3=1.0)]
        rows = []
        for solve in solves:
            try:
                rows += solve()
            except (DomainError, DegenerateError, NoSolution, ValidityError):
                pass
        assert rows
        for row in rows:
            assert row.certified == (not row.notes), row

    @pytest.mark.parametrize("name", ["spec4", "four"])
    def test_one_state_build_per_root(self, name, request, monkeypatch):
        # the Newton balance and the rigidity integration share one state
        spec = request.getfixturevalue(name)
        builds = 0
        build = solvers.build_initial_state

        def counted(sol, spec):
            nonlocal builds
            builds += 1
            return build(sol, spec)

        monkeypatch.setattr(solvers, "build_initial_state", counted)
        rows = solve_nbody_II(spec, require_certified=False)
        assert any(r.certified and r.rigidity < 1e-6 for r in rows)
        assert builds == len(rows)

    def test_newton_balance_flat_on_true_solution(self, spec4):
        sol = solve_config_II(spec4, v3_values=[1.5])[0]
        assert newton_balance(sol, spec4) < 1e-10

    def test_newton_balance_large_on_false_root(self, helium):
        sol = solve_config_II(helium, v3_values=[150.0],
                              require_certified=False)[0]
        assert newton_balance(sol, helium) > 0.01


class TestPythonFloats:
    """The collinear searches compute in Python floats, not numpy scalars."""

    def test_sextic_coefficients(self, spec4):
        assert all(type(c) is float for c in p6_coefficients(spec4).values())

    @pytest.mark.parametrize("name", ["four", "five"])
    def test_nbody_system_entries(self, name, request):
        spec = request.getfixturevalue(name)
        system, _ = solvers._nbody_system(spec, 3.0)
        F, J, scale = system(np.array([0.6, *np.geomspace(1.0, 3.0, spec.n)[2:-1]]))
        entries = [*F, *scale, *(x for row in J for x in row)]
        assert len(entries) == (spec.n - 2) * spec.n
        assert all(type(x) is float and math.isfinite(x) for x in entries)

    @pytest.mark.parametrize("name, solve", [
        ("spec4", solve_config_II), ("spec4", solve_config_III),
        ("spec4", solve_nbody_II), ("four", solve_nbody_II)],
        ids=["II", "III", "nbody-II-3", "nbody-II-4"])
    def test_rows(self, name, solve, request):
        rows = solve(request.getfixturevalue(name), require_certified=False)
        assert rows
        for row in rows:
            assert all(type(x) is float for x in (*row.v, row.omega, row.B)), row


class TestCatalog:
    def test_reference_row_format(self, spec4):
        sol = solve_config_II(spec4, v3_values=[1.5])[0]
        buf = io.StringIO()
        write_catalog([sol], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == catalog_header()
        assert lines[1].startswith("II,0,0.54568864134100992,1,1.5,")
        # the pinned digits are the sextic's root to within its evaluation
        # noise: compare with its root at (v2, v3) = (1, 1.5) in 50 digits
        c = p6_coefficients(spec4)
        with mp.workdps(50):
            root = findroot(lambda x: mp.fsum(
                a * x**i * mpf(1.5)**k for (i, j, k), a in c.items()),
                mpf("0.5456886413410"))
            assert abs(float(lines[1].split(",")[2]) - root) < 1e-14 * root

    def test_mirror_sense_suffix(self, electrons_b2):
        sols = solve_config_I_identical(electrons_b2, 2 * CBRT_10)
        buf = io.StringIO()
        write_catalog(sols, buf)
        branches = [line.split(",")[1] for line in buf.getvalue().splitlines()[1:]]
        assert branches == ["+:ccw", "-:ccw"]

    def test_extra_speeds_ride_in_branch_tag(self):
        spec = SystemSpec(1.0, (3.0, -1.0, 1.0, 2.0), (1.0, 1.0, 3.0, 2.0))
        sol = solve_nbody_II(spec, vn_values=[3.0])[0]
        buf = io.StringIO()
        write_catalog([sol], buf)
        row = buf.getvalue().splitlines()[1]
        assert row.split(",")[1] == "1;v4=3"

    def test_rows_sorted_by_config_then_speed(self, spec4):
        sols = solve_config_III(spec4, v3_values=[0.8, 0.6])
        sols += solve_config_II(spec4, v3_values=[1.5])
        buf = io.StringIO()
        write_catalog(sols, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        keys = [(r[0], float(r[4])) for r in rows]
        assert keys == sorted(keys)
