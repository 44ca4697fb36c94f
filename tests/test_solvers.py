import io
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import findroot, mp, mpf

from conftest import table_values
from magnetotrio import (ConfigSolution, DegenerateError, DomainError,
                         NonConvergence, NoSolution, SystemSpec,
                         build_initial_state, classify_system,
                         conserved_closed_forms, p6_coefficients,
                         pair_distance_min, solve_config_I,
                         solve_config_I_identical, solve_config_II,
                         solve_config_III, solve_nbody_II, write_catalog)
from magnetotrio import IntegratorSettings, PhaseState, dynamics, solvers
from magnetotrio.dynamics import rigidity_report
from magnetotrio.solvers import (_collinear_field, _collinear_terms,
                                 catalog_header, collinear_kappa, sweep_grid)
from oracles import (closed_form_B_II, closed_form_B_III,
                     complex_step_linearization, config_I_terms,
                     config_I_v3zero_closed_form, evaluate_p6,
                     evaluate_p6_dv1, gate_drift, gate_drifts,
                     helium_closed_forms, helium_cubic_root,
                     helium_pattern, helium_quartic_coefficients,
                     integrate_in_frame, newton_balance, p6_descending,
                     p6_roots_v1,
                     damped_newton_to_the_floor, damped_newton_walk,
                     eager_collinear_solution, linearization_walk,
                     residuals_config_I, residuals_nbody_II,
                     walk_nbody_system)

CBRT_5_4 = (5.0 / 4.0) ** (1.0 / 3.0)       # 1.0772173450159419
CBRT_10 = 10.0 ** (1.0 / 3.0)               # 2.1544346900318838
# a five-charge species whose n-body II root at vn = 2.4022907818493007
# stops the rigidity integration on a step underflow
UNDERFLOW_FIVE = SystemSpec(
    B=1.193836183348518,
    charges=(1.8442306089407223, -0.5743882417054373, 1.8577095351189534,
             -1.1105559812805688, 0.7380447836349893),
    masses=(0.4058653462752546, 0.5741059363996943, 1.344651595690686,
            2.7669483720771604, 2.1935673938083875))


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

    @pytest.mark.parametrize("v", [(0.5, 1.0, 1.0), (1.0, 1.0, 2.0),
                                   (0.5, 1.0, 2.0, 1.0)])
    def test_coincident_speeds_are_degenerate(self, spec4, four, v):
        # a speed equal to v2 puts two charges on one point: the Coulomb
        # bracket divides by zero, which is DegenerateError, not a float error
        with pytest.raises(DegenerateError, match="two speeds coincide"):
            _collinear_field(spec4 if len(v) == 3 else four, v, range(len(v)))

    @pytest.mark.parametrize("solve", [solve_config_II, solve_nbody_II])
    @pytest.mark.parametrize("require_certified", [True, False])
    def test_last_speed_equal_to_v2_is_no_solution(self, spec4, solve,
                                                   require_certified):
        # every root of the point degenerates, and the search names why
        with pytest.raises(NoSolution, match=r"rotation on the sampled grid: "
                                             r"collinear field closed form: two "
                                             r"speeds coincide$"):
            solve(spec4, [1.0], require_certified=require_certified)

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

    @pytest.mark.parametrize("scale", [1e103, 1e160], ids=["product", "power"])
    def test_overflowing_coefficients_are_refused(self, scale):
        # at 1e103 a product of charges overflows to inf; at 1e160 the
        # square e1**2 raises OverflowError: both are the same DomainError
        spec = SystemSpec(1.0, (scale, -scale, scale), (1.0, 1.0, 3.0))
        with pytest.raises(DomainError, match="coefficients overflow"):
            p6_coefficients(spec)

    def test_neutral_pair_factorization(self, helium, rng):
        # P6 = e^3 (2m + m1) * v1 * quartic = 6 v1 q(v1) for (-2,1,1)/(4,1,1)
        c = p6_coefficients(helium)
        for _ in range(10):
            v1, v2, v3 = rng.uniform(0.5, 5.0, 3)
            q = np.polyval(helium_quartic_coefficients(v2, v3), v1)
            assert evaluate_p6(c, v1, v2, v3) == pytest.approx(6.0 * v1 * q, rel=1e-9)

    @given(s=st.floats(0.25, 4.0), v1=st.floats(0.2, 5.0),
           v2=st.floats(0.2, 5.0), v3=st.floats(0.2, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_degree_six_homogeneity(self, s, v1, v2, v3):
        c = p6_coefficients(SystemSpec(1.0, (3.0, -1.0, 1.0), (1.0, 1.0, 3.0)))
        base = evaluate_p6(c, v1, v2, v3)
        scaled = evaluate_p6(c, s * v1, s * v2, s * v3)
        # round-off floor from the summed-term magnitude at the scaled point
        floor = (sum(abs(a) for a in c.values())
                 * (s * max(v1, v2, v3)) ** 6 * 1e-12)
        assert scaled == pytest.approx(s ** 6 * base, rel=1e-9, abs=floor)


def _hex(values):
    return [float(x).hex() for x in values]


def _whole_or_any(lo, hi):
    # whole values make sextic coefficients vanish exactly, so the companion
    # matrix loses leading and trailing zeros
    return st.one_of(st.integers(lo, hi).map(float), st.floats(lo, hi))


class TestCompiledSextic:
    """The sextic kernel compiled from the key tuple, its direct LAPACK
    companion roots and the state-free Newton balance return the floats of
    the walk, ``np.roots`` and the built-state balance they replaced."""

    @given(charges=st.lists(_whole_or_any(-3, 3), min_size=3, max_size=3),
           masses=st.lists(_whole_or_any(1, 3), min_size=3, max_size=3),
           v3=st.floats(0.01, 100.0), v2=st.sampled_from([1.0, 0.3, 2.7]),
           v1s=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=3))
    @example(charges=[3.0, -1.0, 1.0], masses=[1.0, 1.0, 3.0], v3=1.5, v2=1.0,
             v1s=[0.5])
    @example(charges=[-2.0, 1.0, 1.0], masses=[4.0, 1.0, 1.0], v3=150.0, v2=1.0,
             v1s=[3.0])
    # e1 = 0: a root at 0; e3 = 0: the three leading coefficients vanish
    @example(charges=[0.0, 1.0, 2.0], masses=[1.0, 2.0, 3.0], v3=2.0, v2=1.0,
             v1s=[0.5])
    @example(charges=[1.0, 2.0, 0.0], masses=[1.0, 2.0, 3.0], v3=2.0, v2=1.0,
             v1s=[0.5])
    # a tiny third charge: omega**2 in the balance rows of the III roots at
    # v1 ~ v2 overflows, and their Newton balance divides by a pair
    # distance squared to 0: uncertified rows with both measures inf
    @example(charges=[0.0, 1.0, 1.2602551660980934e-180], masses=[1.0, 1.0, 1.0],
             v3=1.0, v2=1.0, v1s=[0.5])
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_kernel_roots_and_balance_match_the_oracles(self, charges, masses,
                                                        v3, v2, v1s):
        spec = SystemSpec(1.0, charges, masses)
        c = p6_coefficients(spec)
        at = solvers._p6_factory(tuple(c))(*c.values())
        # III roots the sextic at (v1, v2, -v3); the searches fix v2 = 1
        for u3 in (v3, -v3):
            coeffs, f, df = at(v2, u3)
            assert _hex(coeffs) == _hex(p6_descending(c, v2, u3))
            for v1 in v1s:
                assert f(v1).hex() == evaluate_p6(c, v1, v2, u3).hex()
                assert df(v1).hex() == evaluate_p6_dv1(c, v1, v2, u3).hex()
            try:
                roots = p6_roots_v1(c, v2, u3)
            except (ArithmeticError, ValueError, RuntimeWarning):
                # where the walk's floats (or np.roots') overflow, the
                # kernel's do too: the point is degenerate
                with pytest.raises(DegenerateError, match="sextic overflows"):
                    solvers._p6_roots_v1(at, v2, u3)
                continue
            assert _hex(solvers._p6_roots_v1(at, v2, u3)) == _hex(roots)
        for solve in (solve_config_II, solve_config_III):
            try:
                rows = solve(spec, [v3], require_certified=False)
            except (DomainError, NoSolution):
                continue
            for row in rows:
                try:
                    balance = newton_balance(row, *build_initial_state(row, spec))
                except ArithmeticError:
                    # the built state's kernel meets a power past the float
                    # range or a pair distance that underflows to 0
                    balance = math.inf
                assert row.newton_balance.hex() == balance.hex()


    def test_balance_keeps_the_nan_and_the_state_refusal(self):
        # the uncharged second particle's Lorentz force is inf * 0, so its
        # acceleration is NaN: the balance is NaN, as ndarray.max makes it,
        # not the largest finite entry
        spec = SystemSpec(1.0, (3.0, 0.0, 1.0), (1.0, 1.0, 3.0))
        row = ConfigSolution("II", "0", (1.0, 1e10, 2.0), omega=1.0, B=1e300)
        balance = solvers._newton_balance(row, spec, solvers._line(row, spec))
        assert math.isnan(balance)
        assert balance.hex() == newton_balance(
            row, *build_initial_state(row, spec)).hex()
        # a line coordinate past the float range: the built state refuses
        # it, the balance reads NaN, and certification keeps the root
        far = ConfigSolution("II", "0", (0.5, 1.0, 1.5), omega=1e-320, B=1.0)
        with pytest.raises(DomainError, match="must be finite"):
            build_initial_state(far, spec)
        assert math.isnan(solvers._newton_balance(far, spec, solvers._line(far, spec)))
        solvers._certify(far, spec, lambda: [[1.0, -1.0]])
        assert not far.certified and far.notes == ("Newton imbalance nan",)


class TestResidualSystems:
    @given(s=st.floats(0.25, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_collinear_scaling_covariance(self, s):
        # (v, omega, B) -> (s v, s^3 omega, s^3 B) scales every term by s^4
        spec = SystemSpec(1.0, (3.0, -1.0, 1.0), (1.0, 1.0, 3.0))
        v = np.array([0.5, 1.1, 2.3])
        base = residuals_nbody_II(spec, v, 0.7, 1.3)
        scaled = residuals_nbody_II(spec, s * v, s ** 3 * 0.7, s ** 3 * 1.3)
        assert np.allclose(scaled, s ** 4 * base, rtol=1e-9)

    def test_wrong_sizes(self, spec4):
        with pytest.raises(DomainError):
            residuals_nbody_II(spec4, (1.0, 2.0), 1.0, 1.0)
        with pytest.raises(DomainError, match="at least 3 charges"):
            residuals_nbody_II(SystemSpec(1.0, (1.0, 1.0), (1.0, 1.0)),
                               (1.0, 2.0), 1.0, 1.0)

    @pytest.mark.parametrize("v", [(0.5, 1.0, 1.0), (1.0, 1.0, 2.0),
                                   (0.5, 1.0, 2.0, 1.0)])
    def test_coincident_speeds_are_degenerate(self, spec4, four, v):
        # two charges on one point: DegenerateError, not numpy's
        # divide-by-zero warning
        with pytest.raises(DegenerateError, match="two speeds coincide"):
            residuals_nbody_II(spec4 if len(v) == 3 else four, v, 1.0, 1.0)

    @pytest.mark.parametrize("v1, v2", [(0.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_config_I_coincident_charges_are_degenerate(self, spec4, v1, v2):
        # v1 = 0 or v2 = 0 puts a pair charge on the third, v1 + v2 = 0 the
        # pair on one point
        with pytest.raises(DegenerateError, match="two charges coincide"):
            residuals_config_I(spec4, v1, v2, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("branch", ["third-at-rest", "identical-pair"])
    def test_config_I_rows_are_the_hand_written_ones(self, branch, monkeypatch):
        # the rows a Configuration I root certifies, the collinear rows of
        # the layout (v1, -v2, 0) and, for an identical pair, the third
        # charge's circle rows, are the hand-written rows as a multiset, up
        # to each row's sign, bit for bit, so their relative norm is too
        rng = np.random.default_rng(4100 if branch == "third-at-rest" else 4101)
        certified, certify = [], solvers._certify

        def spied(sol, spec, terms, gates=()):
            certified.append((sol, terms()))
            return certify(sol, spec, terms, gates)

        monkeypatch.setattr(solvers, "_certify", spied)
        for _ in range(200):
            spec = _random_species(rng, 3)
            if branch == "third-at-rest":
                sign, omega = rng.choice([-1.0, 1.0], 2), rng.uniform(0.1, 5.0)
                v1, v2 = rng.uniform(0.1, 5.0, 2)
                u, order = solvers._layout("I", (v1, v2))
                got = _collinear_terms(spec, u, sign[1] * omega, spec.B, order)
                # charge 3 sits at the center: its Lorentz and centripetal
                # terms are zero
                assert got[2][:2] == [0.0, 0.0]
                want = config_I_terms(spec, v1, v2, 0.0, sign[1] * omega, 0.0)[3:]
                _assert_rows_agree(got, want)
                continue
            # an identical pair, every other one of a common charge-to-mass
            # ratio, whose third charge then runs its own circle
            (e, e3), (m, m3) = spec.charges[:2], spec.masses[:2]
            moving = rng.uniform() < 0.5
            if moving:
                e3, m3 = math.copysign(e3, e), abs(e3 / e) * m
            spec = SystemSpec(spec.B, (e, e, e3), (m, m, m3))
            rho = (pair_distance_min(spec) or 0.5) * rng.uniform(1.0, 4.0)
            v3 = rng.uniform(0.1, 3.0) if moving else 0.0
            assert classify_system(spec).equal_larmor == moving
            omega3 = classify_system(spec).alpha * spec.B if moving else 0.0
            certified.clear()
            solve_config_I_identical(spec, rho, v3=v3)
            assert len(certified) == 2
            for sol, got in certified:
                sign = 1.0 if sol.sense == "cw" else -1.0
                v = sign * sol.v[0]
                want = config_I_terms(spec, v, v, sign * sol.v[2],
                                      sign * sol.omega, omega3)
                _assert_rows_agree(got, want)
                assert sol.residual_norm.hex() == solvers._relative_norm(
                    lambda: want).hex()


def _assert_rows_agree(got, want):
    """``got`` and ``want`` hold the same rows, compared by ``float.hex``
    without their zero terms, each up to its sign, as multisets; their
    relative norms agree to the bit."""
    def signless(rows):
        keyed = []
        for row in rows:
            row = [t for t in row if t != 0.0]
            keyed.append(min(_hex(row), _hex([-t for t in row])))
        return sorted(keyed)

    assert signless(got) == signless(want)
    assert (solvers._relative_norm(lambda: got).hex()
            == solvers._relative_norm(lambda: want).hex())


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
        res = residuals_nbody_II(helium, (v1, 1.0, 150.0), omega, B)
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


def _rest_row(spec, v1=1.0):
    """Configuration I's one row with the third charge at rest at ``v1``."""
    (sol,) = solve_config_I(spec, [v1], require_certified=False)
    return sol


class TestConfigIThirdAtRest:
    def test_worked_species(self, worked):
        sol = _rest_row(worked)
        assert sol.omega == pytest.approx(18 / 91, rel=1e-15)
        assert sol.B == pytest.approx(162 / 637, rel=1e-15)
        assert sol.v[1] == pytest.approx(2.0, rel=1e-15)   # v2 = v1 sqrt(e2/e1)
        assert sol.certified
        assert sol.residual_norm < 1e-12

    def test_raw_residuals_at_solution(self, worked):
        spec_b = replace(worked, B=162 / 637)
        res = residuals_config_I(spec_b, 1.0, 2.0, 0.0, 18 / 91, 0.0)
        assert np.abs(res).max() < 1e-12

    def test_heavy_first_charge_has_no_rotation(self):
        # moving the heavy mass onto the first charge flips the frequency
        # to omega = -342/91: an uncertified mirror-sense row, algebra but
        # not a rotation
        swapped = SystemSpec(1.0, (1.0, 4.0, 1.0), (5.0, 1.0, 1.0))
        sol = _rest_row(swapped)
        assert sol.sense == "ccw" and not sol.certified
        assert sol.omega == pytest.approx(342 / 91, rel=1e-15)
        assert sol.notes[0] == "mirror rotation sense"
        assert sol.notes[1].startswith("Newton imbalance ")
        assert len(sol.notes) == 2
        with pytest.raises(NoSolution, match=r"v1=1 \(mirror rotation sense, "
                                             r"Newton imbalance"):
            solve_config_I(swapped, [1.0])

    def test_field_and_frequency_match_the_closed_form(self, rng):
        # the collinear field formula at (v1, -v2, 0) against the frequency
        # and field solved by hand from the Configuration-I rows
        checked = 0
        for _ in range(200):
            sign = rng.choice((-1.0, 1.0))
            charges = (sign * rng.uniform(0.05, 3.0), sign * rng.uniform(0.05, 3.0),
                       rng.uniform(-3.0, 3.0))
            spec = SystemSpec(1.0, charges, tuple(rng.uniform(0.2, 3.0, 3)))
            v1 = float(rng.uniform(0.5, 2.0))
            try:
                sol = _rest_row(spec, v1)
            except NoSolution:
                continue
            omega, B = config_I_v3zero_closed_form(spec, v1)
            assert sol.omega == pytest.approx(abs(omega), rel=1e-10)
            assert sol.B == pytest.approx(B, rel=1e-10)
            assert sol.sense == ("cw" if omega > 0 else "ccw")
            checked += 1
        assert checked > 190

    def test_opposite_sign_pair_rejected(self):
        with pytest.raises(DomainError, match="same-sign charges"):
            solve_config_I(SystemSpec(1.0, (1.0, -1.0, 1.0), (1.0, 1.0, 1.0)))

    def test_equal_charges_of_unequal_masses_degenerate(self):
        # e1 = e2 makes kappa = 0 at every point
        with pytest.raises(NoSolution, match="sampled grid: a pair of equal "
                                             "charges .* only as an identical pair"):
            solve_config_I(SystemSpec(1.0, (1.0, 1.0, 0.5), (1.0, 2.0, 1.0)))

    def test_pair_of_one_ratio_has_no_field(self):
        # e1/m1 = e2/m2 = 1/2 with v3 = 0 makes kappa = 1/2 exactly, so the
        # field closed form gives B = 0: every point's root degenerates
        spec = SystemSpec(1.0, (0.3, 0.7, -1.1), (0.6, 1.4, 2.2))
        for require_certified in (True, False):
            with pytest.raises(NoSolution, match="sampled grid: frequency or "
                                                 "field closed form degenerates$"):
                solve_config_I(spec, require_certified=require_certified)


class TestConfigIIdenticalPair:
    def test_minimum_separation(self, electrons_b2):
        assert pair_distance_min(electrons_b2) == pytest.approx(CBRT_10,
                                                                rel=1e-14)

    def test_no_minimum_when_branches_always_real(self):
        spec = SystemSpec(2.0, (-1.0, -1.0, 1.0), (1.0, 1.0, 1.0))
        assert pair_distance_min(spec) is None

    @pytest.mark.parametrize("charges", [(1.0, 1.0), (1.0, 1.0, 2.0, 3.0)],
                             ids=["two", "four"])
    def test_minimum_needs_three_charges(self, charges):
        # two charges have no third to index; four would read charges 1 and 3
        spec = SystemSpec(1.0, charges, (1.0,) * len(charges))
        with pytest.raises(DomainError, match="three-charge system"):
            pair_distance_min(spec)

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

    def test_common_ratio_rows_turn_with_the_third_charge(self):
        # with e_i = alpha m_i both branch speeds carry the sign of alpha B,
        # the third charge's own frequency: every point returns both
        # branches, each in the sense of that circle
        rng = np.random.default_rng(4141)
        points = solvers.DEFAULT_GRID_POINTS
        for _ in range(40):
            alpha = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            B = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            m, m3 = (float(x) for x in rng.uniform(0.2, 3.0, 2))
            spec = SystemSpec(B, (alpha * m, alpha * m, alpha * m3), (m, m, m3))
            rows = solve_config_I(spec, require_certified=False)
            branches = [r.branch for r in rows]
            assert branches.count("+") == branches.count("-") == points
            for row in rows:
                assert row.v[2] == 1.0 and row.omega3 == pytest.approx(abs(alpha * B))
                assert row.sense == ("cw" if alpha * B > 0 else "ccw"), row

    def test_zero_speed_branch_is_skipped(self):
        # e + 4 e3 = 0 puts every "-" speed at 0, which is no rotation
        spec = SystemSpec(1.0, (4.0, 4.0, -1.0), (1.0, 1.0, 1.0))
        rows = solve_config_I(spec, require_certified=False)
        assert len(rows) == solvers.DEFAULT_GRID_POINTS
        assert all(r.branch == "+" and r.v[0] > 0.0 for r in rows)

    def test_both_branches_degenerate(self):
        # e + 4 e3 = 0 makes the discriminant exactly 1, and e B rho / (4 m)
        # underflows to 0: neither branch has a nonzero speed
        spec = SystemSpec(1e-161, (1.0, 1.0, -0.25), (1e200, 1e200, 1.0))
        with pytest.raises(NoSolution, match="^both speed branches degenerate$"):
            solve_config_I_identical(spec, 1.0)

    def test_moving_third_charge_needs_common_ratio(self):
        spec = SystemSpec(2.0, (-1.0, -1.0, -2.0), (1.0, 1.0, 1.0))
        solve_config_I_identical(spec, 3.0)  # at rest: fine
        with pytest.raises(DomainError, match="charge-to-mass"):
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

    def test_small_charges_are_no_equal_ratio(self, spec4):
        # SPEC4 with every charge times 1e-13: the same speeds at B times
        # 1e39 and omega times 1e26, not the equal-ratio refusal
        small = SystemSpec(1.0, spec4.charges * 1e-13, spec4.masses)
        sols, ref = solve_config_II(small), solve_config_II(spec4)
        assert len(sols) == len(ref) == 12
        for sol, r in zip(sols, ref):
            assert sol.certified
            np.testing.assert_allclose(sol.v, r.v, rtol=1e-12)
            assert sol.omega == pytest.approx(1e26 * r.omega, rel=1e-12)
            assert sol.B == pytest.approx(1e39 * r.B, rel=1e-12)

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
        # the anti-phase rows: third speed reflected, charges in reverse order
        v1, v2, v3 = sol.v
        res = np.array([math.fsum(row) for row in _collinear_terms(
            spec4, (v1, v2, -v3), sigma * sol.omega, sol.B, (2, 1, 0))])
        scale = abs(sol.B) * max(sol.v)
        assert np.abs(res).max() < 1e-10 * scale

    def test_third_speed_beyond_the_second(self, spec4):
        # at v3 = 1.5 > v2 charge 3, then 2, then 1 still lie along the line
        # in III's order, so the root with v1 > v2 is a rotation
        slow, fast = solve_config_III(spec4, v3_values=[1.5], require_certified=False)
        assert fast.v[0] == pytest.approx(5.764676116668432, rel=1e-12)
        assert fast.certified and fast.newton_balance < 1e-14
        period = 2.0 * math.pi / fast.omega
        settings = IntegratorSettings(t_end=0.25 * period, rel_tol=1e-12,
                                      abs_tol=1e-12, sample_interval=period / 400.0)
        spec_b, state = build_initial_state(fast, spec4)
        assert rigidity_report(dynamics.integrate(spec_b, state, settings)) < 1e-9
        assert slow.v[0] == pytest.approx(0.48133550607659753, rel=1e-12)
        assert slow.notes == ("speed ordering outside the sector",
                              "mirror rotation sense", "Newton imbalance 0.188")
        assert [r.v for r in solve_config_III(spec4, v3_values=[1.5])] == [fast.v]

    def test_seeded_sector_study(self):
        # every tenth species of a 300-species study: III on a grid past
        # v2 = 1, the other solvers on their default grids
        rng = np.random.default_rng(300)
        species = [SystemSpec(1.0, rng.uniform(-3.0, 3.0, 3), rng.uniform(0.2, 3.0, 3))
                   for _ in range(300)][::10]
        runs = [(solve_config_I, None), (solve_config_II, None),
                (solve_nbody_II, None), (solve_config_III, np.geomspace(0.05, 20.0, 24))]
        admitted = []
        for spec in species:
            for solve, grid in runs:
                try:
                    rows = solve(spec, grid, require_certified=False)
                except (DomainError, NoSolution):
                    continue
                for row in rows:
                    # for I, II and n-body II the rule is the ordering the
                    # sector gate always had, so no verdict of theirs moves
                    assert (("speed ordering outside the sector" not in row.notes)
                            == _in_sector(row)), row
                    # III rows that the old gate v1 > v2 > v3 refused
                    if row.certified and row.config == "III" and row.v[2] > row.v[1]:
                        admitted.append((spec, row))
        assert len(admitted) == 89
        for _, row in admitted:
            assert row.newton_balance < 1e-6, row
        for spec, row in admitted[::10]:
            spec_b, state = build_initial_state(row, spec)
            t_end = 0.25 * 2.0 * math.pi / row.omega
            settings = IntegratorSettings(t_end=t_end, sample_interval=t_end / 200.0)
            traj = integrate_in_frame(spec_b, state, settings,
                                      solvers._frame_omega(row))
            assert rigidity_report(traj) < 1e-6, row


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
        # uncertified roots included: none is lost to a Newton pass, and
        # one certificate gives each root the same fields, verdict and notes
        a = solve_config_II(spec4, require_certified=False)
        b = solve_nbody_II(spec4, require_certified=False)
        assert [repr(replace(s, config="II")) for s in b] == list(map(repr, a))
        assert any(s.certified for s in a) and any(s.notes for s in a)

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
        assert gate_drift(sol, spec) < 1e-6

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
            B = _collinear_field(spec, v, range(n))[2]
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
        # 6066 (four) and 4949 (five) residual evaluations on this grid; the
        # exact count of the exact-Jacobian solve pins Newton's path, so a
        # kernel whose floats move it fails here (735 and 748 before the
        # coincidence stop ended the runs that fall onto v2)
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
        assert calls == {"four": 357, "five": 378}[name]
        assert len(sols) == len(rows)
        for sol, (v, omega, B) in zip(sols, rows):
            np.testing.assert_allclose(sol.v, v, rtol=1e-12)
            assert sol.omega == pytest.approx(omega, rel=1e-12)
            assert sol.B == pytest.approx(B, rel=1e-12)

    @pytest.mark.parametrize("name", ["four", "five"])
    def test_uncertified_rows_are_roots(self, name, request):
        # where a speed meets v2 the field and every balance term tend to 0;
        # Newton stops there on a speed coincidence or on its absolute
        # floor, neither of which is a root
        sols = solve_nbody_II(request.getfixturevalue(name), require_certified=False)
        assert max(s.residual_norm for s in sols) < 1e-10

    def test_stop_on_the_absolute_floor_alone_is_no_root(self):
        # |F| = 1e-13 meets the floor 1e-12 but equals the row's largest term
        def system(u):
            return np.array([1e-13]), np.eye(1), [1e-13]

        with pytest.raises(NonConvergence, match="absolute floor"):
            solvers._damped_newton(system, [1.0])

    def test_zero_scale_row_is_no_root(self):
        # where B = 0 exactly every balance term vanishes: F = 0 meets
        # both gates to the letter, but no term balances another
        def system(u):
            return (0.0,), ((1.0,),), (0.0,)

        with pytest.raises(NonConvergence, match="the field vanishes: not a root"):
            solvers._damped_newton(system, [1.0])

    def test_singular_jacobian_is_no_root(self):
        # dgesv meets a zero pivot, where np.linalg.solve raises
        # LinAlgError; no warning on the way (nor under -W error)
        J = ((1.0, 1.0), (1.0, 1.0))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(J, (-1.0, -1.0))

        def system(u):
            return (1.0, 1.0), J, (1.0, 1.0)

        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="singular Jacobian"):
                solvers._damped_newton(system, [1.0, 1.0])
        assert np.geterr() == before

    def test_nan_jacobian_ends_as_numpys_nan_step(self):
        # np.linalg.solve gives a NaN step, no error, so every trial point
        # fails the positivity test and backtracking stalls
        J = ((math.nan, math.nan), (math.nan, math.nan))
        assert np.isnan(np.linalg.solve(J, (-1.0, -1.0))).all()

        def system(u):
            return (1.0, 1.0), J, (1.0, 1.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="backtracking stalled"):
                solvers._damped_newton(system, [1.0, 1.0])

    def test_run_falling_onto_v2_ends_on_a_speed_coincidence(self, four):
        # from v1 = 0.25 at vn = 1.5 Newton halves v3's gap to v2 step by
        # step, a double zero where every balance row shrinks as the gap
        # squared; run to the floor, it takes 23 system calls
        calls = 0
        system, _ = solvers._nbody_system(four, 1.5)

        def count(u):
            nonlocal calls
            calls += 1
            return system(u)

        u0 = [0.25, float(np.geomspace(1.0, 1.5, 4)[2])]
        with pytest.raises(NonConvergence, match="speed coincidence"):
            solvers._damped_newton(count, u0)
        assert calls <= 8
        calls = 0
        with pytest.raises(NonConvergence, match="absolute floor"):
            damped_newton_to_the_floor(count, u0)
        assert calls == 23

    def test_coincidence_stop_needs_full_steps_and_yields_to_a_root(self):
        # F = (u - 1)^2: a full Newton step halves the gap to v2 = 1
        def halving(scale):
            return lambda u: (((u[0] - 1.0) ** 2,), ((2.0 * (u[0] - 1.0),),), (scale,))

        with pytest.raises(NonConvergence, match="speed coincidence"):
            solvers._damped_newton(halving(1.0), [1.04])
        # the third halving lands where |F| <= 1e-12 scale: a root, kept
        assert solvers._damped_newton(halving(5e7), [1.04]) == [1.005]

        # each full step lands on v2, where F is NaN, so every accepted step
        # is a halved one and the run goes on to the floor's root
        def overshooting(u):
            g = u[0] - 1.0
            return ((g * g,), ((g,),), (1.0,)) if g else ((math.nan,),) * 3

        assert abs(solvers._damped_newton(overshooting, [1.04])[0] - 1.0) <= 1e-6

    def test_root_near_v2_is_kept(self):
        # species 117 of default_rng(45), e2 = -1.15e-3: its root at
        # vn = 1.5 lies 2.8e-3 from v2, well inside the stop's 0.05 band
        rng = np.random.default_rng(45)
        for _ in range(118):
            n = int(rng.integers(4, 7))
            e, m = rng.uniform(-3.0, 3.0, n), rng.uniform(0.2, 3.0, n)
            spec = SystemSpec(float(rng.uniform(0.5, 2.0)), e, m)
        assert spec.n == 5 and spec.charges[1] == pytest.approx(-1.15e-3, rel=1e-2)
        rows = [r for r in solve_nbody_II(spec, require_certified=False)
                if r.v[-1] == 1.5]
        assert [round(r.v[0], 5) for r in rows] == [0.99719]
        assert 1.0 - rows[0].v[0] == pytest.approx(2.8e-3, rel=1e-2)

    def test_coincidence_stop_ends_only_runs_that_are_no_root(self, four, five,
                                                              monkeypatch):
        # the reference runs every seed to the absolute floor: each run it
        # ends at a root ends at the same root to the bit, every other run
        # ends with the same message or on a speed coincidence, and every
        # catalog (or NoSolution message) is the same
        loop = solvers._damped_newton
        early = 0

        def both(system, u0):
            nonlocal early
            try:
                root = damped_newton_to_the_floor(system, u0)
            except NonConvergence as ex:
                with pytest.raises(NonConvergence) as got:
                    loop(system, u0)
                stopped = "speed coincidence" in str(got.value)
                early += stopped
                assert stopped or str(got.value) == str(ex)
                raise
            assert _same_floats(loop(system, u0), root)
            return root

        def rows(spec):
            try:
                return repr(solve_nbody_II(spec, require_certified=False))
            except NoSolution as ex:
                return str(ex)

        rng = np.random.default_rng(2026)
        species = [replace(four, charges=four.charges * k) for k in (1e-6, 1.0, 1e6)]
        species += [five] + [_random_species(rng, int(rng.integers(4, 7)))
                             for _ in range(20)]
        for spec in species:
            monkeypatch.setattr(solvers, "_damped_newton", both)
            reference = rows(spec)
            monkeypatch.setattr(solvers, "_damped_newton", loop)
            assert rows(spec) == reference
        assert early > 0

    def test_loop_returns_the_walks_floats(self, four, five, monkeypatch):
        # every run of the species of the coincidence-stop test returns the
        # floats of the generator walk, or raises its message
        loop = solvers._damped_newton
        runs = {"root": 0, "raised": 0}

        def both(system, u0):
            try:
                want = damped_newton_walk(system, u0)
            except NonConvergence as ex:
                with pytest.raises(NonConvergence) as got:
                    loop(system, u0)
                assert str(got.value) == str(ex)
                runs["raised"] += 1
                raise
            got = loop(system, u0)
            assert _same_floats(got, want)
            runs["root"] += 1
            return got

        monkeypatch.setattr(solvers, "_damped_newton", both)
        rng = np.random.default_rng(2026)
        species = [replace(four, charges=four.charges * k) for k in (1e-6, 1.0, 1e6)]
        species += [five] + [_random_species(rng, int(rng.integers(4, 7)))
                             for _ in range(20)]
        for spec in species:
            try:
                solve_nbody_II(spec, require_certified=False)
            except NoSolution:
                pass
        assert runs["root"] > 0 and runs["raised"] > 0

    def test_seeds_are_geomspaces_to_the_bit(self, monkeypatch):
        # the interior speeds of every seed are np.geomspace(v2, vn, n)[2:n-1]
        seeds = []

        def record(system, u0):
            seeds.append(u0)
            raise NonConvergence("recorded")

        monkeypatch.setattr(solvers, "_damped_newton", record)
        rng = np.random.default_rng(42)
        values = sorted({*rng.uniform(1.0, 30.0, 300), *np.exp(rng.uniform(0.0, 40.0, 300)),
                         math.nextafter(1.0, 2.0), *np.geomspace(1.5, 20.0, 12)})
        for n in range(4, 9):
            seeds.clear()
            with pytest.raises(NoSolution):
                solve_nbody_II(_random_species(rng, n), values)
            want = [[s1 * solvers._V2, *np.geomspace(solvers._V2, vn, n)[2:n - 1].tolist()]
                    for vn in values for s1 in solvers._SEEDS_V1]
            assert _same_floats(seeds, want), n

    @pytest.mark.parametrize("name", ["four", "five"])
    def test_steps_and_merits_are_numpys_to_the_bit(self, name, request,
                                                    monkeypatch):
        # the Newton loop calls LAPACK's solve gufunc and ddot without
        # numpy's wrapping; on the default grid every step must be the
        # float np.linalg.solve(J, -F) gives, and every |F| the float
        # np.linalg.norm(F) gives, for each (F, J) the system returned
        spec = request.getfixturevalue(name)
        factory, newton_step, norm = (solvers._nbody_system, solvers._newton_step,
                                      solvers._norm)
        returned = {}     # id(J) -> F, each J kept alive by its key's value
        calls = steps = merits = 0

        def wrapped(spec, vn):
            system, assemble = factory(spec, vn)

            def spy(u):
                nonlocal calls
                calls += 1
                out = system(u)
                returned[id(out[1])] = out[0], out[1]
                return out

            return spy, assemble

        def step_spy(J, f):
            nonlocal steps
            steps += 1
            assert f is returned[id(J)][0]
            got = newton_step(J, f)
            assert _same_floats(got, np.linalg.solve(J, np.negative(f)).tolist())
            return got

        def norm_spy(f):
            nonlocal merits
            merits += 1
            got = norm(f)
            assert type(got) is float and _same_floats(got, float(np.linalg.norm(f)))
            return got

        monkeypatch.setattr(solvers, "_nbody_system", wrapped)
        monkeypatch.setattr(solvers, "_newton_step", step_spy)
        monkeypatch.setattr(solvers, "_norm", norm_spy)
        solve_nbody_II(spec)
        assert merits == calls == {"four": 357, "five": 378}[name]
        assert steps == {"four": 298, "five": 327}[name]

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            solve_nbody_II(SystemSpec(1.0, (1.0, 1.0), (1.0, 1.0)))

    def test_equal_ratio_no_go_any_n(self):
        spec = SystemSpec(2.0, (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0))
        with pytest.raises(NoSolution, match="charge-to-mass"):
            solve_nbody_II(spec)


def _same_floats(a, b):
    """Bit equality of nested float sequences, NaN equal to NaN."""
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(map(_same_floats, a, b)))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _outcome(system, u):
    try:
        return system(u)
    except (DegenerateError, ArithmeticError, ValueError) as ex:
        return type(ex)


def _assert_kernel_is_walk(spec, vn, u):
    """The compiled system and the list walk agree to the bit at ``u``:
    equal floats, or the same DegenerateError; where the walk's floats
    fail (an ArithmeticError, or fsum's ValueError on +inf and -inf), the
    kernel gives the non-finite triple."""
    got = _outcome(solvers._nbody_system(spec, vn)[0], u)
    want = _outcome(walk_nbody_system(spec, vn)[0], u)
    if want is DegenerateError:
        assert got is DegenerateError, (spec, vn, u)
        return
    if isinstance(want, type):
        nan = (math.nan,) * (spec.n - 2)
        want = (nan, (nan,) * (spec.n - 2), nan)
    assert not isinstance(got, type), (spec, vn, u, got)
    assert _same_floats(got, want), (spec, vn, u)


# a five-charge species whose damped Newton tries a point with
# v4 ~ 1e152, where (v2 - v4)^3 overflows
_FAR_TRIAL = (SystemSpec(0.9460724511932017,
                         (0.49642769234506934, -0.22299819532769366,
                          2.4233129008102505, -1.2631391977133124,
                          -2.106210409495327),
                         (1.504749966827686, 1.6376868244332188,
                          2.6327128534887874, 1.3649988752255569,
                          0.5746180706011068)),
              15.803847773167758,
              [1.000003511890233, 6.662787992716847, 9.908669549842767e+151])


def _random_species(rng, n):
    return SystemSpec(float(rng.uniform(0.2, 3.0)), rng.uniform(-3.0, 3.0, n),
                      rng.uniform(0.2, 3.0, n))


class TestCompiledCollinearSystem:
    """``_nbody_system`` is straight-line code compiled once per n, with the
    floats of the list walk it replaced (``oracles.walk_nbody_system``)."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_seeded_points_match_the_walk(self, n):
        rng = np.random.default_rng(2300 + n)
        for _ in range(2000):
            spec = _random_species(rng, n)
            vn = float(rng.uniform(1.5, 20.0))
            if rng.random() < 0.5:
                # ordered speeds, as from the seeds
                inner = np.sort(rng.uniform(1.05, vn, n - 3))
            else:
                inner = rng.uniform(0.05, 2.0 * vn, n - 3)
            u = [float(rng.uniform(0.05, 1.5)), *inner.tolist()]
            _assert_kernel_is_walk(spec, vn, u)

    @pytest.mark.parametrize("u", [[1.0, 2.0], [0.5, 3.0], [0.5, 0.5]],
                             ids=["v1=v2", "v3=v4", "v1=v3"])
    def test_coincident_speeds_give_the_nan_triple(self, four, u):
        _assert_kernel_is_walk(four, 3.0, u)
        F, J, scale = solvers._nbody_system(four, 3.0)[0](u)
        assert all(map(math.isnan, [*F, *scale, *(x for row in J for x in row)]))

    @pytest.mark.parametrize("charges, u", [
        ((1.0, -1.0, 1.0, -1.0), [0.5, 2.5]),   # sum e_i v_i = 0: kappa = 0
        ((1.0, 1.0, 1.0, 0.0), [0.5, 1.5]),     # Coulomb bracket -4 + 4 = 0
        ((1.0, 0.0, 1.0, 1.0), [0.5, 1.5]),     # e2 = 0
    ], ids=["kappa", "bracket", "e2"])
    def test_degenerate_points_raise_as_the_walk(self, charges, u):
        spec = SystemSpec(1.0, charges, (1.0, 2.0, 1.0, 3.0))
        with pytest.raises(DegenerateError):
            solvers._nbody_system(spec, 2.0)[0](u)
        _assert_kernel_is_walk(spec, 2.0, u)

    @pytest.mark.parametrize("case, error", [
        (_FAR_TRIAL, OverflowError),
        # two speeds 1e-200 apart: their squared distance underflows to 0
        ((SystemSpec(1.0, (3.0, -1.0, 1.0, 2.0), (1.0, 1.0, 3.0, 2.0)), 3.0,
          [1e-200, 2e-200]), ZeroDivisionError),
        # an infinite field: a balance row holds +inf and -inf
        ((SystemSpec(1.0, (-3.8153537990765386e-136, 2.511686099073616e+57,
                           1.0873891322011661e-160, -189642.87232261532),
                     (5.3939096483535385e-27, 2.0555170504705576e-15,
                      3.911274521513877e+45, 6.455497179438104e+67)),
          1.8201440516600993e+96, [8.303195538827091e+72, 8.097513210358506e+86]),
         ValueError),
    ], ids=["overflow", "underflow", "inf-inf"])
    def test_float_failures_give_the_nan_triple(self, case, error):
        spec, vn, u = case
        with pytest.raises(error):
            walk_nbody_system(spec, vn)[0](u)
        _assert_kernel_is_walk(spec, vn, u)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_searches_match_the_walk(self, n, monkeypatch):
        # mostly positive charges, so that some searches find rows
        rng = np.random.default_rng(2400 + n)
        species = [SystemSpec(float(rng.uniform(0.2, 3.0)), rng.uniform(-1.0, 3.0, n),
                              rng.uniform(0.2, 3.0, n)) for _ in range(10)]
        grid = np.geomspace(1.5, 20.0, 5)

        def rows(spec):
            try:
                sols = solve_nbody_II(spec, grid, require_certified=False)
            except (NoSolution, DegenerateError) as ex:
                return type(ex)
            return [(s.v, s.omega, s.B, s.certified) for s in sols]

        compiled = [rows(spec) for spec in species]
        assert any(isinstance(r, list) for r in compiled)
        monkeypatch.setattr(solvers, "_nbody_system", walk_nbody_system)
        assert [rows(spec) for spec in species] == compiled

    def test_one_code_object_per_particle_count(self):
        rng = np.random.default_rng(2500)
        a, b = _random_species(rng, 5), _random_species(rng, 5)
        sa, sb = solvers._nbody_system(a, 3.0)[0], solvers._nbody_system(b, 7.5)[0]
        assert sa is not sb
        assert sa.__code__ is sb.__code__

    def test_another_particle_count_has_its_own_code(self):
        rng = np.random.default_rng(2501)
        four, six = (solvers._nbody_system(_random_species(rng, n), 3.0)[0]
                     for n in (4, 6))
        assert four.__code__ is not six.__code__

    def test_nothing_compiles_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(solvers.__file__)))
        code = ("import magnetotrio.cli\n"
                "from magnetotrio import solvers\n"
                "print(solvers._nbody_factory.cache_info().currsize)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"


def _assert_forms_are_direct(spec, sol):
    """Every closed form of ``sol`` equals the direct evaluation on its
    built state to 1e-12, relative above 1; returns the forms."""
    spec_b, state = build_initial_state(sol, spec)
    direct = table_values(spec_b, state)
    forms = conserved_closed_forms(spec, sol)
    for name, value in forms.items():
        assert abs(value - direct[name]) <= 1e-12 * max(1.0, abs(direct[name])), \
            (name, value, direct[name])
    return forms


class TestConservedForms:
    def test_third_at_rest_table(self, worked):
        sol = _rest_row(worked)
        assert sol.B == pytest.approx(config_I_v3zero_closed_form(worked, 1.0)[1],
                                      rel=1e-12)
        _assert_forms_are_direct(worked, sol)

    def test_identical_pair_table(self, electrons):
        sol = solve_config_I_identical(electrons, pair_distance_min(electrons),
                                       v3=1.0)[0]
        _assert_forms_are_direct(electrons, sol)

    def test_in_phase_collinear_table(self, spec4):
        sol = solve_config_II(spec4, v3_values=[1.5])[0]
        forms = _assert_forms_are_direct(spec4, sol)
        assert set(forms) == {"H", "K2", "Lz", "l1", "l2", "l3", "T1", "T2", "T3",
                              "k3x", "I"}

    def test_anti_phase_collinear_table(self, spec4):
        sol = solve_config_III(spec4, v3_values=[0.6])[0]
        _assert_forms_are_direct(spec4, sol)

    @pytest.mark.parametrize("vn", [1.5 * math.sqrt(2.0), 3.0])
    def test_nbody_table_beyond_three_charges(self, four, vn):
        [sol] = solve_nbody_II(four, vn_values=[vn])
        forms = _assert_forms_are_direct(four, sol)
        # k3x and I are table columns only at n = 3
        assert set(forms) == {"H", "K2", "Lz", *(f"{q}{i}" for q in "lT"
                                                 for i in range(1, 5))}

    def test_unknown_configuration(self, spec4):
        bogus = ConfigSolution(config="spiral", branch="0", v=(1.0, 1.0, 1.0),
                               omega=1.0, B=1.0)
        with pytest.raises(DomainError):
            conserved_closed_forms(spec4, bogus)

    def test_particle_count_mismatch(self, spec4, four):
        [sol] = solve_nbody_II(four, vn_values=[3.0])
        with pytest.raises(DomainError, match="different particle counts"):
            conserved_closed_forms(spec4, sol)


class TestCertification:
    @pytest.mark.parametrize("solve", [solve_config_III, solve_nbody_II])
    def test_no_solution_names_failed_roots(self, helium, solve):
        with pytest.raises(NoSolution, match=r"fail certification: v3=\S+: "
                                             r"v1=\S+ \((speed ordering|mirror)"):
            solve(helium)

    def test_rigidity_rejection_is_noted(self, four, monkeypatch):
        # a gate this tight leaves no row to the screen and fails every
        # integration (a gate of 0 has no logarithm)
        monkeypatch.setattr(solvers, "_RIGIDITY_TOL", 1e-300)
        with pytest.raises(NoSolution, match="pair distances drift"):
            solve_nbody_II(four, vn_values=[3.0])
        rows = solve_nbody_II(four, vn_values=[3.0], require_certified=False)
        # only a root that passed every other gate is integrated
        [row] = [r for r in rows if not math.isnan(r.rigidity)]
        assert not row.certified
        assert row.notes == (f"pair distances drift {row.rigidity:.3g} "
                             "within 0.25 period",)

    def test_stepper_underflow_rejects_the_root(self):
        # species 107 of default_rng(2026): at this vn the quarter-period
        # integration needs a step below the float spacing, which fails the
        # rigidity gate instead of ending the search
        rows = solve_nbody_II(UNDERFLOW_FIVE, [2.4022907818493007],
                              require_certified=False)
        [row] = rows
        assert not row.certified and math.isnan(row.rigidity)
        assert row.notes == ("rigidity integration stopped: Required step size "
                             "is less than spacing between numbers.",)
        with pytest.raises(NoSolution, match="rigidity integration stopped"):
            solve_nbody_II(UNDERFLOW_FIVE, [2.4022907818493007])

    def test_spent_step_budget_rejects_the_root(self, four, monkeypatch):
        # a gate this tight sends the root to the integration, and a budget
        # of one step ends it before the quarter period: the root is
        # rejected with the budget's message, the search goes on
        monkeypatch.setattr(solvers, "_RIGIDITY_TOL", 1e-300)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 1)
        rows = solve_nbody_II(four, vn_values=[3.0], require_certified=False)
        [row] = [r for r in rows if r.notes and "integration" in r.notes[0]]
        assert not row.certified and math.isnan(row.rigidity)
        assert re.fullmatch(r"rigidity integration stopped: the step budget of 1 "
                            r"accepted steps is spent at t = \S+, before "
                            r"t_end = \S+", row.notes[0])
        assert len(row.notes) == 1

    def test_collision_rejects_the_root(self, four, monkeypatch):
        # a collision fraction just below 1 stops a quarter-period
        # integration at the first dip of its closest pair distance, which
        # fails the rigidity gate instead of ending the search
        monkeypatch.setattr(solvers, "_SCREEN_MARGIN", _NO_SCREEN)
        monkeypatch.setattr(dynamics, "COLLISION_FRACTION", 1.0 - 1e-15)
        rows = solve_nbody_II(four, require_certified=False)
        stopped = [r for r in rows if r.notes
                   and r.notes[0].startswith("rigidity integration stopped")]
        assert stopped and not any(r.certified for r in rows)
        for row in stopped:
            assert math.isnan(row.rigidity) and len(row.notes) == 1
            assert re.fullmatch(r"rigidity integration stopped: particles \d and "
                                r"\d within \S+ of each other at t = \S+",
                                row.notes[0])
        with pytest.raises(NoSolution, match="rigidity integration stopped"):
            solve_nbody_II(four)

    @pytest.mark.parametrize("name, solve", [
        ("electrons_b2", lambda spec: solve_config_I_identical(spec, 2 * CBRT_10)),
        ("worked", lambda spec: solve_config_I(spec, [1.0], require_certified=False)),
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
                lambda: solve_config_I(spec, [0.7], require_certified=False),
                lambda: solve_config_I_identical(spec, 3.0),
                lambda: solve_config_I_identical(spec, 3.0, v3=1.0)]
        rows = []
        for solve in solves:
            try:
                rows += solve()
            except (DomainError, DegenerateError, NoSolution):
                pass
        assert rows
        for row in rows:
            assert row.certified == (not row.notes), row

    @pytest.mark.parametrize("name", ["spec4", "four"])
    def test_states_built_only_for_integrated_rows(self, name, request,
                                                   monkeypatch):
        # the Newton balance, the spectral screen and the rigidity
        # integration all read the line coordinates: no root has its state
        # built, and only a root that reaches the integration runs
        # ``dynamics._solve``, once, with the screen on and with it forced off
        spec = request.getfixturevalue(name)
        builds = []
        monkeypatch.setattr(solvers, "build_initial_state",
                            lambda *args: builds.append(args))
        runs = _watched_solves(monkeypatch)
        for margin in (solvers._SCREEN_MARGIN, _NO_SCREEN):
            monkeypatch.setattr(solvers, "_SCREEN_MARGIN", margin)
            runs.clear()
            rows = solve_nbody_II(spec, require_certified=False)
            integrated = sum(not math.isnan(r.rigidity) for r in rows)
            assert builds == [] and len(runs) == integrated
            assert integrated < len(rows)
            assert any(r.certified and _frame_drift(r, spec) < 1e-6 for r in rows)

    def test_newton_balance_flat_on_true_solution(self, spec4):
        sol = solve_config_II(spec4, v3_values=[1.5])[0]
        assert sol.newton_balance < 1e-10

    def test_newton_balance_large_on_false_root(self, helium):
        sol = solve_config_II(helium, v3_values=[150.0],
                              require_certified=False)[0]
        assert sol.newton_balance > 0.01


_GATE_NOTES = ("speed ordering outside the sector", "mirror rotation sense")


def _hexed(x):
    if isinstance(x, float):
        return x.hex()
    return tuple(map(_hexed, x)) if isinstance(x, tuple) else x


def _sweep_outcome(solve, spec, **kwargs):
    """Every field of every row ``solve`` returns, floats by ``float.hex``,
    or its NoSolution text."""
    try:
        rows = solve(spec, **kwargs)
    except NoSolution as ex:
        return str(ex)
    return [{f.name: _hexed(getattr(r, f.name)) for f in fields(r)} for r in rows]


def _gated(notes):
    return bool(notes) and notes[0] in _GATE_NOTES


_SEARCHES = [("spec4", solve_config_II), ("spec4", solve_config_III),
             ("spec4", solve_nbody_II), ("worked", solve_config_I),
             ("worked", solve_config_II), ("worked", solve_config_III),
             ("helium", solve_config_II), ("helium", solve_config_III),
             ("helium", solve_nbody_II), ("four", solve_nbody_II)]


class TestDeferredCertification:
    """A collinear root outside its sector or rotation sense is only gated
    until it leaves the package; every row a sweep returns, and every root
    a NoSolution message names, equals the eager certification of
    ``oracles.eager_collinear_solution`` field by field."""

    def _eager(self, monkeypatch, solve, spec, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(solvers, "_collinear_solution", eager_collinear_solution)
            return _sweep_outcome(solve, spec, **kwargs)

    def test_uncertified_sweeps_match_the_eager_reference(self, monkeypatch):
        rng = np.random.default_rng(43)
        species = [SystemSpec(1.0, rng.uniform(-3.0, 3.0, 3), rng.uniform(0.2, 3.0, 3))
                   for _ in range(12)]
        species += [_random_species(rng, n) for n in (4, 5, 6)]
        gated = passed = 0
        for spec in species:
            solves = ((solve_config_II, solve_config_III, solve_nbody_II)
                      if spec.n == 3 else (solve_nbody_II,))
            for solve in solves:
                want = self._eager(monkeypatch, solve, spec, require_certified=False)
                assert _sweep_outcome(solve, spec, require_certified=False) == want
                if isinstance(want, list):
                    gated += sum(_gated(r["notes"]) for r in want)
                    passed += sum(not _gated(r["notes"]) for r in want)
        # both kinds of row were compared
        assert gated > 100 and passed > 50

    @pytest.mark.parametrize("name, solve", [
        ("worked", solve_config_II), ("helium", solve_config_II),
        ("helium", solve_config_III), ("helium", solve_nbody_II)])
    def test_no_solution_text_matches_the_eager_reference(self, name, solve,
                                                          request, monkeypatch):
        spec = request.getfixturevalue(name)
        want = self._eager(monkeypatch, solve, spec)
        assert isinstance(want, str)
        assert _sweep_outcome(solve, spec) == want
        if name == "helium":
            # the named roots carry the notes past their gates
            assert want.count("Newton imbalance") == 4

    @pytest.mark.parametrize("name, solve", _SEARCHES)
    def test_balance_runs_only_for_rows_that_leave(self, name, solve, request,
                                                   monkeypatch):
        # one Newton balance per row inside both gates, one per gated row a
        # NoSolution message names, and one per row of an uncertified sweep
        spec = request.getfixturevalue(name)
        kwargs = {}
        if name == "four":
            kwargs["vn_values"] = sweep_grid(spec, "nbody-II", 1.5, 6.0, 4)
        reference = self._eager(monkeypatch, solve, spec, require_certified=False,
                                **kwargs)
        rows = reference if isinstance(reference, list) else []
        calls = [0]
        balance = solvers._newton_balance

        def counted(*args):
            calls[0] += 1
            return balance(*args)

        monkeypatch.setattr(solvers, "_newton_balance", counted)
        _sweep_outcome(solve, spec, require_certified=False, **kwargs)
        assert calls[0] == len(rows)
        calls[0] = 0
        outcome = _sweep_outcome(solve, spec, **kwargs)
        named = 0
        if isinstance(outcome, str) and "fail certification: " in outcome:
            named = sum(any(note in entry for note in _GATE_NOTES) for entry in
                        outcome.split("fail certification: ")[1].split("; "))
        assert calls[0] == sum(not _gated(r["notes"]) for r in rows) + named

    @pytest.mark.parametrize("require_certified", [True, False])
    def test_non_finite_line_keeps_every_root_uncertified(self, helium,
                                                          require_certified,
                                                          monkeypatch):
        # a line past the float range reads as Newton imbalance NaN: the
        # search goes on, no root is certified, each one's notes say so, and
        # the rows or the message are those of the eager certification
        line = solvers._line

        def broken(sol, spec):
            c, y = line(sol, spec)
            return c, [math.nan, *y[1:]]

        swapped = SystemSpec(1.0, (1.0, 4.0, 1.0), (5.0, 1.0, 1.0))
        monkeypatch.setattr(solvers, "_line", broken)
        for spec, solve, kwargs in ((helium, solve_config_II, {}),
                                    (swapped, solve_config_I, {"values": [1.0]})):
            kwargs["require_certified"] = require_certified
            want = self._eager(monkeypatch, solve, spec, **kwargs)
            assert _sweep_outcome(solve, spec, **kwargs) == want
            if require_certified:
                named = want.split("fail certification: ")[1].split("; ")
                assert all("Newton imbalance nan" in entry for entry in named)
            else:
                assert want and all(not r["certified"] and "Newton imbalance nan"
                                    in r["notes"] for r in want)


def _layout_speeds(config, v):
    """The signed speeds of a row's layout, written out: charge i sits at
    u_i / omega from the center."""
    if config == "I":
        return np.array([v[0], -v[1], 0.0])
    if config == "III":
        return np.array([v[0], v[1], -v[2]])
    return np.array(v)


def _in_sector(row):
    """The sector rule written out: the charges lie along the line in the
    layout's order, so I needs v1, v2 > 0, III v1 > v2 with any v3 > 0
    (charge 3, then 2, then 1), and II and n-body II increasing speeds."""
    v = row.v
    if row.config == "I":
        return v[0] > 0 and v[1] > 0
    if row.config == "III":
        return v[0] > v[1] and v[2] > 0
    return v[0] > 0 and all(a < b for a, b in zip(v, v[1:]))


@pytest.mark.parametrize("points", [-3, 0, 2.5, "4", np.float64(4.0)])
def test_sweep_grid_needs_a_whole_number_of_points(spec4, points):
    # numpy would raise its own ValueError or TypeError, or build an empty
    # grid that every search reports as "no solution"
    with pytest.raises(DomainError, match="grid points must be an integer of "
                                          "at least 1"):
        sweep_grid(spec4, "II", points=points)


@pytest.mark.parametrize("name, solve, message", [
    ("electrons", lambda spec: solve_config_I_identical(spec, 3.0, v3=-1.0),
     "v3 must be nonnegative"),
    ("electrons", lambda spec: solve_config_I_identical(spec, 0.0),
     "pair separation must be positive"),
    ("electrons", lambda spec: solve_config_I_identical(spec, -1.0),
     "pair separation must be positive"),
    ("spec4", lambda spec: solve_config_I_identical(spec, 1.0),
     "identical-pair branch needs e1 = e2 and m1 = m2"),
    ("four", lambda spec: solve_config_I_identical(spec, 1.0),
     "Configuration I is a three-charge system"),
], ids=["identical-v3-negative", "identical-rho12-zero", "identical-rho12-negative",
        "identical-pair-not-identical", "identical-four-charges"])
def test_public_guards(request, name, solve, message):
    with pytest.raises(DomainError, match=message):
        solve(request.getfixturevalue(name))


@pytest.mark.parametrize("solve, charges", [
    (solve_config_I, (1.0, 2.0, 3.0)), (solve_config_II, (1.0, 2.0, 3.0)),
    (solve_config_III, (1.0, 2.0, 3.0)), (solve_nbody_II, (1.0, 2.0, 3.0)),
    (solve_nbody_II, (1.0, 2.0, 3.0, 4.0))],
    ids=["I", "II", "III", "nbody-II-3", "nbody-II-4"])
def test_equal_ratio_no_go_gives_the_zero_field(solve, charges):
    # one charge-to-mass ratio alpha makes kappa = alpha at any speeds, and
    # then the field closed form gives B = 0, in every layout; only the
    # three-charge sweeps of II, III and n-body II form the elimination
    # sextic that vanishes identically
    spec = SystemSpec(1.0, charges, charges)
    with pytest.raises(NoSolution) as err:
        solve(spec)
    sextic = solve is not solve_config_I and len(charges) == 3
    assert str(err.value) == (
        "equal charge-to-mass ratios (alpha = 1): kappa = alpha at any speeds, "
        "so the field closed form gives B = 0"
        + (" and the elimination polynomial vanishes identically" if sextic else "")
        + "; no collinear rigid rotation exists")


def test_sweep_grid_of_one_point(spec4):
    assert sweep_grid(spec4, "II", points=np.int64(1)).tolist() == [1.5]


def test_sweep_skips_values_that_are_not_positive_floats(spec4):
    # a caller's grid may hold NaN, inf, 0 or negative values: no point is
    # tried there, and no reason from them reaches a message
    rows = solve_config_II(spec4, [math.nan, -1.0, 0.0, math.inf, 1.5],
                           require_certified=False)
    assert rows and (list(map(repr, rows)) == list(map(repr, solve_config_II(
        spec4, [1.5], require_certified=False))))


@pytest.mark.parametrize("name", ["four", "five"])
def test_nbody_search_at_or_below_v2_runs_no_newton(name, request, monkeypatch):
    # vn <= v2 puts no speed ordering within reach, so no seed is tried
    spec, seeds = request.getfixturevalue(name), []
    newton = solvers._damped_newton

    def spy(system, u0):
        seeds.append(u0)
        return newton(system, u0)

    monkeypatch.setattr(solvers, "_damped_newton", spy)
    with pytest.raises(NoSolution, match="rotation on the sampled grid$"):
        solve_nbody_II(spec, [0.5, 1.0], require_certified=False)
    assert seeds == []
    solve_nbody_II(spec, [3.0], require_certified=False)
    assert len(seeds) == len(solvers._SEEDS_V1)


@pytest.mark.parametrize("rows, worst", [
    ([[1.0, math.inf], [1.0, -1.0]], math.inf),
    ([[math.nan, 1.0]], math.inf),
    ([[1.0, -0.5, 0.25], [0.0, 0.0]], 0.75),
], ids=["inf-term", "nan-term", "finite"])
def test_relative_norm_reads_a_non_finite_term_as_unbalanced(rows, worst):
    # inf / inf and NaN ratios would fall out of the max as balanced rows
    assert solvers._relative_norm(lambda: rows) == worst


@pytest.mark.parametrize("coeffs", [
    [1.0, math.nan, 0.0, 0.0, 0.0, 0.0, -1.0],
    [1e-300, 1e300, 0.0, 0.0, 0.0, 0.0, -1.0]], ids=["nan", "inf"])
def test_sextic_roots_refuse_a_non_finite_companion_row(coeffs, capfd):
    # LAPACK is never handed the row: a NaN one makes it print an illegal
    # argument to the terminal, an infinite one gives NaN eigenvalues that
    # no gate names
    def at(v2, v3):
        return coeffs, (lambda v1: 0.0), (lambda v1: 0.0)

    with pytest.raises(DegenerateError, match=r"the elimination sextic overflows "
                                              r"at \(v2, v3\) = \(1, 2\)"):
        solvers._p6_roots_v1(at, 1.0, 2.0)
    assert capfd.readouterr() == ("", "")


def test_geomspace_is_numpys_to_the_bit():
    # equal bounds, neighbouring bounds, 1 and 2 points and ratios up to 1e12
    rng = np.random.default_rng(84)
    for _ in range(200):
        lo = float(np.exp(rng.uniform(-30.0, 30.0)))
        for hi in (lo, math.nextafter(lo, math.inf), lo * 10.0 ** rng.uniform(0.0, 12.0)):
            for num in (1, 2, 3, int(rng.integers(4, 300))):
                got = solvers._geomspace(lo, hi, num)
                assert _same_floats(got, np.geomspace(lo, hi, num).tolist()), (lo, hi, num)


@pytest.mark.parametrize("config", ["nbody", "IV", "ii", ""])
def test_sweep_grid_refuses_an_unknown_tag(spec4, config):
    with pytest.raises(DomainError, match=f"unknown configuration tag {config!r}"):
        sweep_grid(spec4, config)


@pytest.mark.parametrize("name, solve", [
    ("worked", lambda spec: solve_config_I(spec, [1.0])),
    ("electrons", lambda spec: solve_config_I_identical(
        spec, pair_distance_min(spec), v3=1.0)),
    ("spec4", lambda spec: solve_config_II(spec, v3_values=[1.5])),
    ("spec4", lambda spec: solve_config_III(spec, v3_values=[0.6])),
    ("four", lambda spec: solve_nbody_II(spec, vn_values=[3.0])),
], ids=["I-rest", "I-orbit", "II", "III", "nbody-II"])
def test_built_state_is_the_line_vector(request, name, solve):
    # build_initial_state reshapes _line's solver vector, bit for bit
    spec = request.getfixturevalue(name)
    sol = solve(spec)[0]
    spec_b, state = build_initial_state(sol, spec)
    _, y = solvers._line(sol, spec)
    assert spec_b.B == sol.B
    assert (np.concatenate([state.positions.ravel(), state.velocities.ravel()])
            .tobytes() == np.array(y).tobytes())


class TestBuiltRows:
    """Every row the four solvers return, certified or not: its built state
    is its layout, it carries that state's Newton balance, and its closed
    forms are the direct evaluation of that state."""

    @pytest.mark.parametrize("seed", range(6))
    @given(draw=st.integers(0, 2**32 - 1))
    @example(draw=0)
    @settings(max_examples=2, deadline=None)
    def test_rows_of_seeded_species(self, seed, draw):
        # draw = 0 is the fixed species of seed 5200 + seed
        rng = np.random.default_rng(5200 + seed + 6 * draw)
        three = _random_species(rng, 3)
        # the ``four`` species perturbed by up to 10%: random four-charge
        # species rarely rotate on a four-point grid
        four = SystemSpec(1.0, rng.uniform(0.9, 1.1, 4) * [3.0, -1.0, 1.0, 2.0],
                          rng.uniform(0.9, 1.1, 4) * [1.0, 1.0, 3.0, 2.0])
        (e1, e3), (m, m3) = rng.uniform(-3.0, 3.0, 2), rng.uniform(0.2, 3.0, 2)
        runs = [(solve_config_I, "I", SystemSpec(three.B, (e1, e1, e3), (m, m, m3))),
                (solve_config_I, "I",
                 SystemSpec(-three.B, (e1, e1, e1 / m * m3), (m, m, m3))),
                (solve_config_I, "I",
                 SystemSpec(three.B, np.abs(three.charges) * [1, 1, np.sign(e3)],
                            three.masses)),
                (solve_config_II, "II", three), (solve_config_III, "III", three),
                (solve_nbody_II, "nbody-II", three), (solve_nbody_II, "nbody-II", four)]
        grids = [sweep_grid(spec, config, points=4) for _, config, spec in runs]
        # III beyond v3 = v2 as well
        runs.append(runs[4])
        grids.append(sweep_grid(three, "III", grid_max=20.0, points=4))
        rows = []
        for (solve, config, spec), grid in zip(runs, grids):
            try:
                rows += [(spec, row) for row in solve(spec, grid,
                                                      require_certified=False)]
            except NoSolution:
                continue
        assert rows
        for spec, row in rows:
            assert row.certified == (not row.notes), row
            spec_b, state = build_initial_state(row, spec)
            pos, vel = state.positions, state.velocities
            assert not pos[:, 1].any() and not vel[:, 0].any()
            sigma = 1.0 if row.sense == "cw" else -1.0
            c = row.v[2] / row.omega3 if row.config == "I" and row.v[2] else 0.0
            if row.config == "I":
                assert pos[2, 0] == c            # charge 3 is the center
            u = _layout_speeds(row.config, row.v)
            scale = np.abs(pos).max() + np.abs(vel).max()
            assert np.abs(pos[:, 0] - (c + u / row.omega)).max() <= 1e-14 * scale
            cvel = -sigma * row.v[2] if row.config == "I" else 0.0
            assert np.abs(vel[:, 1] - (cvel - sigma * u)).max() <= 1e-14 * scale
            balance = newton_balance(row, spec_b, state)
            assert balance.hex() == row.newton_balance.hex()
            _assert_forms_are_direct(spec, row)
            if row.certified:
                assert _in_sector(row) and row.newton_balance < 1e-6, row
                assert math.isfinite(row.growth), row
                if row.config == "nbody-II":
                    assert gate_drift(row, spec) < 1e-6


class TestCoRotatingCertification:
    """The rigidity gate integrates each rotation in its own frame, where it
    is an equilibrium of g(y) = f(y) + w (I x J) y."""

    @pytest.mark.parametrize("name, solve", [
        ("spec4", solve_config_II), ("spec4", solve_config_III),
        ("spec4", solve_nbody_II), ("worked", solve_config_III),
        ("four", solve_nbody_II)],
        ids=["spec4-II", "spec4-III", "spec4-nbody-II", "worked-III",
             "four-nbody-II"])
    def test_certified_rows_are_equilibria_of_the_frame(self, name, solve,
                                                        request):
        spec = request.getfixturevalue(name)
        rows = solve(spec)
        assert rows
        for row in rows:
            spec_b, state = build_initial_state(row, spec)
            y = np.concatenate([state.positions.ravel(), state.velocities.ravel()])
            # the kernel the gate integrates, and the inertial one for scale
            g = dynamics._rhs(spec_b, solvers._frame_omega(row))(0.0, y)
            f = dynamics._rhs(spec_b)(0.0, y)
            assert np.abs(g).max() / max(1.0, np.abs(f).max()) < 1e-6, row

    @pytest.mark.parametrize("name, vn", [("spec4", 1.5), ("four", 3.0)])
    def test_both_frames_agree_on_rigid_and_kicked_states(self, name, vn,
                                                          request, monkeypatch):
        monkeypatch.setattr(solvers, "_SCREEN_MARGIN", _NO_SCREEN)
        spec = request.getfixturevalue(name)
        [sol] = solve_nbody_II(spec, [vn])
        spec_b, state = build_initial_state(sol, spec)
        inertial, rotating = gate_drifts(sol, spec_b, state)
        assert rotating == sol.rigidity
        assert max(inertial, rotating) < solvers._RIGIDITY_TOL
        # v1 kicked by 1e-3 along its own direction: no longer a rotation
        vel = state.velocities.copy()
        vel[0] *= 1.0 + 1e-3 / sol.v[0]
        kicked = PhaseState(state.positions, vel)
        assert min(gate_drifts(sol, spec_b, kicked)) > solvers._RIGIDITY_TOL

    def test_certification_integrates_in_the_frame(self, spec4, monkeypatch):
        # the inertial runs took 422-467 nfev per root on this grid; a
        # return to the inertial frame would show here
        monkeypatch.setattr(solvers, "_SCREEN_MARGIN", _NO_SCREEN)
        runs = _watched_solves(monkeypatch)
        rows = solve_nbody_II(spec4, sweep_grid(spec4, "nbody-II", points=4),
                              require_certified=False)
        integrated = [r for r in rows if not math.isnan(r.rigidity)]
        assert len(integrated) == len(runs) == 4
        assert all(r.certified for r in integrated)
        assert (sorted(run["w"] for run in runs)
                == sorted(solvers._frame_omega(r) for r in integrated))
        assert all(run["w"] != 0.0 and run["nfev"] <= 150 for run in runs), runs


def _central_linearization(sol, spec, rel=1e-6):
    """The per-coordinate central difference of the rotating kernel at the
    rotation's line coordinates: steps of ``rel`` times the closest pair's
    gap along positions, of the fastest speed along velocities."""
    y = np.array(solvers._line(sol, spec)[1])
    x, vy = y[:2 * spec.n:2], y[2 * spec.n + 1::2]
    g = dynamics._rhs(spec, solvers._frame_omega(sol), B=sol.B)
    gap = min(abs(a - b) for a in x for b in x if a != b)
    A = np.empty((len(y), len(y)))
    for k in range(len(y)):
        h = rel * (gap if k < 2 * spec.n else max(map(abs, vy)))
        up, um = y.copy(), y.copy()
        up[k] += h
        um[k] -= h
        A[:, k] = (np.array(g(0.0, up)) - g(0.0, um)) / (2.0 * h)
    return A


# a screen margin this small leaves every row to the rigidity integration
# (a margin of 0 has no logarithm)
_NO_SCREEN = 1e-300


def _screen_clears(row):
    """The spectral screen written out: the Newton balance, or machine
    epsilon where that is larger, times e^growth at most 1e-2 of the 1e-6
    rigidity gate."""
    return (max(row.newton_balance, sys.float_info.epsilon) * math.exp(row.growth)
            <= 1e-8)


def _old_screen_clears(row):
    """The screen before it took machine epsilon as the balance's floor: a
    growth cap of 10 and the balance times e^growth at most 1e-2 of the
    gate."""
    return row.growth < 10.0 and row.newton_balance * math.exp(row.growth) <= 1e-8


def _frame_of(rhs):
    """The frame frequency w bound into a kernel of ``dynamics._rhs``; 0.0
    for the inertial kernel, which has no frame term."""
    cells = dict(zip(rhs.__code__.co_freevars, rhs.__closure__ or ()))
    return cells["w"].cell_contents if "w" in cells else 0.0


def _watched_solves(monkeypatch):
    """Record each call of ``dynamics._solve``, the stepper loop of every
    integration, as a dict: the frame ``w`` of its kernel, its start
    vector ``y0`` and, once it returns, its ``nfev``."""
    runs, solve = [], dynamics._solve

    def watched(spec, rhs, y0, *args):
        run = {"w": _frame_of(rhs), "y0": y0}
        runs.append(run)
        out = solve(spec, rhs, y0, *args)
        run["nfev"] = out[2]["nfev"]
        return out

    monkeypatch.setattr(dynamics, "_solve", watched)
    return runs


def _frame_drift(row, spec):
    """The drift of ``row``'s built state over the rigidity gate's horizon,
    integrated in its own frame here, never read back from ``row``."""
    [drift] = gate_drifts(row, *build_initial_state(row, spec), inertial=False)
    return drift


def _rigid(row):
    """The single-frequency rotation the rigidity gate reads for ``row``:
    a Configuration-I row whose third charge runs its own circle, with that
    circle taken off every charge, else the row itself."""
    return replace(row, v=(*row.v[:2], 0.0), omega3=0.0) if row.omega3 else row


# (fixture, search) pairs of every configuration; an identical pair with a
# common charge-to-mass ratio sweeps with its third charge on its circle
_SPECTRUM_CASES = {
    "spec4": ("spec4", solve_nbody_II), "four": ("four", solve_nbody_II),
    "five": ("five", solve_nbody_II), "spec4-II": ("spec4", solve_config_II),
    "spec4-III": ("spec4", solve_config_III), "worked-III": ("worked", solve_config_III),
    "worked-I": ("worked", solve_config_I), "electrons-I": ("electrons", solve_config_I)}


class TestSpectralScreen:
    """The rigidity gate of every configuration integrates only rows whose
    rotating-frame spectrum lets the stepper's error grow toward the gate."""

    @pytest.mark.parametrize("case", list(_SPECTRUM_CASES))
    def test_closed_form_matches_the_oracles(self, case, request):
        name, solve = _SPECTRUM_CASES[case]
        spec = request.getfixturevalue(name)
        rows = [_rigid(row) for row in solve(spec, require_certified=False)]
        assert rows
        for row in rows:
            A = solvers._linearization(row, spec, solvers._line(row, spec))
            assert type(A) is np.ndarray and A.dtype == float
            oracle = complex_step_linearization(row, spec)
            assert np.abs(A - oracle).max() <= 1e-13 * np.abs(oracle).max(), row
            oracle = _central_linearization(row, spec)
            assert np.abs(A - oracle).max() <= 1e-8 * np.abs(oracle).max(), row

    def test_bytes_match_the_walk(self, spec4, worked, four, five, electrons,
                                  monkeypatch):
        # A of every row that reaches the screen on the default grids holds
        # the bytes of the nested-list fill (the electrons' rows are twins
        # of rows with a second frequency, whose line is built anew)
        linearization, seen = solvers._linearization, []

        def spy(sol, spec, line):
            A = linearization(sol, spec, line)
            assert A.tobytes() == linearization_walk(sol, spec).tobytes(), sol
            seen.append(sol)
            return A

        monkeypatch.setattr(solvers, "_linearization", spy)
        searches = [(spec4, solve_config_II), (spec4, solve_config_III),
                    (spec4, solve_nbody_II), (worked, solve_config_I),
                    (worked, solve_config_II), (worked, solve_config_III),
                    (worked, solve_nbody_II), (four, solve_nbody_II),
                    (five, solve_nbody_II), (electrons, solve_config_I)]
        for spec, solve in searches:
            try:
                solve(spec, require_certified=False)
            except NoSolution:
                pass
        assert {len(sol.v) for sol in seen} == {3, 4, 5}
        assert {sol.config for sol in seen} == {"I", "II", "III", "nbody-II"}

    @pytest.mark.parametrize("case", ["spec4", "four", "spec4-II", "spec4-III",
                                      "worked-I", "electrons-I"])
    def test_spectrum_is_hamiltonian(self, case, request):
        # a rigid rotation is an equilibrium of a Hamiltonian field, so its
        # exponents come as lambda, -lambda, conj(lambda)
        name, solve = _SPECTRUM_CASES[case]
        spec = request.getfixturevalue(name)
        rows = solve(spec)
        assert rows
        for row in rows:
            twin = _rigid(row)
            ev = np.linalg.eigvals(solvers._linearization(
                twin, spec, solvers._line(twin, spec)))
            tol = 1e-10 * np.abs(ev).max()
            for lam in ev:
                assert np.abs(ev + lam).min() <= tol, (row, lam)
                assert np.abs(ev - lam.conjugate()).min() <= tol, (row, lam)
            t_q = 0.25 * 2.0 * math.pi / row.omega
            assert row.growth == ev.real.max() * t_q

    @pytest.mark.parametrize("case", ["spec4", "four", "spec4-II", "spec4-III",
                                      "worked-III"])
    def test_default_grids_integrate_nothing(self, case, request, monkeypatch):
        name, solve = _SPECTRUM_CASES[case]
        spec = request.getfixturevalue(name)
        runs = _watched_solves(monkeypatch)
        rows = solve(spec)
        assert len(runs) == 0
        assert rows and all(_screen_clears(r) and math.isnan(r.rigidity)
                            for r in rows)

    @pytest.mark.parametrize("fault", ["overflow", "non-finite"])
    def test_unformed_spectrum_integrates(self, spec4, monkeypatch, fault):
        # an overflowing kernel or a non-finite entry leaves no spectrum:
        # the row is integrated as without the screen
        def linearization(sol, spec, line):
            if fault == "overflow":
                raise OverflowError("(34, 'Numerical result out of range')")
            return np.full((12, 12), np.inf)

        monkeypatch.setattr(solvers, "_linearization", linearization)
        [row] = solve_nbody_II(spec4, [1.5])
        assert row.certified and math.isnan(row.growth)
        assert row.rigidity < solvers._RIGIDITY_TOL

    def test_growth_past_the_exp_range_integrates(self, spec4, monkeypatch):
        # the bound is compared in logarithms, so a growth above 709.8,
        # where math.exp overflows, integrates the row instead of raising
        monkeypatch.setattr(solvers, "_linearization",
                            lambda sol, spec, line: 1e300 * np.eye(12))
        [row] = solve_nbody_II(spec4, [1.5])
        assert row.growth > 1e3 and row.certified
        assert row.rigidity < solvers._RIGIDITY_TOL

    def test_seeded_study_against_the_integration(self):
        # every tenth species of the 300-species study, and the four whose
        # II or III rows the integration rejects: each row the screen passes
        # stays below the gate when integrated, each rejected row lies
        # above the screen, and II and n-body II give every root one verdict
        rng = np.random.default_rng(300)
        species = [SystemSpec(1.0, rng.uniform(-3.0, 3.0, 3), rng.uniform(0.2, 3.0, 3))
                   for _ in range(300)]
        grid = np.geomspace(1.5, 20.0, 24)
        counts = {}
        screened, drifting = [], {"nbody-II": [], "II": [], "III": []}
        for k in sorted({*range(0, 300, 10), 125, 212, 223, 246}):
            runs = {}
            for solve in (solve_nbody_II, solve_config_II, solve_config_III):
                try:
                    rows = runs[solve] = solve(species[k], grid, require_certified=False)
                except NoSolution:
                    continue
                for row in rows:
                    if row.certified:
                        how = "screened" if math.isnan(row.rigidity) else "integrated"
                        counts[row.config, how] = counts.get((row.config, how), 0) + 1
                        if how == "screened":
                            screened.append((species[k], row))
                    elif any(note.startswith("pair distances drift") for note in row.notes):
                        drifting[row.config].append((k, round(row.v[2], 3), row))
            if solve_config_II in runs:
                assert ([repr(replace(r, config="II")) for r in runs[solve_nbody_II]]
                        == list(map(repr, runs[solve_config_II])))
        assert (counts["nbody-II", "screened"], counts["nbody-II", "integrated"]) == (25, 22)
        assert counts["II", "screened"] == 25 and counts["III", "screened"] > 0
        for spec, row in screened:
            assert _screen_clears(row)
            assert gate_drift(row, spec) < solvers._RIGIDITY_TOL, row
        # the rows the screen clears only since eps floors the balance
        assert sum(not _old_screen_clears(row) for _, row in screened) == 17
        rejected = [(125, 1.5), (212, 1.879), (212, 5.177), (212, 10.176),
                    (212, 12.746), (246, 1.5)]
        assert [(k, v3) for k, v3, _ in drifting["nbody-II"]] == rejected
        assert [(k, v3) for k, v3, _ in drifting["II"]] == rejected
        assert [(k, v3) for k, v3, _ in drifting["III"]] == [
            (223, v3) for v3 in (9.092, 10.176, 11.389, 12.746, 14.266, 15.966,
                                 17.87, 20.0)]
        for rows in drifting.values():
            for _, _, row in rows:
                assert not row.certified and not _screen_clears(row)
                assert row.rigidity >= solvers._RIGIDITY_TOL
                assert row.notes == (f"pair distances drift {row.rigidity:.3g} "
                                     "within 0.25 period",)

    def test_config_I_study_against_the_integration(self):
        # every other of 600 seeded Configuration-I species of three
        # kinds: an identical pair with its third charge at rest, one with a
        # common charge-to-mass ratio (the third charge on its own circle)
        # and a non-identical pair of one sign about a resting third charge.
        # Each row the screen clears but the growth cap of 10 did not stays
        # below the gate when its twin is integrated
        rng = np.random.default_rng(41)
        species = []
        for k in range(600):
            B = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            if k % 3 == 0:
                e = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
                m = float(rng.uniform(0.2, 3.0))
                species.append(SystemSpec(B, (e, e, float(rng.uniform(-3.0, 3.0))),
                                          (m, m, float(rng.uniform(0.2, 3.0)))))
            elif k % 3 == 1:
                alpha = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
                m, m3 = (float(x) for x in rng.uniform(0.2, 3.0, 2))
                species.append(SystemSpec(B, (alpha * m, alpha * m, alpha * m3),
                                          (m, m, m3)))
            else:
                e12 = rng.uniform(0.2, 3.0, 2) * rng.choice([-1.0, 1.0])
                species.append(SystemSpec(B, (*e12, float(rng.uniform(-3.0, 3.0))),
                                          rng.uniform(0.2, 3.0, 3)))
        counts, newly = {}, {0: 0, 1: 0, 2: 0}
        for k in range(0, 600, 2):
            for row in solve_config_I(species[k], require_certified=False):
                if not math.isnan(row.rigidity):
                    how = "integrated" if row.certified else "rejected"
                    assert not _screen_clears(row)
                elif row.certified:
                    how = "screened"
                    assert _screen_clears(row)
                    if not _old_screen_clears(row):
                        newly[k % 3] += 1
                        assert (gate_drift(_rigid(row), species[k])
                                < solvers._RIGIDITY_TOL), row
                else:
                    continue
                counts[how] = counts.get(how, 0) + 1
        assert counts == {"screened": 5259, "integrated": 6, "rejected": 15}
        assert newly == {0: 78, 1: 30, 2: 24}

    def test_unstable_identical_pair_rows_are_rejected(self):
        # a light opposite third charge: two slow "-" branch rows of the
        # default grid drift past the gate within a quarter period
        spec = SystemSpec(1.0, (1.0, 1.0, -0.1), (1.0, 1.0, 1.0))
        rows = solve_config_I(spec, require_certified=False)
        assert len(rows) == 24 and all(math.isfinite(r.growth) for r in rows)
        drifting = [r for r in rows if not r.certified]
        assert [r.branch for r in drifting] == ["-", "-"]
        assert [r.v[0] for r in drifting] == pytest.approx([0.017054, 0.013231], rel=1e-4)
        for row in drifting:
            assert row.notes == (f"pair distances drift {row.rigidity:.3g} "
                                 "within 0.25 period",)
            assert row.rigidity > solvers._RIGIDITY_TOL
            assert gate_drifts(row, *build_initial_state(row, spec))[0] > 1e-6
        assert [r.v for r in solve_config_I(spec)] == [r.v for r in rows if r.certified]

    def test_slow_identical_pair_row_is_certified_by_the_screen(self, monkeypatch):
        # omega 1.32e-3: the co-rotating integration at the gate's 1e-10
        # tolerances reads a spurious 1.16e-6 drift on this rigid row, so
        # its verdict must stay with the screen
        spec = SystemSpec(0.2223314678742986,
                          (0.3816057057714888, 0.3816057057714888, 2.5515454228304666),
                          (1.0193201110428733, 1.0193201110428733, 0.4965205962739579))
        runs = _watched_solves(monkeypatch)
        rows = solve_config_I(spec, sweep_grid(spec, "I", points=4))
        assert runs == []
        [row] = [r for r in rows if r.branch == "-" and r.v[0] == 0.027644934678936785]
        assert row.certified and row.omega == pytest.approx(1.3215e-3, rel=1e-4)
        assert row.growth == pytest.approx(1.4509, rel=1e-4)
        assert _screen_clears(row) and math.isnan(row.rigidity)

    @pytest.mark.parametrize("species", [
        SystemSpec(-2.0, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        SystemSpec(1.0, (1.0, 1.0, 2.0), (1.0, 1.0, 2.0))],
        ids=["electrons", "common-ratio"])
    def test_twin_verdict_holds_for_the_orbit(self, species):
        # with one charge-to-mass ratio the third charge runs its own
        # circle; the gate reads the twin with that circle removed, and an
        # inertial integration of the orbit itself gives the same verdict
        rows = solve_config_I(species, require_certified=False)
        assert rows and all(r.omega3 > 0.0 and r.v[2] == 1.0 for r in rows)
        for row in rows:
            assert math.isfinite(row.growth)
            inertial, _ = gate_drifts(row, *build_initial_state(row, species))
            assert row.certified == (inertial < solvers._RIGIDITY_TOL), row
            twin = _rigid(row)
            assert gate_drift(twin, species) < solvers._RIGIDITY_TOL

    def test_orbit_integrates_its_twin(self, electrons, monkeypatch):
        # with the screen off every row is integrated, from the twin's state
        # (the third charge at rest at the center) in the twin's own frame,
        # where it is an equilibrium
        monkeypatch.setattr(solvers, "_SCREEN_MARGIN", _NO_SCREEN)
        runs = _watched_solves(monkeypatch)
        rows = solve_config_I(electrons)
        assert len(runs) == len(rows) > 0
        for run in runs:
            # charge 3's position (x, y), then its velocity, in y0
            assert not run["y0"][[4, 5, 10, 11]].any()
        assert (sorted(run["w"] for run in runs)
                == sorted(solvers._frame_omega(r) for r in rows))
        for row in rows:
            assert row.v[2] == 1.0 and not math.isnan(row.rigidity)
            assert row.rigidity == _frame_drift(_rigid(row), electrons)

    @pytest.mark.parametrize("case", ["II", "nbody-II"])
    def test_integrated_collinear_row_reads_the_gate_drift(self, case, four):
        # rows the screen leaves to the integration: species 125 of the
        # 300-species study at its second v3, and the 22nd FOUR variant of
        # default_rng(2026) (charges, then masses, times U(0.8, 1.2)) at
        # vn = 1.5 on its default grid; the built state's own run in the
        # frame gives the gate's drift to the bit
        if case == "II":
            rng = np.random.default_rng(300)
            for _ in range(126):
                spec = SystemSpec(1.0, rng.uniform(-3.0, 3.0, 3),
                                  rng.uniform(0.2, 3.0, 3))
            rows = solve_config_II(spec, np.geomspace(1.5, 20.0, 24))
            v_last, rigidity, growth = 1.67881035348026, 4.2525e-8, 15.192
        else:
            rng = np.random.default_rng(2026)
            for _ in range(22):
                spec = SystemSpec(1.0, four.charges * rng.uniform(0.8, 1.2, 4),
                                  four.masses * rng.uniform(0.8, 1.2, 4))
            rows = solve_nbody_II(spec)
            v_last, rigidity, growth = 1.5, 6.0463e-11, 12.801
        [row] = [r for r in rows if r.v[-1] == v_last]
        assert row.certified and not _screen_clears(row)
        assert row.rigidity == _frame_drift(row, spec)
        assert row.rigidity == pytest.approx(rigidity, rel=1e-3)
        assert row.growth == pytest.approx(growth, rel=1e-4)


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

    @pytest.mark.parametrize("v3", [0.0, 1.0])
    def test_identical_pair_rows(self, electrons, v3):
        # three electrons at B = -2, the third at rest or on its own circle
        rows = solve_config_I_identical(electrons, 2 * CBRT_10, v3=v3)
        assert len(rows) == 2
        for row in rows:
            values = (*row.v, row.omega, row.B, row.omega3, row.residual_norm,
                      row.newton_balance)
            assert [type(x) for x in values] == [float] * len(values), row


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
