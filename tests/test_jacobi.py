import numpy as np
import pytest
from conftest import electron_orbit, separated_state

from magnetotrio import (DomainError, IntegratorSettings, JacobiState,
                         PhaseState, SystemSpec, apply_cc, charge_coefficients,
                         from_jacobi, hamiltonian, hamiltonian_jacobi,
                         integrate, integrate_jacobi, invert_cc,
                         jacobi_weights, pseudomomentum, pseudomomentum_jacobi,
                         to_jacobi)


class TestWeights:
    def test_basic_identities(self, spec4):
        w = jacobi_weights(spec4)
        assert sum(w.mu) == pytest.approx(1.0, rel=1e-15)
        assert w.M == 5.0 and w.Q == 3.0
        assert w.mt1 == pytest.approx(0.5)       # 1*1/(1+1)
        assert w.mt2 == pytest.approx(2.0 * 3.0 / 5.0)

    def test_coupling_charges(self, spec4):
        # (m2 e1 - m1 e2)/m12 etc., worked out by hand for (3,-1,1)/(1,1,3)
        ec1, ec2, e1eff, e2eff = charge_coefficients(spec4)
        assert ec1 == pytest.approx(2.0)
        assert ec2 == pytest.approx(0.8)
        assert e1eff == pytest.approx(0.5)
        assert e2eff == pytest.approx(0.88)

    def test_equal_ratio_species_decouple(self, electrons):
        ec1, ec2, _, _ = charge_coefficients(electrons)
        assert ec1 == 0.0 and ec2 == 0.0

    def test_three_particles_only(self):
        with pytest.raises(DomainError):
            jacobi_weights(SystemSpec(B=1.0, charges=(1.0, 1.0), masses=(1.0, 1.0)))


class TestRoundTrips:
    def test_coordinates(self, spec4, rng):
        for _ in range(5):
            pos, vel = separated_state(rng, 3)
            back_pos, back_vel = from_jacobi(spec4, to_jacobi(spec4, pos, vel))
            assert np.allclose(back_pos, pos, rtol=0, atol=1e-13)
            assert np.allclose(back_vel, vel, rtol=0, atol=1e-13)

    def test_momentum_shift_inverse(self, spec4, rng):
        pos, vel = separated_state(rng, 3)
        js = to_jacobi(spec4, pos, vel)
        back = invert_cc(spec4, apply_cc(spec4, js))
        for field in ("R", "tau1", "tau2", "P", "ptau1", "ptau2"):
            assert np.allclose(getattr(back, field), getattr(js, field),
                               rtol=0, atol=1e-14)


    def test_stack_matches_rows_bit_for_bit(self, spec4, rng):
        rows = [to_jacobi(spec4, *separated_state(rng, 3)) for _ in range(6)]
        fields = ("R", "tau1", "tau2", "P", "ptau1", "ptau2")
        stack = JacobiState(*(np.array([getattr(js, f) for js in rows])
                              for f in fields))
        pos, vel = from_jacobi(spec4, stack)
        assert pos.shape == vel.shape == (6, 3, 2)
        for k, js in enumerate(rows):
            pos_k, vel_k = from_jacobi(spec4, js)
            assert np.array_equal(pos[k], pos_k)
            assert np.array_equal(vel[k], vel_k)


class TestReducedHamiltonian:
    def test_matches_cartesian(self, spec4, helium, rng):
        for spec in (spec4, helium):
            for _ in range(10):
                pos, vel = separated_state(rng, 3)
                js = apply_cc(spec, to_jacobi(spec, pos, vel))
                hc = hamiltonian_jacobi(spec, js)
                h = hamiltonian(spec, pos, vel)
                assert hc == pytest.approx(h, rel=1e-12)

    def test_pseudomomentum_matches(self, spec4, rng):
        pos, vel = separated_state(rng, 3)
        js = apply_cc(spec4, to_jacobi(spec4, pos, vel))
        assert np.allclose(pseudomomentum_jacobi(spec4, js),
                           pseudomomentum(spec4, pos, vel), rtol=0, atol=1e-12)


class TestIntegration:
    def test_derived_route_tracks_cartesian(self):
        spec, pos, vel = electron_orbit()
        state = PhaseState(pos, vel)
        settings = IntegratorSettings(t_end=2.0, rel_tol=1e-12, abs_tol=1e-12,
                                      sample_interval=0.25)
        ref = integrate(spec, state, settings)
        jac = integrate_jacobi(spec, state.copy(), settings)
        assert np.allclose(jac.t, ref.t)
        assert np.max(np.abs(jac.positions - ref.positions)) < 1e-7

    def test_returns_cartesian_samples(self, spec4, rng):
        pos, vel = separated_state(rng, 3, min_sep=1.0)
        traj = integrate_jacobi(spec4, PhaseState(pos, vel),
                                IntegratorSettings(t_end=0.5, sample_interval=0.25))
        assert traj.positions.shape == (3, 3, 2)
        assert traj.velocities.shape == (3, 3, 2)

