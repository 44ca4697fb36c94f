from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import electron_orbit, separated_state, table_value

from magnetotrio import (CollisionError, DomainError, IntegratorSettings,
                         PhaseState, SystemSpec, apply_cc, from_jacobi,
                         integrate, integrate_jacobi, invert_cc,
                         jacobi_weights, pseudomomentum, to_jacobi)
from magnetotrio.dynamics import _checked_grid, _solve
from magnetotrio.jacobi import _flat_positions, _positions, rhs_jacobi
from magnetotrio.model import vector_potential
from oracles import _hc_quadratic, hamiltonian_jacobi

_COUPLED = {
    "spec4": SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0), masses=(1.0, 1.0, 3.0)),
    "helium-B-1.3": SystemSpec(B=-1.3, charges=(-2.0, 1.0, 1.0), masses=(4.0, 1.0, 1.0)),
    "worked-B0.7": SystemSpec(B=0.7, charges=(1.0, 4.0, 1.0), masses=(1.0, 5.0, 1.0)),
}
# ec1 = ec2 = 0: no coupling term of the reduced Hamiltonian is live
_ELECTRONS = SystemSpec(B=-2.0, charges=(-1.0, -1.0, -1.0), masses=(1.0, 1.0, 1.0))

SPECIES = pytest.mark.parametrize("spec", list(_COUPLED.values()), ids=list(_COUPLED))
SPECIES_AND_ELECTRONS = pytest.mark.parametrize(
    "spec", [*_COUPLED.values(), _ELECTRONS], ids=[*_COUPLED, "electrons"])


def _richardson_gradient(spec, z, step=1e-4):
    """Gradient of the reduced Hamiltonian by central differences at steps
    ``step * max(1, |z_k|)`` and half that, combined by one Richardson step."""
    def H(x):
        return hamiltonian_jacobi(spec, x)

    g = np.empty(12)
    for k in range(12):
        h = step * max(1.0, abs(z[k]))
        e = np.zeros(12)
        e[k] = h
        d_h = (H(z + e) - H(z - e)) / (2.0 * h)
        d_h2 = (H(z + e / 2) - H(z - e / 2)) / h
        g[k] = (4.0 * d_h2 - d_h) / 3.0
    return g


def _hessian(w, B):
    """Hessian of :func:`_hc_quadratic` by polarization,
    ``A_ij = [q(e_i + e_j) - q(e_i - e_j)] / 2``, exact to rounding for a
    quadratic form.  Evaluated elementwise on the stacked points ``e_i + e_j``
    and ``e_i - e_j``, each entry is rounded as a scalar evaluation rounds it."""
    E = np.eye(12)
    # E[k, i] + E[k, j] is coordinate k of the point e_i + e_j
    return (_hc_quadratic(w, B, E[:, :, None] + E[:, None, :])
            - _hc_quadratic(w, B, E[:, :, None] - E[:, None, :])) / 2.0


def _hamilton(g):
    """Hamilton's map of a gradient: (dH/dp, -dH/dq)."""
    return np.concatenate([g[6:], -g[:6]], axis=0)


def _matrix_rhs(spec, z):
    """The right-hand side through the Hessian: ``SA @ z`` plus the Coulomb
    forces of the pair table, and the scale of each row, ``|SA| |z|``."""
    w = jacobi_weights(spec)
    SA = _hamilton(_hessian(w, spec.B))
    # row p of D maps (tau1, tau2) to the displacement of pair p = (1,2),
    # (1,3), (2,3), the order of the charge products ee
    D, ee = np.array([[1.0, 0.0], [w.nu2, 1.0], [-w.nu1, 1.0]]), spec.pairs[2]
    d = D @ z[2:6].reshape(2, 2)
    r = np.hypot(d[:, 0], d[:, 1])
    dz = SA @ z
    dz[8:12] += (D.T @ ((ee / r**3)[:, None] * d)).ravel()
    return dz, np.abs(SA) @ np.abs(z)


def _complex_step_rhs(spec, z, h=1e-20):
    """The right-hand side by complex steps of the reduced Hamiltonian, term
    by term: :func:`_hc_quadratic`, then one Coulomb term per pair of
    ``spec.pairs``, whose distance is read off the Cartesian positions.
    Returns the sum and the summed magnitudes of the Coulomb terms."""
    w = jacobi_weights(spec)
    I, J, c = spec.pairs

    def terms(x):
        pos = _positions(w, x)
        d = pos[I] - pos[J]
        return np.concatenate([[_hc_quadratic(w, spec.B, x)],
                               c / np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])])

    G = _hamilton(np.array([terms(z + 1j * h * e).imag / h for e in np.eye(12)]))
    return G.sum(axis=1), np.abs(G[:, 1:]).sum(axis=1)


def _hessian_by_entries(w, B):
    """The polarized Hessian one scalar evaluation per entry, kept as the
    reference for the stacked evaluation."""
    E = np.eye(12)
    return np.array([[_hc_quadratic(w, B, E[i] + E[j]) - _hc_quadratic(w, B, E[i] - E[j])
                      for j in range(12)] for i in range(12)]) / 2.0


class TestWeights:
    def test_basic_identities(self, spec4):
        w = jacobi_weights(spec4)
        assert sum(w.mu) == pytest.approx(1.0, rel=1e-15)
        assert w.M == 5.0 and w.Q == 3.0
        assert w.mt1 == pytest.approx(0.5)       # 1*1/(1+1)
        assert w.mt2 == pytest.approx(2.0 * 3.0 / 5.0)

    def test_coupling_charges(self, spec4):
        # (m2 e1 - m1 e2)/m12 etc., worked out by hand for (3,-1,1)/(1,1,3)
        w = jacobi_weights(spec4)
        assert w.ec1 == pytest.approx(2.0)
        assert w.ec2 == pytest.approx(0.8)
        assert w.e1eff == pytest.approx(0.5)
        assert w.e2eff == pytest.approx(0.88)

    def test_equal_ratio_species_decouple(self, electrons):
        w = jacobi_weights(electrons)
        assert w.ec1 == 0.0 and w.ec2 == 0.0

    @SPECIES_AND_ELECTRONS
    def test_floats_equal_the_numpy_scalar_weights(self, spec):
        w = jacobi_weights(spec)
        # unpacking the arrays, as the weights were once built, gives numpy scalars
        arrays = SimpleNamespace(
            n=3, masses=SimpleNamespace(tolist=lambda: list(spec.masses)),
            charges=SimpleNamespace(tolist=lambda: list(spec.charges)))
        ref = jacobi_weights(arrays)
        assert type(ref.M) is np.float64
        for field in fields(w):
            ours, theirs = getattr(w, field.name), getattr(ref, field.name)
            assert ours == theirs, field.name
            assert all(type(x) is float
                       for x in (ours if field.name == "mu" else (ours,))), field.name

    def test_three_particles_only(self):
        with pytest.raises(DomainError):
            jacobi_weights(SystemSpec(B=1.0, charges=(1.0, 1.0), masses=(1.0, 1.0)))


class TestRoundTrips:
    def test_coordinates(self, spec4, helium, rng):
        # helium's m1 != m2 tells nu1 from nu2
        for spec in (spec4, helium):
            for _ in range(5):
                pos, vel = separated_state(rng, 3)
                back_pos, back_vel = from_jacobi(spec, to_jacobi(spec, pos, vel))
                assert np.allclose(back_pos, pos, rtol=0, atol=1e-13)
                assert np.allclose(back_vel, vel, rtol=0, atol=1e-13)

    def test_momentum_shift_inverse(self, spec4, rng):
        pos, vel = separated_state(rng, 3)
        z = to_jacobi(spec4, pos, vel)
        assert z.shape == (12,)
        back = invert_cc(spec4, apply_cc(spec4, z))
        assert np.allclose(back, z, rtol=0, atol=1e-14)

    def test_shift_works_on_a_copy(self, spec4, rng):
        z = to_jacobi(spec4, *separated_state(rng, 3))
        start = z.tobytes()
        for shift in (apply_cc, invert_cc):
            shifted = shift(spec4, z)
            assert z.tobytes() == start
            assert not np.shares_memory(shifted, z)
            # the coordinates stay, every momentum column moves
            assert np.array_equal(shifted[:6], z[:6])
            assert np.all(shifted[6:] != z[6:])

    def test_positions_ignore_the_shift(self, spec4, rng):
        w = jacobi_weights(spec4)
        for _ in range(3):
            z = to_jacobi(spec4, *separated_state(rng, 3))
            pos = from_jacobi(spec4, z)[0]
            assert np.array_equal(_positions(w, z), pos)
            assert np.array_equal(_positions(w, apply_cc(spec4, z)), pos)
            # the collision watch's float twin, on the shifted vector
            assert _flat_positions(w)(apply_cc(spec4, z)) == pos.ravel().tolist()

    def test_stack_matches_rows_bit_for_bit(self, spec4, rng):
        rows = [to_jacobi(spec4, *separated_state(rng, 3)) for _ in range(6)]
        stack = np.array(rows)
        pos, vel = from_jacobi(spec4, stack)
        assert pos.shape == vel.shape == (6, 3, 2)
        shifted = apply_cc(spec4, stack)
        for k, z in enumerate(rows):
            pos_k, vel_k = from_jacobi(spec4, z)
            assert np.array_equal(pos[k], pos_k)
            assert np.array_equal(vel[k], vel_k)
            # the stepper's rows are shifted back as one stack
            assert np.array_equal(shifted[k], apply_cc(spec4, z))
            assert np.array_equal(invert_cc(spec4, shifted)[k],
                                  invert_cc(spec4, shifted[k]))


class TestReducedHamiltonian:
    def test_matches_cartesian(self, spec4, helium, rng):
        for spec in (spec4, helium):
            for _ in range(10):
                pos, vel = separated_state(rng, 3)
                hc = hamiltonian_jacobi(spec, apply_cc(spec, to_jacobi(spec, pos, vel)))
                h = table_value(spec, PhaseState(pos, vel), "H")
                assert hc == pytest.approx(h, rel=1e-12)

    def test_pseudomomentum_matches(self, spec4, rng):
        pos, vel = separated_state(rng, 3)
        z = apply_cc(spec4, to_jacobi(spec4, pos, vel))
        # K = P' + Q A(R) from the shifted Jacobi data
        K = z[6:8] + jacobi_weights(spec4).Q * vector_potential(z[0:2], spec4.B)
        assert np.allclose(K, pseudomomentum(spec4, pos, vel), rtol=0, atol=1e-12)


class TestExactGradient:
    @SPECIES
    def test_stacked_hessian_matches_entries_bit_for_bit(self, spec):
        w = jacobi_weights(spec)
        assert np.array_equal(_hessian(w, spec.B), _hessian_by_entries(w, spec.B))

    @SPECIES_AND_ELECTRONS
    def test_matches_complex_step_and_hessian_oracles(self, spec):
        rng = np.random.default_rng(20261019)
        f = rhs_jacobi(spec)
        for _ in range(20):
            z = apply_cc(spec, to_jacobi(spec, *separated_state(rng, 3)))
            rows = f(0.0, z)
            assert all(type(x) is float for x in rows)
            by_steps, coulomb_scale = _complex_step_rhs(spec, z)
            by_matrix, quadratic_scale = _matrix_rhs(spec, z)
            scale = quadratic_scale + coulomb_scale
            assert np.all(np.abs(np.array(rows) - by_steps) <= 1e-13 * scale)
            assert np.all(np.abs(np.array(rows) - by_matrix) <= 1e-13 * scale)

    @SPECIES
    def test_matches_finite_difference_oracle(self, spec):
        rng = np.random.default_rng(20261018)
        f = rhs_jacobi(spec)
        for _ in range(20):
            z = apply_cc(spec, to_jacobi(spec, *separated_state(rng, 3)))
            g = _richardson_gradient(spec, z)
            # Hamilton's map: (dH/dp, -dH/dq)
            fd = np.concatenate([g[6:], -g[:6]])
            assert np.all(np.abs(np.array(f(0.0, z)) - fd)
                          <= 1e-8 * np.maximum(1.0, np.abs(fd)))


class TestIntegration:
    def test_derived_route_tracks_cartesian(self):
        spec, pos, vel = electron_orbit()
        state = PhaseState(pos, vel)
        start = state.positions.tobytes() + state.velocities.tobytes()
        settings = IntegratorSettings(t_end=2.0, rel_tol=1e-12, abs_tol=1e-12,
                                      sample_interval=0.25)
        ref = integrate(spec, state, settings)
        jac = integrate_jacobi(spec, state, settings)
        # neither route writes to the state it is given
        assert state.positions.tobytes() + state.velocities.tobytes() == start
        assert np.allclose(jac.t, ref.t)
        assert np.max(np.abs(jac.positions - ref.positions)) < 1e-7

    def test_coupled_species_track_cartesian(self, spec4, helium, rng):
        # ec1, ec2 != 0: every coupling term of the reduced RHS is live
        settings = IntegratorSettings(t_end=2.0, rel_tol=1e-12, abs_tol=1e-12,
                                      sample_interval=0.25)
        for spec in (spec4, helium):
            assert jacobi_weights(spec).ec1 != 0.0 and jacobi_weights(spec).ec2 != 0.0
            for _ in range(2):
                state = PhaseState(*separated_state(rng, 3, min_sep=1.0))
                ref = integrate(spec, state, settings)
                jac = integrate_jacobi(spec, state, settings)
                assert np.array_equal(jac.t, ref.t)
                assert np.max(np.abs(jac.positions - ref.positions)) < 1e-7
                assert np.max(np.abs(jac.velocities - ref.velocities)) < 1e-7

    def test_returns_cartesian_samples(self, spec4, rng):
        pos, vel = separated_state(rng, 3, min_sep=1.0)
        traj = integrate_jacobi(spec4, PhaseState(pos, vel),
                                IntegratorSettings(t_end=0.5, sample_interval=0.25))
        assert traj.positions.shape == (3, 3, 2)
        assert traj.velocities.shape == (3, 3, 2)

    @SPECIES_AND_ELECTRONS
    def test_run_is_the_public_maps(self, spec, rng):
        state = PhaseState(*separated_state(rng, 3, min_sep=1.0))
        settings = IntegratorSettings(t_end=0.5, sample_interval=0.125)
        traj = integrate_jacobi(spec, state, settings)
        # the same run through the public maps, each building its weights
        z0 = apply_cc(spec, to_jacobi(spec, state.positions, state.velocities))
        t, z, _ = _solve(spec, rhs_jacobi(spec), z0, state.t,
                         _checked_grid(settings, state.t), settings,
                         _flat_positions(jacobi_weights(spec)))
        pos, vel = from_jacobi(spec, invert_cc(spec, z))
        assert traj.t.tobytes() == t.tobytes()
        assert traj.positions.tobytes() == pos.tobytes()
        assert traj.velocities.tobytes() == vel.tobytes()

    def test_collision_matches_cartesian(self):
        # the +1, -1 pair of the CLI collision case falls in from rest
        spec = SystemSpec(B=0.0, charges=(1.0, -1.0, 1.0), masses=(1.0, 1.0, 1.0))
        state = PhaseState([[-0.5, 0.0], [0.5, 0.0], [5.0, 0.0]], np.zeros((3, 2)))
        settings = IntegratorSettings(t_end=2.0)
        with pytest.raises(CollisionError) as newton:
            integrate(spec, state, settings)
        with pytest.raises(CollisionError) as derived:
            integrate_jacobi(spec, state, settings)
        assert derived.value.pair == (0, 1)
        assert abs(derived.value.t - newton.value.t) < 1e-8
        assert derived.value.distance < 1e-8



class TestMetamorphicRelations:
    """The derived route commutes with the exact symmetries of the three-charge
    flow: a rotation of the plane, the exchange of charges 1 and 2, and the
    mirror x -> -x together with B -> -B.  The exchange moves the Jacobi
    frame itself (tau1 changes sign and nu1, nu2 swap), so it checks the maps
    against each other and not only the right-hand side."""

    SETTINGS = IntegratorSettings(t_end=2.0, rel_tol=1e-12, abs_tol=1e-12,
                                  sample_interval=0.25)

    @staticmethod
    def _runs(spec, seed):
        rng = np.random.default_rng(seed)
        for _ in range(2):
            pos, vel = separated_state(rng, 3, min_sep=1.0)
            yield rng, pos, vel, integrate_jacobi(spec, PhaseState(pos, vel),
                                                  TestMetamorphicRelations.SETTINGS)

    @staticmethod
    def _close(a, b):
        scale = max(1.0, float(np.max(np.abs(b))))
        return float(np.max(np.abs(a - b))) <= 1e-9 * scale

    @SPECIES
    def test_rotation_rotates_every_sample(self, spec):
        for rng, pos, vel, traj in self._runs(spec, 4810):
            a = rng.uniform(0.0, 2.0 * np.pi)
            R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            turned = integrate_jacobi(spec, PhaseState(pos @ R.T, vel @ R.T),
                                      self.SETTINGS)
            assert np.array_equal(turned.t, traj.t)
            assert self._close(turned.positions, traj.positions @ R.T)
            assert self._close(turned.velocities, traj.velocities @ R.T)

    @SPECIES
    def test_exchange_of_charges_one_and_two_permutes_the_samples(self, spec):
        swap = [1, 0, 2]
        swapped = SystemSpec(B=spec.B, charges=spec.charges[swap],
                             masses=spec.masses[swap])
        for _, pos, vel, traj in self._runs(spec, 4811):
            other = integrate_jacobi(swapped, PhaseState(pos[swap], vel[swap]),
                                     self.SETTINGS)
            assert np.array_equal(other.t, traj.t)
            assert self._close(other.positions[:, swap], traj.positions)
            assert self._close(other.velocities[:, swap], traj.velocities)

    @SPECIES
    def test_mirror_with_reversed_field_mirrors_to_the_bit(self, spec):
        flip = np.array([-1.0, 1.0])
        mirrored = SystemSpec(B=-spec.B, charges=spec.charges, masses=spec.masses)
        for _, pos, vel, traj in self._runs(spec, 4812):
            image = integrate_jacobi(mirrored, PhaseState(pos * flip, vel * flip),
                                     self.SETTINGS)
            assert np.array_equal(image.t, traj.t)
            assert np.array_equal(image.positions, traj.positions * flip)
            assert np.array_equal(image.velocities, traj.velocities * flip)
