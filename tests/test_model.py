import numpy as np
import pytest

from magnetotrio import (PhaseState, SpecParseError, SystemSpec,
                         classify_system, format_system, parse_system)
from magnetotrio.model import canonical_momenta, vector_potential


def test_vector_potential_symmetric_gauge():
    # A(r) = B/2 * (-y, x)
    A = vector_potential(np.array([[2.0, 3.0]]), B=4.0)
    assert np.allclose(A, [[-6.0, 4.0]])


def test_canonical_momenta():
    spec = SystemSpec(B=2.0, charges=(3.0,), masses=(5.0,))
    pos = np.array([[1.0, 2.0]])
    vel = np.array([[0.5, -0.5]])
    p = canonical_momenta(spec, pos, vel)
    assert np.allclose(p, 5.0 * vel + 3.0 * vector_potential(pos, 2.0))


class TestSystemSpec:
    def test_single_particle_allowed(self):
        spec = SystemSpec(B=1.0, charges=(1.0,), masses=(1.0,))
        assert spec.n == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(Exception):
            SystemSpec(B=1.0, charges=(1.0, 2.0), masses=(1.0,))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(Exception):
            SystemSpec(B=1.0, charges=(1.0,), masses=(0.0,))

    def test_totals(self, spec4):
        assert spec4.total_charge == 3.0


class TestClassification:
    def test_equal_larmor_electrons(self, electrons):
        cls = classify_system(electrons)
        assert cls.equal_larmor
        assert cls.alpha == pytest.approx(-1.0)

    def test_mixed_species_not_equal_larmor(self, spec4):
        assert not classify_system(spec4).equal_larmor

    def test_neutral_detection(self, helium):
        cls = classify_system(helium)
        assert cls.neutral
        assert not classify_system(SystemSpec(1.0, (1.0, 1.0), (1.0, 1.0))).neutral

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_tags_are_relative_at_every_scale(self, scale):
        # scaling every charge changes no tag: a 1e-6 relative mismatch is
        # no agreement at 1e-13 either, and an exact one stays exact
        def tags(charges, masses):
            cls = classify_system(SystemSpec(1.0, [scale * e for e in charges],
                                             masses))
            return bool(cls.neutral), bool(cls.equal_larmor)

        assert tags((-2.0, 1.0, 1.0), (4.0, 1.0, 1.0)) == (True, False)
        assert tags((-2.0, 1.0, 1.000001), (4.0, 1.0, 1.0)) == (False, False)
        assert tags((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)) == (False, True)
        assert tags((-1.0, -1.0, -1.000001), (1.0, 1.0, 1.0)) == (False, False)
        assert tags((3.0, -1.0, 1.0), (1.0, 1.0, 3.0)) == (False, False)


class TestParsing:
    def test_round_trip_exact(self, rng):
        spec = SystemSpec(B=-2.0 / 3.0,
                          charges=tuple(rng.uniform(-3, 3, 3)),
                          masses=tuple(rng.uniform(0.1, 5, 3)))
        state = PhaseState(rng.standard_normal((3, 2)),
                           rng.standard_normal((3, 2)))
        text = format_system(spec, state, comment="round trip")
        spec2, state2 = parse_system(text)
        assert spec2.B == spec.B
        assert np.array_equal(spec2.charges, spec.charges)
        assert np.array_equal(spec2.masses, spec.masses)
        assert np.array_equal(state2.positions, state.positions)
        assert np.array_equal(state2.velocities, state.velocities)

    def test_spec_only_round_trip(self):
        spec2, state2 = parse_system("B 1.5\nparticle -1 2\n")
        assert state2 is None
        assert spec2.B == 1.5

    def test_missing_field_line(self):
        with pytest.raises(SpecParseError):
            parse_system("particle 1 1\n")

    def test_duplicate_field_line_reports_line(self):
        with pytest.raises(SpecParseError) as err:
            parse_system("B 1\nB 2\nparticle 1 1\n")
        assert err.value.line == 2

    def test_bad_number_reports_line(self):
        with pytest.raises(SpecParseError) as err:
            parse_system("B 1\nparticle 1 1\nposition 0 oops\n")
        assert err.value.line == 3

    def test_unknown_keyword(self):
        with pytest.raises(SpecParseError):
            parse_system("B 1\nwobble 1 2\n")

    def test_state_line_before_particle(self):
        with pytest.raises(SpecParseError):
            parse_system("B 1\nposition 0 0\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nB 2  # field\nparticle -1 1\n"
        spec, _ = parse_system(text)
        assert spec.B == 2.0 and spec.n == 1


class TestSymmetry:
    def test_flip_preserves_accelerations(self, spec4, rng):
        # e -> -e, B -> -B leaves every force term unchanged
        from conftest import separated_state

        from magnetotrio import accelerations
        pos, vel = separated_state(rng, 3)
        spec_f = SystemSpec(-spec4.B, -spec4.charges, spec4.masses)
        assert np.allclose(accelerations(spec4, pos, vel),
                           accelerations(spec_f, pos, vel), rtol=0, atol=1e-15)


def test_phase_state_copy_is_independent():
    state = PhaseState(np.zeros((2, 2)), np.ones((2, 2)))
    clone = state.copy()
    clone.positions[0, 0] = 7.0
    assert state.positions[0, 0] == 0.0


@pytest.mark.parametrize("field", ["positions", "velocities", "t"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phase_state_rejects_non_finite(field, bad):
    from magnetotrio import DomainError
    values = {"positions": np.eye(3, 2), "velocities": np.zeros((3, 2)), "t": 0.0}
    if field == "t":
        values["t"] = bad
    else:
        values[field][1, 0] = bad
    with pytest.raises(DomainError, match="finite"):
        PhaseState(**values)
