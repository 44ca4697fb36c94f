import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetotrio import (DomainError, PhaseState, SpecParseError, SystemSpec,
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

    @pytest.mark.parametrize("text, line, message", [
        ("B 1\nB 2\nparticle 1 1\n", 2, "field B given twice"),
        ("B 1 2\nparticle 1 1\n", 1, "expected 1 numeric value(s), got 2"),
        ("B 1\nparticle 1\n", 2, "expected 2 numeric value(s), got 1"),
        ("B x\nparticle 1 1\n", 1, "could not parse number in ['x']"),
        ("B 1\nparticle 1 nan\n", 2, "non-finite number in ['1', 'nan']"),
        ("B 1\nparticle 1 0\n", 2, "mass must be positive, got 0.0"),
        ("B 1\nparticle 1 -2\n", 2, "mass must be positive, got -2.0"),
        ("B 1\nvelocity 0 0\nparticle 1 1\n", 2,
         "velocity line before any particle line"),
        ("B 1\nparticle 1 1\nposition 0 0\nvelocity 1 1\nposition 2 2\n", 5,
         "duplicate position line for particle 1"),
        ("B 1\nparticle 1 1\nparticle 2 1\nvelocity 0 1\n# c\nvelocity 0 1\n", 6,
         "duplicate velocity line for particle 2"),
        # the number is checked before the duplicate
        ("B 1\nparticle 1 1\nposition 0 0\nposition 0 oops\n", 4,
         "could not parse number in ['0', 'oops']"),
        ("B 1\nparticle 1 1\nvelocity 0 0\nvelocity 0 0 0\n", 4,
         "expected 2 numeric value(s), got 3"),
        ("B 1\nparticle 1 1\nwobble 1 2\n", 3, "unknown keyword 'wobble'"),
        ("particle 1 1\nposition 0 0\n", None, "missing 'B <field>' line"),
        ("# only a field\nB 1\n\n", None, "no particle lines found"),
    ], ids=["B-twice", "B-count", "particle-count", "bad-number", "non-finite",
            "zero-mass", "negative-mass", "state-before-particle",
            "duplicate-position", "duplicate-velocity", "bad-number-on-duplicate",
            "count-on-duplicate", "unknown-keyword", "no-field", "no-particles"])
    def test_every_error_names_its_line(self, text, line, message):
        with pytest.raises(SpecParseError) as err:
            parse_system(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None
                                  else f"line {line}: {message}")

    def test_partial_state_defaults_to_zeros(self):
        spec, state = parse_system("B 1\nparticle 1 1\nparticle 2 1\n"
                                   "velocity 3 4\nparticle 3 1\nposition 5 6\n")
        assert spec.n == 3
        assert state.positions.tolist() == [[0.0, 0.0], [0.0, 0.0], [5.0, 6.0]]
        assert state.velocities.tolist() == [[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]
        assert state.t == 0.0

    @given(data=st.data(), n=st.integers(1, 6), with_state=st.booleans(),
           comment=st.one_of(st.none(), st.text()))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_format_then_parse_returns_every_bit(self, data, n, with_state,
                                                 comment):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        floats = st.lists(finite, min_size=n, max_size=n)
        spec = SystemSpec(data.draw(finite), data.draw(floats), data.draw(
            st.lists(st.floats(0.0, allow_infinity=False, exclude_min=True),
                     min_size=n, max_size=n)))
        state = (PhaseState(data.draw(st.lists(finite, min_size=2 * n, max_size=2 * n)),
                            data.draw(st.lists(finite, min_size=2 * n, max_size=2 * n)))
                 if with_state else None)
        spec2, state2 = parse_system(format_system(spec, state, comment))
        assert np.array(spec2.B).tobytes() == np.array(spec.B).tobytes()
        assert spec2.charges.tobytes() == spec.charges.tobytes()
        assert spec2.masses.tobytes() == spec.masses.tobytes()
        if state is None:
            assert state2 is None
        else:
            assert state2.positions.tobytes() == state.positions.tobytes()
            assert state2.velocities.tobytes() == state.velocities.tobytes()


class TestSymmetry:
    def test_flip_preserves_accelerations(self, spec4, rng):
        # e -> -e, B -> -B leaves every force term unchanged
        from conftest import separated_state

        from magnetotrio import accelerations
        pos, vel = separated_state(rng, 3)
        spec_f = SystemSpec(-spec4.B, -spec4.charges, spec4.masses)
        assert np.allclose(accelerations(spec4, pos, vel),
                           accelerations(spec_f, pos, vel), rtol=0, atol=1e-15)


@pytest.mark.parametrize("build, message", [
    (lambda: SystemSpec(1.0, (), ()), "a system needs at least one particle"),
    (lambda: SystemSpec(np.inf, (1.0,), (1.0,)), "charges and field must be finite"),
    (lambda: SystemSpec(1.0, (1.0, np.nan), (1.0, 1.0)),
     "charges and field must be finite"),
    (lambda: PhaseState(np.zeros((3, 2)), np.zeros((2, 2))),
     "positions and velocities must have matching shapes"),
], ids=["no-particles", "field-inf", "charge-nan", "state-3-positions-2-velocities"])
def test_public_guards(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_phase_state_copy_is_independent():
    state = PhaseState(np.zeros((2, 2)), np.ones((2, 2)))
    clone = state.copy()
    clone.positions[0, 0] = 7.0
    assert state.positions[0, 0] == 0.0


@pytest.mark.parametrize("field", ["positions", "velocities", "t"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phase_state_rejects_non_finite(field, bad):
    values = {"positions": np.eye(3, 2), "velocities": np.zeros((3, 2)), "t": 0.0}
    if field == "t":
        values["t"] = bad
    else:
        values[field][1, 0] = bad
    with pytest.raises(DomainError, match="finite"):
        PhaseState(**values)
