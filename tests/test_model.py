import ast
import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetotrio import (DomainError, PhaseState, SpecParseError, SystemSpec,
                         classify_system, format_system, load_system,
                         parse_system)
from magnetotrio.model import canonical_momenta, output_file, vector_potential


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

    @pytest.mark.parametrize("data, line, message", [
        (b"B 1\nparticle 1 1\nposition 0 \xff\n", 3,
         "byte 0xff is not UTF-8 (invalid start byte)"),
        (b"# r\xc3\xa9sum\xc3\xa9\r\nB 1\r\n\r\nparticle 1 \xc3(\r\n", 4,
         "byte 0xc3 is not UTF-8 (invalid continuation byte)"),
        (b"B 1\rparticle 1 1\r\xe2\x82", 3,
         "byte 0xe2 is not UTF-8 (unexpected end of data)"),
        (b"\xffB 1\n", 1, "byte 0xff is not UTF-8 (invalid start byte)"),
    ], ids=["lf", "crlf", "cr-truncated", "first-byte"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, data, line,
                                                     message):
        path = tmp_path / "bad.system"
        path.write_bytes(data)
        with pytest.raises(SpecParseError) as err:
            load_system(path)
        assert str(err.value) == f"line {line}: {message}"

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


def _plain(path):
    return open(path, "w", encoding="utf-8")


class TestOutputFile:
    """``output_file`` leaves what ``open(path, "w")`` leaves, in place."""

    def test_shorter_rewrite_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("t,x\n" + "0.5,1.25\n" * 1000)
        with output_file(path) as fh:
            fh.write("t,x\n1,2\n")
        assert path.read_bytes() == b"t,x\n1,2\n"

    @pytest.mark.parametrize("opener", [output_file, _plain], ids=["in-place", "open-w"])
    @pytest.mark.parametrize("written", ["", "partial row"],
                             ids=["before-any-write", "after-a-write"])
    def test_a_raise_leaves_the_bytes_written_before_it(self, tmp_path, opener,
                                                        written):
        path = tmp_path / "out.csv"
        path.write_text("old content, longer than the new\n" * 100)
        with pytest.raises(ZeroDivisionError):
            with opener(path) as fh:
                if written:
                    fh.write(written)
                1 / 0
        assert path.read_text() == written

    def test_an_existing_file_keeps_its_inode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n" * 50)
        inode = os.stat(path).st_ino
        with output_file(path) as fh:
            fh.write("new\n")
        assert os.stat(path).st_ino == inode and path.read_text() == "new\n"

    def test_a_symlink_updates_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n" * 50)
        link.symlink_to(target.name)
        with output_file(link) as fh:
            fh.write("new\n")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == "new\n"

    def test_a_link_to_a_device_is_written_without_a_truncate(self, tmp_path):
        # O_TRUNC leaves a character device alone, and ftruncate refuses it
        link = tmp_path / "discard.csv"
        link.symlink_to(os.devnull)
        with output_file(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_of_open_w(self, tmp_path, umask):
        saved = os.umask(umask)
        try:
            with output_file(tmp_path / "a.csv") as fh:
                fh.write("x")
            with _plain(tmp_path / "b.csv") as fh:
                fh.write("x")
        finally:
            os.umask(saved)
        mode = os.stat(tmp_path / "b.csv").st_mode
        assert os.stat(tmp_path / "a.csv").st_mode == mode == 0o100666 & ~umask


def _file_writers(source):
    """``(function, line)`` of each call in ``source`` that opens a file
    for writing: ``open``-like calls with a write mode (or a mode that is
    not a literal), ``os.open`` with write flags, and ``write_text`` or
    ``write_bytes``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open" and ast.unparse(func) == "os.open":
                writes = any(flag in ast.unparse(node)
                             for flag in ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND"))
            elif name in ("open", "fdopen"):
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                writes = mode is not None and not (
                    isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
            else:
                writes = name in ("write_text", "write_bytes")
            if writes:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("source, writers", [
    ('def f(p):\n    return open(p, "w")\n', [("f", 2)]),
    ('def f(p):\n    return open(p, mode="a", encoding="utf-8")\n', [("f", 2)]),
    ('def f(p, m):\n    return io.open(p, m)\n', [("f", 2)]),
    ('def f(p):\n    return open(p, "r+b")\n', [("f", 2)]),
    ('def f(p):\n    return os.open(p, os.O_WRONLY | os.O_CREAT)\n', [("f", 2)]),
    ('def f(p):\n    pathlib.Path(p).write_text("x")\n', [("f", 2)]),
    ('open(p, "x")\n', [(None, 1)]),
    ('def f(p):\n    return open(p), open(p, "rb"), open(p, "r", encoding="utf-8")\n', []),
    ('def f(p):\n    return os.open(p, os.O_RDONLY)\n', []),
], ids=["w", "mode-a", "mode-variable", "r-plus", "os-open", "write-text",
        "module-level", "readers", "os-open-read"])
def test_the_writer_scan_finds_each_form(source, writers):
    assert _file_writers(source) == writers


def test_output_file_is_the_one_opener_for_writing():
    # one opener per concept: every output of the package goes through
    # model.output_file, which alone may open a file for writing
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src", "magnetotrio")
    found = set()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found |= {(os.path.basename(path), function)
                      for function, _ in _file_writers(fh.read())}
    assert found == {("model.py", "output_file")}
