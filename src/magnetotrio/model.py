"""System definition and planar geometry helpers.

Conventions used throughout the package:

* particles live in the plane, the magnetic field is ``B = B zhat`` with the
  plane orthogonal to ``zhat``;
* the vector potential is taken in the symmetric gauge,
  ``A(r) = (B/2) (-r_y, r_x)``, so that ``curl A = B zhat``;
* for a planar vector ``v``, ``v x B`` means the in-plane part of the 3d cross
  product with ``B zhat``, i.e. ``(v_y B, -v_x B)``;
* canonical momenta are ``p_i = m_i v_i + e_i A(rho_i)``.

Gaussian-like units are assumed: the Coulomb pair energy is ``e_i e_j / rho_ij``
with no extra prefactor.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SpecParseError


def vector_potential(r, B):
    """Symmetric-gauge vector potential at point(s) ``r``.

    ``r`` has shape (..., 2), real or complex; the result has the same shape.
    """
    r = np.asarray(r)
    return 0.5 * B * np.stack([-r[..., 1], r[..., 0]], -1)


@functools.cache
def pair_index(n):
    """Index arrays ``(I, J)`` of every pair ``I < J`` of n particles.

    Pairs run in index order, (0, 1), (0, 2), ..., (n-2, n-1); every
    pairwise quantity in the package is laid out in this order.  The
    arrays are cached per n (building them costs more than one use) and
    are read-only.
    """
    I, J = np.triu_indices(n, 1)
    I.flags.writeable = J.flags.writeable = False
    return I, J


@dataclass
class SystemSpec:
    """Charges, masses and the field strength defining a system.

    ``charges`` and ``masses`` are 1d arrays of equal length n >= 1.  Masses
    must be positive; zero charges are allowed here (the rigid-rotation
    solvers reject them separately, since their algebra divides by charges).
    ``pairs`` is the pair table ``(I, J, e_I e_J)`` over :func:`pair_index`,
    built once per spec.
    """

    B: float
    charges: np.ndarray
    masses: np.ndarray
    pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.B = float(self.B)
        self.charges = np.atleast_1d(np.asarray(self.charges, dtype=float))
        self.masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if self.charges.shape != self.masses.shape or self.charges.ndim != 1:
            raise DomainError("charges and masses must be 1d arrays of equal length")
        if self.n < 1:
            raise DomainError("a system needs at least one particle")
        if not np.all(np.isfinite(self.charges)) or not np.isfinite(self.B):
            raise DomainError("charges and field must be finite")
        if not np.all(np.isfinite(self.masses)) or np.any(self.masses <= 0.0):
            raise DomainError("masses must be finite and positive")
        I, J = pair_index(self.n)
        with np.errstate(over="ignore"):    # a product past the float range is inf
            self.pairs = (I, J, self.charges[I] * self.charges[J])

    @property
    def n(self):
        return len(self.charges)

    @property
    def total_charge(self):
        return float(self.charges.sum())


@dataclass
class PhaseState:
    """Positions and velocities of all particles at a single time."""

    positions: np.ndarray   # (n, 2)
    velocities: np.ndarray  # (n, 2)
    t: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        self.velocities = np.asarray(self.velocities, dtype=float).reshape(-1, 2)
        if self.positions.shape != self.velocities.shape:
            raise DomainError("positions and velocities must have matching shapes")
        self.t = float(self.t)
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.velocities))
                and np.isfinite(self.t)):
            raise DomainError("positions, velocities and t must be finite")

    @property
    def n(self):
        return len(self.positions)


def canonical_momenta(spec, positions, velocities):
    """Canonical momenta ``p_i = m_i v_i + e_i A(rho_i)``, shape (..., n, 2)."""
    return _momenta(spec, positions, velocities)[0]


def _momenta(spec, positions, velocities):
    """The canonical momenta ``p_i`` and the pseudomomenta
    ``k_i = p_i + e_i A(rho_i) = m_i v_i + 2 e_i A(rho_i)`` from one ``A``."""
    A = vector_potential(positions, spec.B)
    mv = spec.masses[:, None] * np.asarray(velocities)
    return mv + spec.charges[:, None] * A, mv + 2.0 * spec.charges[:, None] * A


def _velocities_from_momenta(spec, positions, momenta):
    """Inverse of :func:`canonical_momenta`: ``v_i = (p_i - e_i A(rho_i)) / m_i``."""
    A = vector_potential(positions, spec.B)
    return (momenta - spec.charges[:, None] * A) / spec.masses[:, None]


@dataclass
class Classification:
    """Structural tags of a system that control which reductions apply."""

    neutral: bool
    equal_larmor: bool
    alpha: float | None


_CLASSIFY_TOL = 1e-12


def classify_system(spec):
    """Detect the structural cases that admit special treatment.

    * ``neutral``            -- total charge vanishes (within 1e-12 of the sum
                                of |charges|); the two pseudomomentum
                                components then commute and the center of mass
                                pseudo-separates.
    * ``equal_larmor``       -- all charge-to-mass ratios agree (within 1e-12
                                relative spread); the center of mass separates
                                exactly and circles with frequency ``alpha B``.

    Both tests are relative at every scale: the problem is covariant under
    scaling the charges, so a species and its charges times 1e-13 get the
    same tags.
    """
    e, m = spec.charges, spec.masses
    Q = spec.total_charge
    neutral = abs(Q) <= _CLASSIFY_TOL * np.abs(e).sum()

    ratios = e / m
    spread = ratios.max() - ratios.min()
    equal_larmor = spread <= _CLASSIFY_TOL * np.abs(ratios).max()
    alpha = float(ratios.mean()) if equal_larmor else None
    return Classification(neutral, equal_larmor, alpha)


# ---------------------------------------------------------------------------
# system-spec files
#
# Line-oriented plain text:
#     B <field>
#     particle <charge> <mass>
#     position <x> <y>          (optional, attaches to the last particle)
#     velocity <x> <y>          (optional, attaches to the last particle)
# '#' starts a comment, blank lines are ignored.  If any position/velocity
# line is present, a full initial state is built with zeros for whatever was
# left unspecified.
# ---------------------------------------------------------------------------

def _parse_floats(parts, count, line_no):
    if len(parts) != count:
        raise SpecParseError(f"expected {count} numeric value(s), got {len(parts)}", line_no)
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise SpecParseError(f"could not parse number in {parts!r}", line_no) from None
    if not all(map(math.isfinite, vals)):
        raise SpecParseError(f"non-finite number in {parts!r}", line_no)
    return vals


def parse_system(text):
    """Parse system-spec text into ``(SystemSpec, PhaseState | None)``."""
    # one record per particle: the values of its lines so far, by keyword
    B, particles = None, []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, rest = parts[0], parts[1:]
        if key == "B":
            if B is not None:
                raise SpecParseError("field B given twice", line_no)
            (B,) = _parse_floats(rest, 1, line_no)
        elif key == "particle":
            charge, mass = _parse_floats(rest, 2, line_no)
            if mass <= 0:
                raise SpecParseError(f"mass must be positive, got {mass}", line_no)
            particles.append({"particle": (charge, mass)})
        elif key in ("position", "velocity"):
            if not particles:
                raise SpecParseError(f"{key} line before any particle line", line_no)
            xy = _parse_floats(rest, 2, line_no)
            if key in particles[-1]:
                raise SpecParseError(f"duplicate {key} line for particle {len(particles)}", line_no)
            particles[-1][key] = xy
        else:
            raise SpecParseError(f"unknown keyword {key!r}", line_no)

    if B is None:
        raise SpecParseError("missing 'B <field>' line")
    if not particles:
        raise SpecParseError("no particle lines found")

    charges, masses = zip(*(p["particle"] for p in particles))
    spec = SystemSpec(B, np.array(charges), np.array(masses))
    state = (PhaseState(*(np.array([p.get(k, [0.0, 0.0]) for p in particles])
                          for k in ("position", "velocity")))
             if any(len(p) > 1 for p in particles) else None)
    return spec, state


def read_text(path):
    """The UTF-8 text of the file ``path``.

    Raises :class:`SpecParseError` at the first undecodable byte, naming
    its line as the readers number theirs: by :meth:`str.splitlines`,
    starting at 1.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start].decode("utf-8")
        # the "x" stands for the byte, which starts a line after a break
        raise SpecParseError(
            f"byte 0x{data[err.start]:02x} is not UTF-8 ({err.reason})",
            line=len((head + "x").splitlines())) from None


def load_system(path):
    return parse_system(read_text(path))


def format_system(spec, state=None, comment=None):
    """Render a spec (and optional state) in the system-file format.

    Numbers are written with 17 significant digits so a parse round-trip
    reproduces them exactly.
    """
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"B {spec.B:.17g}")
    for i in range(spec.n):
        lines.append(f"particle {spec.charges[i]:.17g} {spec.masses[i]:.17g}")
        if state is not None:
            x, y = state.positions[i]
            vx, vy = state.velocities[i]
            lines.append(f"position {x:.17g} {y:.17g}")
            lines.append(f"velocity {vx:.17g} {vy:.17g}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def output_file(path):
    """Open ``path`` for writing UTF-8 text, overwriting it in place.

    Leaves what ``open(path, "w")`` leaves (bytes, mode, inode, symlink
    target), also when the block raises, but cuts the old tail after the
    new bytes: a truncate to zero before them makes ext4
    (``auto_da_alloc``) write the file back when it is closed.  A FIFO
    or a device, which ``O_TRUNC`` ignores, is not truncated.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def save_system(path, spec, state=None, comment=None):
    with output_file(path) as fh:
        fh.write(format_system(spec, state, comment))
