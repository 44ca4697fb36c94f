import numpy as np
import pytest

from magnetotrio import SystemSpec, invariant_table
from magnetotrio.invariants import invariant_columns


@pytest.fixture
def electrons():
    """Three identical negative unit charges at B = -2."""
    return SystemSpec(B=-2.0, charges=(-1.0, -1.0, -1.0), masses=(1.0, 1.0, 1.0))


@pytest.fixture
def electrons_b2():
    return SystemSpec(B=2.0, charges=(-1.0, -1.0, -1.0), masses=(1.0, 1.0, 1.0))


@pytest.fixture
def spec4():
    """Mixed-charge species with certified in-phase and anti-phase rotations."""
    return SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0), masses=(1.0, 1.0, 3.0))


@pytest.fixture
def worked():
    """Species of the worked closed-form rotation (omega = 18/91)."""
    return SystemSpec(B=1.0, charges=(1.0, 4.0, 1.0), masses=(1.0, 5.0, 1.0))


@pytest.fixture
def helium():
    """Neutral alpha-plus-two-electrons pattern (charges scaled to units)."""
    return SystemSpec(B=1.0, charges=(-2.0, 1.0, 1.0), masses=(4.0, 1.0, 1.0))


@pytest.fixture
def four():
    """Four-charge species with certified collinear (n-body II) rotations."""
    return SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0, 2.0), masses=(1.0, 1.0, 3.0, 2.0))


@pytest.fixture
def five():
    """``four`` with a unit charge of unit mass added: a five-charge species
    with certified collinear rotations."""
    return SystemSpec(B=1.0, charges=(3.0, -1.0, 1.0, 2.0, 1.0),
                      masses=(1.0, 1.0, 3.0, 2.0, 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def electron_orbit():
    """Identical-pair rotation of three electrons at B = -2.

    The pair turns at omega = 1 about a guiding center that itself circles
    the origin at omega3 = 2 carrying the third electron; every pair
    distance stays constant.  State literals come from the certified
    closed-form builder and are frozen here to 17 digits.
    """
    spec = SystemSpec(B=-2.0, charges=(-1.0, -1.0, -1.0), masses=(1.0, 1.0, 1.0))
    pos = np.array([[1.5772173450159419, 0.0],
                    [-0.57721734501594191, 0.0],
                    [0.5, 0.0]])
    vel = np.array([[0.0, -2.0772173450159421],
                    [0.0, 0.077217345015941907],
                    [0.0, -1.0]])
    return spec, pos, vel


def separated_state(rng, n, box=2.0, min_sep=0.5):
    """Random positions with a guaranteed minimum pair separation."""
    while True:
        pos = rng.uniform(-box, box, (n, 2))
        ok = all(np.linalg.norm(pos[i] - pos[j]) > min_sep
                 for i in range(n) for j in range(i + 1, n))
        if ok or n == 1:
            break
    vel = rng.uniform(-1.0, 1.0, (n, 2))
    return pos, vel


def table_value(spec, state, name):
    """The named quantity at ``state``, read from one invariant table by
    its column name; K2 = Kx^2 + Ky^2 is built from the Kx and Ky columns."""
    row = invariant_table(spec, state.positions, state.velocities).tolist()
    value = dict(zip(invariant_columns(spec.n)[1:], row))
    if name == "K2":
        return value["Kx"] ** 2 + value["Ky"] ** 2
    return value[name]
