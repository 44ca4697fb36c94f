"""The in-package DOP853 stepper against scipy's ``solve_ivp``, its oracle.

``_scipy_solve`` is the body of ``dynamics._solve`` before the stepper moved
into the package: the same sampling grid, collision event and counters,
integrated by ``solve_ivp(method="DOP853")``.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import separated_state
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from magnetotrio import (CollisionError, IntegratorSettings, PhaseState,
                         StepUnderflow, SystemSpec, _dop853, dynamics,
                         integrate, integrate_jacobi, jacobi)
from magnetotrio.dynamics import _closest_pair


def _scipy_solve(spec, rhs, y0, t0, t_eval, settings, positions_of):
    threshold = settings.collision_threshold
    events = None
    closest = [math.inf]
    if spec.n > 1 and threshold > 0:
        I, J, _ = spec.pairs

        def collision(t, y):
            p = positions_of(y)
            d = p[I] - p[J]
            d2 = float(np.min(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
            closest[0] = min(closest[0], d2)
            return math.sqrt(d2) - threshold

        collision.terminal = True
        collision.direction = -1
        events = [collision]
    sol = solve_ivp(rhs, (t0, settings.t_end), y0, method="DOP853",
                    rtol=settings.rel_tol, atol=settings.abs_tol,
                    t_eval=t_eval, events=events)
    if sol.status == 1:
        pair, dist = _closest_pair(positions_of(sol.y_events[0][0]))
        raise CollisionError(float(sol.t_events[0][0]), pair, dist)
    if sol.status < 0:
        raise StepUnderflow(sol.message)
    stats = {"nfev": sol.nfev}
    if events:
        stats["min_pair_distance"] = math.sqrt(closest[0])
    return sol.t, sol.y.T, stats


@pytest.fixture
def oracle(monkeypatch):
    """Switch both integration routes to ``_scipy_solve``."""
    def use():
        monkeypatch.setattr(dynamics, "_solve", _scipy_solve)
        monkeypatch.setattr(jacobi, "_solve", _scipy_solve)
    return use


def _readme_orbit():
    """The three electrons of the README quick start."""
    spec = SystemSpec(B=2.0, charges=(-1.0, -1.0, -1.0), masses=(1.0, 1.0, 1.0))
    return spec, PhaseState(np.array([[1.0, 0.0], [-1.0, 0.5], [0.2, -1.2]]),
                            np.array([[0.0, 0.4], [0.1, -0.3], [-0.2, 0.0]]))


def _repelling(n):
    rng = np.random.default_rng(40 + n)
    spec = SystemSpec(B=rng.uniform(0.5, 2.0), charges=rng.uniform(0.5, 2.0, n),
                      masses=rng.uniform(0.5, 2.0, n))
    return spec, PhaseState(*separated_state(rng, n, box=3.0, min_sep=1.0))


def _attracting_pair():
    """The run of ``test_attracting_pair_terminates``."""
    spec = SystemSpec(B=0.1, charges=(1.0, -1.0), masses=(1.0, 1.0))
    return spec, PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2)))


def _falling_trio():
    """The run of ``test_collision_matches_cartesian``."""
    spec = SystemSpec(B=0.0, charges=(1.0, -1.0, 1.0), masses=(1.0, 1.0, 1.0))
    return spec, PhaseState([[-0.5, 0.0], [0.5, 0.0], [5.0, 0.0]], np.zeros((3, 2)))


def test_tableau_is_scipy_bit_for_bit():
    ours, theirs = _dop853, dop853_coefficients
    assert ours.N_STAGES == theirs.N_STAGES
    assert ours.N_STAGES_EXTENDED == theirs.N_STAGES_EXTENDED
    # A and C hold the extra-stage rows 13-15 of the dense output too
    for name in ("A", "B", "C", "E3", "E5", "D"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("run, case, settings", [
    (integrate, _readme_orbit, IntegratorSettings(t_end=20.0)),
    (integrate, _readme_orbit, IntegratorSettings(t_end=20.0, sample_interval=0.5)),
    (integrate, lambda: _repelling(4),
     IntegratorSettings(t_end=8.0, rel_tol=1e-12, abs_tol=1e-12, sample_interval=0.25)),
    (integrate, lambda: _repelling(6),
     IntegratorSettings(t_end=8.0, rel_tol=1e-12, abs_tol=1e-12, sample_interval=0.25)),
    (integrate_jacobi, _readme_orbit,
     IntegratorSettings(t_end=20.0, sample_interval=0.5)),
], ids=["orbit", "orbit-sampled", "repelling-4", "repelling-6", "orbit-derived"])
def test_matches_solve_ivp(run, case, settings, oracle):
    spec, state = case()
    ours = run(spec, state, settings)
    oracle()
    ref = run(spec, state, settings)
    assert ours.stats == ref.stats   # nfev and min_pair_distance
    assert np.array_equal(ours.t, ref.t)
    np.testing.assert_allclose(ours.positions, ref.positions, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ours.velocities, ref.velocities, rtol=1e-12, atol=0)


@pytest.mark.parametrize("run, case, t_end", [
    (integrate, _attracting_pair, 5.0),
    (integrate, _falling_trio, 2.0),
    (integrate_jacobi, _falling_trio, 2.0),
], ids=["pair", "trio", "trio-derived"])
def test_collision_time_matches_solve_ivp(run, case, t_end, oracle):
    spec, state = case()
    settings = IntegratorSettings(t_end=t_end)
    with pytest.raises(CollisionError) as ours:
        run(spec, state, settings)
    oracle()
    with pytest.raises(CollisionError) as ref:
        run(spec, state, settings)
    assert ours.value.pair == ref.value.pair
    assert abs(ours.value.t - ref.value.t) <= 1e-12 * ref.value.t
    # the reported time is at or just past the crossing
    assert ours.value.distance <= settings.collision_threshold


@pytest.mark.parametrize("run, case", [
    (integrate, _attracting_pair),
    (integrate_jacobi, _falling_trio),
], ids=["pair", "trio-derived"])
def test_step_underflow_where_solve_ivp_fails(run, case, oracle):
    # with the watch off the pair falls into itself, and the step the error
    # allows drops below 10 ulp(t)
    spec, state = case()
    settings = IntegratorSettings(t_end=5.0, collision_threshold=0.0)
    with pytest.raises(StepUnderflow) as ours:
        run(spec, state, settings)
    oracle()
    with pytest.raises(StepUnderflow) as ref:
        run(spec, state, settings)
    assert str(ours.value) == str(ref.value)
    assert str(ours.value) == "Required step size is less than spacing between numbers."


@pytest.mark.parametrize("run", [integrate, integrate_jacobi])
def test_rel_tol_below_100_eps_is_raised_with_a_warning(run):
    spec, state = _readme_orbit()
    floor = 100 * np.finfo(float).eps
    with pytest.warns(UserWarning, match="rtol") as record:
        low = run(spec, state, IntegratorSettings(t_end=2.0, rel_tol=1e-16,
                                                  sample_interval=0.5))
    assert record[0].filename == __file__   # points at the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = run(spec, state, IntegratorSettings(t_end=2.0, rel_tol=floor,
                                                  sample_interval=0.5))
    assert low.stats == ref.stats
    assert np.array_equal(low.t, ref.t)
    assert np.array_equal(low.positions, ref.positions)
    assert np.array_equal(low.velocities, ref.velocities)


def test_a_nan_step_size_ends_in_step_underflow():
    # a NaN first derivative makes the first step size NaN, and solve_ivp
    # retries that step forever
    stepper = _dop853.DOP853(lambda t, y: np.full_like(y, np.nan), 0.0,
                             np.array([0.0, 1.0]), 1.0, 1e-10, 1e-10)
    with pytest.raises(StepUnderflow):
        stepper.step()
