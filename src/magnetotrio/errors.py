"""Exception types shared across the package."""


class MagnetotrioError(Exception):
    """Base class for all package errors."""


class SpecParseError(MagnetotrioError):
    """Raised when a system-spec file or a trajectory CSV cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CollisionError(MagnetotrioError):
    """Two particles approached closer than the collision threshold."""

    def __init__(self, t, pair, distance):
        self.t = t
        self.pair = pair
        self.distance = distance
        super().__init__(
            f"particles {pair[0] + 1} and {pair[1] + 1} within "
            f"{distance:.3e} of each other at t = {t:.6g}"
        )


class StepUnderflow(MagnetotrioError):
    """The adaptive integrator could not maintain accuracy without shrinking
    the step below the floating-point spacing."""


class DomainError(MagnetotrioError):
    """Input lies outside the domain where the requested computation makes sense
    (wrong charge signs, coincident speeds, missing pattern, ...)."""


class ValidityError(MagnetotrioError):
    """A closed-form result exists algebraically but violates a validity
    constraint (e.g. a frequency that must be positive comes out negative)."""


class DegenerateError(MagnetotrioError):
    """The requested formula degenerates for this parameter combination and a
    different solver branch must be used instead."""


class NoSolution(MagnetotrioError):
    """A search completed without finding any admissible solution."""


class NonConvergence(MagnetotrioError):
    """An iterative method failed to converge within its iteration budget."""
