"""Exception types shared across the package, and its integer rule."""

import operator


class GaussworkError(Exception):
    """Base class for all package-specific errors.  The command line prints
    ``"<label>: <message>"`` to stderr and exits with ``exit_code``."""

    exit_code = 2
    label = "invalid input"


class InvalidCovariance(GaussworkError, ValueError):
    """A matrix failed one of the covariance-matrix invariants.

    The message starts with the name of the violated invariant
    (``finite``, ``symmetry``, ``positive-definite`` or ``uncertainty``).
    """


class NonPositiveDefinite(InvalidCovariance):
    """Covariance matrix has an eigenvalue <= 0; ``index`` is the position
    of the first such matrix in a flattened stack (0 for one matrix)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NumericalFailure(GaussworkError, ArithmeticError):
    """An eigensolver or factorization did not converge, or a guaranteed
    numerical identity was violated beyond tolerance."""

    exit_code = 3
    label = "numerical failure"


class BadModeCount(GaussworkError, ValueError):
    """Mode count or mode index out of range."""


class BadDimension(GaussworkError, ValueError):
    """Matrix dimension outside the valid range of a formula."""


class DimensionMismatch(GaussworkError, ValueError):
    """Operands have incompatible shapes."""


class NotUnitary(GaussworkError, ValueError):
    """Input matrix is not unitary within tolerance."""


class EmptyConstraintSet(GaussworkError, ValueError):
    """The energy bound admits no squeezing vector (4E < 2n)."""


class RejectionTimeout(GaussworkError, RuntimeError):
    """Flat-measure rejection sampling accepted nothing; the acceptance
    rate is below 1e-6.  Use a deterministic profile instead."""

    exit_code = 3
    label = "numerical failure"


class WorkerFailure(GaussworkError, RuntimeError):
    """A chunk's child process could not be forked, or ended without
    sending its whole result: it was killed, or sent an empty or
    truncated payload."""

    exit_code = 3
    label = "worker failure"


class EmptyInput(GaussworkError, ValueError):
    """An aggregate was requested over an empty collection."""


class InvalidProfile(GaussworkError, ValueError):
    """Squeezing-profile string or parameters are malformed."""


class InvalidConfig(GaussworkError, ValueError):
    """Experiment configuration is inconsistent."""


class MalformedFile(GaussworkError, ValueError):
    """An input file does not parse as the expected text format."""


def config_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a plain int; a bool, a non-integer or a value below
    ``minimum`` raises :class:`InvalidConfig`."""
    # a bool is an int, so index() alone would take it
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")
    return value
