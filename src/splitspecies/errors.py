"""Exception types shared across the package, and its one size check.

Every error raised on bad input derives from SplitSpeciesError, and every
failed internal invariant from InternalError, so callers (notably the CLI)
can tell bad input from a bug in the package.

``check_size`` is the one range check for sizes, orders and precisions: it
raises MalformedInput for a bool or a non-integer, OutOfRange below the lower
bound and TooLarge above the cap.  The caps themselves are named constants
beside the code they bound (``graphs.MAX_VERTICES``,
``series.MAX_CHAIN_ORDER``, ``counting.MAX_FORMULA_N``, ...).
"""


class SplitSpeciesError(Exception):
    """Base class for all input and contract errors raised by this package."""


class TooLarge(SplitSpeciesError, ValueError):
    """Vertex count or order exceeds the supported bound for this operation."""


class TooSmall(SplitSpeciesError, ValueError):
    """A set that must have at least two elements is smaller."""


class OutOfRange(SplitSpeciesError, ValueError):
    """A size, a vertex label or a named choice lies outside the allowed range."""


class SelfLoop(SplitSpeciesError, ValueError):
    """An edge joins a vertex to itself."""


class LengthMismatch(SplitSpeciesError, ValueError):
    """A permutation or label tuple's length does not match the vertex count."""


class NotSplit(SplitSpeciesError, ValueError):
    """The graph admits no clique/stable-set partition."""


class NotAPartition(SplitSpeciesError, ValueError):
    """The given vertex sets are not a clique/stable-set partition of the graph."""


class NotSMax(SplitSpeciesError, ValueError):
    """The partition is valid but its stable side is not of maximum size."""


class WrongClass(SplitSpeciesError, ValueError):
    """The graph is not of the structural class this map requires."""


class LabelClash(SplitSpeciesError, ValueError):
    """Two components of a composition share a vertex label."""


class IsolatedGreen(SplitSpeciesError, ValueError):
    """A bicolored graph has an isolated green vertex where none is allowed."""


class MonochromeEdge(SplitSpeciesError, ValueError):
    """An edge of a bicolored graph joins two vertices of the same color."""


class ConventionMismatch(SplitSpeciesError, ValueError):
    """Arithmetic attempted between series of different counting conventions."""


class NotAUnit(SplitSpeciesError, ZeroDivisionError):
    """Division by a series whose constant term is zero."""


class MalformedInput(SplitSpeciesError, ValueError):
    """An input file or value does not have the form of the structure it describes."""


class InternalError(Exception):
    """Base class for failed internal invariants: a bug, not bad input."""


class NonIntegralResult(InternalError, ArithmeticError):
    """A quantity that must be an integer came out fractional or negative."""


class BrokenInvariant(InternalError, AssertionError):
    """A structural fact the package relies on did not hold."""


def check_size(value: int, *, low: int = 0, high: int | None = None, what: str = "n") -> int:
    """Return ``value`` if low <= value (<= high); else raise OutOfRange or TooLarge.

    A ``bool`` or a non-integer raises MalformedInput before any comparison.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise OutOfRange(f"{what} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise TooLarge(f"{what} is capped at {high}, got {value}")
    return value
