"""Exception types shared across the package.

Every error raised on bad input derives from SplitSpeciesError, and every
failed internal invariant from InternalError, so callers (notably the CLI)
can tell bad input from a bug in the package.
"""


class SplitSpeciesError(Exception):
    """Base class for all input and contract errors raised by this package."""


class TooLarge(SplitSpeciesError, ValueError):
    """Vertex count or order exceeds the supported bound for this operation."""


class TooSmall(SplitSpeciesError, ValueError):
    """A set that must have at least two elements is smaller."""


class OutOfRange(SplitSpeciesError, ValueError):
    """A vertex label or a size lies outside the allowed range."""


class SelfLoop(SplitSpeciesError, ValueError):
    """An edge joins a vertex to itself."""


class LengthMismatch(SplitSpeciesError, ValueError):
    """A permutation's length does not match the graph's vertex count."""


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


class InsufficientBase(SplitSpeciesError, ValueError):
    """The supplied base sequence is shorter than the requested order."""


class MalformedInput(SplitSpeciesError, ValueError):
    """An input file does not parse as the structure it should describe."""


class InternalError(Exception):
    """Base class for failed internal invariants: a bug, not bad input."""


class NonIntegralResult(InternalError, ArithmeticError):
    """A quantity that must be an integer came out fractional or negative."""


class BrokenInvariant(InternalError, AssertionError):
    """A structural fact the package relies on did not hold."""
