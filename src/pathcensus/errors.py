"""Exception types shared across the library."""


class PathCensusError(Exception):
    """Base class for all library-specific errors."""


class UndefinedType(PathCensusError):
    """A tuple the path-function is undefined on: empty, not a composition,
    or a single unit block asked for its children."""


class ParseError(PathCensusError):
    """Malformed type input: unparsable text, or a tuple with a zero entry
    or two same-signed neighbours."""


class OutOfRange(PathCensusError, ValueError):
    """A size outside the range its question is defined for (a total or
    block length below its least value, such as a scan total under 2, or a
    type whose rank DP would pass the machine's index range); also a
    ``ValueError``, so callers catching that still work."""


class InvalidOrder(OutOfRange):
    """Tournament order outside a constructor's legal range."""


class OrderTooLarge(PathCensusError):
    """Brute-force census requested beyond its order limit."""


class TypeOrderMismatch(PathCensusError):
    """Total block length of a type does not fit the tournament order."""


class ScanTooLarge(PathCensusError):
    """Scan requested beyond the configured composition-total limit."""


class TheoremViolation(PathCensusError):
    """An internal consistency guarantee broke (e.g. a symmetric type with an
    odd path-function value, or an odd raw tally before halving).  Signals an
    implementation bug, never bad user input."""
