"""Exception types shared across the library: one kind per meaning.

- :class:`ParseError`: the input is not a type, whether text or tuple.
- :class:`OutOfRange`: a size outside its range; also a ``ValueError``.
- :class:`TooLarge`: a request past a safety limit that ``limit=None``
  (the CLI's ``--force``) lifts.
- :class:`TheoremViolation`: a guaranteed identity broke, a bug.
"""


class PathCensusError(Exception):
    """Base class for all library-specific errors."""


class ParseError(PathCensusError):
    """Not a type: unparsable text, an empty tuple, an entry that is no
    int (a ``bool`` is not one), a composition entry below 1, or a zero
    entry or two same-signed neighbours in a signed type."""


class OutOfRange(PathCensusError, ValueError):
    """A size outside the range its question is defined for: a total, block
    length or tournament order below its least value (a scan total under 2,
    a census order under 3, a unit block asked for its children), a type
    whose blocks do not sum to the tournament order less one, or a type's
    rank DP or a total's compositions past the machine's index range."""


class TooLarge(PathCensusError):
    """A scan, conjecture check or census past its safety limit; passing
    ``limit=None`` lifts it."""


class TheoremViolation(PathCensusError):
    """An internal consistency guarantee broke (e.g. a symmetric type with an
    odd path-function value, or census words whose orders reversal cannot
    pair).  Signals an implementation bug, never bad user input."""
