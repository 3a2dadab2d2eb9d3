"""Exception hierarchy for tsdyn.

Every error raised on purpose by this package derives from :class:`TsdynError`,
so callers can catch one type at an API boundary.  Each subclass stands for
one remedy, what a caller does about it:

=====================  ===================================  ===============================
class                  raised when                          the caller
=====================  ===================================  ===============================
ConfigError            an argument or entry is refused      fixes the entry ``key`` names
DimensionMismatch      component counts disagree            makes the shapes agree
ExpressionSyntaxError  expression text does not parse       fixes it at ``position``
UnknownVariable        a name is not ``t`` or ``x1..xn``    fixes the name or the arity
DomainViolation        ``f`` is undefined or not finite     treats ``f`` as undefined there
SupportMismatch        a support or range does not fit      passes data on the right points
CriterionNotSatisfied  a hypothesis of the theory fails     solves without bounds
BracketViolation       a lower bound exceeds its upper one  fixes or drops the brackets
EnvelopeViolation      a solution escapes its envelope      rejects the solution
=====================  ===================================  ===============================
"""

from __future__ import annotations


class TsdynError(Exception):
    """Base class for all tsdyn errors."""


# --- arguments and shapes --------------------------------------------------------

class ConfigError(TsdynError):
    """Bad or missing argument or configuration entry; names the key and line
    if known.  ``reason`` is the message without them."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.reason = message
        self.key = key
        self.line = line
        where = []
        if key is not None:
            where.append(f"key {key!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class DimensionMismatch(TsdynError):
    """Component counts disagree."""


# --- expressions and evaluation ----------------------------------------------------

class ExpressionSyntaxError(TsdynError):
    """Malformed expression text; ``position`` is the 1-based column."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (position {position})")


class UnknownVariable(TsdynError):
    """Identifier is not ``t`` or ``x1..xn`` for the declared arity."""


class DomainViolation(TsdynError):
    """Evaluation outside the admissible domain (floor, sign, or boundary), or
    a value that overflows or is not finite."""


# --- grid functions ---------------------------------------------------------------

class SupportMismatch(TsdynError):
    """A grid function, index or range does not fit the support, range or
    realization an operation needs."""


# --- solver and criteria --------------------------------------------------------

class CriterionNotSatisfied(TsdynError):
    """A hypothesis of the theory fails: declared degrees miss the shape
    constraints, boundary values are not zero, an evaluation point is not
    positive, or a construction integral is not positive."""


class BracketViolation(TsdynError):
    """Lower bound exceeds upper bound at grid ``index``; -1 when there is no upper bound."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"lower bound above upper bound at index {index}")


class EnvelopeViolation(TsdynError):
    """A claimed solution escapes its weighted envelope."""

    def __init__(self, component: int, index: int, amount: float):
        self.component = component
        self.index = index
        self.amount = amount
        super().__init__(
            f"component {component} escapes envelope at index {index} by {amount:g}"
        )
