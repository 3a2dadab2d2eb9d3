"""Exception hierarchy for tsdyn.

Every error raised on purpose by this package derives from :class:`TsdynError`,
so callers can catch one type at an API boundary.  Construction errors carry
enough context (an index, a key, a position) to point at the offending datum.
"""

from __future__ import annotations


class TsdynError(Exception):
    """Base class for all tsdyn errors."""


# --- time scale construction -------------------------------------------------

class NonMonotonePoints(TsdynError):
    """Points are not strictly increasing; ``index`` is the first bad entry."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"points not strictly increasing at index {index}")


class TooFewPoints(TsdynError):
    """A realization needs at least four points to carry boundary structure."""


class DegenerateInterval(TsdynError):
    """Interval endpoints coincide or are reversed."""


class InvalidBase(TsdynError):
    """Quantum base must satisfy q > 1."""


class IndexOutOfRange(TsdynError):
    """Grid index or looked-up value outside the realization."""


# --- grid functions -----------------------------------------------------------

class EmptySupport(TsdynError):
    """Operation would leave no points in the support."""


class BadRange(TsdynError):
    """Summation range is reversed or leaves the support."""


class ScaleMismatch(TsdynError):
    """Two grid functions live on different realizations."""


class SupportMismatch(TsdynError):
    """A grid function does not cover the index range an operation needs."""


class DimensionMismatch(TsdynError):
    """Component counts disagree."""


# --- expressions and model ----------------------------------------------------

class ExpressionSyntaxError(TsdynError):
    """Malformed expression text; ``position`` is the 1-based column."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (position {position})")


class UnknownVariable(TsdynError):
    """Identifier is not ``t`` or ``x1..xn`` for the declared arity."""


class DomainViolation(TsdynError):
    """Evaluation outside the admissible domain (floor, sign, or boundary)."""


class NonFiniteResult(TsdynError):
    """Evaluation produced an overflow, Inf, or NaN."""


# --- solver and criteria --------------------------------------------------------

class BracketViolation(TsdynError):
    """Lower bound exceeds upper bound at some grid index."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"lower bound above upper bound at index {index}")


class FamilyTooShort(TsdynError):
    """Refinement family has fewer members than the classifier needs."""


class NonpositiveEndpoint(TsdynError):
    """The pinned evaluation point must be positive."""


class CriterionNotSatisfied(TsdynError):
    """A construction's integral criterion failed, so no bound can be built."""


class ShapeViolation(TsdynError):
    """Declared scaling exponents are missing or violate the shape constraints."""


class BoundOrderViolation(TsdynError):
    """Constant bounds are out of order (some m_i > M_i)."""


class EnvelopeViolation(TsdynError):
    """A claimed solution escapes its weighted envelope."""

    def __init__(self, component: int, index: int, amount: float):
        self.component = component
        self.index = index
        self.amount = amount
        super().__init__(
            f"component {component} escapes envelope at index {index} by {amount:g}"
        )


# --- configuration --------------------------------------------------------------

class ConfigError(TsdynError):
    """Bad or missing configuration entry; names the key and line if known."""

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
