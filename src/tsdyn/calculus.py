"""Grid functions and delta calculus on finite realizations.

A :class:`GridFunction` stores one real vector per grid point over a
contiguous index range (its *support*).  The delta derivative

    (u^Delta)_k = (u_{k+1} - u_k) / mu_k

consumes one point at the top of the support, as does the shift
``(u^sigma)_k = u_{k+1}``.  The delta integral over ``[lo, hi)`` is the
Cauchy left sum ``sum_{k=lo}^{hi-1} mu_k * u_k``; it inverts the delta
derivative exactly (telescoping), not just in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadRange,
    DimensionMismatch,
    EmptySupport,
    IndexOutOfRange,
    NonFiniteResult,
    ScaleMismatch,
    SupportMismatch,
)
from .timescale import TimeScale, same_realization


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Vector-valued function sampled on indices ``lo..hi`` of one scale.

    ``values`` has one row per supported index and one column per component.
    Values are immutable and must be finite; evaluation outside the support
    is an error rather than zero.
    """

    scale: TimeScale
    values: np.ndarray
    lo: int
    hi: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise DimensionMismatch("values must be a vector or a 2-d array")
        lo, hi = int(self.lo), int(self.hi)
        if not 0 <= lo <= hi <= self.scale.last_index:
            raise BadRange(f"support [{lo}, {hi}] leaves the realization")
        if vals.shape[0] != hi - lo + 1:
            raise DimensionMismatch(
                f"support [{lo}, {hi}] needs {hi - lo + 1} rows, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteResult("grid functions must hold finite values")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_values(
        cls, scale: TimeScale, values: np.ndarray, lo: int = 0
    ) -> "GridFunction":
        vals = np.asarray(values, dtype=float)
        rows = vals.shape[0]
        return cls(scale, vals, lo, lo + rows - 1)

    @classmethod
    def from_callable(
        cls,
        scale: TimeScale,
        fn: Callable[[float], float | np.ndarray],
        lo: int = 0,
        hi: int | None = None,
    ) -> "GridFunction":
        hi = scale.last_index if hi is None else int(hi)
        rows = [np.atleast_1d(np.asarray(fn(float(t)), dtype=float))
                for t in scale.points[lo : hi + 1]]
        return cls(scale, np.vstack(rows), lo, hi)

    @classmethod
    def constant(
        cls, scale: TimeScale, value: float | np.ndarray, n: int | None = None
    ) -> "GridFunction":
        row = np.atleast_1d(np.asarray(value, dtype=float))
        if n is not None and row.size == 1:
            row = np.full(n, row[0])
        vals = np.tile(row, (scale.npoints, 1))
        return cls(scale, vals, 0, scale.last_index)

    # -- accessors ---------------------------------------------------------

    @property
    def n_components(self) -> int:
        return int(self.values.shape[1])

    @property
    def support(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @property
    def times(self) -> np.ndarray:
        return self.scale.points[self.lo : self.hi + 1]

    def value_at(self, k: int) -> np.ndarray:
        if not self.lo <= k <= self.hi:
            raise IndexOutOfRange(f"index {k} outside support [{self.lo}, {self.hi}]")
        return self.values[k - self.lo]

    def component(self, i: int) -> np.ndarray:
        """Column of component ``i`` (1-based) over the support."""
        if not 1 <= i <= self.n_components:
            raise DimensionMismatch(f"component {i} of {self.n_components}")
        return self.values[:, i - 1]

    def restrict(self, lo: int, hi: int) -> "GridFunction":
        if not self.lo <= lo <= hi <= self.hi:
            raise BadRange(f"[{lo}, {hi}] not inside support [{self.lo}, {self.hi}]")
        return GridFunction(
            self.scale, self.values[lo - self.lo : hi - self.lo + 1], lo, hi
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, op) -> "GridFunction":
        if isinstance(other, GridFunction):
            require_realization(other, self.scale, "operand")
            lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
            if lo > hi:
                raise EmptySupport("supports do not overlap")
            left = self.values[lo - self.lo : hi - self.lo + 1]
            right = other.values[lo - other.lo : hi - other.lo + 1]
            if left.shape[1] != right.shape[1]:
                raise DimensionMismatch(
                    f"{left.shape[1]} vs {right.shape[1]} components"
                )
            return GridFunction(self.scale, op(left, right), lo, hi)
        return GridFunction(self.scale, op(self.values, float(other)), self.lo, self.hi)

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return self._binary(other, lambda x, y: y - x)

    def __mul__(self, other):
        return self._binary(other, lambda x, y: x * y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda x, y: x / y)

    def __neg__(self):
        return GridFunction(self.scale, -self.values, self.lo, self.hi)


def require_realization(u: GridFunction, scale: TimeScale, what: str) -> None:
    """Raise :class:`ScaleMismatch` unless ``u`` lives on ``scale``'s
    realization (:func:`same_realization`); ``what`` names ``u``."""
    if not same_realization(u.scale, scale):
        raise ScaleMismatch(f"{what} lives on another realization")


def full_support_values(u: GridFunction, scale: TimeScale, what: str) -> np.ndarray:
    """``u``'s values, which must live on ``scale``'s realization and cover
    all of it; ``what`` names ``u`` in the error."""
    require_realization(u, scale, what)
    if u.lo > 0 or u.hi < scale.last_index:
        raise SupportMismatch(f"{what} must cover the whole realization")
    return u.values


def difference_quotient(values: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``(values[1:] - values[:-1]) / mu`` row by row: the delta derivative on
    plain ``(rows, n)`` arrays, ``mu`` holding one graininess per output row."""
    return (values[1:] - values[:-1]) / mu[:, None]


def equation_defect(ts: TimeScale, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``-u^DD - rhs`` at the equation points ``k = 0 .. N-2`` of ``ts``, for
    full ``(N+1, n)`` values ``u`` and one ``rhs`` row per equation point."""
    mu = ts.mu
    return -difference_quotient(difference_quotient(u, mu), mu[:-1]) - rhs


def delta_derivative(u: GridFunction) -> GridFunction:
    """Forward difference quotient against graininess; support shrinks by one."""
    if u.hi - u.lo < 1:
        raise EmptySupport("delta derivative needs at least two supported points")
    vals = difference_quotient(u.values, u.scale.mu[u.lo : u.hi])
    return GridFunction(u.scale, vals, u.lo, u.hi - 1)


def delta_second(u: GridFunction) -> GridFunction:
    """Second delta derivative; support shrinks by two."""
    if u.hi - u.lo < 2:
        raise EmptySupport("second delta derivative needs at least three points")
    return delta_derivative(delta_derivative(u))


def sigma_shift(u: GridFunction) -> GridFunction:
    """(u^sigma)_k = u_{k+1}; support shrinks by one at the top."""
    if u.hi - u.lo < 1:
        raise EmptySupport("shift needs at least two supported points")
    return GridFunction(u.scale, u.values[1:], u.lo, u.hi - 1)


def delta_integral(u: GridFunction, lo: int, hi: int) -> np.ndarray:
    """Cauchy sum over the half-open index range ``[lo, hi)``.

    Returns one value per component.  ``lo == hi`` gives an exact zero.
    The summation order is fixed (ascending k), so results are reproducible
    bit for bit.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise BadRange(f"reversed range [{lo}, {hi})")
    if lo < u.lo or hi > u.hi + 1 or hi - 1 > u.scale.last_index - 1:
        raise BadRange(
            f"range [{lo}, {hi}) leaves support [{u.lo}, {u.hi}] or the scale"
        )
    total = np.zeros(u.n_components)
    mu = u.scale.mu
    for k in range(lo, hi):
        total = total + mu[k] * u.values[k - u.lo]
    return total
