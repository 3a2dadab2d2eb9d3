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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BracketViolation, DimensionMismatch, DomainViolation, SupportMismatch
from .timescale import TimeScale, require_integer, same_realization


def float_rows(values, what: str) -> np.ndarray:
    """``values`` as a float array; a nest of rows with unequal lengths, which
    numpy refuses as an inhomogeneous shape, raises
    :class:`DimensionMismatch` naming ``what``."""
    try:
        return np.asarray(values, dtype=float)
    except ValueError:
        nested = np.asarray(values, dtype=object)
        if any(isinstance(v, (list, tuple, np.ndarray)) for v in nested.flat):
            raise DimensionMismatch(f"{what} must have rows of equal length") from None
        raise


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Vector-valued function sampled on indices ``lo..hi`` of one scale.

    ``values`` has one row per supported index and one column per component;
    the support starts at ``lo`` and ends at ``hi = lo + rows - 1``.
    Values are immutable and must be finite; evaluation outside the support
    is an error rather than zero.  Index and count arguments must be
    integers (numpy integers serve); anything else raises
    :class:`~tsdyn.errors.ConfigError` keyed by the parameter.
    """

    scale: TimeScale
    values: np.ndarray
    lo: int = 0
    hi: int = field(init=False)

    def __post_init__(self) -> None:
        vals = float_rows(self.values, "values")
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise DimensionMismatch("values must be a vector or a 2-d array")
        lo = require_integer(self.lo, "lo")
        hi = lo + vals.shape[0] - 1
        if not 0 <= lo <= hi <= self.scale.last_index:
            raise SupportMismatch(f"support [{lo}, {hi}] leaves the realization")
        if not np.all(np.isfinite(vals)):
            raise DomainViolation("grid functions must hold finite values")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_callable(
        cls,
        scale: TimeScale,
        fn: Callable[[float], float | np.ndarray],
        lo: int = 0,
        hi: int | None = None,
    ) -> "GridFunction":
        lo = require_integer(lo, "lo")
        hi = scale.last_index if hi is None else require_integer(hi, "hi")
        rows = [np.atleast_1d(fn(float(t))) for t in scale.points[lo : hi + 1]]
        return cls(scale, float_rows(rows, "the callable's values"), lo)

    @classmethod
    def constant(
        cls, scale: TimeScale, value: float | np.ndarray, n: int | None = None
    ) -> "GridFunction":
        row = np.atleast_1d(np.asarray(value, dtype=float))
        n = None if n is None else require_integer(n, "n")
        if n is not None and row.size == 1:
            row = np.full(n, row[0])
        vals = np.tile(row, (scale.npoints, 1))
        return cls(scale, vals)

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
        k = require_integer(k, "k")
        if not self.lo <= k <= self.hi:
            raise SupportMismatch(f"index {k} outside support [{self.lo}, {self.hi}]")
        return self.values[k - self.lo]

    def component(self, i: int) -> np.ndarray:
        """Column of component ``i`` (1-based) over the support."""
        i = require_integer(i, "i")
        if not 1 <= i <= self.n_components:
            raise DimensionMismatch(f"component {i} of {self.n_components}")
        return self.values[:, i - 1]

    def restrict(self, lo: int, hi: int) -> "GridFunction":
        lo, hi = require_integer(lo, "lo"), require_integer(hi, "hi")
        if not self.lo <= lo <= hi <= self.hi:
            raise SupportMismatch(f"[{lo}, {hi}] not inside support [{self.lo}, {self.hi}]")
        return GridFunction(self.scale, self.values[lo - self.lo : hi - self.lo + 1], lo)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, op) -> "GridFunction":
        if isinstance(other, GridFunction):
            require_realization(other, self.scale, "operand")
            lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
            if lo > hi:
                raise SupportMismatch("supports do not overlap")
            left = self.values[lo - self.lo : hi - self.lo + 1]
            right = other.values[lo - other.lo : hi - other.lo + 1]
            if left.shape[1] != right.shape[1]:
                raise DimensionMismatch(
                    f"{left.shape[1]} vs {right.shape[1]} components"
                )
            return GridFunction(self.scale, op(left, right), lo)
        return GridFunction(self.scale, op(self.values, float(other)), self.lo)

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
        return GridFunction(self.scale, -self.values, self.lo)


def require_realization(u: GridFunction, scale: TimeScale, what: str) -> None:
    """Raise :class:`SupportMismatch` unless ``u`` lives on ``scale``'s
    realization (:func:`same_realization`); ``what`` names ``u``."""
    if not same_realization(u.scale, scale):
        raise SupportMismatch(f"{what} lives on another realization")


def full_support_values(u: GridFunction, scale: TimeScale, what: str) -> np.ndarray:
    """``u``'s values, which must live on ``scale``'s realization and cover
    all of it; ``what`` names ``u`` in the error."""
    require_realization(u, scale, what)
    if u.lo > 0 or u.hi < scale.last_index:
        raise SupportMismatch(f"{what} must cover the whole realization")
    return u.values


def band_values(alpha: GridFunction, beta: GridFunction, scale: TimeScale, n: int) -> tuple:
    """The value arrays of the band ``[alpha, beta]``, which must both cover
    ``scale``'s whole realization with ``n`` components and satisfy ``alpha
    <= beta``; a crossing raises :class:`BracketViolation` at its first row."""
    for g in (alpha, beta):
        full_support_values(g, scale, "brackets")
        if g.n_components != n:
            raise SupportMismatch(f"bracket component count must be {n}, got {g.n_components}")
    if np.any(alpha.values > beta.values):
        raise BracketViolation(int(np.argwhere(alpha.values > beta.values)[0][0]))
    return alpha.values, beta.values


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
        raise SupportMismatch("delta derivative needs at least two supported points")
    vals = difference_quotient(u.values, u.scale.mu[u.lo : u.hi])
    return GridFunction(u.scale, vals, u.lo)


def delta_second(u: GridFunction) -> GridFunction:
    """Second delta derivative; support shrinks by two."""
    if u.hi - u.lo < 2:
        raise SupportMismatch("second delta derivative needs at least three points")
    return delta_derivative(delta_derivative(u))


def sigma_shift(u: GridFunction) -> GridFunction:
    """(u^sigma)_k = u_{k+1}; support shrinks by one at the top."""
    if u.hi - u.lo < 1:
        raise SupportMismatch("shift needs at least two supported points")
    return GridFunction(u.scale, u.values[1:], u.lo)


def cauchy_sum(measure: np.ndarray, values: np.ndarray) -> list[float]:
    """``sum_k measure[k] * values[k, i]`` per column ``i``, one row of
    ``values`` per entry of ``measure``: the one Cauchy sum of the package."""
    return [float(np.sum(measure * values[:, i])) for i in range(values.shape[1])]


def delta_integral(u: GridFunction, lo: int, hi: int) -> np.ndarray:
    """Cauchy sum over the half-open index range ``[lo, hi)``.

    Returns one value per component.  ``lo == hi`` gives an exact zero.
    The summation order is numpy's and fixed, so results are reproducible
    bit for bit.
    """
    lo, hi = require_integer(lo, "lo"), require_integer(hi, "hi")
    if lo > hi:
        raise SupportMismatch(f"reversed range [{lo}, {hi})")
    if lo < u.lo or hi > u.hi + 1 or hi - 1 > u.scale.last_index - 1:
        raise SupportMismatch(
            f"range [{lo}, {hi}) leaves support [{u.lo}, {u.hi}] or the scale"
        )
    return np.array(cauchy_sum(u.scale.mu[lo:hi], u.values[lo - u.lo : hi - u.lo]))
