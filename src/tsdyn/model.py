"""Problem data: nonlinearities with declared scaling degrees, and the
Dirichlet boundary value problem they feed.

A :class:`Nonlinearity` wraps one component ``f_i(t, x1..xn)`` of the system
right hand side together with a two-sided bracket on its homogeneity degrees.
The bracket states that for every coordinate ``j`` and every ``0 < c <= 1``

    c**degree_high[j] * f(t, x)  <=  f(t, x with x_j*c)  <=  c**degree_low[j] * f(t, x)

with the two comparisons swapped for ``c >= 1``.  A pure power ``x_j**g``
sits on both edges with ``degree_low[j] == degree_high[j] == g``; genuinely
strict brackets are what the shape constraints below ask for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .calculus import float_rows
from .errors import CriterionNotSatisfied, DimensionMismatch, DomainViolation, UnknownVariable
from .expressions import ExpressionTree, parse_expression
from .timescale import TimeScale, require_integer

Body = Union[ExpressionTree, Callable[[float, tuple[float, ...]], float]]


@dataclass(frozen=True)
class Nonlinearity:
    """One component of the system right hand side.

    ``component_index`` is 1-based and selects which degree-bracket entries
    are "diagonal" for the shape constraints.  ``body`` is either a parsed
    expression in ``t, x1..xn`` or any callable ``(t, x) -> float``; a
    callable always gets ``x`` as a tuple of Python floats.  ``arity`` and
    ``component_index`` must be integers (numpy integers serve); anything
    else raises :class:`~tsdyn.errors.ConfigError` keyed by the field.
    """

    arity: int
    component_index: int
    body: Body
    degree_low: tuple[float, ...]
    degree_high: tuple[float, ...]

    def __post_init__(self):
        for key in ("arity", "component_index"):
            object.__setattr__(self, key, require_integer(getattr(self, key), key))
        if self.arity < 1:
            raise DimensionMismatch("arity must be at least 1")
        if not 1 <= self.component_index <= self.arity:
            raise DimensionMismatch(
                f"component index {self.component_index} outside 1..{self.arity}"
            )
        object.__setattr__(self, "degree_low", tuple(float(v) for v in self.degree_low))
        object.__setattr__(self, "degree_high", tuple(float(v) for v in self.degree_high))
        if len(self.degree_low) != self.arity or len(self.degree_high) != self.arity:
            raise DimensionMismatch(
                f"degree rows must have {self.arity} entries, got "
                f"{len(self.degree_low)} and {len(self.degree_high)}"
            )
        for row in ("degree_low", "degree_high"):
            for j, v in enumerate(getattr(self, row)):
                if not math.isfinite(v):
                    raise CriterionNotSatisfied(
                        f"{row} for x{j + 1} must be finite, got {v!r}"
                    )
        if isinstance(self.body, ExpressionTree):
            used = self.body.max_state_index()
            if used > self.arity:
                raise UnknownVariable(
                    f"expression uses x{used} but arity is {self.arity}"
                )

    @classmethod
    def from_expression(
        cls,
        text: str,
        *,
        arity: int,
        component_index: int = 1,
        degree_low: Sequence[float] | None = None,
        degree_high: Sequence[float] | None = None,
    ) -> "Nonlinearity":
        """Parse ``text``.  A missing degree row is zeros, unless both are:
        then both are the tree's :meth:`ExpressionTree.exact_degrees`, if any."""
        arity = require_integer(arity, "arity")
        body = parse_expression(text)
        zeros = (0.0,) * arity
        if degree_low is None and degree_high is None:
            degree_low = degree_high = body.exact_degrees(arity)
        return cls(arity=arity, component_index=component_index, body=body,
                   degree_low=zeros if degree_low is None else degree_low,
                   degree_high=zeros if degree_high is None else degree_high)

    def evaluate(self, t: float, x: Sequence[float]) -> float:
        if len(x) != self.arity:
            raise DimensionMismatch(
                f"expected {self.arity} state values, got {len(x)}"
            )
        if isinstance(self.body, ExpressionTree):
            return self.body.evaluate(t, x)
        x = tuple(map(float, x))
        try:
            v = self.body(t, x)
        except ZeroDivisionError as exc:
            raise DomainViolation(str(exc) or "division by zero") from exc
        except ValueError as exc:
            raise DomainViolation(str(exc) or "math domain error") from exc
        except OverflowError as exc:
            raise DomainViolation(str(exc) or "overflow") from exc
        try:
            v = float(v)
        except OverflowError as exc:
            raise DomainViolation(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            # e.g. the complex power of a negative base
            raise DomainViolation(f"nonlinearity evaluated to {v!r}") from exc
        if not math.isfinite(v):
            raise DomainViolation(f"nonlinearity evaluated to {v!r}")
        return v

    @property
    def diagonal_low(self) -> float:
        return self.degree_low[self.component_index - 1]

    @property
    def diagonal_high(self) -> float:
        return self.degree_high[self.component_index - 1]

    def validate_shape(self) -> None:
        """Enforce the strict shape constraints on the degree bracket.

        Diagonal entries must straddle zero with the upper edge below one;
        off-diagonal entries must be negative on both edges and strictly
        ordered.  Raises :class:`CriterionNotSatisfied` naming the first failure.
        """
        i = self.component_index - 1
        for j in range(self.arity):
            lo, hi = self.degree_low[j], self.degree_high[j]
            if not lo < hi:
                raise CriterionNotSatisfied(
                    f"degree bracket for x{j + 1} is not strictly ordered "
                    f"({lo:g} !< {hi:g})"
                )
            if j == i:
                if not (lo < 0.0 < hi < 1.0):
                    raise CriterionNotSatisfied(
                        f"diagonal bracket must satisfy low < 0 < high < 1, "
                        f"got ({lo:g}, {hi:g})"
                    )
            elif not hi < 0.0:
                raise CriterionNotSatisfied(
                    f"off-diagonal bracket for x{j + 1} must stay negative, "
                    f"upper edge is {hi:g}"
                )


@dataclass(frozen=True)
class DirichletProblem:
    """``-x^DD(t) = f(t, x^sigma(t))`` with pinned values at both ends.

    ``boundary_left`` pins each component at the first point and
    ``boundary_right`` at the last.  The positive-solution theory (bound
    construction, envelope displays) applies only when both vectors vanish;
    :attr:`is_positive_system` reports that.
    """

    scale: TimeScale
    f: tuple[Nonlinearity, ...]
    boundary_left: tuple[float, ...] = (0.0,)
    boundary_right: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        n = len(self.f)
        if n == 0:
            raise DimensionMismatch("need at least one nonlinearity")
        for pos, fi in enumerate(self.f, start=1):
            if fi.arity != n:
                raise DimensionMismatch(
                    f"component {pos} declares arity {fi.arity}, system has {n}"
                )
            if fi.component_index != pos:
                raise DimensionMismatch(
                    f"component at position {pos} carries index {fi.component_index}"
                )
        left = tuple(float(v) for v in self.boundary_left)
        right = tuple(float(v) for v in self.boundary_right)
        if len(left) != n or len(right) != n:
            raise DimensionMismatch(
                f"boundary vectors must have {n} entries, got "
                f"{len(left)} and {len(right)}"
            )
        for side, values in (("boundary_left", left), ("boundary_right", right)):
            for i, v in enumerate(values):
                if not math.isfinite(v):
                    raise DomainViolation(
                        f"{side} for component {i + 1} must be finite, got {v!r}"
                    )
        object.__setattr__(self, "boundary_left", left)
        object.__setattr__(self, "boundary_right", right)

    @property
    def n_components(self) -> int:
        return len(self.f)

    @property
    def is_positive_system(self) -> bool:
        return all(v == 0.0 for v in self.boundary_left + self.boundary_right)


def rhs_matrix(
    problem: DirichletProblem,
    states: np.ndarray,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Evaluate every ``f_i`` at the equation points ``k = 0 .. N-2``.

    ``states[k]`` is the state vector fed to row ``k`` (normally the
    sigma-shifted iterate); ``states`` is read as a float array, so a list
    of rows or an integer array serves as well.  A domain error in the first
    row only is the improper-cell case: that entry is recorded and replaced
    by zero, which truncates the offending graininess cell out of every
    quadrature built on top.  The second return value lists the dropped
    components, 1-based, ascending and without repeats.  Errors at interior
    rows always propagate, re-raised as the same class with a message that
    starts ``row k, component i:``.

    Expression bodies are evaluated over all rows at once.  Callable bodies
    are called column by column, rows in order within each column, once per
    entry, as ``body(t, x)`` with ``t`` a Python float and ``x`` the state
    row as a tuple of Python floats (made lazily for each column from one
    list per call).  Each column is one pass of ``map(body, points, rows)``,
    one body call per entry; an entry that raises is marked and the pass
    resumes at the next entry.  The column's results become floats in one
    numpy assignment, which gives ``float()``'s bits; only where that
    assignment refuses a value is the column converted entry by entry,
    NaN wherever ``float()`` refuses.
    Only the entries an expression guard flags, and the callable entries
    that raised or gave a non-finite value, go through the scalar
    :meth:`Nonlinearity.evaluate` (which calls the body a second time, so
    bodies are assumed pure), in row-major order, so the first error raised
    is the one a row-by-row loop would meet first.  When every body is an
    expression and no guard fires, the values are returned as evaluated,
    read-only; with one component they can share memory with ``states`` or
    the scale's points.
    """
    ts = problem.scale
    rows = ts.last_index - 1
    n = problem.n_components
    states = float_rows(states, "states")
    if states.shape != (rows, n):
        raise DimensionMismatch(
            f"states must have shape {(rows, n)}, got {states.shape}"
        )
    times = ts.points[:rows]
    evaluated = {
        i: fi.body.evaluate_array(times, states)
        for i, fi in enumerate(problem.f) if isinstance(fi.body, ExpressionTree)
    }
    if len(evaluated) == n and not any(flags.any() for _, flags in evaluated.values()):
        if n == 1:
            return evaluated[0][0][:, None], ()
        return np.stack([column for column, _ in evaluated.values()], axis=1), ()
    out = np.empty((rows, n), dtype=float)
    scalar = np.zeros((rows, n), dtype=bool)
    for i, (column, flags) in evaluated.items():
        out[:, i], scalar[:, i] = column, flags
    points = ts._point_list
    callables = [i for i in range(n) if i not in evaluated]
    if callables:
        columns = states.T.tolist()
    for i in callables:
        values: list = []
        # the row tuples stream: built all at once, they would keep one live
        # tracked tuple per row and set off the cyclic collector
        calls = map(problem.f[i].body, points, zip(*columns))
        while True:
            try:
                values.extend(calls)
            except Exception:
                pass
            if len(values) == rows:
                break
            # the pass stopped at the first missing entry: it raised, or its
            # StopIteration ended the pass.  ``extend`` keeps what it
            # appended; mark the entry for the scalar path below and resume
            # after it.
            values.append(math.nan)
        try:
            out[:, i] = values
        except Exception:  # numpy refused a value: NaN where float() refuses it
            for k, v in enumerate(values):
                try:
                    out[k, i] = float(v)
                except Exception:
                    out[k, i] = math.nan
        scalar[:, i] = ~np.isfinite(out[:, i])
    skipped: list[int] = []
    for entry in np.flatnonzero(scalar).tolist():
        k, i = divmod(entry, n)
        try:
            out[k, i] = problem.f[i].evaluate(points[k], states[k])
        except DomainViolation as exc:
            if k == 0:
                out[k, i] = 0.0
                skipped.append(i + 1)
            else:
                raise DomainViolation(f"row {k}, component {i + 1}: {exc}") from exc
    return out, tuple(skipped)


def drop_note(skipped, prefix: str = "") -> tuple[str, ...]:
    """The record of the improper first cells ``rhs_matrix`` dropped, if any;
    ``skipped`` holds 1-based component indices."""
    if not skipped:
        return ()
    return (f"{prefix}dropped improper first cell for component(s) {sorted(skipped)}",)
