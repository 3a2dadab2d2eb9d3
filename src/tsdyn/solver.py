"""Solvers for the discrete Dirichlet problem.

Every strategy works on the fixed-point form ``u = phi + G f(., u^sigma)``
where ``phi`` is the affine interpolant of the boundary values and ``G`` the
kernel solve.  When a lower/upper pair is supplied, the state fed to ``f``
can be clamped into the band (``TRUNCATED``) or clamped plus a bounded
correction term that pushes escaped iterates back (``MODIFIED``); ``RAW``
evaluates as-is.

Every strategy runs one loop, :func:`_iterate`, on plain ``(N+1, n)``
arrays, and stops on its one test: the fixed-point defect
``|phi + G f(., u^sigma) - u|_inf`` of an in-band iterate, whose roundoff
floor, unlike that of the differential residual, does not grow as the mesh
is refined (see :func:`solve`).  Picard, both monotone directions and
Newton differ only in the start iterate, the right-hand-side mode and the
step from one iterate to the next.  Picard's step is damped Picard with a
guarded secant correction on every second step (Anderson acceleration of
depth 1); monotone runs take ``u <- T u``, and Newton a Newton-Krylov step
whose only operator is the kernel solve.  Three array cores hold the
formulas every path shares: :func:`_regularized` evaluates ``f*`` on the
equation points, :func:`~tsdyn.green.green_solve` applies the kernel with
the factors of :func:`~tsdyn.green.kernel_factors`, which the loop forms
once per solve, and :func:`_defect` forms ``-u^DD - f*``.  A solve builds a
``GridFunction`` only at entry (``phi``) and exit (the solution); support
checks happen at the public edges only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import (GridFunction, difference_quotient, full_support_values,
                       require_realization)
from .errors import (
    BracketViolation,
    ConfigError,
    DomainViolation,
    NonFiniteResult,
    SupportMismatch,
)
from .green import affine_interpolant, green_apply, green_solve, kernel_factors
from .model import DirichletProblem, rhs_matrix
from .timescale import TimeScale

#: Iterates or fixed-point defects beyond this magnitude are declared divergent.
DIVERGENCE_LIMIT = 1e12

#: Picard damping is halved after this many iterations without a smaller
#: defect, down to 1/64; a run that cannot damp further stalls.
_STALL_STREAK = 5
_MIN_DAMPING = 1.0 / 64.0
_LINE_SEARCH_HALVINGS = 40
#: Newton's relative forward-difference step and largest Krylov basis.
_JACOBIAN_STEP = 1.5e-8
_KRYLOV_DIM = 60


class Strategy(Enum):
    PICARD = "picard"
    MONOTONE_UP = "monotone_up"
    MONOTONE_DOWN = "monotone_down"
    NEWTON_ORACLE = "newton_oracle"


# bench/workloads.py still names the removed strategy; as a non-member solve() rejects it
Strategy.TRUNCATED_NEST = "truncated_nest"


class Status(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    STALLED = "stalled"
    DIVERGED = "diverged"


class RhsMode(Enum):
    MODIFIED = "modified"
    TRUNCATED = "truncated"
    RAW = "raw"


@dataclass(frozen=True)
class SolveConfig:
    """The stopping rule of :func:`solve`: ``tol_residual`` bounds the
    fixed-point defect relative to ``max(1, |u|_inf)``, and ``max_iters``
    caps the iterations.  The right-hand-side mode follows from the strategy
    and the brackets, and Picard's damping from the measured defects (see
    :func:`solve`)."""

    tol_residual: float = 1e-12
    max_iters: int = 10_000

    def __post_init__(self):
        if (not isinstance(self.max_iters, numbers.Integral)
                or isinstance(self.max_iters, bool) or self.max_iters < 0):
            raise ConfigError(
                f"must be an integer >= 0, got {self.max_iters!r}", key="max_iters")
        if not self.tol_residual >= 0.0:
            raise ConfigError(f"must be >= 0, got {self.tol_residual!r}",
                              key="tol_residual")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of :func:`solve`.

    ``defect`` is ``|phi + G f*(., u^sigma) - u|_inf`` at the solution, the
    quantity that decided the status (infinite if the image could not be
    formed).  ``final_residual`` is the differential residual
    ``|-u^DD - f(., u^sigma)|_inf`` with the raw ``f``, computed once at the
    end (infinite outside ``f``'s domain).
    """

    solution: GridFunction
    strategy: Strategy
    status: Status
    iterations: int
    final_residual: float
    defect: float
    bracket_respected: bool
    notes: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


def clamp_to_band(
    u: GridFunction, alpha: GridFunction, beta: GridFunction
) -> GridFunction:
    """Clip ``u`` pointwise into ``[alpha, beta]`` on ``u``'s support."""
    require_realization(alpha, u.scale, "alpha")
    require_realization(beta, u.scale, "beta")
    lo = alpha.restrict(u.lo, u.hi).values
    hi = beta.restrict(u.lo, u.hi).values
    return GridFunction(u.scale, np.clip(u.values, lo, hi), u.lo, u.hi)


def _check_brackets(problem: DirichletProblem, brackets) -> tuple:
    """The ``(alpha, beta)`` value arrays of a checked bracket pair."""
    alpha, beta = brackets
    for g in (alpha, beta):
        full_support_values(g, problem.scale, "brackets")
        if g.n_components != problem.n_components:
            raise SupportMismatch("bracket component count differs from the system")
    alpha, beta = alpha.values, beta.values
    if np.any(alpha > beta):
        bad = int(np.argwhere(alpha > beta)[0][0])
        raise BracketViolation(bad)
    return alpha, beta


def _band(brackets, mode: RhsMode, N: int):
    """The bracket values at the points ``1..N-1`` that ``mode`` clamps the
    shifted states into; ``None`` for ``RAW``."""
    if mode is RhsMode.RAW:
        return None
    if brackets is None:
        raise BracketViolation(-1, f"{mode.value} evaluation needs brackets")
    return brackets[0][1:N], brackets[1][1:N]


def _regularized(
    problem: DirichletProblem, u: np.ndarray, band, mode: RhsMode,
    inside: bool = False,
) -> np.ndarray:
    """:func:`regularized_rhs` on plain arrays: ``u`` is a full ``(N+1, n)``
    iterate, ``band`` comes from :func:`_band`; one row per equation point.
    ``inside`` tells that ``u`` lies in the band, so every gap the clamp
    leaves is a signed zero, which the bounded correction returns as is."""
    shifted = u[1 : problem.scale.last_index]
    states = shifted if band is None else shifted.clip(band[0], band[1])
    vals = rhs_matrix(problem, states)[0]
    if mode is RhsMode.MODIFIED:
        gap = states - shifted
        vals = vals + (gap if inside else gap / (1.0 + np.abs(gap)))
    return vals


def _defect(ts: TimeScale, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``-u^DD - rhs`` at the equation points ``k = 0 .. N-2``."""
    mu = ts.mu
    return -difference_quotient(difference_quotient(u, mu), mu[:-1]) - rhs


def _residual(problem: DirichletProblem, u: np.ndarray, rhs=None) -> float:
    """Max-norm ``-u^DD - f(., u^sigma)`` with the raw ``f`` (``rhs`` if
    already evaluated); infinite outside ``f``'s domain."""
    if rhs is None:
        try:
            rhs = _regularized(problem, u, None, RhsMode.RAW)
        except (DomainViolation, NonFiniteResult):
            return math.inf
    size = float(np.max(np.abs(_defect(problem.scale, u, rhs))))
    return size if math.isfinite(size) else math.inf


def regularized_rhs(
    problem: DirichletProblem,
    u: GridFunction,
    brackets=None,
    mode: RhsMode = RhsMode.RAW,
) -> GridFunction:
    """Right-hand-side grid ``f*(t_k, u^sigma)`` on the equation points.

    With a band, states are clamped into it; ``MODIFIED`` adds the bounded
    correction ``(d - x) / (1 + |d - x|)`` per component, which vanishes
    exactly on in-band iterates.
    """
    if brackets is not None:
        brackets = _check_brackets(problem, brackets)
    N = problem.scale.last_index
    full = full_support_values(u, problem.scale, "iterate")
    vals = _regularized(problem, full, _band(brackets, mode, N), mode)
    return GridFunction.from_values(problem.scale, vals, lo=0)


def apply_green_operator(
    problem: DirichletProblem,
    u: GridFunction,
    brackets=None,
    mode: RhsMode = RhsMode.RAW,
) -> GridFunction:
    """One application of ``u -> phi + G f*(., u^sigma)``."""
    ts = problem.scale
    rhs = regularized_rhs(problem, u, brackets, mode)
    base = affine_interpolant(ts, problem.boundary_left, problem.boundary_right)
    return base + green_apply(ts, rhs)


def residual_norm(problem: DirichletProblem, u: GridFunction) -> float:
    """Max-norm defect of ``-u^DD = f(., u^sigma)`` over the equation points.

    Uses the raw right hand side; an iterate outside ``f``'s domain scores
    infinity rather than raising.
    """
    full = full_support_values(u, problem.scale, "iterate")
    return _residual(problem, full)


def _bracket_respected(u: np.ndarray, brackets) -> bool:
    if brackets is None:
        return True
    alpha, beta = brackets
    slack = 1e-8 * max(1.0, float(np.max(np.abs(alpha))), float(np.max(np.abs(beta))))
    return bool(np.all(u >= alpha - slack) and np.all(u <= beta + slack))


def solve(
    problem: DirichletProblem,
    *,
    strategy: Strategy = Strategy.PICARD,
    brackets=None,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve the Dirichlet problem with the chosen strategy.

    ``brackets`` is an optional ``(alpha, beta)`` pair of grid functions on
    the full realization; monotone strategies require it.  It is
    checked here once; every strategy below works on its value arrays.
    ``f*`` is evaluated in ``MODIFIED`` mode with brackets and ``RAW``
    without, except in monotone runs, which truncate.

    Every strategy stops on one test, applied to each iterate ``u``:
    ``CONVERGED`` when ``u`` lies in the band, so the clamp moves no entry
    and ``f*`` is the raw ``f``, and its fixed-point defect
    ``|phi + G f*(., u^sigma) - u|_inf`` is at most
    ``config.tol_residual * max(1, |u|_inf)``; ``DIVERGED`` when ``|u|_inf``
    or the defect passes ``DIVERGENCE_LIMIT`` or ``f*`` cannot be
    evaluated; ``STALLED`` at once when the defect meets that bound outside
    the band, which shows the band is not invariant, when it has not
    decreased for ``_STALL_STREAK`` iterations at the smallest damping (1/64,
    or 1 for monotone runs and Newton), or when Newton's line search fails;
    ``MAX_ITERS`` otherwise.
    """
    config = config or SolveConfig()
    if brackets is not None:
        brackets = _check_brackets(problem, brackets)
    mode = RhsMode.RAW if brackets is None else RhsMode.MODIFIED
    if strategy is Strategy.PICARD:
        return _fixed_point(problem, brackets, mode, config, strategy)
    if strategy in (Strategy.MONOTONE_UP, Strategy.MONOTONE_DOWN):
        if brackets is None:
            raise BracketViolation(
                -1, "monotone iteration needs a lower and an upper solution"
            )
        up = strategy is Strategy.MONOTONE_UP
        start = brackets[0 if up else 1]
        # bracket preservation of the iteration map is only exact without
        # the correction term, so monotone runs truncate
        return _fixed_point(
            problem, brackets, RhsMode.TRUNCATED, config, strategy, start,
            1 if up else -1,
        )
    if strategy is Strategy.NEWTON_ORACLE:
        return _newton(problem, brackets, mode, config)
    raise ConfigError(f"unknown strategy {strategy!r}", key="strategy")


def _iterate(
    problem, brackets, mode, config, strategy, advance, notes,
    start=None, min_theta=1.0,
) -> SolveReport:
    """Judge iterates ``u_0 = start`` (default: band midpoint, or ``phi``),
    ``u_1``, ... by :func:`solve`'s stopping test until it decides.

    The test reads ``g = T u_k - u_k`` with ``T u = phi + G f*(., u^sigma)``;
    ``advance(it, u, rhs, image, g, defect, theta)`` then turns ``f*``,
    ``T u_k``, ``g`` and ``|g|_inf`` into ``u_{k+1}``, or returns a status
    (after noting why) to end the run.  ``theta`` follows from the measured
    defects: it starts at 1 and each ``_STALL_STREAK`` iterates without a
    smaller defect halve it, down to ``min_theta``, where they stall the run.

    Everything between the start iterate and the report is a plain
    ``(N+1, n)`` array: ``phi``, the kernel factors of
    :func:`~tsdyn.green.kernel_factors` and the band slices are formed once
    per solve, and each iterate costs one ``rhs_matrix`` call and one
    :func:`~tsdyn.green.green_solve`.  The only grid functions are ``phi``'s
    at entry and the solution's in the report.  The differential residual
    is computed once at the end, from the last ``f*`` when that was the raw
    ``f``.
    """
    ts = problem.scale
    N = ts.last_index
    phi = affine_interpolant(ts, problem.boundary_left, problem.boundary_right).values
    factors = kernel_factors(ts)
    band = _band(brackets, mode, N)  # None without brackets
    u = start
    if u is None:
        u = phi.copy() if brackets is None else 0.5 * (brackets[0] + brackets[1])
        u[0], u[-1] = problem.boundary_left, problem.boundary_right
    best, streak, theta = math.inf, 0, 1.0
    for it in range(config.max_iters + 1):
        inner = u[1:N]
        inside = band is None or bool(((band[0] <= inner) & (inner <= band[1])).all())
        try:
            rhs = _regularized(problem, u, band, mode, inside)
            image = phi + green_solve(factors, rhs)
            if not np.isfinite(image).all():
                raise NonFiniteResult("image is not finite")
        except (DomainViolation, NonFiniteResult) as exc:
            notes.append(f"iteration {it}: {exc}")
            status, defect, inside = Status.DIVERGED, math.inf, False
            break
        g = image - u
        defect = float(np.abs(g).max())
        size = float(np.abs(u).max())
        if size > DIVERGENCE_LIMIT or defect > DIVERGENCE_LIMIT:
            notes.append(f"iteration {it}: defect {defect:.3e}, |u| {size:.3e}")
            status = Status.DIVERGED
            break
        if defect <= config.tol_residual * max(1.0, size):
            status = Status.CONVERGED if inside else Status.STALLED
            if not inside:
                moved = int(np.count_nonzero(inner.clip(*band) != inner))
                notes.append(f"iteration {it}: band not invariant: defect "
                             f"{defect:.3e} meets the tolerance where the clamp "
                             f"moves {moved} entries")
            break
        best, streak = (defect, 0) if defect < best else (best, streak + 1)
        if streak >= _STALL_STREAK:
            streak = 0
            if theta <= min_theta:
                notes.append(f"iteration {it}: defect stalled at {best:.3e}")
                status = Status.STALLED
                break
            theta = max(0.5 * theta, min_theta)
            notes.append(f"iteration {it}: damping reduced to {theta:g}")
        if it == config.max_iters:
            status = Status.MAX_ITERS
            break
        following = advance(it, u, rhs, image, g, defect, theta)
        if isinstance(following, Status):
            status = following
            break
        u = following
    return SolveReport(
        solution=GridFunction(ts, u, 0, N),
        strategy=strategy,
        status=status,
        iterations=it,
        final_residual=_residual(problem, u, rhs if inside else None),
        defect=defect,
        bracket_respected=_bracket_respected(u, brackets),
        notes=tuple(notes),
    )


def _fixed_point(
    problem, brackets, mode, config, strategy, start=None, direction=0
) -> SolveReport:
    """Picard's step ``u <- (1 - theta) u + theta T u``, ``theta`` starting at
    1 and halved by :func:`_iterate` on stagnation; with a nonzero
    ``direction`` (+1 up, -1 down) the monotone step ``u <- T u``, each image
    moving that way.

    With ``g_k = T u_k - u_k``, a Picard step that follows a plain one at the
    same ``theta`` and has ``|g_k|_inf < |g_{k-1}|_inf`` subtracts the secant
    correction ``c (du + theta dg)``, where ``du = u_k - u_{k-1}``,
    ``dg = g_k - g_{k-1}`` and ``c = <dg, g_k> / <dg, dg>``, and the step
    after it is plain again.  It falls back to the plain step when
    ``<dg, dg> = 0`` or the result is not finite.  For ``f = x^(-gamma)`` the
    slow error mode is ``u`` itself, which plain Picard shrinks only by
    ``gamma`` per step and one correction removes.  The correction costs a
    few array operations and no right-hand-side evaluation; monotone steps
    never take it, since their ordering needs the plain map."""
    notes: list[str] = []

    def monotone(it, u, rhs, image, g, g_max, theta):
        drift = direction * g
        slack = 1e-12 * max(1.0, np.abs(u).max(), np.abs(image).max())
        if drift.min() < -slack:
            k, i = np.unravel_index(int(np.argmin(drift)), drift.shape)
            notes.append(
                f"iteration {it}: monotonicity violated by {-np.min(drift):.3e} "
                f"at index {k}, component {i + 1}"
            )
            return Status.DIVERGED
        return image

    last = None  # (u, g, |g|_inf, theta) of the last plain Picard step

    def picard(it, u, rhs, image, g, g_max, theta):
        nonlocal last
        plain = (1.0 - theta) * u + theta * image
        prev, last = last, (u, g, g_max, theta)
        if prev is None:
            return plain
        u_prev, g_prev, g_max_prev, theta_prev = prev
        if theta != theta_prev or not g_max < g_max_prev:
            return plain
        dg = g - g_prev
        dd = float(np.vdot(dg, dg))
        if not dd > 0.0:
            return plain
        step = plain - (float(np.vdot(dg, g)) / dd) * ((u - u_prev) + theta * dg)
        if not np.isfinite(step).all():
            return plain
        last = None  # the next step is plain
        return step

    if direction:
        return _iterate(problem, brackets, mode, config, strategy, monotone, notes, start)
    return _iterate(
        problem, brackets, mode, config, strategy, picard, notes, start, _MIN_DAMPING
    )


def _newton_operator(problem, u, band, mode, rhs, factors):
    """Newton's operator ``v -> (I - G J) v`` on ``(N+1, n)`` arrays at ``u``,
    where ``f*`` is ``rhs``; rows 0 and N pass through.  ``f*`` at point ``k``
    reads only ``u_{k+1}``, so ``J`` is block diagonal, ``(N-1, n, n)``, and
    one forward-difference :func:`_regularized` call per component gives it."""
    N = problem.scale.last_index
    jac = np.empty(rhs.shape + rhs.shape[1:])
    for j in range(rhs.shape[1]):
        shifted = u.copy()
        shifted[1:N, j] += _JACOBIAN_STEP * np.maximum(1.0, np.abs(u[1:N, j]))
        step = (shifted - u)[1:N, j, None]
        jac[:, :, j] = (_regularized(problem, shifted, band, mode) - rhs) / step
    return lambda v: v - green_solve(factors, np.einsum("kij,kj->ki", jac, v[1:N]))


def _gmres(apply, b: np.ndarray, rtol: float) -> np.ndarray:
    """GMRES from zero for ``apply(x) = b`` (``b`` nonzero) until the residual
    is at most ``rtol * |b|_2`` or the basis holds ``_KRYLOV_DIM`` vectors."""
    size = float(np.linalg.norm(b))
    basis, hess = [b / size], np.zeros((_KRYLOV_DIM + 1, _KRYLOV_DIM))
    target = np.r_[size, np.zeros(_KRYLOV_DIM)]
    for m in range(1, _KRYLOV_DIM + 1):
        w = apply(basis[-1])
        for i, q in enumerate(basis):
            hess[i, m - 1] = np.vdot(q, w)
            w = w - hess[i, m - 1] * q
        hess[m, m - 1] = np.linalg.norm(w)
        y, gap, *_ = np.linalg.lstsq(hess[: m + 1, :m], target[: m + 1], rcond=None)
        if not gap.size or gap[0] <= (rtol * size) ** 2:
            break
        basis.append(w / hess[m, m - 1])
    return sum(c * q for c, q in zip(y, basis))


def _newton(problem, brackets, mode, config):
    """Newton-Krylov steps on ``g = T u - u = 0``, judged by :func:`_iterate`.
    GMRES solves ``(I - G J) delta = g`` (:func:`_newton_operator`) to the
    relative tolerance ``min(1e-2, |g|_inf)``, which keeps the tail quadratic.
    The step is halved until the trial, clipped into the band with its
    boundary values pinned, has a smaller defect, or the run stalls."""
    ts = problem.scale
    N = ts.last_index
    phi = affine_interpolant(ts, problem.boundary_left, problem.boundary_right).values
    factors = kernel_factors(ts)
    band = _band(brackets, mode, N)
    low, high = brackets or (-np.inf, np.inf)
    notes: list[str] = []

    def step(it, u, rhs, image, g, g_max, theta):
        try:
            operator = _newton_operator(problem, u, band, mode, rhs, factors)
        except (DomainViolation, NonFiniteResult) as exc:
            notes.append(f"iteration {it}: {exc}")
            return Status.DIVERGED
        delta = _gmres(operator, g, min(1e-2, g_max))
        reach = (u + delta)[1:N]
        moved = 0 if band is None else int(np.count_nonzero(reach.clip(*band) != reach))
        for halvings in range(_LINE_SEARCH_HALVINGS + 1):
            z = np.clip(u + 0.5**halvings * delta, low, high)
            z[0], z[-1] = problem.boundary_left, problem.boundary_right
            try:
                rhs = _regularized(problem, z, band, mode)
            except (DomainViolation, NonFiniteResult):
                continue
            if np.abs(phi + green_solve(factors, rhs) - z).max() < g_max:
                return z
        notes.append(f"iteration {it}: line search failed at defect {g_max:.3e}; "
                     f"the clamp moves {moved} entries of the full step")
        return Status.STALLED

    return _iterate(problem, brackets, mode, config, Strategy.NEWTON_ORACLE, step, notes)

