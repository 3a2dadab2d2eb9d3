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
is refined (see :func:`solve`).  Picard, both monotone directions, every
level of the nested strategy and Newton differ only in the start iterate,
the right-hand-side mode and the step from one iterate to the next.
Picard's step, shared by every nested level, is damped Picard with a
guarded secant correction on every second step (Anderson acceleration of
depth 1); the monotone steps and Newton's are unchanged.  Three array
cores hold the formulas every path shares: :func:`_regularized` evaluates
``f*`` on the equation points, :func:`~tsdyn.green.green_solve` applies the
kernel with the factors of :func:`~tsdyn.green.kernel_factors`, which the
loop forms once per solve, and :func:`_defect` forms ``-u^DD - f*``.  A
solve builds a ``GridFunction`` only at entry (``phi``) and exit (the
solution); support checks happen at the public edges only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import GridFunction, difference_quotient, full_support_values
from .errors import (
    BracketViolation,
    ConfigError,
    DomainViolation,
    NonFiniteResult,
    SupportMismatch,
    TooFewPoints,
)
from .green import affine_interpolant, green_apply, green_solve, kernel_factors
from .model import DirichletProblem, rhs_matrix
from .timescale import TimeScale, from_points

#: Iterates or fixed-point defects beyond this magnitude are declared divergent.
DIVERGENCE_LIMIT = 1e12

#: Picard damping is halved after this many iterations without a smaller
#: defect, down to 1/64; a run that cannot damp further stalls.
_STALL_STREAK = 5
_MIN_DAMPING = 1.0 / 64.0
_LINE_SEARCH_HALVINGS = 40


class Strategy(Enum):
    PICARD = "picard"
    MONOTONE_UP = "monotone_up"
    MONOTONE_DOWN = "monotone_down"
    NEWTON_ORACLE = "newton_oracle"
    TRUNCATED_NEST = "truncated_nest"


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
    """``tol_residual`` bounds the fixed-point defect relative to
    ``max(1, |u|_inf)`` (see :func:`solve`); ``damping`` is Picard's starting
    ``theta``, for its damped step and the secant correction it takes on
    every second step (monotone runs and Newton ignore it); ``rhs_mode`` is
    resolved per strategy when left unset."""

    tol_residual: float = 1e-12
    max_iters: int = 10_000
    damping: float = 1.0
    rhs_mode: RhsMode | None = None

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ConfigError(f"must lie in (0, 1], got {self.damping!r}",
                              key="damping")
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
    end (infinite outside ``f``'s domain).  Nested runs report both for
    their widest level.
    """

    solution: GridFunction
    strategy: Strategy
    status: Status
    iterations: int
    final_residual: float
    defect: float
    bracket_respected: bool
    nest_trail: tuple[float, ...] | None = None
    notes: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


def clamp_to_band(
    u: GridFunction, alpha: GridFunction, beta: GridFunction
) -> GridFunction:
    """Clip ``u`` pointwise into ``[alpha, beta]`` on ``u``'s support."""
    lo = alpha.restrict(u.lo, u.hi).values
    hi = beta.restrict(u.lo, u.hi).values
    return GridFunction(u.scale, np.clip(u.values, lo, hi), u.lo, u.hi)


def _check_brackets(problem: DirichletProblem, brackets) -> tuple:
    """The ``(alpha, beta)`` value arrays of a checked bracket pair."""
    alpha, beta = brackets
    N = problem.scale.last_index
    for g in (alpha, beta):
        full_support_values(g, N, "brackets")
        if g.n_components != problem.n_components:
            raise SupportMismatch("bracket component count differs from the system")
    alpha, beta = alpha.values, beta.values
    if np.any(alpha > beta):
        bad = int(np.argwhere(alpha > beta)[0][0])
        raise BracketViolation(bad)
    return alpha, beta


def _resolve_mode(
    strategy: Strategy, config: SolveConfig, has_brackets: bool
) -> RhsMode:
    if strategy in (Strategy.MONOTONE_UP, Strategy.MONOTONE_DOWN):
        # bracket preservation of the iteration map is only exact without
        # the correction term, so monotone runs always truncate
        return RhsMode.TRUNCATED
    if config.rhs_mode is not None:
        return config.rhs_mode
    return RhsMode.MODIFIED if has_brackets else RhsMode.RAW


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
    full = full_support_values(u, N, "iterate")
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
    full = full_support_values(u, problem.scale.last_index, "iterate")
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
    the full realization; monotone and nested strategies require it.  It is
    checked here once; every strategy below works on its value arrays.

    Every strategy stops on one test, applied to each iterate ``u``:
    ``CONVERGED`` when ``u`` lies in the band, so the clamp moves no entry
    and ``f*`` is the raw ``f``, and its fixed-point defect
    ``|phi + G f*(., u^sigma) - u|_inf`` is at most
    ``config.tol_residual * max(1, |u|_inf)``; ``DIVERGED`` when ``|u|_inf``
    or the defect passes ``DIVERGENCE_LIMIT`` or ``f*`` cannot be
    evaluated; ``STALLED`` when the defect has not decreased for
    ``_STALL_STREAK`` iterations at the smallest damping (1/64, or 1 for
    monotone runs and Newton), or when Newton's line search fails;
    ``MAX_ITERS`` otherwise.
    """
    config = config or SolveConfig()
    if brackets is not None:
        brackets = _check_brackets(problem, brackets)
    mode = _resolve_mode(strategy, config, brackets is not None)
    if strategy is Strategy.PICARD:
        return _fixed_point(problem, brackets, mode, config, strategy)
    if strategy in (Strategy.MONOTONE_UP, Strategy.MONOTONE_DOWN):
        if brackets is None:
            raise BracketViolation(
                -1, "monotone iteration needs a lower and an upper solution"
            )
        up = strategy is Strategy.MONOTONE_UP
        start = brackets[0 if up else 1]
        return _fixed_point(
            problem, brackets, mode, config, strategy, start, 1 if up else -1
        )
    if strategy is Strategy.NEWTON_ORACLE:
        return _newton(problem, brackets, mode, config)
    if strategy is Strategy.TRUNCATED_NEST:
        return _nested(problem, brackets, config)
    raise ValueError(f"unknown strategy {strategy!r}")


def _iterate(
    problem, brackets, mode, config, strategy, advance, notes,
    start=None, theta=1.0, min_theta=1.0,
) -> SolveReport:
    """Judge iterates ``u_0 = start`` (default: band midpoint, or ``phi``),
    ``u_1``, ... by :func:`solve`'s stopping test until it decides.

    The test reads ``g = T u_k - u_k`` with ``T u = phi + G f*(., u^sigma)``;
    ``advance(it, u, rhs, image, g, defect, theta)`` then turns ``f*``,
    ``T u_k``, ``g`` and ``|g|_inf`` into ``u_{k+1}``, or returns a status
    (after noting why) to end the run.  Stagnation halves ``theta`` down to
    ``min_theta``, then stalls.

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
    band = _band(brackets, mode, N)
    if brackets is not None:
        lower, upper = brackets[0][1:N], brackets[1][1:N]
    u = start
    if u is None:
        u = phi.copy() if brackets is None else 0.5 * (brackets[0] + brackets[1])
        u[0], u[-1] = problem.boundary_left, problem.boundary_right
    best, streak = math.inf, 0
    for it in range(config.max_iters + 1):
        if brackets is None:
            inside = True
        else:
            inner = u[1:N]
            inside = bool((lower <= inner).all() and (inner <= upper).all())
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
        if inside and defect <= config.tol_residual * max(1.0, size):
            status = Status.CONVERGED
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
    ``config.damping``; with a nonzero ``direction`` (+1 up, -1 down) the
    monotone step ``u <- T u``, each image moving that way.

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
        problem, brackets, mode, config, strategy, picard,
        notes, start, config.damping, _MIN_DAMPING,
    )


def _system_rows(problem, u, rhs):
    """Rows of the full discrete system at ``u`` given ``f*`` there: the two
    boundary mismatches and ``-u^DD - f*`` between them."""
    N = problem.scale.last_index
    out = np.empty_like(u)
    out[0] = u[0] - np.asarray(problem.boundary_left)
    out[1:N] = _defect(problem.scale, u, rhs)
    out[N] = u[N] - np.asarray(problem.boundary_right)
    return out


def _newton(problem, brackets, mode, config):
    """Newton steps on the full discrete system ``F(z) = 0`` (``z``
    component-major) with a finite-difference Jacobian and a backtracking
    line search on ``|F|``, judged by :func:`_iterate`'s stopping test."""
    ts = problem.scale
    N = ts.last_index
    n = problem.n_components
    dim = (N + 1) * n
    band = _band(brackets, mode, N)
    notes: list[str] = []

    def F(zv: np.ndarray) -> np.ndarray:
        vals = zv.reshape((N + 1, n), order="F")
        return _system_rows(
            problem, vals, _regularized(problem, vals, band, mode)
        ).flatten(order="F")

    def clipped(zv: np.ndarray) -> np.ndarray:
        vals = zv.reshape((N + 1, n), order="F")
        vals = np.array(vals)
        if brackets is not None:
            vals = np.clip(vals, *brackets)
        vals[0] = problem.boundary_left
        vals[-1] = problem.boundary_right
        return vals.flatten(order="F")

    def safe_norm(zv: np.ndarray) -> float:
        try:
            fz = F(zv)
        except (DomainViolation, NonFiniteResult):
            return math.inf
        if not np.all(np.isfinite(fz)):
            return math.inf
        return float(np.max(np.abs(fz)))

    def step(it, u, rhs, image, g, g_max, theta):
        z = u.flatten(order="F")
        Fz = _system_rows(problem, u, rhs).flatten(order="F")
        J = np.empty((dim, dim))
        for j in range(dim):
            h = 1e-6 * max(1.0, abs(z[j]))
            zp = np.array(z)
            zm = np.array(z)
            zp[j] += h
            zm[j] -= h
            try:
                J[:, j] = (F(zp) - F(zm)) / (2.0 * h)
            except (DomainViolation, NonFiniteResult):
                # fall back to a one-sided difference toward the iterate
                J[:, j] = (Fz - F(zm)) / h
        try:
            direction = np.linalg.solve(J, -Fz)
        except np.linalg.LinAlgError:
            notes.append(f"iteration {it}: singular jacobian")
            return Status.DIVERGED
        base = float(np.max(np.abs(Fz)))
        lam = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS + 1):
            z_try = clipped(z + lam * direction)
            if safe_norm(z_try) < base:
                return z_try.reshape((N + 1, n), order="F")
            lam *= 0.5
        notes.append(f"iteration {it}: line search failed at |F| = {base:.3e}")
        return Status.STALLED

    return _iterate(problem, brackets, mode, config, Strategy.NEWTON_ORACLE, step, notes)


def _nested(problem, brackets, config):
    """Solve a nest of centered truncations, widening back to the full scale.

    Each level keeps indices ``k .. N-k`` of the realization, pins the
    truncated boundary to the band midpoints there, and runs the damped
    fixed-point iteration.  The reported status, defect and residual are the
    widest level's own; the trail records max-abs changes between consecutive levels
    on shared indices.
    """
    if brackets is None:
        raise BracketViolation(-1, "nested truncation needs a band for its boundaries")
    ts = problem.scale
    N = ts.last_index
    k_max = (N - 3) // 2
    if k_max < 1:
        raise TooFewPoints("nested truncation needs at least six points")
    alpha, beta = brackets
    mid = 0.5 * (alpha + beta)
    trail: list[float] = []
    notes: list[str] = []
    prev = None
    total_iters = 0
    for k in range(k_max, 0, -1):
        sub_ts = from_points(ts.points[k : N - k + 1])
        sub_problem = DirichletProblem(
            sub_ts, problem.f, tuple(mid[k]), tuple(mid[N - k])
        )
        sub_report = _fixed_point(
            sub_problem,
            (alpha[k : N - k + 1], beta[k : N - k + 1]),
            RhsMode.MODIFIED,
            config,
            Strategy.TRUNCATED_NEST,
        )
        total_iters += sub_report.iterations
        notes.append(
            f"level {k}: {sub_ts.npoints} points, {sub_report.iterations} iterations, "
            f"defect {sub_report.defect:.3e}, residual {sub_report.final_residual:.3e}"
        )
        if prev is not None:
            # current level rows 1..-2 sit on the previous level's indices
            trail.append(
                float(np.max(np.abs(sub_report.solution.values[1:-1] - prev)))
            )
        prev = sub_report.solution.values
    assembled = np.empty((N + 1, problem.n_components))
    assembled[0] = problem.boundary_left
    assembled[-1] = problem.boundary_right
    assembled[1:N] = prev
    solution = GridFunction(ts, assembled, 0, N)
    return SolveReport(
        solution=solution,
        strategy=Strategy.TRUNCATED_NEST,
        status=sub_report.status,
        iterations=total_iters,
        final_residual=sub_report.final_residual,
        defect=sub_report.defect,
        bracket_respected=_bracket_respected(solution.values, brackets),
        nest_trail=tuple(trail),
        notes=tuple(notes),
    )
