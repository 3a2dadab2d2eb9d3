"""Solvers for the discrete Dirichlet problem.

Every strategy works on the fixed-point form ``u = phi + G f(., u^sigma)``
where ``phi`` is the affine interpolant of the boundary values and ``G`` the
kernel solve.  When a lower/upper pair is supplied, the state fed to ``f``
can be clamped into the band (``TRUNCATED``) or clamped plus a bounded
correction term that pushes escaped iterates back (``MODIFIED``); ``RAW``
evaluates as-is.  Reported residuals always use the raw right hand side, so
a report can only claim convergence on the original problem.

Picard, both monotone directions and every level of the nested strategy run
one loop, :func:`_fixed_point`, on plain ``(N+1, n)`` arrays; they differ
only in the start iterate, the right-hand-side mode and, for monotone runs, a
direction whose drift the loop checks.  Two array cores hold the formulas
every path shares: :func:`_regularized` evaluates ``f*`` on the equation
points, and :func:`_defect` forms ``-u^DD - f*`` there.  The public grid
function entry points and Newton's system map are thin layers over them;
``GridFunction`` support checks happen at those public edges only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import GridFunction
from .errors import (
    BracketViolation,
    ConfigError,
    DomainViolation,
    NonFiniteResult,
    SupportMismatch,
    TooFewPoints,
)
from .green import affine_interpolant, green_apply
from .model import DirichletProblem, rhs_matrix
from .timescale import TimeScale, from_points

#: Iterates or residuals beyond this magnitude are declared divergent.
DIVERGENCE_LIMIT = 1e12

#: Picard damping is halved after this many non-improving steps, down to 1/64.
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
    tol_residual: float = 1e-10
    tol_step: float = 1e-12
    max_iters: int = 10_000
    damping: float = 1.0
    rhs_mode: RhsMode | None = None  # resolved per strategy when left unset

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ConfigError(f"must lie in (0, 1], got {self.damping!r}",
                              key="damping")
        if (not isinstance(self.max_iters, numbers.Integral)
                or isinstance(self.max_iters, bool) or self.max_iters < 0):
            raise ConfigError(
                f"must be an integer >= 0, got {self.max_iters!r}", key="max_iters")
        for key in ("tol_residual", "tol_step"):
            if not getattr(self, key) >= 0.0:
                raise ConfigError(f"must be >= 0, got {getattr(self, key)!r}", key=key)


@dataclass(frozen=True)
class SolveReport:
    solution: GridFunction
    strategy: Strategy
    status: Status
    iterations: int
    final_residual: float
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
    alpha, beta = brackets
    N = problem.scale.last_index
    for g in (alpha, beta):
        if g.lo > 0 or g.hi < N:
            raise SupportMismatch("brackets must cover the whole realization")
        if g.n_components != problem.n_components:
            raise SupportMismatch("bracket component count differs from the system")
    if np.any(alpha.values > beta.values):
        bad = int(np.argwhere(alpha.values > beta.values)[0][0])
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


def _band(brackets, mode: RhsMode):
    """Bracket value arrays that ``mode`` clamps into; ``None`` for ``RAW``."""
    if mode is RhsMode.RAW:
        return None
    if brackets is None:
        raise BracketViolation(-1, f"{mode.value} evaluation needs brackets")
    return brackets[0].values, brackets[1].values


def _regularized(
    problem: DirichletProblem, u: np.ndarray, band, mode: RhsMode, raw=None
) -> np.ndarray:
    """:func:`regularized_rhs` on plain arrays: ``u`` is a full ``(N+1, n)``
    iterate, ``band`` comes from :func:`_band`; one row per equation point.

    ``raw``, if given, is ``rhs_matrix`` at the unclamped states ``u[1:N]``;
    it is reused whenever clamping moves nothing, because then the states are
    the same and the ``MODIFIED`` correction is zero.
    """
    N = problem.scale.last_index
    shifted = u[1:N]
    states = shifted if band is None else np.clip(shifted, band[0][1:N], band[1][1:N])
    vals = raw
    if vals is None or not np.array_equal(states, shifted):
        vals = rhs_matrix(problem, states)[0]
    if mode is RhsMode.MODIFIED:
        gap = states - shifted
        vals = vals + gap / (1.0 + np.abs(gap))
    return vals


def _defect(ts: TimeScale, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``-u^DD - rhs`` at the equation points ``k = 0 .. N-2``."""
    mu = ts.mu
    d1 = np.diff(u, axis=0) / mu[:, None]
    return -(np.diff(d1, axis=0) / mu[:-1, None]) - rhs


def _residual(problem: DirichletProblem, u: np.ndarray):
    """Max-norm raw defect at ``u`` and the raw right hand side behind it.

    The right hand side is ``None`` when ``f`` cannot be evaluated at ``u``;
    the defect is then infinite.
    """
    try:
        rhs = _regularized(problem, u, None, RhsMode.RAW)
    except (DomainViolation, NonFiniteResult):
        return math.inf, None
    size = float(np.max(np.abs(_defect(problem.scale, u, rhs))))
    return (size if math.isfinite(size) else math.inf), rhs


def _full_values(problem: DirichletProblem, u: GridFunction) -> np.ndarray:
    if u.lo > 0 or u.hi < problem.scale.last_index:
        raise SupportMismatch("iterate must cover the whole realization")
    return u.values


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
    vals = _regularized(problem, _full_values(problem, u), _band(brackets, mode), mode)
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
    return _residual(problem, _full_values(problem, u))[0]


def _bracket_respected(u: np.ndarray, brackets) -> bool:
    if brackets is None:
        return True
    alpha, beta = brackets
    slack = 1e-8 * max(1.0, alpha.max_abs(), beta.max_abs())
    return bool(
        np.all(u >= alpha.values - slack) and np.all(u <= beta.values + slack)
    )


def solve(
    problem: DirichletProblem,
    *,
    strategy: Strategy = Strategy.PICARD,
    brackets=None,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve the Dirichlet problem with the chosen strategy.

    ``brackets`` is an optional ``(alpha, beta)`` pair of grid functions on
    the full realization; monotone and nested strategies require it.  The
    report's status is ``CONVERGED`` only when the raw residual meets the
    tolerance and the solution respects the band, and ``STALLED`` when the
    iteration stopped moving before it got there.
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
        start = brackets[0 if up else 1].values
        return _fixed_point(
            problem, brackets, mode, config, strategy, start, 1 if up else -1
        )
    if strategy is Strategy.NEWTON_ORACLE:
        return _newton(problem, brackets, mode, config)
    if strategy is Strategy.TRUNCATED_NEST:
        return _nested(problem, brackets, config)
    raise ValueError(f"unknown strategy {strategy!r}")


def _start_iterate(problem: DirichletProblem, brackets, phi: np.ndarray) -> np.ndarray:
    if brackets is None:
        return phi
    alpha, beta = brackets
    mid = 0.5 * (alpha.values + beta.values)
    mid[0] = problem.boundary_left
    mid[-1] = problem.boundary_right
    return mid


def _fixed_point(
    problem, brackets, mode, config, strategy, start=None, direction=0
) -> SolveReport:
    """Iterate ``u <- (1 - theta) u + theta (phi + G f*(., u^sigma))``.

    ``start`` defaults to the band midpoint (``phi`` without a band).  A
    nonzero ``direction`` (+1 up, -1 down) makes this the monotone
    iteration: each image must move that way and ``theta`` stays one.
    Otherwise ``theta`` starts at ``config.damping`` and is halved on
    stagnation.  The start residual is reported if no step is taken.

    Each residual evaluation also yields the raw right hand side at the new
    iterate, which the next step reuses unless the clamp moves it, so a step
    costs one ``rhs_matrix`` call on in-band iterates.
    """
    ts = problem.scale
    N = ts.last_index
    phi = affine_interpolant(ts, problem.boundary_left, problem.boundary_right).values
    band = _band(brackets, mode)
    u = _start_iterate(problem, brackets, phi) if start is None else start
    theta = 1.0 if direction else config.damping
    best = math.inf
    streak = 0
    notes: list[str] = []
    residual, raw = _residual(problem, u)
    status = Status.MAX_ITERS
    it = 0
    for it in range(1, config.max_iters + 1):
        try:
            rhs = GridFunction(ts, _regularized(problem, u, band, mode, raw), 0, N - 2)
            image = phi + green_apply(ts, rhs).values
            u_next = (1.0 - theta) * u + theta * image
            if not np.all(np.isfinite(u_next)):
                raise NonFiniteResult("iterate is not finite")
        except (DomainViolation, NonFiniteResult) as exc:
            notes.append(f"iteration {it}: {exc}")
            status = Status.DIVERGED
            break
        if direction:
            drift = direction * (image - u)
            slack = 1e-12 * max(1.0, np.abs(u).max(), np.abs(image).max())
            if np.min(drift) < -slack:
                k, i = np.unravel_index(int(np.argmin(drift)), drift.shape)
                notes.append(
                    f"iteration {it}: monotonicity violated by {-np.min(drift):.3e} "
                    f"at index {k}, component {i + 1}"
                )
                status = Status.DIVERGED
                break
        step = float(np.max(np.abs(u_next - u)))
        u = u_next
        size = float(np.max(np.abs(u)))
        residual, raw = _residual(problem, u)
        if residual <= config.tol_residual and _bracket_respected(u, brackets):
            status = Status.CONVERGED
            break
        if size > DIVERGENCE_LIMIT or residual > DIVERGENCE_LIMIT:
            notes.append(f"iteration {it}: residual {residual:.3e}")
            status = Status.DIVERGED
            break
        if residual < best:
            best = residual
            streak = 0
        elif not direction:
            streak += 1
            if streak >= _STALL_STREAK and theta > _MIN_DAMPING:
                theta = max(0.5 * theta, _MIN_DAMPING)
                streak = 0
                notes.append(f"iteration {it}: damping reduced to {theta:g}")
        if step <= config.tol_step * max(1.0, size):
            notes.append(f"iteration {it}: step stalled at {step:.3e}")
            status = Status.STALLED
            break
    return SolveReport(
        solution=GridFunction(ts, u, 0, N),
        strategy=strategy,
        status=status,
        iterations=it,
        final_residual=residual,
        bracket_respected=_bracket_respected(u, brackets),
        notes=tuple(notes),
    )


def _system_map(problem, brackets, mode):
    """Residual map F(z) = 0 of the full discrete system, z component-major."""
    ts = problem.scale
    N = ts.last_index
    n = problem.n_components
    band = _band(brackets, mode)
    left = np.asarray(problem.boundary_left)
    right = np.asarray(problem.boundary_right)

    def F(z: np.ndarray) -> np.ndarray:
        vals = z.reshape((N + 1, n), order="F")
        eq = _defect(ts, vals, _regularized(problem, vals, band, mode))
        rows = [
            np.concatenate(([vals[0, i] - left[i]], eq[:, i], [vals[N, i] - right[i]]))
            for i in range(n)
        ]
        return np.concatenate(rows)

    return F


def _newton(problem, brackets, mode, config):
    ts = problem.scale
    N = ts.last_index
    n = problem.n_components
    dim = (N + 1) * n
    F = _system_map(problem, brackets, mode)
    phi = affine_interpolant(ts, problem.boundary_left, problem.boundary_right).values
    u = _start_iterate(problem, brackets, phi)
    z = u.flatten(order="F")
    notes: list[str] = []
    status = Status.MAX_ITERS
    it = 0

    def clipped(zv: np.ndarray) -> np.ndarray:
        vals = zv.reshape((N + 1, n), order="F")
        vals = np.array(vals)
        if brackets is not None:
            vals = np.clip(vals, brackets[0].values, brackets[1].values)
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

    residual = math.inf
    for it in range(1, config.max_iters + 1):
        u = z.reshape((N + 1, n), order="F")
        residual = _residual(problem, u)[0]
        if residual <= config.tol_residual and _bracket_respected(u, brackets):
            status = Status.CONVERGED
            break
        try:
            Fz = F(z)
        except (DomainViolation, NonFiniteResult) as exc:
            notes.append(f"iteration {it}: {exc}")
            status = Status.DIVERGED
            break
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
                J[:, j] = (F(z) - F(zm)) / h
        try:
            direction = np.linalg.solve(J, -Fz)
        except np.linalg.LinAlgError:
            notes.append(f"iteration {it}: singular jacobian")
            status = Status.DIVERGED
            break
        base = float(np.max(np.abs(Fz)))
        lam = 1.0
        accepted = False
        for _ in range(_LINE_SEARCH_HALVINGS + 1):
            z_try = clipped(z + lam * direction)
            if safe_norm(z_try) < base:
                z = z_try
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            notes.append(f"iteration {it}: line search failed at |F| = {base:.3e}")
            status = Status.STALLED
            break
    return SolveReport(
        solution=GridFunction(ts, u, 0, N),
        strategy=Strategy.NEWTON_ORACLE,
        status=status,
        iterations=it,
        final_residual=residual,
        bracket_respected=_bracket_respected(u, brackets),
        notes=tuple(notes),
    )


def _nested(problem, brackets, config):
    """Solve a nest of centered truncations, widening back to the full scale.

    Each level keeps indices ``k .. N-k`` of the realization, pins the
    truncated boundary to the band midpoints there, and runs the damped
    fixed-point iteration.  The reported residual is the widest level's own
    residual; the trail records max-abs changes between consecutive levels
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
    trail: list[float] = []
    notes: list[str] = []
    prev = None
    total_iters = 0
    sub_report = None
    for k in range(k_max, 0, -1):
        sub_ts = from_points(ts.points[k : N - k + 1])
        sub_alpha = GridFunction.from_values(sub_ts, alpha.values[k : N - k + 1])
        sub_beta = GridFunction.from_values(sub_ts, beta.values[k : N - k + 1])
        mid_left = 0.5 * (sub_alpha.values[0] + sub_beta.values[0])
        mid_right = 0.5 * (sub_alpha.values[-1] + sub_beta.values[-1])
        sub_problem = DirichletProblem(
            sub_ts, problem.f, tuple(mid_left), tuple(mid_right)
        )
        sub_report = _fixed_point(
            sub_problem,
            (sub_alpha, sub_beta),
            RhsMode.MODIFIED,
            config,
            Strategy.TRUNCATED_NEST,
        )
        total_iters += sub_report.iterations
        notes.append(
            f"level {k}: {sub_ts.npoints} points, {sub_report.iterations} iterations, "
            f"residual {sub_report.final_residual:.3e}"
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
        bracket_respected=_bracket_respected(solution.values, brackets),
        nest_trail=tuple(trail),
        notes=tuple(notes),
    )
