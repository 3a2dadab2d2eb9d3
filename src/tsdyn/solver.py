"""Solvers for the discrete Dirichlet problem.

Every strategy works on the fixed-point form ``u = phi + G f(., u^sigma)``
where ``phi`` is the affine interpolant of the boundary values and ``G`` the
kernel solve.  When a lower/upper pair is supplied, the state fed to ``f``
is clamped into the band; without one ``f`` is evaluated as it is.  The
paper's bounded correction, a device of its existence proof, is not used:
it vanishes on every in-band iterate, the only kind a solve accepts.

A solve builds one fixed-point map, :class:`_FixedPointMap`, which checks
the band and forms ``phi`` and the kernel factors once and is the one
place where a state is clamped and ``f*`` and ``T u = phi + G f*(.,
u^sigma)`` are evaluated; the pass that clamps an iterate also counts the
entries it moved.  Every strategy runs one loop, :func:`_iterate`, on
plain ``(N+1, n)`` arrays, and stops on its one test: the fixed-point
defect ``|T u - u|_inf`` of an in-band iterate, whose roundoff floor,
unlike that of the differential residual, does not grow as the mesh is
refined (see :func:`solve`).  :func:`solve`
picks the start iterate and the step: damped Picard with Anderson mixing
of depth 3 on every step from the band's geometric centre, the monotone
step ``u <- T u``, or a Newton-Krylov step whose only operator is the
kernel solve.  A solve builds a
``GridFunction`` only at entry (``phi``) and exit (the solution); support
checks happen at the public edges only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import GridFunction, band_values, equation_defect, full_support_values
from .errors import BracketViolation, ConfigError, DomainViolation
from .green import affine_interpolant, green_solve, kernel_factors
from .model import DirichletProblem, drop_note, rhs_matrix

#: Iterates or fixed-point defects beyond this magnitude are declared divergent.
DIVERGENCE_LIMIT = 1e12

#: Picard damping is halved after this many iterations without a smaller
#: defect, down to 1/64; a run that cannot damp further stalls.
_STALL_STREAK = 5
_MIN_DAMPING = 1.0 / 64.0
_LINE_SEARCH_HALVINGS = 40
#: Picard's Anderson depth, and the least orthogonal share of a difference.
_ANDERSON_DEPTH = 3
_ANDERSON_DROP = 1e-3
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


@dataclass(frozen=True)
class SolveConfig:
    """The stopping rule of :func:`solve`: ``tol_residual`` bounds the
    fixed-point defect relative to ``max(1, |u|_inf)``, and ``max_iters``
    caps the iterations.  The right-hand side is clamped into the band when
    brackets are given, and Picard's damping follows from the measured
    defects (see :func:`solve`)."""

    tol_residual: float = 1e-12
    max_iters: int = 10_000

    def __post_init__(self):
        if (not isinstance(self.max_iters, numbers.Integral)
                or isinstance(self.max_iters, bool) or self.max_iters < 0):
            raise ConfigError(
                f"must be an integer >= 0, got {self.max_iters!r}", key="max_iters")
        if not 0.0 <= self.tol_residual < math.inf:
            raise ConfigError(f"must be finite and >= 0, got {self.tol_residual!r}",
                              key="tol_residual")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of :func:`solve`.

    ``defect`` is ``|phi + G f*(., u^sigma) - u|_inf`` at the solution, the
    quantity that decided the status (infinite if the image could not be
    formed).  ``final_residual`` is the differential residual
    ``|-u^DD - f(., u^sigma)|_inf`` with the raw ``f``, computed once at the
    end (infinite outside ``f``'s domain).  ``bracket_respected`` is true
    when the clamp moves no entry of the solution's rows ``1..N-1``, the
    states ``f`` reads, and always without brackets.
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


class _FixedPointMap:
    """``T u = phi + G f*(., u^sigma)`` of one solve on plain ``(N+1, n)``
    arrays.  ``brackets``, an ``(alpha, beta)`` pair of grid functions or
    ``None``, is checked here by :func:`~tsdyn.calculus.band_values` and
    kept as value arrays; a map clamps exactly when it holds them, into
    ``band``, their rows ``1..N-1``.  ``dropped`` collects the
    components whose improper first cell ``rhs_matrix`` dropped in any
    evaluation."""

    def __init__(self, problem: DirichletProblem, brackets):
        ts = problem.scale
        self.problem = problem
        self.N = N = ts.last_index
        self.brackets = self.band = None
        if brackets is not None:
            alpha, beta = band_values(*brackets, ts, problem.n_components)
            self.brackets, self.band = (alpha, beta), (alpha[1:N], beta[1:N])
        self.phi = affine_interpolant(ts, problem.boundary_left, problem.boundary_right).values
        self.factors = kernel_factors(ts)
        self.dropped: set[int] = set()

    def clamp(self, u: np.ndarray) -> tuple:
        """The states ``f*`` reads, ``u``'s rows ``1..N-1`` clipped into the
        band, and how many entries the clip moved (a NaN counts as moved)."""
        shifted = u[1 : self.N]
        if self.band is None:
            return shifted, 0
        states = shifted.clip(*self.band)
        return states, int(np.count_nonzero(states != shifted))

    def rhs(self, u: np.ndarray) -> tuple:
        """``f*`` at the equation points, one row each, and the clamp's count."""
        states, moved = self.clamp(u)
        vals, skipped = rhs_matrix(self.problem, states)
        self.dropped.update(skipped)
        return vals, moved

    def __call__(self, u: np.ndarray) -> tuple:
        """``(f*, T u, moved)``."""
        rhs, moved = self.rhs(u)
        return rhs, self.phi + green_solve(self.factors, rhs), moved


def _residual(problem: DirichletProblem, u: np.ndarray, rhs=None) -> float:
    """Max-norm ``-u^DD - f(., u^sigma)`` with the raw ``f`` (``rhs`` if
    already evaluated); infinite outside ``f``'s domain."""
    if rhs is None:
        try:
            rhs = rhs_matrix(problem, u[1 : problem.scale.last_index])[0]
        except DomainViolation:
            return math.inf
    size = float(np.max(np.abs(equation_defect(problem.scale, u, rhs))))
    return size if math.isfinite(size) else math.inf


def apply_green_operator(
    problem: DirichletProblem, u: GridFunction, brackets=None
) -> GridFunction:
    """One application of the paper's operator ``T u = phi + G f*(., u^sigma)``,
    where ``f*`` evaluates ``f`` at the states ``u^sigma`` clipped into the
    band of ``brackets`` when given, and at ``u^sigma`` as it is otherwise.
    Public so that the fixed point of a solve can be checked against ``T``
    itself (acceptance criterion 9 drives the monotone ordering through it)."""
    T = _FixedPointMap(problem, brackets)
    full = full_support_values(u, problem.scale, "iterate")
    return GridFunction(problem.scale, T(full)[1])


def residual_norm(problem: DirichletProblem, u: GridFunction) -> float:
    """Max-norm defect of ``-u^DD = f(., u^sigma)`` over the equation points.

    Uses the raw right hand side; an iterate outside ``f``'s domain scores
    infinity rather than raising.  Public as the differential check of a
    solution, independent of the fixed-point defect a solve stops on
    (acceptance criterion 9 reads it).
    """
    full = full_support_values(u, problem.scale, "iterate")
    return _residual(problem, full)


def solve(
    problem: DirichletProblem,
    *,
    strategy: Strategy = Strategy.PICARD,
    brackets=None,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve the Dirichlet problem with the chosen strategy.

    ``brackets`` is an optional ``(alpha, beta)`` pair of grid functions on
    the full realization; monotone strategies require it.  The solve's
    fixed-point map checks it once, and every strategy below works on its
    value arrays.  ``f*`` reads the states clamped into the band with
    brackets and as they are without.

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
    ``MAX_ITERS`` otherwise.  Components whose improper first cell
    ``rhs_matrix`` dropped during the run are named in the last note.
    """
    config = config or SolveConfig()
    T = _FixedPointMap(problem, brackets)
    if strategy is Strategy.PICARD:
        return _iterate(T, config, strategy, _picard(T), min_theta=_MIN_DAMPING)
    if strategy in (Strategy.MONOTONE_UP, Strategy.MONOTONE_DOWN):
        if T.brackets is None:
            raise BracketViolation(
                -1, "monotone iteration needs a lower and an upper solution"
            )
        up = strategy is Strategy.MONOTONE_UP
        return _iterate(T, config, strategy, _monotone(1 if up else -1),
                        start=T.brackets[0 if up else 1])
    if strategy is Strategy.NEWTON_ORACLE:
        return _newton(T, config)
    raise ConfigError(f"unknown strategy {strategy!r}", key="strategy")


def _iterate(
    T: _FixedPointMap, config, strategy, step, start=None, min_theta=1.0
) -> SolveReport:
    """Judge iterates ``u_0 = start`` (default: ``phi``, or the band's
    geometric centre ``sqrt(alpha beta)`` where ``alpha > 0`` and its midpoint
    elsewhere), ``u_1``, ... by :func:`solve`'s stopping test until it
    decides; every stop and every note is recorded here.

    The test reads ``g = T u_k - u_k`` and the clamp's count.  ``step(u,
    rhs, image, g, defect, theta)`` turns ``f*``, ``T u_k``, ``g`` and
    ``|g|_inf`` into ``(u_{k+1}, T(u_{k+1}) or None)``, or into ``(status,
    note)`` to end the run.  ``theta`` starts at 1, and each
    ``_STALL_STREAK`` iterates without a smaller defect halve it, down to
    ``min_theta``, where they stall the run.  Each iterate costs at most one ``rhs_matrix`` call and one kernel
    solve, both in ``T``; the differential residual is computed once at the
    end, from the last ``f*`` when that was the raw ``f``.
    """
    problem = T.problem
    u = start
    if u is None:
        u = T.phi.copy() if T.brackets is None else 0.5 * (T.brackets[0] + T.brackets[1])
        if T.brackets is not None:  # cancels the constants of k1 y <= k2 y
            np.sqrt(T.brackets[0] * T.brackets[1], out=u, where=T.brackets[0] > 0.0)
        u[0], u[-1] = problem.boundary_left, problem.boundary_right
    notes: list[str] = []
    evaluated = None
    best, streak, theta = math.inf, 0, 1.0
    for it in range(config.max_iters + 1):
        try:
            rhs, image, moved = evaluated or T(u)
            if not np.isfinite(image).all():
                raise DomainViolation("image is not finite")
        except DomainViolation as exc:
            notes.append(f"iteration {it}: {exc}")
            status, defect, moved = Status.DIVERGED, math.inf, None
            break
        g = image - u
        defect = float(np.abs(g).max())
        size = float(np.abs(u).max())
        if size > DIVERGENCE_LIMIT or defect > DIVERGENCE_LIMIT:
            notes.append(f"iteration {it}: defect {defect:.3e}, |u| {size:.3e}")
            status = Status.DIVERGED
            break
        if defect <= config.tol_residual * max(1.0, size):
            status = Status.CONVERGED if moved == 0 else Status.STALLED
            if moved:
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
        following, extra = step(u, rhs, image, g, defect, theta)
        if isinstance(following, Status):
            notes.append(f"iteration {it}: {extra}")
            status = following
            break
        u, evaluated = following, extra
    notes.extend(drop_note(T.dropped))
    return SolveReport(
        solution=GridFunction(problem.scale, u),
        strategy=strategy,
        status=status,
        iterations=it,
        final_residual=_residual(problem, u, rhs if moved == 0 else None),
        defect=defect,
        bracket_respected=T.clamp(u)[1] == 0,
        notes=tuple(notes),
    )


def _picard(T):
    """Picard's step ``u <- (1 - theta) u + theta T u``, ``theta`` starting
    at 1 and halved by :func:`_iterate` on stagnation, with Anderson mixing
    of depth ``_ANDERSON_DEPTH`` on every step (Walker and Ni, 2011).

    With ``g_k = T u_k - u_k``, a step whose ``|g_k|_inf`` is below the last
    one's at the same ``theta`` stores ``du = u_k - u_{k-1}`` and
    ``dg = g_k - g_{k-1}``; any other step clears the stored pairs.  The step
    subtracts ``sum c_i (du_i + theta dg_i)`` over them, ``c`` the
    least-squares fit of ``g_k`` on the ``dg_i`` (:func:`_mixing`), and is
    plain when none is left or the result is not finite or leaves the band
    of ``T``: the fit extrapolates, and a mixed iterate the clamp moves can
    land a band width away from the solution.  No step calls the
    right-hand side."""
    last, history = None, []  # (u, g, |g|_inf, theta) of the last step; pairs

    def step(u, rhs, image, g, g_max, theta):
        nonlocal last
        plain = (1.0 - theta) * u + theta * image
        if last is not None and theta == last[3] and g_max < last[2]:
            dg = g - last[1]
            history.append((dg, (u - last[0]) + theta * dg, math.sqrt(np.vdot(dg, dg))))
            del history[:-_ANDERSON_DEPTH]
        else:
            history.clear()
        last = (u, g, g_max, theta)
        coefficients = _mixing(history, g)  # may drop pairs from history
        mixed = plain - sum(c * move for c, (_, move, _) in zip(coefficients, history))
        keep = np.isfinite(mixed).all() and not T.clamp(mixed)[1]
        return (mixed if keep else plain), None

    return step


def _mixing(history, g) -> list:
    """Least-squares coefficients of ``g`` on the ``dg`` of ``history``'s
    ``(dg, du + theta dg, |dg|_2)``, oldest first, by modified Gram-Schmidt
    on Python floats; while a column keeps at most ``_ANDERSON_DROP`` of its
    norm orthogonal to the older ones, the oldest pair is dropped."""
    while history:
        basis, r = [], []  # the columns of Q and of R
        for dg, _, size in history:
            r.append([])
            for q in basis:
                r[-1].append(float(np.vdot(q, dg)))
                dg = dg - r[-1][-1] * q
            r[-1].append(math.sqrt(float(np.vdot(dg, dg))))
            if not r[-1][-1] > _ANDERSON_DROP * size:
                break
            basis.append(dg / r[-1][-1])
        else:
            c = [float(np.vdot(q, g)) for q in basis]
            for j in reversed(range(len(c))):  # back substitution in R c = Q^T g
                c[j] = (c[j] - sum(r[k][j] * c[k] for k in range(j + 1, len(c)))) / r[j][j]
            return c
        del history[0]
    return []


def _monotone(direction: int):
    """The monotone step ``u <- T u`` (no damping, no mixing,
    since the ordering needs the plain map), each image moving ``direction``
    (+1 up, -1 down); a step against it ends the run as divergent."""

    def step(u, rhs, image, g, g_max, theta):
        drift = direction * g
        slack = 1e-12 * max(1.0, np.abs(u).max(), np.abs(image).max())
        if drift.min() < -slack:
            k, i = np.unravel_index(int(np.argmin(drift)), drift.shape)
            return Status.DIVERGED, (f"monotonicity violated by {-np.min(drift):.3e} "
                                     f"at index {k}, component {i + 1}")
        return image, None

    return step


def _newton_operator(T: _FixedPointMap, u, rhs):
    """Newton's operator ``v -> (I - G J) v`` on ``(N+1, n)`` arrays at ``u``,
    where ``f*`` is ``rhs``; rows 0 and N pass through.  ``f*`` at point ``k``
    reads only ``u_{k+1}``, so ``J`` is block diagonal, ``(N-1, n, n)``, and
    one forward-difference ``T.rhs`` call per component gives it.  Where the
    forward probe leaves f's domain the component is probed backward; only
    when both leave it is the error raised."""
    N = T.N
    jac = np.empty(rhs.shape + rhs.shape[1:])
    for j in range(rhs.shape[1]):
        h = _JACOBIAN_STEP * np.maximum(1.0, np.abs(u[1:N, j]))
        for sign in (1.0, -1.0):
            shifted = u.copy()
            shifted[1:N, j] += sign * h
            try:
                probe = T.rhs(shifted)[0]
                break
            except DomainViolation:
                if sign < 0:
                    raise
        step = (shifted - u)[1:N, j, None]
        jac[:, :, j] = (probe - rhs) / step
    return lambda v: v - green_solve(T.factors, np.einsum("kij,kj->ki", jac, v[1:N]))


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


def _newton(T: _FixedPointMap, config: SolveConfig) -> SolveReport:
    """Newton-Krylov steps on ``g = T u - u = 0``, judged by :func:`_iterate`.
    GMRES solves ``(I - G J) delta = g`` (:func:`_newton_operator`) to the
    relative tolerance ``min(1e-2, |g|_inf)``, which keeps the tail quadratic.
    The step is halved until the trial, its rows ``1..N-1`` clamped by ``T``
    and its boundary values pinned, has a smaller defect, or the run stalls;
    the accepted trial goes back to the loop with ``T`` of it."""

    def step(u, rhs, image, g, g_max, theta):
        try:
            operator = _newton_operator(T, u, rhs)
        except DomainViolation as exc:
            # u itself was evaluated; only its forward and backward probes left f's domain
            return Status.DIVERGED, f"Jacobian probe: {exc}"
        delta = _gmres(operator, g, min(1e-2, g_max))
        undefined = 0
        for halvings in range(_LINE_SEARCH_HALVINGS + 1):
            z = u + 0.5**halvings * delta
            z[1 : T.N] = T.clamp(z)[0]
            z[0], z[-1] = T.problem.boundary_left, T.problem.boundary_right
            try:
                trial = T(z)
            except DomainViolation:
                undefined += 1
                continue
            if np.abs(trial[1] - z).max() < g_max:
                return z, trial
        causes = [f"line search failed at defect {g_max:.3e}"]
        if undefined:
            causes.append(f"{undefined} of {_LINE_SEARCH_HALVINGS + 1} trials left "
                          "the domain of f")
        if T.band is not None:
            causes.append(f"the clamp moves {T.clamp(u + delta)[1]} entries of the full step")
        return Status.STALLED, "; ".join(causes)

    return _iterate(T, config, Strategy.NEWTON_ORACLE, step)
