"""Independent checks for the benchmark's results, written with numpy only.

Nothing here imports tsdyn: a solution is checked against a tridiagonal
(Thomas) solve of the discrete Dirichlet operator, lower and upper solutions
against a second difference taken here, and criteria verdicts against a fixed
table.  Every check runs outside the timed region.

The discrete problem on points ``p_0 < ... < p_N`` with ``mu_k = p_{k+1} - p_k``
is ``-u^DD(p_k) = f(p_k, u_{k+1})`` for ``k = 0 .. N-2`` with ``u_0`` and
``u_N`` pinned.  Multiplying row ``k`` by ``mu_k`` gives the symmetric
tridiagonal system in ``u_1 .. u_{N-1}``

    -u_k / mu_k + (1/mu_k + 1/mu_{k+1}) u_{k+1} - u_{k+2} / mu_{k+1} = mu_k h_k,

which is weakly diagonally dominant, so elimination without pivoting is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest accepted fixed-point defect ``|u - v|_inf / max(1, |u|_inf)``.
DEFECT_TOL = 1e-8

#: Bracket and lower/upper-solution slack, relative to ``max(1, |alpha|, |beta|)``.
BRACKET_SLACK = 1e-8

#: Absolute slack of the lower/upper-solution inequalities, as in the library.
SOLUTION_SLACK = 1e-8


@dataclass
class Outcome:
    """What the oracle found for one request.

    ``claimed_ok`` is the library's own success claim for the result (solve
    status, CLI exit code); ``None`` when the request reports none.  Verdicts
    are the criteria-layer answers the request returned (bound verifications,
    family classifications) and how many of them the oracle agrees with.
    """

    ok: bool
    claimed_ok: bool | None = None
    verdicts: int = 0
    verdicts_ok: int = 0
    reproducible: bool = True        # CLI output equals the first run's bytes
    bytes_out: int = 0               # CLI output size
    detail: str = ""

    @property
    def false_claim(self) -> bool:
        return self.claimed_ok is True and not self.ok

    @property
    def disagrees(self) -> bool:
        return self.claimed_ok is not None and self.claimed_ok != self.ok


def thomas_dirichlet(points: np.ndarray, h: np.ndarray, left, right) -> np.ndarray:
    """Solve ``-v^DD = h`` on the equation points with pinned end values.

    ``h`` has one row per equation point ``0 .. N-2`` and one column per
    component; the result has one row per point ``0 .. N``.
    """
    points = np.asarray(points, dtype=float)
    h = np.asarray(h, dtype=float).reshape(len(points) - 2, -1)
    inv = 1.0 / np.diff(points)
    n = len(points) - 2                      # unknowns u_1 .. u_{N-1}
    diag = inv[:-1] + inv[1:]
    off = inv[1:-1]                          # -off[j] couples unknowns j and j+1
    rhs = np.diff(points)[:-1, None] * h
    rhs[0] += inv[0] * np.asarray(left, dtype=float)
    rhs[-1] += inv[-1] * np.asarray(right, dtype=float)
    cprime = np.empty(n)
    dprime = np.empty_like(rhs)
    pivot = diag[0]
    cprime[0] = -off[0] / pivot if n > 1 else 0.0
    dprime[0] = rhs[0] / pivot
    for j in range(1, n):
        pivot = diag[j] + off[j - 1] * cprime[j - 1]
        cprime[j] = -off[j] / pivot if j < n - 1 else 0.0
        dprime[j] = (rhs[j] + off[j - 1] * dprime[j - 1]) / pivot
    v = np.empty((n + 2, rhs.shape[1]))
    v[0] = left
    v[-1] = right
    v[n] = dprime[n - 1]
    for j in range(n - 2, -1, -1):
        v[j + 1] = dprime[j] - cprime[j] * v[j + 2]
    return v


def fixed_point_defect(points, u, f_np, left, right) -> float:
    """``|u - v|_inf / max(1, |u|_inf)`` where ``-v^DD = f(t, u^sigma)``."""
    u = np.asarray(u, dtype=float).reshape(len(points), -1)
    with np.errstate(all="ignore"):
        h = f_np(np.asarray(points)[:-2], u[1:-1])
    if not np.all(np.isfinite(h)):
        return float("inf")
    v = thomas_dirichlet(points, h, left, right)
    return float(np.max(np.abs(u - v)) / max(1.0, float(np.max(np.abs(u)))))


def within_bracket(u, alpha, beta) -> bool:
    """``alpha - slack <= u <= beta + slack`` everywhere."""
    slack = BRACKET_SLACK * max(1.0, float(np.max(np.abs(alpha))), float(np.max(np.abs(beta))))
    return bool(np.all(u >= alpha - slack) and np.all(u <= beta + slack))


def is_bound(points, w, f_np, left, right, lower: bool) -> bool:
    """Check ``-w^DD <= f(t, w^sigma)`` (lower) or ``>=`` (upper), and the ends."""
    points = np.asarray(points, dtype=float)
    w = np.asarray(w, dtype=float).reshape(len(points), -1)
    mu = np.diff(points)
    d2 = np.diff(np.diff(w, axis=0) / mu[:, None], axis=0) / mu[:-1, None]
    with np.errstate(all="ignore"):
        margin = f_np(points[:-2], w[1:-1]) + d2
        ends = np.concatenate([np.asarray(left, dtype=float) - w[0],
                               np.asarray(right, dtype=float) - w[-1]])
    sign = 1.0 if lower else -1.0
    return bool(np.all(sign * margin >= -SOLUTION_SLACK)
                and np.all(sign * ends >= -SOLUTION_SLACK))


def check_solution(points, u, f_np, left, right, alpha, beta, claimed_ok) -> Outcome:
    """Accept ``u`` when its fixed-point defect is small and it stays in the band."""
    defect = fixed_point_defect(points, u, f_np, left, right)
    inside = within_bracket(u, alpha, beta)
    ok = defect <= DEFECT_TOL and inside
    return Outcome(ok, claimed_ok, detail=f"defect {defect:.3e}, in band {inside}")


def self_test() -> list[str]:
    """Run the oracle on closed-form cases; return the failures (empty = pass).

    ``u(t) = t (1 - t)`` solves ``-u^DD = 2`` exactly on a uniform mesh and
    ``-u^DD = 1 + q`` (``q`` at ``t = 0``) on the quantum mesh
    ``{0} | {q^-k}``, whose end points are 0 and 1.  The oracle must accept it
    and reject a copy bumped by 1e-6 at one interior point.
    """
    q, depth = 2.0, 30
    cases = {
        "uniform": (np.linspace(0.0, 1.0, 4097), lambda t: np.full_like(t, 2.0)),
        "quantum": (np.array([0.0] + [q ** -k for k in range(depth, -1, -1)]),
                    lambda t: np.where(t > 0.0, 1.0 + q, q)),
    }
    failures = []
    for name, (points, rhs) in cases.items():
        exact = points * (1.0 - points)
        f_np = lambda t, u, rhs=rhs: rhs(t)[:, None]  # noqa: E731
        band = (exact - 0.01, exact + 0.01)
        if not check_solution(points, exact, f_np, [0.0], [0.0], *band, None).ok:
            failures.append(f"{name}: exact solution rejected")
        bumped = exact.copy()
        bumped[len(points) // 2] += 1e-6
        if check_solution(points, bumped, f_np, [0.0], [0.0], *band, None).ok:
            failures.append(f"{name}: perturbed solution accepted")
        if within_bracket(exact, exact + 0.01, exact + 0.02):
            failures.append(f"{name}: solution below the band accepted")
    return failures
