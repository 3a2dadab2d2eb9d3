"""The benchmark's workloads: request lists built from the seed.

A request is one user action, timed from the fresh ``TimeScale`` it builds to
the result it returns; its check runs afterwards, outside the timed region,
with the independent oracle.  Requests return plain arrays and strings, so
the scale, its cached kernel and every grid function are freed as soon as the
request returns.

Singular power problems ``-u^DD = u^(-gamma)`` come in twins: one request at
``gamma = 0.5 - d`` and one at ``0.5 + d``, with ``d = 0.2 x`` and ``x`` in
``[0, 1]``, so every gamma lies in ``[0.3, 0.7]``.  The solve cost grows
roughly like ``exp(3.5 gamma)``, so a twin pair costs about ``cosh(0.7 x)``
times the pair at ``gamma = 0.5``: up to 25 % more.  Odd passes therefore use
``1 - x`` of the pass before, which brings each pair of passes within a few
per cent of the same work whatever the draw.  ``x`` starts at a per-slot
offset drawn from the seed and moves along a van der Corput sequence every
two passes, so a long run covers the range evenly.  The seed also draws the
jitter of the explicit mesh.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tsdyn
import tsdyn.cli

import oracle

WHY = {
    "fine-mesh": "Picard, monotone and CLI solves at N=1025 and 4097, where the dense "
                 "O(N^2) kernel dominates and the RHS evaluation comes second",
    "fine-mesh-callable": "the fine-mesh library solves with every nonlinearity a plain "
                          "Python callable, which bypasses any expression compiler",
    "cross-check": "Newton, nested and Picard solves at N<=257 and on quantum meshes, "
                   "plus family criteria: thousands of small expression RHS calls",
    "cross-check-callable": "the cross-check requests with every nonlinearity a plain "
                            "Python callable, which bypasses any expression compiler",
}

GAMMA_MID = 0.5
GAMMA_HALF_WIDTH = 0.2

#: Iteration cap of the Newton requests.  Newton converges here in at most
#: 20 iterations, but at some gamma on the quantum depth-30 mesh it creeps
#: along accepted line-search steps until the default cap of 10 000 (about two
#: minutes).  The capped run still reports MAX_ITERS and the oracle rejects it.
NEWTON_MAX_ITERS = 30

#: Uniform refinement family of the criteria requests.
FAMILY_SIZES = (513, 1025, 2049, 4097, 8193)

#: Verdicts the criteria requests must return (the oracle's table).
CONVERGENT = {"convergent"}
NOT_CONVERGENT = {"divergent", "inconclusive"}
DIVERGENT = {"divergent"}

#: The README's demo configuration, solved by the in-process CLI at N = 4097.
CLI_CONFIG = """\
scale.kind = uniform
scale.start = 0
scale.end = 1
scale.points = 4097
f.count = 1
f.1.expr = x1^(-0.5)
f.1.lambda = -0.5
f.1.mu = 0.5
bc.left = 0
bc.right = 0
solve.strategy = picard
solve.use_bounds = true
"""


@dataclass
class Request:
    kind: str          # picard, monotone, newton, nest, criteria or cli
    label: str
    run: Callable[[], object]
    check: Callable[[object], oracle.Outcome]
    slot: str = ""     # requests timed together: both twins of a pair

    def __post_init__(self):
        self.slot = self.slot or self.label


@dataclass(frozen=True)
class Rhs:
    """A right-hand side for the library and the same function for the oracle."""

    f: tuple                                   # one tsdyn Nonlinearity per component
    f_np: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def n(self) -> int:
        return len(self.f)


def _nonlinearity(text, body, index, arity, low, high, callable_form):
    if not callable_form:
        return tsdyn.Nonlinearity.from_expression(
            text, arity=arity, component_index=index, degree_low=low, degree_high=high)
    return tsdyn.Nonlinearity(arity=arity, component_index=index, body=body,
                              degree_low=tuple(low), degree_high=tuple(high))


def power_rhs(gamma: float, callable_form: bool) -> Rhs:
    """``f(t, x) = x1^(-gamma)``."""
    gamma = float(gamma)
    f = _nonlinearity(f"x1^(-{gamma!r})", lambda t, x: math.pow(x[0], -gamma),
                      1, 1, (-gamma,), (gamma,), callable_form)
    return Rhs((f,), lambda t, u: u ** -gamma)


def sqrt_rhs(callable_form: bool) -> Rhs:
    """``f(t, x) = 1 + x1^0.5``, increasing in the state."""
    f = _nonlinearity("1 + x1^0.5", lambda t, x: 1.0 + math.pow(x[0], 0.5),
                      1, 1, (0.0,), (0.5,), callable_form)
    return Rhs((f,), lambda t, u: 1.0 + np.sqrt(u))


def two_component_rhs(callable_form: bool) -> Rhs:
    """The coupled system of the criteria tests."""
    f1 = _nonlinearity("x1^(-0.3) * x2^(-0.2)",
                       lambda t, x: math.pow(x[0], -0.3) * math.pow(x[1], -0.2),
                       1, 2, (-0.3, -0.3), (0.3, -0.1), callable_form)
    f2 = _nonlinearity("x2^(-0.4) * x1^(-0.1)",
                       lambda t, x: math.pow(x[1], -0.4) * math.pow(x[0], -0.1),
                       2, 2, (-0.2, -0.4), (-0.05, 0.4), callable_form)

    def f_np(t, u):
        return np.column_stack([u[:, 0] ** -0.3 * u[:, 1] ** -0.2,
                                u[:, 1] ** -0.4 * u[:, 0] ** -0.1])

    return Rhs((f1, f2), f_np)


def time_rhs(power: float, callable_form: bool) -> Rhs:
    """``f(t, x) = t^power``, undefined at ``t = 0`` for negative powers."""
    f = _nonlinearity(f"t^({power!r})", lambda t, x: math.pow(t, power),
                      1, 1, (0.0,), (0.0,), callable_form)
    return Rhs((f,), lambda t, u: t[:, None] ** power)


def van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence (0, 1/2, 1/4, 3/4, ...)."""
    out, scale = 0.0, 0.5
    while k:
        out += scale * (k & 1)
        k >>= 1
        scale *= 0.5
    return out


# -- requests -------------------------------------------------------------------


def solve_request(kind, label, make_scale, rhs: Rhs, strategy) -> Request:
    """Fresh scale -> construct_bounds -> verify_lower/upper -> solve."""
    zeros = (0.0,) * rhs.n
    config = (tsdyn.SolveConfig(max_iters=NEWTON_MAX_ITERS)
              if strategy is tsdyn.Strategy.NEWTON_ORACLE else None)

    def run():
        problem = tsdyn.DirichletProblem(make_scale(), rhs.f, zeros, zeros)
        pair = tsdyn.construct_bounds(problem)
        low = tsdyn.verify_lower(problem, pair.alpha)
        up = tsdyn.verify_upper(problem, pair.beta)
        report = tsdyn.solve(problem, strategy=strategy, brackets=pair.pair, config=config)
        return (problem.scale.points, pair.alpha.values, pair.beta.values,
                low.ok, up.ok, report.solution.values, report.status.value)

    def check(result) -> oracle.Outcome:
        points, alpha, beta, low_ok, up_ok, u, status = result
        agree = (int(low_ok == oracle.is_bound(points, alpha, rhs.f_np, zeros, zeros, True))
                 + int(up_ok == oracle.is_bound(points, beta, rhs.f_np, zeros, zeros, False)))
        if kind == "nest":
            # The nest reports on its widest level: indices 1..N-1 pinned to
            # the band midpoints there.  Against the full problem its defect
            # is large by design.
            mid = 0.5 * (alpha + beta)
            points, u, alpha, beta = points[1:-1], u[1:-1], alpha[1:-1], beta[1:-1]
            left, right = mid[1], mid[-2]
        else:
            left = right = zeros
        out = oracle.check_solution(points, u, rhs.f_np, left, right, alpha, beta,
                                    claimed_ok=status == "converged")
        out.verdicts, out.verdicts_ok = 2, agree
        out.detail += f", status {status}"
        return out

    return Request(kind, label, run, check)


def criteria_request(label, classify: Callable[[], object], allowed: set) -> Request:
    """A family classification whose verdict must lie in ``allowed``."""

    def run():
        return classify().verdict.value

    def check(verdict) -> oracle.Outcome:
        ok = verdict in allowed
        return oracle.Outcome(ok, verdicts=1, verdicts_ok=int(ok),
                              detail=f"verdict {verdict}, allowed {sorted(allowed)}")

    return Request("criteria", label, run, check)


def cli_request(label, workdir: Path, seen: dict) -> Request:
    """In-process ``tsdyn solve`` of the README config; ``seen`` holds the
    digest of the first output so later repeats can be compared byte for byte."""
    config = workdir / f"{label}.cfg"
    out_path = workdir / f"{label}.csv"
    config.write_text(CLI_CONFIG, encoding="utf-8")
    f_np = power_rhs(0.5, callable_form=False).f_np

    def run():
        return tsdyn.cli.main(["solve", str(config), "--out", str(out_path)])

    def check(code) -> oracle.Outcome:
        data = out_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        same = seen.setdefault(label, digest) == digest
        rows = [line for line in data.decode("utf-8").splitlines()
                if line and not line.startswith("#")]
        if rows[0] != "t,u1,alpha1,beta1":
            return oracle.Outcome(False, code == 0, detail=f"unexpected header {rows[0]!r}")
        table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        points, u, alpha, beta = table.T
        out = oracle.check_solution(points, u, f_np, [0.0], [0.0], alpha, beta,
                                    claimed_ok=code == 0)
        out.reproducible = same
        out.bytes_out = len(data)
        out.detail += f", exit {code}, identical to first run {same}"
        return out

    return Request("cli", label, run, check)


# -- workloads ------------------------------------------------------------------


class Workload:
    """Builds the request list of one workload for each pass of a run."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.why = WHY[name]
        self.seed = seed
        self.workdir = workdir
        self.callable_form = name.endswith("-callable")
        self._offsets = np.random.default_rng(seed).random(64)
        self._cli_digests: dict[str, str] = {}

    def requests(self, index: int) -> list[Request]:
        """The requests of pass ``index``; the same seed gives the same list."""
        self._index = index
        self._slot = 0
        if self.name.startswith("fine-mesh"):
            return self._fine_mesh()
        return self._cross_check(np.random.default_rng([self.seed, index]))

    def _twins(self, kind, where, make_scale, strategy) -> list[Request]:
        x = (self._offsets[self._slot] + van_der_corput(self._index // 2)) % 1.0
        self._slot += 1
        if self._index % 2:
            x = 1.0 - x
        d = GAMMA_HALF_WIDTH * x
        twins = [solve_request(kind, f"{kind}/{where}/gamma={g:.4f}", make_scale,
                               power_rhs(g, self.callable_form), strategy)
                 for g in (GAMMA_MID - d, GAMMA_MID + d)]
        for request in twins:
            request.slot = f"{kind}/{where}"
        return twins

    def _fine_mesh(self) -> list[Request]:
        S = tsdyn.Strategy
        cf = self.callable_form
        requests = [
            *self._twins("picard", "uniform-1025", lambda: tsdyn.uniform(0.0, 1.0, 1025), S.PICARD),
            *self._twins("picard", "uniform-4097", lambda: tsdyn.uniform(0.0, 1.0, 4097), S.PICARD),
            solve_request("picard", "two-component/uniform-1025",
                          lambda: tsdyn.uniform(0.0, 1.0, 1025), two_component_rhs(cf), S.PICARD),
            solve_request("monotone", "monotone-up/uniform-1025",
                          lambda: tsdyn.uniform(0.0, 1.0, 1025), sqrt_rhs(cf), S.MONOTONE_UP),
            solve_request("monotone", "monotone-down/uniform-1025",
                          lambda: tsdyn.uniform(0.0, 1.0, 1025), sqrt_rhs(cf), S.MONOTONE_DOWN),
        ]
        if not cf:   # the CLI reads expressions only
            requests.append(cli_request("cli-uniform-4097", self.workdir, self._cli_digests))
        return requests

    def _cross_check(self, rng) -> list[Request]:
        S = tsdyn.Strategy
        cf = self.callable_form
        jitter = 0.3 * rng.uniform(-1.0, 1.0, 255)
        explicit = np.concatenate([[0.0], (np.arange(1, 256) + jitter) / 256.0, [1.0]])

        def uniform(n):
            return lambda: tsdyn.uniform(0.0, 1.0, n)

        def quantum(depth):
            return lambda: tsdyn.quantum(2.0, depth)

        requests = [
            *self._twins("newton", "uniform-65", uniform(65), S.NEWTON_ORACLE),
            *self._twins("newton", "uniform-129", uniform(129), S.NEWTON_ORACLE),
            solve_request("newton", "two-component/uniform-65", uniform(65),
                          two_component_rhs(cf), S.NEWTON_ORACLE),
            *self._twins("nest", "uniform-129", uniform(129), S.TRUNCATED_NEST),
            *self._twins("nest", "uniform-257", uniform(257), S.TRUNCATED_NEST),
            *self._twins("picard", "uniform-65", uniform(65), S.PICARD),
            *self._twins("picard", "uniform-257", uniform(257), S.PICARD),
            *self._twins("picard", "explicit-257", lambda: tsdyn.from_points(explicit), S.PICARD),
        ]
        for depth in (10, 30, 80):
            for kind, strategy in (("picard", S.PICARD), ("newton", S.NEWTON_ORACLE),
                                   ("nest", S.TRUNCATED_NEST)):
                requests += self._twins(kind, f"quantum-2-{depth}", quantum(depth), strategy)

        def family():
            return tsdyn.uniform_family(0.0, 1.0, FAMILY_SIZES)

        for gamma in (0.25, 0.5, 1.0, 1.5):
            f = power_rhs(gamma, cf).f
            allowed = CONVERGENT if gamma < 1.0 else NOT_CONVERGENT if gamma == 1.0 else DIVERGENT
            requests.append(criteria_request(
                f"sufficient/gamma={gamma}",
                lambda f=f: tsdyn.criterion_sufficient(f, family()), allowed))
            requests.append(criteria_request(
                f"envelope/gamma={gamma}",
                lambda f=f: tsdyn.family_quadrature(f, family(), weight="envelope"), CONVERGENT))
        for power, allowed in ((-1.0, CONVERGENT), (-3.0, DIVERGENT)):
            f = time_rhs(power, cf).f
            requests.append(criteria_request(
                f"necessary/t^{power:g}",
                lambda f=f: tsdyn.criterion_necessary(f, tsdyn.quantum_family(2.0)), allowed))
        weight = (tsdyn.parse_expression("t^(-0.5)") if not cf
                  else lambda s: math.pow(s, -0.5))
        requests.append(criteria_request(
            "weighted-bound/t^-0.5",
            lambda: tsdyn.classify_weighted_bound(weight, family()), CONVERGENT))
        return requests
