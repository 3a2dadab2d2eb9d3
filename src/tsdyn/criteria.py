"""Solvability criteria, bound constructions, and hypothesis checks.

The integral criteria never decide convergence from a single realization.
They evaluate the same quadrature on a refinement family (finer uniform
meshes, or deeper quantum truncations), then classify the trail of partial
values: geometrically shrinking increments with a stable tail extrapolate to
a finite limit, steadily growing partials are flagged divergent, everything
else stays inconclusive.  The first graininess cell is the improper one when
the integrand blows up at the left endpoint; only that cell may be dropped,
and every drop is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .calculus import (GridFunction, delta_derivative, equation_defect,
                       full_support_values, require_realization)
from .errors import (
    BoundOrderViolation,
    ConfigError,
    CriterionNotSatisfied,
    DomainViolation,
    EnvelopeViolation,
    FamilyTooShort,
    NonFiniteResult,
    NonpositiveEndpoint,
    ShapeViolation,
    SupportMismatch,
)
from .expressions import ExpressionTree
from .green import envelope_weight, green_apply, kernel_lower_weight
from .model import DirichletProblem, Nonlinearity, rhs_matrix
from .timescale import (QUANTUM_FAMILY_DEPTHS, UNIFORM_FAMILY_SIZES, Kind, TimeScale,
                        quantum_family, uniform_family)

#: Seed for every sampling-based hypothesis check.
DEFAULT_SEED = 0xD1E5

# classifier thresholds, calibrated on separable power families: the ratio
# ceiling must sit between the endpoint-exponent ratios 2^-0.1 (convergent,
# ~0.933) and 2^0 (critical, ~1.0) of the uniform doubling family
_RATIO_CEILING = 0.95
_STABILITY_CEILING = 0.2
_GROWTH_FLOOR = 1.5
_MAGNITUDE_LIMIT = 1e12
_TINY = 1e-300
_ABS_FLOOR = 1e-12
_MIN_FAMILY = 5
#: The sampled hypothesis checks draw states log-uniformly in [10 * this, 1e3].
_STATE_FLOOR = 1e-12
#: Relative pad of the sampled scaling and monotonicity comparisons.
_SAMPLE_REL_TOL = 1e-9
#: Absolute slack of the envelope display, for an approximate solution.
_ENVELOPE_SLACK = 1e-6


class Verdict(Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


class LowerWeight(Enum):
    """Exponent put on the kernel weight inside the lower construction."""

    DIAGONAL_DEGREE = "diagonal_degree"
    UNIT = "unit"


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Classification of one partial-integral trail."""

    verdict: Verdict
    limit: float | None
    last_value: float
    ratios: tuple[float, ...]
    stability: float
    positive: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class CriterionReport:
    verdict: Verdict
    per_component: tuple[ConvergenceVerdict, ...]
    trails: tuple[tuple[float, ...], ...]
    scale_sizes: tuple[int, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundsPair:
    """Lower (and optionally upper) bounding grid functions plus the
    constants that produced them."""

    alpha: GridFunction
    beta: GridFunction | None
    constants: dict
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.beta is None:
            return
        require_realization(self.beta, self.alpha.scale, "upper bound")
        if self.alpha.support != self.beta.support:
            raise SupportMismatch("bounds must share a support")
        if np.any(self.alpha.values > self.beta.values):
            k = int(np.argwhere(self.alpha.values > self.beta.values)[0][0])
            raise BoundOrderViolation(
                f"lower bound exceeds upper bound at index {self.alpha.lo + k}"
            )

    @property
    def pair(self) -> tuple[GridFunction, GridFunction]:
        if self.beta is None:
            raise BoundOrderViolation("no upper bound was constructed")
        return (self.alpha, self.beta)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    worst: float
    violations: tuple[tuple[int, int, float], ...]
    skipped_components: tuple[int, ...]


@dataclass(frozen=True)
class SampleReport:
    """Outcome of a sampled hypothesis check; ``witness`` names the first
    counterexample when ``ok`` is false."""

    ok: bool
    checked: int
    witness: dict | None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScalingReport(SampleReport):
    shape_ok: bool = True


@dataclass(frozen=True)
class LipschitzReport:
    bound: float
    checked: int
    at: dict | None = None


# --- trail classification -----------------------------------------------------


def _classify(
    trail: Sequence[float], positive: bool, notes: tuple[str, ...] = ()
) -> ConvergenceVerdict:
    vals = [float(v) for v in trail]
    if len(vals) < _MIN_FAMILY:
        raise FamilyTooShort(
            f"classification needs at least {_MIN_FAMILY} family members, got {len(vals)}"
        )
    last = vals[-1]
    if not all(math.isfinite(v) for v in vals):
        return ConvergenceVerdict(
            Verdict.DIVERGENT, None, last, (), math.inf, positive,
            notes + ("non-finite partial value",),
        )
    if abs(last) > _MAGNITUDE_LIMIT:
        return ConvergenceVerdict(
            Verdict.DIVERGENT, None, last, (), math.inf, positive,
            notes + (f"partial values reach {last:.3e}",),
        )
    incs = [vals[m + 1] - vals[m] for m in range(len(vals) - 1)]
    ratios: list[float] = []
    for m in range(1, len(incs)):
        if incs[m] == 0.0:
            ratios.append(0.0)
        elif incs[m - 1] == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(abs(incs[m] / incs[m - 1]))
    stability = abs(incs[-1]) / (abs(last) + _ABS_FLOOR)
    if all(r < _RATIO_CEILING for r in ratios[-3:]) and stability <= _STABILITY_CEILING:
        r = ratios[-1]
        limit = last + incs[-1] * r / (1.0 - r) if 0.0 < r < 1.0 else last
        return ConvergenceVerdict(
            Verdict.CONVERGENT, limit, last, tuple(ratios), stability, positive, notes
        )
    growing = all(incs[m] < incs[m + 1] for m in range(len(incs) - 4, len(incs) - 1))
    if growing and vals[-4] > 0.0 and last / vals[-4] > _GROWTH_FLOOR:
        return ConvergenceVerdict(
            Verdict.DIVERGENT, None, last, tuple(ratios), stability, positive,
            notes + (f"partials grew by {last / vals[-4]:.3f}x over the last three refinements",),
        )
    return ConvergenceVerdict(
        Verdict.INCONCLUSIVE, None, last, tuple(ratios), stability, positive, notes
    )


def _refinement_family(
    reference: TimeScale | None,
    sizes: Sequence[int] = UNIFORM_FAMILY_SIZES,
    depths: Sequence[int] = QUANTUM_FAMILY_DEPTHS,
) -> list[TimeScale]:
    """The refinement family of ``reference``, by default the one a criterion
    classifies over when given none: quantum realizations of its base at
    ``depths`` when it is a quantum scale, uniform realizations of its span
    (of ``[0, 1]`` without a reference) at ``sizes`` points otherwise."""
    if reference is None:
        return uniform_family(0.0, 1.0, sizes)
    if reference.kind is Kind.QUANTUM and reference.q is not None:
        return quantum_family(reference.q, depths)
    return uniform_family(reference.a, reference.sigma2_b, sizes)


def _resolve_family(scales, reference) -> list[TimeScale]:
    family = list(scales) if scales is not None else _refinement_family(reference)
    if len(family) < _MIN_FAMILY:
        raise FamilyTooShort(
            f"need at least {_MIN_FAMILY} realizations, got {len(family)}"
        )
    return family


def _envelope_states(ts: TimeScale, n: int) -> np.ndarray:
    e = envelope_weight(ts).component(1)
    return np.repeat(e[1 : ts.last_index, None], n, axis=1)


def _necessary_weight(ts: TimeScale) -> np.ndarray:
    """(sigma(s) - a)(sigma(b) - sigma(s)) with the realized sigma(b)."""
    sig = ts.points[1 : ts.last_index]
    return (sig - ts.a) * (ts.sigma_b - sig)


def _overall(per_component: Sequence[ConvergenceVerdict]) -> Verdict:
    if any(v.verdict is Verdict.DIVERGENT for v in per_component):
        return Verdict.DIVERGENT
    if all(v.verdict is Verdict.CONVERGENT and v.positive for v in per_component):
        return Verdict.CONVERGENT
    return Verdict.INCONCLUSIVE


def _quadrature(ts: TimeScale, vals: np.ndarray, weight=1.0) -> list[float]:
    """``sum_k mu_k w_k vals[k, i]`` over the equation points, per component."""
    mu = ts.mu[: ts.last_index - 1]
    return [float(np.sum(mu * weight * vals[:, i])) for i in range(vals.shape[1])]


def _drop_note(skipped: tuple[int, ...], prefix: str = "") -> tuple[str, ...]:
    """The record of the improper first cells ``rhs_matrix`` dropped, if any."""
    if not skipped:
        return ()
    return (f"{prefix}dropped improper first cell for component(s) {list(skipped)}",)


def _trail_report(f, family, states_fn, weight_fn) -> CriterionReport:
    f = tuple(f)
    n = len(f)
    zeros = (0.0,) * n
    partials: list[list[float]] = []
    lows: list[np.ndarray] = []
    notes: list[str] = []
    for ts in family:
        problem = DirichletProblem(ts, f, zeros, zeros)
        vals, skipped = rhs_matrix(problem, states_fn(ts, n))
        notes.extend(_drop_note(skipped, f"{ts.npoints} points: "))
        partials.append(_quadrature(ts, vals, weight_fn(ts)))
        lows.append(np.min(vals, axis=0))
    trails = tuple(zip(*partials))
    floors = np.min(lows, axis=0).tolist()
    per = tuple(
        _classify(trail, positive=floor >= 0.0 and trail[-1] >= _TINY)
        for trail, floor in zip(trails, floors)
    )
    return CriterionReport(
        verdict=_overall(per),
        per_component=per,
        trails=trails,
        scale_sizes=tuple(ts.npoints for ts in family),
        notes=tuple(notes),
    )


def criterion_sufficient(
    f: Sequence[Nonlinearity],
    scales: Sequence[TimeScale] | None = None,
    *,
    reference: TimeScale | None = None,
) -> CriterionReport:
    """Classify the envelope-fed integrals whose convergence yields solvability.

    For each component the quadrature of ``f_i(s, E^sigma(s))`` is evaluated
    on every member of the refinement family, where ``E`` feeds the scalar
    envelope weight to all state slots.  A ``CONVERGENT`` report (all
    components, positive integrands) is the sufficient criterion; its
    ``limit`` fields carry the extrapolated improper integrals.
    """
    family = _resolve_family(scales, reference)
    return _trail_report(f, family, _envelope_states, lambda ts: 1.0)


def criterion_necessary(
    f: Sequence[Nonlinearity],
    scales: Sequence[TimeScale] | None = None,
    *,
    reference: TimeScale | None = None,
    eval_point_override: float | None = None,
) -> CriterionReport:
    """Classify the endpoint-pinned weighted integrals a solution forces finite.

    The state is pinned to the constant vector at the realized right
    endpoint (or ``eval_point_override``), and the integrand is weighted by
    ``(sigma(s) - a) (sigma(b) - sigma(s))`` with the realized ``sigma(b)``.
    A ``DIVERGENT`` report refutes solvability for the positive class.
    """
    family = _resolve_family(scales, reference)
    for ts in family:
        pin = ts.sigma2_b if eval_point_override is None else eval_point_override
        if not pin > 0.0:
            raise NonpositiveEndpoint(
                f"evaluation point must be positive, got {pin!r}"
            )

    def states(ts: TimeScale, n: int) -> np.ndarray:
        pin = ts.sigma2_b if eval_point_override is None else eval_point_override
        return np.full((ts.last_index - 1, n), float(pin))

    return _trail_report(f, family, states, _necessary_weight)


def classify_weighted_bound(
    g: Union[ExpressionTree, Callable[[float], float]],
    scales: Sequence[TimeScale] | None = None,
    *,
    reference: TimeScale | None = None,
) -> ConvergenceVerdict:
    """Classify ``integral of (sigma(s) - a)(sigma(b) - sigma(s)) g(s)``.

    ``g`` is a scalar dominating weight, given as a parsed expression in
    ``t`` or any callable.  This is the single-function form of the
    necessary-condition quadrature, useful when a nonlinearity is bounded by
    a known time-only profile.  Errors and non-finite values of ``g`` are
    handled as for a nonlinearity: dropped in the first cell, raised inside.
    """
    g_eval = (lambda s: g.evaluate(s, ())) if isinstance(g, ExpressionTree) else g
    weight_f = Nonlinearity(1, 1, lambda t, x: g_eval(t), (0.0,), (0.0,))
    family = _resolve_family(scales, reference)

    def states(ts: TimeScale, n: int) -> np.ndarray:
        # g ignores the state; any value in the row shape will do
        return np.zeros((ts.last_index - 1, n))

    report = _trail_report([weight_f], family, states, _necessary_weight)
    verdict = report.per_component[0]
    return replace(verdict, notes=report.notes + verdict.notes)


def family_quadrature(
    f: Sequence[Nonlinearity],
    scales: Sequence[TimeScale] | None = None,
    *,
    reference: TimeScale | None = None,
    weight: str = "plain",
    eval_point_override: float | None = None,
) -> CriterionReport:
    """Run one of the named family quadratures and classify its trails.

    ``plain`` and ``envelope`` feed the envelope to the state slots and
    integrate with weight one respectively the kernel's lower weight;
    ``necessary`` pins the state at the realized right endpoint.  Any other
    ``weight`` raises :class:`~tsdyn.errors.ConfigError` keyed ``weight``.
    """
    if weight == "plain":
        return criterion_sufficient(f, scales, reference=reference)
    if weight == "necessary":
        return criterion_necessary(
            f, scales, reference=reference, eval_point_override=eval_point_override
        )
    if weight != "envelope":
        raise ConfigError(
            f"expected plain, necessary, or envelope, got {weight!r}", key="weight"
        )
    family = _resolve_family(scales, reference)

    return _trail_report(f, family, _envelope_states, kernel_lower_weight)


# --- bound construction ---------------------------------------------------------


def _require_positive_system(problem: DirichletProblem, what: str) -> None:
    if not problem.is_positive_system:
        raise ShapeViolation(f"{what} requires zero boundary values")


def construct_bounds(problem: DirichletProblem) -> BoundsPair:
    """Build a lower/upper pair ``(k1 y, k2 y)`` around the envelope image.

    ``y_i`` is the kernel image of ``f_i`` fed with the envelope, and the
    constants come from the two construction integrals per component: ``I1``
    under the kernel's lower weight and ``I2`` plain.  Requires zero
    boundary values and diagonal upper degrees below one.
    """
    _require_positive_system(problem, "bound construction")
    ts = problem.scale
    N = ts.last_index
    n = problem.n_components
    D = ts.span
    for fi in problem.f:
        if not fi.diagonal_high < 1.0:
            raise ShapeViolation(
                f"component {fi.component_index}: diagonal upper degree must "
                f"stay below one, got {fi.diagonal_high:g}"
            )
    vals, skipped = rhs_matrix(problem, _envelope_states(ts, n))
    s = ts.points[: N - 1]
    sig = ts.points[1:N]
    # (s - a) <= (sigma(s) - a), so this is also a valid lower kernel weight
    w_low = (s - ts.a) * (ts.sigma2_b - sig) / D**2
    I1 = _quadrature(ts, vals, w_low)
    I2 = _quadrature(ts, vals)
    if min(I1) <= 0.0 or min(I2) <= 0.0:
        raise CriterionNotSatisfied(
            "construction integrals must be positive; the right hand side "
            "vanishes or changes sign against the envelope"
        )
    C = max(max(1.0 / I1[i], I2[i], 1.0) for i in range(n))
    k1 = []
    k2 = []
    for fi in problem.f:
        lam = fi.degree_low
        muv = fi.degree_high
        gap = sum(lam) - sum(muv)
        expo = 1.0 / (1.0 - fi.diagonal_high)
        low_base = C**gap * math.prod(I2[j] ** lam[j] for j in range(n))
        high_base = C**-gap * math.prod(I1[j] ** lam[j] for j in range(n))
        k1.append(min(1.0, low_base**expo))
        k2.append(max(1.0, high_base**expo))
    y = green_apply(ts, GridFunction.from_values(ts, vals))
    alpha = GridFunction(ts, y.values * np.asarray(k1)[None, :], 0, N)
    beta = GridFunction(ts, y.values * np.asarray(k2)[None, :], 0, N)
    return BoundsPair(
        alpha=alpha,
        beta=beta,
        constants={
            "I1": tuple(I1),
            "I2": tuple(I2),
            "C": C,
            "k1": tuple(k1),
            "k2": tuple(k2),
        },
        notes=_drop_note(skipped),
    )


def construct_lower(
    problem: DirichletProblem,
    mode: LowerWeight = LowerWeight.DIAGONAL_DEGREE,
) -> BoundsPair:
    """Build a lower bound ``k1 g`` from the endpoint-pinned right hand side.

    ``g_i`` is the kernel image of ``w(s)^eta f_i(s, [endpoint])`` where
    ``w`` is the kernel's lower weight and ``eta`` is the diagonal upper
    degree (or one, with ``LowerWeight.UNIT``).  No upper bound is produced.
    """
    _require_positive_system(problem, "lower construction")
    ts = problem.scale
    N = ts.last_index
    n = problem.n_components
    D = ts.span
    endpoint = ts.sigma2_b
    if not endpoint > 0.0:
        raise NonpositiveEndpoint(
            f"lower construction pins the state at sigma^2(b) = {endpoint!r}"
        )
    states = np.full((N - 1, n), float(endpoint))
    vals, skipped = rhs_matrix(problem, states)
    mu = ts.mu[: N - 1]
    sig = ts.points[1:N]
    w = kernel_lower_weight(ts)
    etas = [
        fi.diagonal_high if mode is LowerWeight.DIAGONAL_DEGREE else 1.0
        for fi in problem.f
    ]
    rhs = np.empty_like(vals)
    L1 = []
    for i, eta in enumerate(etas):
        rhs[:, i] = w**eta * vals[:, i]
        L1.append(
            float(
                np.sum(
                    mu
                    * (sig - ts.a)
                    * (ts.sigma2_b - sig) ** (1.0 + eta)
                    / D ** (2.0 * eta)
                    * vals[:, i]
                )
            )
            / D
        )
    if min(L1) <= 0.0:
        raise CriterionNotSatisfied(
            "lower-construction integrals must be positive"
        )
    C2 = min(1.0 / (endpoint * max(L1[i], 1.0)) for i in range(n))
    k1 = []
    for fi in problem.f:
        lam = fi.degree_low
        muv = fi.degree_high
        expo = 1.0 / (1.0 - fi.diagonal_high)
        base = math.prod(
            L1[j] ** muv[j] * (1.0 / endpoint) ** lam[j] * C2 ** (muv[j] - lam[j])
            for j in range(n)
        )
        k1.append(min(1.0, base**expo))
    g = green_apply(ts, GridFunction.from_values(ts, rhs))
    alpha = GridFunction(ts, g.values * np.asarray(k1)[None, :], 0, N)
    return BoundsPair(
        alpha=alpha,
        beta=None,
        constants={"L1": tuple(L1), "C2": C2, "k1": tuple(k1), "eta": tuple(etas)},
        notes=_drop_note(skipped),
    )


# --- verification ----------------------------------------------------------------


def _verify(problem, candidate, sign, slack) -> VerificationReport:
    ts = problem.scale
    N = ts.last_index
    u = full_support_values(candidate, ts, "candidate")
    vals, skipped = rhs_matrix(problem, u[1:N])
    # sign +1 checks a lower solution: -u^DD <= f; -1 the reverse
    margin = -sign * equation_defect(ts, u, vals)
    if not np.all(np.isfinite(margin)):
        raise NonFiniteResult("second delta derivative of the candidate is not finite")
    bad = np.argwhere(margin < -slack)
    violations = [(int(i) + 1, int(k), float(-margin[k, i])) for k, i in bad]
    worst = float(min(0.0, np.min(margin)))
    for index, entry, bc in (
        (0, u[0], problem.boundary_left),
        (N, u[-1], problem.boundary_right),
    ):
        margin_bc = sign * (np.asarray(bc) - entry)
        worst = min(worst, float(np.min(margin_bc)))
        for i in np.argwhere(margin_bc < -slack).ravel():
            violations.append((int(i) + 1, index, float(-margin_bc[i])))
    violations = tuple(violations)
    return VerificationReport(
        ok=len(violations) == 0,
        worst=worst,
        violations=violations,
        skipped_components=skipped,
    )


def verify_lower(
    problem: DirichletProblem, candidate: GridFunction, *, slack: float = 1e-8
) -> VerificationReport:
    """Check ``-u^DD <= f(., u^sigma)`` at every equation point and that the
    candidate sits at or below the boundary values."""
    return _verify(problem, candidate, +1.0, slack)


def verify_upper(
    problem: DirichletProblem, candidate: GridFunction, *, slack: float = 1e-8
) -> VerificationReport:
    """Check ``-u^DD >= f(., u^sigma)`` at every equation point and that the
    candidate sits at or above the boundary values."""
    return _verify(problem, candidate, -1.0, slack)


def compute_envelope(problem: DirichletProblem, solution: GridFunction) -> dict:
    """Pin the solution between scaled copies of the envelope weight.

    Every nonnegative kernel image lies between ``J1 e(t)`` and ``J2 e(t)``
    where the ``J`` are the solution-fed construction integrals;
    ``_ENVELOPE_SLACK`` absorbs the residual of an approximate solution.
    Raises :class:`EnvelopeViolation` at the first escape.
    """
    _require_positive_system(problem, "the envelope display")
    ts = problem.scale
    N = ts.last_index
    u = full_support_values(solution, ts, "solution")
    vals, skipped = rhs_matrix(problem, u[1:N])
    J1 = _quadrature(ts, vals, kernel_lower_weight(ts))
    J2 = _quadrature(ts, vals)
    e = envelope_weight(ts).component(1)
    for i in range(problem.n_components):
        low = J1[i] * e - _ENVELOPE_SLACK
        high = J2[i] * e + _ENVELOPE_SLACK
        col = u[:, i]
        if np.any(col < low):
            k = int(np.argmax(col - low < 0))
            raise EnvelopeViolation(i + 1, k, float(low[k] - col[k]))
        if np.any(col > high):
            k = int(np.argmax(col - high > 0))
            raise EnvelopeViolation(i + 1, k, float(col[k] - high[k]))
    return {
        "lower": tuple(J1),
        "upper": tuple(J2),
        "skipped_components": skipped,
    }


def endpoint_slope_limits(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Delta slopes at the two ends of the support, one entry per component."""
    d = delta_derivative(u)
    return (np.array(d.values[0]), np.array(d.values[-1]))


# --- sampled hypothesis checks ---------------------------------------------------


def _interior_times(ts: TimeScale) -> np.ndarray:
    return ts.points[1:-1]


def check_scaling_exponents(
    f: Nonlinearity,
    ts: TimeScale,
    *,
    samples: int = 64,
    seed: int = DEFAULT_SEED,
) -> ScalingReport:
    """Sample the two-sided degree bracket the nonlinearity declares.

    For each drawn ``(t, x, c)`` and coordinate ``j``, the value at
    ``x_j * c`` must land between ``c**degree_high[j]`` and
    ``c**degree_low[j]`` times the base value (edges swapped for ``c > 1``),
    up to a relative pad.  ``shape_ok`` separately records whether the
    declared bracket meets the strict shape constraints.
    """
    rng = np.random.default_rng(seed)
    times = _interior_times(ts)
    lo_x = math.log10(_STATE_FLOOR * 10.0)
    try:
        f.validate_shape()
        shape_ok = True
    except ShapeViolation:
        shape_ok = False
    checked = 0
    witness = None
    notes: list[str] = []
    for _ in range(samples):
        t = float(rng.choice(times))
        x = 10.0 ** rng.uniform(lo_x, 3.0, size=f.arity)
        try:
            base = f.evaluate(t, x)
        except (DomainViolation, NonFiniteResult):
            continue
        for j in range(f.arity):
            for c in (
                float(10.0 ** rng.uniform(-4.0, 0.0)),
                float(10.0 ** rng.uniform(0.0, 4.0)),
            ):
                scaled = np.array(x)
                scaled[j] *= c
                try:
                    value = f.evaluate(t, scaled)
                except (DomainViolation, NonFiniteResult):
                    continue
                lo_edge, hi_edge = f.degree_low[j], f.degree_high[j]
                if c <= 1.0:
                    lower, upper = c**hi_edge * base, c**lo_edge * base
                else:
                    lower, upper = c**lo_edge * base, c**hi_edge * base
                pad = _SAMPLE_REL_TOL * (abs(lower) + abs(upper)) + _TINY
                if witness is None and (value < lower - pad or value > upper + pad):
                    witness = {
                        "t": t,
                        "x": tuple(float(v) for v in x),
                        "c": c,
                        "coordinate": j + 1,
                        "value": value,
                        "lower": lower,
                        "upper": upper,
                    }
                checked += 1
    if witness is not None:
        notes.append(
            f"bracket fails at x{witness['coordinate']} with c = {witness['c']:.3e}"
        )
    return ScalingReport(
        ok=witness is None,
        checked=checked,
        witness=witness,
        notes=tuple(notes),
        shape_ok=shape_ok,
    )


def check_monotone_in_state(
    f: Nonlinearity,
    ts: TimeScale,
    *,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
    nonincreasing: bool = True,
) -> SampleReport:
    """Sample coordinatewise monotonicity of the state dependence."""
    rng = np.random.default_rng(seed)
    times = _interior_times(ts)
    lo_x = math.log10(_STATE_FLOOR * 10.0)
    checked = 0
    witness = None
    for _ in range(samples):
        t = float(rng.choice(times))
        x = 10.0 ** rng.uniform(lo_x, 3.0, size=f.arity)
        j = int(rng.integers(0, f.arity))
        factor = 1.0 + float(10.0 ** rng.uniform(-3.0, 1.0))
        bumped = np.array(x)
        bumped[j] *= factor
        try:
            before = f.evaluate(t, x)
            after = f.evaluate(t, bumped)
        except (DomainViolation, NonFiniteResult):
            continue
        drift = after - before if nonincreasing else before - after
        pad = _SAMPLE_REL_TOL * (abs(before) + abs(after)) + _TINY
        if witness is None and drift > pad:
            witness = {
                "t": t,
                "x": tuple(float(v) for v in x),
                "coordinate": j + 1,
                "factor": factor,
                "before": before,
                "after": after,
            }
        checked += 1
    return SampleReport(ok=witness is None, checked=checked, witness=witness)


def check_lipschitz_bound(
    f: Nonlinearity,
    ts: TimeScale,
    band: tuple[float, float],
    *,
    samples: int = 400,
    seed: int = DEFAULT_SEED,
) -> LipschitzReport:
    """Estimate the max-norm Lipschitz constant of the state dependence.

    Samples two-sided difference quotients over the band, plus a
    deterministic sweep anchored at the band floor where singular right
    hand sides are steepest.  The estimate approaches the true constant
    from below.
    """
    lo, hi = float(band[0]), float(band[1])
    if not 0.0 < lo < hi:
        raise DomainViolation(f"band must satisfy 0 < lo < hi, got {band!r}")
    rng = np.random.default_rng(seed)
    times = _interior_times(ts)
    best = 0.0
    at = None
    checked = 0

    def quotient(t: float, x: np.ndarray, j: int, h: float):
        nonlocal best, at, checked
        bumped = np.array(x)
        bumped[j] = min(bumped[j] + h, hi)
        h_eff = bumped[j] - x[j]
        if h_eff <= 0.0:
            return
        try:
            ratio = abs(f.evaluate(t, bumped) - f.evaluate(t, x)) / h_eff
        except (DomainViolation, NonFiniteResult):
            return
        checked += 1
        if ratio > best:
            best = ratio
            at = {"t": t, "x": tuple(float(v) for v in x), "coordinate": j + 1}

    anchor = np.full(f.arity, lo)
    for t in times:
        for j in range(f.arity):
            quotient(float(t), anchor, j, 1e-6 * lo)
    for _ in range(samples):
        t = float(rng.choice(times))
        x = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=f.arity)
        j = int(rng.integers(0, f.arity))
        quotient(t, x, j, 1e-6 * float(x[j]))
    return LipschitzReport(bound=best, checked=checked, at=at)
