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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .calculus import (GridFunction, band_values, cauchy_sum, equation_defect,
                       full_support_values)
from .errors import (BracketViolation, ConfigError, CriterionNotSatisfied, DomainViolation,
                     EnvelopeViolation)
from .green import envelope_weight, green_solve, kernel_factors, kernel_lower_weight
from .model import DirichletProblem, Nonlinearity, drop_note, rhs_matrix
from .timescale import TimeScale, require_finite, require_integer, uniform_family

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
#: The scaling and monotonicity checks draw states log-uniformly in [10 * this, 1e3].
_STATE_FLOOR = 1e-12
#: Relative pad of the sampled scaling and monotonicity comparisons.
_SAMPLE_REL_TOL = 1e-9
#: Absolute slack of the envelope display, for an approximate solution.
_ENVELOPE_SLACK = 1e-6


class Verdict(Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


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
    """Lower (and optionally upper) bounding grid functions, a band that
    :func:`~tsdyn.calculus.band_values` accepts, plus their constants."""

    alpha: GridFunction
    beta: GridFunction | None
    constants: dict
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.beta is not None:
            band_values(self.alpha, self.beta, self.alpha.scale, self.alpha.n_components)

    @property
    def pair(self) -> tuple[GridFunction, GridFunction]:
        if self.beta is None:
            raise BracketViolation(-1, "no upper bound was constructed")
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


@dataclass(frozen=True)
class ScalingReport(SampleReport):
    notes: tuple[str, ...] = ()
    shape_ok: bool = True


@dataclass(frozen=True)
class LipschitzReport:
    bound: float
    checked: int
    at: dict | None = None


# --- trail classification -----------------------------------------------------


def _classify(trail: Sequence[float], positive: bool) -> ConvergenceVerdict:
    vals = [float(v) for v in trail]
    last = vals[-1]
    if not all(math.isfinite(v) for v in vals):
        return ConvergenceVerdict(
            Verdict.DIVERGENT, None, last, (), math.inf, positive,
            ("non-finite partial value",),
        )
    if abs(last) > _MAGNITUDE_LIMIT:
        return ConvergenceVerdict(
            Verdict.DIVERGENT, None, last, (), math.inf, positive,
            (f"partial values reach {last:.3e}",),
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
            Verdict.CONVERGENT, limit, last, tuple(ratios), stability, positive
        )
    growing = all(incs[m] < incs[m + 1] for m in range(len(incs) - 4, len(incs) - 1))
    if growing and vals[-4] > 0.0 and last / vals[-4] > _GROWTH_FLOOR:
        return ConvergenceVerdict(
            Verdict.DIVERGENT, None, last, tuple(ratios), stability, positive,
            (f"partials grew by {last / vals[-4]:.3f}x over the last three refinements",),
        )
    return ConvergenceVerdict(
        Verdict.INCONCLUSIVE, None, last, tuple(ratios), stability, positive
    )


def _resolve_family(scales) -> list[TimeScale]:
    """``scales`` as a list, by default uniform realizations of ``[0, 1]``.
    Fewer than ``_MIN_FAMILY`` members, or point counts that do not strictly
    increase and so refine nothing, raise :class:`ConfigError` keyed
    ``scales``."""
    family = list(scales) if scales is not None else uniform_family(0.0, 1.0)
    if len(family) < _MIN_FAMILY:
        raise ConfigError(
            f"need at least {_MIN_FAMILY} realizations, got {len(family)}", key="scales"
        )
    sizes = [ts.npoints for ts in family]
    if any(fine <= coarse for coarse, fine in zip(sizes, sizes[1:])):
        raise ConfigError(f"point counts must strictly increase, got {sizes}", key="scales")
    return family


def _envelope_states(ts: TimeScale, n: int) -> np.ndarray:
    e = envelope_weight(ts).component(1)
    return np.repeat(e[1 : ts.last_index, None], n, axis=1)


def _pinned_states(ts: TimeScale, n: int, pin: float) -> np.ndarray:
    """Every state slot of every equation point pinned at ``pin``, which must
    be positive and finite."""
    if not 0.0 < pin < math.inf:
        raise CriterionNotSatisfied(
            f"evaluation point must be positive and finite, got {pin!r}"
        )
    return np.full((ts.last_index - 1, n), float(pin))


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
    return cauchy_sum(ts.mu[: ts.last_index - 1] * weight, vals)


def criterion_sufficient(
    f: Sequence[Nonlinearity], scales: Sequence[TimeScale] | None = None
) -> CriterionReport:
    """Classify the envelope-fed integrals whose convergence yields solvability.

    For each component the quadrature of ``f_i(s, E^sigma(s))`` is evaluated
    on every member of the refinement family, where ``E`` feeds the scalar
    envelope weight to all state slots.  A ``CONVERGENT`` report (all
    components, positive integrands) is the sufficient criterion; its
    ``limit`` fields carry the extrapolated improper integrals.
    """
    return family_quadrature(f, scales)


def criterion_necessary(
    f: Sequence[Nonlinearity],
    scales: Sequence[TimeScale] | None = None,
    *,
    eval_point_override: float | None = None,
) -> CriterionReport:
    """Classify the endpoint-pinned weighted integrals a solution forces finite.

    The state is pinned to the constant vector at the realized right
    endpoint (or ``eval_point_override``), and the integrand is weighted by
    ``(sigma(s) - a) (sigma(b) - sigma(s))`` with the realized ``sigma(b)``.
    A ``DIVERGENT`` report refutes solvability for the positive class.  A
    time-only weight ``g`` classifies as ``Nonlinearity(1, 1, lambda t, x:
    g(t), (0.0,), (0.0,))``.
    """
    return family_quadrature(f, scales, weight="necessary",
                             eval_point_override=eval_point_override)


#: The weight of each named family quadrature.
_WEIGHTS = {
    "plain": lambda ts: 1.0,
    "necessary": _necessary_weight,
    "envelope": kernel_lower_weight,
}


def family_quadrature(
    f: Sequence[Nonlinearity],
    scales: Sequence[TimeScale] | None = None,
    *,
    weight: str = "plain",
    eval_point_override: float | None = None,
) -> CriterionReport:
    """Run one of the named family quadratures and classify its trails.

    ``plain`` and ``envelope`` feed the envelope to the state slots and
    integrate with weight one respectively the kernel's lower weight;
    ``necessary`` pins the state at the realized right endpoint, or at
    ``eval_point_override``, which the other weights refuse.  Any other
    ``weight`` raises :class:`~tsdyn.errors.ConfigError` keyed ``weight``.
    ``scales`` defaults to ``uniform_family(0.0, 1.0)``; a realization's
    family is ``uniform_family(ts.a, ts.sigma2_b)`` or ``quantum_family(ts.q)``.
    """
    if weight not in _WEIGHTS:
        raise ConfigError(f"expected plain, necessary, or envelope, got {weight!r}",
                          key="weight")
    if eval_point_override is not None and weight != "necessary":
        raise ConfigError("applies only to the necessary weight", key="eval_point_override")
    family = _resolve_family(scales)
    f = tuple(f)
    n = len(f)
    if weight == "necessary":
        # every member's pin is built, and so checked, before any is evaluated
        states = [_pinned_states(ts, n, ts.sigma2_b if eval_point_override is None
                                 else eval_point_override) for ts in family]
    else:
        states = [_envelope_states(ts, n) for ts in family]
    zeros = (0.0,) * n
    partials: list[list[float]] = []
    lows: list[np.ndarray] = []
    notes: list[str] = []
    for ts, x in zip(family, states):
        vals, skipped = rhs_matrix(DirichletProblem(ts, f, zeros, zeros), x)
        notes.extend(drop_note(skipped, f"{ts.npoints} points: "))
        partials.append(_quadrature(ts, vals, _WEIGHTS[weight](ts)))
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


# --- bound construction ---------------------------------------------------------


def _construction_rhs(problem: DirichletProblem, what: str, states) -> tuple:
    """``rhs_matrix`` at ``states(ts, n)``, once the problem has zero boundary
    values and diagonal upper degrees below one: both constructions raise
    their constants to the power ``1 / (1 - mu_ii)``."""
    if not problem.is_positive_system:
        raise CriterionNotSatisfied(f"{what} requires zero boundary values")
    for fi in problem.f:
        if not fi.diagonal_high < 1.0:
            raise CriterionNotSatisfied(
                f"component {fi.component_index}: diagonal upper degree must "
                f"stay below one, got {fi.diagonal_high:g}"
            )
    return rhs_matrix(problem, states(problem.scale, problem.n_components))


def construct_bounds(problem: DirichletProblem) -> BoundsPair:
    """Build a lower/upper pair ``(k1 y, k2 y)`` around the envelope image.

    ``y_i`` is the kernel image of ``f_i`` fed with the envelope, and the
    constants come from the two construction integrals per component: ``I1``
    under the kernel's lower weight and ``I2`` plain.  Requires zero
    boundary values and diagonal upper degrees below one.
    """
    vals, skipped = _construction_rhs(problem, "bound construction", _envelope_states)
    ts = problem.scale
    n = problem.n_components
    I1 = _quadrature(ts, vals, kernel_lower_weight(ts))
    I2 = _quadrature(ts, vals)
    if min(I1) <= 0.0 or min(I2) <= 0.0:
        raise CriterionNotSatisfied(
            "construction integrals must be positive; the right hand side "
            "vanishes or changes sign against the envelope"
        )
    C = max(max(1.0 / I1[i], I2[i], 1.0) for i in range(n))
    k1, k2 = [], []
    for fi in problem.f:
        lam, muv = fi.degree_low, fi.degree_high
        gap = sum(lam) - sum(muv)
        expo = 1.0 / (1.0 - fi.diagonal_high)
        low_base = C**gap * math.prod(I2[j] ** lam[j] for j in range(n))
        high_base = C**-gap * math.prod(I1[j] ** lam[j] for j in range(n))
        k1.append(min(1.0, low_base**expo))
        k2.append(max(1.0, high_base**expo))
    y = green_solve(kernel_factors(ts), vals)
    return BoundsPair(
        alpha=GridFunction(ts, y * np.asarray(k1)),
        beta=GridFunction(ts, y * np.asarray(k2)),
        constants={"I1": tuple(I1), "I2": tuple(I2), "C": C,
                   "k1": tuple(k1), "k2": tuple(k2)},
        notes=drop_note(skipped),
    )


def construct_lower(problem: DirichletProblem) -> BoundsPair:
    """Build a lower bound ``k1 g`` from the endpoint-pinned right hand side.

    ``g_i`` is the kernel image of ``w(s) f_i(s, [endpoint])`` where ``w``
    is the kernel's lower weight, and ``L1`` its quadrature under ``w(s)
    (sigma^2(b) - sigma(s)) / D``.  No upper bound is produced.  Requires
    zero boundary values, diagonal upper degrees below one and sigma^2(b) > 0.
    """
    vals, skipped = _construction_rhs(problem, "lower construction",
                                      lambda ts, n: _pinned_states(ts, n, ts.sigma2_b))
    ts = problem.scale
    n = problem.n_components
    endpoint = ts.sigma2_b
    w = kernel_lower_weight(ts)
    L1 = _quadrature(ts, vals, w * (endpoint - ts.points[1 : ts.last_index]) / ts.span)
    if min(L1) <= 0.0:
        raise CriterionNotSatisfied("lower-construction integrals must be positive")
    C2 = min(1.0 / (endpoint * max(L1[i], 1.0)) for i in range(n))
    k1 = []
    for fi in problem.f:
        lam, muv = fi.degree_low, fi.degree_high
        expo = 1.0 / (1.0 - fi.diagonal_high)
        base = math.prod(
            L1[j] ** muv[j] * (1.0 / endpoint) ** lam[j] * C2 ** (muv[j] - lam[j])
            for j in range(n)
        )
        k1.append(min(1.0, base**expo))
    g = green_solve(kernel_factors(ts), w[:, None] * vals)
    return BoundsPair(
        alpha=GridFunction(ts, g * np.asarray(k1)),
        beta=None,
        constants={"L1": tuple(L1), "C2": C2, "k1": tuple(k1)},
        notes=drop_note(skipped),
    )


# --- verification ----------------------------------------------------------------


def _verify(problem, candidate, sign, slack) -> VerificationReport:
    # no margin falls below a NaN or infinite slack: any candidate would pass
    require_finite(slack, "slack")
    ts = problem.scale
    N = ts.last_index
    u = full_support_values(candidate, ts, "candidate")
    vals, skipped = rhs_matrix(problem, u[1:N])
    # sign +1 checks a lower solution: -u^DD <= f; -1 the reverse
    margin = -sign * equation_defect(ts, u, vals)
    if not np.all(np.isfinite(margin)):
        raise DomainViolation("second delta derivative of the candidate is not finite")
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
    candidate sits at or below the boundary values, both up to ``slack``,
    which must be finite."""
    return _verify(problem, candidate, +1.0, slack)


def verify_upper(
    problem: DirichletProblem, candidate: GridFunction, *, slack: float = 1e-8
) -> VerificationReport:
    """Check ``-u^DD >= f(., u^sigma)`` at every equation point and that the
    candidate sits at or above the boundary values, both up to ``slack``,
    which must be finite."""
    return _verify(problem, candidate, -1.0, slack)


def compute_envelope(problem: DirichletProblem, solution: GridFunction) -> dict:
    """Pin the solution between scaled copies of the envelope weight.

    Every nonnegative kernel image lies between ``J1 e(t)`` and ``J2 e(t)``
    where the ``J`` are the solution-fed construction integrals;
    ``_ENVELOPE_SLACK`` absorbs the residual of an approximate solution.
    Raises :class:`EnvelopeViolation` at the first escape.
    """
    if not problem.is_positive_system:
        raise CriterionNotSatisfied("the envelope display requires zero boundary values")
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


# --- sampled hypothesis checks ---------------------------------------------------


def _draws(rng, ts: TimeScale, arity: int, lo: float, hi: float, samples: int):
    """Yield ``samples`` draws from ``rng``, each one time inside ``ts`` and
    one state of ``arity`` entries, log-uniform in ``[lo, hi]``; a check
    draws what else it needs from ``rng`` between two of them.  A count that
    is not an integer >= 0 raises :class:`ConfigError` keyed ``samples``."""
    if require_integer(samples, "samples") < 0:
        raise ConfigError(f"must be >= 0, got {samples}", key="samples")
    for _ in range(samples):
        t = float(rng.choice(ts.points[1:-1]))
        yield t, 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=arity)


def _value(f: Nonlinearity, t: float, x: np.ndarray) -> float | None:
    """``f(t, x)``, or ``None`` where it is undefined or not finite."""
    try:
        return f.evaluate(t, x)
    except DomainViolation:
        return None


def _point(t: float, x: np.ndarray, j: int, **values) -> dict:
    """The record of a sample at ``(t, x)`` that moves coordinate ``j``."""
    return {"t": t, "x": tuple(float(v) for v in x), "coordinate": j + 1, **values}


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
    try:
        f.validate_shape()
        shape_ok = True
    except CriterionNotSatisfied:
        shape_ok = False
    checked = 0
    witness = None
    for t, x in _draws(rng, ts, f.arity, _STATE_FLOOR * 10.0, 1e3, samples):
        base = _value(f, t, x)
        if base is None:
            continue
        for j in range(f.arity):
            for c in (
                float(10.0 ** rng.uniform(-4.0, 0.0)),
                float(10.0 ** rng.uniform(0.0, 4.0)),
            ):
                scaled = np.array(x)
                scaled[j] *= c
                value = _value(f, t, scaled)
                if value is None:
                    continue
                lo_edge, hi_edge = f.degree_low[j], f.degree_high[j]
                if c <= 1.0:
                    lower, upper = c**hi_edge * base, c**lo_edge * base
                else:
                    lower, upper = c**lo_edge * base, c**hi_edge * base
                pad = _SAMPLE_REL_TOL * (abs(lower) + abs(upper)) + _TINY
                if witness is None and (value < lower - pad or value > upper + pad):
                    witness = _point(t, x, j, c=c, value=value, lower=lower, upper=upper)
                checked += 1
    notes = () if witness is None else (
        f"bracket fails at x{witness['coordinate']} with c = {witness['c']:.3e}",
    )
    return ScalingReport(
        ok=witness is None,
        checked=checked,
        witness=witness,
        notes=notes,
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
    checked = 0
    witness = None
    for t, x in _draws(rng, ts, f.arity, _STATE_FLOOR * 10.0, 1e3, samples):
        j = int(rng.integers(0, f.arity))
        factor = 1.0 + float(10.0 ** rng.uniform(-3.0, 1.0))
        bumped = np.array(x)
        bumped[j] *= factor
        before = _value(f, t, x)
        after = None if before is None else _value(f, t, bumped)
        if after is None:
            continue
        drift = after - before if nonincreasing else before - after
        pad = _SAMPLE_REL_TOL * (abs(before) + abs(after)) + _TINY
        if witness is None and drift > pad:
            witness = _point(t, x, j, factor=factor, before=before, after=after)
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
    if not 0.0 < lo < hi < math.inf:
        raise ConfigError(f"band must satisfy 0 < lo < hi < inf, got {band!r}", key="band")
    rng = np.random.default_rng(seed)
    anchor = np.full(f.arity, lo)
    probes = [(float(t), anchor, j, 1e-6 * lo)
              for t in ts.points[1:-1] for j in range(f.arity)]
    for t, x in _draws(rng, ts, f.arity, lo, hi, samples):
        j = int(rng.integers(0, f.arity))
        probes.append((t, x, j, 1e-6 * float(x[j])))
    best = 0.0
    at = None
    checked = 0
    for t, x, j, h in probes:
        bumped = np.array(x)
        bumped[j] = min(bumped[j] + h, hi)
        h_eff = bumped[j] - x[j]
        top = _value(f, t, bumped) if h_eff > 0.0 else None
        bottom = None if top is None else _value(f, t, x)
        if bottom is None:
            continue
        ratio = abs(top - bottom) / h_eff
        checked += 1
        if ratio > best:
            best = ratio
            at = _point(t, x, j)
    return LipschitzReport(bound=best, checked=checked, at=at)
