"""Criteria, bound constructions, verification, and sampled hypothesis checks.

Every quadrature the library reports is recomputed here with plain Python
loops over the same realizations; classifier verdicts are checked against
closed forms where the improper integrals are known.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdyn import (
    BoundsPair,
    BracketViolation,
    ConfigError,
    ConvergenceVerdict,
    CriterionNotSatisfied,
    DirichletProblem,
    DomainViolation,
    EnvelopeViolation,
    ExpressionTree,
    GridFunction,
    Nonlinearity,
    Status,
    Strategy,
    SupportMismatch,
    Verdict,
    check_lipschitz_bound,
    check_monotone_in_state,
    check_scaling_exponents,
    compute_envelope,
    construct_bounds,
    construct_lower,
    criterion_necessary,
    criterion_sufficient,
    delta_derivative,
    family_quadrature,
    from_points,
    green_apply,
    parse_expression,
    quantum,
    quantum_family,
    solve,
    uniform,
    uniform_family,
    verify_lower,
    verify_upper,
)
from tsdyn.criteria import _classify


def power_law(gamma):
    return Nonlinearity.from_expression(
        f"x1^(-{gamma})", arity=1, degree_low=(-gamma,), degree_high=(gamma,)
    )


def coupled_system():
    """Two singular components, each damped by the other state."""
    f1 = Nonlinearity.from_expression(
        "x1^(-0.3) * x2^(-0.2)",
        arity=2,
        component_index=1,
        degree_low=(-0.3, -0.3),
        degree_high=(0.3, -0.1),
    )
    f2 = Nonlinearity.from_expression(
        "x2^(-0.4) * x1^(-0.1)",
        arity=2,
        component_index=2,
        degree_low=(-0.2, -0.4),
        degree_high=(-0.05, 0.4),
    )
    return (f1, f2)


def envelope_at(ts, point):
    return (point - ts.a) * (ts.sigma2_b - point) / ts.span


def head_safe(f, t, x):
    """Evaluate like the improper-head rule: zero at row zero on blowup."""
    try:
        return f.evaluate(t, x)
    except DomainViolation:
        return None


def sufficient_oracle(f, ts):
    total = 0.0
    for k in range(ts.last_index - 1):
        e_sig = envelope_at(ts, float(ts.points[k + 1]))
        v = head_safe(f, float(ts.points[k]), (e_sig,) * f.arity)
        if v is None:
            assert k == 0
            continue
        total += float(ts.mu[k]) * v
    return total


def necessary_oracle(f, ts, pin=None):
    pin = ts.sigma2_b if pin is None else pin
    total = 0.0
    for k in range(ts.last_index - 1):
        sig = float(ts.points[k + 1])
        v = head_safe(f, float(ts.points[k]), (pin,) * f.arity)
        if v is None:
            assert k == 0
            continue
        total += float(ts.mu[k]) * (sig - ts.a) * (ts.sigma_b - sig) * v
    return total


BETA_CLOSED = {
    0.25: math.gamma(0.75) ** 2 / math.gamma(1.5),
    0.5: math.pi,
    0.75: math.gamma(0.25) ** 2 / math.gamma(0.5),
}


class TestClassifier:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 0.9])
    def test_subcritical_powers_converge(self, gamma):
        rep = criterion_sufficient([power_law(gamma)])
        assert rep.verdict is Verdict.CONVERGENT
        assert rep.per_component[0].positive

    @pytest.mark.parametrize("gamma", [1.0, 1.1, 1.5, 2.0])
    def test_critical_and_beyond_never_converge(self, gamma):
        rep = criterion_sufficient([power_law(gamma)])
        assert rep.verdict is not Verdict.CONVERGENT

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 2.0])
    def test_supercritical_powers_diverge(self, gamma):
        rep = criterion_sufficient([power_law(gamma)])
        assert rep.verdict is Verdict.DIVERGENT

    @pytest.mark.parametrize("gamma", [0.25, 0.5])
    def test_limit_matches_beta_closed_form(self, gamma):
        rep = criterion_sufficient([power_law(gamma)])
        limit = rep.per_component[0].limit
        assert limit == pytest.approx(BETA_CLOSED[gamma], rel=0.01)

    def test_family_must_be_long_enough(self):
        with pytest.raises(ConfigError):
            criterion_sufficient(
                [power_law(0.5)], uniform_family(0.0, 1.0, sizes=(17, 33, 65))
            )

    def test_report_shape(self):
        rep = criterion_sufficient([power_law(0.5)])
        assert rep.scale_sizes == (17, 33, 65, 129, 257, 513)
        assert len(rep.trails[0]) == 6
        assert len(rep.per_component) == 1

    def test_trail_matches_loop_oracle(self):
        f = power_law(0.5)
        fam = uniform_family(0.0, 1.0)
        rep = criterion_sufficient([f], fam)
        want = [sufficient_oracle(f, ts) for ts in fam]
        assert np.allclose(rep.trails[0], want, rtol=1e-13, atol=0)

    def test_non_finite_partial_diverges(self):
        verdict = _classify([1.0, 2.0, math.inf, 3.0, 4.0], positive=True)
        assert verdict == ConvergenceVerdict(
            Verdict.DIVERGENT, None, 4.0, (), math.inf, True, ("non-finite partial value",)
        )

    def test_zero_increment_then_a_nonzero_one_is_an_infinite_ratio(self):
        verdict = _classify([1.0, 1.0, 1.5, 1.75, 1.875], positive=True)
        assert verdict.ratios == (math.inf, 0.5, 0.5)
        assert verdict.verdict is Verdict.INCONCLUSIVE

    def test_sign_changing_integrand_is_not_positive(self):
        f = Nonlinearity.from_expression(
            "t - 0.5", arity=1, degree_low=(-0.1,), degree_high=(0.1,)
        )
        rep = criterion_sufficient([f])
        assert not rep.per_component[0].positive
        assert rep.verdict is not Verdict.CONVERGENT


class TestNecessary:
    def test_quantum_ratio_test_boundary(self):
        fam = quantum_family(2.0)
        conv = criterion_necessary([time_power(1)], fam)
        div = criterion_necessary([time_power(3)], fam)
        assert conv.verdict is Verdict.CONVERGENT
        assert div.verdict is Verdict.DIVERGENT

    def test_quantum_limit_is_one_sixth(self):
        # sum of (2^-j - 4 * 4^-j) over the realized cells
        rep = criterion_necessary([time_power(1)], quantum_family(2.0))
        assert rep.per_component[0].limit == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_trail_matches_loop_oracle(self):
        fam = quantum_family(2.0, depths=(5, 8, 12, 20, 30))
        f = time_power(1)
        rep = criterion_necessary([f], fam)
        want = [necessary_oracle(f, ts) for ts in fam]
        assert np.allclose(rep.trails[0], want, rtol=1e-13, atol=0)
        assert rep.scale_sizes == tuple(ts.npoints for ts in fam)

    def test_improper_head_is_recorded(self):
        rep = criterion_necessary([time_power(1)], quantum_family(2.0))
        assert any("improper first cell" in n for n in rep.notes)

    def test_eval_point_override(self):
        fam = quantum_family(2.0)
        f = power_law(0.5)
        default = criterion_necessary([f], fam)
        same = criterion_necessary([f], fam, eval_point_override=1.0)
        assert default.trails == same.trails
        other = criterion_necessary([f], fam, eval_point_override=4.0)
        assert other.trails != default.trails

    def test_nonpositive_override_rejected(self):
        for pin in (0.0, math.inf, math.nan):
            with pytest.raises(CriterionNotSatisfied, match="must be positive and finite"):
                criterion_necessary(
                    [power_law(0.5)], quantum_family(2.0), eval_point_override=pin
                )

    def test_every_pin_is_checked_before_any_member_is_evaluated(self):
        calls = []
        f = Nonlinearity(1, 1, lambda t, x: calls.append(t) or 1.0, (0.0,), (0.0,))
        # the last member refines the others but ends at -1
        family = uniform_family(0.0, 1.0, (17, 33, 65, 129)) + [uniform(-2.0, -1.0, 257)]
        with pytest.raises(CriterionNotSatisfied, match=r"got -1\.0$"):
            criterion_necessary([f], family)
        assert calls == []


def time_power(p):
    return Nonlinearity.from_expression(
        f"t^(-{p})", arity=1, degree_low=(0.0,), degree_high=(0.0,)
    )


def time_only(g):
    """``g`` as a one-component system that reads no state, whose necessary
    criterion classifies the weighted integral of ``g`` alone."""
    body = g if isinstance(g, ExpressionTree) else (lambda t, x: g(t))
    return [Nonlinearity(1, 1, body, (0.0,), (0.0,))]


class TestTimeOnlyWeight:
    def test_constant_weight_against_oracle(self):
        fam = uniform_family(0.0, 1.0)
        rep = criterion_necessary(time_only(parse_expression("1")), fam).per_component[0]
        want = necessary_oracle(time_power(0), fam[-1])
        assert rep.verdict is Verdict.CONVERGENT
        assert rep.last_value == pytest.approx(want, rel=1e-13)
        # continuum value of the weight integral
        assert rep.limit == pytest.approx(1.0 / 6.0, abs=5e-4)

    def test_boundary_singular_weight_converges(self):
        report = criterion_necessary(time_only(parse_expression("1/(t*(1-t))")))
        rep = report.per_component[0]
        assert rep.verdict is Verdict.CONVERGENT
        assert rep.limit == pytest.approx(1.0, abs=1e-2)
        assert any("improper first cell" in n for n in report.notes)

    def test_raw_callable_head_blowup_is_translated(self):
        report = criterion_necessary(time_only(lambda s: s**-3.0))
        assert report.per_component[0].verdict is Verdict.DIVERGENT
        assert any("improper first cell" in n for n in report.notes)

    def test_callable_and_expression_agree(self):
        fam = uniform_family(0.0, 1.0)
        via_expr = criterion_necessary(time_only(parse_expression("t^2 + 1")), fam)
        via_call = criterion_necessary(time_only(lambda s: s * s + 1.0), fam)
        assert via_expr.per_component[0].last_value == via_call.per_component[0].last_value

    def test_raw_callable_infinite_inside_raises(self):
        # an interior inf is an error, as for any nonlinearity, not a
        # silently divergent partial value
        def g(s):
            return math.inf if 0.4 < s < 0.6 else 1.0

        with pytest.raises(DomainViolation):
            criterion_necessary(time_only(g))

    def test_expression_weight_is_evaluated_over_whole_rows(self, monkeypatch):
        calls = []
        original = ExpressionTree.evaluate
        monkeypatch.setattr(
            ExpressionTree, "evaluate",
            lambda self, t, x: calls.append(t) or original(self, t, x),
        )
        fam = uniform_family(0.0, 1.0, (513, 1025, 2049, 4097, 8193))
        rep = criterion_necessary(time_only(parse_expression("t^(-0.5)")), fam)
        # only each member's improper first cell goes through the scalar path
        assert calls == [0.0] * len(fam)
        assert rep.verdict is Verdict.CONVERGENT


class TestFamilyQuadrature:
    def test_plain_aliases_sufficient(self):
        f = power_law(0.5)
        assert (
            family_quadrature([f], weight="plain").trails
            == criterion_sufficient([f]).trails
        )

    def test_envelope_weight_shrinks_the_integral(self):
        f = power_law(0.5)
        plain = family_quadrature([f], weight="plain")
        kernel = family_quadrature([f], weight="envelope")
        assert kernel.per_component[0].last_value < plain.per_component[0].last_value
        assert kernel.verdict is Verdict.CONVERGENT

    @pytest.mark.parametrize("weight", ["plain", "necessary", "envelope"])
    def test_systems_classify_every_component(self, weight):
        report = family_quadrature(coupled_system(), weight=weight)
        assert report.verdict is Verdict.CONVERGENT
        assert [v.verdict for v in report.per_component] == [Verdict.CONVERGENT] * 2
        assert len(report.trails) == 2

    def test_unknown_weight_rejected(self):
        with pytest.raises(ConfigError) as err:
            family_quadrature([power_law(0.5)], weight="bogus")
        assert err.value.key == "weight"

    @pytest.mark.parametrize(
        "classify, subject",
        [(criterion_sufficient, [power_law(0.5)]),
         (criterion_necessary, [power_law(0.5)]),
         (lambda f, scales: family_quadrature(f, scales, weight="envelope"),
          [power_law(0.5)])],
        ids=["sufficient", "necessary", "quadrature"],
    )
    @pytest.mark.parametrize(
        "sizes", [(17,) * 5, (65, 33, 17, 9, 5), (17, 33, 65, 65, 129)],
        ids=["repeated", "coarsening", "stalling"],
    )
    def test_family_must_refine(self, classify, subject, sizes):
        # a trail over realizations that do not refine classifies nothing
        with pytest.raises(ConfigError, match=r"^point counts must strictly increase, "
                           rf"got \[{', '.join(map(str, sizes))}\]") as err:
            classify(subject, [uniform(0, 1, n) for n in sizes])
        assert err.value.key == "scales"

    def test_default_family_is_the_uniform_family_of_the_unit_interval(self):
        f = [power_law(0.5)]
        family = uniform_family(0.0, 1.0)
        assert criterion_sufficient(f) == criterion_sufficient(f, family)
        assert criterion_necessary(f) == criterion_necessary(f, family)

    @pytest.mark.parametrize("weight", ["plain", "envelope"])
    def test_override_applies_only_to_the_necessary_weight(self, weight):
        with pytest.raises(ConfigError,
                           match="^applies only to the necessary weight") as err:
            family_quadrature([power_law(0.5)], weight=weight, eval_point_override=-3.0)
        assert err.value.key == "eval_point_override"


class TestConstructBounds:
    @pytest.fixture
    def problem(self, unit65):
        return DirichletProblem(unit65, (power_law(0.5),))

    @pytest.mark.parametrize("ts", [uniform(0.0, 1.0, 65), quantum(2.0, 10)],
                             ids=["uniform65", "quantum2_10"])
    def test_constants_match_loop_oracle(self, ts):
        problem = DirichletProblem(ts, (power_law(0.5),))
        f = problem.f[0]
        D = ts.span
        I1 = I2 = 0.0
        for k in range(ts.last_index - 1):
            s, sig = float(ts.points[k]), float(ts.points[k + 1])
            v = f.evaluate(s, (envelope_at(ts, sig),))
            I1 += float(ts.mu[k]) * (sig - ts.a) * (ts.sigma2_b - sig) / D**2 * v
            I2 += float(ts.mu[k]) * v
        pair = construct_bounds(problem)
        assert pair.constants["I1"][0] == pytest.approx(I1, rel=1e-13)
        assert pair.constants["I2"][0] == pytest.approx(I2, rel=1e-13)
        C = max(1.0 / I1, I2, 1.0)
        assert pair.constants["C"] == pytest.approx(C, rel=1e-13)
        # lambda = -0.5, mu = 0.5: the exponent collapses the formulas
        assert pair.constants["k1"][0] == pytest.approx(
            min(1.0, (C**-1.0 * I2**-0.5) ** 2.0), rel=1e-12
        )
        assert pair.constants["k2"][0] == pytest.approx(
            max(1.0, (C**1.0 * I1**-0.5) ** 2.0), rel=1e-12
        )

    def test_constants_pinned_on_readme_problem(self, problem):
        """The lower construction integral takes the kernel's lower weight
        w(s) = (sigma(s) - a)(sigma^2(b) - sigma(s)) / D^2: pinned."""
        pair = construct_bounds(problem)
        assert pair.constants["k1"][0] == pytest.approx(0.04674077332568867, rel=1e-14)
        assert pair.constants["k2"][0] == pytest.approx(19.66562066274869, rel=1e-14)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize(
        "ts", [uniform(0.0, 1.0, 65), quantum(2.0, 10), quantum(3.0, 20)],
        ids=["uniform65", "quantum2_10", "quantum3_20"],
    )
    def test_band_nests_inside_the_s_weighted_band(self, ts, gamma):
        """The smaller weight (s - a)(sigma^2(b) - sigma(s)) / D^2 is also a
        lower kernel weight, but it undercounts I1 by (s - a) / (sigma(s) - a)
        per cell: 1/q on a quantum mesh.  The kernel's own weight gives a
        band inside the one it builds, strictly narrower on quantum meshes,
        and both sides still verify."""
        problem = DirichletProblem(ts, (power_law(gamma),))
        D = ts.span
        vals = []
        I1 = I2 = 0.0
        for k in range(ts.last_index - 1):
            s, sig = float(ts.points[k]), float(ts.points[k + 1])
            v = problem.f[0].evaluate(s, (envelope_at(ts, sig),))
            vals.append(v)
            I1 += float(ts.mu[k]) * (s - ts.a) * (ts.sigma2_b - sig) / D**2 * v
            I2 += float(ts.mu[k]) * v
        # lambda = -gamma, mu = gamma: gap -2 gamma, exponent 1 / (1 - gamma)
        C = max(1.0 / I1, I2, 1.0)
        expo = 1.0 / (1.0 - gamma)
        k1_old = min(1.0, (C ** (-2 * gamma) * I2 ** -gamma) ** expo)
        k2_old = max(1.0, (C ** (2 * gamma) * I1 ** -gamma) ** expo)
        y = green_apply(ts, GridFunction(ts, vals)).values
        pair = construct_bounds(problem)
        alpha, beta = pair.alpha.values, pair.beta.values
        assert np.all(alpha >= k1_old * y * (1.0 - 1e-12))
        assert np.all(beta <= k2_old * y * (1.0 + 1e-12))
        k1, k2 = pair.constants["k1"][0], pair.constants["k2"][0]
        if ts.q is not None:
            assert k2 / k1 < (1.0 - 1e-6) * (k2_old / k1_old)
        assert verify_lower(problem, pair.alpha).ok
        assert verify_upper(problem, pair.beta).ok

    def test_pair_is_ordered_and_pinned(self, problem):
        pair = construct_bounds(problem)
        alpha, beta = pair.pair
        assert np.all(alpha.values <= beta.values)
        assert alpha.value_at(0)[0] == 0.0
        assert beta.value_at(problem.scale.last_index)[0] == 0.0
        assert np.all(alpha.values[1:-1] > 0.0)

    def test_pair_passes_verification(self, problem):
        pair = construct_bounds(problem)
        low = verify_lower(problem, pair.alpha)
        high = verify_upper(problem, pair.beta)
        assert low.ok and high.ok
        assert low.violations == () and high.violations == ()

    def test_scaled_bracket_is_proportional(self, problem):
        pair = construct_bounds(problem)
        k1 = pair.constants["k1"][0]
        k2 = pair.constants["k2"][0]
        ratio = pair.beta.values[1:-1] / pair.alpha.values[1:-1]
        assert np.allclose(ratio, k2 / k1, rtol=1e-12)

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
    def test_slack_must_be_finite(self, problem, slack):
        """No margin falls below a NaN slack, and every one stays above an
        infinite one, so either would pass any candidate."""
        alpha, beta = construct_bounds(problem).pair
        for verify, candidate in ((verify_lower, 100.0 * beta), (verify_upper, 1e-9 * alpha)):
            assert not verify(problem, candidate).ok
            with pytest.raises(ConfigError) as info:
                verify(problem, candidate, slack=slack)
            assert info.value.key == "slack"

    def test_emden_fowler_constants(self, unit65):
        f = Nonlinearity.from_expression("x1^(-0.5)", arity=1)
        problem = DirichletProblem(unit65, (f,))
        pair = construct_bounds(problem)
        I2 = pair.constants["I2"][0]
        I1 = pair.constants["I1"][0]
        # collapsed bracket: lambda = mu = -0.5, exponent 1/(1 + 0.5)
        assert pair.constants["k1"][0] == pytest.approx(
            min(1.0, I2 ** (-0.5 / 1.5)), rel=1e-12
        )
        assert pair.constants["k2"][0] == pytest.approx(
            max(1.0, I1 ** (-0.5 / 1.5)), rel=1e-12
        )
        assert verify_lower(problem, pair.alpha).ok
        assert verify_upper(problem, pair.beta).ok

    def test_nonzero_boundaries_rejected(self, unit65):
        signed = DirichletProblem(
            unit65, (power_law(0.5),), boundary_left=(1.0,)
        )
        with pytest.raises(CriterionNotSatisfied):
            construct_bounds(signed)

    def test_superlinear_degree_rejected(self, unit65):
        f = Nonlinearity.from_expression(
            "x1^2", arity=1, degree_low=(2.0,), degree_high=(2.0,)
        )
        with pytest.raises(CriterionNotSatisfied):
            construct_bounds(DirichletProblem(unit65, (f,)))

    def test_vanishing_rhs_rejected(self, unit65):
        f = Nonlinearity.from_expression("0", arity=1)
        with pytest.raises(CriterionNotSatisfied):
            construct_bounds(DirichletProblem(unit65, (f,)))

    def test_improper_head_noted(self, unit65):
        f = Nonlinearity.from_expression(
            "t^(-0.5) * x1^(-0.5)",
            arity=1,
            degree_low=(-0.5,),
            degree_high=(0.5,),
        )
        pair = construct_bounds(DirichletProblem(unit65, (f,)))
        assert any("improper" in n for n in pair.notes)

    def test_two_component_system(self, unit65):
        problem = DirichletProblem(
            unit65,
            coupled_system(),
            boundary_left=(0.0, 0.0),
            boundary_right=(0.0, 0.0),
        )
        pair = construct_bounds(problem)
        assert verify_lower(problem, pair.alpha).ok
        assert verify_upper(problem, pair.beta).ok

    @pytest.mark.parametrize(
        "ts",
        [uniform(0.0, 1.0, 65), uniform(0.0, 1.0, 1025), quantum(2.0, 30),
         quantum(3.0, 20)],
        ids=["uniform65", "uniform1025", "quantum2_30", "quantum3_20"],
    )
    def test_undeclared_degrees_give_a_verified_band(self, ts):
        # the derived degrees are (-0.5,) on both edges; zero rows would
        # give alpha == beta, a band that is not invariant
        f = Nonlinearity.from_expression("x1^(-0.5)", arity=1)
        problem = DirichletProblem(ts, (f,))
        pair = construct_bounds(problem)
        assert verify_lower(problem, pair.alpha).ok
        assert verify_upper(problem, pair.beta).ok
        report = solve(problem, strategy=Strategy.PICARD, brackets=pair.pair)
        assert report.status is Status.CONVERGED
        assert report.bracket_respected

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=200
        ),
        left=st.floats(min_value=-5.0, max_value=5.0),
        gamma=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_pair_is_ordered_and_verified_on_random_meshes(self, gaps, left, gamma):
        ts = from_points(left + np.concatenate([[0.0], np.cumsum(gaps)]))
        problem = DirichletProblem(ts, (power_law(gamma),))
        pair = construct_bounds(problem)
        assert np.all(pair.alpha.values <= pair.beta.values)
        assert verify_lower(problem, pair.alpha).ok
        assert verify_upper(problem, pair.beta).ok


class TestConstructLower:
    @pytest.fixture
    def problem(self, unit65):
        return DirichletProblem(unit65, (power_law(0.5),))

    def test_diagonal_degree_constants(self, problem):
        ts = problem.scale
        f = problem.f[0]
        D = ts.span
        L1 = 0.0
        for k in range(ts.last_index - 1):
            sig = float(ts.points[k + 1])
            v = f.evaluate(float(ts.points[k]), (ts.sigma2_b,))
            L1 += (
                float(ts.mu[k])
                * (sig - ts.a)
                * (ts.sigma2_b - sig) ** 2
                / D**2
                * v
            ) / D
        pair = construct_lower(problem)
        assert pair.beta is None
        assert set(pair.constants) == {"L1", "C2", "k1"}
        assert pair.constants["L1"][0] == pytest.approx(L1, rel=1e-13)
        # lambda = -0.5, mu = 0.5, endpoint 1, L1 < 1: C2 = 1 and the
        # exponent 1 / (1 - mu) = 2 squares sqrt(L1), so k1 = L1
        assert pair.constants["C2"] == 1.0
        assert pair.constants["k1"][0] == pytest.approx(L1, rel=1e-12)

    def test_lower_bound_verifies(self, problem):
        pair = construct_lower(problem)
        report = verify_lower(problem, pair.alpha)
        assert report.ok, report.violations

    @pytest.mark.parametrize(
        "ts",
        [uniform(0.0, 1.0, 65), quantum(3.0, 20),
         from_points([0.0, 0.1, 0.25, 0.3, 0.5, 0.55, 0.8, 1.0])],
        ids=["uniform65", "quantum3_20", "explicit8"],
    )
    def test_lower_bound_verifies_on_emden_fowler_grid(self, ts):
        # diagonal degrees below one of both signs, and a coupled system
        # t^p * x1^g without its unit factors; undeclared, so the degrees are (g,)
        t_factor = {-0.5: ["t^(-0.5)"], 0.0: [], 1.0: ["t"]}
        texts = ["*".join(t_factor[p] + [f"x1^({g})"] * (g != 0.0)) or "1"
                 for g in (-0.7, -0.3, 0.0, 0.3, 0.7) for p in (-0.5, 0.0, 1.0)]
        systems = [(Nonlinearity.from_expression(text, arity=1),) for text in texts]
        failed = []
        for f in systems + [coupled_system()]:
            zero = (0.0,) * len(f)
            problem = DirichletProblem(ts, f, boundary_left=zero, boundary_right=zero)
            report = verify_lower(problem, construct_lower(problem).alpha)
            if not report.ok:
                failed.append((f, report.worst))
        assert failed == []

    def test_crossed_pair_is_refused(self, problem):
        alpha, beta = construct_bounds(problem).pair
        low = alpha.values.copy()
        low[[7, 30]] = beta.values[[7, 30]] + 1e-3
        crossed = GridFunction(alpha.scale, low)
        with pytest.raises(BracketViolation, match="at index 7$") as err:
            BoundsPair(alpha=crossed, beta=beta, constants={})
        assert err.value.index == 7

    def test_pair_must_share_a_support(self, problem):
        alpha, beta = construct_bounds(problem).pair
        N = alpha.scale.last_index
        with pytest.raises(SupportMismatch,
                           match="^brackets must cover the whole realization$"):
            BoundsPair(alpha=alpha, beta=beta.restrict(1, N), constants={})
        # a partial pair on one support is refused too, as solve refuses it
        with pytest.raises(SupportMismatch):
            BoundsPair(alpha=alpha.restrict(1, N), beta=beta.restrict(1, N),
                       constants={})

    def test_pair_must_share_a_component_count(self, problem):
        alpha, beta = construct_bounds(problem).pair
        wide = GridFunction(alpha.scale, np.repeat(alpha.values, 2, axis=1))
        with pytest.raises(SupportMismatch,
                           match="^bracket component count must be 2, got 1$"):
            BoundsPair(alpha=wide, beta=beta, constants={})

    @pytest.mark.parametrize("mu", [1.0, 1.5])
    @pytest.mark.parametrize("construct", [construct_bounds, construct_lower])
    def test_diagonal_degree_of_one_or_more_is_refused(self, unit65, construct, mu):
        # both constructions raise their constants to the power 1 / (1 - mu)
        f = Nonlinearity.from_expression("1 + x1", arity=1, degree_high=(mu,))
        with pytest.raises(CriterionNotSatisfied, match=f"must stay below one, got {mu:g}$"):
            construct(DirichletProblem(unit65, (f,)))

    def test_no_upper_half(self, problem):
        pair = construct_lower(problem)
        with pytest.raises(BracketViolation,
                           match="^no upper bound was constructed$") as err:
            pair.pair
        assert err.value.index == -1

    def test_nonpositive_endpoint_is_refused(self):
        # the state is pinned at sigma^2(b) = -1
        f = Nonlinearity.from_expression("1 + x1", arity=1)
        with pytest.raises(CriterionNotSatisfied,
                           match=r"^evaluation point must be positive and finite, got -1\.0$"):
            construct_lower(DirichletProblem(uniform(-2.0, -1.0, 17), (f,)))

    @pytest.mark.parametrize("construct", [construct_bounds, construct_lower])
    def test_precondition_comes_before_the_pinned_state(self, construct):
        # a diagonal degree of one is refused before the state is pinned at
        # the nonpositive sigma^2(b) = -1
        f = Nonlinearity.from_expression("1 + x1", arity=1, degree_high=(1.0,))
        with pytest.raises(CriterionNotSatisfied, match="must stay below one, got 1$"):
            construct(DirichletProblem(uniform(-2.0, -1.0, 17), (f,)))
        with pytest.raises(CriterionNotSatisfied, match="requires zero boundary values$"):
            construct(DirichletProblem(uniform(-2.0, -1.0, 17), (power_law(0.5),),
                                       boundary_left=(0.5,)))

    def test_nonpositive_integral_is_refused(self, unit65):
        f = Nonlinearity.from_expression("-1", arity=1)
        with pytest.raises(CriterionNotSatisfied,
                           match="^lower-construction integrals must be positive$"):
            construct_lower(DirichletProblem(unit65, (f,)))

    def test_quantum_scale_with_improper_head(self):
        ts = quantum(2.0, 10)
        f = Nonlinearity.from_expression(
            "t^(-0.5) * x1^(-0.5)",
            arity=1,
            degree_low=(-0.5,),
            degree_high=(0.5,),
        )
        problem = DirichletProblem(ts, (f,))
        pair = construct_lower(problem)
        assert any("improper" in n for n in pair.notes)
        assert verify_lower(problem, pair.alpha).ok


class TestVerification:
    def test_solution_is_both_a_lower_and_an_upper_solution(self, unit65):
        problem = DirichletProblem(unit65, (power_law(0.5),))
        pair = construct_bounds(problem)
        report = solve(problem, brackets=pair.pair)
        assert report.converged
        slack = 1e-7
        assert verify_lower(problem, report.solution, slack=slack).ok
        assert verify_upper(problem, report.solution, slack=slack).ok

    def test_strict_lower_solution_fails_as_an_upper(self, unit65):
        problem = DirichletProblem(unit65, (power_law(0.5),))
        pair = construct_bounds(problem)
        report = verify_upper(problem, pair.alpha)
        assert not report.ok
        assert report.worst < 0.0
        assert report.violations

    def test_boundary_rows_checked(self, unit65):
        problem = DirichletProblem(unit65, (power_law(0.5),))
        vals = envelope_at(unit65, unit65.points) + 0.05
        candidate = GridFunction(unit65, vals)
        report = verify_lower(problem, candidate)
        indices = {k for (_, k, _) in report.violations}
        assert 0 in indices and unit65.last_index in indices

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_second_difference_raises(self):
        ts = from_points([0.0, 1e-200, 1.0, 2.0])
        problem = DirichletProblem(ts, (power_law(0.5),))
        candidate = GridFunction(ts, [0.0, 1e300, 1.0, 0.0])
        for verify in (verify_lower, verify_upper):
            with pytest.raises(DomainViolation):
                verify(problem, candidate)

    def test_violation_records_component_index_amount(self, unit65):
        problem = DirichletProblem(unit65, (power_law(0.5),))
        pair = construct_bounds(problem)
        report = verify_upper(problem, pair.alpha)
        comp, idx, amount = report.violations[0]
        assert comp == 1
        assert 0 <= idx <= unit65.last_index
        assert amount > 0.0


class TestEnvelopeDisplay:
    @pytest.fixture
    def solved(self, unit65):
        problem = DirichletProblem(unit65, (power_law(0.5),))
        pair = construct_bounds(problem)
        report = solve(problem, brackets=pair.pair)
        assert report.converged
        return problem, report.solution

    def test_constants_match_loop_oracle(self, solved):
        problem, u = solved
        ts = problem.scale
        f = problem.f[0]
        J1 = J2 = 0.0
        for k in range(ts.last_index - 1):
            sig = float(ts.points[k + 1])
            v = f.evaluate(float(ts.points[k]), (float(u.values[k + 1, 0]),))
            w = (sig - ts.a) * (ts.sigma2_b - sig) / ts.span**2
            J1 += float(ts.mu[k]) * w * v
            J2 += float(ts.mu[k]) * v
        box = compute_envelope(problem, u)
        assert box["lower"][0] == pytest.approx(J1, rel=1e-13)
        assert box["upper"][0] == pytest.approx(J2, rel=1e-13)

    def test_sandwich_holds_pointwise(self, solved):
        problem, u = solved
        box = compute_envelope(problem, u)
        e = envelope_at(problem.scale, problem.scale.points)
        col = u.component(1)
        assert np.all(col >= box["lower"][0] * e - 1e-6)
        assert np.all(col <= box["upper"][0] * e + 1e-6)

    def test_nonzero_boundary_values_are_refused(self, solved):
        problem, u = solved
        shifted = DirichletProblem(problem.scale, problem.f, boundary_right=(0.25,))
        with pytest.raises(CriterionNotSatisfied, match="requires zero boundary values$"):
            compute_envelope(shifted, u)

    def test_escape_raises_with_location(self, solved):
        problem, u = solved
        inflated = GridFunction(u.scale, u.values * 3.0, u.lo)
        with pytest.raises(EnvelopeViolation) as err:
            compute_envelope(problem, inflated)
        assert err.value.component == 1
        assert err.value.amount > 0.0

    def test_escape_below_raises_at_the_first_index(self, solved):
        problem, u = solved
        # f(x) = x^-0.5 grows as the solution shrinks, so the lower edge
        # J1 e(t) rises while the deflated values fall
        deflated = GridFunction(u.scale, u.values * 0.01, u.lo)
        with pytest.raises(EnvelopeViolation) as err:
            compute_envelope(problem, deflated)
        assert (err.value.component, err.value.index) == (1, 1)
        e = envelope_at(problem.scale, problem.scale.points)
        J1 = 10.0 * compute_envelope(problem, u)["lower"][0]
        col = deflated.component(1)
        assert err.value.amount == pytest.approx(J1 * e[1] - 1e-6 - col[1], rel=1e-12)

    def test_endpoint_slopes_are_finite_and_signed(self, solved):
        _, u = solved
        slopes = delta_derivative(u).values
        left, right = slopes[0], slopes[-1]
        assert left[0] > 0.0
        assert right[0] < 0.0


class TestScalingCheck:
    def test_widened_power_passes(self, unit65):
        rep = check_scaling_exponents(power_law(0.5), unit65)
        assert rep.ok and rep.shape_ok
        assert rep.witness is None
        assert rep.checked > 0

    def test_quadratic_fails_with_witness(self, unit65):
        f = Nonlinearity.from_expression(
            "x1^2", arity=1, degree_low=(-0.5,), degree_high=(0.5,)
        )
        rep = check_scaling_exponents(f, unit65)
        assert not rep.ok
        assert rep.witness is not None
        assert rep.witness["coordinate"] == 1
        assert rep.witness["value"] > rep.witness["upper"] or (
            rep.witness["value"] < rep.witness["lower"]
        )

    def test_pure_power_sits_on_the_bracket_edge(self, unit65):
        f = Nonlinearity.from_expression("x1^(-0.5)", arity=1)
        rep = check_scaling_exponents(f, unit65)
        assert rep.ok           # equality edges are inside the padded bracket
        assert not rep.shape_ok  # but the collapsed bracket is not strict

    def test_deterministic_under_seed(self, unit65):
        f = power_law(0.5)
        a = check_scaling_exponents(f, unit65, seed=7)
        b = check_scaling_exponents(f, unit65, seed=7)
        assert a == b

    @pytest.mark.parametrize("samples", [-5, 2.5])
    def test_sample_count_must_be_a_nonnegative_integer(self, samples):
        f = Nonlinearity.from_expression(
            "x1^2", arity=1, degree_low=(0.5,), degree_high=(0.5,)
        )
        ts = uniform(0, 1, 17)
        assert not check_scaling_exponents(f, ts).ok
        with pytest.raises(ConfigError) as err:
            check_scaling_exponents(f, ts, samples=samples)
        assert err.value.key == "samples"


class TestMonotoneCheck:
    def test_decreasing_rhs_passes(self, unit65):
        rep = check_monotone_in_state(power_law(0.5), unit65)
        assert rep.ok

    def test_increasing_rhs_fails_then_passes_with_flip(self, unit65):
        f = Nonlinearity.from_expression(
            "1 + x1^0.5", arity=1, degree_low=(-0.1,), degree_high=(0.5,)
        )
        assert not check_monotone_in_state(f, unit65).ok
        assert check_monotone_in_state(f, unit65, nonincreasing=False).ok

    def test_witness_contents(self, unit65):
        f = Nonlinearity.from_expression(
            "x1", arity=1, degree_low=(0.5,), degree_high=(1.0,)
        )
        rep = check_monotone_in_state(f, unit65)
        assert rep.witness["after"] > rep.witness["before"]
        assert rep.witness["factor"] > 1.0

    def test_negative_sample_count_is_refused(self, unit65):
        f = Nonlinearity.from_expression(
            "x1^2", arity=1, degree_low=(0.5,), degree_high=(0.5,)
        )
        assert not check_monotone_in_state(f, unit65).ok
        with pytest.raises(ConfigError) as err:
            check_monotone_in_state(f, unit65, samples=-5)
        assert err.value.key == "samples"


class TestLipschitzCheck:
    def test_band_floor_slope_recovered(self, unit65):
        rep = check_lipschitz_bound(power_law(0.5), unit65, (0.1, 2.0))
        want = 0.5 * 0.1**-1.5
        assert rep.bound == pytest.approx(want, rel=0.10)
        assert rep.at is not None
        assert rep.checked > 0

    def test_affine_rhs_has_unit_constant(self, unit65):
        f = Nonlinearity.from_expression(
            "2 - x1", arity=1, degree_low=(-1.0,), degree_high=(1.0,)
        )
        rep = check_lipschitz_bound(f, unit65, (0.5, 1.5))
        assert rep.bound == pytest.approx(1.0, rel=1e-3)

    def test_negative_sample_count_is_refused(self, unit65):
        with pytest.raises(ConfigError) as err:
            check_lipschitz_bound(power_law(0.5), unit65, (0.1, 2.0), samples=-5)
        assert err.value.key == "samples"

    def test_band_validation(self, unit65):
        for band in [(0.0, 1.0), (2.0, 1.0), (0.1, math.inf), (math.nan, 1.0),
                     (0.1, math.nan)]:
            with pytest.raises(ConfigError, match="0 < lo < hi < inf") as err:
                check_lipschitz_bound(power_law(0.5), unit65, band)
            assert err.value.key == "band"


def root_above_one(log):
    """``x1^0.5`` where ``x1 >= 1``, undefined below; ``log`` records for
    every evaluation whether it was defined."""
    def body(t, x):
        log.append(x[0] >= 1.0)
        if x[0] < 1.0:
            raise ValueError("x1 below 1")
        return math.sqrt(x[0])
    return Nonlinearity(1, 1, body, (0.5,), (0.5,))


class TestUndefinedSamples:
    """A sample where f is undefined is skipped: it neither counts as checked
    nor decides the verdict.  Most draws of the two state-only checks lie
    below 1, and so does half the Lipschitz band, its floor included."""

    def test_scaling_counts_the_defined_scaled_values(self, unit65):
        log = []
        rep = check_scaling_exponents(root_above_one(log), unit65)
        # a defined base value is followed by one value per scale factor
        calls, bases, scaled = iter(log), [], []
        for base in calls:
            bases.append(base)
            if base:
                scaled += [next(calls), next(calls)]
        assert False in bases and False in scaled
        assert 0 < rep.checked == scaled.count(True)
        assert rep.ok and rep.witness is None

    def test_monotone_counts_the_defined_pairs(self, unit65):
        log = []
        rep = check_monotone_in_state(root_above_one(log), unit65, nonincreasing=False)
        # a bump above a defined state stays defined, so pairs come whole
        assert log.count(False) > 0
        assert 0 < rep.checked == log.count(True) // 2 < 200
        assert rep.ok and rep.witness is None
        assert not check_monotone_in_state(root_above_one([]), unit65).ok

    def test_lipschitz_counts_the_defined_quotients(self, unit65):
        log = []
        rep = check_lipschitz_bound(root_above_one(log), unit65, (0.5, 2.0))
        # the bumped state goes first, then the base state if it was defined
        calls, tops, bottoms = iter(log), [], []
        for top in calls:
            tops.append(top)
            if top:
                bottoms.append(next(calls))
        anchored = unit65.npoints - 2
        assert not any(tops[:anchored])  # the band floor 0.5 is outside the domain
        assert False in tops[anchored:]
        assert 0 < rep.checked == bottoms.count(True)
        # the slope of x^0.5 on [1, 2] is at most 0.5, taken at 1
        assert 0.45 < rep.bound <= 0.5
        assert rep.at["x"][0] >= 1.0
