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
    BoundOrderViolation,
    BoundsPair,
    ConfigError,
    CriterionNotSatisfied,
    DirichletProblem,
    DomainViolation,
    EnvelopeViolation,
    FamilyTooShort,
    GridFunction,
    LowerWeight,
    NonFiniteResult,
    NonpositiveEndpoint,
    Nonlinearity,
    ShapeViolation,
    SupportMismatch,
    Verdict,
    check_lipschitz_bound,
    check_monotone_in_state,
    check_scaling_exponents,
    classify_weighted_bound,
    compute_envelope,
    construct_bounds,
    construct_lower,
    criterion_necessary,
    criterion_sufficient,
    emden_fowler,
    endpoint_slope_limits,
    family_quadrature,
    from_points,
    parse_expression,
    quantum_family,
    solve,
    uniform,
    uniform_family,
    verify_lower,
    verify_upper,
)


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
    except (DomainViolation, NonFiniteResult):
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
        with pytest.raises(FamilyTooShort):
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
        with pytest.raises(NonpositiveEndpoint):
            criterion_necessary(
                [power_law(0.5)], quantum_family(2.0), eval_point_override=0.0
            )


def time_power(p):
    return Nonlinearity.from_expression(
        f"t^(-{p})", arity=1, degree_low=(0.0,), degree_high=(0.0,)
    )


class TestWeightedBound:
    def test_constant_weight_against_oracle(self):
        fam = uniform_family(0.0, 1.0)
        rep = classify_weighted_bound(parse_expression("1"), fam)
        want = necessary_oracle(time_power(0), fam[-1])
        assert rep.verdict is Verdict.CONVERGENT
        assert rep.last_value == pytest.approx(want, rel=1e-13)
        # continuum value of the weight integral
        assert rep.limit == pytest.approx(1.0 / 6.0, abs=5e-4)

    def test_boundary_singular_weight_converges(self):
        rep = classify_weighted_bound(parse_expression("1/(t*(1-t))"))
        assert rep.verdict is Verdict.CONVERGENT
        assert rep.limit == pytest.approx(1.0, abs=1e-2)
        assert any("improper first cell" in n for n in rep.notes)

    def test_raw_callable_head_blowup_is_translated(self):
        rep = classify_weighted_bound(lambda s: s**-3.0)
        assert rep.verdict is Verdict.DIVERGENT
        assert any("improper first cell" in n for n in rep.notes)

    def test_callable_and_expression_agree(self):
        fam = uniform_family(0.0, 1.0)
        via_expr = classify_weighted_bound(parse_expression("t^2 + 1"), fam)
        via_call = classify_weighted_bound(lambda s: s * s + 1.0, fam)
        assert via_expr.last_value == via_call.last_value

    @pytest.mark.parametrize(
        "g", [parse_expression("t^(-0.5)"), lambda s: s**-0.5], ids=["expr", "callable"]
    )
    def test_equals_necessary_criterion_on_time_only_nonlinearity(self, g):
        fam = uniform_family(0.0, 1.0)
        rep = classify_weighted_bound(g, fam)
        nec = criterion_necessary([time_power(0.5)], fam)
        want = nec.per_component[0]
        assert (rep.last_value, rep.limit, rep.ratios, rep.stability) == (
            want.last_value, want.limit, want.ratios, want.stability
        )
        assert rep.verdict is want.verdict
        assert rep.notes == nec.notes + want.notes
        assert any("improper first cell" in n for n in rep.notes)

    def test_raw_callable_infinite_inside_raises(self):
        # an interior inf is an error, as for any nonlinearity, not a
        # silently divergent partial value
        def g(s):
            return math.inf if 0.4 < s < 0.6 else 1.0

        with pytest.raises(NonFiniteResult):
            classify_weighted_bound(g)
        f = Nonlinearity(1, 1, lambda t, x: g(t), (0.0,), (0.0,))
        with pytest.raises(NonFiniteResult):
            criterion_necessary([f])


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


class TestConstructBounds:
    @pytest.fixture
    def problem(self, unit65):
        return DirichletProblem(unit65, (power_law(0.5),))

    def test_constants_match_loop_oracle(self, problem):
        ts = problem.scale
        f = problem.f[0]
        D = ts.span
        I1 = I2 = 0.0
        for k in range(ts.last_index - 1):
            s, sig = float(ts.points[k]), float(ts.points[k + 1])
            v = f.evaluate(s, (envelope_at(ts, sig),))
            I1 += float(ts.mu[k]) * (s - ts.a) * (ts.sigma2_b - sig) / D**2 * v
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
        """The lower construction integral keeps its (s - a) weight: pinned."""
        pair = construct_bounds(problem)
        assert pair.constants["k1"][0] == pytest.approx(0.04674077332568867, rel=1e-14)
        assert pair.constants["k2"][0] == pytest.approx(20.817737472835006, rel=1e-14)

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

    def test_emden_fowler_constants(self, unit65):
        problem = DirichletProblem(unit65, (emden_fowler([-0.5]),))
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
        with pytest.raises(ShapeViolation):
            construct_bounds(signed)

    def test_superlinear_degree_rejected(self, unit65):
        f = Nonlinearity.from_expression(
            "x1^2", arity=1, degree_low=(2.0,), degree_high=(2.0,)
        )
        with pytest.raises(ShapeViolation):
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
        eta = 0.5
        D = ts.span
        L1 = 0.0
        for k in range(ts.last_index - 1):
            sig = float(ts.points[k + 1])
            v = f.evaluate(float(ts.points[k]), (ts.sigma2_b,))
            L1 += (
                float(ts.mu[k])
                * (sig - ts.a)
                * (ts.sigma2_b - sig) ** (1.0 + eta)
                / D ** (2.0 * eta)
                * v
            ) / D
        pair = construct_lower(problem)
        assert pair.beta is None
        assert pair.constants["eta"] == (0.5,)
        assert pair.constants["L1"][0] == pytest.approx(L1, rel=1e-13)
        # lambda = -0.5, mu = 0.5, endpoint 1: k1 = L1
        assert pair.constants["k1"][0] == pytest.approx(L1, rel=1e-12)

    def test_unit_mode_changes_the_weight(self, problem):
        diag = construct_lower(problem)
        unit = construct_lower(problem, mode=LowerWeight.UNIT)
        assert unit.constants["eta"] == (1.0,)
        assert unit.constants["L1"] != diag.constants["L1"]

    @pytest.mark.parametrize("mode", list(LowerWeight))
    def test_lower_bound_verifies(self, problem, mode):
        pair = construct_lower(problem, mode=mode)
        report = verify_lower(problem, pair.alpha)
        assert report.ok, report.violations

    def test_crossed_pair_is_refused(self, problem):
        alpha, beta = construct_bounds(problem).pair
        low = alpha.values.copy()
        low[[7, 30]] = beta.values[[7, 30]] + 1e-3
        crossed = GridFunction(alpha.scale, low, 0, alpha.scale.last_index)
        with pytest.raises(BoundOrderViolation, match="at index 7$"):
            BoundsPair(alpha=crossed, beta=beta, constants={})

    def test_pair_must_share_a_support(self, problem):
        alpha, beta = construct_bounds(problem).pair
        N = alpha.scale.last_index
        with pytest.raises(SupportMismatch, match="share a support"):
            BoundsPair(alpha=alpha, beta=beta.restrict(1, N), constants={})

    def test_no_upper_half(self, problem):
        pair = construct_lower(problem)
        with pytest.raises(BoundOrderViolation):
            pair.pair

    def test_quantum_scale_with_improper_head(self):
        from tsdyn import quantum

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
        candidate = GridFunction.from_values(unit65, vals)
        report = verify_lower(problem, candidate)
        indices = {k for (_, k, _) in report.violations}
        assert 0 in indices and unit65.last_index in indices

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_second_difference_raises(self):
        ts = from_points([0.0, 1e-200, 1.0, 2.0])
        problem = DirichletProblem(ts, (power_law(0.5),))
        candidate = GridFunction.from_values(ts, [0.0, 1e300, 1.0, 0.0])
        for verify in (verify_lower, verify_upper):
            with pytest.raises(NonFiniteResult):
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

    def test_escape_raises_with_location(self, solved):
        problem, u = solved
        inflated = GridFunction(u.scale, u.values * 3.0, u.lo, u.hi)
        with pytest.raises(EnvelopeViolation) as err:
            compute_envelope(problem, inflated)
        assert err.value.component == 1
        assert err.value.amount > 0.0

    def test_escape_below_raises_at_the_first_index(self, solved):
        problem, u = solved
        # f(x) = x^-0.5 grows as the solution shrinks, so the lower edge
        # J1 e(t) rises while the deflated values fall
        deflated = GridFunction(u.scale, u.values * 0.01, u.lo, u.hi)
        with pytest.raises(EnvelopeViolation) as err:
            compute_envelope(problem, deflated)
        assert (err.value.component, err.value.index) == (1, 1)
        e = envelope_at(problem.scale, problem.scale.points)
        J1 = 10.0 * compute_envelope(problem, u)["lower"][0]
        col = deflated.component(1)
        assert err.value.amount == pytest.approx(J1 * e[1] - 1e-6 - col[1], rel=1e-12)

    def test_endpoint_slopes_are_finite_and_signed(self, solved):
        _, u = solved
        left, right = endpoint_slope_limits(u)
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
        rep = check_scaling_exponents(emden_fowler([-0.5]), unit65)
        assert rep.ok           # equality edges are inside the padded bracket
        assert not rep.shape_ok  # but the collapsed bracket is not strict

    def test_deterministic_under_seed(self, unit65):
        f = power_law(0.5)
        a = check_scaling_exponents(f, unit65, seed=7)
        b = check_scaling_exponents(f, unit65, seed=7)
        assert a == b


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

    def test_band_validation(self, unit65):
        with pytest.raises(DomainViolation):
            check_lipschitz_bound(power_law(0.5), unit65, (0.0, 1.0))
        with pytest.raises(DomainViolation):
            check_lipschitz_bound(power_law(0.5), unit65, (2.0, 1.0))
