"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Each test prints one pass/fail line under ``pytest -v``.  Tolerances and
runtime budgets are part of the contract and asserted, not advisory.
"""

import math
import time

import numpy as np
import pytest

from tsdyn import (
    DirichletProblem,
    GridFunction,
    Nonlinearity,
    Status,
    Strategy,
    Verdict,
    apply_green_operator,
    check_lipschitz_bound,
    check_scaling_exponents,
    compute_envelope,
    construct_bounds,
    criterion_necessary,
    criterion_sufficient,
    delta_derivative,
    delta_integral,
    delta_second,
    green_apply,
    quantum,
    quantum_family,
    residual_norm,
    sigma_shift,
    solve,
    uniform,
)
from conftest import SEED, random_scale
from test_green import banded_oracle

BUDGETS = {1: 1.0, 2: 0.1, 3: 0.1, 4: 5.0, 5: 10.0, 6: 1.0, 7: 2.0, 8: 10.0, 9: 2.0, 10: 1.0}


class Budget:
    def __init__(self, criterion):
        self.limit = BUDGETS[criterion]

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.perf_counter() - self.t0 < self.limit


def power_problem(ts, gamma=0.5):
    f = Nonlinearity.from_expression(
        f"x1^(-{gamma})", arity=1, degree_low=(-gamma,), degree_high=(gamma,)
    )
    return DirichletProblem(ts, (f,))


def test_criterion_01_green_identity_and_oracle():
    with Budget(1):
        rng = np.random.default_rng(SEED)
        for n in (17, 65, 257):
            ts = uniform(0.0, 1.0, n)
            for _ in range(20):
                h = rng.standard_normal(ts.last_index - 1)
                hf = GridFunction(ts, h)
                u = green_apply(ts, hf)
                defect = delta_second(u) + hf
                assert defect.max_abs() <= 1e-10 * np.max(np.abs(h))
                want = banded_oracle(ts, h)
                scale = np.max(np.abs(want))
                assert np.allclose(
                    u.component(1), want, rtol=1e-12, atol=1e-12 * scale
                )


def test_criterion_02_quantum_measure_and_series():
    with Budget(2):
        q = 2.0
        for depth in (5, 10, 30):
            ts = quantum(q, depth)
            one = GridFunction.constant(ts, 1.0)
            total = delta_integral(one, 0, ts.last_index)[0]
            assert abs(total - 1.0) <= 1e-14
            series = sum((q - 1.0) * q**-k for k in range(1, depth + 1))
            assert abs(series - (1.0 - q**-depth)) <= 1e-14
            tail = delta_integral(one, 1, ts.last_index)[0]
            assert abs(tail - series) <= 1e-14


def test_criterion_03_exact_parabolic_regression():
    with Budget(3):
        ts = uniform(0.0, 1.0, 65)
        f = Nonlinearity.from_expression("1", arity=1)
        report = solve(DirichletProblem(ts, (f,)))
        assert report.converged
        t = ts.points
        exact = t * (1.0 - t) / 2.0
        assert np.max(np.abs(report.solution.component(1) - exact)) <= 1e-12
        mid = ts.index_of(0.5)
        assert report.solution.value_at(mid)[0] == pytest.approx(0.125, abs=1e-13)


def test_criterion_04_singular_solve_cross_check():
    with Budget(4):
        problem = power_problem(uniform(0.0, 1.0, 65))
        pair = construct_bounds(problem)
        picard = solve(problem, brackets=pair.pair)
        newton = solve(problem, strategy=Strategy.NEWTON_ORACLE, brackets=pair.pair)
        assert picard.status is Status.CONVERGED
        assert newton.status is Status.CONVERGED
        gap = np.max(np.abs(picard.solution.values - newton.solution.values))
        assert gap <= 1e-8
        assert picard.bracket_respected and newton.bracket_respected
        box = compute_envelope(problem, picard.solution)
        assert box["lower"][0] > 0.0
        assert box["upper"][0] >= box["lower"][0]


def test_criterion_05_classifier_calibration():
    with Budget(5):
        closed = {
            0.25: math.gamma(0.75) ** 2 / math.gamma(1.5),
            0.5: math.pi,
        }
        for gamma, want in closed.items():
            rep = criterion_sufficient([power_problem(uniform(0, 1, 5), gamma).f[0]])
            assert rep.verdict is Verdict.CONVERGENT
            assert rep.per_component[0].limit == pytest.approx(want, rel=0.01)
        for gamma in (1.5, 2.0):
            rep = criterion_sufficient([power_problem(uniform(0, 1, 5), gamma).f[0]])
            assert rep.verdict is Verdict.DIVERGENT
        for gamma in (1.0, 1.1, 1.5, 2.0):
            rep = criterion_sufficient([power_problem(uniform(0, 1, 5), gamma).f[0]])
            assert rep.verdict is not Verdict.CONVERGENT


def test_criterion_06_quantum_necessary_condition():
    with Budget(6):
        fam = quantum_family(2.0)

        def time_power(p):
            return Nonlinearity.from_expression(
                f"t^(-{p})", arity=1, degree_low=(0.0,), degree_high=(0.0,)
            )

        # increment ratio of the weighted series is q^(p-2)
        assert criterion_necessary([time_power(1)], fam).verdict is Verdict.CONVERGENT
        assert criterion_necessary([time_power(3)], fam).verdict is Verdict.DIVERGENT


def test_criterion_07_hypothesis_checkers():
    with Budget(7):
        ts = uniform(0.0, 1.0, 33)
        good = Nonlinearity.from_expression(
            "x1^(-0.5)", arity=1, degree_low=(-0.5,), degree_high=(0.5,)
        )
        rep = check_scaling_exponents(good, ts)
        assert rep.ok and rep.shape_ok
        bad = Nonlinearity.from_expression(
            "x1^2", arity=1, degree_low=(-0.5,), degree_high=(0.5,)
        )
        rep = check_scaling_exponents(bad, ts)
        assert not rep.ok
        assert rep.witness is not None
        lip = check_lipschitz_bound(good, ts, (0.1, 2.0))
        want = 0.5 * 0.1**-1.5
        assert lip.bound == pytest.approx(want, rel=0.10)


def test_criterion_08_constructed_bounds_verify():
    from tsdyn import verify_lower, verify_upper

    with Budget(8):
        ts = uniform(0.0, 1.0, 65)
        for gamma in np.linspace(0.1, 0.9, 10):
            problem = power_problem(ts, round(float(gamma), 2))
            pair = construct_bounds(problem)
            low = verify_lower(problem, pair.alpha)
            high = verify_upper(problem, pair.beta)
            assert low.ok and low.violations == ()
            assert high.ok and high.violations == ()


def test_criterion_09_monotone_iteration_ordering():
    with Budget(9):
        ts = uniform(0.0, 1.0, 33)
        f = Nonlinearity.from_expression(
            "1 + x1^0.5", arity=1, degree_low=(-0.1,), degree_high=(0.5,)
        )
        problem = DirichletProblem(ts, (f,))
        pair = construct_bounds(problem)
        slack = 1e-12

        # drive the same truncated operator the strategies use and check the
        # ordering of every consecutive pair, from both ends of the band
        for start, ascending in ((pair.alpha, True), (pair.beta, False)):
            u = start
            for _ in range(200):
                v = apply_green_operator(problem, u, pair.pair)
                drift = v.values - u.values
                if ascending:
                    assert np.min(drift) >= -slack
                else:
                    assert np.max(drift) <= slack
                u = v
                if residual_norm(problem, u) <= 1e-10:
                    break
            assert residual_norm(problem, u) <= 1e-10

        up = solve(problem, strategy=Strategy.MONOTONE_UP, brackets=pair.pair)
        down = solve(problem, strategy=Strategy.MONOTONE_DOWN, brackets=pair.pair)
        assert up.converged and down.converged


def test_criterion_10_calculus_identities():
    with Budget(10):
        rng = np.random.default_rng(SEED)
        kinds = ("uniform", "quantum", "explicit")
        for trial in range(100):
            ts = random_scale(rng, kinds[trial % 3])
            u = GridFunction(ts, rng.standard_normal(ts.npoints))
            v = GridFunction(ts, rng.standard_normal(ts.npoints))
            du = delta_derivative(u)
            got = delta_integral(du, 0, ts.last_index)[0]
            want = u.value_at(ts.last_index)[0] - u.value_at(0)[0]
            assert abs(got - want) <= 1e-12 * max(1.0, u.max_abs())
            lhs = delta_derivative(u * v)
            rhs = du * sigma_shift(v) + u * delta_derivative(v)
            # 1e-12 relative to the derivative scale: thin cells push the
            # quotients far above one, where an absolute pin would sit
            # below machine epsilon
            assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * max(
                1.0, lhs.max_abs()
            )
