"""Fixed-point, monotone and Newton solution strategies, and the realization
check at the solver and criteria entry points."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsdyn.solver
from test_green import banded_oracle
from tsdyn import (
    BracketViolation,
    ConfigError,
    DirichletProblem,
    GridFunction,
    Nonlinearity,
    RhsMode,
    SolveConfig,
    Status,
    ScaleMismatch,
    Strategy,
    SupportMismatch,
    apply_green_operator,
    clamp_to_band,
    compute_envelope,
    construct_bounds,
    envelope_weight,
    from_points,
    green_apply,
    quantum,
    regularized_rhs,
    residual_norm,
    solve,
    uniform,
    verify_lower,
    verify_upper,
)


def power_problem(ts, gamma=0.5):
    f = Nonlinearity.from_expression(
        f"x1^(-{gamma})", arity=1, degree_low=(-gamma,), degree_high=(gamma,)
    )
    return DirichletProblem(ts, (f,))


def coupled_problem(ts, gamma=0.5):
    """Two components, each singular in its own state and weakly in the
    other's: ``x_i^(-gamma) * x_j^(-gamma/3)``."""
    weak = gamma / 3.0
    f = tuple(
        Nonlinearity.from_expression(
            f"x{i}^(-{gamma}) * x{j}^(-{weak})", arity=2, component_index=i,
            degree_low=tuple(-gamma if c == i else -weak for c in (1, 2)),
            degree_high=tuple(gamma if c == i else -weak for c in (1, 2)),
        )
        for i, j in ((1, 2), (2, 1))
    )
    return DirichletProblem(ts, f, (0.0, 0.0), (0.0, 0.0))


def zero_degree_problem(ts):
    """The README problem without its declared degrees: both rows default to
    zero, so ``construct_bounds`` returns ``alpha == beta``, a band that is
    not invariant."""
    return DirichletProblem(ts, (Nonlinearity.from_expression("x1^(-0.5)", arity=1),))


def isotone_problem(ts):
    f = Nonlinearity.from_expression(
        "1 + x1^0.5", arity=1, degree_low=(-0.1,), degree_high=(0.5,)
    )
    return DirichletProblem(ts, (f,))


@pytest.fixture
def singular65(unit65):
    return power_problem(unit65)


class TestCallableBodies:
    """A callable right-hand side gets each state row as a tuple of Python
    floats.  Without brackets the states ``solve`` evaluates are a view of
    the iterate, so a body that writes into ``x`` must fail, not change it."""

    @pytest.mark.parametrize("bracketed", [False, True])
    def test_body_sees_only_tuples(self, unit65, bracketed):
        seen = set()

        def body(t, x):
            seen.add((type(t), type(x), *map(type, x)))
            return math.pow(x[0], -0.5)

        problem = DirichletProblem(unit65, (Nonlinearity(1, 1, body, (-0.5,), (0.5,)),))
        twin = power_problem(unit65)
        brackets = construct_bounds(twin).pair if bracketed else None
        report = solve(problem, brackets=brackets)
        expected = solve(twin, brackets=brackets)
        assert seen == {(float, tuple, float)}
        assert report.status is expected.status
        assert report.solution.values.tobytes() == expected.solution.values.tobytes()

    @pytest.mark.parametrize("bracketed", [False, True])
    def test_body_cannot_write_into_the_iterate(self, unit65, bracketed):
        def body(t, x):
            x[0] = 0.0
            return 1.0

        problem = DirichletProblem(unit65, (Nonlinearity(1, 1, body, (0.0,), (0.0,)),))
        brackets = construct_bounds(power_problem(unit65)).pair if bracketed else None
        with pytest.raises(TypeError):
            solve(problem, brackets=brackets)


class TestLinearRegression:
    def test_constant_forcing_has_parabolic_solution(self, unit65):
        f = Nonlinearity.from_expression("1", arity=1)
        report = solve(DirichletProblem(unit65, (f,)))
        assert report.converged
        t = unit65.points
        assert np.allclose(
            report.solution.component(1), t * (1.0 - t) / 2.0, rtol=0, atol=1e-12
        )
        assert report.solution.value_at(32)[0] == pytest.approx(0.125, abs=1e-13)

    def test_nonzero_boundaries(self, unit65):
        f = Nonlinearity.from_expression("0", arity=1)
        p = DirichletProblem(
            unit65, (f,), boundary_left=(2.0,), boundary_right=(-1.0,)
        )
        report = solve(p)
        assert report.converged
        t = unit65.points
        assert np.allclose(report.solution.component(1), 2.0 - 3.0 * t, atol=1e-12)


class TestPicard:
    def test_singular_problem_with_constructed_bounds(self, singular65):
        pair = construct_bounds(singular65)
        report = solve(singular65, brackets=pair.pair)
        assert report.status is Status.CONVERGED
        assert report.final_residual <= 1e-10
        assert report.bracket_respected
        assert report.strategy is Strategy.PICARD

    def test_unbracketed_singular_start_from_interpolant_diverges(self, singular65):
        # zero boundary data starts the iteration on the domain edge
        report = solve(singular65)
        assert report.status is Status.DIVERGED
        assert report.notes

    def test_divergence_cutoff(self, unit65):
        # forcing this strong admits no solution; iterates must blow up
        f = Nonlinearity.from_expression("100*(1 + x1^2)", arity=1, degree_high=(2.0,))
        report = solve(
            DirichletProblem(unit65, (f,)),
            config=SolveConfig(max_iters=2000),
        )
        assert report.status is Status.DIVERGED
        assert report.iterations < 2000

    def test_max_iters_reported(self, singular65):
        pair = construct_bounds(singular65)
        report = solve(singular65, brackets=pair.pair, config=SolveConfig(max_iters=3))
        assert report.status is Status.MAX_ITERS
        assert report.iterations == 3

    @pytest.mark.parametrize(
        "strategy", [Strategy.PICARD, Strategy.NEWTON_ORACLE]
    )
    def test_start_residual_reported_without_steps(self, singular65, strategy):
        pair = construct_bounds(singular65)
        report = solve(
            singular65, strategy=strategy, brackets=pair.pair,
            config=SolveConfig(max_iters=0),
        )
        assert report.status is Status.MAX_ITERS
        assert report.iterations == 0
        assert 0.0 < report.final_residual < np.inf
        assert 0.0 < report.defect < np.inf
        assert report.final_residual == residual_norm(singular65, report.solution)

    def test_one_rhs_evaluation_per_iteration(self, singular65, monkeypatch):
        calls = []
        original = tsdyn.solver.rhs_matrix
        monkeypatch.setattr(
            tsdyn.solver, "rhs_matrix",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        report = solve(singular65, brackets=construct_bounds(singular65).pair)
        assert report.converged
        assert len(calls) == report.iterations + 1  # the start iterate's too

    def test_grid_functions_only_at_entry_and_exit(self, singular65, monkeypatch):
        """The loop runs on plain arrays: the number of grid functions a
        solve builds does not grow with its iteration count."""
        pair = construct_bounds(singular65).pair
        built = []
        original = GridFunction.__post_init__

        def counted(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(GridFunction, "__post_init__", counted)
        per_solve = {}
        for max_iters in (2, 20):
            built.clear()
            report = solve(
                singular65, brackets=pair,
                config=SolveConfig(max_iters=max_iters, tol_residual=0.0),
            )
            assert report.status is Status.MAX_ITERS
            assert report.iterations == max_iters
            per_solve[max_iters] = len(built)
        assert per_solve[2] == per_solve[20] <= 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_image_diverges_with_a_note(self):
        # mu * f overflows on this long mesh, so the image is not finite
        f = Nonlinearity.from_expression("1e308", arity=1)
        report = solve(DirichletProblem(uniform(0.0, 1e3, 65), (f,)))
        assert report.status is Status.DIVERGED
        assert report.iterations == 0
        assert report.defect == np.inf
        assert report.notes == ("iteration 0: image is not finite",)

    def test_stalled_step_is_not_an_iteration_cap(self):
        # a zero tolerance sits below the defect's roundoff floor: once the
        # defect stops decreasing at the smallest damping the run stalls,
        # long before max_iters
        p = power_problem(uniform(0.0, 1.0, 1025))
        report = solve(
            p, brackets=construct_bounds(p).pair, config=SolveConfig(tol_residual=0.0)
        )
        assert report.status is Status.STALLED
        assert report.iterations < 200
        assert 0.0 < report.defect < 1e-15
        # theta is halved down to 1/64 before the run may stall
        assert [note.split(": ", 1)[1] for note in report.notes[:-1]] == [
            f"damping reduced to {2.0 ** -k:g}" for k in range(1, 7)
        ]
        assert "defect stalled" in report.notes[-1]


class TestDefectStop:
    """Picard stops on the fixed-point defect, whose roundoff floor does not
    grow as the mesh is refined, so fine uniform and deep quantum meshes
    converge; each solution is checked by scipy's banded solve."""

    @pytest.mark.parametrize(
        "make_scale",
        [
            lambda: uniform(0.0, 1.0, 65),
            lambda: uniform(0.0, 1.0, 1025),
            lambda: uniform(0.0, 1.0, 4097),
            lambda: quantum(2.0, 30),
            lambda: quantum(2.0, 80),
        ],
        ids=["uniform-65", "uniform-1025", "uniform-4097", "quantum-30",
             "quantum-80"],
    )
    def test_converges_to_the_banded_solution(self, make_scale):
        ts = make_scale()
        p = power_problem(ts)
        config = SolveConfig()
        report = solve(p, brackets=construct_bounds(p).pair, config=config)
        assert report.status is Status.CONVERGED
        assert report.bracket_respected
        u = report.solution.component(1)
        bound = config.tol_residual * max(1.0, float(np.max(np.abs(u))))
        assert report.defect <= bound
        # -v^DD = f(u^sigma) with zero ends, solved without the kernel route
        v = banded_oracle(ts, u[1:-1] ** -0.5)
        assert np.max(np.abs(u - v)) <= 10.0 * bound

    def test_tolerance_scales_with_the_solution(self, unit65):
        # |u| is about 1.1e5, so the run stops at a defect that an absolute
        # tolerance of 1e-12 would reject
        f = Nonlinearity.from_expression("8e5 + x1", arity=1)
        report = solve(DirichletProblem(unit65, (f,)))
        size = float(np.max(np.abs(report.solution.values)))
        assert report.converged
        assert 1e-12 < report.defect <= SolveConfig().tol_residual * size

    @pytest.mark.parametrize("strategy", [Strategy.PICARD, Strategy.MONOTONE_UP])
    def test_fixed_point_outside_the_band_is_not_converged(self, strategy):
        # with an upper bracket below the solution the clamped map still has
        # a fixed point, but the clamp moves entries there: the first iterate
        # that meets the tolerance outside the band ends the run, before any
        # damping is reduced
        p = isotone_problem(uniform(0.0, 1.0, 33))
        alpha, beta = construct_bounds(p).pair
        exact = solve(p, brackets=(alpha, beta)).solution.values
        low = GridFunction.from_values(p.scale, 0.5 * (alpha.values + exact))
        report = solve(p, strategy=strategy, brackets=(alpha, low))
        assert report.status is Status.STALLED
        assert not report.bracket_respected
        assert report.defect < 1e-12
        assert report.notes == (
            f"iteration {report.iterations}: band not invariant: defect "
            f"{report.defect:.3e} meets the tolerance where the clamp moves "
            "31 entries",
        )

    @pytest.mark.parametrize("points", [65, 1025])
    @pytest.mark.parametrize(
        "strategy", [Strategy.PICARD, Strategy.MONOTONE_DOWN]
    )
    def test_band_that_is_not_invariant_stops_at_once(self, points, strategy):
        # alpha == beta here, and the modified map's fixed point lies outside
        # that band; damped Picard used to halve theta six times and stall
        # after 46 iterations with "defect stalled at 0.000e+00"
        p = zero_degree_problem(uniform(0.0, 1.0, points))
        alpha, beta = construct_bounds(p).pair
        assert np.array_equal(alpha.values, beta.values)
        report = solve(p, strategy=strategy, brackets=(alpha, beta))
        assert report.status is Status.STALLED
        assert report.iterations <= 10
        assert not report.bracket_respected
        assert report.defect <= SolveConfig().tol_residual
        assert report.notes == (
            f"iteration {report.iterations}: band not invariant: defect "
            f"{report.defect:.3e} meets the tolerance where the clamp moves "
            f"{points - 2} entries",
        )

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_strategy_reports_the_deciding_defect(self, strategy):
        p = isotone_problem(uniform(0.0, 1.0, 33))
        report = solve(p, strategy=strategy, brackets=construct_bounds(p).pair)
        assert report.converged
        size = float(np.max(np.abs(report.solution.values)))
        assert report.defect <= SolveConfig().tol_residual * max(1.0, size)


PLAIN_STEP_PROBLEMS = pytest.mark.parametrize(
    "make_problem",
    [lambda: isotone_problem(uniform(0.0, 1.0, 33)),
     lambda: power_problem(uniform(0.0, 1.0, 65))],
    ids=["isotone", "singular65"],
)


class TestSecantStep:
    """Picard's damped step takes a guarded secant correction on every second
    step, which removes the slow mode x^(-gamma) leaves behind; monotone runs
    and Newton keep their own steps."""

    @pytest.mark.parametrize(
        "make_scale,gamma",
        [
            (lambda: uniform(0.0, 1.0, 1025), 0.3),
            (lambda: uniform(0.0, 1.0, 1025), 0.5),
            (lambda: uniform(0.0, 1.0, 1025), 0.7),
            (lambda: quantum(2.0, 80), 0.5),
        ],
        ids=["uniform-1025-0.3", "uniform-1025-0.5", "uniform-1025-0.7",
             "quantum-80-0.5"],
    )
    def test_few_iterations_to_the_banded_solution(self, make_scale, gamma):
        ts = make_scale()
        p = power_problem(ts, gamma)
        report = solve(p, brackets=construct_bounds(p).pair)
        assert report.status is Status.CONVERGED
        # plain Picard needs 22, 40, 82 and 41 iterations here
        assert report.iterations <= 16
        u = report.solution.component(1)
        bound = SolveConfig().tol_residual * max(1.0, float(np.max(np.abs(u))))
        assert report.defect <= bound
        v = banded_oracle(ts, u[1:-1] ** -gamma)
        assert np.max(np.abs(u - v)) <= 10.0 * bound

    def test_damped_run_keeps_one_rhs_evaluation_per_iterate(
        self, singular65, monkeypatch
    ):
        calls = []
        original = tsdyn.solver.rhs_matrix
        monkeypatch.setattr(
            tsdyn.solver, "rhs_matrix",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        pair = construct_bounds(singular65).pair
        report = solve(singular65, brackets=pair)
        assert report.status is Status.CONVERGED
        size = float(np.max(np.abs(report.solution.values)))
        assert report.defect <= SolveConfig().tol_residual * max(1.0, size)
        assert len(calls) == report.iterations + 1
        # a zero tolerance makes the run halve theta before it stalls
        calls.clear()
        report = solve(singular65, brackets=pair, config=SolveConfig(tol_residual=0.0))
        assert report.status is Status.STALLED
        assert any("damping reduced" in note for note in report.notes)
        assert len(calls) == report.iterations + 1

    def test_bracket_free_raw_run_converges(self):
        p = isotone_problem(uniform(0.0, 1.0, 33))
        raw = solve(p)
        assert raw.status is Status.CONVERGED
        assert not raw.notes
        banded = solve(p, brackets=construct_bounds(p).pair)
        gap = np.max(np.abs(raw.solution.values - banded.solution.values))
        assert gap <= 1e-11

    @PLAIN_STEP_PROBLEMS
    @pytest.mark.parametrize(
        "strategy", [Strategy.MONOTONE_UP, Strategy.MONOTONE_DOWN]
    )
    def test_monotone_runs_take_the_plain_map(self, make_problem, strategy):
        # the reported iterate is T applied to the bracket end, bit for bit,
        # as many times as the report counts steps
        p = make_problem()
        pair = construct_bounds(p).pair
        report = solve(p, strategy=strategy, brackets=pair)
        assert report.iterations >= 1
        u = pair[0 if strategy is Strategy.MONOTONE_UP else 1]
        for _ in range(report.iterations):
            u = apply_green_operator(p, u, pair, RhsMode.TRUNCATED)
        assert report.solution.values.tobytes() == u.values.tobytes()

    @PLAIN_STEP_PROBLEMS
    def test_newton_never_takes_a_picard_step(self, make_problem, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Newton ran the Picard loop")

        p = make_problem()
        monkeypatch.setattr(tsdyn.solver, "_picard", refuse)
        report = solve(p, strategy=Strategy.NEWTON_ORACLE,
                       brackets=construct_bounds(p).pair)
        assert report.converged


class TestNewton:
    def test_agrees_with_picard(self, singular65):
        pair = construct_bounds(singular65)
        picard = solve(singular65, brackets=pair.pair)
        newton = solve(singular65, strategy=Strategy.NEWTON_ORACLE, brackets=pair.pair)
        assert newton.converged
        gap = np.max(np.abs(picard.solution.values - newton.solution.values))
        assert gap <= 1e-8

    def test_quadratic_tail(self, singular65):
        pair = construct_bounds(singular65)
        newton = solve(singular65, strategy=Strategy.NEWTON_ORACLE, brackets=pair.pair)
        assert newton.iterations < 15
        assert newton.final_residual < 1e-10

    def test_failed_line_search_is_stalled(self):
        # a zero tolerance is unreachable: at the roundoff floor no step
        # lowers the fixed-point defect any more
        p = power_problem(uniform(0.0, 1.0, 17))
        report = solve(
            p,
            strategy=Strategy.NEWTON_ORACLE,
            brackets=construct_bounds(p).pair,
            config=SolveConfig(tol_residual=0.0),
        )
        assert report.status is Status.STALLED
        assert "line search failed" in report.notes[-1]


    @pytest.mark.parametrize("make_problem", [power_problem, coupled_problem],
                             ids=["scalar", "coupled"])
    def test_operator_matches_a_dense_difference_jacobian(self, make_problem):
        # (I - G J) v against central differences of u -> T u - u over every
        # interior entry, at an iterate the band clamp moves in some entries
        p = make_problem(uniform(0.0, 1.0, 33))
        ts, N, n = p.scale, p.scale.last_index, p.n_components
        alpha, beta = construct_bounds(p).pair
        rng = np.random.default_rng(7)
        width = beta.values - alpha.values
        u = alpha.values + width * rng.uniform(-0.5, 1.5, size=width.shape)
        u[0] = u[-1] = 0.0
        inner = u[1:N]
        moved = (inner < alpha.values[1:N]) | (inner > beta.values[1:N])
        assert 0 < moved.sum() < moved.size

        def defect_map(values):
            image = apply_green_operator(
                p, GridFunction(ts, values, 0, N), (alpha, beta), RhsMode.MODIFIED
            )
            return (image.values - values)[1:N].ravel()

        dense = np.empty(((N - 1) * n, (N - 1) * n))
        for col in range((N - 1) * n):
            k, i = divmod(col, n)
            h = 1e-6 * max(1.0, abs(u[k + 1, i]))
            step = np.zeros_like(u)
            step[k + 1, i] = h
            dense[:, col] = (defect_map(u + step) - defect_map(u - step)) / (2.0 * h)

        T = tsdyn.solver._FixedPointMap(
            p, (alpha.values, beta.values), RhsMode.MODIFIED
        )
        operator = tsdyn.solver._newton_operator(T, u, T.rhs(u))
        structured = np.empty_like(dense)
        for col in range((N - 1) * n):
            v = np.zeros_like(u)
            v[1 + col // n, col % n] = 1.0
            image = operator(v)
            assert not image[0].any() and not image[-1].any()
            structured[:, col] = image[1:N].ravel()
        # d(T u - u) = G J - I = -(I - G J)
        assert np.max(np.abs(structured + dense)) <= 1e-5 * np.max(np.abs(dense))

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.66, 0.69, 0.8])
    @pytest.mark.parametrize("depth", [30, 80])
    def test_converges_on_quantum_meshes(self, depth, gamma):
        p = power_problem(quantum(2.0, depth), gamma)
        pair = construct_bounds(p).pair
        picard = solve(p, brackets=pair)
        newton = solve(p, strategy=Strategy.NEWTON_ORACLE, brackets=pair)
        assert picard.converged and newton.converged
        assert newton.bracket_respected
        u = picard.solution.values
        gap = np.max(np.abs(u - newton.solution.values))
        assert gap <= 1e-11 * max(1.0, float(np.max(np.abs(u))))

    def test_one_rhs_evaluation_per_jacobian_column_and_trial(
        self, singular65, monkeypatch
    ):
        # the start iterate, then per iteration one Jacobian column and the
        # accepted full step, whose evaluation the loop reuses
        calls = []
        original = tsdyn.solver.rhs_matrix
        monkeypatch.setattr(
            tsdyn.solver, "rhs_matrix",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        report = solve(singular65, strategy=Strategy.NEWTON_ORACLE,
                       brackets=construct_bounds(singular65).pair)
        assert report.converged
        assert report.iterations == 6
        assert len(calls) == 13

    def test_band_that_is_not_invariant_stalls_at_once(self):
        # Newton's trials are clipped into the band, so with alpha == beta
        # no step can lower the defect; the note counts the entries the
        # clamp moves in the full step
        p = zero_degree_problem(uniform(0.0, 1.0, 65))
        report = solve(p, strategy=Strategy.NEWTON_ORACLE,
                       brackets=construct_bounds(p).pair)
        assert report.status is Status.STALLED
        assert report.iterations == 0
        assert report.notes == (
            f"iteration 0: line search failed at defect {report.defect:.3e}; "
            "the clamp moves 63 entries of the full step",
        )


class TestNewtonAgreesWithPicard:
    """Random jittered explicit meshes, one and two components."""

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.integers(min_value=9, max_value=129),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        gamma=st.floats(min_value=0.3, max_value=0.7),
        coupled=st.booleans(),
    )
    def test_same_solution(self, points, seed, gamma, coupled):
        jitter = np.random.default_rng(seed).uniform(-0.3, 0.3, points - 2)
        inner = (np.arange(1, points - 1) + jitter) / (points - 1)
        ts = from_points(np.concatenate([[0.0], inner, [1.0]]))
        p = (coupled_problem if coupled else power_problem)(ts, gamma)
        pair = construct_bounds(p).pair
        picard = solve(p, brackets=pair)
        newton = solve(p, strategy=Strategy.NEWTON_ORACLE, brackets=pair)
        for report in (picard, newton):
            assert report.status is Status.CONVERGED
            assert report.bracket_respected
        u = picard.solution.values
        gap = np.max(np.abs(u - newton.solution.values))
        assert gap <= 1e-11 * max(1.0, float(np.max(np.abs(u))))


class TestBoundaryValues:
    @pytest.mark.parametrize("strategy", [Strategy.PICARD, Strategy.NEWTON_ORACLE])
    @pytest.mark.parametrize("make_scale", [lambda: uniform(0.0, 1.0, 65),
                                            lambda: quantum(2.0, 30)],
                             ids=["uniform-65", "quantum-30"])
    def test_solution_ends_on_the_boundary_values(self, make_scale, strategy):
        # phi's last row used to be A + (B - A) * 1, an ulp off B = 0.1
        ts = make_scale()
        f = Nonlinearity.from_expression("1 + x1^0.5", arity=1)
        p = DirichletProblem(ts, (f,), (0.7,), (0.1,))
        report = solve(p, strategy=strategy)
        assert report.converged
        assert report.solution.value_at(0).tolist() == [0.7]
        assert report.solution.value_at(ts.last_index).tolist() == [0.1]


class TestBracketChecks:
    def test_crossed_brackets_name_the_first_crossing(self, singular65):
        alpha, beta = construct_bounds(singular65).pair
        crossed = beta.values.copy()
        crossed[[20, 40]] = alpha.values[[20, 40]] - 1e-3
        beta = GridFunction(beta.scale, crossed, 0, beta.scale.last_index)
        with pytest.raises(BracketViolation) as err:
            solve(singular65, brackets=(alpha, beta))
        assert err.value.index == 20

    def test_component_count_must_match(self, singular65):
        ts = singular65.scale
        alpha = GridFunction.constant(ts, [0.0, 0.0])
        beta = GridFunction.constant(ts, [1.0, 1.0])
        with pytest.raises(SupportMismatch, match="component count"):
            solve(singular65, brackets=(alpha, beta))


class TestMonotone:
    def test_requires_brackets(self, unit65):
        with pytest.raises(BracketViolation):
            solve(isotone_problem(unit65), strategy=Strategy.MONOTONE_UP)

    @pytest.mark.parametrize(
        "strategy", [Strategy.MONOTONE_UP, Strategy.MONOTONE_DOWN]
    )
    def test_isotone_map_converges_from_either_end(self, strategy):
        ts = uniform(0.0, 1.0, 33)
        p = isotone_problem(ts)
        pair = construct_bounds(p)
        report = solve(p, strategy=strategy, brackets=pair.pair)
        assert report.converged
        assert report.final_residual <= 1e-10

    def test_directions_meet(self):
        ts = uniform(0.0, 1.0, 33)
        p = isotone_problem(ts)
        pair = construct_bounds(p)
        up = solve(p, strategy=Strategy.MONOTONE_UP, brackets=pair.pair)
        down = solve(p, strategy=Strategy.MONOTONE_DOWN, brackets=pair.pair)
        gap = np.max(np.abs(up.solution.values - down.solution.values))
        assert gap < 1e-8

    def test_antitone_map_breaks_ordering(self, singular65):
        # decreasing f makes the operator order-reversing, which the
        # direction check must flag rather than silently accept
        pair = construct_bounds(singular65)
        report = solve(singular65, strategy=Strategy.MONOTONE_UP, brackets=pair.pair)
        assert report.status is Status.DIVERGED
        assert any("monotonicity violated" in n for n in report.notes)


class TestRhsModes:
    def test_truncated_stays_in_band(self, singular65):
        pair = construct_bounds(singular65)
        alpha, beta = pair.pair
        ts = singular65.scale
        wild = GridFunction.from_values(
            ts, np.linspace(-5.0, 5.0, ts.npoints)
        )
        rhs = regularized_rhs(singular65, wild, pair.pair, RhsMode.TRUNCATED)
        direct = regularized_rhs(singular65, clamp_to_band(wild, alpha, beta))
        assert np.allclose(rhs.values, direct.values, rtol=0, atol=1e-15)

    def test_modified_mode_needs_brackets(self, singular65):
        u = envelope_weight(singular65.scale) + 0.1
        with pytest.raises(BracketViolation):
            regularized_rhs(singular65, u, None, RhsMode.MODIFIED)

    def test_partial_brackets_rejected(self, singular65):
        alpha, beta = construct_bounds(singular65).pair
        N = singular65.scale.last_index
        with pytest.raises(SupportMismatch):
            regularized_rhs(
                singular65,
                alpha,
                (alpha.restrict(1, N), beta.restrict(1, N)),
                RhsMode.TRUNCATED,
            )

    def test_modified_correction_is_bounded(self, singular65):
        pair = construct_bounds(singular65)
        u = envelope_weight(singular65.scale) * 40.0 + 0.01
        raw_at_clamp = regularized_rhs(
            singular65, clamp_to_band(u, *pair.pair), pair.pair, RhsMode.TRUNCATED
        )
        modified = regularized_rhs(singular65, u, pair.pair, RhsMode.MODIFIED)
        assert np.max(np.abs(modified.values - raw_at_clamp.values)) <= 1.0 + 1e-12

    def test_clamp_to_band(self, unit65):
        alpha = GridFunction.constant(unit65, 0.0)
        beta = GridFunction.constant(unit65, 1.0)
        u = GridFunction.from_values(unit65, np.linspace(-1.0, 2.0, 65))
        clamped = clamp_to_band(u, alpha, beta)
        assert clamped.values.min() == 0.0
        assert clamped.values.max() == 1.0


class TestSolveConfig:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("max_iters", -1),
            ("max_iters", 2.5),
            ("max_iters", True),
            ("tol_residual", -1.0),
            ("tol_residual", float("nan")),
        ],
    )
    def test_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            SolveConfig(**{key: value})
        assert err.value.key == key

    def test_edges_accepted(self):
        config = SolveConfig(tol_residual=0.0, max_iters=0)
        assert config.max_iters == 0
        assert SolveConfig(max_iters=np.int64(5)).max_iters == 5

    def test_holds_only_the_stopping_rule(self):
        fields = [field.name for field in dataclasses.fields(SolveConfig)]
        assert fields == ["tol_residual", "max_iters"]

    def test_unknown_strategy_is_a_config_error(self, singular65):
        with pytest.raises(ConfigError) as err:
            solve(singular65, strategy="picard")
        assert err.value.key == "strategy"

    def test_nested_truncation_is_gone(self, singular65):
        # its widest level pinned indices 1 and N-1 to the band midpoints, so
        # it solved another problem than the one it was given
        assert [s.value for s in Strategy] == [
            "picard", "monotone_up", "monotone_down", "newton_oracle"]
        pair = construct_bounds(singular65)
        with pytest.raises(ConfigError) as err:
            solve(singular65, strategy=Strategy.TRUNCATED_NEST, brackets=pair.pair)
        assert err.value.key == "strategy"


class TestResidual:
    def test_exact_solution_scores_zero(self, unit65):
        f = Nonlinearity.from_expression("1", arity=1)
        p = DirichletProblem(unit65, (f,))
        t = unit65.points
        exact = GridFunction.from_values(unit65, t * (1.0 - t) / 2.0)
        assert residual_norm(p, exact) < 1e-12

    def test_domain_escape_scores_infinity(self, singular65):
        zero = GridFunction.constant(singular65.scale, 0.0)
        assert residual_norm(singular65, zero) == np.inf

    def test_operator_fixed_point_is_solution(self, singular65):
        pair = construct_bounds(singular65)
        report = solve(singular65, brackets=pair.pair)
        u = report.solution
        image = apply_green_operator(singular65, u, pair.pair, RhsMode.TRUNCATED)
        assert np.max(np.abs(image.values - u.values)) < 1e-8


#: Each entry point handed grid functions on ``other``: a band ``(alpha,
#: beta)`` and an iterate ``u``, all for the problem ``p``.
ENTRY_POINTS = {
    "solve": lambda p, alpha, beta, u: solve(p, brackets=(alpha, beta)),
    "regularized_rhs": lambda p, alpha, beta, u: regularized_rhs(
        p, u, (alpha, beta), RhsMode.MODIFIED),
    "apply_green_operator": lambda p, alpha, beta, u: apply_green_operator(p, u),
    "residual_norm": lambda p, alpha, beta, u: residual_norm(p, u),
    "verify_lower": lambda p, alpha, beta, u: verify_lower(p, alpha),
    "verify_upper": lambda p, alpha, beta, u: verify_upper(p, beta),
    "compute_envelope": lambda p, alpha, beta, u: compute_envelope(p, u),
    "green_apply": lambda p, alpha, beta, u: green_apply(p.scale, u),
    "clamp_to_band": lambda p, alpha, beta, u: clamp_to_band(
        GridFunction(p.scale, u.values, u.lo, u.hi), alpha, beta),
}


class TestRealizationCheck:
    """Grid functions on another realization with the same point count are
    refused where they enter; an equal-points copy of the scale is the same
    realization."""

    @staticmethod
    def moved(other):
        ts = uniform(0.0, 1.0, 65)
        p = power_problem(ts)
        pair = construct_bounds(p)
        u = solve(p, brackets=pair.pair).solution
        return p, *(GridFunction(other, g.values, g.lo, g.hi)
                    for g in (pair.alpha, pair.beta, u))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_another_realization_is_refused(self, entry):
        other = quantum(2.0, 63)
        assert other.npoints == 65
        with pytest.raises(ScaleMismatch):
            ENTRY_POINTS[entry](*self.moved(other))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_equal_points_copy_is_accepted(self, entry):
        ENTRY_POINTS[entry](*self.moved(from_points(np.linspace(0.0, 1.0, 65))))
