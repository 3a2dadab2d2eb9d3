"""Fixed-point, monotone and Newton solution strategies, and the realization
check at the solver and criteria entry points."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsdyn.solver
from test_green import banded_oracle
from tsdyn import (
    BracketViolation,
    ConfigError,
    DirichletProblem,
    GridFunction,
    Nonlinearity,
    SolveConfig,
    Status,
    Strategy,
    SupportMismatch,
    affine_interpolant,
    apply_green_operator,
    compute_envelope,
    construct_bounds,
    from_points,
    green_apply,
    quantum,
    residual_norm,
    rhs_matrix,
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
    """The README problem with zero degrees declared, which claims that f
    ignores the state, so ``construct_bounds`` returns ``alpha == beta``, a
    band that is not invariant."""
    return DirichletProblem(ts, (Nonlinearity.from_expression(
        "x1^(-0.5)", arity=1, degree_low=(0.0,), degree_high=(0.0,)),))


def jittered_scale(points, seed):
    """An explicit mesh on [0, 1]: the uniform interior points, each moved by
    up to 0.3 of a cell."""
    jitter = np.random.default_rng(seed).uniform(-0.3, 0.3, points - 2)
    inner = (np.arange(1, points - 1) + jitter) / (points - 1)
    return from_points(np.concatenate([[0.0], inner, [1.0]]))


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

    #: Each right-hand side as (expression, callable, degree_low, degree_high)
    #: per component, and the strategies it is solved with.
    PARITY = {
        "x1^(-0.3)": ([("x1^(-0.3)", lambda t, x: math.pow(x[0], -0.3), (-0.3,), (0.3,))],
                      (Strategy.PICARD, Strategy.NEWTON_ORACLE)),
        "x1^(-0.7)": ([("x1^(-0.7)", lambda t, x: math.pow(x[0], -0.7), (-0.7,), (0.7,))],
                      (Strategy.PICARD, Strategy.NEWTON_ORACLE)),
        "1 + x1^0.5": ([("1 + x1^0.5", lambda t, x: 1.0 + math.pow(x[0], 0.5), (0.0,), (0.5,))],
                       (Strategy.PICARD, Strategy.MONOTONE_UP, Strategy.MONOTONE_DOWN,
                        Strategy.NEWTON_ORACLE)),
        "coupled": ([("x1^(-0.3) * x2^(-0.2)",
                      lambda t, x: math.pow(x[0], -0.3) * math.pow(x[1], -0.2),
                      (-0.3, -0.3), (0.3, -0.1)),
                     ("x2^(-0.4) * x1^(-0.1)",
                      lambda t, x: math.pow(x[1], -0.4) * math.pow(x[0], -0.1),
                      (-0.2, -0.4), (-0.05, 0.4))],
                    (Strategy.PICARD, Strategy.NEWTON_ORACLE)),
        "t^(-1.5)": ([("t^(-1.5)", lambda t, x: math.pow(t, -1.5), (0.0,), (0.0,))],
                     (Strategy.PICARD, Strategy.NEWTON_ORACLE)),
    }

    @staticmethod
    def record(problem, strategies):
        """Everything the bounds, their verification and each solve report,
        as bytes where it is a float."""
        pair = construct_bounds(problem)
        out = [pair.alpha.values.tobytes(), pair.beta.values.tobytes(),
               repr(pair.constants), pair.notes,
               repr(verify_lower(problem, pair.alpha)), repr(verify_upper(problem, pair.beta))]
        for strategy in strategies:
            config = SolveConfig(max_iters=30) if strategy is Strategy.NEWTON_ORACLE else None
            r = solve(problem, strategy=strategy, brackets=pair.pair, config=config)
            out.append((r.solution.values.tobytes(), r.strategy, r.status, r.iterations,
                        np.float64(r.final_residual).tobytes(),
                        np.float64(r.defect).tobytes(), r.bracket_respected, r.notes))
        return out

    @pytest.mark.parametrize("name", sorted(PARITY))
    @pytest.mark.parametrize("scale", ["uniform-65", "uniform-1025", "quantum-2-30"])
    def test_callable_and_expression_give_the_same_bytes(self, name, scale):
        """The benchmark's right-hand sides as expressions and as callables:
        bounds, verification and every solve report are byte-equal, the
        dropped first cell of ``t^(-1.5)`` included."""
        ts = {"uniform-65": lambda: uniform(0.0, 1.0, 65),
              "uniform-1025": lambda: uniform(0.0, 1.0, 1025),
              "quantum-2-30": lambda: quantum(2.0, 30)}[scale]()
        components, strategies = self.PARITY[name]
        n = len(components)
        zeros = (0.0,) * n
        records = []
        for form in (0, 1):
            f = tuple(
                Nonlinearity.from_expression(text, arity=n, component_index=i,
                                             degree_low=low, degree_high=high)
                if form == 0 else Nonlinearity(n, i, body, low, high)
                for i, (text, body, low, high) in enumerate(components, start=1))
            records.append(self.record(DirichletProblem(ts, f, zeros, zeros), strategies))
        assert records[0] == records[1]
        if name == "t^(-1.5)":
            assert records[0][3] == ("dropped improper first cell for component(s) [1]",)


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
        low = GridFunction(p.scale, 0.5 * (alpha.values + exact))
        report = solve(p, strategy=strategy, brackets=(alpha, low))
        assert report.status is Status.STALLED
        assert not report.bracket_respected
        assert report.defect < 1e-12
        assert report.notes == (
            f"iteration {report.iterations}: band not invariant: defect "
            f"{report.defect:.3e} meets the tolerance where the clamp moves "
            "31 entries",
        )

    def test_bracket_verdict_is_the_clamps(self):
        # beta sits a relative 1e-10 below Picard's solution, so the run stops
        # where the clamp moves every interior entry; the verdict counts those
        # moves, however small, with no slack
        p = power_problem(uniform(0.0, 1.0, 65))
        alpha, beta = construct_bounds(p).pair
        exact = solve(p, brackets=(alpha, beta))
        assert exact.converged and exact.bracket_respected
        below = GridFunction(p.scale, exact.solution.values * (1.0 - 1e-10))
        report = solve(p, brackets=(alpha, below))
        assert report.status is Status.STALLED
        assert not report.bracket_respected
        assert report.notes == (
            f"iteration {report.iterations}: band not invariant: defect "
            f"{report.defect:.3e} meets the tolerance where the clamp moves "
            "63 entries",
        )

    @pytest.mark.parametrize("points", [65, 1025])
    @pytest.mark.parametrize(
        "strategy", [Strategy.PICARD, Strategy.MONOTONE_DOWN]
    )
    def test_band_that_is_not_invariant_stops_at_once(self, points, strategy):
        # alpha == beta here, and the clamped map's fixed point lies outside
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


#: The mixing grid: uniform, quantum (q = 2) and jittered explicit meshes.
MIXING_GRID_SCALES = {
    **{f"uniform-{n}": (lambda n=n: uniform(0.0, 1.0, n)) for n in (65, 257, 1025, 4097)},
    **{f"quantum-{d}": (lambda d=d: quantum(2.0, d)) for d in (10, 30, 80)},
    "explicit-257": lambda: jittered_scale(257, 3),
}
MIXING_GRID_CASES = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, "coupled"]


@pytest.fixture(scope="module")
def mixing_grid():
    """Picard on ``x1^(-gamma)`` and the two-component system over every mesh
    of the grid, inside ``construct_bounds``'s band."""
    reports = {}
    for name, make_scale in MIXING_GRID_SCALES.items():
        ts = make_scale()
        for case in MIXING_GRID_CASES:
            p = coupled_problem(ts) if case == "coupled" else power_problem(ts, case)
            reports[name, case] = solve(p, brackets=construct_bounds(p).pair)
    return reports


class TestAndersonStep:
    """Picard starts at the band's geometric centre and mixes the last three
    steps (Anderson depth 3), which removes the slow mode x^(-gamma) leaves
    behind; monotone runs and Newton keep their own steps."""

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
        # plain Picard needs 22, 40, 82 and 41 iterations here, and the
        # depth-1 secant step from the band midpoint 9, 12, 15 and 13
        assert report.iterations <= 12
        u = report.solution.component(1)
        bound = SolveConfig().tol_residual * max(1.0, float(np.max(np.abs(u))))
        assert report.defect <= bound
        v = banded_oracle(ts, u[1:-1] ** -gamma)
        assert np.max(np.abs(u - v)) <= 10.0 * bound

    @pytest.mark.parametrize("case", MIXING_GRID_CASES, ids=str)
    @pytest.mark.parametrize("scale", list(MIXING_GRID_SCALES))
    def test_grid_case_converges_in_few_iterations(self, mixing_grid, scale, case):
        report = mixing_grid[scale, case]
        assert report.status is Status.CONVERGED
        assert report.bracket_respected
        assert report.iterations <= 14

    def test_grid_total(self, mixing_grid):
        # the depth-1 secant step from the band midpoint took 772
        assert len(mixing_grid) == 56
        assert sum(report.iterations for report in mixing_grid.values()) <= 500

    @pytest.mark.parametrize("strategy", [Strategy.PICARD, Strategy.NEWTON_ORACLE])
    def test_starts_at_the_geometric_centre_of_the_band(self, singular65, strategy):
        alpha, beta = construct_bounds(singular65).pair
        assert (alpha.values[1:-1] > 0.0).all()
        report = solve(singular65, strategy=strategy, brackets=(alpha, beta),
                       config=SolveConfig(max_iters=0))
        centre = np.sqrt(alpha.values * beta.values)
        centre[0] = centre[-1] = 0.0
        assert report.solution.values.tobytes() == centre.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_band_entries_at_or_below_zero_start_at_the_midpoint(self):
        f = Nonlinearity.from_expression("1 + x1*x1", arity=1)
        p = DirichletProblem(uniform(0.0, 1.0, 65), (f,))
        exact = solve(p).solution.values
        alpha, beta = exact - 0.03, exact + 0.05
        alpha[::7] = 0.0
        assert (alpha < 0.0).any() and (alpha == 0.0).any() and (alpha > 0.0).any()
        pair = tuple(GridFunction(p.scale, v) for v in (alpha, beta))
        start = solve(p, brackets=pair, config=SolveConfig(max_iters=0))
        # abs keeps the square roots np.where discards free of warnings
        expected = np.where(alpha > 0.0, np.sqrt(np.abs(alpha * beta)), 0.5 * (alpha + beta))
        expected[0] = expected[-1] = 0.0
        assert start.solution.values.tobytes() == expected.tobytes()
        for strategy in (Strategy.PICARD, Strategy.NEWTON_ORACLE):
            report = solve(p, strategy=strategy, brackets=pair)
            assert report.converged
            assert np.max(np.abs(report.solution.values - exact)) <= 1e-11

    @pytest.mark.parametrize("make_problem", [lambda ts: power_problem(ts, 0.8),
                                              coupled_problem],
                             ids=["scalar-0.8", "coupled"])
    def test_picard_calls_no_linear_algebra(self, make_problem, monkeypatch):
        p = make_problem(uniform(0.0, 1.0, 257))
        pair = construct_bounds(p).pair

        def refuse(*args, **kwargs):
            raise AssertionError("Picard called numpy.linalg")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        report = solve(p, brackets=pair)
        assert report.converged
        assert report.iterations > 3

    def test_mixing_fit_drops_the_oldest_of_dependent_columns(self):
        rng = np.random.default_rng(5)
        columns = rng.normal(size=(3, 40, 2))
        g = rng.normal(size=(40, 2))

        def history(dgs):
            return [(dg, None, math.sqrt(float(np.vdot(dg, dg)))) for dg in dgs]

        fit = tsdyn.solver._mixing(history(columns), g)
        exact = np.linalg.lstsq(columns.reshape(3, -1).T, g.ravel(), rcond=None)[0]
        assert np.allclose(fit, exact, rtol=1e-12, atol=1e-12)
        # the newest column keeps 1e-4 of its norm orthogonal to the oldest
        newest = columns[0] + 1e-4 * columns[1]
        dependent = history([columns[0], newest])
        fit = tsdyn.solver._mixing(dependent, g)
        assert len(dependent) == 1 and dependent[0][0] is newest
        assert fit == pytest.approx(
            [np.vdot(newest, g) / np.vdot(newest, newest)], rel=1e-12)
        zero = history([np.zeros_like(g)])
        assert tsdyn.solver._mixing(zero, g) == [] and zero == []

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
            u = apply_green_operator(p, u, pair)
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
        # the clamp has a kink at each band edge: no difference probe crosses one
        steps = 1e-6 * np.maximum(1.0, np.abs(inner))
        for edge in (alpha.values[1:N], beta.values[1:N]):
            assert (np.abs(inner - edge) > steps).all()

        def defect_map(values):
            image = apply_green_operator(p, GridFunction(ts, values), (alpha, beta))
            return (image.values - values)[1:N].ravel()

        dense = np.empty(((N - 1) * n, (N - 1) * n))
        for col in range((N - 1) * n):
            k, i = divmod(col, n)
            h = steps[k, i]
            step = np.zeros_like(u)
            step[k + 1, i] = h
            dense[:, col] = (defect_map(u + step) - defect_map(u - step)) / (2.0 * h)

        T = tsdyn.solver._FixedPointMap(p, (alpha, beta))
        operator = tsdyn.solver._newton_operator(T, u, T.rhs(u)[0])
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
        assert report.iterations == 3
        assert len(calls) == 7

    @pytest.mark.parametrize("make_scale", [lambda: uniform(0.0, 1.0, 1025),
                                            lambda: quantum(2.0, 30)],
                             ids=["uniform-1025", "quantum-30"])
    def test_few_iterations_at_gamma_0_8(self, make_scale):
        # from the band midpoint, far above the solution, it took 21 and 24
        p = power_problem(make_scale(), 0.8)
        report = solve(p, strategy=Strategy.NEWTON_ORACLE,
                       brackets=construct_bounds(p).pair)
        assert report.converged
        assert report.iterations <= 10

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

    def test_jacobian_probe_outside_the_domain_is_named(self):
        # phi = 1 is in the domain of 1 + (1 - x1)^0.5 + (x1 - 1)^0.5, but
        # the forward probe lifts each state past 1 and the backward probe
        # lowers it below 1
        f = Nonlinearity.from_expression("1 + (1 - x1)^0.5 + (x1 - 1)^0.5", arity=1)
        p = DirichletProblem(uniform(0.0, 1.0, 17), (f,), (1.0,), (1.0,))
        report = solve(p, strategy=Strategy.NEWTON_ORACLE)
        assert report.status is Status.DIVERGED
        assert report.iterations == 0
        assert report.notes == (
            "iteration 0: Jacobian probe: row 1, component 1: negative base "
            "-1.5e-08 with non-integer exponent 0.5",
        )

    def test_jacobian_probes_backward_where_the_forward_probe_leaves_the_domain(self):
        # the forward probe lifts a state of 1 + (1 - x1)^0.5 past 1 at
        # iteration 6; probing backward there, Newton goes on until its line
        # search finds no trial inside the domain
        f = Nonlinearity.from_expression("1 + (1 - x1)^0.5", arity=1)
        p = DirichletProblem(uniform(1.0, 3.0, 65), (f,), (0.7,), (0.1,))
        report = solve(p, strategy=Strategy.NEWTON_ORACLE)
        assert report.status is Status.STALLED
        assert report.iterations == 13
        assert report.notes == (
            "iteration 13: line search failed at defect 6.878e-02; "
            "41 of 41 trials left the domain of f",
        )

    @pytest.mark.parametrize("points", [17, 65, 257])
    def test_trials_outside_the_domain_are_counted(self, points):
        # unbracketed, every trial of the first step drives a state negative
        # under ^0.5; with no band there is no clamp for the note to name.
        # Picard converges on the same problem
        p = isotone_problem(uniform(0.0, 1.0, points))
        report = solve(p, strategy=Strategy.NEWTON_ORACLE)
        assert report.status is Status.STALLED
        assert report.iterations == 0
        assert report.notes == (
            f"iteration 0: line search failed at defect {report.defect:.3e}; "
            "41 of 41 trials left the domain of f",
        )
        assert solve(p, strategy=Strategy.PICARD).converged


class TestNewtonAgreesWithPicard:
    """Random jittered explicit meshes, one and two components."""

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.integers(min_value=9, max_value=129),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        gamma=st.floats(min_value=0.3, max_value=0.7),
        coupled=st.booleans(),
    )
    # here the band is about 9e11 times alpha wide, and Picard stalled when it
    # took a mixed step the clamp moved in 172 of 174 entries
    @example(points=89, seed=1, gamma=0.69921875, coupled=True)
    def test_same_solution(self, points, seed, gamma, coupled):
        ts = jittered_scale(points, seed)
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
        beta = GridFunction(beta.scale, crossed)
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
    """``f*`` reads the states clipped into the band when brackets are given
    and as they are otherwise, at the public edge as in ``solve``; the
    oracle is ``np.clip`` of the band."""

    def test_brackets_decide_the_clamp(self, singular65):
        # with brackets T u = phi + G f(., clip(u^sigma)), byte for byte
        alpha, beta = construct_bounds(singular65).pair
        ts = singular65.scale
        N = ts.last_index
        wild = GridFunction(ts, np.linspace(-5.0, 5.0, ts.npoints))
        clipped = np.clip(wild.values, alpha.values, beta.values)
        assert (clipped != wild.values).any()
        rhs = GridFunction(ts, rhs_matrix(singular65, clipped[1:N])[0])
        phi = affine_interpolant(ts, singular65.boundary_left, singular65.boundary_right)
        image = apply_green_operator(singular65, wild, (alpha, beta)).values.tobytes()
        assert image == (phi + green_apply(ts, rhs)).values.tobytes()
        assert image == apply_green_operator(singular65, GridFunction(ts, clipped)).values.tobytes()
        inside = 0.5 * (alpha + beta)
        assert (apply_green_operator(singular65, inside, (alpha, beta)).values.tobytes()
                == apply_green_operator(singular65, inside).values.tobytes())

    @pytest.mark.parametrize("edge", [
        apply_green_operator,
        lambda p, u, brackets: solve(p, brackets=brackets),
    ], ids=["apply_green_operator", "solve"])
    def test_bracket_errors_come_from_the_edges(self, unit65, edge):
        # the one band check: a crossed band used to clip to beta, and a band
        # of two components on a one-component system widened it
        p = power_problem(unit65)
        u = GridFunction(unit65, np.linspace(-1.0, 2.0, 65))
        low, high = (GridFunction.constant(unit65, v) for v in (0.0, 1.0))
        with pytest.raises(BracketViolation) as err:
            edge(p, u, (high, low))
        assert err.value.index == 0
        with pytest.raises(SupportMismatch, match="component count must be 1, got 2"):
            edge(p, u, tuple(GridFunction.constant(unit65, v, n=2) for v in (0.0, 1.0)))
        with pytest.raises(SupportMismatch, match="cover the whole realization"):
            edge(p, u, (low.restrict(0, 63), high))
        with pytest.raises(SupportMismatch, match="cover the whole realization"):
            edge(p, u, (low, high.restrict(1, 64)))
        with pytest.raises(SupportMismatch, match="another realization"):
            edge(p, u, (GridFunction(quantum(2.0, 63), low.values), high))


#: How an entry of the iterate sits against its band.
BELOW, ABOVE, LOW_EDGE, HIGH_EDGE, INSIDE, NAN = range(6)


class TestClampCount:
    """One clip of rows ``1..N-1`` gives both the states ``f*`` reads and the
    count of moved entries that "band not invariant" notes print."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        points=st.integers(min_value=4, max_value=40),
        n=st.sampled_from([1, 2]),
    )
    def test_count_and_states_match_clip(self, data, points, n):
        def draw(elements):
            values = data.draw(st.lists(elements, min_size=points * n, max_size=points * n))
            return np.array(values).reshape(points, n)

        alpha = draw(st.floats(-1e3, 1e3))
        width = draw(st.just(0.0) | st.floats(0.0, 1e3))
        beta = alpha + width
        kind = draw(st.sampled_from(range(6)))
        gap, share = draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 1.0))
        u = np.select(
            [kind == BELOW, kind == ABOVE, kind == LOW_EDGE, kind == HIGH_EDGE, kind == INSIDE],
            [alpha - gap, beta + gap, alpha, beta, alpha + share * width],
            np.nan,
        )
        seen = []

        def body(t, x):
            seen.append(x)
            return 0.0

        zeros = (0.0,) * n
        f = tuple(Nonlinearity(n, i, body if i == 1 else (lambda t, x: 0.0), zeros, zeros)
                  for i in range(1, n + 1))
        scale = uniform(0.0, 1.0, points)
        problem = DirichletProblem(scale, f, zeros, zeros)
        T = tsdyn.solver._FixedPointMap(problem, (GridFunction(scale, alpha),
                                                  GridFunction(scale, beta)))
        _, _, moved = T(u)
        N = points - 1
        assert moved == np.count_nonzero(np.isin(kind[1:N], [BELOW, ABOVE, NAN]))
        clipped = np.clip(u[1:N], alpha[1:N], beta[1:N])
        assert np.array_equal(np.array(seen), clipped, equal_nan=True)


class TestImproperFirstCell:
    """``t^(-0.5)`` makes ``f`` undefined at the first equation point, so
    every evaluation uses 0 there; a solve says so once, in its last note."""

    NOTE = "dropped improper first cell for component(s) [1]"

    @staticmethod
    def problem():
        f = Nonlinearity.from_expression(
            "t^(-0.5) * x1^(-0.5)", arity=1, degree_low=(-0.5,), degree_high=(0.5,)
        )
        return DirichletProblem(uniform(0.0, 1.0, 17), (f,))

    @pytest.mark.parametrize("strategy", [Strategy.PICARD, Strategy.NEWTON_ORACLE])
    def test_converged_solve_notes_the_drop(self, strategy):
        p = self.problem()
        bounds = construct_bounds(p)
        assert bounds.notes == (self.NOTE,)
        report = solve(p, strategy=strategy, brackets=bounds.pair)
        assert report.status is Status.CONVERGED
        assert report.notes == (self.NOTE,)

    def test_drop_note_follows_the_stop_note(self):
        p = self.problem()
        report = solve(p, strategy=Strategy.MONOTONE_UP, brackets=construct_bounds(p).pair)
        assert report.status is Status.DIVERGED
        assert len(report.notes) == 2
        assert "monotonicity violated" in report.notes[0]
        assert report.notes[1] == self.NOTE


class TestSolveConfig:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("max_iters", -1),
            ("max_iters", 2.5),
            ("max_iters", True),
            ("tol_residual", -1.0),
            ("tol_residual", float("nan")),
            ("tol_residual", float("inf")),
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
        exact = GridFunction(unit65, t * (1.0 - t) / 2.0)
        assert residual_norm(p, exact) < 1e-12

    def test_domain_escape_scores_infinity(self, singular65):
        zero = GridFunction.constant(singular65.scale, 0.0)
        assert residual_norm(singular65, zero) == np.inf

    def test_operator_fixed_point_is_solution(self, singular65):
        pair = construct_bounds(singular65)
        report = solve(singular65, brackets=pair.pair)
        u = report.solution
        image = apply_green_operator(singular65, u, pair.pair)
        assert np.max(np.abs(image.values - u.values)) < 1e-8


#: Each entry point handed grid functions on ``other``: a band ``(alpha,
#: beta)`` and an iterate ``u``, all for the problem ``p``.
ENTRY_POINTS = {
    "solve": lambda p, alpha, beta, u: solve(p, brackets=(alpha, beta)),
    "apply_green_operator": lambda p, alpha, beta, u: apply_green_operator(p, u),
    "residual_norm": lambda p, alpha, beta, u: residual_norm(p, u),
    "verify_lower": lambda p, alpha, beta, u: verify_lower(p, alpha),
    "verify_upper": lambda p, alpha, beta, u: verify_upper(p, beta),
    "compute_envelope": lambda p, alpha, beta, u: compute_envelope(p, u),
    "green_apply": lambda p, alpha, beta, u: green_apply(p.scale, u),
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
        return p, *(GridFunction(other, g.values, g.lo)
                    for g in (pair.alpha, pair.beta, u))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_another_realization_is_refused(self, entry):
        other = quantum(2.0, 63)
        assert other.npoints == 65
        with pytest.raises(SupportMismatch):
            ENTRY_POINTS[entry](*self.moved(other))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_equal_points_copy_is_accepted(self, entry):
        ENTRY_POINTS[entry](*self.moved(from_points(np.linspace(0.0, 1.0, 65))))
