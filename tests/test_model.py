"""Nonlinearity declarations, degree brackets, and problem assembly."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdyn import (
    DimensionMismatch,
    DirichletProblem,
    DomainViolation,
    ExpressionTree,
    NonFiniteResult,
    Nonlinearity,
    ShapeViolation,
    UnknownVariable,
    check_lipschitz_bound,
    check_monotone_in_state,
    check_scaling_exponents,
    emden_fowler,
    parse_expression,
    rhs_matrix,
    uniform,
)


#: What a faulty callable does at its faulty entries: raise or return.
FAULTS = {
    "zero-division": ZeroDivisionError("float division by zero"),
    "value": ValueError("math domain error"),
    "overflow": OverflowError("math range error"),
    "domain": DomainViolation("outside the domain"),
    "type": TypeError("unsupported operand"),
    "stop": StopIteration("exhausted"),  # ends a bare iterator pass early
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "int": 7,
    "int-overflow": 10**400,  # float() itself raises OverflowError
    "bool": True,
    "float64": np.float64(-2.5),
}


def fails(fault):
    """Whether an entry that gives ``fault`` goes to the scalar path: it
    raises, or ``float`` of it raises or is not finite."""
    try:
        return not math.isfinite(float(fault))
    except Exception:
        return True


def faulty(faults, calls=None, i=0):
    """A callable that is smooth except at the times in ``faults``; with
    ``calls``, it counts its calls per ``(i, t)``."""

    def body(t, x):
        if calls is not None:
            calls[i, t] += 1
        fault = faults.get(t)
        if isinstance(fault, Exception):
            raise type(fault)(*fault.args)
        if fault is not None:
            return fault
        return 1.0 + t * t + math.fsum(v * v for v in x)

    return body


def row_by_row(problem, states):
    """Every entry through the scalar contract, one row after another: the
    behaviour ``rhs_matrix`` must reproduce."""
    rows, n = states.shape
    out = np.empty((rows, n))
    skipped = []
    points = problem.scale.points.tolist()
    for k in range(rows):
        for i, fi in enumerate(problem.f):
            try:
                out[k, i] = fi.evaluate(points[k], states[k])
            except (DomainViolation, NonFiniteResult) as exc:
                if k == 0:
                    out[k, i] = 0.0
                    skipped.append(i + 1)
                else:
                    raise type(exc)(f"row {k}, component {i + 1}: {exc}") from exc
    return out, tuple(skipped)


def outcome(fn, *args):
    try:
        vals, skipped = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return vals.tobytes(), skipped


def power_law(gamma, lo=None, hi=None):
    return Nonlinearity.from_expression(
        f"x1^(-{gamma})",
        arity=1,
        degree_low=(-gamma,) if lo is None else (lo,),
        degree_high=(gamma,) if hi is None else (hi,),
    )


class TestNonlinearity:
    def test_from_expression_defaults(self):
        f = Nonlinearity.from_expression("t + x1", arity=1)
        assert f.degree_low == (0.0,)
        assert f.degree_high == (0.0,)
        assert f.component_index == 1
        assert f.evaluate(1.0, (2.0,)) == 3.0

    def test_degree_length_must_match_arity(self):
        with pytest.raises(DimensionMismatch):
            Nonlinearity.from_expression(
                "x1", arity=2, degree_low=(0.0,), degree_high=(0.0, 0.0)
            )

    def test_expression_arity_checked(self):
        with pytest.raises(UnknownVariable):
            Nonlinearity.from_expression("x2", arity=1)

    def test_component_index_in_range(self):
        with pytest.raises(DimensionMismatch):
            Nonlinearity.from_expression("x1", arity=1, component_index=2)

    def test_callable_body(self):
        f = Nonlinearity(
            arity=1,
            component_index=1,
            body=lambda t, x: t + x[0],
            degree_low=(0.0,),
            degree_high=(0.0,),
        )
        assert f.evaluate(0.5, (1.5,)) == 2.0

    def test_callable_gets_a_tuple_of_floats_on_every_path(self, unit65):
        seen = set()

        def body(t, x):
            seen.add((type(x), *map(type, x)))
            return math.pow(x[0], -0.5) * math.pow(x[1], -0.25)

        f = Nonlinearity(2, 1, body, (-0.5, -0.25), (0.5, -0.25))
        g = Nonlinearity(2, 2, body, (-0.5, -0.25), (-0.5, 0.25))
        assert f.evaluate(0.5, np.array([4.0, 16.0])) == 0.25
        assert f.evaluate(0.5, [4, 16]) == 0.25
        DirichletProblem(unit65, (f, g), (0.0, 0.0), (0.0, 0.0)).evaluate_rhs(
            0.5, np.array([1.0, 2.0]))
        check_scaling_exponents(f, unit65, samples=5)
        check_monotone_in_state(f, unit65, samples=5)
        check_lipschitz_bound(f, unit65, (0.5, 2.0), samples=5)
        assert seen == {(tuple, float, float)}

    def test_callable_arithmetic_errors_translated(self):
        f = Nonlinearity(
            arity=1,
            component_index=1,
            body=lambda t, x: x[0] ** -1.5,
            degree_low=(-1.5,),
            degree_high=(0.0,),
        )
        with pytest.raises(DomainViolation):
            f.evaluate(0.0, (0.0,))
        g = Nonlinearity(
            arity=1,
            component_index=1,
            body=lambda t, x: float("nan"),
            degree_low=(0.0,),
            degree_high=(0.0,),
        )
        with pytest.raises(NonFiniteResult):
            g.evaluate(0.0, (1.0,))

    def test_diagonal_degrees(self):
        f = power_law(0.5)
        assert f.diagonal_low == -0.5
        assert f.diagonal_high == 0.5


class TestShapeValidation:
    def test_widened_power_bracket_is_strict(self):
        power_law(0.5).validate_shape()

    def test_collapsed_bracket_fails(self):
        with pytest.raises(ShapeViolation):
            power_law(0.5, lo=-0.5, hi=-0.5).validate_shape()

    def test_diagonal_upper_edge_below_one(self):
        with pytest.raises(ShapeViolation):
            power_law(0.5, lo=-0.5, hi=1.0).validate_shape()

    def test_diagonal_lower_edge_negative(self):
        with pytest.raises(ShapeViolation):
            power_law(0.5, lo=0.1, hi=0.5).validate_shape()

    def test_off_diagonal_edges_negative(self):
        f = Nonlinearity.from_expression(
            "x1^(-0.3) * x2^(-0.2)",
            arity=2,
            component_index=1,
            degree_low=(-0.4, -0.3),
            degree_high=(0.4, -0.1),
        )
        f.validate_shape()
        bad = Nonlinearity.from_expression(
            "x1^(-0.3) * x2^(-0.2)",
            arity=2,
            component_index=1,
            degree_low=(-0.4, -0.3),
            degree_high=(0.4, 0.1),
        )
        with pytest.raises(ShapeViolation):
            bad.validate_shape()


class TestEmdenFowler:
    def test_point_value(self):
        f = emden_fowler([-0.5], coefficient=2.0, t_power=-0.5)
        assert f.evaluate(0.25, (4.0,)) == pytest.approx(2.0, abs=1e-15)

    def test_scaling_identity_is_exact(self):
        """Pure powers factor scalings out exactly: f(t, c x) = c^g f(t, x)."""
        rng = np.random.default_rng(0xD1E5)
        f = emden_fowler([-0.7, 0.3], coefficient=1.5, t_power=0.25)
        for _ in range(50):
            t = float(rng.uniform(0.05, 1.0))
            x = rng.uniform(0.1, 5.0, size=2)
            c = float(rng.uniform(0.05, 4.0))
            scaled = f.evaluate(t, c * x)
            factor = c**-0.7 * c**0.3
            assert scaled == pytest.approx(
                factor * f.evaluate(t, x), rel=1e-14, abs=0
            )

    def test_bracket_collapses_onto_the_exponents(self):
        f = emden_fowler([-0.5, -1.2])
        assert f.degree_low == (-0.5, -1.2)
        assert f.degree_high == (-0.5, -1.2)
        with pytest.raises(ShapeViolation):
            f.validate_shape()

    def test_positive_coefficient_required(self):
        with pytest.raises(ShapeViolation):
            emden_fowler([-0.5], coefficient=-1.0)

    @pytest.mark.parametrize(
        "exponents,coefficient,t_power",
        [
            ([math.inf], 1.0, 0.0),
            ([-0.5, math.nan], 1.0, 0.0),
            ([-0.5], math.inf, 0.0),
            ([-0.5], 1.0, -math.inf),
            ([-0.5], 1.0, math.nan),
        ],
    )
    def test_non_finite_parameters_are_shape_violations(
        self, exponents, coefficient, t_power
    ):
        with pytest.raises(ShapeViolation, match="must be finite"):
            emden_fowler(exponents, coefficient=coefficient, t_power=t_power)

    @pytest.mark.parametrize(
        "args,text",
        [
            (([-0.5, 2.0], 1.5, -0.25), "1.5*t^(-0.25)*x1^(-0.5)*x2^2"),
            (([1.0, 0.0, -3.0], 1.0, 1.0), "t*x1*x3^(-3)"),
            (([0.0], 2.0, 0.0), "2"),
            (([0.0], 1.0, 0.0), "1"),
            (([1e20], 1e-5, 1e15), "1e-05*t^1000000000000000*x1^1e+20"),
        ],
    )
    def test_tree_prints_and_evaluates_as_its_text(self, args, text):
        exponents, coefficient, t_power = args
        f = emden_fowler(exponents, coefficient=coefficient, t_power=t_power)
        assert str(f.body) == text
        # the tree is built directly, not parsed; it must equal the parse
        parsed = parse_expression(text)
        t = np.array([0.3, 0.7])
        x = np.array([[0.9, 0.6, 0.5], [0.4, 0.8, 0.7]])[:, : len(exponents)]
        for k in range(2):
            assert f.evaluate(t[k], x[k]) == parsed.evaluate(t[k], x[k])
        assert f.body.evaluate_array(t, x)[0].tobytes() == (
            parsed.evaluate_array(t, x)[0].tobytes()
        )

    def test_component_index_forwarded(self):
        f = emden_fowler([-0.5, -0.5], component_index=2)
        assert f.component_index == 2


class TestDirichletProblem:
    def test_assembly(self, unit65):
        p = DirichletProblem(unit65, (power_law(0.5),))
        assert p.n_components == 1
        assert p.boundary_left == (0.0,)
        assert np.allclose(p.evaluate_rhs(0.5, (4.0,)), [0.5])

    def test_arities_must_agree(self, unit65):
        two = Nonlinearity.from_expression("x1 + x2", arity=2)
        with pytest.raises(DimensionMismatch):
            DirichletProblem(unit65, (power_law(0.5), two))

    def test_every_component_needs_its_row(self, unit65):
        f1 = Nonlinearity.from_expression("x2", arity=2, component_index=1)
        dup = Nonlinearity.from_expression("x1", arity=2, component_index=1)
        with pytest.raises(DimensionMismatch):
            DirichletProblem(unit65, (f1, dup))

    def test_boundary_length_checked(self, unit65):
        with pytest.raises(DimensionMismatch):
            DirichletProblem(unit65, (power_law(0.5),), boundary_left=(0.0, 0.0))

    def test_positive_system_detection(self, unit65):
        assert DirichletProblem(unit65, (power_law(0.5),)).is_positive_system
        signed = DirichletProblem(
            unit65, (power_law(0.5),), boundary_left=(-1.0,)
        )
        assert not signed.is_positive_system


class TestRhsMatrix:
    def test_improper_head_is_zeroed_and_reported(self, unit65):
        f = Nonlinearity.from_expression(
            "t^(-0.5) * x1^(-0.5)",
            arity=1,
            degree_low=(-0.5,),
            degree_high=(0.5,),
        )
        p = DirichletProblem(unit65, (f,))
        states = np.full((unit65.last_index - 1, 1), 4.0)
        vals, skipped = rhs_matrix(p, states)
        assert skipped == (1,)
        assert vals[0, 0] == 0.0
        assert vals[1, 0] > 0.0

    def test_interior_domain_error_propagates(self, unit65):
        p = DirichletProblem(unit65, (power_law(0.5),))
        states = np.full((unit65.last_index - 1, 1), 4.0)
        states[7, 0] = 0.0
        with pytest.raises(DomainViolation, match=r"^row 7, component 1: "):
            rhs_matrix(p, states)

    def test_first_error_in_row_major_order(self, unit65):
        # component 2 fails at an earlier row than component 1, and component
        # 1 is a callable, so both paths take part in the ordering
        def f1(t, x):
            if x[0] < 0.0:
                raise ValueError("negative state")
            return 1.0

        zeros = (0.0, 0.0)
        p = DirichletProblem(
            unit65,
            (Nonlinearity(2, 1, f1, zeros, zeros),
             Nonlinearity.from_expression("x2^0.5", arity=2, component_index=2)),
            (0.0, 0.0),
            (0.0, 0.0),
        )
        states = np.ones((unit65.last_index - 1, 2))
        states[9, 0] = -1.0
        states[5, 1] = -1.0
        with pytest.raises(DomainViolation, match=r"^row 5, component 2: "):
            rhs_matrix(p, states)
        states[5, 1] = 1.0
        with pytest.raises(DomainViolation, match=r"^row 9, component 1: negative"):
            rhs_matrix(p, states)

    def test_expression_rows_skip_the_scalar_evaluator(self, unit65, monkeypatch):
        calls = []
        original = ExpressionTree.evaluate
        monkeypatch.setattr(
            ExpressionTree, "evaluate",
            lambda self, t, x: calls.append(t) or original(self, t, x),
        )
        f = Nonlinearity.from_expression(
            "t^(-0.5) * x1^(-0.5)", arity=1, degree_low=(-0.5,), degree_high=(0.5,)
        )
        vals, skipped = rhs_matrix(
            DirichletProblem(unit65, (f,)), np.full((unit65.last_index - 1, 1), 4.0)
        )
        assert calls == [0.0]  # only the improper first cell is re-evaluated
        assert skipped == (1,)
        t = unit65.points[1:-2]
        assert vals[1:, 0].tolist() == [f.evaluate(tk, (4.0,)) for tk in t.tolist()]

    def test_callable_called_once_per_entry_column_by_column(self, unit65):
        calls = []

        def recorder(i):
            def body(t, x):
                calls.append((i, t, x))
                return t + x[i]
            return body

        zeros = (0.0, 0.0)
        p = DirichletProblem(
            unit65,
            (Nonlinearity(2, 1, recorder(0), zeros, zeros),
             Nonlinearity(2, 2, recorder(1), zeros, zeros)),
            zeros,
            zeros,
        )
        rows = unit65.last_index - 1
        states = np.arange(2.0 * rows).reshape(rows, 2) + 1.0
        vals, skipped = rhs_matrix(p, states)
        assert skipped == ()
        points = unit65.points.tolist()
        assert [(i, t) for i, t, _ in calls] == [
            (i, points[k]) for i in (0, 1) for k in range(rows)
        ]
        for n, (i, t, x) in enumerate(calls):
            assert type(t) is float
            assert type(x) is tuple and all(type(v) is float for v in x)
            assert list(x) == states[n % rows].tolist()
        assert vals.tolist() == [
            [t + s1, t + s2] for t, (s1, s2) in zip(points, states.tolist())
        ]

    def test_singular_first_cell_costs_one_extra_call(self, unit65):
        calls = []

        def body(t, x):
            calls.append(t)
            return math.pow(t, -1)

        p = DirichletProblem(unit65, (Nonlinearity(1, 1, body, (0.0,), (0.0,)),))
        rows = unit65.last_index - 1
        vals, skipped = rhs_matrix(p, np.ones((rows, 1)))
        assert skipped == (1,)
        assert len(calls) <= rows + 1
        assert vals[0, 0] == 0.0
        assert vals[1:, 0].tolist() == [
            math.pow(t, -1) for t in unit65.points[1:rows].tolist()
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        npoints=st.integers(min_value=4, max_value=40),
        kinds=st.lists(st.sampled_from(["callable", "expression"]), min_size=1, max_size=2),
        runs=st.lists(
            st.lists(
                st.tuples(st.integers(0, 39), st.integers(1, 4), st.sampled_from(sorted(FAULTS))),
                max_size=3,
            ),
            min_size=2, max_size=2,
        ),
        negative=st.sets(st.integers(0, 39), max_size=2),
    )
    def test_matches_the_row_by_row_loop(self, npoints, kinds, runs, negative):
        """Byte-equal values, the same drops and the same first error as the
        scalar loop, with runs of faulty rows at random places (row 0 and the
        last row included, back to back too) and with expression guards
        firing on negative states and at t = 0.  Every callable entry is
        called once, and once more if it faults and the scalar loop reaches
        it."""
        ts = uniform(0.0, 1.0, npoints)
        rows = ts.last_index - 1
        n = len(kinds)
        points = ts.points.tolist()
        zeros = (0.0,) * n
        calls = Counter()
        f, where = [], {}
        for i, kind in enumerate(kinds):
            if kind == "callable":
                where[i] = {points[k]: FAULTS[name]
                            for start, length, name in runs[i]
                            for k in range(start, min(start + length, rows))}
                f.append(Nonlinearity(n, i + 1, faulty(where[i], calls, i), zeros, zeros))
            else:
                f.append(Nonlinearity.from_expression(
                    f"t^(-1) + x{i + 1}^0.5", arity=n, component_index=i + 1))
        p = DirichletProblem(ts, tuple(f), zeros, zeros)
        states = np.linspace(0.5, 2.0, rows * n).reshape(rows, n)
        for k in negative:
            if k < rows:
                states[k, -1] = -1.0
        got = outcome(rhs_matrix, p, states)
        got_calls = calls.copy()
        calls.clear()
        assert got == outcome(row_by_row, p, states)
        for i, faults in where.items():
            for t in points[:rows]:
                again = fails(faults.get(t, 0.0)) and calls[i, t] > 0
                assert got_calls[i, t] == 1 + again, (i, t)

    def test_shape_checked(self, unit65):
        p = DirichletProblem(unit65, (power_law(0.5),))
        with pytest.raises(DimensionMismatch):
            rhs_matrix(p, np.ones((3, 1)))
