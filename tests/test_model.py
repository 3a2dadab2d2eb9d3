"""Nonlinearity declarations, degree brackets, and problem assembly."""

import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdyn import (
    ConfigError,
    CriterionNotSatisfied,
    DimensionMismatch,
    DirichletProblem,
    DomainViolation,
    ExpressionTree,
    GridFunction,
    Nonlinearity,
    UnknownVariable,
    check_lipschitz_bound,
    check_monotone_in_state,
    check_scaling_exponents,
    parse_expression,
    residual_norm,
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
    "complex": 1j,  # float() raises TypeError
    "none": None,  # float() raises TypeError
    # accepted by float() without being floats: numpy's column conversion
    # must give float()'s bits
    "str": "2.5",
    "bytes": b"2.5",
    "decimal": Decimal("0.1"),
    "fraction": Fraction(1, 3),
    "int64": np.int64(3),
    "float32": np.float32(0.1),
    "0-d array": np.array(1.5),
    "int-rounded": 2**70 + 1,
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
        if t not in faults:
            return 1.0 + t * t + math.fsum(v * v for v in x)
        fault = faults[t]
        if isinstance(fault, Exception):
            raise type(fault)(*fault.args)
        return fault

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
            except DomainViolation as exc:
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

    def test_arity_must_be_positive(self):
        with pytest.raises(DimensionMismatch, match="arity must be at least 1"):
            Nonlinearity(arity=0, component_index=1, body=lambda t, x: 1.0,
                         degree_low=(), degree_high=())

    def test_evaluate_needs_one_state_per_component(self):
        f = Nonlinearity.from_expression("x1 + x2", arity=2)
        with pytest.raises(DimensionMismatch, match="expected 2 state values, got 1"):
            f.evaluate(0.5, (1.0,))

    def test_component_index_in_range(self):
        with pytest.raises(DimensionMismatch):
            Nonlinearity.from_expression("x1", arity=1, component_index=2)

    @pytest.mark.parametrize("key, kwargs", [
        ("arity", {"arity": 1.5}),
        ("arity", {"arity": True}),
        ("component_index", {"arity": 1, "component_index": 1.0}),
    ], ids=["arity-float", "arity-bool", "component_index-float"])
    def test_non_integer_arity_and_index_refused(self, key, kwargs):
        with pytest.raises(ConfigError) as info:
            Nonlinearity.from_expression("x1", **kwargs)
        assert info.value.key == key

    def test_numpy_integer_arity_and_index_accepted(self):
        f = Nonlinearity.from_expression("x1", arity=np.int64(1), component_index=np.int64(1))
        assert (f.arity, f.component_index) == (1, 1)
        assert type(f.arity) is type(f.component_index) is int

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
        assert f.evaluate(0.5, np.array([4.0, 16.0])) == 0.25
        assert f.evaluate(0.5, [4, 16]) == 0.25
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
        with pytest.raises(DomainViolation):
            g.evaluate(0.0, (1.0,))

    def test_complex_result_is_a_domain_violation(self, unit65):
        # a negative base under a fractional power gives a complex number
        f = Nonlinearity(1, 1, lambda t, x: x[0] ** -0.5, (-0.5,), (0.5,))
        with pytest.raises(DomainViolation, match=r"^nonlinearity evaluated to \(.*j\)$"):
            f.evaluate(0.5, (-1.0,))
        problem = DirichletProblem(unit65, (f,))
        u = GridFunction(unit65, np.linspace(-5.0, 5.0, unit65.npoints))
        assert residual_norm(problem, u) == math.inf
        # row 0 is the improper first cell, dropped; row 1 is the first raise
        with pytest.raises(DomainViolation, match=r"^row 1, component 1: nonlinearity "):
            rhs_matrix(problem, u.values[1 : unit65.last_index])

    def test_type_error_inside_the_body_propagates(self):
        f = Nonlinearity(1, 1, lambda t, x: x[0] + "1", (0.0,), (0.0,))
        with pytest.raises(TypeError):
            f.evaluate(0.5, (1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", ["degree_low", "degree_high"])
    def test_degrees_must_be_finite(self, row, bad):
        degrees = {"degree_low": (-0.5, -0.2), "degree_high": (0.5, -0.1)}
        degrees[row] = (degrees[row][0], bad)
        match = f"{row} for x2 must be finite, got {bad!r}"
        with pytest.raises(CriterionNotSatisfied, match=match):
            Nonlinearity(2, 1, lambda t, x: 1.0, **degrees)
        with pytest.raises(CriterionNotSatisfied, match=match):
            Nonlinearity.from_expression("x1^(-0.5) * x2^(-0.2)", arity=2, **degrees)

    def test_diagonal_degrees(self):
        f = power_law(0.5)
        assert f.diagonal_low == -0.5
        assert f.diagonal_high == 0.5


class TestShapeValidation:
    def test_widened_power_bracket_is_strict(self):
        power_law(0.5).validate_shape()

    def test_collapsed_bracket_fails(self):
        with pytest.raises(CriterionNotSatisfied):
            power_law(0.5, lo=-0.5, hi=-0.5).validate_shape()

    def test_diagonal_upper_edge_below_one(self):
        with pytest.raises(CriterionNotSatisfied):
            power_law(0.5, lo=-0.5, hi=1.0).validate_shape()

    def test_diagonal_lower_edge_negative(self):
        with pytest.raises(CriterionNotSatisfied):
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
        with pytest.raises(CriterionNotSatisfied):
            bad.validate_shape()


class TestDerivedDegrees:
    """Without declared degrees, ``from_expression`` derives the exact ones."""

    @pytest.mark.parametrize(
        "text,degrees",
        [
            ("x1^(-0.5)", (-0.5,)),
            ("t^(-0.5)*x1^(-0.3)", (-0.3,)),
            ("(x1*x2)^0.5/x2", (0.5, -0.5)),
            ("2*x1^-0.5 - t*x1^-0.5", (-0.5,)),
            ("-x1^2", (2.0,)),
            ("x1^(2^3)", (8.0,)),
            ("x2^(-0.5)", (0.0, -0.5)),
        ],
    )
    def test_exact_degrees(self, text, degrees):
        f = Nonlinearity.from_expression(text, arity=len(degrees))
        assert f.degree_low == f.degree_high == degrees
        assert all(math.copysign(1.0, g) == math.copysign(1.0, d)
                   for g, d in zip(f.degree_low, degrees))  # no -0.0

    @pytest.mark.parametrize(
        "text",
        ["1 + x1^0.5", "x1^t", "1 + (1 - x1)^0.5", "x1^x1", "x1^(t^0)",
         "x1^(1/0)", "x1^((-1)^0.5)", "x1^(1e200*1e200)", "(x1^1e200)^1e200"],
    )
    def test_zero_rows_where_the_rules_give_no_finite_degree(self, text):
        f = Nonlinearity.from_expression(text, arity=1)
        assert f.degree_low == f.degree_high == (0.0,)

    def test_declared_rows_are_untouched(self):
        f = Nonlinearity.from_expression("x1^(-0.5)", arity=1,
                                         degree_low=(-0.7,), degree_high=(0.2,))
        assert (f.degree_low, f.degree_high) == ((-0.7,), (0.2,))
        one = Nonlinearity.from_expression("x1^(-0.5)", arity=1, degree_low=(-0.7,))
        assert (one.degree_low, one.degree_high) == ((-0.7,), (0.0,))
        one = Nonlinearity.from_expression("x1^(-0.5)", arity=1, degree_high=(0.2,))
        assert (one.degree_low, one.degree_high) == ((0.0,), (0.2,))

    def test_point_value(self):
        f = Nonlinearity.from_expression("2*t^(-0.5)*x1^(-0.5)", arity=1)
        assert f.evaluate(0.25, (4.0,)) == pytest.approx(2.0, abs=1e-15)

    def test_scaling_identity_is_exact(self):
        """Pure powers factor scalings out exactly: f(t, c x) = c^g f(t, x)."""
        rng = np.random.default_rng(0xD1E5)
        f = Nonlinearity.from_expression("1.5*t^0.25*x1^(-0.7)*x2^0.3", arity=2)
        assert f.degree_low == f.degree_high == (-0.7, 0.3)
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
        f = Nonlinearity.from_expression("x1^(-0.5)*x2^(-1.2)", arity=2)
        assert f.degree_low == (-0.5, -1.2)
        assert f.degree_high == (-0.5, -1.2)
        with pytest.raises(CriterionNotSatisfied):
            f.validate_shape()

    @pytest.mark.parametrize(
        "exponents,text",
        [
            ((-0.5, 2.0), "1.5*t^(-0.25)*x1^(-0.5)*x2^2"),
            ((1.0, 0.0, -3.0), "t*x1*x3^(-3)"),
            ((0.0,), "2"),
            ((0.0,), "1"),
            ((1e20,), "1e-05*t^1000000000000000*x1^1e+20"),
        ],
    )
    def test_tree_prints_and_evaluates_as_its_text(self, exponents, text):
        # separable powers c*t^p*x1^g1*..., printed without unit factors:
        # their derived degrees are the exponents g
        f = Nonlinearity.from_expression(text, arity=len(exponents))
        assert str(f.body) == text
        assert f.degree_low == f.degree_high == exponents
        parsed = parse_expression(text)
        t = np.array([0.3, 0.7])
        x = np.array([[0.9, 0.6, 0.5], [0.4, 0.8, 0.7]])[:, : len(exponents)]
        for k in range(2):
            assert f.evaluate(t[k], x[k]) == parsed.evaluate(t[k], x[k])
        assert f.body.evaluate_array(t, x)[0].tobytes() == (
            parsed.evaluate_array(t, x)[0].tobytes()
        )


class TestDirichletProblem:
    def test_assembly(self, unit65):
        p = DirichletProblem(unit65, (power_law(0.5),))
        assert p.n_components == 1
        assert p.boundary_left == (0.0,)
        assert np.allclose([fi.evaluate(0.5, (4.0,)) for fi in p.f], [0.5])

    def test_needs_a_nonlinearity(self, unit65):
        with pytest.raises(DimensionMismatch, match="at least one nonlinearity"):
            DirichletProblem(unit65, ())

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["boundary_left", "boundary_right"])
    def test_boundary_values_must_be_finite(self, unit65, side, bad):
        f = Nonlinearity.from_expression("x1 + x2", arity=2)
        g = Nonlinearity.from_expression("x1", arity=2, component_index=2)
        match = f"{side} for component 2 must be finite, got {bad!r}"
        with pytest.raises(DomainViolation, match=match):
            DirichletProblem(unit65, (f, g), **{"boundary_left": (0.0, 0.0),
                                                "boundary_right": (0.0, 0.0),
                                                side: (0.0, bad)})

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

    @pytest.mark.parametrize("name", sorted(FAULTS))
    @pytest.mark.parametrize("where", ["rows 1-2", "every row"])
    def test_each_fault_as_the_row_by_row_loop(self, name, where):
        """One fault kind alone in a column, so a value numpy accepts is
        converted by numpy, and a column of one kind throughout too.  An
        entry is called once, and once more if it faults and the scalar loop
        reaches it."""
        ts = uniform(0.0, 1.0, 9)
        rows = ts.last_index - 1
        points = ts.points.tolist()
        at = range(1, 3) if where == "rows 1-2" else range(rows)
        calls = Counter()
        faults = {points[k]: FAULTS[name] for k in at}
        p = DirichletProblem(ts, (Nonlinearity(1, 1, faulty(faults, calls), (0.0,), (0.0,)),))
        states = np.linspace(0.5, 2.0, rows)[:, None]
        got = outcome(rhs_matrix, p, states)
        got_calls = calls.copy()
        calls.clear()
        assert got == outcome(row_by_row, p, states)
        assert got_calls == Counter({
            (0, t): 1 + (fails(faults.get(t, 0.0)) and calls[0, t] > 0)
            for t in points[:rows]})

    def test_shape_checked(self, unit65):
        p = DirichletProblem(unit65, (power_law(0.5),))
        with pytest.raises(DimensionMismatch):
            rhs_matrix(p, np.ones((3, 1)))
        with pytest.raises(DimensionMismatch):
            rhs_matrix(p, [[1.0]] * 3)

    @pytest.mark.parametrize("kind", ["callable", "expression"])
    def test_ragged_rows_are_a_dimension_mismatch(self, unit65, kind):
        f = (Nonlinearity(1, 1, lambda t, x: x[0], (1.0,), (1.0,))
             if kind == "callable" else power_law(0.5))
        p = DirichletProblem(unit65, (f,))
        rows = [[1.0]] * (unit65.last_index - 1)
        rows[1] = [1.0, 2.0]
        with pytest.raises(DimensionMismatch, match="states must have rows of equal length"):
            rhs_matrix(p, rows)

    def test_integer_states_reach_a_callable_as_floats(self, unit65):
        seen = set()

        def body(t, x):
            seen.add(tuple(map(type, x)))
            return t + x[0]

        p = DirichletProblem(unit65, (Nonlinearity(1, 1, body, (0.0,), (0.0,)),))
        rows = unit65.last_index - 1
        got = outcome(rhs_matrix, p, np.ones((rows, 1), dtype=int))
        assert seen == {(float,)}
        assert got == outcome(rhs_matrix, p, np.ones((rows, 1)))

    @pytest.mark.parametrize("kind", ["callable", "expression"])
    def test_a_list_of_rows_evaluates_like_the_array(self, unit65, kind):
        f = (Nonlinearity(1, 1, lambda t, x: math.pow(x[0], -0.5), (-0.5,), (0.5,))
             if kind == "callable" else power_law(0.5))
        p = DirichletProblem(unit65, (f,))
        states = np.linspace(0.5, 2.0, unit65.last_index - 1)[:, None]
        assert outcome(rhs_matrix, p, states.tolist()) == outcome(rhs_matrix, p, states)
