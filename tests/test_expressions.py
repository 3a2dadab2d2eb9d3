"""Parser, evaluator, and canonical printer for right-hand-side formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdyn import (
    DirichletProblem,
    DomainViolation,
    ExpressionSyntaxError,
    ExpressionTree,
    NonFiniteResult,
    Nonlinearity,
    UnknownVariable,
    parse_expression,
    rhs_matrix,
    uniform,
)
from tsdyn.expressions import BinOp, Const, Neg, StateVar, TimeVar, _power


def ev(src, t=0.0, x=()):
    return parse_expression(src).evaluate(t, x)


class TestEvaluation:
    def test_singular_power_times_time(self):
        assert ev("x1^(-0.5) * t", t=0.5, x=(4.0,)) == pytest.approx(0.25, abs=0)

    def test_logistic_weight(self):
        assert ev("t*(1-t)", t=0.25) == pytest.approx(0.1875, abs=0)

    @pytest.mark.parametrize(
        "src,value",
        [
            ("2^-3", 0.125),          # exponent binds the unary minus
            ("-2^2", -4.0),           # ...but not the base
            ("2^3^2", 512.0),         # right associative
            ("-x1^2", -9.0),
            ("6/3/2", 1.0),           # left associative
            ("10-4-3", 3.0),
            ("2*3 - 4/8", 5.5),
            ("((t))", 0.75),
            ("1.5e2 + 1", 151.0),
            ("-(-t)", 0.75),
        ],
    )
    def test_precedence_table(self, src, value):
        assert ev(src, t=0.75, x=(3.0,)) == pytest.approx(value, abs=1e-15)

    def test_multiple_states(self):
        assert ev("x1 * x2 + x3", x=(2.0, 3.0, 4.0)) == 10.0

    def test_fractional_power_of_positive(self):
        assert ev("x1^0.5", x=(9.0,)) == pytest.approx(3.0)


class TestErrors:
    def test_truncated_input_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("x1 +")
        assert err.value.position == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1 2")

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    @pytest.mark.parametrize("src", ["y", "x0", "foo + 1", "tt"])
    def test_unknown_names(self, src):
        with pytest.raises(UnknownVariable):
            parse_expression(src)

    def test_state_index_beyond_arity(self):
        tree = parse_expression("x2")
        with pytest.raises(UnknownVariable):
            tree.evaluate(0.0, (1.0,))

    def test_division_by_zero(self):
        with pytest.raises(DomainViolation):
            ev("1/t", t=0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainViolation):
            ev("t^(-1)", t=0.0)

    @pytest.mark.parametrize("base", [0.0, -0.0])
    @pytest.mark.parametrize("expo", [-1.0, -2.0, -0.5, -1e300])
    def test_zero_base_guard_fires_before_the_power(self, base, expo):
        # Python's 0.0 ** -1.0 raises ZeroDivisionError; the guard answers first
        with pytest.raises(DomainViolation, match="zero base with negative exponent"):
            _power(base, expo)

    def test_negative_to_fractional_power(self):
        with pytest.raises(DomainViolation):
            ev("x1^0.5", x=(-4.0,))

    def test_overflow_reported_as_nonfinite(self):
        with pytest.raises(NonFiniteResult):
            ev("10^(10^3)")

    def test_infinite_exponent_is_not_an_integer(self):
        # 1e300*1e300 overflows to inf before the power sees it
        with pytest.raises(NonFiniteResult):
            ev("2^(1e300*1e300)")
        with pytest.raises(DomainViolation):
            ev("(-2)^(1e300*1e300)")
        assert ev("0.5^(1e300*1e300)") == 0.0

    def test_syntax_error_message_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("1 + * 2")
        assert "position 5" in str(err.value)


class TestMetadata:
    def test_max_state_index(self):
        assert parse_expression("t + 1").max_state_index() == 0
        assert parse_expression("x1 + x4*x2").max_state_index() == 4


ROUND_TRIP = [
    "1",
    "t",
    "x1",
    "-t",
    "1 + 2*t",
    "t*(1 - t)",
    "x1^(-0.5)*t",
    "(1 + t)*(1 - t)",
    "x1^2^3",
    "-(t + 1)",
    "t - (1 - t)",
    "2/(t + 1)/x1",
    "t^2*x1^0.5 + 3.5",
    "-x1^2",
    "(2^-3)^t",
    "x1*x2*x3 - x1/x2/x3",
    "1 - -t",
    "0.125 + 1e-3*t",
    "(t + x1)^(x2 - 1)",
    "-1*(t - 2)",
]


class TestPrinter:
    @pytest.mark.parametrize("src", ROUND_TRIP)
    def test_round_trip_is_stable_and_value_preserving(self, src):
        tree = parse_expression(src)
        printed = str(tree)
        again = parse_expression(printed)
        assert str(again) == printed
        t, x = 0.37, (1.7, 2.3, 0.9)
        assert again.evaluate(t, x) == pytest.approx(tree.evaluate(t, x), rel=0, abs=0)

    def test_integers_print_bare(self):
        assert str(parse_expression("2.0 * t")) == "2*t"

    def test_minimal_parens(self):
        assert str(parse_expression("(t*x1) + (1)")) == "t*x1 + 1"
        assert str(parse_expression("t*(x1 + 1)")) == "t*(x1 + 1)"

    def test_power_parens_kept_where_needed(self):
        assert str(parse_expression("(2^3)^2")) == "(2^3)^2"
        assert str(parse_expression("2^(3^2)")) == "2^3^2"

    def test_non_finite_constants_print(self):
        assert str(parse_expression("1e400")) == "inf"
        assert str(parse_expression("x1*1e400")) == "x1*inf"
        tree = ExpressionTree(BinOp("^", StateVar(1), Const(-math.inf)))
        assert str(tree) == "x1^(-inf)"
        assert str(ExpressionTree(BinOp("+", TimeVar(), Const(math.nan)))) == "t + nan"

    def test_negative_constant_base_keeps_parens(self):
        # a built tree may hold a negative constant; it must print as (-2)
        tree = ExpressionTree(BinOp("^", Const(-2.0), Const(2.0)))
        assert str(tree) == "(-2)^2"
        assert parse_expression(str(tree)).evaluate(0.0, ()) == 4.0


class TestArrayEvaluation:
    def test_values_and_flags(self):
        tree = parse_expression("x1^(-0.5) + 1/t")
        t = np.array([0.0, 0.5, 1.0, 2.0])
        x = np.array([[4.0], [4.0], [-1.0], [0.25]])
        vals, flagged = tree.evaluate_array(t, x)
        assert flagged.tolist() == [True, False, True, False]
        assert vals[1] == tree.evaluate(0.5, (4.0,))
        assert vals[3] == tree.evaluate(2.0, (0.25,))

    @pytest.mark.parametrize(
        "src,x",
        [
            ("1/x1", 0.0),               # division by zero
            ("x1^(-1)", 0.0),            # zero base, negative exponent
            ("x1^0.5", -4.0),            # negative base, fractional exponent
            ("(-1)^x1", 1e16),           # integral, but beyond the 1e15 guard
            ("x1^x1", 1e3),              # power overflow
            ("x1*x1*x1", 1e300),         # overflowed result
        ],
    )
    def test_every_scalar_error_is_flagged(self, src, x):
        tree = parse_expression(src)
        with pytest.raises((DomainViolation, NonFiniteResult)):
            tree.evaluate(0.0, (x,))
        vals, flagged = tree.evaluate_array(np.zeros(2), np.array([[x], [2.0]]))
        assert flagged.tolist() == [True, False]
        assert vals[1] == tree.evaluate(0.0, (2.0,))

    @pytest.mark.parametrize("src", ["x1^(-0.5)", "x1^0.5 * x1^(-0.3)", "x1^x2", "(-x1)^3"])
    def test_power_matches_scalar_bit_for_bit(self, src, rng):
        tree = parse_expression(src)
        x = np.column_stack([rng.uniform(1e-3, 10.0, 4000), rng.uniform(-3.0, 3.0, 4000)])
        vals, flagged = tree.evaluate_array(np.zeros(len(x)), x)
        assert not flagged.any()
        assert vals.tolist() == [tree.evaluate(0.0, row) for row in x.tolist()]

    def test_absorbed_overflow_is_flagged(self):
        # the scalar path turns the overflowed x1*x1 into 1/inf = 0
        tree = parse_expression("1/(x1*x1)")
        vals, flagged = tree.evaluate_array(np.zeros(2), np.array([[1e200], [2.0]]))
        assert flagged.tolist() == [True, False]
        assert tree.evaluate(0.0, (1e200,)) == 0.0
        assert vals[1] == 0.25

    def test_constant_tree_broadcasts(self):
        vals, flagged = parse_expression("1/0").evaluate_array(np.zeros(3), np.zeros((3, 1)))
        assert vals.shape == (3,) and flagged.all()
        vals, flagged = parse_expression("2^3").evaluate_array(np.zeros(3), np.zeros((3, 1)))
        assert vals.tolist() == [8.0] * 3 and not flagged.any()

    def test_state_index_beyond_columns(self):
        with pytest.raises(UnknownVariable):
            parse_expression("x2").evaluate_array(np.zeros(2), np.zeros((2, 1)))

    @pytest.mark.parametrize(
        "expo",
        [0.0, -0.0, 2.0, -2.0, 0.5, -0.5, 1e15, -1e15, math.inf, -math.inf, math.nan],
    )
    def test_constant_exponent_guards_match_the_row_exponent(self, expo):
        """``x1^c`` decides its guards on the scalar ``c`` once; ``x1^x2``
        with ``x2 = c`` on every row takes the per-row path.  Both give the
        same bytes and flags, and every unflagged row is :meth:`evaluate`'s
        value while every row it rejects is flagged."""
        bases = [0.0, -0.0, 1.0, 2.5, -1.0, -2.5, 1e-300, math.inf, -math.inf, math.nan]
        t = np.zeros(len(bases))
        x = np.column_stack([bases, np.full(len(bases), expo)])
        const = ExpressionTree(BinOp("^", StateVar(1), Const(expo)))
        row = ExpressionTree(BinOp("^", StateVar(1), StateVar(2)))
        vals, flagged = const.evaluate_array(t, x)
        row_vals, row_flagged = row.evaluate_array(t, x)
        assert vals.tobytes() == row_vals.tobytes()
        assert flagged.tolist() == row_flagged.tolist()
        for k, base in enumerate(bases):
            try:
                value = const.evaluate(0.0, (base,))
            except (DomainViolation, NonFiniteResult):
                assert flagged[k]
                continue
            if not flagged[k]:
                assert np.float64(value).tobytes() == vals[k].tobytes()

    def test_negated_constant_exponent_takes_the_scalar_guards(self):
        # "x1^(-0.5)" parses to a negation of a constant, which is row-free too
        tree = parse_expression("x1^(-0.5)")
        assert isinstance(tree.root.right, Neg)
        vals, flagged = tree.evaluate_array(
            np.zeros(4), np.array([[4.0], [0.0], [-1.0], [math.inf]])
        )
        assert flagged.tolist() == [False, True, True, True]
        assert vals[0] == 0.5

    def test_values_are_read_only(self):
        x = np.array([[1.0], [2.0]])
        for src in ("x1", "t", "2", "x1^2"):
            vals, _ = parse_expression(src).evaluate_array(np.zeros(2), x)
            assert not vals.flags.writeable
        assert x.flags.writeable


# -- property tests over random trees ------------------------------------------

_SPECIAL = [0.0, 1.0, -1.0, 2.0, -3.5, 0.5, 1e-300, 1e300, -1e300]

#: Constants of the random trees.  No -0.0: the printer drops its sign.
CONSTANTS = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(-1e3, 1e3).map(lambda v: v + 0.0)
)

#: Trees over all five binary operators and negation, in ``t``, ``x1``, ``x2``.
TREES = st.recursive(
    st.one_of(
        CONSTANTS.map(Const),
        st.just(TimeVar()),
        st.sampled_from([StateVar(1), StateVar(2)]),
    ),
    lambda kids: st.one_of(
        kids.map(Neg), st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids)
    ),
    max_leaves=12,
).map(ExpressionTree)

#: States with zeros of both signs, negatives and values whose products overflow.
STATES = st.one_of(st.sampled_from(_SPECIAL + [-0.0]), st.floats(-1e3, 1e3))

SCALE = uniform(0.0, 1.0, 9)  # 7 equation rows; t = 0 on the improper row 0


def row_by_row(problem, states):
    """``rhs_matrix`` as a loop of scalar evaluations, row by row.

    Returns ``(values, skipped)``, or ``(exception, (row, component))`` for the
    first error outside the dropped first row.
    """
    rows, n = states.shape
    out = np.empty((rows, n))
    skipped = []
    for k in range(rows):
        t = float(SCALE.points[k])
        for i in range(n):
            try:
                out[k, i] = problem.f[i].evaluate(t, states[k])
            except (DomainViolation, NonFiniteResult) as exc:
                if k > 0:
                    return exc, (k, i + 1)
                out[k, i] = 0.0
                skipped.append(i + 1)
    return out, tuple(skipped)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(f1=TREES, f2=TREES, cells=st.lists(STATES, min_size=14, max_size=14))
    def test_rhs_matrix_matches_row_by_row_loop(self, f1, f2, cells):
        """Whole-array evaluation equals the scalar loop bit for bit.

        The ulp bound is 0, for trees with ``^`` too: ``+ - * /`` and negation
        are correctly rounded in numpy as in Python, and ``^`` goes through
        ``np.float_power``, which hands each element to the C library's
        ``pow`` just as Python's float ``**`` does once the guards have
        passed.  By induction over the tree, every node of an unflagged row
        sees the same operands on both paths; flagged rows are evaluated by
        the scalar path itself.  (``np.power`` would need about 1 ulp per
        power: its SIMD loop differs from ``pow`` on about 5 % of inputs.)
        """
        problem = DirichletProblem(
            SCALE,
            tuple(Nonlinearity(2, i, f, (0.0, 0.0), (0.0, 0.0))
                  for i, f in ((1, f1), (2, f2))),
            (0.0, 0.0),
            (0.0, 0.0),
        )
        states = np.array(cells).reshape(7, 2)
        expected, where = row_by_row(problem, states)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                rhs_matrix(problem, states)
            assert type(err.value) is type(expected)
            assert str(err.value) == f"row {where[0]}, component {where[1]}: {expected}"
            return
        vals, skipped = rhs_matrix(problem, states)
        assert skipped == where
        assert vals.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(tree=TREES, t=st.floats(-2.0, 2.0), x=st.tuples(STATES, STATES))
    def test_print_parse_round_trip(self, tree, t, x):
        printed = str(tree)
        again = parse_expression(printed)
        assert str(again) == printed
        assert _outcome(again, t, x) == _outcome(tree, t, x)


def _outcome(tree, t, x):
    try:
        return tree.evaluate(t, x).hex()
    except (DomainViolation, NonFiniteResult) as exc:
        return type(exc)
