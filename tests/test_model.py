"""Nonlinearity declarations, degree brackets, and problem assembly."""

import numpy as np
import pytest

from tsdyn import (
    DimensionMismatch,
    DirichletProblem,
    DomainViolation,
    ExpressionTree,
    NonFiniteResult,
    Nonlinearity,
    ShapeViolation,
    UnknownVariable,
    emden_fowler,
    rhs_matrix,
    uniform,
)


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

    def test_shape_checked(self, unit65):
        p = DirichletProblem(unit65, (power_law(0.5),))
        with pytest.raises(DimensionMismatch):
            rhs_matrix(p, np.ones((3, 1)))
