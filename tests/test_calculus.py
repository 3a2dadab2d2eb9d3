"""Grid functions and the discrete delta calculus built on them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdyn import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    GridFunction,
    Nonlinearity,
    SupportMismatch,
    criterion_sufficient,
    delta_derivative,
    delta_integral,
    delta_second,
    from_points,
    quantum,
    sigma_shift,
    uniform,
    uniform_family,
)
from conftest import SEED, random_scale


class TestGridFunction:
    def test_support_defaults_to_the_full_realization(self, unit5):
        u = GridFunction(unit5, np.arange(5.0))
        assert u.support == (0, 4)
        assert u.n_components == 1
        assert u.value_at(3) == pytest.approx([3.0])

    def test_value_outside_support_is_an_error(self, unit5):
        u = GridFunction(unit5, [1.0, 2.0], lo=1)
        with pytest.raises(SupportMismatch):
            u.value_at(0)

    def test_rows_fix_the_top_of_the_support(self, unit5):
        u = GridFunction(unit5, np.zeros(3), lo=1)
        assert (u.lo, u.hi) == (1, 3)
        with pytest.raises(TypeError):
            GridFunction(unit5, np.zeros(3), 0, 2)

    def test_support_must_stay_on_the_scale(self, unit5):
        for values, lo in ((np.zeros(7), 0), (np.zeros(3), 3), (np.zeros(0), 0)):
            with pytest.raises(SupportMismatch):
                GridFunction(unit5, values, lo)

    def test_values_beyond_two_dimensions_rejected(self, unit5):
        with pytest.raises(DimensionMismatch, match="a vector or a 2-d array"):
            GridFunction(unit5, np.zeros((5, 1, 1)))

    def test_ragged_rows_rejected(self, unit5):
        with pytest.raises(DimensionMismatch, match="values must have rows of equal length"):
            GridFunction(unit5, [[1.0], [1.0, 2.0], [1.0], [1.0], [1.0]])

    def test_values_that_are_no_numbers_still_raise_value_error(self, unit5):
        with pytest.raises(ValueError):
            GridFunction(unit5, ["a"] * 5)

    def test_components_are_numbered_from_one(self, unit5):
        u = GridFunction.constant(unit5, [1.0, 2.0])
        assert u.component(2).tolist() == [2.0] * 5
        for i in (0, 3):
            with pytest.raises(DimensionMismatch, match=f"component {i} of 2"):
                u.component(i)

    def test_nan_rejected(self, unit5):
        with pytest.raises(DomainViolation):
            GridFunction(unit5, [0.0, np.nan, 0.0, 0.0, 0.0])

    def test_values_are_frozen(self, unit5):
        u = GridFunction.constant(unit5, 1.0)
        with pytest.raises(ValueError):
            u.values[0, 0] = 2.0

    def test_from_callable_and_times(self, unit5):
        u = GridFunction.from_callable(unit5, lambda t: t * t)
        assert np.allclose(u.component(1), unit5.points**2)
        assert np.array_equal(u.times, unit5.points)

    def test_from_callable_ragged_rows_rejected(self, unit5):
        # the constructor's refusal, not numpy's ValueError from stacking
        with pytest.raises(DimensionMismatch, match="the callable's values must have rows of equal length"):
            GridFunction.from_callable(unit5, lambda t: [1.0] if t < 0.5 else [1.0, 2.0])

    def test_from_callable_vector_rows(self, unit5):
        u = GridFunction.from_callable(unit5, lambda t: (t, 2.0 * t), lo=1, hi=3)
        assert u.support == (1, 3)
        assert u.values.tolist() == [[t, 2.0 * t] for t in unit5.points[1:4]]

    def test_constant_broadcast(self, unit5):
        u = GridFunction.constant(unit5, 2.5, n=3)
        assert u.n_components == 3
        assert np.all(u.values == 2.5)

    def test_restrict(self, unit5):
        u = GridFunction(unit5, np.arange(5.0))
        v = u.restrict(1, 3)
        assert v.support == (1, 3)
        assert np.allclose(v.component(1), [1.0, 2.0, 3.0])

    #: Each index or count argument of a grid function given a non-integer.
    NON_INTEGER = {
        "init-lo": (lambda ts, u: GridFunction(ts, [1.0, 2.0], lo=1.7), "lo"),
        "init-lo-bool": (lambda ts, u: GridFunction(ts, [1.0, 2.0], lo=True), "lo"),
        "value_at-k": (lambda ts, u: u.value_at(1.5), "k"),
        "component-i": (lambda ts, u: u.component(1.0), "i"),
        "restrict-lo": (lambda ts, u: u.restrict(1.2, 2), "lo"),
        "restrict-hi": (lambda ts, u: u.restrict(1, 2.5), "hi"),
        "from_callable-lo": (lambda ts, u: GridFunction.from_callable(ts, float, 0.0, 2), "lo"),
        "from_callable-hi": (lambda ts, u: GridFunction.from_callable(ts, float, 0, 2.5), "hi"),
        "constant-n": (lambda ts, u: GridFunction.constant(ts, 1.0, n=2.5), "n"),
    }

    @pytest.mark.parametrize("case", sorted(NON_INTEGER))
    def test_non_integer_arguments_refused(self, unit5, case):
        # refused where they enter, not truncated (lo=1.7 gave support (1, 2),
        # hi=2.5 three rows) or left to numpy's IndexError and TypeError
        call, key = self.NON_INTEGER[case]
        with pytest.raises(ConfigError) as info:
            call(unit5, GridFunction(unit5, np.arange(5.0)))
        assert info.value.key == key

    def test_numpy_integer_arguments_accepted(self, unit5):
        i64 = np.int64
        u = GridFunction(unit5, np.arange(5.0), lo=i64(0))
        assert GridFunction(unit5, [1.0, 2.0], lo=i64(1)).support == (1, 2)
        assert u.value_at(i64(3)).tolist() == [3.0]
        assert u.component(np.int32(1)).tolist() == list(np.arange(5.0))
        assert u.restrict(i64(1), i64(3)).support == (1, 3)
        assert GridFunction.from_callable(unit5, float, i64(1), i64(3)).support == (1, 3)
        assert GridFunction.constant(unit5, 1.0, n=i64(2)).n_components == 2
        with pytest.raises(SupportMismatch):
            u.restrict(2, 9)


class TestArithmetic:
    def test_intersection_support(self, unit5):
        u = GridFunction(unit5, [1.0, 2.0, 3.0], lo=0)
        v = GridFunction(unit5, [10.0, 20.0, 30.0], lo=1)
        w = u + v
        assert w.support == (1, 2)
        assert np.allclose(w.component(1), [12.0, 23.0])

    def test_disjoint_supports_rejected(self, unit5):
        u = GridFunction(unit5, [1.0], lo=0)
        v = GridFunction(unit5, [1.0], lo=3)
        with pytest.raises(SupportMismatch):
            u * v

    def test_cross_scale_rejected(self, unit5):
        u = GridFunction.constant(unit5, 1.0)
        v = GridFunction.constant(uniform(0.0, 1.0, 6), 1.0)
        with pytest.raises(SupportMismatch):
            u + v

    def test_scalar_ops(self, unit5):
        u = GridFunction(unit5, np.arange(5.0))
        assert np.allclose((2.0 * u - 1.0).component(1), 2 * np.arange(5.0) - 1)
        assert np.allclose((-u).component(1), -np.arange(5.0))
        assert (1.0 + u).max_abs() == 5.0
        assert (1.0 - u).component(1).tolist() == [1.0, 0.0, -1.0, -2.0, -3.0]
        assert (u / 2.0).component(1).tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_grid_quotient(self, unit5):
        u = GridFunction(unit5, [2.0, 6.0, 12.0], lo=1)
        v = GridFunction(unit5, [1.0, 2.0, 3.0, 4.0], lo=1)
        w = u / v
        assert w.support == (1, 3)
        assert w.component(1).tolist() == [2.0, 3.0, 4.0]

    def test_component_counts_must_agree(self, unit5):
        u = GridFunction.constant(unit5, 1.0)
        v = GridFunction.constant(unit5, [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="1 vs 2 components"):
            u + v


class TestDeltaDerivative:
    def test_square_on_quarter_grid(self, unit5):
        """u = t^2 has u^Delta(t) = t + sigma(t); at 0.25 that is 0.75."""
        u = GridFunction.from_callable(unit5, lambda t: t * t)
        du = delta_derivative(u)
        assert du.value_at(1)[0] == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("kind", ["uniform", "quantum", "explicit"])
    def test_square_closed_form_everywhere(self, rng, kind):
        ts = random_scale(rng, kind)
        du = delta_derivative(GridFunction.from_callable(ts, lambda t: t * t))
        expect = ts.points[:-1] + ts.points[1:]
        assert np.allclose(du.component(1), expect, rtol=1e-13, atol=1e-13)

    def test_support_shrinks(self, unit5):
        u = GridFunction.constant(unit5, 3.0)
        assert delta_derivative(u).support == (0, 3)
        assert delta_second(u).support == (0, 2)

    def test_needs_two_points(self, unit5):
        u = GridFunction(unit5, [1.0], lo=2)
        for op in (delta_derivative, sigma_shift):
            with pytest.raises(SupportMismatch):
                op(u)

    def test_second_derivative_needs_three_points(self, unit5):
        with pytest.raises(SupportMismatch):
            delta_second(GridFunction(unit5, [1.0, 2.0], lo=1))

    def test_constant_has_zero_derivative(self, q23):
        du = delta_derivative(GridFunction.constant(q23, 4.2))
        assert du.max_abs() == 0.0

    def test_second_difference_of_affine_vanishes(self, rng):
        ts = random_scale(rng, "explicit")
        u = GridFunction.from_callable(ts, lambda t: 3.0 * t - 1.0)
        assert delta_second(u).max_abs() < 1e-12


def test_sigma_shift(unit5):
    u = GridFunction(unit5, np.arange(5.0))
    su = sigma_shift(u)
    assert su.support == (0, 3)
    assert np.allclose(su.component(1), [1.0, 2.0, 3.0, 4.0])


class TestDeltaIntegral:
    def test_quantum_measure_of_unit_interval(self):
        # the cell widths telescope regardless of depth
        for depth in (3, 7, 20):
            ts = quantum(2.0, depth)
            one = GridFunction.constant(ts, 1.0)
            total = delta_integral(one, 0, ts.last_index)
            assert total[0] == pytest.approx(1.0, abs=1e-15)

    def test_geometric_series_form(self):
        """Dropping the head cell leaves sum (q-1) q^-k = 1 - q^-K."""
        q, depth = 2.0, 10
        ts = quantum(q, depth)
        one = GridFunction.constant(ts, 1.0)
        tail = delta_integral(one, 1, ts.last_index)
        series = sum((q - 1.0) * q**-k for k in range(1, depth + 1))
        assert tail[0] == pytest.approx(series, abs=1e-15)
        assert series == pytest.approx(1.0 - q**-depth, abs=1e-15)

    def test_empty_range_is_zero(self, unit5):
        u = GridFunction.constant(unit5, 5.0)
        assert delta_integral(u, 2, 2)[0] == 0.0

    def test_range_validation(self, unit5):
        u = GridFunction.constant(unit5, 1.0)
        with pytest.raises(SupportMismatch):
            delta_integral(u, 3, 2)
        with pytest.raises(SupportMismatch):
            delta_integral(u, 0, 6)

    @pytest.mark.parametrize("lo, hi, key", [(0.5, 3, "lo"), (0, 3.7, "hi"), (0.5, 3.7, "lo")])
    def test_range_ends_must_be_integers(self, unit5, lo, hi, key):
        # refused, not truncated: (0.5, 3.7) would sum over [0, 3)
        u = GridFunction.constant(unit5, 1.0)
        with pytest.raises(ConfigError) as info:
            delta_integral(u, lo, hi)
        assert info.value.key == key

    def test_numpy_integer_range_accepted(self, unit5):
        u = GridFunction.constant(unit5, 1.0)
        assert delta_integral(u, np.int64(0), np.int32(3)).tolist() == [0.75]

    def test_multi_component(self, unit5):
        u = GridFunction.constant(unit5, [1.0, 2.0])
        total = delta_integral(u, 0, unit5.last_index)
        assert np.allclose(total, [1.0, 2.0])

    def test_equals_the_criteria_quadrature_bit_for_bit(self):
        # one Cauchy sum: the plain family quadrature of a time-only right
        # hand side integrates f(t_k) over the equation points [0, N - 1)
        def g(t):
            return math.exp(-t) / (1.0 + t * t)

        report = criterion_sufficient([Nonlinearity(1, 1, lambda t, x: g(t), (0.0,), (0.0,))])
        ts = uniform_family(0.0, 1.0)[-1]
        total = delta_integral(GridFunction.from_callable(ts, g), 0, ts.last_index - 1)
        assert total[0].hex() == report.trails[0][-1].hex()


class TestCalculusIdentities:
    """Structure shared with the acceptance gate, at unit-test scale."""

    @pytest.mark.parametrize("kind", ["uniform", "quantum", "explicit"])
    def test_fundamental_theorem(self, kind):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(10):
            ts = random_scale(rng, kind)
            u = GridFunction(ts, rng.standard_normal(ts.npoints))
            du = delta_derivative(u)
            for lo, hi in ((0, ts.last_index), (1, ts.last_index - 1)):
                got = delta_integral(du, lo, hi)[0]
                want = u.value_at(hi)[0] - u.value_at(lo)[0]
                assert got == pytest.approx(want, abs=1e-12 * max(1.0, u.max_abs()))

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=200
        ),
        left=st.floats(min_value=-5.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_telescoping_on_random_explicit_meshes(self, gaps, left, seed):
        """The delta integral of u^D over [lo, hi) is u_hi - u_lo up to roundoff.

        mu_k cancels exactly, so each term carries three roundings of its
        difference and the sum adds one per term (Higham's gamma_m bound).
        """
        ts = from_points(left + np.concatenate([[0.0], np.cumsum(gaps)]))
        rng = np.random.default_rng(seed)
        u = GridFunction(ts, rng.uniform(-1.0, 1.0, (ts.npoints, 2)))
        lo, hi = sorted(int(k) for k in rng.integers(0, ts.npoints, size=2))
        got = delta_integral(delta_derivative(u), lo, hi)
        want = u.value_at(hi) - u.value_at(lo)
        variation = np.sum(np.abs(np.diff(u.values[lo : hi + 1], axis=0)), axis=0)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want) <= (hi - lo + 4) * eps * variation)

    @pytest.mark.parametrize("kind", ["uniform", "quantum", "explicit"])
    def test_product_rule(self, kind):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(10):
            ts = random_scale(rng, kind)
            u = GridFunction(ts, rng.standard_normal(ts.npoints))
            v = GridFunction(ts, rng.standard_normal(ts.npoints))
            lhs = delta_derivative(u * v)
            rhs = delta_derivative(u) * sigma_shift(v) + u * delta_derivative(v)
            # relative to the quotient scale, which thin cells inflate
            tol = 1e-12 * max(1.0, lhs.max_abs())
            assert np.allclose(lhs.values, rhs.values, rtol=0, atol=tol)
