"""Construction and jump-operator behaviour of finite scale realizations."""

import math
import warnings

import numpy as np
import pytest

from tsdyn import (
    ConfigError,
    SupportMismatch,
    from_points,
    quantum,
    quantum_family,
    same_realization,
    uniform,
    uniform_family,
)


class TestFromPoints:
    def test_boundary_identification(self):
        ts = from_points([0.0, 0.25, 0.5, 0.75, 1.0])
        assert ts.a == 0.0
        assert ts.b == 0.5
        assert ts.sigma_b == 0.75
        assert ts.sigma2_b == 1.0

    def test_non_monotone_reports_first_bad_index(self):
        with pytest.raises(ConfigError, match="not strictly increasing at index 2 ") as err:
            from_points([0.0, 0.5, 0.25, 1.0])
        assert err.value.key == "points"

    def test_duplicate_point_rejected(self):
        with pytest.raises(ConfigError):
            from_points([0.0, 0.25, 0.25, 1.0])

    def test_too_few_points(self):
        with pytest.raises(ConfigError) as err:
            from_points([0.0, 0.5, 1.0])
        assert err.value.key == "points"

    def test_points_must_be_flat(self):
        with pytest.raises(ConfigError, match="flat sequence"):
            from_points(np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points_must_be_finite(self, bad):
        with pytest.raises(ConfigError, match="must be finite at index 2 ") as err:
            from_points([0.0, 0.25, bad, 1.0])
        assert err.value.reason == "points must be finite at index 2"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points, span", [
        ([-1e308, 1e308, 1.1e308, 1.2e308], "[-1e+308, 1.2e+308]"),  # a gap overflows
        ([0.0, 1e154, 2e154, 3e154], "[0.0, 3e+154]"),  # only the square does
    ], ids=["gap", "square"])
    def test_rejects_a_span_whose_square_overflows(self, points, span):
        # refused before np.diff warns "overflow encountered in subtract" and
        # before the kernel's weights overflow in their products
        with pytest.raises(ConfigError) as err:
            from_points(points)
        assert err.value.key == "points"
        assert err.value.reason == f"span of {span} is too wide: its square overflows"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points, span", [
        ([0.0, 1e-170, 2e-170, 3e-170], "[0.0, 3e-170]"),  # the square is 0
        ([0.0, 1e-160, 2e-160, 3e-160], "[0.0, 3e-160]"),  # the square is subnormal
    ], ids=["zero", "subnormal"])
    def test_rejects_a_span_whose_square_underflows(self, points, span):
        # the kernel's lower weight would divide 0 by 0, and the bounds of a
        # nonzero right hand side would collapse to the zero function
        with pytest.raises(ConfigError) as err:
            from_points(points)
        assert err.value.key == "points"
        assert err.value.reason == f"span of {span} is too narrow: its square underflows"

    @pytest.mark.filterwarnings("error")
    def test_non_monotone_points_are_compared_not_subtracted(self):
        # 1e308 - (-1e308) overflows, but the order check needs no difference
        with pytest.raises(ConfigError, match="not strictly increasing at index 2 "):
            from_points([0.0, 1e308, -1e308, 1.0])

    def test_four_points_is_minimal(self):
        ts = from_points([0.0, 1.0, 2.0, 4.0])
        assert ts.npoints == 4
        assert ts.b == 1.0 and ts.sigma2_b == 4.0


class TestJumpOperators:
    def test_sigma_and_graininess_on_uniform(self):
        ts = uniform(0.0, 1.0, 5)
        assert ts.points[ts.sigma(1)] == 0.5
        assert ts.mu[1] == 0.25

    def test_sigma_clamps_at_the_right_end(self, unit5):
        last = unit5.last_index
        assert unit5.sigma(last) == last

    def test_rho_clamps_at_the_left_end(self, unit5):
        assert unit5.rho(0) == 0
        assert unit5.rho(3) == 2

    def test_index_bounds_checked(self, unit5):
        with pytest.raises(SupportMismatch):
            unit5.sigma(99)
        with pytest.raises(SupportMismatch):
            unit5.rho(-1)

    @pytest.mark.parametrize("k", [1.7, 2.0, "2", True, None])
    def test_index_must_be_an_integer(self, unit5, k):
        # refused, not truncated: graininess(1.7) would read mu_1
        for op in (unit5.sigma, unit5.rho, unit5.graininess):
            with pytest.raises(ConfigError) as info:
                op(k)
            assert info.value.key == "k"

    def test_numpy_integer_index_accepted(self, unit5):
        assert unit5.graininess(np.int64(1)) == unit5.graininess(1) == 0.25
        assert unit5.sigma(np.int32(3)) == 4 and unit5.rho(np.uint8(3)) == 2

    def test_mu_matches_point_differences(self, rng):
        pts = np.cumsum(rng.uniform(0.1, 1.0, size=12))
        ts = from_points(pts)
        assert np.array_equal(ts.mu, np.diff(pts))

    def test_points_are_a_private_copy(self):
        base = np.linspace(0.0, 1.0, 9)
        ts = from_points(base[::2])
        assert base.flags.writeable
        base[2] = 0.3
        assert ts.points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert ts.mu.tolist() == [0.25] * 4

    def test_mu_is_kept_read_only(self, rng):
        ts = from_points(np.cumsum(rng.uniform(0.1, 1.0, size=12)))
        assert ts.mu is ts.mu
        assert ts.mu.tobytes() == np.diff(ts.points).tobytes()
        with pytest.raises(ValueError):
            ts.mu[0] = 1.0
        assert ts.mu.tobytes() == np.diff(ts.points).tobytes()

    def test_point_list_is_made_once(self, rng):
        # callable right-hand sides read the points as Python floats
        ts = from_points(np.cumsum(rng.uniform(0.1, 1.0, size=12)))
        assert ts._point_list is ts._point_list
        assert ts._point_list == ts.points.tolist()
        assert all(type(t) is float for t in ts._point_list)

    def test_index_of(self, unit5):
        assert unit5.index_of(0.75) == 3
        with pytest.raises(SupportMismatch):
            unit5.index_of(0.3)


class TestUniform:
    def test_spacing_and_span(self):
        ts = uniform(0.0, 1.0, 5)
        assert np.allclose(ts.points, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert ts.span == 1.0
        assert ts.graininess(1) == 0.25
        assert ts.graininess(ts.last_index) == 0.0

    def test_generic_interval(self):
        ts = uniform(-1.0, 3.0, 9)
        assert ts.a == -1.0 and ts.sigma2_b == 3.0
        assert ts.npoints == 9

    def test_rejects_small_counts(self):
        with pytest.raises(ConfigError, match="needs n >= 4, got 3 ") as info:
            uniform(0.0, 1.0, 3)
        assert info.value.key == "n"

    @pytest.mark.parametrize("n", [64.9, 65.0, "65", True, None])
    def test_count_must_be_an_integer(self, n):
        with pytest.raises(ConfigError) as info:
            uniform(0.0, 1.0, n)
        assert info.value.key == "n"

    def test_numpy_integer_count_accepted(self):
        ts = uniform(0.0, 1.0, np.int64(65))
        assert ts.npoints == 65
        assert np.array_equal(ts.points, uniform(0.0, 1.0, 65).points)

    def test_rejects_empty_interval(self):
        for a in (1.0, 2.0):
            with pytest.raises(ConfigError) as info:
                uniform(a, 1.0, 5)
            assert info.value.key == "end"
            assert info.value.reason == f"need end > a, got [{a}, 1.0]"

    @pytest.mark.parametrize("a, end, key", [
        (0.0, math.inf, "end"), (0.0, -math.inf, "end"), (0.0, math.nan, "end"),
        (-math.inf, 1.0, "a"), (math.nan, 1.0, "a"),
    ])
    def test_rejects_non_finite_endpoints(self, a, end, key):
        # refused before any point is built, so linspace never warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                uniform(a, end, 5)
        assert info.value.key == key
        assert info.value.reason == f"must be finite, got {a if key == 'a' else end!r}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, end", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))],
                             ids=["float", "numpy-float64"])
    def test_rejects_an_overflowing_span(self, a, end):
        # both ends are finite but end - a is not: refused before linspace
        # warns "overflow encountered in subtract"
        with pytest.raises(ConfigError, match="overflows") as info:
            uniform(a, end, 9)
        assert info.value.key == "end"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, end", [(0.0, 1e200), (-8e307, 8e307)])
    def test_rejects_a_span_whose_square_overflows(self, a, end):
        # end - a is finite, but the kernel's weights divide by its square
        with pytest.raises(ConfigError, match="its square overflows") as info:
            uniform(a, end, 9)
        assert info.value.key == "points"


class TestQuantum:
    def test_depth_three_points(self):
        ts = quantum(2.0, 3)
        assert np.allclose(ts.points, [0.0, 0.125, 0.25, 0.5, 1.0])
        assert ts.q == 2.0

    def test_head_cell_is_the_gap_to_zero(self):
        ts = quantum(3.0, 4)
        assert ts.points[0] == 0.0
        assert ts.points[1] == pytest.approx(3.0**-4, rel=0, abs=0)

    def test_rejects_base_at_or_below_one(self):
        for q in (1.0, 0.5):
            with pytest.raises(ConfigError, match=f"must satisfy q > 1, got {q} ") as info:
                quantum(q, 5)
            assert info.value.key == "q"

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_non_finite_base(self, q):
        # named as the base, not as the points an infinite base would build
        with pytest.raises(ConfigError) as info:
            quantum(q, 5)
        assert info.value.key == "q"
        assert info.value.reason == f"must be finite, got {q!r}"

    def test_underflowing_depth_is_refused_as_points(self):
        # q^-1100 underflows to the left endpoint 0
        with pytest.raises(ConfigError, match="not strictly increasing at index 1 ") as info:
            quantum(2.0, 1100)
        assert info.value.key == "points"

    def test_rejects_shallow_depth(self):
        with pytest.raises(ConfigError) as info:
            quantum(2.0, 2)
        assert info.value.key == "depth"

    @pytest.mark.parametrize("depth", [3.7, 4.0, "4", False])
    def test_depth_must_be_an_integer(self, depth):
        with pytest.raises(ConfigError) as info:
            quantum(2.0, depth)
        assert info.value.key == "depth"

    def test_numpy_integer_depth_accepted(self):
        ts = quantum(2.0, np.int32(10))
        assert ts.npoints == 12
        assert np.array_equal(ts.points, quantum(2.0, 10).points)

    def test_graininess_scales_geometrically(self):
        ts = quantum(2.0, 6)
        # interior cells double: mu(q^k) = (q-1) q^k
        ratios = ts.mu[2:] / ts.mu[1:-1]
        assert np.allclose(ratios, 2.0)


class TestFamilies:
    def test_uniform_family_default_sizes(self):
        fam = uniform_family(0.0, 1.0)
        assert [ts.npoints for ts in fam] == [17, 33, 65, 129, 257, 513]
        assert all(ts.a == 0.0 and ts.sigma2_b == 1.0 for ts in fam)

    def test_quantum_family_default_depths(self):
        fam = quantum_family(2.0)
        assert [ts.npoints for ts in fam] == [7, 12, 22, 42, 82]

    def test_same_realization(self, unit5):
        assert same_realization(unit5, uniform(0.0, 1.0, 5))
        assert not same_realization(unit5, uniform(0.0, 1.0, 6))


def test_points_are_read_only(unit5):
    with pytest.raises(ValueError):
        unit5.points[0] = 7.0
