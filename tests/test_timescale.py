"""Construction and jump-operator behaviour of finite scale realizations."""

import numpy as np
import pytest

from tsdyn import (
    ConfigError,
    InvalidBase,
    IndexOutOfRange,
    NonMonotonePoints,
    TooFewPoints,
    DegenerateInterval,
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
        with pytest.raises(NonMonotonePoints) as err:
            from_points([0.0, 0.5, 0.25, 1.0])
        assert err.value.index == 2

    def test_duplicate_point_rejected(self):
        with pytest.raises(NonMonotonePoints):
            from_points([0.0, 0.25, 0.25, 1.0])

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            from_points([0.0, 0.5, 1.0])

    def test_points_must_be_flat(self):
        with pytest.raises(NonMonotonePoints, match="flat sequence"):
            from_points(np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points_must_be_finite(self, bad):
        with pytest.raises(NonMonotonePoints, match="must be finite") as err:
            from_points([0.0, 0.25, bad, 1.0])
        assert err.value.index == 2

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
        with pytest.raises(IndexOutOfRange):
            unit5.sigma(99)
        with pytest.raises(IndexOutOfRange):
            unit5.rho(-1)

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
        with pytest.raises(IndexOutOfRange):
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
        with pytest.raises(TooFewPoints):
            uniform(0.0, 1.0, 3)

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
        with pytest.raises(DegenerateInterval):
            uniform(1.0, 1.0, 5)
        with pytest.raises(DegenerateInterval):
            uniform(2.0, 1.0, 5)


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
        with pytest.raises(InvalidBase):
            quantum(1.0, 5)
        with pytest.raises(InvalidBase):
            quantum(0.5, 5)

    def test_rejects_shallow_depth(self):
        with pytest.raises(TooFewPoints):
            quantum(2.0, 2)

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
