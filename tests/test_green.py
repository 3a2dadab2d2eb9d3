"""Discrete kernel of the negative second delta derivative with pinned ends."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from tsdyn import (
    GridFunction,
    IndexOutOfRange,
    affine_interpolant,
    delta_second,
    envelope_weight,
    from_points,
    green_apply,
    green_value,
    kernel_lower_weight,
    quantum,
    uniform,
)
from conftest import SEED, random_scale
from tsdyn.green import green_solve, kernel_factors

EPS = np.finfo(float).eps


def banded_oracle(ts, h):
    """Solve -u^DD = h, u pinned to zero at both ends, as a tridiagonal system.

    Equation k (k = 0..N-2) couples u_k, u_{k+1}, u_{k+2}; with the boundary
    values eliminated the interior unknowns u_1..u_{N-1} form a banded system
    handed to scipy.  Entirely independent of the kernel route.
    """
    mu = ts.mu
    N = ts.last_index
    m = N - 1
    diag = np.empty(m)
    sub = np.zeros(m)
    sup = np.zeros(m)
    for k in range(m):
        diag[k] = 1.0 / mu[k] ** 2 + 1.0 / (mu[k] * mu[k + 1])
        if k >= 1:
            sub[k - 1] = -1.0 / mu[k] ** 2  # coef of u_k in equation k
        if k <= m - 2:
            sup[k + 1] = -1.0 / (mu[k] * mu[k + 1])  # coef of u_{k+2}
    ab = np.vstack([sup, diag, sub])
    interior = solve_banded((1, 1), ab, np.asarray(h, dtype=float))
    return np.concatenate([[0.0], interior, [0.0]])


def dense_kernel(ts):
    """Weighted kernel W[j, k] = mu_k G(p_j, p_k), k = 0..N-2, from ``green_value``.

    ``W @ h`` is the delta integral of G(p_j, .) h over [a, sigma(b)), the
    O(N^2) definition that ``green_apply`` evaluates with prefix sums.
    """
    N = ts.last_index
    return np.array(
        [[ts.mu[k] * green_value(ts, j, k) for k in range(N - 1)] for j in range(N + 1)]
    )


def jittered(rng, n):
    """Explicit mesh of [0, 1] with n points and gaps drawn from [0.5, 1.5]."""
    pts = np.cumsum(rng.uniform(0.5, 1.5, size=n))
    return from_points((pts - pts[0]) / (pts[-1] - pts[0]))


class TestKernelValues:
    def test_hand_values_on_quarter_grid(self, unit5):
        assert green_value(unit5, 1, 2) == pytest.approx(0.0625, abs=1e-15)
        assert green_value(unit5, 3, 1) == pytest.approx(0.125, abs=1e-15)

    def test_vanishes_on_the_boundary(self, unit5):
        for s in range(4):
            assert green_value(unit5, 0, s) == 0.0
            assert green_value(unit5, 4, s) == 0.0

    def test_index_validation(self, unit5):
        with pytest.raises(IndexOutOfRange):
            green_value(unit5, 5, 0)
        with pytest.raises(IndexOutOfRange):
            green_value(unit5, 0, 4)  # s stops one short of the end

    @pytest.mark.parametrize("kind", ["uniform", "quantum", "explicit"])
    def test_kernel_bounds(self, rng, kind):
        """0 <= G(t, s) <= e(t) and G(t, s) >= e(t) w(s) pointwise."""
        ts = random_scale(rng, kind)
        e = envelope_weight(ts).component(1)
        w = kernel_lower_weight(ts)
        D = ts.span
        for s in range(ts.last_index):
            sig = ts.points[s + 1]
            w_s = (sig - ts.a) * (ts.sigma2_b - sig) / D**2
            if s < ts.last_index - 1:
                assert w[s] == w_s
            for t in range(ts.npoints):
                g = green_value(ts, t, s)
                assert 0.0 <= g <= e[t] + 1e-14 * D
                assert g >= e[t] * w_s - 1e-14 * D


class TestGreenApply:
    def test_exact_discrete_identity(self, rng):
        for kind in ("uniform", "quantum", "explicit"):
            ts = random_scale(rng, kind)
            h = GridFunction.from_values(ts, rng.standard_normal(ts.last_index - 1))
            u = green_apply(ts, h)
            defect = delta_second(u) + h
            assert defect.max_abs() <= 1e-10 * max(1.0, h.max_abs())

    def test_boundary_rows_are_zero(self, q23):
        h = GridFunction.from_values(q23, np.ones(q23.last_index - 1))
        u = green_apply(q23, h)
        assert u.value_at(0)[0] == 0.0
        assert u.value_at(q23.last_index)[0] == 0.0

    @pytest.mark.parametrize("n", [9, 33, 80])
    def test_matches_banded_oracle(self, n):
        rng = np.random.default_rng(SEED + n)
        ts = uniform(0.0, 2.0, n)
        h = rng.standard_normal(ts.last_index - 1)
        u = green_apply(ts, GridFunction.from_values(ts, h))
        want = banded_oracle(ts, h)
        assert np.allclose(u.component(1), want, rtol=1e-12, atol=1e-12)

    def test_oracle_agreement_on_quantum_scale(self):
        rng = np.random.default_rng(SEED)
        ts = quantum(2.0, 8)
        h = rng.uniform(0.5, 2.0, size=ts.last_index - 1)
        u = green_apply(ts, GridFunction.from_values(ts, h))
        want = banded_oracle(ts, h)
        scale = np.max(np.abs(want))
        assert np.allclose(u.component(1), want, rtol=1e-12, atol=1e-12 * scale)

    def test_multi_component(self, unit65):
        rng = np.random.default_rng(SEED)
        h = rng.standard_normal((unit65.last_index - 1, 2))
        u = green_apply(unit65, GridFunction.from_values(unit65, h))
        assert u.n_components == 2
        defect = delta_second(u) + GridFunction.from_values(unit65, h)
        assert defect.max_abs() < 1e-10

    def test_rhs_must_cover_equation_points(self, unit5):
        short = GridFunction.from_values(unit5, [1.0, 1.0], lo=0)
        with pytest.raises(Exception):
            green_apply(unit5, short)

    def test_positivity_preserved(self, rng):
        ts = random_scale(rng, "quantum")
        h = GridFunction.from_values(ts, rng.uniform(0.1, 1.0, ts.last_index - 1))
        u = green_apply(ts, h)
        assert np.all(u.values[1:-1] > 0.0)

    @pytest.mark.parametrize("kind", ["uniform", "quantum", "explicit"])
    def test_identity_within_self_check_budget(self, rng, kind):
        """Generic h: exact zero ends, and defect <= 1e-6 |h| where the
        second difference's amplification (span/mu_min)^2 * 2.3e-16 <= 1e-8."""
        scales = [random_scale(rng, kind) for _ in range(8)]
        if kind == "uniform":
            scales += [uniform(0.0, 1.0, n) for n in (65, 1025, 4097)]
        checked = 0
        for ts in scales:
            N = ts.last_index
            h = np.random.default_rng(0x5EED).standard_normal(N - 1)
            u = green_apply(ts, GridFunction.from_values(ts, h)).component(1)
            assert u[0] == 0.0 and u[-1] == 0.0
            if (ts.span / float(np.min(ts.mu))) ** 2 * 2.3e-16 > 1e-8:
                continue
            checked += 1
            resid = delta_second(GridFunction(ts, u, 0, N)).component(1) + h
            assert np.max(np.abs(resid)) <= 1e-6 * np.max(np.abs(h))
        assert checked > 0

    def test_keeps_no_per_scale_state(self):
        ts = uniform(0.0, 1.0, 33)
        h = GridFunction.from_values(ts, np.ones(ts.last_index - 1))
        u = green_apply(ts, h)
        ref = weakref.ref(ts)
        del ts, h, u
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("mesh", ["uniform-4097", "jittered-1025", "quantum-30"])
    def test_oracle_agreement_at_benchmark_sizes(self, mesh):
        """Agreement to the banded solve's roundoff floor eps |u| kappa.

        kappa = (span / mu_min)^2 bounds the operator's conditioning on every
        mesh.  Where neighbouring cells differ by a bounded factor the
        row-equilibrated operator has conditioning about N^2, which is far
        smaller on a quantum mesh, so the smaller of the two is used.
        """
        rng = np.random.default_rng(SEED)
        ts = {
            "uniform-4097": lambda: uniform(0.0, 1.0, 4097),
            "jittered-1025": lambda: jittered(rng, 1025),
            "quantum-30": lambda: quantum(2.0, 30),
        }[mesh]()
        kappa = min((ts.span / float(np.min(ts.mu))) ** 2, ts.last_index**2)
        for h in (
            rng.standard_normal(ts.last_index - 1),
            rng.uniform(0.5, 2.0, size=ts.last_index - 1),
        ):
            u = green_apply(ts, GridFunction.from_values(ts, h)).component(1)
            want = banded_oracle(ts, h)
            tol = EPS * np.max(np.abs(want)) * kappa
            assert np.max(np.abs(u - want)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=200
        ),
        left=st.floats(min_value=-5.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_identity_on_random_explicit_meshes(self, gaps, left, seed):
        """-(G h)^DD = h to within the floor eps |h| (span / mu_min)^2."""
        ts = from_points(left + np.concatenate([[0.0], np.cumsum(gaps)]))
        h = np.random.default_rng(seed).uniform(-1.0, 1.0, ts.last_index - 1)
        u = green_apply(ts, GridFunction.from_values(ts, h))
        assert u.value_at(0)[0] == 0.0 and u.value_at(ts.last_index)[0] == 0.0
        defect = (delta_second(u) + GridFunction.from_values(ts, h)).max_abs()
        floor = EPS * np.max(np.abs(h)) * (ts.span / float(np.min(ts.mu))) ** 2
        assert defect <= floor


MESHES = st.one_of(
    st.builds(
        lambda gaps, left: from_points(left + np.concatenate([[0.0], np.cumsum(gaps)])),
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=80),
        st.floats(min_value=-5.0, max_value=5.0),
    ),
    st.builds(
        lambda a, length, n: uniform(a, a + length, n),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=4, max_value=300),
    ),
    st.builds(
        quantum,
        st.floats(min_value=1.1, max_value=4.0),
        st.integers(min_value=3, max_value=60),
    ),
)


class TestKernelCore:
    """``green_solve`` on plain arrays is the one formula; ``green_apply`` only
    checks and wraps it."""

    @settings(max_examples=80, deadline=None)
    @given(
        ts=MESHES,
        n=st.sampled_from([1, 2]),
        extra=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_core_is_green_apply_byte_for_byte(self, ts, n, extra, seed):
        N = ts.last_index
        rows = N + 1 if extra else N - 1  # extra top rows are ignored
        h = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, n))
        core = green_solve(kernel_factors(ts), h[: N - 1])
        wrapped = green_apply(ts, GridFunction.from_values(ts, h))
        assert core.shape == wrapped.values.shape == (N + 1, n)
        assert core.tobytes() == wrapped.values.tobytes()

    def test_factors_are_the_graininess_and_branch_factors(self, q23):
        mu, left, right, span = kernel_factors(q23)
        sig = q23.points[1 : q23.last_index]
        assert mu[:, 0].tolist() == np.diff(q23.points)[:-1].tolist()
        assert left[:, 0].tolist() == (sig - q23.a).tolist()
        assert right[:, 0].tolist() == (q23.sigma2_b - sig).tolist()
        assert span == q23.span


class TestMatrix:
    """``green_apply`` against the dense weighted kernel built from ``green_value``."""

    def test_columns_are_weighted_kernel(self, unit5):
        W = dense_kernel(unit5)
        for k in range(unit5.last_index - 1):
            unit = np.zeros(unit5.last_index - 1)
            unit[k] = 1.0
            col = green_apply(unit5, GridFunction.from_values(unit5, unit))
            assert np.allclose(col.component(1), W[:, k], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["uniform", "quantum", "explicit"])
    def test_matches_dense_product(self, kind, n):
        rng = np.random.default_rng(SEED + n)
        for _ in range(5):
            ts = random_scale(rng, kind)
            h = rng.standard_normal((ts.last_index - 1, n))
            u = green_apply(ts, GridFunction.from_values(ts, h))
            want = dense_kernel(ts) @ h
            scale = np.max(np.abs(want), axis=0)
            assert np.all(np.abs(u.values - want) <= 1e-13 * scale)


class TestAffineInterpolant:
    def test_hits_both_boundary_values(self, q23):
        phi = affine_interpolant(q23, 2.0, -1.0)
        assert phi.value_at(0)[0] == pytest.approx(2.0)
        assert phi.value_at(q23.last_index)[0] == pytest.approx(-1.0)

    def test_second_difference_vanishes(self, rng):
        ts = random_scale(rng, "explicit")
        phi = affine_interpolant(ts, -3.0, 5.0)
        assert delta_second(phi).max_abs() < 1e-10

    def test_vector_boundaries(self, unit5):
        phi = affine_interpolant(unit5, [0.0, 1.0], [1.0, 0.0])
        assert phi.n_components == 2
        assert np.allclose(phi.value_at(2), [0.5, 0.5])

    def test_end_rows_are_the_boundary_values_exactly(self, unit65, q23):
        # A + (B - A) * 1 misses B by an ulp for A = 0.7, B = 0.1
        assert 0.7 + (0.1 - 0.7) * 1.0 != 0.1
        for ts in (unit65, q23):
            phi = affine_interpolant(ts, [0.7, 2.9], [0.1, 0.3])
            assert phi.value_at(0).tolist() == [0.7, 2.9]
            assert phi.value_at(ts.last_index).tolist() == [0.1, 0.3]


def test_envelope_values(unit5, q23):
    assert envelope_weight(unit5).value_at(2)[0] == pytest.approx(0.25, abs=1e-15)
    assert envelope_weight(q23).value_at(3)[0] == pytest.approx(0.25, abs=1e-15)
    for ts in (unit5, q23):
        e = envelope_weight(ts)
        assert e.value_at(0)[0] == 0.0
        assert e.value_at(ts.last_index)[0] == 0.0
