"""Green kernel for the two-point Dirichlet problem on a realization.

For the sign convention ``-u^DeltaDelta = h`` with ``u(a) = u(sigma^2(b)) = 0``
the kernel on a realization with span ``D = sigma^2(b) - a`` is

    G(t, s) = (t - a) (sigma^2(b) - sigma(s)) / D      if t <= sigma(s),
    G(t, s) = (sigma(s) - a) (sigma^2(b) - t) / D      if sigma(s) <= t.

The two formulas agree at the seam ``t = sigma(s)``; this module always takes
the first branch there so no float comparison can flip the choice.  The kernel
is piecewise affine in ``t`` with its only kink at the seam, which is why the
discrete identity ``-(G h)^DeltaDelta = h`` holds exactly at every equation
point ``k = 0..N-2``, not merely in a refinement limit.

Each branch is a product of a factor in ``t`` and a factor in ``s``, so the
kernel apply needs no kernel matrix: it is two prefix sums, one taken in
ascending and one in descending index order, O(N) time and memory.  Both
orders are fixed, so results do not depend on thread count.  ``green_value``
is the scalar definition of the kernel; the runtime does not call it.  A
banded linear solve is kept in the test suite as an independent oracle, not
here.

This module is the one home of the kernel's formulas: the kernel itself, its
envelope ``e(t)`` and its lower weight.  The apply has one array core,
:func:`green_solve` on plain arrays with the per-scale factors of
:func:`kernel_factors`, which a solver computes once per solve;
:func:`green_apply` is its edge wrapper for grid functions.
"""

from __future__ import annotations

import numpy as np

from .calculus import GridFunction, require_realization
from .errors import IndexOutOfRange, SupportMismatch
from .timescale import TimeScale


def green_value(ts: TimeScale, t_idx: int, s_idx: int) -> float:
    """Kernel value G(p_{t_idx}, p_{s_idx}); ``s_idx`` ranges over 0..N-1."""
    N = ts.last_index
    if not 0 <= t_idx <= N:
        raise IndexOutOfRange(f"t index {t_idx} outside [0, {N}]")
    if not 0 <= s_idx <= N - 1:
        raise IndexOutOfRange(f"s index {s_idx} outside [0, {N - 1}]")
    pts = ts.points
    a, s2b = ts.a, ts.sigma2_b
    D = s2b - a
    t = float(pts[t_idx])
    sig_s = float(pts[s_idx + 1])
    if t <= sig_s:
        return (t - a) * (s2b - sig_s) / D
    return (sig_s - a) * (s2b - t) / D


def kernel_factors(ts: TimeScale) -> tuple:
    """The per-scale factors of :func:`green_solve`: the columns ``mu_k``,
    ``sigma_k - a`` and ``sigma^2(b) - sigma_k`` for ``k = 0..N-2``, and the
    span ``D``."""
    N = ts.last_index
    # p_1..p_{N-1} are both sigma_k for k = 0..N-2 and t_j for j = 1..N-1
    p = ts.points[1:N, None]
    return ts.mu[: N - 1, None], p - ts.a, ts.sigma2_b - p, ts.span


def green_solve(factors: tuple, h: np.ndarray) -> np.ndarray:
    """Solve -u^DeltaDelta = h with zero boundary values on plain arrays.

    ``factors`` comes from :func:`kernel_factors`; ``h`` holds one row per
    equation point ``0..N-2`` and the result one row per point ``0..N``.
    With ``sigma_k = p_{k+1}`` and ``D = sigma^2(b) - a``, row ``j`` takes the
    first kernel branch exactly for ``k >= j - 1``, so

        u_j = [(sigma^2(b) - t_j) * sum_{k <= j-2} mu_k (sigma_k - a) h_k
               + (t_j - a) * sum_{k >= j-1} mu_k (sigma^2(b) - sigma_k) h_k] / D.

    The two sums are prefix sums over all components at once, the first
    accumulated in ascending and the second in descending index order.  The
    order is fixed, so results do not depend on thread count.  Rows 0 and N
    are exactly zero.
    """
    mu, left, right, span = factors
    weighted = mu * h
    below = np.empty_like(weighted)
    below[0] = 0.0
    (left * weighted)[:-1].cumsum(axis=0, out=below[1:])
    above = (right * weighted)[::-1].cumsum(axis=0)[::-1]
    out = np.zeros((weighted.shape[0] + 2, weighted.shape[1]))
    out[1:-1] = (right * below + left * above) / span
    return out


def green_apply(ts: TimeScale, h: GridFunction) -> GridFunction:
    """:func:`green_solve` for a grid function ``h`` that covers the equation
    points ``0..N-2`` of ``ts``'s realization; extra top entries are ignored."""
    require_realization(h, ts, "right-hand side")
    N = ts.last_index
    if h.lo > 0 or h.hi < N - 2:
        raise SupportMismatch(
            f"right-hand side must cover indices [0, {N - 2}], got [{h.lo}, {h.hi}]"
        )
    return GridFunction(ts, green_solve(kernel_factors(ts), h.values[: N - 1]), 0, N)


def affine_interpolant(ts: TimeScale, A, B) -> GridFunction:
    """Straight line through (a, A) and (sigma^2(b), B), one row per point."""
    Avec = np.atleast_1d(np.asarray(A, dtype=float))
    Bvec = np.atleast_1d(np.asarray(B, dtype=float))
    if Avec.shape != Bvec.shape:
        raise SupportMismatch("boundary vectors must have equal length")
    frac = (ts.points - ts.a) / ts.span
    vals = Avec[None, :] + (Bvec - Avec)[None, :] * frac[:, None]
    vals[-1] = Bvec  # A + (B - A) * 1 can miss B by an ulp
    return GridFunction(ts, vals, 0, ts.last_index)


def envelope_weight(ts: TimeScale) -> GridFunction:
    """Scalar weight e(t) = (t - a)(sigma^2(b) - t) / (sigma^2(b) - a).

    e vanishes at both closed-interval endpoints and dominates every kernel
    column: G(t, s) <= e(t) for all s.
    """
    vals = (ts.points - ts.a) * (ts.sigma2_b - ts.points) / ts.span
    return GridFunction(ts, vals, 0, ts.last_index)


def kernel_lower_weight(ts: TimeScale) -> np.ndarray:
    """Lower weight w(s) = (sigma(s) - a)(sigma^2(b) - sigma(s)) / D^2.

    One entry per equation point ``k = 0..N-2``.  The kernel dominates it
    against the envelope: G(t, s) >= e(t) w(s) for all t.
    """
    sig = ts.points[1 : ts.last_index]
    return (sig - ts.a) * (ts.sigma2_b - sig) / ts.span**2
