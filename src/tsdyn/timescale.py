"""Finite realizations of time scales.

A time scale is a nonempty closed subset of the reals.  This package works
with *finite realizations*: strictly increasing point lists
``p_0 < p_1 < ... < p_N`` on which the forward jump ``sigma``, backward jump
``rho``, and graininess ``mu(t) = sigma(t) - t`` are plain index arithmetic.
Analytic statements about general scales are mirrored here by refinement
families of realizations (see :mod:`tsdyn.criteria`).

Boundary identification is positional and fixed once the realization exists:

    a = p_0,   b = p_{N-2},   sigma(b) = p_{N-1},   sigma^2(b) = p_N.

Hence every realization needs at least four points.  The left endpoint of a
realization is always right-scattered; whether it models a right-dense point
of an underlying infinite scale is a property of the refinement family, not
of any single member, so no behavioral branch depends on it here.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, SupportMismatch

#: Absolute tolerance for looking an index up by point value.
VALUE_LOOKUP_TOL = 1e-12

#: Default point counts for uniform refinement families.
UNIFORM_FAMILY_SIZES = (17, 33, 65, 129, 257, 513)

#: Default truncation depths for quantum refinement families.
QUANTUM_FAMILY_DEPTHS = (5, 10, 20, 40, 80)


@dataclass(frozen=True, eq=False)
class TimeScale:
    """Immutable finite realization ``p_0 < ... < p_N``.

    ``q`` records the base for quantum realizations and is ``None`` otherwise.
    Equality is identity; two realizations built from equal point lists are
    interchangeable in arithmetic (see :func:`same_realization`) but distinct
    objects.
    """

    points: np.ndarray
    q: float | None = None

    def __post_init__(self) -> None:
        # a private copy: the caller's array stays writable, and later writes
        # to it cannot move the points away from the graininesses kept below
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1:
            raise ConfigError("points must be a flat sequence", key="points")
        if pts.size < 4:
            raise ConfigError(
                f"need at least 4 points for boundary identification, got {pts.size}",
                key="points",
            )
        if not np.all(np.isfinite(pts)):
            raise ConfigError(
                f"points must be finite at index {int(np.argmin(np.isfinite(pts)))}",
                key="points",
            )
        bad = np.nonzero(pts[1:] <= pts[:-1])[0]  # compared, not subtracted: no overflow
        if bad.size:
            raise ConfigError(
                f"points not strictly increasing at index {int(bad[0]) + 1}", key="points"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        # in Python floats, which overflow and underflow without a warning;
        # the kernel's weights divide a product of two gaps by the span's
        # square, so it must be finite and a normal float, not 0 / 0
        square = self.span * self.span
        if not math.isfinite(square):
            raise ConfigError(f"span of [{self.a}, {self.sigma2_b}] is too wide: "
                              "its square overflows", key="points")
        if square < np.finfo(float).tiny:
            raise ConfigError(f"span of [{self.a}, {self.sigma2_b}] is too narrow: "
                              "its square underflows", key="points")
        diffs = np.diff(pts)
        diffs.setflags(write=False)
        object.__setattr__(self, "_mu", diffs)

    # -- size and boundary identification --------------------------------

    @property
    def npoints(self) -> int:
        return int(self.points.size)

    @functools.cached_property
    def _point_list(self) -> list[float]:
        """The points as Python floats, made once since the points never
        change; the list is shared, so callers must not change it."""
        return self.points.tolist()

    @property
    def last_index(self) -> int:
        """N in the canonical labeling p_0..p_N."""
        return self.npoints - 1

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-3])

    @property
    def sigma_b(self) -> float:
        return float(self.points[-2])

    @property
    def sigma2_b(self) -> float:
        return float(self.points[-1])

    @property
    def span(self) -> float:
        """Length of the closed interval, sigma^2(b) - a."""
        return self.sigma2_b - self.a

    # -- jump operators ----------------------------------------------------

    def _check_index(self, k: int) -> int:
        k = require_integer(k, "k")
        if not 0 <= k <= self.last_index:
            raise SupportMismatch(f"index {k} outside [0, {self.last_index}]")
        return k

    def sigma(self, k: int) -> int:
        """Index of the forward jump; the last point maps to itself."""
        k = self._check_index(k)
        return min(k + 1, self.last_index)

    def rho(self, k: int) -> int:
        """Index of the backward jump; the first point maps to itself."""
        k = self._check_index(k)
        return max(k - 1, 0)

    def graininess(self, k: int) -> float:
        """mu(p_k) = p_{sigma(k)} - p_k; zero only at the last point."""
        k = self._check_index(k)
        return float(self.points[self.sigma(k)] - self.points[k])

    @property
    def mu(self) -> np.ndarray:
        """All graininesses mu_0..mu_{N-1} (the last point is omitted);
        computed once, read-only."""
        return self._mu

    def index_of(self, value: float) -> int:
        """Index whose point equals ``value`` within ``VALUE_LOOKUP_TOL``."""
        k = int(np.searchsorted(self.points, value))
        for cand in (k - 1, k, k + 1):
            if 0 <= cand <= self.last_index and abs(
                float(self.points[cand]) - value
            ) <= VALUE_LOOKUP_TOL:
                return cand
        raise SupportMismatch(f"value {value!r} is not a point of this realization")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeScale(n={self.npoints}, "
            f"[{self.a:g}, {self.sigma2_b:g}])"
        )


def same_realization(u: TimeScale, v: TimeScale) -> bool:
    """True when two scales are the same object or carry equal points."""
    return u is v or (
        u.npoints == v.npoints and bool(np.array_equal(u.points, v.points))
    )


def from_points(points: Sequence[float]) -> TimeScale:
    """Wrap an explicit strictly increasing point list."""
    return TimeScale(np.asarray(points, dtype=float))


def require_integer(value, key: str) -> int:
    """``value``, which must be an integer (a numpy integer serves), as an
    ``int``; anything else raises :class:`ConfigError` keyed ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"expected an integer, got {value!r}", key=key)
    return int(value)


def require_finite(value: float, key: str) -> None:
    """Raise :class:`ConfigError` keyed ``key``, naming ``value``, unless it
    is a finite number."""
    if not math.isfinite(value):
        raise ConfigError(f"must be finite, got {value!r}", key=key)


def uniform(a: float, end: float, n: int) -> TimeScale:
    """Uniform realization of [a, end] with ``n`` points."""
    n = require_integer(n, "n")
    if n < 4:
        raise ConfigError(f"uniform realization needs n >= 4, got {n}", key="n")
    require_finite(a, "a")
    require_finite(end, "end")
    if not end > a:
        raise ConfigError(f"need end > a, got [{a}, {end}]", key="end")
    if not math.isfinite(float(end) - float(a)):  # Python floats: no overflow warning
        raise ConfigError(f"span end - a of [{a}, {end}] overflows", key="end")
    return TimeScale(np.linspace(float(a), float(end), n))

def quantum(q: float, depth: int) -> TimeScale:
    """Truncated quantum realization {0} | {q^-k : k = depth..0}.

    The accumulation point 0 of the untruncated scale is kept as an explicit
    left endpoint whose cell carries graininess q^-depth; refining ``depth``
    sends that cell's mass to zero.  Note the realized sigma(b) = 1/q and
    sigma^2(b) = 1 differ from the untruncated scale, where the points above
    1 survive; criteria that quote untruncated quantities accept an explicit
    evaluation-point override.
    """
    depth = require_integer(depth, "depth")
    require_finite(q, "q")
    if not q > 1.0:
        raise ConfigError(f"quantum base must satisfy q > 1, got {q}", key="q")
    if depth < 3:
        raise ConfigError(f"quantum realization needs depth >= 3, got {depth}", key="depth")
    q = float(q)
    pts = np.array([0.0] + [q ** (-k) for k in range(depth, -1, -1)])
    return TimeScale(pts, q=q)


def uniform_family(
    a: float, end: float, sizes: Sequence[int] = UNIFORM_FAMILY_SIZES
) -> list[TimeScale]:
    """Uniform realizations of one interval at geometrically growing sizes."""
    return [uniform(a, end, n) for n in sizes]


def quantum_family(
    q: float, depths: Sequence[int] = QUANTUM_FAMILY_DEPTHS
) -> list[TimeScale]:
    """Quantum realizations of one base at geometrically growing depths."""
    return [quantum(q, k) for k in depths]
