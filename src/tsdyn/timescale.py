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

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInterval,
    IndexOutOfRange,
    InvalidBase,
    NonMonotonePoints,
    TooFewPoints,
)

#: Absolute tolerance for looking an index up by point value.
VALUE_LOOKUP_TOL = 1e-12

#: Default point counts for uniform refinement families.
UNIFORM_FAMILY_SIZES = (17, 33, 65, 129, 257, 513)

#: Default truncation depths for quantum refinement families.
QUANTUM_FAMILY_DEPTHS = (5, 10, 20, 40, 80)


class Kind(Enum):
    """How a realization was generated; only the criteria's default
    refinement family branches on it (quantum truncations or uniform meshes)."""

    UNIFORM = "uniform"
    QUANTUM = "quantum"
    EXPLICIT = "explicit"


@dataclass(frozen=True, eq=False)
class TimeScale:
    """Immutable finite realization ``p_0 < ... < p_N``.

    ``q`` records the base for quantum realizations and is ``None`` otherwise.
    Equality is identity; two realizations built from equal point lists are
    interchangeable in arithmetic (see :func:`same_realization`) but distinct
    objects.
    """

    points: np.ndarray
    kind: Kind = Kind.EXPLICIT
    q: float | None = None

    def __post_init__(self) -> None:
        # a private copy: the caller's array stays writable, and later writes
        # to it cannot move the points away from the graininesses kept below
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1:
            raise NonMonotonePoints(0, "points must be a flat sequence")
        if pts.size < 4:
            raise TooFewPoints(
                f"need at least 4 points for boundary identification, got {pts.size}"
            )
        if not np.all(np.isfinite(pts)):
            raise NonMonotonePoints(
                int(np.argmin(np.isfinite(pts))), "points must be finite"
            )
        diffs = np.diff(pts)
        bad = np.nonzero(diffs <= 0.0)[0]
        if bad.size:
            raise NonMonotonePoints(int(bad[0]) + 1)
        pts.setflags(write=False)
        diffs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_mu", diffs)

    # -- size and boundary identification --------------------------------

    @property
    def npoints(self) -> int:
        return int(self.points.size)

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
        k = int(k)
        if not 0 <= k <= self.last_index:
            raise IndexOutOfRange(f"index {k} outside [0, {self.last_index}]")
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
        raise IndexOutOfRange(f"value {value!r} is not a point of this realization")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeScale({self.kind.value}, n={self.npoints}, "
            f"[{self.a:g}, {self.sigma2_b:g}])"
        )


def same_realization(u: TimeScale, v: TimeScale) -> bool:
    """True when two scales are the same object or carry equal points."""
    return u is v or (
        u.npoints == v.npoints and bool(np.array_equal(u.points, v.points))
    )


def from_points(points: Sequence[float]) -> TimeScale:
    """Wrap an explicit strictly increasing point list."""
    return TimeScale(np.asarray(points, dtype=float), Kind.EXPLICIT)


def uniform(a: float, end: float, n: int) -> TimeScale:
    """Uniform realization of [a, end] with ``n`` points."""
    if n < 4:
        raise TooFewPoints(f"uniform realization needs n >= 4, got {n}")
    if not end > a:
        raise DegenerateInterval(f"need end > a, got [{a}, {end}]")
    return TimeScale(np.linspace(float(a), float(end), int(n)), Kind.UNIFORM)

def quantum(q: float, depth: int) -> TimeScale:
    """Truncated quantum realization {0} | {q^-k : k = depth..0}.

    The accumulation point 0 of the untruncated scale is kept as an explicit
    left endpoint whose cell carries graininess q^-depth; refining ``depth``
    sends that cell's mass to zero.  Note the realized sigma(b) = 1/q and
    sigma^2(b) = 1 differ from the untruncated scale, where the points above
    1 survive; criteria that quote untruncated quantities accept an explicit
    evaluation-point override.
    """
    if not q > 1.0:
        raise InvalidBase(f"quantum base must satisfy q > 1, got {q}")
    if depth < 3:
        raise TooFewPoints(f"quantum realization needs depth >= 3, got {depth}")
    q = float(q)
    pts = np.array([0.0] + [q ** (-k) for k in range(int(depth), -1, -1)])
    return TimeScale(pts, Kind.QUANTUM, q=q)


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
