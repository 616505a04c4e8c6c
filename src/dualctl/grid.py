"""Discretization of bounded disturbance intervals into candidate grids.

Each disturbance channel lives in a known closed interval. The interval is
split into ``s`` equal sub-intervals whose half-width never exceeds half the
admissible estimation error, and the sub-interval midpoints become the finite
candidate set for that channel. The per-channel midpoint sets are combined by
Cartesian product into a grid of (alpha, beta, gamma) candidate vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .plants import finite_number

# Ratios this close to an integer are treated as that integer so that float
# noise (e.g. 0.3/0.1 -> 3.0000000000000004) cannot change the partition count.
_INTEGER_SNAP_TOL = 1e-9


def _strict_floor(x: float) -> int:
    """Largest integer strictly less than x.

    Unlike ``math.floor``, exact integers map one below themselves:
    ``_strict_floor(5.0) == 4``. Values within ``_INTEGER_SNAP_TOL`` (relative)
    of an integer are snapped to that integer first.
    """
    nearest = round(x)
    if abs(x - nearest) <= _INTEGER_SNAP_TOL * max(1.0, abs(x)):
        return int(nearest) - 1
    return math.floor(x)


@dataclass(frozen=True)
class BoundedInterval:
    """A closed interval with the admissible estimation error for the channel."""

    lower: float
    upper: float
    admissible_error: float

    def __post_init__(self):
        if finite_number(self.lower, "lower") >= finite_number(self.upper, "upper"):
            raise ValueError(
                f"interval lower bound {self.lower} must be < upper bound {self.upper}"
            )
        if not (finite_number(self.admissible_error, "admissible_error") > 0):
            raise ValueError(f"admissible error must be > 0, got {self.admissible_error}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class MidpointSet:
    """Midpoints of the equal sub-intervals covering an interval."""

    count: int
    sub_interval_length: float
    midpoints: tuple[float, ...]


def partition_count(interval: BoundedInterval) -> int:
    """The smallest number of equal sub-intervals whose length does not exceed
    the admissible error.

    The count is ``s = strict_floor(width / eps) + 1``, which guarantees
    ``width / s <= eps`` so any point of the interval is within ``eps / 2`` of
    some midpoint.  Raises ``OverflowError`` when ``width / eps`` is infinite.
    """
    return _strict_floor(interval.width / interval.admissible_error) + 1


def partition_interval(interval: BoundedInterval) -> MidpointSet:
    """Split an interval into :func:`partition_count` equal sub-intervals and
    return their midpoints."""
    s = partition_count(interval)
    length = interval.width / s
    midpoints = tuple(interval.lower + (i + 0.5) * length for i in range(s))
    return MidpointSet(count=s, sub_interval_length=length, midpoints=midpoints)


@dataclass(frozen=True)
class CandidateGrid:
    """Cartesian product of per-channel midpoint sets.

    ``vectors[t] == (alpha_i, beta_j, gamma_l)`` with alpha varying slowest and
    gamma fastest.
    """

    alpha: MidpointSet
    beta: MidpointSet
    gamma: MidpointSet
    vectors: tuple[tuple[float, float, float], ...]

    @property
    def size(self) -> int:
        return len(self.vectors)


def grid_from_intervals(
    alpha: BoundedInterval, beta: BoundedInterval, gamma: BoundedInterval
) -> CandidateGrid:
    """Partition all three channels and enumerate every (alpha, beta, gamma)
    combination, alpha-major."""
    a, b, g = partition_interval(alpha), partition_interval(beta), partition_interval(gamma)
    vectors = tuple(
        (x, y, z) for x in a.midpoints for y in b.midpoints for z in g.midpoints
    )
    return CandidateGrid(alpha=a, beta=b, gamma=g, vectors=vectors)
