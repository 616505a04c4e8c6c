"""Partition counts, midpoint placement and the candidate order of grids."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from dualctl import (
    BoundedInterval,
    grid_from_intervals,
    make_state,
    partition_interval,
)
from dualctl.grid import partition_count


# (lower, upper, eps) -> expected sub-interval count.  Frozen by hand from
# s = strict_floor(width/eps) + 1 with exact ratios snapped to the integer.
KNOWN_COUNTS = [
    (0.75, 1.25, 0.1, 5),
    (0.75, 1.05, 0.1, 3),
    (-0.05, 0.05, 0.2, 1),
    (-1.45, 0.55, 0.1, 20),
    (0.725, 1.075, 0.05, 7),
    (0.8, 1.2, 0.4, 1),
    (-13.0, 2.0, 1.0, 15),
    (0.75, 1.25, 0.05, 10),
    (0.75, 1.25, 0.075, 7),
    (0.75, 1.05, 0.075, 4),
    (0.75, 1.25, 0.2, 3),
    (0.75, 1.05, 0.2, 2),
    (-1.45, 0.55, 0.4, 5),
]


@pytest.mark.parametrize("lower,upper,eps,count", KNOWN_COUNTS)
def test_partition_counts(lower, upper, eps, count):
    interval = BoundedInterval(lower, upper, eps)
    ms = partition_interval(interval)
    assert ms.count == count == partition_count(interval)
    assert len(ms.midpoints) == count


def test_midpoints_are_centered():
    ms = partition_interval(BoundedInterval(-1.45, 0.55, 0.1))
    assert ms.sub_interval_length == pytest.approx(0.1, abs=1e-12)
    expected = [-1.4 + 0.1 * i for i in range(20)]
    assert ms.midpoints == pytest.approx(expected, abs=1e-12)


def test_exact_division_keeps_ratio_count():
    # 2.0 / 0.5 is exactly 4; the snap must not bump the count to 5.
    ms = partition_interval(BoundedInterval(0.0, 2.0, 0.5))
    assert ms.count == 4
    assert ms.midpoints == pytest.approx([0.25, 0.75, 1.25, 1.75], abs=1e-12)


def test_float_noise_in_ratio_is_snapped():
    # 0.3 / 0.1 = 3.0000000000000004 in floats; count must still be 3.
    ms = partition_interval(BoundedInterval(0.75, 1.05, 0.1))
    assert ms.count == 3
    assert ms.midpoints == pytest.approx([0.8, 0.9, 1.0], abs=1e-12)


@given(
    lower=st.floats(-50, 50, allow_nan=False),
    width=st.floats(1e-3, 100, allow_nan=False),
    eps_frac=st.floats(1e-3, 2.0, allow_nan=False),
    point_frac=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=300)
def test_any_point_within_half_eps_of_a_midpoint(lower, width, eps_frac, point_frac):
    eps = width * eps_frac
    interval = BoundedInterval(lower, lower + width, eps)
    ms = partition_interval(interval)
    point = lower + point_frac * width
    nearest = min(abs(point - m) for m in ms.midpoints)
    # Half a sub-interval, padded for the eps-ratio snap tolerance.
    assert nearest <= eps / 2 + 1e-9 * max(1.0, abs(eps))


@given(
    lower=st.floats(-50, 50, allow_nan=False),
    width=st.floats(1e-3, 100, allow_nan=False),
    eps_frac=st.floats(1e-3, 2.0, allow_nan=False),
)
@settings(max_examples=200)
def test_sub_interval_length_never_exceeds_eps(lower, width, eps_frac):
    eps = width * eps_frac
    ms = partition_interval(BoundedInterval(lower, lower + width, eps))
    assert ms.sub_interval_length <= eps * (1 + 1e-9)
    assert ms.count >= 1


def test_interval_validation():
    with pytest.raises(ValueError):
        BoundedInterval(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        BoundedInterval(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        BoundedInterval(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        BoundedInterval(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        BoundedInterval(0.0, math.inf, 1.0)


def _product_grid():
    return grid_from_intervals(
        BoundedInterval(0.75, 1.25, 0.1),
        BoundedInterval(0.75, 1.05, 0.1),
        BoundedInterval(-0.05, 0.05, 0.2),
    )


def test_grid_size_and_eta():
    grid = _product_grid()
    assert grid.size == 15
    assert make_state(grid.size, 0.01, ((0.0,) * 3,) * 3).eta == pytest.approx(1.0 / 15, abs=1e-15)


def test_alpha_major_ordering():
    grid = _product_grid()
    # gamma varies fastest, alpha slowest
    assert grid.vectors == tuple(
        itertools.product(grid.alpha.midpoints, grid.beta.midpoints, grid.gamma.midpoints)
    )


def test_known_candidate_positions():
    # Single-candidate multiplicative channels leave the flat index equal to
    # the additive channel index: candidate 7 (1-based) sits at -0.8 and
    # candidate 20 at +0.5.
    grid = grid_from_intervals(
        BoundedInterval(0.95, 1.05, 0.2),
        BoundedInterval(0.95, 1.05, 0.2),
        BoundedInterval(-1.45, 0.55, 0.1),
    )
    assert grid.size == 20
    assert grid.vectors[6] == pytest.approx((1.0, 1.0, -0.8), abs=1e-12)
    assert grid.vectors[19] == pytest.approx((1.0, 1.0, 0.5), abs=1e-12)


@given(sa=st.integers(1, 6), sb=st.integers(1, 6), sg=st.integers(1, 6))
@settings(max_examples=120)
def test_grid_is_the_alpha_major_product(sa, sb, sg):
    grid = grid_from_intervals(
        BoundedInterval(0.0, 1.0, 1.0 / sa + 1e-12),
        BoundedInterval(0.0, 1.0, 1.0 / sb + 1e-12),
        BoundedInterval(0.0, 1.0, 1.0 / sg + 1e-12),
    )
    assert (grid.alpha.count, grid.beta.count, grid.gamma.count) == (sa, sb, sg)
    assert grid.size == sa * sb * sg
    assert grid.vectors == tuple(
        itertools.product(grid.alpha.midpoints, grid.beta.midpoints, grid.gamma.midpoints)
    )
