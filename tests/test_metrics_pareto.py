"""Pareto-front extraction."""

import numpy as np
import pytest

from oracles.pareto import front_violations
from repro.common.errors import ValidationError
from repro.metrics.pareto import pareto_front_mask, pareto_points


def test_single_point_is_optimal():
    assert pareto_front_mask([1.0], [1.0]).tolist() == [True]


def test_dominated_point_excluded():
    # Point 1 is slower AND hungrier than point 0.
    mask = pareto_front_mask([1.0, 0.8], [1.0, 1.2])
    assert mask.tolist() == [True, False]


def test_tradeoff_points_both_kept():
    mask = pareto_front_mask([1.0, 0.8], [1.0, 0.7])
    assert mask.tolist() == [True, True]


def test_identical_points_both_kept():
    mask = pareto_front_mask([1.0, 1.0], [0.5, 0.5])
    assert mask.tolist() == [True, True]


def test_classic_staircase():
    speedup = np.array([0.5, 0.7, 0.9, 1.0, 1.1])
    energy = np.array([0.6, 0.7, 0.65, 0.9, 1.0])
    mask = pareto_front_mask(speedup, energy)
    # (0.7, 0.7) is dominated by (0.9, 0.65).
    assert mask.tolist() == [True, False, True, True, True]


def test_pareto_points_sorted_by_speedup():
    speedup = np.array([1.1, 0.5, 0.9])
    energy = np.array([1.0, 0.6, 0.65])
    idx, s, e = pareto_points(speedup, energy)
    assert list(s) == sorted(s)
    assert set(idx.tolist()) <= {0, 1, 2}


def test_front_energy_decreasing_as_speedup_decreases():
    rng = np.random.default_rng(0)
    speedup = rng.uniform(0.5, 1.2, 200)
    energy = rng.uniform(0.5, 1.2, 200)
    _, s, e = pareto_points(speedup, energy)
    # Along the front, higher speedup must cost at least as much energy.
    assert np.all(np.diff(e) >= 0)


def test_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        pareto_front_mask([1.0, 2.0], [1.0])


def test_2d_input_rejected():
    with pytest.raises(ValidationError):
        pareto_front_mask(np.ones((2, 2)), np.ones((2, 2)))


def test_front_violations_helper():
    s = [1.0, 1.2, 0.9, 1.1]
    e = [1.0, 0.9, 1.1, 0.8]
    mask = pareto_front_mask(s, e)
    assert front_violations(s, e, mask) == (0, 0)
    # Claim a dominated point is on the front and drop a true front point.
    bad = [True, False, True, True]
    dominated_front, uncovered_off = front_violations(s, e, bad)
    assert dominated_front > 0 and uncovered_off > 0
