"""Tests for mollification, truncation, shift and their pipeline."""

import numpy as np
import pytest

from mafem import unit_square
from mafem.fespace import eval_field
from mafem.problems import Problem
from mafem.regularize import mollify, shift, truncate


@pytest.fixture(scope="module")
def square():
    return unit_square()


@pytest.fixture(scope="module")
def grid():
    gx, gy = np.meshgrid(np.linspace(0.05, 0.95, 19),
                         np.linspace(0.05, 0.95, 19))
    return np.column_stack([gx.ravel(), gy.ravel()])


def test_mollify_constant_exact(square, grid):
    fm = mollify(lambda p: np.full(len(p), 3.25), 0.1, square)
    assert np.max(np.abs(fm(grid) - 3.25)) <= 1e-12


def test_mollify_preserves_bounds(square, grid):
    f = lambda p: 1.0 + np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1])
    gx, gy = np.meshgrid(np.linspace(0.0, 1.0, 45), np.linspace(0.0, 1.0, 45))
    dense = np.column_stack([gx.ravel(), gy.ravel()])
    lo, hi = f(dense).min(), f(dense).max()
    fm = mollify(f, 0.08, square)
    vals = fm(grid)
    assert vals.min() >= lo - 1e-9
    assert vals.max() <= hi + 1e-9


def test_mollify_radius_refinement_monotone(square, grid):
    f = lambda p: np.exp(p[:, 0] - p[:, 1] ** 2)
    sups = []
    for r in (0.1, 0.05, 0.025):
        fm = mollify(f, r, square)
        sups.append(np.max(np.abs(fm(grid) - f(grid))))
    assert sups[0] > sups[1] > sups[2]


def test_mollify_rejects_bad_radius(square):
    with pytest.raises(ValueError):
        mollify(lambda p: np.ones(len(p)), 0.0, square)


def test_truncate_pointwise():
    f = lambda p: 2.0 / (2.0 - p[:, 0] ** 2 - p[:, 1] ** 2) ** 2
    fM = truncate(f, 10.0)
    origin = np.array([[0.0, 0.0]])
    assert abs(fM(origin)[0] - 0.5) <= 1e-15
    near_corner = np.array([[0.99, 0.99]])
    assert f(near_corner)[0] > 10.0
    assert fM(near_corner)[0] == 0.0


def test_truncate_identity_above_sup(grid):
    f = lambda p: 1.0 + p[:, 0]
    fM = truncate(f, 5.0)
    assert np.array_equal(fM(grid), f(grid))


def test_truncate_constant_above_level(grid):
    fM = truncate(lambda p: np.full(len(p), 12.0), 10.0)
    assert np.all(fM(grid) == 0.0)


def test_shift_basic(grid):
    fs = shift(lambda p: np.zeros(len(p)), 0.1)
    assert np.all(fs(grid) == 0.1)


def test_shift_min_increases(grid):
    f = lambda p: p[:, 0] * p[:, 1]
    eps = 0.37
    assert abs(shift(f, eps)(grid).min() - (f(grid).min() + eps)) <= 1e-15


def test_shift_composes(grid):
    f = lambda p: np.sin(p[:, 0])
    ab = shift(shift(f, 0.2), 0.3)(grid)
    once = shift(f, 0.5)(grid)
    assert np.max(np.abs(ab - once)) <= 1e-15


def test_regularized_data_pipeline(square, grid):
    f = lambda p: 2.0 / (2.0 - p[:, 0] ** 2 - p[:, 1] ** 2) ** 2
    prob = Problem("pipeline", square, f, f, mollify_radius=0.05)
    vals = eval_field(prob.regularized(truncate_M=10.0), grid)
    # truncation first, then mollification, and together they keep f in
    # [0, M]
    assert np.array_equal(vals,
                          mollify(truncate(f, 10.0), 0.05, square)(grid))
    assert 0.0 <= vals.min() and vals.max() <= 10.0
