"""Tests for convexity diagnostics and strictification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mafem import triangulate, unit_square
from mafem.convexity import analyze, eigmin_2x2, strictify
from mafem.fespace import FeFunction, FeSpace, interpolate
from strategies import convex_polygons


@pytest.fixture(scope="module")
def space():
    mesh = triangulate(unit_square(), refinements=2)
    return FeSpace(mesh, 2)


def test_eigmin_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = rng.normal(size=3)
        lam = eigmin_2x2(a, b, c)
        ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]])).min()
        assert abs(lam - ref) <= 1e-12 * (1 + abs(ref))


def test_analyze_paraboloid(space):
    u = interpolate(space, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    rep = analyze(u)
    assert np.allclose(rep.cell_min_lambda1, 1.0, atol=1e-12)
    assert np.allclose(rep.cell_min_det, 1.0, atol=1e-12)
    assert rep.convex and rep.strictly_convex


def test_analyze_cylinder_convex_not_strict(space):
    u = interpolate(space, lambda p: 0.5 * p[:, 0] ** 2)
    rep = analyze(u)
    assert abs(rep.global_min_lambda1) <= 1e-12
    assert abs(rep.global_min_det) <= 1e-12
    assert rep.convex and not rep.strictly_convex


@pytest.mark.parametrize("k", [2, 3, 4])
def test_analyze_samples_at_the_assembly_rule(k):
    sp = FeSpace(triangulate(unit_square(), refinements=1), k)
    rep = analyze(interpolate(sp, lambda p: p[:, 0] ** 2))
    assert rep.sample_order == sp.default_quadrature().order == 2 * k
    assert rep.global_min_lambda1 == pytest.approx(0.0, abs=1e-9)


def test_analyze_saddle(space):
    u = interpolate(space, lambda p: p[:, 0] * p[:, 1])
    rep = analyze(u)
    assert abs(rep.global_min_lambda1 + 1.0) <= 1e-12
    assert not rep.convex


def test_strictify_shifts_lambda1(space):
    u = interpolate(space, lambda p: np.exp(0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)))
    base = analyze(u)
    for eps in (1e-3, 1e-6, 1e-9):
        shifted = analyze(strictify(u, eps, x0=(0.5, 0.5)))
        assert abs(shifted.global_min_lambda1
                   - base.global_min_lambda1 - 2 * eps) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(convex_polygons(), st.sampled_from([1, 2]), st.sampled_from([2, 3]),
       st.floats(1e-9, 1e-1), st.integers(0, 2 ** 31))
def test_strictify_shifts_every_lambda1_on_random_polygons(polygon, level, k,
                                                           eps, seed):
    space = FeSpace(triangulate(polygon, refinements=level), k)
    rng = np.random.default_rng(seed)
    u = FeFunction(space, rng.standard_normal(space.num_dofs))
    base = analyze(u).cell_min_lambda1
    x0 = polygon.vertices.mean(axis=0) + rng.uniform(-0.1, 0.1, 2)
    shifted = analyze(strictify(u, eps, x0=x0)).cell_min_lambda1
    scale = 1.0 + np.max(np.abs(base))
    assert np.max(np.abs(shifted - base - 2.0 * eps)) <= 1e-13 * scale


def test_strictify_value_at_center_unchanged(space):
    u = interpolate(space, lambda p: p[:, 0] ** 2 - p[:, 1])
    x0 = np.array([[0.5, 0.5]])
    v = strictify(u, 1e-3, x0=(0.5, 0.5))
    assert abs(v(x0)[0] - u(x0)[0]) <= 1e-13


def test_strictify_zero_identity(space):
    u = interpolate(space, lambda p: p[:, 0] * p[:, 1])
    v = strictify(u, 0.0, x0=(0.3, 0.3))
    assert np.array_equal(v.coeffs, u.coeffs)


def test_strictify_additive(space):
    u = interpolate(space, lambda p: np.sin(p[:, 0] + p[:, 1]))
    x0 = (0.25, 0.75)
    ab = strictify(strictify(u, 1e-3, x0=x0), 2e-3, x0=x0)
    once = strictify(u, 3e-3, x0=x0)
    assert np.max(np.abs(ab.coeffs - once.coeffs)) <= 1e-14 * max(
        1.0, np.max(np.abs(once.coeffs)))


def test_strictify_rejects_negative(space):
    u = interpolate(space, lambda p: p[:, 0])
    with pytest.raises(ValueError):
        strictify(u, -1e-3, x0=(0.5, 0.5))


def test_report_json_roundtrip(space):
    u = interpolate(space, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    rep = analyze(u)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["convex"] is True
    assert "cell_min_lambda1" not in data  # per cell: attributes only
    assert rep.cell_min_lambda1.shape == (space.mesh.num_cells,)
    assert rep.cell_min_det.shape == (space.mesh.num_cells,)


def test_interior_cells_of_a_convex_quadratic(space):
    # every cell has lambda1 = 1, so the interior minimum is the global one
    u = interpolate(space, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    rep = analyze(u)
    mesh = space.mesh
    assert np.array_equal(
        rep.interior, ~mesh.boundary_vertex_mask[mesh.cells].any(axis=1))
    assert 0 < rep.interior.sum() < mesh.num_cells
    assert rep.interior_min_lambda1 == rep.global_min_lambda1


def test_interior_cells_apart_from_boundary_cells(space):
    # Pulling the boundary dofs down bends only the cells that hold one,
    # those with a boundary vertex, and leaves the interior cells' lambda1
    # at 1: the interior minimum stays 1 while the global one is negative.
    u = interpolate(space, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    u.coeffs[space.boundary_dofs] -= 1.0
    rep = analyze(u)
    assert rep.global_min_lambda1 < -1.0
    assert np.all(rep.cell_min_lambda1[~rep.interior] < 0.0)
    assert rep.interior_min_lambda1 == pytest.approx(1.0, abs=1e-9)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["global_min_lambda1"] == rep.global_min_lambda1
    assert data["interior_min_lambda1"] == rep.interior_min_lambda1
    assert data["convex"] is False


def test_no_interior_cell():
    # the unit square's fan mesh: all four cells touch the boundary
    space = FeSpace(triangulate(unit_square(), refinements=0), 2)
    u = interpolate(space, lambda p: p[:, 0] ** 2)
    rep = analyze(u)
    assert not rep.interior.any()
    assert rep.interior_min_lambda1 is None
    assert json.loads(json.dumps(rep.to_dict()))["interior_min_lambda1"] \
        is None
