import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mafem import triangulate, regular_polygon
from mafem.assembly import element_layer
from mafem.fespace import FeSpace, interpolate
from mafem import kernels
from strategies import convex_polygons


@pytest.fixture(scope="module")
def setup():
    mesh = triangulate(regular_polygon(5), h_target=0.6)
    space = FeSpace(mesh, 3)
    quad = space.default_quadrature()
    tab = space.tables(quad)
    return space, quad, tab


class TestNumpyPath:
    def test_hessian_of_quadratic(self, setup):
        space, quad, tab = setup
        v = interpolate(space, lambda p: 0.5 * p[:, 0] ** 2 + p[:, 0] * p[:, 1])
        h = kernels.hessians_at_qpts(v.coeffs[space.cell_dofs], tab["hess"],
                                     space.cell_hess_push)
        assert np.allclose(h[..., 0], 1.0, atol=1e-11)
        assert np.allclose(h[..., 1], 1.0, atol=1e-11)
        assert np.allclose(h[..., 2], 0.0, atol=1e-11)

    def test_load_constant_sums_to_area(self, setup):
        space, quad, tab = setup
        ones = np.ones((space.mesh.num_cells, quad.num_points))
        b = kernels.load_cells(ones, element_layer(space).wphi)
        # partition of unity: row sums integrate 1 over each cell
        assert np.allclose(b.sum(axis=1), space.cell_areas, atol=1e-13)

    @settings(max_examples=10, deadline=None)
    @given(convex_polygons(), st.sampled_from([0, 1, 2]),
           st.sampled_from([2, 3, 4]))
    def test_stiffness_matches_gradient_contraction(self, polygon, level, k):
        space = FeSpace(triangulate(polygon, refinements=level), k)
        quad = space.default_quadrature()
        ref_grad = space.tables(quad)["grad"]
        jinv, areas = space.cell_jinv, space.cell_areas
        got = kernels.stiffness_cells(ref_grad, jinv, quad.weights, areas)
        g = np.einsum("cji,qlj->cqli", jinv, ref_grad)
        ref = np.einsum("c,q,cqid,cqjd->cij", areas, quad.weights, g, g)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
