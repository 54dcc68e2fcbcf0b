import numpy as np
import pytest

from mafem import triangulate, regular_polygon
from mafem.assembly import element_layer
from mafem.fespace import FeSpace, interpolate
from mafem import kernels


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
