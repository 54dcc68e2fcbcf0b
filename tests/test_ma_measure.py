"""Tests for normal mappings, Monge-Ampere measures and envelopes."""

import numpy as np
import pytest

from mafem import convexity, ma_measure as mm, mesh as meshmod
from mafem.errors import NonConvexInputError
from mafem.fespace import FeSpace, Quadrature, interpolate, phys_quad_points
from mafem.geometry import ConvexPolygon
from mafem.solver import newton_solve


def square_region(lo, hi):
    return ConvexPolygon(np.array([[lo[0], lo[1]], [hi[0], lo[1]],
                                   [hi[0], hi[1]], [lo[0], hi[1]]]))


def fan_cone(N, rim_value):
    """P1 cone on the fan of a regular N-gon: rim_value at rim, 0 at apex."""
    fan = meshmod.triangulate(meshmod.regular_polygon(N), refinements=0)
    vals = np.full(fan.num_vertices, float(rim_value))
    vals[N] = 0.0
    return mm.P1Function(fan, vals)


def support_cone(fan, Q):
    """Fan interpolant of max_j q_j . x, the support function of hull(Q).

    Convex by construction: it is the support function of the polygon cut
    out by the rim-direction halfplanes around hull(Q).
    """
    vals = np.max(fan.vertices @ np.asarray(Q).T, axis=1)
    vals[len(fan.vertices) - 1] = 0.0
    return mm.P1Function(fan, vals)


def centered_paraboloid(p):
    return 0.5 * ((p[..., 0] - 0.5) ** 2 + (p[..., 1] - 0.5) ** 2)


def bump(p):
    r2 = (p[..., 0] - 0.5) ** 2 + (p[..., 1] - 0.5) ** 2
    out = np.zeros_like(r2)
    m = r2 < 0.04
    out[m] = np.exp(-1.0 / (1.0 - r2[m] / 0.04) + 1.0)
    return out


@pytest.fixture(scope="module")
def square_mesh():
    return meshmod.triangulate(meshmod.unit_square(), refinements=2)


@pytest.fixture(scope="module")
def quad_space():
    return FeSpace(meshmod.triangulate(meshmod.unit_square(),
                                       refinements=3), 2)


@pytest.fixture(scope="module")
def fine_limit():
    space = FeSpace(meshmod.triangulate(meshmod.unit_square(),
                                        refinements=5), 2)
    return interpolate(space, centered_paraboloid)


@pytest.fixture(scope="module")
def flat_boundary_solve():
    space = FeSpace(meshmod.triangulate(meshmod.unit_square(),
                                        refinements=3), 2)
    f = lambda p: np.ones(len(np.atleast_2d(p)))
    g = lambda p: np.zeros(len(np.atleast_2d(p)))
    u, report = newton_solve(space, f, g)
    assert report.converged
    return u, f


@pytest.fixture(scope="module")
def unit_square_polygon():
    return meshmod.unit_square()


class TestP1Function:
    def test_needs_one_value_per_vertex(self, square_mesh):
        with pytest.raises(ValueError, match="per mesh vertex"):
            mm.P1Function(square_mesh, np.zeros(3))

    def test_rejects_non_finite(self, square_mesh):
        vals = np.zeros(square_mesh.num_vertices)
        vals[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mm.P1Function(square_mesh, vals)

    def test_affine_gradients_exact(self, square_mesh):
        vals = 2.0 * square_mesh.vertices[:, 0] - square_mesh.vertices[:, 1]
        v = mm.P1Function(square_mesh, vals)
        g = v.cell_gradients()
        assert np.max(np.abs(g - np.array([2.0, -1.0]))) <= 1e-13

    def test_evaluation_matches_nodal_values(self, square_mesh):
        vals = np.sin(3.0 * square_mesh.vertices[:, 0])
        v = mm.P1Function(square_mesh, vals)
        got = v(square_mesh.vertices)
        assert np.max(np.abs(got - vals)) <= 1e-12

    def test_point_outside_raises(self, square_mesh):
        v = mm.P1Function(square_mesh, np.zeros(square_mesh.num_vertices))
        with pytest.raises(ValueError, match="outside"):
            v(np.array([[2.0, 2.0]]))

    def test_interpolate_p1(self, square_mesh):
        v = mm.interpolate_p1(square_mesh, centered_paraboloid)
        assert np.max(np.abs(v.values
                             - centered_paraboloid(square_mesh.vertices))) == 0


class TestSubdifferential:
    def test_affine_polygon_is_a_point(self, square_mesh):
        vals = (0.7 * square_mesh.vertices[:, 0]
                + 0.1 * square_mesh.vertices[:, 1])
        v = mm.P1Function(square_mesh, vals)
        boundary = set(np.flatnonzero(square_mesh.boundary_vertex_mask))
        vertex = next(i for i in range(square_mesh.num_vertices)
                      if i not in boundary)
        poly = mm.subdifferential_p1(v, vertex)
        assert poly.area == 0.0
        assert np.max(np.ptp(poly.gradient_vertices, axis=0)) <= 1e-13
        assert "area" in repr(poly)

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_unit_gradient_cone_atom(self, N):
        # rim value cos(pi/N) makes every cell gradient a unit vector and
        # the apex atom the area of the regular N-gon of circumradius 1
        cone = fan_cone(N, np.cos(np.pi / N))
        norms = np.linalg.norm(cone.cell_gradients(), axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        atom = mm.subdifferential_p1(cone, N).area
        assert abs(atom - 0.5 * N * np.sin(2 * np.pi / N)) <= 1e-10

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_distance_cone_atom(self, N):
        # the interpolant of |x| instead has gradients of length
        # 1/cos(pi/N) and atom N*tan(pi/N), decreasing toward pi
        cone = fan_cone(N, 1.0)
        atom = mm.subdifferential_p1(cone, N).area
        assert abs(atom - N * np.tan(np.pi / N)) <= 1e-10

    def test_atoms_bracket_pi(self):
        lower = [mm.subdifferential_p1(fan_cone(N, np.cos(np.pi / N)), N).area
                 for N in (8, 16, 32)]
        upper = [mm.subdifferential_p1(fan_cone(N, 1.0), N).area
                 for N in (8, 16, 32)]
        assert lower[0] < lower[1] < lower[2] < np.pi
        assert upper[0] > upper[1] > upper[2] > np.pi

    def test_nonconvex_raises_with_edges(self, square_mesh):
        vals = (square_mesh.vertices[:, 0] ** 2
                - square_mesh.vertices[:, 1] ** 2)
        v = mm.P1Function(square_mesh, vals)
        with pytest.raises(NonConvexInputError, match="edges"):
            mm.subdifferential_p1(v, 4)

    def test_boundary_vertex_unsupported(self, square_mesh):
        v = mm.interpolate_p1(square_mesh, centered_paraboloid)
        vertex = int(np.flatnonzero(square_mesh.boundary_vertex_mask)[0])
        with pytest.raises(ValueError, match="boundary"):
            mm.subdifferential_p1(v, vertex)

    def test_vertex_out_of_range(self, square_mesh):
        # these used to give an empty polygon of area 0
        v = mm.interpolate_p1(square_mesh, centered_paraboloid)
        for vertex in (-1, square_mesh.num_vertices):
            with pytest.raises(ValueError, match="no vertex"):
                mm.subdifferential_p1(v, vertex)

    def test_atom_equals_gradient_hull_for_cones(self):
        # every supporting plane of a cone touches the apex, so the whole
        # normal-mapping image is the apex polygon
        rng = np.random.default_rng(42)
        fan = meshmod.triangulate(meshmod.regular_polygon(12), refinements=0)
        for _ in range(6):
            v = support_cone(fan, rng.uniform(-1.0, 1.0, size=(6, 2)))
            assert not mm.p1_convexity_violations(v)
            atom = mm.subdifferential_p1(v, 12).area
            assert abs(atom - mm.normal_mapping_hull_area(v)) <= 1e-8

    def test_refined_cone_keeps_mass_at_apex(self):
        cone = fan_cone(12, np.cos(np.pi / 12))
        ref = meshmod.refine_uniform(meshmod.refine_uniform(cone.mesh))
        v = mm.P1Function(ref, cone(ref.vertices))
        measure = mm.MaMeasure(v)
        total = sum(measure.atoms.values())
        assert abs(total - mm.normal_mapping_hull_area(v)) <= 1e-8
        carriers = [k for k, m in measure.atoms.items() if m > 1e-12]
        assert len(carriers) == 1
        assert np.linalg.norm(ref.vertices[carriers[0]]) <= 1e-12


class TestMaMeasure:
    def test_interpolant_atoms_approach_region_area(self):
        # vertex atoms lump density within about one mesh cell of the
        # region boundary, so the error is bounded by perimeter * h
        E = square_region((0.3, 0.3), (0.7, 0.7))
        sq = meshmod.unit_square()
        errs = []
        for r in (3, 4, 5):
            msh = meshmod.triangulate(sq, refinements=r)
            v = mm.interpolate_p1(msh, centered_paraboloid)
            total = mm.MaMeasure(v).total(E)
            err = abs(total - E.area)
            assert err <= 1.6 * msh.mesh_size()
            errs.append(err)
        assert errs[-1] <= 0.01

    def test_cone_atom_carries_the_region_total(self):
        # the cone's one atom, at its apex, is the area 4 sin(pi / 4) of
        # its octagonal gradient polygon, and a region around the apex
        # holds all of it
        cone = fan_cone(8, np.cos(np.pi / 8))
        measure = mm.MaMeasure(cone)
        E = square_region((-0.2, -0.2), (0.2, 0.2))
        total = sum(measure.atoms.values())
        assert abs(total - 4 * np.sin(np.pi / 4)) <= 1e-10
        assert measure.total(E) == total
        assert len(measure.atoms) == 1


    def test_kind_follows_the_input_type(self, quad_space):
        # a one-triangle mesh has no interior vertex, so no atoms
        tri = meshmod.triangulate(
            ConvexPolygon([[0, 0], [1, 0], [0, 1]]), refinements=0)
        # and P1 inputs are measured by their atoms alone; finite element
        # inputs have none and are measured by their density
        E = square_region((0.1, 0.1), (0.3, 0.3))
        p1 = mm.MaMeasure(mm.interpolate_p1(tri, centered_paraboloid))
        assert p1.atoms == {}
        assert p1.total(E) == 0.0
        u = interpolate(quad_space, centered_paraboloid)
        fe = mm.MaMeasure(u)
        assert fe.atoms == {}
        assert fe.total(E) == mm.partial_ma_measure(u, E) > 0.0


class TestPartialMeasure:
    def test_paraboloid_measures_area(self, quad_space):
        space = quad_space
        u = interpolate(space, centered_paraboloid)
        rng = np.random.default_rng(3)
        for _ in range(5):
            lo = rng.uniform(0.05, 0.4, size=2)
            hi = np.minimum(lo + rng.uniform(0.1, 0.5), 0.95)
            E = square_region(lo, hi)
            assert abs(mm.partial_ma_measure(u, E) - E.area) <= 1e-10

    def test_piecewise_linear_measures_zero(self, quad_space):
        E = square_region((0.3, 0.3), (0.7, 0.7))
        v = mm.interpolate_p1(quad_space.mesh,
                              lambda p: 0.3 * p[..., 0] + 1.0)
        assert mm.partial_ma_measure(v, E) == 0.0

    def test_constant_hessian_scales_area(self, quad_space):
        u = interpolate(quad_space,
                        lambda p: p[..., 0] ** 2 + 1.5 * p[..., 1] ** 2)
        E = square_region((0.3, 0.3), (0.7, 0.7))
        assert abs(mm.partial_ma_measure(u, E) - 6.0 * E.area) <= 1e-10

    def test_cubic_exactness(self):
        # degree 3 gives a quartic-free det on subcells handled by the
        # default quadrature: measure of x^3/6-like convex data
        space = FeSpace(meshmod.triangulate(meshmod.unit_square(),
                                            refinements=2), 3)
        u = interpolate(space, lambda p: (p[..., 0] ** 3 / 6.0
                                          + p[..., 1] ** 2))
        E = square_region((0.25, 0.25), (0.75, 0.75))
        # det D2u = 2x on E: integral = |E_y| * (x_hi^2 - x_lo^2)
        exact = 0.5 * (0.75 ** 2 - 0.25 ** 2)
        assert abs(mm.partial_ma_measure(u, E) - exact) <= 1e-10

    def test_additive_over_disjoint_regions(self, quad_space):
        u = interpolate(quad_space,
                        lambda p: p[..., 0] ** 2 + 1.5 * p[..., 1] ** 2)
        whole = square_region((0.3, 0.3), (0.7, 0.7))
        left = square_region((0.3, 0.3), (0.5, 0.7))
        right = square_region((0.5, 0.3), (0.7, 0.7))
        split = (mm.partial_ma_measure(u, left)
                 + mm.partial_ma_measure(u, right))
        assert abs(split - mm.partial_ma_measure(u, whole)) <= 1e-12

    def test_region_outside_raises(self, quad_space):
        u = interpolate(quad_space, centered_paraboloid)
        E = square_region((0.5, 0.5), (1.5, 1.5))
        with pytest.raises(ValueError, match="outside"):
            mm.partial_ma_measure(u, E)

    def test_negative_determinant_raises(self, quad_space):
        u = interpolate(quad_space,
                        lambda p: p[..., 0] ** 2 - p[..., 1] ** 2)
        E = square_region((0.3, 0.3), (0.7, 0.7))
        with pytest.raises(NonConvexInputError, match="det"):
            mm.partial_ma_measure(u, E)


class TestWeakConvergence:
    def test_refining_interpolants_monotone(self, fine_limit):
        seq = [mm.interpolate_p1(
            meshmod.triangulate(meshmod.unit_square(), refinements=r),
            centered_paraboloid) for r in (1, 2, 3, 4)]
        res = mm.weak_convergence_residual(seq, fine_limit, bump)
        assert all(b < a for a, b in zip(res, res[1:]))
        assert res[-1] <= 1e-3

    def test_strictify_shifts_by_closed_form(self):
        # det(D2v + 2*eps*I) - det(D2v) = 4*eps + 4*eps^2 when D2v = I
        space = FeSpace(meshmod.triangulate(meshmod.unit_square(),
                                            refinements=3), 2)
        v = interpolate(space, centered_paraboloid)
        quad = Quadrature(2 * space.degree + 2)
        pv = bump(phys_quad_points(space, quad).reshape(-1, 2)).reshape(
            space.mesh.num_cells, quad.num_points)
        int_p = float(np.sum(space.cell_areas * (pv @ quad.weights)))
        for eps in (1e-3, 1e-6, 1e-9):
            vs = convexity.strictify(v, eps, x0=(0.5, 0.5))
            res = mm.weak_convergence_residual([vs], v, bump)[0]
            assert abs(res - (4 * eps + 4 * eps ** 2) * int_p) <= 1e-9

    def test_boundary_supported_test_field_raises(self, fine_limit):
        with pytest.raises(ValueError, match="boundary"):
            mm.weak_convergence_residual(
                [fine_limit], fine_limit,
                lambda p: np.ones(len(np.atleast_2d(p))))


class TestAleksandrovBound:
    def test_nonpositive_slack(self, flat_boundary_solve):
        u, f = flat_boundary_solve
        slack = mm.aleksandrov_bound(u, f, meshmod.unit_square())
        assert slack <= 1e-12

    def test_homogeneity_exact(self, flat_boundary_solve):
        u, f = flat_boundary_solve
        poly = meshmod.unit_square()
        s1 = mm.aleksandrov_bound(u, f, poly)
        u2 = u.copy()
        u2.coeffs *= 2.0
        s4 = mm.aleksandrov_bound(
            u2, lambda p: 4.0 * np.asarray(f(p)), poly)
        assert s4 == pytest.approx(4.0 * s1, rel=1e-12, abs=0.0)

    def test_function_above_floor_gives_nonpositive_slack(self):
        space = FeSpace(meshmod.triangulate(meshmod.unit_square(),
                                            refinements=2), 2)
        u = interpolate(space, centered_paraboloid)
        slack = mm.aleksandrov_bound(
            u, lambda p: np.ones(len(np.atleast_2d(p))),
            meshmod.unit_square())
        assert slack <= 0.0

    def test_negative_density_rejected(self, flat_boundary_solve):
        u, _ = flat_boundary_solve
        with pytest.raises(ValueError, match="nonnegative"):
            mm.aleksandrov_bound(
                u, lambda p: -np.ones(len(np.atleast_2d(p))),
                meshmod.unit_square())


class TestBoundaryEnvelope:
    def test_convex_traces_reproduced(self, unit_square_polygon):
        traces = [
            lambda p: (p[..., 0] - 0.3) ** 2 + (p[..., 1] - 0.7) ** 2,
            lambda p: 0.7 * p[..., 0] - 0.2 * p[..., 1] + 0.1,
            lambda p: np.abs(p[..., 0] - 0.5) + np.abs(p[..., 1] - 0.5),
            lambda p: np.exp(p[..., 0] + 0.5 * p[..., 1]),
            lambda p: np.maximum(p[..., 0], p[..., 1]),
        ]
        for b in traces:
            env = mm.convex_envelope_boundary(unit_square_polygon, b, per_edge=40)
            gap = env(env.samples) - env.values
            assert np.max(np.abs(gap)) <= 1e-9
            assert np.max(gap) <= 1e-12

    def test_constant_trace_unchanged(self, unit_square_polygon):
        env = mm.convex_envelope_boundary(
            unit_square_polygon, lambda p: np.full(len(np.atleast_2d(p)), 2.5),
            per_edge=8)
        pts = np.array([[0.5, 0.5], [0.1, 0.9], [0.0, 0.0]])
        assert np.max(np.abs(env(pts) - 2.5)) <= 1e-12

    def test_saddle_trace_flattens_concave_direction(self, unit_square_polygon):
        # trace (x-1/2)^2 - (y-1/2)^2: the envelope drops the concave
        # y-direction, giving (x-1/2)^2 - 1/4 inside and 0 on the
        # vertical edges
        b = lambda p: (p[..., 0] - 0.5) ** 2 - (p[..., 1] - 0.5) ** 2
        env = mm.convex_envelope_boundary(unit_square_polygon, b, per_edge=64)
        samp = unit_square_polygon.boundary_samples(200)
        on_vertical = (np.isclose(samp[:, 0], 0.0)
                       | np.isclose(samp[:, 0], 1.0))
        exact = np.where(on_vertical, 0.0, (samp[:, 0] - 0.5) ** 2 - 0.25)
        assert np.max(np.abs(env(samp) - exact)) <= 1e-4
        inner = np.array([[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]])
        assert np.max(np.abs(env(inner)
                             - ((inner[:, 0] - 0.5) ** 2 - 0.25))) <= 1e-4

    def test_saddle_resolution_refines_quadratically(self, unit_square_polygon):
        b = lambda p: (p[..., 0] - 0.5) ** 2 - (p[..., 1] - 0.5) ** 2
        samp = unit_square_polygon.boundary_samples(200)
        on_vertical = (np.isclose(samp[:, 0], 0.0)
                       | np.isclose(samp[:, 0], 1.0))
        exact = np.where(on_vertical, 0.0, (samp[:, 0] - 0.5) ** 2 - 0.25)
        errs = [np.max(np.abs(mm.convex_envelope_boundary(
            unit_square_polygon, b, per_edge=pe)(samp) - exact))
            for pe in (16, 32, 64)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] <= 0.3 * errs[0]

    def test_single_vertex_spike_stays_on_hull(self, unit_square_polygon):
        # b = 1 at (0,0) decaying linearly along the edges stays extreme,
        # so the envelope keeps the vertex value
        def b(p):
            p = np.atleast_2d(p)
            return np.maximum(1.0 - p[..., 0] - p[..., 1], 0.0) * (
                np.isclose(p[..., 0], 0.0) | np.isclose(p[..., 1], 0.0))
        env = mm.convex_envelope_boundary(unit_square_polygon, b, per_edge=41)
        assert abs(env(np.array([[0.0, 0.0]])) - 1.0)[0] <= 1e-12
        assert abs(env(np.array([[0.1, 0.0]])) - 0.9)[0] <= 1e-12

    def test_too_few_samples_rejected(self, unit_square_polygon):
        with pytest.raises(ValueError, match="3 samples"):
            mm.convex_envelope_boundary(unit_square_polygon, lambda p: p[..., 0],
                                        per_edge=2)

