import numpy as np
import pytest

from mafem import (get_problem, ma_measure, refine_uniform, regular_polygon,
                   study, triangulate, unit_square)
from mafem.fespace import (
    FeFunction,
    FeSpace,
    Quadrature,
    bary_lattice,
    broken_error_h2,
    eval_field,
    interpolate,
    l2_error,
    phys_quad_points,
    sup_error,
)


@pytest.fixture(scope="module")
def mesh():
    return triangulate(unit_square(), h_target=0.5)


class TestQuadrature:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 8])
    def test_monomials_exact(self, order):
        assert Quadrature(order).monomial_defect() < 1e-14

    def test_weights(self):
        q = Quadrature(6)
        assert np.all(q.weights > 0)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_points_inside(self):
        q = Quadrature(8)
        assert np.all(q.points > 0) and np.all(q.points < 1)


class TestFeSpace:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_local_dof_count(self, mesh, k):
        sp = FeSpace(mesh, k)
        assert sp.cell_dofs.shape[1] == (k + 1) * (k + 2) // 2

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_conformity(self, mesh, k):
        # a random member agrees from both sides of every interior edge
        sp = FeSpace(mesh, k)
        coeffs = np.random.default_rng(0).standard_normal(sp.num_dofs)
        _, owners, _, _ = mesh.interior_edges()
        val = sp.interior_edge_tables(np.linspace(0.0, 1.0, 2 * (k + 1)),
                                      "val")
        vals = np.einsum("estl,esl->est", val, coeffs[sp.cell_dofs[owners]])
        assert len(owners) > 0
        assert np.max(np.abs(vals[:, 0] - vals[:, 1])) < 1e-10

    def test_degree_below_two_rejected(self, mesh):
        with pytest.raises(ValueError):
            FeSpace(mesh, 1)

    def test_boundary_dofs_on_boundary(self, mesh):
        sp = FeSpace(mesh, 3)
        xy = sp.dof_coords[sp.boundary_dofs]
        on_edge = (np.isclose(xy, 0.0) | np.isclose(xy, 1.0)).any(axis=1)
        assert on_edge.all()
        assert len(sp.boundary_dofs) + len(sp.interior_dofs) == sp.num_dofs


class TestInterpolate:
    def test_quadratic_reproduced(self, mesh):
        sp = FeSpace(mesh, 2)
        u = lambda p: p[:, 0] ** 2 + 3 * p[:, 0] * p[:, 1]
        uh = interpolate(sp, u)
        pts = np.random.default_rng(1).random((50, 2))
        assert np.max(np.abs(uh(pts) - u(pts))) < 1e-12

    def test_constant(self, mesh):
        uh = interpolate(FeSpace(mesh, 2), lambda p: np.full(len(p), 7.0))
        assert np.all(uh.coeffs == 7.0)

    def test_projection(self, mesh):
        sp = FeSpace(mesh, 3)
        uh = interpolate(sp, lambda p: np.sin(p[:, 0]) * np.cosh(p[:, 1]))
        again = interpolate(sp, uh)
        assert np.array_equal(uh.coeffs, again.coeffs)

    def test_nonfinite_rejected(self, mesh):
        sp = FeSpace(mesh, 2)
        with pytest.raises(ValueError):
            interpolate(sp, lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0))

    @pytest.mark.parametrize("k,expected", [(2, 3.0), (3, 4.0)])
    def test_l2_convergence_rate(self, k, expected):
        u = lambda p: np.exp(0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
        m = triangulate(unit_square())
        errs, hs = [], []
        for _ in range(4):
            m = refine_uniform(m)
            sp = FeSpace(m, k)
            errs.append(l2_error(interpolate(sp, u), u))
            hs.append(m.mesh_size())
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(expected, abs=0.2)


def _lattice_tables(space, order=10):
    """Reference tabulation on the barycentric lattice of the given order."""
    return space.ref.tabulate(bary_lattice(order)[0][:, 1:])


class TestBrokenNorms:
    """Cellwise norms of interpolants, evaluated on the element layer."""

    def test_l2_of_x(self, mesh):
        v = interpolate(FeSpace(mesh, 2), lambda p: p[:, 0])
        assert l2_error(v, lambda p: np.zeros(len(p))) == pytest.approx(
            1 / np.sqrt(3), abs=1e-12)

    def test_linear_has_zero_hessian(self, mesh):
        v = interpolate(FeSpace(mesh, 2), lambda p: 2 * p[:, 0] - p[:, 1] + 1)
        assert np.abs(v.cell_hessians(v.space.error_quadrature())).max() < 1e-10
        assert np.abs(v.cellwise("hess", _lattice_tables(v.space))).max() < 1e-10

    def test_quadratic_h2_seminorm(self, mesh):
        v = interpolate(FeSpace(mesh, 2),
                        lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
        quad = v.space.error_quadrature()
        d = v.cell_hessians(quad)
        dens = d[..., 0] ** 2 + 2 * d[..., 1] ** 2 + d[..., 2] ** 2
        assert np.sqrt(v.space.integrate(dens, quad)) == pytest.approx(
            np.sqrt(2), abs=1e-10)

    def test_sup_norm(self, mesh):
        v = interpolate(FeSpace(mesh, 2), lambda p: p[:, 0])
        assert np.abs(v.cellwise("val", _lattice_tables(v.space))).max() \
            == pytest.approx(1.0, abs=1e-12)


def _seminorm_inf_oracle(v, t, sample_order=10):
    """Max of |D^t v| over the order-10 lattice of every cell, written
    without the cellwise evaluator."""
    space = v.space
    pts = bary_lattice(sample_order)[0][:, 1:]
    tab = space.ref.tabulate(pts)
    local = v.coeffs[space.cell_dofs]
    if t == 0:
        return float(np.abs(local @ tab["val"].T).max())
    if t == 1:
        g_ref = np.einsum("cj,qjd->cqd", local, tab["grad"])
        g = np.einsum("cji,cqj->cqi", space.cell_jinv, g_ref)
        return float(np.abs(g).max())
    h_ref = np.einsum("cj,qjm->cqm", local, tab["hess"])
    h = np.einsum("...ab,...b->...a", space.cell_hess_push[:, None], h_ref)
    return float(np.abs(h).max())


def _cell_hessians_oracle(v, quad):
    """FeFunction.cell_hessians as written before the cellwise evaluator."""
    space = v.space
    tab = space.tables(quad)["hess"]
    h_ref = np.einsum("cj,qjm->cqm", v.coeffs[space.cell_dofs], tab)
    return np.einsum("...ab,...b->...a", space.cell_hess_push[:, None], h_ref)


def _nan_at_first(p):
    """A positive field that is NaN at the first of the points it is given."""
    p = np.atleast_2d(p)
    out = 1.0 + p[:, 0] ** 2
    out[0] = np.nan
    return out


class TestEvaluationLayer:
    @pytest.mark.parametrize("k", [2, 3])
    def test_rules_cached_per_order(self, mesh, k):
        space = FeSpace(mesh, k)
        for order in (2, 4, 2 * k, 2 * k + 2):
            assert space.quadrature(order) is space.quadrature(order)
            assert space.quadrature(order).order == order
        assert space.default_quadrature() is space.quadrature(2 * k)
        assert space.error_quadrature() is space.quadrature(2 * k + 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_tables_cache_points_and_weights(self, mesh, k):
        space = FeSpace(mesh, k)
        quad = space.error_quadrature()
        tab = space.tables(quad)
        assert space.tables(quad) is tab
        xy = mesh.cell_coords()
        for c in (0, mesh.num_cells - 1):
            assert np.allclose(tab["points"][c], quad.points @ xy[c],
                               rtol=0, atol=1e-15)
            assert np.array_equal(tab["weights"][c],
                                  space.cell_areas[c] * quad.weights)
        assert phys_quad_points(space, quad) is tab["points"]
        for arr in tab.values():
            assert not arr.flags.writeable

    @pytest.mark.parametrize("k", [2, 3])
    def test_integrate_one_is_area(self, k):
        poly = regular_polygon(5)
        space = FeSpace(triangulate(poly, refinements=1), k)
        quad = space.error_quadrature()
        ones = np.ones((space.mesh.num_cells, quad.num_points))
        assert space.integrate(ones, quad) == pytest.approx(poly.area,
                                                             rel=1e-14)

    @pytest.mark.parametrize("k", [2, 3])
    def test_integrate_exact_to_degree_2k_plus_2(self, mesh, k):
        space = FeSpace(mesh, k)
        quad = space.error_quadrature()
        n = 2 * k + 2
        for a in range(n + 1):
            b = n - a
            dens = space.sample(lambda p: p[:, 0] ** a * p[:, 1] ** b, quad)
            exact = 1.0 / ((a + 1) * (b + 1))  # over the unit square
            assert space.integrate(dens, quad) == pytest.approx(exact,
                                                                rel=1e-13)

    def test_sample_shapes(self, mesh):
        space = FeSpace(mesh, 2)
        quad = space.error_quadrature()
        nc, nq = mesh.num_cells, quad.num_points
        assert space.sample(lambda p: p[:, 0], quad).shape == (nc, nq)
        assert space.sample(lambda p: 2 * p, quad).shape == (nc, nq, 2)

    def test_sample_rejects_nonfinite(self, mesh):
        space = FeSpace(mesh, 2)
        with pytest.raises(ValueError, match="not finite"):
            space.sample(_nan_at_first, space.error_quadrature())

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_previous_evaluators(self, k):
        space = FeSpace(triangulate(regular_polygon(6), refinements=2), k)
        rng = np.random.default_rng(k)
        v = FeFunction(space, rng.standard_normal(space.num_dofs))
        tab = _lattice_tables(space)
        for t, key in enumerate(("val", "grad", "hess")):
            ref = _seminorm_inf_oracle(v, t)
            assert np.abs(v.cellwise(key, tab)).max() == pytest.approx(
                ref, rel=1e-13)
        for quad in (space.default_quadrature(), space.error_quadrature()):
            ref = _cell_hessians_oracle(v, quad)
            got = v.cell_hessians(quad)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestNonFiniteFields:
    """A field that is NaN at one point is rejected, not integrated."""

    @pytest.fixture(scope="class")
    def u(self):
        space = FeSpace(triangulate(unit_square(), refinements=2), 2)
        return interpolate(space, lambda p: 0.5 * (p[:, 0] ** 2
                                                   + p[:, 1] ** 2))

    def test_l2_error(self, u):
        with pytest.raises(ValueError, match="not finite"):
            l2_error(u, _nan_at_first)

    def test_broken_error_h2(self, u):
        grad = lambda p: np.asarray(p, dtype=float)
        hess = lambda p: np.tile([1.0, 0.0, 1.0], (len(p), 1))
        with pytest.raises(ValueError, match="not finite"):
            broken_error_h2(u, _nan_at_first, grad, hess)

    def test_measure_pairing(self, u):
        with pytest.raises(ValueError, match="not finite"):
            ma_measure.measure_pairing(u, _nan_at_first)

    def test_aleksandrov_bound(self, u):
        with pytest.raises(ValueError, match="not finite"):
            ma_measure.aleksandrov_bound(u, _nan_at_first, unit_square())

    def test_measure_verification(self, u):
        problem = get_problem("smooth")
        problem.f = _nan_at_first
        with pytest.raises(ValueError, match="not finite"):
            study.run_measure_verification(problem, u)

    def test_interior_support(self, u):
        # zero on the boundary but for one NaN sample
        def field(p):
            return np.where(np.arange(len(p)) == 0, np.nan, 0.0)

        with pytest.raises(ValueError, match="not finite"):
            ma_measure.check_interior_support(u, field)

    def test_p1_measure_pairing(self):
        v = ma_measure.interpolate_p1(
            triangulate(unit_square(), refinements=2),
            lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
        calls = []

        def field(p):
            calls.append(len(p))
            return _nan_at_first(p)

        with pytest.raises(ValueError, match="not finite"):
            ma_measure.measure_pairing(v, field)
        # every atom vertex in one call
        assert calls == [len(ma_measure.MaMeasure(v).atoms)]


class TestEvaluation:
    def test_gradient_and_hessian(self, mesh):
        sp = FeSpace(mesh, 3)
        v = interpolate(sp, lambda p: p[:, 0] ** 3 + p[:, 0] * p[:, 1])
        pts = np.array([[0.3, 0.4], [0.8, 0.1]])
        g = v.gradient(pts)
        assert np.allclose(g[:, 0], 3 * pts[:, 0] ** 2 + pts[:, 1], atol=1e-11)
        assert np.allclose(g[:, 1], pts[:, 0], atol=1e-11)
        h = v.hessian(pts)
        assert np.allclose(h[:, 0], 6 * pts[:, 0], atol=1e-10)
        assert np.allclose(h[:, 1], 1.0, atol=1e-10)
        assert np.allclose(h[:, 2], 0.0, atol=1e-10)

    @pytest.mark.parametrize("k", [2, 3])
    def test_nodal_values_at_all_dofs(self, mesh, k):
        # one batched call over points spread across every cell
        sp = FeSpace(mesh, k)
        v = FeFunction(sp, np.random.default_rng(3).standard_normal(
            sp.num_dofs))
        assert np.abs(v(sp.dof_coords) - v.coeffs).max() <= 1e-12

    def test_single_point_scalar(self, mesh):
        v = interpolate(FeSpace(mesh, 2), lambda p: p[:, 1])
        assert v(np.array([0.2, 0.7])) == pytest.approx(0.7, abs=1e-13)

    def test_point_outside_rejected(self, mesh):
        v = FeFunction(FeSpace(mesh, 2))
        with pytest.raises(ValueError):
            v(np.array([[3.0, 3.0]]))

    def test_sup_error_zero_for_reproduced(self, mesh):
        sp = FeSpace(mesh, 2)
        u = lambda p: p[:, 0] * p[:, 1]
        pts = np.random.default_rng(5).random((40, 2))
        assert sup_error(interpolate(sp, u), u, pts) < 1e-13


class TestEvalField:
    pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])

    def test_vectorized_callable_at_two_points(self):
        calls = []

        def f(p):
            calls.append(np.array(p))
            return p[:, 0] ** 2 + p[:, 1]

        v = eval_field(f, self.pts[:2])
        assert np.array_equal(v, self.pts[:2, 0] ** 2 + self.pts[:2, 1])
        assert len(calls) == 1

    @pytest.mark.parametrize("f", [
        lambda p: p[0] ** 2 + p[1],  # written for one point: rows, not points
        lambda p: np.sum(np.atleast_2d(p) ** 2),  # one scalar for all points
        lambda p: p[:, :1],  # (n, 1)
        lambda p: np.ones((len(p), 3, 3)),  # (n, 3, 3)
    ], ids=["scalar_only", "scalar_result", "n_by_1", "rank_3"])
    def test_outside_the_contract_raises(self, f):
        with pytest.raises(ValueError, match="a field maps"):
            eval_field(f, self.pts)

    def test_genuine_error_propagates_without_retry(self):
        calls = []

        def broken(p):
            calls.append(len(np.atleast_2d(p)))
            raise ZeroDivisionError("bad data")

        with pytest.raises(ZeroDivisionError, match="bad data"):
            eval_field(broken, self.pts)
        assert calls == [3]


class TestSerialization:
    def test_round_trip(self, tmp_path, mesh):
        sp = FeSpace(mesh, 3)
        v = interpolate(sp, lambda p: np.exp(p[:, 0] - p[:, 1] ** 2))
        mesh.save(tmp_path / "m.txt")
        v.save(tmp_path / "v.txt", "m.txt")
        back = FeFunction.load(tmp_path / "v.txt")
        assert back.space.degree == 3
        assert np.array_equal(back.coeffs, v.coeffs)

    def test_nonfinite_coeffs_rejected(self, mesh):
        sp = FeSpace(mesh, 2)
        bad = np.zeros(sp.num_dofs)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            FeFunction(sp, bad)
