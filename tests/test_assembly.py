import os

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from scipy.special import roots_legendre

from mafem import regular_polygon, triangulate, unit_square
from mafem.assembly import (
    apply_boundary,
    fd_jacobian,
    gradient_jump_matrix,
    gradient_jump_seminorm,
    jacobian,
    linearized_operator_check,
    load_vector,
    residual,
    stiffness_matrix,
)
from mafem.assembly import _assemble_jump_matrix, element_layer, f_at_qpts
from mafem.fespace import FeFunction, FeSpace, Quadrature, interpolate
from mafem.geometry import ConvexPolygon
from mafem.mesh import Mesh


def paraboloid(p):
    p = np.atleast_2d(p)
    return 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)


def two_cell_mesh():
    """Unit square split along the main diagonal."""
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    cells = [[0, 1, 2], [0, 2, 3]]
    bedges = [[0, 1], [1, 2], [2, 3], [3, 0]]
    return Mesh(verts, cells, bedges, [0, 1, 2, 3])


def per_edge_jump_matrix(space):
    """Reference Q, one interior edge at a time.

    Finds each edge's two cells by a scan over the cells, maps the edge
    Gauss points into each cell through its inverse affine map and
    tabulates there.
    """
    mesh = space.mesh
    xg, wg = roots_legendre(space.degree + 1)
    t, wt = 0.5 * (xg + 1.0), 0.5 * wg
    shared = {}
    for c, cell in enumerate(mesh.cells):
        for e in range(3):
            key = tuple(sorted((int(cell[e]), int(cell[(e + 1) % 3]))))
            shared.setdefault(key, []).append(c)
    Q = np.zeros((space.num_dofs, space.num_dofs))
    for (ia, ib), cells in shared.items():
        if len(cells) != 2:
            continue
        a, b = mesh.vertices[ia], mesh.vertices[ib]
        pts = a + t[:, None] * (b - a)
        nrm = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
        rows, idx = [], []
        for c, sign in zip(cells, (1.0, -1.0)):
            ref = (pts - mesh.vertices[mesh.cells[c, 0]]) @ space.cell_jinv[c].T
            grad = space.ref.tabulate(ref)["grad"] @ space.cell_jinv[c]
            rows.append(sign * grad @ nrm)
            idx.append(space.cell_dofs[c])
        B, idx = np.hstack(rows), np.concatenate(idx)
        np.add.at(Q, (idx[:, None], idx[None, :]), (B.T * wt) @ B)
    return Q


@st.composite
def convex_polygons(draw):
    """3 to 8 vertices on an ellipse, at angles at least 0.3 apart."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n,
                                  max_size=n)))
    theta = np.cumsum(gaps / gaps.sum() * 2.0 * np.pi)
    ax = draw(st.floats(0.5, 2.0))
    ay = draw(st.floats(0.5, 2.0))
    return ConvexPolygon(np.column_stack([ax * np.cos(theta),
                                          ay * np.sin(theta)]))


@pytest.fixture(scope="module")
def mesh():
    return triangulate(unit_square(), refinements=2)


@pytest.fixture(scope="module")
def space(mesh):
    return FeSpace(mesh, 2)


def dense_residual_oracle(u_h, f):
    """Per-entry quadrature oracle at order 4k via the tabulation path.

    Integrates (det D2u_h - f) phi_i cell by cell with plain einsum at a
    quadrature of twice the default order, independently of the assembly
    kernels.
    """
    space = u_h.space
    quad = Quadrature(4 * space.degree)
    hess = u_h.cell_hessians(quad)
    det = hess[..., 0] * hess[..., 2] - hess[..., 1] ** 2
    pts = np.einsum("qv,cvx->cqx", quad.points, space.mesh.cell_coords())
    fq = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(det.shape)
    val = space.tables(quad)["val"]
    cell_r = np.einsum("c,cq,q,ql->cl", space.cell_areas, det - fq,
                       quad.weights, val)
    full = np.zeros(space.num_dofs)
    np.add.at(full, space.cell_dofs, cell_r)
    return full[space.interior_dofs]


def _old_hessians(local, ref_hess, jinv):
    h = np.einsum("cj,qjm->cqm", local, ref_hess)
    a00 = jinv[:, None, 0, 0]
    a01 = jinv[:, None, 0, 1]
    a10 = jinv[:, None, 1, 0]
    a11 = jinv[:, None, 1, 1]
    h0, h1, h2 = h[..., 0], h[..., 1], h[..., 2]
    out = np.empty_like(h)
    out[..., 0] = a00 * a00 * h0 + 2 * a00 * a10 * h1 + a10 * a10 * h2
    out[..., 1] = a00 * a01 * h0 + (a00 * a11 + a01 * a10) * h1 + a10 * a11 * h2
    out[..., 2] = a01 * a01 * h0 + 2 * a01 * a11 * h1 + a11 * a11 * h2
    return out


def old_path_residual(u_h, f):
    """Reference residual, independent of the cached element layer.

    Hessians pushed forward by the explicit A^T H A formula, one einsum
    per cell vector and np.add.at into the full vector.
    """
    space = u_h.space
    quad = Quadrature(2 * space.degree)
    tab = space.tables(quad)
    hess = _old_hessians(u_h.coeffs[space.cell_dofs], tab["hess"],
                         space.cell_jinv)
    pts = np.einsum("qj,cjd->cqd", quad.points, space.mesh.cell_coords())
    fq = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(hess.shape[:2])
    det = hess[..., 0] * hess[..., 2] - hess[..., 1] ** 2
    cell_r = np.einsum("c,cq,q,qi->ci", space.cell_areas, det - fq,
                       quad.weights, tab["val"])
    full = np.zeros(space.num_dofs)
    np.add.at(full, space.cell_dofs, cell_r)
    return full[space.interior_dofs]


def old_path_jacobian(u_h):
    """Reference Jacobian, independent of the cached element layer.

    Every basis Hessian pushed forward per cell, blocks scattered through
    a COO matrix over all dofs, then sliced to the interior.
    """
    space = u_h.space
    quad = Quadrature(2 * space.degree)
    tab = space.tables(quad)
    jinv = space.cell_jinv
    hess = _old_hessians(u_h.coeffs[space.cell_dofs], tab["hess"], jinv)
    a00 = jinv[:, None, None, 0, 0]
    a01 = jinv[:, None, None, 0, 1]
    a10 = jinv[:, None, None, 1, 0]
    a11 = jinv[:, None, None, 1, 1]
    r0, r1, r2 = (tab["hess"][None, :, :, m] for m in range(3))
    bxx = a00 * a00 * r0 + 2 * a00 * a10 * r1 + a10 * a10 * r2
    bxy = a00 * a01 * r0 + (a00 * a11 + a01 * a10) * r1 + a10 * a11 * r2
    byy = a01 * a01 * r0 + 2 * a01 * a11 * r1 + a11 * a11 * r2
    contr = (hess[..., 2, None] * bxx - 2 * hess[..., 1, None] * bxy
             + hess[..., 0, None] * byy)
    blocks = np.einsum("c,q,qi,cqj->cij", space.cell_areas, quad.weights,
                       tab["val"], contr)
    nloc = space.cell_dofs.shape[1]
    rows = np.repeat(space.cell_dofs, nloc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nloc)).ravel()
    full = sparse.coo_matrix((blocks.ravel(), (rows, cols)),
                             shape=(space.num_dofs, space.num_dofs)).tocsr()
    idx = space.interior_dofs
    return full[idx][:, idx]


class TestElementLayer:
    @settings(max_examples=8, deadline=None)
    @given(convex_polygons(), st.sampled_from([1, 2]),
           st.sampled_from([2, 3]), st.integers(0, 2 ** 31))
    def test_matches_old_path(self, polygon, level, k, seed):
        space = FeSpace(triangulate(polygon, refinements=level), k)
        rng = np.random.default_rng(seed)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        f = lambda p: 1.0 + np.atleast_2d(p)[:, 0] ** 2
        ref = old_path_residual(u, f)
        r = residual(u, f).values
        assert np.abs(r - ref).max() <= 1e-13 * np.abs(ref).max()
        ref = old_path_jacobian(u).toarray()
        J = jacobian(u).toarray()
        assert np.abs(J - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("k", [2, 3])
    def test_default_quadrature_is_cached(self, k):
        space = FeSpace(two_cell_mesh(), k)
        quad = space.default_quadrature()
        assert space.default_quadrature() is quad
        fresh = Quadrature(2 * k)
        assert quad.order == fresh.order == 2 * k
        assert np.array_equal(quad.points, fresh.points)
        assert np.array_equal(quad.weights, fresh.weights)
        with pytest.raises(ValueError):
            quad.weights[0] = 1.0

    def test_built_once_per_space(self, space):
        el = element_layer(space)
        u = interpolate(space, paraboloid)
        residual(u, lambda p: np.ones(len(p)))
        jacobian(u)
        assert element_layer(space) is el
        assert element_layer(FeSpace(space.mesh, 2)) is not el

    def test_samples_stand_in_for_f(self, space):
        rng = np.random.default_rng(5)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        f = lambda p: 2.0 + np.sin(np.atleast_2d(p)[:, 0])
        fq = f_at_qpts(space, f)
        assert fq.shape == (space.mesh.num_cells,
                            space.default_quadrature().num_points)
        assert np.array_equal(residual(u, fq).values, residual(u, f).values)
        assert np.array_equal(load_vector(space, fq), load_vector(space, f))
        with pytest.raises(ValueError, match="shape"):
            residual(u, fq[:, :-1])


class TestResidual:
    def test_exact_paraboloid_zero(self, space):
        u = interpolate(space, paraboloid)
        r = residual(u, lambda p: np.ones(len(np.atleast_2d(p))))
        assert r.norm(np.inf) <= 1e-12

    def test_affine_zero(self, space):
        u = interpolate(space, lambda p: 1.0 + 2.0 * np.atleast_2d(p)[:, 0]
                        - 3.0 * np.atleast_2d(p)[:, 1])
        r = residual(u, lambda p: np.zeros(len(np.atleast_2d(p))))
        assert r.norm(np.inf) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_dense_quadrature_oracle(self, k):
        space = FeSpace(two_cell_mesh(), k)
        rng = np.random.default_rng(7)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        f = lambda p: 1.0 + np.atleast_2d(p)[:, 0]
        r = residual(u, f)
        assert np.max(np.abs(r.values - dense_residual_oracle(u, f))) <= 1e-10

    def test_entry_quadratic_in_coefficient(self, space):
        # det D2u is quadratic in the coefficients for k=2, so each entry
        # matches the parabola through three samples exactly.
        rng = np.random.default_rng(3)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        f = lambda p: np.ones(len(np.atleast_2d(p)))
        dof = int(space.interior_dofs[4])
        entry = 2
        samples = []
        for tshift in (-1.0, 0.0, 1.0):
            w = u.copy()
            w.coeffs[dof] += tshift
            samples.append(residual(w, f).values[entry])
        coef = np.polyfit([-1.0, 0.0, 1.0], samples, 2)
        w = u.copy()
        w.coeffs[dof] += 0.37
        predicted = np.polyval(coef, 0.37)
        assert abs(residual(w, f).values[entry] - predicted) <= 1e-10

    def test_cell_order_independence(self):
        base = triangulate(unit_square(), refinements=2)
        perm = np.random.default_rng(5).permutation(base.num_cells)
        shuffled = Mesh(base.vertices, base.cells[perm], base.boundary_edges,
                        base.boundary_tags)
        f = lambda p: 1.0 + np.atleast_2d(p)[:, 1]
        field = lambda p: np.exp(np.atleast_2d(p)[:, 0]) + \
            0.5 * np.atleast_2d(p)[:, 1] ** 2
        vals = {}
        for tag, m in (("base", base), ("shuffled", shuffled)):
            sp = FeSpace(m, 2)
            r = residual(interpolate(sp, field), f)
            coords = sp.dof_coords[sp.interior_dofs]
            order = np.lexsort((coords[:, 1], coords[:, 0]))
            vals[tag] = r.values[order]
        assert np.max(np.abs(vals["base"] - vals["shuffled"])) <= 1e-12

    def test_nonfinite_f_raises(self, space):
        u = interpolate(space, paraboloid)

        def bad(p):
            p = np.atleast_2d(p)
            out = np.ones(len(p))
            out[p[:, 0] > 0.5] = np.nan
            return out

        with pytest.raises(ValueError):
            residual(u, bad)

    def test_interior_length(self, space):
        u = interpolate(space, paraboloid)
        r = residual(u, lambda p: np.ones(len(np.atleast_2d(p))))
        assert len(r) == space.num_dofs - len(space.boundary_dofs)


class TestJacobian:
    def test_paraboloid_equals_laplace_form(self, space):
        # cof(I) = I, so the Jacobian row is int (lap phi_j) phi_i.
        u = interpolate(space, paraboloid)
        J = jacobian(u).toarray()
        quad = space.default_quadrature()
        hess = space.tables(quad)["hess"]
        val = space.tables(quad)["val"]
        jinv = space.cell_jinv
        # physical Laplacian of each basis function on each cell
        a00, a01 = jinv[:, 0, 0], jinv[:, 0, 1]
        a10, a11 = jinv[:, 1, 0], jinv[:, 1, 1]
        cxx = (a00 ** 2 + a01 ** 2)[:, None, None] * hess[None, ..., 0]
        cyy = (a10 ** 2 + a11 ** 2)[:, None, None] * hess[None, ..., 2]
        cxy = (a00 * a10 + a01 * a11)[:, None, None] * hess[None, ..., 1]
        lap = cxx + cyy + 2.0 * cxy
        blocks = np.einsum("c,q,cql,qm->cml", space.cell_areas, quad.weights,
                           lap, val)
        full = np.zeros((space.num_dofs, space.num_dofs))
        for c in range(space.mesh.num_cells):
            idx = space.cell_dofs[c]
            full[np.ix_(idx, idx)] += blocks[c]
        idx = space.interior_dofs
        assert np.max(np.abs(J - full[np.ix_(idx, idx)])) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_finite_differences(self, k):
        space = FeSpace(two_cell_mesh(), k)
        rng = np.random.default_rng(11)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        J = jacobian(u).toarray()
        Jfd = fd_jacobian(u, lambda p: np.ones(len(np.atleast_2d(p))))
        assert np.max(np.abs(J - Jfd)) / np.max(np.abs(J)) <= 1e-6

    def test_sparsity_within_adjacency(self, space):
        rng = np.random.default_rng(2)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        J = jacobian(u).matrix.tocoo()
        pos = {int(d): i for i, d in enumerate(space.interior_dofs)}
        adjacent = set()
        for row in space.cell_dofs:
            local = [pos[int(d)] for d in row if int(d) in pos]
            adjacent.update((i, j) for i in local for j in local)
        assert set(zip(map(int, J.row), map(int, J.col))) <= adjacent

    @pytest.mark.parametrize("k", [2, 3])
    def test_structural_rank_deficiency(self, k):
        # For k=2 the contraction cof(D2u):D2phi_j is piecewise constant,
        # so the Jacobian factors through one value per cell: rank <=
        # num_cells.  For higher k the factor space grows but the Jacobian
        # stays strictly rank deficient; null directions combine cellwise
        # cof-orthogonal Hessians with free normal-derivative jumps.
        mesh = triangulate(unit_square(), refinements=2)
        space = FeSpace(mesh, k)
        rng = np.random.default_rng(4)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        rank = np.linalg.matrix_rank(jacobian(u).toarray())
        assert rank < len(space.interior_dofs)
        if k == 2:
            assert rank <= mesh.num_cells

    def test_normal_matrix_positive_definite(self, space):
        # The honest solvable-system invariant: J itself is rank deficient
        # (see test_structural_rank_bound), but the penalized Gauss-Newton
        # normal matrix J^T J + eta * Q is positive definite.
        u = interpolate(space, paraboloid)
        J = jacobian(u).matrix
        I = space.interior_dofs
        Q = gradient_jump_matrix(space)[I][:, I]
        H = (J.T @ J + 1e-2 * Q).toarray()
        eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert eigs[0] > 0

    def test_export_triplets_roundtrip(self, space, tmp_path):
        rng = np.random.default_rng(9)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        J = jacobian(u)
        path = os.path.join(tmp_path, "jac.txt")
        J.export_triplets(path)
        dense = np.zeros(J.shape)
        with open(path) as fh:
            for line in fh:
                r, c, v = line.split()
                dense[int(r), int(c)] = float(v)
        assert np.max(np.abs(dense - J.toarray())) <= 1e-15 * np.max(
            np.abs(J.toarray()))


class TestApplyBoundary:
    def test_zero_data(self, space):
        bc = apply_boundary(space, lambda p: np.zeros(len(np.atleast_2d(p))))
        assert bc.shape == space.boundary_dofs.shape
        assert np.all(bc == 0.0)

    def test_linear_data_exact(self, space):
        bc = apply_boundary(space, lambda p: np.atleast_2d(p).sum(axis=1))
        for dof, val in zip(space.boundary_dofs, bc):
            assert val == pytest.approx(space.dof_coords[dof].sum(), abs=0)

    def test_edge_midpoint_value(self):
        # k=2 on the unmeshed 2-cell square: the midpoint node of the edge
        # [(0,0), (1,0)] takes g(0.5, 0) = 0.25 for g = x^2.
        space = FeSpace(two_cell_mesh(), 2)
        bc = apply_boundary(space, lambda p: np.atleast_2d(p)[:, 0] ** 2)
        hits = [i for i, dof in enumerate(space.boundary_dofs)
                if np.allclose(space.dof_coords[dof], [0.5, 0.0])]
        assert len(hits) == 1
        assert bc[hits[0]] == pytest.approx(0.25, abs=1e-15)

    def test_nonfinite_g_raises(self, space):
        with pytest.raises(ValueError):
            apply_boundary(space, lambda p: np.full(len(np.atleast_2d(p)),
                                                    np.inf))

    def test_set_boundary_values_touches_only_boundary(self, space):
        u = FeFunction(space)
        before = u.coeffs[space.interior_dofs].copy()
        u.coeffs[space.boundary_dofs] = apply_boundary(
            space, lambda p: np.ones(len(np.atleast_2d(p))))
        assert np.array_equal(u.coeffs[space.interior_dofs], before)
        assert np.all(u.coeffs[space.boundary_dofs] == 1.0)


class TestLinearizedOperator:
    def test_identity_hessian_gives_trace(self, space):
        u = interpolate(space, paraboloid)
        w = interpolate(space, lambda p: 1.5 * np.atleast_2d(p)[:, 0] ** 2
                        + 0.25 * np.atleast_2d(p)[:, 1] ** 2)
        assert linearized_operator_check(u, w) <= 1e-12
        # cof(I) : D2w = trace(D2w) = alpha + beta
        hw = w.cell_hessians(space.default_quadrature())
        contraction = hw[..., 0] + hw[..., 2]
        assert np.max(np.abs(contraction - (3.0 + 0.5))) <= 1e-12

    def test_self_pairing_is_twice_det(self, space):
        rng = np.random.default_rng(13)
        u = FeFunction(space, rng.standard_normal(space.num_dofs))
        assert linearized_operator_check(u, u) <= 1e-12
        quad = space.default_quadrature()
        h = u.cell_hessians(quad)
        contraction = (h[..., 2] * h[..., 0] + h[..., 0] * h[..., 2]
                       - 2.0 * h[..., 1] * h[..., 1])
        det = h[..., 0] * h[..., 2] - h[..., 1] ** 2
        assert np.max(np.abs(contraction - 2.0 * det)) <= 1e-12

    def test_random_pairs(self, space):
        # Coefficients scaled by h^2 keep the random Hessians at unit size,
        # where the identity holds to absolute 1e-12.
        rng = np.random.default_rng(17)
        scale = space.mesh.mesh_size() ** 2
        for _ in range(10):
            u = FeFunction(space,
                           scale * rng.standard_normal(space.num_dofs))
            w = FeFunction(space,
                           scale * rng.standard_normal(space.num_dofs))
            assert linearized_operator_check(u, w) <= 1e-12

    def test_cofactor_algebra(self):
        rng = np.random.default_rng(19)
        a, b, c = rng.standard_normal(3)
        M = np.array([[a, b], [b, c]])
        cof = np.array([[c, -b], [-b, a]])
        assert np.allclose(M @ cof, np.linalg.det(M) * np.eye(2), atol=1e-14)
        assert np.sum(M * cof) == pytest.approx(2.0 * np.linalg.det(M),
                                                abs=1e-14)

    def test_mismatched_spaces_raise(self, mesh):
        s1 = FeSpace(mesh, 2)
        s2 = FeSpace(mesh, 2)
        with pytest.raises(ValueError):
            linearized_operator_check(FeFunction(s1), FeFunction(s2))


class TestPoissonObjects:
    def test_stiffness_symmetric_psd(self, space):
        A = stiffness_matrix(space).toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-13
        eigs = np.linalg.eigvalsh(A)
        assert eigs[0] >= -1e-12

    def test_affine_in_kernel_of_interior_rows(self, space):
        u = interpolate(space, lambda p: 2.0 * np.atleast_2d(p)[:, 0]
                        - np.atleast_2d(p)[:, 1] + 0.3)
        flux = stiffness_matrix(space) @ u.coeffs
        assert np.max(np.abs(flux[space.interior_dofs])) <= 1e-13

    def test_load_partition_of_unity(self, space):
        b = load_vector(space, lambda p: np.ones(len(np.atleast_2d(p))))
        assert b.sum() == pytest.approx(1.0, abs=1e-13)


class TestGradientJump:
    def test_zero_on_global_quadratic(self, space):
        u = interpolate(space, paraboloid)
        assert gradient_jump_seminorm(u) <= 1e-12

    def test_kink_closed_form(self):
        # |x1 - x2| on the diagonal-split square: gradient jump across the
        # diagonal is 2*sqrt(2), edge length sqrt(2), so the quadratic form
        # is (1/|e|) * |e| * (2 sqrt 2)^2 = 8.
        space = FeSpace(two_cell_mesh(), 2)
        u = interpolate(space, lambda p: np.abs(np.atleast_2d(p)[:, 0]
                                                - np.atleast_2d(p)[:, 1]))
        assert gradient_jump_seminorm(u) ** 2 == pytest.approx(8.0,
                                                               abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("level", [1, 2])
    def test_matches_per_edge_reference(self, k, level):
        space = FeSpace(triangulate(regular_polygon(5), refinements=level), k)
        ref = per_edge_jump_matrix(space)
        Q = _assemble_jump_matrix(space)
        assert np.abs(Q.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()

    @settings(max_examples=8, deadline=None)
    @given(convex_polygons(), st.sampled_from([2, 3]))
    def test_matches_per_edge_reference_on_random_polygons(self, polygon, k):
        space = FeSpace(triangulate(polygon, refinements=1), k)
        ref = per_edge_jump_matrix(space)
        Q = _assemble_jump_matrix(space)
        assert np.abs(Q.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("k", [2, 3])
    def test_global_quadratic_in_kernel(self, k):
        space = FeSpace(triangulate(regular_polygon(6), refinements=2), k)
        u = interpolate(space, lambda p: 0.3 * p[:, 0] ** 2
                        - 0.7 * p[:, 0] * p[:, 1] + 1.1 * p[:, 1] ** 2
                        + p[:, 0] - 2.0 * p[:, 1] + 0.5)
        Q = gradient_jump_matrix(space)
        scale = abs(Q).max() * np.abs(u.coeffs).max()
        assert np.abs(Q @ u.coeffs).max() <= 1e-12 * scale

    @pytest.mark.parametrize("k", [2, 3])
    def test_seminorm_squared_is_gram_form(self, k):
        space = FeSpace(triangulate(unit_square(), refinements=2), k)
        Q = gradient_jump_matrix(space)
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = FeFunction(space, rng.standard_normal(space.num_dofs))
            assert gradient_jump_seminorm(u) ** 2 == pytest.approx(
                u.coeffs @ (Q @ u.coeffs), rel=1e-12)

    def test_no_interior_edge(self):
        tri = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                   [[0, 1], [1, 2], [2, 0]], [0, 1, 2])
        space = FeSpace(tri, 2)
        Q = _assemble_jump_matrix(space)
        assert sparse.issparse(Q) and Q.shape == (6, 6) and Q.nnz == 0
        assert gradient_jump_seminorm(FeFunction(space, np.ones(6))) == 0.0

    def test_symmetric_positive_semidefinite(self, space):
        Q = gradient_jump_matrix(space)
        scale = abs(Q).max()
        assert abs(Q - Q.T).max() <= 1e-15 * scale
        rng = np.random.default_rng(23)
        for _ in range(5):
            c = rng.standard_normal(space.num_dofs)
            assert c @ (Q @ c) >= -1e-12 * scale
