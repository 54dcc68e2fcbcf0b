"""Global assembly for the discrete determinant equation.

The residual of the problem det D2u = f tested against interior basis
functions, its exact Jacobian through the cofactor linearization, Dirichlet
data by Lagrange-node interpolation, and the Poisson stiffness/load objects
shared with the solvers.  Boundary dofs are eliminated: residual and
Jacobian live on interior dofs only.
"""

import numpy as np
import scipy.sparse as sparse
from scipy.special import roots_legendre

from . import kernels
from .fespace import eval_field, phys_quad_points


class Residual:
    """Residual vector over the interior dofs of a space."""

    def __init__(self, values, interior_dofs):
        self.values = np.asarray(values, dtype=float)
        self.interior_dofs = interior_dofs
        if not np.all(np.isfinite(self.values)):
            raise ValueError("residual has non-finite entries")

    def norm(self, kind=2):
        if kind == 2:
            return float(np.linalg.norm(self.values))
        if kind == np.inf or kind == "inf":
            return float(np.max(np.abs(self.values))) if len(self.values) else 0.0
        raise ValueError("kind must be 2 or inf")

    def __len__(self):
        return len(self.values)


class JacobianMatrix:
    """Sparse Jacobian of the residual, over interior dofs."""

    def __init__(self, matrix, interior_dofs):
        self.matrix = matrix.tocsr()
        self.interior_dofs = interior_dofs

    @property
    def shape(self):
        return self.matrix.shape

    def toarray(self):
        return self.matrix.toarray()

    def export_triplets(self, path):
        """Write 'row col value' lines, reduced-system indices, 17 digits."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v:.17g}\n")


def _f_at_qpts(space, f, quad):
    fq = eval_field(f, phys_quad_points(space, quad).reshape(-1, 2))
    if not np.all(np.isfinite(fq)):
        raise ValueError("right-hand side is not finite at a quadrature point")
    return fq.reshape(space.mesh.num_cells, quad.num_points)


def residual(u_h, f, quad=None, backend=None):
    """Entries sum_K int_K (det D2u_h - f) phi_i over interior dofs i."""
    space = u_h.space
    if quad is None:
        quad = space.default_quadrature()
    tab = space.tables(quad)
    local = u_h.coeffs[space.cell_dofs]
    hess = kernels.hessians_at_qpts(local, tab["hess"], space.cell_jinv,
                                    backend=backend)
    fq = _f_at_qpts(space, f, quad)
    cell_r = kernels.residual_cells(hess, fq, tab["val"], quad.weights,
                                    space.cell_areas, backend=backend)
    full = np.zeros(space.num_dofs)
    np.add.at(full, space.cell_dofs, cell_r)
    return Residual(full[space.interior_dofs], space.interior_dofs)


def _scatter_matrix(space, blocks):
    nloc = space.cell_dofs.shape[1]
    rows = np.repeat(space.cell_dofs, nloc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nloc)).ravel()
    mat = sparse.coo_matrix((blocks.ravel(), (rows, cols)),
                            shape=(space.num_dofs, space.num_dofs))
    return mat.tocsr()


def jacobian(u_h, quad=None, backend=None):
    """Exact derivative of the residual: (i, j) = sum_K int (cof D2u_h : D2phi_j) phi_i."""
    space = u_h.space
    if quad is None:
        quad = space.default_quadrature()
    tab = space.tables(quad)
    local = u_h.coeffs[space.cell_dofs]
    hess = kernels.hessians_at_qpts(local, tab["hess"], space.cell_jinv,
                                    backend=backend)
    blocks = kernels.jacobian_cells(hess, tab["hess"], space.cell_jinv,
                                    tab["val"], quad.weights, space.cell_areas,
                                    backend=backend)
    full = _scatter_matrix(space, blocks)
    idx = space.interior_dofs
    return JacobianMatrix(full[idx][:, idx], idx)


def fd_jacobian(u_h, f, quad=None):
    """Central-difference Jacobian oracle, step 1e-6 (1 + |coeffs|_inf).

    Dense over interior dofs; intended for verification on small spaces.
    """
    space = u_h.space
    step = 1e-6 * (1.0 + float(np.max(np.abs(u_h.coeffs))))
    n = len(space.interior_dofs)
    out = np.empty((n, n))
    work = u_h.copy()
    for col, dof in enumerate(space.interior_dofs):
        work.coeffs[dof] = u_h.coeffs[dof] + step
        rp = residual(work, f, quad=quad).values
        work.coeffs[dof] = u_h.coeffs[dof] - step
        rm = residual(work, f, quad=quad).values
        work.coeffs[dof] = u_h.coeffs[dof]
        out[:, col] = (rp - rm) / (2.0 * step)
    return out


def apply_boundary(space, g):
    """Boundary coefficient map {dof: g at its Lagrange node}."""
    vals = eval_field(g, space.dof_coords[space.boundary_dofs])
    if not np.all(np.isfinite(vals)):
        raise ValueError("boundary data is not finite at a Lagrange node")
    return dict(zip(map(int, space.boundary_dofs), map(float, vals)))


def set_boundary_values(u_h, bc):
    """Write a boundary coefficient map into a function's coefficients."""
    for dof, val in bc.items():
        u_h.coeffs[dof] = val
    return u_h


def linearized_operator_check(u_h, w, quad=None):
    """Max quadrature-point gap between two forms of the linearized operator.

    Compares cof(D2u):D2w, built from the explicit 2x2 cofactor matrix,
    with the expanded expression u_yy w_xx + u_xx w_yy - 2 u_xy w_xy; the
    two are algebraically identical.
    """
    if w.space is not u_h.space:
        raise ValueError("functions must share a space")
    space = u_h.space
    if quad is None:
        quad = space.default_quadrature()
    hu = u_h.cell_hessians(quad)
    hw = w.cell_hessians(quad)
    cof = np.empty(hu.shape[:2] + (2, 2))
    cof[..., 0, 0] = hu[..., 2]
    cof[..., 0, 1] = -hu[..., 1]
    cof[..., 1, 0] = -hu[..., 1]
    cof[..., 1, 1] = hu[..., 0]
    wmat = np.empty_like(cof)
    wmat[..., 0, 0] = hw[..., 0]
    wmat[..., 0, 1] = hw[..., 1]
    wmat[..., 1, 0] = hw[..., 1]
    wmat[..., 1, 1] = hw[..., 2]
    via_matrix = np.einsum("cqab,cqab->cq", cof, wmat)
    expanded = (hu[..., 2] * hw[..., 0] + hu[..., 0] * hw[..., 2]
                - 2.0 * hu[..., 1] * hw[..., 1])
    return float(np.max(np.abs(via_matrix - expanded)))


def stiffness_matrix(space, quad=None, backend=None):
    """Full Poisson stiffness matrix (all dofs), csr."""
    if quad is None:
        quad = space.default_quadrature()
    tab = space.tables(quad)
    blocks = kernels.stiffness_cells(tab["grad"], space.cell_jinv,
                                     quad.weights, space.cell_areas,
                                     backend=backend)
    return _scatter_matrix(space, blocks)


def load_vector(space, f, quad=None, backend=None):
    """Full load vector int f phi_i (all dofs)."""
    if quad is None:
        quad = space.default_quadrature()
    tab = space.tables(quad)
    fq = _f_at_qpts(space, f, quad)
    cell_b = kernels.load_cells(fq, tab["val"], quad.weights,
                                space.cell_areas, backend=backend)
    out = np.zeros(space.num_dofs)
    np.add.at(out, space.cell_dofs, cell_b)
    return out


def _edge_jump_blocks(space):
    """Normal-derivative jump operator of every interior edge, batched.

    Returns (idx, wt, B): idx (ni, 2 nloc) stacks the dofs of the two owner
    cells of each interior edge, wt (nq,) holds the Gauss weights on [0, 1]
    and B (ni, nq, 2 nloc) maps the stacked local coefficients to the
    normal-derivative jump at the edge Gauss points, scaled so that
    sum(wt * (B c)^2) = (1/|e|) int_e [dn u]^2 ds.
    """
    mesh = space.mesh
    pairs, owners, _ = mesh.interior_edges()
    xg, wg = roots_legendre(space.degree + 1)
    gtab = space.interior_edge_tables(0.5 * (xg + 1.0), "grad")
    tang = mesh.vertices[pairs[:, 1]] - mesh.vertices[pairs[:, 0]]
    nrm = np.column_stack([-tang[:, 1], tang[:, 0]])
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    # n . grad = (Jinv n) . grad_ref, taken + on the first owner and - on
    # the second
    nref = np.einsum("esji,ei->esj", space.cell_jinv[owners], nrm)
    nref[:, 1] *= -1.0
    dn = np.einsum("estlj,esj->estl", gtab, nref)
    ni, _, nq, nloc = dn.shape
    B = dn.transpose(0, 2, 1, 3).reshape(ni, nq, 2 * nloc)
    idx = space.cell_dofs[owners].reshape(ni, 2 * nloc)
    return idx, 0.5 * wg, B


def gradient_jump_matrix(space):
    """Gram matrix of normal-derivative jumps across interior edges, csr.

    Q is symmetric positive semidefinite over all dofs with
    c^T Q c = sum_e (1/|e|) int_e [dn u]^2 ds, where [dn u] is the jump of
    the normal derivative across the interior edge e.  The quadratic form
    vanishes exactly on C1 functions and measures the distance of a C0
    finite element function from gradient continuity.

    Q depends only on the mesh and the degree, so it is built once per
    space and cached there; every call returns the same matrix, whose
    arrays are read-only.
    """
    if space._jump_matrix is None:
        Q = _assemble_jump_matrix(space)
        for arr in (Q.data, Q.indices, Q.indptr):
            arr.flags.writeable = False
        space._jump_matrix = Q
    return space._jump_matrix


def _assemble_jump_matrix(space):
    idx, wt, B = _edge_jump_blocks(space)
    n = idx.shape[1]
    Qe = np.einsum("q,eql,eqm->elm", wt, B, B)
    Q = sparse.coo_matrix(
        (Qe.ravel(), (np.repeat(idx, n, axis=1).ravel(),
                      np.tile(idx, (1, n)).ravel())),
        shape=(space.num_dofs, space.num_dofs))
    return Q.tocsr()


def gradient_jump_seminorm(u_h):
    """Scaled L2 norm of normal-derivative jumps across interior edges.

    Evaluated from the jump values themselves (not through the Gram
    matrix, whose quadratic form loses the small-jump regime to
    cancellation), so C1 fields come out at machine zero.
    """
    idx, wt, B = _edge_jump_blocks(u_h.space)
    jump = np.einsum("eql,el->eq", B, u_h.coeffs[idx])
    return float(np.sqrt(np.einsum("q,eq->", wt, jump * jump)))
