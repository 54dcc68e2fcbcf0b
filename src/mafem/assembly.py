"""Global assembly for the discrete determinant equation.

The residual of the problem det D2u = f tested against interior basis
functions, its exact Jacobian through the cofactor linearization, Dirichlet
data by Lagrange-node interpolation, and the Poisson stiffness/load objects
shared with the solvers.  Boundary dofs are eliminated: residual and
Jacobian live on interior dofs only.

Everything that depends only on the space is computed once and cached on
it: the default quadrature rule, the packed Hessian push-forward of every
cell, the integration weights |K| w_q phi_i(x_q) and the interior sparsity
(element_layer), and the gradient-jump matrix (gradient_jump_matrix).  A
residual or Jacobian is then a few numpy kernels (see kernels) and one
np.bincount.
"""

import numpy as np
import scipy.sparse as sparse
from scipy.special import roots_legendre

from . import kernels
from .fespace import eval_field


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


class _ElementLayer:
    """Cell tables of a space at its default quadrature, built once.

    ref_hess (nq, nloc, 3) and push (nc, 3, 3) give the physical Hessians,
    wphi (nc, nq, nloc) = |K| w_q phi_i(x_q) the integration weights.  The
    interior rows of the cell vectors are summed by np.bincount over
    res_index (boundary rows go to a last bin that is dropped), and the
    interior-by-interior entries of the cell blocks over jac_index into
    the data of one fixed CSR pattern (indptr, indices), so assembly needs
    no COO matrix, sort or fancy slicing.
    """

    def __init__(self, space):
        quad = space.default_quadrature()
        tab = space.tables(quad)
        self.shape = (space.mesh.num_cells, quad.num_points)
        self.ref_hess = tab["hess"]
        self.push = space.cell_hess_push
        self.wphi = (space.cell_areas[:, None, None]
                     * quad.weights[None, :, None] * tab["val"][None])
        ni = len(space.interior_dofs)
        imap = np.full(space.num_dofs, ni, dtype=np.int64)
        imap[space.interior_dofs] = np.arange(ni)
        local = imap[space.cell_dofs]
        nloc = local.shape[1]
        rows = np.repeat(local, nloc, axis=1).ravel()
        cols = np.tile(local, (1, nloc)).ravel()
        keep = (rows < ni) & (cols < ni)
        keys, pos = np.unique(rows[keep] * ni + cols[keep],
                              return_inverse=True)
        self.n = ni
        self.nnz = len(keys)
        self.res_index = local.ravel()
        self.jac_index = np.full(len(rows), self.nnz, dtype=np.int64)
        self.jac_index[keep] = pos
        # built through scipy once so that the index arrays have the dtype
        # it picks; every jacobian then wraps them without a copy
        pattern = sparse.csr_matrix(
            (np.zeros(self.nnz), keys % ni,
             np.r_[0, np.cumsum(np.bincount(keys // ni, minlength=ni))]),
            shape=(ni, ni))
        self.indices, self.indptr = pattern.indices, pattern.indptr
        for arr in (self.wphi, self.res_index, self.jac_index, self.indices,
                    self.indptr):
            arr.flags.writeable = False


def element_layer(space):
    """The space's cached _ElementLayer; built on first use."""
    if space._elements is None:
        space._elements = _ElementLayer(space)
    return space._elements


def f_at_qpts(space, f):
    """Samples (nc, nq) of a field at the default quadrature points.

    f is a callable (see FeSpace.sample), or an array of such samples,
    which is returned as is once its shape is checked.
    """
    fq = (space.sample(f, space.default_quadrature()) if callable(f)
          else np.asarray(f, dtype=float))
    shape = element_layer(space).shape
    if fq.shape != shape:
        raise ValueError("samples of f have shape {}, expected {}".format(
            fq.shape, shape))
    return fq


def _hessians(u_h, el):
    return kernels.hessians_at_qpts(u_h.coeffs[u_h.space.cell_dofs],
                                    el.ref_hess, el.push)


def residual(u_h, f):
    """Entries sum_K int_K (det D2u_h - f) phi_i over interior dofs i.

    f is a callable or its samples from f_at_qpts; a solver that evaluates
    many residuals samples f once.
    """
    space = u_h.space
    el = element_layer(space)
    cell_r = kernels.residual_cells(_hessians(u_h, el), f_at_qpts(space, f),
                                    el.wphi)
    vals = np.bincount(el.res_index, weights=cell_r.ravel(),
                       minlength=el.n + 1)[:el.n]
    return Residual(vals, space.interior_dofs)


def _scatter_matrix(n, idx, blocks):
    """Sum the blocks (m, l, l) into an n x n csr matrix at dofs idx (m, l)."""
    nloc = idx.shape[1]
    rows = np.repeat(idx, nloc, axis=1).ravel()
    cols = np.tile(idx, (1, nloc)).ravel()
    return sparse.coo_matrix((blocks.ravel(), (rows, cols)),
                             shape=(n, n)).tocsr()


def jacobian(u_h):
    """Exact derivative of the residual: (i, j) = sum_K int (cof D2u_h : D2phi_j) phi_i."""
    space = u_h.space
    el = element_layer(space)
    blocks = kernels.jacobian_cells(_hessians(u_h, el), el.ref_hess, el.push,
                                    el.wphi)
    data = np.bincount(el.jac_index, weights=blocks.ravel(),
                       minlength=el.nnz + 1)[:el.nnz]
    J = sparse.csr_matrix((data, el.indices, el.indptr), shape=(el.n, el.n))
    return JacobianMatrix(J, space.interior_dofs)


def fd_jacobian(u_h, f):
    """Central-difference Jacobian oracle, step 1e-6 (1 + |coeffs|_inf).

    Dense over interior dofs; intended for verification on small spaces.
    """
    space = u_h.space
    fq = f_at_qpts(space, f)
    step = 1e-6 * (1.0 + float(np.max(np.abs(u_h.coeffs))))
    n = len(space.interior_dofs)
    out = np.empty((n, n))
    work = u_h.copy()
    for col, dof in enumerate(space.interior_dofs):
        work.coeffs[dof] = u_h.coeffs[dof] + step
        rp = residual(work, fq).values
        work.coeffs[dof] = u_h.coeffs[dof] - step
        rm = residual(work, fq).values
        work.coeffs[dof] = u_h.coeffs[dof]
        out[:, col] = (rp - rm) / (2.0 * step)
    return out


def apply_boundary(space, g):
    """Samples of g at the Lagrange nodes of space.boundary_dofs, in order.

    g is a field as eval_field takes it; a solver assigns the samples to
    u.coeffs[space.boundary_dofs].  Raises ValueError for a result of the
    wrong shape or a sample that is not finite.
    """
    return eval_field(g, space.dof_coords[space.boundary_dofs])


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


def stiffness_matrix(space):
    """Full Poisson stiffness matrix (all dofs), csr."""
    quad = space.default_quadrature()
    blocks = kernels.stiffness_cells(space.tables(quad)["grad"],
                                     space.cell_jinv, quad.weights,
                                     space.cell_areas)
    return _scatter_matrix(space.num_dofs, space.cell_dofs, blocks)


def load_vector(space, f):
    """Full load vector int f phi_i (all dofs); f as for residual."""
    cell_b = kernels.load_cells(f_at_qpts(space, f),
                                element_layer(space).wphi)
    return np.bincount(space.cell_dofs.ravel(), weights=cell_b.ravel(),
                       minlength=space.num_dofs)


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
    Qe = np.einsum("q,eql,eqm->elm", wt, B, B)
    return _scatter_matrix(space.num_dofs, idx, Qe)


def gradient_jump_seminorm(u_h):
    """Scaled L2 norm of normal-derivative jumps across interior edges.

    Evaluated from the jump values themselves (not through the Gram
    matrix, whose quadratic form loses the small-jump regime to
    cancellation), so C1 fields come out at machine zero.
    """
    idx, wt, B = _edge_jump_blocks(u_h.space)
    jump = np.einsum("eql,el->eq", B, u_h.coeffs[idx])
    return float(np.sqrt(np.einsum("q,eq->", wt, jump * jump)))
