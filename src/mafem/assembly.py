"""Global assembly for the discrete determinant equation.

The residual of the problem det D2u = f tested against interior basis
functions, its exact Jacobian through the cofactor linearization, the
second-order term sum_i r_i D2r_i of the least-squares objective, Dirichlet
data by Lagrange-node interpolation, and the Poisson stiffness/load objects
shared with the solvers.  Boundary dofs are eliminated: the residual is
a plain (ni,) array and the Jacobian (ni, ni) data on P, the interior
pattern, over the space's numbering of its ni interior dofs
(FeSpace.interior_index); jacobian wraps the data of jacobian_data in
csr, to compare with the dense oracle fd_jacobian.  The Poisson
stiffness is left as cell blocks (stiffness_blocks), which the solver
sums onto P.

Everything that depends only on the space is computed once and cached on
it: the default quadrature rule, the packed Hessian push-forward of every
cell, the integration weights |K| w_q phi_i(x_q) and the interior sparsity
(element_layer), and the edge jump operator with its Gram matrix
(gradient_jump_matrix).  A residual,
Jacobian or second-order term is then a few numpy kernels and one
np.bincount, on the Hessians of FeFunction.cell_hessians.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
import scipy.sparse as sparse

from . import kernels
from .fespace import eval_field


# cof A : B = a . _COFACTOR b for packed symmetric 2x2 matrices a and b
_COFACTOR = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])


class _ElementLayer:
    """Cell tables of a space at its default quadrature, built once.

    ref_hess (nq, nloc, 3) and push (nc, 3, 3) give the physical Hessians,
    weights (nc, nq) = |K| w_q and wphi (nc, nq, nloc) = |K| w_q phi_i(x_q)
    the integration weights, and cof_push (nc, 3, 3) and hess_pairs
    (nq, 3, 3, nloc, nloc) the cofactor pairings of basis Hessians (see
    kernels.second_order_cells).  The interior rows of the cell vectors
    are summed by np.bincount over res_index, the space's interior_index
    of each cell dof (boundary rows go to a last bin that is dropped), and
    the interior-by-interior entries of the cell blocks over jac_index
    into the data of one fixed CSR pattern (indptr, indices), so assembly
    needs no COO matrix, sort or fancy slicing.  rows (nnz,) is the row of
    each entry of that pattern, for products with its data.
    """

    def __init__(self, space):
        quad = space.default_quadrature()
        tab = space.tables(quad)
        self.ref_hess = tab["hess"]
        self.push = space.cell_hess_push
        self.cof_push = self.push.transpose(0, 2, 1) @ _COFACTOR @ self.push
        self.hess_pairs = np.einsum("qja,qlb->qabjl", self.ref_hess,
                                    self.ref_hess)
        self.weights = tab["weights"]
        self.wphi = self.weights[:, :, None] * tab["val"][None]
        ni = len(space.interior_dofs)
        local = space.interior_index[space.cell_dofs]
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
        # int32, as scipy picks for these sizes: csr wraps them uncopied
        self.indices = (keys % ni).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(ni + 1) * ni).astype(
            np.int32)
        self.rows = np.repeat(np.arange(ni, dtype=np.int32),
                              np.diff(self.indptr))
        for arr in (self.wphi, self.cof_push, self.hess_pairs, self.res_index,
                    self.jac_index, self.indices, self.indptr, self.rows):
            arr.flags.writeable = False

    def sum_rows(self, vectors):
        """Sum cell vectors (nc, nloc) into an (n,) interior vector."""
        return np.bincount(self.res_index, weights=vectors.ravel(),
                           minlength=self.n + 1)[:self.n]

    def sum_blocks(self, blocks):
        """Sum cell blocks (nc, nloc, nloc) into (nnz,) data on P."""
        return np.bincount(self.jac_index, weights=blocks.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]

    def csr(self, data):
        """The (n, n) csr matrix with the (nnz,) data on P."""
        return sparse.csr_matrix((data, self.indices, self.indptr),
                                 shape=(self.n, self.n))


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
    shape = element_layer(space).weights.shape
    if fq.shape != shape:
        raise ValueError("samples of f have shape {}, expected {}".format(
            fq.shape, shape))
    return fq


def residual(u_h, f, hess=None):
    """Entries sum_K int_K (det D2u_h - f) phi_i over interior dofs i.

    Returns an (ni,) array in the order of space.interior_dofs.  f is a
    callable or its samples from f_at_qpts; a solver that evaluates many
    residuals samples f once.  hess, when given, is
    u_h.cell_hessians(space.default_quadrature()), already evaluated.
    Raises ValueError for a non-finite entry.
    """
    space = u_h.space
    el = element_layer(space)
    if hess is None:
        hess = u_h.cell_hessians(space.default_quadrature())
    vals = el.sum_rows(kernels.residual_cells(hess, f_at_qpts(space, f),
                                              el.wphi))
    if not np.all(np.isfinite(vals)):
        raise ValueError("residual has non-finite entries")
    return vals


def _scatter_matrix(n, idx, blocks):
    """Sum the blocks (m, l, l) into an n x n csr matrix at dofs idx (m, l)."""
    nloc = idx.shape[1]
    rows = np.repeat(idx, nloc, axis=1).ravel()
    cols = np.tile(idx, (1, nloc)).ravel()
    return sparse.coo_matrix((blocks.ravel(), (rows, cols)),
                             shape=(n, n)).tocsr()


def jacobian_data(u_h, hess=None):
    """Exact derivative of the residual, as (nnz,) data on P.

    Entry (i, j) = sum_K int (cof D2u_h : D2phi_j) phi_i over interior
    dofs i, j, in the order of space.interior_dofs.  hess as for residual.
    """
    el = element_layer(u_h.space)
    if hess is None:
        hess = u_h.cell_hessians(u_h.space.default_quadrature())
    return el.sum_blocks(kernels.jacobian_cells(hess, el.ref_hess, el.push,
                                                el.wphi))


def jacobian(u_h):
    """jacobian_data as an (ni, ni) csr matrix."""
    return element_layer(u_h.space).csr(jacobian_data(u_h))


def second_order_data(space, r):
    """The term sum_i r_i D2r_i of the objective's Hessian, data on P.

    r is a residual over the interior dofs.  Entry (j, l) =
    int rho cof(D2phi_l) : D2phi_j with rho = sum_i r_i phi_i over interior
    dofs i.  det D2u is quadratic in the coefficients, so D2r_i does not
    depend on u: with J the Jacobian at the u where r was evaluated,
    J^T J + T is the exact Hessian of |r|^2 / 2 there.  T is symmetric bit
    for bit and has the Jacobian's sparsity pattern P.
    """
    el = element_layer(space)
    local = np.append(r, 0.0)[el.res_index].reshape(len(el.weights), -1)
    rho_w = np.einsum("cqi,ci->cq", el.wphi, local)
    return el.sum_blocks(kernels.second_order_cells(rho_w, el.cof_push,
                                                    el.hess_pairs))


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
        rp = residual(work, fq)
        work.coeffs[dof] = u_h.coeffs[dof] - step
        rm = residual(work, fq)
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


def linearized_operator_check(u_h, w):
    """Max quadrature-point gap between two forms of the linearized operator.

    Compares cof(D2u):D2w, built from the explicit 2x2 cofactor matrix,
    with the expanded expression u_yy w_xx + u_xx w_yy - 2 u_xy w_xy at
    the points of the space's assembly rule; the two are algebraically
    identical.
    """
    if w.space is not u_h.space:
        raise ValueError("functions must share a space")
    quad = u_h.space.default_quadrature()
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


def stiffness_blocks(space):
    """Poisson stiffness blocks (nc, nloc, nloc) of the cells."""
    quad = space.default_quadrature()
    return kernels.stiffness_cells(space.tables(quad)["grad"],
                                   space.cell_jinv, quad.weights,
                                   space.cell_areas)


def load_vector(space, f):
    """Full load vector int f phi_i (all dofs); f as for residual."""
    cell_b = kernels.load_cells(f_at_qpts(space, f),
                                element_layer(space).wphi)
    return np.bincount(space.cell_dofs.ravel(), weights=cell_b.ravel(),
                       minlength=space.num_dofs)


def _edge_jump_blocks(space):
    """Normal-derivative jump operator of every interior edge, batched.

    Returns (idx, wt, B): idx (ni, m) lists the distinct dofs of the two
    owner cells of each interior edge in ascending order, m = 2 nloc -
    (k + 1) since the k + 1 dofs of the shared edge belong to both cells;
    wt (nq,) holds the Gauss weights on [0, 1] and B (ni, nq, m) maps the
    patch coefficients to the normal-derivative jump at the edge Gauss
    points, scaled so that sum(wt * (B c)^2) = (1/|e|) int_e [dn u]^2 ds.
    Built once per space and cached there, with read-only arrays.
    """
    if space._jump_blocks is None:
        blocks = _assemble_edge_jump_blocks(space)
        for arr in blocks:
            arr.flags.writeable = False
        space._jump_blocks = blocks
    return space._jump_blocks


def _assemble_edge_jump_blocks(space):
    _, owners, _, nrm = space.mesh.interior_edges()
    xg, wg = leggauss(space.degree + 1)
    gtab = space.interior_edge_tables(0.5 * (xg + 1.0), "grad")
    # n . grad = (Jinv n) . grad_ref, taken + on the first owner and - on
    # the second
    nref = np.einsum("esji,ei->esj", space.cell_jinv[owners], nrm)
    nref[:, 1] *= -1.0
    ni, _, nq, nloc, _ = gtab.shape
    # one row of dn per stacked dof: (ni * 2 nloc, nq)
    dn = np.einsum("estlj,esj->eslt", gtab, nref).reshape(-1, nq)
    # the k + 1 dofs of the shared edge are stacked twice: sort each
    # edge's dofs, add each repeated dof's row to its twin's and keep the
    # first of each run
    stacked = space.cell_dofs[owners].reshape(ni, 2 * nloc)
    order = np.argsort(stacked, axis=1) + 2 * nloc * np.arange(ni)[:, None]
    ranked = np.take(stacked, order)
    rows = np.take(dn, order, axis=0)
    repeat = ranked[:, 1:] == ranked[:, :-1]
    rows[:, :-1][repeat] += rows[:, 1:][repeat]
    first = np.ones(ranked.shape, dtype=bool)
    first[:, 1:] = ~repeat
    m = 2 * nloc - (space.degree + 1)
    idx = ranked[first].reshape(ni, m)
    Bt = rows[first].reshape(ni, m, nq)
    return idx, 0.5 * wg, np.ascontiguousarray(Bt.transpose(0, 2, 1))


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
    Qe = np.matmul(B.transpose(0, 2, 1) * wt, B)
    return _scatter_matrix(space.num_dofs, idx, Qe)


def gradient_jump_seminorm(u_h):
    """Scaled L2 norm of normal-derivative jumps across interior edges.

    Evaluated from the jump values themselves (not through the Gram
    matrix, whose quadratic form loses the small-jump regime to
    cancellation), so C1 fields come out at machine zero.  Its square is
    the jump term of newton_solve's objective.
    """
    idx, wt, B = _edge_jump_blocks(u_h.space)
    jump = np.einsum("eql,el->eq", B, u_h.coeffs[idx])
    return float(np.sqrt(np.einsum("q,eq->", wt, jump * jump)))
