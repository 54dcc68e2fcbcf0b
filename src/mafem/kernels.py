"""Cell-local assembly kernels, vectorized with numpy.

All kernels work on cell-batched data at the points of one quadrature
rule: Hessians are (nc, nq, 3) with components ordered (dxx, dxy, dyy),
`ref_*` tables are tabulated on the reference cell, `push` (nc, 3, 3) is
FeSpace.cell_hess_push, which maps packed reference Hessians to physical
ones, and `wphi` (nc, nq, nloc) holds |K| w_q phi_i(x_q), so that
sum_q wphi[c, q, i] g(x_q) = int_K g phi_i.
"""

import numpy as np


def hessians_at_qpts(local, ref_hess, push):
    """(nc, nq, 3) physical Hessians of the field with local coeffs (nc, nloc)."""
    nq, nloc, _ = ref_hess.shape
    h_ref = local @ ref_hess.transpose(1, 0, 2).reshape(nloc, 3 * nq)
    return np.matmul(h_ref.reshape(-1, nq, 3), push.transpose(0, 2, 1))


def residual_cells(hess, fq, wphi):
    """Local residual vectors int_K (det H - f) phi_i, one row per cell."""
    det = hess[..., 0] * hess[..., 2] - hess[..., 1] ** 2
    return np.einsum("cq,cqi->ci", det - fq, wphi)


def jacobian_cells(hess, ref_hess, push, wphi):
    """Local blocks int_K (cof H : D2 phi_j) phi_i of the residual's Jacobian.

    cof H : B = (hyy, -2 hxy, hxx) . b for packed B = b, and b = push @ r
    for the packed reference Hessian r of phi_j, so the cofactor is pulled
    back to the reference frame once per point instead of pushing every
    basis Hessian forward: O(nc nq) extra memory, not O(nc nq nloc).
    """
    cof = np.stack([hess[..., 2], -2.0 * hess[..., 1], hess[..., 0]],
                   axis=-1)
    cref = np.matmul(cof, push).transpose(1, 0, 2)
    contr = np.matmul(cref, ref_hess.transpose(0, 2, 1)).transpose(1, 0, 2)
    return np.matmul(wphi.transpose(0, 2, 1), contr)


def second_order_cells(rho_w, cof_push, hess_pairs):
    """Local blocks int_K rho cof(D2 phi_l) : D2 phi_j, exactly symmetric.

    rho_w (nc, nq) holds |K| w_q rho(x_q).  For packed reference Hessians
    r_j, r_l of two basis functions, cof(D2 phi_l) : D2 phi_j =
    r_j . cof_push r_l with cof_push (nc, 3, 3) = push^T C push, where
    C = [[0, 0, 1], [0, -2, 0], [1, 0, 0]] is the packed cofactor form
    (cof A : B = a . C b), and hess_pairs (nq, 3, 3, nloc, nloc) holds the
    products r_j[a] r_l[b] on the reference cell.
    So the blocks are one product of the (nc, 9 nq) weights with that
    per-rule table, and no per-cell basis table is stored.
    """
    nc, nq = rho_w.shape
    nloc = hess_pairs.shape[-1]
    w = rho_w[:, :, None] * cof_push.reshape(nc, 1, 9)
    blocks = (w.reshape(nc, 9 * nq) @ hess_pairs.reshape(9 * nq, -1)
              ).reshape(nc, nloc, nloc)
    # the product sums the (a, b) and (b, a) terms of blocks[j, l] and
    # blocks[l, j] in different orders; averaging makes them bit-equal
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


def stiffness_cells(ref_grad, jinv, w, areas):
    """Local Laplacian stiffness blocks int_K grad phi_i . grad phi_j.

    grad phi_i = jinv^T g_i for the reference gradient g_i, so block (i, j)
    is |K| sum_q w_q g_i . M g_j with the metric M = jinv jinv^T: the
    (nc, 4) scaled metrics times one (4, nloc^2) table of weighted
    reference gradient pairs, in one product.
    """
    nq, nloc, _ = ref_grad.shape
    nc = len(jinv)
    metric = np.matmul(jinv, jinv.transpose(0, 2, 1)) * areas[:, None, None]
    g = ref_grad.transpose(2, 1, 0).reshape(2 * nloc, nq)
    pairs = ((g * w) @ g.T).reshape(2, nloc, 2, nloc).transpose(0, 2, 1, 3)
    return (metric.reshape(nc, 4) @ pairs.reshape(4, nloc * nloc)).reshape(
        nc, nloc, nloc)


def load_cells(fq, wphi):
    """Local load vectors int_K f phi_i of a field sampled at quadrature points."""
    return np.einsum("cq,cqi->ci", fq, wphi)
