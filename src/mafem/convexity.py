"""Cellwise convexity diagnostics and strict-convexity repair.

Convexity of a piecewise polynomial is certified by sampling the cellwise
Hessian at the points of the space's assembly rule, as the residual
does: for degree 2 the Hessian is constant per cell and the check is
exact; for higher degrees it is sampled, and a function counts as convex
when no sampled eigenvalue is below -CONVEX_TOL.  A report keeps the
interior cells, those with no boundary vertex, apart: pinned boundary
data without a convex extension forces a concave layer on the cells that
touch the boundary, so study.solve_problem certifies a solution by the
interior cells alone, rejecting it when their smallest eigenvalue is
below -CONVEX_ALLOWANCE = -1e-2.  The check reads cell Hessians only, so
it misses a concave kink across an edge.  Strictification adds the
interpolant of eps*|x - x0|^2, shifting every Hessian eigenvalue up by
exactly 2*eps.
"""

import numpy as np

from .fespace import FeFunction, interpolate

CONVEX_TOL = 1e-9
CONVEX_ALLOWANCE = 1e-2


def eigmin_2x2(hxx, hxy, hyy):
    """Smallest eigenvalue of symmetric [[hxx, hxy], [hxy, hyy]], closed form."""
    half_tr = 0.5 * (hxx + hyy)
    rad = np.sqrt((0.5 * (hxx - hyy)) ** 2 + hxy ** 2)
    return half_tr - rad


class ConvexityReport:
    """Per-cell Hessian eigenvalue and determinant minima of an FE function.

    interior marks the cells with no boundary vertex; interior_min_lambda1
    is the smallest eigenvalue over them, None when there is none.  The
    per-cell arrays are attributes only: to_dict holds the minima and
    flags.
    """

    def __init__(self, cell_min_lambda1, cell_min_det, sample_order, tol,
                 interior):
        self.cell_min_lambda1 = np.asarray(cell_min_lambda1, dtype=float)
        self.cell_min_det = np.asarray(cell_min_det, dtype=float)
        self.sample_order = int(sample_order)
        self.tol = float(tol)
        self.interior = np.asarray(interior, dtype=bool)
        self.global_min_lambda1 = float(self.cell_min_lambda1.min())
        self.interior_min_lambda1 = (
            float(self.cell_min_lambda1[self.interior].min())
            if self.interior.any() else None)
        self.global_min_det = float(self.cell_min_det.min())
        self.convex = bool(self.global_min_lambda1 >= -self.tol)
        self.strictly_convex = bool(self.global_min_det > 0.0
                                    and self.global_min_lambda1 > 0.0)

    def to_dict(self):
        return {
            "global_min_lambda1": self.global_min_lambda1,
            "interior_min_lambda1": self.interior_min_lambda1,
            "global_min_det": self.global_min_det,
            "convex": self.convex,
            "strictly_convex": self.strictly_convex,
            "sample_order": self.sample_order,
            "tol": self.tol,
        }

    def __repr__(self):
        return ("ConvexityReport(min_lambda1={:.3e}, min_det={:.3e}, "
                "convex={}, strictly_convex={})".format(
                    self.global_min_lambda1, self.global_min_det,
                    self.convex, self.strictly_convex))


def analyze(u_h):
    """Sample cellwise Hessian eigenvalues and determinants of u_h.

    The samples are taken at the points of the space's assembly rule
    (FeSpace.default_quadrature); u_h counts as convex when no sampled
    eigenvalue is below -CONVEX_TOL.
    """
    mesh = u_h.space.mesh
    quad = u_h.space.default_quadrature()
    hess = u_h.cell_hessians(quad)
    lam1 = eigmin_2x2(hess[:, :, 0], hess[:, :, 1], hess[:, :, 2])
    det = hess[:, :, 0] * hess[:, :, 2] - hess[:, :, 1] ** 2
    return ConvexityReport(lam1.min(axis=1), det.min(axis=1),
                           quad.order, CONVEX_TOL,
                           ~mesh.boundary_vertex_mask[mesh.cells].any(axis=1))


def strictify(u_h, eps, x0=None):
    """Return u_h + interpolant of eps*|x - x0|^2 on the same space.

    For degree >= 2 the quadratic is represented exactly, so the cellwise
    Hessian changes by exactly +2*eps*I and every eigenvalue shifts up by
    2*eps.  The value at x0 itself is unchanged.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    space = u_h.space
    if space.degree < 2:
        raise ValueError("strictify requires degree >= 2")
    if x0 is None:
        x0 = space.mesh.vertices.mean(axis=0)
    x0 = np.asarray(x0, dtype=float)
    if eps == 0.0:
        return u_h.copy()
    bump = interpolate(space, lambda p: eps * ((p[:, 0] - x0[0]) ** 2
                                               + (p[:, 1] - x0[1]) ** 2))
    out = FeFunction(space, coeffs=u_h.coeffs + bump.coeffs)
    return out
