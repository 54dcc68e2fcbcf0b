"""Degree-k C0 Lagrange finite element spaces on triangle meshes (k >= 2).

The reference triangle has vertices (0,0), (1,0), (0,1).  Nodes are the
equispaced barycentric lattice, enumerated vertices first, then edge
interiors (edge 0: v0-v1, edge 1: v1-v2, edge 2: v2-v0), then cell
interiors.  Basis polynomials come from inverting a monomial Vandermonde
matrix; all cell maps are affine, so derivatives transform exactly by the
chain rule.
"""

import math
import os

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from . import kernels
from .mesh import Mesh  # noqa: F401  (re-exported for space serialization users)


def bary_lattice(order):
    """Equispaced barycentric lattice (i+j+l = order), vertices first.

    Returns (nodes, entities): nodes is an (n, 3) float array of barycentric
    coordinates; entities[n] is ('vertex', i), ('edge', e, step) with step
    counted from the edge's first vertex, or ('cell', rank).
    """
    k = order
    nodes, entities = [], []
    nodes += [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    entities += [("vertex", 0), ("vertex", 1), ("vertex", 2)]
    for e, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)]):
        for s in range(1, k):
            lam = [0.0, 0.0, 0.0]
            lam[a] = (k - s) / k
            lam[b] = s / k
            nodes.append(tuple(lam))
            entities.append(("edge", e, s))
    rank = 0
    for i in range(1, k):
        for j in range(1, k - i):
            nodes.append(((k - i - j) / k, i / k, j / k))
            entities.append(("cell", rank))
            rank += 1
    return np.array(nodes), entities


def _monomial_powers(k):
    return [(a, b) for total in range(k + 1) for a in range(total, -1, -1)
            for b in [total - a]]


def _mono_table(points, powers, dx=0, dy=0):
    """Evaluate d^(dx,dy) of each monomial at reference points (n, 2)."""
    pts = np.atleast_2d(points)
    out = np.zeros((len(pts), len(powers)))
    for m, (a, b) in enumerate(powers):
        if a < dx or b < dy:
            continue
        c = math.perm(a, dx) * math.perm(b, dy)
        out[:, m] = c * pts[:, 0] ** (a - dx) * pts[:, 1] ** (b - dy)
    return out


class ReferenceElement:
    """Lagrange basis of degree k on the reference triangle."""

    def __init__(self, degree):
        if degree < 2:
            raise ValueError("degree must be at least 2")
        self.degree = degree
        self.nodes_bary, self.entities = bary_lattice(degree)
        self.nodes = self.nodes_bary[:, 1:]  # reference coordinates (xi, eta)
        self.powers = _monomial_powers(degree)
        vand = _mono_table(self.nodes, self.powers)
        self.coeffs = np.linalg.inv(vand)

    @property
    def num_nodes(self):
        return len(self.nodes)

    def tabulate(self, points_ref):
        """Basis values/derivatives at reference points.

        Returns dict with 'val' (n, nloc), 'grad' (n, nloc, 2) and 'hess'
        (n, nloc, 3), Hessian components ordered (dxx, dxy, dyy) in
        reference coordinates.
        """
        pts = np.atleast_2d(points_ref)
        val = _mono_table(pts, self.powers) @ self.coeffs
        grad = np.stack([
            _mono_table(pts, self.powers, 1, 0) @ self.coeffs,
            _mono_table(pts, self.powers, 0, 1) @ self.coeffs,
        ], axis=-1)
        hess = np.stack([
            _mono_table(pts, self.powers, 2, 0) @ self.coeffs,
            _mono_table(pts, self.powers, 1, 1) @ self.coeffs,
            _mono_table(pts, self.powers, 0, 2) @ self.coeffs,
        ], axis=-1)
        return {"val": val, "grad": grad, "hess": hess}


class Quadrature:
    """Conical-product rule on the reference triangle, exact to a set order.

    points are barycentric; weights are positive and sum to 1, so that
    integral over a cell K = |K| * sum(w * f(points)).
    """

    def __init__(self, order):
        n = (order + 2) // 2  # Gauss with n points is exact to degree 2n-1
        xj, wj = roots_jacobi(n, 1.0, 0.0)
        xl, wl = roots_legendre(n)
        u = 0.5 * (xj + 1.0)   # absorbs the (1-u) cone factor
        v = 0.5 * (xl + 1.0)
        wu = wj / 4.0
        wv = wl / 2.0
        xi = np.repeat(u, n)
        eta = np.tile(v, n) * (1.0 - xi)
        w = 2.0 * np.repeat(wu, n) * np.tile(wv, n)  # normalized: sum = 1
        self.order = order
        self.points = np.column_stack([1.0 - xi - eta, xi, eta])
        self.weights = w
        # a rule is shared (FeSpace.quadrature), so it is read-only
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def num_points(self):
        return len(self.weights)

    @property
    def points_ref(self):
        return self.points[:, 1:]

    def monomial_defect(self):
        """Max error against exact reference-triangle monomial integrals.

        integral over the reference triangle of x^a y^b = a! b! / (a+b+2)!.
        """
        worst = 0.0
        for a in range(self.order + 1):
            for b in range(self.order + 1 - a):
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                approx = 0.5 * np.sum(
                    self.weights * self.points[:, 1] ** a * self.points[:, 2] ** b
                )
                worst = max(worst, abs(approx - exact))
        return worst


class FeSpace:
    """Global C0 Lagrange space over a mesh.

    dofs are numbered by entity: mesh vertices, then mesh edges (k-1 dofs
    each, ordered away from the edge's smaller vertex index), then cell
    interiors.  This makes shared-edge dofs coincide by construction.
    The unknowns of a solve are numbered once, here: interior_index maps
    each dof to its position in interior_dofs, a boundary dof to
    len(interior_dofs).
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = int(degree)
        self.ref = ReferenceElement(self.degree)

        edges, cell_edges = mesh.edge_midpoint_index()
        nv, ne, nc = mesh.num_vertices, len(edges), mesh.num_cells
        k = self.degree
        n_edge = k - 1
        n_cell = (k - 1) * (k - 2) // 2
        self.num_dofs = nv + ne * n_edge + nc * n_cell

        cell_dofs = np.empty((nc, self.ref.num_nodes), dtype=np.int64)
        for n, ent in enumerate(self.ref.entities):
            if ent[0] == "vertex":
                cell_dofs[:, n] = mesh.cells[:, ent[1]]
            elif ent[0] == "edge":
                e, s = ent[1], ent[2]
                first = mesh.cells[:, e]
                second = mesh.cells[:, (e + 1) % 3]
                eid = cell_edges[:, e]
                # rank measured from the globally smaller endpoint
                rank = np.where(first < second, s - 1, k - s - 1)
                cell_dofs[:, n] = nv + eid * n_edge + rank
            else:
                cell_dofs[:, n] = nv + ne * n_edge + \
                    np.arange(nc) * n_cell + ent[1]
        self.cell_dofs = cell_dofs

        coords = np.empty((self.num_dofs, 2))
        coords[:nv] = mesh.vertices
        for r in range(n_edge):
            t = (r + 1) / k
            a = mesh.vertices[edges[:, 0]]
            b = mesh.vertices[edges[:, 1]]
            coords[nv + np.arange(ne) * n_edge + r] = a + t * (b - a)
        if n_cell:
            interior = [i for i, e in enumerate(self.ref.entities)
                        if e[0] == "cell"]
            lam = self.ref.nodes_bary[interior]  # (n_cell, 3)
            xy = mesh.cell_coords()  # (nc, 3, 2)
            pts = np.einsum("rj,cjd->crd", lam, xy)
            base = nv + ne * n_edge
            coords[base:] = pts.reshape(-1, 2)
        self.dof_coords = coords

        # boundary dofs: boundary vertices plus dofs of boundary edges
        beid = mesh.edge_index(mesh.boundary_edges)
        self.boundary_dofs = np.unique(np.concatenate([
            mesh.boundary_edges.ravel(),
            (nv + beid[:, None] * n_edge + np.arange(n_edge)).ravel()]))
        mask = np.ones(self.num_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.interior_dofs = np.nonzero(mask)[0]
        ni = len(self.interior_dofs)
        self.interior_index = np.full(self.num_dofs, ni, dtype=np.int64)
        self.interior_index[self.interior_dofs] = np.arange(ni)
        self.interior_index.flags.writeable = False

        # the mesh's affine cell maps, shared read-only
        self.cell_jinv = inv = mesh.cell_jinv
        self.cell_areas = mesh.cell_areas
        # Packed push-forward of Hessians, H -> A^T H A with A = Jinv:
        # (hxx, hxy, hyy)_phys = cell_hess_push @ (hxx, hxy, hyy)_ref.
        a00, a01 = inv[:, 0, 0], inv[:, 0, 1]
        a10, a11 = inv[:, 1, 0], inv[:, 1, 1]
        push = np.empty((nc, 3, 3))
        push[:, 0] = np.column_stack([a00 * a00, 2 * a00 * a10, a10 * a10])
        push[:, 1] = np.column_stack([a00 * a01, a00 * a11 + a01 * a10,
                                      a10 * a11])
        push[:, 2] = np.column_stack([a01 * a01, 2 * a01 * a11, a11 * a11])
        self.cell_hess_push = push

        self._rules = {}
        self._tab_cache = {}
        self._elements = None  # built by assembly.element_layer
        self._jump_blocks = None  # built by assembly._edge_jump_blocks
        self._jump_matrix = None  # built by assembly.gradient_jump_matrix

    def __repr__(self):
        return (f"FeSpace(degree={self.degree}, dofs={self.num_dofs}, "
                f"cells={self.mesh.num_cells})")

    def quadrature(self, order):
        """The rule exact to degree `order`, built once per space and order."""
        if order not in self._rules:
            self._rules[order] = Quadrature(order)
        return self._rules[order]

    def default_quadrature(self):
        """The rule of order 2k used for assembly."""
        return self.quadrature(2 * self.degree)

    def error_quadrature(self):
        """The rule of order 2k+2 used for norms, errors and pairings."""
        return self.quadrature(2 * self.degree + 2)

    def sample(self, f, quad):
        """Samples (nc, nq, ...) of a field at the physical points of a rule.

        f is a field as eval_field takes it: (n, 2) points to (n,) values
        or (n, m) rows, m >= 2; eval_field raises ValueError for any other
        shape and for a sample that is not finite.
        """
        pts = self.tables(quad)["points"]
        vals = eval_field(f, pts.reshape(-1, 2))
        return vals.reshape(pts.shape[:2] + vals.shape[1:])

    def integrate(self, dens, quad):
        """Integral over the domain of a density sampled (nc, nq) at a rule."""
        return float(np.sum(self.cell_areas * (dens @ quad.weights)))

    def tables(self, quad):
        """Cached read-only reference tabulation at a rule's points, with
        their physical 'points' (nc, nq, 2) and 'weights' |K| w_q (nc, nq)."""
        key = quad.order
        if key not in self._tab_cache:
            tab = self.ref.tabulate(quad.points_ref)
            tab["points"] = np.einsum("qj,cjd->cqd", quad.points,
                                      self.mesh.cell_coords())
            tab["weights"] = self.cell_areas[:, None] * quad.weights[None, :]
            for arr in tab.values():
                arr.flags.writeable = False
            self._tab_cache[key] = tab
        return self._tab_cache[key]

    def interior_edge_tables(self, t, key):
        """Basis tables of both owner cells at points on every interior edge.

        The points are a + t (b - a) for each interior edge with sorted
        vertex pair (a, b) (see Mesh.interior_edges).  In the reference
        element they lie at fixed points of one of the 3 local edges, run
        in one of 2 directions, so 6 tabulations serve all edges.  Returns
        the reference tabulation `key` ('val', 'grad' or 'hess') with shape
        (ni, 2, len(t), nloc, ...), axis 1 running over the two owners.
        """
        pairs, owners, local, _ = self.mesh.interior_edges()
        corner = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        along = np.stack([t, 1.0 - t])  # forward, backward
        ref = (corner[:, None, None, :] + along[None, :, :, None]
               * (corner[[1, 2, 0]] - corner)[:, None, None, :])
        tab = self.ref.tabulate(ref.reshape(-1, 2))[key]
        tab = tab.reshape((3, 2, len(t)) + tab.shape[1:])
        # local edge e runs from cell vertex e to vertex e + 1
        backward = self.mesh.cells[owners, local] != pairs[:, [0]]
        return tab[local, backward.astype(np.int64)]


class FeFunction:
    """Member of an FeSpace, stored by its global coefficient vector."""

    def __init__(self, space, coeffs=None):
        self.space = space
        if coeffs is None:
            coeffs = np.zeros(space.num_dofs)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (space.num_dofs,):
            raise ValueError("coefficient vector has wrong length")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    def copy(self):
        return FeFunction(self.space, self.coeffs.copy())

    def _eval_tab(self, points, key):
        cells, ref = self.space.mesh.locate(points)
        tab = self.space.ref.tabulate(ref)[key]
        local = self.coeffs[self.space.cell_dofs[cells]]
        return np.einsum("pl...,pl->p...", tab, local), cells

    def __call__(self, points):
        v, _ = self._eval_tab(points, "val")
        return v if np.asarray(points).ndim == 2 else float(v[0])

    def gradient(self, points):
        g_ref, cells = self._eval_tab(points, "grad")
        jinv = self.space.cell_jinv[cells]
        g = np.einsum("pji,pj->pi", jinv, g_ref)
        return g if np.asarray(points).ndim == 2 else g[0]

    def hessian(self, points):
        """Cellwise Hessians as (n, 3) arrays (dxx, dxy, dyy)."""
        h_ref, cells = self._eval_tab(points, "hess")
        h = np.einsum("pab,pb->pa", self.space.cell_hess_push[cells], h_ref)
        return h if np.asarray(points).ndim == 2 else h[0]

    def cellwise(self, key, tab):
        """Values, gradients or Hessians on every cell at tabulated points.

        tab is a reference tabulation (ReferenceElement.tabulate) at nq
        points and key one of its entries; returns (nc, nq) values, (nc,
        nq, 2) gradients or (nc, nq, 3) Hessians (dxx, dxy, dyy).
        """
        space = self.space
        local = self.coeffs[space.cell_dofs]
        if key == "val":
            return local @ tab["val"].T
        if key == "grad":
            g_ref = np.einsum("cj,qjd->cqd", local, tab["grad"])
            return np.einsum("cji,cqj->cqi", space.cell_jinv, g_ref)
        return kernels.hessians_at_qpts(local, tab["hess"],
                                        space.cell_hess_push)

    def cell_values(self, quad):
        return self.cellwise("val", self.space.tables(quad))

    def cell_gradients(self, quad):
        return self.cellwise("grad", self.space.tables(quad))

    def cell_hessians(self, quad):
        """(nc, nq, 3) physical Hessians (dxx, dxy, dyy) at quadrature points."""
        return self.cellwise("hess", self.space.tables(quad))

    def save(self, path, mesh_ref):
        """Plain-text save: mesh file reference, degree, one coeff per line."""
        with open(path, "w") as fh:
            fh.write(f"{mesh_ref}\n{self.space.degree}\n")
            for c in self.coeffs:
                fh.write(f"{c:.17g}\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            lines = fh.read().splitlines()
        mesh_ref, degree = lines[0].strip(), int(lines[1])
        if not os.path.isabs(mesh_ref):
            mesh_ref = os.path.join(os.path.dirname(os.path.abspath(path)),
                                    mesh_ref)
        mesh = Mesh.load(mesh_ref)
        space = FeSpace(mesh, degree)
        return cls(space, np.array(lines[2:], dtype=float))


def eval_field(f, points):
    """Samples of a field at (n, 2) points; every field sample is taken here.

    A field is a callable mapping an (n, 2) array of points to (n,)
    values, or to (n, m) rows, m >= 2, for a field with vector values
    (gradients, Hessians).  It is called once, on all the points.  Raises
    ValueError when the result has any other shape (a callable written for
    one point returns one) or a sample is not finite; an exception raised
    by f itself propagates.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(f(pts), dtype=float)
    n = len(pts)
    if not (v.shape == (n,) or v.ndim == 2 and v.shape[0] == n
            and v.shape[1] >= 2):
        raise ValueError("a field maps (n, 2) points to (n,) values or "
                         "(n, m) rows, m >= 2; got shape {} for {} "
                         "points".format(v.shape, n))
    if not np.all(np.isfinite(v)):
        raise ValueError("field is not finite at a sample point")
    return v


def interpolate(space, u):
    """Nodal interpolant: coefficients are the field values at Lagrange nodes."""
    if isinstance(u, FeFunction) and u.space is space:
        # already determined by its nodal values; exact projection
        return u.copy()
    return FeFunction(space, eval_field(u, space.dof_coords))


def phys_quad_points(space, quad):
    """(nc, nq, 2) physical coordinates of quadrature points (read-only)."""
    return space.tables(quad)["points"]


def l2_error(v, exact):
    """L2 norm of v minus a callable field, with the space's error rule."""
    space = v.space
    quad = space.error_quadrature()
    d = v.cell_values(quad) - space.sample(exact, quad)
    return float(np.sqrt(space.integrate(d ** 2, quad)))


def broken_error_h2(v, exact, exact_grad, exact_hess):
    """Broken H2 error against callables for the field and its derivatives.

    exact_grad maps (n, 2) points to (n, 2) gradients; exact_hess to (n, 3)
    Hessian components (dxx, dxy, dyy).  The second-order term uses the
    Hessian Frobenius density dxx^2 + 2 dxy^2 + dyy^2.
    """
    space = v.space
    quad = space.error_quadrature()
    d0 = v.cell_values(quad) - space.sample(exact, quad)
    d1 = v.cell_gradients(quad) - space.sample(exact_grad, quad)
    d2 = v.cell_hessians(quad) - space.sample(exact_hess, quad)
    dens = (d0 ** 2 + d1[..., 0] ** 2 + d1[..., 1] ** 2
            + d2[..., 0] ** 2 + 2 * d2[..., 1] ** 2 + d2[..., 2] ** 2)
    return float(np.sqrt(space.integrate(dens, quad)))


def sup_error(v, exact, points):
    """Max |v - exact| over the given sample points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return float(np.max(np.abs(v(pts) - eval_field(exact, pts))))
