"""Aleksandrov machinery as computation.

Normal mappings and Monge-Ampere measures of piecewise-linear convex
functions (vertex atoms = areas of subdifferential polygons), the partial
Monge-Ampere measure of piecewise-polynomial functions (cell-interior
density integrals, mass on cell boundaries excluded by definition), weak
convergence tests of the measures, the Aleksandrov maximum-principle bound,
and convex envelopes of boundary data by 3D lower hull.
"""

import json

import numpy as np

from .errors import NonConvexInputError
from . import kernels
from .fespace import eval_field, phys_quad_points
from .geometry import clip_convex, signed_area

P1_JUMP_TOL = 1e-10
DET_TOL = 1e-10


class P1Function:
    """Piecewise-linear function given by its values at mesh vertices."""

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (mesh.num_vertices,):
            raise ValueError("need one value per mesh vertex")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vertex values must be finite")

    def cell_gradients(self):
        """(nc, 2) constant gradient of each cell, J^-T (v1 - v0, v2 - v0)."""
        vc = self.values[self.mesh.cells]
        return np.einsum("cji,cj->ci", self.mesh.cell_jinv,
                         vc[:, 1:] - vc[:, :1])

    def __call__(self, points):
        """Values at points of the mesh domain (see Mesh.locate)."""
        cells, ref = self.mesh.locate(points)
        vc = self.values[self.mesh.cells[cells]]
        out = (vc[:, 0] + ref[:, 0] * (vc[:, 1] - vc[:, 0])
               + ref[:, 1] * (vc[:, 2] - vc[:, 0]))
        return out if np.asarray(points).ndim == 2 else float(out[0])


def interpolate_p1(mesh, field):
    """P1 nodal interpolant on the mesh vertices."""
    return P1Function(mesh, eval_field(field, mesh.vertices))


def p1_convexity_violations(v):
    """Interior edges whose normal gradient jump is below -P1_JUMP_TOL.

    A piecewise-linear function is convex exactly when the jump of the
    normal derivative across every interior edge (in the direction of
    crossing) is nonnegative.
    """
    grads = v.cell_gradients()
    pairs, owners, _, normals = v.mesh.interior_edges()
    jumps = np.sum((grads[owners[:, 1]] - grads[owners[:, 0]]) * normals,
                   axis=1)
    bad = np.flatnonzero(jumps < -P1_JUMP_TOL)
    return [(int(pairs[b, 0]), int(pairs[b, 1]), float(jumps[b]))
            for b in bad]


def _require_convex(v):
    """Raise NonConvexInputError listing the edges where P1 v is not convex."""
    bad = p1_convexity_violations(v)
    if bad:
        edges = ", ".join("({}, {})".format(i, j) for i, j, _ in bad[:8])
        raise NonConvexInputError(
            "function is not convex; negative normal-gradient jumps across "
            "edges " + edges)


class SubdifferentialPolygon:
    """Gradient polygon of a convex P1 function at an interior vertex.

    The vertices are the constant gradients of the incident cells in
    cyclic order; the polygon area is the Monge-Ampere atom mass at the
    vertex.
    """

    def __init__(self, vertex, gradient_vertices):
        self.vertex = np.asarray(vertex, dtype=float)
        self.gradient_vertices = np.asarray(gradient_vertices, dtype=float)
        self.area = float(signed_area(self.gradient_vertices)) \
            if len(self.gradient_vertices) >= 3 else 0.0
        if self.area < -1e-12:
            raise NonConvexInputError(
                "gradient polygon is negatively oriented (input not convex)")
        self.area = max(self.area, 0.0)

    def __repr__(self):
        return ("SubdifferentialPolygon(vertex={}, {} gradients, "
                "area={:.6g})".format(tuple(self.vertex),
                                      len(self.gradient_vertices), self.area))


def subdifferential_p1(v, vertex):
    """Subdifferential polygon of a convex P1 function at an interior vertex.

    Raises NonConvexInputError (listing the violating edges) when v is not
    convex, and ValueError for boundary vertices, where the subdifferential
    is unbounded and not supported.
    """
    mesh = v.mesh
    _require_convex(v)
    if not 0 <= vertex < mesh.num_vertices:
        raise ValueError("no vertex {} in the mesh".format(vertex))
    if mesh.boundary_vertex_mask[vertex]:
        raise ValueError(
            "vertex {} lies on the boundary; the subdifferential there is "
            "unbounded and unsupported".format(vertex))
    return _gradient_polygon(mesh, v.cell_gradients(),
                             mesh.cell_coords().mean(axis=1), vertex)


def _gradient_polygon(mesh, grads, cents, vertex):
    incident = mesh.vertex_cells()[vertex]
    rel = cents[incident] - mesh.vertices[vertex]
    order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
    return SubdifferentialPolygon(mesh.vertices[vertex],
                                  grads[incident[order]])


def normal_mapping_hull_area(v):
    """Area of the convex hull of all cell gradients of a P1 function.

    Brute-force value of the normal-mapping image area, for cross-checking
    the total interior atom mass of a convex input.
    """
    from scipy.spatial import ConvexHull, QhullError
    grads = v.cell_gradients()
    try:
        return float(ConvexHull(grads).volume)
    except QhullError:
        return 0.0  # coincident or collinear gradients: zero area


def _cell_hessians_at(v, cell, pts):
    """Physical Hessians (n, 3) of an FE function at points inside a cell."""
    space = v.space
    v0 = space.mesh.vertices[space.mesh.cells[cell, 0]]
    ref = (np.atleast_2d(pts) - v0) @ space.cell_jinv[cell].T
    tab = space.ref.tabulate(ref)["hess"]
    return kernels.hessians_at_qpts(v.coeffs[space.cell_dofs[cell]][None],
                                    tab, space.cell_hess_push[cell][None])[0]


def partial_ma_measure(v, region):
    """Sum over cells of the integral of det D2v over region-cell overlaps.

    Mass carried by cell boundaries (gradient jumps) is excluded by
    definition; for piecewise-linear v the result is therefore 0.  The
    clipped polygons are integrated exactly by a centroid fan of triangles
    with the space's assembly rule.  Raises ValueError when the region is
    not contained in the mesh domain and NonConvexInputError when a
    sampled determinant on a touched cell is below -DET_TOL.
    """
    fe = not isinstance(v, P1Function)
    mesh = v.space.mesh if fe else v.mesh
    if fe:
        quad = v.space.default_quadrature()
    coords = mesh.cell_coords()
    total = 0.0
    covered = 0.0
    for c in range(mesh.num_cells):
        poly = clip_convex(region.vertices, coords[c])
        if len(poly) < 3:
            continue
        part_area = signed_area(poly)
        if part_area <= 0.0:
            continue
        covered += part_area
        if not fe:
            continue
        centroid = poly.mean(axis=0)
        for i in range(len(poly)):
            tri = np.vstack([centroid, poly[i], poly[(i + 1) % len(poly)]])
            tri_area = signed_area(tri)
            if tri_area <= 0.0:
                continue
            pts = quad.points @ tri
            h = _cell_hessians_at(v, c, pts)
            det = h[:, 0] * h[:, 2] - h[:, 1] ** 2
            if det.min() < -DET_TOL:
                raise NonConvexInputError(
                    "det D2v = {:.3e} < 0 sampled on cell {}".format(
                        float(det.min()), c))
            total += tri_area * float(quad.weights @ det)
    if covered < region.area * (1.0 - 1e-10) - 1e-14:
        raise ValueError("region extends outside the mesh domain")
    return total


class MaMeasure:
    """Monge-Ampere measure of a piecewise convex function.

    For P1 inputs the measure is purely atomic: one atom per interior
    vertex with mass equal to the subdifferential polygon area.  For C0
    finite element inputs it is the partial measure: the absolutely
    continuous cellwise density det D2v, with cell-boundary mass excluded.
    """

    def __init__(self, v):
        self.function = v
        self.atoms = {}
        if isinstance(v, P1Function):
            _require_convex(v)
            mesh = v.mesh
            grads = v.cell_gradients()
            cents = mesh.cell_coords().mean(axis=1)
            for vertex in np.flatnonzero(~mesh.boundary_vertex_mask).tolist():
                self.atoms[vertex] = _gradient_polygon(mesh, grads, cents,
                                                       vertex).area

    def total(self, region):
        """Measure of a convex polygonal region."""
        if isinstance(self.function, P1Function):
            verts = self.function.mesh.vertices
            inside = region.contains(verts)
            return float(sum(m for vtx, m in self.atoms.items()
                             if inside[vtx]))
        return partial_ma_measure(self.function, region)

    def atom_table(self):
        verts = getattr(self.function, "mesh", None)
        return [{"vertex": int(k),
                 "x": float(verts.vertices[k][0]),
                 "y": float(verts.vertices[k][1]),
                 "mass": float(m)} for k, m in sorted(self.atoms.items())]

    def to_dict(self, regions=None):
        atomic = isinstance(self.function, P1Function)
        out = {"kind": "atomic" if atomic else "density",
               "total_atom_mass": float(sum(self.atoms.values())),
               "atoms": self.atom_table()}
        if regions:
            out["region_totals"] = {name: self.total(reg)
                                    for name, reg in regions.items()}
        return out

    def to_json(self, regions=None):
        return json.dumps(self.to_dict(regions), indent=2)


def cell_density(v):
    """The cellwise density det D2v of a finite element function, (nc, nq)
    at the points of its space's error rule."""
    h = v.cell_hessians(v.space.error_quadrature())
    return h[..., 0] * h[..., 2] - h[..., 1] ** 2


def measure_pairing(v, p, density=None):
    """Integral of the test field p against the Monge-Ampere measure of v.

    P1 inputs pair through their vertex atoms, finite element inputs
    through the cellwise density det D2v with the space's error rule;
    density, when given, is cell_density(v), so that pairings of one v
    with many test fields evaluate its Hessians once.
    """
    if isinstance(v, P1Function):
        atoms = MaMeasure(v).atoms
        vals = eval_field(p, v.mesh.vertices[list(atoms)])
        return float(sum(m * pv for m, pv in zip(atoms.values(), vals)))
    space = v.space
    quad = space.error_quadrature()
    if density is None:
        density = cell_density(v)
    return space.integrate(density * space.sample(p, quad), quad)


def check_interior_support(v, p):
    """Reject test fields whose support touches the boundary of the mesh."""
    mesh = v.mesh if isinstance(v, P1Function) else v.space.mesh
    i, j = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    pts = np.vstack([mesh.vertices[i],
                     0.5 * (mesh.vertices[i] + mesh.vertices[j])])
    if np.max(np.abs(eval_field(p, pts))) > 1e-14:
        raise ValueError("test field support touches the boundary")


def weak_convergence_residual(sequence, limit, p):
    """|int p dM[v_j] - int p dM[limit]| for each member of the sequence.

    The pairing uses vertex atoms for P1 inputs and the partial-measure
    cell densities for finite element inputs; p must be supported strictly
    inside the domain.
    """
    for v in list(sequence) + [limit]:
        check_interior_support(v, p)
    ref = measure_pairing(limit, p)
    return [abs(measure_pairing(v, p) - ref) for v in sequence]


def aleksandrov_bound(v, a, polygon):
    """Worst-case slack of the Aleksandrov maximum principle (n = 2).

    With C the minimum boundary value of v, evaluates
    max(0, -(v(x) - C))^2 - diam(Omega) * d(x, boundary) * int_Omega a,
    the principle with its dimensional constant taken as 1, at the points
    of the space's assembly rule and the interior Lagrange nodes, and
    returns the maximum.  int_Omega a is integrated with the same rule.
    A value <= 0 means the principle holds at every sample.
    """
    space = v.space
    quad = space.default_quadrature()
    avals = space.sample(a, quad)
    if avals.min() < 0.0:
        raise ValueError("the right-hand density a must be nonnegative")
    int_a = space.integrate(avals, quad)

    points = np.vstack([phys_quad_points(space, quad).reshape(-1, 2),
                        space.dof_coords[space.interior_dofs]])
    C = float(np.min(v.coeffs[space.boundary_dofs]))
    depth = np.maximum(0.0, -(np.asarray(v(points), dtype=float) - C))
    dist = np.maximum(polygon.distance_to_boundary(points), 0.0)
    slack = depth ** 2 - polygon.diameter * dist * int_a
    return float(np.max(slack))


class BoundaryEnvelope:
    """Convex envelope of boundary data, as max of lower-hull planes.

    Callable on any points of the closed domain; planes is the (m, 3)
    array of affine minorants z = a0*x + a1*y + a2.
    """

    def __init__(self, planes, samples, values):
        self.planes = np.asarray(planes, dtype=float)
        self.samples = samples
        self.values = values

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = pts @ self.planes[:, :2].T + self.planes[:, 2]
        out = vals.max(axis=1)
        return out if np.asarray(points).ndim == 2 else float(out[0])


def convex_envelope_boundary(polygon, b, per_edge=32):
    """Convex envelope of boundary data via the 3D lower hull of its graph.

    Samples b at per_edge points per polygon edge, computes the lower
    convex hull of the lifted samples (x, y, b(x, y)), and returns the
    envelope as a callable field (the max of the lower-facet planes); its
    restriction to the boundary is below b, with equality at all samples
    exactly when b extends to a convex function.
    """
    if per_edge < 3:
        raise ValueError("need at least 3 samples per edge")
    samples = polygon.boundary_samples(per_edge)
    values = eval_field(b, samples)
    pts3 = np.column_stack([samples, values])

    # affine data has a flat graph; the envelope is that plane
    A = np.column_stack([samples, np.ones(len(samples))])
    coef, res, _, _ = np.linalg.lstsq(A, values, rcond=None)
    flat_gap = np.max(np.abs(A @ coef - values))
    scale = 1.0 + np.max(np.abs(values))
    if flat_gap <= 1e-12 * scale:
        return BoundaryEnvelope(coef[None, :], samples, values)

    from scipy.spatial import ConvexHull
    hull = ConvexHull(pts3)
    eq = hull.equations
    lower = eq[eq[:, 2] < -1e-10]
    planes = np.column_stack([
        -lower[:, 0] / lower[:, 2],
        -lower[:, 1] / lower[:, 2],
        -lower[:, 3] / lower[:, 2],
    ])
    return BoundaryEnvelope(planes, samples, values)
