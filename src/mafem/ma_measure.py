"""Aleksandrov machinery as computation.

Normal mappings and Monge-Ampere measures of piecewise-linear convex
functions (vertex atoms = areas of subdifferential polygons), the partial
Monge-Ampere measure of piecewise-polynomial functions (cell-interior
density integrals, mass on cell boundaries excluded by definition), weak
convergence tests of the measures, the Aleksandrov maximum-principle bound,
convex envelopes of boundary data by 3D lower hull, and Hausdorff distances
of sampled upper graphs.
"""

import json

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from .errors import NonConvexInputError
from . import kernels
from .fespace import FeFunction, eval_field, phys_quad_points
from .geometry import clip_convex, signed_area


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
        """(nc, 2) constant gradient of each cell."""
        xy = self.mesh.cell_coords()
        e1 = xy[:, 1] - xy[:, 0]
        e2 = xy[:, 2] - xy[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        vc = self.values[self.mesh.cells]
        d1 = vc[:, 1] - vc[:, 0]
        d2 = vc[:, 2] - vc[:, 0]
        gx = (e2[:, 1] * d1 - e1[:, 1] * d2) / det
        gy = (-e2[:, 0] * d1 + e1[:, 0] * d2) / det
        return np.column_stack([gx, gy])

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xy = self.mesh.cell_coords()
        e1 = xy[:, 1] - xy[:, 0]
        e2 = xy[:, 2] - xy[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        out = np.empty(len(pts))
        vc = self.values[self.mesh.cells]
        for i, p in enumerate(pts):
            r = p[None, :] - xy[:, 0]
            a = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
            b = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
            ok = (a >= -1e-12) & (b >= -1e-12) & (a + b <= 1 + 1e-12)
            if not ok.any():
                raise ValueError("point outside the mesh domain")
            c = int(np.argmax(ok))
            out[i] = (vc[c, 0] + a[c] * (vc[c, 1] - vc[c, 0])
                      + b[c] * (vc[c, 2] - vc[c, 0]))
        return out if np.asarray(points).ndim == 2 else float(out[0])


def interpolate_p1(mesh, field):
    """P1 nodal interpolant on the mesh vertices."""
    return P1Function(mesh, eval_field(field, mesh.vertices))


def p1_convexity_violations(v, tol=1e-10):
    """Interior edges whose normal gradient jump is negative beyond tol.

    A piecewise-linear function is convex exactly when the jump of the
    normal derivative across every interior edge (in the direction of
    crossing) is nonnegative.
    """
    mesh = v.mesh
    grads = v.cell_gradients()
    cents = mesh.cell_coords().mean(axis=1)
    pairs, owners, _ = mesh.interior_edges()
    c1, c2 = owners[:, 0], owners[:, 1]
    tang = mesh.vertices[pairs[:, 1]] - mesh.vertices[pairs[:, 0]]
    nrm = np.column_stack([-tang[:, 1], tang[:, 0]])
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    flip = np.sum(nrm * (cents[c2] - cents[c1]), axis=1) < 0
    nrm[flip] *= -1.0
    jumps = np.sum((grads[c2] - grads[c1]) * nrm, axis=1)
    bad = np.flatnonzero(jumps < -tol)
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


def _incident_cells(mesh):
    """Per-vertex arrays of incident cell indices."""
    verts = mesh.cells.ravel()
    rows = np.repeat(np.arange(mesh.num_cells), 3)
    order = np.argsort(verts, kind="stable")
    counts = np.bincount(verts, minlength=mesh.num_vertices)
    return np.split(rows[order], np.cumsum(counts)[:-1])


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
    if vertex in set(map(int, mesh.boundary_vertex_indices())):
        raise ValueError(
            "vertex {} lies on the boundary; the subdifferential there is "
            "unbounded and unsupported".format(vertex))
    incident = np.nonzero((mesh.cells == vertex).any(axis=1))[0]
    return _gradient_polygon(mesh, v.cell_gradients(),
                             mesh.cell_coords().mean(axis=1),
                             vertex, incident)


def _gradient_polygon(mesh, grads, cents, vertex, incident):
    rel = cents[incident] - mesh.vertices[vertex]
    order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
    return SubdifferentialPolygon(mesh.vertices[vertex],
                                  grads[incident[order]])


def normal_mapping_hull_area(v):
    """Area of the convex hull of all cell gradients of a P1 function.

    Brute-force value of the normal-mapping image area, for cross-checking
    the total interior atom mass of a convex input.
    """
    from scipy.spatial import QhullError
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


def partial_ma_measure(v, region, quad=None, tol_convex=1e-10):
    """Sum over cells of the integral of det D2v over region-cell overlaps.

    Mass carried by cell boundaries (gradient jumps) is excluded by
    definition; for piecewise-linear v the result is therefore 0.  The
    clipped polygons are integrated exactly by a centroid fan of triangles
    with the cell quadrature.  Raises ValueError when the region is not
    contained in the mesh domain and NonConvexInputError when a sampled
    determinant on a touched cell is below -tol_convex.
    """
    fe = not isinstance(v, P1Function)
    mesh = v.space.mesh if fe else v.mesh
    if fe and quad is None:
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
            if det.min() < -tol_convex:
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
            incident = _incident_cells(mesh)
            boundary = set(map(int, mesh.boundary_vertex_indices()))
            for vertex in range(mesh.num_vertices):
                if vertex in boundary:
                    continue
                poly = _gradient_polygon(mesh, grads, cents, vertex,
                                         incident[vertex])
                self.atoms[vertex] = poly.area

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
        out = {"kind": "atomic" if self.atoms else "density",
               "total_atom_mass": float(sum(self.atoms.values())),
               "atoms": self.atom_table()}
        if regions:
            out["region_totals"] = {name: self.total(reg)
                                    for name, reg in regions.items()}
        return out

    def to_json(self, regions=None):
        return json.dumps(self.to_dict(regions), indent=2)


def measure_pairing(v, p, quad=None):
    """Integral of the test field p against the Monge-Ampere measure of v.

    P1 inputs pair through their vertex atoms, finite element inputs
    through the cellwise density det D2v by quadrature.
    """
    if isinstance(v, P1Function):
        atoms = MaMeasure(v).atoms
        vals = eval_field(p, v.mesh.vertices[list(atoms)])
        return float(sum(m * pv for m, pv in zip(atoms.values(), vals)))
    space = v.space
    if quad is None:
        quad = space.error_quadrature()
    h = v.cell_hessians(quad)
    det = h[..., 0] * h[..., 2] - h[..., 1] ** 2
    return space.integrate(det * space.sample(p, quad), quad)


def check_interior_support(v, p):
    """Reject test fields whose support touches the boundary of the mesh."""
    mesh = v.mesh if isinstance(v, P1Function) else v.space.mesh
    i, j = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    pts = np.vstack([mesh.vertices[i],
                     0.5 * (mesh.vertices[i] + mesh.vertices[j])])
    if np.max(np.abs(eval_field(p, pts))) > 1e-14:
        raise ValueError("test field support touches the boundary")


def weak_convergence_residual(sequence, limit, p, quad=None):
    """|int p dM[v_j] - int p dM[limit]| for each member of the sequence.

    The pairing uses vertex atoms for P1 inputs and the partial-measure
    cell densities for finite element inputs; p must be supported strictly
    inside the domain.
    """
    for v in list(sequence) + [limit]:
        check_interior_support(v, p)
    ref = measure_pairing(limit, p, quad=quad)
    return [abs(measure_pairing(v, p, quad=quad) - ref)
            for v in sequence]


def aleksandrov_bound(v, a, polygon, c_n=1.0, points=None):
    """Worst-case slack of the Aleksandrov maximum principle (n = 2).

    With C the minimum boundary value of v, evaluates
    max(0, -(v(x) - C))^2 - c_n * diam(Omega) * d(x, boundary) * int_Omega a
    over the sample points (default: cell quadrature points and interior
    Lagrange nodes) and returns the maximum.  A value <= 0 means the
    principle holds at every sample.
    """
    space = v.space
    quad = space.default_quadrature()
    avals = space.sample(a, quad)
    if avals.min() < 0.0:
        raise ValueError("the right-hand density a must be nonnegative")
    int_a = space.integrate(avals, quad)

    if points is None:
        points = np.vstack([phys_quad_points(space, quad).reshape(-1, 2),
                            space.dof_coords[space.interior_dofs]])
    points = np.atleast_2d(np.asarray(points, dtype=float))
    C = float(np.min(v.coeffs[space.boundary_dofs]))
    depth = np.maximum(0.0, -(np.asarray(v(points), dtype=float) - C))
    dist = np.maximum(polygon.distance_to_boundary(points), 0.0)
    slack = depth ** 2 - c_n * polygon.diameter * dist * int_a
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

    hull = ConvexHull(pts3)
    eq = hull.equations
    lower = eq[eq[:, 2] < -1e-10]
    planes = np.column_stack([
        -lower[:, 0] / lower[:, 2],
        -lower[:, 1] / lower[:, 2],
        -lower[:, 3] / lower[:, 2],
    ])
    return BoundaryEnvelope(planes, samples, values)


def hausdorff_distance(A, B):
    """Symmetric Hausdorff distance between two finite point sets."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if len(A) == 0 or len(B) == 0:
        raise ValueError("point sets must be nonempty")
    d_ab = cKDTree(B).query(A)[0].max()
    d_ba = cKDTree(A).query(B)[0].max()
    return float(max(d_ab, d_ba))


class UpperGraph:
    """Sampled upper graph of a field over a compact sample set.

    Holds the lifted samples (x, t) with t running from the field value up
    to a common ceiling in steps of the declared resolution, so Hausdorff
    comparisons see the region above the graph, not just its surface.
    """

    def __init__(self, points, values, resolution, ceiling=None,
                 kind="interior"):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.asarray(values, dtype=float)
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = float(resolution)
        self.kind = kind
        if ceiling is None:
            ceiling = float(values.max())
        rows = []
        for x, v in zip(points, values):
            levels = np.arange(v, ceiling + self.resolution, self.resolution)
            if len(levels) == 0:
                levels = np.array([v])
            rows.append(np.column_stack([np.tile(x, (len(levels), 1)),
                                         levels]))
        self.samples = np.vstack(rows)


def graph_convergence_check(b_sequence, b, points, resolution):
    """Sup-distance and upper-graph Hausdorff distance per sequence member.

    Returns a list of (sup_difference, hausdorff, ok) with ok true when
    the Hausdorff distance is below the sup difference plus the sampling
    resolution, the discrete form of the graph-convergence statement for
    uniformly convergent data.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ref_vals = eval_field(b, points)
    out = []
    for bs in b_sequence:
        vals = eval_field(bs, points)
        sup = float(np.max(np.abs(vals - ref_vals)))
        ceiling = float(max(vals.max(), ref_vals.max()))
        G1 = UpperGraph(points, vals, resolution, ceiling=ceiling)
        G2 = UpperGraph(points, ref_vals, resolution, ceiling=ceiling)
        hd = hausdorff_distance(G1.samples, G2.samples)
        out.append((sup, hd, bool(hd <= sup + resolution + 1e-12)))
    return out
