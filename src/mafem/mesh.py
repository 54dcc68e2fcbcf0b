"""Triangle meshes of convex polygons, with their affine cell maps.

A mesh stores vertices, cells (vertex index triples, counterclockwise) and
tagged boundary edges.  Meshes are built by fanning the polygon from its
centroid and refining uniformly; refinement splits each triangle into four
by connecting edge midpoints, so the mesh size halves exactly per level.

The mesh alone works out the affine cell maps x = v0 + J xi from the
reference triangle, J = [v1 - v0, v2 - v0]: J^-1 and the areas det(J)/2
when it is built, then on first use the edge tables (with interior-edge
normals), the cells around each vertex and the bucket grid of the point
locator.  It copies its input and all its arrays are read-only, so none of
these go stale.
"""

import numpy as np

from .errors import DegeneratePolygonError, EmptySubdomainError
from .geometry import ConvexPolygon, clip_halfplane


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


class Mesh:
    """Conforming triangle mesh.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3) int array, counterclockwise vertex triples
    boundary_edges : (nb, 2) int array, oriented along the boundary
    boundary_tags : (nb,) int array, polygon edge index each facet lies on
    cell_jinv : (nc, 2, 2) float array, inverse Jacobian of each cell map
    cell_areas : (nc,) float array, det(J)/2 > 0
    boundary_vertex_mask : (nv,) bool array, True on boundary vertices

    Clockwise cells are reversed.  A wrong shape, a vertex coordinate that
    is not finite or a vertex index outside [0, nv) raises ValueError, a
    zero-area cell DegeneratePolygonError.
    """

    def __init__(self, vertices, cells, boundary_edges, boundary_tags):
        self.vertices = np.array(vertices, dtype=float)
        self.cells = np.array(cells, dtype=np.int64)
        self.boundary_edges = np.array(boundary_edges, dtype=np.int64)
        self.boundary_tags = np.array(boundary_tags, dtype=np.int64)
        nv = len(self.vertices)
        for name, arr, width in (("vertices", self.vertices, 2),
                                 ("cells", self.cells, 3),
                                 ("boundary_edges", self.boundary_edges, 2)):
            if arr.ndim != 2 or arr.shape[1] != width:
                raise ValueError("{} must be an (n, {}) array, got shape {}"
                                 .format(name, width, arr.shape))
            if name != "vertices" and arr.size and not (
                    0 <= arr.min() and arr.max() < nv):
                raise ValueError("{} index out of range [0, {})".format(
                    name, nv))
        if self.boundary_tags.shape != self.boundary_edges.shape[:1]:
            raise ValueError("boundary_tags must be an (nb,) array")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertices must be finite")

        xy = self.cell_coords()
        jac = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(det == 0.0):
            raise DegeneratePolygonError("mesh contains a zero-area cell")
        # reversing a clockwise cell swaps the columns of J, which negates
        # det exactly
        flip = det < 0
        self.cells[flip] = self.cells[flip][:, [0, 2, 1]]
        jac[flip] = jac[flip][..., ::-1]
        det[flip] = -det[flip]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1] / det
        inv[:, 0, 1] = -jac[:, 0, 1] / det
        inv[:, 1, 0] = -jac[:, 1, 0] / det
        inv[:, 1, 1] = jac[:, 0, 0] / det
        self.cell_jinv = inv
        self.cell_areas = 0.5 * det
        self.boundary_vertex_mask = np.zeros(nv, dtype=bool)
        self.boundary_vertex_mask[self.boundary_edges] = True
        _read_only(self.vertices, self.cells, self.boundary_edges,
                   self.boundary_tags, self.cell_jinv, self.cell_areas,
                   self.boundary_vertex_mask)
        self._edges = None  # (edges, cell_edges), see edge_midpoint_index
        self._interior_edges = None
        self._vertex_cells = None
        self._grid = None  # _BucketGrid, see locate

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def __repr__(self):
        return f"Mesh({self.num_vertices} vertices, {self.num_cells} cells)"

    def cell_coords(self):
        """(nc, 3, 2) array of cell vertex coordinates."""
        return self.vertices[self.cells]

    def cell_metrics(self):
        """Per-cell (h_K, rho_K): longest edge and incircle radius 2|K|/perimeter."""
        xy = self.cell_coords()
        edges = np.linalg.norm(xy[:, [1, 2, 0]] - xy, axis=2)
        return edges.max(axis=1), 2.0 * self.cell_areas / edges.sum(axis=1)

    def mesh_size(self):
        """Largest cell diameter."""
        h, _ = self.cell_metrics()
        return float(h.max())

    def edge_midpoint_index(self):
        """Edge table (edges, cell_edges), computed once per mesh.

        edges (ne, 2) lists the sorted vertex pairs; cell_edges (nc, 3) maps
        local edge e (v_e to v_{e+1}) of each cell to its row in edges.  The
        arrays are read-only: a mesh is not modified once built.
        """
        if self._edges is None:
            # local edge e runs from cell vertex e to vertex e + 1; the key
            # a nv + b of its sorted pair (a, b) sorts as the pair does
            first = self.cells.T.ravel()
            second = self.cells[:, [1, 2, 0]].T.ravel()
            nv = self.num_vertices
            keys = (np.minimum(first, second) * nv
                    + np.maximum(first, second))
            keys, inverse = np.unique(keys, return_inverse=True)
            uniq = np.column_stack([keys // nv, keys % nv])
            cell_edges = inverse.reshape(3, self.num_cells).T
            _read_only(uniq, cell_edges)
            self._edges = (uniq, cell_edges)
        return self._edges

    def edge_index(self, pairs):
        """Rows of the edge list of edge_midpoint_index for vertex pairs.

        pairs (n, 2) may list each edge's vertices in either order; a pair
        that is not an edge of the mesh raises ValueError.
        """
        edges, _ = self.edge_midpoint_index()
        want = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                       axis=1)
        # the edge list is sorted by (first, second), so by this key too
        keys = edges[:, 0] * self.num_vertices + edges[:, 1]
        code = want[:, 0] * self.num_vertices + want[:, 1]
        ids = np.searchsorted(keys, code)
        found = ids < len(keys)
        found[found] = keys[ids[found]] == code[found]
        if not found.all():
            raise ValueError("vertex pair is not an edge of the mesh")
        return ids

    def interior_edges(self):
        """Edges shared by two cells, computed once per mesh.

        Returns (pairs, owners, local, normals): pairs (ni, 2) holds the
        sorted vertex pair of each interior edge, owners (ni, 2) its two
        cells (the lower cell index first), local (ni, 2) the edge's local
        index in each owner, as in edge_midpoint_index, and normals (ni, 2)
        its unit normal, pointing from the first owner into the second.
        The arrays are read-only.
        """
        if self._interior_edges is None:
            edges, cell_edges = self.edge_midpoint_index()
            flat = cell_edges.ravel()
            order = np.argsort(flat, kind="stable")
            counts = np.bincount(flat, minlength=len(edges))
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            interior = np.flatnonzero(counts == 2)
            first = starts[interior]
            slots = np.column_stack([order[first], order[first + 1]])
            pairs = edges[interior]
            owners, local = np.divmod(slots, 3)
            # the tangent along the first owner, which is counterclockwise,
            # turned clockwise: its outward normal, into the second owner
            tang = self.vertices[pairs[:, 1]] - self.vertices[pairs[:, 0]]
            tang[self.cells[owners[:, 0], local[:, 0]] != pairs[:, 0]] *= -1
            normals = np.column_stack([tang[:, 1], -tang[:, 0]])
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            _read_only(pairs, owners, local, normals)
            self._interior_edges = (pairs, owners, local, normals)
        return self._interior_edges

    def vertex_cells(self):
        """Per-vertex arrays of incident cell indices, ascending, computed
        once per mesh; the arrays are read-only."""
        if self._vertex_cells is None:
            verts = self.cells.ravel()
            rows = np.repeat(np.arange(self.num_cells), 3)
            order = np.argsort(verts, kind="stable")
            counts = np.bincount(verts, minlength=self.num_vertices)
            fans = tuple(np.split(rows[order], np.cumsum(counts)[:-1]))
            _read_only(*fans)
            self._vertex_cells = fans
        return self._vertex_cells

    def locate(self, points):
        """Cell index (n,) and reference coordinates (n, 2) of each point.

        The candidates of a point are the cells listed in its bucket of a
        grid built once per mesh (_BucketGrid); of these, takes the one whose
        least barycentric coordinate is largest.  Raises ValueError for a
        point that is not finite, or whose best least barycentric coordinate
        is below -1e-6 max(h, 1): a point outside the mesh.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if self._grid is None:
            self._grid = _BucketGrid(self)
        pid, cand, starts = self._grid.candidates(pts)
        d = pts[pid] - self.vertices[self.cells[cand, 0]]
        ref = np.einsum("pij,pj->pi", self.cell_jinv[cand], d)
        bary_min = np.minimum(np.minimum(ref[:, 0], ref[:, 1]),
                              1.0 - ref[:, 0] - ref[:, 1])
        top = np.maximum.reduceat(bary_min, starts)
        if np.any(top < -self._grid.tol):
            raise ValueError("point outside the meshed domain")
        # the first candidate attaining its point's maximum: candidates are
        # grouped by point, so pid is ascending
        hit = np.flatnonzero(bary_min == top[pid])
        best = hit[np.searchsorted(pid[hit], np.arange(len(pts)))]
        return cand[best], ref[best]

    def save(self, path):
        """Plain-text save.

        Format: vertex count, one "x y" line per vertex, cell count, one
        "i j k" line per cell (0-based), then one "i j tag" line per
        boundary edge until end of file.
        """
        with open(path, "w") as fh:
            fh.write(f"{self.num_vertices}\n")
            for x, y in self.vertices:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            fh.write(f"{self.num_cells}\n")
            for i, j, k in self.cells:
                fh.write(f"{i} {j} {k}\n")
            for (i, j), t in zip(self.boundary_edges, self.boundary_tags):
                fh.write(f"{i} {j} {t}\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            tokens = fh.read().split()
        nv = int(tokens[0])
        pos = 1
        verts = np.array(tokens[pos:pos + 2 * nv], dtype=float).reshape(nv, 2)
        pos += 2 * nv
        nc = int(tokens[pos])
        pos += 1
        cells = np.array(tokens[pos:pos + 3 * nc], dtype=np.int64).reshape(nc, 3)
        pos += 3 * nc
        rest = np.array(tokens[pos:], dtype=np.int64)
        if len(rest) % 3:
            raise ValueError("malformed boundary edge block")
        bdata = rest.reshape(-1, 3)
        return cls(verts, cells, bdata[:, :2], bdata[:, 2])


class _BucketGrid:
    """Uniform grid of about two buckets per cell, over a mesh's bounding box.

    Each cell is listed, in ascending order, in every bucket that its
    bounding box widened by pad overlaps.  A point that a cell accepts
    (least barycentric coordinate at least -tol) is within 2 tol h of the
    cell's box along each axis, since at most two of its barycentric
    coordinates are negative and each weighs a vertex offset of at most h;
    pad = 4 tol h leaves room for rounding.  So the cells of a point's
    bucket include every cell that can accept it.
    """

    def __init__(self, mesh):
        h = mesh.mesh_size()
        self.tol = 1e-6 * max(h, 1.0)
        pad = 4.0 * self.tol * h
        xy = mesh.cell_coords()
        lo_corner = xy.min(axis=1) - pad
        hi_corner = xy.max(axis=1) + pad
        self.lo = lo_corner.min(axis=0)
        # 0.7 rather than 1: a point then has about 3-5 candidates, and
        # bucket edges stay off the dyadic lines of a refined square
        self.size = 0.7 * np.sqrt(np.prod(hi_corner.max(axis=0) - self.lo)
                                  / mesh.num_cells)
        # the same rounding for the box corners as for the points, so a
        # point in a widened box lands in one of the box's buckets
        self.shape = self._index(hi_corner.max(axis=0)).astype(np.int64) + 1
        first = self._index(lo_corner).astype(np.int64)
        span = self._index(hi_corner).astype(np.int64) - first + 1
        count = span.prod(axis=1)
        cell = np.repeat(np.arange(mesh.num_cells), count)
        k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
        bucket = ((first[cell, 1] + k // span[cell, 0]) * self.shape[0]
                  + first[cell, 0] + k % span[cell, 0])
        self.members = cell[np.argsort(bucket, kind="stable")]
        self.starts = np.concatenate([[0], np.cumsum(
            np.bincount(bucket, minlength=self.shape.prod()))])

    def _index(self, pts):
        return np.floor((pts - self.lo) / self.size)

    def candidates(self, pts):
        """(pid, cand, starts): point index and cell of every candidate pair,
        grouped by point, and the offset of each point's first pair.

        Raises ValueError for a point outside the grid or in an empty bucket.
        """
        ij = self._index(pts)
        if np.any((ij < 0) | (ij >= self.shape)):
            raise ValueError("point outside the meshed domain")
        ij = ij.astype(np.int64)
        bucket = ij[:, 1] * self.shape[0] + ij[:, 0]
        first = self.starts[bucket]
        count = self.starts[bucket + 1] - first
        if np.any(count == 0):
            raise ValueError("point outside the meshed domain")
        starts = np.cumsum(count) - count
        pid = np.repeat(np.arange(len(pts)), count)
        cand = self.members[np.repeat(first - starts, count)
                            + np.arange(count.sum())]
        return pid, cand, starts


def _fan_mesh(polygon):
    """Initial mesh: triangles only, fanned from the centroid.

    A triangle is meshed by itself (one cell); other polygons get one cell
    per edge with the centroid as apex.
    """
    v = polygon.vertices
    n = len(v)
    if n == 3:
        verts = v.copy()
        cells = np.array([[0, 1, 2]])
        bedges = np.array([[0, 1], [1, 2], [2, 0]])
        btags = np.array([0, 1, 2])
    else:
        verts = np.vstack([v, polygon.centroid])
        cells = np.array([[i, (i + 1) % n, n] for i in range(n)])
        bedges = np.array([[i, (i + 1) % n] for i in range(n)])
        btags = np.arange(n)
    return Mesh(verts, cells, bedges, btags)


def refine_uniform(mesh):
    """Split every triangle into four congruent children via edge midpoints."""
    edges, cell_edges = mesh.edge_midpoint_index()
    nv = mesh.num_vertices
    mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    verts = np.vstack([mesh.vertices, mid])

    c = mesh.cells
    m01 = nv + cell_edges[:, 0]
    m12 = nv + cell_edges[:, 1]
    m20 = nv + cell_edges[:, 2]
    cells = np.vstack([
        np.column_stack([c[:, 0], m01, m20]),
        np.column_stack([m01, c[:, 1], m12]),
        np.column_stack([m20, m12, c[:, 2]]),
        np.column_stack([m01, m12, m20]),
    ])

    # Boundary facets split in two, each child inheriting the parent's tag.
    b = mesh.boundary_edges
    m = nv + mesh.edge_index(b)
    bedges = np.column_stack([b[:, 0], m, m, b[:, 1]]).reshape(-1, 2)
    return Mesh(verts, cells, bedges, np.repeat(mesh.boundary_tags, 2))


def triangulate(polygon, h_target=None, refinements=None):
    """Mesh a convex polygon: centroid fan, then uniform refinement.

    Exactly one of h_target (refine until mesh size <= h_target; positive
    and finite) or refinements (fixed number of levels; nonnegative) must
    be given; with neither, the fan mesh is returned as is.
    """
    if h_target is not None and refinements is not None:
        raise ValueError("give h_target or refinements, not both")
    if refinements is not None and refinements < 0:
        raise ValueError("refinements must be nonnegative, got {}".format(
            refinements))
    if h_target is not None and not 0.0 < h_target < np.inf:
        raise ValueError("h_target must be positive and finite, got {}"
                         .format(h_target))
    mesh = _fan_mesh(polygon)
    for _ in range(refinements or 0):
        mesh = refine_uniform(mesh)
    while h_target is not None and mesh.mesh_size() > h_target:
        mesh = refine_uniform(mesh)
    return mesh


def shape_metrics(mesh):
    """(max h_K/rho_K, h/h_min): shape regularity and quasi-uniformity."""
    h, rho = mesh.cell_metrics()
    return float((h / rho).max()), float(h.max() / h.min())


def interior_subdomain(polygon, delta):
    """Convex subdomain at distance delta from the boundary.

    Shrinks every edge inward by delta; raises EmptySubdomainError when
    nothing is left.  delta = 0 returns the polygon itself.
    """
    if delta < 0:
        raise ValueError("offset distance must be nonnegative")
    if delta == 0.0:
        return polygon
    v = polygon.vertices
    n = polygon.edge_normals()
    out = v.copy()
    for i in range(len(v)):
        out = clip_halfplane(out, v[i] + delta * n[i], n[i])
        if len(out) == 0:
            raise EmptySubdomainError(
                f"offset {delta} meets or exceeds the inradius")
    try:
        return ConvexPolygon(out)
    except DegeneratePolygonError as exc:
        raise EmptySubdomainError(
            f"offset {delta} meets or exceeds the inradius"
        ) from exc


def unit_square():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(n, radius=1.0, center=(0.0, 0.0)):
    th = 2.0 * np.pi * np.arange(n) / n
    c = np.asarray(center, dtype=float)
    return ConvexPolygon(c + radius * np.column_stack([np.cos(th), np.sin(th)]))


def check_mesh(mesh, polygon):
    """Sanity report: orientation, tiling of the polygon's area, boundary
    closure.

    Returns a dict of metrics; raises nothing (inspect the 'ok' flag).
    """
    areas = mesh.cell_areas
    regularity, uniformity = shape_metrics(mesh)
    report = {
        "num_vertices": mesh.num_vertices,
        "num_cells": mesh.num_cells,
        "min_area": float(areas.min()),
        "total_area": float(areas.sum()),
        "mesh_size": mesh.mesh_size(),
        "shape_regularity": regularity,
        "quasi_uniformity": uniformity,
    }
    report["polygon_area"] = polygon.area
    ok = (areas.min() > 0.0 and abs(areas.sum() - polygon.area)
          <= 1e-10 * max(polygon.area, 1.0))
    # Boundary edges, traversed in order, must each appear in exactly one cell.
    edges, cell_edges = mesh.edge_midpoint_index()
    counts = np.bincount(cell_edges.ravel(), minlength=len(edges))
    boundary_set = {tuple(sorted(map(int, e))) for e in mesh.boundary_edges}
    mesh_boundary = {tuple(map(int, edges[i])) for i in np.nonzero(counts == 1)[0]}
    report["boundary_consistent"] = boundary_set == mesh_boundary
    ok = ok and report["boundary_consistent"]
    report["ok"] = bool(ok)
    return report
