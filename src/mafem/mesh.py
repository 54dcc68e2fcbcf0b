"""Triangle meshes of convex polygons.

A mesh stores vertices, cells (vertex index triples, counterclockwise) and
tagged boundary edges.  Meshes are built by fanning the polygon from its
centroid and refining uniformly; refinement splits each triangle into four
by connecting edge midpoints, so the mesh size halves exactly per level.
"""

import numpy as np

from .errors import DegeneratePolygonError, EmptySubdomainError
from .geometry import ConvexPolygon, clip_halfplane, signed_area


class Mesh:
    """Conforming triangle mesh.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3) int array, counterclockwise vertex triples
    boundary_edges : (nb, 2) int array, oriented along the boundary
    boundary_tags : (nb,) int array, polygon edge index each facet lies on
    """

    def __init__(self, vertices, cells, boundary_edges, boundary_tags):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.boundary_edges = np.asarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = np.asarray(boundary_tags, dtype=np.int64)
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (nc, 3) index array")
        self._fix_orientation()
        self._edges = None  # (edges, cell_edges), see edge_midpoint_index
        self._interior_edges = None

    def _fix_orientation(self):
        v = self.vertices
        c = self.cells
        a = v[c[:, 1]] - v[c[:, 0]]
        b = v[c[:, 2]] - v[c[:, 0]]
        det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        if np.any(det == 0.0):
            raise DegeneratePolygonError("mesh contains a zero-area cell")
        flip = det < 0
        self.cells[flip] = self.cells[flip][:, [0, 2, 1]]

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

    def cell_areas(self):
        xy = self.cell_coords()
        a = xy[:, 1] - xy[:, 0]
        b = xy[:, 2] - xy[:, 0]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    def boundary_vertex_indices(self):
        return np.unique(self.boundary_edges)

    def cell_metrics(self):
        """Per-cell (h_K, rho_K): longest edge and incircle radius 2|K|/perimeter."""
        xy = self.cell_coords()
        e0 = np.linalg.norm(xy[:, 1] - xy[:, 0], axis=1)
        e1 = np.linalg.norm(xy[:, 2] - xy[:, 1], axis=1)
        e2 = np.linalg.norm(xy[:, 0] - xy[:, 2], axis=1)
        perim = e0 + e1 + e2
        h = np.max(np.stack([e0, e1, e2]), axis=0)
        rho = 2.0 * self.cell_areas() / perim
        return h, rho

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
            pairs = np.vstack([
                self.cells[:, [0, 1]], self.cells[:, [1, 2]],
                self.cells[:, [2, 0]],
            ])
            pairs = np.sort(pairs, axis=1)
            uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
            cell_edges = inverse.reshape(3, self.num_cells).T
            for arr in (uniq, cell_edges):
                arr.flags.writeable = False
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

        Returns (pairs, owners, local): pairs (ni, 2) holds the sorted
        vertex pair of each interior edge, owners (ni, 2) its two cells
        (the lower cell index first) and local (ni, 2) the edge's local
        index in each owner, as in edge_midpoint_index.  The arrays are
        read-only.
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
            for arr in (pairs, owners, local):
                arr.flags.writeable = False
            self._interior_edges = (pairs, owners, local)
        return self._interior_edges

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

    Exactly one of h_target (refine until mesh size <= h_target) or
    refinements (fixed number of levels) must be given; with neither, the
    fan mesh is returned as is.
    """
    if h_target is not None and refinements is not None:
        raise ValueError("give h_target or refinements, not both")
    mesh = _fan_mesh(polygon)
    if refinements is not None:
        for _ in range(refinements):
            mesh = refine_uniform(mesh)
        return mesh
    if h_target is not None:
        if h_target <= 0:
            raise ValueError("h_target must be positive")
        while mesh.mesh_size() > h_target:
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


def check_mesh(mesh, polygon=None):
    """Sanity report: orientation, area tiling, boundary closure.

    Returns a dict of metrics; raises nothing (inspect the 'ok' flag).
    """
    areas = mesh.cell_areas()
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
    ok = areas.min() > 0.0
    if polygon is not None:
        report["polygon_area"] = polygon.area
        ok = ok and abs(areas.sum() - polygon.area) <= 1e-10 * max(polygon.area, 1.0)
    # Boundary edges, traversed in order, must each appear in exactly one cell.
    edges, cell_edges = mesh.edge_midpoint_index()
    counts = np.bincount(cell_edges.ravel(), minlength=len(edges))
    boundary_set = {tuple(sorted(map(int, e))) for e in mesh.boundary_edges}
    mesh_boundary = {tuple(map(int, edges[i])) for i in np.nonzero(counts == 1)[0]}
    report["boundary_consistent"] = boundary_set == mesh_boundary
    ok = ok and report["boundary_consistent"]
    report["ok"] = bool(ok)
    return report
