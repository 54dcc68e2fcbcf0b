"""Convex-polygon primitives used by the mesh, measure and harness layers.

All polygons are stored as (n, 2) float arrays of counterclockwise vertices.
Predicates use a tolerance scaled by the polygon diameter; vertex counts are
small, so no exact arithmetic is attempted.
"""

from itertools import combinations

import numpy as np

from .errors import DegeneratePolygonError

GEOM_RTOL = 1e-12


def _as_points(vertices):
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of 2D points")
    return pts


def signed_area(pts):
    """Shoelace area; positive for counterclockwise orientation."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def polygon_centroid(pts):
    x, y = pts[:, 0], pts[:, 1]
    cr = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * cr.sum()
    cx = np.sum((x + np.roll(x, -1)) * cr) / (6.0 * a)
    cy = np.sum((y + np.roll(y, -1)) * cr) / (6.0 * a)
    return np.array([cx, cy])


class ConvexPolygon:
    """Convex polygon with counterclockwise vertices.

    Consecutive duplicate and collinear vertices are removed on construction;
    afterwards every cross product of consecutive edges must be strictly
    positive.
    """

    def __init__(self, vertices):
        pts = _as_points(vertices)
        if len(pts) < 3:
            raise DegeneratePolygonError("polygon needs at least 3 vertices")
        scale = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1.0)
        tol = GEOM_RTOL * scale

        # Drop consecutive duplicates (closing vertex included).
        keep = [pts[0]]
        for p in pts[1:]:
            if np.linalg.norm(p - keep[-1]) > tol:
                keep.append(p)
        if np.linalg.norm(keep[-1] - keep[0]) <= tol:
            keep.pop()
        pts = np.array(keep)
        if len(pts) < 3:
            raise DegeneratePolygonError("polygon degenerates to fewer than 3 vertices")

        cross = self._edge_crosses(pts)
        if np.any(cross < -tol * scale):
            raise DegeneratePolygonError(
                "vertices are not in convex counterclockwise position"
            )
        # Remove collinear (zero-turn) vertices so the remaining turns are strict.
        pts = pts[cross > tol * scale]
        if len(pts) < 3:
            raise DegeneratePolygonError("polygon is degenerate (collinear vertices)")

        self.vertices = pts
        self.vertices.setflags(write=False)
        if self.area < 1e-14:
            raise DegeneratePolygonError("polygon area below 1e-14")

    @staticmethod
    def _edge_crosses(pts):
        prev = pts - np.roll(pts, 1, axis=0)
        nxt = np.roll(pts, -1, axis=0) - pts
        return prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"ConvexPolygon({len(self)} vertices, area={self.area:.6g})"

    @property
    def area(self):
        return signed_area(self.vertices)

    @property
    def centroid(self):
        return polygon_centroid(self.vertices)

    @property
    def diameter(self):
        pts = self.vertices
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    def edges(self):
        """Pairs (a, b) of consecutive vertices."""
        v = self.vertices
        return list(zip(v, np.roll(v, -1, axis=0)))

    def edge_normals(self):
        """Unit inward normals, one per edge."""
        v = self.vertices
        t = np.roll(v, -1, axis=0) - v
        n = np.stack([-t[:, 1], t[:, 0]], axis=1)  # left of edge = inward for CCW
        return n / np.linalg.norm(n, axis=1)[:, None]

    def contains(self, points):
        """Boolean mask: inside or on the boundary, within GEOM_RTOL * diam."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = GEOM_RTOL * self.diameter
        v = self.vertices
        n = self.edge_normals()
        inside = np.ones(len(pts), dtype=bool)
        for i in range(len(v)):
            inside &= (pts - v[i]) @ n[i] >= -tol
        return inside if np.asarray(points).ndim == 2 else inside[0]

    def distance_to_boundary(self, points):
        """Distance from interior points to the boundary (min over edges)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        n = self.edge_normals()
        d = np.min(np.stack([(pts - v[i]) @ n[i] for i in range(len(v))]), axis=0)
        return d if np.asarray(points).ndim == 2 else float(d[0])

    def inradius(self):
        """Radius of the largest inscribed circle.

        It is the optimum of the Chebyshev-centre LP: maximize r over
        (x, r) subject to n_i . x - r >= n_i . v_i for the inward unit
        normals n_i.  The LP is bounded and its feasible set has a vertex,
        so a vertex attains the optimum, where the constraints of three
        edges are active: x is equidistant from their three lines (three
        distinct unit normals make that 3 x 3 system nonsingular).  The
        radius of the largest circle centred at such an x inside the
        polygon is min_i (n_i . x - n_i . v_i), negative outside it, and
        the inradius is the largest of these over all triples of edges.
        """
        n = self.edge_normals()
        c = np.sum(n * self.vertices, axis=1)
        best = 0.0
        # one batch per first edge keeps the memory at O(len(self)^3)
        for i in range(len(n) - 2):
            jk = np.array(list(combinations(range(i + 1, len(n)), 2)))
            tri = np.column_stack([np.full(len(jk), i), jk])
            a = np.concatenate([n[tri], -np.ones(tri.shape + (1,))], axis=2)
            xr = np.linalg.solve(a, c[tri][..., None])[..., 0]
            best = max(best, float(np.max(np.min(xr[:, :2] @ n.T - c,
                                                 axis=1))))
        return best

    def boundary_samples(self, per_edge):
        """Evenly spaced boundary points, per_edge per edge (no duplicates)."""
        if per_edge < 1:
            raise ValueError("need at least one sample per edge")
        chunks = []
        for a, b in self.edges():
            t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
            chunks.append(a[None, :] * (1 - t[:, None]) + b[None, :] * t[:, None])
        return np.vstack(chunks)


def clip_convex(subject, clipper):
    """Sutherland-Hodgman clip of a convex subject polygon by a convex clipper.

    Both arguments are (n, 2) vertex arrays in CCW order; returns the (m, 2)
    intersection (possibly empty).
    """
    out = _as_points(subject)
    cl = _as_points(clipper)
    for i in range(len(cl)):
        if len(out) == 0:
            break
        a, b = cl[i], cl[(i + 1) % len(cl)]
        e = b - a
        out = clip_halfplane(out, a, np.array([-e[1], e[0]]))
    return out


def clip_halfplane(pts, anchor, normal):
    """Keep the part of a convex polygon with (p - anchor) . normal >= 0."""
    pts = _as_points(pts)
    if len(pts) == 0:
        return pts
    out = []
    prev = pts[-1]
    prev_in = (prev - anchor) @ normal >= 0.0
    for q in pts:
        cur_in = (q - anchor) @ normal >= 0.0
        if cur_in != prev_in:
            d = q - prev
            t = ((anchor - prev) @ normal) / (d @ normal)
            out.append(prev + t * d)
        if cur_in:
            out.append(q)
        prev, prev_in = q, cur_in
    return np.array(out) if out else np.zeros((0, 2))


def nearest_boundary_point(polygon, points):
    """Closest point on the polygon boundary for each query point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(pts), np.inf)
    out = np.zeros_like(pts)
    for a, b in polygon.edges():
        ab = b - a
        t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.linalg.norm(pts - proj, axis=1)
        closer = d < best
        best[closer] = d[closer]
        out[closer] = proj[closer]
    return out
