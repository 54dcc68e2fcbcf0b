import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from mafem import (
    ConvexPolygon,
    DegeneratePolygonError,
    EmptySubdomainError,
    Mesh,
    check_mesh,
    interior_subdomain,
    refine_uniform,
    regular_polygon,
    shape_metrics,
    triangulate,
    unit_square,
)
from mafem.fespace import FeFunction, FeSpace, interpolate
from mafem.geometry import clip_convex, nearest_boundary_point
from mafem.ma_measure import interpolate_p1
from strategies import convex_polygons


def linprog_inradius(polygon):
    """The inradius as the optimum of its Chebyshev-centre LP, by HiGHS."""
    n, v = polygon.edge_normals(), polygon.vertices
    res = linprog([0.0, 0.0, -1.0],
                  A_ub=np.column_stack([-n, np.ones(len(v))]),
                  b_ub=-np.sum(n * v, axis=1), bounds=[(None, None)] * 3,
                  method="highs")
    assert res.success
    return float(res.x[2])


def tri_mesh(verts):
    verts = np.asarray(verts, dtype=float)
    return Mesh(verts, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 1, 2])


class TestConvexPolygon:
    def test_square_basics(self):
        sq = unit_square()
        assert sq.area == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(sq.centroid, [0.5, 0.5])
        assert sq.diameter == pytest.approx(np.sqrt(2.0))

    def test_rejects_too_few_vertices(self):
        with pytest.raises(DegeneratePolygonError):
            ConvexPolygon([[0, 0], [1, 0]])

    def test_rejects_clockwise(self):
        with pytest.raises(DegeneratePolygonError):
            ConvexPolygon([[0, 0], [0, 1], [1, 0]])

    def test_rejects_nonconvex(self):
        with pytest.raises(DegeneratePolygonError):
            ConvexPolygon([[0, 0], [2, 0], [1, 0.2], [0, 2]])

    def test_collinear_vertex_removed(self):
        p = ConvexPolygon([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]])
        assert len(p) == 4
        assert p.area == pytest.approx(1.0)

    def test_rejects_all_collinear(self):
        with pytest.raises(DegeneratePolygonError):
            ConvexPolygon([[0, 0], [1, 0], [2, 0]])

    def test_contains(self):
        sq = unit_square()
        inside = sq.contains(np.array([[0.5, 0.5], [0.0, 0.0], [1.1, 0.5]]))
        assert inside.tolist() == [True, True, False]

    def test_boundary_distance(self):
        sq = unit_square()
        d = sq.distance_to_boundary(np.array([[0.5, 0.5], [0.25, 0.5]]))
        assert d == pytest.approx([0.5, 0.25])

    def test_inradius_square(self):
        assert unit_square().inradius() == pytest.approx(0.5, abs=1e-9)

    def test_inradius_triangle(self):
        # right isoceles, legs 1: r = (a + b - c)/2
        t = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        assert t.inradius() == pytest.approx((2 - np.sqrt(2)) / 2, abs=1e-9)

    def test_inradius_rectangle(self):
        # two pairs of parallel edges: the LP optimum is a whole segment of
        # centres, and every vertex of it gives half the short side
        rect = ConvexPolygon([[-1.0, 0.5], [2.0, 0.5], [2.0, 1.5], [-1.0, 1.5]])
        assert rect.inradius() == 0.5
        assert rect.inradius() == pytest.approx(linprog_inradius(rect),
                                                rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(convex_polygons())
    def test_inradius_matches_the_lp(self, polygon):
        assert polygon.inradius() == pytest.approx(linprog_inradius(polygon),
                                                   rel=1e-13)

    def test_import_leaves_scipy_optimize_spatial_special_unloaded(self):
        # the Gauss rules and the point locator are numpy; scipy.spatial is
        # imported only by the two convex-hull functions of ma_measure
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, mafem; "
             "mafem.get_problem('envelope'); "
             "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial', "
             "'scipy.special') if m in sys.modules))"],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        assert out.stdout.strip() == "[]"

    def test_clip_convex_squares(self):
        a = unit_square().vertices
        b = a + 0.5
        inter = clip_convex(a, b)
        assert ConvexPolygon(inter).area == pytest.approx(0.25)

    def test_nearest_boundary_point(self):
        sq = unit_square()
        q = nearest_boundary_point(sq, np.array([[0.5, -0.3], [1.4, 0.5]]))
        assert np.allclose(q, [[0.5, 0.0], [1.0, 0.5]])


class TestTriangulate:
    def test_triangle_single_cell(self):
        t = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        mesh = triangulate(t, h_target=2.0)
        assert mesh.num_cells == 1
        assert mesh.cell_areas.sum() == pytest.approx(0.5, abs=1e-15)

    def test_square_area_conserved(self):
        mesh = triangulate(unit_square(), h_target=0.3)
        assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-12)
        assert mesh.mesh_size() <= 0.3

    def test_hexagon_area(self):
        mesh = triangulate(regular_polygon(6), h_target=0.5)
        assert mesh.cell_areas.sum() == pytest.approx(
            3.0 * np.sqrt(3.0) / 2.0, abs=1e-10
        )

    def test_rejects_negative_refinements(self):
        with pytest.raises(ValueError, match="refinements"):
            triangulate(unit_square(), refinements=-1)

    @pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_h_target_not_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="h_target"):
            triangulate(unit_square(), h_target=h)

    def test_rejects_degenerate(self):
        with pytest.raises(DegeneratePolygonError):
            ConvexPolygon([[0, 0], [1e-8, 0], [0, 1e-8]])

    def test_all_cells_positive(self):
        mesh = triangulate(regular_polygon(5), h_target=0.2)
        assert mesh.cell_areas.min() > 0


class TestRefine:
    def test_one_cell_to_four(self):
        mesh = refine_uniform(tri_mesh([[0, 0], [1, 0], [0, 1]]))
        assert mesh.num_cells == 4
        assert mesh.cell_areas.sum() == pytest.approx(0.5, abs=1e-15)

    def test_equilateral_children_similar(self):
        m0 = tri_mesh([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        m1 = refine_uniform(m0)
        r0, _ = shape_metrics(m0)
        r1, _ = shape_metrics(m1)
        assert r1 == pytest.approx(r0, rel=1e-12)

    def test_two_refinements(self):
        m0 = triangulate(unit_square())
        m2 = refine_uniform(refine_uniform(m0))
        assert m2.num_cells == 16 * m0.num_cells
        assert m2.mesh_size() == pytest.approx(m0.mesh_size() / 4, rel=1e-12)

    def test_boundary_tags_inherited(self):
        m = refine_uniform(triangulate(unit_square()))
        assert set(m.boundary_tags.tolist()) == {0, 1, 2, 3}
        # bottom-edge children stay on y = 0
        bottom = m.boundary_edges[m.boundary_tags == 0]
        assert np.all(m.vertices[np.unique(bottom)][:, 1] == 0.0)

    def test_conformity(self):
        mesh = refine_uniform(triangulate(regular_polygon(5)))
        report = check_mesh(mesh, regular_polygon(5))
        assert report["ok"]


class TestEdgeTables:
    def test_interior_edges(self):
        mesh = triangulate(regular_polygon(5), refinements=2)
        pairs, owners, local, normals = mesh.interior_edges()
        nb = len(mesh.boundary_edges)
        assert len(pairs) == (3 * mesh.num_cells - nb) // 2
        assert np.all(pairs[:, 0] < pairs[:, 1])
        assert np.all(owners[:, 0] < owners[:, 1])
        for s in range(2):
            cells = mesh.cells[owners[:, s]]
            rows = np.arange(len(pairs))
            ends = np.sort(np.column_stack([
                cells[rows, local[:, s]],
                cells[rows, (local[:, s] + 1) % 3]]), axis=1)
            assert np.array_equal(ends, pairs)
        # unit normals across each edge, from the first owner to the second
        tang = mesh.vertices[pairs[:, 1]] - mesh.vertices[pairs[:, 0]]
        cents = mesh.cell_coords().mean(axis=1)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-15)
        assert np.allclose(np.sum(normals * tang, axis=1), 0.0, atol=1e-15)
        assert np.all(np.sum(normals * (cents[owners[:, 1]]
                                        - cents[owners[:, 0]]), axis=1) > 0)
        keys = {tuple(e) for e in pairs.tolist()}
        assert len(keys) == len(pairs)
        assert not keys & {tuple(sorted(e)) for e in
                           mesh.boundary_edges.tolist()}

    def test_computed_once_and_read_only(self):
        mesh = triangulate(unit_square(), refinements=1)
        first = mesh.interior_edges()
        assert mesh.interior_edges() is first
        assert mesh.edge_midpoint_index() is mesh.edge_midpoint_index()
        for arr in first + mesh.edge_midpoint_index():
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_edge_index(self):
        mesh = triangulate(regular_polygon(5), refinements=1)
        edges, cell_edges = mesh.edge_midpoint_index()
        local = mesh.cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2)
        assert np.array_equal(mesh.edge_index(local[..., ::-1].reshape(-1, 2)),
                              cell_edges.ravel())
        with pytest.raises(ValueError, match="not an edge"):
            mesh.edge_index([[0, mesh.num_vertices]])

    @settings(max_examples=15, deadline=None)
    @given(convex_polygons(), st.integers(0, 3))
    def test_edge_table_matches_unique_pairs(self, polygon, level):
        mesh = triangulate(polygon, refinements=level)
        edges, cell_edges = mesh.edge_midpoint_index()
        pairs = np.sort(np.vstack([mesh.cells[:, [0, 1]],
                                   mesh.cells[:, [1, 2]],
                                   mesh.cells[:, [2, 0]]]), axis=1)
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        assert np.array_equal(edges, uniq)
        assert np.array_equal(cell_edges,
                              inverse.reshape(3, mesh.num_cells).T)

    def test_single_cell_has_none(self):
        mesh = tri_mesh([[0, 0], [1, 0], [0, 1]])
        pairs, owners, local, normals = mesh.interior_edges()
        assert pairs.shape == owners.shape == local.shape == (0, 2)
        assert normals.shape == (0, 2)


class TestShapeMetrics:
    def test_equilateral(self):
        m = tri_mesh([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        ratio, uniformity = shape_metrics(m)
        assert ratio == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)
        assert uniformity == 1.0

    def test_right_isoceles(self):
        m = tri_mesh([[0, 0], [1, 0], [0, 1]])
        ratio, _ = shape_metrics(m)
        assert ratio == pytest.approx(2.0 + 2.0 * np.sqrt(2.0), rel=1e-12)

    def test_uniform_square_mesh(self):
        _, uniformity = shape_metrics(triangulate(unit_square(), h_target=0.2))
        assert uniformity == pytest.approx(1.0, rel=1e-12)

    def test_regularity_preserved_under_refinement(self):
        m = triangulate(regular_polygon(7))
        r0, _ = shape_metrics(m)
        for _ in range(3):
            m = refine_uniform(m)
        r3, _ = shape_metrics(m)
        assert r3 == pytest.approx(r0, rel=1e-10)


class TestInteriorSubdomain:
    def test_square_offset(self):
        inner = interior_subdomain(unit_square(), 0.1)
        assert sorted(map(tuple, np.round(inner.vertices, 12))) == [
            (0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9),
        ]

    def test_zero_margin_identity(self):
        sq = unit_square()
        assert interior_subdomain(sq, 0.0) is sq

    def test_triangle_offset_distances(self):
        t = ConvexPolygon([[0, 0], [4, 0], [0, 4]])
        inner = interior_subdomain(t, 0.5)
        # every offset vertex at distance >= 0.5 from each input edge line
        for v, n in zip(t.vertices, t.edge_normals()):
            assert np.all((inner.vertices - v) @ n >= 0.5 - 1e-12)
        assert t.contains(inner.vertices).all()

    def test_too_large_margin(self):
        with pytest.raises(EmptySubdomainError):
            interior_subdomain(unit_square(), 0.6)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        mesh = refine_uniform(triangulate(regular_polygon(5)))
        path = tmp_path / "mesh.txt"
        mesh.save(path)
        back = Mesh.load(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.cells, mesh.cells)
        assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
        assert np.array_equal(back.boundary_tags, mesh.boundary_tags)

    def test_format_layout(self, tmp_path):
        mesh = triangulate(ConvexPolygon([[0, 0], [1, 0], [0, 1]]))
        path = tmp_path / "mesh.txt"
        mesh.save(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "3"
        assert lines[4] == "1"
        assert len(lines) == 5 + 1 + 3  # header+verts, cell block, 3 boundary edges


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_BOUNDARY = [[0, 1], [1, 2], [2, 3], [3, 0]]


class TestValidation:
    @pytest.mark.parametrize("cells", [[[0, 1, 2], [0, 2, -1]],
                                       [[0, 1, 2], [0, 2, 4]]])
    def test_cell_index_out_of_range(self, cells):
        with pytest.raises(ValueError, match="cells index out of range"):
            Mesh(SQUARE, cells, SQUARE_BOUNDARY, [0, 1, 2, 3])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_boundary_index_out_of_range(self, bad):
        with pytest.raises(ValueError, match="boundary_edges index"):
            Mesh(SQUARE, [[0, 1, 2], [0, 2, 3]],
                 [[0, 1], [1, 2], [2, 3], [3, bad]], [0, 1, 2, 3])

    @pytest.mark.parametrize("args,name", [
        ((SQUARE, [0, 1, 2], SQUARE_BOUNDARY, [0, 1, 2, 3]), "cells"),
        ((SQUARE, [[0, 1, 2, 3]], SQUARE_BOUNDARY, [0, 1, 2, 3]), "cells"),
        ((SQUARE, [[0, 1, 2], [0, 2, 3]], [0, 1, 2, 3], [0, 1, 2, 3]),
         "boundary_edges"),
        ((SQUARE, [[0, 1, 2], [0, 2, 3]], SQUARE_BOUNDARY, [0, 1, 2]),
         "boundary_tags"),
        ((SQUARE, [[0, 1, 2], [0, 2, 3]], SQUARE_BOUNDARY, [[0, 1, 2, 3]]),
         "boundary_tags"),
        (([0.0, 1.0, 2.0], [[0, 1, 2]], [[0, 1]], [0]), "vertices"),
    ])
    def test_wrong_shape(self, args, name):
        with pytest.raises(ValueError, match=name + " must be"):
            Mesh(*args)

    def test_load_rejects_negative_index(self, tmp_path):
        # -1 used to wrap around to the last vertex: a valid-looking square
        path = tmp_path / "mesh.txt"
        path.write_text("4\n0 0\n1 0\n1 1\n0 1\n2\n0 1 2\n0 2 -1\n"
                        "0 1 0\n1 2 1\n2 3 2\n3 0 3\n")
        with pytest.raises(ValueError, match="out of range"):
            Mesh.load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vertex(self, bad):
        # a NaN determinant passes both the zero-area and the orientation
        # test, so the coordinates are checked themselves
        with pytest.raises(ValueError, match="vertices must be finite"):
            Mesh([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]], [[0, 1, 2]],
                 [[0, 1], [1, 2], [2, 0]], [0, 1, 2])

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_load_rejects_nonfinite_vertex(self, tmp_path, token):
        path = tmp_path / "mesh.txt"
        path.write_text("4\n0 0\n1 0\n1 1\n0 {}\n2\n0 1 2\n0 2 3\n"
                        "0 1 0\n1 2 1\n2 3 2\n3 0 3\n".format(token))
        with pytest.raises(ValueError, match="vertices must be finite"):
            Mesh.load(path)

    def test_clockwise_cell_reversed(self):
        mesh = Mesh(SQUARE, [[0, 2, 1], [0, 2, 3]], SQUARE_BOUNDARY,
                    [0, 1, 2, 3])
        fresh = Mesh(SQUARE, mesh.cells, SQUARE_BOUNDARY, [0, 1, 2, 3])
        assert mesh.cells.tolist() == [[0, 1, 2], [0, 2, 3]]
        assert np.array_equal(mesh.cell_jinv, fresh.cell_jinv)
        assert np.array_equal(mesh.cell_areas, [0.5, 0.5])


def _interior_points(mesh, rng, n=40):
    """Random points strictly inside random cells."""
    lam = rng.dirichlet(np.ones(3), size=n)
    cells = rng.integers(mesh.num_cells, size=n)
    return np.einsum("pj,pjd->pd", lam, mesh.cell_coords()[cells])


MESHES = st.tuples(convex_polygons(), st.integers(0, 3))


class TestAffineCellMap:
    @settings(max_examples=10, deadline=None)
    @given(MESHES, st.integers(0, 2 ** 31))
    def test_locate_inverts_the_cell_map(self, drawn, seed):
        polygon, level = drawn
        mesh = triangulate(polygon, refinements=level)
        pts = _interior_points(mesh, np.random.default_rng(seed))
        cells, ref = mesh.locate(pts)
        xy = mesh.cell_coords()[cells]
        jac = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=-1)
        back = xy[:, 0] + np.einsum("pij,pj->pi", jac, ref)
        assert np.abs(back - pts).max() <= 1e-12 * np.abs(pts).max()
        assert (np.minimum(ref.min(axis=1), 1.0 - ref.sum(axis=1)).min()
                >= -1e-12)

    @settings(max_examples=10, deadline=None)
    @given(MESHES, st.integers(0, 2 ** 31))
    def test_p1_and_p2_reproduce_affine_fields(self, drawn, seed):
        polygon, level = drawn
        mesh = triangulate(polygon, refinements=level)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(3)
        field = lambda p: a[0] + p @ a[1:]
        pts = _interior_points(mesh, rng)
        exact = field(pts)
        tol = 1e-12 * (1.0 + np.abs(exact).max())
        assert np.abs(interpolate_p1(mesh, field)(pts) - exact).max() <= tol
        p2 = interpolate(FeSpace(mesh, 2), field)
        assert np.abs(p2(pts) - exact).max() <= tol

    @settings(max_examples=6, deadline=None)
    @given(MESHES, st.sampled_from([2, 3]), st.integers(0, 2 ** 31))
    def test_save_load_bit_exact(self, drawn, k, seed):
        polygon, level = drawn
        mesh = triangulate(polygon, refinements=level)
        u = FeFunction(FeSpace(mesh, k), np.random.default_rng(
            seed).standard_normal(FeSpace(mesh, k).num_dofs))
        with tempfile.TemporaryDirectory() as tmp:
            mesh.save(Path(tmp) / "mesh.txt")
            u.save(Path(tmp) / "u.txt", "mesh.txt")
            back = Mesh.load(Path(tmp) / "mesh.txt")
            u_back = FeFunction.load(Path(tmp) / "u.txt")
        for name in ("vertices", "cells", "boundary_edges", "boundary_tags",
                     "cell_jinv", "cell_areas"):
            assert np.array_equal(getattr(back, name), getattr(mesh, name))
        assert u_back.space.degree == k
        assert np.array_equal(u_back.coeffs, u.coeffs)
        assert np.array_equal(u_back.space.cell_dofs, u.space.cell_dofs)

    @settings(max_examples=6, deadline=None)
    @given(MESHES)
    def test_arrays_read_only(self, drawn):
        polygon, level = drawn
        mesh = triangulate(polygon, refinements=level)
        arrays = [mesh.vertices, mesh.cells, mesh.boundary_edges,
                  mesh.boundary_tags, mesh.cell_jinv, mesh.cell_areas,
                  mesh.boundary_vertex_mask]
        arrays += list(mesh.edge_midpoint_index()) + list(
            mesh.interior_edges()) + list(mesh.vertex_cells())
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError, match="read-only"):
            mesh.cell_jinv[0] = 0.0
        space = FeSpace(mesh, 2)
        assert space.cell_jinv is mesh.cell_jinv
        assert space.cell_areas is mesh.cell_areas


def _least_barycentric(mesh, pts, cells, ref=None):
    """Least barycentric coordinate of each point in each of its cells."""
    if ref is None:
        d = pts[:, None, :] - mesh.vertices[mesh.cells[cells, 0]]
        ref = np.einsum("pcij,pcj->pci", mesh.cell_jinv[cells], d)
    return np.minimum(np.minimum(ref[..., 0], ref[..., 1]),
                      1.0 - ref[..., 0] - ref[..., 1])


class TestLocate:
    @settings(max_examples=15, deadline=None)
    @given(convex_polygons(), st.integers(0, 4), st.integers(0, 2 ** 31))
    def test_matches_the_all_cells_oracle(self, polygon, level, seed):
        mesh = triangulate(polygon, refinements=level)
        rng = np.random.default_rng(seed)
        edges, _ = mesh.edge_midpoint_index()
        mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        pts = np.vstack([
            mesh.vertices[rng.permutation(mesh.num_vertices)[:100]],
            mids[rng.permutation(len(mids))[:100]],
            _interior_points(mesh, rng),
        ])
        cells, ref = mesh.locate(pts)
        # brute force: the largest least barycentric coordinate over all
        # cells, which every accepted point reaches
        every = np.broadcast_to(np.arange(mesh.num_cells),
                                (len(pts), mesh.num_cells))
        best = _least_barycentric(mesh, pts, every).max(axis=1)
        assert np.all(best >= -1e-12)
        got = _least_barycentric(mesh, pts, cells[:, None], ref[:, None])[:, 0]
        assert np.abs(got - best).max() <= 1e-13
        xy = mesh.cell_coords()[cells]
        jac = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=-1)
        back = xy[:, 0] + np.einsum("pij,pj->pi", jac, ref)
        assert np.abs(back - pts).max() <= 1e-12 * (1.0 + np.abs(pts).max())

        # just outside an edge of the polygon, yet inside its bounding box
        nb = len(mesh.boundary_edges)
        b = mesh.boundary_edges[rng.permutation(nb)[:10]]
        p, q = mesh.vertices[b[:, 0]], mesh.vertices[b[:, 1]]
        outward = np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]])
        outward /= np.linalg.norm(outward, axis=1, keepdims=True)
        near = 0.5 * (p + q) + 1e-3 * mesh.mesh_size() * outward
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        beyond = lo - 1e-3 * (hi - lo), hi + [1e-3, 0.0], [1e6, 0.0]
        for point in [*near[np.all((near > lo) & (near < hi), axis=1)],
                      *beyond]:
            assert _least_barycentric(mesh, np.atleast_2d(point),
                                      every[:1]).max() < -1e-6 * max(
                                          mesh.mesh_size(), 1.0)
            with pytest.raises(ValueError, match="outside"):
                mesh.locate(point)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_point_rejected(self, bad):
        mesh = triangulate(unit_square(), refinements=2)
        pts = np.array([[0.5, 0.5], [0.25, bad]])
        fe = interpolate(FeSpace(mesh, 2), lambda p: p[:, 0])
        p1 = interpolate_p1(mesh, lambda p: p[:, 0])
        for evaluate in (mesh.locate, fe, p1):
            with pytest.raises(ValueError, match="finite"):
                evaluate(pts)


class TestTopologyTables:
    def test_input_copied(self):
        verts = np.array(SQUARE)
        cells = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = Mesh(verts, cells, SQUARE_BOUNDARY, [0, 1, 2, 3])
        verts[0] = [5.0, 5.0]
        cells[0] = [3, 2, 1]
        assert mesh.vertices[0].tolist() == [0.0, 0.0]
        assert mesh.cells[0].tolist() == [0, 1, 2]

    def test_vertex_cells_and_boundary_mask(self):
        mesh = triangulate(regular_polygon(5), refinements=2)
        fans = mesh.vertex_cells()
        assert mesh.vertex_cells() is fans
        for vertex, fan in enumerate(fans):
            assert np.array_equal(
                fan, np.flatnonzero((mesh.cells == vertex).any(axis=1)))
        assert np.array_equal(np.flatnonzero(mesh.boundary_vertex_mask),
                              np.unique(mesh.boundary_edges))
