"""Tests for the problem catalogue and the JSON problem loader."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mafem.problems import (CATALOGUE, NAMED_FIELDS, Problem, get_problem,
                            problem_from_json, problems_dir)
from mafem.fespace import eval_field


# Any JSON value.  Integers stay small because an integer "levels" n is
# expanded into n levels, so a huge one only allocates.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-100, 100) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

SCHEMA_KEYS = ["name", "polygon", "f", "g", "exact", "solve_boundary", "k",
               "levels", "regularization", "regularization.epsilon_schedule",
               "regularization.truncate_schedule",
               "regularization.mollify_radius"]


def _with_value(key, value):
    """A valid problem object with one schema key set to value."""
    obj = {"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
           "f": {"name": "one"}, "g": {"name": "zero"},
           "regularization": {"epsilon_schedule": [0.0]}}
    head, _, sub = key.partition(".")
    if sub:
        obj[head][sub] = value
    else:
        obj[head] = value
    return obj


def _lattice(polygon, n=15):
    """Cell centres of an n x n grid over the polygon's bounding box, kept
    where they lie in the polygon."""
    lo, hi = polygon.vertices.min(axis=0), polygon.vertices.max(axis=0)
    t = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(lo[0] + (hi[0] - lo[0]) * t,
                         lo[1] + (hi[1] - lo[1]) * t)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[polygon.contains(pts)]


def _consistency_gap(prob):
    """Max |det(exact Hessian) - f| over a lattice inside the domain."""
    pts = _lattice(prob.polygon)
    h = eval_field(prob.exact_hess, pts)
    det = h[:, 0] * h[:, 2] - h[:, 1] ** 2
    return float(np.max(np.abs(det - eval_field(prob.f, pts))))


@pytest.fixture(scope="module")
def samples():
    return _lattice(get_problem("smooth").polygon)


class TestCatalogue:

    def test_names(self):
        assert sorted(CATALOGUE) == ["degenerate", "envelope", "singular",
                                     "smooth"]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("no_such_problem")

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_exact_data_consistent(self, name):
        # det of the declared exact Hessian reproduces the density f
        prob = get_problem(name)
        assert _consistency_gap(prob) <= 1e-8

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_exact_gradient_matches_difference_quotients(self, name, samples):
        prob = get_problem(name)
        eps = 1e-6
        ex = np.array([eps, 0.0])
        ey = np.array([0.0, eps])
        gx = (prob.exact(samples + ex) - prob.exact(samples - ex)) / (2 * eps)
        gy = (prob.exact(samples + ey) - prob.exact(samples - ey)) / (2 * eps)
        g = prob.exact_grad(samples)
        scale = 1.0 + np.abs(g).max()
        assert np.max(np.abs(g[:, 0] - gx)) <= 1e-6 * scale
        assert np.max(np.abs(g[:, 1] - gy)) <= 1e-6 * scale

    def test_smooth_fields(self, samples):
        prob = get_problem("smooth")
        r2 = samples[:, 0] ** 2 + samples[:, 1] ** 2
        assert np.allclose(prob.exact(samples), np.exp(0.5 * r2))
        assert np.allclose(prob.f(samples), (1.0 + r2) * np.exp(r2))
        assert prob.solve_boundary is prob.g

    def test_degenerate_field_vanishes_on_core(self):
        prob = get_problem("degenerate")
        inside = np.array([[0.5, 0.5], [0.6, 0.5], [0.45, 0.58]])
        assert np.all(prob.f(inside) == 0.0)
        assert np.all(prob.exact(inside) == 0.0)
        outside = np.array([[0.9, 0.5], [0.1, 0.1]])
        assert np.all(prob.f(outside) > 0.0)

    def test_singular_density_blows_up_at_corner(self):
        prob = get_problem("singular")
        near = np.array([[0.999, 0.999]])
        far = np.array([[0.1, 0.1]])
        assert prob.f(near)[0] > 1e4 * prob.f(far)[0]
        assert abs(prob.exact(np.array([[1.0, 1.0]]))[0]) <= 1e-12
        assert prob.truncate_schedule == (10.0, 40.0, 160.0)

    def test_envelope_boundary_replacement(self):
        # the saddle trace is kept as g, while the solve imposes the trace
        # of its convex envelope; the two agree on horizontal edges only
        prob = get_problem("envelope")
        assert prob.solve_boundary is not prob.g
        bottom = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        left = np.column_stack([np.zeros(9), np.linspace(0, 1, 9)])
        assert np.allclose(prob.g(bottom), prob.solve_boundary(bottom))
        assert np.max(np.abs(prob.g(left) - prob.solve_boundary(left))) > 0.2
        assert np.all(prob.f(left) == 0.0)

    def test_interior_compact_of_unit_square(self):
        prob = get_problem("smooth")
        compact = prob.interior_compact()
        verts = compact.vertices
        assert np.allclose(sorted(verts[:, 0]), [0.1, 0.1, 0.9, 0.9])
        assert verts.min() >= 0.1 - 1e-12
        assert verts.max() <= 0.9 + 1e-12

    def test_constructor_validation(self):
        prob = get_problem("smooth")
        with pytest.raises(ValueError, match="degree"):
            Problem("bad", prob.polygon, prob.f, prob.g, degree=1)
        with pytest.raises(ValueError, match="level"):
            Problem("bad", prob.polygon, prob.f, prob.g, levels=())

    @pytest.mark.parametrize("levels", [(2, 2), (3, 2), (2, 4, 3)])
    def test_levels_must_strictly_increase(self, levels):
        prob = get_problem("smooth")
        with pytest.raises(ValueError, match="strictly increase"):
            Problem("bad", prob.polygon, prob.f, prob.g, levels=levels)

    def test_schedules_in_the_wrong_order_rejected(self):
        # shifts decrease and truncation levels M increase stage by stage;
        # a repeated value is allowed
        prob = get_problem("smooth")
        with pytest.raises(ValueError, match="must not increase"):
            Problem("bad", prob.polygon, prob.f, prob.g,
                    epsilon_schedule=(0.0, 1.0))
        with pytest.raises(ValueError, match="M must not decrease"):
            Problem("bad", prob.polygon, prob.f, prob.g,
                    truncate_schedule=(40.0, 10.0))
        ok = Problem("ok", prob.polygon, prob.f, prob.g,
                     epsilon_schedule=(1.0, 1e-6, 1e-6),
                     truncate_schedule=(10.0, 10.0, 40.0))
        assert ok.truncate_schedule == (10.0, 10.0, 40.0)

    def test_nonfinite_shift_rejected(self):
        # as the JSON loader rejects it; it used to construct, and the
        # solve then failed on a non-finite residual
        prob = get_problem("smooth")
        for schedule in ((float("inf"),), (float("inf"), 0.0)):
            with pytest.raises(ValueError, match="finite"):
                Problem("bad", prob.polygon, prob.f, prob.g,
                        epsilon_schedule=schedule)

    @pytest.mark.parametrize("radius", [-0.1, 0.0, float("nan"),
                                        float("inf")])
    def test_bad_mollify_radius_rejected(self, radius):
        # it used to construct, and a solve failed only after meshing, in
        # regularized()
        prob = get_problem("smooth")
        with pytest.raises(ValueError, match="mollify_radius"):
            Problem("bad", prob.polygon, prob.f, prob.g,
                    mollify_radius=radius)
        ok = Problem("ok", prob.polygon, prob.f, prob.g, mollify_radius=0.05)
        assert ok.mollify_radius == 0.05

    def test_to_dict_serializable(self):
        rec = get_problem("singular").to_dict()
        text = json.dumps(rec)
        assert json.loads(text)["truncate_schedule"] == [10.0, 40.0, 160.0]


class TestJsonLoader:

    def test_shipped_files_load(self):
        for fname in sorted(os.listdir(problems_dir())):
            prob = problem_from_json(os.path.join(problems_dir(), fname))
            assert prob.degree >= 2
            if prob.exact_hess is not None:
                assert _consistency_gap(prob) <= 1e-8

    def test_dict_with_polynomial_fields(self):
        prob = problem_from_json({
            "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "f": {"name": "one"},
            "g": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
            "exact": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
            "levels": 3,
        })
        assert prob.levels == (2, 3, 4)
        assert _consistency_gap(prob) <= 1e-13
        pts = np.array([[0.3, 0.4], [0.8, 0.1]])
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        assert np.allclose(prob.exact(pts), 0.5 * r2)
        assert np.allclose(prob.exact_grad(pts), pts)
        assert np.allclose(prob.exact_hess(pts),
                           np.tile([1.0, 0.0, 1.0], (2, 1)))

    def test_json_string_and_named_exact(self):
        text = json.dumps({
            "name": "smooth_again",
            "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "f": {"name": "smooth_f"},
            "g": {"name": "smooth_g"},
            "exact": {"name": "smooth_exact"},
            "levels": [2, 4],
            "k": 3,
        })
        prob = problem_from_json(text)
        assert prob.name == "smooth_again"
        assert prob.degree == 3
        assert prob.levels == (2, 4)
        # named exact pulls grad and Hessian from the catalogue entry
        assert prob.exact_hess is not None
        assert _consistency_gap(prob) <= 1e-10

    def test_regularization_block(self):
        prob = problem_from_json({
            "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "f": {"name": "one"},
            "g": {"name": "zero"},
            "regularization": {"epsilon_schedule": [0.5, 0.125],
                               "truncate_schedule": [8, 32],
                               "mollify_radius": 0.05},
        })
        assert prob.epsilon_schedule == (0.5, 0.125)
        assert prob.truncate_schedule == (8.0, 32.0)
        assert prob.mollify_radius == 0.05
        assert "subdomain_margin" not in prob.to_dict()

    @pytest.mark.parametrize("radius", [-0.1, 0])
    def test_nonpositive_mollify_radius_raises(self, radius):
        with pytest.raises(ValueError, match="positive and finite"):
            problem_from_json({
                "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                "f": {"name": "one"}, "g": {"name": "zero"},
                "regularization": {"mollify_radius": radius}})

    @pytest.mark.parametrize("key", ["regularization.delta",
                                     "regularization.epsilon_schedul",
                                     "delta", "kk", "exact_solution"])
    def test_unknown_key_raises(self, key):
        with pytest.raises(ValueError, match="unknown key '{}'".format(
                key.rpartition(".")[2])):
            problem_from_json(_with_value(key, 0.1))

    def test_solve_boundary_override(self):
        prob = problem_from_json({
            "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "f": {"name": "envelope_f"},
            "g": {"name": "envelope_g"},
            "solve_boundary": {"name": "envelope_exact"},
        })
        pts = np.array([[0.0, 0.25], [0.0, 0.75]])
        assert np.allclose(prob.solve_boundary(pts), 0.0)
        assert np.max(np.abs(prob.g(pts))) > 0.1

    def test_missing_key_raises(self):
        with pytest.raises(ValueError, match="missing field"):
            problem_from_json({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": {"name": "one"}})

    def test_unknown_field_name_raises(self):
        with pytest.raises(ValueError, match="unknown field name"):
            problem_from_json({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": {"name": "mystery"},
                               "g": {"name": "zero"}})

    def test_bad_field_spec_raises(self):
        with pytest.raises(ValueError, match="field spec"):
            problem_from_json({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": "one",
                               "g": {"name": "zero"}})
        with pytest.raises(ValueError, match="2D array"):
            problem_from_json({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": {"poly": [1.0, 2.0]},
                               "g": {"name": "zero"}})

    @pytest.mark.parametrize("key,value,match", [
        ("levels", 2.5, "'levels'"), ("levels", [2, 2.5], "'levels'"),
        ("levels", [-1], "negative"), ("k", [2], "'k'"), ("k", 2.5, "'k'"),
        ("k", True, "'k'"), ("regularization", [1], "'regularization'"),
        ("regularization.epsilon_schedule", 0.5, "'epsilon_schedule'"),
        ("regularization.truncate_schedule", [8, None],
         "'truncate_schedule'"),
        ("regularization.mollify_radius", "0.1", "'mollify_radius'"),
        ("polygon", {"x": 0}, "'polygon'"),
        ("polygon", [[0, 0], [1, "0"], [1, 1]], "'polygon'"),
        ("f", {"name": ["one"]}, "unknown field name"),
        ("g", {"poly": [[]]}, "'poly'"), ("name", 3, "'name'"),
    ])
    def test_wrong_type_raises_value_error(self, key, value, match):
        with pytest.raises(ValueError, match=match):
            problem_from_json(json.dumps(_with_value(key, value)))

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            problem_from_json(str(path))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SCHEMA_KEYS), JSON_VALUES)
    def test_malformed_values_raise_only_value_error(self, key, value):
        try:
            prob = problem_from_json(json.dumps(_with_value(key, value)))
        except ValueError:
            return
        assert isinstance(prob, Problem)

    def test_named_field_registry(self):
        pts = np.array([[0.2, 0.7]])
        assert NAMED_FIELDS["zero"](pts)[0] == 0.0
        assert NAMED_FIELDS["one"](pts)[0] == 1.0
        for name in CATALOGUE:
            assert name + "_f" in NAMED_FIELDS
            assert name + "_g" in NAMED_FIELDS
