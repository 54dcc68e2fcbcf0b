import json
import os

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from mafem import (assembly, convexity, get_problem, regular_polygon,
                   solver, triangulate, unit_square)
from mafem.assembly import (gradient_jump_matrix, jacobian, load_vector,
                            residual, stiffness_matrix)
from mafem.errors import NonConvergenceError, SingularJacobianError
from mafem.fespace import FeFunction, FeSpace, Quadrature, interpolate
from mafem.geometry import ConvexPolygon
from mafem.mesh import Mesh
from mafem.solver import (
    SolveReport,
    SolverConfig,
    _factor_spd,
    continuation_solve,
    default_initial_guess,
    newton_solve,
)
from mafem.study import solve_problem
from strategies import convex_polygons


# a regular pentagon, listed from its vertex at angle 2 pi / 5
PENTAGON = ConvexPolygon(np.array(
    [[0.30901699437494745, 0.9510565162951535],
     [-0.8090169943749473, 0.5877852522924732],
     [-0.8090169943749476, -0.587785252292473],
     [0.30901699437494723, -0.9510565162951536],
     [1.0, -2.4492935982947064e-16]]))

# an octagon on which the quadratic of seed 1885894067, at level 1 and
# k = 3, is sensitive to the rounding of the objective's jump term
OCTAGON = ConvexPolygon(np.array(
    [[1.201466756199307, 0.5490832562465116],
     [0.10573278814563969, 1.136579020702008],
     [-0.7160135909925317, 0.9721514134673477],
     [-1.3709122254060013, 0.011275988994392744],
     [-1.0764659025026095, -0.7059487284244437],
     [-0.3008409340406103, -1.1121897848014572],
     [0.9142359393229583, -0.8495008590501187],
     [1.3709792957792337, -2.7921316468399936e-16]]))


def paraboloid(p):
    p = np.atleast_2d(p)
    return 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)


def one(p):
    return np.ones(len(np.atleast_2d(p)))


def zero(p):
    return np.zeros(len(np.atleast_2d(p)))


def smooth_exact(p):
    p = np.atleast_2d(p)
    return np.exp(0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))


def smooth_f(p):
    p = np.atleast_2d(p)
    r2 = p[:, 0] ** 2 + p[:, 1] ** 2
    return (1.0 + r2) * np.exp(r2)


@pytest.fixture(scope="module")
def space():
    return FeSpace(triangulate(unit_square(), refinements=3), 2)


@pytest.fixture(scope="module")
def coarse_space():
    return FeSpace(triangulate(unit_square(), refinements=2), 2)


class TestSolverConfig:
    def test_defaults(self):
        assert vars(SolverConfig()) == {"max_iters": 120,
                                        "continuation_schedule": ()}

    def test_invalid_rejected(self):
        for max_iters in (0, -3, 2.5, 3.0, True, "3", None, np.float64(3),
                          np.int64(0)):
            with pytest.raises(ValueError, match="max_iters"):
                SolverConfig(max_iters=max_iters)

    def test_negative_shift_rejected(self):
        for schedule in ([-0.5], (1.0, 0.5, -1e-12), [float("nan")]):
            with pytest.raises(ValueError, match="shifts must be >= 0"):
                SolverConfig(continuation_schedule=schedule)
        assert SolverConfig(continuation_schedule=[1.0, 0.0]) \
            .continuation_schedule == (1.0, 0.0)

    def test_numpy_integer_accepted(self):
        cfg = SolverConfig(max_iters=np.int32(7))
        assert cfg.max_iters == 7 and type(cfg.max_iters) is int

    def test_to_dict_roundtrips_via_json(self):
        cfg = SolverConfig(max_iters=7, continuation_schedule=(1.0, 0.5))
        d = json.loads(json.dumps(cfg.to_dict()))
        assert d == {"max_iters": 7, "continuation_schedule": [1.0, 0.5]}


class TestDefaultInitialGuess:
    def test_quadratic_data_reproduced(self, coarse_space):
        # The Poisson problem lap(u0) = 2 has the quadratic solution in the
        # space, so the Galerkin solve returns its interpolant exactly.
        u0 = default_initial_guess(coarse_space, one, paraboloid)
        ui = interpolate(coarse_space, paraboloid)
        assert np.max(np.abs(u0.coeffs - ui.coeffs)) <= 1e-12

    def test_affine_data_harmonic(self, coarse_space):
        aff = lambda p: 0.5 + 2.0 * np.atleast_2d(p)[:, 0] \
            - np.atleast_2d(p)[:, 1]
        u0 = default_initial_guess(coarse_space, zero, aff)
        ui = interpolate(coarse_space, aff)
        assert np.max(np.abs(u0.coeffs - ui.coeffs)) <= 1e-12

    def test_constant_four_gives_laplacian_four(self, coarse_space):
        # lap(u0) = 2*sqrt(4) = 4 weakly: A u0 equals the load of -4 on
        # interior rows.
        four = lambda p: 4.0 * one(p)
        u0 = default_initial_guess(coarse_space, four, paraboloid)
        A = stiffness_matrix(coarse_space)
        b = load_vector(coarse_space, lambda p: -4.0 * one(p))
        gap = (A @ u0.coeffs - b)[coarse_space.interior_dofs]
        assert np.max(np.abs(gap)) <= 1e-12


class TestNewtonSolve:
    def test_paraboloid_exact(self, space):
        u, report = newton_solve(space, one, paraboloid)
        ui = interpolate(space, paraboloid)
        assert np.max(np.abs(u.coeffs - ui.coeffs)) <= 1e-9
        assert report.converged

    def test_exact_start_converges_immediately(self, space):
        ui = interpolate(space, paraboloid)
        u, report = newton_solve(space, one, paraboloid, u0=ui)
        assert report.iterations <= 1
        assert report.converged and report.status == "stationary"

    def test_smooth_problem_residual_contracts_to_floor(self):
        # No exact discrete solution exists for generic data (the vertex
        # test functions integrate to zero against cellwise constants), so
        # the residual contracts fast and then lands on a positive floor
        # where the iterate is a penalized least-squares stationary point.
        mesh = triangulate(unit_square(), refinements=4)
        space = FeSpace(mesh, 2)
        u, report = newton_solve(space, smooth_f, smooth_exact)
        hist = report.residual_history_sup
        assert report.converged and report.status == "stationary"
        assert hist[1] <= 0.15 * hist[0]
        assert hist[-1] <= 2e-4

    def test_perturbed_restart_reconverges(self, space):
        u_ref, _ = newton_solve(space, smooth_f, smooth_exact)
        rng = np.random.default_rng(1)
        I = space.interior_dofs
        for _ in range(3):
            u0 = u_ref.copy()
            u0.coeffs[I] += 1e-4 * rng.standard_normal(len(I))
            u, _ = newton_solve(space, smooth_f, smooth_exact, u0=u0)
            assert np.max(np.abs(u.coeffs - u_ref.coeffs)) <= 1e-8

    def test_boundary_dofs_untouched(self, space):
        u, _ = newton_solve(space, one, paraboloid)
        B = space.boundary_dofs
        exact = paraboloid(space.dof_coords[B])
        assert np.array_equal(u.coeffs[B], exact)

    def test_rejects_vanishing_f(self, space):
        with pytest.raises(ValueError, match="continuation"):
            newton_solve(space, zero, paraboloid)

    def test_rejects_nonfinite_f(self, space):
        bad = lambda p: np.full(len(np.atleast_2d(p)), np.nan)
        with pytest.raises(ValueError):
            newton_solve(space, bad, paraboloid)

    def test_start_on_an_equal_mesh_is_moved_onto_the_space(
            self, coarse_space):
        twin = FeSpace(triangulate(unit_square(), refinements=2), 2)
        u0 = default_initial_guess(twin, smooth_f, smooth_exact)
        before = u0.coeffs.copy()
        u, _ = newton_solve(coarse_space, smooth_f, smooth_exact, u0=u0)
        ref, _ = newton_solve(coarse_space, smooth_f, smooth_exact,
                              u0=FeFunction(coarse_space, before))
        assert u.space is coarse_space
        assert np.array_equal(u.coeffs, ref.coeffs)
        assert u0.space is twin and np.array_equal(u0.coeffs, before)

    def test_start_on_another_mesh_raises(self, coarse_space):
        # [0, 2] x [0, 1] at level 2 has as many P2 dofs as the unit square
        wide = FeSpace(triangulate(ConvexPolygon(
            [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]),
            refinements=2), 2)
        assert wide.num_dofs == coarse_space.num_dofs
        with pytest.raises(ValueError, match="u0 lives on"):
            newton_solve(coarse_space, one, paraboloid,
                         u0=interpolate(wide, paraboloid))

    def test_start_of_another_degree_raises(self, coarse_space):
        cubic = FeSpace(coarse_space.mesh, 3)
        with pytest.raises(ValueError, match="u0 lives on"):
            newton_solve(coarse_space, one, paraboloid,
                         u0=interpolate(cubic, paraboloid))

    @settings(max_examples=12, deadline=None)
    @given(convex_polygons(), st.sampled_from([1, 2]), st.sampled_from([2, 3]),
           st.integers(0, 2 ** 31))
    @example(PENTAGON, 1, 2, 42054)
    @example(OCTAGON, 1, 3, 1885894067)
    def test_recovers_random_convex_quadratic(self, polygon, level, k, seed):
        # u = x.Ax/2 + b.x + c with A symmetric positive definite solves
        # det D2u = det A exactly in every space of degree >= 2.  The
        # objective's jump term must be evaluated from the jump values: as
        # c.Qc it cancels to about 1e-16, which hides the decrease of a
        # full step once the residual is below about 1e-8 and leaves the
        # octagon example 1.4e-9 off.
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.5, 2.0, 2)
        t = rng.uniform(0.0, np.pi)
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        A = R @ np.diag(lam) @ R.T
        b, c = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0)

        def quadratic(p):
            p = np.atleast_2d(p)
            return 0.5 * np.einsum("pi,ij,pj->p", p, A, p) + p @ b + c

        space = FeSpace(triangulate(polygon, refinements=level), k)
        f = lambda p: np.full(len(np.atleast_2d(p)), np.linalg.det(A))
        u, report = newton_solve(space, f, quadratic)
        exact = interpolate(space, quadratic).coeffs
        assert report.converged
        assert (np.max(np.abs(u.coeffs - exact))
                <= 1e-10 * np.max(np.abs(exact)))

    @settings(max_examples=8, deadline=None)
    @given(convex_polygons(), st.sampled_from([1, 2]), st.sampled_from([2, 3]),
           st.floats(0.0, 2.0 * np.pi), st.lists(st.floats(-2.0, 2.0),
                                                  min_size=5, max_size=5))
    def test_rigid_motion_and_affine_term_map_the_solve(self, polygon, level,
                                                        k, angle, shifts):
        # det D2u, the gradient jumps across edges and the Hessian
        # eigenvalues of the hinge are invariant under a rotation and a
        # translation of the mesh and the data, and an affine term a + b.x
        # added to g is harmonic and has zero Hessian and no jumps, so the
        # solve on the moved mesh is the moved solve plus a + b.x.  The
        # hinge is checked on the concave -u, where it acts on every cell
        # with no boundary vertex.  (A general affine map is not a
        # symmetry: the jump term weighs each edge by |A^-T n_e|^2 and the
        # hinge allowance is absolute.)  On a coarse mesh the residual does
        # not vanish and Gauss-Newton converges linearly, so the cap is
        # raised: a level-1 quadrilateral takes 137 iterations.
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        t, a, b = np.array(shifts[:2]), shifts[2], np.array(shifts[3:])

        def back(y):
            return (np.atleast_2d(y) - t) @ R

        mesh = triangulate(polygon, refinements=level)
        moved = Mesh(mesh.vertices @ R.T + t, mesh.cells,
                     mesh.boundary_edges, mesh.boundary_tags)
        space, moved_space = FeSpace(mesh, k), FeSpace(moved, k)
        cfg = SolverConfig(max_iters=1000)
        u, _ = newton_solve(space, smooth_f, smooth_exact, config=cfg)
        v, _ = newton_solve(moved_space, lambda y: smooth_f(back(y)),
                            lambda y: smooth_exact(back(y)) + a
                            + np.atleast_2d(y) @ b, config=cfg)
        expect = u.coeffs + a + moved_space.dof_coords @ b
        assert np.max(np.abs(v.coeffs - expect)) <= 1e-9 * max(
            1.0, np.max(np.abs(expect)))
        hinge = solver._ConvexityHinge(space).value(FeFunction(space,
                                                               -u.coeffs))
        assert solver._ConvexityHinge(moved_space).value(FeFunction(
            moved_space, -v.coeffs)) == pytest.approx(hinge, rel=1e-9)

    def test_report_serializable(self, coarse_space, tmp_path):
        u, report = newton_solve(coarse_space, one, paraboloid)
        path = os.path.join(tmp_path, "report.json")
        report.save(path)
        with open(path) as fh:
            d = json.load(fh)
        assert d["method"] == "newton"
        assert d["converged"] is True
        assert len(d["residual_history"]) == len(d["residual_history_sup"])
        assert d["min_lambda1"] == pytest.approx(1.0, abs=1e-8)
        assert d["wall_time"] >= 0.0


class TestContinuationSolve:
    def test_schedule_zero_matches_newton(self, coarse_space):
        cfg = SolverConfig(continuation_schedule=(0.0,))
        u_c, _ = continuation_solve(coarse_space, one, paraboloid, cfg)
        u_n, _ = newton_solve(coarse_space, one, paraboloid,
                              config=SolverConfig())
        assert np.array_equal(u_c.coeffs, u_n.coeffs)

    def test_single_shift_matches_shifted_solve(self, coarse_space):
        cfg = SolverConfig(continuation_schedule=(1.0,))
        u_c, _ = continuation_solve(coarse_space, one, paraboloid, cfg)
        u_n, _ = newton_solve(coarse_space, lambda p: one(p) + 1.0,
                              paraboloid, config=SolverConfig())
        assert np.array_equal(u_c.coeffs, u_n.coeffs)

    def test_f_sampled_once(self, coarse_space):
        calls = []

        def counted(p):
            calls.append(len(p))
            return one(p)

        cfg = SolverConfig(continuation_schedule=(1.0, 0.25, 0.0))
        _, report = continuation_solve(coarse_space, counted, paraboloid, cfg)
        assert len(report.stages) == 3
        assert len(calls) == 1

    def test_kink_data_stage_differences_decrease(self, space):
        g = lambda p: np.abs(np.atleast_2d(p)[:, 0] - 0.5)
        cfg = SolverConfig(continuation_schedule=(1.0, 0.25, 1.0 / 16,
                                                  1.0 / 64), max_iters=300)
        xx = np.linspace(0.1, 0.9, 33)
        P = np.column_stack([np.repeat(xx, 33), np.tile(xx, 33)])
        prev, diffs = None, []
        for eps in cfg.continuation_schedule:
            feps = (lambda e: lambda p: zero(p) + e)(eps)
            u, _ = newton_solve(space, feps, g, u0=prev, config=cfg)
            if prev is not None:
                diffs.append(float(np.max(np.abs(u(P) - prev(P)))))
            prev = u
        assert all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))

    def test_report_aggregates_stages(self, coarse_space):
        cfg = SolverConfig(continuation_schedule=(1.0, 0.0))
        u, report = continuation_solve(coarse_space, one, paraboloid, cfg)
        assert len(report.stages) == 2
        assert [s["eps"] for s in report.stages] == [1.0, 0.0]
        assert report.converged

    def test_first_stage_failure_raises(self, coarse_space):
        bad = lambda p: np.full(len(np.atleast_2d(p)), -2.0)
        cfg = SolverConfig(continuation_schedule=(1.0,))
        with pytest.raises(ValueError):
            continuation_solve(coarse_space, bad, paraboloid, cfg)

    def test_failed_first_stage_is_reported(self):
        problem = get_problem("envelope")
        space = FeSpace(triangulate(problem.polygon, refinements=2),
                        problem.degree)
        cfg = SolverConfig(continuation_schedule=problem.epsilon_schedule,
                           max_iters=2)
        with pytest.raises(NonConvergenceError) as err:
            continuation_solve(space, problem.f, problem.solve_boundary, cfg)
        rep = err.value.report
        assert rep.status == "stage_failed" and not rep.converged
        assert rep.iterations == 2
        assert len(rep.stages) == 1
        stage = rep.stages[0]
        assert stage["eps"] == problem.epsilon_schedule[0]
        assert stage["iterations"] == 2 and stage["converged"] is False
        assert rep.residual_history == stage["residual_history"]
        assert len(rep.residual_history) == 3
        assert rep.step_history == stage["step_history"]
        assert json.loads(rep.to_json())["stages"][0]["eps"] == stage["eps"]


class TestSolveReport:
    def test_repr_mentions_method(self):
        rep = SolveReport("newton")
        assert "newton" in repr(rep)

    def test_converged_implies_terminal_status(self, coarse_space):
        u, report = newton_solve(coarse_space, one, paraboloid)
        assert report.converged
        assert report.status == "stationary"


def objective_gradient(u, f):
    """Gradient of the Gauss-Newton objective at u, over interior dofs."""
    space = u.space
    I = space.interior_dofs
    J = jacobian(u)
    grad = (J.T @ residual(u, f)
            + solver.JUMP_PENALTY * (gradient_jump_matrix(space) @ u.coeffs)[I])
    hinge = solver._ConvexityHinge(space)
    s, S = hinge.residual_and_jacobian(u)
    return grad + S.T @ s if s.size else grad


class TestPolish:
    """How newton_solve stops, and how often it factors."""

    @pytest.fixture
    def factor_count(self, monkeypatch):
        real = solver._factor_spd
        calls = []

        def counting(A):
            calls.append(A.shape)
            return real(A)

        monkeypatch.setattr(solver, "_factor_spd", counting)
        return calls

    @pytest.mark.parametrize("refinements,k", [(2, 2), (3, 2), (2, 3)])
    def test_one_factor_per_gauss_newton_iteration(self, factor_count,
                                                   refinements, k):
        # A solve keeps no factor: beyond the Poisson start, a solve that
        # ends stationary factors once per direction it takes.
        space = FeSpace(triangulate(unit_square(), refinements=refinements),
                        k)
        u, report = newton_solve(space, smooth_f, smooth_exact)
        assert report.status == "stationary"
        assert len(factor_count) <= report.iterations + 1

    @pytest.mark.parametrize("start", ["poisson", "near_solution"])
    def test_min_step_exit_counts_its_direction(self, factor_count,
                                                coarse_space, monkeypatch,
                                                start):
        # ARMIJO = 0.9 rejects the full Gauss-Newton step (it gains about
        # half the predicted decrease) and MIN_STEP = 0.75 forbids any
        # shorter one, so the solve leaves through the MIN_STEP branch in
        # its first iteration: from the Poisson start by stagnation, near
        # the solution as stationary.  Either way the direction it
        # factored counts as an iteration.
        u0 = None
        if start == "near_solution":
            u0, _ = newton_solve(coarse_space, smooth_f, smooth_exact)
            I = coarse_space.interior_dofs
            u0.coeffs[I] += 1e-8 * np.random.default_rng(0).standard_normal(
                len(I))
            factor_count.clear()
        monkeypatch.setattr(solver, "ARMIJO", 0.9)
        monkeypatch.setattr(solver, "MIN_STEP", 0.75)
        try:
            _, report = newton_solve(coarse_space, smooth_f, smooth_exact,
                                     u0=u0)
        except NonConvergenceError as exc:
            report = exc.report
        assert report.status == ("stagnation" if u0 is None
                                 else "stationary")
        assert report.iterations == 1
        poisson = 1 if u0 is None else 0
        assert len(factor_count) == report.iterations + poisson

    def test_f_sampled_once_per_solve(self, coarse_space):
        calls = []

        def counted(p):
            calls.append(len(p))
            return smooth_f(p)

        u, _ = newton_solve(coarse_space, counted, smooth_exact)
        assert len(calls) == 1
        newton_solve(coarse_space, counted, smooth_exact, u0=u)
        assert len(calls) == 2

    @pytest.mark.parametrize("refinements,k", [(2, 2), (3, 2), (2, 3)])
    def test_stationary_point_is_critical(self, refinements, k):
        # A solve ends on a direction whose predicted decrease is below
        # TOL_DECREASE * Phi and takes it whole, so the gradient at the
        # returned iterate is at rounding level (3e-14 to 3e-13 on these
        # cases).
        space = FeSpace(triangulate(unit_square(), refinements=refinements),
                        k)
        u, report = newton_solve(space, smooth_f, smooth_exact)
        assert report.status == "stationary"
        assert np.abs(objective_gradient(u, smooth_f)).max() <= 5e-12


class TestNewtonDirections:
    @pytest.fixture
    def events(self, monkeypatch):
        # "S" per newton_solve, "F" per factorization, "T" per second-order
        # term, in the order they happen
        log = []

        def logged(name, tag):
            real = getattr(solver, name)

            def wrapper(*args, **kwargs):
                log.append(tag)
                return real(*args, **kwargs)

            monkeypatch.setattr(solver, name, wrapper)

        logged("newton_solve", "S")
        logged("_factor_spd", "F")
        logged("second_order_term", "T")
        return log

    @pytest.mark.parametrize("problem,refinements", [
        ("smooth", 2), ("smooth", 3), ("envelope", 2), ("singular", 2)])
    def test_factors_once_per_iteration_and_rejection(self, events, problem,
                                                      refinements):
        # A solve factors iterations + newton_rejections times, plus once
        # for the Poisson start; every iteration takes one direction.
        p = get_problem(problem)
        _, _, reports = solve_problem(p, refinements=refinements)
        for rep in reports:
            assert (rep["newton_directions"] + rep["gauss_newton_directions"]
                    == rep["iterations"])
        poisson = 1  # only the first stage starts cold
        assert events.count("F") == poisson + sum(
            rep["iterations"] + rep["newton_rejections"] for rep in reports)
        assert sum(rep["newton_directions"] for rep in reports) > 0

    @pytest.mark.parametrize("term", ["indefinite", "non_finite"])
    def test_rejected_newton_falls_back_to_gauss_newton(
            self, monkeypatch, events, term):
        # -1e8 I makes the Newton matrix negative definite, so its step
        # climbs; nan I leaves no finite step or no factor.  Every Newton
        # try is then rejected, and the solve runs on Gauss-Newton.
        space = FeSpace(triangulate(unit_square(), refinements=3), 2)
        ref, _ = newton_solve(space, smooth_f, smooth_exact)
        events.clear()
        scale = -1e8 if term == "indefinite" else np.nan

        def broken_term(_space, r):
            events.append("T")
            return scale * sparse.identity(len(r), format="csr")

        monkeypatch.setattr(solver, "second_order_term", broken_term)
        u, report = newton_solve(space, smooth_f, smooth_exact)
        assert report.converged and report.status == "stationary"
        assert report.newton_directions == 0
        assert report.gauss_newton_directions == report.iterations
        tries = events.count("T")
        assert report.newton_rejections == tries > 0
        assert events.count("F") == 1 + report.iterations + tries
        assert np.max(np.abs(u.coeffs - ref.coeffs)) <= 1e-8

    def test_first_direction_is_gauss_newton(self, events, coarse_space):
        # Cold and warm stages alike: the Poisson start and then the first
        # direction are factored before any second-order term is built.
        cfg = SolverConfig(continuation_schedule=(1.0, 0.25, 0.0))
        continuation_solve(coarse_space, smooth_f, smooth_exact, cfg)
        segments = "".join(events).split("S")[1:]
        assert len(segments) == 3 and "T" in "".join(segments)
        assert segments[0].startswith("FF")
        assert all(seg.startswith("F") for seg in segments[1:])

    def test_report_records_direction_counts(self, coarse_space):
        cfg = SolverConfig(continuation_schedule=(1.0, 0.25, 0.0))
        _, report = continuation_solve(coarse_space, smooth_f, smooth_exact,
                                       cfg)
        d = json.loads(report.to_json())
        for key in ("newton_directions", "gauss_newton_directions",
                    "newton_rejections"):
            assert d[key] == sum(s[key] for s in d["stages"])
            assert d[key] == getattr(report, key)
        assert d["newton_directions"] > 0
        assert (d["newton_directions"] + d["gauss_newton_directions"]
                == d["iterations"])


def basis_table_hinge(space, u):
    """Reference hinge values and dense ds/dc.

    Built from a (nc, nq, nloc, 3) table of physical basis Hessians at
    Quadrature(2k), each pushed forward by an explicit A^T H A, over the
    cells with no boundary vertex, instead of pulling d lambda1 back to
    the reference frame on the element layer.
    """
    mesh = space.mesh
    cells = np.flatnonzero(~mesh.boundary_vertex_mask[mesh.cells].any(axis=1))
    quad = Quadrature(2 * space.degree)
    jinv = space.cell_jinv[cells]
    a00, a01 = jinv[:, 0, 0], jinv[:, 0, 1]
    a10, a11 = jinv[:, 1, 0], jinv[:, 1, 1]
    T = np.empty((len(cells), 3, 3))
    T[:, 0] = np.column_stack([a00 * a00, 2 * a00 * a10, a10 * a10])
    T[:, 1] = np.column_stack([a00 * a01, a00 * a11 + a01 * a10, a10 * a11])
    T[:, 2] = np.column_stack([a01 * a01, 2 * a01 * a11, a11 * a11])
    ref_hess = space.ref.tabulate(quad.points_ref)["hess"]
    basis = np.einsum("cab,qlb->cqla", T, ref_hess)
    gdofs = space.cell_dofs[cells]
    h = np.einsum("cqlm,cl->cqm", basis, u.coeffs[gdofs])
    lam1 = convexity.eigmin_2x2(h[..., 0], h[..., 1], h[..., 2])
    t = np.maximum(0.0, -(lam1 + solver.CONVEX_ALLOWANCE))
    ci, qi = np.nonzero(t)
    weights = (solver.CONVEX_PENALTY * space.cell_areas[cells][:, None]
               * quad.weights[None, :])
    sw = np.sqrt(weights[ci, qi])
    hxx, hxy, hyy = h[ci, qi, 0], h[ci, qi, 1], h[ci, qi, 2]
    rad = np.sqrt((0.5 * (hxx - hyy)) ** 2 + hxy ** 2)
    dlam = np.column_stack([0.5 - (hxx - hyy) / (4.0 * rad), -hxy / rad,
                            0.5 + (hxx - hyy) / (4.0 * rad)])
    vals = -sw[:, None] * np.einsum("am,alm->al", dlam, basis[ci, qi])
    col_of = {dof: col for col, dof in enumerate(space.interior_dofs)}
    S = np.zeros((len(ci), len(space.interior_dofs)))
    for a, c in enumerate(ci):
        for l, dof in enumerate(gdofs[c]):
            if dof in col_of:
                S[a, col_of[dof]] += vals[a, l]
    return sw * t[ci, qi], S


class TestConvexityHinge:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_basis_table_oracle(self, k):
        space = FeSpace(triangulate(regular_polygon(6), refinements=2), k)
        u = FeFunction(space, np.random.default_rng(1).standard_normal(
            space.num_dofs))
        hinge = solver._ConvexityHinge(space)
        s, S = hinge.residual_and_jacobian(u)
        s_ref, S_ref = basis_table_hinge(space, u)
        assert len(s) == len(s_ref) > 100
        assert np.abs(s - s_ref).max() <= 1e-13 * np.abs(s_ref).max()
        assert np.abs(S.toarray() - S_ref).max() <= \
            1e-13 * np.abs(S_ref).max()
        assert hinge.value(u) == pytest.approx(0.5 * s_ref @ s_ref,
                                               rel=1e-13)


class TestFactorSpd:
    def test_normal_matrix_solve_matches_spsolve(self, coarse_space):
        # The Gauss-Newton normal matrix at a rough iterate of a real solve.
        rng = np.random.default_rng(7)
        u = default_initial_guess(coarse_space, smooth_f, smooth_exact)
        I = coarse_space.interior_dofs
        u.coeffs[I] += 1e-2 * rng.standard_normal(len(I))
        J = jacobian(u)
        Q = gradient_jump_matrix(coarse_space)
        H = (J.T @ J + 1e-2 * Q[I][:, I]).tocsc()
        b = rng.standard_normal(len(I))
        x = _factor_spd(H).solve(b)
        ref = spsolve(H, b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_exactly_singular_raises_singular_jacobian_error(self):
        # Path-graph Laplacian: symmetric positive semidefinite, constants
        # in its kernel, and its elimination is exact in binary arithmetic.
        n = 6
        L = sparse.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2),
                                                 1.0], -np.ones(n - 1)],
                         [-1, 0, 1])
        with pytest.raises(SingularJacobianError, match="singular"):
            _factor_spd(L)


class TestJumpMatrixCache:
    def test_built_once_per_space(self, monkeypatch):
        space = FeSpace(triangulate(unit_square(), refinements=2), 2)
        real = assembly._assemble_jump_matrix
        real_blocks = assembly._assemble_edge_jump_blocks
        built, blocks_built = [], []

        def counting(sp):
            built.append(sp)
            return real(sp)

        def counting_blocks(sp):
            blocks_built.append(sp)
            return real_blocks(sp)

        monkeypatch.setattr(assembly, "_assemble_jump_matrix", counting)
        monkeypatch.setattr(assembly, "_assemble_edge_jump_blocks",
                            counting_blocks)
        cfg = SolverConfig(continuation_schedule=(1.0, 0.5, 0.0))
        _, report = continuation_solve(space, one, paraboloid, cfg)
        assert len(report.stages) == 3
        assert built == [space]
        # Q and every objective's jump term read the same cached blocks
        assert blocks_built == [space]

        cached = gradient_jump_matrix(space)
        fresh = real(space)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(cached, attr), getattr(fresh, attr))

        finer = FeSpace(triangulate(unit_square(), refinements=3), 2)
        Qf = gradient_jump_matrix(finer)
        assert built == [space, finer]
        assert blocks_built == [space, finer]
        assert Qf.shape == (finer.num_dofs, finer.num_dofs)
        assert Qf is not cached and gradient_jump_matrix(finer) is Qf

    def test_cached_matrix_is_read_only(self, coarse_space):
        Q = gradient_jump_matrix(coarse_space)
        with pytest.raises(ValueError):
            Q.data[0] = 1.0
