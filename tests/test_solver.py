import json

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from mafem import (assembly, convexity, get_problem, regular_polygon,
                   solver, triangulate, unit_square)
from mafem.assembly import (apply_boundary, gradient_jump_matrix, jacobian,
                            load_vector, residual, second_order_data,
                            stiffness_blocks)
from mafem.errors import NonConvergenceError, SingularJacobianError
from mafem.fespace import FeFunction, FeSpace, interpolate
from mafem.geometry import ConvexPolygon
from mafem.mesh import Mesh
from mafem.solver import (
    SolveReport,
    SolverConfig,
    _factor_spd,
    _space_band,
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


def stiffness_matrix(space):
    """The Poisson stiffness matrix over all dofs, csr, scattered from the
    cell blocks."""
    return assembly._scatter_matrix(space.num_dofs, space.cell_dofs,
                                    stiffness_blocks(space))


def data_on_p(space, A):
    """The data of a csr matrix A stored on P, the element layer's interior
    pattern, as _SpaceBand.load_maps takes it."""
    el = assembly.element_layer(space)
    assert np.array_equal(A.indptr, el.indptr)
    assert np.array_equal(A.indices, el.indices)
    return A.data


@pytest.fixture
def attempts(monkeypatch):
    # per call of _refined_exit: (accepted, back-solves it took)
    log = []
    real_exit = solver._refined_exit
    real_solve = solver._BandCholesky.solve
    solves = []

    def solve(factor, b):
        solves.append(1)
        return real_solve(factor, b)

    def refined_exit(*args):
        solves.clear()
        d = real_exit(*args)
        log.append((d is not None, len(solves)))
        return d

    monkeypatch.setattr(solver._BandCholesky, "solve", solve)
    monkeypatch.setattr(solver, "_refined_exit", refined_exit)
    return log


@pytest.fixture(scope="module")
def space():
    return FeSpace(triangulate(unit_square(), refinements=3), 2)


@pytest.fixture(scope="module")
def coarse_space():
    return FeSpace(triangulate(unit_square(), refinements=2), 2)


class TestSolverConfig:
    def test_defaults(self):
        assert vars(SolverConfig()) == {"continuation_schedule": ()}
        assert solver.MAX_ITERS == 120

    def test_negative_shift_rejected(self):
        for schedule in ([-0.5], (1.0, 0.5, -1e-12), [float("nan")]):
            with pytest.raises(ValueError, match="shifts must be >= 0"):
                SolverConfig(continuation_schedule=schedule)
        assert SolverConfig(continuation_schedule=[1.0, 0.0]) \
            .continuation_schedule == (1.0, 0.0)

    def test_nonfinite_shift_rejected(self):
        # an infinite shift used to pass, and the solve then overflowed
        for schedule in ([float("inf")], (float("inf"), 1.0),
                         (1.0, np.float64(-np.inf))):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(continuation_schedule=schedule)

    def test_increasing_shift_rejected(self):
        # [0.0, 1.0] would solve f + 1 last and report it converged
        for schedule in ([0.0, 1.0], (1.0, 0.25, 0.5)):
            with pytest.raises(ValueError, match="must not increase"):
                SolverConfig(continuation_schedule=schedule)
        assert SolverConfig(continuation_schedule=(1.0, 1e-6, 1e-6)) \
            .continuation_schedule == (1.0, 1e-6, 1e-6)


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
        # det D2u and the gradient jumps across edges are invariant under a
        # rotation and a translation of the mesh and the data, and an
        # affine term a + b.x added to g is harmonic and has zero Hessian
        # and no jumps, so the solve on the moved mesh is the moved solve
        # plus a + b.x.  (A general affine map is not a symmetry: the jump
        # term weighs each edge by |A^-T n_e|^2.)  On a coarse mesh the
        # residual does not vanish and Gauss-Newton converges linearly, so
        # MAX_ITERS is raised: a level-1 quadrilateral takes 137
        # iterations.  (A function-scoped monkeypatch fixture does not mix
        # with @given, hence the context.)
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        t, a, b = np.array(shifts[:2]), shifts[2], np.array(shifts[3:])

        def back(y):
            return (np.atleast_2d(y) - t) @ R

        mesh = triangulate(polygon, refinements=level)
        moved = Mesh(mesh.vertices @ R.T + t, mesh.cells,
                     mesh.boundary_edges, mesh.boundary_tags)
        space, moved_space = FeSpace(mesh, k), FeSpace(moved, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "MAX_ITERS", 1000)
            u, _ = newton_solve(space, smooth_f, smooth_exact)
            v, _ = newton_solve(moved_space, lambda y: smooth_f(back(y)),
                                lambda y: smooth_exact(back(y)) + a
                                + np.atleast_2d(y) @ b)
        expect = u.coeffs + a + moved_space.dof_coords @ b
        assert np.max(np.abs(v.coeffs - expect)) <= 1e-9 * max(
            1.0, np.max(np.abs(expect)))

    def test_report_serializable(self, coarse_space):
        u, report = newton_solve(coarse_space, one, paraboloid)
        d = json.loads(json.dumps(report.to_dict()))
        assert d["method"] == "newton"
        assert d["converged"] is True
        assert len(d["residual_history"]) == len(d["residual_history_sup"])
        assert d["min_lambda1"] == pytest.approx(1.0, abs=1e-8)
        assert d["wall_time"] >= 0.0

    def test_max_iters_is_read_when_a_solve_runs(self, monkeypatch):
        # The cap is the module constant solver.MAX_ITERS, looked up by each
        # solve: patched to 1, the level-2 smooth solve stops after one
        # direction; at the default it converges.
        problem = get_problem("smooth")
        space = FeSpace(triangulate(problem.polygon, refinements=2),
                        problem.degree)
        _, report = newton_solve(space, problem.f, problem.solve_boundary)
        assert report.converged and report.iterations > 1
        monkeypatch.setattr(solver, "MAX_ITERS", 1)
        with pytest.raises(NonConvergenceError) as err:
            newton_solve(space, problem.f, problem.solve_boundary)
        assert err.value.report.status == "max_iters"
        assert err.value.report.iterations == 1


class TestContinuationSolve:
    def test_schedule_zero_matches_newton(self, coarse_space):
        cfg = SolverConfig(continuation_schedule=(0.0,))
        u_c, _ = continuation_solve(coarse_space, one, paraboloid, cfg)
        u_n, _ = newton_solve(coarse_space, one, paraboloid)
        assert np.array_equal(u_c.coeffs, u_n.coeffs)

    def test_single_shift_matches_shifted_solve(self, coarse_space):
        cfg = SolverConfig(continuation_schedule=(1.0,))
        u_c, _ = continuation_solve(coarse_space, one, paraboloid, cfg)
        u_n, _ = newton_solve(coarse_space, lambda p: one(p) + 1.0,
                              paraboloid)
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

    def test_kink_data_stage_differences_decrease(self, space, monkeypatch):
        g = lambda p: np.abs(np.atleast_2d(p)[:, 0] - 0.5)
        monkeypatch.setattr(solver, "MAX_ITERS", 300)
        xx = np.linspace(0.1, 0.9, 33)
        P = np.column_stack([np.repeat(xx, 33), np.tile(xx, 33)])
        prev, diffs = None, []
        for eps in (1.0, 0.25, 1.0 / 16, 1.0 / 64):
            feps = (lambda e: lambda p: zero(p) + e)(eps)
            u, _ = newton_solve(space, feps, g, u0=prev)
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
        # the record-level counts and histories are the stages' sums and
        # concatenations, which the benchmark's iteration counts read
        d = report.to_dict()
        for key in ("iterations", "newton_directions",
                    "gauss_newton_directions", "newton_rejections",
                    "refined_exits", "declined_exits"):
            assert d[key] == sum(s[key] for s in d["stages"])
        for key in ("step_history", "residual_history"):
            assert d[key] == [x for s in d["stages"] for x in s[key]]

    @pytest.mark.parametrize("name,refinements", [("envelope", 3),
                                                  ("singular", 2)])
    def test_secant_moves_the_start_not_the_answer(self, name, refinements):
        # Each stage chained from the one before by newton_solve, as the
        # loop ran before the secant start, ends on the same iterate in at
        # least as many iterations.
        problem = get_problem(name)
        space = FeSpace(triangulate(problem.polygon, refinements=refinements),
                        problem.degree)
        path = [(M, problem.regularized(M))
                for M in problem.truncate_schedule or (None,)]
        cfg = SolverConfig(continuation_schedule=problem.epsilon_schedule)
        u, report = continuation_solve(space, path, problem.solve_boundary,
                                       cfg)
        assert "secant" in [s["start"] for s in report.stages]
        v, chained = None, 0
        for _, field in path:
            fq = assembly.f_at_qpts(space, field)
            for eps in problem.epsilon_schedule:
                v, stage = newton_solve(space, fq + eps,
                                        problem.solve_boundary, u0=v)
                chained += stage.iterations
        assert np.abs(u.coeffs - v.coeffs).max() <= \
            1e-9 * np.abs(v.coeffs).max()
        assert report.iterations <= chained

    @pytest.mark.parametrize("schedule,last", [((0.5, 0.5, 0.25), "previous"),
                                               ((1.0, 0.5, 0.0), "secant")])
    def test_schedule_shapes_of_the_secant(self, coarse_space, schedule,
                                           last):
        # Two equal shifts give the secant no slope, so the stage after
        # them starts from the one before; 1.0, 0.5, 0.0 extrapolates by
        # a factor of 1.
        cfg = SolverConfig(continuation_schedule=schedule)
        u, report = continuation_solve(coarse_space, one, paraboloid, cfg)
        assert report.converged and np.all(np.isfinite(u.coeffs))
        assert [s["start"] for s in report.stages] == \
            ["poisson", "previous", last]
        assert all(s["converged"] for s in report.stages)

    def test_stages_record_their_start(self):
        # The secant needs two converged stages on the same field, so it
        # starts over with each truncation M.
        starts = {}
        for name in ("envelope", "singular"):
            _, _, (rec,) = solve_problem(get_problem(name), refinements=2)
            starts[name] = [s["start"] for s in rec["stages"]]
        assert starts["envelope"] == ["poisson", "previous"] + \
            ["secant"] * 4
        assert starts["singular"] == ["poisson", "previous", "secant"] + \
            ["previous", "previous", "secant"] * 2

    def test_first_stage_failure_raises(self, coarse_space):
        bad = lambda p: np.full(len(np.atleast_2d(p)), -2.0)
        cfg = SolverConfig(continuation_schedule=(1.0,))
        with pytest.raises(ValueError):
            continuation_solve(coarse_space, bad, paraboloid, cfg)

    def test_empty_path_raises(self, coarse_space):
        with pytest.raises(ValueError, match="path holds no field"):
            continuation_solve(coarse_space, [], paraboloid)

    def test_failed_first_stage_is_reported(self, monkeypatch):
        problem = get_problem("envelope")
        space = FeSpace(triangulate(problem.polygon, refinements=2),
                        problem.degree)
        monkeypatch.setattr(solver, "MAX_ITERS", 2)
        cfg = SolverConfig(continuation_schedule=problem.epsilon_schedule)
        with pytest.raises(NonConvergenceError) as err:
            continuation_solve(space, problem.f, problem.solve_boundary, cfg)
        rep = err.value.report
        assert rep.status == "max_iters" and not rep.converged
        assert rep.iterations == 2
        assert len(rep.stages) == 1
        stage = rep.stages[0]
        assert stage["eps"] == problem.epsilon_schedule[0]
        assert stage["iterations"] == 2 and stage["converged"] is False
        assert rep.residual_history == stage["residual_history"]
        assert len(rep.residual_history) == 3
        assert rep.step_history == stage["step_history"]
        assert json.loads(json.dumps(rep.to_dict()))["stages"][0]["eps"] \
            == stage["eps"]


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
    return (J.T @ residual(u, f)
            + solver.JUMP_PENALTY * (gradient_jump_matrix(space) @ u.coeffs)[I])


class TestPolish:
    """How newton_solve stops, and how often it factors."""

    @pytest.fixture
    def factor_count(self, monkeypatch):
        real = solver._factor_spd
        calls = []

        def counting(band):
            calls.append(band.ab.shape)
            return real(band)

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

    def test_one_hessian_evaluation_per_iterate(self, coarse_space,
                                                monkeypatch):
        # The residual and the direction taken from an iterate share its
        # cell Hessians, and the report's min_lambda1 reads those of the
        # final iterate: one eigenvalue evaluation per solve.
        counts = {"hessians": 0, "residuals": 0, "eigmin": 0}
        real_hessians = FeFunction.cell_hessians
        real_residual = solver.residual
        real_eigmin = convexity.eigmin_2x2

        def hessians(u_h, quad):
            counts["hessians"] += 1
            return real_hessians(u_h, quad)

        def counted_residual(*args, **kwargs):
            counts["residuals"] += 1
            return real_residual(*args, **kwargs)

        def eigmin(*args):
            counts["eigmin"] += 1
            return real_eigmin(*args)

        monkeypatch.setattr(FeFunction, "cell_hessians", hessians)
        monkeypatch.setattr(solver, "residual", counted_residual)
        monkeypatch.setattr(convexity, "eigmin_2x2", eigmin)
        _, report = newton_solve(coarse_space, smooth_f, smooth_exact)
        assert report.iterations > 1
        assert counts["hessians"] == counts["residuals"] > report.iterations
        assert counts["eigmin"] == 1

    @pytest.mark.parametrize("driver", ["newton", "continuation",
                                        "failed_continuation"])
    def test_report_min_lambda1_is_the_final_iterates(self, coarse_space,
                                                      driver, monkeypatch):
        # min_lambda1 is read off the Hessians the solve already holds; it
        # equals the convexity analysis of the returned (or last) iterate.
        if driver == "newton":
            u, report = newton_solve(coarse_space, smooth_f, smooth_exact)
        elif driver == "continuation":
            cfg = SolverConfig(continuation_schedule=(1.0, 0.25, 0.0))
            u, report = continuation_solve(coarse_space, smooth_f,
                                           smooth_exact, cfg)
        else:
            monkeypatch.setattr(solver, "MAX_ITERS", 1)
            cfg = SolverConfig(continuation_schedule=(1.0, 0.0))
            with pytest.raises(NonConvergenceError) as err:
                continuation_solve(coarse_space, smooth_f, smooth_exact, cfg)
            u, report = err.value.last_iterate, err.value.report
        assert report.min_lambda1 == \
            convexity.analyze(u).global_min_lambda1

    def test_f_sampled_once_per_solve(self, coarse_space):
        calls = []

        def counted(p):
            calls.append(len(p))
            return smooth_f(p)

        u, _ = newton_solve(coarse_space, counted, smooth_exact)
        assert len(calls) == 1
        newton_solve(coarse_space, counted, smooth_exact, u0=u)
        assert len(calls) == 2

    @settings(max_examples=10, deadline=None)
    @given(convex_polygons(), st.sampled_from([2, 3]),
           st.integers(0, 2 ** 32 - 1))
    def test_gradient_matches_sparse_products(self, polygon, k, seed):
        # The gradient a solve forms on the element arrays (np.bincount
        # over P's columns) against J^T r + eta (Q u)_I from csr J.  It is
        # read off the first direction's right-hand side -grad, at a
        # convex start barely perturbed.
        space = FeSpace(triangulate(polygon, refinements=2), k)
        u = interpolate(space, lambda p: np.sum(np.atleast_2d(p) ** 2, 1))
        u.coeffs += 1e-3 * np.random.default_rng(seed).standard_normal(
            space.num_dofs)
        u.coeffs[space.boundary_dofs] = apply_boundary(space, smooth_exact)
        ref = objective_gradient(u, smooth_f)
        rhs = []
        real_solve = solver._BandCholesky.solve

        def solve(factor, b):
            rhs.append(b.copy())
            return real_solve(factor, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver._BandCholesky, "solve", solve)
            mp.setattr(solver, "MAX_ITERS", 1)
            try:
                newton_solve(space, smooth_f, smooth_exact, u0=u)
            except NonConvergenceError:
                pass
        assert np.abs(-rhs[0] - ref).max() <= 1e-13 * np.abs(ref).max()

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
        logged("second_order_data", "T")
        return log

    @pytest.mark.parametrize("problem,refinements", [
        ("smooth", 2), ("smooth", 3), ("envelope", 2), ("singular", 2)])
    def test_factors_once_per_iteration_and_rejection(self, events, problem,
                                                      refinements):
        # A solve factors iterations + newton_rejections - refined_exits
        # times, plus once for the Poisson start; every iteration takes one
        # direction, and a refined exit is a Newton direction taken on the
        # standing factor.
        p = get_problem(problem)
        _, _, reports = solve_problem(p, refinements=refinements)
        for rep in reports:
            assert (rep["newton_directions"] + rep["gauss_newton_directions"]
                    == rep["iterations"])
            assert 0 <= rep["refined_exits"] <= rep["newton_directions"]
        poisson = 1  # only the first stage starts cold
        assert events.count("F") == poisson + sum(
            rep["iterations"] + rep["newton_rejections"] - rep["refined_exits"]
            for rep in reports)
        assert sum(rep["newton_directions"] for rep in reports) > 0
        assert sum(rep["refined_exits"] for rep in reports) > 0

    @pytest.mark.parametrize("term", ["indefinite", "non_finite"])
    def test_rejected_newton_falls_back_to_gauss_newton(
            self, monkeypatch, events, attempts, term):
        # -1e8 I makes the Newton matrix negative definite, so its step
        # climbs; nan I leaves no finite step or no factor.  Every Newton
        # try is then rejected, and the solve runs on Gauss-Newton.  The
        # broken term is data on the element layer's interior pattern, as
        # the second-order term is.  The last Gauss-Newton direction
        # passes the exit test, but its refinement against the broken
        # Newton matrix does not contract (its corrections grow, or are
        # nan): that attempt declines after refining, and the solve
        # factors as if there were no refinement.
        space = FeSpace(triangulate(unit_square(), refinements=3), 2)
        ref, _ = newton_solve(space, smooth_f, smooth_exact)
        events.clear()
        attempts.clear()
        scale = -1e8 if term == "indefinite" else np.nan
        el = assembly.element_layer(space)
        diagonal = np.where(el.indices == el.rows, scale, 0.0)

        def broken_term(_space, r):
            events.append("T")
            return diagonal

        monkeypatch.setattr(solver, "second_order_data", broken_term)
        u, report = newton_solve(space, smooth_f, smooth_exact)
        assert report.converged and report.status == "stationary"
        assert report.newton_directions == 0
        assert report.gauss_newton_directions == report.iterations
        tries = events.count("T")
        assert report.newton_rejections == tries > 0
        assert report.refined_exits == 0
        assert not any(ok for ok, _ in attempts)
        assert any(n >= 2 for _, n in attempts)  # refined, then declined
        assert events.count("F") == 1 + report.iterations + tries
        assert np.max(np.abs(u.coeffs - ref.coeffs)) <= 1e-8

    def test_second_order_term_off_the_element_pattern_raises(
            self, monkeypatch, coarse_space):
        # A term is loaded as data on the element layer's pattern P; the
        # identity's data has one entry per interior dof, not one per entry
        # of P, and is never loaded.
        monkeypatch.setattr(solver, "second_order_data",
                            lambda _space, r: np.ones(len(r)))
        with pytest.raises(ValueError, match="interior pattern P"):
            newton_solve(coarse_space, smooth_f, smooth_exact)

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
        d = json.loads(json.dumps(report.to_dict()))
        for key in ("newton_directions", "gauss_newton_directions",
                    "newton_rejections"):
            assert d[key] == sum(s[key] for s in d["stages"])
            assert d[key] == getattr(report, key)
        assert d["newton_directions"] > 0
        assert (d["newton_directions"] + d["gauss_newton_directions"]
                == d["iterations"])


class TestRefinedExit:
    """The exit direction refined on the standing factor (_refined_exit)."""

    @pytest.mark.parametrize("refinements,k", [(2, 2), (3, 2), (2, 3),
                                               (3, 3)])
    def test_matches_the_factored_exit(self, monkeypatch, refinements, k):
        # With the refinement declined, the exit direction is loaded and
        # factored as before it existed.  Both paths take the same
        # directions and return the same iterate, a critical point.
        space = FeSpace(triangulate(unit_square(), refinements=refinements),
                        k)
        u, report = newton_solve(space, smooth_f, smooth_exact)
        monkeypatch.setattr(solver, "_refined_exit", lambda *args: None)
        v, old = newton_solve(space, smooth_f, smooth_exact)
        assert (report.refined_exits, old.refined_exits) == (1, 0)
        for key in ("iterations", "newton_directions",
                    "gauss_newton_directions", "newton_rejections"):
            assert getattr(report, key) == getattr(old, key)
        assert np.abs(u.coeffs - v.coeffs).max() <= \
            1e-12 * np.abs(v.coeffs).max()
        for w in (u, v):
            assert np.abs(objective_gradient(w, smooth_f)).max() <= 5e-12

    def test_declined_attempt_costs_one_back_solve(self, attempts,
                                                   monkeypatch):
        # A lagged direction that does not end the solve is declined after
        # the one back-solve that took it; an accepted one was refined.
        # Each Newton try builds one second-order term, refined or not.
        terms = []
        real = solver.second_order_data

        def counted(*args):
            terms.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "second_order_data", counted)
        space = FeSpace(triangulate(unit_square(), refinements=3), 2)
        _, report = newton_solve(space, smooth_f, smooth_exact)
        declined = [n for ok, n in attempts if not ok]
        assert declined and declined == [1] * len(declined)
        assert [ok for ok, _ in attempts] == [False] * len(declined) + [True]
        assert report.declined_exits == len(declined)
        assert attempts[-1][1] >= 2
        assert len(terms) == report.newton_directions + \
            report.newton_rejections

    def test_report_counts_one_per_solve(self, coarse_space):
        # refined_exits is 0 or 1 per newton_solve, summed over the stages
        # of a continuation, and serialized with the other counts.
        cfg = SolverConfig(continuation_schedule=(1.0, 0.25, 0.0))
        _, report = continuation_solve(coarse_space, smooth_f, smooth_exact,
                                       cfg)
        d = json.loads(json.dumps(report.to_dict()))
        assert all(s["refined_exits"] in (0, 1) for s in d["stages"])
        assert d["refined_exits"] == report.refined_exits == sum(
            s["refined_exits"] for s in d["stages"]) > 0
        _, single = newton_solve(coarse_space, smooth_f, smooth_exact)
        assert single.to_dict()["refined_exits"] == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_product_matches_the_loaded_matrix(self, k):
        # K d by the element arrays and the cached Q against the dense
        # matrix load_maps puts in the band from the same terms, on a rough
        # concave iterate.
        space = FeSpace(triangulate(PENTAGON, refinements=2), k)
        u = interpolate(space, lambda p: -np.sum(np.atleast_2d(p) ** 2, 1))
        u.coeffs += 0.1 * np.random.default_rng(k).standard_normal(
            space.num_dofs)
        el = assembly.element_layer(space)
        jac = data_on_p(space, jacobian(u))
        T = assembly.second_order_data(space, residual(u, smooth_f))
        eta = solver.JUMP_PENALTY
        band = _space_band(space).load_maps(eta, jac, T)
        K = band_to_dense(band)
        product = solver._newton_product(el, gradient_jump_matrix(space),
                                         space.interior_dofs, eta, jac, T)
        d = np.random.default_rng(0).standard_normal(el.n)
        assert np.abs(product(d) - K @ d).max() <= \
            1e-13 * np.abs(K).max() * np.abs(d).sum()


def band_to_dense(band):
    """The symmetric matrix loaded into band, on the original order."""
    w1, n = band.ab.shape
    L = np.zeros((n, n))
    for d in range(w1):
        L[np.arange(d, n), np.arange(n - d)] = band.ab[d, :n - d]
    A = np.empty((n, n))
    A[np.ix_(band.perm, band.perm)] = L + np.tril(L, -1).T
    return A


class TestFactorSpd:
    @pytest.mark.parametrize("matrix", ["normal", "poisson"],
                             ids=["normal-csr", "poisson-csr"])
    def test_normal_matrix_solve_matches_spsolve(self, coarse_space, matrix):
        # The Gauss-Newton normal matrix at a rough iterate of a real solve
        # and the interior Poisson matrix of the initial guess, each loaded
        # into the space's band as a solve loads it.
        rng = np.random.default_rng(7)
        I = coarse_space.interior_dofs
        band = _space_band(coarse_space)
        if matrix == "normal":
            u = default_initial_guess(coarse_space, smooth_f, smooth_exact)
            u.coeffs[I] += 1e-2 * rng.standard_normal(len(I))
            J = jacobian(u)
            Q = gradient_jump_matrix(coarse_space)
            H = J.T @ J + 1e-2 * Q[I][:, I]
            band.load_maps(1e-2, data_on_p(coarse_space, J))
        else:
            H = stiffness_matrix(coarse_space)[I][:, I]
            band.load_maps(0.0, None, data_on_p(coarse_space, H))
        b = rng.standard_normal(len(I))
        x = _factor_spd(band).solve(b)
        ref = spsolve(H.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_space_without_interior_dofs(self):
        # One P2 triangle: every dof is on the boundary, so the Poisson
        # start and the normal matrix are 0 x 0.
        space = FeSpace(triangulate(regular_polygon(3), refinements=0), 2)
        assert len(space.interior_dofs) == 0
        _, report = newton_solve(space, one, paraboloid)
        assert report.status == "stationary"

    def test_exactly_singular_raises_singular_jacobian_error(
            self, coarse_space):
        # The zero load has a zero first pivot.
        with pytest.raises(SingularJacobianError, match="singular"):
            _factor_spd(_space_band(coarse_space).load_maps())

    def test_indefinite_raises_singular_jacobian_error(self, coarse_space):
        # The interior Poisson matrix minus c I, c halfway between its two
        # smallest eigenvalues, is nonsingular but has one negative
        # eigenvalue, so it has no Cholesky factor.  P holds the diagonal.
        I = coarse_space.interior_dofs
        A = stiffness_matrix(coarse_space)[I][:, I]
        low = np.linalg.eigvalsh(A.toarray())[:2]
        assert low[1] - low[0] > 1e-3 * low[1]
        el = assembly.element_layer(coarse_space)
        rows = np.repeat(np.arange(el.n), np.diff(el.indptr))
        shifted = data_on_p(coarse_space, A) - np.where(
            el.indices == rows, low.mean(), 0.0)
        band = _space_band(coarse_space).load_maps(0.0, None, shifted)
        with pytest.raises(SingularJacobianError, match="singular"):
            _factor_spd(band)


class TestBand:
    @settings(max_examples=10, deadline=None)
    @given(convex_polygons(), st.sampled_from([2, 3]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_map_load_matches_dense(self, polygon, k, newton, seed):
        # load_maps, by the maps of the space's band, holds the dense
        # eta Q_II + J^T J (+ T) of a direction and the interior Poisson
        # matrix of the start, at a concave iterate made rough by random
        # coefficients.
        space = FeSpace(triangulate(polygon, refinements=2), k)
        u = interpolate(space, lambda p: -np.sum(np.atleast_2d(p) ** 2, 1))
        u.coeffs += 0.1 * np.random.default_rng(seed).standard_normal(
            space.num_dofs)
        I = space.interior_dofs
        eta = solver.JUMP_PENALTY
        J = jacobian(u)
        ref = (J.T @ J).toarray() + eta * (
            gradient_jump_matrix(space)[I][:, I].toarray())
        T = None
        if newton:
            T = assembly.element_layer(space).csr(
                second_order_data(space, residual(u, smooth_f)))
            ref += T.toarray()
            T = data_on_p(space, T)
        band = _space_band(space)
        band.load_maps(eta, data_on_p(space, J), T)
        assert np.abs(band_to_dense(band) - ref).max() <= \
            1e-13 * np.abs(ref).max()
        A = stiffness_matrix(space)[I][:, I]
        band.load_maps(0.0, None, data_on_p(space, A))
        assert np.abs(band_to_dense(band) - A.toarray()).max() <= \
            1e-13 * np.abs(A).max()

    def test_solve_loads_by_maps_only(self, monkeypatch):
        # Once a space's band is built, a continuation with Newton
        # directions places no term, forms no sparse matrix product and
        # calls no np.add.at: every load is a few np.bincount calls on the
        # maps, and each is factored once.  It factors once per direction
        # and rejection, less one per exit refined on the standing factor,
        # plus once for the Poisson start.
        counts = {"place": 0, "product": 0, "add.at": 0, "load": 0,
                  "factor": 0}
        building = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                if not building:
                    counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def build(band, space):
            building.append(space)
            real_build(band, space)
            building.pop()

        real_build = solver._SpaceBand.__init__
        monkeypatch.setattr(solver._SpaceBand, "__init__", build)
        monkeypatch.setattr(solver._SpaceBand, "place",
                            counted("place", solver._SpaceBand.place))
        monkeypatch.setattr(sparse._compressed._cs_matrix, "_matmul_sparse",
                            counted("product",
                                    sparse._compressed._cs_matrix
                                    ._matmul_sparse))
        monkeypatch.setattr(solver._SpaceBand, "load_maps",
                            counted("load", solver._SpaceBand.load_maps))
        monkeypatch.setattr(solver, "_factor_spd",
                            counted("factor", solver._factor_spd))

        class CountingAdd:
            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(np.add, name)

            at = staticmethod(counted("add.at", np.add.at))

        class CountingNumpy:
            add = CountingAdd()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(solver, "np", CountingNumpy())
        _, _, reports = solve_problem(get_problem("singular"), refinements=2)
        assert counts["load"] == counts["factor"]
        assert sum(rep["newton_directions"] for rep in reports) > 0
        assert sum(rep["refined_exits"] for rep in reports) > 0
        assert counts["factor"] == 1 + sum(
            rep["iterations"] + rep["newton_rejections"] - rep["refined_exits"]
            for rep in reports)
        assert (counts["place"], counts["product"], counts["add.at"]) == \
            (0, 0, 0)

    def test_solve_builds_no_sparse_matrix(self, monkeypatch):
        # Once a space has its element layer, band and Q, a continuation
        # with a Poisson start and Newton directions (the singular data at
        # its first truncation, level 2) constructs no scipy sparse matrix:
        # every term stays on the element arrays, and the band is loaded
        # once per factorization.
        p = get_problem("singular")
        space = FeSpace(triangulate(p.polygon, refinements=2), p.degree)
        assembly.element_layer(space)
        band = _space_band(space)
        gradient_jump_matrix(space)
        built = []
        real_init = sparse._compressed._cs_matrix.__init__

        def init(self, *args, **kwargs):
            built.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(sparse._compressed._cs_matrix, "__init__", init)
        f = p.regularized(truncate_M=p.truncate_schedule[0])
        cfg = SolverConfig(continuation_schedule=p.epsilon_schedule)
        loads = band.loads
        _, report = continuation_solve(space, f, p.solve_boundary, cfg)
        assert report.newton_directions > 0
        assert band.loads - loads == 1 + report.iterations + \
            report.newton_rejections - report.refined_exits
        assert built == []

    def test_data_off_p_raises_naming_the_term(self, coarse_space):
        # Data with other than P's nnz entries is never broadcast or loaded.
        band = _space_band(coarse_space)
        data = np.ones(assembly.element_layer(coarse_space).nnz)
        with pytest.raises(ValueError, match="jac has shape"):
            band.load_maps(1.0, data[1:])
        with pytest.raises(ValueError, match="on_p has shape"):
            band.load_maps(1.0, data, data[:, None])

    def test_order_built_once_per_space(self, monkeypatch):
        # The Poisson start and every matrix of a three-stage continuation
        # share one order and one workspace.
        real = solver.reverse_cuthill_mckee
        orders = []

        def counting(*args, **kwargs):
            orders.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "reverse_cuthill_mckee", counting)
        space = FeSpace(triangulate(unit_square(), refinements=2), 2)
        band = _space_band(space)
        ab = band.ab
        cfg = SolverConfig(continuation_schedule=(1.0, 0.5, 0.0))
        _, report = continuation_solve(space, smooth_f, smooth_exact, cfg)
        assert report.newton_directions > 0
        assert len(orders) == 1
        assert _space_band(space) is band and band.ab is ab
        finer = FeSpace(triangulate(unit_square(), refinements=3), 2)
        newton_solve(finer, smooth_f, smooth_exact)
        assert len(orders) == 2

    @pytest.mark.parametrize("polygon,k", [("square", 2), ("square", 3),
                                           ("pentagon", 2)])
    def test_maps_match_placing_each_matrix(self, polygon, k):
        # The build ranks U's and P's entries once and places them without
        # place(); its width, positions and every slot map equal, value and
        # dtype, those that place() gives for U = P^T P, Q_II and P.
        domain = unit_square() if polygon == "square" else PENTAGON
        space = FeSpace(triangulate(domain, refinements=2), k)
        band = solver._SpaceBand(space)
        el = assembly.element_layer(space)
        P = el.csr(np.ones(el.nnz))
        U = P @ P
        rank = band.rank
        assert band.width == int(np.max(
            np.repeat(rank, np.diff(U.indptr)) - rank[U.indices]))
        upos = band.place(U)[0]
        assert upos.dtype == band.upos.dtype
        assert np.array_equal(band.upos, upos)
        I = space.interior_dofs
        jump_pos, jump = band.place(gradient_jump_matrix(space)[I][:, I])
        assert np.array_equal(band.jump, jump)
        for slot in [band.jump_slot, band.p_slot] + [
                g[3] for g in band.groups]:
            assert slot.dtype == np.int32
        assert np.array_equal(band.upos[band.jump_slot], jump_pos)
        lower = np.repeat(rank, np.diff(el.indptr)) >= rank[el.indices]
        assert np.array_equal(band.upos[band.p_slot[lower]],
                              band.place(P)[0])
        assert np.all(band.p_slot[~lower] == len(upos))
        cols = rank[el.indices]
        for idx, s, t, slot in band.groups:
            c = cols[idx]
            assert np.all(c[:, s] >= c[:, t])
            assert np.array_equal(band.upos[slot],
                                  c[:, s] - c[:, t]
                                  + c[:, t] * (band.width + 1))

    def test_entry_outside_the_band_raises(self, coarse_space):
        # An entry joining the two ends of the order, in either triangle,
        # is outside the band and is never dropped.
        band = _space_band(coarse_space)
        n = len(band.perm)
        assert band.width < n - 1
        first, last = band.perm[0], band.perm[-1]
        for rows, cols in [([first, last], [last, first]), ([first], [last]),
                           ([last], [first])]:
            A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                  shape=(n, n))
            with pytest.raises(ValueError, match="outside the band"):
                band.place(A)

    def test_reloaded_factor_refuses_to_solve(self, coarse_space):
        I = coarse_space.interior_dofs
        A = stiffness_matrix(coarse_space)[I][:, I]
        band = _space_band(coarse_space)
        factor = _factor_spd(band.load_maps(0.0, None,
                                            data_on_p(coarse_space, A)))
        assert np.shares_memory(factor.cb, band.ab)  # factored in place
        b = np.arange(float(len(I)))
        tol = 1e-12 * np.abs(b).max()
        assert np.abs(A @ factor.solve(b) - b).max() <= tol
        band.load_maps(0.0, None, data_on_p(coarse_space, A))
        with pytest.raises(RuntimeError, match="loaded again"):
            factor.solve(b)
        assert np.abs(A @ _factor_spd(band).solve(b) - b).max() <= tol


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
