import json
import os

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

from mafem import (assembly, convexity, get_problem, regular_polygon,
                   solver, triangulate, unit_square)
from mafem.assembly import (gradient_jump_matrix, jacobian, load_vector,
                            residual, stiffness_matrix)
from mafem.errors import NonConvergenceError, SingularJacobianError
from mafem.fespace import FeFunction, FeSpace, Quadrature, interpolate
from mafem.solver import (
    SolveReport,
    SolverConfig,
    _factor_spd,
    continuation_solve,
    default_initial_guess,
    newton_solve,
)


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
        cfg = SolverConfig()
        assert cfg.tol_residual == 1e-10
        assert cfg.min_step == 2.0 ** -20

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=0.0)

    def test_to_dict_roundtrips_via_json(self):
        cfg = SolverConfig(armijo=2e-4, continuation_schedule=(1.0, 0.5))
        d = json.loads(json.dumps(cfg.to_dict()))
        assert d["armijo"] == 2e-4
        assert d["continuation_schedule"] == [1.0, 0.5]


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
        assert report.converged and report.status == "residual"

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
        assert report.status in ("residual", "stationary")


def objective_gradient(u, f, config):
    """Gradient of the Gauss-Newton objective at u, over interior dofs."""
    space = u.space
    I = space.interior_dofs
    J = jacobian(u).matrix
    grad = (J.T @ residual(u, f).values
            + config.jump_penalty * (gradient_jump_matrix(space) @ u.coeffs)[I])
    hinge = solver._ConvexityHinge(space, config.convex_penalty,
                                   config.convex_allowance)
    s, S = hinge.residual_and_jacobian(u)
    return grad + S.T @ s if s.size else grad


class TestPolish:
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
        # Polish reuses the last Gauss-Newton factor: beyond the Poisson
        # start, a solve that ends stationary after polishing factors
        # once per Gauss-Newton iteration.
        space = FeSpace(triangulate(unit_square(), refinements=refinements),
                        k)
        u, report = newton_solve(space, smooth_f, smooth_exact)
        assert report.status == "stationary"
        assert len(factor_count) <= report.iterations + 1

    @pytest.mark.parametrize("start", ["poisson", "near_solution"])
    def test_min_step_exit_counts_its_direction(self, factor_count,
                                                coarse_space, start):
        # armijo = 0.9 rejects the full Gauss-Newton step (it gains about
        # half the predicted decrease) and min_step = 0.75 forbids any
        # shorter one, so the solve leaves through the min_step branch in
        # its first iteration: from the Poisson start by stagnation, near
        # the solution as stationary.  Either way the direction it
        # factored counts as an iteration.
        config = SolverConfig(armijo=0.9, min_step=0.75)
        u0 = None
        if start == "near_solution":
            u0, _ = newton_solve(coarse_space, smooth_f, smooth_exact)
            I = coarse_space.interior_dofs
            u0.coeffs[I] += 1e-8 * np.random.default_rng(0).standard_normal(
                len(I))
            factor_count.clear()
        try:
            _, report = newton_solve(coarse_space, smooth_f, smooth_exact,
                                     u0=u0, config=config)
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
        # Chord steps use the exact gradient at every iterate, so polish
        # drives it to rounding level (1e-13 to 5e-13 on these cases).
        space = FeSpace(triangulate(unit_square(), refinements=refinements),
                        k)
        config = SolverConfig()
        u, report = newton_solve(space, smooth_f, smooth_exact, config=config)
        assert report.status == "stationary"
        assert np.abs(objective_gradient(u, smooth_f, config)).max() <= 5e-12


def basis_table_hinge(hinge, u):
    """Reference hinge values and dense ds/dc.

    Built from a (nc, nq, nloc, 3) table of physical basis Hessians, each
    pushed forward by an explicit A^T H A, instead of pulling d lambda1
    back to the reference frame.
    """
    space = hinge.space
    quad = Quadrature(max(2 * space.degree - 4, 2))
    jinv = space.cell_jinv[hinge.cells]
    a00, a01 = jinv[:, 0, 0], jinv[:, 0, 1]
    a10, a11 = jinv[:, 1, 0], jinv[:, 1, 1]
    T = np.empty((len(hinge.cells), 3, 3))
    T[:, 0] = np.column_stack([a00 * a00, 2 * a00 * a10, a10 * a10])
    T[:, 1] = np.column_stack([a00 * a01, a00 * a11 + a01 * a10, a10 * a11])
    T[:, 2] = np.column_stack([a01 * a01, 2 * a01 * a11, a11 * a11])
    basis = np.einsum("cab,qlb->cqla", T, space.tables(quad)["hess"])
    h = np.einsum("cqlm,cl->cqm", basis, u.coeffs[hinge.gdofs])
    lam1 = convexity.eigmin_2x2(h[..., 0], h[..., 1], h[..., 2])
    t = np.maximum(0.0, -(lam1 + hinge.allowance))
    ci, qi = np.nonzero(t)
    sw = np.sqrt(hinge.weights[ci, qi])
    hxx, hxy, hyy = h[ci, qi, 0], h[ci, qi, 1], h[ci, qi, 2]
    rad = np.sqrt((0.5 * (hxx - hyy)) ** 2 + hxy ** 2)
    dlam = np.column_stack([0.5 - (hxx - hyy) / (4.0 * rad), -hxy / rad,
                            0.5 + (hxx - hyy) / (4.0 * rad)])
    vals = -sw[:, None] * np.einsum("am,alm->al", dlam, basis[ci, qi])
    S = np.zeros((len(ci), hinge.n_interior))
    for a, c in enumerate(ci):
        for l, col in enumerate(hinge.cols[c]):
            if col >= 0:
                S[a, col] += vals[a, l]
    return sw * t[ci, qi], S


class TestConvexityHinge:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_basis_table_oracle(self, k):
        space = FeSpace(triangulate(regular_polygon(6), refinements=2), k)
        u = FeFunction(space, np.random.default_rng(1).standard_normal(
            space.num_dofs))
        hinge = solver._ConvexityHinge(space, 1.0, 1e-2)
        s, S = hinge.residual_and_jacobian(u)
        s_ref, S_ref = basis_table_hinge(hinge, u)
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
        J = jacobian(u).matrix
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
        built = []

        def counting(sp):
            built.append(sp)
            return real(sp)

        monkeypatch.setattr(assembly, "_assemble_jump_matrix", counting)
        cfg = SolverConfig(continuation_schedule=(1.0, 0.5, 0.0))
        _, report = continuation_solve(space, one, paraboloid, cfg)
        assert len(report.stages) == 3
        assert built == [space]

        cached = gradient_jump_matrix(space)
        fresh = real(space)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(cached, attr), getattr(fresh, attr))

        finer = FeSpace(triangulate(unit_square(), refinements=3), 2)
        Qf = gradient_jump_matrix(finer)
        assert built == [space, finer]
        assert Qf.shape == (finer.num_dofs, finer.num_dofs)
        assert Qf is not cached and gradient_jump_matrix(finer) is Qf

    def test_cached_matrix_is_read_only(self, coarse_space):
        Q = gradient_jump_matrix(coarse_space)
        with pytest.raises(ValueError):
            Q.data[0] = 1.0
