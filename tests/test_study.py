"""Tests for convergence studies, reports and measure verification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mafem.errors import NonConvergenceError
from mafem.fespace import FeFunction, FeSpace, interpolate
from mafem.mesh import triangulate
from mafem.problems import get_problem, problem_from_json
from mafem import ma_measure, solver, study
from mafem.convexity import CONVEX_ALLOWANCE, analyze
from mafem.solver import (SolverConfig, continuation_solve,
                          default_initial_guess)
from mafem.study import (StudyReport, default_bumps, interior_grid,
                         run_convergence_study, run_measure_verification,
                         solve_problem)
from strategies import convex_polygons


@pytest.fixture(scope="module")
def paraboloid():
    # f = 1 with the paraboloid's own boundary data; the exact solution
    # lies in every quadratic FE space, so all errors sit at rounding level
    return problem_from_json({
        "name": "paraboloid",
        "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "f": {"name": "one"},
        "g": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
        "exact": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
    })


@pytest.fixture(scope="module")
def smooth_study():
    return run_convergence_study(get_problem("smooth"), levels=(2, 3, 4),
                                 with_measure=True)


class TestInteriorGrid:

    def test_points_inside_compact(self):
        compact = get_problem("smooth").interior_compact()
        grid = interior_grid(compact)
        assert len(grid) == 33 * 33
        assert np.all(compact.contains(grid))

    def test_deterministic(self):
        compact = get_problem("smooth").interior_compact()
        a = interior_grid(compact)
        b = interior_grid(compact)
        assert np.array_equal(a, b)


class TestSolveProblem:

    def test_truncation_stages_recorded(self):
        prob = get_problem("singular")
        u, space, [record] = solve_problem(prob, refinements=2)
        assert [(s["truncate_M"], s["eps"]) for s in record["stages"]] == [
            (M, eps) for M in (10.0, 40.0, 160.0)
            for eps in prob.epsilon_schedule]
        assert record["converged"]
        assert all(s["converged"] for s in record["stages"])

    def test_h_target_pathway(self):
        prob = get_problem("smooth")
        u, space, reports = solve_problem(prob, h_target=0.3)
        assert space.mesh.mesh_size() <= 0.3
        assert reports[-1]["converged"]

    def test_exact_in_space_solution(self, paraboloid):
        u, space, reports = solve_problem(paraboloid, refinements=2)
        pts = interior_grid(paraboloid.interior_compact())
        assert np.max(np.abs(u(pts) - paraboloid.exact(pts))) <= 1e-9


    def test_given_space_is_used(self, paraboloid, monkeypatch):
        space = FeSpace(triangulate(paraboloid.polygon, refinements=2), 2)
        built = []
        monkeypatch.setattr(study, "FeSpace",
                            lambda *a: built.append(a) or FeSpace(*a))
        u, out, _ = solve_problem(paraboloid, space=space)
        assert out is space and u.space is space and built == []

    def test_prolonged_start_solves_on_the_built_space(self):
        # a start prolonged onto a space of its own, over the same mesh
        prob = get_problem("smooth")
        u1, _, _ = solve_problem(prob, refinements=1)
        s2 = FeSpace(triangulate(prob.polygon, refinements=2), 2)
        u0 = study._prolong(u1, s2, prob)
        u, space, _ = solve_problem(prob, refinements=2, u0=u0)
        ref, _, _ = solve_problem(prob, space=s2,
                                  u0=study._prolong(u1, s2, prob))
        assert u.space is space and space is not s2
        assert np.array_equal(u.coeffs, ref.coeffs)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(convex_polygons(), st.sampled_from([2, 3]),
           st.sampled_from([1, 2]), st.integers(0, 2 ** 31))
    def test_recovers_random_convex_quadratic_through_the_path(
            self, polygon, k, level, seed):
        # q = x.Ax/2 + b.x + c solves det D2u = det A exactly in every
        # space of degree >= 2; the path truncates above f and ends on
        # the unshifted data, so it must end on q's interpolant
        rng = np.random.default_rng(seed)
        L = rng.uniform(-1.0, 1.0, (2, 2))
        A = L @ L.T + 0.2 * np.eye(2)
        b, c = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0)
        q = [[c, b[1], 0.5 * A[1, 1]], [b[0], A[0, 1], 0.0],
             [0.5 * A[0, 0], 0.0, 0.0]]  # q[i][j] multiplies x^i y^j
        det = float(np.linalg.det(A))
        prob = problem_from_json({
            "polygon": polygon.vertices.tolist(), "k": k,
            "f": {"poly": [[det]]}, "g": {"poly": q}, "exact": {"poly": q},
            "regularization": {"truncate_schedule": [2.0 * det],
                               "epsilon_schedule": [0.5, 0.0]}})
        u, space, [record] = solve_problem(prob, refinements=level)
        assert [(s["truncate_M"], s["eps"]) for s in record["stages"]] == [
            (2.0 * det, 0.5), (2.0 * det, 0.0)]
        exact = interpolate(space, prob.exact).coeffs
        assert (np.max(np.abs(u.coeffs - exact))
                <= 1e-9 * np.max(np.abs(exact)))

    def test_space_and_resolution_rejected(self, paraboloid):
        space = FeSpace(triangulate(paraboloid.polygon, refinements=1), 2)
        with pytest.raises(ValueError, match="not both"):
            solve_problem(paraboloid, refinements=1, space=space)
        cubic = FeSpace(space.mesh, 3)
        with pytest.raises(ValueError, match="degree"):
            solve_problem(paraboloid, space=cubic)


class TestStudyReport:

    def test_rates_from_error_ratios(self):
        rep = StudyReport("demo", 2)
        rep.add_level({"level": 2, "h": 0.5, "dofs": 10,
                       "err_h2_broken": 0.4, "err_linf_interior": 0.1})
        rep.add_level({"level": 3, "h": 0.25, "dofs": 30,
                       "err_h2_broken": 0.2, "err_linf_interior": 0.025})
        rates = rep.rates("err_h2_broken")
        assert rates[0] is None
        assert abs(rates[1] - 1.0) <= 1e-12
        assert abs(rep.rates("err_linf_interior")[1] - 2.0) <= 1e-12

    def test_rates_handle_missing_errors(self):
        rep = StudyReport("demo", 2)
        rep.add_level({"level": 2, "h": 0.5, "err_h2_broken": None})
        rep.add_level({"level": 3, "h": 0.25, "err_h2_broken": 0.1})
        assert rep.rates("err_h2_broken") == [None, None]

    def test_csv_shape(self):
        rep = StudyReport("demo", 2)
        rep.add_level({"level": 2, "h": 0.5, "dofs": 10,
                       "err_h2_broken": 0.125, "err_linf_interior": 0.5})
        lines = rep.csv_text().strip().split("\n")
        assert lines[0] == ("level,h,dofs,err_h2_broken,err_linf_interior,"
                            "rate_h2")
        cells = lines[1].split(",")
        assert cells[0] == "2"
        assert float(cells[1]) == 0.5
        assert cells[5] == ""

    def test_write_csv_failure_leaves_no_file(self, tmp_path):
        rep = StudyReport("demo", 2)
        rep.add_level({"level": 2, "dofs": 10, "err_h2_broken": 0.125,
                       "err_linf_interior": 0.5})  # no "h"
        path = tmp_path / "study.csv"
        with pytest.raises(KeyError):
            rep.write_csv(path)
        assert not path.exists()

    def test_csv_floats_roundtrip(self, smooth_study):
        lines = smooth_study.csv_text().strip().split("\n")[1:]
        for line, rec in zip(lines, smooth_study.levels):
            cells = line.split(",")
            assert float(cells[1]) == rec["h"]
            assert float(cells[3]) == rec["err_h2_broken"]
            assert float(cells[4]) == rec["err_linf_interior"]

    def test_json_roundtrip(self, smooth_study):
        obj = json.loads(json.dumps(smooth_study.to_dict()))
        assert obj["problem"] == "smooth_exponential"
        assert len(obj["levels"]) == 3
        assert obj["failures"] == []
        assert obj["rates_h2"][0] is None


class TestConvergenceStudy:

    def test_smooth_errors_decrease(self, smooth_study):
        h2 = [rec["err_h2_broken"] for rec in smooth_study.levels]
        li = [rec["err_linf_interior"] for rec in smooth_study.levels]
        assert h2 == sorted(h2, reverse=True)
        assert li == sorted(li, reverse=True)
        rate = smooth_study.rates("err_h2_broken")[-1]
        assert rate >= 0.85

    def test_level_records_complete(self, smooth_study):
        for rec in smooth_study.levels:
            assert rec["dofs"] > 0
            assert rec["elapsed"] > 0
            assert rec["convexity"]["strictly_convex"] is True
            assert all(s["converged"] for s in rec["solves"])

    def test_measure_residuals_decrease(self, smooth_study):
        cols = np.array([rec["measure_residuals"]
                         for rec in smooth_study.levels])
        assert cols.shape == (3, 3)
        for j in range(cols.shape[1]):
            assert np.all(np.diff(cols[:, j]) < 0)

    def test_no_levels_rejected(self, paraboloid):
        with pytest.raises(ValueError, match="at least one level"):
            run_convergence_study(paraboloid, levels=())

    @pytest.mark.parametrize("levels", [(1, 1), (2, 1)])
    def test_levels_must_strictly_increase(self, paraboloid, levels):
        # a repeated level would give a log ratio over log(h / h) = 0
        with pytest.raises(ValueError, match="strictly increase"):
            run_convergence_study(paraboloid, levels=levels)

    def test_exact_in_space_saturates(self, paraboloid):
        rep = run_convergence_study(paraboloid, levels=(1, 2),
                                    with_measure=True)
        for rec in rep.levels:
            assert rec["err_h2_broken"] <= 1e-9
            assert rec["err_linf_interior"] <= 1e-12
            assert max(rec["measure_residuals"]) <= 1e-9

    def test_deterministic_csv(self, paraboloid):
        a = run_convergence_study(paraboloid, levels=(1, 2))
        b = run_convergence_study(paraboloid, levels=(1, 2))
        assert a.csv_text() == b.csv_text()

    def test_one_space_per_level(self, paraboloid, monkeypatch):
        builds = []
        real_init = FeSpace.__init__

        def counting(self, *args, **kwargs):
            builds.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(FeSpace, "__init__", counting)
        captured = []
        real_solve = study.solve_problem

        def capture(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            captured.append(out)
            return out

        monkeypatch.setattr(study, "solve_problem", capture)
        rep = run_convergence_study(paraboloid, levels=(1, 2, 3))
        assert len(rep.levels) == 3 and len(builds) == 3
        for (u, space, _), built in zip(captured, builds):
            assert u.space is space and space is built

    def test_failures_recorded_and_study_continues(self, paraboloid,
                                                   monkeypatch):
        real = study.solve_problem
        calls = []

        def flaky(problem, space=None, **kw):
            # the study builds each level's space and passes it in; the
            # unit square's fan mesh has 4 cells, refined 4x per level
            level = int(round(np.log(space.mesh.num_cells / 4) / np.log(4)))
            calls.append(level)
            if level == 1:
                raise NonConvergenceError("forced failure")
            return real(problem, space=space, **kw)

        monkeypatch.setattr(study, "solve_problem", flaky)
        rep = run_convergence_study(paraboloid, levels=(1, 2))
        assert calls == [1, 2]
        assert len(rep.failures) == 1
        assert rep.failures[0]["level"] == 1
        assert "forced failure" in rep.failures[0]["message"]
        assert len(rep.levels) == 1
        assert rep.levels[0]["level"] == 2


def starved(monkeypatch, schedule=(1.0, 1e-6)):
    """The degenerate problem on a short shift schedule, with solves capped
    at MAX_ITERS = 5.  Five iterations reach the eps = 1 solution at level
    3 (which takes 4) but not the eps = 1e-6 one (which takes 6)."""
    monkeypatch.setattr(solver, "MAX_ITERS", 5)
    prob = get_problem("degenerate")
    prob.epsilon_schedule = schedule
    return prob


class TestNonConvergence:

    def test_unconverged_final_stage_raises(self, monkeypatch):
        with pytest.raises(NonConvergenceError) as err:
            solve_problem(starved(monkeypatch), refinements=3)
        rep = err.value.report
        assert rep.status == "max_iters" and not rep.converged
        assert [s["eps"] for s in rep.stages] == [1.0, 1e-6]
        assert [s["converged"] for s in rep.stages] == [True, False]
        u = err.value.last_iterate
        assert u is not None and u.space.num_dofs > 0
        assert "max_iters" in str(err.value)

    def test_study_records_unconverged_level(self, monkeypatch):
        rep = run_convergence_study(starved(monkeypatch), levels=(3,))
        assert rep.levels == []
        assert [f["level"] for f in rep.failures] == [3]
        assert "max_iters" in rep.failures[0]["message"]
        [record] = rep.failures[0]["solves"]
        assert (record["status"], record["converged"]) == ("max_iters", False)
        assert [(st["truncate_M"], st["eps"]) for st in record["stages"]] == [
            (None, 1.0), (None, 1e-6)]


    def test_unconverged_middle_stage_ends_the_solve(self, monkeypatch):
        # The second of three shift stages runs out of iterations; the
        # solve must stop there rather than go on to the third stage from
        # its unconverged iterate and return.
        prob = starved(monkeypatch, (1.0, 1e-6, 1e-6))
        with pytest.raises(NonConvergenceError) as err:
            solve_problem(prob, refinements=3)
        msg = str(err.value)
        assert "truncate_M=None" in msg and "eps=1e-06" in msg
        assert "max_iters" in msg
        rep = err.value.report
        assert not rep.converged
        assert [(s["truncate_M"], s["eps"], s["converged"])
                for s in rep.stages] == [(None, 1.0, True),
                                         (None, 1e-6, False)]

        space = FeSpace(triangulate(prob.polygon, refinements=3),
                        prob.degree)
        with pytest.raises(NonConvergenceError) as direct:
            continuation_solve(space, prob.regularized(),
                               prob.solve_boundary, config=SolverConfig(
                                   continuation_schedule=prob.epsilon_schedule))
        rep = direct.value.report
        assert rep.status == "max_iters" and not rep.converged
        assert [(s["eps"], s["converged"]) for s in rep.stages] == [
            (1.0, True), (1e-6, False)]

    def test_unconverged_intermediate_stage_raises(self, monkeypatch):
        # The last M = 10 stage, ahead of the M = 40 ones, does not
        # converge; the path must not go on to the next stage.
        real = solver.newton_solve
        calls = []

        def third_unconverged(space, f, g, u0=None):
            u, rep = real(space, f, g, u0=u0)
            calls.append(u0)
            if len(calls) == 3:
                rep.converged = False
                rep.status = "max_iters"
                raise NonConvergenceError("forced", last_iterate=u,
                                          report=rep)
            return u, rep

        monkeypatch.setattr(solver, "newton_solve", third_unconverged)
        prob = get_problem("singular")
        prob.truncate_schedule = (10.0, 40.0)
        with pytest.raises(NonConvergenceError,
                           match="truncate_M=10.0, eps=0.015625") as err:
            solve_problem(prob, refinements=1)
        assert len(calls) == 3 and calls[0] is None
        assert err.value.last_iterate is not None
        rep = err.value.report
        assert not rep.converged
        assert [(s["truncate_M"], s["converged"]) for s in rep.stages] == [
            (10.0, True), (10.0, True), (10.0, False)]

    def test_failed_stage_keeps_every_record(self, monkeypatch):
        # The warm first M = 40 stage does not converge: the error's report
        # keeps the converged M = 10 stages and the M = 40 one, in the
        # layout of a successful solve, and the stage is not retried.
        real = solver.newton_solve
        starts = []

        def fourth_unconverged(space, f, g, u0=None):
            u, rep = real(space, f, g, u0=u0)
            starts.append(u0 is not None)
            if len(starts) == 4:
                rep.converged = False
                rep.status = "max_iters"
                raise NonConvergenceError("forced", last_iterate=u,
                                          report=rep)
            return u, rep

        monkeypatch.setattr(solver, "newton_solve", fourth_unconverged)
        prob = get_problem("singular")
        prob.truncate_schedule = (10.0, 40.0)
        with pytest.raises(NonConvergenceError,
                           match="truncate_M=40.0, eps=0.25") as err:
            solve_problem(prob, refinements=1)
        assert starts == [False, True, True, True]
        rep = err.value.report
        assert (rep.status, rep.converged) == ("max_iters", False)
        assert [(s["truncate_M"], s["eps"], s["converged"])
                for s in rep.stages] == [
            (10.0, eps, True) for eps in prob.epsilon_schedule] + [
            (40.0, prob.epsilon_schedule[0], False)]
        assert rep.iterations == sum(s["iterations"] for s in rep.stages)


def concave_start(problem, space):
    """2 h0 - u_P, with h0 and u_P the Poisson starts for f = 0 and for
    the problem's f: it takes the boundary data, and lap = -2 sqrt(f)."""
    h0 = default_initial_guess(space, lambda p: np.zeros(len(p)),
                               problem.solve_boundary)
    u_p = default_initial_guess(space, problem.f, problem.solve_boundary)
    return FeFunction(space, 2.0 * h0.coeffs - u_p.coeffs)


class TestConvexityCertificate:

    def test_concave_start_ends_nonconvex(self):
        # From the concave start, level 3 of the smooth problem ends
        # stationary on the concave branch; the certificate rejects it.
        prob = get_problem("smooth")
        space = FeSpace(triangulate(prob.polygon, refinements=3), 2)
        with pytest.raises(NonConvergenceError, match="nonconvex") as err:
            solve_problem(prob, space=space, u0=concave_start(prob, space))
        exc = err.value
        assert exc.report.status == "nonconvex" and not exc.report.converged
        assert "truncate_M=None, eps=0.0" in str(exc)
        record = exc.report.to_dict()
        assert record["status"] == "nonconvex"
        assert record["converged"] is False
        assert all(s["status"] == "stationary" for s in record["stages"])
        low = record["convexity"]["interior_min_lambda1"]
        assert low < -CONVEX_ALLOWANCE
        assert low == analyze(exc.last_iterate).interior_min_lambda1

    def test_concave_start_reaches_the_convex_branch_at_level_4(self):
        prob = get_problem("smooth")
        space = FeSpace(triangulate(prob.polygon, refinements=4), 2)
        u, _, reports = solve_problem(prob, space=space,
                                      u0=concave_start(prob, space))
        assert reports[-1]["converged"]
        assert reports[-1]["convexity"]["interior_min_lambda1"] > 0.9
        ref, _, _ = solve_problem(prob, space=space)
        assert np.abs(u.coeffs - ref.coeffs).max() <= 1e-8

    def test_only_the_end_of_the_path_is_certified(self, monkeypatch):
        # At level 3 the singular problem's M = 10 stages end non-convex,
        # inside as well as on the boundary cells; the M = 40 and 160
        # stages repair that, and the solve passes.
        real = solver.newton_solve
        ends = []

        def recorded(space, f, g, u0=None):
            u, rep = real(space, f, g, u0=u0)
            ends.append(analyze(u).interior_min_lambda1)
            return u, rep

        monkeypatch.setattr(solver, "newton_solve", recorded)
        u, _, [record] = solve_problem(get_problem("singular"),
                                       refinements=3)
        first = [s for s in record["stages"] if s["truncate_M"] == 10.0]
        assert len(first) == 3 and len(ends) == 9
        assert all(s["min_lambda1"] < -CONVEX_ALLOWANCE for s in first)
        assert all(end < -CONVEX_ALLOWANCE for end in ends[:3])
        assert record["converged"]
        assert all(s["converged"] for s in record["stages"])
        assert all(s["convexity"] is None for s in record["stages"])
        assert record["convexity"] == analyze(u).to_dict()
        assert record["convexity"]["interior_min_lambda1"] == ends[-1]
        assert ends[-1] >= -CONVEX_ALLOWANCE

    def test_failed_certificate_is_a_study_failure(self, paraboloid,
                                                   monkeypatch):
        # With an allowance of -10 no solve passes: each level is recorded
        # as a failure whose last record has status "nonconvex".
        monkeypatch.setattr(study, "CONVEX_ALLOWANCE", -10.0)
        rep = run_convergence_study(paraboloid, levels=(1, 2))
        assert rep.levels == []
        assert [f["level"] for f in rep.failures] == [1, 2]
        for failure in rep.failures:
            assert "nonconvex" in failure["message"]
            last = failure["solves"][-1]
            assert (last["status"], last["converged"]) == ("nonconvex", False)

    def test_study_analyzes_each_level_once(self, paraboloid, monkeypatch):
        calls = []
        monkeypatch.setattr(study, "analyze",
                            lambda u: calls.append(u) or analyze(u))
        rep = run_convergence_study(paraboloid, levels=(1, 2))
        assert len(calls) == 2
        for rec in rep.levels:
            assert rec["convexity"] is rec["solves"][-1]["convexity"]


class TestMeasureVerification:

    def test_bumps_supported_inside(self):
        prob = get_problem("smooth")
        compact = prob.interior_compact()
        bumps = default_bumps(compact)
        assert len(bumps) == 3
        edge = np.column_stack([np.linspace(0, 1, 33), np.zeros(33)])
        for p in bumps:
            assert np.max(np.abs(p(edge))) == 0.0
            assert p(np.array([compact.vertices.mean(axis=0)]))[0] >= 0.0

    def test_bumps_on_the_square_are_kept(self):
        # on the smooth problem's compact [0.1, 0.9]^2 the bumps sit at its
        # centre, at 0.3 of its side and at (0.7, 0.4) of it, with a quarter
        # of the side as radius
        bumps = default_bumps(get_problem("smooth").interior_compact())
        pts = np.random.default_rng(0).uniform(0.0, 1.0, (500, 2))
        for p, centre in zip(bumps, [(0.5, 0.5), (0.34, 0.34),
                                     (0.66, 0.42)]):
            r2 = np.sum((pts - centre) ** 2, axis=1) / 0.2 ** 2
            ref, inside = np.zeros(len(pts)), r2 < 1.0
            ref[inside] = np.exp(-1.0 / (1.0 - r2[inside]) + 1.0)
            assert np.max(np.abs(p(pts) - ref)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(convex_polygons())
    def test_bumps_vanish_on_the_compact_boundary(self, compact):
        for p in default_bumps(compact):
            assert np.max(np.abs(p(compact.boundary_samples(64)))) == 0.0
            assert p(compact.vertices.mean(axis=0)[None])[0] >= 0.0

    def test_exact_density_pairs_to_rounding(self, paraboloid):
        u, space, _ = solve_problem(paraboloid, refinements=2)
        rec = run_measure_verification(paraboloid, u)
        assert rec["dofs"] == space.num_dofs
        assert max(rec["residuals"]) <= 1e-9

    def test_one_hessian_evaluation_per_verification(self, monkeypatch):
        # The solution's det D2u at the error rule is evaluated once and
        # paired with every bump; the residuals are those of one
        # measure_pairing per bump, bit for bit.
        prob = get_problem("smooth")
        u, space, _ = solve_problem(prob, refinements=2)
        quad = space.error_quadrature()
        fv = space.sample(prob.f, quad)
        bumps = default_bumps(prob.interior_compact())
        per_bump = [abs(ma_measure.measure_pairing(u, p)
                        - space.integrate(fv * space.sample(p, quad), quad))
                    for p in bumps]
        calls = []
        real = FeFunction.cell_hessians

        def counted(v, q):
            calls.append(q)
            return real(v, q)

        monkeypatch.setattr(FeFunction, "cell_hessians", counted)
        rec = run_measure_verification(prob, u)
        assert len(calls) == 1
        assert rec["residuals"] == per_bump

    def test_boundary_supported_bump_rejected(self, paraboloid, monkeypatch):
        u, _, _ = solve_problem(paraboloid, refinements=1)
        ones = lambda x: np.ones(len(np.atleast_2d(x)))
        monkeypatch.setattr(study, "default_bumps", lambda compact: [ones])
        with pytest.raises(ValueError, match="support"):
            run_measure_verification(paraboloid, u)
