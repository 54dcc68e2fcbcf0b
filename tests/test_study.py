"""Tests for convergence studies, reports and measure verification."""

import json

import numpy as np
import pytest

from mafem.errors import NonConvergenceError
from mafem.fespace import FeFunction, FeSpace
from mafem.mesh import triangulate
from mafem.problems import get_problem, problem_from_json
from mafem import ma_measure, study
from mafem.solver import SolverConfig, continuation_solve
from mafem.study import (StudyReport, default_bumps, interior_grid,
                         run_convergence_study, run_measure_verification,
                         solve_problem)


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
        a = interior_grid(compact, n=17)
        b = interior_grid(compact, n=17)
        assert np.array_equal(a, b)


class TestSolveProblem:

    def test_truncation_stages_recorded(self):
        prob = get_problem("singular")
        u, space, reports = solve_problem(prob, refinements=2)
        assert [r["truncate_M"] for r in reports] == [10.0, 40.0, 160.0]
        assert all(r["converged"] for r in reports)

    def test_h_target_pathway(self):
        prob = get_problem("smooth")
        u, space, reports = solve_problem(prob, h_target=0.3)
        assert space.mesh.mesh_size() <= 0.3
        assert reports[-1]["converged"]

    def test_exact_in_space_solution(self, paraboloid):
        u, space, reports = solve_problem(paraboloid, refinements=2)
        pts = interior_grid(paraboloid.interior_compact(), n=9)
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
        obj = json.loads(smooth_study.to_json())
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
        rep = run_convergence_study(paraboloid, levels=(1, 2), grid_n=9,
                                    with_measure=True)
        for rec in rep.levels:
            assert rec["err_h2_broken"] <= 1e-9
            assert rec["err_linf_interior"] <= 1e-12
            assert max(rec["measure_residuals"]) <= 1e-9

    def test_deterministic_csv(self, paraboloid):
        a = run_convergence_study(paraboloid, levels=(1, 2), grid_n=9)
        b = run_convergence_study(paraboloid, levels=(1, 2), grid_n=9)
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
        rep = run_convergence_study(paraboloid, levels=(1, 2, 3), grid_n=9)
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
        rep = run_convergence_study(paraboloid, levels=(1, 2), grid_n=9)
        assert calls == [1, 2]
        assert len(rep.failures) == 1
        assert rep.failures[0]["level"] == 1
        assert "forced failure" in rep.failures[0]["message"]
        assert len(rep.levels) == 1
        assert rep.levels[0]["level"] == 2


# Five iterations reach the eps = 1 solution of the degenerate problem at
# level 3 (which takes 4) but not the eps = 1e-6 one (which takes 6).
STARVED = dict(max_iters=5, continuation_schedule=(1.0, 1e-6))


class TestNonConvergence:

    def test_unconverged_final_stage_raises(self):
        with pytest.raises(NonConvergenceError) as err:
            solve_problem(get_problem("degenerate"), refinements=3,
                          config=SolverConfig(**STARVED))
        rep = err.value.report
        assert rep.status == "max_iters" and not rep.converged
        assert [s["eps"] for s in rep.stages] == [1.0, 1e-6]
        assert [s["converged"] for s in rep.stages] == [True, False]
        u = err.value.last_iterate
        assert u is not None and u.space.num_dofs > 0
        assert "max_iters" in str(err.value)

    def test_study_records_unconverged_level(self, monkeypatch):
        monkeypatch.setattr(study, "SolverConfig",
                            lambda **kw: SolverConfig(**STARVED))
        rep = run_convergence_study(get_problem("degenerate"), levels=(3,),
                                    grid_n=9)
        assert rep.levels == []
        assert [f["level"] for f in rep.failures] == [3]
        assert "max_iters" in rep.failures[0]["message"]
        solves = rep.failures[0]["solves"]
        assert [(r["truncate_M"], r["converged"]) for r in solves] == [
            (None, False)]
        assert [st["eps"] for st in solves[0]["stages"]] == [1.0, 1e-6]


    def test_unconverged_middle_stage_ends_the_solve(self):
        # The second of three shift stages runs out of iterations; the
        # solve must stop there rather than go on to the third stage from
        # its unconverged iterate and return.
        prob = get_problem("degenerate")
        cfg = SolverConfig(max_iters=5,
                           continuation_schedule=(1.0, 1e-6, 1e-6))
        with pytest.raises(NonConvergenceError) as err:
            solve_problem(prob, refinements=3, config=cfg)
        msg = str(err.value)
        assert "truncate_M=None" in msg and "eps=1e-06" in msg
        assert "max_iters" in msg
        [record] = err.value.solves
        assert record["truncate_M"] is None and not record["converged"]
        assert [s["converged"] for s in record["stages"]] == [True, False]
        assert record == {**err.value.report.to_dict(), "truncate_M": None}

        space = FeSpace(triangulate(prob.polygon, refinements=3),
                        prob.degree)
        with pytest.raises(NonConvergenceError) as direct:
            continuation_solve(space, prob.regularized().f_m,
                               prob.solve_boundary, config=cfg)
        rep = direct.value.report
        assert rep.status == "max_iters" and not rep.converged
        assert [(s["eps"], s["converged"]) for s in rep.stages] == [
            (1.0, True), (1e-6, False)]

    def test_unconverged_intermediate_stage_raises(self, monkeypatch):
        # The first of two truncation stages does not converge; the solve
        # must not go on to the second stage.
        real = study.continuation_solve
        calls = []

        def first_unconverged(space, f, g, config=None, u0=None):
            u, rep = real(space, f, g, config=config, u0=u0)
            calls.append(u0)
            if len(calls) == 1:
                rep.converged = False
                rep.status = "max_iters"
                raise NonConvergenceError("forced", last_iterate=u,
                                          report=rep)
            return u, rep

        monkeypatch.setattr(study, "continuation_solve", first_unconverged)
        prob = get_problem("singular")
        prob.truncate_schedule = (10.0, 40.0)
        with pytest.raises(NonConvergenceError,
                           match="truncate_M=10.0") as err:
            solve_problem(prob, refinements=1)
        assert calls == [None]
        assert err.value.last_iterate is not None
        assert not err.value.report.converged

    def test_failed_stage_keeps_every_record(self, monkeypatch):
        # The warm M = 40 stage does not converge: the error keeps the
        # converged M = 10 record and the M = 40 one, in the layout of a
        # successful solve, and the stage is not retried.
        real = study.continuation_solve
        starts = []

        def later_unconverged(space, f, g, config=None, u0=None):
            u, rep = real(space, f, g, config=config, u0=u0)
            starts.append(u0 is not None)
            if len(starts) > 1:
                rep.converged = False
                rep.status = "max_iters"
                raise NonConvergenceError("forced", last_iterate=u,
                                          report=rep)
            return u, rep

        monkeypatch.setattr(study, "continuation_solve", later_unconverged)
        prob = get_problem("singular")
        prob.truncate_schedule = (10.0, 40.0)
        with pytest.raises(NonConvergenceError,
                           match="truncate_M=40.0") as err:
            solve_problem(prob, refinements=1)
        assert starts == [False, True]
        solves = err.value.solves
        assert [(r["truncate_M"], r["converged"]) for r in solves] == [
            (10.0, True), (40.0, False)]
        assert all(len(r["stages"]) == len(prob.epsilon_schedule)
                   for r in solves)
        assert solves[-1] == {**err.value.report.to_dict(),
                              "truncate_M": 40.0}


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

    def test_exact_density_pairs_to_rounding(self, paraboloid):
        u, space, _ = solve_problem(paraboloid, refinements=2)
        rec = run_measure_verification(paraboloid, u)
        assert rec["dofs"] == space.num_dofs
        assert max(rec["residuals"]) <= 1e-9

    def test_one_hessian_evaluation_per_verification(self, monkeypatch):
        # The solution's det D2u at the error rule is evaluated once and
        # paired with every bump; the residuals are those of one
        # measure_pairing per bump.
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
        assert np.allclose(rec["residuals"], per_bump, rtol=1e-14, atol=0.0)

    def test_boundary_supported_bump_rejected(self, paraboloid):
        u, _, _ = solve_problem(paraboloid, refinements=1)
        ones = lambda x: np.ones(len(np.atleast_2d(x)))
        with pytest.raises(ValueError, match="support"):
            run_measure_verification(paraboloid, u, bumps=[ones])
