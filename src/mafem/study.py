"""Convergence studies and measure verification for catalogue problems.

run_convergence_study solves a problem over its mesh levels, measures
broken-H2 / L2 / sup errors against the exact solution (the sup norm on a
fixed interior compact, where uniform convergence is the meaningful
statement for non-smooth limits), reports log2 error ratios between
consecutive levels, and serializes everything to JSON and CSV with full
float precision.  run_measure_verification pairs the cellwise determinant
of a solution against interior test bumps and the data density.
"""

import csv
import io
import json
import time

import numpy as np

from . import ma_measure
from .assembly import apply_boundary
from .convexity import analyze
from .errors import NonConvergenceError
from .fespace import FeFunction, FeSpace, broken_error_h2, l2_error, sup_error
from .mesh import triangulate
from .solver import SolverConfig, continuation_solve


def interior_grid(compact, n=33):
    """Deterministic lattice over the compact's bounding box, clipped.

    The same fixed point set is used at every mesh level so sup-norm
    errors are comparable across levels.
    """
    lo = compact.vertices.min(axis=0)
    hi = compact.vertices.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    return pts[compact.contains(pts)]


def _fmt(x):
    """A CSV cell: full float precision, empty for a missing value."""
    return "" if x is None else "%.17g" % float(x)


class StudyReport:
    """Per-level errors, rates and solver/convexity records of a study."""

    def __init__(self, problem_name, degree):
        self.problem_name = problem_name
        self.degree = degree
        self.levels = []
        self.failures = []

    def add_level(self, record):
        self.levels.append(record)

    def add_failure(self, level, exc):
        self.failures.append({"level": int(level), "message": str(exc),
                              "solves": exc.solves})

    def rates(self, key="err_h2_broken"):
        """log error ratios between consecutive successful levels."""
        out = [None]
        for prev, cur in zip(self.levels, self.levels[1:]):
            e0, e1 = prev.get(key), cur.get(key)
            if not e0 or not e1 or e0 <= 0 or e1 <= 0:
                out.append(None)
                continue
            out.append(float(np.log(e0 / e1)
                             / np.log(prev["h"] / cur["h"])))
        return out

    def to_dict(self):
        return {
            "problem": self.problem_name,
            "degree": self.degree,
            "levels": self.levels,
            "rates_h2": self.rates("err_h2_broken"),
            "rates_linf_interior": self.rates("err_linf_interior"),
            "failures": self.failures,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def csv_text(self):
        """CSV table: level,h,dofs,err_h2_broken,err_linf_interior,rate_h2.

        A cell without a value (no exact solution, no rate) is empty."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["level", "h", "dofs", "err_h2_broken",
                         "err_linf_interior", "rate_h2"])
        rates = self.rates("err_h2_broken")
        for rec, rate in zip(self.levels, rates):
            writer.writerow([rec["level"], _fmt(rec["h"]), rec["dofs"],
                             _fmt(rec["err_h2_broken"]),
                             _fmt(rec["err_linf_interior"]), _fmt(rate)])
        return buf.getvalue()

    def write_csv(self, path):
        text = self.csv_text()  # first, so that a failure writes no file
        with open(path, "w") as fh:
            fh.write(text)


def solve_problem(problem, refinements=None, h_target=None, u0=None,
                  config=None, space=None):
    """One solve of a catalogue problem at a given mesh resolution.

    The space is built from refinements or h_target, or given as `space`
    (of the problem's degree; then give neither).  Runs one warm-started
    continuation_solve per truncation level M of the schedule (one with no
    truncation for bounded data).  Returns (solution, space, list of solve
    report dicts, each with its truncate_M); the solution lives on the
    returned space, and every stage of every record converged.  The first
    stage that does not converge ends the solve: it raises
    NonConvergenceError naming M, the stage's eps and its status, carrying
    the last iterate, that continuation's report and, as `solves`, the
    report dicts of every continuation run so far.
    """
    if space is None:
        mesh = triangulate(problem.polygon, refinements=refinements,
                           h_target=h_target)
        space = FeSpace(mesh, problem.degree)
    elif refinements is not None or h_target is not None:
        raise ValueError("give a space or a mesh resolution, not both")
    elif space.degree != problem.degree:
        raise ValueError("space has degree {}, the problem {}".format(
            space.degree, problem.degree))
    if config is None:
        config = SolverConfig(
            continuation_schedule=problem.epsilon_schedule)
    reports = []
    u = u0
    for M in problem.truncate_schedule or (None,):
        reg = problem.regularized(truncate_M=M)
        try:
            u, rep = continuation_solve(space, reg.f_m,
                                        problem.solve_boundary,
                                        config=config, u0=u)
        except NonConvergenceError as exc:
            reports.append({**exc.report.to_dict(), "truncate_M": M})
            err = NonConvergenceError(
                "truncation stage truncate_M={}: {}".format(M, exc),
                last_iterate=exc.last_iterate, report=exc.report)
            err.solves = reports
            raise err from exc
        reports.append({**rep.to_dict(), "truncate_M": M})
    return u, space, reports


def _prolong(u_coarse, space, problem):
    """Initial guess on a finer space from a coarser solution."""
    u = FeFunction(space, u_coarse(space.dof_coords))
    u.coeffs[space.boundary_dofs] = apply_boundary(space,
                                                   problem.solve_boundary)
    return u


def level_errors(u, problem, grid):
    """Error record of one solved level against the exact fields."""
    rec = {"err_h2_broken": None, "err_l2": None,
           "err_linf_interior": None}
    if problem.exact is None:
        return rec
    rec["err_l2"] = l2_error(u, problem.exact)
    if problem.exact_hess is not None:
        rec["err_h2_broken"] = broken_error_h2(
            u, problem.exact, problem.exact_grad, problem.exact_hess)
    rec["err_linf_interior"] = sup_error(u, problem.exact, grid)
    return rec


def run_convergence_study(problem, levels=None, grid_n=33,
                          with_measure=False):
    """Solve across mesh levels and report errors and observed rates.

    A failing level is recorded in the report and the study continues on
    the remaining levels, the next one from the Poisson start.  Raises
    ValueError when there is no level to solve or the levels do not
    strictly increase: a repeated level has no rate.
    """
    levels = problem.levels if levels is None else tuple(levels)
    if not levels:
        raise ValueError("a convergence study needs at least one level")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("mesh levels must strictly increase, got {}"
                         .format(list(levels)))
    compact = problem.interior_compact()
    grid = interior_grid(compact, n=grid_n)
    report = StudyReport(problem.name, problem.degree)
    u_prev = None
    for level in levels:
        t0 = time.perf_counter()
        try:
            mesh = triangulate(problem.polygon, refinements=level)
            space = FeSpace(mesh, problem.degree)
            u0 = _prolong(u_prev, space, problem) if u_prev is not None \
                else None
            u, _, solve_reports = solve_problem(problem, u0=u0, space=space)
        except NonConvergenceError as exc:
            report.add_failure(level, exc)
            u_prev = None
            continue
        rec = {"level": int(level), "h": float(space.mesh.mesh_size()),
               "dofs": int(space.num_dofs),
               "elapsed": time.perf_counter() - t0}
        rec.update(level_errors(u, problem, grid))
        rec["solves"] = solve_reports
        rec["convexity"] = analyze(u).to_dict()
        if with_measure:
            rec["measure_residuals"] = run_measure_verification(
                problem, u)["residuals"]
        report.add_level(rec)
        u_prev = u
    return report


def default_bumps(compact):
    """Three fixed smooth bumps compactly supported inside the domain."""
    lo = compact.vertices.min(axis=0)
    hi = compact.vertices.max(axis=0)
    centers = [0.5 * (lo + hi),
               lo + 0.3 * (hi - lo),
               lo + np.array([0.7, 0.4]) * (hi - lo)]
    radius = 0.25 * min(hi - lo)

    def make(c):
        def p(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            r2 = ((x[:, 0] - c[0]) ** 2 + (x[:, 1] - c[1]) ** 2) / radius ** 2
            out = np.zeros(len(x))
            m = r2 < 1.0
            out[m] = np.exp(-1.0 / (1.0 - r2[m]) + 1.0)
            return out
        return p
    return [make(c) for c in centers]


def run_measure_verification(problem, u, bumps=None):
    """Residuals |int p d(det D2u) - int f p dx| for interior test bumps.

    The bumps must be supported strictly inside the domain; under mesh
    refinement these residuals are the desk-scale form of weak convergence
    of the discrete Monge-Ampere measures to f dx.
    """
    space = u.space
    if bumps is None:
        bumps = default_bumps(problem.interior_compact())
    quad = space.error_quadrature()
    fv = space.sample(problem.f, quad)
    density = ma_measure.cell_density(u)
    residuals = []
    for p in bumps:
        ma_measure.check_interior_support(u, p)
        target = space.integrate(fv * space.sample(p, quad), quad)
        pairing = ma_measure.measure_pairing(u, p, density)
        residuals.append(abs(pairing - target))
    return {"problem": problem.name, "dofs": int(space.num_dofs),
            "h": float(space.mesh.mesh_size()), "residuals": residuals}
