"""Convergence studies and measure verification for catalogue problems.

run_convergence_study solves a problem over its mesh levels, measures
broken-H2 / L2 / sup errors against the exact solution (the sup norm on a
fixed interior compact, where uniform convergence is the meaningful
statement for non-smooth limits), reports log2 error ratios between
consecutive levels, as a dict for JSON and a CSV table with full float
precision.  run_measure_verification pairs the cellwise determinant of a
solution against interior test bumps and the data density.
"""

import csv
import io
import time

import numpy as np

from . import ma_measure
from .assembly import apply_boundary
from .convexity import CONVEX_ALLOWANCE, analyze
from .errors import NonConvergenceError
from .fespace import FeFunction, FeSpace, broken_error_h2, l2_error, sup_error
from .mesh import triangulate
from .solver import SolverConfig, continuation_solve


GRID_N = 33  # lattice points per side of interior_grid


def interior_grid(compact):
    """Deterministic GRID_N x GRID_N lattice over the compact's bounding
    box, clipped to the compact.

    The same fixed point set is used at every mesh level so sup-norm
    errors are comparable across levels.
    """
    lo = compact.vertices.min(axis=0)
    hi = compact.vertices.max(axis=0)
    xs = np.linspace(lo[0], hi[0], GRID_N)
    ys = np.linspace(lo[1], hi[1], GRID_N)
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
        self.failures.append({
            "level": int(level), "message": str(exc),
            "solves": [exc.report.to_dict()] if exc.report else []})

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
                  space=None):
    """One solve of a catalogue problem at a given mesh resolution.

    The space is built from refinements or h_target, or given as `space`
    (of the problem's degree; then give neither).  One continuation_solve
    walks the regularization path: f truncated at each M of the truncation
    schedule (f itself for bounded data), each swept over the problem's
    epsilon schedule.  Returns (solution, space, [record]): the solution
    lives on the returned space, record is that solve's report dict, and a
    stage that does not converge raises its NonConvergenceError.

    Convexity is certified once, on the iterate that ends the path, and
    the report holds its analysis as `convexity`: intermediate stages may
    end non-convex, and later ones repair them.  When the smallest Hessian
    eigenvalue over the cells with no boundary vertex is below
    -CONVEX_ALLOWANCE, the report becomes converged False with status
    "nonconvex", and NonConvergenceError is raised, naming the last stage.
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
    config = SolverConfig(continuation_schedule=problem.epsilon_schedule)
    path = [(M, problem.regularized(M))
            for M in problem.truncate_schedule or (None,)]
    u, rep = continuation_solve(space, path, problem.solve_boundary,
                                config=config, u0=u0)
    certificate = analyze(u)
    rep.convexity = certificate.to_dict()
    low = certificate.interior_min_lambda1
    if low is not None and low < -CONVEX_ALLOWANCE:
        rep.converged, rep.status = False, "nonconvex"
        raise NonConvergenceError(
            "stage truncate_M={truncate_M}, eps={eps}: the final iterate has "
            "status 'nonconvex', interior min lambda1 {0:.3e} < -{1:g}".format(
                low, CONVEX_ALLOWANCE, **rep.stages[-1]),
            last_iterate=u, report=rep)
    return u, space, [rep.to_dict()]


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


def run_convergence_study(problem, levels=None, with_measure=False):
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
    grid = interior_grid(compact)
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
        rec["convexity"] = solve_reports[-1]["convexity"]
        if with_measure:
            rec["measure_residuals"] = run_measure_verification(
                problem, u)["residuals"]
        report.add_level(rec)
        u_prev = u
    return report


def default_bumps(compact):
    """Three fixed smooth bumps supported inside the convex compact: with c
    its centroid and rho the distance from c to its boundary, centred at c,
    c - rho (0.4, 0.4) and c + rho (0.4, -0.2), of radius rho / 2 or less,
    as the centres' distances to the boundary allow.  On a square: at its
    centre, at 0.3 and at (0.7, 0.4) of its side, of radius side / 4."""
    c = compact.centroid
    rho = compact.distance_to_boundary(c)
    centers = c + rho * np.array([[0.0, 0.0], [-0.4, -0.4], [0.4, -0.2]])
    radius = min(0.5 * rho, np.min(compact.distance_to_boundary(centers)))

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


def run_measure_verification(problem, u):
    """Residuals |int p d(det D2u) - int f p dx| for the default_bumps of
    the problem's interior compact.

    Both integrals use the space's error rule, the pairing the cellwise
    density det D2u (ma_measure.cell_density).  Raises ValueError when a
    bump's support touches the boundary of the mesh.  Under mesh
    refinement these residuals are the desk-scale form of weak convergence
    of the discrete Monge-Ampere measures to f dx.
    """
    space = u.space
    quad = space.error_quadrature()
    fv = space.sample(problem.f, quad)
    density = ma_measure.cell_density(u)
    residuals = []
    for p in default_bumps(problem.interior_compact()):
        ma_measure.check_interior_support(u, p)
        pv = space.sample(p, quad)
        residuals.append(abs(space.integrate(density * pv, quad)
                             - space.integrate(fv * pv, quad)))
    return {"problem": problem.name, "dofs": int(space.num_dofs),
            "h": float(space.mesh.mesh_size()), "residuals": residuals}
