"""Command line driver: solve, study, measure and check-mesh runs.

Problems come either from the built-in catalogue (by short name) or from
a JSON file; reports are written as JSON, study tables as CSV.  Exit
codes: 0 success, 1 solver or check failure, 2 invalid input.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import MafemError, NonConvergenceError
from .mesh import check_mesh, triangulate
from .problems import CATALOGUE, get_problem, problem_from_json
from .study import run_convergence_study, run_measure_verification, \
    solve_problem


def _load_problem(ref):
    if ref in CATALOGUE:
        return get_problem(ref)
    if not os.path.exists(ref):
        raise ValueError(
            "problem {!r} is neither a catalogue name ({}) nor a file".format(
                ref, ", ".join(sorted(CATALOGUE))))
    return problem_from_json(ref)


def _apply_overrides(problem, args):
    if args.k is not None:
        if args.k < 2:
            raise ValueError("--k must be at least 2, got {}".format(args.k))
        problem.degree = args.k
    if getattr(args, "levels", None) is not None:
        if args.levels < 1:
            raise ValueError("--levels must be at least 1, got {}".format(
                args.levels))
        problem.levels = tuple(range(2, 2 + args.levels))
    return problem


def _refinements(args, problem):
    """The --refinements value, by default the problem's first level."""
    if args.refinements is None:
        return problem.levels[0]
    if args.refinements < 0:
        raise ValueError("--refinements must be nonnegative, got {}".format(
            args.refinements))
    return args.refinements


def _outdir(args):
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _cmd_solve(args):
    problem = _apply_overrides(_load_problem(args.problem), args)
    kw = {}
    if args.h is not None:
        if args.refinements is not None:
            raise ValueError("give --h or --refinements, not both")
        if not (args.h > 0.0 and np.isfinite(args.h)):
            raise ValueError("--h must be positive and finite, got {}".format(
                args.h))
        kw["h_target"] = args.h
    else:
        kw["refinements"] = _refinements(args, problem)
    out = _outdir(args)
    try:
        u, space, reports = solve_problem(problem, **kw)
    except NonConvergenceError as exc:
        _write_json(os.path.join(out, "report.json"),
                    {"problem": problem.name, "error": str(exc),
                     "report": exc.report.to_dict() if exc.report else None,
                     "solves": exc.solves})
        print("solver failed: {}".format(exc), file=sys.stderr)
        return 1
    space.mesh.save(os.path.join(out, "mesh.txt"))
    u.save(os.path.join(out, "solution.txt"), "mesh.txt")
    _write_json(os.path.join(out, "report.json"),
                {"problem": problem.to_dict(), "h": space.mesh.mesh_size(),
                 "dofs": space.num_dofs, "solves": reports})
    print("wrote {}/solution.txt ({} dofs, h={:.6g})".format(
        out, space.num_dofs, space.mesh.mesh_size()))
    return 0


def _cmd_study(args):
    problem = _apply_overrides(_load_problem(args.problem), args)
    out = _outdir(args)
    report = run_convergence_study(problem)
    report.write_csv(os.path.join(out, "study.csv"))
    report.save(os.path.join(out, "study.json"))
    print(report.csv_text(), end="")
    if report.failures:
        print("{} level(s) failed".format(len(report.failures)),
              file=sys.stderr)
        return 1
    return 0


def _cmd_measure(args):
    problem = _apply_overrides(_load_problem(args.problem), args)
    out = _outdir(args)
    try:
        u, space, _ = solve_problem(problem,
                                    refinements=_refinements(args, problem))
    except NonConvergenceError as exc:
        print("solver failed: {}".format(exc), file=sys.stderr)
        return 1
    rec = run_measure_verification(problem, u)
    _write_json(os.path.join(out, "measure.json"), rec)
    print("measure residuals: " + ", ".join("%.6e" % r
                                            for r in rec["residuals"]))
    return 0


def _cmd_check_mesh(args):
    problem = _apply_overrides(_load_problem(args.problem), args)
    mesh = triangulate(problem.polygon,
                       refinements=_refinements(args, problem))
    rec = check_mesh(mesh, problem.polygon)
    text = json.dumps(rec, indent=2, default=float)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "mesh_check.json"), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if rec["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mafem",
        description="Finite element solver and verification toolkit for "
                    "the Dirichlet Monge-Ampere equation det D2u = f.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", required=True,
                        help="catalogue name ({}) or JSON file".format(
                            ", ".join(sorted(CATALOGUE))))
    common.add_argument("--k", type=int, help="FE degree override (>= 2)")
    common.add_argument("--out", help="output directory (default: .)")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve at one mesh resolution")
    p_solve.add_argument("--h", type=float,
                         help="target mesh size (alternative to "
                              "--refinements)")
    p_solve.add_argument("--refinements", type=int,
                         help="uniform refinement level")
    p_solve.set_defaults(func=_cmd_solve)

    p_study = sub.add_parser("study", parents=[common],
                             help="convergence study over mesh levels")
    p_study.add_argument("--levels", type=int,
                         help="number of levels (refinements 2..n+1)")
    p_study.set_defaults(func=_cmd_study)

    p_measure = sub.add_parser("measure", parents=[common],
                               help="weak-measure verification of a solve")
    p_measure.add_argument("--refinements", type=int)
    p_measure.set_defaults(func=_cmd_measure)

    p_check = sub.add_parser("check-mesh", parents=[common],
                             help="mesh sanity and shape metrics")
    p_check.add_argument("--refinements", type=int)
    p_check.set_defaults(func=_cmd_check_mesh)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print("invalid input: {}".format(exc), file=sys.stderr)
        return 2
    except MafemError as exc:
        print("run failed: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
