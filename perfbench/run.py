"""End-to-end and per-layer benchmark of mafem's catalogue workloads.

    python3 perfbench/run.py --workload smooth_study --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; mafem is imported from ``src/``.
Every sample runs in a fresh single-threaded child process (see
``child.py``), one after the other, for about ``--seconds`` seconds.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced samples
alternate and it holds the per-layer metrics.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when mafem's sources
are missing or cannot be imported (no result line then).  Per-run
records and the spans of the last traced sample are written to
``.perfbench_out/`` in the checkout.  See README.md beside this file.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3        # extra set-up only children per run, for setup_s
RUN_BUDGET_S = 160.0     # hard cap on one run, below the 180 s limit

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("err_linf", "1"))


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one thread per process, one process at a time; numpy kernels only,
    # so machines with and without numba measure the same code path
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MAFEM_NUMBA="0")
    return env


class ProgramMissing(Exception):
    pass


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.env = child_env()
        self.start = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.start

    def child(self, mode):
        """Run one child; returns (record or None, seconds taken)."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--mode", mode]
        timeout = max(5.0, RUN_BUDGET_S - self.elapsed())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print("child timed out after {:.0f} s".format(timeout),
                  file=sys.stderr)
            return None, time.perf_counter() - t0
        took = time.perf_counter() - t0
        if proc.returncode == 3:
            sys.stderr.write(proc.stderr)
            raise ProgramMissing("mafem cannot be imported from src/")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            return None, took
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        return json.loads(lines[-1]), took

    def workload_samples(self, modes, seconds):
        """Cycle through ``modes`` until the next cycle would overrun."""
        samples = {m: [] for m in modes}
        longest = 0.0
        t0 = time.perf_counter()
        while True:
            took = 0.0
            for mode in modes:
                rec, t = self.child(mode)
                samples[mode].append(rec)
                took += t
            longest = max(longest, took)
            spent = time.perf_counter() - t0
            if (spent + longest > seconds
                    or self.elapsed() + longest > RUN_BUDGET_S - 10.0):
                return samples


def accounting(records, attempted_each):
    """(attempted, failed, failed check names) over workload samples."""
    attempted = failed = 0
    bad = []
    for rec in records:
        if rec is None:
            attempted += attempted_each
            failed += attempted_each
            bad.append("sample crashed")
            continue
        attempted += rec["attempted"]
        failed += rec["failed"]
        bad += [name for name, ok in rec["checks"] if not ok]
    return attempted, failed, bad


def layer_metrics(rec, untraced_wall):
    layers = rec["layers"]

    def s(name):
        return layers.get(name, [0.0, 0])[0]

    def c(name):
        return layers.get(name, [0.0, 0])[1]

    kernels = [k for k in layers if k.startswith("kernels.")]
    factor_calls = c("solver.factor")
    trials = c("assembly.residual") - factor_calls - c("solver.newton")
    traced_wall = rec["wall_s"]
    return {
        "assembly.jump_matrix_s": (s("assembly.jump_matrix"), "s"),
        "assembly.jump_matrix_calls": (c("assembly.jump_matrix"), "count"),
        "solver.factor_s": (s("solver.factor"), "s"),
        "solver.factor_calls": (factor_calls, "count"),
        "solver.factor_fill_nnz": (rec["fill_max"], "count"),
        "solver.backsolve_s": (s("solver.backsolve"), "s"),
        "solver.gn_iters": (rec["gn_iters"], "count"),
        "solver.polish_directions": (factor_calls - rec["gn_iters"],
                                     "count"),
        "solver.line_search_trials": (trials, "count"),
        "solver.line_search_accept_ratio": (
            rec["accepted_steps"] / trials if trials > 0 else 0.0, "1"),
        "solver.hinge_s": (s("solver.hinge"), "s"),
        "solver.newton_self_s": (s("solver.newton"), "s"),
        "solver.poisson_solve_s": (s("solver.poisson_factor")
                                   + s("solver.poisson_backsolve"), "s"),
        "assembly.residual_s": (s("assembly.residual"), "s"),
        "assembly.residual_calls": (c("assembly.residual"), "count"),
        "assembly.jacobian_s": (s("assembly.jacobian"), "s"),
        "assembly.jacobian_calls": (c("assembly.jacobian"), "count"),
        "assembly.poisson_s": (s("assembly.poisson"), "s"),
        "kernels.self_s": (sum(s(k) for k in kernels), "s"),
        "kernels.calls": (sum(c(k) for k in kernels), "count"),
        "kernels.computed_bytes": (rec["kernel_bytes"], "bytes"),
        "mesh.triangulate_s": (s("mesh.triangulate"), "s"),
        "mesh.triangulate_calls": (c("mesh.triangulate"), "count"),
        "fespace.space_build_s": (s("fespace.space_build"), "s"),
        "fespace.space_build_calls": (c("fespace.space_build"), "count"),
        "fespace.errors_s": (s("fespace.errors"), "s"),
        "study.self_s": (s("study.convergence_study")
                         + s("study.solve_problem"), "s"),
        "study.level_errors_s": (s("study.level_errors"), "s"),
        "study.measure_verification_s": (s("study.measure_verification"),
                                         "s"),
        "ma_measure.pairing_s": (s("ma_measure.pairing"), "s"),
        "convexity.analyze_s": (s("convexity.analyze"), "s"),
        "convexity.analyze_calls": (c("convexity.analyze"), "count"),
        "regularize.data_s": (s("regularize.data"), "s"),
        "trace.unattributed_s": (s("workload"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "1"),
    }


def layers_within_wall(rec):
    """Layer self times, without the root and the probes, sum to <= wall."""
    total = sum(v[0] for k, v in rec["layers"].items()
                if k != "workload" and not k.startswith("trace."))
    return total <= rec["wall_s"]


def median_metrics(dicts):
    out = {}
    for name, (_, unit) in dicts[0].items():
        out[name] = {"value": statistics.median(d[name][0] for d in dicts),
                     "unit": unit}
    return out


def tail_note(vals):
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(vals)
    if n < 11:
        return "n={}, median only (a tail percentile needs >= 11)".format(n)
    return "n={}, p{:.0f} = {:.6g}".format(n, 100.0 * (n - 10) / n,
                                           sorted(vals)[n - 11])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # recorded only: the inputs are fixed, see workloads.py
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "mafem", "__init__.py")):
        print("error: no mafem sources under {}".format(
            os.path.join(ROOT, "src")), file=sys.stderr)
        return 2
    runner = Runner(args.workload)
    attempted_each = WORKLOADS[args.workload][1]
    try:
        runner.child("setup")   # warm the file cache and bytecode cache
        if args.trace:
            samples = runner.workload_samples(("run", "trace"), args.seconds)
        else:
            samples = runner.workload_samples(("run",), args.seconds)
        setups = [runner.child("setup")[0] for _ in range(SETUP_SAMPLES)]
    except ProgramMissing as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2

    records = [r for recs in samples.values() for r in recs]
    attempted, failed, bad = accounting(records, attempted_each)
    runs = [r for r in samples["run"] if r is not None]
    ok = not bad and failed == 0 and bool(runs)

    lines = []
    metrics = {}
    if args.trace:
        traced = [r for r in samples["trace"] if r is not None]
        ok = ok and bool(traced)
        if runs and traced:
            base = statistics.median(r["wall_s"] for r in runs)
            per = [layer_metrics(r, base) for r in traced]
            metrics = median_metrics(per)
            if not all(layers_within_wall(r) for r in traced):
                ok = False
                bad.append("layer self times exceed wall_s")
            absent = sorted(set(a for r in traced for a in r["absent"]))
            lines.append("absent trace targets: {}".format(
                ", ".join(absent) or "none"))
            lines.append("trace id of last sample: {}".format(
                traced[-1]["trace_id"]))
    elif runs:
        setup_vals = [r["setup_s"] for r in setups + runs if r is not None]
        samples_of = {"setup_s": setup_vals}
        for name, unit in END_TO_END:
            vals = samples_of.get(name, [r[name] for r in runs])
            vals = [v for v in vals if math.isfinite(v)]
            if vals:   # a run whose workload raised has no err_linf
                metrics[name] = {"value": statistics.median(vals),
                                 "unit": unit}
        lines.append("wall_s: {}".format(
            tail_note([r["wall_s"] for r in runs])))
        lines.append("setup_s: {}".format(tail_note(setup_vals)))
        lines.append("per sample: wall_s {}, cpu_s {}, Gauss-Newton "
                     "iterations {}".format(
                         [round(r["wall_s"], 3) for r in runs],
                         [round(r["cpu_s"], 3) for r in runs],
                         [r["gn_iters"] for r in runs]))

    env = runs[0]["env"] if runs else None
    lines.append("workload {} seed {} trace {}: {} samples in {:.1f} s".format(
        args.workload, args.seed, args.trace, len(records), runner.elapsed()))
    lines.append("environment: " + json.dumps(env, sort_keys=True))
    lines.append("fail_frac: {} (failed {} of {} operations)".format(
        failed / attempted if attempted else 0.0, failed, attempted))
    for name in sorted(metrics):
        lines.append("{:36s} {:.6g} {}".format(
            name, metrics[name]["value"], metrics[name]["unit"]))
    for name in bad:
        lines.append("FAILED CHECK: " + name)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "{}.trace{}.json".format(args.workload,
                                                          args.trace))
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": env, "samples": samples, "setups": setups,
                   "metrics": metrics, "correct": ok}, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
