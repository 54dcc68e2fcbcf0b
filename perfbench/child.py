"""One benchmark sample in a fresh process; prints one JSON record.

    python3 perfbench/child.py --workload W --mode run|trace|setup

``setup`` times ``import mafem`` plus building the problem and stops;
``run`` also times the workload's calls into mafem untraced and checks
the outputs; ``trace`` does the same with spans around every layer and
adds per-layer figures.  The untraced modes import only mafem's public
API.  Exit code 3 means mafem could not be imported.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".perfbench_out")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"),
                    required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        import mafem
    except ImportError:
        traceback.print_exc()
        return 3
    import workloads
    problem = mafem.get_problem(workloads.WORKLOADS[args.workload][0])
    rec = {"setup_s": time.perf_counter() - t0}
    if args.mode == "setup":
        print(json.dumps(rec))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        root = tracer.begin("workload")

    t1, c1 = time.perf_counter(), time.process_time()
    try:
        out = workloads.run(mafem, args.workload, problem)
        error = None
    except Exception as exc:  # a failed operation, reported as such
        traceback.print_exc()
        out, error = None, "{}: {}".format(type(exc).__name__, exc)
    rec["wall_s"] = time.perf_counter() - t1
    rec["cpu_s"] = time.process_time() - c1
    if tracer is not None:
        tracer.end(root)
        tracer.active = False
    rec["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if out is None:
        attempted = workloads.WORKLOADS[args.workload][1]
        rec.update(attempted=attempted, failed=attempted,
                   err_linf=float("nan"), gn_iters=0, accepted_steps=0,
                   checks=[["workload raised " + error, False]])
    else:
        rec.update(workloads.evaluate(mafem, args.workload, problem, out))
    if tracer is not None:
        rec["layers"] = tracer.self_times()
        rec["kernel_bytes"] = tracer.kernel_bytes
        rec["fill_max"] = tracer.fill_max
        rec["absent"] = tracer.absent
        rec["trace_id"] = tracer.trace_id
        tracer.write(os.path.join(OUT_DIR, args.workload + ".spans.json"))
    rec["env"] = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
