"""The benchmark tracer must find every mafem function it wraps.

perfbench/tracer.py records a wrapped name that no longer exists as
absent instead of failing, so a rename would make that layer's figures
read 0.  Installing the tracer rebinds module globals, so it runs in a
fresh interpreter.

The expected absences are exactly these, in the order the tracer
installs its wrappers.  The solver's convexity hinge
(mafem.solver._ConvexityHinge) is gone, since the solve has no convexity
term, so the tracer's solver.hinge_s layer reads 0.  scipy's splu is
absent because the tracer times factorizations by wrapping it, and mafem
factors by banded Cholesky in mafem.solver._factor_spd instead, so the
factor, back-solve and fill figures of a traced run read 0 until the
tracer wraps _factor_spd.  mafem.regularize.RegularizedData is gone, since
Problem.regularized returns the regularized field itself, so the
tracer's regularize.data_s layer reads 0: it only ever timed the building
of two closures.  mafem.assembly.stiffness_matrix is gone, since the
solve stopped calling it when the Poisson start began loading its
stiffness from the cell blocks, so the tracer's assembly.poisson layer
already counted load_vector alone.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.absent))
"""


def test_absent_tracer_targets_are_the_known_ones():
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [
        "mafem.solver._ConvexityHinge.__init__",
        "mafem.solver._ConvexityHinge.value",
        "mafem.solver._ConvexityHinge.residual_and_jacobian",
        "scipy.sparse.linalg.splu",
        "mafem.assembly.stiffness_matrix",
        "mafem.regularize.RegularizedData.__init__"]
