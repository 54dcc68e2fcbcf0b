"""The benchmark tracer must find every mafem function it wraps.

perfbench/tracer.py records a wrapped name that no longer exists as
absent instead of failing, so a rename would make that layer's figures
read 0.  Installing the tracer rebinds module globals, so it runs in a
fresh interpreter.

The one expected absence is scipy's splu: the tracer times
factorizations by wrapping it, and mafem factors by banded Cholesky in
mafem.solver._factor_spd instead, so the factor, back-solve and fill
figures of a traced run read 0 until the tracer wraps _factor_spd.
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


def test_only_splu_tracer_target_is_absent():
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [
        "scipy.sparse.linalg.splu"]
