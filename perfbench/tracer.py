"""In-memory span tracer that wraps mafem's layer functions from outside.

Spans record (id, parent id, name, start, end) and share one trace id per
process.  Each wrapped name is rebound in every ``mafem`` module namespace
that holds the original object, so ``from .assembly import residual`` in
``mafem.solver`` and attribute lookups such as ``kernels.residual_cells``
are both caught.  A target a later refactor removes is recorded as absent
instead of raising.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
import uuid

import numpy as np


class Tracer:
    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans = []          # [id, parent, name, start, end]
        self.stack = []
        self.active = False
        self.absent = []
        self.kernel_bytes = 0
        self.fill_max = 0

    def begin(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def inside(self, name):
        return any(self.spans[s][2] == name for s in self.stack)

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sid)
        return traced

    # -- patching -----------------------------------------------------------

    def _home(self, module_name, label):
        try:
            return importlib.import_module(module_name)
        except ImportError:
            self.absent.append(label)
            return None

    def rebind(self, original, replacement):
        """Replace ``original`` in every loaded mafem module namespace."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mafem"
                                   or mod_name.startswith("mafem.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    hits += 1
        return hits

    def patch_function(self, module_name, attr, name, wrapper=None):
        label = "{}.{}".format(module_name, attr)
        mod = self._home(module_name, label)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            if mod is not None:
                self.absent.append(label)
            return
        replacement = (wrapper or self.wrap)(original, name)
        if not self.rebind(original, replacement):
            self.absent.append(label)

    def patch_method(self, module_name, cls_name, method, name):
        label = "{}.{}.{}".format(module_name, cls_name, method)
        mod = self._home(module_name, label)
        cls = getattr(mod, cls_name, None) if mod is not None else None
        original = getattr(cls, method, None) if cls is not None else None
        if original is None:
            self.absent.append(label)
            return
        setattr(cls, method, self.wrap(original, name))

    def patch_kernels(self):
        """Wrap every public function of mafem.kernels, counting bytes.

        Bytes are computed from the sizes of the array arguments and
        results, not measured memory traffic.
        """
        mod = self._home("mafem.kernels", "mafem.kernels")
        if mod is None:
            return
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            self.patch_function(mod.__name__, attr, "kernels." + attr,
                                wrapper=self._kernel_wrapper)

    def _kernel_wrapper(self, fn, name):
        timed = self.wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = timed(*args, **kwargs)
            if tracer.active:
                tracer.kernel_bytes += _nbytes(args) + _nbytes(
                    kwargs.values()) + _nbytes([out])
            return out
        return counted

    def _splu_wrapper(self, fn, name):
        """Time factorizations; the Poisson start's are counted apart."""
        tracer = self

        @functools.wraps(fn)
        def traced_splu(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            poisson = tracer.inside("solver.initial_guess")
            prefix = "solver.poisson_" if poisson else "solver."
            sid = tracer.begin(prefix + "factor")
            try:
                lu = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if not poisson:
                # reading L and U copies the factors; keep it in its own span
                sid = tracer.begin("trace.fill_probe")
                tracer.fill_max = max(tracer.fill_max,
                                      int(lu.L.nnz + lu.U.nnz))
                tracer.end(sid)
            return _TracedLU(lu, tracer, prefix + "backsolve")
        return traced_splu

    def install(self):
        """Patch every layer boundary the benchmark reports on."""
        pf = self.patch_function
        pf("mafem.study", "run_convergence_study", "study.convergence_study")
        pf("mafem.study", "solve_problem", "study.solve_problem")
        pf("mafem.study", "level_errors", "study.level_errors")
        pf("mafem.study", "run_measure_verification",
           "study.measure_verification")
        pf("mafem.solver", "continuation_solve", "solver.continuation")
        pf("mafem.solver", "newton_solve", "solver.newton")
        pf("mafem.solver", "default_initial_guess", "solver.initial_guess")
        self.patch_method("mafem.solver", "_ConvexityHinge", "__init__",
                          "solver.hinge")
        self.patch_method("mafem.solver", "_ConvexityHinge", "value",
                          "solver.hinge")
        self.patch_method("mafem.solver", "_ConvexityHinge",
                          "residual_and_jacobian", "solver.hinge")
        pf("scipy.sparse.linalg", "splu", "solver.factor",
           wrapper=self._splu_wrapper)
        pf("mafem.assembly", "residual", "assembly.residual")
        pf("mafem.assembly", "jacobian", "assembly.jacobian")
        pf("mafem.assembly", "gradient_jump_matrix", "assembly.jump_matrix")
        pf("mafem.assembly", "stiffness_matrix", "assembly.poisson")
        pf("mafem.assembly", "load_vector", "assembly.poisson")
        self.patch_kernels()
        pf("mafem.mesh", "triangulate", "mesh.triangulate")
        self.patch_method("mafem.fespace", "FeSpace", "__init__",
                          "fespace.space_build")
        for attr in ("l2_error", "broken_error_h2", "sup_error"):
            pf("mafem.fespace", attr, "fespace.errors")
        pf("mafem.convexity", "analyze", "convexity.analyze")
        pf("mafem.ma_measure", "measure_pairing", "ma_measure.pairing")
        self.patch_method("mafem.regularize", "RegularizedData", "__init__",
                          "regularize.data")

    # -- output -------------------------------------------------------------

    def self_times(self):
        """{name: [self seconds, calls]} over the finished spans."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.spans:
            rec = out.setdefault(name, [0.0, 0])
            rec[0] += (end - start) - child[sid]
            rec[1] += 1
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id,
                       "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


class _TracedLU:
    """SuperLU stand-in whose solve calls are recorded as spans."""

    def __init__(self, lu, tracer, name):
        self._lu = lu
        self._tracer = tracer
        self._name = name

    def solve(self, *args, **kwargs):
        if not self._tracer.active:
            return self._lu.solve(*args, **kwargs)
        sid = self._tracer.begin(self._name)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.end(sid)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _nbytes(values):
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _nbytes(v)
    return total
