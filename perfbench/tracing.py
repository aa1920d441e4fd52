"""Span tracing of clothofit's layers, patched in from outside the package.

`Tracer.install` replaces each traced function at every module attribute
that is bound to it.  `eval_xy`, for one, is bound in `gfresnel`,
`fitter`, `clothoid` and the package itself, because the fitter and the
curve import it by name; patching only its home module would miss their
calls.  The traced `ClothoidCurve` methods are patched on the class.
`restore` puts every original back.  Nothing under `src/` changes.

A span records the traced name, start and end (`perf_counter_ns`), the
index of the enclosing span (-1 for none) and the operation id.  Spans
are kept in flat arrays so that a pass of many thousand spans stays
small, and are written out as CSV when the run ends.
"""

import functools
import importlib
import sys
import time
from array import array

# (module defining the function, attribute, span name)
TRACED_FUNCTIONS = (
    ("clothofit.fresnel", "fresnel", "fresnel.fresnel"),
    ("clothofit.gfresnel", "eval_xy", "gfresnel.eval_xy"),
    ("clothofit.gfresnel", "eval_xy_a_large", "gfresnel.a_large"),
    ("clothofit.gfresnel", "eval_xy_a_small", "gfresnel.a_small"),
    ("clothofit.gfresnel", "r_lommel", "gfresnel.r_lommel"),
    ("clothofit.fitter", "build_clothoid", "fitter.build_clothoid"),
    ("clothofit.fitter", "g_eval", "fitter.g_eval"),
    ("clothofit.fitter", "g_prime", "fitter.g_prime"),
    ("clothofit.fitter", "h_eval", "fitter.h_eval"),
)

TRACED_METHODS = (
    ("point_at", "clothoid.point_at"),
    ("sample", "clothoid.sample"),
    ("endpoint_residual", "clothoid.endpoint_residual"),
)

OP = "op"
EVAL_XY = "gfresnel.eval_xy"


class Tracer:
    """Collects spans from patched clothofit functions.

    Use `install()` / `restore()` around the traced work (or the tracer
    as a context manager) and `run_op(op_id, fn, *args)` for each
    operation, which opens the root span of that operation.
    """

    def __init__(self):
        self.span_names = [OP]
        self._name_ids = {OP: 0}
        self.binding_calls = {}   # "module:attribute" -> calls made through it
        self.a_zero_calls = [0]   # eval_xy calls with a == 0 exactly
        self._patched = []
        self._op_id = [0]
        self._stack = [-1]
        self.clear()

    def clear(self):
        """Drop the recorded spans and start empty arrays."""
        self.names = array("H")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")

    def take(self):
        """Hand over the recorded spans and start empty arrays."""
        spans = (self.names, self.parents, self.ops, self.starts, self.ends)
        self.clear()
        return spans

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, binding):
        nid = self._name_id(name)
        hits = self.binding_calls.setdefault(binding, [0])
        zero = self.a_zero_calls if name == EVAL_XY else None
        stack = self._stack
        op_id = self._op_id
        now = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits[0] += 1
            if zero is not None and (args[0] if args else kwargs["a"]) == 0.0:
                zero[0] += 1
            ends = tracer.ends
            i = len(ends)
            tracer.names.append(nid)
            tracer.parents.append(stack[-1])
            tracer.ops.append(op_id[0])
            ends.append(0)
            stack.append(i)
            tracer.starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Patch every binding of the traced functions and methods."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        clothoid = importlib.import_module("clothofit.clothoid")
        # Every loaded clothofit module may hold a binding.  The fresnel
        # module is looked up by name: the package attribute
        # `clothofit.fresnel` is the function, not the module.
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "clothofit" or n.startswith("clothofit.")]
        # A function the package no longer has is skipped: its span name
        # is still registered, so its metrics read zero calls.
        try:
            for home, attr, name in TRACED_FUNCTIONS:
                self._name_id(name)
                original = getattr(importlib.import_module(home), attr, None)
                for module in modules if original is not None else ():
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            binding = "%s:%s" % (module.__name__, bound)
                            self._patch(module, bound, self._wrap(original, name, binding))
            for attr, name in TRACED_METHODS:
                self._name_id(name)
                original = getattr(clothoid.ClothoidCurve, attr, None)
                if original is not None:
                    binding = "clothofit.clothoid:ClothoidCurve.%s" % attr
                    self._patch(clothoid.ClothoidCurve, attr,
                                self._wrap(original, name, binding))
        except BaseException:
            self.restore()
            raise
        self._op_root = self._wrap(lambda fn, *args: fn(*args), OP, "perfbench:op")

    def restore(self):
        """Put every patched original back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as operation op_id under a root span."""
        self._op_id[0] = op_id
        return self._op_root(fn, *args)


def span_stats(spans, n_names):
    """Per span name: [calls, inclusive ns, self ns].

    Self time is a span's duration minus the time its child spans cover.
    Spans come from one thread and nest, so a span's children never
    overlap and their durations add up.
    """
    names, parents, _, starts, ends = spans
    n = len(names)
    child = [0] * n
    stats = [[0, 0, 0] for _ in range(n_names)]
    # children close, and so are recorded complete, before their parent;
    # but they are appended after it, so walk backwards
    for i in range(n - 1, -1, -1):
        dur = ends[i] - starts[i]
        p = parents[i]
        if p >= 0:
            child[p] += dur
        s = stats[names[i]]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child[i]
    return stats


def write_spans(path, spans, span_names):
    """Write spans as CSV: name,start_ns,end_ns,parent,op."""
    names, parents, ops, starts, ends = spans
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_ns,end_ns,parent,op\n")
        for i in range(len(names)):
            fh.write("%s,%d,%d,%d,%d\n"
                     % (span_names[names[i]], starts[i], ends[i], parents[i], ops[i]))
