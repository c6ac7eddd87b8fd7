"""Outside-in tracing of the hopfgal package for the benchmark's traced run.

The tracer replaces functions of the package with wrappers, from outside:
every module-level name (and class attribute) bound to a wrapped function is
rebound, so `from .x import f` copies are covered as well as `x.f` lookups.
Nothing in the package is edited and `uninstall` restores every binding.

Two kinds of wrapper:
  span   name, start, end, parent span and job id, kept in memory; per name
         the tracer sums calls, total time (outermost activation only, so a
         recursive call is not counted twice), self time (total minus child
         spans) and calls that raised.
  count  a call counter only, for element-level operations that run millions
         of times per job, where a span per call would cost more memory and
         time than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("abelian", "nilring", "holomorph", "correspondence", "cli")

# Element-level operations: counted, never spanned.
COUNTED = {
    "abelian": ("GroupSpec.check_elem", "add", "neg", "sub", "scalar_mul",
                "order_of", "is_prime"),
    "nilring": ("mul", "circle", "circle_inverse"),
    "holomorph": ("compose", "inverse", "tau", "is_invertible", "translation",
                  "identity_map", "affine_map", "is_fixed_point_free",
                  "AffineMap.apply", "AffineMap.linear_apply",
                  "AffineMap.is_translation"),
    "correspondence": ("perm_compose", "perm_inverse", "conjugated_translation",
                       "Context.circle_translation_perm",
                       "Context.additive_translation_perm"),
    "cli": (),
}

# Spanned callables besides the public module-level functions.  In `cli` only
# the entry point is a span: the cmd_* handlers it dispatches to are part of
# the same layer, so `cli.main.self_s` covers parsing, structure resolution
# and output.
EXTRA_SPANS = {"correspondence": ("Context",)}
CLI_SPANS = ("main",)

# Outcome predicates: a call whose result satisfies it counts as `ok`.
OUTCOMES = {
    "nilring.validate": lambda result: not result,
    "holomorph.closure_under_composition": lambda result: result is not None,
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "raised", "ok", "active")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.ok = 0
        self.active = 0


class Tracer:
    """Spans and counters for one process; install, run jobs, uninstall."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.stats = {}
        self.counts = {}
        self.spans = []  # [name, start, end, parent, job]
        self.stack = []  # [span_id, start, child_time] of open spans
        self.job = None
        self._undo = []

    # -- targets ---------------------------------------------------------

    def _targets(self):
        """(layer, name, owner, attribute, kind) for each wrapped callable."""
        out = []
        for layer, mod in self.modules.items():
            counted = set(COUNTED[layer])
            if layer == "cli":
                names = list(CLI_SPANS)
            else:
                names = sorted(
                    n for n, obj in vars(mod).items()
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not n.startswith("_")
                )
            for n in names:
                out.append((layer, n, mod, n, "count" if n in counted else "span"))
            for qual in counted:
                if "." in qual:  # a method, named without its class
                    cls_name, attr = qual.split(".")
                    out.append((layer, attr, getattr(mod, cls_name), attr, "count"))
            for cls_name in EXTRA_SPANS.get(layer, ()):
                out.append((layer, cls_name, getattr(mod, cls_name), "__init__", "span"))
        return out

    def install(self):
        modules = [self.package] + list(self.modules.values())
        for layer, short, owner, attr, kind in self._targets():
            name = f"{layer}.{short}"
            original = owner.__dict__[attr]
            wrapper = (self._span_wrapper if kind == "span" else self._count_wrapper)(name, original)
            if inspect.isclass(owner):
                self._rebind(owner, attr, original, wrapper)
                continue
            # rebind every module-level name bound to the same function object
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, binding, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- wrappers --------------------------------------------------------

    def _count_wrapper(self, name, fn):
        counter = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        outcome = OUTCOMES.get(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [span_id, 0.0, 0.0]
            stack.append(frame)
            stat.calls += 1
            stat.active += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            else:
                if outcome is not None and outcome(result):
                    stat.ok += 1
                return result
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                duration = end - frame[1]
                stat.self_s += duration - frame[2]
                if stat.active == 0:
                    stat.total_s += duration
                if stack:
                    stack[-1][2] += duration
                spans[span_id] = (name, frame[1], end, parent, self.job)

        return spanned

    # -- results ---------------------------------------------------------

    def root_span_seconds(self, job):
        """Time covered by the job's outermost spans."""
        return sum(s[2] - s[1] for s in self.spans if s[4] == job and s[3] == -1)

    def summary(self):
        """Per-callable calls/total_s/self_s/raised/ok, counts-only included."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[name] = {"calls": st.calls, "total_s": st.total_s,
                         "self_s": st.self_s, "raised": st.raised, "ok": st.ok}
        for name, (calls,) in sorted(self.counts.items()):
            out[name] = {"calls": calls}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{job}\n")
