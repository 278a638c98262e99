"""Per-layer tracing of the tpds package, built from outside the package.

The layers are the modules of ``tpds``. Installing a :class:`Tracer`
replaces every public function of each layer module with a timing wrapper,
in every ``tpds`` namespace that holds a reference to it (``tpds.s_minus``,
``tpds.integrate.s_minus`` and ``tpds.floquet.s_minus`` all get the same
wrapper). It also wraps the coefficient methods ``Segment.matrix_at``,
``TimeVaryingSystem.matrix_at``, ``NonlinearSystem.f`` and
``NonlinearSystem.jac``, the closures returned by ``exprlang.compile_fn``,
and the RK4 core ``integrate._rk4_span``, which is private but is the
integrator that ``nonlinear`` imports; without it integration would be
invisible on nonlinear runs.

Spans are kept in memory as a calling-context tree: calls with the same
name under the same parent record are merged into one record that holds a
call count, total time and self time (total minus the time covered by
child spans). Each verdict is the root of its own tree, so every span of a
verdict shares the verdict's root id. This keeps memory bounded while the
innermost layers (``exprlang`` closures, ``signvar``) are called millions of
times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from math import comb

import numpy as np

LAYERS = (
    "signvar",
    "totalpos",
    "compound",
    "exprlang",
    "systems",
    "integrate",
    "floquet",
    "nonlinear",
    "specfile",
    "matio",
    "cli",
)
METHODS = {
    "systems": (("Segment", "matrix_at"), ("TimeVaryingSystem", "matrix_at")),
    "nonlinear": (("NonlinearSystem", "f"), ("NonlinearSystem", "jac")),
}
PRIVATE = {"integrate": ("_rk4_span",)}

# record fields
PARENT, LAYER, NAME, COUNT, TOTAL, SELF = range(6)


class Tracer:
    """Timing wrappers around the tpds layers; active only while enabled."""

    def __init__(self):
        self.enabled = False
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.records = []  # [parent, layer, name, count, total_s, self_s]
        self._index = {}
        self._stack = []  # frames [record, child_time]
        self._depth = dict.fromkeys(LAYERS, 0)
        self.counters = Counter()
        self.errors = Counter()  # (layer, exception type) -> count
        self._root = None

    # -- spans ---------------------------------------------------------
    def _record(self, parent, layer, name):
        key = (parent, name)
        rec = self._index.get(key)
        if rec is None:
            rec = len(self.records)
            self.records.append([parent, layer, name, 0, 0.0, 0.0])
            self._index[key] = rec
        return rec

    def verdict(self, kind):
        """Start a new root record for one verdict; its id is the verdict's id."""
        self._root = len(self.records)
        self.records.append([None, "verdict", f"verdict.{kind}", 0, 0.0, 0.0])
        return self._root

    def _wrap(self, layer, name, fn, before=None, after=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                out = fn(*args, **kwargs)
                # closures compiled while disabled (during set-up) are wrapped too
                return out if after is None else after(tracer, out)
            stack = tracer._stack
            parent = stack[-1][0] if stack else tracer._root
            rec = tracer._record(parent, layer, name)
            if before is not None:
                before(tracer, args, kwargs)
            depth = tracer._depth
            frame = [rec, 0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                parent_layer = tracer.records[parent][LAYER] if parent is not None else None
                if parent_layer != layer:
                    tracer.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                dur = perf() - t0
                depth[layer] -= 1
                stack.pop()
                r = tracer.records[rec]
                r[COUNT] += 1
                r[TOTAL] += dur
                r[SELF] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                out = after(tracer, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------
    def install(self):
        """Patch the layers of the already imported ``tpds`` package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tpds.{layer}")
            names = [
                n
                for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            ]
            names += list(PRIVATE.get(layer, ()))
            for n in names:
                fn = getattr(mod, n)
                before, after = _HOOKS.get((layer, n), (None, None))
                wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{n}", fn, before, after))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                before, after = _HOOKS.get((layer, f"{cls_name}.{meth}"), (None, None))
                self._patch(cls, meth, self._wrap(layer, f"{layer}.{cls_name}.{meth}", fn, before, after))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tpds" or mod_name.startswith("tpds.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- summary -------------------------------------------------------
    def summary(self):
        """Per-layer metrics of everything recorded since the last reset."""
        recs = self.records
        out = {}
        calls = Counter()
        self_s = Counter()
        by_name = Counter()
        for parent, layer, name, count, _total, self_time in recs:
            if layer == "verdict":
                continue
            self_s[layer] += self_time
            by_name[name] += count
            parent_layer = recs[parent][LAYER] if parent is not None else None
            if parent_layer != layer:
                calls[layer] += count
        errors = Counter()
        for (layer, _), n in self.errors.items():
            errors[layer] += n
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = float(self_s[layer])
            out[f"{layer}.errors"] = errors[layer]
        c = self.counters
        minors = c["minors"]
        out["totalpos.minors"] = minors
        out["totalpos.useful_frac"] = c["useful_minors"] / minors if minors else 1.0
        out["compound.entries"] = c["compound_entries"]
        out["systems.A_evals"] = by_name["systems.Segment.matrix_at"]
        out["exprlang.compiles"] = by_name["exprlang.compile_fn"]
        out["exprlang.evals"] = by_name["exprlang.eval"]
        out["integrate.rhs_evals"] = c["rhs_evals"]
        out["nonlinear.f_evals"] = by_name["nonlinear.NonlinearSystem.f"]
        out["nonlinear.jac_evals"] = by_name["nonlinear.NonlinearSystem.jac"]
        out["nonlinear.poincare_iterates"] = sum(
            r[COUNT]
            for r in recs
            if r[NAME] == "integrate._rk4_span"
            and r[PARENT] is not None
            and recs[r[PARENT]][NAME] == "nonlinear.poincare_analysis"
        )
        return out

    def error_types(self):
        return {f"{layer}.errors.{etype}": n for (layer, etype), n in sorted(self.errors.items())}

    def spans(self):
        """The calling-context records as plain data, for writing out."""
        return [
            {"id": i, "parent": p, "layer": l, "name": n, "count": c, "total_s": t, "self_s": s}
            for i, (p, l, n, c, t, s) in enumerate(self.records)
        ]


# -- counters computed at layer boundaries --------------------------------
def _square_order(A):
    shape = np.shape(A)
    return shape[0] if len(shape) == 2 and shape[0] == shape[1] else None


def _before_classify(tracer, args, kwargs):
    # computed: classify enumerates sum_k C(n,k)^2 minors for square n <= 10
    n = _square_order(args[0] if args else kwargs.get("A"))
    if n is None or n > 10:
        return
    minors = sum(comb(n, k) ** 2 for k in range(1, n + 1))
    tracer.counters["minors"] += minors
    if tracer._depth["totalpos"] == 0 and tracer._depth["systems"] == 0:
        tracer.counters["useful_minors"] += minors


def _before_compound(tracer, args, kwargs):
    # computed: a p-th compound of an n x n matrix has C(n,p)^2 entries
    n = _square_order(args[0] if args else kwargs.get("A"))
    p = args[1] if len(args) > 1 else kwargs.get("p")
    if n is not None and isinstance(p, int) and 1 <= p <= n:
        tracer.counters["compound_entries"] += comb(n, p) ** 2


def _before_rhs(tracer, args, kwargs):
    if tracer._depth["integrate"]:
        tracer.counters["rhs_evals"] += 1


def _after_compile(tracer, closure):
    return tracer._wrap("exprlang", "exprlang.eval", closure)


_HOOKS = {
    ("totalpos", "classify"): (_before_classify, None),
    ("compound", "mult_compound"): (_before_compound, None),
    ("compound", "add_compound"): (_before_compound, None),
    ("systems", "Segment.matrix_at"): (_before_rhs, None),
    ("nonlinear", "NonlinearSystem.f"): (_before_rhs, None),
    ("exprlang", "compile_fn"): (None, _after_compile),
}
