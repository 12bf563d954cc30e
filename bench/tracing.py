"""Outside-in tracing of the drinfeldforms layers.

Wrappers are installed from the benchmark's own files around the public
functions and methods of each module, and removed again afterwards;
``src/`` carries no hooks.  Every reference to a wrapped function is
replaced: module attributes in every ``drinfeldforms`` module (so names
imported with ``from .carlitz import monic_series_sum`` are covered), the
class attributes of aliased methods (``__radd__ = __add__``) and the
builder table ``forms._BUILDERS`` that the form cache calls.

Element-level calls in ``fieldpoly`` run into the millions per op, so
they are aggregated into counts and self time only.  Calls at the
``useries`` level and above also record a span (name, start, end,
parent span, op id), kept in memory and written out when the run ends.
A call's self time is its duration minus the time of the wrapped calls
it made.
"""

from __future__ import annotations

import functools
import sys
import time

perf = time.perf_counter

PACKAGE = "drinfeldforms"

# (metric prefix, module, class or None, attributes, mode)
#   mode "count": calls only; "agg": calls and self time; "span": calls,
#   self time and one span per call.  A prefix may span several entries.
TARGETS = (
    ("fieldpoly.Poly.new", "fieldpoly", "Poly", ("__init__",), "count"),
    ("fieldpoly.Poly.mul", "fieldpoly", "Poly", ("__mul__", "__rmul__"),
     "agg"),
    ("fieldpoly.Poly.add", "fieldpoly", "Poly",
     ("__add__", "__radd__", "__sub__"), "agg"),
    # field multiplications: element objects, and the coordinate products
    # that polynomial division over F_(p^r), r > 1, runs on directly
    ("fieldpoly.FqElem.mul", "fieldpoly", "FqElem", ("__mul__", "__rmul__"),
     "count"),
    ("fieldpoly.FqElem.mul", "fieldpoly", "FieldCtx", ("_mul_coords",),
     "count"),
    ("fieldpoly.Poly.divmod", "fieldpoly", "Poly", ("__divmod__",), "agg"),
    ("fieldpoly.Poly.gcd", "fieldpoly", "Poly", ("gcd",), "agg"),
    ("fieldpoly.RatFunc.mul", "fieldpoly", "RatFunc", ("__mul__", "__rmul__"),
     "agg"),
    ("fieldpoly.RatFunc.add", "fieldpoly", "RatFunc",
     ("__add__", "__radd__", "__sub__"), "agg"),
    ("fieldpoly.Matrix.rref", "fieldpoly", "Matrix", ("rref",), "span"),
    ("fieldpoly.left_kernel", "fieldpoly", None, ("left_kernel",), "span"),
    ("fieldpoly.make_field", "fieldpoly", None, ("make_field",), "span"),
    ("useries.mul", "useries", "USeries", ("__mul__",), "span"),
    ("useries.pow", "useries", "USeries", ("__pow__",), "span"),
    ("useries.add", "useries", "USeries", ("__add__",), "span"),
    ("useries.inverse", "useries", "USeries", ("inverse",), "span"),
    ("useries.substitute_Tz", "useries", "USeries", ("substitute_Tz",),
     "span"),
    ("carlitz.monic_series_sum", "carlitz", None, ("monic_series_sum",),
     "span"),
    ("carlitz.u_sub_a", "carlitz", None, ("u_sub_a",), "span"),
    ("carlitz.carlitz_map", "carlitz", None, ("carlitz_map",), "span"),
    ("forms.build.E", "forms", None, ("build_E",), "span"),
    ("forms.build.E_T", "forms", None, ("build_ET",), "span"),
    ("forms.build.g1", "forms", None, ("build_g1",), "span"),
    ("forms.build.Delta_T", "forms", None, ("build_DeltaT",), "span"),
    ("forms.build.Delta_W", "forms", None, ("build_DeltaW",), "span"),
    ("forms.build.h", "forms", None, ("build_h",), "span"),
    ("forms.expand", "forms", None, ("expand",), "span"),
    ("forms.FormExpr.parse", "forms", "FormExpr", ("parse",), "span"),
    ("congruence.check_congruence", "congruence", None,
     ("check_congruence",), "span"),
    ("congruence.build_residue_form", "congruence", None,
     ("build_residue_form",), "span"),
    ("relations.relation_report", "relations", None, ("relation_report",),
     "span"),
    ("relations.phi", "relations", None, ("phi",), "span"),
    ("relations.kernel_oracle", "relations", None, ("kernel_oracle",),
     "span"),
    ("relations.spans_equal", "relations", None, ("spans_equal",), "span"),
    ("cli.main", "cli", None, ("main",), "span"),
)

# cache lookups: a call is a hit when it triggered no generator build
CACHE_FUNCS = ("get_form", "get_form_power")

# extra per-call counts, (metric suffix, unit)
EXTRAS = {
    "useries.mul": (("terms_in", "terms/op"), ("coeffs_out", "coeffs/op")),
    "useries.inverse": (("coeffs_out", "coeffs/op"),),
}

RATIOS = (
    ("forms.build.useful_ratio", "higher"),
    ("forms.cache.hit_ratio", "higher"),
    ("trace.overhead_ratio", "lower"),
)


def _prefixes():
    return {prefix: mode for prefix, _, _, _, mode in TARGETS}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix, mode in _prefixes().items():
        out.append((f"{prefix}.calls", "calls/op", "lower"))
        if mode != "count":
            out.append((f"{prefix}.self_s", "s/op", "lower"))
        for suffix, unit in EXTRAS.get(prefix, ()):
            out.append((f"{prefix}.{suffix}", unit, "lower"))
    out += [(name, "ratio", better) for name, better in RATIOS]
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "terms_in", "coeffs_out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.terms_in = 0
        self.coeffs_out = 0


def _series_len(x):
    coeffs = getattr(x, "coeffs", None)
    return len(coeffs) if isinstance(coeffs, dict) else 1


def _mul_extra(st, args, out):
    st.terms_in += _series_len(args[0]) * _series_len(args[1])
    st.coeffs_out += _series_len(out)


def _inverse_extra(st, args, out):
    st.coeffs_out += _series_len(out)


_EXTRA_FNS = {"useries.mul": _mul_extra, "useries.inverse": _inverse_extra}


class Tracer:
    """Counters, self times and spans for one traced phase."""

    def __init__(self):
        self.stats = {prefix: _Stat() for prefix in _prefixes()}
        self.frames = [0.0]      # time spent in wrapped children, per frame
        self.open_spans = [-1]   # innermost open span index
        self.spans = []
        self.op_id = -1
        self.ops = 0
        self.builder_calls = 0
        self.distinct_builds = 0
        self.cache_calls = 0
        self.cache_hits = 0
        self._op_built = set()
        self._restore = []

    # -- ops --------------------------------------------------------------
    def begin_op(self, op_id, kind):
        self.op_id = op_id
        self._op_name = f"op.{kind}"
        self._op_built = set()
        self._op_span = len(self.spans)
        self.spans.append(None)
        self.open_spans.append(self._op_span)
        self._op_t0 = perf()

    def end_op(self):
        t1 = perf()
        self.open_spans.pop()
        self.spans[self._op_span] = (self._op_name, self._op_t0, t1, -1,
                                     self.op_id)
        self.distinct_builds += len(self._op_built)
        self.ops += 1

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn, prefix, mode):
        st = self.stats[prefix]
        if mode == "count":
            def counted(*a, **k):
                st.calls += 1
                return fn(*a, **k)
            return functools.wraps(fn)(counted)
        frames = self.frames
        if mode == "agg":
            def timed(*a, **k):
                frames.append(0.0)
                t0 = perf()
                try:
                    return fn(*a, **k)
                finally:
                    dt = perf() - t0
                    st.calls += 1
                    st.self_s += dt - frames.pop()
                    frames[-1] += dt
            return functools.wraps(fn)(timed)
        spans = self.spans
        open_spans = self.open_spans
        extra = _EXTRA_FNS.get(prefix)
        build = prefix[len("forms.build."):] \
            if prefix.startswith("forms.build.") else None
        tracer = self

        def spanned(*a, **k):
            if build is not None:
                tracer.builder_calls += 1
                tracer._op_built.add(build)
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(idx)
            frames.append(0.0)
            t0 = perf()
            try:
                out = fn(*a, **k)
            finally:
                t1 = perf()
                dt = t1 - t0
                st.calls += 1
                st.self_s += dt - frames.pop()
                frames[-1] += dt
                open_spans.pop()
                spans[idx] = (prefix, t0, t1, parent, tracer.op_id)
            if extra is not None:
                extra(st, a, out)
            return out
        return functools.wraps(fn)(spanned)

    def _wrap_cache(self, fn):
        tracer = self

        def lookup(*a, **k):
            before = tracer.builder_calls
            out = fn(*a, **k)
            tracer.cache_calls += 1
            tracer.cache_hits += tracer.builder_calls == before
            return out
        return functools.wraps(fn)(lookup)

    # -- install / remove ---------------------------------------------------
    def install(self):
        mods = {name[len(PACKAGE) + 1:]: mod
                for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replace = {}   # id(original function) -> (original, wrapper)
        for prefix, modname, clsname, attrs, mode in TARGETS:
            owner = mods[modname]
            if clsname is not None:
                owner = getattr(owner, clsname)
            for attr in attrs:
                raw = owner.__dict__[attr]
                if id(raw) in replace:
                    wrapped = replace[id(raw)][1]
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, prefix,
                                                     mode))
                else:
                    wrapped = self._wrap(raw, prefix, mode)
                replace[id(raw)] = (raw, wrapped)
                if clsname is not None:
                    self._set(owner, attr, wrapped)
        for name in CACHE_FUNCS:
            raw = getattr(mods["forms"], name)
            replace[id(raw)] = (raw, self._wrap_cache(raw))
        # every module-level reference, including names imported elsewhere
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        builders = mods["forms"]._BUILDERS
        for name, fn in list(builders.items()):
            hit = replace.get(id(fn))
            if hit is not None and hit[0] is fn:
                self._restore.append((builders, name, fn, True))
                builders[name] = hit[1]

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, value)

    def remove(self):
        for owner, key, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------
    def metrics(self, overhead_ratio):
        """Per-layer metrics, normalized per op."""
        n = max(self.ops, 1)
        out = {}
        for prefix, mode in _prefixes().items():
            st = self.stats[prefix]
            out[f"{prefix}.calls"] = st.calls / n
            if mode != "count":
                out[f"{prefix}.self_s"] = st.self_s / n
            for suffix, _ in EXTRAS.get(prefix, ()):
                out[f"{prefix}.{suffix}"] = getattr(st, suffix) / n
        out["forms.build.useful_ratio"] = (
            self.distinct_builds / self.builder_calls
            if self.builder_calls else 1.0)
        out["forms.cache.hit_ratio"] = (
            self.cache_hits / self.cache_calls if self.cache_calls else 1.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def span_records(self):
        return [s for s in self.spans if s is not None]
