"""Per-layer spans for fpint, recorded from outside the package.

Every wrapper is installed at the binding its callers resolve at call time:
the defining module plus every fpint module (and the package itself) that
imported the same function object by name.  Methods are patched on the
class; fp_hook and coeff_fn are wrapped per instance when an
AnalyticFunction is constructed.  Spans are kept in memory as tuples
(id, name, start, end, parent id, request id, self seconds) and written out
when the run ends.  Self time is a span's duration minus the durations of
its children, which in one thread are nested and do not overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# quadrature rule of adaptive_quad: a 21-point and a 43-point evaluation per panel
POINTS_PER_PANEL = 64
# self times of one request must add up to its duration within this many seconds
SELF_SUM_TOL_S = 1e-6

SPECFUN_ARRAY = ("bessel_j0", "airy_ai", "airy_ai_prime")
FINITEPART_FUNCS = ("resolve_fp", "fp_series_finite", "fp_infinite", "fp_epsilon_oracle")
TAIL_KINDS = {"exponential": "exp", "superexponential": "superexp",
              "algebraic": "alg", "oscillatory_algebraic": "osc"}
ROUTES = ("closed_form", "series", "split_tail", "errors")


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Span stack plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []     # [id, name, start, child seconds]
        self._next_id = 0
        self._depth: Counter = Counter()
        self.request = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outer_calls: Counter = Counter()             # spans with no ancestor
        self.outer_s: defaultdict = defaultdict(float)    # of the same name
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.self_sum_gap_max = 0.0
        self._req_self = 0.0

    def reset_counters(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.outer_calls.clear()
        self.outer_s.clear()
        self.counts.clear()
        self.maxima.clear()
        self.self_sum_gap_max = 0.0

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        own = dur - child
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, name, start, end, parent, self.request, own))
        self.calls[name] += 1
        self.self_s[name] += own
        if self._depth[name] == 1:
            self.outer_calls[name] += 1
            self.outer_s[name] += dur
        self._depth[name] -= 1
        self._req_self += own
        return dur

    def request_span(self, fn, *args):
        """Run one request as a root span; checks that its self times add up."""
        self.request += 1
        self._req_self = 0.0
        frame = self._enter("request")
        try:
            return fn(*args)
        finally:
            dur = self._exit(frame)
            self.self_sum_gap_max = max(self.self_sum_gap_max, abs(self._req_self - dur))

    def wrap(self, name: str, fn, before=None, after=None, on_error=None):
        """Wrap fn in a span.  before(args) may return replaced positional
        arguments; after(args, result) and on_error(exc) record counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if on_error is not None and isinstance(exc, Exception):
                    on_error(exc)
                raise
            tracer._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\trequest\tself_s\n")
            for sid, name, start, end, parent, req, own in self.spans:
                out.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{req}\t{own:.9f}\n")


def _rebind(fpint_modules, original, wrapper) -> None:
    for mod in fpint_modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap fpint's layer boundaries.  Call before any builtin() is built,
    because builtins bind specfun functions when they are constructed."""
    import fpint
    from fpint import catalog, cli, finitepart, funcmodel, hilbert, pvoracle, specfun

    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "fpint" or name.startswith("fpint."))]
    c = tracer.counts

    def patch(module, attr, name, **hooks):
        original = getattr(module, attr, None)
        if original is None:          # a later version may have removed it
            return
        _rebind(mods, original, tracer.wrap(name, original, **hooks))

    def public_functions(module):
        return [n for n, v in vars(module).items()
                if inspect.isfunction(v) and v.__module__ == module.__name__
                and not n.startswith("_")]

    # hilbert
    def et_after(args, rep):
        c["hilbert.evaluate_transform.series_terms"] += int(rep.terms_used)

    def et_error(exc):
        if isinstance(exc, fpint.FpintError):
            c["hilbert.evaluate_transform.refusals"] += 1

    patch(hilbert, "evaluate_transform", "hilbert.evaluate_transform",
          after=et_after, on_error=et_error)

    # finitepart
    def fp_after(args, fpv):
        c[f"finitepart.resolve_fp.{fpv.route}"] += 1
        c["finitepart.resolve_fp.terms"] += int(fpv.terms_used)
        key = "finitepart.resolve_fp.cancellation_max"
        tracer.maxima[key] = max(tracer.maxima[key], float(fpv.cancellation))

    def fp_error(exc):
        c["finitepart.resolve_fp.errors"] += 1

    for attr in FINITEPART_FUNCS:
        hooks = {"after": fp_after, "on_error": fp_error} if attr == "resolve_fp" else {}
        patch(finitepart, attr, f"finitepart.{attr}", **hooks)

    # pvoracle: adaptive_quad counts the calls and points of its integrand
    def aq_before(args):
        f = args[0]

        def integrand(x):
            c["pvoracle.adaptive_quad.integrand_calls"] += 1
            c["pvoracle.adaptive_quad.points"] += _size(x)
            return f(x)

        return (integrand,) + args[1:]

    def tail_before(args):
        kind = TAIL_KINDS.get(getattr(args[2], "kind", None), "other")
        c[f"pvoracle.tail_integral.{kind}"] += 1
        return args

    for attr in public_functions(pvoracle):
        hooks = {}
        if attr == "adaptive_quad":
            hooks = {"before": aq_before}
        elif attr == "tail_integral":
            hooks = {"before": tail_before}
        patch(pvoracle, attr, f"pvoracle.{attr}", **hooks)

    # specfun
    def points_before(name):
        def before(args):
            c[f"specfun.{name}.points"] += _size(args[0])
            return args
        return before

    for attr in public_functions(specfun):
        if attr in SPECFUN_ARRAY:
            patch(specfun, attr, f"specfun.{attr}", before=points_before(attr))
        elif attr == "hyper_pfq":
            patch(specfun, attr, "specfun.hyper_pfq")
        else:
            patch(specfun, attr, f"specfun.scalar.{attr}")

    # funcmodel: evaluate on the class; hook and coefficient stream per instance
    cls = funcmodel.AnalyticFunction

    def ev_before(args):
        c["funcmodel.evaluate.points"] += _size(args[1])
        return args

    cls.evaluate = tracer.wrap("funcmodel.evaluate", cls.evaluate, before=ev_before)

    # nested hooks (factor_zero and scaled call their parent's) count once
    def hook_after(args, result):
        if tracer._depth["dtable.hook"] == 0:
            c["dtable.hook.declined" if result is None else "dtable.hook.hits"] += 1

    def hook_error(exc):
        if tracer._depth["dtable.hook"] == 0:
            c["dtable.hook.errors"] += 1

    init = cls.__init__
    names = list(inspect.signature(init).parameters)[1:]      # without self

    def wrap_arg(args: list, kwargs: dict, name: str, make) -> None:
        i = names.index(name)
        if i < len(args):
            if args[i] is not None:
                args[i] = make(args[i])
        elif kwargs.get(name) is not None:
            kwargs[name] = make(kwargs[name])

    def count_coeffs(coeff_fn):
        def counted(n):
            if tracer.active:
                c["funcmodel.maclaurin.coeffs"] += 1
            return coeff_fn(n)
        return counted

    def wrap_hook(hook):
        return tracer.wrap("dtable.hook", hook, after=hook_after, on_error=hook_error)

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        args = list(args)
        wrap_arg(args, kwargs, "coeff_fn", count_coeffs)
        wrap_arg(args, kwargs, "fp_hook", wrap_hook)
        init(self, *args, **kwargs)

    cls.__init__ = traced_init

    patch(catalog, "verify_item", "catalog.verify_item")

    def main_after(args, rc):
        argv = list(args[0]) if args and args[0] is not None else []
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                c["cli.main.output_bytes"] += os.path.getsize(path)

    patch(cli, "main", "cli.main", after=main_after)


def layer_metrics(tracer: Tracer, points: int) -> dict:
    """Per-layer metrics of the traced passes, named as in BENCHMARK.json."""
    calls, own, outer, c = tracer.calls, tracer.self_s, tracer.outer_s, tracer.counts
    ms = 1e3
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def group_self(prefix):
        return sum(v for k, v in own.items() if k == prefix or k.startswith(prefix + "."))

    put("hilbert.evaluate_transform.calls", calls["hilbert.evaluate_transform"], "count")
    put("hilbert.evaluate_transform.self_ms", own["hilbert.evaluate_transform"] * ms, "ms")
    put("hilbert.evaluate_transform.series_terms",
        c["hilbert.evaluate_transform.series_terms"], "count")
    put("hilbert.evaluate_transform.refusals", c["hilbert.evaluate_transform.refusals"], "count")

    put("dtable.hook.calls", tracer.outer_calls["dtable.hook"], "count")
    put("dtable.hook.declined", c["dtable.hook.declined"], "count")
    put("dtable.hook.ms", outer["dtable.hook"] * ms, "ms")

    put("finitepart.resolve_fp.calls", calls["finitepart.resolve_fp"], "count")
    for route in ROUTES:
        put(f"finitepart.resolve_fp.{route}", c[f"finitepart.resolve_fp.{route}"], "count")
    put("finitepart.resolve_fp.terms", c["finitepart.resolve_fp.terms"], "count")
    put("finitepart.resolve_fp.cancellation_max",
        tracer.maxima["finitepart.resolve_fp.cancellation_max"], "ratio")
    put("finitepart.resolve_fp.self_ms", own["finitepart.resolve_fp"] * ms, "ms")
    for attr in ("fp_infinite", "fp_epsilon_oracle"):
        put(f"finitepart.{attr}.calls", calls[f"finitepart.{attr}"], "count")
        put(f"finitepart.{attr}.self_ms", own[f"finitepart.{attr}"] * ms, "ms")

    put("pvoracle.adaptive_quad.calls", calls["pvoracle.adaptive_quad"], "count")
    put("pvoracle.adaptive_quad.panels", c["pvoracle.adaptive_quad.integrand_calls"] / 2, "count")
    put("pvoracle.adaptive_quad.points", c["pvoracle.adaptive_quad.points"], "count")
    put("pvoracle.adaptive_quad.self_ms", own["pvoracle.adaptive_quad"] * ms, "ms")
    put("pvoracle.tail_integral.calls", calls["pvoracle.tail_integral"], "count")
    for kind in TAIL_KINDS.values():
        put(f"pvoracle.tail_integral.{kind}", c[f"pvoracle.tail_integral.{kind}"], "count")
    put("pvoracle.tail_integral.self_ms", own["pvoracle.tail_integral"] * ms, "ms")
    for attr in ("pv_transform", "regular_integral"):
        put(f"pvoracle.{attr}.calls", calls[f"pvoracle.{attr}"], "count")
        put(f"pvoracle.{attr}.self_ms", own[f"pvoracle.{attr}"] * ms, "ms")

    for attr in SPECFUN_ARRAY:
        put(f"specfun.{attr}.calls", calls[f"specfun.{attr}"], "count")
        put(f"specfun.{attr}.points", c[f"specfun.{attr}.points"], "count")
        put(f"specfun.{attr}.ms", own[f"specfun.{attr}"] * ms, "ms")
    put("specfun.hyper_pfq.calls", calls["specfun.hyper_pfq"], "count")
    put("specfun.hyper_pfq.ms", own["specfun.hyper_pfq"] * ms, "ms")
    put("specfun.scalar.ms", group_self("specfun.scalar") * ms, "ms")

    put("funcmodel.evaluate.calls", calls["funcmodel.evaluate"], "count")
    put("funcmodel.evaluate.points", c["funcmodel.evaluate.points"], "count")
    put("funcmodel.evaluate.self_ms", own["funcmodel.evaluate"] * ms, "ms")
    put("funcmodel.maclaurin.coeffs", c["funcmodel.maclaurin.coeffs"], "count")

    put("catalog.verify_item.calls", calls["catalog.verify_item"], "count")
    put("catalog.verify_item.self_ms", own["catalog.verify_item"] * ms, "ms")
    put("cli.main.calls", calls["cli.main"], "count")
    put("cli.main.self_ms", own["cli.main"] * ms, "ms")
    put("cli.main.output_bytes", c["cli.main.output_bytes"], "bytes")

    per = max(points, 1)
    put("per_point.evaluate_transform.calls", calls["hilbert.evaluate_transform"] / per, "count")
    put("per_point.resolve_fp.calls", calls["finitepart.resolve_fp"] / per, "count")
    put("per_point.regular_integral.calls", calls["pvoracle.regular_integral"] / per, "count")
    return out


def consistency(tracer: Tracer, metrics: dict) -> dict[str, bool]:
    """The counter identities the traced run must satisfy."""
    m = {k: v for k, (v, _) in metrics.items()}
    calls = tracer.counts["pvoracle.adaptive_quad.integrand_calls"]
    routes = sum(m[f"finitepart.resolve_fp.{r}"] for r in ROUTES)
    hook = tracer.counts
    return {
        "adaptive_points_are_64_per_panel":
            calls % 2 == 0 and m["pvoracle.adaptive_quad.points"]
            == POINTS_PER_PANEL * m["pvoracle.adaptive_quad.panels"],
        "resolve_fp_routes_sum_to_calls": routes == m["finitepart.resolve_fp.calls"],
        "hook_hits_plus_declines_are_calls":
            hook["dtable.hook.hits"] + hook["dtable.hook.declined"] + hook["dtable.hook.errors"]
            == m["dtable.hook.calls"],
        "request_self_times_sum_to_duration":
            math.isfinite(tracer.self_sum_gap_max)
            and tracer.self_sum_gap_max <= SELF_SUM_TOL_S,
    }
