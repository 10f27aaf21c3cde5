"""Runs one workload in a fresh interpreter and writes its measurements as JSON.

Started by run.py with the BLAS thread pools pinned and the checkout's src/
on PYTHONPATH.  One client, closed loop, no worker threads: each request is
sent when the previous one has returned.  A pass runs every request of the
workload once, in a fixed order; passes repeat while the next one is expected
to end within the time budget, and always at least once.
"""

from __future__ import annotations

import argparse
from array import array
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fpint  # noqa: E402

if not Path(fpint.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"fpint imported from {fpint.__file__}, not from this checkout's src/")

import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402


class Pass:
    def __init__(self) -> None:
        self.latencies = array("d")        # seconds per request (per item for the sweep)
        self.busy = 0.0                    # seconds inside requests
        self.outcomes: list = []
        self.attempted = 0
        self.failed = 0
        self.values = 0
        self.points = 0
        self.errors: dict[str, int] = {}


def _quantile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    def __init__(self, wl) -> None:
        self.wl = wl
        self.tracer = None
        self.check_errors: list[str] = []
        self.item_times: list[float] | None = None
        # outcomes of passes whose values differ from every kept pass; a pass
        # that repeats a kept one is dropped, so memory does not grow with passes
        self.kept: list[list] = []

    def time_verify_items(self) -> None:
        """Per-item latency of the sweep: time catalog.verify_item where cli
        looks it up.  Only perf_counter around each of the 57 calls."""
        from fpint import catalog
        original = catalog.verify_item
        self.item_times = []

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.item_times.append(perf_counter() - t0)

        catalog.verify_item = timed

    def one(self, req):
        t0 = perf_counter()
        try:
            if self.tracer is not None and self.tracer.active:
                out = self.tracer.request_span(self.wl.run, req)
            else:
                out = self.wl.run(req)
        except Exception as exc:       # any failure of the program is a failed request
            out = wls.Outcome(False, error=f"{type(exc).__name__}: {exc}")
        return out, perf_counter() - t0

    def run_pass(self) -> Pass:
        p = Pass()
        for req in self.wl.requests:
            if self.item_times is not None:
                self.item_times.clear()
            out, dt = self.one(req)
            p.busy += dt
            p.latencies.extend(self.item_times if self.item_times else [dt])
            try:
                self.wl.collect(req, out)
            except wls.CheckFailure as exc:
                self.check_errors.append(str(exc))
            attempted, failed = self.wl.tally(req, out)
            p.attempted += attempted
            p.failed += failed
            p.values += self.wl.values_returned(out)
            p.points += self.wl.points(req, out)
            if not out.ok:
                kind = out.error.split(":")[0]
                p.errors[kind] = p.errors.get(kind, 0) + 1
            p.outcomes.append(out)
        values = [o.values for o in p.outcomes]
        if all(values != [o.values for o in k] for k in self.kept):
            self.kept.append(p.outcomes)
        p.outcomes = []
        return p

    def passes(self, seconds: float, before=None, after=None) -> list[Pass]:
        done: list[Pass] = []
        start = perf_counter()
        while True:
            if before is not None:
                before()
            done.append(self.run_pass())
            if after is not None:
                after(done[-1])
            typical = statistics.median(q.busy for q in done)
            if perf_counter() - start + typical > seconds:
                return done

    def check(self) -> dict:
        checked, worst, unchecked = 0, 0.0, 0
        try:
            checked, worst, unchecked = self.wl.check([o for k in self.kept for o in k])
        except wls.CheckFailure as exc:
            self.check_errors.append(str(exc))
        return {"values_checked": checked, "worst_deviation_over_tol": worst,
                "values_without_reference": unchecked}


def _tally(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) over the distinct operations of the run.  Every
    pass sends the same inputs, so an operation repeated for timing is not a
    new one: the counts are those of the pass with the most failures, and do
    not depend on how many passes the time budget allowed."""
    worst = max(passes, key=lambda p: p.failed)
    return worst.attempted, worst.failed


def _e2e_metrics(passes: list[Pass], rss_mb: float) -> dict:
    lat = [x for p in passes for x in p.latencies]
    busy = sum(p.busy for p in passes)
    attempted, failed = _tally(passes)
    return {
        "latency_p50_ms": (_quantile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(lat, 0.9) * 1e3, "ms"),
        "evals_per_s": (sum(p.values for p in passes) / busy, "1/s"),
        "sweep_s": (statistics.median(p.busy for p in passes), "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _traced(runner: Runner, args, info: dict) -> tuple[dict, list[Pass]]:
    """Untraced and traced passes, alternating, so that drift in machine speed
    falls on both.  The wrappers stay installed and are switched off in the
    untraced passes.  Counts repeat from pass to pass and come from the last
    traced pass; times are the median over traced passes."""
    tracer = tr.Tracer()
    tr.install(tracer)
    runner.tracer = tracer
    per_pass: list[dict] = []
    checks: dict[str, bool] = {}
    untraced: list[Pass] = []
    traced: list[Pass] = []

    def before():
        tracer.active = len(traced) < len(untraced)
        if tracer.active:
            tracer.reset_counters()

    def after(p):
        if not tracer.active:
            untraced.append(p)
            return
        tracer.active = False
        traced.append(p)
        layer = tr.layer_metrics(tracer, p.points)
        per_pass.append(layer)
        for name, ok in tr.consistency(tracer, layer).items():
            checks[name] = checks.get(name, True) and ok

    passes = runner.passes(args.seconds, before=before, after=after)
    if not traced:                      # the budget allowed one pass only
        before()
        after(runner.run_pass())
        passes = untraced + traced
    metrics = {}
    for name, (value, unit) in per_pass[-1].items():
        if unit == "ms":
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    ratio = (statistics.median(p.busy for p in traced)
             / statistics.median(p.busy for p in untraced))
    metrics["trace.overhead_pct"] = ((ratio - 1.0) * 100.0, "%")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    for name, ok in checks.items():
        if not ok:
            runner.check_errors.append(f"counter consistency check failed: {name}")
    spans_path = os.path.join(args.out_dir, f"spans_{args.workload}_{args.seed}.tsv.gz")
    tracer.write_spans(spans_path)
    info.update(consistency=checks, traced_passes=len(traced),
                untraced_passes=len(untraced),
                spans_file=os.path.relpath(spans_path, ROOT))
    return metrics, passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wls.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    wl = wls.make(args.workload, args.seed, args.out_dir)
    runner = Runner(wl)
    for req in wl.warmup():
        runner.one(req)
    if args.workload == "catalog_sweep" and not args.trace:
        runner.time_verify_items()

    info: dict = {"workload": args.workload, "seed": args.seed,
                  "requests_per_pass": len(wl.requests)}
    if not args.trace:
        passes = runner.passes(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _e2e_metrics(passes, rss_mb)
        all_passes = passes
    else:
        metrics, all_passes = _traced(runner, args, info)

    info.update(runner.check())
    info["distinct_passes"] = len(runner.kept)
    info["passes"] = len(all_passes)
    info["pass_seconds"] = [round(p.busy, 4) for p in all_passes]
    errors: dict[str, int] = {}
    for p in all_passes:
        for k, v in p.errors.items():
            errors[k] = errors.get(k, 0) + v
    info["failures_by_type"] = errors
    info["check_errors"] = runner.check_errors[:5]
    info["failed_per_pass"] = sorted({p.failed for p in all_passes})
    attempted, failed = _tally(all_passes)
    result = {
        "correct": not runner.check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
