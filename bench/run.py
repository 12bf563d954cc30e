"""Benchmark harness for drinfeldforms.

    python3 bench/run.py --workload deep-q3 --seed 1 --seconds 40 --trace 0

Runs one workload single-process from the ``src/`` tree of the checkout
this file sits in.  With ``--trace 0`` it measures for ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it installs the
wrappers of ``tracing.py``, runs a fixed number of rounds, replays the
same ops untraced to measure the tracing overhead, and reports the
per-layer metrics.  Every op's exact verdict is checked, and a case that
repeats within a run must give byte-identical output.  Human-readable
lines come first; the last line of stdout is one JSON object.

Workloads, cache rules and baselines are described in
``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("deep-q3", "sweep-q5", "cli-mix")

# set-up is measured this many times per run, each extra sample in a
# fresh interpreter so that the import is paid again
SETUP_SAMPLES = 3
TAIL_LADDER = (99, 95, 90, 75, 50)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: one or two rounds at low precision, for "
                         "the benchmark's self-check")
    ap.add_argument("--probe-setup", action="store_true",
                    help="only time the set-up and print it")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup(workload, seed, tiny):
    """Import the package from this checkout, build the workload's fields
    and draw its cases; returns (package, workloads module, plan, s)."""
    t0 = perf()
    init = os.path.join(SRC, "drinfeldforms", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a checkout "
                         "that holds src/drinfeldforms")
    sys.path.insert(0, SRC)
    import drinfeldforms
    if os.path.abspath(drinfeldforms.__file__) != init:
        raise SystemExit(f"error: imported {drinfeldforms.__file__}, "
                         f"expected {init}")
    import workloads
    plan = workloads.make_plan(workload, seed, tiny)
    return drinfeldforms, workloads, plan, perf() - t0


def probe_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def render(payload):
    if hasattr(payload, "json_dict"):
        payload = payload.json_dict()
    return json.dumps(payload, sort_keys=True)


class Runner:
    """Runs ops, times them and applies the correctness gate."""

    def __init__(self, package, clear_per_op):
        self.D = package
        self.clear_per_op = clear_per_op
        self.seen = {}        # case key -> digest of its first output
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def clear(self):
        self.D.clear_form_cache()

    def run(self, op, tracer=None, op_id=0):
        """Run one op; returns its latency in seconds."""
        if self.clear_per_op:
            self.clear()
        if tracer is not None:
            tracer.begin_op(op_id, op.kind)
        t0 = perf()
        try:
            ok, payload = op.run()
            why = "verdict false"
        except (Exception, SystemExit) as exc:
            ok, payload, why = False, None, f"{type(exc).__name__}: {exc}"
        dt = perf() - t0
        if tracer is not None:
            tracer.end_op()
        if ok:
            digest = hashlib.sha256(render(payload).encode()).digest()
            first = self.seen.setdefault(op.key, digest)
            if first != digest:
                ok, why = False, "output differs from an earlier repeat"
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.key}: {why}")
        return dt


def tail(latencies, pct):
    """(value, percentile): ``pct`` if at least ten samples lie beyond
    it, else the highest such percentile of the ladder, else the median."""
    n = len(latencies)
    for p in (pct,) + TAIL_LADDER:
        if p <= pct and n * (100 - p) / 100 >= 10:
            return statistics.quantiles(latencies, n=100,
                                        method="inclusive")[p - 1], p
    return statistics.median(latencies), 50


def timed_run(args, runner, plan):
    """End-to-end phase: ops back to back for --seconds (one client,
    closed loop); returns every op latency.  The tiny size runs every
    planned op once."""
    if plan.cache_rule == "run":
        runner.clear()
    tiny = args.size == "tiny"
    ops = itertools.chain.from_iterable(
        plan.rounds if tiny else itertools.cycle(plan.rounds))
    lat = []
    deadline = perf() + args.seconds
    for op in ops:
        if not tiny and perf() >= deadline:
            break
        lat.append(runner.run(op))
    return lat


def traced_run(args, runner, plan, tracing):
    """Per-layer phase: a fixed number of rounds traced (fewer only if
    they outlast --seconds), then the same ops replayed untraced."""
    tracer = tracing.Tracer()
    tracer.install()
    ran = []
    traced_s = 0.0
    try:
        if plan.cache_rule == "run":
            runner.clear()
        start = perf()
        for rnd in plan.rounds[:plan.trace_rounds]:
            for op in rnd:
                traced_s += runner.run(op, tracer, len(ran))
                ran.append(op)
            if perf() - start > args.seconds:
                break
    finally:
        tracer.remove()
    if plan.cache_rule == "run":
        runner.clear()
    plain_s = sum(runner.run(op) for op in ran)
    return tracer, ran, traced_s / plain_s


def write_spans(args, tracer, ran):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    t0 = min((s[1] for s in tracer.span_records()), default=0.0)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "ops": [[i, op.kind, repr(op.key)] for i, op in enumerate(ran)],
        "spans": [[name, round(a - t0, 7), round(b - t0, 7), parent, op]
                  for name, a, b, parent, op in tracer.span_records()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def main(argv=None):
    args = parse_args(argv)
    tiny = args.size == "tiny"
    D, _, plan, setup_s = setup(args.workload, args.seed, tiny)
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    runner = Runner(D, plan.cache_rule == "op")
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"q in {plan.fields}, "
          f"cache cleared per {plan.cache_rule}, {plan.round_size()} ops "
          f"per round, bands {plan.bands or '-'}")
    if args.trace:
        import tracing
        tracer, ran, overhead = traced_run(args, runner, plan, tracing)
        path = write_spans(args, tracer, ran)
        values = tracer.metrics(overhead)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        print(f"traced {len(ran)} ops, {len(tracer.span_records())} spans "
              f"-> {os.path.relpath(path, ROOT)}; overhead x{overhead:.3f}")
        for name, value in values.items():
            print(f"  {name} {value:.6g} {units[name]}")
    else:
        samples = [setup_s] + [probe_setup(args)
                               for _ in range(0 if tiny else
                                              SETUP_SAMPLES - 1)]
        lat = timed_run(args, runner, plan)
        t_val, t_pct = tail(lat, plan.tail_pct)
        values = {
            "setup_s": statistics.median(samples),
            "ops_per_s": len(lat) / sum(lat),
            "op_ms.p50": statistics.median(lat) * 1000,
            "op_ms.tail": t_val * 1000,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms",
                 "op_ms.tail": "ms", "peak_rss_mb": "MB"}
        beyond = sum(1 for x in lat if x * 1000 > values["op_ms.tail"])
        notes = {
            "setup_s": f"median of {len(samples)}",
            "ops_per_s": f"{len(lat)} ops in {sum(lat):.2f} s of op time",
            "op_ms.p50": f"n={len(lat)}",
            "op_ms.tail": f"p{t_pct}, {beyond} samples beyond",
            "peak_rss_mb": "ru_maxrss",
        }
        for name, value in values.items():
            print(f"  {name} {value:.6g} {units[name]} ({notes[name]})")
    print(f"  fail_ratio {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed}/{runner.attempted})")
    for err in runner.errors:
        print(f"  FAILED {err}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
