"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Checks that two seeds give plans of the same size drawn from the same
precision bands, that every workload runs at a tiny size with no failed
op and prints exactly the metrics declared in BENCHMARK.json, and that
the traced run's wrappers reach the builds the form cache triggers: one
cold E_T^(q-1) = Delta_W*Delta_T plus h = -Delta_W*E_T check at q = 3
calls build_g1 five times and build_DeltaT three times.  Exits 1 on any
failure.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import run

FAILURES = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench


def plan_shape(plan):
    """What a seed must not change: ops per round, count of each op kind,
    precision bands and traced rounds."""
    return ([len(rnd) for rnd in plan.rounds],
            collections.Counter(op.kind for rnd in plan.rounds for op in rnd),
            plan.bands, plan.trace_rounds)


def check_plans(workloads):
    for name in run.WORKLOADS:
        a = workloads.make_plan(name, 1)
        b = workloads.make_plan(name, 2)
        check(plan_shape(a) == plan_shape(b),
              f"{name}: seeds 1 and 2 give the same ops per round, the same "
              "count of each op kind and the same bands")
        in_band = all(a.bands[op.kind][0] <= op.args[1] <= a.bands[op.kind][1]
                      for plan in (a, b) for rnd in plan.rounds
                      for op in rnd if op.kind in a.bands)
        check(in_band, f"{name}: every identity op lies in its band")
        keys_a = [op.key for rnd in a.rounds for op in rnd]
        keys_b = [op.key for rnd in b.rounds for op in rnd]
        check(keys_a != keys_b, f"{name}: the seed changes which cases run")


def check_wrapper_reach(D, workloads):
    import tracing
    ctx = D.make_field(3, 1)
    D.clear_form_cache()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, "identity-suite")
        ok = (workloads.identity_et_pow(ctx, 30)[0]
              and workloads.identity_h(ctx, 30)[0])
        tracer.end_op()
    finally:
        tracer.remove()
    g1 = tracer.stats["forms.build.g1"].calls
    dt = tracer.stats["forms.build.Delta_T"].calls
    check(ok and g1 == 5 and dt == 3,
          f"cold q=3 identity check: build_g1 x{g1} (want 5), "
          f"build_DeltaT x{dt} (want 3)")
    forms = sys.modules["drinfeldforms.forms"]
    restored = (forms._BUILDERS["g1"] is forms.build_g1
                and not hasattr(forms.build_g1, "__wrapped__")
                and not hasattr(D.Poly.__mul__, "__wrapped__")
                and not hasattr(D.FormExpr.parse, "__wrapped__"))
    check(restored, "wrappers are removed after the traced phase")


def tiny_run(name, seed, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", name, "--seed", str(seed), "--seconds", "5",
           "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_tiny_runs(bench):
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in run.WORKLOADS:
        for trace in (0, 1):
            results = [tiny_run(name, seed, trace) for seed in (1, 2)]
            if None in results:
                check(False, f"{name} trace={trace}: tiny run exited "
                             "non-zero")
                continue
            a, b = results
            check(a["correct"] and b["correct"]
                  and a["failed"] == b["failed"] == 0,
                  f"{name} trace={trace}: fail_ratio 0 "
                  f"({a['failed']}/{a['attempted']}, "
                  f"{b['failed']}/{b['attempted']})")
            check(a["attempted"] == b["attempted"],
                  f"{name} trace={trace}: seeds 1 and 2 attempt the same "
                  f"number of ops ({a['attempted']}, {b['attempted']})")
            got = {k: v["unit"] for k, v in a["metrics"].items()}
            check(got == want[trace],
                  f"{name} trace={trace}: emits exactly the "
                  f"{'per_layer' if trace else 'end_to_end'} metrics of "
                  "BENCHMARK.json")


def main():
    bench = declared()
    D, workloads, _, _ = run.setup("deep-q3", 1, tiny=True)
    import tracing
    specs = [{"name": n, "unit": u, "better": b}
             for n, u, b in tracing.metric_specs()]
    check(specs == bench["per_layer"],
          "BENCHMARK.json per_layer matches tracing.metric_specs()")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    check_plans(workloads)
    check_wrapper_reach(D, workloads)
    check_tiny_runs(bench)
    print(f"{'FAIL' if FAILURES else 'PASS'} selfcheck: "
          f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
