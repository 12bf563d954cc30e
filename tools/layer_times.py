"""Layer-by-layer times, written as JSON.

    PYTHONPATH=src python3 tools/layer_times.py OUT.json [--parent OLD.json]
        [--section fields|builds|relations|sweeps|selftest ...]

Each ``--section`` runs one of the five sections below; given several
times it runs each of them, and with none it runs all five.  On a
2-vCPU machine a full run takes about 3.5 min and the builds section
alone about 20 s.

Field construction: ``fieldpoly.FieldCtx(p, r)`` itself, not the cached
``make_field``, for (p, r) in (3, 2), (5, 2), (3, 3), (3, 10), (7, 7) and
(3, 12): the modulus search and the matrix of Frobenius images.

Generator builds, for q in {3, 5, 9} and P in {80, 160, 320, 640}, each
from an empty form cache:

* ``g1``: ``build_g1``, from the power q - 1 sum of the Carlitz lattice;
* ``Delta_T``: ``build_DeltaT``, (g1(Tz) - g1) / (T^q - T), including the
  build of g1;
* ``E_monic_sum``: E as the sum of a * u(az) over every monic a, the
  route that the tests keep as an oracle;
* ``E_theta``: ``build_E``, E = Theta(Delta_T) / Delta_T, including the
  build of Delta_T;
* ``E_T``: ``build_ET``, including the build of E;
* ``h``: ``build_h``, including the builds of Delta_W and E_T;
* ``DeltaT_monic_sum``: ``build_DeltaT_from_monic_sum``, Delta_T as the
  sum of u(az)^(q-1) over monic a prime to T, for P up to 320 only.

Linear algebra: ``relation_report`` for q in {3, 5, 9}, type l = 1,
r in {1, 3, 5} and N = 3, and for q = 3, k = 2, l = 1 (r = 0) and
N in {10, 20, 30}, sizes that no benchmark workload reaches, each from a
warm form cache (one untimed report first), so that the kernel, rank
and span checks dominate.

Sweeps at q = 5, from a warm form cache: ``relation_report`` over the
92 cases of the relation sweep (every type l, r <= 5, N <= 3), and
``build_residue_form`` plus ``json_dict`` over the 182 cases of the
residue sweep (r <= 7, p^b <= 27), the work of the relation and residue
ops of the sweep-q5 benchmark.

Selftest: one row per criterion line of ``selftest --profile quick`` and
``--profile full``, the seconds of that line (field set-up and check)
from an empty form cache, plus the whole profile, ``run_selftest``, from
an empty form cache.  Each row also records what the form cache holds
after the line: the entries and numerator-block bytes of each of its
tables.  Criterion 9 empties the cache before its first pass, so the
``run_selftest`` row records what criterion 9 leaves.

Each time is the median of three runs in one process, in seconds to
six decimals for field constructions and generator builds, four
elsewhere.  The JSON records the host (platform, CPU count, Python and
numpy versions) next to the times, so that figures from different
machines are not mixed.  With ``--parent`` the results of an earlier
output of this tool, for example one run with ``PYTHONPATH`` on an older
tree, are kept under "parent" for the sections run, so that one record
holds both sets of figures from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from drinfeldforms import fieldpoly, forms, selftest
from drinfeldforms.carlitz import monic_series_sum
from drinfeldforms.congruence import _b_max, build_residue_form, find_ab
from drinfeldforms.fieldpoly import make_field
from drinfeldforms.forms import basis, valid_specs
from drinfeldforms.relations import relation_report

FIELDS = {3: (3, 1), 5: (5, 1), 9: (3, 2)}
FIELD_CASES = ((3, 2), (5, 2), (3, 3), (3, 10), (7, 7), (3, 12))  # (p, r)
PRECS = (80, 160, 320, 640)
RELATION_L = 1
RELATION_CASES = ([(q, r, 3) for q in FIELDS for r in (1, 3, 5)]
                  + [(3, 0, N) for N in (10, 20, 30)])  # (q, r, N)
RUNS = 3

ROUTES = {
    "g1": forms.build_g1,
    "Delta_T": forms.build_DeltaT,
    "E_monic_sum": lambda ctx, prec: monic_series_sum(ctx, lambda a: a, 1,
                                                      prec),
    "E_theta": forms.build_E,
    "E_T": forms.build_ET,
    "h": forms.build_h,
    "DeltaT_monic_sum": forms.build_DeltaT_from_monic_sum,
}
PREC_CAP = {"DeltaT_monic_sum": 320}  # routes timed only up to a precision


def timed(build, ctx, prec, warm=False):
    """Median wall time of RUNS builds, each from an empty cache, or all
    from the cache one untimed build leaves when ``warm``."""
    times = []
    forms.clear_form_cache()
    if warm:
        build(ctx, prec)
    for _ in range(RUNS):
        if not warm:
            forms.clear_form_cache()
        start = time.perf_counter()
        build(ctx, prec)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cache_size():
    """Entries and numerator-block bytes of each table of the form cache."""
    return {name.lstrip("_"): {"entries": len(table),
                               "block_bytes": sum(s.block.nbytes
                                                  for s in table.values())}
            for name, table in vars(forms._CACHE).items()}


def field_rows():
    rows = []
    for p, r in FIELD_CASES:
        row = {"p": p, "r": r, "FieldCtx_s": round(timed(
            lambda *_: fieldpoly.FieldCtx(p, r), None, None), 6)}
        print(json.dumps(row), file=sys.stderr, flush=True)
        rows.append(row)
    return rows


def build_rows():
    rows = []
    for q, field in FIELDS.items():
        ctx = make_field(*field)
        for prec in PRECS:
            row = {"q": q, "prec": prec}
            for name, build in ROUTES.items():
                if prec <= PREC_CAP.get(name, prec):
                    row[f"{name}_s"] = round(timed(build, ctx, prec), 6)
            print(json.dumps(row), file=sys.stderr, flush=True)
            rows.append(row)
    return rows


def relation_rows():
    rows = []
    for q, r, N in RELATION_CASES:
        ctx = make_field(*FIELDS[q])
        k = r * (q - 1) + 2 * RELATION_L
        row = {"q": q, "k": k, "l": RELATION_L, "r": r, "N": N}
        row["relation_report_s"] = round(timed(
            lambda ctx, N: relation_report(ctx, k, RELATION_L, N),
            ctx, N, warm=True), 4)
        print(json.dumps(row), file=sys.stderr, flush=True)
        rows.append(row)
    return rows


def sweep_rows():
    ctx = make_field(*FIELDS[5])
    q = ctx.q
    relations = [(r * (q - 1) + 2 * l, l, N) for l in range(q - 1)
                 for r in range(6) for N in range(4)
                 if r * (q - 1) + 2 * l >= 1]
    residues = [(m.expr(ctx), k, l, a) for k, l, _ in valid_specs(ctx, 7)
                for a, _ in find_ab(ctx, k, l, 1, _b_max(ctx, 27))
                for m in basis(ctx, k, l)]
    sweeps = {
        "relation_report": (len(relations), lambda: [
            relation_report(ctx, *case) for case in relations]),
        "residue_form_json": (len(residues), lambda: [
            build_residue_form(ctx, f, k, l, a).json_dict()
            for f, k, l, a in residues]),
    }
    rows = []
    for name, (cases, run) in sweeps.items():
        row = {"q": q, "sweep": name, "cases": cases,
               "s": round(timed(lambda *_: run(), None, None, warm=True), 4)}
        print(json.dumps(row), file=sys.stderr, flush=True)
        rows.append(row)
    return rows


def selftest_rows():
    rows = []
    for profile in ("quick", "full"):
        lines = [(f"c{num} {label} q={q}",
                  lambda fn=fn, q=q: fn(selftest._context(q)))
                 for num, label, q, fn in selftest._criteria_for(profile)]
        lines.append(("run_selftest",
                      lambda profile=profile: selftest.run_selftest(profile)))
        for line, run in lines:
            row = {"profile": profile, "line": line,
                   "s": round(timed(lambda *_: run(), None, None), 4),
                   "form_cache": cache_size()}
            print(json.dumps(row), file=sys.stderr, flush=True)
            rows.append(row)
    return rows


def host():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# section name -> (key of its rows in the JSON, the rows)
SECTIONS = {
    "fields": ("fields", field_rows),
    "builds": ("results", build_rows),
    "relations": ("relations", relation_rows),
    "sweeps": ("sweeps", sweep_rows),
    "selftest": ("selftest", selftest_rows),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="path of the JSON file to write")
    ap.add_argument("--parent", help="an earlier output of this tool, kept "
                                     "under \"parent\"")
    ap.add_argument("--section", action="append", choices=list(SECTIONS),
                    help="run only this section; may be repeated "
                         "(default: every section)")
    args = ap.parse_args(argv)
    sections = [name for name in SECTIONS
                if args.section is None or name in args.section]
    out = {"what": "median time in seconds: field constructions, generator "
                   "builds and selftest lines from an empty form cache, "
                   "relation reports and sweeps from a warm one; the form "
                   "cache after each selftest line",
           "runs": RUNS, "host": host(), "sections": sections}
    keys = [SECTIONS[name][0] for name in sections]
    for name, key in zip(sections, keys):
        out[key] = SECTIONS[name][1]()
    if args.parent:
        with open(args.parent) as fh:
            old = json.load(fh)
        out["parent"] = {key: old[key] for key in ["host"] + keys
                         if key in old}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
