"""Layer-by-layer build times at growing precision, written as JSON.

    PYTHONPATH=src python3 tools/layer_times.py OUT.json

For q in {3, 5, 9} and P in {80, 160, 320, 640} it times, from an empty
form cache:

* ``E_monic_sum``: E as the sum of a * u(az) over every monic a, the
  route that the tests keep as an oracle;
* ``E_theta``: ``build_E``, E = Theta(Delta_T) / Delta_T, including the
  build of Delta_T;
* ``E_T``: ``build_ET``, including the build of E;
* ``h``: ``build_h``, including the builds of Delta_W and E_T.

Each time is the median of three runs in one process.  The JSON
records the host (platform, CPU count, Python and numpy versions) next to
the times, so that figures from different machines are not mixed.
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

from drinfeldforms import forms
from drinfeldforms.carlitz import monic_series_sum
from drinfeldforms.fieldpoly import make_field

FIELDS = {3: (3, 1), 5: (5, 1), 9: (3, 2)}
PRECS = (80, 160, 320, 640)
RUNS = 3

ROUTES = {
    "E_monic_sum": lambda ctx, prec: monic_series_sum(ctx, lambda a: a, 1,
                                                      prec),
    "E_theta": forms.build_E,
    "E_T": forms.build_ET,
    "h": forms.build_h,
}


def timed(build, ctx, prec):
    """Median wall time of RUNS builds, each from an empty cache."""
    times = []
    for _ in range(RUNS):
        forms.clear_form_cache()
        start = time.perf_counter()
        build(ctx, prec)
        times.append(time.perf_counter() - start)
    forms.clear_form_cache()
    return statistics.median(times)


def host():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="path of the JSON file to write")
    args = ap.parse_args(argv)
    rows = []
    for q, field in FIELDS.items():
        ctx = make_field(*field)
        for prec in PRECS:
            row = {"q": q, "prec": prec}
            for name, build in ROUTES.items():
                row[f"{name}_s"] = round(timed(build, ctx, prec), 4)
            print(json.dumps(row), file=sys.stderr, flush=True)
            rows.append(row)
    with open(args.out, "w") as fh:
        json.dump({"what": "median build time in seconds from an empty "
                           "form cache",
                   "runs": RUNS, "host": host(), "results": rows},
                  fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
