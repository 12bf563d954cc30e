"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  All arithmetic is exact, so every comparison is equality; the
stated runtime bounds are asserted where the criteria pin them."""

import time

from drinfeldforms.cli import main
from drinfeldforms.congruence import EXACT_ZERO, sweep_congruence
from drinfeldforms.fieldpoly import Poly, RatFunc, make_field
from drinfeldforms.forms import FormExpr
from drinfeldforms.relations import compute_b_vector, kernel_oracle, phi, spans_equal
from drinfeldforms.selftest import (
    criterion_displayed_expansions,
    criterion_identity_suite,
    criterion_relations_sweep,
    criterion_residue_sweep,
    criterion_route_equivalence,
    criterion_triangularity,
    criterion_worked_examples,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_displayed_expansions():
    start = time.perf_counter()
    oks = []
    for ctx in (F3, F5, F9):
        ok, _ = criterion_displayed_expansions(ctx)
        oks.append(ok)
    elapsed = time.perf_counter() - start
    _report("criterion-1 displayed-expansions",
            all(oks) and elapsed < 5.0,
            f"q=3,5,9 elapsed={elapsed:.2f}s")


def test_criterion_2_identity_suite():
    start = time.perf_counter()
    oks = []
    for ctx, terms in ((F3, 150), (F5, 150), (F9, 100)):
        ok, _ = criterion_identity_suite(ctx, terms)
        oks.append(ok)
    elapsed = time.perf_counter() - start
    _report("criterion-2 identity-suite",
            all(oks) and elapsed < 60.0,
            f"terms>=150 (q=3,5) >=100 (q=9) elapsed={elapsed:.2f}s")


def test_criterion_3_route_equivalence():
    oks = []
    for ctx in (F3, F5):
        ok, _ = criterion_route_equivalence(ctx)
        oks.append(ok)
    _report("criterion-3 route-equivalence", all(oks),
            "Delta_T both routes; u((Ta)z) = substituted u(az), deg <= 3")


def test_criterion_4_congruence_sweep():
    bad = []
    total = 0
    for ctx in (F3, F5):
        for w in sweep_congruence(ctx, r_max=7, d_values=(1, 2), pb_max=27):
            total += 1
            if not w.ok() or (w.a == 0 and w.verdict != EXACT_ZERO):
                bad.append(w.json_dict())
    _report("criterion-4 congruence-sweep", not bad,
            f"q=3,5 r<=7 d=1,2 p^b<=27 witnesses={total} failures={len(bad)}")


def test_criterion_5_worked_examples():
    start = time.perf_counter()
    oks = []
    for ctx in (F3, F9):
        ok, _ = criterion_worked_examples(ctx)
        oks.append(ok)
    elapsed = time.perf_counter() - start
    _report("criterion-5 worked-examples",
            all(oks) and elapsed < 60.0,
            f"q=9 family and p|l families elapsed={elapsed:.2f}s")


def test_criterion_6_residue_sweep():
    oks = []
    cases = 0
    for ctx in (F3, F5):
        ok, detail = criterion_residue_sweep(ctx, r_max=7, pb_max=27)
        oks.append(ok)
        cases += int(detail.split()[0].split("=")[1])
    _report("criterion-6 residue-sweep", all(oks),
            f"exact zeros, d=1 cases={cases}")


def test_criterion_7_relations_two_route():
    oks = []
    for ctx in (F3, F5):
        ok, _ = criterion_relations_sweep(ctx, r_max=5, n_max=3)
        oks.append(ok)
    # the worked instance: q=3, (k,l,N) = (2,1,0) gives b = (-T, -1)
    vec = compute_b_vector(F3, 2, 1, 0, FormExpr.parse(F3, "E_T"))
    T = Poly.T(F3)
    worked = (vec.c[0] == RatFunc(-T)
              and vec.c[1] == RatFunc.constant(F3, -1))
    bm = phi(F3, 2, 1, 0)
    kern = kernel_oracle(F3, 2, 1, 0)
    worked = worked and spans_equal(F3, [list(r.c) for r in bm.rows],
                                    kern.entries)
    _report("criterion-7 relations-two-route", all(oks) and worked,
            "q=3,5 r<=5 N<=3; worked instance b=(-T,-1)")


def test_criterion_8_dual_triangularity():
    oks = []
    for ctx in (F3, F5):
        ok, _ = criterion_triangularity(ctx, r_max=7)
        oks.append(ok)
    _report("criterion-8 dual-triangularity", all(oks),
            "unitriangular coefficient matrices, r<=7")


def test_criterion_9_selftest_determinism(capsys):
    code1 = main(["selftest", "--profile", "quick"])
    out1 = capsys.readouterr().out
    code2 = main(["selftest", "--profile", "quick"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    with capsys.disabled():
        _report("criterion-9 selftest-determinism", ok,
                f"bytes={len(out1)}")
