"""The acceptance sweep, runnable from the CLI and from the test suite.

Each criterion is a function of a field context returning (ok, detail).
``run_selftest`` collects one line per criterion instance; the quick
profile covers q = 3 only, the full profile runs q in {3, 5, 9} wherever
a criterion applies.  All checks are exact; a single failure anywhere
falsifies the build.
"""

from __future__ import annotations

import json

from .carlitz import monics, u_sub_a
from .congruence import (
    EXACT_ZERO,
    check_corollary,
    sweep_congruence,
    sweep_residues,
)
from .fieldpoly import Poly, RatFunc, make_field
from .forms import (
    FormExpr,
    build_DeltaT,
    build_DeltaT_from_monic_sum,
    expand,
    get_form,
    valid_specs,
)
from .relations import (
    _dual_matrix,
    _unitriangular,
    compute_b_vector,
    sweep_relations,
)


def criterion_displayed_expansions(ctx):
    """Leading displayed coefficients of E_T, Delta_T, Delta_W and h."""
    q = ctx.q
    T = Poly.T(ctx)
    prec = q * (q - 1) + 2
    et = get_form(ctx, "E_T", prec)
    dt = get_form(ctx, "Delta_T", prec)
    dw = get_form(ctx, "Delta_W", prec)
    h = get_form(ctx, "h", max(prec, (q - 1) ** 2 + 2))
    checks = [
        et.coeff(1).is_one(),
        et.coeff(q) == RatFunc(-T),
        dt.coeff(q - 1).is_one(),
        dt.coeff(q * (q - 1)) == RatFunc.constant(ctx, -1),
        dw.coeff(0).is_one(),
        dw.coeff(q - 1) == RatFunc(T),
        dw.coeff(q * (q - 1)) == RatFunc(-(T ** q)),
        h.coeff(1) == RatFunc.constant(ctx, -1),
        h.coeff((q - 1) ** 2 + 1) == RatFunc.constant(ctx, -1),
    ]
    return all(checks), f"checks={len(checks)}"


def criterion_identity_suite(ctx, terms):
    """E_T^(q-1) = Delta_W Delta_T and h = -Delta_W E_T to >= terms."""
    q = ctx.q
    prec = terms + q
    et = get_form(ctx, "E_T", prec)
    dw = get_form(ctx, "Delta_W", prec)
    dt = get_form(ctx, "Delta_T", prec)
    h = get_form(ctx, "h", prec)
    lhs = et ** (q - 1)
    rhs = dw * dt
    ok1 = lhs.agrees_with(rhs, upto=terms) and lhs.prec >= terms
    prod = -(dw * et)
    ok2 = h.agrees_with(prod, upto=terms) and prod.prec >= terms
    return ok1 and ok2, f"terms>={terms}"


def criterion_route_equivalence(ctx):
    """Both construction routes for Delta_T, and u((Ta)z) against the
    substituted u(az), for every monic a of degree at most 3."""
    q = ctx.q
    prec = 2 * q * (q - 1) + 2
    ok = build_DeltaT(ctx, prec) == build_DeltaT_from_monic_sum(ctx, prec)
    count = 0
    T = Poly.T(ctx)
    for deg in range(4):
        for a in monics(ctx, deg):
            out_prec = q ** (deg + 1) + 2 * (q - 1) + 1
            direct = u_sub_a(T * a, out_prec)
            base = u_sub_a(a, (out_prec + q - 1) // q + 1)
            if not direct.agrees_with(base.substitute_Tz(out_prec=out_prec)):
                ok = False
            count += 1
    return ok, f"delta_routes+u_routes={count}"


def criterion_theorem_sweep(ctx, r_max=7, pb_max=27):
    """Every product-coefficient congruence in the sweep, both d values,
    with the exact-zero upgrade whenever a = 0."""
    witnesses = sweep_congruence(ctx, r_max=r_max, d_values=(1, 2),
                                 pb_max=pb_max)
    bad = [w for w in witnesses if not w.ok()
           or (w.a == 0 and w.verdict != EXACT_ZERO)]
    return not bad, f"witnesses={len(witnesses)} failures={len(bad)}"


def criterion_worked_examples(ctx):
    """The q = 9 example family and the p | l family of corollary cases."""
    p, q = ctx.p, ctx.q
    checks = 0
    ok = True
    if q == 9:
        w = check_corollary(ctx, FormExpr.parse(ctx, "E_T^6"), 12, 6, 1, 1)
        ok = ok and w.ok() and w.exp == 22
        checks += 1
        et = get_form(ctx, "E_T", 30)
        for m in (1, 2):
            ok = ok and (et ** (3 * m)).coeff(16 + 3 * m).is_zero()
            checks += 1
    for l in range(0, q - 1, p):
        form = (FormExpr.generator(ctx, "g1") ** (p - 2)
                * FormExpr.generator(ctx, "E_T") ** l)
        k = (q - 1) * (p - 2) + 2 * l
        w = check_corollary(ctx, form, k, l, 1, 1)
        ok = ok and w.ok()
        checks += 1
    return ok, f"checks={checks}"


def criterion_residue_sweep(ctx, r_max=7, pb_max=27):
    """Exact vanishing of the u^1 coefficient of every d = 1 Laurent
    form in the sweep."""
    reports = sweep_residues(ctx, r_max=r_max, pb_max=pb_max)
    bad = [r for r in reports if r["residue"] != "0"]
    return not bad, f"cases={len(reports)} failures={len(bad)}"


def criterion_relations_sweep(ctx, r_max=5, n_max=3):
    """Two-route equality of the relation spaces, rank N + 1, exact
    annihilation; plus the worked b-vector at q = 3."""
    ok = True
    count = 0
    for rep in sweep_relations(ctx, r_max=r_max, n_max=n_max):
        r = rep["report"]
        if not (r["spans_equal"] and r["annihilates"]
                and r["phi_rank"] == rep["N"] + 1
                and r["kernel_dim"] == rep["N"] + 1):
            ok = False
        count += 1
    if ctx.q == 3:
        vec = compute_b_vector(ctx, 2, 1, 0, FormExpr.parse(ctx, "E_T"))
        T = Poly.T(ctx)
        ok = ok and vec.c[0] == RatFunc(-T)
        ok = ok and vec.c[1] == RatFunc.constant(ctx, -1)
    return ok, f"spaces={count}"


def criterion_triangularity(ctx, r_max=5):
    """[a_i*(S_j)] is unitriangular for every space in the sweep: the
    condition under which ``relation_report`` reads the kernel dimension
    N + 1 off the shape of the matrix."""
    specs = valid_specs(ctx, r_max)
    ok = all(_unitriangular(_dual_matrix(ctx, k, l, 0), r)
             for k, l, r in specs)
    return ok, f"spaces={len(specs)}"


def criterion_determinism(ctx):
    """Byte-identical JSON for repeated runs of the same checks."""
    def render():
        ws = sweep_congruence(ctx, r_max=2, d_values=(1,), pb_max=ctx.p ** 2)
        payload = [w.json_dict() for w in ws]
        payload.append(expand(FormExpr.parse(ctx, "E_T"),
                              2 * ctx.q).json_dict())
        return json.dumps(payload, sort_keys=True)

    first = render()
    second = render()
    return first == second, f"bytes={len(first)}"


def _criteria_for(profile):
    """(criterion id, label, q, runner) in a fixed, reported order."""
    qs = (3, 5, 9) if profile == "full" else (3,)
    table = (
        (1, "displayed-expansions", (3, 5, 9),
         criterion_displayed_expansions),
        (2, "identity-suite", (3, 5, 9),
         lambda c: criterion_identity_suite(c, 100 if c.q == 9 else 150)),
        (3, "route-equivalence", (3, 5), criterion_route_equivalence),
        (4, "congruence-sweep", (3, 5), criterion_theorem_sweep),
        (5, "worked-examples", (3, 9), criterion_worked_examples),
        (6, "residue-sweep", (3, 5), criterion_residue_sweep),
        (7, "relations-sweep", (3, 5), criterion_relations_sweep),
        (8, "dual-triangularity", (3, 5), criterion_triangularity),
        (9, "determinism", (3,), criterion_determinism),
    )
    return [(num, label, q, fn) for num, label, where, fn in table
            for q in qs if q in where]


def _context(q):
    if q == 9:
        return make_field(3, 2)
    return make_field(q, 1)


def run_selftest(profile="quick"):
    """Run the acceptance criteria; returns (report lines, all passed)."""
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    results = []
    for num, label, q, fn in _criteria_for(profile):
        ok, detail = fn(_context(q))
        status = "PASS" if ok else "FAIL"
        results.append((f"{status} c{num} {label} q={q} {detail}", ok))
    lines = [line for line, _ in results]
    all_ok = all(ok for _, ok in results)
    counts = f"passed={sum(ok for _, ok in results)} total={len(results)}"
    lines.append(("PASS " if all_ok else "FAIL ") + "summary " + counts)
    return lines, all_ok
