"""Seeded case plans for the benchmark workloads.

An op is one unit of work with its own exact verdict.  ``Op.run()``
returns ``(ok, payload)``: ``ok`` is that verdict and ``payload`` a
JSON-able value (or a series) that the harness compares byte for byte
whenever the same case repeats within a run.

The seed only permutes and draws cases from fixed families and fixed
precision bands; it never changes the families, the bands or how many
ops make one round, so every seed does comparable work.  Only the
public API of ``drinfeldforms`` is used, always through module
attributes (``D.get_form``, ``cli.main``), so that wrappers installed by
the traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

import drinfeldforms as D
from drinfeldforms import cli
from drinfeldforms.congruence import valid_specs

# q -> (p, r)
FIELDS = {3: (3, 1), 5: (5, 1), 9: (3, 2)}

IDENTITY_KINDS = ("et_pow", "h", "dw", "dt_routes")
SWEEP_KINDS = ("congruence", "residue", "relations")


@dataclass(frozen=True)
class Op:
    """One case: ``fn(*args)`` gives ``(ok, payload)``."""

    kind: str
    key: tuple
    fn: object
    args: tuple

    def run(self):
        return self.fn(*self.args)


@dataclass(frozen=True)
class Plan:
    """A workload's seeded rounds and the rules they were drawn under."""

    fields: tuple          # the q of every field the ops run over
    cache_rule: str        # "op": cleared before every op; "run": once
    tail_pct: int          # percentile reported as op_ms.tail
    trace_rounds: int      # rounds run by the traced phase
    bands: dict            # kind -> (lo, hi) precision band, terms
    rounds: tuple          # tuple of tuples of Op

    def round_size(self):
        return len(self.rounds[0])


# ---------------------------------------------------------------------------
# identity ops: one exact identity between generator expansions, checked
# to ``terms`` terms from whatever cache state the harness left


def identity_et_pow(ctx, terms):
    """E_T^(q-1) = Delta_W * Delta_T."""
    q = ctx.q
    prec = terms + q
    et = D.get_form(ctx, "E_T", prec)
    dw = D.get_form(ctx, "Delta_W", prec)
    dt = D.get_form(ctx, "Delta_T", prec)
    rhs = dw * dt
    return (et ** (q - 1)).agrees_with(rhs, upto=terms) and \
        rhs.prec >= terms, rhs


def identity_h(ctx, terms):
    """h = -Delta_W * E_T."""
    prec = terms + ctx.q
    h = D.get_form(ctx, "h", prec)
    dw = D.get_form(ctx, "Delta_W", prec)
    et = D.get_form(ctx, "E_T", prec)
    rhs = -(dw * et)
    return h.agrees_with(rhs, upto=terms) and rhs.prec >= terms, rhs


def identity_dw(ctx, terms):
    """Delta_W = g1 + T^q * Delta_T."""
    prec = terms + ctx.q
    dw = D.get_form(ctx, "Delta_W", prec)
    g1 = D.get_form(ctx, "g1", prec)
    dt = D.get_form(ctx, "Delta_T", prec)
    rhs = g1 + dt * D.Poly.T(ctx) ** ctx.q
    return dw.agrees_with(rhs, upto=terms) and rhs.prec >= terms, rhs


def identity_dt_routes(ctx, terms):
    """Delta_T by the g1(Tz) route equals Delta_T by the monic-sum route."""
    via_g1 = D.build_DeltaT(ctx, terms)
    return via_g1 == D.build_DeltaT_from_monic_sum(ctx, terms), via_g1


IDENTITY_FNS = {
    "et_pow": identity_et_pow,
    "h": identity_h,
    "dw": identity_dw,
    "dt_routes": identity_dt_routes,
}


# ---------------------------------------------------------------------------
# sweep ops: one case of the criterion 4 / 6 / 7 families


def congruence_case(ctx, label, k, l, d, a, b):
    form = D.FormExpr.parse(ctx, label)
    w = D.check_congruence(ctx, form, k, l, d, a, b)
    return w.ok(), w.json_dict()


def residue_case(ctx, label, k, l, a):
    form = D.FormExpr.parse(ctx, label)
    g = D.build_residue_form(ctx, form, k, l, a)
    res = D.residue_normalized(g)
    return res.is_zero(), {"residue": str(res), "form": g.json_dict()}


def relations_case(ctx, k, l, N):
    rep = D.relation_report(ctx, k, l, N)
    r = rep["report"]
    ok = (r["spans_equal"] and r["annihilates"]
          and r["phi_rank"] == N + 1 and r["kernel_dim"] == N + 1)
    return ok, rep


def sweep_families(ctx, pb_max, r_max=7, rel_r_max=5, n_max=3):
    """Case tuples of the congruence, residue and relation sweeps, in the
    order the acceptance criteria enumerate them."""
    b_max = 0
    while ctx.p ** (b_max + 1) <= pb_max:
        b_max += 1
    cong, res, rel = [], [], []
    for k, l, r in valid_specs(ctx, r_max):
        labels = [m.label() for m in D.basis(ctx, k, l)]
        for d in (1, 2):
            for a, b in D.find_ab(ctx, k, l, d, b_max):
                cong += [(lab, k, l, d, a, b) for lab in labels]
        for a, _ in D.find_ab(ctx, k, l, 1, b_max):
            res += [(lab, k, l, a) for lab in labels]
    for l in range(ctx.q - 1):
        for r in range(rel_r_max + 1):
            k = r * (ctx.q - 1) + 2 * l
            if k >= 1:
                rel += [(k, l, N) for N in range(n_max + 1)]
    return {"congruence": cong, "residue": res, "relations": rel}


SWEEP_FNS = {
    "congruence": congruence_case,
    "residue": residue_case,
    "relations": relations_case,
}


def _epochs(rng, family):
    """Endless stream over ``family``: each pass is a fresh seeded
    shuffle, so every case is visited equally often whatever the seed."""
    while True:
        order = list(family)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# CLI requests


def cli_request(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc == 0, f"rc={rc}\n{out.getvalue()}"


_CLI_EXPRS = ("E_T", "g1", "Delta_T", "Delta_W", "h", "E", "E_T^2",
              "g1*E_T", "Delta_W*Delta_T", "Delta_T*E_T", "(T+1)*g1")


def _cli_space(rng, q, r_max):
    l = rng.randrange(q - 1)
    r = rng.randrange(r_max + 1)
    k = r * (q - 1) + 2 * l
    if k < 1:
        r, k = 1, q - 1 + 2 * l
    return k, l


CLI_SHAPES = ("expand", "identity", "dim", "basis", "congruence",
              "relations", "residue", "corollary")


def _cli_round(rng, fields, tiny):
    """One request of every command shape; ``fields`` holds, per shape, a
    stream that runs through q = 3, 5, 9 in seeded order."""
    reqs = []
    for shape in CLI_SHAPES:
        q = next(fields[shape])
        p, r = FIELDS[q]
        argv = ["--p", str(p), "--r", str(r),
                "--format", rng.choice(("text", "json"))]
        prec = rng.randint(6, 8) if tiny else rng.randint(10, 16)
        if shape == "expand":
            argv += ["expand", rng.choice(_CLI_EXPRS), "--prec", str(prec)]
        elif shape == "identity":
            argv += ["expand", f"Delta_W*Delta_T - E_T^{q - 1}",
                     "--prec", str(prec)]
        elif shape in ("dim", "basis"):
            k, l = _cli_space(rng, q, 6)
            argv += [shape, "--k", str(k), "--l", str(l)]
        elif shape == "congruence":
            k, l = _cli_space(rng, q, 3)
            argv += ["congruence", "--k", str(k), "--l", str(l), "--d", "1",
                     "--b-max", "2" if q == 3 else "1"]
        elif shape == "relations":
            k, l = _cli_space(rng, q, 1 if tiny else 2)
            argv += ["relations", "--k", str(k), "--l", str(l),
                     "--N", str(rng.randint(0, 0 if tiny else 1))]
        elif shape == "residue":
            k, l = _cli_space(rng, q, 1)
            argv += ["residue", "--k", str(k), "--l", str(l)]
        else:
            # the p | l family of the worked examples, at r = 1 so that
            # p^m = p > r + 1
            l = rng.randrange(0, q - 1, p)
            k = (q - 1) + 2 * l
            argv += ["corollary", "--k", str(k), "--l", str(l), "--m", "1"]
        reqs.append(Op(shape, ("cli",) + tuple(argv), cli_request,
                       (tuple(argv),)))
    rng.shuffle(reqs)
    return tuple(reqs)


# ---------------------------------------------------------------------------
# plans
#
# Identity bands stay inside one monic-degree regime of the Carlitz sums
# (at q = 3: g1 below 54 terms, E below 81), so the seed's draw moves an
# op's cost smoothly instead of across a step; per kind they are set so
# the four kinds cost about the same on the seed commit.

DEEP_Q3_BANDS = {"et_pow": (44, 50), "h": (40, 46), "dw": (46, 51),
                 "dt_routes": (60, 72)}
TINY_BANDS = {"et_pow": (8, 10), "h": (8, 10), "dw": (8, 10),
              "dt_routes": (8, 10)}


def _identity_stream(ctx, rng, kind, band):
    """Endless identity ops of one kind whose precisions run through the
    kind's whole band in seeded order."""
    for terms in _epochs(rng, range(band[0], band[1] + 1)):
        yield Op(kind, (kind, ctx.q, terms), IDENTITY_FNS[kind], (ctx, terms))


def _identity_rounds(ctx, rng, bands, n):
    """Rounds of one op of each identity kind, in seeded order."""
    streams = {kind: _identity_stream(ctx, rng, kind, band)
               for kind, band in bands.items()}
    rounds = []
    for _ in range(n):
        kinds = list(IDENTITY_KINDS)
        rng.shuffle(kinds)
        rounds.append(tuple(next(streams[kind]) for kind in kinds))
    return rounds


def _sweep_rounds(ctx, rng, families, n):
    """Rounds of one case from each sweep family, in seeded order."""
    streams = {k: _epochs(rng, families[k]) for k in SWEEP_KINDS}
    rounds = []
    for _ in range(n):
        ops = []
        for kind in SWEEP_KINDS:
            case = next(streams[kind])
            ops.append(Op(kind, (kind, ctx.q) + case, SWEEP_FNS[kind],
                          (ctx,) + case))
        rng.shuffle(ops)
        rounds.append(tuple(ops))
    return rounds


def make_plan(workload, seed, tiny=False):
    """Fields, families and seeded rounds of one workload."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "deep-q3":
        ctx = D.make_field(*FIELDS[3])
        bands = TINY_BANDS if tiny else DEEP_Q3_BANDS
        rounds = _identity_rounds(ctx, rng, bands, 1 if tiny else 150)
        return Plan((3,), "op", 75, 1 if tiny else 6, bands,
                    tuple(rounds))
    if workload == "sweep-q5":
        ctx = D.make_field(*FIELDS[5])
        fams = sweep_families(ctx, pb_max=5 if tiny else 27,
                              r_max=2 if tiny else 7,
                              rel_r_max=1 if tiny else 5,
                              n_max=1 if tiny else 3)
        rounds = _sweep_rounds(ctx, rng, fams, 2 if tiny else 3000)
        return Plan((5,), "run", 90, 2 if tiny else 150, {},
                    tuple(rounds))
    if workload == "cli-mix":
        for p, r in FIELDS.values():
            D.make_field(p, r)
        fields = {shape: _epochs(rng, sorted(FIELDS)) for shape in CLI_SHAPES}
        rounds = [_cli_round(rng, fields, tiny)
                  for _ in range(1 if tiny else 600)]
        return Plan((3, 5, 9), "op", 95, 1 if tiny else 60, {},
                    tuple(rounds))
    raise ValueError(f"unknown workload {workload!r}")
