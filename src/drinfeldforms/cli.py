"""Command-line frontend.

Commands: expand, dim, basis, congruence, corollary, relations, residue,
selftest.  Exit codes: 0 everything verified, 1 a mathematical check
failed, 2 usage or parse error, 3 precision error, 4 out of memory.
Output is fully deterministic; repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .congruence import (
    build_residue_form,
    check_congruence,
    check_corollary,
    find_ab,
    residue_normalized,
)
from .errors import (
    BadDegree,
    BadPair,
    BadWeight,
    DrinfeldError,
    EmptySpace,
    ExprError,
    HypothesisViolated,
    NonIntegralCoefficient,
    NotMonic,
    NotOddPrime,
    PrecisionExceeded,
    ZeroInput,
)
from .fieldpoly import make_field
from .forms import FormExpr, basis, expand, space_dim
from .relations import relation_report
from .selftest import run_selftest

_USAGE_ERRORS = (ExprError, BadWeight, BadDegree, NotOddPrime, BadPair,
                 HypothesisViolated, EmptySpace, NotMonic, ZeroInput,
                 NonIntegralCoefficient, ValueError)


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _default_expand_prec(ctx):
    # enough to show every displayed head, h included
    return 2 * ctx.q * (ctx.q - 1) + 2


def cmd_expand(ctx, args):
    expr = FormExpr.parse(ctx, args.expr)
    prec = args.prec if args.prec is not None else _default_expand_prec(ctx)
    series = expand(expr, prec)
    if args.format == "json":
        _emit_json(series.json_dict())
    else:
        print(f"q={ctx.q} expr={expr} val={series.val} prec={series.prec}")
        for e, c in series.terms():
            print(f"u^{e}: {c}")
        if series.is_zero():
            print(f"0 + O(u^{series.prec})")
    return 0


def cmd_dim(ctx, args):
    d = space_dim(ctx, args.k, args.l)
    if args.format == "json":
        _emit_json({"q": ctx.q, "k": args.k, "l": args.l, "dim": d})
    else:
        print(d)
    return 0


def cmd_basis(ctx, args):
    monos = basis(ctx, args.k, args.l)
    labels = [m.label() for m in monos]
    if args.format == "json":
        _emit_json({"q": ctx.q, "k": args.k, "l": args.l, "basis": labels})
    else:
        for s in labels:
            print(s)
    return 0


def cmd_congruence(ctx, args):
    pairs = find_ab(ctx, args.k, args.l, args.d, args.b_max)
    witnesses = []
    for a, b in pairs:
        for mono in basis(ctx, args.k, args.l):
            witnesses.append(check_congruence(
                ctx, mono.expr(ctx), args.k, args.l, args.d, a, b,
                prec=args.prec))
    ok = all(w.ok() for w in witnesses)
    if args.format == "json":
        _emit_json({"q": ctx.q, "k": args.k, "l": args.l, "d": args.d,
                    "pairs": [list(p) for p in pairs],
                    "witnesses": [w.json_dict() for w in witnesses],
                    "all_ok": ok})
    else:
        if not pairs:
            print(f"no (a, b) pairs with b <= {args.b_max}")
        for w in witnesses:
            print(f"k={w.k} l={w.l} d={w.d} a={w.a} b={w.b} f={w.form} "
                  f"exp={w.exp} residue={w.residue} verdict={w.verdict}")
    return 0 if ok else 1


def cmd_corollary(ctx, args):
    alpha = args.alpha
    if alpha is None:
        if args.l == 0:
            alpha = args.m
        else:
            alpha = 0
            l = args.l
            while l % ctx.p == 0:
                l //= ctx.p
                alpha += 1
            if alpha == 0:
                raise HypothesisViolated(
                    f"p = {ctx.p} does not divide l = {args.l}")
    witnesses = [check_corollary(ctx, mono.expr(ctx), args.k, args.l,
                                 alpha, args.m)
                 for mono in basis(ctx, args.k, args.l)]
    ok = all(w.ok() for w in witnesses)
    if args.format == "json":
        _emit_json({"q": ctx.q, "k": args.k, "l": args.l, "m": args.m,
                    "alpha": alpha,
                    "witnesses": [w.json_dict() for w in witnesses],
                    "all_ok": ok})
    else:
        for w in witnesses:
            print(f"k={w.k} l={w.l} f={w.form} exp={w.exp} "
                  f"residue={w.residue} verdict={w.verdict}")
    return 0 if ok else 1


def cmd_relations(ctx, args):
    if args.N < 0:
        raise ValueError(f"N = {args.N} must be nonnegative")
    rep = relation_report(ctx, args.k, args.l, args.N)
    ok = (rep["report"]["spans_equal"] and rep["report"]["annihilates"]
          and rep["report"]["phi_rank"] == args.N + 1)
    if args.format == "json":
        _emit_json(rep)
    else:
        for row in rep["phi"]:
            print(f"phi[{row['basis_g']}] b=[{', '.join(row['b'])}]")
        for v in rep["kernel"]:
            print(f"kernel [{', '.join(v)}]")
        r = rep["report"]
        print(f"phi_rank={r['phi_rank']} kernel_dim={r['kernel_dim']} "
              f"spans_equal={r['spans_equal']} "
              f"annihilates={r['annihilates']}")
    return 0 if ok else 1


def cmd_residue(ctx, args):
    a = args.a
    if a is None:
        pairs = find_ab(ctx, args.k, args.l, 1, 8)
        if not pairs:
            raise ValueError("no valid a found with b <= 8; pass --a")
        a = pairs[0][0]
    results = []
    for mono in basis(ctx, args.k, args.l):
        g = build_residue_form(ctx, mono.expr(ctx), args.k, args.l, a,
                               prec=args.prec)
        results.append((mono.label(), residue_normalized(g)))
    ok = all(r.is_zero() for _, r in results)
    if args.format == "json":
        _emit_json({"q": ctx.q, "k": args.k, "l": args.l, "a": a,
                    "residues": [{"form": f, "residue": str(r)}
                                 for f, r in results],
                    "all_zero": ok})
    else:
        for f, r in results:
            print(f"f={f} residue={r}")
    return 0 if ok else 1


def cmd_selftest(ctx, args):
    lines, ok = run_selftest(profile=args.profile)
    if args.format == "json":
        _emit_json({"profile": args.profile, "lines": lines, "all_ok": ok})
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _add_globals(parser, suppress):
    # the same flags live on the root parser and on every subcommand, so
    # they may be given on either side of the command word; subcommand
    # copies suppress their defaults to avoid clobbering parsed values
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--p", type=int,
                        help="odd prime characteristic (default 3)",
                        **({"default": 3} if not suppress else kw))
    parser.add_argument("--r", type=int,
                        help="extension degree, q = p^r (default 1)",
                        **({"default": 1} if not suppress else kw))
    parser.add_argument("--prec", type=_positive_int,
                        help="raise the working precision",
                        **({"default": None} if not suppress else kw))
    parser.add_argument("--format", choices=("text", "json"),
                        help="output format",
                        **({"default": "text"} if not suppress else kw))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drinfeldforms",
        description="Exact u-series arithmetic for Drinfeld modular forms "
                    "of level Gamma_0(T), with congruence and relation "
                    "checks.")
    _add_globals(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, weight=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if weight:
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--l", type=int, required=True)
        return p

    command("expand", cmd_expand, "expand a form expression",
            weight=False).add_argument("expr")
    command("dim", cmd_dim, "dimension of M_{k,l}")
    command("basis", cmd_basis, "monomial basis of M_{k,l}")
    p = command("congruence", cmd_congruence,
                "check the product-coefficient congruences")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--b-max", dest="b_max", type=int, default=2)
    p = command("corollary", cmd_corollary,
                "check the coefficient-of-f specialization")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=int, default=None,
                   help="p-adic valuation bound (derived from l if absent)")
    p = command("relations", cmd_relations, "relation space by both routes")
    p.add_argument("--N", type=int, required=True)
    p = command("residue", cmd_residue,
                "residues of the weight-2 Laurent forms")
    p.add_argument("--a", type=int, default=None)
    p = command("selftest", cmd_selftest, "run the acceptance sweep",
                weight=False)
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    # the global flags come last on every subcommand
    for p in sub.choices.values():
        _add_globals(p, suppress=True)
    return parser


_PARSER = None  # built on the first call, then reused by every later one


def main(argv=None):
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    try:
        ctx = make_field(args.p, args.r)
        return args.func(ctx, args)
    except PrecisionExceeded as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DrinfeldError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # numpy's _ArrayMemoryError included
        print("error: out of memory; the request is too large",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
