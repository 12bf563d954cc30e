"""Coefficient congruences for forms of level Gamma_0(T).

The central check: for f in M_{k,l}(Gamma_0(T)) with integral expansion
and parameters satisfying r + 2 + a (q^d - 1)/(q - 1) = p^b, the
coefficient of u^(p^b (q-1) + 1) in f * E_T^(q-l) vanishes modulo
T^(q^d) - T, and vanishes exactly when a = 0.  Each check returns a
witness carrying the full unreduced coefficient so failures stay
debuggable and goldens exact.

The residue route: the Laurent form -g1^a E_T^(q-l) f / Delta_T^(p^b)
is a meromorphic form of weight 2 and type 1 whose residue at infinity
vanishes; in the normalization used here that residue is just the u^1
coefficient, so it is checked exactly, not merely mod T^q - T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadDegree,
    BadPair,
    HypothesisViolated,
    NonIntegralCoefficient,
)
from .fieldpoly import Poly, _special_divmod, special_modulus
from .forms import FormExpr, FormSpec, basis, expand, valid_specs

CONGRUENT_ZERO = "CongruentZero"
EXACT_ZERO = "ExactZero"
FAIL = "Fail"


@dataclass(frozen=True)
class CongruenceWitness:
    """One verified (or falsified) congruence instance."""

    q: int
    k: int
    l: int
    d: int
    a: int
    b: int
    form: str
    exp: int
    coeff: Poly
    modulus: Poly
    residue: Poly
    verdict: str

    def ok(self):
        return self.verdict in (CONGRUENT_ZERO, EXACT_ZERO)

    def json_dict(self):
        return {k: str(v) if isinstance(v, Poly) else v
                for k, v in vars(self).items()}


def _step(ctx, d):
    return (ctx.q ** d - 1) // (ctx.q - 1)


def find_ab(ctx, k, l, d, b_max):
    """All pairs (a, b) with r + 2 + a (q^d - 1)/(q - 1) = p^b, a >= 0 and
    b <= b_max, ascending in b."""
    if d < 1:
        raise BadDegree(f"d = {d} must be at least 1")
    if b_max < 1:
        raise BadDegree(f"b_max = {b_max} must be at least 1")
    r = FormSpec(ctx, k, l).r
    step = _step(ctx, d)
    out = []
    for b in range(1, b_max + 1):
        t = ctx.p ** b - (r + 2)
        if t >= 0 and t % step == 0:
            out.append((t // step, b))
    return out


def _verdict(a, coeff, residue):
    if a == 0:
        return EXACT_ZERO if coeff.is_zero() else FAIL
    return CONGRUENT_ZERO if residue.is_zero() else FAIL


def _witness(ctx, k, l, d, a, b, label, exp, coeff_rf):
    if not coeff_rf.is_integral():
        raise NonIntegralCoefficient(
            f"coefficient of u^{exp} is {coeff_rf}, not in F_q[T]")
    coeff = coeff_rf.num
    modulus = special_modulus(ctx, d)
    # T^(q^d) = T folds the coefficient onto its residue in one sum
    residue = Poly(ctx, _special_divmod(ctx, coeff.arr, d)[1])
    return CongruenceWitness(ctx.q, k, l, d, a, b, label, exp, coeff,
                             modulus, residue, _verdict(a, coeff, residue))


def check_congruence(ctx, form, k, l, d, a, b, prec=None):
    """Check one coefficient congruence for f * E_T^(q-l).

    ``form`` must denote an integral form in M_{k,l}; (a, b) must satisfy
    the parameter equation for the given d.
    """
    if d < 1:
        raise BadDegree(f"d = {d} must be at least 1")
    spec = FormSpec(ctx, k, l)
    form.check_in_space(k, l)
    if spec.r + 2 + a * _step(ctx, d) != ctx.p ** b or a < 0:
        raise BadPair(
            f"(a, b) = ({a}, {b}) fails r + 2 + a (q^d-1)/(q-1) = p^b "
            f"with r = {spec.r}, d = {d}")
    target = ctx.p ** b * (ctx.q - 1) + 1
    if prec is None or prec <= target:
        prec = target + ctx.q
    product = form * FormExpr.generator(ctx, "E_T") ** (ctx.q - l)
    series = expand(product, prec)
    return _witness(ctx, k, l, d, a, b, str(form), target,
                    series.coeff(target))


def check_corollary(ctx, form, k, l, alpha, m):
    """Check the specialization reading a coefficient of f itself.

    Requires p^alpha | l (any alpha when l = 0), 1 <= m <= alpha and
    p^m > r + 1; then a_f((p^m - 1)(q - 1) + l) = 0 mod T^q - T.
    """
    spec = FormSpec(ctx, k, l)
    p, q = ctx.p, ctx.q
    if alpha < 1:
        raise HypothesisViolated(f"alpha = {alpha} must be at least 1")
    if l != 0 and l % p ** alpha != 0:
        raise HypothesisViolated(f"p^alpha = {p ** alpha} does not divide "
                                 f"l = {l}")
    if not 1 <= m <= alpha:
        raise HypothesisViolated(f"m = {m} is not in [1, alpha = {alpha}]")
    if p ** m <= spec.r + 1:
        raise HypothesisViolated(
            f"p^m = {p ** m} is not greater than r + 1 = {spec.r + 1}")
    form.check_in_space(k, l)
    exp = (p ** m - 1) * (q - 1) + l
    series = expand(form, exp + q)
    coeff_rf = series.coeff(exp)
    if not coeff_rf.is_integral():
        raise HypothesisViolated(
            f"expansion of {form} is not integral at u^{exp}")
    # the same instance seen through the product check has d = 1, b = m
    a = p ** m - (spec.r + 2)
    return _witness(ctx, k, l, 1, a, m, str(form), exp, coeff_rf)


def residue_normalized(series):
    """The u^1 coefficient, i.e. the residue at infinity in the
    normalization that absorbs the period."""
    return series.coeff(1)


def build_residue_form(ctx, form, k, l, a, prec=None):
    """The weight-2 type-1 Laurent form -g1^a E_T^(q-l) f / Delta_T^(p^b),
    defined when r + 2 + a = p^b for some b (the d = 1 shape)."""
    spec = FormSpec(ctx, k, l)
    form.check_in_space(k, l)
    if a < 0:
        raise BadPair(f"a = {a} must be nonnegative")
    pb = spec.r + 2 + a
    b = 0
    n = pb
    while n % ctx.p == 0:
        n //= ctx.p
        b += 1
    if n != 1 or b < 1:
        raise BadPair(f"r + 2 + a = {pb} is not a positive power of p")
    if prec is None:
        prec = ctx.q + 1
    expr = (-(FormExpr.generator(ctx, "g1") ** a)
            * FormExpr.generator(ctx, "E_T") ** (ctx.q - l)
            * form
            * FormExpr.generator(ctx, "Delta_T") ** (-pb))
    return expand(expr, prec)


# ---------------------------------------------------------------------------
# sweep drivers: one single-case check per entry


def _b_max(ctx, pb_max):
    """The largest b with p^b <= pb_max, or 0 when pb_max < p."""
    b = 0
    while ctx.p ** (b + 1) <= pb_max:
        b += 1
    return b


def sweep_congruence(ctx, r_max=7, d_values=(1, 2), pb_max=27):
    """``check_congruence`` on every basis monomial of every space with
    r <= r_max, every d in d_values and every p^b <= pb_max."""
    b_max = _b_max(ctx, pb_max)
    if b_max == 0:
        return []
    return [check_congruence(ctx, mono.expr(ctx), k, l, d, a, b)
            for k, l, _ in valid_specs(ctx, r_max)
            for d in d_values
            for a, b in find_ab(ctx, k, l, d, b_max)
            for mono in basis(ctx, k, l)]


def sweep_residues(ctx, r_max=7, pb_max=27):
    """Exact residues of the weight-2 Laurent forms for every d = 1 case
    in the sweep, one ``build_residue_form`` each; each entry carries the
    residue as a string."""
    b_max = _b_max(ctx, pb_max)
    if b_max == 0:
        return []
    return [{"q": ctx.q, "k": k, "l": l, "a": a, "b": b,
             "form": mono.label(),
             "residue": str(residue_normalized(
                 build_residue_form(ctx, mono.expr(ctx), k, l, a)))}
            for k, l, _ in valid_specs(ctx, r_max)
            for a, b in find_ab(ctx, k, l, 1, b_max)
            for mono in basis(ctx, k, l)]
