import random

import pytest

from drinfeldforms import congruence
from drinfeldforms.congruence import (
    CONGRUENT_ZERO,
    EXACT_ZERO,
    build_residue_form,
    check_congruence,
    check_corollary,
    find_ab,
    residue_normalized,
    sweep_congruence,
    sweep_residues,
)
from drinfeldforms.errors import (
    BadDegree,
    BadPair,
    BadWeight,
    HypothesisViolated,
)
from drinfeldforms.fieldpoly import (FqElem, Poly, RatFunc, make_field,
                                    special_modulus)
from drinfeldforms.forms import FormExpr, basis, expand, get_form

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)


def gen(ctx, name):
    return FormExpr.generator(ctx, name)


# ---------------------------------------------------------------------------
# parameter search


def test_find_ab_d1():
    assert find_ab(F3, 4, 1, 1, 3) == [(0, 1), (6, 2), (24, 3)]


def test_find_ab_d2():
    # step (q^2-1)/(q-1) = 4; p^2 = 9 gives no solution since 6 % 4 != 0
    assert find_ab(F3, 4, 1, 2, 3) == [(0, 1), (6, 3)]


def test_find_ab_empty_and_validation():
    # d=2 step is 4 and r+2 = 2: p^b - 2 is 1, 7, 25 mod 4 = 1, 3, 1
    assert find_ab(F3, 2, 1, 2, 3) == []
    with pytest.raises(BadDegree):
        find_ab(F3, 4, 1, 0, 3)
    with pytest.raises(BadDegree):
        find_ab(F3, 4, 1, 1, 0)
    with pytest.raises(BadWeight):
        find_ab(F3, 3, 1, 1, 3)


# ---------------------------------------------------------------------------
# the product congruence


def test_check_congruence_exact_zero_cases():
    # q=3, (k,l) = (4,1), (a,b) = (0,1): u^7 coefficient of f E_T^2
    for label in ("Delta_W*E_T", "Delta_T*E_T"):
        form = FormExpr.parse(F3, label)
        w = check_congruence(F3, form, 4, 1, 1, 0, 1)
        assert w.verdict == EXACT_ZERO
        assert w.exp == 7
        assert w.coeff.is_zero()


def test_check_congruence_oracle_coefficient():
    # independent route: expand f E_T^2 directly and read u^7
    form = FormExpr.parse(F3, "Delta_W*E_T")
    series = expand(form * gen(F3, "E_T") ** 2, 10)
    assert series.coeff(7).is_zero()


def test_check_congruence_mod_T3_minus_T():
    # q=3, (k,l) = (6,1), (a,b) = (5,2): u^19 coefficient mod T^3 - T
    for mono in basis(F3, 6, 1):
        w = check_congruence(F3, mono.expr(F3), 6, 1, 1, 5, 2)
        assert w.verdict == CONGRUENT_ZERO
        assert w.exp == 19
        assert w.residue.is_zero()
        assert w.modulus == special_modulus(F3, 1)


def test_check_congruence_d2():
    for mono in basis(F3, 4, 1):
        w = check_congruence(F3, mono.expr(F3), 4, 1, 2, 6, 3)
        assert w.ok()
        assert w.modulus == special_modulus(F3, 2)


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
@pytest.mark.parametrize("d", (1, 2))
def test_witness_residue_is_the_remainder(ctx, d):
    # the folded residue against Poly division, on coefficients below, at
    # and far above the degree q^d of the modulus
    rng = random.Random(10 * ctx.q + d)
    modulus = special_modulus(ctx, d)
    for n in (1, 2, ctx.q ** d, ctx.q ** d + 1, 3 * ctx.q ** d + 2):
        coeff = Poly.from_coeffs(ctx, [FqElem(ctx, rng.randrange(ctx.q))
                                       for _ in range(n)])
        w = congruence._witness(ctx, 2, 1, d, 1, 1, "f", 3, RatFunc(coeff))
        assert w.modulus == modulus
        assert w.residue == coeff % modulus
        assert w.verdict == (CONGRUENT_ZERO if (coeff % modulus).is_zero()
                             else congruence.FAIL)


def test_check_congruence_rejects_bad_pair():
    form = FormExpr.parse(F3, "Delta_W*E_T")
    with pytest.raises(BadPair):
        check_congruence(F3, form, 4, 1, 1, 1, 1)


def test_check_congruence_rejects_wrong_space():
    with pytest.raises(BadWeight):
        check_congruence(F3, FormExpr.parse(F3, "Delta_W"), 4, 1, 1, 0, 1)
    with pytest.raises(BadWeight):
        check_congruence(F3, FormExpr.parse(F3, "E"), 2, 1, 1, 1, 1)


def test_witness_json_golden():
    w = check_congruence(F3, FormExpr.parse(F3, "Delta_W*E_T"),
                         4, 1, 1, 0, 1)
    assert w.json_dict() == {
        "q": 3, "k": 4, "l": 1, "d": 1, "a": 0, "b": 1,
        "form": "Delta_W*E_T", "exp": 7,
        "coeff": "0", "modulus": "T^3 + 2*T", "residue": "0",
        "verdict": "ExactZero",
    }


def test_witness_monotone_in_precision():
    form = FormExpr.parse(F3, "Delta_T^2*E_T")
    w1 = check_congruence(F3, form, 6, 1, 1, 5, 2)
    w2 = check_congruence(F3, form, 6, 1, 1, 5, 2, prec=40)
    assert w1 == w2


# ---------------------------------------------------------------------------
# the coefficient-of-f specialization


def test_corollary_q9_paper_example():
    w = check_corollary(F9, FormExpr.parse(F9, "E_T^6"), 12, 6, 1, 1)
    assert w.exp == 22
    assert w.residue.is_zero()
    assert w.ok()


def test_q9_exact_zero_family():
    # a(16 + 3m) of E_T^(3m) vanishes exactly for 3m < q - 1
    et = get_form(F9, "E_T", 30)
    for m in (1, 2):
        series = et ** (3 * m)
        assert series.coeff(16 + 3 * m).is_zero()


@pytest.mark.parametrize("ctx,l_values", ((F3, (0,)), (F9, (0, 3, 6))),
                         ids=("q3", "q9"))
def test_corollary_p_divides_l_family(ctx, l_values):
    # f = g1^(p-2) E_T^l lies in M_((q-1)(p-2)+2l, l); its coefficient at
    # (p-1)(q-1)+l vanishes mod T^q - T
    p, q = ctx.p, ctx.q
    for l in l_values:
        form = gen(ctx, "g1") ** (p - 2) * gen(ctx, "E_T") ** l
        k = (q - 1) * (p - 2) + 2 * l
        alpha = 1  # p divides l in every listed case (l = 0 passes too)
        w = check_corollary(ctx, form, k, l, alpha, 1)
        assert w.exp == (p - 1) * (q - 1) + l
        assert w.residue.is_zero()
        assert w.ok()


def test_corollary_hypothesis_validation():
    with pytest.raises(HypothesisViolated):
        check_corollary(F9, FormExpr.parse(F9, "E_T^4"), 8, 4, 1, 1)  # 3 | 4 fails
    with pytest.raises(HypothesisViolated):
        check_corollary(F9, FormExpr.parse(F9, "E_T^6"), 12, 6, 1, 2)  # m > alpha
    with pytest.raises(HypothesisViolated):
        # r + 1 = p^m: the size hypothesis fails
        check_corollary(F3, FormExpr.parse(F3, "Delta_W^2"), 4, 0, 1, 1)


def test_corollary_agrees_with_product_check():
    # the specialization equals the product check at (d, a, b) = (1, p^m - r - 2, m)
    cases = [
        (F9, FormExpr.parse(F9, "E_T^6"), 12, 6, 1),
        (F3, FormExpr.parse(F3, "g1"), 2, 0, 1),
    ]
    for ctx, form, k, l, m in cases:
        wc = check_corollary(ctx, form, k, l, 1, m)
        r = (k - 2 * l) // (ctx.q - 1)
        a = ctx.p ** m - (r + 2)
        wm = check_congruence(ctx, form, k, l, 1, a, m)
        assert wc.coeff == wm.coeff
        assert wc.residue == wm.residue
        assert wc.verdict == wm.verdict


# ---------------------------------------------------------------------------
# residues


def test_residue_of_named_forms():
    et = get_form(F3, "E_T", 6)
    h = get_form(F3, "h", 6)
    assert residue_normalized(et).is_one()
    assert str(residue_normalized(h)) == "2"


def test_residue_form_example():
    g = build_residue_form(F3, FormExpr.parse(F3, "Delta_W*E_T"), 4, 1, 0)
    assert residue_normalized(g).is_zero()


def test_residue_form_valuation_bound():
    q = F3.q
    for a, pb in ((0, 3), (6, 9)):
        g = build_residue_form(F3, FormExpr.parse(F3, "Delta_W*E_T"),
                               4, 1, a, prec=6)
        assert g.val >= q - pb * (q - 1)


def test_residue_form_rejects_bad_a():
    with pytest.raises(BadPair):
        build_residue_form(F3, FormExpr.parse(F3, "Delta_W*E_T"), 4, 1, 1)


@pytest.mark.parametrize("a", (-1, -3, -4))
def test_residue_form_rejects_negative_a(a):
    # a = -3 makes r + 2 + a = 0 for (k, l) = (4, 1) at q = 3
    with pytest.raises(BadPair):
        build_residue_form(F3, FormExpr.parse(F3, "Delta_W*E_T"), 4, 1, a)


def test_residue_form_congruent_to_product():
    # -G = g1^a E_T^(q-l) f / Delta_T^(p^b) agrees with the g1-free
    # quotient coefficientwise mod T^q - T
    ctx = F3
    form = FormExpr.parse(ctx, "Delta_T*E_T")
    a, b = 6, 2
    pb = ctx.p ** b
    prec = 6
    g = build_residue_form(ctx, form, 4, 1, a, prec=prec)
    plain = expand(gen(ctx, "E_T") ** 2 * form
                   * gen(ctx, "Delta_T") ** (-pb), prec)
    bracket = special_modulus(ctx, 1)
    for e in range(plain.val, prec):
        diff = (-g).coeff(e) - plain.coeff(e)
        assert diff.is_integral()
        assert (diff.num % bracket).is_zero()


# ---------------------------------------------------------------------------
# small sweeps (the full ones run in the acceptance suite)


def test_sweep_congruence_small():
    ws = sweep_congruence(F3, r_max=3, d_values=(1, 2), pb_max=9)
    assert ws, "sweep produced no witnesses"
    for w in ws:
        assert w.ok(), w.json_dict()
        if w.a == 0:
            assert w.verdict == EXACT_ZERO


def test_sweep_residues_small():
    reports = sweep_residues(F3, r_max=3, pb_max=9)
    assert reports
    for rep in reports:
        assert rep["residue"] == "0", rep


def test_sweep_deterministic():
    a = [w.json_dict() for w in sweep_congruence(F3, r_max=2, pb_max=9)]
    b = [w.json_dict() for w in sweep_congruence(F3, r_max=2, pb_max=9)]
    assert a == b


@pytest.mark.parametrize("ctx", (F3, F5), ids=("q3", "q5"))
def test_sweeps_empty_below_p(ctx):
    # no b >= 1 has p^b <= 2, and find_ab would reject b_max = 0
    assert sweep_congruence(ctx, pb_max=2) == []
    assert sweep_residues(ctx, pb_max=2) == []


def test_sweeps_make_one_single_case_call_per_entry(monkeypatch):
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn(*args, **kwargs))
            return calls[-1]
        return wrapped

    monkeypatch.setattr(congruence, "check_congruence",
                        spy(check_congruence))
    ws = sweep_congruence(F3, r_max=3, d_values=(1, 2), pb_max=9)
    assert len(ws) == len(calls) > 0
    assert all(w is c for w, c in zip(ws, calls))
    calls.clear()
    monkeypatch.setattr(congruence, "build_residue_form",
                        spy(build_residue_form))
    reports = sweep_residues(F3, r_max=3, pb_max=9)
    assert len(reports) == len(calls) > 0
    assert [rep["residue"] for rep in reports] == [
        str(residue_normalized(g)) for g in calls]
