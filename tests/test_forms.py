import pytest
from hypothesis import given, settings, strategies as st

from drinfeldforms import fieldpoly, forms, useries
from drinfeldforms.carlitz import monic_series_sum
from drinfeldforms.errors import (
    BadWeight,
    DivisionNotExact,
    EmptySpace,
    ExprError,
    PrecisionExceeded,
)
from drinfeldforms.fieldpoly import (Poly, RatFunc, _power, make_field,
                                    ratfunc_parse, special_modulus)
from drinfeldforms.forms import (
    GENERATOR_NAMES,
    BasisMonomial,
    FormExpr,
    FormSpec,
    basis,
    basis_series,
    build_DeltaT,
    build_DeltaT_from_monic_sum,
    build_DeltaW,
    build_E,
    build_ET,
    build_g1,
    build_h,
    clear_form_cache,
    expand,
    get_form,
    space_dim,
    valid_specs,
)
from drinfeldforms.useries import USeries

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)
FIELDS = (F3, F5, F9)


def one(ctx):
    return RatFunc.constant(ctx, 1)


# ---------------------------------------------------------------------------
# the false Eisenstein series E


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_E_leading_coefficients(ctx):
    q = ctx.q
    e = build_E(ctx, 2 * q + 2)
    assert e.coeff(1).is_one()
    # sum over c in F_q of (T + c) vanishes in characteristic p
    assert e.coeff(q).is_zero()
    assert e.val == 1
    assert e.integral


def test_E_u5_coefficient_q3():
    # oracle: the u^5 coefficient is -(sum over c of (T+c)^2), computed
    # directly from the degree-one expansions u(az) = u^3 - a u^5 + ...
    T = Poly.T(F3)
    acc = Poly.zero(F3)
    for c in range(3):
        acc = acc + (T + c) * (T + c)
    expected = RatFunc(-acc)
    assert expected == RatFunc.constant(F3, 1)  # -2 = 1 mod 3
    e = build_E(F3, 8)
    assert e.coeff(5) == expected


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_ET_prime_to_T_route(ctx):
    # independent route: subtracting T E(Tz) exactly removes the terms of
    # the monic sum at multiples of T, so E_T = sum of a u(az) over monic
    # a not divisible by T
    q = ctx.q
    prec = q * q + q
    et = build_ET(ctx, prec)
    T = Poly.T(ctx)

    def weight(a):
        return Poly.zero(ctx) if (a % T).is_zero() else a

    direct = monic_series_sum(ctx, weight, 1, prec)
    assert et.agrees_with(direct)


# ---------------------------------------------------------------------------
# displayed expansions of the named forms


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_ET_displayed_coefficients(ctx):
    q = ctx.q
    et = build_ET(ctx, 2 * q)
    assert et.coeff(1).is_one()
    assert et.coeff(q) == RatFunc(-Poly.T(ctx))
    assert et.integral
    assert et.support_class == 1 % (q - 1)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_g1_displayed_coefficients(ctx):
    q = ctx.q
    g1 = build_g1(ctx, q * (q - 1) + 2)
    bracket = special_modulus(ctx, 1)
    assert g1.coeff(0).is_one()
    assert g1.coeff(q - 1) == RatFunc(-bracket)
    assert g1.integral
    assert g1.support_class == 0
    # every nonconstant coefficient is divisible by T^q - T
    for e, c in g1.terms():
        if e:
            assert (c.num % bracket).is_zero()


def g1_oracle(ctx, prec):
    """g1 = 1 - (T^q - T) * sum of u(az)^(q-1), the sum taken over every
    monic a: one series inverse per monic, against one per degree in
    ``build_g1``."""
    if prec < ctx.q:
        raise ValueError("prec must be at least q")
    s = monic_series_sum(ctx, lambda a: Poly.one(ctx), ctx.q - 1, prec)
    return USeries.one(ctx, prec) - s * special_modulus(ctx, 1)


def assert_same_series(f, g):
    assert (f.val, f.prec, f.den, f.coeffs, f.support_class) == (
        g.val, g.prec, g.den, g.coeffs, g.support_class)
    assert f.exps.tolist() == g.exps.tolist()
    assert f.block.shape == g.block.shape
    assert f.block.tolist() == g.block.tolist()


@pytest.mark.parametrize("ctx,prec", ((F3, 320), (F5, 160), (F9, 110)),
                         ids=("q3", "q5", "q9"))
def test_g1_matches_per_monic_oracle(ctx, prec):
    # the full window; at q = 3, prec 320 the lattice sum runs over
    # degrees 0 .. 2 and the oracle over degrees 0 .. 4
    assert_same_series(build_g1(ctx, prec), g1_oracle(ctx, prec))


@pytest.mark.parametrize("prec", (60, 72))
def test_DeltaT_routes_agree_on_the_deep_band(prec):
    # the two routes of criterion 3 at the two ends of the deep q = 3
    # band: g1(Tz) against the batched sum over monic a prime to T
    clear_form_cache()
    assert_same_series(build_DeltaT_from_monic_sum(F3, prec),
                       build_DeltaT(F3, prec))


def E_oracle(ctx, prec):
    """E = sum of a * u(az) over every monic a: one series inverse per
    monic, against one inverse of Delta_T in ``build_E``."""
    if prec < 2:
        raise ValueError("prec must be at least 2")
    return monic_series_sum(ctx, lambda a: a, 1, prec)


# every precision from the lowest up to a cap, and one deep precision
E_PRECS = {3: (90, 320), 5: (60, 200), 9: (40, 120)}


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_E_and_ET_match_per_monic_oracle(ctx):
    # E as Theta(Delta_T) / Delta_T and E_T = E - T E(Tz) against the
    # per-monic sum, on the full window: each build runs once from an
    # empty cache and once with Delta_T cached deeper than it needs
    q = ctx.q
    top, deep = E_PRECS[q]
    T = Poly.T(ctx)
    for prec in [*range(2, top + 1), deep]:
        e = E_oracle(ctx, prec)
        et = e - e.substitute_Tz(out_prec=prec) * T
        for warm in (False, True):
            clear_form_cache()
            if warm:
                get_form(ctx, "Delta_T", prec + 2 * q)
            assert_same_series(build_E(ctx, prec), e)
            if prec >= q + 1:
                clear_form_cache()
                if warm:
                    get_form(ctx, "Delta_T", prec + 2 * q)
                assert_same_series(build_ET(ctx, prec), et)
    clear_form_cache()


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_ET_is_E_minus_log_derivative_of_DeltaW(ctx):
    # T E(Tz) = Theta(Delta_W) / Delta_W, with E from the per-monic sum:
    # an E_T route that shares no step with build_ET
    q = ctx.q
    prec = 3 * q * (q - 1)
    dw = build_DeltaW(ctx, prec)
    e = E_oracle(ctx, prec)
    tet = dw.theta() * dw.inverse()
    assert tet.prec >= prec
    assert tet.agrees_with(e.substitute_Tz(out_prec=prec) * Poly.T(ctx))
    assert build_ET(ctx, prec) == (e - tet).truncate(prec)


# the lowest precision each builder accepts, and a cap on P for the
# builds at 2P
PREC_RANGE = {3: (3, 60), 5: (5, 60), 9: (9, 90)}


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
@pytest.mark.parametrize("build", (build_g1, build_E,
                                   build_DeltaT_from_monic_sum),
                         ids=lambda b: b.__name__)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_builds_at_P_are_builds_at_2P_truncated(ctx, build, data):
    # the precision-window contract: a series built to P agrees with the
    # same build to 2P cut down to P, and reading at P raises
    prec = data.draw(st.integers(*PREC_RANGE[ctx.q]), label="prec")
    f = build(ctx, prec)
    assert_same_series(f, build(ctx, 2 * prec).truncate(prec))
    with pytest.raises(PrecisionExceeded):
        f.coeff(prec)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_DeltaT_displayed_coefficients(ctx):
    q = ctx.q
    dt = build_DeltaT(ctx, q * (q - 1) + 2)
    assert dt.val == q - 1
    assert dt.coeff(q - 1).is_one()
    assert dt.coeff(q * (q - 1)) == RatFunc.constant(ctx, -1)
    assert dt.integral


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_DeltaW_displayed_coefficients(ctx):
    q = ctx.q
    dw = build_DeltaW(ctx, q * (q - 1) + 2)
    T = Poly.T(ctx)
    assert dw.coeff(0).is_one()
    assert dw.coeff(q - 1) == RatFunc(T)
    assert dw.coeff(q * (q - 1)) == RatFunc(-(T ** q))
    assert dw.integral


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_h_displayed_coefficients(ctx):
    q = ctx.q
    h = build_h(ctx, (q - 1) ** 2 + 3)
    assert h.coeff(1) == RatFunc.constant(ctx, -1)
    assert h.coeff((q - 1) ** 2 + 1) == RatFunc.constant(ctx, -1)
    # the display's gap: nothing between u and u^((q-1)^2+1)
    for j in range(1, q - 1):
        assert h.coeff(j * (q - 1) + 1).is_zero()
    assert h.integral
    assert h.support_class == 1 % (q - 1)


# ---------------------------------------------------------------------------
# structural identities


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_ET_power_identity(ctx):
    # E_T^(q-1) = Delta_W * Delta_T ties together both monic sums and the
    # substitution operator; checked deeper in the acceptance suite
    q = ctx.q
    prec = 3 * q * (q - 1)
    et = get_form(ctx, "E_T", prec)
    dw = get_form(ctx, "Delta_W", prec)
    dt = get_form(ctx, "Delta_T", prec)
    assert (et ** (q - 1)).agrees_with(dw * dt)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_DeltaT_route_equivalence(ctx):
    q = ctx.q
    prec = 2 * q * (q - 1) + 2
    a = build_DeltaT(ctx, prec)
    b = build_DeltaT_from_monic_sum(ctx, prec)
    assert a == b


def DeltaT_oracle(ctx, prec):
    """(g1(Tz) - g1) times the inverse of T^q - T in F_q(T): the division
    by the series constructor's long division and gcd."""
    g1 = build_g1(ctx, prec)
    return (g1.substitute_Tz(out_prec=prec) - g1) * RatFunc(
        special_modulus(ctx, 1)).inverse()


@pytest.mark.parametrize("ctx", (F3, F5, make_field(7, 1), F9,
                                 make_field(5, 2), make_field(3, 3)),
                         ids=lambda c: f"q{c.q}")
def test_DeltaT_matches_division_in_FqT(ctx):
    q = ctx.q
    low = q * (q - 1) + 1
    for prec in (low, low + 1, low + q, 2 * low + 3):
        assert build_DeltaT(ctx, prec) == DeltaT_oracle(ctx, prec)


def test_DeltaT_of_a_non_multiple_raises(monkeypatch):
    # g1 + u^2: the difference keeps -u^2, which T^3 - T does not divide
    real = forms.build_g1

    def off(ctx, prec):
        return real(ctx, prec) + USeries(ctx, {ctx.q - 1: 1}, prec)
    monkeypatch.setattr(forms, "build_g1", off)
    with pytest.raises(DivisionNotExact, match="not divisible by T\\^q - T"):
        build_DeltaT(F3, 20)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_DeltaT_runs_no_long_division_and_no_gcd(ctx, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(fieldpoly, "_rows_divmod",
                        counted("_rows_divmod", fieldpoly._rows_divmod))
    monkeypatch.setattr(useries, "_lowest_terms",
                        counted("_lowest_terms", useries._lowest_terms))
    q = ctx.q
    out = build_DeltaT(ctx, 2 * q * (q - 1) + 2)
    assert calls == []
    monkeypatch.undo()
    assert out == DeltaT_oracle(ctx, 2 * q * (q - 1) + 2)


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_DeltaW_definitional_route(ctx):
    # (T^q g1(Tz) - T g1(z)) / (T^q - T) agrees with g1 + T^q Delta_T
    q = ctx.q
    prec = 2 * q * (q - 1) + 2
    T = Poly.T(ctx)
    g1 = build_g1(ctx, prec)
    lhs = (g1.substitute_Tz(out_prec=prec) * (T ** q) - g1 * T) * RatFunc(
        special_modulus(ctx, 1)).inverse()
    assert lhs.agrees_with(build_DeltaW(ctx, prec))


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_support_classes(ctx):
    q = ctx.q
    prec = q * (q - 1) + 2
    for name, cls in (("E_T", 1 % (q - 1)), ("h", 1 % (q - 1)),
                      ("g1", 0), ("Delta_T", 0), ("Delta_W", 0)):
        f = get_form(ctx, name, prec)
        assert f.support_class == cls
        for e, _ in f.terms():
            assert e % (q - 1) == cls


# ---------------------------------------------------------------------------
# spaces and bases


def test_space_dim_examples():
    assert space_dim(F9, 12, 6) == 1
    for ctx in FIELDS:
        assert space_dim(ctx, ctx.q - 1, 0) == 2
    assert space_dim(F3, 3, 1) == 0  # 3 is not congruent to 2 mod 2


def test_space_dim_weight_zero_constants():
    assert space_dim(F3, 0, 0) == 1
    assert space_dim(F3, 0, 1) == 0


def test_basis_examples():
    b = basis(F3, 4, 1)
    assert [m.label() for m in b] == ["Delta_W*E_T", "Delta_T*E_T"]
    b = basis(F3, 2, 0)
    assert [m.label() for m in b] == ["Delta_W", "Delta_T"]
    with pytest.raises(EmptySpace):
        basis(F3, 3, 1)


def test_basis_weights_and_types():
    for ctx in (F3, F5):
        for l in range(ctx.q - 1):
            for r in range(4):
                k = r * (ctx.q - 1) + 2 * l
                if k < 1:
                    continue
                for m in basis(ctx, k, l):
                    assert m.weight(ctx) == k
                    assert m.type_lift(ctx) == l % (ctx.q - 1)


def test_formspec_validation():
    with pytest.raises(BadWeight):
        FormSpec(F3, 4, 2)  # l out of range for q = 3
    with pytest.raises(BadWeight):
        FormSpec(F3, -2, 0)
    assert FormSpec(F3, 4, 1).r == 1


# ---------------------------------------------------------------------------
# expressions and evaluation


def test_expr_parse_and_render():
    e = FormExpr.parse(F3, "Delta_W*Delta_T - E_T^2")
    assert str(e) == "Delta_W*Delta_T + 2*E_T^2"
    e2 = FormExpr.parse(F3, str(e))
    assert e2.terms == e.terms


def test_expr_parse_scalars():
    e = FormExpr.parse(F3, "(T^3 + 2*T)*g1")
    assert e.weight() == 2
    assert e.type_lift() == 0
    with pytest.raises(ExprError):
        FormExpr.parse(F3, "Delta_Q")
    with pytest.raises(ExprError):
        FormExpr.parse(F3, "E_T +")
    with pytest.raises(ExprError):
        FormExpr.parse(F3, "(E_T + h)^-1")


def test_expr_power_matches_repeated_products():
    base = FormExpr.parse(F3, "E_T + T*Delta_W*E_T^-1")
    acc = FormExpr.one(F3)
    for n in range(7):
        assert (base ** n).terms == acc.terms
        acc = acc * base


def pow_by_products(x, n):
    """The oracle for ``FormExpr.__pow__``: invert a single-monomial base
    for n < 0, then square-and-multiply with ``FormExpr.__mul__``."""
    if n < 0:
        if len(x.terms) != 1:
            raise ExprError("negative powers need a single-monomial base")
        c, m = x.terms[0]
        x = FormExpr(x.ctx, [(c.inverse(), tuple((g, -e) for g, e in m))])
        n = -n
    return _power(x, n, FormExpr.one(x.ctx))


def expr_by_products(m, ctx):
    """The oracle for ``BasisMonomial.expr``: a product of generator
    powers."""
    out = FormExpr.one(ctx)
    for name, e in (("Delta_W", m.e_W), ("Delta_T", m.e_T),
                    ("E_T", m.e_E)):
        if e:
            out = out * pow_by_products(FormExpr.generator(ctx, name), e)
    return out


@pytest.mark.parametrize("ctx", FIELDS, ids=("q3", "q5", "q9"))
def test_single_monomial_power_matches_repeated_products(ctx):
    coeffs = ["1", "T+1", "(T+1)/T^2"] + (["w"] if ctx.r > 1 else [])
    monos = ((), (("Delta_W", 1),), (("Delta_T", 2), ("E_T", -1), ("h", 3)))
    for text in coeffs:
        c = ratfunc_parse(ctx, text)
        for mono in monos:
            x = FormExpr(ctx, [(c, mono)])
            for n in range(-4, 5):
                assert (x ** n).terms == pow_by_products(x, n).terms, \
                    (text, mono, n)


def test_negative_power_of_non_monomial_raises():
    message = "negative powers need a single-monomial base"
    for x in (FormExpr.parse(F3, "E_T + h*Delta_T^-1"),
              FormExpr.scalar(F3, 0)):
        for power in (lambda x: x ** -1, lambda x: pow_by_products(x, -1)):
            with pytest.raises(ExprError) as err:
                power(x)
            assert str(err.value) == message


@pytest.mark.parametrize("ctx", FIELDS, ids=("q3", "q5", "q9"))
def test_basis_monomial_expr_matches_products(ctx):
    count = 0
    for k, l, _ in valid_specs(ctx, 7):
        for m in basis(ctx, k, l):
            e = m.expr(ctx)
            assert e.terms == expr_by_products(m, ctx).terms, m
            assert str(e) == m.label()
            count += 1
    assert count > 0
    assert str(BasisMonomial(0, 0, 0).expr(ctx)) == "1"


def test_expr_weight_type():
    q = F9.q
    e = FormExpr.parse(F9, "E_T^6")
    assert e.weight() == 12
    assert e.type_lift() == 6
    with pytest.raises(BadWeight):
        FormExpr.parse(F9, "E_T + g1").weight()
    assert not FormExpr.parse(F9, "E").is_modular()
    FormExpr.parse(F9, "E_T^6").check_in_space(12, 6)
    with pytest.raises(BadWeight):
        FormExpr.parse(F9, "E_T^6").check_in_space(12, 4)


def test_expand_identities_to_zero():
    q = F3.q
    z = expand(FormExpr.parse(F3, "Delta_W*Delta_T - E_T^2"), 30)
    assert z.is_zero()
    z = expand(FormExpr.parse(F3, "h + Delta_W*E_T"), 25)
    assert z.is_zero()


def test_expand_power_zero():
    s = expand(FormExpr.parse(F3, "E_T^0"), 10)
    assert s.coeff(0).is_one()
    assert all(c.is_zero() for e, c in s.terms() if e != 0)


def test_expand_laurent_quotient():
    # E_T^q / Delta_T = E_T * Delta_W by the power identity
    q = F3.q
    lhs = expand(FormExpr.parse(F3, "E_T^3*Delta_T^-1"), 20)
    rhs = expand(FormExpr.parse(F3, "E_T*Delta_W"), 20)
    assert lhs.agrees_with(rhs)
    slash = expand(FormExpr.parse(F3, "E_T^3/Delta_T"), 20)
    assert slash.agrees_with(rhs)


def test_expand_precision_backpropagation():
    # a Laurent quotient with a deep pole still reports sound coefficients
    s = expand(FormExpr.parse(F3, "h*Delta_T^-3"), 5)
    t = expand(FormExpr.parse(F3, "h*Delta_T^-3"), 12)
    assert s.val == 1 - 3 * (F3.q - 1)
    assert t.agrees_with(s)


@st.composite
def form_expr(draw, ctx):
    """A sum of one to three monomials in one or two of the six generators,
    exponents in {-1, 1, 2}, each scaled by a nonzero constant or by T."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        names = draw(st.lists(st.sampled_from(GENERATOR_NAMES), min_size=1,
                              max_size=2, unique=True))
        mono = tuple((n, draw(st.sampled_from((-1, 1, 2)))) for n in names)
        coef = draw(st.one_of(st.integers(1, ctx.p - 1).map(
            lambda c: RatFunc.constant(ctx, c)), st.just(RatFunc(Poly.T(ctx)))))
        terms.append((coef, mono))
    return FormExpr(ctx, terms)


# precisions P for the random expressions; the builds at 2P stay small
EXPR_PREC = {3: (4, 16), 5: (6, 16), 9: (10, 20)}


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_expand_random_exprs_precision_and_ring_laws(ctx, data):
    # the window contract of expand on random expressions: each expansion
    # runs from an empty cache, and the one to P equals the one to 2P cut
    # down to P
    exprs = [data.draw(form_expr(ctx), label=f"expr{i}") for i in range(3)]
    prec = data.draw(st.integers(*EXPR_PREC[ctx.q]), label="prec")
    clear_form_cache()
    hi = expand(exprs[0], 2 * prec).truncate(prec)
    clear_form_cache()
    lo = expand(exprs[0], prec)
    assert lo.prec == hi.prec == prec
    assert lo == hi if not lo.is_zero() else hi.is_zero()
    # ring laws on the expansions, on their common window
    x, y, z = [expand(e, prec) for e in exprs]
    assert ((x * y) * z).agrees_with(x * (y * z))
    assert (x * (y + z)).agrees_with(x * y + x * z)
    assert expand(exprs[0] * exprs[1], prec).agrees_with(x * y)


# ---------------------------------------------------------------------------
# the form cache: warm requests against an empty cache


@st.composite
def cache_expr(draw, ctx):
    """A sum of one to three monomials in one to three of the six
    generators, exponents in -3..3, each scaled by a coefficient other
    than 1: a constant, T + c or 1/(T + c)."""
    T = Poly.T(ctx)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        names = draw(st.lists(st.sampled_from(GENERATOR_NAMES), min_size=1,
                              max_size=3, unique=True))
        mono = tuple((n, draw(st.integers(-3, 3))) for n in names)
        c = draw(st.integers(0, ctx.p - 1))
        coef = draw(st.sampled_from((
            RatFunc.constant(ctx, c if c > 1 else -1), RatFunc(T + c),
            RatFunc(Poly.one(ctx), T + c))))
        terms.append((coef, mono))
    return FormExpr(ctx, terms)


def assert_same_from_cache(warm, cold):
    assert warm == cold
    assert warm.json_dict() == cold.json_dict()
    assert warm.support_class == cold.support_class


# precisions of the requests
CACHE_PREC = {3: (2, 16), 5: (2, 20), 9: (2, 24)}


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_warm_cache_serves_what_an_empty_cache_builds(ctx, data):
    # requests at rising and then falling precisions share one cache, and
    # a cached generator is rebuilt deeper between two of them; each warm
    # expansion, and each warm monomial of its terms, equals the one
    # built from an empty cache
    q = ctx.q
    T = Poly.T(ctx)
    lo, hi = CACHE_PREC[q]
    exprs = [data.draw(cache_expr(ctx), label=f"expr{i}") for i in range(2)]
    exprs += [
        # one term, beyond every window: v = j(q-1) >= prec
        FormExpr(ctx, [(RatFunc(T), (("Delta_T", -(-hi // (q - 1))),))]),
        # a series over the denominator T + 1
        FormExpr(ctx, [(RatFunc(Poly.one(ctx), T + 1), (("E_T", -2),))]),
    ]
    precs = data.draw(st.lists(st.integers(lo, hi), min_size=4, max_size=6),
                      label="precs")
    precs = sorted(precs[:2]) + sorted(precs[2:], reverse=True)
    rebuild_at = data.draw(st.integers(1, len(precs) - 1), label="rebuild_at")
    clear_form_cache()
    warm = []
    for i, prec in enumerate(precs):
        if i == rebuild_at:
            cached = sorted(n for k, n in forms._CACHE._gens if k == ctx.key)
            name = data.draw(st.sampled_from(cached), label="rebuilt")
            get_form(ctx, name, forms._CACHE._gens[ctx.key, name].prec + 1)
            assert not any(n == name for k, mono in forms._CACHE._monos
                           if k == ctx.key for n, _ in mono)
        for expr in exprs:
            warm.append((expr, prec, expand(expr, prec), [
                (mono, forms._CACHE.monomial(ctx, mono, prec))
                for _, mono in expr.terms]))
    for expr, prec, series, monos in warm:
        clear_form_cache()
        assert_same_from_cache(series, expand(expr, prec))
        for mono, s in monos:
            clear_form_cache()
            assert_same_from_cache(s, forms._CACHE.monomial(ctx, mono, prec))
        if expr is exprs[2]:
            assert series.is_zero() and series.prec == prec
        if expr is exprs[3]:
            assert not series.integral
    clear_form_cache()


# ---------------------------------------------------------------------------
# dual-basis triangularity


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_basis_coefficient_triangularity(ctx):
    q = ctx.q
    for l in range(q - 1):
        for r in range(4):
            k = r * (q - 1) + 2 * l
            if k < 1:
                continue
            prec = r * (q - 1) + l + q
            series = basis_series(ctx, k, l, prec)
            for j, s in enumerate(series):
                for i in range(r + 1):
                    c = s.coeff(i * (q - 1) + l)
                    if i < j:
                        assert c.is_zero()
                    elif i == j:
                        assert c.is_one()
