import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drinfeldforms import useries
from drinfeldforms.errors import (
    MixedField,
    PrecisionExceeded,
    ZeroSeries,
)
from drinfeldforms.fieldpoly import (FqElem, Poly, RatFunc, _convolve_mod,
                                    _padded, _rendered_rows, make_field)
from drinfeldforms.useries import USeries
from field_oracle import code_sum, element_product

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)
F_BIG = make_field(1000003, 1)


def u(ctx, prec=12):
    return USeries.monomial(ctx, RatFunc.constant(ctx, 1), 1, prec)


def geometric(ctx, ratio_coeff, step, prec):
    # oracle: sum of (ratio_coeff)^j u^(j*step) written out directly
    terms = {}
    j = 0
    c = RatFunc.constant(ctx, 1)
    while j * step < prec:
        terms[j * step] = c
        c = c * ratio_coeff
        j += 1
    return USeries(ctx, terms, prec)


def rand_series(ctx, rng, val=-3, prec=9):
    T = Poly.T(ctx)
    terms = {}
    for e in range(val, prec):
        if rng.random() < 0.5:
            c = FqElem(ctx, rng.randrange(ctx.q))  # any element, not only F_p
            d = rng.randrange(3)
            terms[e] = RatFunc(Poly.from_pairs(ctx, [(d, c)]))
    return USeries(ctx, terms, prec, val=val)


# ---------------------------------------------------------------------------
# ring operations


def test_mul_monomials():
    x = u(F3)
    xinv = USeries.monomial(F3, RatFunc.constant(F3, 1), -1, 10)
    prod = x * xinv
    assert prod.coeff(0).is_one()
    assert all(c.is_zero() for e, c in prod.terms() if e != 0)


def test_mul_difference_of_squares():
    T = Poly.T(F3)
    one = RatFunc.constant(F3, 1)
    f = USeries(F3, {0: one, 1: RatFunc(T)}, 10)
    g = USeries(F3, {0: one, 1: RatFunc(-T)}, 10)
    prod = f * g
    assert prod.coeff(0).is_one()
    assert prod.coeff(1).is_zero()
    assert prod.coeff(2) == RatFunc(-(T * T))


# ---------------------------------------------------------------------------
# the dense product against the term-by-term product it replaced


def dict_product(f, g):
    """Reference product: one coefficient pair at a time over F_q(T)."""
    prec = min(f._eff_val() + g.prec, g._eff_val() + f.prec)
    acc = {}
    for e1, c1 in f.terms():
        for e2, c2 in g.terms():
            if e1 + e2 < prec:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    sc = None
    if f.support_class is not None and g.support_class is not None:
        sc = (f.support_class + g.support_class) % (f.ctx.q - 1)
    return USeries(f.ctx, acc, prec,
                   val=min(f._eff_val() + g._eff_val(), prec - 1),
                   support_class=sc)


def assert_canonical_block(s):
    """The storage contract: one read-only int64 block, coordinate x row x
    power of T, with entries in [0, p), every row and the last T-column
    nonzero, row i at the exponent exps[i], ascending from val and below
    prec; the zero series has an empty block."""
    b, e = s.block, s.exps
    assert b.dtype == e.dtype == np.int64
    assert b.ndim == 3 and b.shape[:2] == (s.ctx.r, e.size)
    classes = set((e % (s.ctx.q - 1)).tolist())
    assert s.support_class == (classes.pop() if len(classes) == 1 else None)
    assert not b.flags.writeable and not e.flags.writeable
    assert ((0 <= b) & (b < s.ctx.p)).all()
    if s.is_zero():
        assert b.size == 0
    else:
        assert b.any(axis=(0, 2)).all() and b[:, :, -1].any()
        assert e[0] == s.val and e[-1] < s.prec and (np.diff(e) > 0).all()


def assert_same_series(got, want):
    assert got.den == want.den
    assert got.coeffs == want.coeffs
    assert got.val == want.val
    assert got.prec == want.prec
    assert got.support_class == want.support_class
    assert all(type(e) is int for e in got.coeffs)
    assert_canonical_block(got)
    assert got == want and hash(got) == hash(want)


@st.composite
def series(draw, ctx, stride, cls, integral=True):
    """Random series whose exponents are val + stride*i, with the support
    class ``cls`` mod q - 1 when given."""
    val = draw(st.integers(-6, 3))
    if cls is not None:
        val += (cls - val) % (ctx.q - 1)
    n = draw(st.integers(1, 12))
    deg = draw(st.integers(0, 12))
    terms = {}
    for i in range(n):
        coeffs = draw(st.lists(st.integers(0, ctx.q - 1), min_size=1,
                               max_size=deg + 1))
        if i == 0:
            coeffs[-1] = 1  # keep the leading term nonzero
        c = RatFunc(Poly.from_coeffs(ctx, [FqElem(ctx, x) for x in coeffs]))
        if not integral and draw(st.booleans()):
            c = c / RatFunc(Poly.T(ctx))
        terms[val + stride * i] = c
    prec = val + stride * draw(st.integers(n, n + 8))
    return USeries(ctx, terms, prec, val=val, support_class=cls)


@st.composite
def series_pair(draw):
    ctx = draw(st.sampled_from((F3, F5, F9)))
    if draw(st.booleans()):
        stride = ctx.q - 1
        cls = (draw(st.integers(0, ctx.q - 2)), draw(st.integers(0, ctx.q - 2)))
    else:
        stride = draw(st.integers(1, 3))
        cls = (None, None)
    integral = draw(st.integers(0, 4)) > 0
    f = draw(series(ctx, stride, cls[0], integral))
    if draw(st.integers(0, 4)) == 0:
        return f, f
    return f, draw(series(ctx, stride, cls[1], integral))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(series_pair())
def test_product_matches_dict_oracle(pair):
    # q in {3, 5, 9}: Laurent windows, support classes (stride q - 1 > 1),
    # products of one term pair and up, r = 2 at q = 9
    f, g = pair
    got = f * g
    assert_same_series(got, dict_product(f, g))
    assert_lowest_terms(got)


def test_product_threshold_sides():
    rng = random.Random(5)
    one = RatFunc.constant(F9, 1)
    T = RatFunc(Poly.T(F9))
    w = RatFunc.constant(F9, F9.element((0, 1)))
    f = USeries(F9, {-1: one, 0: w * T, 1: T * T}, 12)       # 3 terms
    for n in (2, 3):
        g = USeries(F9, {2 * i: w ** (i + 1) + T ** i for i in range(n)}, 12)
        assert_same_series(f * g, dict_product(f, g))
    f = rand_series(F5, rng, val=-2, prec=20)
    assert_same_series(f * f, dict_product(f, f))


def test_product_large_prime_takes_exact_route(monkeypatch):
    # at p = 1000003 the FFT error bound fails and the integer route runs:
    # the series product, and not its oracle, calls the polynomial product
    calls = []
    product = useries._poly_product

    def counting(ctx, a, b):
        calls.append(ctx.p)
        return product(ctx, a, b)

    rng = random.Random(7)
    ctx = F_BIG

    def big(val):
        terms = {e: RatFunc(Poly.from_coeffs(
                     ctx, [rng.randrange(ctx.p) for _ in range(24)]))
                 for e in range(val, val + 30)}
        return USeries(ctx, terms, val + 30)

    f, g = big(-3), big(2)
    with monkeypatch.context() as patch:
        patch.setattr(useries, "_poly_product", counting)
        got = f * g
    assert calls
    assert_same_series(got, dict_product(f, g))


def test_square_runs_one_forward_transform(monkeypatch):
    # a square above _DIRECT_MAX transforms its block once, and equals the
    # product of two equal blocks by the direct route
    calls = []
    rfft2 = np.fft.rfft2

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counting)
    rng = random.Random(5)
    f = USeries(F3, {e: RatFunc(Poly.from_coeffs(
        F3, [rng.randrange(3) for _ in range(8)] + [1])) for e in range(40)},
        40)
    a = f.block
    width = 2 * a.shape[2] - 1
    assert F3.r * 30 * 30 * width * width >= useries._DIRECT_MAX
    square = useries._dense_product(F3, a, a, 30)
    assert len(calls) == 1
    g = -(-f)
    assert g.block is not f.block
    assert_same_series(f * f, g * f)
    assert len(calls) == 1 + 1 + 2
    monkeypatch.setattr(useries, "_DIRECT_MAX", 1 << 62)
    direct = useries._dense_product(F3, a, a.copy(), 30)
    assert np.array_equal(square, direct)
    assert len(calls) == 4


def dense_direct_oracle(ctx, A, B, rows):
    """The integer route of ``_dense_product`` by its own plane layout:
    the planes of each block flattened with T-stride width, each plane of
    the factor with fewer rows convolved with all the planes of the other
    laid end to end at the stride of a full product."""
    p = ctx.p
    A, B = A[:, :rows], B[:, :rows]
    (na, da), (nb, db) = A.shape[1:], B.shape[1:]
    m, width = min(rows, na + nb - 1), da + db - 1
    if na > nb:
        A, B, (na, da), (nb, db) = B, A, (nb, db), (na, da)
    n = na + nb - 1
    flat_b = np.zeros((B.shape[0], n, width), dtype=np.int64)
    flat_b[:, :nb, :db] = B
    flat_b = flat_b.ravel()[:flat_b.size - na * width + db]

    def mul(a, b):
        a = _padded(a, width).ravel()[:(na - 1) * width + da]
        return _convolve_mod(a, b, p).reshape(-1, n, width)[:, :m]
    return ctx._fold(ctx._plane_product(A, flat_b, mul))


@pytest.mark.parametrize("ctx", (F3, F5, F9, make_field(3, 3), F_BIG),
                         ids=lambda c: f"q{c.q}")
def test_dense_product_matches_direct_oracle(ctx, monkeypatch):
    # the integer route on full, cut, one-row, gapped and square products
    monkeypatch.setattr(useries, "_DIRECT_MAX", 1 << 62)
    rng = np.random.default_rng(ctx.q)

    def block(n, width, gapped=False):
        out = rng.integers(0, ctx.p, (ctx.r, n, width))
        if gapped:
            out[:, 1:-1:2] = 0  # rows of a grid on twice the exponent step
        out[0, [0, -1], -1] = 1
        return out

    cases = [(block(6, 5), block(4, 7), 9), (block(6, 5), block(4, 7), 5),
             (block(6, 5), block(4, 7), 3), (block(1, 3), block(8, 6), 8),
             (block(7, 4), block(1, 1), 7), (block(5, 9), block(1, 4), 5),
             (block(9, 6, True), block(7, 6, True), 15),
             (block(9, 6, True), block(3, 2), 4)]
    square = block(8, 5)
    cases += [(square, square, 15), (square, square, 6)]
    for A, B, rows in cases:
        got = useries._dense_product(ctx, A, B, rows)
        want = dense_direct_oracle(ctx, A, B, rows)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def element_numerators(f, g):
    """Oracle for integral f and g: the numerator codes of f * g, one
    schoolbook product of field_oracle per pair of terms."""
    ctx = f.ctx
    prec = min(f._eff_val() + g.prec, g._eff_val() + f.prec)
    ppow = np.array(ctx._ppow)
    acc = {}
    for e1, x in f.coeffs.items():
        for e2, y in g.coeffs.items():
            if e1 + e2 >= prec:
                continue
            prod = element_product(ctx, (ppow @ x.arr).tolist(),
                                   (ppow @ y.arr).tolist())
            out = acc.setdefault(e1 + e2, [])
            out += [0] * (len(prod) - len(out))
            for i, c in enumerate(prod):
                out[i] = code_sum(ctx, out[i], c)
    nums = {}
    for e, codes in sorted(acc.items()):
        while codes and not codes[-1]:
            codes.pop()
        if codes:
            nums[e] = codes
    return nums


@pytest.mark.parametrize("route", ("direct", "fft"))
@pytest.mark.parametrize("ctx", (make_field(5, 2), make_field(3, 3)),
                         ids=("q25", "q27"))
def test_dense_product_matches_element_products(ctx, route, monkeypatch):
    # each route of _dense_product in turn, told which by _DIRECT_MAX:
    # products, a square, a scalar multiple and a gapped exponent grid
    calls = []
    product = useries._poly_product

    def counting(ctx, a, b):
        calls.append(ctx.p)
        return product(ctx, a, b)

    monkeypatch.setattr(useries, "_poly_product", counting)
    monkeypatch.setattr(useries, "_DIRECT_MAX",
                        1 << 62 if route == "direct" else 0)
    rng = random.Random(ctx.q)

    def rand_integral(val, n, step, prime=False):
        codes = ctx.p if prime else ctx.q  # prime: coordinates of w are 0
        terms = {val + step * i: RatFunc(Poly.from_coeffs(ctx, [
            FqElem(ctx, rng.randrange(codes))
            for _ in range(rng.randrange(1, 7))] + [1]))
            for i in range(n) if i == 0 or rng.random() < 0.8}
        return USeries(ctx, terms, val + step * n)

    pairs = [(rand_integral(-2, 9, 1), rand_integral(1, 7, 1)),
             (rand_integral(0, 8, 2), rand_integral(3, 8, 2, prime=True))]
    f = rand_integral(-1, 10, 1)
    products = [(f, g, f * g) for f, g in pairs + [(f, f)]]
    scale = Poly.from_coeffs(ctx, [ctx.element([1] * ctx.r), 0, 2])
    products.append((f, USeries(ctx, {0: RatFunc(scale)}, f.prec + 1),
                     f.scale(scale)))
    ppow = np.array(ctx._ppow)
    for f, g, got in products:
        assert {e: (ppow @ n.arr).tolist() for e, n in got.coeffs.items()} \
            == element_numerators(f, g)
    assert bool(calls) == (route == "direct")


def test_mul_precision_contract():
    one = RatFunc.constant(F3, 1)
    f = USeries(F3, {0: one, 9: one}, 10)       # val 0, prec 10
    g = USeries(F3, {2: one, 4: one}, 5)        # val 2, prec 5
    assert (f * g).prec == 5
    assert (g * f).prec == 5


def test_add_precision_and_cancellation():
    one = RatFunc.constant(F3, 1)
    f = USeries(F3, {1: one, 3: one}, 10)
    g = USeries(F3, {1: -one}, 7)
    s = f + g
    assert s.prec == 7
    assert s.val == 3  # leading terms cancelled, valuation recomputed
    assert s.coeff(3).is_one()


def test_mixed_field_rejected():
    with pytest.raises(MixedField):
        u(F3) + u(F5)
    with pytest.raises(MixedField):
        u(F3) * u(F5)


def test_scale_and_neg():
    T = Poly.T(F3)
    f = u(F3)
    g = f * RatFunc(T)
    assert g.coeff(1) == RatFunc(T)
    assert (-g).coeff(1) == RatFunc(-T)
    assert (g * 0).is_zero()


# ---------------------------------------------------------------------------
# inversion


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_inverse_geometric_series(ctx):
    q = ctx.q
    T = Poly.T(ctx)
    one = RatFunc.constant(ctx, 1)
    prec = 4 * (q - 1) + 1
    f = USeries(ctx, {0: one, q - 1: RatFunc(T)}, prec)
    inv = f.inverse()
    assert inv == geometric(ctx, RatFunc(-T), q - 1, prec)
    back = f * inv
    assert back.coeff(0).is_one()
    assert all(c.is_zero() for e, c in back.terms() if e != 0)


def test_inverse_one_and_monomial():
    one_series = USeries.one(F3, 8)
    assert one_series.inverse() == one_series
    q = F3.q
    m = USeries.monomial(F3, RatFunc.constant(F3, 1), q - 1, 8)
    inv = m.inverse()
    assert inv.val == 1 - q
    assert inv.coeff(1 - q).is_one()


def test_inverse_relative_precision():
    rng = random.Random(11)
    for _ in range(30):
        f = rand_series(F3, rng)
        if f.is_zero() or f.coeff(f.val).is_zero():
            continue
        inv = f.inverse()
        assert inv.val == -f.val
        prod = f * inv
        rel = f.prec - f.val
        for e in range(0, rel):
            expected = 1 if e == 0 else 0
            assert prod.coeff(e) == RatFunc.constant(F3, expected)


def test_inverse_zero_series_raises():
    with pytest.raises(ZeroSeries):
        USeries.zero(F3, 5).inverse()
    with pytest.raises(ZeroSeries):
        USeries.zero(F3, 5) ** -2


def inverse_oracle(f):
    """Reference inverse: the coefficient recurrence over F_q(T),
    b_0 = 1/a_0 and b_n = -(1/a_0) sum_k a_k b_(n-k)."""
    v = f.val
    rel = f.prec - v
    a = {e - v: c for e, c in f.terms()}
    a0i = a.pop(0).inverse()
    b = {0: a0i}
    for n in range(1, rel):
        s = RatFunc.constant(f.ctx, 0)
        for k, ak in a.items():
            if k <= n and n - k in b:
                s = s + ak * b[n - k]
        if not s.is_zero():
            b[n] = -(a0i * s)
    sc = None
    if f.support_class is not None:
        sc = (-f.support_class) % (f.ctx.q - 1)
    return USeries(f.ctx, {n - v: c for n, c in b.items()}, rel - v,
                   val=-v, support_class=sc)


def assert_lowest_terms(s):
    """The representation contract: nonzero numerators over a monic
    denominator, with no factor common to all of them."""
    assert s.den.is_monic()
    g = s.den
    for n in s.coeffs.values():
        assert not n.is_zero()
        g = g.gcd(n)
    assert g.is_one()
    assert s.integral == s.den.is_one()
    assert_canonical_block(s)
    assert hash(s) == hash(USeries(s.ctx, dict(s.terms()), s.prec,
                                   val=s.val, support_class=s.support_class))


@st.composite
def scalar(draw, ctx, kind):
    """A value in F_q(T): 'one', a 'constant' other than 1, a non-constant
    'poly', or a 'fraction' with a non-constant denominator."""
    if kind == "one":
        return RatFunc.constant(ctx, 1)
    if kind == "constant":
        code = draw(st.integers(2, ctx.q - 1))
        return RatFunc.constant(ctx, FqElem(ctx, code))
    codes = draw(st.lists(st.integers(0, ctx.q - 1), min_size=2, max_size=4))
    codes[-1] = draw(st.integers(1, ctx.q - 1))
    num = Poly.from_coeffs(ctx, [FqElem(ctx, c) for c in codes])
    if kind == "poly":
        return RatFunc(num)
    den = draw(st.sampled_from(((0, 1), (1, 1), (1, 0, 1), (2, 1, 1))))
    return RatFunc(num, Poly.from_coeffs(ctx, list(den)))


@st.composite
def invertible_series(draw):
    """Non-integral Laurent series over F_3, F_5 or F_9, optionally in a
    support class, whose lowest coefficient is 1, another constant, a
    polynomial or a fraction."""
    ctx = draw(st.sampled_from((F3, F5, F9)))
    cls = draw(st.one_of(st.none(), st.integers(0, ctx.q - 2)))
    stride = ctx.q - 1 if cls is not None else draw(st.integers(1, 3))
    val = draw(st.integers(-5, 3))
    if cls is not None:
        val += (cls - val) % (ctx.q - 1)
    n = draw(st.integers(1, 6))
    kinds = st.sampled_from(("one", "constant", "poly", "fraction"))
    terms = {val: draw(scalar(ctx, draw(kinds)))}
    for i in range(1, n):
        if draw(st.booleans()):
            terms[val + stride * i] = draw(scalar(ctx, draw(kinds)))
    prec = val + stride * draw(st.integers(n, n + 4))
    return USeries(ctx, terms, prec, val=val, support_class=cls)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(invertible_series())
def test_inverse_matches_field_oracle(f):
    assert_lowest_terms(f)
    want = inverse_oracle(f)
    got = f.inverse()
    assert_same_series(got, want)
    assert_lowest_terms(got)
    got = f ** -2
    assert_same_series(got, dict_product(want, want))
    assert_lowest_terms(got)


def test_inverse_with_constant_lead_other_than_one():
    T = RatFunc(Poly.T(F5))
    f = USeries(F5, {-1: 3, 1: T, 3: T * T + 1}, 9)
    assert_same_series(f.inverse(), inverse_oracle(f))
    assert f.inverse().integral


def test_truncation_restores_lowest_terms():
    # (T u + u^2) / T loses its only term with a denominator
    T = Poly.T(F3)
    f = USeries(F3, {1: 1, 2: RatFunc(Poly.one(F3), T)}, 4)
    assert f.den == T
    assert f.coeffs == {1: T, 2: Poly.one(F3)}
    g = f.truncate(2)
    assert g == u(F3, prec=2)
    assert g.integral
    assert_lowest_terms(g)


def test_sum_and_product_cancel_denominators():
    T = Poly.T(F3)
    f = USeries(F3, {0: RatFunc(Poly.one(F3), T), 2: 1}, 6)
    g = USeries(F3, {0: RatFunc(-Poly.one(F3), T), 4: RatFunc(T + 1, T)}, 6)
    s = f + g
    assert s.coeffs == {2: T, 4: T + 1} and s.den == T
    assert_lowest_terms(s)
    p = f.scale(T)
    assert p.integral and p.coeffs == {0: Poly.one(F3), 2: T}
    assert_lowest_terms(p)


def test_coefficients_of_integral_series_run_no_gcd(monkeypatch):
    f = rand_series(F5, random.Random(3), val=0, prec=12)
    assert f.integral and not f.is_zero()

    def no_gcd(self, other):
        raise AssertionError("gcd on an integral series")

    monkeypatch.setattr(Poly, "gcd", no_gcd)
    for e in range(f.prec):
        f.coeff(e)
    f.terms()
    f.json_dict()


def test_integral_inverse_of_unit_lead_is_integral():
    T = Poly.T(F3)
    f = USeries(F3, {0: RatFunc.constant(F3, -1), 2: RatFunc(T)}, 12)
    assert f.integral
    assert f.inverse().integral


# ---------------------------------------------------------------------------
# powers


def test_pow_zero_is_one():
    f = u(F3)
    p0 = f ** 0
    assert p0.coeff(0).is_one()


def test_pow_monomial_negative():
    x = u(F3, prec=9)
    m = x ** -3
    assert m.val == -3
    assert m.coeff(-3).is_one()


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_pow_frobenius(ctx):
    # freshman's dream oracle: (u + u^2)^p has exponents scaled by p
    p = ctx.p
    one = RatFunc.constant(ctx, 1)
    f = USeries(ctx, {1: one, 2: one}, 2 * p + 2)
    g = f ** p
    expected = USeries(ctx, {p: one, 2 * p: one}, g.prec)
    assert g == expected


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_pow_p_matches_repeated_mul_laurent(ctx):
    rng = random.Random(41 + ctx.q)
    for val in (-3, 0, 2):
        f = rand_series(ctx, rng, val=val, prec=val + 9)
        lead = RatFunc(Poly.one(ctx), Poly.T(ctx) + 1) if val < 0 else 1
        f = f + USeries.monomial(ctx, lead, val - 1, f.prec)
        for n in (ctx.p, ctx.p * 2, ctx.p ** 2):
            acc = f
            for _ in range(n - 1):
                acc = acc * f
            assert_same_series(f ** n, acc)


def test_pow_frobenius_keeps_support_class():
    one = RatFunc.constant(F5, 1)
    T = RatFunc(Poly.T(F5))
    f = USeries(F5, {-3: T, 1: one, 5: T * T}, 13, support_class=1)
    acc = f
    for _ in range(4):
        acc = acc * f
    assert_same_series(f ** 5, acc)
    assert (f ** 5).support_class == 1


@pytest.mark.parametrize("ctx", (F3, F9, make_field(5, 2), make_field(3, 3)),
                         ids=lambda c: f"q{c.q}")
def test_qth_power_is_exact_to_q_times_prec(ctx):
    # H agrees with h below prec, so H^q agrees with h^q below q * prec;
    # H is long enough that H^q, by p-th powers, reaches that far
    q = ctx.q
    rng = random.Random(7 + ctx.q)
    over = RatFunc(Poly.one(ctx), Poly.T(ctx) + 1)
    for val, prec in ((-2, 3), (0, 5), (1, 4)):
        big = rand_series(ctx, rng, val=val, prec=q * prec - (q - 1) * val)
        big = big + USeries.monomial(ctx, 1, val, big.prec)
        for h in (big, big * over):
            full = h ** q
            assert full.prec == q * prec
            low = h.truncate(prec)
            f = low._qth_power()
            assert (f.val, f.prec) == (q * low.val, q * prec)
            assert f == full
            assert f.agrees_with(low ** q)
            with pytest.raises(PrecisionExceeded):
                f.coeff(q * prec)
    zero = USeries.zero(ctx, 4)._qth_power()
    assert zero.is_zero() and zero.prec == 4 * q


def test_pow_matches_repeated_mul():
    rng = random.Random(23)
    f = rand_series(F3, rng, val=0, prec=8)
    if f.is_zero():
        f = USeries.one(F3, 8)
    acc = f
    for n in range(2, 6):
        acc = acc * f
        assert (f ** n).agrees_with(acc)


# ---------------------------------------------------------------------------
# coefficient access


def test_coeff_inside_window():
    f = USeries.one(F3, 10)
    assert f.coeff(5).is_zero()
    assert f.coeff(-2).is_zero()   # below valuation: known zero


def test_coeff_beyond_precision_raises():
    f = USeries.one(F3, 10)
    with pytest.raises(PrecisionExceeded):
        f.coeff(10)
    with pytest.raises(PrecisionExceeded):
        f.coeff(11)


def test_truncate_contract():
    f = USeries(F3, {1: RatFunc.constant(F3, 1),
                     5: RatFunc.constant(F3, 2)}, 9)
    g = f.truncate(4)
    assert g.prec == 4
    assert g.terms() == [(1, RatFunc.constant(F3, 1))]
    with pytest.raises(PrecisionExceeded):
        f.truncate(12)


# ---------------------------------------------------------------------------
# substitution u -> u(Tz)


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_substitute_u_geometric(ctx):
    q = ctx.q
    T = Poly.T(ctx)
    prec = 4 * q
    f = u(ctx, prec=prec)
    sub = f.substitute_Tz()
    # oracle: u^q * sum_j (-T)^j u^(j(q-1)), written out directly
    expected = geometric(ctx, RatFunc(-T), q - 1, sub.prec - q).shift(q)
    assert sub.agrees_with(expected)
    assert sub.val == q
    assert sub.prec == q * prec


def test_substitute_fixes_constants():
    c = USeries.one(F3, 7)
    s = c.substitute_Tz()
    assert s.coeff(0).is_one()
    assert all(cf.is_zero() for e, cf in s.terms() if e != 0)


def test_substitute_negative_exponent_exact():
    # u(Tz)^(-1) = (1 + T u^(q-1)) u^(-q)
    q = F3.q
    T = Poly.T(F3)
    f = USeries.monomial(F3, RatFunc.constant(F3, 1), -1, 5)
    s = f.substitute_Tz()
    assert s.coeff(-q).is_one()
    assert s.coeff(-q + (q - 1)) == RatFunc(T)
    for e, _ in s.terms():
        assert e in (-q, -1)


@st.composite
def laurent_series(draw, ctx, count=1):
    """``count`` series over ``ctx`` with Laurent windows, all integral or
    all not, on one exponent stride; each in a support class when the
    stride is q - 1."""
    # a support class spaces the exponents q - 1 apart, too far for a
    # window over F_1000003
    if ctx.q < 100 and draw(st.booleans()):
        stride = ctx.q - 1
        classes = [draw(st.integers(0, ctx.q - 2)) for _ in range(count)]
    else:
        stride = draw(st.integers(1, 3))
        classes = [None] * count
    integral = draw(st.booleans())
    return [draw(series(ctx, stride, cls, integral)) for cls in classes]


def window(s, prec):
    """The canonical series of s cut down to the window below prec."""
    return USeries(s.ctx, {e: c for e, c in s.terms() if e < prec}, prec)


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_substitute_is_ring_homomorphism(ctx, data):
    f, g = data.draw(laurent_series(ctx, 2))
    lhs = (f * g).substitute_Tz()
    rhs = f.substitute_Tz() * g.substitute_Tz()
    assert lhs.agrees_with(rhs)
    lhs = (f + g).substitute_Tz()
    rhs = f.substitute_Tz() + g.substitute_Tz()
    assert lhs.agrees_with(rhs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_substitute_window_contract(data):
    # f knows half the relative window of g; its substitution must equal
    # g's cut down to any window f supports, and stop at q * f.prec
    ctx = data.draw(st.sampled_from((F3, F5, F9)))
    g, = data.draw(laurent_series(ctx))
    q = ctx.q
    f = g.truncate(g.val + -(-(g.prec - g.val) // 2))
    wide = g.substitute_Tz()
    assert_same_series(f.substitute_Tz(), window(wide, q * f.prec))
    out_prec = data.draw(st.integers(q * f.val - q, q * f.prec))
    assert_same_series(f.substitute_Tz(out_prec), window(wide, out_prec))
    with pytest.raises(PrecisionExceeded):
        f.substitute_Tz().coeff(q * f.prec)


# The term-by-term routine that the closed-form coefficient map replaced:
# series inverses, powers and shifts, one part per stored term.
def substitute_oracle(self, out_prec=None):
    """Pull back the expansion along z -> Tz.

    Substitutes u -> u(Tz) = u^q / (1 + T u^(q-1)); the output window is
    q * prec, or a caller-supplied smaller one.  Negative exponents use
    the exact identity u(Tz)^(-1) = (1 + T u^(q-1)) u^(-q).
    """
    ctx = self.ctx
    q = ctx.q
    full = q * self.prec
    if out_prec is None:
        out_prec = full
    elif out_prec > full:
        raise PrecisionExceeded(
            f"substitution from precision {self.prec} only supports "
            f"output precision {full}")
    if not self.coeffs:
        return USeries.zero(ctx, out_prec)
    # the numerators are substituted over F_q[T]; the final
    # construction puts them back over den
    one = Poly.one(ctx)
    T = Poly.T(ctx)
    parts = []
    pos = []
    for e, c in self.coeffs.items():
        if e < 0:
            # exact: c * (1 + T u^(q-1))^|e| * u^(qe); the power is a
            # polynomial of degree |e|(q-1) in u, so its window holds it
            pw = USeries(ctx, {0: one, q - 1: T}, -e * (q - 1) + 1) ** -e
            terms = {q * e + j: cf * c for j, cf in pw.coeffs.items()
                     if q * e + j < out_prec}
            parts.append(USeries(ctx, terms, out_prec))
        elif e == 0:
            parts.append(USeries(ctx, {0: c}, out_prec))
        elif q * e < out_prec:
            pos.append((e, c))
    if pos:
        e0 = pos[0][0]
        rel0 = out_prec - q * e0
        base_terms = {0: one}
        if q - 1 < rel0:
            base_terms[q - 1] = T
        binv = USeries(ctx, base_terms, rel0).inverse()
        cur_e = e0
        cur = binv ** e0
        deltas = {}
        for e, c in pos:
            if e != cur_e:
                d = e - cur_e
                dp = deltas.get(d)
                if dp is None:
                    dp = binv ** d
                    deltas[d] = dp
                cur = (cur * dp).truncate(out_prec - q * e)
                cur_e = e
            parts.append(cur.scale(c).shift(q * e).truncate(out_prec))
    acc = USeries.zero(ctx, out_prec)
    for part in parts:
        acc = acc + part
    return USeries._make(ctx, acc.exps, acc.block, self.den, acc.val,
                         out_prec)


@st.composite
def substitution_case(draw):
    """A series over F_3, F_5, F_9 or F_1000003 with an output precision
    that is the full window (None or q * prec), below it, or at or below
    q * val."""
    if draw(st.integers(0, 3)) == 0:
        f = draw(invertible_series())
    else:
        ctx = draw(st.sampled_from((F3, F5, F9, F_BIG)))
        f, = draw(laurent_series(ctx))
    q = f.ctx.q
    full = q * f.prec
    low = q * f.val
    out_prec = draw(st.one_of(st.none(), st.just(full),
                              st.integers(low + 1, full - 1),
                              st.integers(low - q, low)))
    return f, out_prec


@settings(max_examples=150, deadline=None, derandomize=True)
@given(substitution_case())
def test_substitute_matches_term_oracle(case):
    f, out_prec = case
    if out_prec is not None and out_prec <= 0 and 0 in f.coeffs:
        # the oracle builds the image of u^0 in the window below out_prec,
        # which cannot hold it; cut its full window down instead
        want = window(substitute_oracle(f), out_prec)
    else:
        want = substitute_oracle(f, out_prec)
    got = f.substitute_Tz(out_prec)
    assert_same_series(got, want)
    assert_lowest_terms(got)


def test_substitute_output_precision_capped():
    f = u(F3, prec=10)
    s = f.substitute_Tz(out_prec=12)
    assert s.prec == 12
    with pytest.raises(PrecisionExceeded):
        f.substitute_Tz(out_prec=31)


# ---------------------------------------------------------------------------
# the derivation Theta = -u^2 d/du


def theta_oracle(f):
    """Theta term by term over F_q(T): c u^e -> -e c u^(e+1)."""
    sc = f.support_class
    return USeries(f.ctx, {e + 1: c * (-e) for e, c in f.terms()},
                   f.prec + 1, val=f.val + 1,
                   support_class=None if sc is None else sc + 1)


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_theta_is_a_derivation(ctx, data):
    # Laurent, non-integral and support-class series; Theta is F_q(T)-
    # linear, obeys Leibniz and kills the terms u^e with p | e
    f, g = data.draw(laurent_series(ctx, 2))
    a, b = (data.draw(scalar(ctx, data.draw(st.sampled_from(
        ("one", "constant", "poly", "fraction"))))) for _ in range(2))
    tf = f.theta()
    assert_same_series(tf, theta_oracle(f))
    assert_lowest_terms(tf)
    assert tf.prec == f.prec + 1 and tf._eff_val() >= f.val + 1
    if f.support_class is not None:
        # a series with no term left has no class
        assert tf.support_class == (
            None if tf.is_zero() else (f.support_class + 1) % (ctx.q - 1))
    assert all(e % ctx.p for e in (tf.exps - 1).tolist())
    assert (f * g).theta().agrees_with(tf * g + f * g.theta())
    assert (f * a + g * b).theta().agrees_with(tf * a + g.theta() * b)


def test_theta_of_pth_powers_vanishes():
    # Theta(f^p) = p f^(p-1) Theta(f) = 0, while the window moves up by one
    for ctx in (F3, F5, F9):
        f = rand_series(ctx, random.Random(ctx.q))
        z = (f ** ctx.p).theta()
        assert z.is_zero() and z.prec == (f ** ctx.p).prec + 1


# ---------------------------------------------------------------------------
# precision soundness, support classes, integrality


def test_precision_soundness_recompute_higher():
    # rerunning a pipeline at higher precision never changes a coefficient
    T = Poly.T(F3)
    one = RatFunc.constant(F3, 1)

    def pipeline(prec):
        f = USeries(F3, {0: one, 2: RatFunc(T)}, prec)
        return (f.inverse() ** 2) * f

    lo = pipeline(10)
    hi = pipeline(25)
    assert hi.agrees_with(lo)


def test_support_class_propagation():
    q = F3.q
    one = RatFunc.constant(F3, 1)
    a = USeries(F3, {1: one, 3: one}, 8, support_class=1)
    b = USeries(F3, {2: one}, 8, support_class=0)
    assert (a * a).support_class == 2 % (q - 1)
    assert (a + a).support_class == 1
    assert (a * b).support_class == 1
    assert a.inverse().support_class == (-1) % (q - 1)
    with pytest.raises(ValueError):
        USeries(F3, {1: one, 2: one}, 8, support_class=1)


def test_support_class_is_read_from_the_exponents():
    one = RatFunc.constant(F5, 1)
    # no class is given: one class among the exponents is reported
    assert USeries(F5, {-3: one, 5: one}, 9).support_class == 1
    assert USeries.monomial(F5, one, 2, 9).support_class == 2
    # several classes, or no term at all, have none
    assert USeries(F5, {1: one, 2: one}, 9).support_class is None
    assert USeries.zero(F5, 9).support_class is None
    f = USeries(F5, {1: one, 5: one}, 9, support_class=1)
    assert (f - f).is_zero() and (f - f).support_class is None
    # a given class is checked against every exponent
    with pytest.raises(ValueError):
        USeries(F5, {1: one, 3: one}, 9, support_class=1)


def test_integral_flag():
    T = Poly.T(F3)
    f = USeries(F3, {1: RatFunc(T)}, 6)
    assert f.integral
    g = USeries(F3, {1: RatFunc(Poly.one(F3), T)}, 6)
    assert not g.integral
    assert (f * f).integral
    assert (f ** 3).integral


# ---------------------------------------------------------------------------
# serialization


def test_json_shape_and_determinism():
    T = Poly.T(F3)
    f = USeries(F3, {3: RatFunc(-T), 1: RatFunc.constant(F3, 1)}, 10)
    d = f.json_dict()
    assert d == {
        "val": 1,
        "prec": 10,
        "terms": [{"exp": 1, "coeff": "1"}, {"exp": 3, "coeff": "2*T"}],
    }
    assert json.dumps(d, sort_keys=True) == json.dumps(f.json_dict(),
                                                       sort_keys=True)


def test_json_zero_series():
    d = USeries.zero(F3, 4).json_dict()
    assert d["terms"] == []
    assert d["prec"] == 4


# ---------------------------------------------------------------------------
# rendering from blocks, against one FqElem per column


F25 = make_field(5, 2)
F27 = make_field(3, 3)


def poly_str_oracle(f):
    """A polynomial rendered one column at a time, highest power first:
    codes outside F_p as FqElem, parenthesised before T, and as a constant
    term when they are a sum."""
    if f.is_zero():
        return "0"
    ctx, parts = f.ctx, []
    for j, code in reversed(list(enumerate((ctx._ppow @ f.arr).tolist()))):
        if not code:
            continue
        c = str(code) if code < ctx.p else str(FqElem(ctx, code))
        if j == 0:
            parts.append(f"({c})" if "+" in c else c)
            continue
        tp = "T" if j == 1 else f"T^{j}"
        if code == 1:
            parts.append(tp)
        elif code < ctx.p:
            parts.append(f"{c}*{tp}")
        else:
            parts.append(f"({c})*{tp}")
    return " + ".join(parts)


def ratfunc_str_oracle(c):
    if c.den.is_one():
        return poly_str_oracle(c.num)
    return f"({poly_str_oracle(c.num)})/({poly_str_oracle(c.den)})"


@st.composite
def code_block(draw):
    """A field and a coefficient block, coordinate x row x power of T,
    with zero rows, and codes in and outside F_p at every power of T."""
    ctx = draw(st.sampled_from((F3, F5, F9, F25, F27)))
    rows = draw(st.integers(0, 5))
    width = draw(st.integers(0, 7))
    code = st.one_of(st.just(0), st.integers(1, ctx.p - 1),
                     st.integers(0, ctx.q - 1))
    codes = [draw(st.lists(code, min_size=width, max_size=width))
             if draw(st.integers(0, 3)) else [0] * width
             for _ in range(rows)]
    block = np.zeros((ctx.r, rows, width), dtype=np.int64)
    for i, row in enumerate(codes):
        for j, x in enumerate(row):
            block[:, i, j] = FqElem(ctx, x).coords
    return ctx, block


@settings(max_examples=300, deadline=None, derandomize=True)
@given(code_block(), st.integers(0, 3))
def test_block_renderer_matches_column_oracle(case, den_kind):
    ctx, block = case
    # every row, zero rows included, as Poly.__str__ and from the block
    polys = [Poly(ctx, block[:, i]) for i in range(block.shape[1])]
    assert [str(f) for f in polys] == [poly_str_oracle(f) for f in polys]
    assert _rendered_rows(ctx, block) == [poly_str_oracle(f)
                                         for f in polys]
    # the nonzero rows as a series, integral or over a denominator
    T = Poly.T(ctx)
    den = (Poly.one(ctx), T, T + 1,
           T * T + Poly.constant(ctx, FqElem(ctx, ctx.q - 1)))[den_kind]
    terms = {3 * i - 2: RatFunc(f, den) for i, f in enumerate(polys)
             if not f.is_zero()}
    s = USeries(ctx, terms, 3 * len(polys) + 1)
    want = [(e, ratfunc_str_oracle(c)) for e, c in s.terms()]
    assert s.json_dict() == {"val": s.val, "prec": s.prec,
                             "terms": [{"exp": e, "coeff": c}
                                       for e, c in want]}
    assert str(s) == (" + ".join(f"({c})*u^{e}" for e, c in want)
                      + f" + O(u^{s.prec})" if want else f"O(u^{s.prec})")


def test_block_renderer_covers_denominators_and_extension_codes():
    # the cases the hypothesis test is meant to reach, pinned
    w = FqElem(F9, 3)
    f = Poly.from_coeffs(F9, [w + 1, 0, w, 2])
    assert str(f) == poly_str_oracle(f) == "2*T^3 + (w)*T^2 + (w+1)"
    s = USeries(F9, {1: RatFunc(f, Poly.T(F9) + 1)}, 4)
    assert not s.integral
    assert s.json_dict()["terms"] == [
        {"exp": 1, "coeff": f"({poly_str_oracle(f)})/(T + 1)"}]


# ---------------------------------------------------------------------------
# scaling by a constant, against the convolution route


@pytest.mark.parametrize("ctx", (F3, F9, F25), ids=lambda c: f"q{c.q}")
def test_constant_scale_matches_dense_product(ctx):
    rng = random.Random(ctx.q)
    consts = [0, 1, 2, ctx.p - 1] + [FqElem(ctx, c) for c in
                                     (ctx.p, ctx.p + 1, ctx.q - 1)
                                     if c >= ctx.p]
    for trial in range(6):
        f = rand_series(ctx, rng)
        if trial % 2:
            f = f.scale(RatFunc(Poly.one(ctx), Poly.T(ctx) + 1))
        cls = 1 % (ctx.q - 1)
        g = USeries(ctx, {e: c for e, c in f.terms()
                          if e % (ctx.q - 1) == cls}, f.prec,
                    support_class=cls)
        for s in (f, g):
            for c in consts:
                c = RatFunc.constant(ctx, c)
                out = s.scale(c)
                if c.is_zero():
                    assert out.is_zero() and out.prec == s.prec
                    continue
                want = s.block
                if not (c.is_one() or s.is_zero()):
                    want = useries._dense_product(
                        ctx, s.block, c.num.arr[:, None, :], s.block.shape[1])
                assert np.array_equal(out.block, want)
                assert np.array_equal(out.exps, s.exps)
                assert (out.den, out.val, out.prec, out.support_class) == (
                    s.den, s.val, s.prec, s.support_class)
                assert_canonical_block(out)
                assert all(out.coeff(e) == c * x for e, x in s.terms())
