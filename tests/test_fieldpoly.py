import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drinfeldforms import fieldpoly
from drinfeldforms.errors import (
    BadDegree,
    DivisionByZero,
    ExprError,
    MixedField,
    NotOddPrime,
)
from drinfeldforms.fieldpoly import (
    NEG_INF,
    Matrix,
    Poly,
    RatFunc,
    left_kernel,
    make_field,
    parse_expr,
    poly_parse,
    ratfunc_parse,
    special_modulus,
)
from field_oracle import (code_negative, code_product, code_sum,
                          element_product)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)
FIELDS = (F3, F5, F9)


def rand_elem(ctx, rng):
    return ctx.element([rng.randrange(ctx.p) for _ in range(ctx.r)])


def rand_poly(ctx, rng, maxdeg=6):
    d = rng.randrange(maxdeg + 1)
    return Poly.from_coeffs(ctx, [rand_elem(ctx, rng) for _ in range(d + 1)])


# ---------------------------------------------------------------------------
# field construction


def brute_smallest_irreducible_deg2(p):
    # oracle: scan monic quadratics in lex order (constant term most
    # significant) and return the first with no root in F_p
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError


def test_make_field_prime_field():
    assert F3.q == 3
    assert F3.modulus == (0, 1)


def test_make_field_f9_modulus():
    assert F9.q == 9
    assert F9.modulus == (1, 0, 1)  # w^2 + 1
    assert F9.modulus == brute_smallest_irreducible_deg2(3)


def test_make_field_f25_modulus():
    F25 = make_field(5, 2)
    assert F25.modulus == brute_smallest_irreducible_deg2(5)


def test_smallest_irreducible_quadratic_large_prime():
    # 1021 = 1 mod 12, so neither T^2 + 1 nor T^2 + T + 1 is irreducible
    assert (fieldpoly._smallest_irreducible(1021, 2)
            == brute_smallest_irreducible_deg2(1021))


def assert_element_ops_match_oracle(x, y):
    # +, binary -, unary -, * and ** of two elements against field_oracle
    ctx, a, b = x.ctx, x.code, y.code
    assert (x + y).code == code_sum(ctx, a, b)
    assert (x - y).code == code_sum(ctx, a, code_negative(ctx, b))
    assert (-x).code == code_negative(ctx, a)
    assert (x * y).code == code_product(ctx, a, b)
    power = 1
    for n in range(b % 7 + 2):
        assert (x ** n).code == power
        power = code_product(ctx, power, a)


@pytest.mark.parametrize("p,r", ((3, 1), (5, 1), (3, 2), (5, 2), (3, 3),
                                 (7, 2)))
def test_field_arithmetic_matches_oracle_exhaustively(p, r):
    # every sum, difference, negative, product and small power of two
    # elements, on coordinates for every r, and a * a^-1 = 1 for every
    # nonzero a: codes below p invert by a^(p-2) mod p, the others by
    # a^(q-2)
    ctx = make_field(p, r)
    elems = [fieldpoly.FqElem(ctx, a) for a in range(ctx.q)]
    for x in elems:
        for y in elems:
            assert_element_ops_match_oracle(x, y)
    for x in elems[1:]:
        assert code_product(ctx, x.code, x.inverse().code) == 1


@pytest.mark.parametrize("p,r", ((3, 6), (3, 8), (3, 10), (7, 7)))
def test_field_arithmetic_matches_oracle_on_a_sample(p, r):
    ctx = make_field(p, r)
    rng = random.Random(p ** r)
    codes = [rng.randrange(1, ctx.q) for _ in range(40)] + [1, p - 1, p]
    for a, b in zip(codes, codes[1:] + codes[:1]):
        x, y = fieldpoly.FqElem(ctx, a), fieldpoly.FqElem(ctx, b)
        assert_element_ops_match_oracle(x, y)
        assert code_product(ctx, a, x.inverse().code) == 1
    assert (fieldpoly.FqElem(ctx, 0) * x).code == 0


def test_make_field_3_12_is_fast():
    # 531441 elements, but no per-element table is built: the field is
    # the modulus search and the Frobenius matrix, and an inverse is
    # one a^(q-2); together about 20 ms
    start = time.perf_counter()
    ctx = make_field(3, 12)
    assert time.perf_counter() - start < 5
    a = ctx.element([1] + [2] * 11)
    assert a * a.inverse() == ctx.one()


def test_make_field_rejects_bad_input():
    with pytest.raises(NotOddPrime):
        make_field(2, 3)
    with pytest.raises(NotOddPrime):
        make_field(9, 1)
    with pytest.raises(NotOddPrime):
        make_field(1, 1)
    with pytest.raises(BadDegree):
        make_field(3, 0)


def test_make_field_returns_one_context_per_field():
    # F9 and F5 may have left the cache since import: compare by key
    ctx = make_field(3, 2)
    assert make_field(3, 2) is ctx and ctx.key == F9.key
    assert make_field(5, 1) is make_field(5, 1)
    assert make_field(5, 2) is not make_field(5, 1)


def test_make_field_raises_on_every_bad_call(monkeypatch):
    # a failed construction is not cached: the check runs each time
    built = []
    ctx_init = fieldpoly.FieldCtx.__init__

    def counting(self, p, r):
        built.append((p, r))
        ctx_init(self, p, r)

    monkeypatch.setattr(fieldpoly.FieldCtx, "__init__", counting)
    for _ in range(3):
        with pytest.raises(NotOddPrime):
            make_field(9, 2)
        with pytest.raises(BadDegree):
            make_field(7, 0)
    assert built == [(9, 2), (7, 0)] * 3


def test_make_field_too_large_fails_before_modulus_search(monkeypatch):
    def no_search(p, r):
        raise AssertionError("modulus search ran before the size check")

    monkeypatch.setattr(fieldpoly, "_smallest_irreducible", no_search)
    with pytest.raises(ValueError):
        make_field(3, 14)


def test_make_field_refuses_large_p_before_primality_test(monkeypatch):
    # int64 residue products are exact only for p < 2^31; the refusal must
    # also come before trial division, which would take minutes
    def no_test(n):
        raise AssertionError("primality test ran before the size check")

    monkeypatch.setattr(fieldpoly, "_prime_factors", no_test)
    with pytest.raises(ValueError):
        make_field(4294967311, 1)


@pytest.mark.parametrize("p", (3, 5, (1 << 31) - 1, 1000003))
def test_make_field_accepts_odd_primes(p):
    assert make_field(p, 1).p == p


@pytest.mark.parametrize("p", (0, 1, 2, 9, 15))
def test_make_field_refuses_non_odd_primes(p):
    with pytest.raises(NotOddPrime, match=f"^p = {p} is not an odd prime$"):
        make_field(p, 1)


def test_largest_supported_prime_is_exact():
    p = (1 << 31) - 1  # a Mersenne prime
    ctx = make_field(p, 1)
    m1 = ctx.element(p - 1)
    T = Poly.T(ctx)
    assert T._scale(m1)._scale(m1) == T
    assert (T * m1 + 1) * (T * m1 + 1) == T * T + T * 2 * m1 + 1


@pytest.mark.parametrize("p", ((1 << 31) - 1, 1000003))
def test_batch_product_matches_poly_product_by_row(p):
    # near p = 2^31 one residue product is about 2^62, so every sum of
    # products passes the int64 bound; at p = 1000003 it stays below
    ctx = make_field(p, 1)
    rng = np.random.default_rng(p % 1000)
    for wa, wb in ((3, 3), (5, 3), (3, 8), (12, 4)):
        a = rng.integers(0, p, (1, 3, 2, wa))
        b = rng.integers(0, p, (1, 3, 2, wb))
        a[0, 0, 0] = p - 1  # the largest products, every term at once
        b[0, 0, 0] = p - 1
        a[..., -1] |= 1  # nonzero leading coefficients: untrimmed products
        b[..., -1] |= 1
        full = fieldpoly._batch_product(ctx, a, b)
        for i in range(3):
            for j in range(2):
                assert full[:, i, j].tolist() == fieldpoly._poly_product(
                    ctx, a[:, i, j], b[:, i, j]).tolist()
        assert np.array_equal(fieldpoly._batch_product(ctx, a, b, wa),
                              full[..., :wa])
        # one factor broadcast over the other's batch axes
        assert np.array_equal(fieldpoly._batch_product(ctx, a, b[:, :1, :1]),
                              np.stack([fieldpoly._batch_product(
                                  ctx, a[:, i], b[:, 0, :1])
                                  for i in range(3)], 1))


def test_batch_product_over_F9_matches_poly_product():
    rng = random.Random(9)
    a = [rand_poly(F9, rng) for _ in range(6)]
    b = [rand_poly(F9, rng) for _ in range(6)]
    width = max(x.arr.shape[1] for x in a + b)
    pack = np.zeros((2, 2, 6, width), dtype=np.int64)
    for k, (x, y) in enumerate(zip(a, b)):
        pack[:, 0, k, :x.arr.shape[1]] = x.arr
        pack[:, 1, k, :y.arr.shape[1]] = y.arr
    prod = fieldpoly._batch_product(F9, pack[:, 0], pack[:, 1])
    for k, (x, y) in enumerate(zip(a, b)):
        assert Poly(F9, prod[:, k]) == x * y


# ---------------------------------------------------------------------------
# coordinate-plane kernels against entrywise element products
#
# The schoolbook products of field_oracle share no code with the package,
# so they are an oracle for every kernel that multiplies arrays through
# FieldCtx._plane_product and FieldCtx._fold, FqElem products included.
# At q = 27 the fold reduces by two rows of w^3 and w^4.

F25 = make_field(5, 2)
F27 = make_field(3, 3)


def element_codes(ctx, arr):
    """The element codes of a coefficient array, coordinate axis first."""
    return np.tensordot(np.array(ctx._ppow), arr, axes=1)


def random_array(ctx, rng, shape, prime_rows=()):
    """Random coefficient array (r,) + shape with a nonzero last column;
    the batch rows in ``prime_rows`` hold only F_p coefficients, so that
    their coordinate planes of w, w^2, ... are zero."""
    arr = rng.integers(0, ctx.p, (ctx.r,) + shape)
    arr[0, ..., -1] = np.maximum(arr[0, ..., -1], 1)
    for i in prime_rows:
        arr[1:, i] = 0
    return arr


@pytest.mark.parametrize("ctx", (F25, F27), ids=("q25", "q27"))
def test_poly_product_and_divmod_match_element_products(ctx):
    rng = random.Random(ctx.q)
    polys = [rand_poly(ctx, rng, 9) for _ in range(8)]
    polys += [Poly.from_coeffs(ctx, [rng.randrange(ctx.p) for _ in range(5)]
                               + [1])]  # zero planes of w and beyond
    for x in polys:
        for y in polys[::3]:
            cx, cy = element_codes(ctx, x.arr), element_codes(ctx, y.arr)
            if not (x.is_zero() or y.is_zero()):
                assert element_codes(ctx, (x * y).arr).tolist() == \
                    element_product(ctx, cx, cy)
            if y.is_zero():
                continue
            quot, rem = divmod(x, y)
            assert rem.degree < y.degree
            back = quot * y + rem  # checked entrywise below
            if not quot.is_zero():
                want = element_product(ctx, element_codes(ctx, quot.arr), cy)
                for i, c in enumerate(element_codes(ctx, rem.arr).tolist()):
                    want[i] = code_sum(ctx, want[i], c)
                assert element_codes(ctx, back.arr).tolist() == want
            assert back == x


@pytest.mark.parametrize("ctx", (F25, F27), ids=("q25", "q27"))
def test_batch_product_and_rows_divmod_match_element_products(ctx):
    rng = np.random.default_rng(ctx.q)
    a = random_array(ctx, rng, (3, 2, 6), prime_rows=(1,))
    b = random_array(ctx, rng, (1, 2, 4))
    prod = fieldpoly._batch_product(ctx, a, b)
    for i in range(3):
        for j in range(2):
            assert element_codes(ctx, prod[:, i, j]).tolist() == \
                element_product(ctx, element_codes(ctx, a[:, i, j]),
                                element_codes(ctx, b[:, 0, j]))
    g = random_array(ctx, rng, (3,))
    quot, rem = fieldpoly._rows_divmod(ctx, a, g)
    for i in range(3):
        for j in range(2):
            x = Poly(ctx, a[:, i, j])
            assert (Poly(ctx, quot[:, i, j]), Poly(ctx, rem[:, i, j])) == \
                divmod(x, Poly(ctx, g))


@pytest.mark.parametrize("ctx", (F25, F27), ids=("q25", "q27"))
def test_times_coords_matches_element_products(ctx):
    # one element for a whole array, then one element per batch index
    rng = np.random.default_rng(ctx.q + 1)
    arr = random_array(ctx, rng, (2, 4, 5), prime_rows=(0,))
    for code in (1, ctx.p - 1, ctx.p, ctx.q - 1, ctx.p ** (ctx.r - 1) + 2):
        e = fieldpoly.FqElem(ctx, code)
        got = element_codes(ctx, fieldpoly._times_coords(ctx, e.coords, arr))
        want = [[[code_product(ctx, c, code) for c in row]
                 for row in rows] for rows in element_codes(ctx, arr).tolist()]
        assert got.tolist() == want
        poly = Poly(ctx, arr[:, 0, 0])
        assert poly._scale(e) == poly * Poly.constant(ctx, e)
    codes = [0, 1, ctx.p, ctx.q - 1]
    c = np.array([fieldpoly.FqElem(ctx, x).coords for x in codes]).T
    got = element_codes(ctx, fieldpoly._times_coords(ctx, c[:, None], arr))
    want = [[[code_product(ctx, x, y) for x in row]
             for y, row in zip(codes, rows)]
            for rows in element_codes(ctx, arr).tolist()]
    assert got.tolist() == want


def brute_smallest_irreducible_deg3(p):
    # oracle: a cubic is irreducible exactly when it has no root in F_p;
    # scan in lex order with the constant term most significant
    for c0 in range(p):
        for c1 in range(p):
            for c2 in range(p):
                if all((x ** 3 + c2 * x * x + c1 * x + c0) % p
                       for x in range(p)):
                    return (c0, c1, c2, 1)
    raise AssertionError


@pytest.mark.parametrize("p", (3, 5))
def test_smallest_irreducible_cubic_matches_brute_force(p):
    assert (fieldpoly._smallest_irreducible(p, 3)
            == brute_smallest_irreducible_deg3(p))


@pytest.mark.parametrize("r,modulus", (
    (10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)),
    (12, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
))
def test_smallest_irreducible_skips_multiples_of_T(r, modulus):
    # a zero constant term makes the candidate a multiple of T, so the
    # search must not run Rabin's test on those 3^(r-1) candidates
    start = time.perf_counter()
    assert fieldpoly._smallest_irreducible(3, r) == modulus
    assert time.perf_counter() - start < 2


def test_make_field_deterministic():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a.modulus == b.modulus
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_field_axioms_random(ctx):
    rng = random.Random(20240601 + ctx.q)
    one = ctx.one()
    for _ in range(500):
        a, b, c = (rand_elem(ctx, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == one
        assert a + (-a) == ctx.zero()


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_field_characteristic_and_frobenius(ctx):
    rng = random.Random(7)
    for _ in range(50):
        a = rand_elem(ctx, rng)
        b = rand_elem(ctx, rng)
        s = ctx.zero()
        for _ in range(ctx.p):
            s = s + a
        assert s.is_zero()
        assert (a + b) ** ctx.p == a ** ctx.p + b ** ctx.p


def test_fqelem_coords_canonical():
    w = F9.element([0, 1])
    assert w.coords == (0, 1)
    assert (w + 1).coords == (1, 1)
    # w^2 = -1 = 2 with modulus w^2 + 1
    assert (w * w).coords == (2, 0)
    assert str(w + 1) == "w+1"


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_add_example():
    T = Poly.T(F3)
    assert (T + 1) + (T + 2) == 2 * T


def test_poly_divrem_example():
    T = Poly.T(F3)
    quo, rem = divmod(T ** 3, T ** 3 - T)
    assert quo == Poly.one(F3)
    assert rem == T


def test_poly_gcd_example():
    # T^2 + 2 = T^2 - 1 = (T - 1)(T + 1) over F_3; brute-force the factor
    T = Poly.T(F3)
    f = T ** 2 + 2
    g = T + 1
    assert f.gcd(g) == g
    roots = [c for c in range(3) if ((c * c + 2) % 3 == 0)]
    assert (3 - 1) in roots  # -1 is a root, matching the common factor


def test_poly_degree_sentinel():
    assert Poly.zero(F3).degree == NEG_INF
    assert Poly.one(F3).degree == 0
    assert Poly.T(F3).degree == 1
    assert NEG_INF < 0 and NEG_INF + 5 == NEG_INF


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_poly_divrem_property(ctx):
    rng = random.Random(101)
    for _ in range(120):
        f = rand_poly(ctx, rng)
        g = rand_poly(ctx, rng)
        if g.is_zero():
            with pytest.raises(DivisionByZero):
                divmod(f, g)
            continue
        quo, rem = divmod(f, g)
        assert quo * g + rem == f
        assert rem.degree < g.degree


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_poly_gcd_properties(ctx):
    rng = random.Random(202)
    for _ in range(60):
        f = rand_poly(ctx, rng)
        g = rand_poly(ctx, rng)
        h = f.gcd(g)
        if f.is_zero() and g.is_zero():
            assert h.is_zero()
            continue
        assert h.is_monic()
        if not f.is_zero():
            assert (f % h).is_zero()
        if not g.is_zero():
            assert (g % h).is_zero()


def test_poly_pow_matches_repeated_mul():
    rng = random.Random(303)
    for ctx in FIELDS:
        f = rand_poly(ctx, rng, maxdeg=3)
        acc = Poly.one(ctx)
        for n in range(6):
            assert f ** n == acc
            acc = acc * f


def test_one_power_loop_for_every_ring():
    # FqElem, Poly and RatFunc powers all go through fieldpoly._power
    rng = random.Random(307)
    for ctx in FIELDS:
        e = rand_elem(ctx, rng)
        x = RatFunc(rand_poly(ctx, rng, maxdeg=3), Poly.T(ctx) + 1)
        acc_e, acc_x = ctx.one(), RatFunc.constant(ctx, 1)
        for n in range(9):
            assert e ** n == acc_e
            assert x ** n == acc_x
            acc_e, acc_x = acc_e * e, acc_x * x
        assert x ** -3 == (x * x * x).inverse()
    assert fieldpoly._power(Poly.T(F3), 0, "one") == "one"


def test_poly_from_pairs_rejects_a_negative_exponent():
    # an unchecked -1 indexed the last column: T^3 + T^-1 read as 2*T^3
    with pytest.raises(ValueError, match="negative exponent -1"):
        Poly.from_pairs(F3, [(3, 1), (-1, 1)])
    with pytest.raises(ValueError, match="negative exponent -2"):
        Poly.from_pairs(F9, [(-2, 1)])
    assert Poly.from_pairs(F3, [(3, 1), (0, 1), (3, 1)]) == \
        Poly.from_coeffs(F3, [1, 0, 0, 2])


def test_poly_mixed_field_rejected():
    with pytest.raises(MixedField):
        Poly.T(F3) + Poly.T(F5)


# ---------------------------------------------------------------------------
# special moduli


def test_special_modulus_examples():
    assert str(special_modulus(F3, 1)) == "T^3 + 2*T"
    m2 = special_modulus(F3, 2)
    assert m2.degree == 9
    assert str(m2) == "T^9 + 2*T"
    with pytest.raises(BadDegree):
        special_modulus(F3, 0)


@pytest.mark.parametrize("ctx,d", ((F3, 1), (F3, 2), (F9, 1)),
                         ids=("q3-d1", "q3-d2", "q9-d1"))
def test_special_modulus_is_built_once(ctx, d):
    m = special_modulus(ctx, d)
    assert special_modulus(ctx, d) is m
    assert m == Poly.from_pairs(ctx, [(ctx.q ** d, 1), (1, ctx.p - 1)])
    with pytest.raises(BadDegree):
        special_modulus(ctx, 1 - d)


def lcm_monics(ctx, d):
    """Least common multiple of all monic polynomials of degree d,
    the product of T^(q^i) - T for i = 1 .. d."""
    if d < 0:
        raise BadDegree(f"d = {d} must be nonnegative")
    out = Poly.one(ctx)
    for i in range(1, d + 1):
        out = out * special_modulus(ctx, i)
    return out


def test_lcm_monics_examples():
    assert lcm_monics(F3, 0) == Poly.one(F3)
    assert lcm_monics(F3, 1) == special_modulus(F3, 1)
    assert lcm_monics(F3, 2) == special_modulus(F3, 1) * special_modulus(F3, 2)


def test_lcm_monics_is_lcm_of_monics():
    # oracle: fold lcm(a, b) = a*b / gcd(a, b) over every monic quadratic
    T = Poly.T(F3)
    acc = Poly.one(F3)
    for c1 in range(3):
        for c0 in range(3):
            m = T ** 2 + c1 * T + c0
            g = acc.gcd(m)
            acc = (acc * m) // g
    assert acc == lcm_monics(F3, 2)


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
@pytest.mark.parametrize("d", (1, 2))
def test_special_modulus_divides_lcm(ctx, d):
    assert (lcm_monics(ctx, d) % special_modulus(ctx, d)).is_zero()


@pytest.mark.parametrize("ctx", (F3, F5, F9, F25, F27),
                         ids=lambda c: f"q{c.q}")
@pytest.mark.parametrize("d", (1, 2))
def test_special_divmod_matches_long_division(ctx, d):
    # the strided sum against one long division by T^(q^d) - T, on batch
    # shapes of every rank, widths below, at and above Q + 1, zero rows
    rng = np.random.default_rng(100 * ctx.q + d)
    big = ctx.q ** d
    g = special_modulus(ctx, d).arr
    for n in (0, 1, 2, big - 1, big, big + 1, big + 2, 2 * big + 3,
              3 * big - 1):
        for shape in ((), (3,), (2, 2)):
            arr = rng.integers(0, ctx.p, (ctx.r,) + shape + (n,))
            if shape:
                arr[:, 0] = 0
            quot, rem = fieldpoly._special_divmod(ctx, arr, d)
            want_quot, want_rem = fieldpoly._rows_divmod(ctx, arr, g)
            assert quot.shape == want_quot.shape
            assert rem.shape == want_rem.shape
            assert np.array_equal(quot, want_quot)
            assert np.array_equal(rem, want_rem)


# ---------------------------------------------------------------------------
# rational functions


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_ratfunc_canonicalization(ctx):
    rng = random.Random(404)
    for _ in range(60):
        a = rand_poly(ctx, rng)
        b = rand_poly(ctx, rng)
        c = rand_poly(ctx, rng)
        if b.is_zero() or c.is_zero():
            continue
        x = RatFunc(a, b)
        y = RatFunc(a * c, b * c)
        assert x == y
        assert x.num == y.num and x.den == y.den
        assert x.den.is_monic()
        assert x.num.gcd(x.den).is_one() or x.num.is_zero()


def test_ratfunc_field_ops():
    rng = random.Random(505)
    for _ in range(40):
        a = rand_poly(F3, rng)
        b = rand_poly(F3, rng)
        if b.is_zero():
            continue
        x = RatFunc(a, b)
        y = RatFunc(rand_poly(F3, rng), Poly.T(F3) + 1)
        assert (x + y) - y == x
        if not y.is_zero():
            assert (x * y) / y == x
    with pytest.raises(DivisionByZero):
        RatFunc(Poly.one(F3), Poly.zero(F3))
    with pytest.raises(DivisionByZero):
        RatFunc.constant(F3, 0).inverse()


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_ratfunc_times_one_is_the_other_factor(ctx):
    T = Poly.T(ctx)
    one = RatFunc.constant(ctx, 1)
    for x in (RatFunc(T ** 2 + 1), RatFunc(Poly.constant(ctx, 2)),
              RatFunc(T + 1, T * T), RatFunc(Poly.one(ctx), T + 2),
              RatFunc.constant(ctx, 0)):
        for prod in (one * x, x * one, x * 1, 1 * x, x * Poly.one(ctx)):
            assert isinstance(prod, RatFunc)
            assert prod == x and prod.num == x.num and prod.den == x.den
    assert one * one == one


def test_ratfunc_integrality_flag():
    T = Poly.T(F3)
    assert RatFunc(T ** 2 + 1).is_integral()
    assert not RatFunc(Poly.one(F3), T).is_integral()
    # cancellation can restore integrality
    assert RatFunc(T * (T + 1), T).is_integral()


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_ratfunc_pow_matches_repeated_mul(ctx):
    rng = random.Random(606)
    T = Poly.T(ctx)
    xs = [RatFunc(T + 1, T * T), RatFunc(Poly.constant(ctx, 2), T + 2)]
    while len(xs) < 6:
        num, den = rand_poly(ctx, rng, 3), rand_poly(ctx, rng, 3)
        if not (num.is_zero() or den.is_zero()):
            xs.append(RatFunc(num, den))  # leads not monic in general
    for x in xs:
        up, down = RatFunc.constant(ctx, 1), RatFunc.constant(ctx, 1)
        for n in range(8):
            assert x ** n == up and x ** -n == down
            assert (x ** -n).den.is_monic()
            up, down = up * x, down / x
    zero = RatFunc.constant(ctx, 0)
    assert zero ** 0 == RatFunc.constant(ctx, 1)
    assert zero ** 3 == zero
    with pytest.raises(DivisionByZero):
        zero ** -1


def test_constants_are_shared_per_field():
    for ctx in FIELDS:
        again = fieldpoly.FieldCtx(ctx.p, ctx.r)  # equal, another object
        assert Poly.one(again) is Poly.one(ctx) is Poly.constant(ctx, 1)
        assert Poly.zero(again) is Poly.zero(ctx) is Poly.constant(ctx, 0)
        assert RatFunc.constant(ctx, 0) is RatFunc.constant(again, ctx.p)
        assert (RatFunc.constant(ctx, 1) is RatFunc.constant(ctx, ctx.one())
                is RatFunc.constant(again, 1 - ctx.p))
        assert RatFunc.constant(ctx, 1).den is Poly.one(ctx)
        assert not Poly.one(ctx).arr.flags.writeable
        two = RatFunc.constant(ctx, 2)
        assert two == RatFunc(Poly.constant(ctx, 2)) and two.is_integral()


# ---------------------------------------------------------------------------
# rendering and parsing


def test_poly_render_examples():
    T = Poly.T(F3)
    assert str(2 * T ** 3 + T + 1) == "2*T^3 + T + 1"
    assert str(Poly.zero(F3)) == "0"
    w = F9.element([0, 1])
    p = Poly.from_pairs(F9, [(2, w + 1), (0, w)])
    assert str(p) == "(w+1)*T^2 + w"


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_poly_parse_roundtrip(ctx):
    rng = random.Random(606)
    for _ in range(80):
        f = rand_poly(ctx, rng)
        assert poly_parse(ctx, str(f)) == f


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_ratfunc_parse_roundtrip(ctx):
    rng = random.Random(707)
    for _ in range(60):
        num = rand_poly(ctx, rng)
        den = rand_poly(ctx, rng)
        if den.is_zero():
            continue
        x = RatFunc(num, den)
        assert ratfunc_parse(ctx, str(x)) == x


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        poly_parse(F3, "T +")
    with pytest.raises(ValueError):
        poly_parse(F3, "x^2")
    with pytest.raises(ValueError):
        poly_parse(F3, "w")  # no generator over a prime field


# ---------------------------------------------------------------------------
# matrices and kernels


def rf(p):
    return RatFunc(p)


def identity(ctx, n):
    one = RatFunc.constant(ctx, 1)
    zero = RatFunc.constant(ctx, 0)
    return Matrix(ctx, [[one if i == j else zero for j in range(n)]
                        for i in range(n)])


def test_left_kernel_full_rank():
    kern = left_kernel(identity(F3, 2))
    assert kern.rows == 0 and kern.cols == 2


def test_left_kernel_example():
    T = Poly.T(F3)
    m = Matrix(F3, [[Poly.one(F3), T], [T, T * T]])
    kern = left_kernel(m)
    assert kern.rows == 1
    minus_inv_T = RatFunc(-Poly.one(F3), T)
    assert kern.entries[0][0] == RatFunc(Poly.one(F3))
    assert kern.entries[0][1] == minus_inv_T


def test_left_kernel_zero_row():
    m = Matrix(F3, [[Poly.zero(F3), Poly.zero(F3)]])
    kern = left_kernel(m)
    assert kern.rows == 1
    assert kern.entries[0][0].is_one()


def row_times_matrix(v, m):
    out = []
    for j in range(m.cols):
        s = RatFunc.constant(m.ctx, 0)
        for i in range(m.rows):
            s = s + v[i] * m.entries[i][j]
        out.append(s)
    return out


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_left_kernel_properties(ctx):
    rng = random.Random(808)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Matrix(ctx, [[rand_poly(ctx, rng, maxdeg=2)
                          for _ in range(cols)] for _ in range(rows)])
        kern = left_kernel(m)
        for v in kern.entries:
            assert all(e.is_zero() for e in row_times_matrix(v, m))
            lead = next(e for e in v if not e.is_zero())
            assert lead.is_one()
        assert m.rank() + kern.rows == rows


def test_rref_canonical():
    T = Poly.T(F3)
    m = Matrix(F3, [[T, T * T], [Poly.one(F3), T]])
    red, piv = m.rref()
    assert piv == (0,)
    assert red.entries[0][0].is_one()
    assert red.entries[0][1] == RatFunc(T)
    assert all(e.is_zero() for e in red.entries[1])


def rref_entrywise(m):
    """Fraction-free Gauss-Jordan elimination one entry at a time, each
    entry a Poly: the elimination before Matrix.rref ran on blocks, kept
    as its oracle.  Rows are cleared of their denominators, every row
    other than the pivot row becomes (p*row_i - a_i*row_p) / p_prev, and
    the pivot rows are divided by their pivots entry by entry."""
    ctx = m.ctx

    def step(p, x, f, y, prev):
        num = p * x - f * y
        quo, rem = divmod(num, prev)
        assert rem.is_zero()
        return quo

    rows = [fieldpoly._cleared_row(ctx, row)[0] for row in m.entries]
    pivots, prev = [], Poly.one(ctx)
    for pc in range(m.cols):
        pr = len(pivots)
        hit = next((i for i in range(pr, len(rows))
                    if not rows[i][pc].is_zero()), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        p = rows[pr][pc]
        rows = [row if i == pr else
                [step(p, x, row[pc], y, prev) for x, y in zip(row, rows[pr])]
                for i, row in enumerate(rows)]
        prev = p
        pivots.append(pc)
        if len(pivots) == len(rows):
            break
    out = [[RatFunc(x, row[pivots[i]]) for x in row] if i < len(pivots)
           else [RatFunc.constant(ctx, 0)] * m.cols
           for i, row in enumerate(rows)]
    return Matrix(ctx, out), tuple(pivots)


def rref_oracle(m):
    """Gauss-Jordan elimination over F_q(T), every entry a reduced
    fraction: the elimination Matrix.rref replaced, kept as its oracle."""
    rows = [list(r) for r in m.entries]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        hit = None
        for i in range(pr, len(rows)):
            if not rows[i][pc].is_zero():
                hit = i
                break
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        inv = rows[pr][pc].inverse()
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and not rows[i][pc].is_zero():
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return Matrix(m.ctx, rows), tuple(pivots)


def rand_ratfunc(ctx, rng, maxdeg=3):
    den = rand_poly(ctx, rng, 2)
    return RatFunc(rand_poly(ctx, rng, maxdeg),
                   Poly.one(ctx) if den.is_zero() else den)


def assert_same_echelon(m):
    """The block rref of m equals both oracles: pivots, matrix and every
    reduced entry, each in lowest terms with a monic denominator."""
    red, piv = m.rref()
    for want, want_piv in (rref_entrywise(m), rref_oracle(m)):
        assert piv == want_piv
        assert red == want and hash(red) == hash(want)
        assert red.entries == want.entries
    for x in (x for row in red.entries for x in row):
        assert x.den.is_monic() and x.num.gcd(x.den).is_one()
    assert all(red.entries[i][c].is_one() for i, c in enumerate(piv))
    for mat in (m, red):  # strings from the blocks, as str renders entries
        assert mat.rendered() == [[str(x) for x in row]
                                  for row in mat.entries]


@st.composite
def poly_st(draw, ctx, maxdeg):
    # coefficients need not be monic, nor lie in the prime field
    coords = st.lists(st.integers(0, ctx.p - 1), min_size=ctx.r,
                      max_size=ctx.r)
    return Poly.from_coeffs(ctx, draw(st.lists(coords, max_size=maxdeg + 1)))


@st.composite
def ratfunc_st(draw, ctx):
    num = draw(poly_st(ctx, 3))
    den = draw(poly_st(ctx, 2))
    return RatFunc(num) if den.is_zero() else RatFunc(num, den)


@st.composite
def matrix_st(draw):
    ctx = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    ent = [[draw(ratfunc_st(ctx)) for _ in range(cols)] for _ in range(rows)]
    zero = RatFunc.constant(ctx, 0)
    if rows >= 3 and draw(st.booleans()):
        # rank deficient: a row in the span of two others
        a, b = draw(ratfunc_st(ctx)), draw(ratfunc_st(ctx))
        i = draw(st.integers(2, rows - 1))
        ent[i] = [a * x + b * y for x, y in zip(ent[0], ent[1])]
    if rows and draw(st.booleans()):
        ent[draw(st.integers(0, rows - 1))] = [zero] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in ent:
            row[j] = zero
    return Matrix(ctx, ent)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_st())
@example(Matrix(F5, []))
@example(Matrix(F9, [[], [], []]))
def test_rref_matches_field_oracle(m):
    assert_same_echelon(m)
    kern = left_kernel(m)
    if kern.rows:
        assert Matrix(m.ctx, kern.entries).rref()[0].entries == kern.entries


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_block_rref_matches_entrywise_elimination(ctx):
    # non-monic pivots, a zero column, rank deficiency, rows over
    # different denominators and empty matrices; random ones are drawn by
    # test_rref_matches_field_oracle
    T = Poly.T(ctx)
    assert_same_echelon(Matrix(ctx, [[2 * T + 1, T * T], [T, 2]]))
    assert_same_echelon(Matrix(ctx, [[0, T, 1], [0, 1, T + 1]]))
    assert_same_echelon(Matrix(ctx, [[T, 1, T], [2 * T, 2, 2 * T]]))
    assert_same_echelon(Matrix(ctx, [[RatFunc(T + 2, T), 1],
                                     [RatFunc(Poly.one(ctx), T + 1), T]]))
    assert_same_echelon(Matrix(ctx, []))
    assert_same_echelon(Matrix(ctx, [[], [], []]))


def test_block_rref_near_the_int64_bound():
    # at p = 2^31 - 1 a residue product is about 2^62, so every sum of
    # products in the elimination and in the reduction must stay exact
    ctx = make_field((1 << 31) - 1, 1)
    rng = random.Random(911)
    for _ in range(10):
        assert_same_echelon(Matrix(ctx, [[rand_ratfunc(ctx, rng)
                                          for _ in range(3)]
                                         for _ in range(3)]))


def test_matrix_rows_need_not_be_in_lowest_terms():
    for ctx in FIELDS:
        T = Poly.T(ctx)
        m = Matrix(ctx, [[RatFunc(T, T + 1), 1], [T, RatFunc(Poly.one(ctx),
                                                             T)]])
        # the block and the denominator times T + 2: the same matrix
        f = (T + 2).arr
        other = Matrix._of(ctx, fieldpoly._batch_product(
            ctx, m.block, f[:, None, None]), m.den * (T + 2))
        assert other == m and hash(other) == hash(m)
        assert other.entries == m.entries
        assert other.rendered() == m.rendered() == [
            [str(x) for x in row] for row in m.entries]
        assert other.rref() == m.rref()
        assert other != Matrix(ctx, [[T, 1], [T, 1]])
        # the left kernel of block / den is that of the block alone
        rank1 = Matrix(ctx, [[RatFunc(T, T + 1), 1],
                             [RatFunc(T * T, T + 1), T]])
        scaled = Matrix._of(ctx, fieldpoly._batch_product(
            ctx, rank1.block, f[:, None, None]), rank1.den * (T + 2))
        kern = left_kernel(scaled)
        assert kern == left_kernel(rank1)
        assert kern.entries == ((RatFunc(Poly.one(ctx)),
                                 RatFunc(-Poly.one(ctx), T)),)


def poly_str_oracle(f):
    """Poly rendering one column at a time, a field element per column."""
    if f.is_zero():
        return "0"
    parts = []
    for j in range(f.arr.shape[1] - 1, -1, -1):
        c = f.coeff(j)
        if c.is_zero():
            continue
        if j == 0:
            s = str(c)
            if "+" in s:
                s = f"({s})"
            parts.append(s)
        else:
            tp = "T" if j == 1 else f"T^{j}"
            if c.is_one():
                parts.append(tp)
            elif c.code < c.ctx.p:
                parts.append(f"{c.code}*{tp}")
            else:
                parts.append(f"({c})*{tp}")
    return " + ".join(parts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_poly_render_matches_oracle(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    f = data.draw(poly_st(ctx, 12))
    assert str(f) == poly_str_oracle(f)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_poly_render_every_coefficient(ctx):
    # zero, every constant, and every element at T and T^3
    assert str(Poly.zero(ctx)) == poly_str_oracle(Poly.zero(ctx)) == "0"
    for code in range(ctx.q):
        c = fieldpoly.FqElem(ctx, code)
        for f in (Poly.constant(ctx, c), Poly.from_pairs(ctx, [(1, c)]),
                  Poly.from_pairs(ctx, [(3, c), (0, c)])):
            assert str(f) == poly_str_oracle(f)
    if ctx is F9:
        w = F9.element([0, 1])
        assert str(Poly.constant(F9, w + 1)) == "(w+1)"
        assert str(Poly.constant(F9, 2 * w)) == "2*w"
        assert str(Poly.from_pairs(F9, [(1, 2 * w + 2), (0, w + 2)])) == (
            "(2*w+2)*T + (w+2)")


def test_poly_parse_rejects_non_polynomial():
    with pytest.raises(ValueError):
        poly_parse(F3, "(1)/(T)")


def test_parse_rejects_deep_nesting():
    T = Poly.T(F3)
    assert poly_parse(F3, "(" * 100 + "T" + ")" * 100) == T
    for depth in (250, 3000):
        with pytest.raises(ExprError):
            poly_parse(F3, "(" * depth + "T" + ")" * depth)


def test_parse_accepts_full_grammar():
    T = Poly.T(F3)
    assert poly_parse(F3, "T*T") == T ** 2
    assert poly_parse(F3, "2-T") == 2 - T
    assert poly_parse(F3, "-(T+1)^2") == -((T + 1) ** 2)
    assert ratfunc_parse(F3, "T^-2 / (1 + T)") == RatFunc(
        Poly.one(F3), T ** 2 * (T + 1))
    w = F9.element([0, 1])
    assert poly_parse(F9, "w^3") == Poly.constant(F9, w ** 3)
    assert poly_parse(F9, "w^2") == Poly.constant(F9, -1)  # w^2 + 1 = 0


def test_parse_expr_named_atoms():
    T = Poly.T(F3)
    names = {"x": RatFunc(T + 1)}
    assert parse_expr(F3, "x^2 - T", names) == RatFunc(T ** 2 + T + 1)
    with pytest.raises(ExprError):
        parse_expr(F3, "x")  # no table, no names
    with pytest.raises(ExprError):
        parse_expr(F3, "1/(T - T)")
    with pytest.raises(ExprError):
        parse_expr(F3, "T^")


@pytest.mark.parametrize("text", ("E_T +", "(", "-", "E_T*", "", "   ",
                                  "T^"))
def test_parse_expr_reports_end_of_input(text):
    names = {"E_T": RatFunc(Poly.T(F3))}
    with pytest.raises(ExprError, match="^unexpected end of expression$"):
        parse_expr(F3, text, names)
