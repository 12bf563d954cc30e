import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drinfeldforms import carlitz
from drinfeldforms.carlitz import (
    CarlitzMap,
    carlitz_map,
    monic_power_sum,
    monic_series_sum,
    monics,
    u_sub_a,
)
from drinfeldforms.errors import NotMonic, ZeroInput
from drinfeldforms.fieldpoly import Poly, RatFunc, make_field
from drinfeldforms.useries import USeries

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)
F25 = make_field(5, 2)
F27 = make_field(3, 3)


def rand_poly(ctx, rng, maxdeg):
    d = rng.randrange(maxdeg + 1)
    cs = [rng.randrange(ctx.q) for _ in range(d + 1)]
    coeffs = [ctx.element([(c // ctx.p ** k) % ctx.p
                           for k in range(ctx.r)]) for c in cs]
    return Poly.from_coeffs(ctx, coeffs)


def compose(m, n):
    """rho_a o rho_b for the maps m = rho_a and n = rho_b, which equals
    rho_(ab)."""
    ctx = m.a.ctx
    out = [Poly.zero(ctx) for _ in range(len(m.coeffs) + len(n.coeffs) - 1)]
    powered = list(n.coeffs)  # each coefficient of n raised to q^i
    for i, li in enumerate(m.coeffs):
        if i:
            # q = p^r, so the q-th power is r Frobenius steps
            for _ in range(ctx.r):
                powered = [c._frobenius() for c in powered]
        if li.is_zero():
            continue
        for j, mj in enumerate(powered):
            if mj.is_zero():
                continue
            out[i + j] = out[i + j] + li * mj
    return CarlitzMap(m.a * n.a, out)


# ---------------------------------------------------------------------------
# the additive polynomials rho_a


def test_carlitz_map_identity():
    m = carlitz_map(Poly.one(F3))
    assert m.coeffs == (Poly.one(F3),)


def test_carlitz_map_T():
    T = Poly.T(F3)
    m = carlitz_map(T)
    assert m.coeffs == (T, Poly.one(F3))


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_carlitz_map_T_squared(ctx):
    # compose rho_T with itself by hand: T(TX + X^q) + (TX + X^q)^q
    T = Poly.T(ctx)
    q = ctx.q
    m = carlitz_map(T * T)
    assert m.coeffs == (T * T, T ** q + T, Poly.one(ctx))


def test_carlitz_map_rejects_zero():
    with pytest.raises(ZeroInput):
        carlitz_map(Poly.zero(F3))


def test_carlitz_lowest_and_leading_coefficients():
    rng = random.Random(91)
    for ctx in (F3, F9):
        for _ in range(25):
            a = rand_poly(ctx, rng, 4)
            if a.is_zero():
                continue
            m = carlitz_map(a)
            assert m.coeffs[0] == a
            if a.is_monic():
                assert m.coeffs[-1].is_one()


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_carlitz_multiplicativity_and_additivity(ctx):
    rng = random.Random(17 + ctx.q)
    for _ in range(100):
        a = rand_poly(ctx, rng, 4)
        b = rand_poly(ctx, rng, 4)
        if a.is_zero() or b.is_zero():
            continue
        assert carlitz_map(a * b) == compose(carlitz_map(a), carlitz_map(b))
        if not (a + b).is_zero():
            ma, mb = carlitz_map(a), carlitz_map(b)
            ms = carlitz_map(a + b)
            n = max(len(ma.coeffs), len(mb.coeffs))
            for i in range(n):
                ca = ma.coeffs[i] if i < len(ma.coeffs) else Poly.zero(ctx)
                cb = mb.coeffs[i] if i < len(mb.coeffs) else Poly.zero(ctx)
                cs = ms.coeffs[i] if i < len(ms.coeffs) else Poly.zero(ctx)
                assert cs == ca + cb


def linear_map(a, basis):
    """Oracle: rho_a as sum_j a_j rho_(T^j), where basis[j] holds the
    coefficients of rho_(T^j) for every j <= deg a, one Poly product per
    term."""
    cs = a.coeffs()
    return CarlitzMap(a, [
        sum((basis[j][i] * c for j, c in enumerate(cs[i:], i)
             if not c.is_zero()), Poly.zero(a.ctx))
        for i in range(len(cs))])


def power_basis(ctx, top):
    """The coefficients of rho_(T^j), j <= top, by Horner composition with
    rho_T = T X + X^q."""
    T = Poly.T(ctx)
    rho_t = CarlitzMap(T, (T, Poly.one(ctx)))
    maps = [CarlitzMap(Poly.one(ctx), (Poly.one(ctx),))]
    for _ in range(top):
        maps.append(compose(maps[-1], rho_t))
    return [m.coeffs for m in maps]


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_linear_map_matches_horner(ctx):
    # rho_a = sum_j a_j rho_(T^j) against carlitz_map, for every monic a of
    # degree <= 3 and for c * a with a constant c != 0, 1
    basis = power_basis(ctx, 3)
    c = ctx.element([1] * ctx.r) + 1
    for d in range(4):
        for a in monics(ctx, d):
            assert linear_map(a, basis) == carlitz_map(a)
            assert linear_map(a * c, basis) == carlitz_map(a * c)


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_batched_coefficients_match_linear_map(ctx):
    # the coefficients l_i(a) of all monic a of one degree <= 3, taken on
    # one batch axis, against sum_j a_j rho_(T^j) one a at a time
    basis = power_basis(ctx, 3)
    for d in range(4):
        ms = monics(ctx, d)
        ls = carlitz._rho_coeffs(ctx, np.stack([a.arr for a in ms], 1))
        for k, a in enumerate(ms):
            assert [Poly(ctx, ls[:, k, i]) for i in range(d + 1)] == list(
                linear_map(a, basis).coeffs)


# ---------------------------------------------------------------------------
# u(az)


def test_u_sub_one_is_u():
    f = u_sub_a(Poly.one(F3), 8)
    assert f.val == 1
    assert f.coeff(1).is_one()
    assert all(c.is_zero() for e, c in f.terms() if e != 1)


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_u_sub_T_geometric(ctx):
    # oracle: u^q * sum_j (-T)^j u^(j(q-1))
    q = ctx.q
    T = Poly.T(ctx)
    prec = 4 * q
    f = u_sub_a(T, prec)
    c = RatFunc.constant(ctx, 1)
    j = 0
    while q + j * (q - 1) < prec:
        assert f.coeff(q + j * (q - 1)) == c
        c = c * RatFunc(-T)
        j += 1
    assert f == u_sub_a(Poly.T(ctx), prec)  # deterministic


def test_u_sub_T_plus_c():
    q = F3.q
    T = Poly.T(F3)
    for c in range(1, 3):
        a = T + c
        f = u_sub_a(a, 3 * q)
        assert f.coeff(q).is_one()
        assert f.coeff(2 * q - 1) == RatFunc(-a)


def test_u_sub_a_requires_monic():
    T = Poly.T(F3)
    with pytest.raises(NotMonic):
        u_sub_a(2 * T, 9)
    with pytest.raises(NotMonic):
        u_sub_a(Poly.zero(F3), 9)


@pytest.mark.parametrize("ctx", (F3, F9), ids=lambda c: f"q{c.q}")
def test_u_sub_a_integral_unit_lead(ctx):
    q = ctx.q
    for deg in range(3):
        for a in monics(ctx, deg):
            f = u_sub_a(a, q ** deg + 2 * (q - 1) + 1)
            assert f.integral
            assert f.val == q ** deg
            assert f.coeff(q ** deg).is_one()


@pytest.mark.parametrize("ctx", (F3, F5), ids=lambda c: f"q{c.q}")
def test_u_sub_Ta_equals_substitution(ctx):
    # two independent routes: build u((Ta)z) directly, or substitute
    # u -> u(Tz) in u(az)
    q = ctx.q
    T = Poly.T(ctx)
    for deg in range(3):
        for a in monics(ctx, deg)[:4]:
            prec = q ** (deg + 1) + 2 * (q - 1) + 1
            direct = u_sub_a(T * a, prec)
            base = u_sub_a(a, (prec + q - 1) // q + 1)
            routed = base.substitute_Tz(out_prec=prec)
            assert direct.agrees_with(routed)


# ---------------------------------------------------------------------------
# monic enumeration


def test_monics_degree_zero_and_one():
    assert monics(F3, 0) == [Poly.one(F3)]
    T = Poly.T(F3)
    assert monics(F3, 1) == [T, T + 1, T + 2]


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_monics_count(ctx):
    for d in range(3):
        ms = monics(ctx, d)
        assert len(ms) == ctx.q ** d
        assert len({str(m) for m in ms}) == len(ms)
        assert all(m.is_monic() and m.degree == d for m in ms)


def test_monics_deterministic():
    assert [str(m) for m in monics(F9, 1)] == [str(m) for m in monics(F9, 1)]


# ---------------------------------------------------------------------------
# monic sums


def test_monic_sum_weight_a_low_precision():
    # below u^q only a = 1 contributes, giving u itself
    q = F3.q
    s = monic_series_sum(F3, lambda a: a, 1, q)
    assert s.terms() == [(1, RatFunc.constant(F3, 1))]


def test_monic_sum_power_q_minus_1_low_precision():
    # degree-1 monics first contribute at exponent (q-1)q
    q = F3.q
    s = monic_series_sum(F3, lambda a: Poly.one(F3), q - 1, q * (q - 1))
    assert s.terms() == [(q - 1, RatFunc.constant(F3, 1))]


def test_monic_sum_zero_when_prec_too_small():
    s = monic_series_sum(F3, lambda a: a, 3, 3)
    assert s.is_zero()


def test_monic_sum_independent_of_grouping():
    # summing even-degree and odd-degree slices separately gives the same
    # series; exact arithmetic makes any grouping valid
    q = F3.q
    prec = 2 * q ** 2

    def weighted(pred):
        return monic_series_sum(
            F3, lambda a: a if pred(int(a.degree)) else Poly.zero(F3),
            1, prec)

    full = monic_series_sum(F3, lambda a: a, 1, prec)
    even = weighted(lambda d: d % 2 == 0)
    odd = weighted(lambda d: d % 2 == 1)
    assert (even + odd) == full


def u_sub_a_oracle(a, prec, rho):
    """u(az) = u^(q^d) / (u^(q^d) rho_a(1/u)) below prec, d = deg a, by one
    series inverse."""
    ctx, q = a.ctx, a.ctx.q
    big = q ** int(a.degree)
    if big >= prec:
        return USeries.zero(ctx, prec)
    denom = USeries(ctx, {big - q ** i: li for i, li in enumerate(rho.coeffs)
                          if big - q ** i < prec - big},
                    prec - big, support_class=0)
    return denom.inverse().shift(big).truncate(prec)


def monic_series_sum_oracle(ctx, weight, power, prec):
    """The per-monic sum of weight(a) * u(az)^power: one linear_map, one
    series inverse, one power and one scaled add per monic a."""
    if power < 1 or prec < 1:
        raise ValueError("power and prec must be at least 1")
    q = ctx.q
    total = USeries.zero(ctx, prec)
    d = 0
    while power * q ** d < prec:
        basis = power_basis(ctx, d)  # by composition, not by carlitz_map
        for a in monics(ctx, d):
            w = weight(a)
            if isinstance(w, int):
                w = Poly.constant(ctx, w)
            if w.is_zero():
                continue
            rel = prec - power * q ** d
            ua = u_sub_a_oracle(a, q ** d + rel, linear_map(a, basis))
            term = ua ** power if power != 1 else ua
            total = total + term.truncate(prec) * w
        d += 1
    return total


def assert_same_series(f, g):
    assert (f.val, f.prec, f.den, f.coeffs, f.support_class) == (
        g.val, g.prec, g.den, g.coeffs, g.support_class)
    assert f.exps.tolist() == g.exps.tolist()


WEIGHTS = {
    "one": lambda ctx: lambda a: 1,
    "a": lambda ctx: lambda a: a,
    "a^2+T": lambda ctx: lambda a: a * a + Poly.T(ctx),
    "T-free": lambda ctx: lambda a: (
        Poly.zero(ctx) if (a % Poly.T(ctx)).is_zero() else Poly.one(ctx)),
    "a/(T+1)": lambda ctx: lambda a: RatFunc(a, Poly.T(ctx) + 1),
    "zero-on-degree-1": lambda ctx: lambda a: (
        Poly.zero(ctx) if a.degree == 1 else a),
}

# the per-monic oracle gets costly beyond these precisions; each cap
# but those of q = 25 and 27 still straddles the degree 2 cutoffs of every
# power below
SUM_CAP = {3: 85, 5: 101, 7: 99, 9: 82, 25: 60, 27: 60}


def split_steps(q, power, lows, cap):
    """For 2 power > q, the precisions where a degree with lowest
    precision low in ``lows`` gets rows = ceil((prec - low) / (q - 1))
    that are 0 or 1 mod q, the first three times each: there the
    recurrence that runs to ceil(rows / q) is tight or steps."""
    if 2 * power <= q:
        return set()
    return {low + (q - 1) * (n - 1) + 1 for low in lows
            for n in (1, q, q + 1, 2 * q, 2 * q + 1, 3 * q, 3 * q + 1)
            if low + (q - 1) * (n - 1) + 1 <= cap}


def sum_cutoffs(q, power):
    """Every precision where a degree enters or leaves, power * q^d - 1,
    power * q^d and power * q^d + 1, the empty sums, prec <= power, and
    the steps of the split recurrence."""
    marks = {power * q ** d + s for d in range(6) for s in (-1, 0, 1)}
    marks |= split_steps(q, power, [power * q ** d for d in range(6)],
                         SUM_CAP[q])
    return sorted(m for m in marks | set(range(1, power + 1))
                  if 1 <= m <= SUM_CAP[q])


@pytest.mark.parametrize("ctx", (F3, F5, F7, F9, F25, F27),
                         ids=lambda c: f"q{c.q}")
@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_batched_sum_matches_per_monic_oracle(ctx, weight):
    q = ctx.q
    w = WEIGHTS[weight](ctx)
    for power in sorted({1, 2, q - 1, q}):
        for prec in sum_cutoffs(q, power):
            assert_same_series(monic_series_sum(ctx, w, power, prec),
                               monic_series_sum_oracle(ctx, w, power, prec))


def test_split_recurrence_runs_on_a_qth_of_the_rows(monkeypatch):
    # for 2 * power > q the recurrence inverts P_a, of d + 1 terms, to
    # ceil(rows / q) rows, and for 2 * power <= q it runs to every row;
    # the lattice inverts each V_d[d] to ceil(prec / q) of its relative
    # precision prec at every power
    steps, inverted = [], []
    reciprocal, inverse = carlitz._reciprocal, USeries.inverse

    def counting(ctx, s, rows):
        steps.append((len(s[0]), rows))
        return reciprocal(ctx, s, rows)

    def counting_inverse(self):
        inverted.append(self.prec)
        return inverse(self)

    monkeypatch.setattr(carlitz, "_reciprocal", counting)
    monkeypatch.setattr(USeries, "inverse", counting_inverse)
    for ctx, power, prec in ((F3, 1, 40), (F3, 2, 40), (F3, 3, 40),
                             (F5, 2, 70), (F5, 4, 70), (F5, 5, 70)):
        q = ctx.q
        split = 2 * power > q
        steps.clear()
        monic_series_sum(ctx, lambda a: 1, power, prec)
        rows = [-(-(prec - power * q ** d) // (q - 1))
                for d in range(4) if power * q ** d < prec]
        assert [n for _, n in steps] == [
            -(-n // q) if split else n for n in rows]
        if split:
            assert [t for t, _ in steps] == list(range(1, len(rows) + 1))
        inverted.clear()
        monic_power_sum(ctx, power, 3 * prec)
        rel = [3 * prec - power * lattice_val(q, d) for d in range(1, 4)
               if power * lattice_val(q, d) < 3 * prec]
        assert rel and inverted == [-(-n // q) for n in rel]


@pytest.mark.parametrize("ctx", (F9, F25, F27), ids=lambda c: f"q{c.q}")
def test_split_over_extension_fields_matches_per_monic_oracle(
        ctx, monkeypatch):
    # degree 0 gets rows = 3q + 1 and degree 1, where P_a = 1 + (T + c)
    # u^(q-1), rows = 3q + 1 - power, so the recurrence runs to 4 and 3
    # rows; summed over every c in F_q, terms of degree below q - 1 in c
    # cancel, so the weight is the indicator of c != 0, 1 - c^(q-1)
    q = ctx.q
    steps = []
    reciprocal = carlitz._reciprocal

    def counting(ctx, s, rows):
        steps.append(rows)
        return reciprocal(ctx, s, rows)

    monkeypatch.setattr(carlitz, "_reciprocal", counting)
    weight = WEIGHTS["T-free"](ctx)
    for power in ((q + 1) // 2, q - 1, q):
        prec = power + (q - 1) * 3 * q + 1
        steps.clear()
        assert_same_series(
            monic_series_sum(ctx, weight, power, prec),
            monic_series_sum_oracle(ctx, weight, power, prec))
        assert steps[:2] == [4, 3]


def test_batched_sum_that_cancels_keeps_its_window():
    # the degree 1 sum of u(az) vanishes below u^(q^2 - q + 1), so the sum
    # is zero with the valuation q of its last term, as term by term
    def degree_one(a):
        return int(a.degree == 1)

    for ctx in (F3, F5):
        q = ctx.q
        for prec in range(q + 1, q * q - q + 1):
            s = monic_series_sum(ctx, degree_one, 1, prec)
            assert s.is_zero() and s.val == q and s.support_class is None
            assert_same_series(
                s, monic_series_sum_oracle(ctx, degree_one, 1, prec))


# ---------------------------------------------------------------------------
# power sums by the lattice recursion, against the sum over every monic a


def lattice_val(q, d):
    """Valuation of t_d, the sum of u(az) over monic a of degree d."""
    return q ** (2 * d) - (q ** (2 * d) - 1) // (q + 1)


def compare_power_sums(ctx, k, prec):
    lattice = monic_power_sum(ctx, k, prec)
    assert_same_series(lattice,
                       monic_series_sum(ctx, lambda a: 1, k, prec))
    return lattice


# the per-monic route gets costly beyond these precisions
CAP = {3: 170, 5: 510, 9: 600, 25: 80, 27: 80}


def cutoffs(q, k):
    """Precisions one below, at and one above each degree cutoff of both
    routes: k * v(d) for the lattice, k * q^d and (q - 1) * q^d per
    monic; and the steps of the split recurrence of both, where the
    relative precision prec - k * v(d) of a lattice inverse is 0 or 1
    mod q."""
    marks = set()
    for d in range(6):
        marks |= {k * lattice_val(q, d), k * q ** d, (q - 1) * q ** d}
    marks = {m + s for m in marks for s in (-1, 0, 1)}
    marks |= {k * lattice_val(q, d) + j * q + s for d in range(1, 6)
              for j in (1, 2, 3) for s in (0, 1)}
    marks |= split_steps(q, k, [k * q ** d for d in range(6)], CAP[q])
    return sorted(m for m in marks if 1 <= m <= CAP[q])


@pytest.mark.parametrize("ctx", (F3, F5, F9, F25, F27),
                         ids=lambda c: f"q{c.q}")
@pytest.mark.parametrize("which", ("one", "q-1", "q"))
def test_power_sum_straddles_every_cutoff(ctx, which):
    k = {"one": 1, "q-1": ctx.q - 1, "q": ctx.q}[which]
    for prec in cutoffs(ctx.q, k):
        compare_power_sums(ctx, k, prec)


def test_lattice_split_over_F9_matches_per_monic_oracle(monkeypatch):
    # V_1[1] = 1 - u^((q-1)^2) + (T^q - T) u^(q(q-1)) gets the relative
    # precision q^2 (q - 1) + 1, so its inverse runs to q(q - 1) + 1 = 73
    # terms, 1 + u^64 - (T^9 - T) u^72, which the q-th power spreads to
    # 1 + u^576 - (T^81 - T^9) u^648
    inverted = []
    inverse = USeries.inverse

    def counting_inverse(self):
        inverted.append(self.prec)
        return inverse(self)

    monkeypatch.setattr(USeries, "inverse", counting_inverse)
    for power in (1, 8):
        prec = power * lattice_val(9, 1) + 9 * 72 + 1
        inverted.clear()
        lattice = monic_power_sum(F9, power, prec)
        assert inverted == [73]
        assert_same_series(lattice, monic_series_sum_oracle(
            F9, lambda a: 1, power, prec))


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_power_sum_matches_monic_sum(ctx, data):
    q = ctx.q
    k = data.draw(st.sampled_from((1, q - 1, q)), label="power")
    prec = data.draw(st.sampled_from(cutoffs(q, k))
                     | st.integers(1, CAP[q] // 2), label="prec")
    s = compare_power_sums(ctx, k, prec)
    if prec > k:
        # u^k from a = 1 leads, and the window is exactly [k, prec)
        assert s.val == k and s.coeff(k).is_one()


def test_power_sum_rejects_bad_power():
    for k in (0, F3.q + 1):
        with pytest.raises(ValueError):
            monic_power_sum(F3, k, 10)
    with pytest.raises(ValueError):
        monic_power_sum(F3, 1, 0)
