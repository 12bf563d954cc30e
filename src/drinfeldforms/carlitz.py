"""The Carlitz module action, expansions of u(az) and their monic sums.

For a in A = F_q[T] the Carlitz action is the F_q-linear polynomial
rho_a(X) = sum_i l_i(a) X^(q^i) determined by rho_T = T X + X^q and
rho_(ab) = rho_a o rho_b.  Because the lattice exponential intertwines
multiplication by a with rho_a, the expansion of u(az) in u = u(z) is
exactly 1 / rho_a(1/u); no transcendental period ever enters.  Sums of
u(az)^k over monic a, k <= q, come from the subspace polynomials of the
lattices of the rho_b(1/u), one degree at a time (Goss, Basic Structures
of Function Field Arithmetic, ch. 1; Gekeler, Invent. Math. 93, 1988).
"""

from __future__ import annotations

import itertools

from .errors import NotMonic, ZeroInput
from .fieldpoly import FqElem, Poly
from .useries import USeries


class CarlitzMap:
    """The additive polynomial rho_a(X) = sum_i coeffs[i] X^(q^i)."""

    __slots__ = ("a", "coeffs")

    def __init__(self, a, coeffs):
        self.a = a
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return (isinstance(other, CarlitzMap) and self.a == other.a
                and self.coeffs == other.coeffs)

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"CarlitzMap({self.a}; [{body}])"


def carlitz_map(a):
    """Build rho_a by Horner composition: rho_(a'T + c) from rho_(a')."""
    if a.is_zero():
        raise ZeroInput("the Carlitz action of 0 is not defined here")
    ctx = a.ctx
    q = ctx.q
    cs = a.coeffs()
    d = len(cs) - 1
    coeffs = [Poly.constant(ctx, cs[d])]
    tq = []  # tq[i] = T^(q^i), extended on demand
    for j in range(d - 1, -1, -1):
        while len(tq) < len(coeffs):
            tq.append(Poly.from_pairs(ctx, [(q ** len(tq), 1)]))
        new = [Poly.zero(ctx) for _ in range(len(coeffs) + 1)]
        for i, li in enumerate(coeffs):
            # rho o rho_T: l_i X^(q^i) -> l_i T^(q^i) X^(q^i) + l_i X^(q^(i+1))
            new[i] = new[i] + li * tq[i]
            new[i + 1] = new[i + 1] + li
        new[0] = new[0] + Poly.constant(ctx, cs[j])
        coeffs = new
    return CarlitzMap(a, coeffs)


def linear_map(a, basis):
    """rho_a as sum_j a_j rho_(T^j), where basis[j] holds the coefficients
    of rho_(T^j) for every j <= deg a."""
    cs = a.coeffs()
    return CarlitzMap(a, [
        sum((basis[j][i] * c for j, c in enumerate(cs[i:], i)
             if not c.is_zero()), Poly.zero(a.ctx))
        for i in range(len(cs))])


def _scaled_map(rho, prec):
    """u^(q^d) rho(1/u) = sum_i l_i u^(q^d - q^i) below prec, for rho of
    degree d; it has constant term 1 when rho is monic."""
    ctx = rho.a.ctx
    big = ctx.q ** (len(rho.coeffs) - 1)
    return USeries._of(ctx, {big - ctx.q ** i: li
                             for i, li in enumerate(rho.coeffs)
                             if big - ctx.q ** i < prec},
                       Poly.one(ctx), prec, support_class=0)


def u_sub_a(a, prec, rho=None):
    """Expansion of u(az) as a series in u, exact below ``prec``; ``rho``
    is the CarlitzMap of a when the caller already has it.

    Equals u^(q^d) / sum_i l_i(a) u^(q^d - q^i) with d = deg a; the result
    is integral, has valuation q^d and leading coefficient 1.
    """
    if a.is_zero() or not a.is_monic():
        raise NotMonic(f"u(az) needs monic a, got {a}")
    big = a.ctx.q ** int(a.degree)
    if big >= prec:
        return USeries.zero(a.ctx, prec)
    denom = _scaled_map(rho or carlitz_map(a), prec - big)
    return denom.inverse().shift(big).truncate(prec)


def monics(ctx, deg):
    """All monic polynomials of exactly the given degree, ordered by
    coefficient vector with the constant coefficient varying fastest."""
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    # codes run highest coefficient first, so the constant ticks fastest
    return [Poly.from_coeffs(ctx, [FqElem(ctx, c) for c in reversed(codes)]
                             + [1])
            for codes in itertools.product(range(ctx.q), repeat=deg)]


def monic_series_sum(ctx, weight, power, prec):
    """Sum of weight(a) * u(az)^power over all monic a, exact below prec.

    Monic polynomials of degree d enter only while power * q^d < prec;
    beyond that every term lies at or above the precision window.  Each
    rho_a is sum_j a_j rho_(T^j), from maps built once per call.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    if prec < 1:
        raise ValueError("prec must be at least 1")
    q = ctx.q
    total = USeries.zero(ctx, prec)
    basis = []  # basis[j] holds the coefficients of rho_(T^j)
    d = 0
    while power * q ** d < prec:
        basis.append(carlitz_map(Poly.T(ctx) ** d).coeffs)
        for a in monics(ctx, d):
            w = weight(a)
            if isinstance(w, int):
                w = Poly.constant(ctx, w)
            if w.is_zero():
                continue
            rel = prec - power * q ** d
            ua = u_sub_a(a, q ** d + rel, linear_map(a, basis))
            term = ua ** power if power != 1 else ua
            total = total + term.truncate(prec) * w
        d += 1
    return total


def monic_power_sum(ctx, power, prec):
    """Sum of u(az)^power over all monic a, exact below prec, for
    1 <= power <= q, with one series inverse per degree.

    Over monic a of degree d, u(az) sums to t_d = c_d / e_d(R_d), where
    R_j = rho_(T^j)(1/u) and e_d(X) = c_d X + ... is the product of X - l
    over the F_q-span of R_0 .. R_(d-1); the u(az)^k sum to t_d^k, as the
    k-th Goss polynomial is X^k for k <= q.  On the series
    V_i[j] = u^(q^(i+j)) e_i(R_j) with constant term 1, the recursion
    e_(i+1) = e_i^q - e_i(R_i)^(q-1) e_i reads

      V_(i+1)[j] = V_i[j]^q - u^((q-1)(q^(i+j) - q^(2i))) V_i[i]^(q-1) V_i[j]
      t_d = (-1)^d u^v(d) prod_(i<d) V_i[i]^(q-1) / V_d[d]

    with v(d) = q^(2d) - (q^(2d) - 1)/(q + 1) the valuation of t_d.
    """
    q = ctx.q
    if not 1 <= power <= q or prec < 1:
        raise ValueError("need 1 <= power <= q and prec >= 1")
    if power >= prec:
        return USeries.zero(ctx, prec)

    def val(d):
        return q ** (2 * d) - (q ** (2 * d) - 1) // (q + 1)

    top = 0
    while power * val(top + 1) < prec:
        top += 1
    rel = [prec - power * val(d) for d in range(top + 1)]
    # v[j] holds V_(d-1)[j] for j >= d at step d; V_0[0] = 1 is left out
    v = [None] + [_scaled_map(carlitz_map(Poly.T(ctx) ** j), rel[j])
                  for j in range(1, top + 1)]
    total = USeries._of(ctx, {power: Poly.one(ctx)}, Poly.one(ctx), prec,
                        support_class=power)
    lead = None  # prod over 0 < i < d of V_i[i]^(q-1)
    for d in range(1, top + 1):
        if d > 1:
            w = v[d - 1].truncate(rel[d]) ** (q - 1)
            lead = w if lead is None else lead * w
        for j in range(d, top + 1):
            low = v[j] if d == 1 else w * v[j]
            v[j] = v[j] ** q - low.shift(
                (q - 1) * (q ** (d - 1 + j) - q ** (2 * d - 2)))
        t = (v[d].inverse() if lead is None
             else lead * v[d].inverse()) ** power
        total = total + (-t if d * power % 2 else t).shift(power * val(d))
    return total
