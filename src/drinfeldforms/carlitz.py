"""The Carlitz module action and expansions of u(az).

For a in A = F_q[T] the Carlitz action is the F_q-linear polynomial
rho_a(X) = sum_i l_i(a) X^(q^i) determined by rho_T = T X + X^q and
rho_(ab) = rho_a o rho_b.  Because the lattice exponential intertwines
multiplication by a with rho_a, the expansion of u(az) in u = u(z) is
exactly 1 / rho_a(1/u); no transcendental period ever enters.
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

    def compose(self, other):
        """rho_a o rho_b, which equals rho_(ab)."""
        ctx = self.a.ctx
        q = ctx.q
        da = len(self.coeffs) - 1
        db = len(other.coeffs) - 1
        out = [Poly.zero(ctx) for _ in range(da + db + 1)]
        for i, li in enumerate(self.coeffs):
            if li.is_zero():
                continue
            for j, mj in enumerate(other.coeffs):
                if mj.is_zero():
                    continue
                out[i + j] = out[i + j] + li * (mj ** (q ** i))
        return CarlitzMap(self.a * other.a, out)

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
    T = Poly.T(ctx)
    cs = a.coeffs()
    d = len(cs) - 1
    coeffs = [Poly.constant(ctx, cs[d])]
    tq = [T]  # tq[i] = T^(q^i), extended on demand
    for j in range(d - 1, -1, -1):
        while len(tq) < len(coeffs):
            tq.append(tq[-1] ** q)
        new = [Poly.zero(ctx) for _ in range(len(coeffs) + 1)]
        for i, li in enumerate(coeffs):
            # rho o rho_T sends l_i X^(q^i) to l_i T^(q^i) X^(q^i) + l_i X^(q^(i+1))
            new[i] = new[i] + li * tq[i]
            new[i + 1] = new[i + 1] + li
        new[0] = new[0] + Poly.constant(ctx, cs[j])
        coeffs = new
    return CarlitzMap(a, coeffs)


def u_sub_a(a, prec):
    """Expansion of u(az) as a series in u, exact below ``prec``.

    Equals u^(q^d) / sum_i l_i(a) u^(q^d - q^i) with d = deg a; the result
    is integral, has valuation q^d and leading coefficient 1.
    """
    if a.is_zero() or not a.is_monic():
        raise NotMonic(f"u(az) needs monic a, got {a}")
    ctx = a.ctx
    q = ctx.q
    d = int(a.degree)
    big = q ** d
    if big >= prec:
        return USeries.zero(ctx, prec)
    rho = carlitz_map(a)
    denom_terms = {big - q ** i: li for i, li in enumerate(rho.coeffs)
                   if big - q ** i < prec - big}
    denom = USeries._of(ctx, denom_terms, Poly.one(ctx), prec - big,
                        support_class=0)
    return denom.inverse().shift(big).truncate(prec)


def monics(ctx, deg):
    """All monic polynomials of exactly the given degree, ordered by
    coefficient vector with the constant coefficient varying fastest."""
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    T = Poly.T(ctx)
    lead = T ** deg
    out = []
    for codes in itertools.product(range(ctx.q), repeat=deg):
        # codes run highest coefficient first, so the constant ticks fastest
        coeffs = [FqElem(ctx, c) for c in reversed(codes)]
        out.append(lead + Poly.from_coeffs(ctx, coeffs)
                   if deg else lead)
    return out


def monic_series_sum(ctx, weight, power, prec):
    """Sum of weight(a) * u(az)^power over all monic a, exact below prec.

    Monic polynomials of degree d enter only while power * q^d < prec;
    beyond that every term lies at or above the precision window.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    if prec < 1:
        raise ValueError("prec must be at least 1")
    q = ctx.q
    total = USeries.zero(ctx, prec)
    d = 0
    while power * q ** d < prec:
        for a in monics(ctx, d):
            w = weight(a)
            if isinstance(w, int):
                w = Poly.constant(ctx, w)
            if w.is_zero():
                continue
            rel = prec - power * q ** d
            ua = u_sub_a(a, q ** d + rel)
            term = ua ** power if power != 1 else ua
            total = total + term.truncate(prec) * w
        d += 1
    return total
