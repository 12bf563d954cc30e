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

import numpy as np

from .errors import NotMonic, ZeroInput
from .fieldpoly import (FqElem, Poly, RatFunc, _as_ratfunc, _batch_product,
                        _cleared_row, _spread, _stacked)
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


def _rho_coeffs(ctx, coords):
    """l_i(a), i <= d, on axis 2 for a batch of a of degree at most d given
    by coordinates (r, batch, d + 1): sum_j a_j l_i(T^j), as rho_a is
    F_q-linear in a; l_i(T^j) = T^(q^i) l_i(T^(j-1)) + l_(i-1)(T^(j-1))."""
    p, q, top = ctx.p, ctx.q, coords.shape[2]
    deg = max(q ** i * (j - i) for j in range(top) for i in range(j + 1))
    basis = np.zeros((top, top, deg + 1), dtype=np.int64)
    basis[0, 0, 0] = 1
    out = coords[:, :, 0, None, None] * basis[0]
    for j in range(1, top):
        for i in range(j):
            basis[j, i, q ** i:] = basis[j - 1, i, :deg + 1 - q ** i]
        basis[j, 1:] = (basis[j, 1:] + basis[j - 1, :-1]) % p
        out = (out + coords[:, :, j, None, None] * basis[j]) % p
    return out


def carlitz_map(a):
    """Build rho_a from its coefficients l_i(a), linear in a."""
    if a.is_zero():
        raise ZeroInput("the Carlitz action of 0 is not defined here")
    ls = _rho_coeffs(a.ctx, a.arr[:, None])[:, 0]
    return CarlitzMap(a, [Poly(a.ctx, ls[:, i]) for i in range(ls.shape[1])])


def u_sub_a(a, prec):
    """Expansion of u(az) as a series in u, exact below ``prec``: integral,
    of valuation q^(deg a) and with leading coefficient 1."""
    if a.is_zero() or not a.is_monic():
        raise NotMonic(f"u(az) needs monic a, got {a}")
    return _batch_sum(a.ctx, [(a, RatFunc.constant(a.ctx, 1))]
                      if a.ctx.q ** int(a.degree) < prec else [], 1, prec)


def monics(ctx, deg):
    """All monic polynomials of exactly the given degree, ordered by
    coefficient vector with the constant coefficient varying fastest."""
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    # codes run highest coefficient first, so the constant ticks fastest
    return [Poly.from_coeffs(ctx, [FqElem(ctx, c) for c in reversed(codes)]
                             + [1])
            for codes in itertools.product(range(ctx.q), repeat=deg)]


def _sparse_product(ctx, x, y, rows):
    """Product below grid row ``rows`` of two batches of series, each as
    (ascending grid rows, block with the rows on axis 2), zero rows cut."""
    i, j = np.nonzero(x[0][:, None] + y[0][None, :] < rows)
    ks, to = np.unique(x[0][i] + y[0][j], return_inverse=True)
    prod = _batch_product(ctx, x[1][:, :, i], y[1][:, :, j])
    out = np.zeros(prod.shape[:2] + (ks.size,) + prod.shape[3:],
                   dtype=np.int64)
    np.add.at(out, (slice(None), slice(None), to), prod)
    out %= ctx.p
    keep = out.any(axis=(0, 1, 3))
    return ks[keep], out[:, :, keep]


def monic_series_sum(ctx, weight, power, prec):
    """Sum of weight(a) * u(az)^power over all monic a, exact below prec;
    only the monic a with power * q^deg(a) < prec reach that window."""
    if power < 1 or prec < 1:
        raise ValueError("power and prec must be at least 1")
    kept, top = [], 0  # monic a of degree below top enter
    while power * ctx.q ** top < prec:
        kept += [(a, w) for a in monics(ctx, top)
                 if not (w := _as_ratfunc(ctx, weight(a))).is_zero()]
        top += 1
    return _batch_sum(ctx, kept, power, prec)


def _batch_sum(ctx, kept, power, prec):
    """Sum of w * u(az)^power over the pairs (a, w) in ``kept``, monic a in
    ascending degree with power * q^deg(a) < prec, exact below prec.  The a
    of one degree d form a batch: u(az)^power = u^(power q^d) / P_a^power,
    where P_a = u^(q^d) rho_a(1/u) has constant term 1 and d + 1 terms on
    the step q - 1.  For S with S_0 = 1 and deg_T S_k <= k on that step,
    1 / S = sum_m g_m u^((q-1)m) by g_0 = 1, g_m = -sum_k S_k g_(m-k), with
    deg_T g_m <= m.  When 2 power > q this runs on S = P_a to only
    ceil(rows / q) of the rows g_m, and 1 / P_a^power is P_a^(q-power)
    times the exact q-th power of that; otherwise on S = P_a^power."""
    p, q, r = ctx.p, ctx.q, ctx.r
    if not kept:
        return USeries.zero(ctx, prec)
    nums, den = _cleared_row(ctx, [w for _, w in kept])
    grid = -(-(prec - power) // (q - 1))  # exponents power + (q-1)m
    block = np.zeros((r, grid, grid + max(n.arr.shape[1] for n in nums)),
                     dtype=np.int64)
    split = 2 * power > q
    for d in sorted({int(a.degree) for a, _ in kept}):
        at = [i for i, (a, _) in enumerate(kept) if a.degree == d]
        rows = -(-(prec - power * q ** d) // (q - 1))
        ls = _rho_coeffs(ctx, np.stack([kept[i][0].arr for i in at], 1))
        i = np.arange(d, -1, -1)  # l_i(a) on grid row (q^d - q^i)/(q - 1)
        s = (q ** d - q ** i) // (q - 1), ls[:, :, i]
        big = s  # P_a^(q - power) or P_a^power, unused for power = q
        for bit in bin(q - power if split else power)[3:]:
            big = _sparse_product(ctx, big, big, rows)
            if bit == "1":
                big = _sparse_product(ctx, big, s, rows)
        g = _reciprocal(ctx, s if split else big,
                        -(-rows // q) if split else rows)
        if split:
            # (1/P_a)^q: g_m T^j moves to row q m at T^(q j)
            low = _spread(g, q)
            g = np.zeros((r, len(at), rows, rows), dtype=np.int64)
            if power == q:
                g[:, :, ::q, :low.shape[3]] = low
            else:
                for k, c in zip(big[0].tolist(), np.moveaxis(big[1], 2, 0)):
                    prod = _batch_product(ctx, low[:, :, :len(range(
                        k, rows, q))], c[:, :, None], rows)
                    g[:, :, k::q, :prod.shape[3]] += prod
                g %= p
        g = _batch_product(ctx, g, _stacked([nums[i].arr for i in at])[
            :, :, None]).sum(axis=1) % p
        block[:, power * (q ** d - 1) // (q - 1):, :g.shape[2]] += g
    # a sum that cancels keeps the valuation of its last term
    return USeries._make(ctx, power + (q - 1) * np.arange(block.shape[1]),
                         block % p, den, power * q ** d, prec)


def _reciprocal(ctx, s, rows):
    """g_0 .. g_(rows-1) of 1 / S on axis 2 of a (coordinate, batch, row,
    T) block, for a batch S of series given as (ascending grid rows, block
    with the rows on axis 2) with S_0 = 1 and deg_T S_k <= k."""
    ks, sk = s[0][1:], s[1][:, :, 1:]  # S_0 = 1 left out
    g = np.zeros((ctx.r, sk.shape[1], rows, rows), dtype=np.int64)
    g[0, :, 0, 0] = 1
    for m, c in enumerate(np.searchsorted(ks, np.arange(rows),
                                          side="right").tolist()):
        if c:  # deg g_(m-k) <= m - k and deg S_k <= k
            prod = _batch_product(ctx, g[:, :, m - ks[:c], :m - ks[0] + 1],
                                  sk[:, :, :c, :ks[c - 1] + 1], m + 1)
            g[:, :, m, :prod.shape[3]] = -prod.sum(axis=2) % ctx.p
    return g


def monic_power_sum(ctx, power, prec):
    """Sum of u(az)^power over all monic a, exact below prec, for
    1 <= power <= q, with one series inverse per degree, run to a q-th
    of the precision.

    Over monic a of degree d, u(az) sums to t_d = c_d / e_d(R_d), where
    R_j = rho_(T^j)(1/u) and e_d(X) = c_d X + ... is the product of X - l
    over the F_q-span of R_0 .. R_(d-1); the u(az)^k sum to t_d^k, as the
    k-th Goss polynomial is X^k for k <= q.  On the series
    V_i[j] = u^(q^(i+j)) e_i(R_j) with constant term 1, the recursion
    e_(i+1) = e_i^q - e_i(R_i)^(q-1) e_i reads

      V_(i+1)[j] = V_i[j]^q - u^((q-1)(q^(i+j) - q^(2i))) V_i[i]^(q-1) V_i[j]
      t_d = (-1)^d u^v(d) prod_(i<d) V_i[i]^(q-1) / V_d[d]

    with v(d) = q^(2d) - (q^(2d) - 1)/(q + 1) the valuation of t_d.  X =
    V_d[d] enters as X^-power = X^(q-power) (1/X)^q: the inverse runs to
    ceil(P / q) of the relative precision P of X, and its q-th power,
    which only spreads exponents and powers of T by q, is
    exact to q ceil(P / q) >= P.
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
    # v[j] holds V_(d-1)[j] for j >= d at step d; V_0[0] = 1 is left out.
    # V_0[j] = u^(q^j) rho_(T^j)(1/u) has l_i(T^j) at u^(q^j - q^i): the
    # rows of one batch of coefficients for T^1 .. T^top, i descending
    powers = np.zeros((ctx.r, top, top + 1), dtype=np.int64)
    powers[0] = np.eye(top + 1, dtype=np.int64)[1:]
    ls = _rho_coeffs(ctx, powers)
    v = [None]
    for j in range(1, top + 1):
        exps = q ** j - q ** np.arange(j, -1, -1, dtype=np.int64)
        v.append(USeries._make(ctx, exps, ls[:, j - 1, j::-1], Poly.one(ctx),
                               0, rel[j]))
    total = USeries.one(ctx, prec - power).shift(power)
    lead = None  # prod over 0 < i < d of V_i[i]^(q-1)
    for d in range(1, top + 1):
        if d > 1:
            w = v[d - 1].truncate(rel[d]) ** (q - 1)
            lead = w if lead is None else lead * w
        for j in range(d, top + 1):
            low = v[j] if d == 1 else w * v[j]
            v[j] = v[j] ** q - low.shift(
                (q - 1) * (q ** (d - 1 + j) - q ** (2 * d - 2)))
        # 1/X to ceil(P / q), whose q-th power is exact to P
        x = v[d]
        t = x.truncate(-(-x.prec // q)).inverse()._qth_power()
        t = x ** (q - power) * t
        if lead is not None:
            t = lead ** power * t
        total = total + (-t if d * power % 2 else t).shift(power * val(d))
    return total
