"""Exact arithmetic for GF(p^r), the polynomial ring F_q[T], its fraction
field F_q(T), and dense matrices over F_q(T) with Gaussian elimination.

Polynomials are stored densely as small integer coordinate arrays, one row
per basis coordinate of the field over its prime field.  Multiplication is
integer convolution followed by reduction, so the heavy kernels run inside
numpy while every value stays exact.  All objects are immutable after
construction.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import (
    BadDegree,
    DivisionByZero,
    DivisionNotExact,
    ExprError,
    MixedField,
    NotOddPrime,
)

NEG_INF = float("-inf")  # degree of the zero polynomial

_TABLE_LIMIT = 1 << 20  # largest extension field with exp/log tables
_PRIME_LIMIT = 1 << 31  # residue products must be exact in int64


def _power(x, n, one):
    """x^n for an integer n >= 0 by square-and-multiply, where ``one`` is
    x^0; no squaring runs after the last bit."""
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else acc * x
        n >>= 1
        if n:
            x = x * x
    return one if acc is None else acc


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _smallest_irreducible(p, r):
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Coefficient vectors are compared lowest degree first, so the constant
    term is the most significant position.  For r > 1 a zero constant term
    makes the candidate a multiple of T, so the search starts at 1.  Each
    candidate f runs Rabin's test: T^(p^r) = T mod f, and T^(p^(r/t)) - T
    is prime to f for every prime t dividing r.  Mod f, T^(p^(i+1)) is the
    matrix with columns T^(p j), j < r, times the vector of T^(p^i).
    """
    if r == 1:
        return (0, 1)
    fp = FieldCtx(p, 1)
    T = Poly.T(fp)
    factors = _prime_factors(r)
    for tail in itertools.product(range(1, p), *[range(p)] * (r - 1)):
        f = Poly.from_coeffs(fp, tail + (1,))
        tp, sq, n = Poly.one(fp), T, p  # T^p mod f by square-and-multiply
        while n:
            tp, sq, n = (tp * sq % f if n & 1 else tp), sq * sq % f, n >> 1
        frob_matrix, col = np.zeros((r, r), dtype=np.int64), Poly.one(fp)
        for j in range(r):
            frob_matrix[:col.arr.shape[1], j] = col.arr[0]
            col = col * tp % f
        frob = [np.eye(r, dtype=np.int64)[1]]  # T^(p^i) mod f, as vectors
        for _ in range(r):
            frob.append(frob_matrix @ frob[-1] % p)
        if (np.array_equal(frob[r], frob[0])
                and all((Poly(fp, frob[r // t][None]) - T).gcd(f).degree == 0
                        for t in factors)):
            return tail + (1,)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field context and elements


class FieldCtx:
    """GF(p^r) with a deterministic modulus.

    Elements are encoded as integers in [0, q) whose base-p digits are the
    coordinates with respect to the power basis 1, w, ..., w^(r-1) of the
    generator w, where w is a root of ``modulus``.  For r > 1 a generator of
    the multiplicative group is found once and exp/log tables drive scalar
    multiplication and inversion.
    """

    __slots__ = ("p", "r", "q", "modulus", "key", "_wred", "_exp", "_log",
                 "_ppow", "_frob")

    def __init__(self, p, r):
        if p >= _PRIME_LIMIT:
            # int64 products of two residues are exact only below 2^62
            raise ValueError(
                f"p = {p} is too large: the characteristic must be below "
                f"2^31")
        if not _is_prime(p) or p == 2:
            raise NotOddPrime(f"p = {p} is not an odd prime")
        if r < 1:
            raise BadDegree(f"extension degree r = {r} must be at least 1")
        if r > 1 and p ** r > _TABLE_LIMIT:
            raise ValueError(
                f"extension field of order {p ** r} is too large for "
                "table-based arithmetic")
        self.p = p
        self.r = r
        self.q = p ** r
        self.modulus = _smallest_irreducible(p, r)
        self.key = (p, r, self.modulus)
        self._ppow = tuple(p ** i for i in range(r))
        if r > 1:
            self._wred = self._reduction_rows()
            self._exp, self._log = self._build_tables()
            # column j holds the coordinates of (w^j)^p
            self._frob = np.array(
                [(FqElem(self, p ** j) ** p).coords for j in range(r)],
                dtype=np.int64).T
        else:
            self._wred = np.zeros((0, 1), dtype=np.int64)
            self._exp = self._log = self._frob = None

    def _reduction_rows(self):
        # row s holds the coordinates of w^(r+s), for s = 0 .. r-2
        p, r, m = self.p, self.r, self.modulus
        rows = np.zeros((r - 1, r), dtype=np.int64)
        base = np.array([(-c) % p for c in m[:r]], dtype=np.int64)
        rows[0] = base
        for s in range(1, r - 1):
            prev = rows[s - 1]
            row = np.zeros(r, dtype=np.int64)
            row[1:] = prev[:-1]
            row += prev[r - 1] * base
            rows[s] = row % p
        return rows

    def _fold(self, acc):
        """Reduce a stack of at most 2r - 1 coordinate planes, plane s
        holding the multiple of w^s, to r planes with entries in [0, p)."""
        r = self.r
        acc = acc % self.p
        if acc.shape[0] == r:
            return acc
        for s in range(acc.shape[0] - 1, r - 1, -1):
            acc[:r] += np.multiply.outer(self._wred[s - r], acc[s])
        return acc[:r] % self.p

    def _mul_coords(self, a, b):
        # full product of two coordinate vectors, reduced mod the modulus
        return self._fold(np.convolve(a, b))

    def _build_tables(self):
        """exp/log tables of the smallest generator g of GF(q)^*, r > 1, from
        the matrix M of multiplication by g: g generates when no M^((q-1)/t),
        t a prime dividing q - 1, is 1; powers n .. 2n - 1 of g are M^n times
        powers 0 .. n - 1.  Codes below p lie in F_p^*: skipped."""
        p, r, order = self.p, self.r, self.q - 1
        unit = np.eye(r, dtype=np.int64)
        factors = _prime_factors(order)

        def power_is_one(mul, n):  # square-and-multiply
            acc = unit
            while n:
                acc = acc @ mul % p if n & 1 else acc
                mul, n = mul @ mul % p, n >> 1
            return np.array_equal(acc, unit)

        for gen in range(p, self.q):
            mul = np.array([self._mul_coords(self._decode(gen), w)
                            for w in unit]).T
            if not any(power_is_one(mul, order // t) for t in factors):
                break
        pw = np.zeros((r, order), dtype=np.int64)
        pw[0, 0] = 1
        n = 1
        while n < order:
            # r p^2 < 2^25 within the table limit: exact in int64
            k = min(n, order - n)
            pw[:, n:n + k] = mul @ pw[:, :k] % p
            mul, n = mul @ mul % p, n + k
        exp = np.array(self._ppow) @ pw
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp] = np.arange(order)
        return exp.tolist(), log.tolist()

    def _decode(self, code):
        out = np.zeros(self.r, dtype=np.int64)
        for i in range(self.r):
            code, out[i] = divmod(code, self.p)
        return out

    def _encode(self, coords):
        code = 0
        for i in range(self.r - 1, -1, -1):
            code = code * self.p + int(coords[i]) % self.p
        return code

    # scalar arithmetic on codes
    def _add_codes(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        return self._encode(self._decode(a) + self._decode(b))

    def _neg_code(self, a):
        if self.r == 1:
            return (-a) % self.p
        return self._encode(-self._decode(a))

    def _sub_codes(self, a, b):
        return self._add_codes(a, self._neg_code(b))

    def _mul_codes(self, a, b):
        if self.r == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def _inv_code(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def zero(self):
        return FqElem(self, 0)

    def one(self):
        return FqElem(self, 1)

    def element(self, value):
        """Build a field element from an integer (image of the integer in
        the prime subfield) or from a coordinate sequence."""
        if isinstance(value, FqElem):
            if value.ctx is not self and value.ctx.key != self.key:
                raise MixedField("element from a different field")
            return value
        if isinstance(value, int):
            return FqElem(self, value % self.p)
        coords = list(value)
        if len(coords) != self.r:
            raise ValueError(f"expected {self.r} coordinates")
        code = 0
        for i in range(self.r - 1, -1, -1):
            code = code * self.p + coords[i] % self.p
        return FqElem(self, code)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r})"


def make_field(p, r):
    """Construct GF(p^r) with the smallest monic irreducible modulus."""
    return FieldCtx(p, r)


def _same_ctx(a, b):
    if a.ctx.key != b.ctx.key:
        raise MixedField(f"mixed fields {a.ctx!r} and {b.ctx!r}")


class FqElem:
    """Element of GF(p^r), canonically reduced."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx, code):
        self.ctx = ctx
        self.code = code

    @property
    def coords(self):
        """Coordinates with respect to 1, w, ..., w^(r-1), each in [0, p)."""
        c, p = self.code, self.ctx.p
        out = []
        for _ in range(self.ctx.r):
            c, d = divmod(c, p)
            out.append(d)
        return tuple(out)

    def is_zero(self):
        return self.code == 0

    def is_one(self):
        return self.code == 1

    def in_prime_field(self):
        return self.code < self.ctx.p

    def _coerce(self, other):
        if isinstance(other, FqElem):
            _same_ctx(self, other)
            return other
        if isinstance(other, int):
            return FqElem(self.ctx, other % self.ctx.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.ctx, self.ctx._add_codes(self.code, other.code))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.ctx, self.ctx._sub_codes(self.code, other.code))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FqElem(self.ctx, self.ctx._neg_code(self.code))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.ctx, self.ctx._mul_codes(self.code, other.code))

    __rmul__ = __mul__

    def inverse(self):
        return FqElem(self.ctx, self.ctx._inv_code(self.code))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, FqElem(self.ctx, 1))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other % self.ctx.p and self.code < self.ctx.p
        return (isinstance(other, FqElem) and self.ctx.key == other.ctx.key
                and self.code == other.code)

    def __hash__(self):
        return hash((self.ctx.key, self.code))

    def _monomials(self):
        # nonzero (power of w, residue) pairs, highest power first
        return [(i, d) for i, d in reversed(list(enumerate(self.coords)))
                if d]

    def __str__(self):
        if self.code == 0:
            return "0"
        parts = []
        for i, d in self._monomials():
            if i == 0:
                parts.append(str(d))
            else:
                wpow = "w" if i == 1 else f"w^{i}"
                parts.append(wpow if d == 1 else f"{d}*{wpow}")
        return "+".join(parts)

    def __repr__(self):
        return f"FqElem({self}, q={self.ctx.q})"


# ---------------------------------------------------------------------------
# Dense polynomials over GF(p^r)


def _trimmed(arr):
    """``arr`` cut after its last nonzero column, the last axis being the
    power of T: the one trimming rule of polynomials and series blocks."""
    n = arr.shape[-1]
    if not n or np.count_nonzero(arr[..., n - 1]):
        return arr
    nz = np.flatnonzero(arr.any(axis=tuple(range(arr.ndim - 1))))
    return arr[..., :nz[-1] + 1 if nz.size else 0]


def _times_coords(ctx, coords, arr):
    """A coefficient array of any shape, coordinate axis first, times the
    field element with coordinates ``coords``; entries in [0, p)."""
    if ctx.r == 1:
        return arr * int(coords[0]) % ctx.p
    r = ctx.r
    acc = np.zeros((2 * r - 1,) + arr.shape[1:], dtype=np.int64)
    for i in range(r):
        if coords[i]:
            acc[i:i + r] += coords[i] * arr
    return ctx._fold(acc)


def _frobenius_array(ctx, arr):
    """The p-th power of every polynomial in a coefficient array of any
    shape, coordinate axis first and T last: c(T)^p = sum a_i^p T^(ip)."""
    p, r = ctx.p, ctx.r
    if r > 1:
        arr = np.tensordot(ctx._frob, arr, axes=1) % p
    n = arr.shape[-1]
    out = np.zeros(arr.shape[:-1] + (p * (n - 1) + 1 if n else 0,),
                   dtype=np.int64)
    out[..., ::p] = arr
    return out


def _rows_divmod(ctx, arr, g):
    """Quotients and remainders of all the polynomials in a coefficient
    array of any shape, coordinate axis first and T last, by the nonzero
    polynomial with trimmed coefficient array g: one long division."""
    p, r = ctx.p, ctx.r
    dg = g.shape[1] - 1
    inv = ctx.element(g[:, dg].tolist()).inverse().coords
    work = np.array(arr, dtype=np.int64)
    quot = np.zeros(arr.shape[:-1] + (max(arr.shape[-1] - dg, 0),),
                    dtype=np.int64)
    for k in range(arr.shape[-1] - 1, dg - 1, -1):
        qc = work[..., k]
        if not qc.any():
            continue
        qc = quot[..., k - dg] = _times_coords(ctx, inv, qc)
        if r == 1:
            sub = np.multiply.outer(qc, g[0])
        else:
            # products of coordinate planes, reduced mod the modulus
            sub = np.zeros((2 * r - 1,) + qc.shape[1:] + (dg + 1,),
                           dtype=np.int64)
            for i in range(r):
                for j in range(r):
                    sub[i + j] += np.multiply.outer(qc[i], g[j])
            sub = ctx._fold(sub)
        work[..., k - dg:k + 1] = (work[..., k - dg:k + 1] - sub) % p
    return quot, work[..., :dg]


def _convolve_mod(a, b, p):
    # exact 1-D convolution of residue vectors, on Python integers once a
    # sum of products could pass the int64 bound
    if a.size * (p - 1) * (p - 1) < (1 << 62):
        return np.convolve(a, b) % p
    return (np.convolve(a.astype(object), b.astype(object)) % p).astype(
        np.int64)


def _poly_product(ctx, a, b):
    """Product of two nonzero coefficient arrays of shape (r, n), reduced;
    the product of trimmed arrays is trimmed."""
    if ctx.r == 1:
        return _convolve_mod(a[0], b[0], ctx.p)[None, :]
    r = ctx.r
    acc = np.zeros((2 * r - 1, a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for i in range(r):
        if not a[i].any():
            continue
        for j in range(r):
            if b[j].any():
                acc[i + j] += np.convolve(a[i], b[j])
    return ctx._fold(acc)


def _batch_product(ctx, a, b, width=None):
    """Products of two batches of coefficient arrays, coordinate axis first,
    T last and batch axes between that broadcast, reduced and cut below
    T^width: one multiply-add per column of the shorter factor, on Python
    integers past the bound of ``_convolve_mod``."""
    p, r = ctx.p, ctx.r
    a, b = (a, b) if a.shape[-1] >= b.shape[-1] else (b, a)
    wa, wb = a.shape[-1], b.shape[-1]
    width = wa + wb - 1 if width is None else min(width, wa + wb - 1)
    exact = np.int64 if wb * (p - 1) ** 2 < 1 << 62 else object
    # coordinate planes i of a and j of b give the multiple of w^(i+j)
    a = a[:, None].astype(exact, copy=False)
    b = b[None].astype(exact, copy=False)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (width,), dtype=exact)
    for s in range(min(wb, width)):
        out[..., s:s + wa] += a[..., :width - s] * b[..., s, None]
    out = (out % p).astype(np.int64, copy=False)
    if r == 1:
        return out[0]
    acc = np.zeros((2 * r - 1,) + out.shape[2:], dtype=np.int64)
    for i in range(r):
        acc[i:i + r] += out[i]
    return ctx._fold(acc)


class Poly:
    """Dense polynomial in T over GF(p^r).

    The coefficient array has one row per field coordinate and one column
    per power of T; the highest column is nonzero.  The zero polynomial has
    zero columns and degree NEG_INF.
    """

    __slots__ = ("ctx", "arr")

    def __init__(self, ctx, arr):
        arr = np.asarray(arr, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != ctx.r:
            raise ValueError("coefficient array has wrong shape")
        arr = np.ascontiguousarray(_trimmed(arr))
        arr.setflags(write=False)
        self.ctx = ctx
        self.arr = arr

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ctx):
        return cls(ctx, np.zeros((ctx.r, 0), dtype=np.int64))

    @classmethod
    def one(cls, ctx):
        return cls.constant(ctx, 1)

    @classmethod
    def T(cls, ctx):
        return cls.from_coeffs(ctx, (0, 1))

    @classmethod
    def constant(cls, ctx, c):
        e = ctx.element(c) if not isinstance(c, FqElem) else c
        arr = np.zeros((ctx.r, 1), dtype=np.int64)
        arr[:, 0] = e.coords
        return cls(ctx, arr)

    @classmethod
    def from_coeffs(cls, ctx, coeffs):
        """Polynomial from coefficients, lowest degree first."""
        elems = [ctx.element(c) for c in coeffs]
        arr = np.zeros((ctx.r, len(elems)), dtype=np.int64)
        for j, e in enumerate(elems):
            arr[:, j] = e.coords
        return cls(ctx, arr)

    @classmethod
    def from_pairs(cls, ctx, pairs):
        """Polynomial from (exponent, coefficient) pairs."""
        pairs = list(pairs)
        n = max((e for e, _ in pairs), default=-1) + 1
        arr = np.zeros((ctx.r, n), dtype=np.int64)
        for e, c in pairs:
            elem = ctx.element(c)
            arr[:, e] = (arr[:, e] + np.array(elem.coords)) % ctx.p
        return cls(ctx, arr)

    # -- basic queries ------------------------------------------------
    @property
    def degree(self):
        n = self.arr.shape[1]
        return n - 1 if n else NEG_INF

    def is_zero(self):
        return self.arr.shape[1] == 0

    def is_one(self):
        return (self.arr.shape[1] == 1 and self.arr[0, 0] == 1
                and np.count_nonzero(self.arr) == 1)

    def coeff(self, i):
        """Coefficient of T^i as a field element."""
        if i < 0 or i >= self.arr.shape[1]:
            return self.ctx.zero()
        return self.ctx.element(self.arr[:, i].tolist())

    @property
    def lead(self):
        if self.is_zero():
            return self.ctx.zero()
        return self.coeff(self.arr.shape[1] - 1)

    def is_monic(self):
        return not self.is_zero() and self.lead.is_one()

    def coeffs(self):
        return tuple(self.coeff(i) for i in range(self.arr.shape[1]))

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            _same_ctx(self, other)
            return other
        if isinstance(other, (int, FqElem)):
            return Poly.constant(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.arr, other.arr
        n = max(a.shape[1], b.shape[1])
        out = np.zeros((self.ctx.r, n), dtype=np.int64)
        out[:, :a.shape[1]] += a
        out[:, :b.shape[1]] += b
        return Poly(self.ctx, out % self.ctx.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.arr, other.arr
        n = max(a.shape[1], b.shape[1])
        out = np.zeros((self.ctx.r, n), dtype=np.int64)
        out[:, :a.shape[1]] += a
        out[:, :b.shape[1]] -= b
        return Poly(self.ctx, out % self.ctx.p)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.ctx, (-self.arr) % self.ctx.p)

    def __mul__(self, other):
        if isinstance(other, FqElem):
            return self._scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        return Poly(self.ctx, _poly_product(self.ctx, self.arr, other.arr))

    __rmul__ = __mul__

    def _scale(self, e):
        """Multiply by a field element."""
        if e.is_zero() or self.is_zero():
            return Poly.zero(self.ctx)
        if e.is_one():
            return self
        ctx = self.ctx
        if ctx.r == 1:
            return Poly(ctx, (self.arr * e.code) % ctx.p)
        return Poly(ctx, _times_coords(ctx, e.coords, self.arr))

    def _frobenius(self):
        """The p-th power: c(T)^p = sum a_i^p T^(ip)."""
        return Poly(self.ctx, _frobenius_array(self.ctx, self.arr))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        return _power(self, n, Poly.one(self.ctx))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.arr.shape[1] < other.arr.shape[1]:
            return Poly.zero(self.ctx), self
        quot, rem = _rows_divmod(self.ctx, self.arr, other.arr)
        return Poly(self.ctx, quot), Poly(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        """Monic greatest common divisor."""
        other = self._coerce(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def monic(self):
        if self.is_zero() or self.lead.is_one():
            return self
        return self._scale(self.lead.inverse())

    # -- comparison and rendering --------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.ctx, other)
        return (isinstance(other, Poly) and self.ctx.key == other.ctx.key
                and self.arr.shape == other.arr.shape
                and np.array_equal(self.arr, other.arr))

    def __hash__(self):
        return hash((self.ctx.key, self.arr.shape[1], self.arr.tobytes()))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, col in reversed(list(enumerate(self.arr.T.tolist()))):
            if not any(col):
                continue
            c = self.ctx.element(col)
            if j == 0:
                s = str(c)
                if "+" in s:
                    s = f"({s})"
                parts.append(s)
            else:
                tp = "T" if j == 1 else f"T^{j}"
                if c.is_one():
                    parts.append(tp)
                elif c.in_prime_field():
                    parts.append(f"{c.code}*{tp}")
                else:
                    parts.append(f"({c})*{tp}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self}, q={self.ctx.q})"


def special_modulus(ctx, d):
    """The congruence modulus T^(q^d) - T."""
    if d < 1:
        raise BadDegree(f"d = {d} must be at least 1")
    return Poly.from_pairs(ctx, [(ctx.q ** d, 1), (1, ctx.p - 1)])


# ---------------------------------------------------------------------------
# Rational functions


class RatFunc:
    """Element of F_q(T), stored as a reduced fraction with monic
    denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, FqElem)):
            raise TypeError("wrap scalars with RatFunc.constant(ctx, c)")
        ctx = num.ctx
        if den is None:
            den = Poly.one(ctx)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Poly.one(ctx)
            return
        if not den.is_one():
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
            if not den.lead.is_one():
                inv = den.lead.inverse()
                num = num._scale(inv)
                den = den._scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num, den):
        # internal: fraction already in lowest terms with monic denominator
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def constant(cls, ctx, c):
        return cls._reduced(Poly.constant(ctx, c), Poly.one(ctx))

    @property
    def ctx(self):
        return self.num.ctx

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_integral(self):
        """True when the value lies in F_q[T]."""
        return self.den.degree == 0  # a monic constant is 1

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            _same_ctx(self.num, other.num)
            return other
        if isinstance(other, Poly):
            _same_ctx(self.num, other)
            return RatFunc._reduced(other, Poly.one(self.ctx))
        if isinstance(other, (int, FqElem)):
            return RatFunc.constant(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc._reduced(self.num + other.num, self.den)
        num = self.num * other.den + other.num * self.den
        return RatFunc(num, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc._reduced(self.num * other.num, self.den)
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num if g1.is_one() else self.num // g1
        d2 = other.den if g1.is_one() else other.den // g1
        n2 = other.num if g2.is_one() else other.num // g2
        d1 = self.den if g2.is_one() else self.den // g2
        return RatFunc._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, RatFunc.constant(self.ctx, 1))

    def __eq__(self, other):
        if isinstance(other, (int, FqElem, Poly)):
            other = self._coerce(other)
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self}, q={self.ctx.q})"


def _as_ratfunc(ctx, v):
    """A value from F_q, F_q[T] or F_q(T) as a RatFunc."""
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, Poly):
        return RatFunc(v)
    return RatFunc.constant(ctx, v)


# ---------------------------------------------------------------------------
# Expression parsing: one grammar for polynomials, rational functions and,
# with a table of named atoms, form expressions.  Every rendering this
# package prints parses back to the value it renders.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))")


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"cannot tokenize {rest[:16]!r}")
        if m.group("int") is not None:
            toks.append(("int", int(m.group("int"))))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name")))
        else:
            toks.append((m.group("op"), None))
        pos = m.end()
    return toks


class _ExprParser:
    """Recursive descent over: expr := '-'? term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := atom ('^' '-'? int)?,
    atom := int | 'T' | 'w' | name | '(' expr ')'.

    Integers, T and w evaluate to RatFunc.  Any other name is looked up
    in ``names``, whose values must combine with RatFunc under + - * and
    integer powers.
    """

    def __init__(self, ctx, text, names):
        self.ctx = ctx
        self.text = text
        self.names = names
        self.toks = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None,
                                                                      None)

    def _take(self, kind=None):
        tok = self._peek()
        if tok[0] is None:
            raise ExprError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[0]!r}")
        self.pos += 1
        return tok

    def parse(self):
        out = self._expr()
        if self.pos != len(self.toks):
            raise ExprError(
                f"trailing input after position {self.pos} in "
                f"{self.text!r}")
        return out

    def _expr(self):
        negate = False
        if self._peek()[0] == "-":
            self._take()
            negate = True
        acc = self._term()
        if negate:
            acc = -acc
        while self._peek()[0] in ("+", "-"):
            op = self._take()[0]
            t = self._term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def _term(self):
        acc = self._factor()
        while self._peek()[0] in ("*", "/"):
            op = self._take()[0]
            f = self._factor()
            acc = acc * (f if op == "*" else self._power(f, -1))
        return acc

    def _factor(self):
        base = self._atom()
        if self._peek()[0] == "^":
            self._take()
            sign = 1
            if self._peek()[0] == "-":
                self._take()
                sign = -1
            tok = self._take("int")
            return self._power(base, sign * tok[1])
        return base

    @staticmethod
    def _power(base, n):
        if n < 0 and base.is_zero():
            raise ExprError("division by zero")
        return base ** n

    def _atom(self):
        ctx = self.ctx
        kind, value = self._peek()
        if kind == "(":
            self._take()
            inner = self._expr()
            self._take(")")
            return inner
        if kind == "int":
            self._take()
            return RatFunc.constant(ctx, value)
        if kind == "name":
            self._take()
            if value == "T":
                return RatFunc(Poly.T(ctx))
            if value == "w":
                if ctx.r == 1:
                    raise ExprError("w is not defined over a prime field")
                coords = [0] * ctx.r
                coords[1] = 1
                return RatFunc.constant(ctx, ctx.element(coords))
            if value not in self.names:
                raise ExprError(f"unknown name {value!r}")
            return self.names[value]
        raise ExprError(f"unexpected token {kind!r}")


def parse_expr(ctx, text, names=None):
    """Evaluate an expression over F_q(T) and the atoms in ``names``."""
    return _ExprParser(ctx, text, names or {}).parse()


def poly_parse(ctx, text):
    """Parse an expression whose value lies in F_q[T]."""
    out = parse_expr(ctx, text)
    if not out.is_integral():
        raise ExprError(f"{text!r} is not a polynomial")
    return out.num


def ratfunc_parse(ctx, text):
    """Parse an expression with a value in F_q(T)."""
    return parse_expr(ctx, text)


# ---------------------------------------------------------------------------
# Matrices over F_q(T)


def _cleared_row(ctx, row):
    """A row of fractions over the lcm of its denominators: the numerators
    times the lcm, as polynomials, and the lcm."""
    dens = []
    for x in row:
        if not x.den.is_one() and x.den not in dens:
            dens.append(x.den)
    lcm = dens[0] if dens else Poly.one(ctx)
    for d in dens[1:]:
        lcm = lcm * (d // lcm.gcd(d))
    return [x.num if x.is_zero() or x.den == lcm
            else x.num * lcm if x.den.is_one()
            else x.num * (lcm // x.den) for x in row], lcm


def _bareiss(p, x, f, y, prev):
    """The exact quotient (p*x - f*y) / prev of one elimination step."""
    num = p * x if f.is_zero() or y.is_zero() else p * x - f * y
    if num.is_zero() or prev.is_one():
        return num
    quo, rem = divmod(num, prev)
    if not rem.is_zero():
        raise DivisionNotExact(
            "fraction-free elimination left a remainder; "
            "this is an internal bug")
    return quo


class Matrix:
    """Immutable dense matrix over F_q(T)."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx, entries):
        entries = tuple(tuple(_as_ratfunc(ctx, e) for e in row)
                        for row in entries)
        self.ctx = ctx
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged rows")
        self.entries = entries

    def row(self, i):
        return self.entries[i]

    def rref(self):
        """Reduced row echelon form with unit pivots; returns the echelon
        matrix and the tuple of pivot columns.

        The elimination is fraction-free.  Each row is first multiplied by
        the lcm of its denominators, which leaves the reduced form
        unchanged, so the work runs over F_q[T].  Gauss-Jordan elimination
        then replaces every row i other than the pivot row by
        (p*row_i - a_i*row_p) / p_prev, where p is the pivot, a_i the
        entry of row i in the pivot column and p_prev the previous pivot
        (1 at the first step); by Sylvester's identity (Bareiss, Math.
        Comp. 22, 1968) every entry is then a minor of the scaled matrix,
        so each division is exact.  Finally each pivot row is divided by its pivot,
        one reduced fraction per entry.  A matrix has exactly one reduced
        row echelon form, so the result equals elimination over F_q(T).
        """
        ctx = self.ctx
        rows = [_cleared_row(ctx, row)[0] for row in self.entries]
        pivots = []
        prev = Poly.one(ctx)
        pr = 0
        for pc in range(self.cols):
            if pr == len(rows):
                break
            hit = next((i for i in range(pr, len(rows))
                        if not rows[i][pc].is_zero()), None)
            if hit is None:
                continue
            rows[pr], rows[hit] = rows[hit], rows[pr]
            prow = rows[pr]
            p = prow[pc]
            for i, row in enumerate(rows):
                if i != pr:
                    f = row[pc]
                    rows[i] = [_bareiss(p, x, f, y, prev)
                               for x, y in zip(row, prow)]
            prev = p
            pivots.append(pc)
            pr += 1
        zero = RatFunc.constant(ctx, 0)
        one = RatFunc.constant(ctx, 1)
        out = []
        for i, row in enumerate(rows):
            if i < pr:
                p = row[pivots[i]]
                out.append([zero if x.is_zero() else one if j == pivots[i]
                            else RatFunc(x, p) for j, x in enumerate(row)])
            else:
                out.append([zero] * self.cols)
        return Matrix(ctx, out), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row)
                         for row in self.entries)
        return f"Matrix[{body}]"


def left_kernel(mat):
    """Canonical echelon basis of the left kernel {v : v M = 0}.

    The returned rows are in reduced row echelon form, each leading entry
    equal to 1, so the output is deterministic.  An empty list means the
    kernel is trivial.
    """
    ctx = mat.ctx
    reduced, pivots = Matrix(ctx, list(zip(*mat.entries))).rref()
    free = [j for j in range(mat.rows) if j not in pivots]
    if not free:
        return []
    zero = RatFunc.constant(ctx, 0)
    one = RatFunc.constant(ctx, 1)
    basis = []
    for j in free:
        v = [zero] * mat.rows
        v[j] = one
        for idx, pc in enumerate(pivots):
            v[pc] = -reduced.entries[idx][j]
        basis.append(v)
    echelon, _ = Matrix(ctx, basis).rref()
    return [list(echelon.row(i)) for i in range(len(basis))]
