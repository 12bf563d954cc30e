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
    full = max(wa + wb - 1, 0)
    width = full if width is None else min(width, full)
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
        return _constants(ctx)[0]

    @classmethod
    def one(cls, ctx):
        return _constants(ctx)[1]

    @classmethod
    def T(cls, ctx):
        return cls.from_coeffs(ctx, (0, 1))

    @classmethod
    def constant(cls, ctx, c):
        e = ctx.element(c) if not isinstance(c, FqElem) else c
        if e.code < 2:
            return _constants(ctx)[e.code]
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
        # one code per column; an FqElem only for codes outside F_p
        ctx, parts = self.ctx, []
        for j, code in reversed(list(enumerate((ctx._ppow @ self.arr)
                                               .tolist()))):
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
        num = Poly.constant(ctx, c)
        zero, one, rzero, rone = _constants(ctx)
        return (rzero if num is zero else rone if num is one
                else cls._reduced(num, one))

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
        # num^n / den^n is again in lowest terms with a monic denominator
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._reduced(self.num ** n, self.den ** n)

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


_CONSTANTS = {}


def _constants(ctx):
    """The polynomials 0 and 1 and the fractions 0 and 1 over ctx, built on
    first use and shared: every object here is immutable."""
    out = _CONSTANTS.get(ctx.key)
    if out is None:
        one = np.zeros((ctx.r, 1), dtype=np.int64)
        one[0, 0] = 1
        zero, one = Poly(ctx, one[:, :0]), Poly(ctx, one)
        out = _CONSTANTS[ctx.key] = (zero, one, RatFunc._reduced(zero, one),
                                     RatFunc._reduced(one, one))
    return out


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


def _lowest_terms(ctx, block, den):
    """Block and denominator with their common factor divided out and the
    denominator made monic.  The gcd runs on the remainders of the rows
    mod den, the only row Polys a kernel builds."""
    quot, rem = _rows_divmod(ctx, block, den.arr)
    g = den
    for i in np.flatnonzero(rem.any(axis=(0, 2))).tolist():
        if g.degree < 1:
            break
        g = g.gcd(Poly(ctx, rem[:, i]))
    if g.degree > 0:
        block = _trimmed(quot if g == den else
                         _rows_divmod(ctx, block, g.arr)[0])
        den = den // g
    if not den.lead.is_one():
        inv = den.lead.inverse()
        den, block = den._scale(inv), _times_coords(ctx, inv.coords, block)
    return block, den


def _padded(arr, width):
    """A coefficient array cut or zero-padded to ``width`` powers of T."""
    out = np.zeros(arr.shape[:-1] + (width,), dtype=np.int64)
    out[..., :min(width, arr.shape[-1])] = arr[..., :width]
    return out


def _stacked(arrays, axis):
    """Coefficient arrays of one shape but for their widths, padded to
    the widest and stacked on a new axis."""
    width = max(a.shape[-1] for a in arrays)
    return np.stack([_padded(a, width) for a in arrays], axis=axis)


def _fraction_free(ctx, block):
    """Fraction-free Gauss-Jordan elimination of a matrix of polynomials
    held as one block, coordinate x row x column x power of T, entries in
    [0, p); returns the eliminated block and the tuple of pivot columns.

    At the pivot c in row pr every other row i becomes
    (c*row_i - a_i*row_pr) / c_prev, where a_i is its entry in the pivot
    column and c_prev the previous pivot (1 at the first step): two
    batched products and one long division, covering all rows.  By
    Sylvester's identity (Bareiss, Math. Comp. 22, 1968) every entry is
    then a minor of the block, so each division is exact.  At the end
    every pivot row holds the last pivot in its pivot column, the other
    pivot columns are zero and so are the rows below the rank.
    """
    p, (_, rows, cols, _) = ctx.p, block.shape
    work, pivots, prev = block, [], None
    for pc in range(cols):
        pr = len(pivots)
        if pr == rows:
            break
        hit = np.flatnonzero(work[:, pr:, pc].any(axis=(0, 2)))
        if not hit.size:
            continue
        order = np.arange(rows)
        order[[pr, pr + hit[0]]] = pr + hit[0], pr
        work = work[:, order]
        prow, pivot = work[:, pr], _trimmed(work[:, pr, pc])
        pivots.append(pc)
        if rows == 1:
            break  # one row is its own echelon form
        num = _batch_product(ctx, pivot[:, None, None], work)
        sub = _batch_product(ctx, _trimmed(work[:, :, pc])[:, :, None],
                             prow[:, None])
        width = max(num.shape[-1], sub.shape[-1])
        num = (_padded(num, width) - _padded(sub, width)) % p
        if prev is not None:
            num, rem = _rows_divmod(ctx, num, prev)
            if rem.any():
                raise DivisionNotExact(
                    "fraction-free elimination left a remainder; "
                    "this is an internal bug")
        num = _padded(num, max(num.shape[-1], prow.shape[-1]))
        num[:, pr] = _padded(prow, num.shape[-1])
        work, prev = _trimmed(num), pivot
    return work, tuple(pivots)


def _degrees(arr):
    """Degrees of a batch of polynomials (r, ..., w); -1 for zero."""
    nz = arr.any(axis=0)
    return np.where(nz.any(axis=-1),
                    nz.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1), -1)


def _times_each(ctx, c, arr):
    """A batch of coefficient arrays (r, ..., K, w) times one field element
    per batch index k, with coordinates c[:, k]; entries in [0, p)."""
    r = ctx.r
    c = c.reshape(c.shape[:1] + (1,) * (arr.ndim - 3) + c.shape[1:] + (1,))
    if r == 1:
        return c * arr % ctx.p
    acc = np.zeros((2 * r - 1,) + arr.shape[1:], dtype=np.int64)
    for i in range(r):
        acc[i:i + r] += c[i] * arr
    return ctx._fold(acc)


def _lowest_fractions(ctx, rem, den):
    """Lowest terms of a batch of proper fractions rem_k / den_k, given as
    arrays (r, K, w) with each rem_k nonzero and of lower degree than the
    monic den_k; returns the reduced numerators and monic denominators.

    One extended Euclidean algorithm runs on all pairs at once, one
    leading term per step and without division: of the two rows
    X = s*den + t*rem of a pair, the row A of larger degree becomes
    lc(B)*A - lc(A)*T^(deg A - deg B)*B.  Each step multiplies the
    determinant of the cofactor matrix by a unit, so when the row B
    vanishes its cofactors are coprime, and s*den + t*rem = 0 gives
    rem / den = -s / t.
    """
    p, r = ctx.p, ctx.r
    k, w = rem.shape[1], max(rem.shape[-1], den.shape[-1])
    # rows A = x[:, 0] and B = x[:, 1], each a polynomial and its cofactors
    # s and t
    x = np.zeros((r, 2, 3, k, w), dtype=np.int64)
    x[:, 0, 0, :, :den.shape[-1]] = den
    x[:, 1, 0, :, :rem.shape[-1]] = rem
    x[0, 0, 1, :, 0] = x[0, 1, 2, :, 0] = 1
    at, src = np.arange(k), w + np.arange(w)
    while True:
        deg = _degrees(x[:, :, 0])
        live = deg[1] >= 0
        if not live.any():
            break
        swap = np.flatnonzero(live & (deg[0] < deg[1]))
        if swap.size:
            x[:, :, :, swap] = x[:, ::-1, :, swap]
            deg[:, swap] = deg[::-1, swap]
        # column w + j - shift of [0 | B] is column j of T^shift * B; a
        # finished pair keeps B, which holds its answer, and spends A
        b, shift = x[:, 1], np.where(live, deg[0] - deg[1], w)
        shifted = np.concatenate([np.zeros_like(b), b], axis=-1)[
            :, :, at[:, None], src - shift[:, None]]
        x[:, 0] = (_times_each(ctx, b[:, 0, at, deg[1]], x[:, 0])
                   - _times_each(ctx, x[:, 0, 0, at, deg[0]], shifted)) % p
    s, t = x[:, 1, 1], x[:, 1, 2]
    inv = np.array([ctx.element(c).inverse().coords for c in
                    t[:, at, _degrees(t)].T.tolist()], dtype=np.int64).T
    return _times_each(ctx, -inv % p, s), _times_each(ctx, inv, t)


def _reduced_entries(ctx, block, dens):
    """The entries of the rows block[:, i] / dens[i] as reduced RatFunc.
    One long division per distinct denominator gives the integral entries
    as quotients; the others, quotient plus a proper fraction, have their
    fractions reduced together by ``_lowest_fractions``."""
    _, one, zero, _ = _constants(ctx)
    cols = block.shape[2]
    out = [None] * len(dens)
    groups = {}
    for i, d in enumerate(dens):
        groups.setdefault(d, []).append(i)
    at, quots, rems, ds = [], [], [], []  # the entries with a remainder
    for d, rows in groups.items():
        quot, rem = ((block[:, rows], block[:, rows, :, :0]) if d.is_one()
                     else _rows_divmod(ctx, block[:, rows], d.arr))
        frac = rem.any(axis=(0, 3)).tolist()
        nonzero = quot.any(axis=(0, 3)).tolist()
        for n, i in enumerate(rows):
            out[i] = [None if frac[n][j] else
                      RatFunc._reduced(Poly(ctx, quot[:, n, j]), one)
                      if nonzero[n][j] else zero for j in range(cols)]
            for j in (j for j in range(cols) if frac[n][j]):
                at.append((i, j))
                quots.append(quot[:, n, j])
                rems.append(rem[:, n, j])
                ds.append(d.arr)
    if at:
        num, den = _lowest_fractions(ctx, _stacked(rems, 1), _stacked(ds, 1))
        prod = _batch_product(ctx, _stacked(quots, 1), den)
        num = (_padded(num, prod.shape[-1]) + prod) % ctx.p
        for n, (i, j) in enumerate(at):
            out[i][j] = RatFunc._reduced(Poly(ctx, num[:, n]),
                                         Poly(ctx, den[:, n]))
    return tuple(map(tuple, out))


class Matrix:
    """Immutable dense matrix over F_q(T), held as one block of
    polynomial numerators over one monic denominator per row.

    ``block`` is a read-only int64 array, coordinate x row x column x
    power of T, with entries in [0, p) and a nonzero last T-column, and
    row i of the matrix is block[:, i] / dens[i].  A row need not be in
    lowest terms: equality compares the cross products
    block[:, i] * dens'[i] and block'[:, i] * dens[i].  ``entries``, every
    entry as a reduced RatFunc, is built on first read.
    """

    __slots__ = ("ctx", "rows", "cols", "block", "dens", "_entries")

    def __init__(self, ctx, entries):
        entries = [[_as_ratfunc(ctx, e) for e in row] for row in entries]
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        cleared = [_cleared_row(ctx, row) for row in entries]
        block = np.zeros((ctx.r, len(entries), cols, max(
            [n.arr.shape[1] for nums, _ in cleared for n in nums],
            default=0)), dtype=np.int64)
        for i, (nums, _) in enumerate(cleared):
            for j, n in enumerate(nums):
                block[:, i, j, :n.arr.shape[1]] = n.arr
        self._set(ctx, block, [den for _, den in cleared])

    @classmethod
    def _of(cls, ctx, block, dens):
        """The matrix with rows block[:, i] / dens[i], for a block with
        entries in [0, p) and monic denominators."""
        self = object.__new__(cls)
        self._set(ctx, block, dens)
        return self

    def _set(self, ctx, block, dens):
        block = _trimmed(block)
        block.setflags(write=False)
        self.ctx = ctx
        _, self.rows, self.cols, _ = block.shape
        self.block = block
        self.dens = tuple(dens)
        self._entries = None

    @property
    def entries(self):
        """The entries as a tuple of rows of RatFunc, built on first read."""
        if self._entries is None:
            self._entries = _reduced_entries(self.ctx, self.block, self.dens)
        return self._entries

    def row(self, i):
        return self.entries[i]

    def _den_block(self):
        # the row denominators as a block, one column
        return np.stack([_padded(d.arr, max(e.arr.shape[1] for e in self.dens))
                         for d in self.dens], axis=1)[:, :, None]

    def rref(self):
        """Reduced row echelon form with unit pivots; returns the echelon
        matrix and the tuple of pivot columns.

        Scaling a row by its denominator leaves the reduced form
        unchanged, so the elimination runs fraction-free on ``block``
        (``_fraction_free``).  Every pivot row then holds the last pivot
        d in its pivot column, so the echelon form is those rows over d,
        made monic; its entries are reduced when read.  A matrix has
        exactly one reduced row echelon form, so the result equals
        elimination over F_q(T).
        """
        ctx = self.ctx
        work, pivots = _fraction_free(ctx, self.block)
        dens = [Poly.one(ctx)] * self.rows
        if pivots:
            d = _trimmed(work[:, 0, pivots[0]])
            inv = ctx.element(d[:, -1].tolist()).inverse().coords
            work = _times_coords(ctx, inv, work)  # the other rows are zero
            dens[:len(pivots)] = ([Poly(ctx, _times_coords(ctx, inv, d))]
                                  * len(pivots))
        return Matrix._of(ctx, work, dens), pivots

    def rank(self):
        return len(self.rref()[1])

    def __eq__(self, other):
        if not (isinstance(other, Matrix) and self.ctx.key == other.ctx.key
                and self.rows == other.rows and self.cols == other.cols):
            return False
        if not self.rows:
            return True
        return np.array_equal(
            _trimmed(_batch_product(self.ctx, self.block, other._den_block())),
            _trimmed(_batch_product(self.ctx, other.block, self._den_block())))

    def __hash__(self):
        return hash((self.ctx.key, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row)
                         for row in self.entries)
        return f"Matrix[{body}]"


def left_kernel(mat):
    """Canonical echelon basis of the left kernel {v : v M = 0}.

    The returned rows are in reduced row echelon form, each leading entry
    equal to 1, so the output is deterministic.  An empty list means the
    kernel is trivial.  With n_i the numerators of row i and d_i its
    denominator, v M = 0 exactly when w = (v_i / d_i) has w N = 0: the
    fraction-free elimination of the transposed numerator block gives
    that kernel over F_q[T], with w_j = d, the last pivot, at each free
    row index j, before the basis is scaled back by the d_i and reduced.
    """
    ctx = mat.ctx
    work, pivots = _fraction_free(ctx, mat.block.swapaxes(1, 2))
    free = [j for j in range(mat.rows) if j not in pivots]
    if not free:
        return []
    d = _trimmed(work[:, 0, pivots[0]]) if pivots else Poly.one(ctx).arr
    basis = np.zeros((ctx.r, len(free), mat.rows,
                      max(d.shape[-1], work.shape[-1])), dtype=np.int64)
    for f, j in enumerate(free):
        basis[:, f, j, :d.shape[-1]] = d
        for idx, pc in enumerate(pivots):
            basis[:, f, pc, :work.shape[-1]] = -work[:, idx, j] % ctx.p
    basis = _batch_product(ctx, basis, mat._den_block()[:, :, 0][:, None])
    echelon, _ = Matrix._of(ctx, basis, [Poly.one(ctx)] * len(free)).rref()
    return [list(echelon.row(i)) for i in range(len(free))]
