"""Exact arithmetic for GF(p^r), the polynomial ring F_q[T], its fraction
field F_q(T), and dense matrices over F_q(T) with Gaussian elimination.

Polynomials are stored densely as small integer coordinate arrays, one row
per basis coordinate of the field over its prime field.  Every product of
such arrays is integer arithmetic on coordinate planes inside numpy,
combined into the planes of the powers of w by ``FieldCtx._plane_product``
and reduced by ``FieldCtx._fold``, so every value stays exact.  All
objects are immutable after construction.
"""

from __future__ import annotations

import functools
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

# p^r <= 2^20 for r > 1 bounds p by 2^10: the plane products of
# _poly_product, which do not guard their sums, stay exact in int64
_EXTENSION_LIMIT = 1 << 20
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
    generator w, where w is a root of ``modulus``.  Arrays of elements hold
    their coordinates on a first axis of r planes; ``_plane_product`` and
    ``_fold`` are the one rule by which every kernel multiplies them, and
    two single elements multiply by the same rule through ``_mul_coords``.
    An element a of F_p inverts as a^(p-2) mod p, any other as a^(q-2),
    since a^(q-1) = 1 for every nonzero a in F_q.
    """

    __slots__ = ("p", "r", "q", "modulus", "key", "_wred", "_ppow", "_frob")

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
        if r > 1 and p ** r > _EXTENSION_LIMIT:
            raise ValueError(
                f"extension field of order {p ** r} is too large: p^r must "
                "be at most 2^20 for exact int64 coordinate products")
        self.p = p
        self.r = r
        self.q = p ** r
        self.modulus = _smallest_irreducible(p, r)
        self.key = (p, r, self.modulus)
        self._ppow = tuple(p ** i for i in range(r))
        if r > 1:
            self._wred = self._reduction_rows()
            # column j holds the coordinates of (w^j)^p
            self._frob = np.array(
                [(FqElem(self, p ** j) ** p).coords for j in range(r)],
                dtype=np.int64).T
        else:
            self._wred = np.zeros((0, 1), dtype=np.int64)
            self._frob = None

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

    def _plane_product(self, a, b, mul):
        """The 2r - 1 unreduced coordinate planes of a product, plane s
        holding the multiple of w^s: plane i of ``a`` times plane j of
        ``b`` lands on plane i + j.  ``mul(a[i], b)`` returns plane i of a
        times every plane of b, stacked on a first axis of length r; it
        runs once per nonzero plane of a, or on plane 0 alone when a is
        zero.  For r = 1 this is mul(a[0], b) itself."""
        r = self.r
        if r == 1:
            return mul(a[0], b)
        acc, nonzero = None, a.reshape(r, -1).any(axis=1).tolist()
        for i in [i for i in range(r) if nonzero[i]] or [0]:
            prod = mul(a[i], b)
            if acc is None:
                acc = np.zeros((2 * r - 1,) + prod.shape[1:], prod.dtype)
            acc[i:i + r] += prod
        return acc

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

    def _decode(self, code):
        # the coordinates of a code, lowest power of w first
        out = []
        for _ in range(self.r):
            code, d = divmod(code, self.p)
            out.append(d)
        return tuple(out)

    def _encode(self, coords):
        code = 0
        for i in range(self.r - 1, -1, -1):
            code = code * self.p + int(coords[i]) % self.p
        return code

    # scalar arithmetic on codes
    def _add_codes(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        return self._encode(np.add(self._decode(a), self._decode(b)))

    def _neg_code(self, a):
        if self.r == 1:
            return (-a) % self.p
        return self._encode(np.negative(self._decode(a)))

    def _sub_codes(self, a, b):
        return self._add_codes(a, self._neg_code(b))

    def _mul_codes(self, a, b):
        if self.r == 1:
            return (a * b) % self.p
        return self._encode(self._mul_coords(self._decode(a),
                                             self._decode(b)))

    def _inv_code(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        if a < self.p:
            return pow(a, self.p - 2, self.p)
        return _power(FqElem(self, a), self.q - 2, None).code

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
        return FqElem(self, self._encode(coords))

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r})"


@functools.lru_cache(maxsize=4)
def make_field(p, r):
    """GF(p^r) with the smallest monic irreducible modulus, built once per
    (p, r) of the last few asked for: a context never changes after its
    construction.  Bad input raises on every call."""
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
        return self.ctx._decode(self.code)

    def is_zero(self):
        return self.code == 0

    def is_one(self):
        return self.code == 1

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

    def __str__(self):
        # the nonzero coordinates, highest power of w first
        parts = []
        for i, d in reversed(list(enumerate(self.coords))):
            if d:
                wpow = "w" if i == 1 else f"w^{i}"
                parts.append(str(d) if i == 0 else wpow if d == 1
                             else f"{d}*{wpow}")
        return "+".join(parts) or "0"

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


def _times_coords(ctx, c, arr):
    """A coefficient array of any shape, coordinate axis first, times field
    elements with the coordinates ``c``, an array (r, ...) whose further
    axes, none for one element, match the leading batch axes of arr;
    entries in [0, p)."""
    c = np.asarray(c)
    c = c.reshape(c.shape + (1,) * (arr.ndim - c.ndim))
    return ctx._fold(ctx._plane_product(c, arr, np.multiply))


def _frobenius_array(ctx, arr):
    """The p-th power of every polynomial in a coefficient array of any
    shape, coordinate axis first and T last: c(T)^p = sum a_i^p T^(ip)."""
    if ctx.r > 1:
        arr = np.tensordot(ctx._frob, arr, axes=1) % ctx.p
    return _spread(arr, ctx.p)


def _spread(arr, k):
    """Every polynomial in a coefficient array, T last, at T^k: c(T^k);
    for k = q this is the q-th power, as a^q = a on F_q."""
    n = arr.shape[-1]
    out = np.zeros(arr.shape[:-1] + (k * (n - 1) + 1 if n else 0,),
                   dtype=np.int64)
    out[..., ::k] = arr
    return out


def _rows_divmod(ctx, arr, g):
    """Quotients and remainders of all the polynomials in a coefficient
    array of any shape, coordinate axis first and T last, by the nonzero
    polynomial with trimmed coefficient array g: one long division."""
    r, dg = ctx.r, g.shape[1] - 1
    inv = ctx.element(g[:, dg].tolist()).inverse().coords
    work = np.array(arr, dtype=np.int64)
    quot = np.zeros(arr.shape[:-1] + (max(arr.shape[-1] - dg, 0),),
                    dtype=np.int64)
    # -g / lead(g), shaped to broadcast over the batch axes of arr: each
    # step adds the leading coefficient of work times it, and those
    # coefficients times 1 / lead(g) are the quotient
    neg = -_times_coords(ctx, inv, g).reshape(
        g.shape[:1] + (1,) * (arr.ndim - 2) + g.shape[1:])

    def mul(x, b):
        return x[..., None] * b
    for k in range(arr.shape[-1] - 1, dg - 1, -1):
        qc = work[..., k]
        if not qc.any():
            continue
        quot[..., k - dg] = qc
        acc = ctx._plane_product(qc, neg, mul)
        acc[:r] += work[..., k - dg:k + 1]
        work[..., k - dg:k + 1] = ctx._fold(acc)
    return _times_coords(ctx, inv, quot), work[..., :dg]


def _special_divmod(ctx, arr, d):
    """Quotients and remainders of all the polynomials in a coefficient
    array of any shape, coordinate axis first and T last, by T^Q - T with
    Q = q^d, shaped as those of ``_rows_divmod``.  As T^Q = T, column j >= 1
    adds onto column 1 + (j - 1) mod (Q - 1) of the remainder; with z the
    array minus its remainder, the quotient is m_j = -sum_(i >= 0)
    z_(j+1-i(Q-1)), one cumulative sum on the same stride.  Only sums occur,
    so the rule holds plane by plane over F_(p^r)."""
    p, n, step = ctx.p, arr.shape[-1], ctx.q ** d - 1
    # columns 1 .. n-1, padded to whole strides of Q - 1
    tail = _padded(arr[..., 1:], -(-(n - 1) // step) * step)
    tail = tail.reshape(arr.shape[:-1] + (-1, step))
    folded = tail.sum(axis=-2) % p
    quot = (folded[..., None, :] - np.cumsum(tail, axis=-2)) % p
    rem = np.concatenate((arr[..., :1], folded), axis=-1)
    return (quot.reshape(arr.shape[:-1] + (-1,))[..., :max(n - step - 1, 0)],
            rem[..., :min(n, step + 1)])


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
    # one convolution per plane of the shorter factor, with the planes of
    # the other laid end to end at the stride n of a product; p <= 2^10
    # under _EXTENSION_LIMIT keeps every sum of r n products in int64
    a, b = (a, b) if a.shape[1] <= b.shape[1] else (b, a)
    r, n = ctx.r, a.shape[1] + b.shape[1] - 1
    flat = _padded(b, n).ravel()[:(r - 1) * n + b.shape[1]]
    return ctx._fold(ctx._plane_product(
        a, flat, lambda x, y: np.convolve(x, y).reshape(r, n)))


def _batch_product(ctx, a, b, width=None):
    """Products of two batches of coefficient arrays, coordinate axis first,
    T last and batch axes between that broadcast, reduced and cut below
    T^width: one multiply-add per column of the shorter factor, on Python
    integers past the bound of ``_convolve_mod``."""
    p = ctx.p
    a, b = (a, b) if a.shape[-1] >= b.shape[-1] else (b, a)
    wa, wb = a.shape[-1], b.shape[-1]
    full = max(wa + wb - 1, 0)
    width = full if width is None else min(width, full)
    exact = np.int64 if wb * (p - 1) ** 2 < 1 << 62 else object
    # out[i, j] is plane i of a times plane j of b
    a = a[:, None].astype(exact, copy=False)
    b = b[None].astype(exact, copy=False)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (width,), dtype=exact)
    for s in range(min(wb, width)):
        out[..., s:s + wa] += a[..., :width - s] * b[..., s, None]
    if exact is object:
        out = (out % p).astype(np.int64)
    return ctx._fold(ctx._plane_product(out, None, lambda x, _: x))


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
        low = min((e for e, _ in pairs), default=0)
        if low < 0:
            raise ValueError(f"negative exponent {low} in a polynomial")
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

    def _combine(self, other, sign):
        # self + sign * other as one signed sum of the two arrays
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.arr, other.arr
        out = _padded(a, max(a.shape[1], b.shape[1]))
        if sign > 0:
            out[:, :b.shape[1]] += b
        else:
            out[:, :b.shape[1]] -= b
        return Poly(self.ctx, out % self.ctx.p)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

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
        return Poly(self.ctx, _times_coords(self.ctx, e.coords, self.arr))

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
        return _rendered_rows(self.ctx, self.arr[:, None])[0]

    def __repr__(self):
        return f"Poly({self}, q={self.ctx.q})"


_COEFF_STRINGS = {}  # ctx.key -> {code: (as a constant, before T)}


def _rendered_rows(ctx, block):
    """The rows block[:, i] of a coefficient block, coordinate x row x
    power of T, each rendered as a polynomial, highest power first, from
    the codes of the whole block taken in one product.  Codes outside F_p
    are parenthesised before T, and as a constant when they are a sum;
    the strings of each code are kept per field on first use."""
    codes = (ctx._ppow @ block.reshape(ctx.r, -1)).reshape(block.shape[1:])
    strings = _COEFF_STRINGS.setdefault(ctx.key, {})
    out = []
    for row in codes.tolist():
        terms = []
        for j in range(len(row) - 1, -1, -1):
            code = row[j]
            if not code:
                continue
            s = strings.get(code)
            if s is None:
                c = str(FqElem(ctx, code))
                s = strings[code] = (
                    (c, "" if code == 1 else f"{c}*") if code < ctx.p
                    else (f"({c})" if "+" in c else c, f"({c})*"))
            terms.append(s[0] if j == 0 else f"{s[1]}T" if j == 1
                         else f"{s[1]}T^{j}")
        out.append(" + ".join(terms) if terms else "0")
    return out


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
        # a unit factor leaves the other, which is immutable, as it is
        if self.is_one():
            return other
        if other.is_one():
            return self
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
    try:
        return _ExprParser(ctx, text, names or {}).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply") from None


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
    distinct = []
    for x in row:
        if not x.den.is_one() and x.den not in distinct:
            distinct.append(x.den)
    lcm = distinct[0] if distinct else Poly.one(ctx)
    for d in distinct[1:]:
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


def _stacked(arrays):
    """Coefficient arrays of one shape but for their widths, coordinate
    axis first, padded to the widest and stacked on a new axis 1."""
    first = arrays[0]
    out = np.zeros((first.shape[0], len(arrays)) + first.shape[1:-1]
                   + (max(a.shape[-1] for a in arrays),), dtype=np.int64)
    for i, a in enumerate(arrays):
        out[:, i, ..., :a.shape[-1]] = a
    return out


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


def _lowest_fractions(ctx, rem, den):
    """Lowest terms of a batch of proper fractions rem_k / den_k, given as
    arrays (r, K, w), den also as (r, 1, w) for one den_k of all, with
    each rem_k nonzero and of lower degree than the monic den_k; returns
    the reduced numerators and monic denominators.

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
        x[:, 0] = (_times_coords(ctx, b[:, :1, at, deg[1]], x[:, 0])
                   - _times_coords(ctx, x[:, 0][:, :1, at, deg[0]],
                                   shifted)) % p
    s, t = x[:, 1, 1], x[:, 1, 2]
    inv = np.array([ctx.element(c).inverse().coords for c in
                    t[:, at, _degrees(t)].T.tolist()], dtype=np.int64).T
    return _times_coords(ctx, -inv % p, s), _times_coords(ctx, inv, t)


def _lowest_entries(ctx, block, den):
    """The entries of block / den in lowest terms: a numerator block and a
    block of monic denominators, both coordinate x row x column x power of
    T, and the mask, row x column, of the entries whose denominator is not
    1.  One long division by den gives the integral entries as quotients;
    the others, quotient plus a proper fraction, have their fractions
    reduced together by ``_lowest_fractions``."""
    r, rows, cols, _ = block.shape
    denoms = np.zeros((r, rows, cols, 1), dtype=np.int64)
    denoms[0, ..., 0] = 1
    if den.is_one():
        return block, denoms, np.zeros((rows, cols), dtype=bool)
    nums, rem = _rows_divmod(ctx, block, den.arr)
    frac = rem.any(axis=(0, 3))
    if frac.any():
        rem, quot = rem[:, frac], nums[:, frac]
        num, lowest = _lowest_fractions(ctx, rem, den.arr[:, None])
        prod = _batch_product(ctx, quot, lowest)
        num = (_padded(num, prod.shape[-1]) + prod) % ctx.p
        nums = _padded(nums, max(nums.shape[-1], num.shape[-1]))
        nums[:, frac] = _padded(num, nums.shape[-1])
        denoms = _padded(denoms, lowest.shape[-1])
        denoms[:, frac] = lowest
    return nums, denoms, frac


class Matrix:
    """Immutable dense matrix over F_q(T), held like a series: one block of
    polynomial numerators over one monic denominator.

    ``block`` is a read-only int64 array, coordinate x row x column x
    power of T, with entries in [0, p) and a nonzero last T-column, and
    the matrix is block / den.  It need not be in lowest terms: equality
    compares the cross products block * den' and block' * den.  The
    entries in lowest terms are computed on first read, once for
    ``entries``, every entry as a RatFunc, and ``rendered``, every entry
    as a string.
    """

    __slots__ = ("ctx", "rows", "cols", "block", "den", "_lowest",
                 "_entries")

    def __init__(self, ctx, entries):
        entries = [[_as_ratfunc(ctx, e) for e in row] for row in entries]
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        nums, den = _cleared_row(ctx, [x for row in entries for x in row])
        block = np.zeros((ctx.r, len(entries), cols, max(
            [n.arr.shape[1] for n in nums], default=0)), dtype=np.int64)
        for at, n in enumerate(nums):
            block[:, at // cols, at % cols, :n.arr.shape[1]] = n.arr
        self._set(ctx, block, den)

    @classmethod
    def _of(cls, ctx, block, den):
        """The matrix block / den, for a block with entries in [0, p) and
        a monic denominator."""
        self = object.__new__(cls)
        self._set(ctx, block, den)
        return self

    def _set(self, ctx, block, den):
        block = _trimmed(block)
        block.setflags(write=False)
        self.ctx = ctx
        _, self.rows, self.cols, _ = block.shape
        self.block = block
        self.den = den
        self._lowest = self._entries = None

    def _lowest_terms(self):
        if self._lowest is None:
            self._lowest = _lowest_entries(self.ctx, self.block, self.den)
        return self._lowest

    @property
    def entries(self):
        """The entries as a tuple of rows of RatFunc."""
        if self._entries is None:
            ctx, (nums, den, frac) = self.ctx, self._lowest_terms()
            _, one, zero, _ = _constants(ctx)
            nonzero = nums.any(axis=(0, 3)).tolist()
            self._entries = tuple(tuple(
                RatFunc._reduced(Poly(ctx, nums[:, i, j]),
                                 Poly(ctx, den[:, i, j]) if f else one)
                if nz else zero for j, (f, nz) in enumerate(zip(fr, nzr)))
                for i, (fr, nzr) in enumerate(zip(frac.tolist(), nonzero)))
        return self._entries

    def rendered(self):
        """The entries as strings, row by row, as ``str`` renders their
        RatFunc, from the blocks of numerators and denominators."""
        nums, den, frac = self._lowest_terms()
        r, rows, cols, width = nums.shape
        strings = _rendered_rows(self.ctx,
                                 nums.reshape(r, rows * cols, width))
        if frac.any():
            denoms = iter(_rendered_rows(self.ctx, den[:, frac]))
            strings = [f"({s})/({next(denoms)})" if f else s
                       for s, f in zip(strings, frac.ravel().tolist())]
        return [strings[i * cols:(i + 1) * cols] for i in range(rows)]

    def rref(self):
        """Reduced row echelon form with unit pivots; returns the echelon
        matrix and the tuple of pivot columns.

        Scaling by the denominator leaves the reduced form unchanged, so
        the elimination runs fraction-free on ``block``
        (``_fraction_free``).  Every pivot row then holds the last pivot
        d in its pivot column, so the echelon form is the eliminated block
        over d, both made monic; its entries are reduced when read.  A
        matrix has exactly one reduced row echelon form, so the result
        equals elimination over F_q(T).
        """
        ctx = self.ctx
        work, pivots = _fraction_free(ctx, self.block)
        if not pivots:
            return Matrix._of(ctx, work, Poly.one(ctx)), pivots
        d = _trimmed(work[:, 0, pivots[0]])
        inv = ctx.element(d[:, -1].tolist()).inverse().coords
        return Matrix._of(ctx, _times_coords(ctx, inv, work),
                          Poly(ctx, _times_coords(ctx, inv, d))), pivots

    def rank(self):
        return len(self.rref()[1])

    def __eq__(self, other):
        if not (isinstance(other, Matrix) and self.ctx.key == other.ctx.key
                and self.rows == other.rows and self.cols == other.cols):
            return False
        return np.array_equal(*(_trimmed(_batch_product(
            self.ctx, a.block, b.den.arr[:, None, None]))
            for a, b in ((self, other), (other, self))))

    def __hash__(self):
        return hash((self.ctx.key, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row)
                         for row in self.entries)
        return f"Matrix[{body}]"


def left_kernel(mat):
    """Canonical echelon basis of the left kernel {v : v M = 0}, as a
    matrix in reduced row echelon form with every leading entry 1, so the
    output is deterministic; it has no rows when the kernel is trivial.

    With M = N / D, v M = 0 exactly when v N = 0: the fraction-free
    elimination of the transposed numerator block gives that kernel over
    F_q[T], with v_j = d, the last pivot, at each free row index j, and
    its reduced echelon form is the basis.
    """
    ctx = mat.ctx
    work, pivots = _fraction_free(ctx, mat.block.swapaxes(1, 2))
    free = [j for j in range(mat.rows) if j not in pivots]
    d = _trimmed(work[:, 0, pivots[0]]) if pivots else Poly.one(ctx).arr
    basis = np.zeros((ctx.r, len(free), mat.rows,
                      max(d.shape[-1], work.shape[-1])), dtype=np.int64)
    for f, j in enumerate(free):
        basis[:, f, j, :d.shape[-1]] = d
        for idx, pc in enumerate(pivots):
            basis[:, f, pc, :work.shape[-1]] = -work[:, idx, j] % ctx.p
    return Matrix._of(ctx, basis, Poly.one(ctx)).rref()[0]
