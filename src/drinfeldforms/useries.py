"""Truncated Laurent series in the uniformizer u over F_q(T).

A series carries an explicit window [val, prec): coefficients at exponents
below ``val`` are known to vanish, coefficients in the window are stored
exactly, and nothing at all is known from ``prec`` on.  Reading a
coefficient at or beyond ``prec`` raises PrecisionExceeded instead of
returning zero; silent truncation is the dominant failure mode of series
code and is ruled out here by construction.

Precision transfer follows the window semantics exactly:

* add, sub       -> min(prec_f, prec_g)
* mul            -> min(val_f + prec_g, val_g + prec_f)
* inverse        -> the relative precision prec - val is preserved
* substitute_Tz  -> q * prec

The substitution u -> u(Tz) = u^q / (1 + T u^(q-1)) is one map on
coefficients, u^e -> sum_k C(-e, k) T^k u^(qe + (q-1)k), with the binomial
reduced mod p by Lucas' theorem; no series product is involved.

Valuations are recomputed after every operation, so leading-term
cancellation tightens the window rather than leaving stale bounds.  Series
over a support class c have all exponents congruent to c mod (q - 1); the
class tag is propagated through arithmetic and checked on construction.

Representation: a series is (1/den) * sum n_e u^e, with ``coeffs``
mapping each exponent e to its nonzero numerator n_e in F_q[T] and ``den``
one monic polynomial, the whole in lowest terms: gcd(den, n_e for all e)
is 1.  Every kernel (products, inverses, powers, Frobenius, substitution)
therefore runs over F_q[T]; a series is integral exactly when den is 1.
Coefficients are handed out as reduced ``RatFunc`` values n_e / den.

Products are exact.  A product with at least ``_DENSE_MIN_PAIRS`` stored
term pairs is computed on the numerators as one two-dimensional
convolution in u and T (see ``_dense_product``); it uses floating-point
FFTs only when Percival's a-priori error bound certifies that rounding
recovers every integer exactly, and an exact integer convolution
otherwise.  Smaller products run term by term.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MixedField, PrecisionExceeded, ZeroSeries
from .fieldpoly import (FqElem, Poly, RatFunc, _as_ratfunc, _cleared_row,
                        _convolve_mod, _power)

# products with fewer stored term pairs stay on the term-by-term loop,
# which is cheaper than the fixed cost of packing and three small FFTs
_DENSE_MIN_PAIRS = 8


def _times(a, b):
    # product of two polynomials, skipping a factor 1
    return b if a.is_one() else a if b.is_one() else a * b


class USeries:
    """Truncated Laurent series with exponent window [val, prec), stored as
    polynomial numerators over one monic common denominator."""

    __slots__ = ("ctx", "val", "prec", "coeffs", "den", "support_class")

    def __init__(self, ctx, coeffs, prec, val=None, support_class=None):
        values = [_as_ratfunc(ctx, c) for c in coeffs.values()]
        nums, den = _cleared_row(ctx, values)
        self._setup(ctx, dict(zip(coeffs, nums)), den, prec, val,
                    support_class)

    @classmethod
    def _of(cls, ctx, nums, den, prec, val=None, support_class=None):
        """The series (1/den) * sum nums[e] u^e from polynomial numerators;
        the internal constructor."""
        self = object.__new__(cls)
        self._setup(ctx, nums, den, prec, val, support_class)
        return self

    def _setup(self, ctx, nums, den, prec, val, support_class):
        if not isinstance(prec, int):
            raise TypeError("prec must be an integer")
        items = sorted((e, n) for e, n in nums.items() if not n.is_zero())
        if items:
            lo = items[0][0]
            hi = items[-1][0]
            if hi >= prec:
                raise ValueError(f"coefficient at u^{hi} outside prec {prec}")
            if val is not None and lo < val:
                raise ValueError(f"coefficient at u^{lo} below val {val}")
            val = lo
        else:
            if val is None:
                val = prec - 1
            val = min(val, prec - 1)
            den = Poly.one(ctx)
        if prec <= val:
            raise ValueError(f"empty window: val {val}, prec {prec}")
        if support_class is not None:
            m = ctx.q - 1
            support_class %= m
            for e, _ in items:
                if e % m != support_class:
                    raise ValueError(
                        f"exponent {e} escapes support class "
                        f"{support_class} mod {m}")
        if not den.is_one():
            # lowest terms with a monic denominator: a product, sum or
            # truncation can leave a factor common to den and every numerator
            g = den
            for _, n in items:
                if g.degree < 1:
                    break
                g = g.gcd(n)
            if g.degree > 0:
                den = den // g
                items = [(e, n // g) for e, n in items]
            if not den.lead.is_one():
                inv = den.lead.inverse()
                den = den._scale(inv)
                items = [(e, n._scale(inv)) for e, n in items]
        self.ctx = ctx
        self.val = val
        self.prec = prec
        self.coeffs = dict(items)
        self.den = den
        self.support_class = support_class

    @property
    def integral(self):
        """True when every coefficient lies in F_q[T]."""
        return bool(self.den.is_one())

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, ctx, prec):
        return cls._of(ctx, {}, Poly.one(ctx), prec)

    @classmethod
    def one(cls, ctx, prec, support_class=None):
        one = Poly.one(ctx)
        return cls._of(ctx, {0: one}, one, prec, support_class=support_class)

    @classmethod
    def monomial(cls, ctx, coeff, exp, prec, support_class=None):
        return cls(ctx, {exp: coeff}, prec, support_class=support_class)

    # -- bookkeeping ----------------------------------------------------
    def _check(self, other):
        if self.ctx.key != other.ctx.key:
            raise MixedField("series over different fields")

    def _eff_val(self):
        # tight valuation bound: prec itself for a window of zeros
        return self.val if self.coeffs else self.prec

    def is_zero(self):
        return not self.coeffs

    def terms(self):
        """Stored (exponent, coefficient) pairs, exponents ascending."""
        return [(e, RatFunc(n, self.den)) for e, n in self.coeffs.items()]

    def coeff(self, e):
        """Coefficient at u^e; raises beyond the precision window."""
        if e >= self.prec:
            raise PrecisionExceeded(
                f"coefficient of u^{e} requested, precision is {self.prec}")
        return RatFunc(self.coeffs.get(e) or Poly.zero(self.ctx), self.den)

    def truncate(self, prec):
        """Forget coefficients at exponents >= prec."""
        if prec > self.prec:
            raise PrecisionExceeded(
                f"cannot extend precision {self.prec} to {prec}")
        if prec == self.prec:
            return self
        kept = {e: n for e, n in self.coeffs.items() if e < prec}
        return USeries._of(self.ctx, kept, self.den, prec,
                           val=min(self.val, prec - 1),
                           support_class=self.support_class)

    def shift(self, k):
        """Multiply by u^k (exact exponent shift)."""
        if k == 0:
            return self
        sc = self.support_class
        if sc is not None:
            sc = (sc + k) % (self.ctx.q - 1)
        return USeries._of(self.ctx,
                           {e + k: n for e, n in self.coeffs.items()},
                           self.den, self.prec + k, val=self.val + k,
                           support_class=sc)

    # -- ring operations -------------------------------------------------
    def _merged_class(self, other):
        if self.is_zero():
            return other.support_class
        if other.is_zero():
            return self.support_class
        if self.support_class is None or other.support_class is None:
            return None
        return (self.support_class if self.support_class ==
                other.support_class else None)

    def __add__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        a, b, den = self.coeffs, other.coeffs, self.den
        if den != other.den:
            # over the product of the denominators; the constructor
            # cancels what they share
            a = {e: _times(n, other.den) for e, n in a.items()}
            b = {e: _times(n, self.den) for e, n in b.items()}
            den = _times(den, other.den)
        out = {e: n for e, n in a.items() if e < prec}
        for e, n in b.items():
            if e >= prec:
                continue
            prev = out.get(e)
            out[e] = n if prev is None else prev + n
        return USeries._of(self.ctx, out, den, prec,
                           val=min(self.val, other.val, prec - 1),
                           support_class=self._merged_class(other))

    def __sub__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return USeries._of(self.ctx, {e: -n for e, n in self.coeffs.items()},
                           self.den, self.prec, val=self.val,
                           support_class=self.support_class)

    def scale(self, s):
        """Multiply every coefficient by a scalar from F_q(T)."""
        s = _as_ratfunc(self.ctx, s)
        if s.is_zero():
            return USeries.zero(self.ctx, self.prec)
        nums = self.coeffs
        if not s.num.is_one():
            nums = {e: n * s.num for e, n in nums.items()}
        return USeries._of(self.ctx, nums, _times(self.den, s.den),
                           self.prec, val=self.val,
                           support_class=self.support_class)

    def __mul__(self, other):
        if isinstance(other, USeries):
            self._check(other)
            prec = min(self._eff_val() + other.prec,
                       other._eff_val() + self.prec)
            if len(self.coeffs) * len(other.coeffs) >= _DENSE_MIN_PAIRS:
                out = _dense_product(self, other, prec)
            else:
                out = self._term_product(other, prec)
            sc = None
            if (self.support_class is not None
                    and other.support_class is not None):
                sc = ((self.support_class + other.support_class)
                      % (self.ctx.q - 1))
            return USeries._of(self.ctx, out, _times(self.den, other.den),
                               prec,
                               val=min(self._eff_val() + other._eff_val(),
                                       prec - 1),
                               support_class=sc)
        if isinstance(other, (RatFunc, Poly, FqElem, int)):
            return self.scale(other)
        return NotImplemented

    def _term_product(self, other, prec):
        # numerators of self*other below prec, one pair of terms at a time
        rhs = list(other.coeffs.items())
        acc = {}
        for e1, n1 in self.coeffs.items():
            for e2, n2 in rhs:
                e = e1 + e2
                if e >= prec:
                    break
                v = n1 * n2
                prev = acc.get(e)
                acc[e] = v if prev is None else prev + v
        return acc

    def __rmul__(self, other):
        if isinstance(other, (RatFunc, Poly, FqElem, int)):
            return self.scale(other)
        return NotImplemented

    def inverse(self):
        """Multiplicative inverse; the relative precision is preserved.

        With a_m the numerator m steps above the valuation and c = a_0, the
        fraction-free recurrence B_0 = 1, B_j = -sum_m a_m c^(m-1) B_(j-m)
        gives den * B_j / c^(j+1) at j steps above -val.
        """
        if not self.coeffs:
            raise ZeroSeries("cannot invert a series with no nonzero "
                             "coefficient below its precision")
        ctx = self.ctx
        v = self.val
        rel = self.prec - v
        one = Poly.one(ctx)
        (_, c), *a = [(e - v, n) for e, n in self.coeffs.items()]
        if not c.is_one():
            # c^0 .. c^rel, each built once; a_m becomes a_m c^(m-1)
            cpow = [one]
            for _ in range(rel):
                cpow.append(cpow[-1] * c)
            a = [(k, ak * cpow[k - 1]) for k, ak in a]
        a = [(k, -ak) for k, ak in a]  # so each B_j below is a plain sum
        b = {0: one}
        if a:
            step = math.gcd(*[k for k, _ in a])
            for n in range(step, rel, step):
                s = None
                for k, ak in a:
                    if k > n:
                        break
                    bk = b.get(n - k)
                    if bk is None:
                        continue
                    t = ak * bk
                    s = t if s is None else s + t
                if s is not None and not s.is_zero():
                    b[n] = s
        # over the common denominator c^(top+1) the numerator of
        # coefficient n is den * B_n * c^(top-n); the constructor takes
        # it to lowest terms and makes the denominator monic
        den = one
        if not c.is_one():
            top = max(b)
            b = {n: bn * cpow[top - n] for n, bn in b.items()}
            den = cpow[top + 1]
        b = {n - v: _times(self.den, bn) for n, bn in b.items()}
        sc = None
        if self.support_class is not None:
            sc = (-self.support_class) % (ctx.q - 1)
        return USeries._of(ctx, b, den, rel - v, val=-v, support_class=sc)

    def __pow__(self, n):
        """Integer power: p-th powers by Frobenius, the rest by binary
        powering; negative powers invert first."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            rel = max(self.prec - self._eff_val(), 1)
            sc = 0 if self.support_class is not None else None
            return USeries.one(self.ctx, rel, support_class=sc)
        if n % self.ctx.p == 0:
            return self._frobenius() ** (n // self.ctx.p)
        return _power(self, n, None)  # n >= 1, so x^0 is never needed

    def _frobenius(self):
        # (sum c_e u^e)^p = sum c_e^p u^(pe) in characteristic p, kept on
        # the window p*val + (prec - val) that repeated products give
        p = self.ctx.p
        v = self._eff_val()
        prec = p * v + self.prec - v
        out = {p * e: n._frobenius()
               for e, n in self.coeffs.items() if p * e < prec}
        sc = self.support_class
        if sc is not None:
            sc = sc * p % (self.ctx.q - 1)
        return USeries._of(self.ctx, out, self.den._frobenius(), prec,
                           support_class=sc)

    # -- substitution u -> u(Tz) ------------------------------------------
    def substitute_Tz(self, out_prec=None):
        """Pull back the expansion along z -> Tz.

        Since u(Tz) = u^q / (1 + T u^(q-1)), each term maps by
        u^e -> sum_k C(-e, k) T^k u^(qe + (q-1)k), a finite sum when
        e <= 0.  The output window is q * prec, or a caller-supplied
        smaller one.
        """
        ctx = self.ctx
        p, q = ctx.p, ctx.q
        full = q * self.prec
        if out_prec is None:
            out_prec = full
        elif out_prec > full:
            raise PrecisionExceeded(
                f"substitution from precision {self.prec} only supports "
                f"output precision {full}")
        if not self.coeffs:
            return USeries.zero(ctx, out_prec)
        rows = {}
        for e, n in self.coeffs.items():
            stop = -(-(out_prec - q * e) // (q - 1))
            if e <= 0:
                stop = min(stop, 1 - e)
            for k in range(stop):
                c = _binom_mod(-e, k, p)
                if c:
                    rows.setdefault(q * e + (q - 1) * k, []).append(
                        (k, c, n.arr))
        # each output numerator is summed in one int64 block, reduced mod p
        # after every term so that the products c * n stay below p^2
        nums = {}
        for m, parts in rows.items():
            block = np.zeros(
                (ctx.r, max(k + a.shape[1] for k, _, a in parts)),
                dtype=np.int64)
            for k, c, a in parts:
                window = block[:, k:k + a.shape[1]]
                window += c * a
                window %= p
            nums[m] = Poly(ctx, block)
        # qe + (q-1)k = e mod (q-1), so classes are preserved
        return USeries._of(ctx, nums, self.den, out_prec,
                           support_class=self.support_class)

    # -- comparison, rendering, serialization ----------------------------
    def agrees_with(self, other, upto=None):
        """Coefficientwise equality on the common window (below ``upto``)."""
        self._check(other)
        bound = min(self.prec, other.prec)
        if upto is not None:
            bound = min(bound, upto)
        return (self - other).truncate(bound).is_zero()

    def __eq__(self, other):
        return (isinstance(other, USeries) and self.ctx.key == other.ctx.key
                and self.prec == other.prec and self.val == other.val
                and self.den == other.den and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.key, self.val, self.prec, self.den,
                     tuple(self.coeffs.items())))

    def json_dict(self):
        """Stable serialization: terms sorted by exponent."""
        return {
            "val": self.val,
            "prec": self.prec,
            "terms": [{"exp": e, "coeff": str(c)} for e, c in self.terms()],
        }

    def __str__(self):
        if not self.coeffs:
            return f"O(u^{self.prec})"
        body = " + ".join(f"({c})*u^{e}" for e, c in self.terms())
        return f"{body} + O(u^{self.prec})"

    def __repr__(self):
        return f"USeries({self}, q={self.ctx.q})"


def _binom_mod(n, k, p):
    """C(n, k) mod p for an integer n of either sign and k >= 0, by Lucas'
    theorem on the p-adic digits of n, which floor division produces; this
    holds for n < 0 because C(n, k) mod p depends only on n mod p^L once
    p^L > k."""
    out = 1
    while k:
        n, a = divmod(n, p)
        k, b = divmod(k, p)
        if b > a:
            return 0
        out = out * math.comb(a, b) % p
    return out


def _fft_error(n):
    """Percival's forward error bound for an FFT product of length 2^n, per
    unit of |x|_2 * |y|_2, with twiddle factors accurate to one ulp
    (Math. Comp. 72, 2003)."""
    eps = 2.0 ** -53
    return math.expm1(6 * n * math.log1p(eps)
                      + (3 * n + 1) * math.log1p(eps * math.sqrt(5)))


def _pack(s, rows, stride):
    """Coordinate x u-row x T-degree block of the numerators of a series,
    row i holding the numerator of u^(val + stride*i) for i < rows, with
    residues centred on zero."""
    ctx = s.ctx
    terms = []
    for e, c in s.coeffs.items():
        i = (e - s.val) // stride
        if i >= rows:
            break
        terms.append((i, c.arr))
    block = np.zeros((ctx.r, terms[-1][0] + 1,
                      max(arr.shape[1] for _, arr in terms)), dtype=np.int64)
    for i, arr in terms:
        block[:, i, :arr.shape[1]] = arr
    block[block > ctx.p // 2] -= ctx.p
    return block


def _dense_product(a, b, prec):
    """Numerators of a*b below prec for nonzero a and b with at least
    three stored terms between them, as one two-dimensional convolution
    in u and T.

    The u-axis is compressed by the gcd of all exponent differences, which
    is a multiple of q - 1 for series in a support class.  A real FFT is
    used when ``|A|_2 |B|_2 r err(log2 N + 1) < 1/4`` certifies that every
    rounded entry is exact (the extra stage covers the real-to-complex
    split); otherwise each coordinate plane is flattened with a T-stride
    and multiplied by the exact 1-D convolution of ``fieldpoly``.
    """
    ctx = a.ctx
    p, r = ctx.p, ctx.r
    stride = 0
    for s in (a, b):
        for e in s.coeffs:
            stride = math.gcd(stride, e - s.val)
    rows = -(-(prec - a.val - b.val) // stride)
    A = _pack(a, rows, stride)
    B = A if b is a else _pack(b, rows, stride)
    (na, da), (nb, db) = A.shape[1:], B.shape[1:]
    m = min(rows, na + nb - 1)
    width = da + db - 1
    n1 = 1 << (na + nb - 2).bit_length()
    n2 = 1 << (width - 1).bit_length()
    fa = A.astype(np.float64)
    fb = fa if B is A else B.astype(np.float64)
    # (n1 * n2).bit_length() is log2 N + 1
    if (math.sqrt(np.vdot(fa, fa) * np.vdot(fb, fb)) * r
            * _fft_error((n1 * n2).bit_length()) < 0.25):
        fa = np.fft.rfft2(fa, (n1, n2))
        fb = fa if B is A else np.fft.rfft2(fb, (n1, n2))
        planes = np.zeros((2 * r - 1,) + fa.shape[1:], dtype=np.complex128)
        for i in range(r):
            for j in range(r):
                planes[i + j] += fa[i] * fb[j]
        prod = np.fft.irfft2(planes, (n1, n2))[:, :m, :width]
        acc = np.rint(prod).astype(np.int64)
    else:
        acc = np.zeros((2 * r - 1, m, width), dtype=np.int64)

        def flat(block, i):
            plane = np.zeros((block.shape[1], width), dtype=np.int64)
            plane[:, :block.shape[2]] = block[i]
            return plane.ravel()[:(block.shape[1] - 1) * width
                                 + block.shape[2]]
        for i in range(r):
            for j in range(r):
                c = _convolve_mod(flat(A, i), flat(B, j), p)
                acc[i + j] += c[:m * width].reshape(m, width)
    out = ctx._fold(acc)
    nz = out.any(axis=0)
    lengths = (width - np.argmax(nz[:, ::-1], axis=1)).tolist()
    base = a.val + b.val
    return {base + stride * k: Poly(ctx, out[:, k, :lengths[k]].copy())
            for k in np.flatnonzero(nz.any(axis=1)).tolist()}
