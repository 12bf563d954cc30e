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

Valuations are recomputed after every operation, so leading-term
cancellation tightens the window rather than leaving stale bounds.  Series
over a support class c have all exponents congruent to c mod (q - 1); the
class tag is propagated through arithmetic and checked on construction.
A series is integral when every stored coefficient lies in F_q[T].

Products are exact.  A product of two integral series with at least
``_DENSE_MIN_PAIRS`` stored term pairs is computed as one two-dimensional
convolution in u and T (see ``_dense_product``); it uses floating-point
FFTs only when Percival's a-priori error bound certifies that rounding
recovers every integer exactly, and an exact integer convolution
otherwise.  Every other product runs term by term over F_q(T).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MixedField, PrecisionExceeded, ZeroSeries
from .fieldpoly import FqElem, Poly, RatFunc, _convolve_mod

# products with fewer stored term pairs stay on the term-by-term loop,
# which is cheaper than the fixed cost of packing and three small FFTs
_DENSE_MIN_PAIRS = 8


def _as_ratfunc(ctx, v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, Poly):
        return RatFunc(v)
    return RatFunc.constant(ctx, v)


class USeries:
    """Truncated Laurent series with exponent window [val, prec)."""

    __slots__ = ("ctx", "val", "prec", "coeffs", "support_class", "integral")

    def __init__(self, ctx, coeffs, prec, val=None, support_class=None):
        if not isinstance(prec, int):
            raise TypeError("prec must be an integer")
        items = []
        for e, c in coeffs.items():
            c = _as_ratfunc(ctx, c)
            if not c.is_zero():
                items.append((e, c))
        items.sort()
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
        self.ctx = ctx
        self.val = val
        self.prec = prec
        self.coeffs = dict(items)
        self.support_class = support_class
        self.integral = all(c.is_integral() for _, c in items)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, ctx, prec):
        return cls(ctx, {}, prec)

    @classmethod
    def one(cls, ctx, prec, support_class=None):
        return cls(ctx, {0: RatFunc.constant(ctx, 1)}, prec,
                   support_class=support_class)

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
        return list(self.coeffs.items())

    def coeff(self, e):
        """Coefficient at u^e; raises beyond the precision window."""
        if e >= self.prec:
            raise PrecisionExceeded(
                f"coefficient of u^{e} requested, precision is {self.prec}")
        return self.coeffs.get(e) or RatFunc.constant(self.ctx, 0)

    def truncate(self, prec):
        """Forget coefficients at exponents >= prec."""
        if prec > self.prec:
            raise PrecisionExceeded(
                f"cannot extend precision {self.prec} to {prec}")
        if prec == self.prec:
            return self
        kept = {e: c for e, c in self.coeffs.items() if e < prec}
        return USeries(self.ctx, kept, prec,
                       val=min(self.val, prec - 1),
                       support_class=self.support_class)

    def shift(self, k):
        """Multiply by u^k (exact exponent shift)."""
        if k == 0:
            return self
        sc = self.support_class
        if sc is not None:
            sc = (sc + k) % (self.ctx.q - 1)
        return USeries(self.ctx, {e + k: c for e, c in self.coeffs.items()},
                       self.prec + k, val=self.val + k, support_class=sc)

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
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in other.coeffs.items():
            if e >= prec:
                continue
            prev = out.get(e)
            s = c if prev is None else prev + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return USeries(self.ctx, out, prec,
                       val=min(self.val, other.val, prec - 1),
                       support_class=self._merged_class(other))

    def __sub__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return USeries(self.ctx, {e: -c for e, c in self.coeffs.items()},
                       self.prec, val=self.val,
                       support_class=self.support_class)

    def scale(self, s):
        """Multiply every coefficient by a scalar from F_q(T)."""
        s = _as_ratfunc(self.ctx, s)
        if s.is_zero():
            return USeries.zero(self.ctx, self.prec)
        return USeries(self.ctx, {e: c * s for e, c in self.coeffs.items()},
                       self.prec, val=self.val,
                       support_class=self.support_class)

    def __mul__(self, other):
        if isinstance(other, USeries):
            self._check(other)
            prec = min(self._eff_val() + other.prec,
                       other._eff_val() + self.prec)
            fast = self.integral and other.integral
            if fast and (len(self.coeffs) * len(other.coeffs)
                         >= _DENSE_MIN_PAIRS):
                out = _dense_product(self, other, prec)
            else:
                out = self._term_product(other, prec, fast)
            sc = None
            if (self.support_class is not None
                    and other.support_class is not None):
                sc = ((self.support_class + other.support_class)
                      % (self.ctx.q - 1))
            return USeries(self.ctx, out, prec,
                           val=min(self._eff_val() + other._eff_val(),
                                   prec - 1),
                           support_class=sc)
        if isinstance(other, (RatFunc, Poly, FqElem, int)):
            return self.scale(other)
        return NotImplemented

    def _term_product(self, other, prec, fast):
        # coefficients of self*other below prec, one pair of terms at a time
        rhs = other.terms()
        acc = {}
        for e1, c1 in self.coeffs.items():
            n1 = c1.num if fast else c1
            for e2, c2 in rhs:
                e = e1 + e2
                if e >= prec:
                    break
                v = n1 * (c2.num if fast else c2)
                prev = acc.get(e)
                acc[e] = v if prev is None else prev + v
        if not fast:
            return acc
        one = Poly.one(self.ctx)
        return {e: RatFunc._reduced(v, one)
                for e, v in acc.items() if not v.is_zero()}

    def __rmul__(self, other):
        if isinstance(other, (RatFunc, Poly, FqElem, int)):
            return self.scale(other)
        return NotImplemented

    def inverse(self):
        """Multiplicative inverse; the relative precision is preserved."""
        if not self.coeffs:
            raise ZeroSeries("cannot invert a series with no nonzero "
                             "coefficient below its precision")
        v = self.val
        rel = self.prec - v
        a = {e - v: c for e, c in self.coeffs.items()}
        a0 = a.pop(0)
        # unit leading coefficients keep the recurrence in F_q[T]
        fast = (self.integral and a0.num.degree == 0
                and all(c.is_integral() for c in a.values()))
        if fast:
            lead = a0.num.lead
            a0i_el = lead.inverse()
            a_items = sorted((k, c.num) for k, c in a.items())
            b = {0: Poly.constant(self.ctx, a0i_el)}
        else:
            a0i = a0.inverse()
            a_items = sorted(a.items())
            b = {0: a0i}
        if a_items:
            step = 0
            for k, _ in a_items:
                step = math.gcd(step, k)
            for n in range(step, rel, step):
                s = None
                for k, ak in a_items:
                    if k > n:
                        break
                    bk = b.get(n - k)
                    if bk is None:
                        continue
                    t = ak * bk
                    s = t if s is None else s + t
                if s is None or s.is_zero():
                    continue
                if fast:
                    b[n] = -(s._scale(a0i_el))
                else:
                    b[n] = -(a0i * s)
        if fast:
            one = Poly.one(self.ctx)
            out = {e: RatFunc._reduced(c, one) for e, c in b.items()
                   if not c.is_zero()}
        else:
            out = {e: c for e, c in b.items() if not c.is_zero()}
        sc = None
        if self.support_class is not None:
            sc = (-self.support_class) % (self.ctx.q - 1)
        return USeries(self.ctx, {e - v: c for e, c in out.items()},
                       rel - v, val=-v, support_class=sc)

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
        acc = None
        base = self
        while True:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if not n:
                return acc
            base = base * base

    def _frobenius(self):
        # (sum c_e u^e)^p = sum c_e^p u^(pe) in characteristic p, kept on
        # the window p*val + (prec - val) that repeated products give
        p = self.ctx.p
        v = self._eff_val()
        prec = p * v + self.prec - v
        out = {p * e: RatFunc._reduced(c.num._frobenius(), c.den._frobenius())
               for e, c in self.coeffs.items() if p * e < prec}
        sc = self.support_class
        if sc is not None:
            sc = sc * p % (self.ctx.q - 1)
        return USeries(self.ctx, out, prec, support_class=sc)

    # -- substitution u -> u(Tz) ------------------------------------------
    def substitute_Tz(self, out_prec=None):
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
        T = Poly.T(ctx)
        parts = []
        pos = []
        for e, c in self.coeffs.items():
            if e < 0:
                # exact: c * (1 + T u^(q-1))^|e| * u^(qe); the power is a
                # polynomial of degree |e|(q-1) in u, so its window holds it
                pw = USeries(ctx, {0: 1, q - 1: T}, -e * (q - 1) + 1) ** -e
                terms = {q * e + j: cf * c for j, cf in pw.terms()
                         if q * e + j < out_prec}
                parts.append(USeries(ctx, terms, out_prec))
            elif e == 0:
                parts.append(USeries(ctx, {0: c}, out_prec))
            elif q * e < out_prec:
                pos.append((e, c))
        if pos:
            e0 = pos[0][0]
            rel0 = out_prec - q * e0
            base_terms = {0: RatFunc.constant(ctx, 1)}
            if q - 1 < rel0:
                base_terms[q - 1] = RatFunc(T)
            base = USeries(ctx, base_terms, rel0)
            binv = base.inverse()
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
        if self.support_class is not None:
            # q = 1 mod (q-1), so classes are preserved
            acc = USeries(ctx, acc.coeffs, acc.prec, val=acc.val,
                          support_class=self.support_class)
        return acc

    # -- comparison, rendering, serialization ----------------------------
    def agrees_with(self, other, upto=None):
        """Coefficientwise equality on the common window (below ``upto``)."""
        self._check(other)
        bound = min(self.prec, other.prec)
        if upto is not None:
            bound = min(bound, upto)
        exps = set(self.coeffs) | set(other.coeffs)
        for e in exps:
            if e >= bound:
                continue
            if self.coeff(e) != other.coeff(e):
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, USeries) and self.ctx.key == other.ctx.key
                and self.prec == other.prec and self.val == other.val
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.key, self.val, self.prec,
                     tuple(self.coeffs.items())))

    def json_dict(self):
        """Stable serialization: terms sorted by exponent."""
        return {
            "val": self.val,
            "prec": self.prec,
            "terms": [{"exp": e, "coeff": str(c)}
                      for e, c in self.coeffs.items()],
        }

    def __str__(self):
        if not self.coeffs:
            return f"O(u^{self.prec})"
        body = " + ".join(f"({c})*u^{e}" for e, c in self.coeffs.items())
        return f"{body} + O(u^{self.prec})"

    def __repr__(self):
        return f"USeries({self}, q={self.ctx.q})"


def _fft_error(n):
    """Percival's forward error bound for an FFT product of length 2^n, per
    unit of |x|_2 * |y|_2, with twiddle factors accurate to one ulp
    (Math. Comp. 72, 2003)."""
    eps = 2.0 ** -53
    return math.expm1(6 * n * math.log1p(eps)
                      + (3 * n + 1) * math.log1p(eps * math.sqrt(5)))


def _pack(s, rows, stride):
    """Coordinate x u-row x T-degree block of an integral series, row i
    holding the coefficient of u^(val + stride*i) for i < rows, with
    residues centred on zero."""
    ctx = s.ctx
    terms = []
    for e, c in s.coeffs.items():
        i = (e - s.val) // stride
        if i >= rows:
            break
        terms.append((i, c.num.arr))
    block = np.zeros((ctx.r, terms[-1][0] + 1,
                      max(arr.shape[1] for _, arr in terms)), dtype=np.int64)
    for i, arr in terms:
        block[:, i, :arr.shape[1]] = arr
    block[block > ctx.p // 2] -= ctx.p
    return block


def _dense_product(a, b, prec):
    """Coefficients of a*b below prec for nonzero integral a and b with at
    least three stored terms between them, as one two-dimensional
    convolution in u and T.

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
    one = Poly.one(ctx)
    base = a.val + b.val
    return {base + stride * k: RatFunc._reduced(
                Poly(ctx, out[:, k, :lengths[k]].copy()), one)
            for k in np.flatnonzero(nz.any(axis=1)).tolist()}
