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
* theta          -> prec + 1 (and val + 1)

The substitution u -> u(Tz) = u^q / (1 + T u^(q-1)) is one map on
coefficients, u^e -> sum_k C(-e, k) T^k u^(qe + (q-1)k), with the binomial
reduced mod p by Lucas' theorem; no series product is involved.

Valuations are recomputed after every operation, so leading-term
cancellation tightens the window rather than leaving stale bounds.  A form
of type l has all its exponents congruent to l mod (q - 1); a series reads
this support class from its exponents, and no kernel computes it.

Representation: a series is (1/den) * sum n_e u^e with ``den`` one monic
polynomial and the numerators n_e in F_q[T], in lowest terms: gcd(den, n_e
for all e) is 1; it is integral exactly when den is 1.  The nonzero
numerators form one read-only int64 ``block``, coordinate x row x power of
T, row i holding the numerator of u^exps[i] for an ascending int64 vector
``exps``.  The block is canonical: entries lie in [0, p), every row and
the last T-column are nonzero, and the zero series has an empty block.
Rows carry their exponents because a substitution over a large field
spreads a few terms over about q * (prec - val) exponents.  Every kernel
works on blocks; ``Poly`` and ``RatFunc`` objects are built only when a
coefficient is read and when a denominator is reduced.

Products are exact: each is one two-dimensional convolution in u and T of
the two blocks laid out on the gcd of their exponent differences (see
``_dense_product``), by floating-point FFTs only when Percival's a-priori
error bound certifies that rounding recovers every integer exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MixedField, PrecisionExceeded, ZeroSeries
from .fieldpoly import (FqElem, Matrix, Poly, RatFunc, _as_ratfunc,
                        _cleared_row, _convolve_mod, _frobenius_array,
                        _lowest_terms, _padded, _poly_product, _power,
                        _spread, _stacked, _times_coords, _trimmed)


def _times(a, b):
    # product of two polynomials, skipping a factor 1
    return b if a.is_one() else a if b.is_one() else a * b


def _gcd(exps):
    # gcd of the differences of an ascending exponent vector; 0 for one row
    return math.gcd(*(exps - exps[:1]).tolist())


class USeries:
    """Truncated Laurent series with exponent window [val, prec), stored as
    one block of polynomial numerators over a monic common denominator."""

    __slots__ = ("ctx", "val", "prec", "den", "exps", "block")

    def __init__(self, ctx, coeffs, prec, val=None, support_class=None):
        """The series sum coeffs[e] u^e below prec, in a given class."""
        if not isinstance(prec, int):
            raise TypeError("prec must be an integer")
        nums, den = _cleared_row(
            ctx, [_as_ratfunc(ctx, c) for c in coeffs.values()])
        items = sorted((e, n.arr) for e, n in zip(coeffs, nums)
                       if not n.is_zero())
        exps = np.array([e for e, _ in items], dtype=np.int64)
        if items and items[-1][0] >= prec:
            raise ValueError(
                f"coefficient at u^{items[-1][0]} outside prec {prec}")
        if items and val is not None and items[0][0] < val:
            raise ValueError(f"coefficient at u^{items[0][0]} below val {val}")
        # the zero series gets its empty block from _setup
        block = _stacked([a for _, a in items]) if items else None
        self._setup(ctx, exps, block, den, prec if val is None else val,
                    prec, sums=False)
        if items and support_class is not None and (
                self.support_class != support_class % (ctx.q - 1)):
            raise ValueError("exponents escape support class "
                             f"{support_class} mod {ctx.q - 1}")

    @classmethod
    def _make(cls, ctx, exps, block, den, low, prec, sums=True):
        """The series with numerator block[:, i] at u^exps[i] over den,
        entries in [0, p), cut below prec; a zero result has valuation
        min(low, prec - 1).  ``sums`` is False when no row can be zero."""
        self = object.__new__(cls)
        self._setup(ctx, exps, block, den, low, prec, sums)
        return self

    def _setup(self, ctx, exps, block, den, low, prec, sums=True):
        # the canonical form: zero rows and T-columns dropped, lowest terms
        # and a monic denominator
        if exps.size and exps[-1] >= prec:
            cut = int(np.searchsorted(exps, prec))
            exps, block = exps[:cut], block[:, :cut]
        if sums:
            keep = block.any(axis=(0, 2))
            if not keep.all():
                exps, block = exps[keep], block[:, keep]
        one = Poly.one(ctx)
        if den is not one and den.is_one():
            den = one
        if exps.size:
            block = _trimmed(block)
            if den is not one:
                block, den = _lowest_terms(ctx, block, den)
            low = int(exps[0])
        else:
            block = np.zeros((ctx.r, 0, 0), dtype=np.int64)
            den = one
            low = min(low, prec - 1)
        exps.setflags(write=False)
        block.setflags(write=False)
        self.ctx = ctx
        self.val = low
        self.prec = prec
        self.den = den
        self.exps = exps
        self.block = block

    @property
    def integral(self):
        """True when every coefficient lies in F_q[T]."""
        return bool(self.den.is_one())

    @property
    def support_class(self):
        """The residue mod q - 1 shared by every stored exponent; None when
        they fall in several classes or the series is zero."""
        if not self.exps.size or _gcd(self.exps) % (self.ctx.q - 1):
            return None
        return int(self.exps[0]) % (self.ctx.q - 1)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, ctx, prec):
        return cls._make(ctx, np.zeros(0, dtype=np.int64), None,
                         Poly.one(ctx), prec, prec, sums=False)

    @classmethod
    def one(cls, ctx, prec):
        if prec < 1:
            raise ValueError(f"coefficient at u^0 outside prec {prec}")
        one = Poly.one(ctx)
        return cls._make(ctx, np.zeros(1, dtype=np.int64), one.arr[:, None],
                         one, 0, prec, sums=False)

    @classmethod
    def monomial(cls, ctx, coeff, exp, prec):
        return cls(ctx, {exp: coeff}, prec)

    # -- bookkeeping and reading ------------------------------------------
    def _check(self, other):
        if self.ctx.key != other.ctx.key:
            raise MixedField("series over different fields")

    def _eff_val(self):
        # tight valuation bound: prec itself for a window of zeros
        return self.prec if self.is_zero() else self.val

    def is_zero(self):
        return not self.exps.size

    @property
    def coeffs(self):
        """The stored numerators as a new {exponent: Poly} dict, exponents
        ascending; for reading only, the kernels work on ``block``."""
        return {e: Poly(self.ctx, self.block[:, i])
                for i, e in enumerate(self.exps.tolist())}

    def terms(self):
        """Stored (exponent, coefficient) pairs, exponents ascending."""
        return [(e, RatFunc(n, self.den)) for e, n in self.coeffs.items()]

    def coeff(self, e):
        """Coefficient at u^e; raises beyond the precision window."""
        if e >= self.prec:
            raise PrecisionExceeded(
                f"coefficient of u^{e} requested, precision is {self.prec}")
        i = int(np.searchsorted(self.exps, e))
        if i < self.exps.size and self.exps[i] == e:
            return RatFunc(Poly(self.ctx, self.block[:, i]), self.den)
        return RatFunc(Poly.zero(self.ctx), self.den)

    def truncate(self, prec):
        """Forget coefficients at exponents >= prec."""
        if prec > self.prec:
            raise PrecisionExceeded(
                f"cannot extend precision {self.prec} to {prec}")
        if prec == self.prec:
            return self
        return USeries._make(self.ctx, self.exps, self.block, self.den,
                             self.val, prec, sums=False)

    def shift(self, k):
        """Multiply by u^k (exact exponent shift)."""
        if k == 0:
            return self
        return USeries._make(self.ctx, self.exps + k, self.block, self.den,
                             self.val + k, self.prec + k, sums=False)

    # -- ring operations -------------------------------------------------
    def _combine(self, other, sign):
        # self + sign * other as one signed sum of the two blocks
        if not isinstance(other, USeries):
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        prec = min(self.prec, other.prec)
        same = self.den is other.den or self.den == other.den
        parts = []
        for t, s, d in ((1, self, other.den), (sign, other, self.den)):
            e, b = s.exps, s.block
            if e.size and e[-1] >= prec:
                cut = int(np.searchsorted(e, prec))
                e, b = e[:cut], b[:, :cut]
            if e.size and not (same or d.is_one()):
                # over the product of the denominators; the constructor
                # cancels what they share
                b = _dense_product(ctx, b, d.arr[:, None, :], e.size)
            parts.append((t, e, b))
        (_, e1, _), (_, e2, _) = parts
        exps = e2 if not e1.size else e1 if not e2.size else np.union1d(e1, e2)
        out = np.zeros((ctx.r, exps.size,
                        max(b.shape[2] for _, _, b in parts)), dtype=np.int64)
        for t, e, b in parts:
            if e.size:
                # a run of consecutive rows is written as one slice
                i = int(np.searchsorted(exps, e[0]))
                at = (slice(i, i + e.size) if exps[i + e.size - 1] == e[-1]
                      else np.searchsorted(exps, e))
                if t > 0:
                    out[:, at, :b.shape[2]] += b
                else:
                    out[:, at, :b.shape[2]] -= b
        return USeries._make(ctx, exps, out % ctx.p,
                             self.den if same else _times(self.den, other.den),
                             min(self.val, other.val), prec)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return USeries._make(self.ctx, self.exps, -self.block % self.ctx.p,
                             self.den, self.val, self.prec, sums=False)

    def scale(self, s):
        """Multiply every coefficient by a scalar from F_q(T)."""
        s = _as_ratfunc(self.ctx, s)
        if s.is_zero():
            return USeries.zero(self.ctx, self.prec)
        block = self.block
        if not (s.num.is_one() or self.is_zero()):
            # a constant numerator needs no convolution
            block = (_times_coords(self.ctx, s.num.arr[:, 0], block)
                     if s.num.degree == 0 else
                     _dense_product(self.ctx, block, s.num.arr[:, None, :],
                                    block.shape[1]))
        return USeries._make(self.ctx, self.exps, block,
                             _times(self.den, s.den), self.val, self.prec,
                             sums=False)

    def _grid(self, step, rows):
        """The rows of the block below ``rows`` laid out on the exponents
        val + step*i, zero rows filled in."""
        at = (self.exps - self.val) // step
        n = int(np.searchsorted(at, rows))
        if at[n - 1] == n - 1:
            return self.block[:, :n]
        out = np.zeros((self.ctx.r, int(at[n - 1]) + 1, self.block.shape[2]),
                       dtype=np.int64)
        out[:, at[:n]] = self.block[:, :n]
        return out

    def __mul__(self, other):
        if isinstance(other, USeries):
            self._check(other)
            ctx = self.ctx
            prec = min(self._eff_val() + other.prec,
                       other._eff_val() + self.prec)
            base = self._eff_val() + other._eff_val()
            exps, block = self.exps[:0], self.block[:, :0]
            # the u-axis is compressed by the gcd of all exponent
            # differences, a multiple of q - 1 in a support class
            step = math.gcd(_gcd(self.exps), _gcd(other.exps)) or 1
            rows = -(-(prec - base) // step)
            if rows > 0 and not (self.is_zero() or other.is_zero()):
                a = self._grid(step, rows)
                b = a if other is self else other._grid(step, rows)
                block = _dense_product(ctx, a, b, rows)
                exps = base + step * np.arange(block.shape[1])
            return USeries._make(ctx, exps, block,
                                 _times(self.den, other.den), base, prec)
        if isinstance(other, (RatFunc, Poly, FqElem, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (RatFunc, Poly, FqElem, int)):
            return self.scale(other)
        return NotImplemented

    def inverse(self):
        """Multiplicative inverse; the relative precision is preserved.

        With g the gcd of the exponent differences, a_m the numerator m*g
        above the valuation and c = a_0, the fraction-free recurrence
        B_0 = 1, B_j = -sum_m a_m c^(m-1) B_(j-m) gives den * B_j / c^(j+1)
        at j*g above -val.
        """
        if self.is_zero():
            raise ZeroSeries("cannot invert a series with no nonzero "
                             "coefficient below its precision")
        ctx = self.ctx
        p = ctx.p
        v = self.val
        rel = self.prec - v
        gap = _gcd(self.exps) or rel
        rows = -(-rel // gap)
        nz = self.block.any(axis=0)
        ends = (nz.shape[1] - np.argmax(nz[:, ::-1], axis=1)).tolist()
        c, *a = [self.block[:, i, :n] for i, n in enumerate(ends)]
        a = list(zip(((self.exps[1:] - v) // gap).tolist(), a))
        one = Poly.one(ctx).arr
        unit = np.array_equal(c, one)
        cpow = [one]  # c^0 .. c^rows, each built once
        if not unit:
            for _ in range(rows):
                cpow.append(_poly_product(ctx, cpow[-1], c))
            a = [(k, _poly_product(ctx, ak, cpow[k - 1])) for k, ak in a]
        a = [(k, -ak % p) for k, ak in a]  # so each B_j below is a plain sum
        b = {0: one}
        for n in range(1, rows):
            terms = [ak if k == n else _poly_product(ctx, ak, b[n - k])
                     for k, ak in a if k <= n and n - k in b]
            if len(terms) == 1:
                b[n] = terms[0]  # a nonzero product of trimmed arrays
            elif terms:
                acc = np.zeros((ctx.r, max(t.shape[1] for t in terms)),
                               dtype=np.int64)
                for t in terms:
                    acc[:, :t.shape[1]] += t
                acc = _trimmed(acc % p)
                if acc.shape[1]:
                    b[n] = acc
        # over the common denominator c^(top+1) the numerator at row n is
        # den * B_n * c^(top-n); the constructor takes it to lowest terms
        # and makes the denominator monic
        top = max(b)
        b = {n: _poly_product(ctx, bn, cpow[top - n]) if not unit else bn
             for n, bn in b.items()}
        if not self.den.is_one():
            b = {n: _poly_product(ctx, self.den.arr, bn)
                 for n, bn in b.items()}
        return USeries._make(ctx, -v + gap * np.array(list(b)),
                             _stacked(list(b.values())),
                             Poly(ctx, cpow[top + 1]) if not unit
                             else Poly.one(ctx), -v, rel - v, sums=False)

    def __pow__(self, n):
        """Integer power: p-th powers by Frobenius, the rest by binary
        powering; negative powers invert first."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return USeries.one(self.ctx, max(self.prec - self._eff_val(), 1))
        if n % self.ctx.p == 0:
            return self._frobenius() ** (n // self.ctx.p)
        return _power(self, n, None)  # n >= 1, so x^0 is never needed

    def _frobenius(self):
        # (sum c_e u^e)^p = sum c_e^p u^(pe) in characteristic p, kept on
        # the window p*val + (prec - val) that repeated products give
        ctx = self.ctx
        p = ctx.p
        v = self._eff_val()
        return USeries._make(ctx, p * self.exps,
                             _frobenius_array(ctx, self.block),
                             self.den._frobenius(), p * v,
                             p * v + self.prec - v, sums=False)

    def _qth_power(self):
        """The q-th power on the window [q val, q prec): in characteristic
        p, (f + O(u^prec))^q = f^q + O(u^(q prec)), and a^q = a on F_q, so
        a T^j u^e goes to a T^(qj) u^(qe).  ``_frobenius`` keeps the
        narrower window of repeated products, which ``__pow__`` gives."""
        q = self.ctx.q
        return USeries._make(self.ctx, q * self.exps,
                             _spread(self.block, q),
                             Poly(self.ctx, _spread(self.den.arr, q)),
                             q * self.val, q * self.prec, sums=False)

    def theta(self):
        """Theta = -u^2 d/du, exact in characteristic p: sum c_e u^e maps to
        sum -e c_e u^(e+1), so terms with p | e vanish."""
        ctx = self.ctx
        block = self.block * (-self.exps % ctx.p)[None, :, None] % ctx.p
        return USeries._make(ctx, self.exps + 1, block, self.den,
                             self.val + 1, self.prec + 1)

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
        if self.is_zero():
            return USeries.zero(ctx, out_prec)
        # (input row, k, C(-e, k) mod p) for every term below out_prec
        terms = []
        for i, e in enumerate(self.exps.tolist()):
            stop = -(-(out_prec - q * e) // (q - 1))
            if e <= 0:
                stop = min(stop, 1 - e)
            terms += [(i, k, c) for k in range(stop)
                      if (c := _binom_mod(-e, k, p))]
        exps, out = self.exps[:0], self.block[:, :0]
        if terms:
            i, k, c = np.array(terms, dtype=np.int64).T
            exps, row = np.unique(q * self.exps[i] + (q - 1) * k,
                                  return_inverse=True)
            width = self.block.shape[2]
            out = np.zeros((ctx.r, exps.size, int(k.max()) + width),
                           dtype=np.int64)
            # each term is reduced below p first, so that the sum over the
            # input rows stays exact
            np.add.at(out, (slice(None), row[:, None],
                            k[:, None] + np.arange(width)),
                      c[None, :, None] * self.block[:, i] % p)
            out %= p
        return USeries._make(ctx, exps, out, self.den, q * self.val,
                             out_prec)

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
                and self.den == other.den
                and np.array_equal(self.exps, other.exps)
                and np.array_equal(self.block, other.block))

    def __hash__(self):
        return hash((self.ctx.key, self.val, self.prec, self.den,
                     self.exps.tobytes(), self.block.shape,
                     self.block.tobytes()))

    def rendered_terms(self):
        """Stored (exponent, coefficient string) pairs, exponents
        ascending, rendered from the block as the one column of a matrix
        over den, so that each coefficient is in lowest terms."""
        column = Matrix._of(self.ctx, self.block[:, :, None], self.den)
        return [(e, s) for e, (s,) in zip(self.exps.tolist(),
                                          column.rendered())]

    def json_dict(self):
        """Stable serialization: terms sorted by exponent."""
        return {
            "val": self.val,
            "prec": self.prec,
            "terms": [{"exp": e, "coeff": c}
                      for e, c in self.rendered_terms()],
        }

    def __str__(self):
        if self.is_zero():
            return f"O(u^{self.prec})"
        body = " + ".join(f"({c})*u^{e}" for e, c in self.rendered_terms())
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


# direct convolutions below this many products beat the fixed cost of
# three small FFTs (about 0.1 ms with numpy 2.4)
_DIRECT_MAX = 1 << 17


def _fft_error(n):
    """Percival's forward error bound for an FFT product of length 2^n, per
    unit of |x|_2 * |y|_2, with twiddle factors accurate to one ulp
    (Math. Comp. 72, 2003)."""
    eps = 2.0 ** -53
    return math.expm1(6 * n * math.log1p(eps)
                      + (3 * n + 1) * math.log1p(eps * math.sqrt(5)))


def _dense_product(ctx, A, B, rows):
    """The first ``rows`` rows of the product of two nonzero numerator
    blocks whose rows lie on one exponent step, as one two-dimensional
    convolution in u and T.

    Each coordinate plane, flattened with a T-stride, has about
    rows*width entries.  When a direct convolution of two such planes
    costs at least ``_DIRECT_MAX`` products, residues are centred on zero
    and a real FFT is used if ``|A|_2 |B|_2 r err(log2 N + 1) < 1/4``
    certifies that every rounded entry is exact (the extra stage covers
    the real-to-complex split).  Otherwise the flattened planes are
    multiplied by the exact 1-D convolution of ``fieldpoly``, each plane of
    the factor with fewer rows against all the planes of the other laid
    end to end.  Either way ``FieldCtx._plane_product`` combines the
    planes and ``FieldCtx._fold`` reduces them.
    """
    p, r = ctx.p, ctx.r
    square = B is A  # tested before slicing makes A a new view
    A = A[:, :rows]
    B = A if square else B[:, :rows]
    (na, da), (nb, db) = A.shape[1:], B.shape[1:]
    m = min(rows, na + nb - 1)
    width = da + db - 1
    if r * na * nb * width * width >= _DIRECT_MAX:
        n1 = 1 << (na + nb - 2).bit_length()
        n2 = 1 << (width - 1).bit_length()
        fa = np.where(A > p // 2, A - p, A).astype(np.float64)
        fb = fa if B is A else np.where(B > p // 2, B - p,
                                        B).astype(np.float64)
        # (n1 * n2).bit_length() is log2 N + 1
        if (math.sqrt(np.vdot(fa, fa) * np.vdot(fb, fb)) * r
                * _fft_error((n1 * n2).bit_length()) < 0.25):
            fa = np.fft.rfft2(fa, (n1, n2))
            fb = fa if B is A else np.fft.rfft2(fb, (n1, n2))
            planes = ctx._plane_product(fa, fb, np.multiply)
            prod = np.fft.irfft2(planes, (n1, n2))[:, :m, :width]
            return ctx._fold(np.rint(prod).astype(np.int64))
    # planes flattened with T-stride width; those of the longer factor are
    # laid end to end at the stride n of a full product
    if na > nb:
        A, B, (na, da), (nb, db) = B, A, (nb, db), (na, da)
    n = na + nb - 1
    flat_b = np.zeros((B.shape[0], n, width), dtype=np.int64)
    flat_b[:, :nb, :db] = B
    flat_b = flat_b.ravel()[:flat_b.size - na * width + db]

    def mul(a, b):
        a = _padded(a, width).ravel()[:(na - 1) * width + da]
        return _convolve_mod(a, b, p).reshape(-1, n, width)[:, :m]
    return ctx._fold(ctx._plane_product(A, flat_b, mul))
