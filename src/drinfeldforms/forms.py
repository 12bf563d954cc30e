"""Named Drinfeld modular forms for Gamma_0(T), the spaces M_{k,l}, and a
small expression language over the generators.

Generators and their u-expansions:

* E        weight 2, type 1: the false Eisenstein series
           sum over monic a of a * u(az); not modular on its own.  Built
           as the logarithmic derivative Theta(Delta_T) / Delta_T with
           Theta = -u^2 d/du (Gekeler, Invent. Math. 93, 1988).
* E_T      weight 2, type 1: E(z) - T E(Tz), modular of level T.
* g1       weight q-1, type 0: normalized Eisenstein series, built from the
           period-free identity g1 = 1 - (T^q - T) * sum over monic a of
           u(az)^(q-1), summed per degree on the Carlitz lattice (Goss,
           Basic Structures of Function Field Arithmetic, ch. 1; Gekeler,
           Invent. Math. 93, 1988).
* Delta_T  weight q-1, type 0: (g1(Tz) - g1(z)) / (T^q - T); vanishes only
           at the cusp at infinity.
* Delta_W  weight q-1, type 0: g1 + T^q Delta_T; vanishes only at the
           cusp 0.
* h        weight q+1, type 1: the cusp form -Delta_W * E_T.

Every space M_{k,l}(Gamma_0(T)) with k = 2l mod (q-1) has dimension
1 + r where r = (k - 2l)/(q - 1), with the monomial basis
Delta_W^(r-j) Delta_T^j E_T^l for j = 0..r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carlitz import monic_power_sum, monic_series_sum
from .errors import (
    BadWeight,
    DivisionNotExact,
    EmptySpace,
    ExprError,
)
from .fieldpoly import (FieldCtx, Poly, RatFunc, _as_ratfunc, _power,
                        _special_divmod, parse_expr, special_modulus)
from .useries import USeries

# name -> q -> (weight, type, valuation, least precision), in printing order
_GENERATORS = {
    "Delta_W": lambda q: (q - 1, 0, 0, q * (q - 1) + 1),
    "Delta_T": lambda q: (q - 1, 0, q - 1, q * (q - 1) + 1),
    "E_T": lambda q: (2, 1, 1, q + 1),
    "g1": lambda q: (q - 1, 0, 0, q),
    "h": lambda q: (q + 1, 1, 1, (q - 1) ** 2 + 2),
    "E": lambda q: (2, 1, 1, 2),
}
GENERATOR_NAMES = tuple(_GENERATORS)


# ---------------------------------------------------------------------------
# builders


def build_E(ctx, prec):
    """The false Eisenstein series, sum over monic a of a * u(az), as
    Theta(Delta_T) / Delta_T; Delta_T to prec + q - 2 leaves the quotient
    valuation 1 and precision prec."""
    if prec < 2:
        raise ValueError("prec must be at least 2")
    dt = get_form(ctx, "Delta_T", prec + ctx.q - 2)
    return (dt.theta() * dt.inverse()).truncate(prec)


def build_ET(ctx, prec):
    """E(z) - T E(Tz), the modular combination of level T."""
    if prec < ctx.q + 1:
        raise ValueError("prec must be at least q + 1")
    e = get_form(ctx, "E", prec)
    return e - e.substitute_Tz(out_prec=prec) * Poly.T(ctx)


def build_g1(ctx, prec):
    """Weight q-1 Eisenstein series normalized to constant term 1, as
    1 - (T^q - T) * sum over d of t_d^(q-1): t_d sums u(az) over monic a
    of degree d, from the Carlitz lattice by ``monic_power_sum``, where
    each t_d^(q-1) takes X^-(q-1) = X (1/X)^q with the inverse of X run to
    ceil(P / q) of its relative precision P."""
    if prec < ctx.q:
        raise ValueError("prec must be at least q")
    s = monic_power_sum(ctx, ctx.q - 1, prec)
    # negating T^q - T once, not every coefficient of the sum
    return USeries.one(ctx, prec) + s * -special_modulus(ctx, 1)


def build_DeltaT(ctx, prec):
    """(g1(Tz) - g1(z)) / (T^q - T); the division must be exact.  The
    numerator block of the integral difference is divided by T^q - T in
    one strided sum (``_special_divmod``), with no long division and no
    gcd; a nonzero remainder raises DivisionNotExact."""
    if prec < ctx.q * (ctx.q - 1) + 1:
        raise ValueError("prec must be at least q(q-1) + 1")
    g1 = build_g1(ctx, prec)
    diff = g1.substitute_Tz(out_prec=prec) - g1
    quot, rem = _special_divmod(ctx, diff.block, 1)
    if not diff.integral or rem.any():
        raise DivisionNotExact(
            "g1(Tz) - g1(z) is not divisible by T^q - T; "
            "this is an internal bug")
    return USeries._make(ctx, diff.exps, quot, diff.den, diff.val,
                         diff.prec, sums=False)


def build_DeltaT_from_monic_sum(ctx, prec):
    """Independent route: sum of u(az)^(q-1) over monic a not divisible
    by T."""
    one = RatFunc.constant(ctx, 1)
    # T divides a exactly when its constant coefficient is zero
    return monic_series_sum(ctx, lambda a: one if a.arr[:, 0].any() else 0,
                            ctx.q - 1, prec)


def build_DeltaW(ctx, prec):
    """g1 + T^q Delta_T, the form vanishing only at the cusp 0."""
    inner = max(prec, ctx.q * (ctx.q - 1) + 1)
    tq = Poly.T(ctx) ** ctx.q
    out = build_g1(ctx, inner) + build_DeltaT(ctx, inner) * tq
    return out.truncate(prec)


def build_h(ctx, prec):
    """The cusp form of weight q+1 and type 1, -Delta_W * E_T."""
    inner = max(prec, ctx.q * (ctx.q - 1) + 1)
    out = -(build_DeltaW(ctx, inner) * get_form(ctx, "E_T", inner))
    return out.truncate(prec)


_BUILDERS = {
    "E": build_E,
    "E_T": build_ET,
    "g1": build_g1,
    "Delta_T": build_DeltaT,
    "Delta_W": build_DeltaW,
    "h": build_h,
}


class _FormCache:
    """Grow-only cache of generator series and of monomials in them, per
    field.

    A generator is built at the largest precision requested so far, at
    least half again its last one.  A monomial is keyed by the canonical
    term tuple of ``FormExpr``: one factor name^e is the generator's power
    (an inverse first for e < 0), and several factors are the product of
    their one-factor entries.  Every entry serves any smaller precision by
    truncation, which is observationally identical to a fresh build; a
    rebuilt generator drops every monomial that contains it.
    """

    def __init__(self):
        self._gens = {}    # (ctx.key, name) -> USeries
        self._monos = {}   # (ctx.key, ((name, exp), ...)) -> USeries

    def generator(self, ctx, name, prec):
        if name not in _BUILDERS:
            raise ExprError(f"unknown generator {name!r}")
        prec = max(prec, _GENERATORS[name](ctx.q)[3])
        key = (ctx.key, name)
        cached = self._gens.get(key)
        if cached is None or cached.prec < prec:
            target = max(prec, int(1.5 * cached.prec) if cached else prec)
            cached = _BUILDERS[name](ctx, target)
            self._gens[key] = cached
            stale = [k for k in self._monos if k[0] == ctx.key
                     and any(n == name for n, _ in k[1])]
            for k in stale:
                del self._monos[k]
        return cached.truncate(prec)

    def monomial(self, ctx, mono, prec):
        """The product of name^exp over ``mono`` to absolute precision
        prec; each factor is taken at exp * v + rel, with v its valuation
        and rel = prec minus the monomial's valuation, at least 1."""
        key = (ctx.key, mono)
        cached = self._monos.get(key)
        if cached is not None and cached.prec >= prec:
            return cached.truncate(prec)
        vals = [e * _GENERATORS[n](ctx.q)[2] for n, e in mono]
        rel = max(prec - sum(vals), 1)
        if not mono:
            out = USeries.one(ctx, rel)
        elif len(mono) == 1:
            (name, exp), = mono
            v = _GENERATORS[name](ctx.q)[2]
            base = self.generator(ctx, name, v + rel)
            out = base ** exp if exp >= 0 else base.inverse() ** -exp
        else:
            out = None
            for factor, val in zip(mono, vals):
                fs = self.monomial(ctx, (factor,), val + rel)
                out = fs if out is None else out * fs
        self._monos[key] = out
        return out.truncate(min(prec, out.prec))

    def clear(self):
        self._gens.clear()
        self._monos.clear()


_CACHE = _FormCache()


def get_form(ctx, name, prec):
    """Cached generator series at the requested precision."""
    return _CACHE.generator(ctx, name, prec)


def get_form_power(ctx, name, exp, prec):
    """Cached generator power at the requested absolute precision: the
    one-factor monomial."""
    return _CACHE.monomial(ctx, ((name, exp),), prec)


def clear_form_cache():
    _CACHE.clear()


# ---------------------------------------------------------------------------
# weight/type bookkeeping and monomial bases


@dataclass(frozen=True)
class FormSpec:
    """Weight k and type l (lifted to [0, q-2]) of a space
    M_{k,l}(Gamma_0(T))."""

    ctx: FieldCtx
    k: int
    l: int

    def __post_init__(self):
        q = self.ctx.q
        if not 0 <= self.l <= q - 2:
            raise BadWeight(f"type l = {self.l} outside [0, {q - 2}]")
        if self.k < 0:
            raise BadWeight(f"weight k = {self.k} is negative")

    @property
    def congruent(self):
        return (self.k - 2 * self.l) % (self.ctx.q - 1) == 0

    @property
    def r(self):
        if not self.congruent:
            raise BadWeight(
                f"k = {self.k} is not congruent to 2l = {2 * self.l} "
                f"mod {self.ctx.q - 1}")
        return (self.k - 2 * self.l) // (self.ctx.q - 1)

    @property
    def dim(self):
        if not self.congruent or self.r < 0:
            return 0
        return 1 + self.r


def valid_specs(ctx, r_max):
    """All (k, l, r) with 0 <= l <= q-2, 0 <= r <= r_max and k >= 1."""
    out = []
    for l in range(ctx.q - 1):
        for r in range(r_max + 1):
            k = r * (ctx.q - 1) + 2 * l
            if k >= 1:
                out.append((k, l, r))
    return out


def space_dim(ctx, k, l):
    """dim M_{k,l}(Gamma_0(T)): 1 + (k-2l)/(q-1) when defined, else 0."""
    if not 0 <= l <= ctx.q - 2 or k < 0:
        return 0
    return FormSpec(ctx, k, l).dim


@dataclass(frozen=True)
class BasisMonomial:
    """Delta_W^e_W * Delta_T^e_T * E_T^e_E."""

    e_W: int
    e_T: int
    e_E: int

    def weight(self, ctx):
        return (ctx.q - 1) * (self.e_W + self.e_T) + 2 * self.e_E

    def type_lift(self, ctx):
        return self.e_E % (ctx.q - 1)

    def label(self):
        parts = []
        for name, e in (("Delta_W", self.e_W), ("Delta_T", self.e_T),
                        ("E_T", self.e_E)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def expr(self, ctx):
        return FormExpr(ctx, [(RatFunc.constant(ctx, 1), (
            ("Delta_W", self.e_W), ("Delta_T", self.e_T),
            ("E_T", self.e_E)))])


def basis(ctx, k, l):
    """Monomial basis Delta_W^(r-j) Delta_T^j E_T^l, j = 0..r."""
    spec = FormSpec(ctx, k, l)
    if spec.dim == 0:
        raise EmptySpace(f"M_{{{k},{l}}} is zero over F_{ctx.q}")
    r = spec.r
    return [BasisMonomial(r - j, j, l) for j in range(r + 1)]


def basis_series(ctx, k, l, prec):
    """u-expansions of the monomial basis of M_{k,l}, each to ``prec``."""
    return [expand(m.expr(ctx), prec) for m in basis(ctx, k, l)]


# ---------------------------------------------------------------------------
# form expressions


class FormExpr:
    """Formal sum of scaled monomials in the named generators.

    Terms are kept canonical: monomials sorted, like terms combined, zero
    coefficients dropped.  Exponents may be negative, so an expression can
    denote a Laurent quotient of modular forms.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        canon = {}
        for coef, mono in terms:
            mono = tuple(sorted((n, e) for n, e in mono if e != 0))
            for name, _ in mono:
                if name not in GENERATOR_NAMES:
                    raise ExprError(f"unknown generator {name!r}")
            prev = canon.get(mono)
            coef = coef if prev is None else prev + coef
            canon[mono] = coef
        self.ctx = ctx
        self.terms = tuple(sorted(
            ((c, m) for m, c in canon.items() if not c.is_zero()),
            key=lambda t: t[1]))

    # -- constructors --------------------------------------------------
    @classmethod
    def generator(cls, ctx, name):
        return cls(ctx, [(RatFunc.constant(ctx, 1), ((name, 1),))])

    @classmethod
    def scalar(cls, ctx, c):
        return cls(ctx, [(_as_ratfunc(ctx, c), ())])

    @classmethod
    def one(cls, ctx):
        return cls.scalar(ctx, 1)

    def is_zero(self):
        return not self.terms

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        return FormExpr(self.ctx, self.terms + other.terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FormExpr(self.ctx, [(-c, m) for c, m in self.terms])

    def __mul__(self, other):
        other = self._coerce(other)
        out = []
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                powers = dict(m1)
                for name, e in m2:
                    powers[name] = powers.get(name, 0) + e
                out.append((c1 * c2, tuple(powers.items())))
        return FormExpr(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if len(self.terms) == 1:
            c, m = self.terms[0]
            c = c if c.is_one() else c ** n
            return FormExpr(self.ctx, [(c, [(g, e * n) for g, e in m])])
        if n < 0:
            raise ExprError("negative powers need a single-monomial base")
        return _power(self, n, FormExpr.one(self.ctx))

    def _coerce(self, other):
        if isinstance(other, FormExpr):
            if other.ctx.key != self.ctx.key:
                raise ExprError("expressions over different fields")
            return other
        return FormExpr.scalar(self.ctx, other)

    # -- weight and type --------------------------------------------------
    def weight(self):
        """Common weight of all terms; raises BadWeight when mixed."""
        if not self.terms:
            raise BadWeight("the zero expression has no weight")
        q = self.ctx.q
        weights = {sum(e * _GENERATORS[n](q)[0] for n, e in m)
                   for _, m in self.terms}
        if len(weights) != 1:
            raise BadWeight(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def type_lift(self):
        """Common type mod (q-1), lifted to [0, q-2]."""
        if not self.terms:
            raise BadWeight("the zero expression has no type")
        q = self.ctx.q
        types = {sum(e * _GENERATORS[n](q)[1] for n, e in m) % (q - 1)
                 for _, m in self.terms}
        if len(types) != 1:
            raise BadWeight(f"mixed types {sorted(types)}")
        return types.pop()

    def is_modular(self):
        """True when no term involves the non-modular generator E."""
        return all(n != "E" for _, m in self.terms for n, _ in m)

    def check_in_space(self, k, l):
        """Verify the expression denotes a form in M_{k,l}."""
        if not self.is_modular():
            raise BadWeight("expression involves the non-modular E")
        if self.weight() != k:
            raise BadWeight(
                f"expression has weight {self.weight()}, expected {k}")
        if self.type_lift() != l % (self.ctx.q - 1):
            raise BadWeight(
                f"expression has type {self.type_lift()}, expected "
                f"{l % (self.ctx.q - 1)}")

    # -- rendering --------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        order = {n: i for i, n in enumerate(GENERATOR_NAMES)}
        for c, mono in self.terms:
            factors = []
            if not c.is_one() or not mono:
                s = str(c)
                if " " in s or ("+" in s and not s.startswith("(")):
                    s = f"({s})"
                factors.append(s)
            for name, e in sorted(mono, key=lambda t: order[t[0]]):
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"FormExpr({self})"

    # -- parsing ----------------------------------------------------------
    @classmethod
    def parse(cls, ctx, text):
        """Parse text in the package's expression grammar (see
        ``fieldpoly.parse_expr``) with the six generators as names."""
        names = _GENERATOR_EXPRS.get(ctx.key)
        if names is None:
            names = _GENERATOR_EXPRS[ctx.key] = {
                n: cls.generator(ctx, n) for n in GENERATOR_NAMES}
        out = parse_expr(ctx, text, names)
        return out if isinstance(out, FormExpr) else cls.scalar(ctx, out)


_GENERATOR_EXPRS = {}  # ctx.key -> the six generators as FormExpr, by name


# ---------------------------------------------------------------------------
# evaluation


def expand(expr, prec):
    """Evaluate a form expression as a u-series, exact below ``prec``.

    Each term is one monomial of the form cache at prec plus one
    (q-1)-block of slack, so every reported coefficient is sound; its
    factors were taken at exp * v + rel with rel = prec - v + q - 1 for a
    monomial of valuation v.  A term with v >= prec is skipped, and a
    coefficient 1 is not applied.
    """
    ctx = expr.ctx
    q = ctx.q
    out = None
    for coef, mono in expr.terms:
        if sum(e * _GENERATORS[n](q)[2] for n, e in mono) >= prec:
            continue
        part = _CACHE.monomial(ctx, mono, prec + q - 1)
        if not coef.is_one():
            part = part.scale(coef)
        if part.prec > prec:
            part = part.truncate(prec)
        out = part if out is None else out + part
    return USeries.zero(ctx, prec) if out is None else out
