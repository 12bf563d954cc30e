"""Linear relations among initial u-coefficients of forms in
M_{k,l}(Gamma_0(T)).

A relation vector (c_0, ..., c_m), m = r + N + 1, annihilates every
f in M_{k,l} under sum_i c_i a_f(i(q-1) + l).  Two independent
constructions of the full relation space are provided:

* the principal parts of h g / (Delta_T^(r+N+1) E_T^(2l)) as g runs over
  a basis of M_{N(q-1)+2l, l} (the image of the isomorphism phi), and
* the left kernel of the transposed coefficient matrix [a_i*(f_j)] of a
  basis of M_{k,l}, by back-substitution (no residue theory).

Equality of the two spans, in normal form on the last N + 1 coordinates,
is the strongest single check this package performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySpace, NotUnitriangular
from .fieldpoly import Matrix, RatFunc, left_kernel
from .forms import (
    FormExpr,
    FormSpec,
    basis,
    basis_series,
    expand,
    valid_specs,
)


def dual_coeff(f, i, l):
    """The functional a_i*: the coefficient of u^(i(q-1)+l)."""
    if i < 0:
        raise ValueError(f"index i = {i} must be nonnegative")
    return f.coeff(i * (f.ctx.q - 1) + l)


def psi_apply(cvec, f, l):
    """Evaluate sum_i c_i a_f(i(q-1)+l) for a coefficient vector."""
    return _dot(RatFunc.constant(f.ctx, 0), cvec,
                [dual_coeff(f, i, l) for i in range(len(cvec))])


@dataclass(frozen=True)
class RelationVector:
    """One element of the relation space, of length r + N + 2."""

    spec: FormSpec
    N: int
    c: tuple

    def json_dict(self, basis_g=None):
        out = {
            "q": self.spec.ctx.q,
            "k": self.spec.k,
            "l": self.spec.l,
            "N": self.N,
            "b": [str(x) for x in self.c],
        }
        if basis_g is not None:
            out["basis_g"] = basis_g
        return out


@dataclass(frozen=True)
class BMatrix:
    """Rows phi(g_j) over the monomial basis g_j of M_{N(q-1)+2l, l}."""

    spec: FormSpec
    N: int
    labels: tuple
    rows: tuple

    def matrix(self):
        ctx = self.spec.ctx
        return Matrix(ctx, [row.c for row in self.rows])

    def rank(self):
        return self.matrix().rank()


def compute_b_vector(ctx, k, l, N, g, prec=None):
    """Principal-part coefficients of h g / (Delta_T^(r+N+1) E_T^(2l)).

    Reads b_i at exponent -i(q-1) + 1 - l for i = 0 .. r+N+1; the result
    annihilates every form in M_{k,l} under psi_apply.
    """
    spec = FormSpec(ctx, k, l)
    rN = spec.r + N + 1
    g.check_in_space(N * (ctx.q - 1) + 2 * l, l)
    if prec is None:  # covers the coefficient at (q-1) + 1 - l as well
        prec = (ctx.q - 1) + 2 - l
    expr = (FormExpr.generator(ctx, "h") * g
            * FormExpr.generator(ctx, "Delta_T") ** (-rN)
            * FormExpr.generator(ctx, "E_T") ** (-2 * l))
    series = expand(expr, prec)
    q = ctx.q
    coeffs = tuple(series.coeff(-i * (q - 1) + 1 - l)
                   for i in range(rN + 1))
    return RelationVector(spec, N, coeffs)


def phi(ctx, k, l, N, prec=None):
    """The relation vectors of all monomial basis forms of
    M_{N(q-1)+2l, l}, in basis order."""
    if N < 0:
        raise ValueError(f"N = {N} must be nonnegative")
    kg = N * (ctx.q - 1) + 2 * l
    monos = basis(ctx, kg, l)
    rows = tuple(compute_b_vector(ctx, k, l, N, m.expr(ctx), prec)
                 for m in monos)
    return BMatrix(FormSpec(ctx, k, l), N, tuple(m.label() for m in monos),
                   rows)


def _dual_matrix(ctx, k, l, N, prec=None):
    """The coefficient matrix [a_i*(f_j)], i = 0 .. r+N+1, of the
    monomial basis f_j of M_{k,l}."""
    spec = FormSpec(ctx, k, l)
    if spec.dim == 0:
        raise EmptySpace(f"M_{{{k},{l}}} is zero over F_{ctx.q}")
    rN = spec.r + N + 1
    q = ctx.q
    if prec is None:
        prec = rN * (q - 1) + l + q
    series = basis_series(ctx, k, l, prec)
    rows = [[dual_coeff(f, i, l) for f in series] for i in range(rN + 1)]
    return Matrix(ctx, rows)


def kernel_oracle(ctx, k, l, N, prec=None):
    """The relation space by elimination, independent of the unitriangular
    shape: the canonical echelon basis of the left kernel of [a_i*(f_j)]."""
    return left_kernel(_dual_matrix(ctx, k, l, N, prec))


def spans_equal(ctx, rows_a, rows_b):
    """Row-span equality via canonical reduced echelon forms."""
    return len(rows_a) == len(rows_b) and (
        not rows_a or Matrix(ctx, rows_a).rref() == Matrix(ctx, rows_b).rref())


def _dot(zero, a, b):
    """sum_i a_i b_i over F_q(T), starting at ``zero``; skips zero terms."""
    return sum((x * y for x, y in zip(a, b)
                if not (x.is_zero() or y.is_zero())), zero)


def _unitriangular(dual, r):
    """Rows 0 .. r of M are integral with unit diagonal and zeros above it
    (criterion 8)."""
    return all(x.is_integral() and (x.is_one() if i == c else
                                    i > c or x.is_zero())
               for i, row in enumerate(dual.entries[:r + 1])
               for c, x in enumerate(row))


def _kernel_by_back_substitution(dual, r):
    """The left kernel {v : v M = 0}: for each j > r, the v with v_j = 1
    and 0 at the other indices above r.  M is unitriangular on rows 0 .. r
    (``_unitriangular``), so v_c = -sum_{i>c} v_i M[i][c] for c = r .. 0
    needs no division."""
    ctx, m = dual.ctx, dual.entries
    if not _unitriangular(dual, r):
        raise NotUnitriangular(
            "the dual matrix is not unitriangular on its first r + 1 rows")
    cols = list(zip(*m))
    zero, one = RatFunc.constant(ctx, 0), RatFunc.constant(ctx, 1)
    kern = []
    for j in range(r + 1, len(m)):
        v = [one if i == j else zero for i in range(len(m))]
        for c in range(r, -1, -1):
            v[c] = -_dot(zero, v[c + 1:], cols[c][c + 1:])
        kern.append(v)
    return kern


def relation_report(ctx, k, l, N):
    """Full two-route report: phi rows, kernel basis, rank, span equality
    and exact annihilation of every basis form of M_{k,l}.

    The kernel K is the identity on the last N + 1 coordinates, so the
    spans agree when the phi rank is N + 1 = len(K) and each phi row b is
    b[r+1:] K.  The phi echelon form, reduced for the rank, is then the
    printed kernel; K is reduced only when the spans differ.
    """
    bm = phi(ctx, k, l, N)
    dual = _dual_matrix(ctx, k, l, N)
    r = dual.cols - 1
    kern = _kernel_by_back_substitution(dual, r)
    echelon, pivots = bm.matrix().rref()
    zero = RatFunc.constant(ctx, 0)
    equal = len(pivots) == N + 1 == len(kern) and all(
        row.c[c] == _dot(zero, row.c[r + 1:], [v[c] for v in kern])
        for row in bm.rows for c in range(r + 1))
    if not equal:
        echelon = Matrix(ctx, kern).rref()[0]
    annihilates = all(_dot(zero, row.c, col).is_zero()
                      for col in zip(*dual.entries) for row in bm.rows)
    return {
        "q": ctx.q,
        "k": k,
        "l": l,
        "N": N,
        "phi": [row.json_dict(basis_g=label)
                for row, label in zip(bm.rows, bm.labels)],
        "kernel": [[str(c) for c in v] for v in echelon.entries],
        "report": {
            "phi_rank": len(pivots),
            "kernel_dim": len(kern),
            "spans_equal": equal,
            "annihilates": annihilates,
        },
    }


def sweep_relations(ctx, r_max=5, n_max=3):
    """relation_report over every valid (k, l) with r <= r_max and every
    N <= n_max."""
    return [relation_report(ctx, k, l, N)
            for k, l, _ in valid_specs(ctx, r_max) for N in range(n_max + 1)]
