"""Linear relations among initial u-coefficients of forms in
M_{k,l}(Gamma_0(T)).

A relation vector (c_0, ..., c_m), m = r + N + 1, annihilates every
f in M_{k,l} under sum_i c_i a_f(i(q-1) + l).  Two independent
constructions of the full relation space are provided:

* the principal parts of h g / (Delta_T^(r+N+1) E_T^(2l)) as g runs over
  a basis of M_{N(q-1)+2l, l} (the image of the isomorphism phi), and
* the left kernel of the transposed coefficient matrix [a_i*(f_j)] of a
  basis of M_{k,l} (straight linear algebra, no residue theory).

Equality of the two echelonized spans is the strongest single check this
package performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySpace
from .fieldpoly import Matrix, RatFunc, left_kernel
from .forms import (
    FormExpr,
    FormSpec,
    basis,
    basis_series,
    expand,
)


def dual_coeff(f, i, l):
    """The functional a_i*: the coefficient of u^(i(q-1)+l)."""
    if i < 0:
        raise ValueError(f"index i = {i} must be nonnegative")
    return f.coeff(i * (f.ctx.q - 1) + l)


def psi_apply(cvec, f, l):
    """Evaluate sum_i c_i a_f(i(q-1)+l) for a coefficient vector."""
    ctx = f.ctx
    out = RatFunc.constant(ctx, 0)
    for i, c in enumerate(cvec):
        out = out + c * dual_coeff(f, i, l)
    return out


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


def _default_prec(ctx, l):
    # covers the positive-side coefficient at (q-1) + 1 - l as well
    return (ctx.q - 1) + 2 - l


def compute_b_vector(ctx, k, l, N, g, prec=None):
    """Principal-part coefficients of h g / (Delta_T^(r+N+1) E_T^(2l)).

    Reads b_i at exponent -i(q-1) + 1 - l for i = 0 .. r+N+1; the result
    annihilates every form in M_{k,l} under psi_apply.
    """
    spec = FormSpec(ctx, k, l)
    rN = spec.r + N + 1
    g.check_in_space(N * (ctx.q - 1) + 2 * l, l)
    if prec is None:
        prec = _default_prec(ctx, l)
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
    rows = []
    labels = []
    for m in monos:
        rows.append(compute_b_vector(ctx, k, l, N, m.expr(ctx), prec))
        labels.append(m.label())
    return BMatrix(FormSpec(ctx, k, l), N, tuple(labels), tuple(rows))


def _dual_matrix(ctx, k, l, N, prec=None):
    """The monomial basis f_j of M_{k,l} as series, and its coefficient
    matrix [a_i*(f_j)] for i = 0 .. r+N+1."""
    spec = FormSpec(ctx, k, l)
    if spec.dim == 0:
        raise EmptySpace(f"M_{{{k},{l}}} is zero over F_{ctx.q}")
    rN = spec.r + N + 1
    q = ctx.q
    if prec is None:
        prec = rN * (q - 1) + l + q
    series = basis_series(ctx, k, l, prec)
    rows = [[dual_coeff(f, i, l) for f in series] for i in range(rN + 1)]
    return series, Matrix(ctx, rows)


def kernel_oracle(ctx, k, l, N, prec=None):
    """Independent construction of the relation space by elimination.

    Builds the coefficient matrix a_i*(f_j) of the monomial basis f_j of
    M_{k,l} for i = 0 .. r+N+1 and returns the canonical echelon basis of
    the vectors annihilating every column.
    """
    return left_kernel(_dual_matrix(ctx, k, l, N, prec)[1])


def spans_equal(ctx, rows_a, rows_b):
    """Row-span equality via canonical reduced echelon forms."""
    if len(rows_a) != len(rows_b):
        return False
    if not rows_a:
        return True
    ea, _ = Matrix(ctx, rows_a).rref()
    eb, _ = Matrix(ctx, rows_b).rref()
    return ea == eb


def relation_report(ctx, k, l, N):
    """Full two-route report: phi rows, kernel basis, rank, span equality
    and exact annihilation of every basis form of M_{k,l}.

    The coefficient matrix serves both the kernel and the annihilation
    check, and the phi rows are reduced once for their rank and the span
    comparison; the kernel rows are already in canonical echelon form.
    """
    bm = phi(ctx, k, l, N)
    series, dual = _dual_matrix(ctx, k, l, N)
    kern = left_kernel(dual)
    echelon, pivots = bm.matrix().rref()
    equal = (len(bm.rows) == len(kern)
             and echelon.entries == tuple(map(tuple, kern)))
    annihilates = all(psi_apply(row.c, f, l).is_zero()
                      for f in series for row in bm.rows)
    return {
        "q": ctx.q,
        "k": k,
        "l": l,
        "N": N,
        "phi": [row.json_dict(basis_g=label)
                for row, label in zip(bm.rows, bm.labels)],
        "kernel": [[str(c) for c in v] for v in kern],
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
    out = []
    for l in range(ctx.q - 1):
        for r in range(r_max + 1):
            k = r * (ctx.q - 1) + 2 * l
            if k < 1:
                continue
            for N in range(n_max + 1):
                out.append(relation_report(ctx, k, l, N))
    return out
