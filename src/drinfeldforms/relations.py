"""Linear relations among initial u-coefficients of forms in
M_{k,l}(Gamma_0(T)).

A relation vector (c_0, ..., c_m), m = r + N + 1, annihilates every
f in M_{k,l} under sum_i c_i a_f(i(q-1) + l).  Two independent
constructions of the full relation space are provided:

* the principal parts of h g / (Delta_T^(r+N+1) E_T^(2l)) as g runs over
  a basis of M_{N(q-1)+2l, l} (the image of the isomorphism phi), and
* the left kernel of the transposed coefficient matrix M = [a_i*(f_j)]
  of a basis of M_{k,l} (no residue theory).

M is unitriangular on its first r + 1 rows (checked at run time), so
its left kernel has dimension N + 1, and the two spans agree exactly
when every phi row annihilates M and the phi rank is N + 1: the
strongest single check this package performs.

The report works on matrix blocks (see ``fieldpoly.Matrix``): the dual
matrix is read from the numerator blocks of the basis series, and the
unitriangular check and the annihilation check are products of
polynomial blocks.  RatFunc objects are built only for what is printed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySpace, NotUnitriangular, PrecisionExceeded
from .fieldpoly import (Matrix, Poly, RatFunc, _batch_product, _cleared_row,
                        _lowest_terms, _padded, _stacked, _trimmed,
                        left_kernel)
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
    return sum((c * dual_coeff(f, i, l) for i, c in enumerate(cvec)),
               RatFunc.constant(f.ctx, 0))


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
    exps = 1 - l - (ctx.q - 1) * np.arange(rN + 1)
    return RelationVector(spec, N, _coefficients(ctx, [expand(expr, prec)],
                                                 exps).entries[0])


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


def _coefficients(ctx, series, exps):
    """The coefficients of each series at the exponents ``exps``, read from
    its numerator block: one matrix row per series, over the series'
    denominator."""
    top = int(exps.max())
    block = np.zeros((ctx.r, len(series), exps.size,
                      max(f.block.shape[2] for f in series)), dtype=np.int64)
    for j, f in enumerate(series):
        if top >= f.prec:
            raise PrecisionExceeded(
                f"coefficient of u^{top} requested, precision is {f.prec}")
        at = np.searchsorted(f.exps, exps)
        hit = at < f.exps.size
        hit[hit] = f.exps[at[hit]] == exps[hit]
        block[:, j, hit, :f.block.shape[2]] = f.block[:, at[hit]]
    return Matrix._of(ctx, block, [f.den for f in series])


def _over_common_den(ctx, block, dens):
    """The rows block[:, i] / dens[i] of a matrix over the lcm D of the
    denominators: the numerator block times D / dens[i] row by row, and
    D."""
    one = Poly.one(ctx)
    scales, lcm = _cleared_row(ctx, [RatFunc._reduced(one, d) for d in dens])
    if lcm.is_one():
        return block, lcm
    scales = _stacked([x.arr for x in scales], axis=1)
    return _trimmed(_batch_product(ctx, block, scales[:, :, None])), lcm


def _dual_matrix(ctx, k, l, N, prec=None):
    """The coefficient matrix [a_i*(f_j)], i = 0 .. r+N+1, of the
    monomial basis f_j of M_{k,l}, read from the numerator blocks of the
    basis series; its rows are in lowest terms, so that a row is
    integral exactly when its denominator is 1."""
    spec = FormSpec(ctx, k, l)
    if spec.dim == 0:
        raise EmptySpace(f"M_{{{k},{l}}} is zero over F_{ctx.q}")
    rN = spec.r + N + 1
    q = ctx.q
    if prec is None:
        prec = rN * (q - 1) + l + q
    cols = _coefficients(ctx, basis_series(ctx, k, l, prec),
                         np.arange(rN + 1) * (q - 1) + l)
    rows, den = _over_common_den(ctx, cols.block, cols.dens)
    rows, dens = rows.swapaxes(1, 2), [den] * (rN + 1)
    if not den.is_one():
        rows, dens = zip(*(_lowest_terms(ctx, row, den)
                           for row in rows.swapaxes(0, 1)))
        rows = _stacked(rows, axis=1)
    return Matrix._of(ctx, rows, dens)


def kernel_oracle(ctx, k, l, N, prec=None):
    """The relation space by elimination, independent of the unitriangular
    shape: the canonical echelon basis of the left kernel of [a_i*(f_j)]."""
    return left_kernel(_dual_matrix(ctx, k, l, N, prec))


def spans_equal(ctx, rows_a, rows_b):
    """Row-span equality via canonical reduced echelon forms."""
    return len(rows_a) == len(rows_b) and (
        not rows_a or Matrix(ctx, rows_a).rref() == Matrix(ctx, rows_b).rref())


def _unitriangular(dual, r):
    """Rows 0 .. r of M are integral with unit diagonal and zeros above it
    (criterion 8)."""
    top = dual.block[:, :r + 1, :r + 1]
    want = np.zeros(top.shape[:3] + (max(top.shape[3], 1),), dtype=np.int64)
    want[0, range(r + 1), range(r + 1), 0] = 1
    upper = np.triu(np.ones((r + 1, r + 1), dtype=bool))
    return (all(d.is_one() for d in dual.dens[:r + 1])
            and np.array_equal(_padded(top, want.shape[3])[:, upper],
                               want[:, upper]))


def relation_report(ctx, k, l, N):
    """Full two-route report: phi rows, kernel basis, rank, span equality
    and exact annihilation of every basis form of M_{k,l}.

    ``_unitriangular`` makes the top (r + 1) x (r + 1) block of
    M = [a_i*(f_j)] unit lower-triangular, so rank M = r + 1 and the left
    kernel of M has dimension N + 1, the number of rows of M less its
    columns.  A phi row b lies in that kernel exactly when b M = 0, so
    the spans are equal exactly when every phi row annihilates M and the
    phi rank is N + 1.  Annihilation is sum_i b_i M[i][c] = 0 for every
    phi row b and column c of M, over the common denominator of M.  The
    phi echelon form, reduced for the rank, is then the printed kernel;
    when the spans differ, the printed kernel is ``left_kernel(M)``, the
    unique reduced echelon basis of the kernel.
    """
    bm = phi(ctx, k, l, N)
    dual = _dual_matrix(ctx, k, l, N)
    if not _unitriangular(dual, dual.cols - 1):
        raise NotUnitriangular(
            "the dual matrix is not unitriangular on its first r + 1 rows")
    kernel_dim = dual.rows - dual.cols
    phim = bm.matrix()
    scaled, _ = _over_common_den(ctx, dual.block, dual.dens)
    annihilates = not (_batch_product(
        ctx, phim.block[:, :, None], scaled.swapaxes(1, 2)[:, None]
    ).sum(axis=-2) % ctx.p).any()
    echelon, pivots = phim.rref()
    equal = annihilates and len(pivots) == kernel_dim
    kernel = echelon.entries if equal else left_kernel(dual)
    return {
        "q": ctx.q,
        "k": k,
        "l": l,
        "N": N,
        "phi": [row.json_dict(basis_g=label)
                for row, label in zip(bm.rows, bm.labels)],
        "kernel": [[str(c) for c in v] for v in kernel],
        "report": {
            "phi_rank": len(pivots),
            "kernel_dim": kernel_dim,
            "spans_equal": equal,
            "annihilates": annihilates,
        },
    }


def sweep_relations(ctx, r_max=5, n_max=3):
    """relation_report over every valid (k, l) with r <= r_max and every
    N <= n_max."""
    return [relation_report(ctx, k, l, N)
            for k, l, _ in valid_specs(ctx, r_max) for N in range(n_max + 1)]
