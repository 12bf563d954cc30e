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

The report works on matrix blocks.  A ``fieldpoly.Matrix`` is stored
like a series, one numerator block over one denominator: the phi rows and
the dual matrix are read from the numerator blocks of their series, over
the lcm of the series' denominators; the unitriangular check is one long
division of the top rows by that denominator, the annihilation check one
product of the two numerator blocks, and both the phi rows and the
kernel are rendered from blocks by ``Matrix.rendered``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySpace, NotUnitriangular, PrecisionExceeded
from .fieldpoly import (Matrix, Poly, RatFunc, _batch_product, _cleared_row,
                        _padded, _rows_divmod, left_kernel)
from .forms import (
    FormExpr,
    FormSpec,
    basis,
    basis_series,
    expand,
    valid_specs,
)


@dataclass(frozen=True)
class RelationVector:
    """One element of the relation space, of length r + N + 2."""

    spec: FormSpec
    N: int
    c: tuple


@dataclass(frozen=True)
class BMatrix:
    """Rows phi(g_j) over the monomial basis g_j of M_{N(q-1)+2l, l}, held
    as one matrix."""

    spec: FormSpec
    N: int
    labels: tuple
    matrix: Matrix

    @property
    def rows(self):
        return tuple(RelationVector(self.spec, self.N, c)
                     for c in self.matrix.entries)


def _phi_matrix(ctx, k, l, N, gs):
    """The principal-part coefficients of h g / (Delta_T^(r+N+1) E_T^(2l))
    for every form g in ``gs``, one matrix row each, read from one block.

    Reads b_i at exponent -i(q-1) + 1 - l for i = 0 .. r+N+1; each row
    annihilates every form in M_{k,l} under sum_i c_i a_f(i(q-1)+l).  The
    factor h / (Delta_T^(r+N+1) E_T^(2l)) is built once for all rows.
    """
    rN = FormSpec(ctx, k, l).r + N + 1
    prec = (ctx.q - 1) + 2 - l  # covers the coefficient at (q-1) + 1 - l
    shared = (FormExpr.generator(ctx, "h")
              * FormExpr.generator(ctx, "Delta_T") ** (-rN)
              * FormExpr.generator(ctx, "E_T") ** (-2 * l))
    exps = 1 - l - (ctx.q - 1) * np.arange(rN + 1)
    return _coefficients(ctx, [expand(shared * g, prec) for g in gs], exps)


def compute_b_vector(ctx, k, l, N, g):
    """The relation vector of one form g of M_{N(q-1)+2l, l}: the one-row
    case of ``_phi_matrix``."""
    spec = FormSpec(ctx, k, l)
    g.check_in_space(N * (ctx.q - 1) + 2 * l, l)
    return RelationVector(spec, N,
                          _phi_matrix(ctx, k, l, N, [g]).entries[0])


def phi(ctx, k, l, N):
    """The relation vectors of all monomial basis forms of
    M_{N(q-1)+2l, l}, in basis order."""
    if N < 0:
        raise ValueError(f"N = {N} must be nonnegative")
    monos = basis(ctx, N * (ctx.q - 1) + 2 * l, l)
    return BMatrix(FormSpec(ctx, k, l), N, tuple(m.label() for m in monos),
                   _phi_matrix(ctx, k, l, N, [m.expr(ctx) for m in monos]))


def _coefficients(ctx, series, exps):
    """The coefficients of each series at the exponents ``exps``, read from
    its numerator block: one matrix row per series, over the lcm of the
    series' denominators."""
    one = Poly.one(ctx)
    scales, den = _cleared_row(ctx, [RatFunc._reduced(one, f.den)
                                     for f in series])
    top = int(exps.max())
    block = np.zeros((ctx.r, len(series), exps.size, max(
        f.block.shape[2] + s.degree for f, s in zip(series, scales))),
        dtype=np.int64)
    for j, (f, s) in enumerate(zip(series, scales)):
        if top >= f.prec:
            raise PrecisionExceeded(
                f"coefficient of u^{top} requested, precision is {f.prec}")
        at = np.searchsorted(f.exps, exps)
        hit = at < f.exps.size
        hit[hit] = f.exps[at[hit]] == exps[hit]
        read = f.block[:, at[hit]]
        if not s.is_one():
            read = _batch_product(ctx, read, s.arr[:, None])
        block[:, j, hit, :read.shape[2]] = read
    return Matrix._of(ctx, block, den)


def _dual_matrix(ctx, k, l, N):
    """The coefficient matrix [a_i*(f_j)], i = 0 .. r+N+1, of the
    monomial basis f_j of M_{k,l}, read from the numerator blocks of the
    basis series."""
    spec = FormSpec(ctx, k, l)
    if spec.dim == 0:
        raise EmptySpace(f"M_{{{k},{l}}} is zero over F_{ctx.q}")
    rN = spec.r + N + 1
    q = ctx.q
    cols = _coefficients(ctx, basis_series(ctx, k, l, rN * (q - 1) + l + q),
                         np.arange(rN + 1) * (q - 1) + l)
    return Matrix._of(ctx, cols.block.swapaxes(1, 2), cols.den)


def kernel_oracle(ctx, k, l, N):
    """The relation space by elimination, independent of the unitriangular
    shape: the canonical echelon basis of the left kernel of [a_i*(f_j)]."""
    return left_kernel(_dual_matrix(ctx, k, l, N))


def spans_equal(ctx, rows_a, rows_b):
    """Row-span equality via canonical reduced echelon forms."""
    return len(rows_a) == len(rows_b) and (
        not rows_a or Matrix(ctx, rows_a).rref() == Matrix(ctx, rows_b).rref())


def _unitriangular(dual, r):
    """Rows 0 .. r of M are integral with unit diagonal and zeros above it
    (criterion 8)."""
    top = dual.block[:, :r + 1]
    if not dual.den.is_one():
        top, rem = _rows_divmod(dual.ctx, top, dual.den.arr)
        if rem.any():
            return False
    top = top[:, :, :r + 1]
    want = np.zeros(top.shape[:3] + (max(top.shape[3], 1),), dtype=np.int64)
    want[0, range(r + 1), range(r + 1), 0] = 1
    upper = np.triu(np.ones((r + 1, r + 1), dtype=bool))
    return np.array_equal(_padded(top, want.shape[3])[:, upper],
                          want[:, upper])


def relation_report(ctx, k, l, N):
    """Full two-route report: phi rows, kernel basis, rank, span equality
    and exact annihilation of every basis form of M_{k,l}.

    ``_unitriangular`` makes the top (r + 1) x (r + 1) block of
    M = [a_i*(f_j)] unit lower-triangular, so rank M = r + 1 and the left
    kernel of M has dimension N + 1, the number of rows of M less its
    columns.  A phi row b lies in that kernel exactly when b M = 0, so
    the spans are equal exactly when every phi row annihilates M and the
    phi rank is N + 1.  Annihilation is sum_i b_i M[i][c] = 0 for every
    phi row b and column c of M, read on the numerator blocks, since a
    matrix over one denominator vanishes exactly when its block does.  The
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
    phim = bm.matrix
    annihilates = not (_batch_product(
        ctx, phim.block[:, :, None], dual.block.swapaxes(1, 2)[:, None]
    ).sum(axis=-2) % ctx.p).any()
    echelon, pivots = phim.rref()
    equal = annihilates and len(pivots) == kernel_dim
    head = {"q": ctx.q, "k": k, "l": l, "N": N}
    return {
        **head,
        "phi": [dict(head, b=b, basis_g=label)
                for b, label in zip(phim.rendered(), bm.labels)],
        "kernel": (echelon if equal else left_kernel(dual)).rendered(),
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
