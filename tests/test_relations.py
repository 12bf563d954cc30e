import functools

import pytest

from drinfeldforms import relations
from drinfeldforms.errors import BadWeight, EmptySpace, NotUnitriangular
from drinfeldforms.fieldpoly import Matrix, Poly, RatFunc, make_field
from drinfeldforms.forms import (FormExpr, basis, basis_series, expand,
                                 space_dim)
from drinfeldforms.relations import (
    BMatrix,
    RelationVector,
    compute_b_vector,
    kernel_oracle,
    phi,
    relation_report,
    spans_equal,
    sweep_relations,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)


def dual_coeff(f, i, l):
    """The functional a_i*: the coefficient of u^(i(q-1)+l)."""
    if i < 0:
        raise ValueError(f"index i = {i} must be nonnegative")
    return f.coeff(i * (f.ctx.q - 1) + l)


def psi_apply(cvec, f, l):
    """Evaluate sum_i c_i a_f(i(q-1)+l) for a coefficient vector."""
    return sum((c * dual_coeff(f, i, l) for i, c in enumerate(cvec)),
               RatFunc.constant(f.ctx, 0))


def bmatrix_rank(bm):
    """The rank of the phi rows, by elimination of the whole matrix."""
    return bm.matrix.rank()


# ---------------------------------------------------------------------------
# coefficient functionals


def test_dual_coeff_unit_triangular():
    # a_i*(S_j) vanishes for i < j and is 1 on the diagonal
    series = basis_series(F3, 6, 1, 20)
    for j, f in enumerate(series):
        for i in range(3):
            c = dual_coeff(f, i, 1)
            if i < j:
                assert c.is_zero()
            elif i == j:
                assert c.is_one()


def test_dual_coeff_ET_l():
    for l in (0, 1):
        f = expand(FormExpr.parse(F3, "E_T") ** l, 8)
        assert dual_coeff(f, 0, l).is_one()


def test_dual_coeff_rejects_negative_index():
    f = expand(FormExpr.parse(F3, "E_T"), 8)
    with pytest.raises(ValueError):
        dual_coeff(f, -1, 1)


# ---------------------------------------------------------------------------
# the worked instance q=3, (k, l, N) = (2, 1, 0)


def test_b_vector_worked_example():
    T = Poly.T(F3)
    vec = compute_b_vector(F3, 2, 1, 0, FormExpr.parse(F3, "E_T"))
    assert len(vec.c) == 2
    assert vec.c[0] == RatFunc(-T)
    assert vec.c[1] == RatFunc.constant(F3, -1)


def test_b_vector_annihilates_spanning_form():
    vec = compute_b_vector(F3, 2, 1, 0, FormExpr.parse(F3, "E_T"))
    et = expand(FormExpr.parse(F3, "E_T"), 8)
    assert psi_apply(vec.c, et, 1).is_zero()
    # by hand: -T * a(1) - 1 * a(3) = -T * 1 - (-T) = 0
    assert et.coeff(1).is_one()
    assert et.coeff(3) == RatFunc(-Poly.T(F3))


def test_b_vector_length_contract():
    # output length is r + N + 2
    vec = compute_b_vector(F3, 6, 1, 2, FormExpr.parse(F3, "E_T^3"))
    r = (6 - 2) // 2
    assert len(vec.c) == r + 2 + 2


def test_b_vector_rejects_wrong_weight():
    with pytest.raises(BadWeight):
        compute_b_vector(F3, 2, 1, 0, FormExpr.parse(F3, "E_T^2"))


def test_b_vector_integral_and_supported():
    # coefficients land in F_q[T]; the expansion lives in class 1 - l
    q = F3.q
    for (k, l, N, g) in ((2, 1, 0, "E_T"), (4, 0, 1, "Delta_W"),
                         (4, 1, 1, "Delta_T*E_T")):
        gexpr = FormExpr.parse(F3, g)
        vec = compute_b_vector(F3, k, l, N, gexpr)
        assert all(c.is_integral() for c in vec.c)
        r = (k - 2 * l) // (q - 1)
        expr = (FormExpr.parse(F3, "h") * gexpr
                * FormExpr.parse(F3, "Delta_T") ** (-(r + N + 1))
                * FormExpr.parse(F3, "E_T") ** (-2 * l))
        series = expand(expr, q)
        for e, c in series.terms():
            assert e % (q - 1) == (1 - l) % (q - 1)


# ---------------------------------------------------------------------------
# phi and the kernel oracle


def test_kernel_oracle_worked_example():
    kern = kernel_oracle(F3, 2, 1, 0)
    assert kern.rows == 1
    assert kern.entries[0][0].is_one()
    assert kern.entries[0][1] == RatFunc(Poly.one(F3), Poly.T(F3))


def test_phi_rank_and_span_equality():
    bm = phi(F3, 2, 1, 0)
    assert bmatrix_rank(bm) == 1
    kern = kernel_oracle(F3, 2, 1, 0)
    assert spans_equal(F3, [list(r.c) for r in bm.rows], kern.entries)


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_kernel_rows_are_their_own_echelon_form(ctx):
    # relation_report compares the phi echelon form with these rows as is
    for r, l, N in ((0, 1, 0), (1, 1, 2), (2, 0, 1)):
        kern = kernel_oracle(ctx, r * (ctx.q - 1) + 2 * l, l, N)
        red, piv = Matrix(ctx, kern.entries).rref()
        assert red.entries == kern.entries
        assert len(piv) == kern.rows == N + 1


def test_phi_single_row_for_N0():
    bm = phi(F3, 4, 0, 0)
    assert len(bm.rows) == 1
    assert bm.labels == ("1",)  # weight-0 source space is the constants


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_phi_rows_match_compute_b_vector(ctx):
    # phi reads every row from one block; each row is the one-row read of
    # its monomial, and both are the coefficients read one at a time
    q = ctx.q
    for k, l, N in ((r * (q - 1) + 2 * l, l, N) for l in range(q - 1)
                    for r in range(6) for N in range(4)
                    if r * (q - 1) + 2 * l >= 1):
        bm = phi(ctx, k, l, N)
        monos = basis(ctx, N * (q - 1) + 2 * l, l)
        assert bm.labels == tuple(m.label() for m in monos)
        want = tuple(compute_b_vector(ctx, k, l, N, m.expr(ctx))
                     for m in monos)
        assert bm.rows == want, (k, l, N)
        rN = (k - 2 * l) // (q - 1) + N + 1
        shared = (FormExpr.parse(ctx, "h")
                  * FormExpr.parse(ctx, "Delta_T") ** (-rN)
                  * FormExpr.parse(ctx, "E_T") ** (-2 * l))
        for m, row in zip(monos, want):
            series = expand(shared * m.expr(ctx), q + 1 - l)
            assert row == RelationVector(bm.spec, N, tuple(
                series.coeff(1 - l - i * (q - 1)) for i in range(rN + 1)))


def test_relation_report_shapes():
    rep = relation_report(F3, 4, 1, 1)
    assert rep["report"]["phi_rank"] == 2
    assert rep["report"]["kernel_dim"] == 2
    assert rep["report"]["spans_equal"] is True
    assert rep["report"]["annihilates"] is True
    assert len(rep["phi"]) == 2
    assert all(len(row["b"]) == 4 for row in rep["phi"])


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_relations_small_sweep(ctx):
    # the report's one-route verdict and printed kernel agree with the
    # oracle: the echelon forms of the phi rows and of the left kernel
    for rep in sweep_relations(ctx, r_max=2, n_max=2):
        assert rep["report"]["phi_rank"] == rep["N"] + 1, rep
        assert rep["report"]["kernel_dim"] == rep["N"] + 1, rep
        assert rep["report"]["spans_equal"] is True, rep
        assert rep["report"]["annihilates"] is True, rep
        args = (ctx, rep["k"], rep["l"], rep["N"])
        kern = kernel_oracle(*args)
        assert spans_equal(ctx, [list(row.c) for row in phi(*args).rows],
                           kern.entries) is rep["report"]["spans_equal"]
        assert rep["kernel"] == [[str(x) for x in v]
                                 for v in kern.entries], rep


# ---------------------------------------------------------------------------
# the kernel and the dual matrix


def spaces(ctx, r_max=5):
    for l in range(ctx.q - 1):
        for r in range(r_max + 1):
            k = r * (ctx.q - 1) + 2 * l
            if k >= 1:
                yield r, k, l


def row_times(v, m):
    """The vector v M, entry by entry over F_q(T)."""
    return [sum((v[i] * m.entries[i][c] for i in range(m.rows)),
                RatFunc.constant(m.ctx, 0)) for c in range(m.cols)]


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_kernel_oracle_annihilates_dual_matrix(ctx):
    for r, k, l in spaces(ctx):
        for N in range(4):
            dual = relations._dual_matrix(ctx, k, l, N)
            kern = kernel_oracle(ctx, k, l, N)
            assert kern.rows == N + 1
            # v M = 0
            assert all(x.is_zero() for v in kern.entries
                       for x in row_times(v, dual))


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_dual_matrix_matches_entrywise_reading(ctx, monkeypatch):
    # the block read equals [a_i*(f_j)] built one coefficient at a time,
    # also when basis series carry denominators
    T = Poly.T(ctx)
    real = relations.basis_series
    for scales in ((), (RatFunc(Poly.one(ctx), T + 1),
                        RatFunc(T, T * T + 2))):
        monkeypatch.setattr(relations, "basis_series", lambda *args: [
            f.scale(scales[j]) if j < len(scales) else f
            for j, f in enumerate(real(*args))])
        for r, k, l in spaces(ctx, 2):
            rN = r + 2
            series = relations.basis_series(
                ctx, k, l, rN * (ctx.q - 1) + l + ctx.q)
            want = Matrix(ctx, [[dual_coeff(f, i, l) for f in series]
                                for i in range(rN + 1)])
            dual = relations._dual_matrix(ctx, k, l, 1)
            assert dual == want and dual.entries == want.entries
            # one denominator, the lcm of those of the series
            assert dual.den == functools.reduce(
                lambda a, b: a * (b // a.gcd(b)), (f.den for f in series))
            assert relations._unitriangular(dual, r) == (not scales)


def _perturbed_phi(monkeypatch, bump, every_row=False):
    """relations.phi with the entries c of its last row, or of every row,
    replaced by bump(ctx, c), built as phi builds it: one Matrix."""
    real_phi = relations.phi

    def fake_phi(ctx, k, l, N):
        bm = real_phi(ctx, k, l, N)
        rows = list(bm.matrix.entries)
        for i in range(len(rows)) if every_row else (-1,):
            rows[i] = bump(ctx, rows[i])
        return BMatrix(bm.spec, N, bm.labels, Matrix(ctx, rows))

    monkeypatch.setattr(relations, "phi", fake_phi)


@pytest.mark.parametrize("ctx,k,l,N", ((F3, 4, 1, 1), (F5, 6, 1, 2),
                                       (F9, 18, 1, 1)),
                         ids=("q3", "q5", "q9"))
def test_report_when_a_phi_row_leaves_the_kernel(ctx, k, l, N, monkeypatch):
    # one phi row moved off the kernel: both checks must say so, and the
    # printed kernel comes from the kernel's own echelon form
    _perturbed_phi(monkeypatch,
                   lambda ctx, c: (c[0] + Poly.T(ctx),) + c[1:])
    rep = relation_report(ctx, k, l, N)
    assert rep["report"]["spans_equal"] is False
    assert rep["report"]["annihilates"] is False
    assert rep["report"]["kernel_dim"] == N + 1
    assert rep["kernel"] == [[str(x) for x in v]
                             for v in kernel_oracle(ctx, k, l, N).entries]


@pytest.mark.parametrize("ctx,k,l,N", ((F3, 4, 1, 1), (F5, 6, 1, 2),
                                       (F9, 18, 1, 1)),
                         ids=("q3", "q5", "q9"))
def test_report_when_a_phi_row_is_not_integral(ctx, k, l, N, monkeypatch):
    # a 1/T entry gives the phi rows a denominator: the span and
    # annihilation checks run over it, and the printed kernel is the
    # kernel's own echelon form
    _perturbed_phi(monkeypatch, lambda ctx, c: (
        c[0] + RatFunc(Poly.one(ctx), Poly.T(ctx)),) + c[1:])
    rep = relation_report(ctx, k, l, N)
    assert rep["report"]["spans_equal"] is False
    assert rep["report"]["annihilates"] is False
    assert rep["report"]["phi_rank"] == rep["report"]["kernel_dim"] == N + 1
    assert rep["kernel"] == [[str(x) for x in v]
                             for v in kernel_oracle(ctx, k, l, N).entries]
    assert any("/" in b for b in rep["phi"][-1]["b"])


@pytest.mark.parametrize("ctx,k,l,N", ((F3, 4, 1, 1), (F5, 6, 1, 2),
                                       (F9, 18, 1, 1)),
                         ids=("q3", "q5", "q9"))
def test_report_over_a_dual_matrix_with_a_denominator(ctx, k, l, N,
                                                      monkeypatch):
    # the last row of M divided by T + 1 and the last coordinate of every
    # phi row multiplied by it: the same relations, now with the kernel,
    # span and annihilation checks over a common denominator
    f = RatFunc(Poly.T(ctx) + 1)
    real_dual, real_phi = relations._dual_matrix, relations.phi

    def fake_dual(*args):
        rows = [list(row) for row in real_dual(*args).entries]
        rows[-1] = [x / f for x in rows[-1]]
        return Matrix(ctx, rows)

    monkeypatch.setattr(relations, "_dual_matrix", fake_dual)
    _perturbed_phi(monkeypatch, lambda ctx, c: c[:-1] + (c[-1] * f,),
                   every_row=True)
    rep = relation_report(ctx, k, l, N)
    assert rep["report"] == {"phi_rank": N + 1, "kernel_dim": N + 1,
                             "spans_equal": True, "annihilates": True}
    assert rep["kernel"] == [[str(x) for x in v]
                             for v in kernel_oracle(ctx, k, l, N).entries]
    # and a phi row that no longer matches is seen over the denominator
    monkeypatch.setattr(relations, "phi", real_phi)
    rep = relation_report(ctx, k, l, N)
    assert not rep["report"]["spans_equal"]
    assert not rep["report"]["annihilates"]


def test_report_when_phi_loses_rank(monkeypatch):
    # a zero phi row still annihilates, but spans no longer agree
    _perturbed_phi(monkeypatch,
                   lambda ctx, c: (RatFunc.constant(ctx, 0),) * len(c))
    rep = relation_report(F5, 6, 1, 2)
    assert rep["report"]["phi_rank"] == 2
    assert rep["report"]["spans_equal"] is False
    assert rep["report"]["annihilates"] is True
    assert rep["kernel"] == [[str(x) for x in v]
                             for v in kernel_oracle(F5, 6, 1, 2).entries]


@pytest.mark.parametrize("i,c,value", ((1, 1, 2), (0, 1, 1), (1, 0, "1/T")),
                         ids=("diagonal", "above", "non-integral"))
def test_non_unitriangular_dual_raises(i, c, value, monkeypatch):
    dual = relations._dual_matrix(F3, 4, 1, 1)
    entries = [list(row) for row in dual.entries]
    entries[i][c] = (RatFunc(Poly.one(F3), Poly.T(F3)) if value == "1/T"
                     else RatFunc.constant(F3, value))
    bad = Matrix(F3, entries)
    # relation_report raises, with no fallback to elimination
    monkeypatch.setattr(relations, "_dual_matrix", lambda *args: bad)
    with pytest.raises(NotUnitriangular):
        relation_report(F3, 4, 1, 1)


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_unitriangular_over_a_common_denominator(ctx):
    # the top rows are read over the one denominator of M: integral when
    # it comes only from a row below r, not when a top entry needs it
    r, k, l = 2, 2 * (ctx.q - 1) + 2, 1
    rows = [list(row) for row in relations._dual_matrix(ctx, k, l, 1).entries]
    f = RatFunc(Poly.T(ctx) + 1)
    low = Matrix(ctx, rows[:-1] + [[x / f for x in rows[-1]]])
    assert not low.den.is_one()
    assert relations._unitriangular(low, r) is True
    rows[1][0] = rows[1][0] + RatFunc(Poly.one(ctx), Poly.T(ctx))
    assert relations._unitriangular(Matrix(ctx, rows), r) is False


@pytest.mark.parametrize("ctx", (F3, F5, F9), ids=lambda c: f"q{c.q}")
def test_successful_report_runs_one_rref(ctx, monkeypatch):
    calls = []
    real_rref = Matrix.rref

    def counted(self):
        calls.append(self.rows)
        return real_rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    rep = relation_report(ctx, 3 * (ctx.q - 1) + 2, 1, 2)
    assert rep["report"]["spans_equal"] is True
    assert calls == [3]


# ---------------------------------------------------------------------------
# the type-l / type-0 comparison


def corollary_iso_check(ctx, k, l, N):
    """Compare the relation-space dimensions for type l and type 0.

    The spaces attached to (k, l) and (k - 2l, 0) are isomorphic; both
    kernels must have dimension N + 1.
    """
    if space_dim(ctx, k, l) == 0:
        raise EmptySpace(f"M_{{{k},{l}}} is zero over F_{ctx.q}")
    k0 = k - 2 * l
    if k0 < 0 or space_dim(ctx, k0, 0) == 0:
        raise EmptySpace(f"M_{{{k0},0}} is zero over F_{ctx.q}")
    dim_l = kernel_oracle(ctx, k, l, N).rows
    dim_0 = kernel_oracle(ctx, k0, 0, N).rows
    return {
        "q": ctx.q,
        "k": k,
        "l": l,
        "N": N,
        "dim_type_l": dim_l,
        "dim_type_0": dim_0,
        "expected": N + 1,
        "equal": dim_l == dim_0 == N + 1,
    }


def test_iso_check_examples():
    rep = corollary_iso_check(F3, 4, 1, 0)
    assert rep["equal"] is True
    assert rep["dim_type_l"] == rep["dim_type_0"] == 1
    # k = 2l with l > 0: the type-0 side is the weight-0 constants
    rep = corollary_iso_check(F3, 2, 1, 0)
    assert rep["equal"] is True


def test_iso_check_grid():
    for l in (0, 1):
        for k in range(1, 13):
            if (k - 2 * l) % 2 or k - 2 * l < 0:
                continue
            for N in range(4):
                rep = corollary_iso_check(F3, k, l, N)
                assert rep["equal"] is True, rep


def test_iso_check_empty_space():
    with pytest.raises(EmptySpace):
        corollary_iso_check(F3, 3, 1, 0)
