"""Exact u-series arithmetic for Drinfeld modular forms of level
Gamma_0(T) over A = F_q[T]: named generators, coefficient congruences
modulo T^(q^d) - T, and the space of linear relations among initial
u-coefficients."""

from .carlitz import (
    CarlitzMap,
    carlitz_map,
    monic_power_sum,
    monic_series_sum,
    monics,
    u_sub_a,
)
from .congruence import (
    CONGRUENT_ZERO,
    EXACT_ZERO,
    FAIL,
    CongruenceWitness,
    build_residue_form,
    check_congruence,
    check_corollary,
    find_ab,
    residue_normalized,
    sweep_congruence,
    sweep_residues,
)
from .errors import (
    BadDegree,
    BadPair,
    BadWeight,
    DivisionByZero,
    DivisionNotExact,
    DrinfeldError,
    EmptySpace,
    ExprError,
    HypothesisViolated,
    MixedField,
    NonIntegralCoefficient,
    NotMonic,
    NotOddPrime,
    NotUnitriangular,
    PrecisionExceeded,
    ZeroInput,
    ZeroSeries,
)
from .fieldpoly import (
    NEG_INF,
    FieldCtx,
    FqElem,
    Matrix,
    Poly,
    RatFunc,
    left_kernel,
    make_field,
    poly_parse,
    ratfunc_parse,
    special_modulus,
)
from .forms import (
    BasisMonomial,
    FormExpr,
    FormSpec,
    basis,
    basis_series,
    build_DeltaT,
    build_DeltaT_from_monic_sum,
    build_DeltaW,
    build_E,
    build_ET,
    build_g1,
    build_h,
    clear_form_cache,
    expand,
    get_form,
    get_form_power,
    space_dim,
)
from .relations import (
    BMatrix,
    RelationVector,
    compute_b_vector,
    kernel_oracle,
    phi,
    relation_report,
    spans_equal,
    sweep_relations,
)
from .selftest import run_selftest
from .useries import USeries

__version__ = "0.1.0"
