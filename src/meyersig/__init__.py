"""Exact computation of Meyer's signature cocycle, the Meyer function on
SL(2,Z), lasso values for embedded projective varieties, and local
signatures of fiber germs of fibered 4-manifolds.

All arithmetic is exact rational; every public value is an ``int`` or a
``fractions.Fraction``.
"""

from .errors import (
    AsymmetricGram,
    ContractViolation,
    ExcludedCase,
    GenusMismatch,
    GenusZero,
    IncompleteLedger,
    InconsistentRelations,
    InvalidInput,
    MatrixFormatError,
    MeyerSigError,
    NegativeGenus,
    NonIntegralGenus,
    NonPositiveDegDX,
    NotSymplectic,
    NotUnimodular,
    SmoothGermNonzero,
    UnknownName,
    ZeroOrManyUnknowns,
    ZeroVector,
)
from .exactnum import (
    RatMatrix,
    SymmetricForm,
    gram_restrict,
    kernel_basis,
    parse_matrix,
    signature_symmetric,
)
from .symplectic import (
    SL2Word,
    SymplecticElement,
    direct_sum,
    gen_S,
    gen_T,
    random_transvection_product,
    sl2_word,
    transvection,
)
from .meyer import (
    PhiBase,
    lasso_power,
    phi1,
    phi1_base,
    phi1_word,
    tau,
    tau_cocycle_defect,
    tau_form,
)
from .varieties import (
    CISpec,
    LassoReport,
    PresetReport,
    SurfaceInvariants,
    ci_surface_invariants,
    generic_surface_lasso,
    hyperplane_genus,
    named_presets,
    resolve_preset,
    stratum_codim,
    veronese_ci_lasso,
)
from .localsig import (
    ComplexSurfaceData,
    FiberGerm,
    FibrationLedger,
    FibrationReport,
    LedgerEntry,
    check_fibration,
    fiber_count,
    germ,
    germ_sigma,
    holomorphic_from_topology,
    ledger,
    ledger_from_json,
    ledger_from_obj,
    ledger_to_json,
    ledger_to_obj,
    smooth_germ_check,
    solve_unknown_germ,
    surface_topology,
)

__version__ = "0.1.0"
