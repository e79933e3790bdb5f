"""Exact computation of Meyer's signature cocycle, the Meyer function on
SL(2,Z), lasso values for embedded projective varieties, and local
signatures of fiber germs of fibered 4-manifolds.

All arithmetic is exact rational; every public value is an ``int`` or a
``fractions.Fraction``. Public names load their module on first use, and
stay in the package's namespace after it.
"""

_EXPORTS = {
    "errors": (
        "AsymmetricGram", "ContractViolation", "ExcludedCase", "GenusMismatch", "GenusZero",
        "IncompleteLedger", "InconsistentRelations", "InvalidInput", "MatrixFormatError",
        "MeyerSigError", "NonPositiveDegDX", "NotSymplectic", "NotUnimodular", "UnknownName",
        "ZeroOrManyUnknowns", "ZeroVector",
    ),
    "exactnum": (
        "gram_restrict", "kernel_basis", "parse_matrix", "signature_symmetric",
    ),
    "symplectic": (
        "SL2Word", "SymplecticElement", "direct_sum", "gen_S", "gen_T",
        "random_transvection_product", "sl2_word", "transvection",
    ),
    "meyer": (
        "PhiBase", "phi1", "phi1_base", "phi1_word", "tau", "tau_cocycle_defect", "tau_form",
    ),
    "varieties": (
        "CISpec", "LassoReport", "PresetReport", "SurfaceInvariants", "ci_surface_invariants",
        "generic_surface_lasso", "lasso_power", "named_presets", "resolve_preset",
        "veronese_ci_lasso",
    ),
    "localsig": (
        "ComplexSurfaceData", "FiberGerm", "FibrationLedger", "FibrationReport", "LedgerEntry",
        "check_fibration", "fiber_count", "germ", "germ_sigma", "ledger", "ledger_from_json",
        "ledger_from_obj", "solve_unknown_germ", "surface_topology",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
