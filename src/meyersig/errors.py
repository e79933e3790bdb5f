"""Exception hierarchy shared by all modules.

Two branches matter to callers: ``InvalidInput`` covers bad arguments and
malformed files (CLI exit code 2), ``ContractViolation`` covers computations
that break a documented guarantee (CLI exit code 3).
"""


class MeyerSigError(Exception):
    pass


class InvalidInput(MeyerSigError):
    """Caller-supplied data violates a precondition."""


class ContractViolation(MeyerSigError):
    """A guarantee the computation relies on failed to hold."""


class MatrixFormatError(InvalidInput):
    """Matrix text or entry data is malformed."""


class ZeroVector(InvalidInput):
    """A transvection direction must be nonzero."""


class NotUnimodular(InvalidInput):
    """2x2 integer matrix with determinant != 1."""


class NotSymplectic(InvalidInput):
    """Matrix does not preserve the standard alternating form."""


class GenusMismatch(InvalidInput):
    """Cocycle arguments must share the same genus."""


class ExcludedCase(InvalidInput):
    """The requested variety is outside the range of the closed formulas."""


class UnknownName(InvalidInput):
    """No germ or preset registered under the given name."""


class ZeroOrManyUnknowns(ContractViolation):
    """Solving a fibration needs exactly one germ with unknown signature."""


class IncompleteLedger(ContractViolation):
    """Checking a fibration needs every local signature to be known."""


class AsymmetricGram(ContractViolation):
    """A Gram matrix that must be symmetric is not; the basis does not span
    an isotropic-compatible subspace or there is a bug upstream."""


class InconsistentRelations(ContractViolation):
    """The relation-derived linear system for the base cochain values has no
    consistent solution; signals a cocycle implementation bug."""


class NonPositiveDegDX(ContractViolation):
    """The computed discriminant degree is not positive, violating the
    hypersurface hypothesis."""


class GenusZero(ContractViolation):
    """The generic-section formula requires positive section genus."""
