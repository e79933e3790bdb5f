"""Closed-form lasso values for families of embedded projective varieties.

Four entry points, all exact:

* ``generic_surface_lasso`` takes the four classical invariants of an
  embedded surface (signature, Euler characteristic, degree, section genus)
  and returns the discriminant degree together with the value of the Meyer
  function on a lasso around the discriminant.
* ``ci_surface_invariants`` computes those invariants for a smooth complete
  intersection surface of multidegree (n_1, ..., n_m), with the lasso value
  of ``veronese_ci_lasso`` at n = 2, d = 1.
* ``veronese_ci_lasso`` handles the degree-d Veronese image of a complete
  intersection of dimension n, reporting the lasso value as a ratio
  alpha/beta of the two displayed closed forms.
* ``lasso_power`` turns the value on a lasso into the value on its n-th
  power.

For small multidegrees the test suite checks exhaustively that the lasso
value of ``ci_surface_invariants`` is what ``generic_surface_lasso`` gives on
its invariants.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, log10, prod

from ._record import Record
from .errors import (
    ContractViolation,
    ExcludedCase,
    GenusZero,
    InvalidInput,
    NonPositiveDegDX,
    UnknownName,
)
from .exactnum import _int_arg, _kind_arg, _numeral_arg, _rational_arg, _shown, _too_large, parse_integer


class SurfaceInvariants(Record):
    """Topological data of an embedded surface."""

    __slots__ = ("sign", "chi", "deg", "genus")

    def _check(self):
        for name, low in (("sign", None), ("chi", None), ("deg", 1), ("genus", 0)):
            _int_arg(getattr(self, name), name, low)


class LassoReport(Record):
    """Discriminant degree and lasso value; alpha/beta filled on the
    closed-form routes, where phi = alpha / beta. A deg D_X below 1 is a
    ``NonPositiveDegDX``; a beta, if given, must be an int >= 1."""

    __slots__ = ("deg_DX", "phi", "alpha", "beta")
    _defaults = {"alpha": None, "beta": None}

    def _check(self):
        if _int_arg(self.deg_DX, "deg_DX") < 1:
            raise NonPositiveDegDX(f"deg D_X = {_shown(self.deg_DX)} is not positive")
        _rational_arg(self.phi, "phi")
        if self.alpha is not None:
            _rational_arg(self.alpha, "alpha")
        if self.beta is not None:
            _int_arg(self.beta, "beta", 1)
        if self.alpha is not None and self.beta is not None:
            if Fraction(self.alpha, self.beta) != self.phi:
                raise ContractViolation("alpha/beta does not reduce to phi")


class CISpec(Record):
    """Combinatorial description of a Veronese-embedded complete intersection.

    m >= 0 defining degrees (each >= 2), ambient-slice dimension n >= 2 and
    Veronese degree d >= 1, else ``InvalidInput`` naming the field. m = 0
    stands for projective space itself and requires d >= 2. The tuples on
    which the closed formulas degenerate are ``ExcludedCase``s: m = 0 with
    d = 1, (d, m, degrees) = (1, 1, (2,)) and (n, d, m) = (2, 2, 0).
    """

    __slots__ = ("m", "degrees", "n", "d")
    _defaults = {"n": 2, "d": 1}

    def _check(self):
        for name, low in (("m", None), ("n", 2), ("d", 1)):
            _int_arg(getattr(self, name), name, low)
        try:
            degrees = tuple(self.degrees)
        except TypeError as exc:
            kind = type(self.degrees).__name__
            raise InvalidInput(f"degrees must be iterable, got {kind}") from exc
        object.__setattr__(self, "degrees", tuple(_int_arg(x, "degree", 2) for x in degrees))
        if self.m != len(self.degrees):
            raise InvalidInput(
                f"m = {_shown(self.m)} but {len(self.degrees)} degrees supplied"
            )
        if self.m == 0 and self.d < 2:
            raise ExcludedCase("m = 0 requires Veronese degree d >= 2")
        if self.d == 1 and self.m == 1 and self.degrees == (2,):
            raise ExcludedCase("a single quadric with d = 1 is excluded")
        if (self.n, self.d, self.m) == (2, 2, 0):
            raise ExcludedCase("(n, d, m) = (2, 2, 0) is excluded")


def _sym_sums(degrees: tuple[int, ...]) -> tuple[int, int, int]:
    s1 = sum(degrees)
    s2 = sum(x * x for x in degrees)
    e2 = (s1 * s1 - s2) // 2
    return s1, s2, e2


def generic_surface_lasso(inv: SurfaceInvariants) -> LassoReport:
    """Lasso value for a generic embedded surface with positive section genus.

    deg D_X = chi + deg - 2(2 - 2g) and phi = (sign - deg) / deg D_X.
    """
    if _kind_arg(inv, SurfaceInvariants, "invariants").genus < 1:
        raise GenusZero("section genus must be positive")
    deg_dx = inv.chi + inv.deg - 2 * (2 - 2 * inv.genus)
    if deg_dx <= 0:
        raise NonPositiveDegDX(
            f"chi + deg - 2(2-2g) = {_shown(deg_dx)}; the discriminant is not a hypersurface"
        )
    return LassoReport(deg_dx, Fraction(inv.sign - inv.deg, deg_dx))


def ci_surface_invariants(
    m: int, degrees: tuple[int, ...] | list[int]
) -> tuple[SurfaceInvariants, LassoReport]:
    """Invariants and lasso value of a complete intersection surface.

    The four invariants are evaluated exactly from their closed forms:
    degree, Euler characteristic, signature and section genus. The lasso
    value is ``veronese_ci_lasso`` at n = 2, d = 1; m < 1 is an ``ExcludedCase``.
    """
    if _int_arg(m, "m") < 1:
        raise ExcludedCase(f"m = {_shown(m)} is excluded: a surface needs m >= 1 degrees")
    spec = CISpec(m, degrees, n=2, d=1)
    s1, s2, e2 = _sym_sums(spec.degrees)
    deg = prod(spec.degrees)
    chi = deg * (comb(m + 3, 2) + s2 - (m + 3) * s1 + e2)
    sign3 = deg * (m + 3 - s2)
    if sign3 % 3 != 0:
        raise ContractViolation("signature formula did not produce an integer")
    sign = sign3 // 3
    chi_section = deg * (m + 2 - s1)
    if chi_section % 2 != 0:
        raise ContractViolation("section Euler characteristic is odd")
    genus = (2 - chi_section) // 2
    if genus < 1:
        raise GenusZero(f"section genus {genus} for degrees {spec.degrees}")
    return SurfaceInvariants(sign, chi, deg, genus), veronese_ci_lasso(spec)


def veronese_ci_lasso(spec: CISpec) -> LassoReport:
    """Lasso value for the degree-d Veronese image of a complete intersection.

    alpha = (m + n + 1 - sum n_i^2 - (n+1) d^2) / 3 and beta is the companion
    closed form; phi = alpha / beta and
    deg D_X = prod(n_i) * d^(n-2) * beta. A d^(n-2) whose decimal form alone
    is past the interpreter's digit limit (0: no limit) raises
    ``InvalidInput`` before it is computed.
    """
    s1, s2, e2 = _sym_sums(_kind_arg(spec, CISpec, "spec").degrees)
    m, n, d = spec.m, spec.n, spec.d
    limit = sys.get_int_max_str_digits()
    if limit and d > 1 and n - 2 >= limit / log10(d):
        raise _too_large()
    alpha = Fraction(m + n + 1 - s2 - (n + 1) * d * d, 3)
    beta = (
        comb(m + n + 1, 2)
        + s2
        + e2
        - (m + n + 1) * (s1 + n * d)
        + n * d * s1
        + (n * n + n) * d * d // 2
    )
    if beta <= 0:
        raise NonPositiveDegDX(f"beta = {beta} is not positive")
    deg_dx = prod(spec.degrees) * d ** (n - 2) * beta
    return LassoReport(deg_dx, alpha / beta, alpha, beta)


def lasso_power(phi_sigma: Fraction | int | str, n: int) -> Fraction:
    """Value on the n-th power of a lasso: n * phi(sigma) + (n - 1).

    Valid whenever consecutive powers pair to cocycle value -1, which is the
    case for the monodromy of a lasso (a power of a single transvection).
    A string ``phi_sigma`` is read as a rational.
    """
    _int_arg(n, "power", 1)
    return _numeral_arg(phi_sigma, "phi") * n + (n - 1)


SEGRE33 = SurfaceInvariants(sign=0, chi=4, deg=18, genus=4)
"""The bidegree (3,3) image of the quadric surface: the built-in genus-4
family, with its four invariants supplied as data."""

VERONESE_P4_D2 = CISpec(m=0, degrees=(), n=4, d=2)
"""The degree-2 Veronese image of 4-dimensional projective space: the
built-in genus-5 family."""


class PresetReport(Record):
    """A named preset: its invariants (None on the Veronese route) and its lasso value."""

    __slots__ = ("name", "invariants", "report")

    def _check(self):
        _kind_arg(self.name, str, "name")
        if self.invariants is not None:
            _kind_arg(self.invariants, SurfaceInvariants, "invariants")
        _kind_arg(self.report, LassoReport, "report")


def named_presets() -> tuple[str, ...]:
    return ("segre33", "veronese-p4-d2")


def resolve_preset(name: str) -> PresetReport:
    """Look up a named preset."""
    if name == "segre33":
        return PresetReport(name, SEGRE33, generic_surface_lasso(SEGRE33))
    if name == "veronese-p4-d2":
        return PresetReport(name, None, veronese_ci_lasso(VERONESE_P4_D2))
    raise UnknownName(f"unknown preset {_shown(name)}")


def parse_degrees(token: str) -> tuple[int, ...]:
    """Comma-separated integers; a blank string is the empty list (m = 0)."""
    if token.strip() == "":
        return ()
    return tuple(map(parse_integer, token.split(",")))
