"""Closed-form lasso values for families of embedded projective varieties.

Three entry points, all exact:

* ``generic_surface_lasso`` takes the four classical invariants of an
  embedded surface (signature, Euler characteristic, degree, section genus)
  and returns the discriminant degree together with the value of the Meyer
  function on a lasso around the discriminant.
* ``ci_surface_invariants`` computes those invariants for a smooth complete
  intersection surface of multidegree (n_1, ..., n_m) and feeds the same
  formula.
* ``veronese_ci_lasso`` handles the degree-d Veronese image of a complete
  intersection of dimension n, reporting the lasso value as a ratio
  alpha/beta of the two displayed closed forms.

The two routes agree on their common domain (d = 1, n = 2), which the test
suite checks exhaustively for small multidegrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .errors import (
    ContractViolation,
    ExcludedCase,
    GenusZero,
    InvalidInput,
    NegativeGenus,
    NonIntegralGenus,
    NonPositiveDegDX,
    UnknownName,
)
from .exactnum import parse_integer


@dataclass(frozen=True)
class SurfaceInvariants:
    """Topological data of an embedded surface."""

    sign: int
    chi: int
    deg: int
    genus: int

    def __post_init__(self):
        if self.deg < 1:
            raise InvalidInput(f"degree must be >= 1, got {self.deg}")
        if self.genus < 0:
            raise InvalidInput(f"genus must be >= 0, got {self.genus}")


@dataclass(frozen=True)
class LassoReport:
    """Discriminant degree and lasso value; alpha/beta filled on the
    closed-form routes, where phi = alpha / beta."""

    deg_DX: int
    phi: Fraction
    alpha: Fraction | None = None
    beta: int | None = None

    def __post_init__(self):
        if self.deg_DX < 1:
            raise NonPositiveDegDX(f"deg D_X = {self.deg_DX} is not positive")
        if self.alpha is not None and self.beta is not None:
            if Fraction(self.alpha, self.beta) != self.phi:
                raise ContractViolation("alpha/beta does not reduce to phi")


@dataclass(frozen=True)
class CISpec:
    """Combinatorial description of a Veronese-embedded complete intersection.

    m defining degrees (each >= 2), ambient-slice dimension n >= 2, Veronese
    degree d >= 1. m = 0 stands for projective space itself and requires
    d >= 2. The tuples on which the closed formulas degenerate are rejected:
    (d, m, degrees) = (1, 1, (2,)) and (n, d, m) = (2, 2, 0).
    """

    m: int
    degrees: tuple[int, ...]
    n: int = 2
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(x) for x in self.degrees))
        if self.m != len(self.degrees):
            raise InvalidInput(
                f"m = {self.m} but {len(self.degrees)} degrees supplied"
            )
        if self.m < 0:
            raise InvalidInput("m must be >= 0")
        if any(x < 2 for x in self.degrees):
            raise InvalidInput(f"defining degrees must be >= 2, got {self.degrees}")
        if self.n < 2:
            raise InvalidInput(f"dimension must be >= 2, got {self.n}")
        if self.d < 1:
            raise InvalidInput(f"Veronese degree must be >= 1, got {self.d}")
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
    if inv.genus < 1:
        raise GenusZero("section genus must be positive")
    deg_dx = inv.chi + inv.deg - 2 * (2 - 2 * inv.genus)
    if deg_dx <= 0:
        raise NonPositiveDegDX(
            f"chi + deg - 2(2-2g) = {deg_dx}; the discriminant is not a hypersurface"
        )
    return LassoReport(deg_dx, Fraction(inv.sign - inv.deg, deg_dx))


def ci_surface_invariants(
    m: int, degrees: tuple[int, ...] | list[int]
) -> tuple[SurfaceInvariants, LassoReport]:
    """Invariants and lasso value of a complete intersection surface.

    All five closed forms are evaluated exactly: degree, Euler
    characteristic, signature, section genus, and the discriminant degree
    prod(n_i) * ((m^2+m)/2 + sum n_i^2 - (m+1) sum n_i + sum_{i<j} n_i n_j).
    """
    spec = CISpec(m, tuple(degrees), n=2, d=1)  # validates, m >= 1 here
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
    beta = (m * m + m) // 2 + s2 - (m + 1) * s1 + e2
    deg_dx = deg * beta
    if deg_dx <= 0:
        raise NonPositiveDegDX(f"deg D_X = {deg_dx} is not positive")
    alpha = Fraction(m - s2, 3)
    report = LassoReport(deg_dx, Fraction(m - s2, 3 * beta), alpha, beta)
    return SurfaceInvariants(sign, chi, deg, genus), report


def veronese_ci_lasso(spec: CISpec) -> LassoReport:
    """Lasso value for the degree-d Veronese image of a complete intersection.

    alpha = (m + n + 1 - sum n_i^2 - (n+1) d^2) / 3 and beta is the companion
    closed form; phi = alpha / beta and
    deg D_X = prod(n_i) * d^(n-2) * beta.
    """
    s1, s2, e2 = _sym_sums(spec.degrees)
    m, n, d = spec.m, spec.n, spec.d
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


def hyperplane_genus(c1_dot_h: int, deg: int) -> int:
    """Genus of a generic hyperplane section from adjunction data.

    2 - 2g = <c_1 h, [X]> - deg X, so g = (2 - c1_dot_h + deg) / 2.
    """
    if deg < 1:
        raise InvalidInput(f"degree must be >= 1, got {deg}")
    chi_section = c1_dot_h - deg
    if chi_section % 2 != 0:
        raise NonIntegralGenus(f"c1.h - deg = {chi_section} is odd")
    g = (2 - chi_section) // 2
    if g < 0:
        raise NegativeGenus(f"genus {g} < 0")
    return g


def stratum_codim(i: int) -> tuple[int, int]:
    """Codimension i^2 - i of the i-th degeneracy stratum, and the dimension
    correction term i - i^2 for the fibers over the Grassmannian."""
    if i < 1:
        raise InvalidInput(f"stratum index must be >= 1, got {i}")
    return i * i - i, i - i * i


SEGRE33 = SurfaceInvariants(sign=0, chi=4, deg=18, genus=4)
"""The bidegree (3,3) image of the quadric surface: the built-in genus-4
family, with its four invariants supplied as data."""

VERONESE_P4_D2 = CISpec(m=0, degrees=(), n=4, d=2)
"""The degree-2 Veronese image of 4-dimensional projective space: the
built-in genus-5 family."""


@dataclass(frozen=True)
class PresetReport:
    name: str
    invariants: SurfaceInvariants | None
    report: LassoReport


def named_presets() -> tuple[str, ...]:
    return ("segre33", "veronese-p4-d2")


def resolve_preset(name: str) -> PresetReport:
    """Look up a named preset or parse a "ci:..." / "veronese-ci:..." key.

    Keys: "ci:<m>:<n1,...>" and "veronese-ci:<m>:<degrees>:<n>:<d>".
    """
    if name == "segre33":
        return PresetReport(name, SEGRE33, generic_surface_lasso(SEGRE33))
    if name == "veronese-p4-d2":
        return PresetReport(name, None, veronese_ci_lasso(VERONESE_P4_D2))
    if name.startswith("ci:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise InvalidInput(f"expected ci:<m>:<n1,...>, got {name!r}")
        m = _parse_int(parts[1])
        degrees = parse_degrees(parts[2])
        inv, report = ci_surface_invariants(m, degrees)
        return PresetReport(name, inv, report)
    if name.startswith("veronese-ci:"):
        parts = name.split(":")
        if len(parts) != 5:
            raise InvalidInput(
                f"expected veronese-ci:<m>:<degrees>:<n>:<d>, got {name!r}"
            )
        m = _parse_int(parts[1])
        degrees = parse_degrees(parts[2])
        n = _parse_int(parts[3])
        d = _parse_int(parts[4])
        return PresetReport(name, None, veronese_ci_lasso(CISpec(m, degrees, n, d)))
    raise UnknownName(f"unknown preset {name!r}")


def _parse_int(token: str) -> int:
    try:
        return parse_integer(token)
    except ValueError as exc:
        raise InvalidInput(f"bad integer {token!r}") from exc


def parse_degrees(token: str) -> tuple[int, ...]:
    """Comma-separated integers; a blank string is the empty list (m = 0)."""
    if token.strip() == "":
        return ()
    return tuple(_parse_int(t) for t in token.split(","))
