"""The signature 2-cocycle on Sp(2g,Z) and its cobounding function on SL(2,Z).

``tau`` evaluates the cocycle on a pair (A1, A2) as the signature of an
explicit symmetric bilinear form: the pairing

    <(x, y), (x', y')> = (x + y)^t J (I - A2) y'

restricted to the solution space of (A1^{-1} - I) x + (A2 - I) y = 0 inside
R^{2g} + R^{2g}. Everything is exact; the basis choice cannot affect the
result, by Sylvester's law of inertia.

``phi1`` is the unique rational 1-cochain on SL(2,Z) whose coboundary
phi(x) - phi(xy) + phi(y) equals tau at genus 1. Its values on the
generators are *solved* from the group relations S^4 = I and (ST)^6 = I
rather than hard-coded (``phi1_base``), and ``phi1_word`` derives its value
on any word by folding tau along it. ``phi1`` itself evaluates the closed
form -Phi/3 + eps, with Rademacher's integer function Phi (Atiyah 1987, "The
logarithm of the Dedekind eta-function"; Kirby-Melvin 1994, "Dedekind sums,
mu-invariants and the signature cocycle") folded in ints inside the
Euclidean reduction of its argument, so it evaluates no tau; once per
process the closed form is checked against the solved generator values, so
every number stays traceable to the cocycle.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from fractions import Fraction
from operator import mul

from ._record import Record
from .errors import (
    ContractViolation,
    GenusMismatch,
    InconsistentRelations,
    InvalidInput,
    MatrixFormatError,
)
from .exactnum import _gram, _kernel, _rational_arg, _signature
from .symplectic import (
    IntMatrix,
    SL2Word,
    SymplecticElement,
    _sign,
    _sl2_reduce,
    _syllable,
    gen_S,
    gen_T,
)


def _minus_identity(m: IntMatrix) -> IntMatrix:
    return tuple(row[:i] + (row[i] - 1,) + row[i + 1 :] for i, row in enumerate(m))


def _elements(*els: SymplecticElement) -> None:
    """Refuse an argument of tau that is not a SymplecticElement, naming its type."""
    for el in els:
        if not isinstance(el, SymplecticElement):
            raise InvalidInput(f"tau takes SymplecticElements, got {type(el).__name__}")


def tau_form(a1: SymplecticElement, a2: SymplecticElement) -> IntMatrix:
    """The Gram matrix, as int rows, of a symmetric form whose signature is
    tau(a1, a2).

    The form is Meyer's pairing on the kernel V less its radical vectors of
    two kinds, (x | 0) with A1 x = x and (0 | y) with A2 y = y: the Gram has
    one row per kernel basis vector with both halves nonzero. The (x | 0)
    vectors, of the free columns in the A1^-1 - I half, are never built;
    every other x lies on that half's pivot columns, so x = 0 exactly when
    u = (A2 - I) y = 0, and the pairing's J (I - A2) y is (-u[g:], u[:g]).
    A radical moves no signature, nor does the choice of basis.
    """
    _elements(a1, a2)
    if a1.g != a2.g:
        raise GenusMismatch(f"genus {a1.g} vs {a2.g}")
    left = _minus_identity(a1.inverse().mat)
    right = _minus_identity(a2.mat)
    n, g = len(right), a1.g
    # the rows of [(A1^-1 - I) | (A2 - I)], built from validated elements
    kernel = _kernel([list(a + b) for a, b in zip(left, right)], 2 * n, n)
    basis = [v for v in kernel if any(v[:n])]  # less the vectors (0 | y)
    us = [[sum(map(mul, row, v[n:])) for row in right] for v in basis]
    sums = [[a + b for a, b in zip(v, v[n:])] for v in basis]
    return _gram(sums, [[-x for x in u[g:]] + u[:g] for u in us])


def tau(a1: SymplecticElement, a2: SymplecticElement) -> int:
    """Value of the signature cocycle on a pair of same-genus elements."""
    value = _signature(tau_form(a1, a2))
    if abs(value) > 4 * a1.g:
        raise ContractViolation(f"|tau| = {abs(value)} exceeds 4g = {4 * a1.g}")
    return value


def tau_cocycle_defect(
    a1: SymplecticElement, a2: SymplecticElement, a3: SymplecticElement
) -> int:
    """tau(a1,a2) + tau(a1*a2,a3) - tau(a2,a3) - tau(a1,a2*a3); always 0."""
    _elements(a1, a2, a3)
    if not (a1.g == a2.g == a3.g):
        raise GenusMismatch(f"genera {a1.g}, {a2.g}, {a3.g}")
    return (
        tau(a1, a2) + tau(a1 * a2, a3) - tau(a2, a3) - tau(a1, a2 * a3)
    )


class PhiBase(Record):
    """Values of the genus-1 cobounding function on the generators S and T."""

    __slots__ = ("phi_S", "phi_T")

    def _check(self):
        for name in self.__slots__:
            _rational_arg(getattr(self, name), name)


def _relator_tau_sum(letters: list[str]) -> int:
    """Sum of tau(g_1..g_i, g_{i+1}) along a relator word; checks it closes."""
    elements = {"S": gen_S(), "T": gen_T()}
    prefix = elements[letters[0]]
    total = 0
    for ch in letters[1:]:
        nxt = elements[ch]
        total += tau(prefix, nxt)
        prefix = prefix * nxt
    if prefix != SymplecticElement.identity(1):
        raise InconsistentRelations(f"word {''.join(letters)} is not a relator")
    return total


@functools.cache
def phi1_base() -> PhiBase:
    """Solve for phi(S), phi(T) from the relations S^4 = I and (ST)^6 = I.

    Expanding phi along a relator w = g_1...g_k gives
    0 = sum_i phi(g_i) - sum_i tau(g_1..g_i, g_{i+1}), which yields a
    triangular linear system in (phi(S), phi(T)). The solution is then
    validated on an independent coincidence of words, (ST)^3 = S^2 = -I;
    failure means the cocycle itself is broken. The solve is deterministic,
    so it runs once per process.
    """
    phi_s = Fraction(_relator_tau_sum(["S"] * 4), 4)
    phi_t = Fraction(_relator_tau_sum(["S", "T"] * 6), 6) - phi_s
    base = PhiBase(phi_s, phi_t)
    lhs = phi1_word([("S", 1), ("T", 1)] * 3, base)
    rhs = phi1_word([("S", 2)], base)
    if lhs != rhs:
        raise InconsistentRelations(
            f"phi((ST)^3) = {lhs} differs from phi(S^2) = {rhs}"
        )
    if phi1_word([("S", 4)], base) != 0 or phi1_word([("S", 1), ("T", 1)] * 6, base) != 0:
        raise InconsistentRelations("relator words do not fold to zero")
    return base


def _fold(
    m1: SymplecticElement, p1: Fraction, m2: SymplecticElement, p2: Fraction
) -> tuple[SymplecticElement, Fraction]:
    # phi(uv) = phi(u) + phi(v) - tau(u, v)
    return m1 * m2, p1 + p2 - tau(m1, m2)


def _power_phi(
    el: SymplecticElement, phi_el: Fraction, e: int
) -> tuple[SymplecticElement, Fraction]:
    """(el^e, phi(el^e)) using only the coboundary identity, in O(log e) steps."""
    if e == 0:
        return SymplecticElement.identity(el.g), Fraction(0)
    if e < 0:
        inv = el.inverse()
        phi_inv = Fraction(tau(el, inv)) - phi_el
        return _power_phi(inv, phi_inv, -e)
    if e == 1:
        return el, phi_el
    half_m, half_p = _power_phi(el, phi_el, e // 2)
    m, p = _fold(half_m, half_p, half_m, half_p)
    if e % 2:
        m, p = _fold(m, p, el, phi_el)
    return m, p


def phi1_word(
    word: SL2Word | Iterable[tuple[str, int]], base: PhiBase | None = None
) -> Fraction:
    """Fold the cobounding function along an explicit word in S and T.

    The result depends only on the product of the word, not the word itself;
    that independence is what the coboundary identity guarantees and what the
    tests exercise. A word that is not iterable, or a syllable that is not a
    tuple (generator, exponent), with the generator "S" or "T" and an ``int``
    exponent, raises ``MatrixFormatError``; a zero exponent is the identity.
    """
    if base is None:
        base = phi1_base()
    try:  # only iterating a word that is not iterable raises TypeError here
        syllables = word.syllables if isinstance(word, SL2Word) else tuple(map(_syllable, word))
    except TypeError as exc:
        raise MatrixFormatError(f"a word must be iterable, got {type(word).__name__}") from exc
    generators = {"S": (gen_S(), base.phi_S), "T": (gen_T(), base.phi_T)}
    acc: tuple[SymplecticElement, Fraction] | None = None
    for gen, e in syllables:
        el, phi_el = generators[gen]
        part = _power_phi(el, phi_el, e)
        acc = part if acc is None else _fold(acc[0], acc[1], part[0], part[1])
    return Fraction(0) if acc is None else acc[1]


def _phi1_closed_form(m: SymplecticElement | Iterable[Iterable[int]]) -> Fraction:
    """-Phi(A)/3 + eps(A) for A = [[a, b], [c, d]] read by ``_sl2_reduce``;
    eps = sign(c(a + d - 2)) for c != 0 and sign(b(d + 1)) for c = 0."""
    (a, b, c, d), _, rademacher = _sl2_reduce(m)
    eps = _sign(c * (a + d - 2)) if c else _sign(b * (d + 1))
    return Fraction(3 * eps - rademacher, 3)


@functools.cache
def _closed_form_matches_base() -> None:
    """Tie the closed form to the cocycle, once per process: on S and T it must
    give the values ``phi1_base`` solves from the relations."""
    base = phi1_base()
    for gen, el, solved in (("S", gen_S(), base.phi_S), ("T", gen_T(), base.phi_T)):
        value = _phi1_closed_form(el)
        if value != solved:
            raise InconsistentRelations(
                f"closed form phi({gen}) = {value} differs from the solved {solved}"
            )


def phi1(a: SymplecticElement | Iterable[Iterable[int]]) -> Fraction:
    """The cobounding function on SL(2,Z), in closed form.

    A is a ``SymplecticElement`` of genus 1 or int rows; any other entry, a
    ``Fraction`` included, raises ``MatrixFormatError``, and a matrix that is
    not 2x2 of determinant 1 raises ``NotUnimodular``.

    phi1(A) = -Phi(A)/3 + eps(A), with Rademacher's integer function Phi
    folded in ints inside the Euclidean reduction of A (``_sl2_reduce``); no
    word is normalized and no tau is evaluated. The first call checks the
    closed form against the generator values ``phi1_base`` solves from the
    relations; ``phi1_word(sl2_word(A))`` is the derivation it agrees with.

    phi1 is a class function, vanishes on the identity, and satisfies
    phi1(A^{-1}) = -phi1(A).
    """
    value = _phi1_closed_form(a)  # reads and checks a before the first-call check
    _closed_form_matches_base()
    return value
