"""The signature 2-cocycle on Sp(2g,Z) and its cobounding function on SL(2,Z).

``tau`` evaluates the cocycle on a pair (A1, A2) as the signature of an
explicit symmetric bilinear form: the pairing

    <(x, y), (x', y')> = (x + y)^t J (I - A2) y'

restricted to the solution space of (A1^{-1} - I) x + (A2 - I) y = 0 inside
R^{2g} + R^{2g}. Its radical holds the solutions (x | 0) and (0 | y), so it
descends to W = Im(A1^{-1} - I) meet Im(A2 - I), Wall's non-additivity form
(Meyer 1973; Wall 1969), and ``tau_form`` builds its Gram on a basis of W.
Everything is exact; the basis choice cannot affect the result, by
Sylvester's law of inertia.

``phi1`` is the unique rational 1-cochain on SL(2,Z) whose coboundary
phi(x) - phi(xy) + phi(y) equals tau at genus 1. Its values on the
generators are *solved* rather than hard-coded: ``phi1_word`` derives its
value on any word by folding tau along it, and ``phi1_base`` folds it along
the relators S^4 and (ST)^6 and solves the two results for phi(S) and phi(T).
``phi1`` itself evaluates the closed form -Phi/3 + eps, with Rademacher's
integer function Phi (Atiyah 1987, "The logarithm of the Dedekind
eta-function"; Kirby-Melvin 1994, "Dedekind sums, mu-invariants and the
signature cocycle") folded in ints inside the Euclidean reduction of its
argument, so it evaluates no tau; ``phi1_base``, cached once per process,
also checks the closed form against the solved generator values, so every
number stays traceable to the cocycle.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from ._record import Record
from .errors import ContractViolation, GenusMismatch, InconsistentRelations, MatrixFormatError
from .exactnum import _echelon, _gram, _kernel, _kind_arg, _rational_arg, _signature
from .symplectic import (
    IntMatrix,
    SL2Word,
    SymplecticElement,
    _inverse_minus,
    _power,
    _sl2_reduce,
    _syllable,
    gen_S,
    gen_T,
)


def _elements(*els: SymplecticElement) -> None:
    """Refuse an argument of tau that is not a SymplecticElement, naming its
    type, and elements of different genera."""
    for name, el in zip(("a1", "a2", "a3"), els):
        _kind_arg(el, SymplecticElement, name)
    if len({el.g for el in els}) > 1:
        raise GenusMismatch("genus " + " vs ".join(str(el.g) for el in els))


Side = tuple[list[int], Sequence[Sequence[int]]]  # columns, and a matrix's rows at them


def _at(cols: list[int], m: Sequence[Sequence[int]]) -> Side:
    """``cols`` and the rows of the square ``m`` at them; ``m`` itself when
    ``cols`` is every column, as at g <= 2 whenever A - I is invertible: a
    copy there costs a g = 2 cocycle defect about 2 %, as much as the pivot
    pass on A2 - I that the defect saves."""
    return cols, m if len(cols) == len(m) else [[row[c] for c in cols] for row in m]


def _minus_one(a: SymplecticElement) -> list[list[int]]:
    """The rows of A - I."""
    m = [list(row) for row in a.mat]
    for i, row in enumerate(m):
        row[i] -= 1
    return m


def _left(a1: SymplecticElement) -> Side:
    """Every column and the rows of A1^-1 - I."""
    rows = _inverse_minus(a1.mat, 1)
    return list(range(len(rows))), rows


def _right(a2: SymplecticElement) -> Side:
    """The pivot columns Q of A2 - I, read off the steps of ``_echelon`` (the
    elimination behind ``_kernel``), and the rows of (A2 - I)_Q, its columns at Q."""
    m = _minus_one(a2)
    q = [c for c, _, _ in _echelon([row[:] for row in m])]
    return _at(q, m)


def _form(left: Side, right: Side) -> tuple[IntMatrix, list[int]]:
    """``tau_form`` from columns P with the rows of (A1^-1 - I)_P, and from
    ``_right(a2)``; with it, the pivot columns of A1^-1 - I among P. P must
    hold every pivot column: the vectors built are zero at the other columns."""
    (p, lp), (q, rq) = left, right
    n, g, k = len(lp), len(lp) // 2, len(p)
    pivots, vectors = _kernel([[*a, *b] for a, b in zip(lp, rq)], k)
    sums, images, cols = [], [], p + q
    for v in vectors:
        x = [0] * n
        for c, t in zip(cols, v):
            x[c] += t  # x + y: x scattered back from P, y onto Q
        y = v[k:]
        u = [sum(map(mul, row, y)) for row in rq]  # (A2 - I) y
        sums.append(x)
        images.append([-t for t in u[g:]] + u[:g])  # J (I - A2) y
    return _gram(sums, images), [p[c] for c in pivots]


def _tau(left: Side, right: Side) -> tuple[int, list[int]]:
    """``tau`` from ``_form``'s arguments, and ``_form``'s pivot columns."""
    form, pivots = _form(left, right)
    value, n = _signature(form), len(left[1])
    if abs(value) > 2 * n:
        raise ContractViolation(f"|tau| = {abs(value)} exceeds 4g = {2 * n}")
    return value, pivots


def tau_form(a1: SymplecticElement, a2: SymplecticElement) -> IntMatrix:
    """The Gram matrix, as int rows, of a symmetric form whose signature is
    tau(a1, a2): Meyer's pairing on a basis of W, so it is dim W square.

    The form descends to W through (x | y) -> u = (A2 - I) y. With Q the
    pivot columns of A2 - I, the basis is the kernel of [(A1^-1 - I) |
    (A2 - I)_Q] less its vectors (x | 0), which are never built: every x is
    nonzero and the u are independent. G[i][j] = (x_i + y_i)^t J (I - A2) y_j,
    y scattered from Q onto 2g coordinates, J (I - A2) y = (-u[g:], u[:g]).
    """
    _elements(a1, a2)
    return _form(_left(a1), _right(a2))[0]


def tau(a1: SymplecticElement, a2: SymplecticElement) -> int:
    """Value of the signature cocycle on a pair of same-genus elements."""
    _elements(a1, a2)
    return _tau(_left(a1), _right(a2))[0]


def tau_cocycle_defect(
    a1: SymplecticElement, a2: SymplecticElement, a3: SymplecticElement
) -> int:
    """tau(a1,a2) + tau(a1*a2,a3) - tau(a2,a3) - tau(a1,a2*a3); always 0.

    The rows of a1, a1*a2, a2, a3 and a2*a3 are each built once, and six
    forward eliminations run: the pivot passes of A3 - I and A2A3 - I, and
    the four joint ones of ``_form``. tau(a2, a3) goes first, as its
    elimination finds the pivot columns of A2^-1 - I, and those are the
    columns Q of A2 - I: A2^-1 - I = -A2^-1 (A2 - I), and an invertible
    factor on the left keeps every linear relation among the columns. So
    tau(a1, a2) needs no pass on A2 - I. It finds P1, the pivot columns of
    A1^-1 - I, and tau(a1, a2*a3) eliminates [(A1^-1 - I)_P1 | (A2A3 - I)_Q]:
    its kernel vectors are zero at the other columns of A1^-1 - I.
    """
    _elements(a1, a2, a3)
    l1, l12, l2 = map(_left, (a1, a1 * a2, a2))
    r3, r23 = _right(a3), _right(a2 * a3)
    t23, p2 = _tau(l2, r3)
    t12, p1 = _tau(l1, _at(p2, _minus_one(a2)))
    t123 = _tau(l12, r3)[0]
    t1_23 = _tau(_at(p1, l1[1]), r23)[0]
    return t12 + t123 - t23 - t1_23


class PhiBase(Record):
    """Values of the genus-1 cobounding function on the generators S and T."""

    __slots__ = ("phi_S", "phi_T")

    def _check(self):
        for name in self.__slots__:
            _rational_arg(getattr(self, name), name)


@functools.cache
def phi1_base() -> PhiBase:
    """Solve for phi(S), phi(T) from the relations S^4 = I and (ST)^6 = I,
    check the solution, and tie ``phi1``'s closed form to it.

    Expanding phi along a relator w = g_1...g_k gives 0 = sum_i phi(g_i) -
    sum_i tau(g_1..g_i, g_{i+1}), the tau sum being -phi1_word(w) on the zero
    base: a triangular linear system in (phi(S), phi(T)). The solution is
    checked on an independent coincidence of words, (ST)^3 = S^2 = -I, and on
    S^4 folded by squaring (the cocycle identity at (S^2, S, S)); last, the
    closed form must give the solved values on S and T. A failure means the
    cocycle or the closed form is broken and raises ``InconsistentRelations``.
    The solve is deterministic, so it runs once per process.
    """
    identity, st = SymplecticElement.identity(1), [("S", 1), ("T", 1)]
    if gen_S() ** 4 != identity or (gen_S() * gen_T()) ** 6 != identity:
        raise InconsistentRelations("S^4 = (ST)^6 = I does not hold")
    zero = PhiBase(0, 0)
    phi_s = Fraction(-phi1_word([("S", 1)] * 4, zero), 4)
    base = PhiBase(phi_s, Fraction(-phi1_word(st * 6, zero), 6) - phi_s)
    lhs, rhs = phi1_word(st * 3, base), phi1_word([("S", 2)], base)
    if lhs != rhs:
        raise InconsistentRelations(f"phi((ST)^3) = {lhs} differs from phi(S^2) = {rhs}")
    if phi1_word([("S", 4)], base) != 0:
        raise InconsistentRelations("S^4 does not fold to zero")
    for gen, el, solved in (("S", gen_S(), base.phi_S), ("T", gen_T(), base.phi_T)):
        if (value := _phi1_closed_form(el)) != solved:
            raise InconsistentRelations(
                f"closed form phi({gen}) = {value} differs from the solved {solved}"
            )
    return base


def _fold(
    x: tuple[SymplecticElement, Fraction], y: tuple[SymplecticElement, Fraction]
) -> tuple[SymplecticElement, Fraction]:
    """(uv, phi(uv)) from (u, phi(u)) and (v, phi(v)): phi(uv) = phi(u) + phi(v) - tau(u, v)."""
    (u, phi_u), (v, phi_v) = x, y
    return u * v, phi_u + phi_v - tau(u, v)


def phi1_word(
    word: SL2Word | Iterable[tuple[str, int]], base: PhiBase | None = None
) -> Fraction:
    """Fold the cobounding function along an explicit word in S and T.

    A syllable g^e gives (g^e, phi(g^e)) as ``symplectic._power`` of (g, phi(g)),
    or of (g^-1, -phi(g)) for e < 0, under ``_fold``: O(log |e|) tau. These fold
    left to right; a zero exponent is the identity and adds no tau.

    The result depends only on the product of the word, not the word itself;
    that independence is what the coboundary identity guarantees and what the
    tests exercise. A word that is not iterable, or a syllable that is not a
    tuple (generator, exponent), with the generator "S" or "T" and an ``int``
    exponent, raises ``MatrixFormatError``. A ``base`` that is not a
    ``PhiBase`` raises ``InvalidInput``.
    """
    base = phi1_base() if base is None else _kind_arg(base, PhiBase, "base")
    try:  # only iterating a word that is not iterable raises TypeError here
        syllables = word.syllables if isinstance(word, SL2Word) else tuple(map(_syllable, word))
    except TypeError as exc:
        raise MatrixFormatError(f"a word must be iterable, got {type(word).__name__}") from exc
    generators = {"S": (gen_S(), base.phi_S), "T": (gen_T(), base.phi_T)}
    parts = []
    for gen, e in syllables:
        if e:  # phi(A^-1) = tau(A, A^-1) - phi(A) = -phi(A), as tau(A, A^-1) = 0: on
            # its kernel x + y is fixed by A, and so is paired to zero by J (I - A^-1)
            el, phi_el = generators[gen]
            pair = (el, phi_el) if e > 0 else (el.inverse(), -phi_el)
            parts.append(_power(pair, abs(e), _fold))
    return functools.reduce(_fold, parts)[1] if parts else Fraction(0)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _phi1_closed_form(m: SymplecticElement | Iterable[Iterable[int]]) -> Fraction:
    """-Phi(A)/3 + eps(A) for A = [[a, b], [c, d]] read by ``_sl2_reduce``;
    eps = sign(c(a + d - 2)) for c != 0 and sign(b(d + 1)) for c = 0."""
    (a, b, c, d), _, _, rademacher = _sl2_reduce(m)
    eps = _sign(c * (a + d - 2)) if c else _sign(b * (d + 1))
    return Fraction(3 * eps - rademacher, 3)


def phi1(a: SymplecticElement | Iterable[Iterable[int]]) -> Fraction:
    """The cobounding function on SL(2,Z), in closed form.

    A is a ``SymplecticElement`` of genus 1 or int rows; any other entry, a
    ``Fraction`` included, raises ``MatrixFormatError``, and a matrix that is
    not 2x2 of determinant 1 raises ``NotUnimodular``.

    phi1(A) = -Phi(A)/3 + eps(A), with Rademacher's integer function Phi
    folded in ints inside the Euclidean reduction of A (``_sl2_reduce``); no
    word is normalized and no tau is evaluated. Each call then reads
    ``phi1_base()``, whose one solve per process checks the closed form
    against the generator values and raises ``InconsistentRelations`` if they
    differ; ``phi1_word(sl2_word(A))`` is the derivation it agrees with.

    phi1 is a class function, vanishes on the identity, and satisfies
    phi1(A^{-1}) = -phi1(A).
    """
    value = _phi1_closed_form(a)  # reads and checks a before the first-call check
    phi1_base()
    return value
