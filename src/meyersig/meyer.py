"""The signature 2-cocycle on Sp(2g,Z) and its cobounding function on SL(2,Z).

Meyer's form. ``tau`` evaluates the cocycle on a pair (A1, A2) as the
signature of the pairing

    <(x, y), (x', y')> = (x + y)^t J (I - A2) y'

on the solutions of (A1^-1 - I) x + (A2 - I) y = 0 in R^2g + R^2g. Its
radical holds the solutions (x | 0) and (0 | y), so it descends through
(x | y) -> u = (A2 - I) y to W = Im(A1^-1 - I) meet Im(A2 - I), Wall's
non-additivity form (Meyer 1973; Wall 1969). Everything is exact, and by
Sylvester's law of inertia the basis of W cannot affect the result. tau is
symmetric, tau(A1, A2) = tau(A2, A1) (Meyer 1973, "Die Signatur von
Flächenbündeln").

The kernel path. With Q the pivot columns of A2 - I, at which its columns
are a basis of its image, a basis of W is the kernel of
[(A1^-1 - I) | (A2 - I)_Q] less its vectors (x | 0), which are never built:
the vectors of the free columns in the second half have nonzero x and
independent u. So G[i][j] = (x_i + y_i)^t J (I - A2) y_j, with y scattered
from Q onto 2g coordinates and J (I - A2) y = (-u[g:], u[:g]). An
invertible factor E on the left keeps the kernel, ker(E M) = ker M, and
every linear relation among the columns, so eliminating
[E (A1^-1 - I) | E (A2 - I)_Q] finds the same vectors and pivot columns,
while the images u still come from (A2 - I)_Q without E.
``tau_cocycle_defect`` evaluates its four values this way in five forward
eliminations and multiplies no two elements. A pivot pass on A2 - I gives Q2. tau(a1, a2)
and tau(a3, a2) eliminate [A1^-1 - I | (A2 - I)_Q2] and
[A3^-1 - I | (A2 - I)_Q2]; their first-block pivot columns P1 and Q3 are
those of A1 - I and A3 - I, as A^-1 - I = -A^-1 (A - I). Then
tau(a1 a2, a3) eliminates A2 [(A1 A2)^-1 - I | (A3 - I)_Q3] =
[A1^-1 - A2 | A2 (A3 - I)_Q3] and tau(a2 a3, a1) eliminates
A3 [(A2 A3)^-1 - I | (A1 - I)_P1] = [A2^-1 - A3 | A3 (A1 - I)_P1]: each
left block a difference of rows already built, each right block a
2g x |Q| product. The four Grams are ``tau_form`` of (a1, a2), (a3, a2),
(a1 a2, a3) and (a2 a3, a1).

The Cayley path. When A1 - I and A2 - I are both invertible, W = R^2g and
the form has a closed form in the resolvents R_A = (A - I)^-1. With
w = (A2 - I) y, y = R_A2 w and x = -(A1^-1 - I)^-1 w = (I + R_A1) w, so the
pairing is -w^t (I + R_A1 + R_A2)^t J w'; 2 (I + R_A1 + R_A2) is the sum of
the Cayley transforms (A + I)(A - I)^-1 of A1 and A2. In integers, d_A is
the last pivot of the fraction-free solve of A - I against I, d_A =
+-det(A - I) with its sign kept, and N_A = d_A (A - I)^-1. Then
S = d_A d_B I + d_B N_A + d_A N_B = d_A d_B (I + R_A + R_B), and J S is the
symmetric -S^t J, d_A d_B times the form. The sign rule: tau(A, B) is the
signature of J S when d_A d_B > 0 and its negative when d_A d_B < 0. The
rows of J S are S's lower half, then its upper half negated, so each is one
pass over the rows of N_A and N_B, with the sign of J's half folded into the
two scales. The defect takes this path when the pivot pass finds |Q2| = 2g
and all five A - I it needs, for A1, A2, A3, A1 A2 and A2 A3, are
invertible. The products' resolvents solve
A2 - A1^-1 = A1^-1 (A1 A2 - I) against A1^-1 and
A3 - A2^-1 = A2^-1 (A2 A3 - I) against A2^-1, and N_A1, N_A2 and N_A3 each
serve two of the four pairs. A singular solve sends the defect to the
kernel path, as does |Q2| < 2g, which a product of fewer than 2g
transvections always has. ``tau`` and ``tau_form`` always take the kernel
path, as one pair alone gains nothing from the resolvents.

``phi1`` is the unique rational 1-cochain on SL(2,Z) whose coboundary
phi(x) - phi(xy) + phi(y) equals tau at genus 1. Its values on the
generators are solved, not hard-coded. Expanding phi along a relator
w = g_1...g_k gives 0 = sum_i phi(g_i) - sum_i tau(g_1..g_i, g_{i+1}), the
tau sum being -phi1_word(w) on the zero base, so ``phi1_base`` folds
``phi1_word`` along S^4 and (ST)^6 and solves the triangular system for
phi(S) and phi(T). It checks them on an independent coincidence of words,
(ST)^3 = S^2 = -I, on S^4 folded by squaring (the cocycle identity at
(S^2, S, S)), and last against the closed form -Phi/3 + eps that ``phi1``
evaluates, with Rademacher's integer function Phi (Atiyah 1987, "The
logarithm of the Dedekind eta-function"; Kirby-Melvin 1994, "Dedekind sums,
mu-invariants and the signature cocycle") folded in ints on the first column
(derived in ``symplectic``). So every value stays traceable to the cocycle.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from ._record import Record
from .errors import ContractViolation, GenusMismatch, InconsistentRelations, MatrixFormatError
from .exactnum import (
    _echelon,
    _gram,
    _kernel,
    _kind_arg,
    _rational_arg,
    _signature,
    _solve,
    _symmetric,
)
from .symplectic import (
    IntMatrix,
    SL2Word,
    SymplecticElement,
    _identity,
    _inverse_minus,
    _matmul,
    _power,
    _rademacher,
    _sl2_entries,
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


Rows = Sequence[Sequence[int]]
Side = tuple[list[int], Rows]  # columns, and a matrix's rows at them


def _at(cols: list[int], m: Rows) -> Side:
    """``cols`` and the rows of the square ``m`` at them; ``m`` itself when
    ``cols`` is every column, that is whenever A - I is invertible, as for
    most pairs at g <= 2: a copy there made ``tau`` at g = 1 and 2 about
    2-5 % slower, and the defect's Cayley path reads only the columns."""
    return cols, m if len(cols) == len(m) else [[row[c] for c in cols] for row in m]


def _minus_one(a: SymplecticElement) -> list[list[int]]:
    """The rows of A - I."""
    m = [list(row) for row in a.mat]
    for i, row in enumerate(m):
        row[i] -= 1
    return m


def _minus(a: Rows, b: Rows) -> list[list[int]]:
    """The rows of a - b."""
    return [[x - y for x, y in zip(u, w)] for u, w in zip(a, b)]


def _right(m: Rows) -> Side:
    """The pivot columns Q of the square int rows ``m``, read off the steps of
    ``_echelon`` (the elimination behind ``_kernel``), and the rows of ``m`` at Q."""
    q = [c for c, _, _ in _echelon([row[:] for row in m])]
    return _at(q, m)


def _sides(a1: SymplecticElement, a2: SymplecticElement) -> tuple[Rows, Side, Rows]:
    """``_form``'s arguments for the pair (a1, a2) as it is, with E = I."""
    right = _right(_minus_one(a2))
    return _inverse_minus(a1.mat, 1), right, right[1]


def _form(left: Rows, right: Side, block: Rows) -> tuple[IntMatrix, list[int]]:
    """``tau_form``, and the pivot columns of A1^-1 - I, by the kernel path
    (module docstring): from ``right``, the columns Q and the rows of
    (A2 - I)_Q given by ``_right``, and from ``left`` and ``block``, the rows
    of E (A1^-1 - I) and E (A2 - I)_Q for an invertible E that the caller
    picks (I for ``tau``)."""
    (q, rq), n = right, len(left)
    g = n // 2
    pivots, vectors = _kernel([[*a, *b] for a, b in zip(left, block)], n)
    sums, images = [], []
    for v in vectors:
        x, y = list(v[:n]), v[n:]
        for c, t in zip(q, y):
            x[c] += t  # x + y, y scattered onto Q
        u = [sum(map(mul, row, y)) for row in rq]  # (A2 - I) y
        sums.append(x)
        images.append([-t for t in u[g:]] + u[:g])  # J (I - A2) y
    return _gram(sums, images), pivots


def _bounded(value: int, n: int) -> int:
    """``value``, a tau at genus g = n / 2, or ``ContractViolation`` if |tau| > 4g."""
    if abs(value) > 2 * n:
        raise ContractViolation(f"|tau| = {abs(value)} exceeds 4g = {2 * n}")
    return value


def _tau(left: Rows, right: Side, block: Rows) -> tuple[int, list[int]]:
    """``tau`` from ``_form``'s arguments, and ``_form``'s pivot columns."""
    form, pivots = _form(left, right, block)
    return _bounded(_signature(form), len(left)), pivots


Resolvent = tuple[int, list[list[int]]]  # (d, the rows of d (A - I)^-1), d signed: module docstring


def _cayley(a: Resolvent, b: Resolvent) -> int:
    """tau(A, B) from the resolvents of A and B, when A - I and B - I are
    invertible, by the Cayley path and its sign rule (module docstring):
    each row of J S is built once, the sign of J's half in the two scales."""
    (da, na), (db, nb) = a, b
    k, n = da * db, len(na)
    g = n // 2
    gram = []
    for half, sign in ((range(g, n), 1), (range(g), -1)):
        sa, sb, sk = sign * db, sign * da, sign * k
        for i in half:
            row = [sa * x + sb * y for x, y in zip(na[i], nb[i])]
            row[i] += sk
            gram.append(tuple(row))
    value = _signature(_symmetric(tuple(gram)))
    return _bounded(value if k > 0 else -value, n)


def _resolvents(
    a1: SymplecticElement, a2: SymplecticElement, a3: SymplecticElement, minus: Sequence[Rows]
) -> list[Resolvent] | None:
    """The resolvents, as rows, of A1, A2, A3, A1 A2 and A2 A3, each one
    ``_solve`` (the Cayley path, in the module docstring), from ``minus``,
    the rows of the first three A - I; ``None`` at the first singular
    A - I."""
    eye = _identity(len(a1.mat))
    inv1, inv2 = (_inverse_minus(a.mat, 0) for a in (a1, a2))
    systems = [*((m, eye) for m in minus), (_minus(a2.mat, inv1), inv1), (_minus(a3.mat, inv2), inv2)]
    found = []
    for x, y in systems:
        if (solved := _solve(x, y)) is None:
            return None
        found.append(solved)
    return found


def tau_form(a1: SymplecticElement, a2: SymplecticElement) -> IntMatrix:
    """The Gram matrix, as int rows, of a symmetric form whose signature is
    tau(a1, a2): Meyer's pairing on a basis of W, so it is dim W square, by
    the kernel path (module docstring)."""
    _elements(a1, a2)
    return _form(*_sides(a1, a2))[0]


def tau(a1: SymplecticElement, a2: SymplecticElement) -> int:
    """Value of the signature cocycle on a pair of same-genus elements: the
    signature of Meyer's form, by the kernel path (module docstring). An
    argument that is not a ``SymplecticElement`` raises ``InvalidInput``,
    elements of different genera ``GenusMismatch``, and |tau| > 4g
    ``ContractViolation``."""
    _elements(a1, a2)
    return _tau(*_sides(a1, a2))[0]


def tau_cocycle_defect(
    a1: SymplecticElement, a2: SymplecticElement, a3: SymplecticElement
) -> int:
    """tau(a1,a2) + tau(a1*a2,a3) - tau(a2,a3) - tau(a1,a2*a3); always 0.

    It multiplies no two elements. It takes the Cayley path when all five
    A - I are invertible and the kernel path otherwise (module docstring);
    either way each of its four values is checked as ``tau`` checks its own.
    """
    _elements(a1, a2, a3)
    m1, m2, m3 = map(_minus_one, (a1, a2, a3))
    r2 = _right(m2)
    if len(r2[0]) == len(m2) and (found := _resolvents(a1, a2, a3, (m1, m2, m3))):
        c1, c2, c3, c12, c23 = found
        return _cayley(c1, c2) - _cayley(c2, c3) + _cayley(c12, c3) - _cayley(c1, c23)
    l1, l3 = (_inverse_minus(a.mat, 1) for a in (a1, a3))
    t12, p1 = _tau(l1, r2, r2[1])
    t32, q3 = _tau(l3, r2, r2[1])
    r1, r3 = _at(p1, m1), _at(q3, m3)
    t12_3 = _tau(_minus(l1, m2), r3, _matmul(a2.mat, r3[1]))[0]
    t23_1 = _tau(_minus(_inverse_minus(a2.mat, 1), m3), r1, _matmul(a3.mat, r1[1]))[0]
    return t12 + t12_3 - t32 - t23_1


class PhiBase(Record):
    """Values of the genus-1 cobounding function on the generators S and T."""

    __slots__ = ("phi_S", "phi_T")

    def _check(self):
        for name in self.__slots__:
            _rational_arg(getattr(self, name), name)


@functools.cache
def phi1_base() -> PhiBase:
    """Solve for phi(S), phi(T) from the relations S^4 = I and (ST)^6 = I,
    check the solution and tie ``phi1``'s closed form to it (module
    docstring). A failure means the cocycle or the closed form is broken and
    raises ``InconsistentRelations``. The solve is deterministic, so it runs
    once per process."""
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
    """-Phi(A)/3 + eps(A) for A = [[a, b], [c, d]] read by ``_sl2_entries``;
    eps = sign(c(a + d - 2)) for c != 0 and sign(b(d + 1)) for c = 0."""
    a, b, c, d = _sl2_entries(m)
    eps = _sign(c * (a + d - 2)) if c else _sign(b * (d + 1))
    return Fraction(3 * eps - _rademacher(a, b, c, d), 3)


def phi1(a: SymplecticElement | Iterable[Iterable[int]]) -> Fraction:
    """The cobounding function on SL(2,Z), in closed form: -Phi(A)/3 + eps(A)
    (module docstring), in O(log |c|) steps, with no word built and no tau
    evaluated; it agrees with ``phi1_word(sl2_word(A))``, the derivation.

    A is a ``SymplecticElement`` of genus 1 or int rows; any other entry, a
    ``Fraction`` included, raises ``MatrixFormatError``, and a matrix that is
    not 2x2 of determinant 1 raises ``NotUnimodular``. Each call reads
    ``phi1_base()``, which raises ``InconsistentRelations`` if the closed
    form and the solved generator values differ.

    phi1 is a class function, vanishes on the identity, and satisfies
    phi1(A^{-1}) = -phi1(A).
    """
    value = _phi1_closed_form(a)  # reads and checks a before the first-call check
    phi1_base()
    return value
