"""Symplectic matrices over the integers, transvections, and SL(2,Z) words.

The alternating form is fixed once and for all as J = [[0, I], [-I, 0]] with
respect to a basis ordered (a_1..a_g, b_1..b_g). Every sign downstream is
derived from this convention; flipping the orientation convention flips the
sign of the signature cocycle globally.

A transvection here is x -> x + (x^t J v) v. For v = e_1 at genus 1 this is
[[1, -1], [0, 1]], the homology image of the *inverse* of a right-handed
Dehn twist; the twist itself is its inverse.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from operator import mul, neg

from ._record import Record
from .errors import GenusMismatch, MatrixFormatError, NotSymplectic, NotUnimodular, ZeroVector
from .exactnum import _int_arg, _int_matrix, _kind_arg, _shown

IntMatrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _inverse_minus(m: IntMatrix, k: int) -> IntMatrix:
    """A^{-1} - kI in one pass: A^{-1} = J^{-1} A^t J = [[D^t, -B^t], [-C^t, A^t]]
    for A = [[A, B], [C, D]], so row i is column i + g (mod 2g) of A with its
    halves swapped, the upper one negated for i < g and the lower one else."""
    g = len(m) // 2
    cols = tuple(zip(*m))
    rows = []
    for i, col in enumerate(cols[g:] + cols[:g]):
        row = [*col[g:], *map(neg, col[:g])] if i < g else [*map(neg, col[g:]), *col[:g]]
        row[i] -= k
        rows.append(tuple(row))
    return tuple(rows)


def _power(x, e: int, product):
    """x^e for e >= 1 by square-and-multiply from the low bit up, with
    ``product`` as the multiplication: no factor is ever the unit, so there
    are (bit length - 1) squarings and (number of set bits - 1) other products.
    The one power loop: ``SymplecticElement.__pow__`` runs it on elements, and
    ``meyer.phi1_word`` on pairs (A, phi(A)) under the coboundary identity."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else product(result, x)
        e >>= 1
        if not e:
            return result
        x = product(x, x)


class SymplecticElement(Record):
    """A 2g x 2g integer matrix A with A^t J A = J, validated on construction.

    The argument is int rows, read by ``exactnum._int_matrix``: any other
    entry, a ``Fraction`` or a numeral string included, and ragged rows raise
    ``MatrixFormatError``. ``mat`` is a tuple of int tuples. Elements derived
    from validated data skip the check (see ``_derived``).
    """

    __slots__ = ("mat",)

    def __init__(self, mat: Iterable[Iterable[int]]):
        rows = _int_matrix(mat)
        n = len(rows)
        cols = len(rows[0]) if rows else 0
        if n < 2 or n % 2 != 0 or cols != n:
            raise NotSymplectic(f"need an even square matrix of size >= 2, got {n}x{cols}")
        # A (J^-1 A^t J) = I iff A^t J A = J; at 2x2 it is det(A) I, refusing det != 1
        if _matmul(rows, _inverse_minus(rows, 0)) != _identity(n):
            raise NotSymplectic("matrix does not preserve the alternating form")
        object.__setattr__(self, "mat", rows)

    @classmethod
    def _derived(cls, mat: IntMatrix) -> "SymplecticElement":
        """Wrap int rows that are symplectic by construction: a product, inverse,
        power, transvection or direct sum of validated data. No re-check."""
        el = object.__new__(cls)
        object.__setattr__(el, "mat", mat)
        return el

    @property
    def g(self) -> int:
        return len(self.mat) // 2

    @classmethod
    def identity(cls, g: int) -> "SymplecticElement":
        if _int_arg(g, "genus") < 1:
            raise NotSymplectic(f"genus must be >= 1, got {_shown(g)}")
        return cls._derived(_identity(2 * g))

    def __mul__(self, other: "SymplecticElement") -> "SymplecticElement":
        if not isinstance(other, SymplecticElement):
            return NotImplemented
        if self.g != other.g:
            raise GenusMismatch(f"genus {self.g} times genus {other.g}")
        return SymplecticElement._derived(_matmul(self.mat, other.mat))

    def inverse(self) -> "SymplecticElement":
        return SymplecticElement._derived(_inverse_minus(self.mat, 0))

    def __pow__(self, e: int) -> "SymplecticElement":
        e = _int_arg(e, "exponent")
        if e == 0:
            return SymplecticElement.identity(self.g)
        return _power(self if e > 0 else self.inverse(), abs(e), SymplecticElement.__mul__)

    def __repr__(self) -> str:
        return f"SymplecticElement(g={self.g}, {self.mat!r})"


def transvection(v: Sequence[int]) -> SymplecticElement:
    """The symplectic map x -> x + (x^t J v) v as a matrix.

    For nonzero v of length 2g this is I + v (Jv)^t, always symplectic.
    """
    (vv,) = _int_matrix((v,))
    if len(vv) % 2 != 0 or not vv:
        raise MatrixFormatError(f"vector length must be even and positive, got {len(vv)}")
    if not any(vv):
        raise ZeroVector("transvection direction must be nonzero")
    g = len(vv) // 2
    w = vv[g:] + tuple(-x for x in vv[:g])  # Jv: the halves of v swapped, the lower one negated
    return SymplecticElement._derived(
        tuple(tuple(int(i == j) + vi * wj for j, wj in enumerate(w)) for i, vi in enumerate(vv))
    )


def direct_sum(a: SymplecticElement, b: SymplecticElement) -> SymplecticElement:
    """Block sum respecting the (a-coordinates, b-coordinates) basis order.

    The coordinate blocks are interleaved, not naively stacked: the result
    acts on (a_1..a_{g1}, a'_1..a'_{g2}, b_1..b_{g1}, b'_1..b'_{g2}), which is
    exactly what keeps it symplectic for the standard J. An argument that is
    not a ``SymplecticElement`` raises ``InvalidInput``.
    """
    _kind_arg(a, SymplecticElement, "a")
    _kind_arg(b, SymplecticElement, "b")
    mats, gs = (a.mat, b.mat), (a.g, b.g)
    # (summand, its coordinate): the a-half of A, of B, then the b-half of A, of B
    coords = [(t, h * gs[t] + i) for h in (0, 1) for t in (0, 1) for i in range(gs[t])]
    rows = tuple(
        tuple(mats[ti][si][sj] if ti == tj else 0 for tj, sj in coords) for ti, si in coords
    )
    return SymplecticElement._derived(rows)


_S = ((0, -1), (1, 0))
_T = ((1, 1), (0, 1))


@functools.cache
def gen_S() -> SymplecticElement:
    """The order-4 generator [[0, -1], [1, 0]] of SL(2,Z)."""
    return SymplecticElement(_S)


@functools.cache
def gen_T() -> SymplecticElement:
    """The parabolic generator [[1, 1], [0, 1]] of SL(2,Z)."""
    return SymplecticElement(_T)


def _syllable(syllable) -> tuple[str, int]:
    """``syllable`` itself if it is a tuple (generator, exponent) with the
    generator "S" or "T" and an ``int`` exponent (not a ``bool``), or
    ``MatrixFormatError``."""
    pair = isinstance(syllable, tuple) and len(syllable) == 2 and syllable[0] in ("S", "T")
    if not (pair and type(syllable[1]) is int):
        raise MatrixFormatError("a syllable must be a tuple ('S' or 'T', int exponent)")
    return syllable


class SL2Word(Record):
    """A word in the generators S, T as (generator, exponent) syllables.

    The product of the syllables, left to right, recovers the matrix the
    word was derived from. Rendered as a string, one letter per unit of
    exponent, lowercase marking inverses: S, s, T, t.
    """

    __slots__ = ("syllables",)

    def _check(self):
        if not isinstance(self.syllables, tuple):
            raise MatrixFormatError("syllables must be a tuple of (generator, exponent) pairs")
        for _, e in map(_syllable, self.syllables):
            if e == 0:
                raise MatrixFormatError("exponent must be nonzero")

    def evaluate(self) -> SymplecticElement:
        """The product of the syllables left to right, each ``gen_S() ** e`` or
        ``gen_T() ** e``; the identity for no syllable."""
        powers = ((gen_S() if gen == "S" else gen_T()) ** e for gen, e in self.syllables)
        return functools.reduce(mul, powers, SymplecticElement.identity(1))

    def letters(self):
        for gen, e in self.syllables:
            char = gen if e > 0 else gen.lower()
            for _ in range(abs(e)):
                yield char

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self) -> str:
        return "".join(self.letters())


def _sl2_reduce(
    a: SymplecticElement | Iterable[Iterable[int]],
) -> tuple[tuple[int, int, int, int], list[int], tuple[int, int], int]:
    """Read a 2x2 matrix A of determinant 1 from int rows (``_int_matrix``), or
    raise ``NotUnimodular``; return its entries (a, b, c, d), the quotients
    q_1..q_k and tail (s, b') of one Euclidean reduction A = T^q_1 S ...
    T^q_k S S^s T^b' (s is 0 or 2), and Rademacher's integer function Phi(A).

    Each step takes q, r = divmod(a, c) of the remainder's first column. Its
    |c| falls by at least 1 per step, so there are at most |c| steps: few for
    large quotients, but n for [[1, 0], [-n, 1]] (q = -1, -2, ..., -2).

    Phi is folded from Phi(T^n) = n, Phi(S^k) = 0 and Phi(XY) = Phi(X) +
    Phi(Y) - 3 sign(c_X c_Y c_XY), c the lower-left entry. With X_k the product
    of the first k steps, T^q adds q and S adds -3 sign(c_(k-1) c_k): 0 for
    k = 1, as c_0 = 0. After the first step the remainder's first column has
    opposite signs and |c| < |a|, so every later q <= -2, and c_k = q_k c_(k-1)
    - c_(k-2) from c_0 = 0, c_1 = 1 alternates in sign and grows: every later
    S adds +3.
    """
    mat = a.mat if isinstance(a, SymplecticElement) else _int_matrix(a)
    if len(mat) != 2 or any(len(row) != 2 for row in mat):
        raise NotUnimodular("need a 2x2 matrix")
    (aa, bb), (cc, dd) = mat
    if aa * dd - bb * cc != 1:
        raise NotUnimodular("determinant must be 1")
    entries = (aa, bb, cc, dd)

    quotients: list[int] = []
    phi = -3 if cc else 0  # the first S adds no correction
    # invariant: input = T^q_1 S ... T^q_j S [[aa, bb], [cc, dd]], and for
    # j >= 1 phi = Phi(T^q_1 S ... T^q_j S)
    while cc:
        q, r = divmod(aa, cc)
        quotients.append(q)
        phi += q + 3
        # S^-1 T^-q [[aa, bb], [cc, dd]] = [[cc, dd], [-r, q dd - bb]]
        aa, bb, cc, dd = cc, dd, -r, q * dd - bb
    if aa != 1:  # aa == dd == -1, the remainder is -T^-bb = S^2 T^-bb
        bb = -bb
    return entries, quotients, (1 - aa, bb), phi + bb


def sl2_word(a: SymplecticElement | Iterable[Iterable[int]]) -> SL2Word:
    """Decompose a 2x2 integer matrix of determinant 1 into S, T syllables.

    The word is T^q S for each quotient q of the Euclidean reduction
    (``_sl2_reduce``), then S^2 for -I and T^b. The reduction's invariant, that
    only the first quotient can be 0 and every later one is <= -2, makes this
    the normal form as it is built: T^0 is dropped, a last S merges with the
    S^2 into S^3, and no two adjacent syllables share a generator. It has at
    most 2|c| + 2 syllables, and its length ``len()`` sums their exponents:
    [[1, 10**9], [0, 1]] is the one syllable T^(10^9).
    """
    _, quotients, (s, b), _ = _sl2_reduce(a)
    syllables = [(gen, e) for q in quotients for gen, e in (("T", q), ("S", 1)) if e]
    if s and syllables:  # the last syllable is S, and S S^2 = S^3
        syllables[-1] = ("S", 3)
    elif s:
        syllables.append(("S", 2))
    if b:
        syllables.append(("T", b))
    return SL2Word(tuple(syllables))


def random_transvection_product(rng, g: int, length: int) -> SymplecticElement:
    """Product of ``length`` transvections on random vectors with entries in [-3, 3].

    Intended for seeded property tests with a ``random.Random`` as ``rng``; the
    zero vector is resampled. A ``length`` not an int >= 0 raises ``InvalidInput``.
    """
    length = _int_arg(length, "length", 0)
    result = SymplecticElement.identity(g)
    produced = 0
    while produced < length:
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if all(x == 0 for x in v):
            continue
        result = result * transvection(v)
        produced += 1
    return result
