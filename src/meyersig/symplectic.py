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
from operator import mul

from ._record import Record
from .errors import GenusMismatch, MatrixFormatError, NotSymplectic, NotUnimodular, ZeroVector
from .exactnum import _int_matrix

IntMatrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def apply_J(m: IntMatrix) -> IntMatrix:
    """J * M for J = [[0, I], [-I, 0]], applied as a signed swap of the row
    halves, (M[g:], -M[:g]), instead of a matrix product."""
    g = len(m) // 2
    return m[g:] + tuple(tuple(-x for x in row) for row in m[:g])


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
        if n < 2 or n % 2 != 0 or any(len(row) != n for row in rows):
            raise NotSymplectic(f"need an even square matrix of size >= 2, got {n} rows")
        # for a 2x2 matrix A^t J A = det(A) J, so this also rejects det != 1
        if _matmul(tuple(zip(*rows)), apply_J(rows)) != apply_J(_identity(n)):
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
        if g < 1:
            raise NotSymplectic(f"genus must be >= 1, got {g}")
        return cls._derived(_identity(2 * g))

    def __mul__(self, other: "SymplecticElement") -> "SymplecticElement":
        if not isinstance(other, SymplecticElement):
            return NotImplemented
        if self.g != other.g:
            raise GenusMismatch(f"genus {self.g} times genus {other.g}")
        return SymplecticElement._derived(_matmul(self.mat, other.mat))

    def inverse(self) -> "SymplecticElement":
        # A^{-1} = J^{-1} A^t J = J (J A)^t: two signed swaps and a transpose
        return SymplecticElement._derived(apply_J(tuple(zip(*apply_J(self.mat)))))

    def __pow__(self, e: int) -> "SymplecticElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = SymplecticElement.identity(self.g)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
    w = vv[g:] + tuple(-x for x in vv[:g])  # Jv, the signed swap of apply_J
    return SymplecticElement._derived(
        tuple(tuple(int(i == j) + vi * wj for j, wj in enumerate(w)) for i, vi in enumerate(vv))
    )


def direct_sum(a: SymplecticElement, b: SymplecticElement) -> SymplecticElement:
    """Block sum respecting the (a-coordinates, b-coordinates) basis order.

    The coordinate blocks are interleaved, not naively stacked: the result
    acts on (a_1..a_{g1}, a'_1..a'_{g2}, b_1..b_{g1}, b'_1..b'_{g2}), which is
    exactly what keeps it symplectic for the standard J.
    """
    g1, g2 = a.g, b.g
    g = g1 + g2

    def source(i: int) -> tuple[int, int]:
        if i < g1:
            return 0, i
        if i < g:
            return 1, i - g1
        if i < g + g1:
            return 0, g1 + (i - g)
        return 1, g2 + (i - g - g1)

    mats = (a.mat, b.mat)
    coords = [source(i) for i in range(2 * g)]
    rows = tuple(
        tuple(mats[ti][si][sj] if ti == tj else 0 for tj, sj in coords) for ti, si in coords
    )
    return SymplecticElement._derived(rows)


_S = ((0, -1), (1, 0))
_T = ((1, 1), (0, 1))
_S_POWERS = (_identity(2), _S, ((-1, 0), (0, -1)), ((0, 1), (-1, 0)))  # S^0 .. S^3


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
        """The product of the syllables: S^e as S^(e mod 4) and T^e as
        [[1, e], [0, 1]], folded in 2x2 ints and wrapped once."""
        mat = _S_POWERS[0]
        for gen, e in self.syllables:
            mat = _matmul(mat, _S_POWERS[e % 4] if gen == "S" else ((1, e), (0, 1)))
        return SymplecticElement._derived(mat)

    def letters(self):
        for gen, e in self.syllables:
            char = gen if e > 0 else gen.lower()
            for _ in range(abs(e)):
                yield char

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self) -> str:
        return "".join(self.letters())


def _normalize_syllables(raw: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for gen, e in raw:
        if out and out[-1][0] == gen:
            e += out.pop()[1]
        if gen == "S":
            e %= 4  # S^4 = I
        if e != 0:
            out.append((gen, e))
    return tuple(out)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sl2_reduce(
    a: SymplecticElement | Iterable[Iterable[int]],
) -> tuple[tuple[int, int, int, int], list[tuple[str, int]], int]:
    """Read a 2x2 matrix A of determinant 1 from int rows (``_int_matrix``), or
    raise ``NotUnimodular``; return its entries (a, b, c, d), raw syllables
    of a word for A (which ``sl2_word`` normalizes) and Rademacher's integer
    function Phi(A) (which ``meyer.phi1`` reads), all from one Euclidean
    reduction.

    Phi is folded from Phi(T^n) = n, Phi(S^k) = 0 and Phi(XY) = Phi(X) +
    Phi(Y) - 3 sign(c_X c_Y c_XY), c the lower-left entry, which holds for any
    factorization. Only the bottom row (c, d) of the running product X is
    kept, and only up to sign, as Phi(-X) = Phi(X): T^n and S^2 = -I have
    c = 0 and add no correction; Y = S has c_Y = 1 and c_XY = d, so it adds
    -3 sign(c d).
    """
    mat = a.mat if isinstance(a, SymplecticElement) else _int_matrix(a)
    if len(mat) != 2 or any(len(row) != 2 for row in mat):
        raise NotUnimodular("need a 2x2 matrix")
    (aa, bb), (cc, dd) = mat
    if aa * dd - bb * cc != 1:
        raise NotUnimodular("determinant must be 1")
    entries = (aa, bb, cc, dd)

    raw: list[tuple[str, int]] = []
    phi, c, d = 0, 0, 1
    # invariant: input = (product of raw) * [[aa, bb], [cc, dd]], and the
    # product of raw has Phi = phi and bottom row +-(c, d)
    while cc != 0:
        q = aa // cc
        if q != 0:
            raw.append(("T", q))
            phi += q
            d += c * q
            aa, bb = aa - q * cc, bb - q * dd
        raw.append(("S", 1))
        phi -= 3 * _sign(c * d)
        c, d = d, -c
        # strip S^{-1} from the remainder: S^{-1} [[a,b],[c,d]] = [[c,d],[-a,-b]]
        aa, bb, cc, dd = cc, dd, -aa, -bb
    if aa != 1:  # aa == dd == -1, remainder is -T^{-bb} = S^2 T^{-bb}
        raw.append(("S", 2))
        bb = -bb
    if bb != 0:
        raw.append(("T", bb))
    return entries, raw, phi + bb


def sl2_word(a: SymplecticElement | Iterable[Iterable[int]]) -> SL2Word:
    """Decompose a 2x2 integer matrix of determinant 1 into S, T syllables.

    Euclidean reduction of the first column: the word length is bounded by
    the bit lengths of the entries, -I is normalized to S^2 and S-exponents
    are reduced mod 4.
    """
    return SL2Word(_normalize_syllables(_sl2_reduce(a)[1]))


def random_transvection_product(rng, g: int, length: int) -> SymplecticElement:
    """Product of ``length`` transvections on random vectors with entries in [-3, 3].

    Intended for seeded property tests with a ``random.Random`` as ``rng``; the
    zero vector is resampled.
    """
    result = SymplecticElement.identity(g)
    produced = 0
    while produced < length:
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if all(x == 0 for x in v):
            continue
        result = result * transvection(v)
        produced += 1
    return result
