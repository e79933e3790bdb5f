"""Symplectic matrices over the integers, transvections, and SL(2,Z) words.

The alternating form is fixed once and for all as J = [[0, I], [-I, 0]] with
respect to a basis ordered (a_1..a_g, b_1..b_g). Every sign downstream is
derived from this convention; flipping the orientation convention flips the
sign of the signature cocycle globally.

A transvection here is x -> x + (x^t J v) v. For v = e_1 at genus 1 this is
[[1, -1], [0, 1]], the homology image of the *inverse* of a right-handed
Dehn twist; the twist itself is its inverse.

The Euclidean reduction of A = [[a, b], [c, d]] in SL(2,Z) strips T^q S from
the left while c != 0, q = a // c: S^-1 T^-q [[a, b], [c, d]] = [[c, d],
[-r, q d - b]], r = a mod c, so the first column (a, c) goes to (c, -r) on
its own. Then A = T^q_1 S ... T^q_k S S^s T^b', s = 0 or 2. After the first
step the first column has opposite signs and |c| < |a|, so every later
q <= -2, and |c| falls by at least 1 per step: at most |c| steps, exactly n
for [[1, 0], [-n, 1]] (q = -1, -2, ..., -2). X_j = T^q_1 S ... T^q_j S has
lower row (c_j, -c_(j-1)), c_j = q_j c_(j-1) - c_(j-2) from c_0 = 0, c_1 = 1,
and the c_j alternate in sign and grow.

The tail. A = +-X_k T^b' (S^2 = -I), so (c, d) = +-(c_k, c_k b' - c_(k-1))
and d/c = b' - c_(k-1)/c_k with c_(k-1)/c_k in (-1, 0]: b' = d // c. For
c = 0 there is no step and A = +-T^(+-b): b' = a b.

Rademacher's Phi (``meyer``'s closed form) follows from Phi(T^n) = n,
Phi(S^m) = 0 and Phi(XY) = Phi(X) + Phi(Y) - 3 sign(c_X c_Y c_XY): T^q adds q
and the S ending X_j adds -3 sign(c_(j-1) c_j), 0 for j = 1 and +3 after, so
Phi(A) = -3 + sum_j (q_j + 3) + b' for c != 0 and a b for c = 0.

Runs of -2. A step with q = -2 takes (a, c), of opposite signs with |c| <
|a| <= 2|c|, to (c, -(a + 2c)): e = |a| - |c| stays fixed and |c| falls by
e, so the run goes on while |c| >= e. One divmod(|c|, e) gives its length k,
each step adding 1 to Phi, and the |c| it leaves; the next q is <= -3.
Negating the column keeps every later quotient, divmod(-a, -c) = (q, -r),
so the fold may resume after the run from either sign of the column.
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
    zero = (0,) * n  # rows sliced from it: a third of the time of an int(i == j) per entry
    return tuple([zero[:i] + (1,) + zero[i + 1 :] for i in range(n)])


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    # lists, not generators: tuple() of a generator resizes as it grows (peak RSS)
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


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
        # A^t J A = J iff A J A^t = J, and A J A^t is alternating for any A,
        # so it is enough that w(r_i, r_j) = r_i^t J r_j is [j = i + g] for the
        # rows r_i, r_j of A, i < j: n(n-1)/2 dot products, each with the row's
        # r_i^t J = (-r_i[g:], r_i[:g]). At 2x2 it is ad - bc = 1.
        g = n // 2
        for i in range(n - 1):
            row = rows[i]
            form = (*map(neg, row[g:]), *row[:g])
            for j in range(i + 1, n):
                if sum(map(mul, form, rows[j])) != (j == i + g):
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


def transvection(v: Sequence[int]) -> SymplecticElement:
    """The symplectic map x -> x + (x^t J v) v as a matrix.

    For nonzero v of length 2g this is I + v (Jv)^t, always symplectic.
    """
    (vv,) = _int_matrix((v,))
    if len(vv) % 2 != 0 or not vv:
        raise MatrixFormatError(f"vector length must be even and positive, got {len(vv)}")
    if not any(vv):
        raise ZeroVector("transvection direction must be nonzero")
    return SymplecticElement._derived(_transvect(_identity(len(vv)), vv))


def _transvect(m: IntMatrix, v: Sequence[int]) -> IntMatrix:
    """The rows of M T_v = M + (Mv)(Jv)^t, M times the transvection on v, as
    a rank-one update: O(n^2), where a product with T_v costs O(n^3)."""
    g = len(v) // 2
    w = (*v[g:], *map(neg, v[:g]))  # Jv: the halves of v swapped, the lower one negated
    rows = []
    for row in m:
        s = sum(map(mul, row, v))  # (Mv)_i
        rows.append(tuple([x + s * y for x, y in zip(row, w)]) if s else row)
    return tuple(rows)


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

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self) -> str:
        return "".join((gen if e > 0 else gen.lower()) * abs(e) for gen, e in self.syllables)


def _sl2_entries(a: SymplecticElement | Iterable[Iterable[int]]) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of a 2x2 matrix of determinant 1 read from
    int rows (``_int_matrix``), or ``NotUnimodular``. The shape is checked by
    unpacking the rows into two pairs: any other shape fails the unpack."""
    mat = a.mat if isinstance(a, SymplecticElement) else _int_matrix(a)
    try:
        (aa, bb), (cc, dd) = mat
    except ValueError:
        raise NotUnimodular("need a 2x2 matrix") from None
    if aa * dd - bb * cc != 1:
        raise NotUnimodular("determinant must be 1")
    return aa, bb, cc, dd


def _rademacher(a: int, b: int, c: int, d: int) -> int:
    """Rademacher's Phi of [[a, b], [c, d]] in SL(2,Z), folded on the first
    column alone, each run of quotients -2 in one divmod (see the module
    docstring): O(log |c|) steps, and no quotient is kept."""
    if not c:
        return a * b
    aa, cc, phi = a, c, -3  # the first S adds no correction
    while cc:
        q, r = divmod(aa, cc)
        if q == -2:  # a run; e is |aa| - |cc| with the sign of cc
            e = -aa - cc
            k, r = divmod(cc, e)
            phi += k
            aa, cc = -r - e, r
        else:
            phi += q + 3
            aa, cc = cc, -r
    return phi + d // c


def sl2_word(a: SymplecticElement | Iterable[Iterable[int]]) -> SL2Word:
    """Decompose a 2x2 integer matrix of determinant 1, read by
    ``_sl2_entries``, into S, T syllables: T^q S for each quotient q of the
    Euclidean reduction (module docstring), one step each, so up to |c| of
    them, then S^2 for -I and T^b'. As every quotient after the first is
    <= -2, this is the normal form as it is built: T^0 is dropped, a last S
    merges with the S^2 into S^3, and no two adjacent syllables share a
    generator. It has at most 2|c| + 2 syllables, and its length ``len()``
    sums their exponents: [[1, 10**9], [0, 1]] is the one syllable T^(10^9).
    """
    aa, bb, cc, dd = _sl2_entries(a)
    tail = dd // cc if cc else aa * bb
    syllables: list[tuple[str, int]] = []
    while cc:
        q, r = divmod(aa, cc)
        if q:
            syllables.append(("T", q))
        syllables.append(("S", 1))
        aa, cc = cc, -r
    if aa < 0 and syllables:  # -T^b' = S^2 T^b' after a last S: S S^2 = S^3
        syllables[-1] = ("S", 3)
    elif aa < 0:
        syllables.append(("S", 2))
    if tail:
        syllables.append(("T", tail))
    return SL2Word(tuple(syllables))


def random_transvection_product(rng, g: int, length: int) -> SymplecticElement:
    """Product of ``length`` transvections on random vectors with entries in [-3, 3],
    each factor multiplied on as a rank-one update (``_transvect``).

    Intended for seeded property tests with a ``random.Random`` as ``rng``; the
    zero vector is resampled. A ``length`` not an int >= 0 raises ``InvalidInput``.
    """
    length = _int_arg(length, "length", 0)
    mat = SymplecticElement.identity(g).mat
    produced = 0
    while produced < length:
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if all(x == 0 for x in v):
            continue
        mat = _transvect(mat, v)
        produced += 1
    return SymplecticElement._derived(mat)
