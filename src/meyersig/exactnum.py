"""Exact numerals and the integer linear algebra behind ``tau``.

The module holds:

* numeral parsing: one grammar for integers (``parse_integer``) and one for
  rationals (``parse_rational``), and the matrix text format
  (``parse_matrix``),
* ``RatMatrix``, an immutable container of exact entries that is parsed,
  compared and handed to the helpers below, with no arithmetic of its own,
* right kernel bases of exact matrices, as primitive integer vectors
  (``kernel_basis``),
* Gram matrices of the cocycle pairing (x + y)^t S y' restricted to a list
  of vectors (x | y) (``gram_restrict``),
* signatures of symmetric forms by congruence diagonalization
  (``signature_symmetric``).

Every elimination is integer-preserving: rows are cleared of denominators by
positive multiples, a pivot step cross-multiplies instead of dividing, and
each new row or block is divided by its content. Integer input therefore
never meets ``fractions.Fraction``; only rational ``RatMatrix`` input does,
and only while its denominators are cleared. No floating point enters any
computation path. Rescaling basis vectors by positive constants is a
congruence, so none of these scalings moves a signature (Sylvester's law of
inertia); signatures are integers decided by signs of exact pivots, and
every downstream value is reproducible bit for bit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import AsymmetricGram, MatrixFormatError

_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?", re.ASCII)


def parse_integer(token: str) -> int:
    """Parse an optional sign and ASCII digits: the integers of ``parse_rational``.

    Anything else, and integers beyond the digit limit, raise ``ValueError``,
    so this also serves as an argparse ``type``.
    """
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"bad integer {token!r}")
    return int(token)


def parse_rational(token: str) -> Fraction:
    """Parse an optional sign, ASCII digits and an optional "/q" denominator.

    Decimals, exponents, underscores and non-ASCII digits are rejected; so are
    a zero denominator and integers beyond the interpreter's digit limit.
    """
    if not _RATIONAL.fullmatch(token):
        raise MatrixFormatError(f"bad rational {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise MatrixFormatError(f"zero denominator in {token!r}") from exc
    except ValueError as exc:  # more digits than the interpreter converts
        raise MatrixFormatError("bad rational: too many digits") from exc


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _entry(x):
    """One matrix entry from outside: an ``int`` as it is, a ``str`` by
    ``parse_rational``, anything else through ``Fraction``."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        return parse_rational(x)
    return Fraction(x)


class RatMatrix:
    """Immutable dense matrix of exact rationals, row-major: the output of
    ``parse_matrix`` and the input of ``kernel_basis`` and ``SymmetricForm``.

    ``int`` entries are kept as they are, ``str`` entries are read by
    ``parse_rational`` and any other entry becomes a Fraction.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(map(_entry, row)) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise MatrixFormatError("ragged rows")
            if cols is not None and cols != width:
                raise MatrixFormatError(f"declared {cols} columns, rows have {width}")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def _primitive(row: list[int]) -> list[int]:
    """Row divided by the gcd of its entries (a zero row stays zero)."""
    d = math.gcd(*row)
    return [x // d for x in row] if d > 1 else row


def _cleared(row: Iterable, lcm: int) -> list[int]:
    """Integer row: the exact rationals of ``row`` times ``lcm``, which every
    denominator divides. Fraction-free for int entries."""
    return [x.numerator * (lcm // x.denominator) for x in row]


def _integer_rows(m: RatMatrix) -> list[list[int]]:
    """Rows of M scaled to primitive integer rows (same row space)."""
    return [
        _primitive(_cleared(row, math.lcm(*(x.denominator for x in row)))) for row in m.data
    ]


def _eliminate(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each pivot step replaces every other row r by p*r - r[c]*(pivot row) and
    divides it by its content. Returns the nonzero rows and their pivot
    columns: row i is a nonzero multiple of row i of the reduced row echelon
    form, so it is zero in every other pivot column.
    """
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = _primitive([p * x - f * y for x, y in zip(row, top)])
        pivots.append(c)
    return rows[: len(pivots)], pivots


def kernel_basis(m: RatMatrix) -> list[tuple[int, ...]]:
    """Basis of {v : Mv = 0} as primitive integer vectors.

    There is one basis vector per free column f: the positive multiple, with coprime
    integer entries, of the reduced-echelon vector that carries 1 at position
    f and the negated reduced-echelon entries at the pivot positions. The
    output depends only on M, not on elimination order.
    """
    cols = m.cols
    rows, pivots = _eliminate(_integer_rows(m), cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        # reduced-echelon entry of row i at column f is row[f] / row[pivot]
        scale = math.lcm(*(abs(row[p]) for row, p in zip(rows, pivots) if row[f]))
        v = [0] * cols
        v[f] = scale
        for row, p in zip(rows, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(tuple(_primitive(v)))
    return basis


class SymmetricForm:
    """A symmetric bilinear form carried by its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: RatMatrix):
        if gram.rows != gram.cols:
            raise AsymmetricGram(f"Gram matrix must be square, got {gram.shape}")
        d = gram.data
        if any(d[i][j] != d[j][i] for i in range(gram.rows) for j in range(i)):
            raise AsymmetricGram("Gram matrix is not symmetric")
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricForm is immutable")

    @property
    def dim(self) -> int:
        return self.gram.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetricForm) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"SymmetricForm({self.gram!r})"


def gram_restrict(s: Sequence[Sequence], basis: Sequence[Sequence]) -> SymmetricForm:
    """Gram matrix G[i][j] = (x_i + y_i)^t S y_j of basis vectors b = (x | y).

    S is an n x n matrix and each basis vector has length 2n. S itself need
    not be symmetric; the restriction to the supplied vectors must be, and an
    asymmetric result raises AsymmetricGram (a non-kernel basis, or a bug).
    """
    n = len(s)
    if any(len(row) != n for row in s):
        raise MatrixFormatError("pairing matrix must be square")
    for v in basis:
        if len(v) != 2 * n:
            raise MatrixFormatError(
                f"basis vector of length {len(v)} against pairing of size {n}"
            )
    ys = [v[n:] for v in basis]
    sums = [[a + b for a, b in zip(v, y)] for v, y in zip(basis, ys)]
    images = [[dot(row, y) for row in s] for y in ys]
    g = [[dot(u, img) for img in images] for u in sums]
    return SymmetricForm(RatMatrix(g, cols=len(basis)))


def _swap_symmetric(g: list[list[int]], i: int, j: int) -> None:
    g[i], g[j] = g[j], g[i]
    for row in g:
        row[i], row[j] = row[j], row[i]


def _split_hyperbolic(g: list[list[int]], i: int, j: int) -> None:
    # basis change b_i <- b_i + b_j, b_j <- b_i - b_j; with zero diagonal this
    # exposes the pivots +-2*g[i][j]
    n = len(g)
    for c in range(n):
        a, b = g[i][c], g[j][c]
        g[i][c], g[j][c] = a + b, a - b
    for r in range(n):
        a, b = g[r][i], g[r][j]
        g[r][i], g[r][j] = a + b, a - b


def signature_symmetric(form: SymmetricForm | RatMatrix) -> int:
    """Signature (#positive - #negative diagonal pivots) of a symmetric form.

    Integer-preserving congruence diagonalization. A rational Gram is first
    multiplied by the positive lcm of its denominators. Symmetric pivoting
    takes the first nonzero diagonal entry p and replaces the active block by
    |p| times its Schur complement, divided by the block's content: both are
    positive scalings, so no signature moves. When the active diagonal is
    entirely zero but some off-diagonal entry remains, a hyperbolic basis
    change exposes a pair of opposite pivots. Zero eigenvalues contribute
    nothing.
    """
    if isinstance(form, RatMatrix):
        form = SymmetricForm(form)
    data = form.gram.data
    lcm = math.lcm(*(x.denominator for row in data for x in row))
    g = [_cleared(row, lcm) for row in data]
    n = form.dim
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if g[i][i] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if g[i][j] != 0),
                None,
            )
            if off is None:
                break
            _split_hyperbolic(g, *off)
            continue
        if piv != k:
            _swap_symmetric(g, k, piv)
        top = g[k]
        p = top[k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        # p * (block) - (pivot column)(pivot row) is sign(p) |p| (Schur complement
        # of p); divided by sign(p) times its content it stays a positive multiple
        rest = range(k + 1, n)
        block = [[p * x - g[r][k] * y for x, y in zip(g[r][k + 1 :], top[k + 1 :])] for r in rest]
        d = math.gcd(*(x for row in block for x in row)) or 1
        if p < 0:
            d = -d
        for r, row in zip(rest, block):
            g[r][k + 1 :] = [x // d for x in row] if d != 1 else row
        k += 1
    return pos - neg


def parse_matrix(text: str) -> RatMatrix:
    """Parse the matrix text format: "rows cols" then row-major entries.

    Entries are ``parse_rational`` tokens separated by arbitrary whitespace.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise MatrixFormatError("expected a 'rows cols' header")
    try:
        rows, cols = parse_integer(tokens[0]), parse_integer(tokens[1])
    except ValueError as exc:
        raise MatrixFormatError(f"bad header {tokens[:2]!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError("negative dimensions")
    body = tokens[2:]
    if len(body) != rows * cols:
        raise MatrixFormatError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(body)}"
        )
    entries = [parse_rational(tok) for tok in body]
    return RatMatrix(
        [entries[r * cols : (r + 1) * cols] for r in range(rows)], cols=cols
    )

