"""Exact numerals and the integer linear algebra behind ``tau``.

The module holds:

* numeral parsing: one grammar for integers (``parse_integer``) and one for
  rationals (``parse_rational``), and the matrix text format
  (``parse_matrix``),
* ``RatMatrix``, an immutable container of exact entries that is parsed and
  compared, with no arithmetic of its own,
* right kernel bases of integer matrices, as primitive integer vectors
  (``kernel_basis``),
* Gram matrices of the cocycle pairing (x + y)^t S y' restricted to a list
  of vectors (x | y) (``gram_restrict``),
* signatures of symmetric integer forms by congruence diagonalization
  (``signature_symmetric``).

The three linear-algebra helpers take and return rows of ``int``s, and refuse
any other entry with ``MatrixFormatError``. Every elimination is
integer-preserving: the kernel's Gauss-Jordan elimination is Bareiss's
fraction-free one, whose pivot step cross-multiplies and then divides
exactly by the previous pivot, and the signature's Schur complements are
divided by their content, so neither rational nor floating-point arithmetic
enters any computation path. Rescaling basis vectors by positive constants
is a congruence, so none of these scalings moves a signature (Sylvester's
law of inertia); signatures are integers decided by signs of exact pivots,
and every downstream value is reproducible bit for bit.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from ._record import Record
from .errors import AsymmetricGram, InvalidInput, MatrixFormatError

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


def _int_arg(x, name: str) -> int:
    """An integer argument from a library caller: an ``int`` is returned as it
    is; a ``bool``, float, string or anything else raises ``InvalidInput``."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInput(f"{name} must be an int, got {type(x).__name__}")
    return x


def _rational_arg(x, name: str) -> int | Fraction:
    """Like ``_int_arg``, for an ``int`` or a ``Fraction`` (not a ``bool`` or float)."""
    if type(x) not in (int, Fraction):
        raise InvalidInput(f"{name} must be an int or a Fraction, got {x!r}")
    return x


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
    """One matrix entry from outside: an ``int`` or a ``Fraction`` as it is, a
    ``str`` by ``parse_rational``; anything else, a ``bool``, a float or a
    ``Decimal`` included, raises ``MatrixFormatError``."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, str):
        return parse_rational(x)
    kind = type(x).__name__
    raise MatrixFormatError(f"matrix entries must be ints, Fractions or numerals, got {kind}")


def _entries(row: Iterable) -> tuple:
    return tuple(map(_entry, row))


def _int_entries(row: Iterable) -> tuple[int, ...]:
    """One row for the linear-algebra helpers: its entries must all be ``int``s
    (not ``bool``s, rationals, floats or strings), or ``MatrixFormatError``
    names the first other type."""
    row = tuple(row)
    if not set(map(type, row)) <= {int}:
        bad = next(type(x).__name__ for x in row if type(x) is not int)
        raise MatrixFormatError(f"entries must be ints, got {bad}")
    return row


def _rows(data: Iterable[Iterable], read=_entries) -> tuple[tuple, ...]:
    """Outside matrix data as rows, each read by ``read``: the one row reader
    of ``RatMatrix``, of the symplectic types and (with ``_int_entries``) of
    the linear-algebra helpers. A ``str`` or ``bytes`` row raises
    ``MatrixFormatError`` instead of giving one entry per character, and so
    does a matrix or a row that is not iterable."""
    rows = []
    try:  # neither row reader raises TypeError, so only iterating data or a row does
        for row in data:
            if isinstance(row, (str, bytes, bytearray)):
                kind = type(row).__name__
                raise MatrixFormatError(f"a matrix row must hold entries, got {kind}")
            rows.append(read(row))
    except TypeError as exc:
        raise MatrixFormatError(f"a matrix and its rows must be iterable: {exc}") from exc
    return tuple(rows)


class RatMatrix(Record):
    """Immutable dense matrix of exact rationals, row-major: the output of
    ``parse_matrix`` and an input of ``SymplecticElement``.

    ``int`` and ``Fraction`` entries are kept as they are and ``str`` entries
    are read by ``parse_rational``; any other entry, and a row that is a
    string, raises ``MatrixFormatError``.
    """

    __slots__ = ("data", "cols")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = _rows(data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise MatrixFormatError("ragged rows")
            if cols is not None and cols != width:
                raise MatrixFormatError(f"declared {cols} columns, rows have {width}")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "cols", width)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.data), self.cols)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def _primitive(row: list[int]) -> list[int]:
    """Row divided by the gcd of its entries (a zero row stays zero)."""
    d = math.gcd(*row)
    return [x // d for x in row] if d > 1 else row


def _int_matrix(data: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows of an integer matrix, read at the linear-algebra helpers'
    boundary: an entry that is not an ``int`` and a row of another length
    than the first raise ``MatrixFormatError``. No rows means no columns."""
    rows = _rows(data, _int_entries)
    if any(len(row) != len(rows[0]) for row in rows):
        raise MatrixFormatError("ragged rows")
    return rows


def _symmetric(gram: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """``gram`` itself, or ``AsymmetricGram`` if it is not square and symmetric."""
    n = len(gram)
    if gram and len(gram[0]) != n:
        raise AsymmetricGram(f"Gram matrix must be square, got {n}x{len(gram[0])}")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise AsymmetricGram("Gram matrix is not symmetric")
    return gram


def _eliminate(rows: list[Sequence[int]], cols: int) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in place.

    With p the new pivot and ``prev`` the one before it (1 at first), each
    pivot step replaces every other row r, rows that are zero in the pivot
    column included, by (p*r - r[c]*(pivot row)) / prev; by Sylvester's
    identity the division is exact, and entries stay minors of the input.
    Returns the nonzero rows and their pivot columns: row i is zero in every
    other pivot column, and every pivot entry equals the last pivot, so each
    row is that pivot times row i of the reduced row echelon form.
    """
    pivots: list[int] = []
    prev = 1
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
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
    return rows[: len(pivots)], pivots


def kernel_basis(m: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """Basis of {v : Mv = 0} as primitive integer vectors, for M given by int rows.

    There is one basis vector per free column f: the positive multiple, with coprime
    integer entries, of the reduced-echelon vector that carries 1 at position
    f and the negated reduced-echelon entries at the pivot positions. After
    the Bareiss elimination every pivot entry is the last pivot d, so |d|
    times that vector is integral: |d| at f and -sign(d) * row[f] at each
    pivot. The output depends only on M, not on elimination order.
    """
    rows = _int_matrix(m)
    cols = len(rows[0]) if rows else 0
    rows, pivots = _eliminate(list(rows), cols)
    d = rows[0][pivots[0]] if pivots else 1
    sign = 1 if d > 0 else -1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = abs(d)
        for row, p in zip(rows, pivots):
            v[p] = -sign * row[f]
        basis.append(tuple(_primitive(v)))
    return basis


def gram_restrict(
    s: Iterable[Iterable[int]], basis: Iterable[Iterable[int]]
) -> tuple[tuple[int, ...], ...]:
    """Gram matrix G[i][j] = (x_i + y_i)^t S y_j of basis vectors b = (x | y),
    as int rows.

    S is an n x n int matrix and each basis vector has 2n ints. S itself need
    not be symmetric; the restriction to the supplied vectors must be, and an
    asymmetric result raises AsymmetricGram (a non-kernel basis, or a bug).
    """
    s, basis = _int_matrix(s), _int_matrix(basis)
    n = len(s)
    if s and len(s[0]) != n:
        raise MatrixFormatError("pairing matrix must be square")
    if basis and len(basis[0]) != 2 * n:
        raise MatrixFormatError(
            f"basis vector of length {len(basis[0])} against pairing of size {n}"
        )
    ys = [v[n:] for v in basis]
    sums = [[a + b for a, b in zip(v, y)] for v, y in zip(basis, ys)]
    images = [[dot(row, y) for row in s] for y in ys]
    return _symmetric(tuple(tuple(dot(u, img) for img in images) for u in sums))


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


def signature_symmetric(gram: Iterable[Iterable[int]]) -> int:
    """Signature (#positive - #negative diagonal pivots) of the symmetric form
    with Gram matrix ``gram``, given by int rows; a Gram that is not square
    and symmetric raises AsymmetricGram.

    Integer-preserving congruence diagonalization. Symmetric pivoting takes
    the first nonzero diagonal entry p and replaces the active block by
    |p| times its Schur complement, divided by the block's content: both are
    positive scalings, so no signature moves. When the active diagonal is
    entirely zero but some off-diagonal entry remains, a hyperbolic basis
    change exposes a pair of opposite pivots. Zero eigenvalues contribute
    nothing.
    """
    g = [list(row) for row in _symmetric(_int_matrix(gram))]
    n = len(g)
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

