"""Exact numerals and the integer linear algebra behind ``tau``.

The module holds:

* numeral parsing: one grammar for integers (``parse_integer``) and one for
  rationals (``parse_rational``), and the matrix text format
  (``parse_matrix``), which gives int rows,
* the one reader of matrix arguments (``_int_matrix``): a matrix is a tuple
  of ``int`` tuples, and nothing else is read as one,
* right kernel bases of integer matrices, as primitive integer vectors
  (``kernel_basis``, or ``_kernel`` for the vectors of the free columns
  from a given one on),
* Gram matrices of the cocycle pairing (x + y)^t S y' restricted to a list
  of vectors (x | y) (``gram_restrict``),
* signatures of symmetric integer forms by symmetric Bareiss elimination
  (``signature_symmetric``).

The three linear-algebra helpers, like every matrix argument of the
library, take rows of ``int``s and refuse any other entry with
``MatrixFormatError``; they return int rows. ``tau`` calls their cores
(``_kernel``, ``_gram``, ``_signature``) on rows built from validated
elements, so nothing is read twice. Both eliminations are Bareiss's
fraction-free one, with one step: cross-multiply by the new pivot, then
divide exactly by the previous one. The kernel's Gauss-Jordan elimination
keeps only the live columns (see ``_kernel``); the signature's symmetric
elimination pivots on the diagonal and, where the live diagonal is zero,
adds one basis vector to another, a unimodular congruence that moves no
signature (Sylvester's law of inertia). Neither rational nor floating-point
arithmetic enters any computation path, signatures are integers decided by
the signs of exact pivots, and every downstream value is reproducible bit
for bit.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from fractions import Fraction
from operator import mul

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
        raise InvalidInput(f"{name} must be an int or a Fraction, got {_shown(x)}")
    return x


def _shown(x) -> str:
    """``repr(x)`` for an error message, or the name of its type when ``x`` holds
    an int past the interpreter's digit limit, which has no decimal form."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


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


def _primitive(row: list[int]) -> list[int]:
    """Row divided by the gcd of its entries (a zero row stays zero)."""
    d = math.gcd(*row)
    return [x // d for x in row] if d > 1 else row


def _int_matrix(data: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The one reader of a matrix argument: its rows as tuples of ``int``s.

    An entry that is not an ``int`` (a ``bool``, ``Fraction``, float or
    string included) raises ``MatrixFormatError`` naming its type; so do a
    ``str`` or ``bytes`` row (not read one character at a time), a matrix or
    row that is not iterable, and ragged rows. No rows means no columns.
    """
    rows = []
    try:  # only iterating data or a row raises TypeError here
        for row in data:
            if isinstance(row, (str, bytes, bytearray)):
                raise MatrixFormatError(f"a matrix row must hold entries, got {type(row).__name__}")
            row = tuple(row)
            if not set(map(type, row)) <= {int}:
                bad = next(type(x).__name__ for x in row if type(x) is not int)
                raise MatrixFormatError(f"entries must be ints, got {bad}")
            rows.append(row)
    except TypeError as exc:
        raise MatrixFormatError(f"a matrix and its rows must be iterable: {exc}") from exc
    if any(len(row) != len(rows[0]) for row in rows):
        raise MatrixFormatError("ragged rows")
    return tuple(rows)


def _symmetric(gram: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """``gram`` itself, or ``AsymmetricGram`` if it is not square and symmetric."""
    n = len(gram)
    if gram and len(gram[0]) != n:
        raise AsymmetricGram(f"Gram matrix must be square, got {n}x{len(gram[0])}")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise AsymmetricGram("Gram matrix is not symmetric")
    return gram


def _kernel(rows: list[list[int]], cols: int, start: int) -> list[tuple[int, ...]]:
    """The kernel vectors of the int rows ``rows`` (``cols`` wide, consumed)
    whose free column is ``start`` or later, as primitive integer vectors.

    Fraction-free (Bareiss) Gauss-Jordan elimination. With p the new pivot and
    ``prev`` the one before it (1 at first), each pivot step replaces every
    other row r by (p*r - r[c]*(pivot row)) / prev; by Sylvester's identity
    the division is exact, and entries stay minors of the input. Rows hold
    only the live columns: a pivot column leaves every row when it is chosen,
    since from then on each pivot row holds the current pivot in its own
    pivot column and 0 in the others; a free column below ``start`` leaves as
    soon as no pivot is found in it, since no vector is built from it. A step
    updates each column on its own, so neither removal changes the pivots or
    the last pivot d.

    The vector of a free column f is the positive multiple, with coprime
    integer entries, of the reduced-echelon vector that carries 1 at f and
    the negated reduced-echelon entries at the pivots: |d| at f and
    -sign(d) * row[f] at each pivot, divided by its content. It depends only
    on the input, not on the elimination order.
    """
    pivots: list[int] = []
    free: list[int] = []  # the kept free columns, in the order rows hold them
    prev = 1
    for c in range(cols):
        r = len(pivots)
        k = len(free)  # where the rows hold column c
        piv = next((i for i in range(r, len(rows)) if rows[i][k]), None)
        if piv is None:
            if c < start:
                for row in rows:
                    del row[k]
            else:
                free.append(c)
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top.pop(k)
        for i, row in enumerate(rows):
            if i != r:
                f = row.pop(k)
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
    sign = 1 if prev > 0 else -1
    basis = []
    for j, f in enumerate(free):
        v = [0] * cols
        v[f] = abs(prev)
        for row, c in zip(rows, pivots):
            v[c] = -sign * row[j]
        basis.append(tuple(_primitive(v)))
    return basis


def kernel_basis(m: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """Basis of {v : Mv = 0} as primitive integer vectors, for M given by int rows.

    There is one basis vector per free column f of the reduced row echelon
    form: the positive multiple, with coprime integer entries, of the vector
    that carries 1 at f and the negated reduced-echelon entries at the pivot
    positions (see ``_kernel``). The output depends only on M.
    """
    rows = _int_matrix(m)
    return _kernel([list(row) for row in rows], len(rows[0]) if rows else 0, 0)


def gram_restrict(
    s: Iterable[Iterable[int]], basis: Iterable[Iterable[int]]
) -> tuple[tuple[int, ...], ...]:
    """Gram matrix G[i][j] = (x_i + y_i)^t S y_j of basis vectors b = (x | y),
    as int rows.

    S is n x n and each basis vector has 2n ints. S need not be symmetric;
    the restriction must be, else AsymmetricGram (a non-kernel basis, or a
    bug). ``tau_form`` calls the core, ``_gram``, on its own vectors.
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
    return _gram(sums, [[sum(map(mul, row, y)) for row in s] for y in ys])


def _gram(sums: list[list[int]], images: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """G[i][j] = sums[i] . images[j] (x_i + y_i and S y_j), checked symmetric."""
    return _symmetric(tuple(tuple(sum(map(mul, u, img)) for img in images) for u in sums))


def signature_symmetric(gram: Iterable[Iterable[int]]) -> int:
    """Signature (#positive - #negative eigenvalues) of the symmetric form
    with Gram matrix ``gram``, given by int rows; a Gram that is not square
    and symmetric raises AsymmetricGram. The elimination is ``_signature``."""
    return _signature(_symmetric(_int_matrix(gram)))


def _signature(gram: tuple[tuple[int, ...], ...]) -> int:
    """The signature of int rows checked symmetric; ``tau`` passes ``tau_form``'s.

    Symmetric Bareiss elimination with the step of ``_kernel``. An index
    is live until it is pivoted on; the pivot is the first live nonzero
    diagonal entry p = g[k][k], and each other live row r becomes
    (p*r - r[k]*(pivot row)) / prev, prev being the pivot before (1 at first).
    Invariant: each live g[i][j] is the minor of the pivots so far bordered
    by row i and column j, so the division is exact and p / prev, the pivot of
    the Schur complement, has the sign of p*prev. If the live diagonal is zero
    but some live g[i][j] is not, the unimodular congruence b_i <- b_i + b_j
    (row j added to row i, column j to column i) makes g[i][i] = 2 g[i][j] and
    keeps the invariant; a zero live block is the radical and counts nothing.
    """
    g = [list(row) for row in gram]
    live = list(range(len(g)))
    sig, prev = 0, 1
    while live:
        k = next((i for i in live if g[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live if g[i][j]), None)
            if pair is None:
                break
            i, j = pair
            g[i] = [x + y for x, y in zip(g[i], g[j])]
            for row in g:
                row[i] += row[j]
            continue
        live.remove(k)
        top, p = g[k], g[k][k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        for i in live:
            row, f = g[i], g[i][k]
            for j in live:
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return sig


def parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse the matrix text format, "rows cols" then row-major entries, into
    int rows (a matrix without rows is ``()``).

    Entries are ``parse_rational`` tokens separated by arbitrary whitespace,
    so an integral "p/q" such as "4/2" reads as its integer; once every token
    has parsed, a non-integral one raises ``MatrixFormatError``.
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
    if any(x.denominator != 1 for x in entries):
        raise MatrixFormatError("entries must be integers")
    ints = [x.numerator for x in entries]
    return tuple(tuple(ints[r * cols : (r + 1) * cols]) for r in range(rows))
