"""Exact numerals, the checks of the library's arguments, and the integer
linear algebra behind ``tau``.

Every elimination here is Bareiss's fraction-free one (Math. Comp. 22,
1968) on int rows, with one step: for the pivot p in column c of the row
``top``, and prev the pivot before it (1 at first), a row r becomes
(p*r - r[c]*top) / prev. By Sylvester's identity the division is exact, and
every entry stays a minor of the input. Neither rational nor floating-point
arithmetic enters any computation path, so every value is reproducible bit
for bit.

* Forward elimination (``_echelon``), the one behind kernels and pivot
  columns. The pivot row is the first row not yet pivoted on that is
  nonzero in column c, and the step runs on the other rows not yet pivoted
  on; a column without such a row is free. So the pivot columns are the
  columns that are not combinations of the columns before them, and the
  last pivot is a nonzero rank x rank minor.
* Back-substitution (``_kernel``). The kernel vector of a free column f
  carries |d| at f, d the last pivot, 0 at the other free columns, and from
  the last step up v[c] = -(top . v[c+1:]) / p. Each v[c] is |d| times an
  entry of the reduced echelon form, a minor of the input by Cramer's rule,
  so the division is exact (and v is 0 at the pivots after f); v divided by
  its content is the positive multiple, with coprime entries, of the
  reduced-echelon vector that carries 1 at f. It depends only on the input.
* Gauss-Jordan (``_solve``). The step runs on the rows above each pivot as
  well as below it. A row pivoted on holds the latest pivot in its own
  column, so after n steps on [X | Y] the rows, in the order of their pivot
  columns, are [d I | d X^-1 Y], d = +-det X the last pivot, and no
  back-substitution is needed. d keeps its sign; ``meyer``'s Cayley
  paragraph says how the sign enters tau.
* Symmetric elimination (``_signature``). An index is live until it is
  pivoted on, the pivot is the first live nonzero diagonal entry, and the
  step runs on the other live rows and columns. Invariant: each live
  g[i][j] is the minor of the pivots so far bordered by row i and
  column j, so p / prev, the pivot of the Schur complement, has the sign of
  p*prev. Where the live diagonal is zero but some live g[i][j] is not, the
  unimodular congruence b_i <- b_i + b_j (row j added to row i, column j to
  column i) makes g[i][i] = 2 g[i][j] and keeps the invariant; a zero live
  block is the radical and counts nothing. No congruence moves a signature
  (Sylvester's law of inertia).

The public helpers read their matrices through ``_int_matrix``, the one
reader, and return int rows; ``meyer`` calls the cores on rows built from
validated elements, so nothing is read twice.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .errors import AsymmetricGram, InvalidInput, MatrixFormatError

_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?", re.ASCII)


def parse_integer(token: str) -> int:
    """Parse an optional sign and ASCII digits: the integers of ``parse_rational``.

    Anything else, and integers past the interpreter's digit limit, raise
    ``MatrixFormatError``; argparse passes it on, as it is no ``ValueError``.
    """
    if not _INTEGER.fullmatch(token):
        raise MatrixFormatError(f"bad integer {token!r}")
    try:
        return int(token)
    except ValueError as exc:  # more digits than the interpreter converts
        raise MatrixFormatError("bad integer: too many digits") from exc


def _int_arg(x, name: str, low: int | None = None) -> int:
    """An ``int`` argument from a library caller, not below ``low`` if given, is
    returned as it is; anything else (a ``bool`` or float too) raises ``InvalidInput``."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInput(f"{name} must be an int, got {type(x).__name__}")
    if low is not None and x < low:
        raise InvalidInput(f"{name} must be >= {low}, got {_shown(x)}")
    return x


def _rational_arg(x, name: str) -> int | Fraction:
    """Like ``_int_arg``, for an ``int`` or a ``Fraction`` (not a ``bool`` or float)."""
    if type(x) not in (int, Fraction):
        raise InvalidInput(f"{name} must be an int or a Fraction, got {_shown(x)}")
    return x


def _numeral_arg(x, name: str) -> Fraction:
    """A rational argument as a ``Fraction``: a ``str`` read by ``parse_rational``,
    anything else checked by ``_rational_arg``."""
    return parse_rational(x) if isinstance(x, str) else Fraction(_rational_arg(x, name))


def _kind_arg(x, kind: type, name: str):
    """``x`` if it is a ``kind``, such as a record type or ``str``; anything
    else raises ``InvalidInput`` naming ``name`` and the type of ``x``."""
    if not isinstance(x, kind):
        raise InvalidInput(f"{name} must be a {kind.__name__}, got {type(x).__name__}")
    return x


def _shown(x) -> str:
    """``repr(x)`` for an error message, or the name of its type when ``x`` holds
    an int past the interpreter's digit limit, which has no decimal form."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _too_large() -> InvalidInput:
    """The input error for a result with no decimal form, past the digit limit."""
    return InvalidInput(f"result too large to print (over {sys.get_int_max_str_digits()} digits)")


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
    """``gram`` itself, or ``AsymmetricGram`` if it is not square and symmetric.
    Rows must be tuples: once the first row is n long, ``gram`` is compared
    with its transpose ``tuple(zip(*gram))``."""
    n = len(gram)
    if gram and len(gram[0]) != n:
        raise AsymmetricGram(f"Gram matrix must be square, got {n}x{len(gram[0])}")
    if gram != tuple(zip(*gram)):
        raise AsymmetricGram("Gram matrix is not symmetric")
    return gram


def _echelon(rows: list[list[int]]) -> list[tuple[int, int, list[int]]]:
    """The forward elimination (module docstring) of the int rows ``rows``
    (consumed): one ``(c, p, top)`` per pivot step, with c the pivot column,
    p the pivot and ``top`` the pivot row's entries after column c. The rows
    not yet pivoted on hold only the columns not yet eliminated."""
    steps: list[tuple[int, int, list[int]]] = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        for piv, row in enumerate(rows):
            if row[0]:
                break
        else:
            for row in rows:
                del row[0]
            continue
        top = rows.pop(piv)
        p = top.pop(0)
        for i, row in enumerate(rows):
            f = row.pop(0)
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        steps.append((c, p, top))
        prev = p
        if not rows:
            break
    return steps


def _kernel(rows: list[list[int]], start: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """The pivot columns below ``start`` and the kernel vectors of the int
    rows ``rows`` (consumed) whose free column is ``start`` or later, as
    primitive integer vectors, by ``_echelon`` and back-substitution (module
    docstring). Such a vector is zero at the free columns below ``start``,
    so deleting some of them from ``rows`` only deletes its zeros there."""
    cols = len(rows[0]) if rows else 0
    steps = _echelon(rows)
    d = abs(steps[-1][1]) if steps else 1
    pivots = {c for c, _, _ in steps}
    basis = []
    for f in range(start, cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = d
        for c, p, top in reversed(steps):
            v[c] = -sum(map(mul, top, v[c + 1 :])) // p
        g = math.gcd(*v)  # >= 1, as v[f] = d >= 1
        # a list, not a generator: tuple() of one resizes as it grows (cocycle-sweep RSS +4 %)
        basis.append(tuple([x // g for x in v]))
    return [c for c, _, _ in steps if c < start], basis


def _solve(
    x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]] | None:
    """(d, the rows of d X^-1 Y) for the n x n int rows X and the int rows
    Y, n of them, with d = +-det X the last pivot, its sign kept, by
    Gauss-Jordan on [X | Y] (module docstring), X's columns dropped as they
    are eliminated; ``None`` at the first column of X without a pivot, that
    is when X is singular. ``meyer`` reads the resolvents d (A - I)^-1 off
    the rows, with the sign rule of its Cayley paragraph."""
    n = len(x)
    rows = [[*u, *w] for u, w in zip(x, y)]
    prev = 1
    for c in range(n):
        for piv in range(c, n):
            if rows[piv][0]:
                break
        else:
            return None
        top = rows.pop(piv)
        p = top.pop(0)
        for i, row in enumerate(rows):
            f = row.pop(0)
            rows[i] = [(p * u - f * w) // prev for u, w in zip(row, top)]
        rows.insert(c, top)
        prev = p
    return prev, rows


def kernel_basis(m: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """Basis of {v : Mv = 0} as primitive integer vectors, for M given by int rows.

    There is one basis vector per free column f of the reduced row echelon
    form: the positive multiple, with coprime integer entries, of the vector
    that carries 1 at f and the negated reduced-echelon entries at the pivot
    positions (``_kernel``). The output depends only on M.
    """
    rows = _int_matrix(m)
    return _kernel([list(row) for row in rows], 0)[1]


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
    return _symmetric(tuple([tuple([sum(map(mul, u, img)) for img in images]) for u in sums]))


def signature_symmetric(gram: Iterable[Iterable[int]]) -> int:
    """Signature (#positive - #negative eigenvalues) of the symmetric form
    with Gram matrix ``gram``, given by int rows; a Gram that is not square
    and symmetric raises AsymmetricGram. The elimination is ``_signature``."""
    return _signature(_symmetric(_int_matrix(gram)))


def _signature(gram: tuple[tuple[int, ...], ...]) -> int:
    """The signature of int rows checked symmetric, by the symmetric
    elimination (module docstring). It is passed ``signature_symmetric``'s
    argument, ``tau_form``'s Gram for ``tau``, and ``meyer._cayley``'s J S. The
    ``for`` loop over the live indices finds the pivot, and its ``else``
    takes a zero live diagonal."""
    g = [list(row) for row in gram]
    live = list(range(len(g)))
    sig, prev = 0, 1
    while live:
        for k in live:
            if g[k][k]:
                break
        else:
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
    has parsed, a non-integral one raises ``MatrixFormatError``. Text that is
    not a ``str`` raises ``InvalidInput``.
    """
    tokens = _kind_arg(text, str, "matrix text").split()
    if len(tokens) < 2:
        raise MatrixFormatError("expected a 'rows cols' header")
    rows, cols = parse_integer(tokens[0]), parse_integer(tokens[1])
    if rows < 0 or cols < 0:
        raise MatrixFormatError("negative dimensions")
    body = tokens[2:]
    if len(body) != rows * cols:
        raise MatrixFormatError(
            f"expected {_shown(rows * cols)} entries for a {rows}x{cols} matrix, got {len(body)}"
        )
    entries = [parse_rational(tok) for tok in body]
    if any(x.denominator != 1 for x in entries):
        raise MatrixFormatError("entries must be integers")
    ints = [x.numerator for x in entries]
    return tuple(tuple(ints[r * cols : (r + 1) * cols]) for r in range(rows))
