"""Exact rational linear algebra.

Elimination divides, so it runs on ``fractions.Fraction``; no floating point
enters any computation path. The primitives the rest of the package relies
on are:

* right kernel bases of exact matrices (``kernel_basis``),
* Gram matrices of the cocycle pairing (x + y)^t S y' restricted to a list
  of vectors (x | y) (``gram_restrict``),
* signatures of symmetric forms by congruence diagonalization
  (``signature_symmetric``).

Signatures are integers decided by signs of exact pivots, so exactness is
what makes every downstream value reproducible bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction
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


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise MatrixFormatError(f"dot of vectors with lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


class RatMatrix:
    """Immutable dense matrix with Fraction entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(Fraction(x) for x in row) for row in data)
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

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)],
            cols=n,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)],
            cols=self.rows,
        )

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise MatrixFormatError(f"cannot multiply {self.shape} by {other.shape}")
        ot = other.transpose()
        return RatMatrix(
            [[dot(row, col) for col in ot.data] for row in self.data], cols=other.cols
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in row] for row in self.data], cols=self.cols)

    def mul_vec(self, v: Sequence) -> tuple:
        vv = tuple(Fraction(x) for x in v)
        if len(vv) != self.cols:
            raise MatrixFormatError(f"vector of length {len(vv)} against {self.shape}")
        return tuple(dot(row, vv) for row in self.data)

    def inverse(self) -> "RatMatrix":
        """Exact inverse via Gauss-Jordan; raises on singular input."""
        if self.rows != self.cols:
            raise MatrixFormatError("inverse of non-square matrix")
        n = self.rows
        aug = [list(self.data[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for k in range(n):
            piv = next((r for r in range(k, n) if aug[r][k] != 0), None)
            if piv is None:
                raise MatrixFormatError("matrix is singular")
            aug[k], aug[piv] = aug[piv], aug[k]
            p = aug[k][k]
            aug[k] = [x / p for x in aug[k]]
            for r in range(n):
                if r != k and aug[r][k] != 0:
                    f = aug[r][k]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
        return RatMatrix([row[n:] for row in aug], cols=n)

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


def _rref(m: RatMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    a = [list(row) for row in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r >= m.rows:
            break
        piv = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: RatMatrix) -> int:
    return len(_rref(m)[1])


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of {v : Mv = 0} in reduced-echelon-determined form.

    One basis vector per free column f, carrying 1 at position f and the
    negated reduced-echelon entries at the pivot positions. The output is
    deterministic: it depends only on M, not on elimination order.
    """
    a, pivots = _rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -a[i][f]
        basis.append(tuple(v))
    return basis


class SymmetricForm:
    """A symmetric bilinear form carried by its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: RatMatrix):
        if gram.rows != gram.cols:
            raise AsymmetricGram(f"Gram matrix must be square, got {gram.shape}")
        if gram != gram.transpose():
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
    sums = [[a + b for a, b in zip(v[:n], v[n:])] for v in basis]
    images = [[dot(row, v[n:]) for row in s] for v in basis]
    g = [[dot(u, img) for img in images] for u in sums]
    return SymmetricForm(RatMatrix(g, cols=len(basis)))


def _swap_symmetric(g: list[list[Fraction]], i: int, j: int) -> None:
    g[i], g[j] = g[j], g[i]
    for row in g:
        row[i], row[j] = row[j], row[i]


def _split_hyperbolic(g: list[list[Fraction]], i: int, j: int) -> None:
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

    Exact congruence diagonalization: symmetric pivoting on the first nonzero
    diagonal entry; when the active diagonal is entirely zero but some
    off-diagonal entry remains, a hyperbolic basis change exposes a pair of
    opposite pivots. Zero eigenvalues contribute nothing.
    """
    if isinstance(form, RatMatrix):
        form = SymmetricForm(form)
    g = [list(row) for row in form.gram.data]
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
        p = g[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if g[r][k] == 0:
                continue
            f = g[r][k] / p
            for c in range(k, n):
                g[r][c] -= f * g[k][c]
            for c in range(k, n):
                g[c][r] -= f * g[c][k]
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


def format_matrix(m: RatMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines += [" ".join(str(a) for a in row) for row in m.data]
    return "\n".join(lines) + "\n"
