"""Textbook exact linear algebra over ``Fraction``, the tests' reference.

Matrices are sequences of rows; every result is a list of lists (or a list)
of ``Fraction``s, which compare equal to the ``int``s the library returns.
Signatures are read off sympy's characteristic polynomial by Descartes' rule
of signs. ``sl2_reduction`` is the S, T word and Rademacher's Phi of an
SL(2,Z) matrix, folded one syllable at a time, and ``word_product`` the
product of such a word, multiplied as ints. The module imports nothing
from ``meyersig``, so a test that checks the library against it does not
check the library against itself.
"""

from fractions import Fraction


def _rows(m) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m) -> list[list[Fraction]]:
    return [list(col) for col in zip(*_rows(m))]


def neg(m) -> list[list[Fraction]]:
    return [[-x for x in row] for row in _rows(m)]


def mat_vec(m, v) -> list[Fraction]:
    v = [Fraction(x) for x in v]
    rows = _rows(m)
    if any(len(row) != len(v) for row in rows):
        raise ValueError("vector length does not match the matrix")
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def matmul(a, b) -> list[list[Fraction]]:
    b_cols = transpose(b)
    return [mat_vec(b_cols, row) for row in _rows(a)]


def standard_J(g: int) -> list[list[Fraction]]:
    """J = [[0, I_g], [-I_g, 0]], the form of the basis (a_1..a_g, b_1..b_g)."""
    n = 2 * g
    j = [[Fraction(0)] * n for _ in range(n)]
    for i in range(g):
        j[i][g + i] = Fraction(1)
        j[g + i][i] = Fraction(-1)
    return j


def rref(m, cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of ``m``, which has ``cols`` columns, and its
    pivot columns."""
    a = _rows(m)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def pivot_columns(m, cols: int) -> list[int]:
    """The pivot columns of ``m``, which has ``cols`` columns: the columns that
    are not combinations of the columns before them."""
    return rref(m, cols)[1]


def rank(m) -> int:
    """The number of nonzero rows of a row echelon form of ``m``: Gaussian
    elimination below each pivot, on the columns after it."""
    a = _rows(m)
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / top[c]
            if f != 0:
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], top[c:])]
        r += 1
    return r


def inverse(m) -> list[list[Fraction]]:
    """Inverse of a square matrix: the right half of rref([m | I])."""
    n = len(m)
    reduced, pivots = rref([row + eye for row, eye in zip(_rows(m), identity(n))], 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def determinant(m) -> Fraction:
    """det m, by sympy."""
    import sympy  # here, not at the top: the import costs half a second, and most tests need none

    return Fraction(int(sympy.Matrix(m).det()))


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def descartes_signature(gram) -> int:
    """Signature of a symmetric matrix (rows or a ``sympy.Matrix``).

    Descartes' rule of signs counts the positive roots of the characteristic
    polynomial p, with multiplicity, and applied to p(-x) the negative ones.
    It is exact here because a real symmetric matrix has only real
    eigenvalues; the zero eigenvalues are divided out first.
    """
    import sympy

    coeffs = sympy.Matrix(gram).charpoly().all_coeffs()  # leading coefficient first
    while len(coeffs) > 1 and coeffs[-1] == 0:  # the zero eigenvalues
        coeffs.pop()
    degree = len(coeffs) - 1
    mirrored = [c * (-1) ** (degree - i) for i, c in enumerate(coeffs)]  # p(-x)
    return _sign_changes(coeffs) - _sign_changes(mirrored)


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def word_product(word) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of the product, left to right, of a word of
    (generator, exponent) syllables, multiplied as ints: S^e as e mod 4
    factors S = [[0, -1], [1, 0]], T^e as the one factor [[1, e], [0, 1]]."""
    a, b, c, d = 1, 0, 0, 1
    for gen, e in word:
        if gen == "S":
            for _ in range(e % 4):
                a, b, c, d = b, -a, d, -c
        else:
            b, d = a * e + b, c * e + d
    return a, b, c, d


def fibonacci_matrix(n: int) -> list[list[int]]:
    """[[F(n+1), F(n)], [F(n), F(n-1)]], of determinant (-1)^n."""
    f_prev, f = 0, 1  # F(0), F(1)
    for _ in range(n - 1):
        f_prev, f = f, f + f_prev
    return [[f + f_prev, f], [f, f_prev]]


def _merge_syllables(raw) -> tuple[tuple[str, int], ...]:
    """Merge adjacent powers of one generator, S exponents mod 4, drop the
    identity syllables."""
    out: list[tuple[str, int]] = []
    for gen, e in raw:
        if out and out[-1][0] == gen:
            e += out.pop()[1]
        if gen == "S":
            e %= 4
        if e != 0:
            out.append((gen, e))
    return tuple(out)


def sl2_reduction(a: int, b: int, c: int, d: int) -> tuple[tuple[tuple[str, int], ...], int]:
    """The normalized S, T syllables and Rademacher's Phi of [[a, b], [c, d]],
    of determinant 1, by the Euclidean reduction of the first column.

    Each step strips T^q (q = a // c, skipped when 0) and then S from the
    left, one syllable at a time. Phi is folded along the syllables by
    Phi(T^n) = n, Phi(S^k) = 0 and Phi(XY) = Phi(X) + Phi(Y)
    - 3 sign(c_X c_Y c_XY), keeping the bottom row (x, y) of the running
    product X: an S adds -3 sign(x y).
    """
    raw: list[tuple[str, int]] = []
    phi, x, y = 0, 0, 1
    while c != 0:
        q = a // c
        if q != 0:
            raw.append(("T", q))
            phi += q
            y += x * q
            a, b = a - q * c, b - q * d
        raw.append(("S", 1))
        phi -= 3 * sign(x * y)
        x, y = y, -x
        a, b, c, d = c, d, -a, -b  # S^-1 [[a, b], [c, d]]
    if a != 1:  # a == d == -1: -T^-b = S^2 T^-b
        raw.append(("S", 2))
        b = -b
    if b != 0:
        raw.append(("T", b))
    return _merge_syllables(raw), phi + b
