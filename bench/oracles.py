"""Seeded input generators and independent output oracles.

Nothing here calls meyersig: inputs are built as plain integer matrices and
handed to the library, and the oracles recompute the headline values by a
different route.
"""

from __future__ import annotations

import contextlib
import sys
from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def transvection_product(rng, g: int, length: int) -> list[list[int]]:
    """Product of ``length`` transvections x -> x + (x^t J v) v, J = [[0, I], [-I, 0]].

    Draws the same random numbers, in the same order, as
    ``meyersig.symplectic.random_transvection_product``: entries of v in
    [-3, 3], the zero vector resampled.
    """
    n = 2 * g
    result = identity(n)
    produced = 0
    while produced < length:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if not any(v):
            continue
        jv = v[g:] + [-x for x in v[:g]]
        result = matmul(result, [[int(i == j) + v[i] * jv[j] for j in range(n)] for i in range(n)])
        produced += 1
    return result


S = [[0, -1], [1, 0]]
T = [[1, 1], [0, 1]]
T_INV = [[1, -1], [0, 1]]


def random_sl2_word(rng, min_len: int = 5, max_len: int = 60) -> tuple[int, list[list[int]]]:
    """A random word in S, T, T^-1 of min_len..max_len letters, and its product."""
    length = rng.randint(min_len, max_len)
    m = identity(2)
    for _ in range(length):
        m = matmul(m, rng.choice((S, T, T_INV)))
    return length, m


def fibonacci_matrix(n: int) -> list[list[int]]:
    """[[F(n+1), F(n)], [F(n), F(n-1)]]; its determinant is (-1)^n."""
    a, b = 0, 1  # F(0), F(1)
    for _ in range(n - 1):
        a, b = b, a + b
    # now a = F(n-1), b = F(n)
    return [[a + b, b], [b, a]]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for coprime h, k != 0, in O(log k) steps by reciprocity.

    s(h, k) + s(k, h) = (h^2 + k^2 + 1) / (12 h k) - 1/4 for coprime h, k > 0,
    together with s(h mod k, k) = s(h, k) and s(h, -k) = s(h, k).
    """
    k = abs(k)
    h %= k
    total = Fraction(0)
    sign = 1
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k = k % h, h
        sign = -sign
    return total


def phi1_closed_form(m: list[list[int]]) -> Fraction:
    """Meyer's function on SL(2,Z) from the Rademacher function.

    For c != 0: -Phi(A)/3 + sign(c(a+d-2)), Phi(A) = (a+d)/c - 12 sign(c) s(a, c).
    For c = 0:  -b/(3d) + sign(b(d+1)).
    """
    (a, b), (c, d) = m
    if c == 0:
        return -Fraction(b, 3 * d) + _sign(b * (d + 1))
    rademacher = Fraction(a + d, c) - 12 * _sign(c) * dedekind_sum(a, c)
    return -rademacher / 3 + _sign(c * (a + d - 2))


@contextlib.contextmanager
def _no_bytecode_writes():
    """sympy lives outside the checkout: import it without writing .pyc files."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield
    finally:
        sys.dont_write_bytecode = saved


def have_sympy() -> bool:
    with _no_bytecode_writes():
        try:
            import sympy  # noqa: F401
        except ImportError:
            return False
    return True


def sympy_tau(a1: list[list[int]], a2: list[list[int]]) -> int:
    """tau(a1, a2) with sympy: kernel, restricted pairing, Descartes' rule.

    The kernel of [(A1^-1 - I) | (A2 - I)] comes from sympy's nullspace, the
    pairing <(x,y),(x',y')> = (x + y)^t J (I - A2) y' is restricted to it,
    and the signature is read off the characteristic polynomial: it is
    real-rooted because the Gram matrix is symmetric, so sign changes count
    positive and negative roots exactly.
    """
    with _no_bytecode_writes():
        return _sympy_tau(a1, a2)


def _sympy_tau(a1, a2):
    import sympy

    n = len(a1)
    g = n // 2
    m1, m2, eye = sympy.Matrix(a1), sympy.Matrix(a2), sympy.eye(n)
    j = sympy.zeros(n)
    for i in range(g):
        j[i, g + i] = 1
        j[g + i, i] = -1
    basis = (m1.inv() - eye).row_join(m2 - eye).nullspace()
    if not basis:
        return 0
    pairing = j * (eye - m2)
    gram = sympy.Matrix(
        len(basis),
        len(basis),
        lambda r, c: ((basis[r][:n, :] + basis[r][n:, :]).T * pairing * basis[c][n:, :])[0, 0],
    )
    if gram != gram.T:
        raise ValueError("restricted pairing is not symmetric")
    coeffs = gram.charpoly().all_coeffs()  # leading coefficient first
    degree = len(coeffs) - 1

    def sign_changes(cs):
        cs = [x for x in cs if x != 0]
        return sum(1 for x, y in zip(cs, cs[1:]) if (x > 0) != (y > 0))

    positive = sign_changes(coeffs)
    negative = sign_changes([x * (-1) ** (degree - i) for i, x in enumerate(coeffs)])
    return positive - negative
