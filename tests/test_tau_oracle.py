"""tau against an independent computation in sympy.

The oracle shares no code with the library: it takes the nullspace of
[(A1^-1 - I) | (A2 - I)], restricts the pairing (x + y)^t J (I - A2) y' to
it, and reads the signature off the characteristic polynomial of the Gram
matrix by Descartes' rule of signs, which is exact here because a real
symmetric matrix has only real eigenvalues.
"""

import random

import pytest
import sympy

from meyersig import random_transvection_product, tau


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def descartes_signature(gram: sympy.Matrix) -> int:
    coeffs = gram.charpoly().all_coeffs()  # leading coefficient first
    while len(coeffs) > 1 and coeffs[-1] == 0:  # the zero eigenvalues
        coeffs.pop()
    degree = len(coeffs) - 1
    mirrored = [c * (-1) ** (degree - i) for i, c in enumerate(coeffs)]  # p(-x)
    return _sign_changes(coeffs) - _sign_changes(mirrored)


def sympy_tau(a1, a2) -> int:
    n = len(a1)
    g = n // 2
    m1, m2, eye = sympy.Matrix(a1), sympy.Matrix(a2), sympy.eye(n)
    j = sympy.Matrix(n, n, lambda r, c: (c == r + g) - (r == c + g))
    kernel = (m1.inv() - eye).row_join(m2 - eye).nullspace()
    pairing = j * (eye - m2)
    gram = sympy.Matrix(
        len(kernel),
        len(kernel),
        lambda r, c: ((kernel[r][:n, :] + kernel[r][n:, :]).T * pairing * kernel[c][n:, :])[0, 0],
    )
    assert gram == gram.T
    return descartes_signature(gram)


def test_descartes_signature_on_known_forms():
    assert descartes_signature(sympy.diag(3, -1, 0, 2)) == 1
    assert descartes_signature(sympy.Matrix([[0, 1], [1, 0]])) == 0
    assert descartes_signature(sympy.zeros(2)) == 0


def _pairs(g: int, count: int):
    r = random.Random(7100 + g)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield random_transvection_product(r, g, 5), random_transvection_product(r, g, 5)
        elif kind == 1:
            a = random_transvection_product(r, g, 5)
            yield a, a.inverse()
        elif kind == 2:
            a = random_transvection_product(r, g, r.randint(1, 3))
            yield a, a ** r.choice((2, 3, -2))
        else:
            yield random_transvection_product(r, g, 3), random_transvection_product(r, g, 3)


@pytest.mark.parametrize("g, count", [(1, 24), (2, 16), (3, 16), (4, 12)])
def test_tau_matches_the_sympy_oracle(g, count):
    values = []
    for a1, a2 in _pairs(g, count):
        values.append(tau(a1, a2))
        assert values[-1] == sympy_tau(a1.mat, a2.mat)
    assert len(set(values)) >= 3  # a sample of zeros would check nothing
