"""tau against two independent oracles.

The sympy oracle shares no code with the library: it takes the nullspace of
[(A1^-1 - I) | (A2 - I)], restricts the pairing (x + y)^t J (I - A2) y' to
it, and reads the signature off the characteristic polynomial of the Gram
matrix by Descartes' rule of signs, which is exact here because a real
symmetric matrix has only real eigenvalues.

The topological oracle is Meyer's signature formula: for a Lefschetz
fibration over the sphere with monodromy t_1...t_n = 1 and nonseparating
vanishing cycles, Sign(M) = sum_j tau(t_1...t_j, t_{j+1}). The chain
relations of the hyperelliptic mapping class group give fibrations of known
signature, and their sums tie tau at genus g >= 2 to a value that does not
come from the form tau is defined by.
"""

import random

import pytest
import sympy

from meyersig import SymplecticElement, random_transvection_product, tau, transvection


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


def chain_twists(g: int) -> list[SymplecticElement]:
    """Transvections on the chain a_1, b_1, a_2 - a_1, b_2, ..., a_g - a_{g-1},
    b_g, -a_g, in the basis (a_1..a_g, b_1..b_g): consecutive curves meet
    once, the others not at all."""
    basis = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
    a, b = basis[:g], basis[g:]
    curves = [a[0], b[0]]
    for i in range(1, g):
        curves += [[x - y for x, y in zip(a[i], a[i - 1])], b[i]]
    curves.append([-x for x in a[g - 1]])
    return [transvection(v) for v in curves]


def relation_sum(word: list[SymplecticElement]) -> int:
    """sum_j tau(t_1...t_j, t_{j+1}) along a word whose product must be 1."""
    prefix, total = word[0], 0
    for twist in word[1:]:
        total += tau(prefix, twist)
        prefix = prefix * twist
    assert prefix == SymplecticElement.identity(prefix.g), "the relation does not close"
    return total


def test_tau_sums_to_the_signature_of_the_chain_relations():
    # (c_1...c_{2g+1})^{2g+2} = 1 and (c_1...c_{2g})^{4g+2} = 1; their
    # fibrations have signature -2(g+1)^2 and -4g(g+1): -8 for E(1) at g = 1,
    # -18 for K3 # 2 CP2-bar at g = 2 (Meyer 1973; Endo 2000)
    for g in (1, 2, 3, 4):
        twists = chain_twists(g)
        assert relation_sum(twists * (2 * g + 2)) == -2 * (g + 1) ** 2, g
        assert relation_sum(twists[:-1] * (4 * g + 2)) == -4 * g * (g + 1), g
