import math
import random
from fractions import Fraction as Fr

import pytest
import sympy
from hypothesis import given, strategies as st

from meyersig import (
    AsymmetricGram,
    MatrixFormatError,
    RatMatrix,
    SymmetricForm,
    format_matrix,
    gram_restrict,
    kernel_basis,
    parse_matrix,
    rank,
    signature_symmetric,
)
from meyersig.exactnum import parse_rational


def diag(*entries) -> RatMatrix:
    n = len(entries)
    return RatMatrix(
        [[Fr(entries[i]) if i == j else Fr(0) for j in range(n)] for i in range(n)]
    )


def random_matrix(r: random.Random, rows: int, cols: int) -> RatMatrix:
    return RatMatrix(
        [[Fr(r.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def random_symmetric(r: random.Random, n: int) -> RatMatrix:
    a = [[Fr(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = Fr(r.randint(-4, 4), r.randint(1, 3))
    return RatMatrix(a)


def random_invertible(r: random.Random, n: int) -> RatMatrix:
    while True:
        p = random_matrix(r, n, n)
        if not kernel_basis(p):
            return p


# --- kernel_basis -----------------------------------------------------------


def test_kernel_of_zero_map():
    basis = kernel_basis(RatMatrix.zeros(2, 2))
    assert basis == [(Fr(1), Fr(0)), (Fr(0), Fr(1))]


def test_kernel_of_injective_map():
    assert kernel_basis(RatMatrix.identity(3)) == []


@pytest.mark.parametrize("n", [1, 2, 5])
def test_kernel_of_twist_block(n):
    # [(A^{-1} - I) | (A^n - I)] for the parabolic A = [[1,-1],[0,1]]
    m = RatMatrix([[0, 1, 0, -n], [0, 0, 0, 0]])
    basis = kernel_basis(m)
    assert basis == [
        (Fr(1), Fr(0), Fr(0), Fr(0)),
        (Fr(0), Fr(0), Fr(1), Fr(0)),
        (Fr(0), Fr(n), Fr(0), Fr(1)),
    ]


def test_kernel_vectors_lie_in_kernel_and_are_independent():
    r = random.Random(101)
    for _ in range(30):
        rows, cols = r.randint(1, 5), r.randint(1, 6)
        m = random_matrix(r, rows, cols)
        basis = kernel_basis(m)
        for v in basis:
            assert m.mul_vec(v) == (Fr(0),) * rows
        if basis:
            stacked = RatMatrix(basis)
            assert rank(stacked) == len(basis)


def test_rank_plus_nullity():
    r = random.Random(404)
    for _ in range(40):
        rows, cols = r.randint(1, 6), r.randint(1, 6)
        m = random_matrix(r, rows, cols)
        # independent rank route: row rank of the transpose
        assert rank(m.transpose()) + len(kernel_basis(m)) == m.cols


def _fraction_rref(rows: list[list[Fr]], cols: int) -> tuple[list[list[Fr]], list[int]]:
    """Textbook reduced row echelon form over Fraction: the kernel oracle."""
    a = [list(row) for row in rows]
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


rational = st.just(Fr(0)) | st.sampled_from(
    sorted({Fr(n, d) for n in range(-5, 6) for d in range(1, 7)}, key=abs)
)
rational_matrix = st.tuples(st.integers(0, 5), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(rational, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: RatMatrix(rows, cols=shape[1]))
)


@given(m=rational_matrix)
def test_kernel_vectors_are_primitive_positive_multiples_of_rref_vectors(m):
    reduced, pivots = _fraction_rref(m.data, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m) == len(free)
    for v, f in zip(basis, free):
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        expected = [Fr(0)] * m.cols
        expected[f] = Fr(1)
        for row, p in zip(reduced, pivots):
            expected[p] = -row[f]
        # v[f] is the positive multiplier, since the reduced-echelon vector has 1 there
        assert v[f] > 0
        assert list(v) == [v[f] * x for x in expected]


@st.composite
def rational_symmetric(draw):
    n = draw(st.integers(1, 6))
    a = [[Fr(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(rational)
    return RatMatrix(a)


@given(g=rational_symmetric())
def test_signature_of_rational_form_equals_that_of_its_cleared_form(g):
    lcm = math.lcm(*(x.denominator for row in g.data for x in row))
    cleared = RatMatrix([[int(x * lcm) for x in row] for row in g.data])
    assert signature_symmetric(g) == signature_symmetric(cleared)


# --- signature --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_signature_twist_diagonal(n):
    assert signature_symmetric(diag(0, 0, -n * (n + 1))) == -1


def test_signature_definite_and_hyperbolic():
    assert signature_symmetric(RatMatrix.identity(2)) == 2
    assert signature_symmetric(RatMatrix([[0, 1], [1, 0]])) == 0


def test_signature_empty_form():
    assert signature_symmetric(RatMatrix([], cols=0)) == 0


def test_signature_rejects_asymmetric():
    with pytest.raises(AsymmetricGram):
        signature_symmetric(RatMatrix([[0, 1], [2, 0]]))
    with pytest.raises(AsymmetricGram):
        SymmetricForm(RatMatrix([[1, 2, 3], [2, 1, 1]]))


def test_signature_invariant_under_congruence():
    r = random.Random(77)
    for _ in range(25):
        n = r.randint(1, 6)
        g = random_symmetric(r, n)
        p = random_invertible(r, n)
        transformed = p.transpose() * g * p
        assert signature_symmetric(transformed) == signature_symmetric(g)


def test_signature_negation_and_block_sum():
    r = random.Random(88)
    for _ in range(20):
        n1, n2 = r.randint(1, 4), r.randint(1, 4)
        g1 = random_symmetric(r, n1)
        g2 = random_symmetric(r, n2)
        assert signature_symmetric(-g1) == -signature_symmetric(g1)
        block = [
            [g1.data[i][j] if i < n1 and j < n1 else Fr(0) for j in range(n1 + n2)]
            for i in range(n1)
        ] + [
            [
                g2.data[i - n1][j - n1] if i >= n1 and j >= n1 else Fr(0)
                for j in range(n1 + n2)
            ]
            for i in range(n1, n1 + n2)
        ]
        assert signature_symmetric(RatMatrix(block)) == signature_symmetric(
            g1
        ) + signature_symmetric(g2)


def _signature_by_root_counting(g: RatMatrix) -> int:
    """Independent oracle: count signs of the real eigenvalues exactly."""
    x = sympy.Symbol("x")
    m = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row] for row in g.data])
    poly = sympy.Poly(m.charpoly(x), x)
    coeffs = poly.all_coeffs()
    while coeffs and coeffs[-1] == 0:  # strip zero eigenvalues
        coeffs.pop()
    reduced = sympy.Poly(coeffs, x)
    return reduced.count_roots(0, None) - reduced.count_roots(None, 0)


def test_signature_against_root_counting_oracle():
    r = random.Random(515)
    for _ in range(15):
        g = random_symmetric(r, r.randint(1, 5))
        assert signature_symmetric(g) == _signature_by_root_counting(g)


# --- gram_restrict ----------------------------------------------------------


def _twist_pairing(n: int) -> list[list[int]]:
    # S = J (I - A^n) for A = [[1,-1],[0,1]]; the pairing is (x+y)^t S y'
    return [[0, 0], [0, -n]]


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_gram_restrict_twist_family(n):
    basis = [
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, n, 0, 1),
    ]
    form = gram_restrict(_twist_pairing(n), basis)
    assert form.gram == diag(0, 0, -n * (n + 1))


def test_gram_restrict_empty_basis():
    form = gram_restrict(_twist_pairing(1), [])
    assert form.dim == 0
    assert signature_symmetric(form) == 0


def test_gram_restrict_rejects_asymmetric_result():
    pairing = [[0, 1], [0, 0]]
    with pytest.raises(AsymmetricGram):
        gram_restrict(pairing, [(0, 0, 1, 0), (0, 0, 0, 1)])


def test_gram_vanishes_on_identity_kernel():
    # kernel of [0 | M - I] pairs to zero because (I - M) y' = 0 there;
    # verified by expanding the pairing directly on the kernel vectors
    from meyersig import SymplecticElement, standard_J

    m = SymplecticElement([[2, 1], [1, 1]])
    m_minus_eye = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(m.mat)]
    basis = kernel_basis(RatMatrix([[0, 0] + row for row in m_minus_eye]))
    s = standard_J(1) * -RatMatrix(m_minus_eye)
    for u in basis:
        for v in basis:
            xy = (u[0] + u[2], u[1] + u[3])
            image = s.mul_vec((v[2], v[3]))
            assert xy[0] * image[0] + xy[1] * image[1] == 0
    form = gram_restrict(s.data, basis)
    assert form.gram == RatMatrix.zeros(form.dim, form.dim)


# --- matrix plumbing --------------------------------------------------------


def test_parse_and_format_round_trip():
    text = "2 3\n1 -2 1/3\n0 5/7 9\n"
    m = parse_matrix(text)
    assert m.shape == (2, 3)
    assert m.data[0] == (Fr(1), Fr(-2), Fr(1, 3))
    assert parse_matrix(format_matrix(m)) == m


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2",
        "a b",
        "2 2 1 2 3",
        "2 2 1 2 3 4 5",
        "1 1 x",
        "1 1 1/0",
        # entries are [+-]digits[/digits] in ASCII, nothing else Fraction() reads
        "1 1 1.5",
        "1 1 1e0",
        "1 1 1_0",
        "1 1 \uff11",
        "1 1 1/-2",
        pytest.param("1 1 " + "9" * 4301, id="1 1 <4301 digits>"),
        # so is the header: [+-]digits in ASCII, nothing else int() reads
        "1_0 1 5",
        "\uff11 1 5",
        "\u0661 1 5",
        "1 +1_0 5",
    ],
)
def test_parse_matrix_rejects_garbage(text):
    with pytest.raises(MatrixFormatError):
        parse_matrix(text)


def test_parse_rational_accepts_signs_and_fractions():
    assert parse_rational("-3/4") == Fr(-3, 4)
    assert parse_rational("+2") == 2
    assert parse_rational("0/5") == 0
    assert parse_matrix("1 2 -3/4 +2").data == ((Fr(-3, 4), Fr(2)),)


def test_inverse_round_trip():
    r = random.Random(9)
    for _ in range(10):
        m = random_invertible(r, r.randint(1, 4))
        assert m * m.inverse() == RatMatrix.identity(m.rows)
