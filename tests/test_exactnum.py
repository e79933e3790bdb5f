import ast
import math
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest
import sympy
from hypothesis import given, strategies as st

import linalg_oracle as oracle
from meyersig import (
    AsymmetricGram,
    MatrixFormatError,
    RatMatrix,
    SymmetricForm,
    gram_restrict,
    kernel_basis,
    parse_matrix,
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
        if oracle.rank(p.data) == n:
            return p


# --- kernel_basis -----------------------------------------------------------


def test_kernel_of_zero_map():
    basis = kernel_basis(RatMatrix([[0, 0], [0, 0]]))
    assert basis == [(Fr(1), Fr(0)), (Fr(0), Fr(1))]


def test_kernel_of_injective_map():
    assert kernel_basis(RatMatrix(oracle.identity(3))) == []


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
            assert oracle.mat_vec(m.data, v) == [0] * rows
        if basis:
            assert oracle.rank(basis) == len(basis)


def test_rank_plus_nullity():
    r = random.Random(404)
    for _ in range(40):
        rows, cols = r.randint(1, 6), r.randint(1, 6)
        m = random_matrix(r, rows, cols)
        # independent rank route: row rank of the transpose
        assert oracle.rank(oracle.transpose(m.data)) + len(kernel_basis(m)) == m.cols


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
    reduced, pivots = oracle.rref(m.data, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = kernel_basis(m)
    assert len(basis) == m.cols - len(pivots) == len(free)
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
    assert signature_symmetric(RatMatrix(oracle.identity(2))) == 2
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
        pt_g = oracle.matmul(oracle.transpose(p.data), g.data)
        transformed = RatMatrix(oracle.matmul(pt_g, p.data))
        assert signature_symmetric(transformed) == signature_symmetric(g)


def test_signature_negation_and_block_sum():
    r = random.Random(88)
    for _ in range(20):
        n1, n2 = r.randint(1, 4), r.randint(1, 4)
        g1 = random_symmetric(r, n1)
        g2 = random_symmetric(r, n2)
        assert signature_symmetric(RatMatrix(oracle.neg(g1.data))) == -signature_symmetric(g1)
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
    from meyersig import SymplecticElement

    m = SymplecticElement([[2, 1], [1, 1]])
    m_minus_eye = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(m.mat)]
    basis = kernel_basis(RatMatrix([[0, 0] + row for row in m_minus_eye]))
    s = oracle.matmul(oracle.standard_J(1), oracle.neg(m_minus_eye))
    for u in basis:
        for v in basis:
            xy = (u[0] + u[2], u[1] + u[3])
            image = oracle.mat_vec(s, (v[2], v[3]))
            assert xy[0] * image[0] + xy[1] * image[1] == 0
    form = gram_restrict(s, basis)
    assert form.gram == RatMatrix([[0] * form.dim] * form.dim, cols=form.dim)


# --- matrix plumbing --------------------------------------------------------


def _format_matrix(m: RatMatrix) -> str:
    """The matrix text format, written out: "rows cols" then one line per row."""
    lines = [f"{m.rows} {m.cols}"] + [" ".join(map(str, row)) for row in m.data]
    return "\n".join(lines) + "\n"


def test_parse_and_format_round_trip():
    text = "2 3\n1 -2 1/3\n0 5/7 9\n"
    m = parse_matrix(text)
    assert m.shape == (2, 3)
    assert m.data[0] == (Fr(1), Fr(-2), Fr(1, 3))
    assert parse_matrix(_format_matrix(m)) == m


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


def test_linalg_oracle_imports_nothing_from_meyersig():
    # the oracle is the reference for the library's linear algebra, so it must
    # share no code with it; a relative import (module None) is refused too
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert modules and all(m and m.split(".")[0] != "meyersig" for m in modules)
