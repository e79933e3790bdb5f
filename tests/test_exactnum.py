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
    gram_restrict,
    kernel_basis,
    parse_matrix,
    signature_symmetric,
)
from meyersig.exactnum import parse_rational


def diag(*entries) -> tuple[tuple[int, ...], ...]:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def ints(m) -> list[list[int]]:
    """An oracle result, whose Fractions must all be integers, as int rows."""
    assert all(x.denominator == 1 for row in m for x in row)
    return [[int(x) for x in row] for row in m]


def random_matrix(r: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[r.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]


def random_symmetric(r: random.Random, n: int) -> list[list[int]]:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = r.randint(-4, 4)
    return a


def random_invertible(r: random.Random, n: int) -> list[list[int]]:
    while True:
        p = random_matrix(r, n, n)
        if oracle.rank(p) == n:
            return p


# --- the int-row boundary ---------------------------------------------------


HELPERS = {
    "kernel_basis": kernel_basis,
    "signature_symmetric": signature_symmetric,
    "gram_restrict-pairing": lambda rows: gram_restrict(rows, []),
    "gram_restrict-basis": lambda rows: gram_restrict([[0]], rows),  # basis vectors of length 2
}


@pytest.mark.parametrize("helper", HELPERS.values(), ids=list(HELPERS))
@pytest.mark.parametrize(
    "rows",
    [
        [[1, Fr(0)], [0, 1]],
        [[1, 0.0], [0, 1]],
        [[1, False], [False, 1]],
        [[1, "0"], ["0", 1]],
        ["10", "01"],
        [[1, 0], [0]],
        [[1, 0], 5],
        7,
    ],
    ids=["Fraction", "float", "bool", "str", "str-row", "ragged", "int-row", "int"],
)
def test_linear_algebra_refuses_what_is_not_int_rows(helper, rows):
    with pytest.raises(MatrixFormatError):
        helper(rows)


# --- kernel_basis -----------------------------------------------------------


def test_kernel_of_zero_map():
    basis = kernel_basis([[0, 0], [0, 0]])
    assert basis == [(1, 0), (0, 1)]


def test_kernel_of_injective_map():
    assert kernel_basis(eye(3)) == []
    assert kernel_basis([]) == []  # a matrix without rows has no columns


@pytest.mark.parametrize("n", [1, 2, 5])
def test_kernel_of_twist_block(n):
    # [(A^{-1} - I) | (A^n - I)] for the parabolic A = [[1,-1],[0,1]]
    basis = kernel_basis([[0, 1, 0, -n], [0, 0, 0, 0]])
    assert basis == [(1, 0, 0, 0), (0, 0, 1, 0), (0, n, 0, 1)]


def test_kernel_vectors_lie_in_kernel_and_are_independent():
    r = random.Random(101)
    for _ in range(30):
        rows, cols = r.randint(1, 5), r.randint(1, 6)
        m = random_matrix(r, rows, cols)
        basis = kernel_basis(m)
        for v in basis:
            assert oracle.mat_vec(m, v) == [0] * rows
        if basis:
            assert oracle.rank(basis) == len(basis)


def test_rank_plus_nullity():
    r = random.Random(404)
    for _ in range(40):
        rows, cols = r.randint(1, 6), r.randint(1, 6)
        m = random_matrix(r, rows, cols)
        # independent rank route: row rank of the transpose
        assert oracle.rank(oracle.transpose(m)) + len(kernel_basis(m)) == cols


rational = st.just(Fr(0)) | st.sampled_from(
    sorted({Fr(n, d) for n in range(-5, 6) for d in range(1, 7)}, key=abs)
)
rational_matrix = st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(rational, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@given(m=rational_matrix)
def test_kernel_vectors_are_primitive_positive_multiples_of_rref_vectors(m):
    cols = len(m[0])
    reduced, pivots = oracle.rref(m, cols)
    free = [c for c in range(cols) if c not in pivots]
    # each row times the lcm of its denominators: the same kernel, in ints
    cleared = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in m]
    basis = kernel_basis(cleared)
    assert len(basis) == cols - len(pivots) == len(free)
    for v, f in zip(basis, free):
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        expected = [Fr(0)] * cols
        expected[f] = Fr(1)
        for row, p in zip(reduced, pivots):
            expected[p] = -row[f]
        # v[f] is the positive multiplier, since the reduced-echelon vector has 1 there
        assert v[f] > 0
        assert list(v) == [v[f] * x for x in expected]


# --- signature --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_signature_twist_diagonal(n):
    assert signature_symmetric(diag(0, 0, -n * (n + 1))) == -1


def test_signature_definite_and_hyperbolic():
    assert signature_symmetric(eye(2)) == 2
    assert signature_symmetric([[0, 1], [1, 0]]) == 0


def test_signature_empty_form():
    assert signature_symmetric([]) == 0


def test_signature_rejects_asymmetric():
    with pytest.raises(AsymmetricGram):
        signature_symmetric([[0, 1], [2, 0]])
    with pytest.raises(AsymmetricGram):
        signature_symmetric([[1, 2, 3], [2, 1, 1]])


def test_signature_invariant_under_congruence():
    r = random.Random(77)
    for _ in range(25):
        n = r.randint(1, 6)
        g = random_symmetric(r, n)
        p = random_invertible(r, n)
        transformed = ints(oracle.matmul(oracle.matmul(oracle.transpose(p), g), p))
        assert signature_symmetric(transformed) == signature_symmetric(g)


def test_signature_negation_and_block_sum():
    r = random.Random(88)
    for _ in range(20):
        n1, n2 = r.randint(1, 4), r.randint(1, 4)
        g1 = random_symmetric(r, n1)
        g2 = random_symmetric(r, n2)
        assert signature_symmetric(ints(oracle.neg(g1))) == -signature_symmetric(g1)
        block = [row + [0] * n2 for row in g1] + [[0] * n1 + row for row in g2]
        assert signature_symmetric(block) == signature_symmetric(g1) + signature_symmetric(g2)


def _signature_by_root_counting(g: list[list[int]]) -> int:
    """Independent oracle: count signs of the real eigenvalues exactly."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.Matrix(g).charpoly(x), x)
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
    gram = gram_restrict(_twist_pairing(n), basis)
    assert gram == diag(0, 0, -n * (n + 1))
    assert all(type(x) is int for row in gram for x in row)


def test_gram_restrict_empty_basis():
    gram = gram_restrict(_twist_pairing(1), [])
    assert gram == ()
    assert signature_symmetric(gram) == 0


def test_gram_restrict_rejects_asymmetric_result():
    pairing = [[0, 1], [0, 0]]
    with pytest.raises(AsymmetricGram):
        gram_restrict(pairing, [(0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(MatrixFormatError):  # basis vectors of length 3 against a 2x2 pairing
        gram_restrict(pairing, [(0, 0, 1)])


def test_gram_vanishes_on_identity_kernel():
    # kernel of [0 | M - I] pairs to zero because (I - M) y' = 0 there;
    # verified by expanding the pairing directly on the kernel vectors
    from meyersig import SymplecticElement

    m = SymplecticElement([[2, 1], [1, 1]])
    m_minus_eye = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(m.mat)]
    basis = kernel_basis([[0, 0] + row for row in m_minus_eye])
    s = ints(oracle.matmul(oracle.standard_J(1), oracle.neg(m_minus_eye)))
    for u in basis:
        for v in basis:
            xy = (u[0] + u[2], u[1] + u[3])
            image = oracle.mat_vec(s, (v[2], v[3]))
            assert xy[0] * image[0] + xy[1] * image[1] == 0
    gram = gram_restrict(s, basis)
    assert gram == ((0,) * len(basis),) * len(basis)


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
