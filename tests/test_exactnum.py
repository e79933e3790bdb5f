import ast
import math
import random
from decimal import Decimal
from fractions import Fraction as Fr
from pathlib import Path

import pytest
import sympy
from hypothesis import given, strategies as st

import linalg_oracle as oracle
from conftest import tau_matrix, tau_pairs
from meyersig import (
    AsymmetricGram,
    MatrixFormatError,
    SymplecticElement,
    gram_restrict,
    kernel_basis,
    parse_matrix,
    phi1,
    signature_symmetric,
    sl2_word,
    transvection,
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


# Every matrix argument of the library is read by one reader, exactnum._int_matrix.
READERS = {
    "SymplecticElement": SymplecticElement,
    "phi1": phi1,
    "sl2_word": sl2_word,
    # transvection's vector is the second row, where every defect below sits
    "transvection": lambda rows: transvection(rows[1] if isinstance(rows, list) else rows),
    "kernel_basis": kernel_basis,
    "signature_symmetric": signature_symmetric,
    "gram_restrict-pairing": lambda rows: gram_restrict(rows, []),
    "gram_restrict-basis": lambda rows: gram_restrict([[0]], rows),  # basis vectors of length 2
}
# entries that are not ints, integral values and numeral strings included
NOT_INTS = {
    "Fraction": Fr(0),
    "Fraction-1/2": Fr(1, 2),
    "float": 0.0,
    "float-1.0": 1.0,
    "float-0.5": 0.5,
    "nan": float("nan"),
    "inf": float("inf"),
    "bool": False,
    "True": True,
    "Decimal": Decimal("1"),
    "None": None,
    "list": [1],
    "object": object(),
    "str": "0",
    **{token: token for token in ("1e0", "1.5", "1_0", "x")},
}
NOT_INT_ROWS = {
    **{name: [[1, 0], [x, 1]] for name, x in NOT_INTS.items()},
    # read one character at a time, "01" would be the row [0, 1]
    "str-row": ["10", "01"],
    "bytes-row": [b"\x01\x00", b"\x00\x01"],
    "ragged": [[1, 0], [0]],
    "int-row": [[1, 0], 5],
    "int": 7,
}


@pytest.mark.parametrize("read", READERS.values(), ids=list(READERS))
@pytest.mark.parametrize("case", list(NOT_INT_ROWS))
def test_linear_algebra_refuses_what_is_not_int_rows(read, case):
    # a matrix or row that is not iterable would end in a bare TypeError, and
    # [[1, 1.0], [0, True]] or [["1", "1"], ["0", "1"]] would be T
    with pytest.raises(MatrixFormatError) as info:
        read(NOT_INT_ROWS[case])
    if case in NOT_INTS:
        assert type(NOT_INTS[case]).__name__ in str(info.value)


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


def rref_kernel(m: list[list[int]]) -> list[tuple[int, ...]]:
    """The oracle's kernel basis: for each free column f of rref(m), the
    reduced-echelon vector with 1 at f, cleared of denominators and divided
    by the gcd of its entries (so positive at f)."""
    cols = len(m[0])
    reduced, pivots = oracle.rref(m, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fr(0)] * cols
        v[f] = Fr(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        scaled = [int(x * math.lcm(*(y.denominator for y in v))) for x in v]
        basis.append(tuple(x // math.gcd(*scaled) for x in scaled))
    return basis


def test_kernel_of_tau_matrices_is_the_rref_kernel():
    # the matrices tau eliminates, at every genus the benchmarks reach: wide,
    # rank-deficient, with row swaps and long runs of pivots
    for a1, a2 in tau_pairs(random.Random(1968)):
        m = tau_matrix(a1, a2)
        assert kernel_basis(m) == rref_kernel(m)


@st.composite
def int_matrix(draw):
    """Int matrices up to 8 x 12, some of whose columns are zero or repeat
    another column, so that row swaps and rank deficiency are common."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    entry = st.just(0) | st.integers(-6, 6)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    column = st.integers(0, cols - 1)
    for src, dst in draw(st.lists(st.tuples(column, column), max_size=3)):
        for row in m:
            row[dst] = row[src]
    for c in draw(st.lists(column, max_size=2)):
        for row in m:
            row[c] = 0
    return m


@given(m=int_matrix())
def test_kernel_vectors_are_primitive_positive_multiples_of_rref_vectors(m):
    basis = kernel_basis(m)
    assert all(type(x) is int for v in basis for x in v)
    assert basis == rref_kernel(m)


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


def _format_matrix(m: tuple[tuple[int, ...], ...], cols: int) -> str:
    """The matrix text format, written out: "rows cols" then one line per row."""
    lines = [f"{len(m)} {cols}"] + [" ".join(map(str, row)) for row in m]
    return "\n".join(lines) + "\n"


def test_parse_and_format_round_trip():
    text = "2 3\n1 -2 3\n0 5 9\n"
    m = parse_matrix(text)
    assert m == ((1, -2, 3), (0, 5, 9))
    assert all(type(x) is int for row in m for x in row)
    assert parse_matrix(_format_matrix(m, 3)) == m
    assert parse_matrix("0 3") == parse_matrix(_format_matrix((), 3)) == ()


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
        # the grammar reads p/q, and a matrix holds integers
        "1 1 1/2",
        "1 2 -3/4 +2",
    ],
)
def test_parse_matrix_rejects_garbage(text):
    with pytest.raises(MatrixFormatError):
        parse_matrix(text)


def test_parse_rational_accepts_signs_and_fractions():
    assert parse_rational("-3/4") == Fr(-3, 4)
    assert parse_rational("+2") == 2
    assert parse_rational("0/5") == 0
    # matrix tokens keep the grammar: an integral p/q reads as its integer
    assert parse_matrix("1 3 -6/3 +2 2/2") == ((-2, 2, 1),)


def test_linalg_oracle_imports_nothing_from_meyersig():
    # the oracle is the reference for the library's linear algebra, so it must
    # share no code with it; a relative import (module None) is refused too
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert modules and all(m and m.split(".")[0] != "meyersig" for m in modules)
