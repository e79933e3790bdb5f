import random
from decimal import Decimal
from fractions import Fraction as Fr

import pytest

import linalg_oracle as oracle
from meyersig import (
    GenusMismatch,
    InvalidInput,
    MatrixFormatError,
    NotSymplectic,
    NotUnimodular,
    SL2Word,
    SymplecticElement,
    ZeroVector,
    direct_sum,
    gen_S,
    gen_T,
    phi1,
    random_transvection_product,
    sl2_word,
    transvection,
)
from conftest import random_sl2


def test_standard_J_small():
    # pins the oracle's J, which the tests below use, to the module's convention
    assert oracle.standard_J(1) == [[0, 1], [-1, 0]]
    assert oracle.standard_J(2) == [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_standard_J_antisymmetric(g):
    j = oracle.standard_J(g)
    assert oracle.transpose(j) == oracle.neg(j)


def _preserves_J(m) -> bool:
    """A^t J A = J, the definition, from the oracle's J and products."""
    j = oracle.standard_J(len(m) // 2)
    return oracle.matmul(oracle.matmul(oracle.transpose(m), j), m) == j


def _near_symplectic(r: random.Random, g: int):
    """A product of transvections, often with one entry moved by 1 or its
    rows swapped: symplectic, or one slip away from it."""
    m = [list(row) for row in random_transvection_product(r, g, r.randint(0, 4)).mat]
    slip = r.randrange(3)
    if slip == 1:
        m[r.randrange(2 * g)][r.randrange(2 * g)] += r.choice((-1, 1))
    elif slip == 2:
        i, k = r.sample(range(2 * g), 2)
        m[i], m[k] = m[k], m[i]
    return m


def test_constructor_accepts_exactly_the_matrices_that_preserve_J():
    r = random.Random(10)
    matrices = [_near_symplectic(r, g) for g in (1, 2, 3) for _ in range(60)]
    matrices += [
        [[r.randint(-2, 2) for _ in range(2 * g)] for _ in range(2 * g)]
        for g in (1, 2)
        for _ in range(200)
    ]
    decisions = set()
    for m in matrices:
        try:
            SymplecticElement(m)
            accepted = True
        except NotSymplectic as exc:
            assert str(exc) == "matrix does not preserve the alternating form"
            accepted = False
        assert accepted == _preserves_J(m), m
        decisions.add(accepted)
    assert decisions == {True, False}


def test_constructor_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        SymplecticElement([[1, 0], [0, 2]])
    with pytest.raises(NotSymplectic):
        SymplecticElement([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(MatrixFormatError):  # a Fraction entry, before the form is checked
        SymplecticElement([[Fr(1, 2), 0], [0, 2]])
    with pytest.raises(MatrixFormatError):
        SymplecticElement([[1, 0], [0]])
    with pytest.raises(NotSymplectic):  # det -1: A^t J A = -J
        SymplecticElement([[0, 1], [1, 0]])


@pytest.mark.parametrize("rows, cols", [(0, 0), (2, 4), (3, 3), (4, 2)])
def test_constructor_names_the_shape_it_refuses(rows, cols):
    with pytest.raises(NotSymplectic, match=f"got {rows}x{cols}$"):
        SymplecticElement([[int(i == j) for j in range(cols)] for i in range(rows)])


@pytest.mark.parametrize("e", [True, False, 2.0, 1.5, "2", None])
def test_power_refuses_an_exponent_that_is_not_an_int(e):
    # True would read as 1 and 2.0 would end in a bare TypeError
    with pytest.raises(InvalidInput, match=type(e).__name__):
        SymplecticElement.identity(1) ** e


def test_power_is_the_repeated_product():
    r = random.Random(17)
    for g in (1, 2, 3):
        x = random_transvection_product(r, g, 4)
        eye = SymplecticElement.identity(g)
        assert x**0 == eye
        for e in range(-6, 7):
            expected, factor = eye, x if e >= 0 else x.inverse()
            for _ in range(abs(e)):
                expected = expected * factor
            assert x**e == expected, (g, e)


def test_transvection_basis_vectors():
    assert transvection((1, 0)).mat == ((1, -1), (0, 1))
    assert transvection((0, 1)).mat == ((1, 0), (1, 1))


def test_transvection_matches_pointwise_definition():
    # oracle: apply x -> x + (x^t J v) v to the standard basis directly
    r = random.Random(11)
    for _ in range(20):
        g = r.randint(1, 3)
        v = tuple(r.randint(-3, 3) for _ in range(2 * g))
        if all(x == 0 for x in v):
            continue
        jv = oracle.mat_vec(oracle.standard_J(g), v)
        t = transvection(v)
        for k in range(2 * g):
            e = tuple(Fr(int(i == k)) for i in range(2 * g))
            coeff = sum(a * b for a, b in zip(e, jv))
            image = tuple(a + coeff * b for a, b in zip(e, v))
            assert tuple(t.mat[i][k] for i in range(2 * g)) == image


def test_transvection_squared_doubles_coefficient():
    r = random.Random(12)
    for _ in range(10):
        g = r.randint(1, 2)
        v = tuple(r.randint(-3, 3) for _ in range(2 * g))
        if all(x == 0 for x in v):
            continue
        t = transvection(v)
        w = oracle.mat_vec(oracle.standard_J(g), v)
        n = 2 * g
        doubled = tuple(tuple(int(i == k) + 2 * v[i] * w[k] for k in range(n)) for i in range(n))
        assert (t * t).mat == doubled


def test_transvection_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        transvection((0, 0))


def test_product_refuses_other_genera_and_non_elements():
    a = SymplecticElement([[1, -1], [0, 1]])
    with pytest.raises(GenusMismatch):
        a * SymplecticElement.identity(2)
    with pytest.raises(GenusMismatch):
        SymplecticElement.identity(2) * a
    with pytest.raises(TypeError):
        a * 3


def test_direct_sum_identities():
    i1 = SymplecticElement.identity(1)
    assert direct_sum(i1, i1) == SymplecticElement.identity(2)
    a = SymplecticElement([[1, -1], [0, 1]])
    s = direct_sum(a, i1)
    assert s.g == 2
    assert SymplecticElement(s.mat) == s  # the validating constructor accepts it
    # the a-block of the first summand lands in rows/cols (0, 2)
    assert s.mat[0][2] == -1


def test_direct_sum_random_blocks_stay_symplectic():
    r = random.Random(13)
    for _ in range(10):
        a = random_transvection_product(r, 1, 5)
        b = random_transvection_product(r, 2, 5)
        s = direct_sum(a, b)
        assert s.g == 3
        assert SymplecticElement(s.mat) == s


def test_direct_sum_is_the_interleaved_block_sum():
    # P (A + B) P^t, with A + B block diagonal on (A's a, A's b, B's a, B's b)
    # and P ordering the coordinates (A's a, B's a, A's b, B's b)
    r = random.Random(18)
    for g1 in (1, 2, 3):
        for g2 in (1, 2, 3):
            a, b = random_transvection_product(r, g1, 5), random_transvection_product(r, g2, 5)
            n1, n = 2 * g1, 2 * (g1 + g2)
            block = [[0] * n for _ in range(n)]
            for i in range(n):
                for k in range(n):
                    if i < n1 and k < n1:
                        block[i][k] = a.mat[i][k]
                    elif i >= n1 and k >= n1:
                        block[i][k] = b.mat[i - n1][k - n1]
            order = [*range(g1), *range(n1, n1 + g2), *range(g1, n1), *range(n1 + g2, n)]
            p = [[int(k == order[i]) for k in range(n)] for i in range(n)]
            expected = oracle.matmul(oracle.matmul(p, block), oracle.transpose(p))
            assert list(map(list, direct_sum(a, b).mat)) == expected, (g1, g2)


def test_products_inverses_powers_stay_symplectic():
    # derived elements skip validation; the validating constructor must
    # accept each of them and give back an equal element
    r = random.Random(14)
    for g in (1, 2, 3):
        eye = SymplecticElement.identity(g)
        derived = [eye, direct_sum(gen_S(), eye), gen_T() ** -3]
        for _ in range(8):
            a = random_transvection_product(r, g, r.randint(1, 30))
            b = random_transvection_product(r, g, r.randint(1, 5))
            v = tuple(r.randint(-3, 3) for _ in range(2 * g))
            derived += [a, a * b, a.inverse(), a**3, a**-2, direct_sum(a, b)]
            if any(v):
                derived.append(transvection(v))
        for x in derived:
            assert SymplecticElement(x.mat) == x


def test_mat_holds_only_ints():
    r = random.Random(16)
    a = random_transvection_product(r, 2, 6)
    elements = [
        SymplecticElement([[1, -1], [0, 1]]),
        SymplecticElement(((1, -1), (0, 1))),
        SymplecticElement.identity(2),
        a,
        a.inverse(),
        a * a,
        a**-3,
        direct_sum(gen_S(), gen_T()),
        transvection((1, -2, 0, 3)),
    ]
    for x in elements:
        assert type(x.mat) is tuple
        assert all(type(row) is tuple for row in x.mat)
        assert all(type(entry) is int for row in x.mat for entry in row)


# The symplectic readers below go through exactnum._int_matrix, whose whole
# contract test_exactnum.test_linear_algebra_refuses_what_is_not_int_rows states.
SYMPLECTIC_READERS = {
    "SymplecticElement": SymplecticElement,
    "phi1": phi1,
    "sl2_word": sl2_word,
    "transvection": lambda rows: transvection(rows[0]),
}


@pytest.mark.parametrize("token", ["1e0", "1.5", "1_0", "x"])
@pytest.mark.parametrize("read", SYMPLECTIC_READERS.values(), ids=list(SYMPLECTIC_READERS))
def test_string_entries_outside_the_numeral_grammar_are_invalid(read, token):
    # Fraction() reads "1e0", "1.5" and "1_0"; a str entry is refused whatever it spells
    with pytest.raises(InvalidInput):
        read([[token, "-1"], ["0", "1"]])


@pytest.mark.parametrize(
    "entry",
    [None, float("nan"), float("inf"), [1], object()],
    ids=["None", "nan", "inf", "list", "object"],
)
@pytest.mark.parametrize(
    "read", [SymplecticElement, phi1, sl2_word], ids=lambda f: f.__name__
)
def test_entries_fraction_cannot_read_are_invalid(read, entry):
    with pytest.raises(InvalidInput):
        read([[entry, 0], [0, 1]])


@pytest.mark.parametrize(
    "entry", [1.0, True, 0.5, Decimal("1")], ids=["float-1.0", "True", "float-0.5", "Decimal"]
)
@pytest.mark.parametrize("read", SYMPLECTIC_READERS.values(), ids=list(SYMPLECTIC_READERS))
def test_entries_are_ints_fractions_or_numerals(read, entry):
    # entries are ints only now; Fraction() reads all of these, and
    # [[1, 1.0], [0, True]] would be T
    with pytest.raises(MatrixFormatError, match=type(entry).__name__):
        read([[1, entry], [0, 1]])


def test_fast_inverse_formula():
    r = random.Random(15)
    for g in (1, 2, 3):
        j = oracle.standard_J(g)
        jinv = oracle.neg(j)
        for _ in range(8):
            a = random_transvection_product(r, g, 6)
            inv = list(map(list, a.inverse().mat))
            assert inv == oracle.matmul(oracle.matmul(jinv, oracle.transpose(a.mat)), j)
            assert inv == oracle.inverse(a.mat)
            assert a * a.inverse() == SymplecticElement.identity(g)


# --- SL(2,Z) words ----------------------------------------------------------


def test_word_for_translation_power():
    w = sl2_word(gen_T() ** 5)
    assert w.evaluate().mat == ((1, 5), (0, 1))
    assert str(w) == "TTTTT"


def test_word_for_S():
    w = sl2_word(gen_S())
    assert w.evaluate() == gen_S()


def test_word_for_minus_identity():
    minus = SymplecticElement([[-1, 0], [0, -1]])
    w = sl2_word(minus)
    assert w.syllables == (("S", 2),)


BIG = 2**1100


@pytest.mark.parametrize(
    "syllable, mat",
    [
        # S^e is S^(e mod 4) and T^e is [[1, e], [0, 1]], in closed form
        (("S", BIG), ((1, 0), (0, 1))),
        (("S", BIG + 1), ((0, -1), (1, 0))),
        (("S", BIG + 2), ((-1, 0), (0, -1))),
        (("S", BIG + 3), ((0, 1), (-1, 0))),
        (("T", 10**9), ((1, 10**9), (0, 1))),
        (("T", -(10**9)), ((1, -(10**9)), (0, 1))),
    ],
    ids=["S-4m", "S-4m+1", "S-4m+2", "S-4m+3", "T", "T-inverse"],
)
def test_word_evaluates_huge_powers_to_their_closed_forms(syllable, mat):
    assert SL2Word((syllable,)).evaluate().mat == mat


def test_word_round_trip_on_random_products(seeded):
    for _ in range(100):
        m = random_sl2(seeded, letters=20)
        w = sl2_word(m)
        assert w.evaluate() == m


@pytest.mark.parametrize(
    "read, data",
    [
        (SymplecticElement, ["10", "01"]),
        (SymplecticElement, [b"\x01\x00", b"\x00\x01"]),
        (phi1, ["11", "01"]),
        (sl2_word, ["11", "01"]),
        (transvection, "10"),
        (transvection, b"\x01\x00"),
        (phi1, [1, 2]),
        (SymplecticElement, 5),
        (transvection, 5),
    ],
    ids=[
        "element",
        "element-bytes",
        "phi1",
        "sl2_word",
        "transvection",
        "transvection-bytes",
        "phi1-int-rows",
        "element-int",
        "transvection-int",
    ],
)
def test_string_rows_are_refused(read, data):
    # read one character at a time, ["11", "01"] would be [[1, 1], [0, 1]];
    # a matrix or row that is not iterable would end in a bare TypeError
    with pytest.raises(MatrixFormatError):
        read(data)


def test_word_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        sl2_word([[2, 0], [0, 1]])
    with pytest.raises(NotUnimodular):
        sl2_word([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_word_letters_and_parsing():
    w = SL2Word((("S", -1), ("T", 3)))
    assert str(w) == "sTTT"
    assert len(w) == 4
