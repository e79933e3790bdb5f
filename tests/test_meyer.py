import ast
import math
import operator
import random
from collections import Counter
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import linalg_oracle as oracle
from meyersig import (
    ContractViolation,
    GenusMismatch,
    InconsistentRelations,
    InvalidInput,
    MatrixFormatError,
    NotUnimodular,
    SymplecticElement,
    direct_sum,
    gen_S,
    gen_T,
    gram_restrict,
    kernel_basis,
    lasso_power,
    phi1,
    phi1_base,
    phi1_word,
    random_transvection_product,
    signature_symmetric,
    sl2_word,
    tau,
    tau_cocycle_defect,
    tau_form,
)
from meyersig import exactnum, meyer, symplectic
from conftest import random_sl2, tau_matrix, tau_pairs

TWIST = SymplecticElement([[1, -1], [0, 1]])


def test_tau_vanishes_against_identity():
    r = random.Random(21)
    for g in (1, 2):
        eye = SymplecticElement.identity(g)
        for _ in range(10):
            m = random_transvection_product(r, g, 6)
            assert tau(eye, m) == 0
            assert tau(m, eye) == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_tau_on_twist_powers(n):
    assert tau(TWIST, TWIST**n) == -1


def test_tau_form_on_twist_powers_is_the_expected_diagonal():
    # the kernel is spanned by (1,0|0,0), (0,0|1,0) and (0,n|0,1); the first is
    # the radical vector (x | 0) with x fixed by TWIST, the second the radical
    # vector (0 | y) with y fixed by TWIST**n, and tau_form drops both
    for n in range(1, 6):
        assert tau_form(TWIST, TWIST**n) == ((-n * (n + 1),),)


def _fixes(a, v) -> bool:
    return [sum(map(operator.mul, row, v)) for row in a.mat] == list(v)


def test_tau_form_is_the_pairing_on_a_basis_of_w():
    singular = 0
    for a1, a2 in tau_pairs(random.Random(1973)):
        n = len(a1.mat)
        m = tau_matrix(a1, a2)
        left, right = [row[:n] for row in m], [row[n:] for row in m]
        # the pairing is J (I - A2), J = [[0, I], [-I, 0]]
        pairing = [[-x for x in row] for row in right[n // 2 :]] + right[: n // 2]
        # V's radical holds the vectors (x | 0) with A1 x = x and (0 | y) with A2 y = y
        full = kernel_basis(m)
        gram = gram_restrict(pairing, full)
        rank_left, rank_right = oracle.rank(left), oracle.rank(right)
        x_only = [i for i, v in enumerate(full) if not any(v[n:])]
        y_only = [i for i, v in enumerate(full) if not any(v[:n])]
        assert all(_fixes(a1, full[i][:n]) for i in x_only) and len(x_only) == n - rank_left
        assert all(_fixes(a2, full[i][n:]) for i in y_only) and len(y_only) <= n - rank_right
        assert all(gram[i][j] == gram[j][i] == 0 for i in x_only + y_only for j in range(len(full)))
        # tau_form is the pairing on the kernel vectors of [(A1^-1 - I) | (A2 - I)_Q]
        # whose free column is in the second half, y scattered from Q onto 2g coordinates
        q = oracle.pivot_columns(right, n)
        singular += len(q) < n
        basis = []
        for v in kernel_basis([row + [r[c] for c in q] for row, r in zip(left, right)]):
            y = [0] * n
            for c, t in zip(q, v[n:]):
                y[c] = t
            if any(y):
                basis.append(list(v[:n]) + y)
        form = tau_form(a1, a2)
        assert form == gram_restrict(pairing, basis)
        # one vector per dimension of W = Im(A1^-1 - I) meet Im(A2 - I): every x
        # is nonzero, and the images u = (A2 - I) y are independent
        assert len(form) == rank_left + rank_right - oracle.rank(m)
        us = [oracle.mat_vec(right, v[n:]) for v in basis]
        assert all(any(v[:n]) for v in basis) and all(any(u) for u in us)
        assert oracle.rank(us) == len(us)
        assert signature_symmetric(form) == signature_symmetric(gram)
    assert singular == 80  # of 120 pairs


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                        "__truediv__", "__rtruediv__", "__floordiv__", "__neg__")


def test_tau_path_constructs_no_fractions(monkeypatch):
    # kernel, Gram and signature are integer-preserving for integer input
    r = random.Random(24)
    pairs = [
        (random_transvection_product(r, g, 5), random_transvection_product(r, g, 5))
        for g in (1, 2, 3)
        for _ in range(5)
    ]
    pairs += [(TWIST, TWIST**n) for n in (1, 3, -2)]

    def refuse(*args, **kwargs):
        pytest.fail("Fraction on the tau path")

    for name in ("__new__", *_FRACTION_ARITHMETIC):
        monkeypatch.setattr(Fr, name, refuse)
    values = [tau(a1, a2) for a1, a2 in pairs]
    monkeypatch.undo()
    assert -1 in values and len(set(values)) > 1


def test_tau_reads_its_rows_once(monkeypatch):
    # tau_form builds its rows from validated elements: no reader sees them,
    # and its Gram is checked symmetric once, before the signature
    pairs = tau_pairs(random.Random(5), per_genus=3)
    expected = [tau(a1, a2) for a1, a2 in pairs]
    symmetric, checked = exactnum._symmetric, []

    def refuse(*args, **kwargs):
        pytest.fail("tau's rows read again")

    monkeypatch.setattr(exactnum, "_int_matrix", refuse)
    monkeypatch.setattr(exactnum, "_symmetric", lambda g: checked.append(g) or symmetric(g))
    assert [tau(a1, a2) for a1, a2 in pairs] == expected
    assert len(checked) == len(pairs)


def test_int_rows_are_read_without_fractions(monkeypatch):
    # an all-int nested list is checked and converted in ints: validating it
    # builds no Fraction, and phi1 builds one, its result
    rows = [[2, 1], [-5, -2]]
    expected = phi1(SymplecticElement(rows))  # runs the once-per-process check first
    new = Fr.__new__
    built = []

    def refuse(*args, **kwargs):
        pytest.fail("Fraction arithmetic while reading int rows")

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fr, name, refuse)
    monkeypatch.setattr(Fr, "__new__", counted)
    element = SymplecticElement(rows)
    assert built == []
    value = phi1(rows)
    monkeypatch.undo()
    assert len(built) == 1
    assert element.mat == ((2, 1), (-5, -2)) and value == expected


@pytest.mark.parametrize("bad", [[[1, 0], [0, 1]], None, 5], ids=["list", "None", "int"])
@pytest.mark.parametrize("fn", [tau, tau_form, tau_cocycle_defect], ids=lambda fn: fn.__name__)
def test_tau_refuses_what_is_not_a_symplectic_element(fn, bad):
    # each would end in a bare AttributeError on reading the genus
    arity = 3 if fn is tau_cocycle_defect else 2
    for i in range(arity):
        args = [SymplecticElement.identity(1)] * arity
        args[i] = bad
        with pytest.raises(InvalidInput, match=type(bad).__name__):
            fn(*args)


def test_tau_genus_mismatch():
    with pytest.raises(GenusMismatch):
        tau(SymplecticElement.identity(1), SymplecticElement.identity(2))


def test_tau_additive_over_direct_sums():
    r = random.Random(22)
    for _ in range(12):
        a1, a2 = (random_transvection_product(r, 1, 5) for _ in range(2))
        b1, b2 = (random_transvection_product(r, 2, 5) for _ in range(2))
        assert tau(direct_sum(a1, b1), direct_sum(a2, b2)) == tau(a1, a2) + tau(b1, b2)


def test_tau_stabilization_keeps_twist_values():
    eye = SymplecticElement.identity(1)
    for n in (1, 2, 7):
        assert tau(direct_sum(TWIST, eye), direct_sum(TWIST**n, eye)) == -1


def test_cocycle_defect_trivial_and_twist_triples():
    eye = SymplecticElement.identity(1)
    assert tau_cocycle_defect(eye, eye, eye) == 0
    for n, m in [(1, 1), (2, 3), (5, 2)]:
        assert tau_cocycle_defect(TWIST, TWIST**n, TWIST**m) == 0


def test_cocycle_defect_random(seeded):
    for g in (1, 2):
        for _ in range(60):
            a, b, c = (random_transvection_product(seeded, g, 6) for _ in range(3))
            assert tau_cocycle_defect(a, b, c) == 0


def _defect_triples(r: random.Random) -> list:
    """Three seeded triples per genus 1-6, each with the degenerate triples
    built from it, then three of products of 2g + 4 transvections per genus
    1-3 and one at genus 4, whose A - I are mostly invertible, as the Cayley
    path needs."""
    triples = []
    for g in range(1, 7):
        eye = SymplecticElement.identity(g)
        for _ in range(3):
            a, b, c = (random_transvection_product(r, g, r.randint(1, 5)) for _ in range(3))
            triples += [(a, b, c), (a, a, b), (a, a.inverse(), c), (eye, a, b), (a, b, b.inverse()),
                        (a, eye, a), (b.inverse(), b, b)]
    for g in range(1, 4):
        triples += [tuple(random_transvection_product(r, g, 2 * g + 4) for _ in range(3))
                    for _ in range(3)]
    triples.append(tuple(random_transvection_product(r, 4, 12) for _ in range(3)))
    return triples


def _record_cores(monkeypatch) -> list:
    """(core, value) for each tau the defect evaluates, through ``_tau`` (the
    kernel path) or ``_cayley`` (the Cayley path)."""
    seen = []
    tau_core, cayley_core = meyer._tau, meyer._cayley

    def kernel(*args):
        value, pivots = tau_core(*args)
        seen.append(("kernel", value))
        return value, pivots

    def cayley(*args):
        seen.append(("cayley", cayley_core(*args)))
        return seen[-1][1]

    monkeypatch.setattr(meyer, "_tau", kernel)
    monkeypatch.setattr(meyer, "_cayley", cayley)
    return seen


def _path(seen: list) -> str:
    """The one core the four recorded values came from."""
    cores = {core for core, _ in seen}
    assert len(seen) == 4 and len(cores) == 1, seen
    return cores.pop()


def _resolvent(a: SymplecticElement):
    return exactnum._solve(meyer._minus_one(a), symplectic._identity(2 * a.g))


HYPERBOLIC = SymplecticElement([[2, 1], [1, 1]])  # A - I and A^2 - I invertible: traces 3 and 7


def test_cayley_form_is_tau_where_a_minus_i_is_invertible():
    # when A - I and B - I are invertible, W = R^2g and Meyer's form is
    # -(I + R_A + R_B)^t J, R_X = (X - I)^-1; rank(A - I) is at most the
    # number of transvections in A, so g = 3 needs six or more, and g = 4
    # and 6 draw 2g + 4; a singular A - I has no resolvent
    for a in (SymplecticElement.identity(2), TWIST, direct_sum(HYPERBOLIC, TWIST)):
        assert _resolvent(a) is None
    r = random.Random(3030)
    invertible, values, signs = Counter(), set(), Counter()
    cases = [(1, 3, 12), (1, 6, 12), (2, 5, 12), (2, 8, 12), (3, 6, 12), (3, 10, 12),
             (4, 12, 2), (6, 16, 2)]
    for g, length, pairs in cases:
        for _ in range(pairs):
            a, b = (random_transvection_product(r, g, length) for _ in range(2))
            ra, rb = _resolvent(a), _resolvent(b)
            if ra is None or rb is None:
                assert 0 < min(oracle.rank(meyer._minus_one(x)) for x in (a, b)) < 2 * g
                continue
            assert meyer._cayley(ra, rb) == tau(a, b) == meyer._cayley(rb, ra)
            assert meyer._cayley(ra, _resolvent(a.inverse())) == 0
            invertible[g] += 1
            values.add(tau(a, b))
            signs[g, ra[0] * rb[0] > 0] += 1
    assert invertible == {1: 23, 2: 24, 3: 24, 4: 2, 6: 2}  # of 24 pairs per genus, 2 at g = 4 and 6
    # (g, d_A d_B > 0): each branch of the sign rule runs at g = 1 and at g = 2
    assert signs == {(1, True): 14, (1, False): 9, (2, True): 6, (2, False): 18,
                     (3, True): 21, (3, False): 3, (4, True): 2, (6, False): 2}
    assert len(values) >= 3  # a sample of zeros would check nothing


def test_cocycle_defect_shares_the_four_tau_values(monkeypatch):
    # the defect evaluates the four values tau computes one pair at a time,
    # all through one core: on the kernel path through tau's, in the order
    # tau(a1, a2), whose elimination gives P1, tau(a3, a2), whose gives Q3,
    # tau(a1 a2, a3) and tau(a2 a3, a1); on the Cayley path through
    # _cayley, in the order named; by tau's symmetry the values agree
    triples = _defect_triples(random.Random(1818))
    seen = _record_cores(monkeypatch)
    nonzero, paths = 0, Counter()
    for a1, a2, a3 in triples + [(HYPERBOLIC,) * 3, (HYPERBOLIC, HYPERBOLIC.inverse(), HYPERBOLIC)]:
        evaluated = [tau(x, y) for x, y in ((a1, a2), (a3, a2), (a1 * a2, a3), (a2 * a3, a1))]
        named = [tau(x, y) for x, y in ((a1, a2), (a2, a3), (a1 * a2, a3), (a1, a2 * a3))]
        seen.clear()
        assert tau_cocycle_defect(a1, a2, a3) == 0
        assert [value for _, value in seen] == evaluated == named
        paths[_path(seen), a1.g] += 1
        nonzero += any(named)
    assert nonzero == 56  # of 138 triples
    # the Cayley path at g <= 4 wherever every A - I is invertible, the
    # kernel path elsewhere: the last two triples take one each
    assert paths == {("cayley", 1): 7, ("cayley", 2): 4, ("cayley", 3): 3, ("cayley", 4): 1,
                     ("kernel", 1): 19, ("kernel", 2): 20, ("kernel", 3): 21, ("kernel", 4): 21,
                     ("kernel", 5): 21, ("kernel", 6): 21}


def test_cocycle_defect_forms_are_tau_form_of_its_four_pairs(monkeypatch):
    # on the kernel path, the Grams the defect builds, with the right sides
    # of (a1 a2, a3) and (a2 a3, a1) at columns read off earlier
    # eliminations and their rows multiplied on the left by A2 and A3, are
    # tau_form's Grams of the four oriented pairs, entry for entry; the
    # Cayley path builds none; g = 5 is on no workload
    triples = _defect_triples(random.Random(2718))
    core, seen = meyer._form, []
    monkeypatch.setattr(meyer, "_form", lambda *args: seen.append(core(*args)) or seen[-1])
    narrowed, cayley = 0, 0
    for a1, a2, a3 in triples:
        pairs = [(a1, a2), (a3, a2), (a1 * a2, a3), (a2 * a3, a1)]
        expected = [tau_form(x, y) for x, y in pairs]
        seen.clear()
        assert tau_cocycle_defect(a1, a2, a3) == 0
        if not seen:
            cayley += 1
            continue
        assert [form for form, _ in seen] == expected
        narrowed += oracle.rank(meyer._minus_one(a1)) < 2 * a1.g
    assert cayley == 12  # of 136 triples
    assert narrowed == 105  # of 124 on the kernel path, where (A1 - I)_P1 has fewer columns than A1 - I


def test_cocycle_defect_counts_its_eliminations_on_each_path(monkeypatch):
    # the pivot pass on A2 - I, then on the Cayley path the five solves of
    # X - I for X = A1, A2, A3, A1 A2 and A2 A3, each its own Gauss-Jordan
    # pass and no _echelon, and on the kernel path the four joint
    # eliminations: those of tau(a1, a2) and tau(a3, a2) give the pivot
    # columns of A1 - I and A3 - I; a singular solve falls back to the
    # kernel path after the solves before it
    r = random.Random(6)
    echelon, solve, calls = exactnum._echelon, exactnum._solve, Counter()

    def counted_echelon(rows):
        calls["echelon"] += 1
        return echelon(rows)

    def counted_solve(x, y):
        calls["solve"] += 1
        return solve(x, y)

    monkeypatch.setattr(exactnum, "_echelon", counted_echelon)
    monkeypatch.setattr(meyer, "_echelon", counted_echelon)
    monkeypatch.setattr(meyer, "_solve", counted_solve)
    seen = _record_cores(monkeypatch)
    counts = []
    for g in (1, 1, 2, 2, 4, 6):
        a, b, c = (random_transvection_product(r, g, 5) for _ in range(3))
        calls.clear()
        seen.clear()
        assert tau_cocycle_defect(a, b, c) == 0
        counts.append((g, _path(seen), calls["echelon"], calls["solve"]))
        calls.clear()
        tau(a, b)
        assert calls == {"echelon": 2}, g
    # A1 A2 = I: three solves, the fourth singular, then the kernel path
    calls.clear()
    seen.clear()
    assert tau_cocycle_defect(HYPERBOLIC, HYPERBOLIC.inverse(), HYPERBOLIC) == 0
    counts.append((1, _path(seen), calls["echelon"], calls["solve"]))
    assert counts == [(1, "cayley", 1, 5), (1, "cayley", 1, 5), (2, "cayley", 1, 5),
                      (2, "cayley", 1, 5), (4, "kernel", 5, 0), (6, "kernel", 5, 0),
                      (1, "kernel", 5, 4)]


def test_cocycle_defect_multiplies_no_elements(monkeypatch):
    # a1 a2 and a2 a3 enter only through A2 [(A1 A2)^-1 - I | (A3 - I)_Q3]
    # and A3 [(A2 A3)^-1 - I | (A1 - I)_P1], whose right blocks are 2g x |Q|
    triples = _defect_triples(random.Random(29))

    def refuse(*args):
        pytest.fail("the cocycle defect multiplied two elements")

    monkeypatch.setattr(SymplecticElement, "__mul__", refuse)
    for a1, a2, a3 in triples:
        assert tau_cocycle_defect(a1, a2, a3) == 0


@pytest.mark.parametrize("fn", [tau, tau_form, tau_cocycle_defect], ids=lambda fn: fn.__name__)
def test_tau_refuses_elements_of_different_genera(fn):
    arity = 3 if fn is tau_cocycle_defect else 2
    for i in range(arity):
        args = [SymplecticElement.identity(1)] * arity
        args[i] = SymplecticElement.identity(2)
        with pytest.raises(GenusMismatch):
            fn(*args)


@pytest.mark.parametrize("g", [1, 2])
def test_cocycle_defect_checks_each_value_against_the_bound(monkeypatch, g):
    # I - I is the zero matrix (the kernel path); every A - I of the triple
    # (A, A, A) of g hyperbolic blocks is invertible (the Cayley path)
    monkeypatch.setattr(meyer, "_signature", lambda form: 4 * g + 1)
    for a, core in ((SymplecticElement.identity(g), "_tau"),
                    (HYPERBOLIC if g == 1 else direct_sum(HYPERBOLIC, HYPERBOLIC), "_cayley")):
        with pytest.raises(ContractViolation) as raised:
            tau_cocycle_defect(a, a, a)
        assert [entry.name for entry in raised.traceback][-2:] == [core, "_bounded"]


def test_tau_is_symmetric():
    # tau(a, b) = tau(b, a) (Meyer 1973), which the cocycle defect uses, with
    # the pairs (a, a), (a, a^-1), (a, I) and (I, a) for each first element
    r = random.Random(29)
    values = []
    for g in range(1, 7):
        eye = SymplecticElement.identity(g)
        for _ in range(6):
            a, b = (random_transvection_product(r, g, r.randint(1, 5)) for _ in range(2))
            for x, y in ((a, b), (a, a), (a, a.inverse()), (a, eye), (eye, a)):
                values.append(tau(x, y))
                assert tau(y, x) == values[-1], (x, y)
    assert len(set(values)) >= 3  # a sample of zeros would check nothing


def test_tau_conjugation_invariance(seeded):
    for g in (1, 2):
        for _ in range(15):
            a1 = random_transvection_product(seeded, g, 5)
            a2 = random_transvection_product(seeded, g, 5)
            b = random_transvection_product(seeded, g, 5)
            conj = lambda x: b * x * b.inverse()
            assert tau(conj(a1), conj(a2)) == tau(a1, a2)


def test_tau_bound(seeded):
    for g in (1, 2, 3):
        for _ in range(12):
            a1 = random_transvection_product(seeded, g, 6)
            a2 = random_transvection_product(seeded, g, 6)
            value = tau(a1, a2)
            assert abs(value) <= 4 * g
            assert abs(value) <= len(tau_form(a1, a2))


@pytest.mark.parametrize("g", [1, 2])
def test_tau_bound_violation_raises(monkeypatch, g):
    monkeypatch.setattr(meyer, "_signature", lambda form: 4 * g + 1)
    eye = SymplecticElement.identity(g)
    with pytest.raises(ContractViolation):
        tau(eye, eye)


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so none may carry a contract
    package = Path(__file__).resolve().parents[1] / "src" / "meyersig"
    sources = sorted(package.glob("*.py"))
    assert sources
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


# --- phi1 -------------------------------------------------------------------


def test_phi_base_is_solved_once():
    assert phi1_base() is phi1_base()


def test_phi_base_relations_hold():
    base = phi1_base()
    s = gen_S()
    assert 4 * base.phi_S == tau(s, s) + tau(s * s, s) + tau(s * s * s, s)
    st = [("S", 1), ("T", 1)]
    assert phi1_word(st * 6, base) == 0
    assert phi1_word([("S", 4)], base) == 0


def test_phi_of_identity_and_empty_word():
    assert phi1(SymplecticElement.identity(1)) == 0
    assert phi1_word([]) == 0
    assert phi1_word([("T", 0), ("S", 0)]) == 0  # a zero exponent is the identity


@pytest.mark.parametrize(
    "word",
    [
        [("T", 1.5)],
        [("T", Fr(3, 2))],
        [("T", Fr(1))],
        [("T", "2")],
        [("T", True)],
        [("T", None)],
        "ST",
        [("S",)],
        [("S", 1, 1)],
        [["T", 1]],
        [("U", 1)],
        5,
    ],
    ids=[
        "float", "fraction", "integral-fraction", "string", "bool", "none", "string-word",
        "short", "long", "list-syllable", "generator", "not-iterable",
    ],
)
def test_phi1_word_refuses_what_is_not_generator_int_pairs(word):
    # unchecked, 1.5 and 3/2 fold as T^1, and "2", "ST" and 5 end in a bare error
    with pytest.raises(MatrixFormatError):
        phi1_word(word)


@pytest.mark.parametrize(
    "word, product",
    [
        ([("T", 2**1100)], [[1, 2**1100], [0, 1]]),
        ([("T", -(2**1100))], [[1, -(2**1100)], [0, 1]]),
        ([("S", 2**1100 + 1)], [[0, -1], [1, 0]]),  # S^4 = I
    ],
    ids=["T", "T-inverse", "S"],
)
def test_phi1_word_folds_a_power_of_thousands_of_bits(word, product):
    # one square-and-multiply step per bit: a recursion per bit would exceed
    # the interpreter's recursion limit
    assert phi1_word(word) == phi1(product)


@given(g=st.integers(1, 4), length=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_tau_of_an_element_and_its_inverse_is_zero(g, length, seed):
    # phi(A^-1) = tau(A, A^-1) - phi(A) = -phi(A) rests on this
    a = random_transvection_product(random.Random(seed), g, length)
    assert tau(a, a.inverse()) == 0


def _tau_counts(monkeypatch, words):
    """phi1_word on each word, and the tau each one evaluates."""
    phi1_base()  # warm: the solve's own tau calls are not counted
    calls = []

    def counted(a1, a2):
        calls.append(None)
        return tau(a1, a2)

    monkeypatch.setattr(meyer, "tau", counted)
    values, counts = [], []
    for word in words:
        calls.clear()
        values.append(phi1_word(word))
        counts.append(len(calls))
    return values, counts


def test_negative_powers_evaluate_no_more_tau_than_positive_ones(monkeypatch):
    _, counts = _tau_counts(monkeypatch, ([("T", 5)], [("T", -5)]))
    assert counts[1] <= counts[0]


def test_zero_exponents_evaluate_no_tau(monkeypatch):
    words = ([("S", 3), ("T", -7)], [("T", 0), ("S", 3), ("T", -7), ("S", 0)], [("S", 0)])
    values, counts = _tau_counts(monkeypatch, words)
    assert values[0] == values[1] and values[2] == 0
    assert counts[1] == counts[0] and counts[2] == 0


def test_phi_decomposition_independence(seeded):
    base = phi1_base()
    for _ in range(25):
        m = random_sl2(seeded, letters=10)
        b = random_sl2(seeded, letters=5)
        word1 = sl2_word(m)
        word2 = sl2_word(m * b).syllables + sl2_word(b.inverse()).syllables
        assert phi1_word(word1, base) == phi1_word(word2, base)


def test_phi_is_a_class_function(seeded):
    base = phi1_base()
    for _ in range(20):
        a = random_sl2(seeded, letters=8)
        b = random_sl2(seeded, letters=8)
        assert phi1_word(sl2_word(b * a * b.inverse()), base) == phi1_word(
            sl2_word(a), base
        )


def test_phi_inverse_antisymmetry(seeded):
    base = phi1_base()
    for _ in range(20):
        a = random_sl2(seeded, letters=8)
        assert phi1_word(sl2_word(a.inverse()), base) == -phi1_word(
            sl2_word(a), base
        )


def test_phi_coboundary_equals_tau(seeded):
    base = phi1_base()
    for _ in range(25):
        a = random_sl2(seeded, letters=8)
        b = random_sl2(seeded, letters=8)
        lhs = (
            phi1_word(sl2_word(a), base)
            - phi1_word(sl2_word(a * b), base)
            + phi1_word(sl2_word(b), base)
        )
        assert lhs == tau(a, b)


def test_phi_parabolic_values_follow_the_twist_accumulation():
    # phi(T^{-n}) = n phi(T^{-1}) + (n-1) because consecutive powers pair to -1
    base = phi1_base()
    phi_inv = phi1_word(sl2_word(TWIST), base)
    for n in range(1, 8):
        assert phi1_word(sl2_word(TWIST**n), base) == n * phi_inv + (n - 1)


# --- lasso_power ------------------------------------------------------------


def test_lasso_power_examples():
    assert lasso_power(Fr(-9, 17), 1) == Fr(-9, 17)
    assert lasso_power(Fr(-9, 17), 2) == Fr(-1, 17)
    for n in range(1, 12):
        assert lasso_power(Fr(-1, 2), n) == Fr(n - 2, 2)


def test_lasso_power_cross_checked_against_cocycle():
    # phi(sigma^2) = 2 phi(sigma) - tau(rho(sigma), rho(sigma)) with tau = -1
    assert lasso_power(Fr(-9, 17), 2) == 2 * Fr(-9, 17) - tau(TWIST, TWIST)


@pytest.mark.parametrize("text", ["1e0", "x", "1.5", "1_0"])
def test_lasso_power_reads_strings_through_the_numeral_grammar(text):
    with pytest.raises(InvalidInput):
        lasso_power(text, 2)
    assert lasso_power("-9/17", 2) == Fr(-1, 17)


def test_lasso_power_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        lasso_power(Fr(1, 2), 0)


# --- phi1 against the Dedekind-sum closed form ---------------------------------


def dedekind_sum(h: int, k: int) -> Fr:
    """s(h, k) for coprime h and k > 0, by reciprocity in O(log k) steps:
    s(h, k) = s(h mod k, k) and, for 0 < h < k,
    s(h, k) + s(k, h) = (h^2 + k^2 + 1) / (12 h k) - 1/4."""
    h %= k
    if h == 0:
        return Fr(0)
    return Fr(h * h + k * k + 1, 12 * h * k) - Fr(1, 4) - dedekind_sum(k, h)


def phi1_closed_form(a: int, b: int, c: int, d: int) -> Fr:
    """Meyer's function through the Rademacher function
    Phi(A) = (a + d)/c - 12 sign(c) s(a, |c|) (Atiyah 1987; Kirby-Melvin 1994)."""
    if c == 0:
        return -Fr(b, 3 * d) + oracle.sign(b * (d + 1))
    rademacher = Fr(a + d, c) - 12 * oracle.sign(c) * dedekind_sum(a, abs(c))
    return -rademacher / 3 + oracle.sign(c * (a + d - 2))


def test_dedekind_sums_by_reciprocity_match_the_definition():
    def by_definition(h, k):
        def saw(x: Fr) -> Fr:
            return Fr(0) if x.denominator == 1 else x - math.floor(x) - Fr(1, 2)

        return sum((saw(Fr(i, k)) * saw(Fr(h * i, k)) for i in range(1, k)), Fr(0))

    for k in range(1, 30):
        for h in range(-k, 2 * k):
            if math.gcd(h, k) == 1:
                assert dedekind_sum(h, k) == by_definition(h, k)


st_words = st.lists(st.tuples(st.sampled_from("ST"), st.integers(-6, 6)), max_size=10)


@given(word=st_words)
def test_phi1_matches_the_dedekind_sum_closed_form(word):
    a, b, c, d = oracle.word_product(word)
    expected = phi1_closed_form(a, b, c, d)
    assert phi1_word(word) == expected
    assert phi1([[a, b], [c, d]]) == expected


# --- public phi1: the closed form against the fold ------------------------------


long_st_words = st.lists(st.tuples(st.sampled_from("ST"), st.integers(-50, 50)), max_size=40)


@given(word=long_st_words)
def test_phi1_agrees_with_the_fold_along_its_word(word):
    a, b, c, d = oracle.word_product(word)
    matrix = [[a, b], [c, d]]
    assert phi1(matrix) == phi1_word(sl2_word(matrix))


EXPLICIT = {
    **{f"fib{n}": oracle.fibonacci_matrix(n) for n in (10, 40, 160, 320)},
    **{f"T^{n}": [[1, n], [0, 1]] for n in (-7, 1, 5)},
    **{f"-T^{n}": [[-1, -n], [0, -1]] for n in (-7, 1, 5)},
    "-I": [[-1, 0], [0, -1]],
    "c=-1": [[1, 0], [-1, 1]],
    "c=-5": [[2, 1], [-5, -2]],
    "c=-4": [[3, -2], [-4, 3]],
    "c=-3": [[-1, 0], [-3, -1]],
    "c=-7": [[1, 1], [-7, -6]],
}


@pytest.mark.parametrize("matrix", list(EXPLICIT.values()), ids=list(EXPLICIT))
def test_phi1_on_long_words_parabolics_and_negative_c(matrix):
    (a, b), (c, d) = matrix
    expected = phi1_closed_form(a, b, c, d)
    assert phi1_word(sl2_word(matrix)) == expected
    assert phi1(matrix) == expected


SMALL = range(-8, 9)
SMALL_SL2 = [
    [[a, b], [c, d]] for a in SMALL for b in SMALL for c in SMALL for d in SMALL if a * d - b * c == 1
]
ONE_PASS_INPUTS = SMALL_SL2 + [oracle.fibonacci_matrix(n) for n in range(2, 321, 2)]


def test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci():
    # every matrix with entries in [-8, 8], so +-I, +-T^n, S and S^3 included
    for special in ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]],
                    [[1, 8], [0, 1]], [[-1, 8], [0, -1]]):
        assert special in ONE_PASS_INPUTS
    for matrix in ONE_PASS_INPUTS:
        (a, b), (c, d) = matrix
        assert phi1(matrix) == phi1_closed_form(a, b, c, d), matrix


def test_sl2_word_is_in_normal_form_and_evaluates_back():
    for matrix in ONE_PASS_INPUTS:
        word = sl2_word(matrix)
        assert oracle.word_product(word.syllables) == (*matrix[0], *matrix[1]), matrix
        syllables = word.syllables
        assert all(e != 0 for _, e in syllables), syllables
        assert all(g != h for (g, _), (h, _) in zip(syllables, syllables[1:])), syllables
        assert all(1 <= e <= 3 for g, e in syllables if g == "S"), syllables


# --- the one reduction against the syllable-at-a-time reference ----------------


def _reduces_like_the_reference(matrix):
    (a, b), (c, d) = matrix
    syllables, rademacher = oracle.sl2_reduction(a, b, c, d)
    assert sl2_word(matrix).syllables == syllables, matrix
    assert symplectic._rademacher(a, b, c, d) == rademacher, matrix


# Any word with small exponents, and words with exponents up to 10^6 in the
# reduction's own shape, T^e then S^odd T^q with q <= -2, which take one step
# per S. An arbitrary word with such exponents can take about 10^6 steps
# (test_sl2_reduction_takes_up_to_abs_c_steps).
big = st.integers(-10**6, 10**6)
odd = st.integers(-500_000, 499_999).map(lambda k: 2 * k + 1)
reduced_words = st.builds(
    lambda e, rest: [("T", e), *(syllable for s, q in rest for syllable in (("S", s), ("T", q)))],
    big,
    st.lists(st.tuples(odd, st.integers(-10**6, -2)), max_size=19),
)


@given(word=st.lists(st.tuples(st.sampled_from("ST"), st.integers(-50, 50)), max_size=40) | reduced_words)
def test_sl2_reduction_matches_the_reference_on_words(word):
    a, b, c, d = oracle.word_product(word)
    _reduces_like_the_reference([[a, b], [c, d]])


def test_sl2_reduction_takes_up_to_abs_c_steps():
    # |c| falls by at least 1 per step; [[1, 0], [-n, 1]] = S T^n S^-1 takes n,
    # each T^q S, then the tail T^(1 // -n) = T^-1
    for n in (1, 2, 3, 10, 10_000):
        syllables = sl2_word([[1, 0], [-n, 1]]).syllables
        assert sum(gen == "S" for gen, _ in syllables) == n
        assert [e for gen, e in syllables[:-1] if gen == "T"] == [-1] + [-2] * (n - 1)
        assert syllables[-1] == ("T", -1)
        # Phi = 2/(-n) + 12 s(1, n), s(1, n) = (n-1)(n-2)/(12n)
        assert symplectic._rademacher(1, 0, -n, 1) == n - 3


def test_rademacher_folds_a_run_of_minus_two_in_one_step(monkeypatch):
    # the same n - 1 quotients -2, at sizes no step-at-a-time loop could take;
    # phi1 builds no word
    def refuse(*args, **kwargs):
        pytest.fail("phi1 ran the reduction that builds the word")

    monkeypatch.setattr(symplectic, "sl2_word", refuse)
    for n in (10**9, 10**100):
        assert symplectic._rademacher(1, 0, -n, 1) == n - 3
        assert phi1([[1, 0], [-n, 1]]) == Fr(-(n - 3), 3) == phi1_closed_form(1, 0, -n, 1)


# Entries of a few hundred bits: words with exponents up to 2^100, and words
# built around S^s T^n S^-s = [[1, 0], [-s n, 1]], whose reduction holds a run
# of up to 2^64 quotients -2
huge_words = st.lists(st.tuples(st.sampled_from("ST"), st.integers(-(2**100), 2**100)), max_size=8)
run_words = st.lists(
    st.tuples(st.integers(-(2**40), 2**40), st.sampled_from((1, -1)), st.integers(2, 2**64)),
    min_size=1,
    max_size=6,
).map(lambda parts: [syl for e, s, n in parts for syl in (("T", e), ("S", s), ("T", n), ("S", -s))])


@given(word=huge_words | run_words)
def test_rademacher_fold_matches_the_dedekind_sum_on_big_entries(word):
    a, b, c, d = oracle.word_product(word)
    assert phi1([[a, b], [c, d]]) == phi1_closed_form(a, b, c, d)


def test_sl2_reduction_matches_the_reference_on_explicit_inputs():
    for matrix in [*EXPLICIT.values(), *ONE_PASS_INPUTS, *map(oracle.fibonacci_matrix, range(322, 401, 2))]:
        _reduces_like_the_reference(matrix)


def test_phi1_evaluates_no_tau(monkeypatch):
    phi1(TWIST)  # solves phi1_base and checks the closed form against it

    def refuse(*args, **kwargs):
        pytest.fail("phi1 evaluated the cocycle")

    monkeypatch.setattr(meyer, "tau", refuse)
    monkeypatch.setattr(meyer, "_kernel", refuse)
    matrix = oracle.fibonacci_matrix(160)
    (a, b), (c, d) = matrix
    assert phi1(matrix) == phi1_closed_form(a, b, c, d)


@pytest.fixture
def cold_phi1_caches():
    meyer.phi1_base.cache_clear()
    yield
    meyer.phi1_base.cache_clear()


@pytest.mark.parametrize("field", ["phi_S", "phi_T"])
def test_phi1_refuses_a_closed_form_the_relations_contradict(monkeypatch, cold_phi1_caches, field):
    # the closed form shifted by 1 on one generator; phi1_base ties it to the solve
    gen = {"phi_S": gen_S, "phi_T": gen_T}[field]()
    closed_form = meyer._phi1_closed_form
    monkeypatch.setattr(meyer, "_phi1_closed_form", lambda m: closed_form(m) + (m == gen))
    with pytest.raises(InconsistentRelations, match=rf"closed form phi\({field[-1]}\)"):
        phi1(TWIST)


def _tau_shifted_at(a1, a2):
    """``meyer.tau`` plus 1 on the one pair (a1, a2)."""
    return lambda x, y: tau(x, y) + (x == a1 and y == a2)


@pytest.mark.parametrize(
    "name, patch, message",
    [
        # (S T^2)^6 is not the identity: S T^2 is parabolic
        ("gen_T", lambda: gen_T() ** 2, r"S\^4 = \(ST\)\^6 = I does not hold"),
        # tau(S, T) is folded along (ST)^3 and (ST)^6, not along S^2
        ("tau", _tau_shifted_at(gen_S(), gen_T()), r"phi\(\(ST\)\^3\) = .* differs"),
        # tau(-I, -I) is folded only when S^4 is squared from S^2
        ("tau", _tau_shifted_at(gen_S() ** 2, gen_S() ** 2), r"S\^4 does not fold to zero"),
    ],
    ids=["relator", "st-cubed", "s-fourth-squared"],
)
def test_phi1_base_refuses_relations_the_cocycle_contradicts(
    monkeypatch, cold_phi1_caches, name, patch, message
):
    monkeypatch.setattr(meyer, name, patch)
    with pytest.raises(InconsistentRelations, match=message):
        phi1_base()


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (SymplecticElement.identity(2), NotUnimodular, "need a 2x2 matrix"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], NotUnimodular, "need a 2x2 matrix"),
        # every other shape fails the unpack into two pairs, never as a bare ValueError
        ([], NotUnimodular, "need a 2x2 matrix"),
        ([[1, 0]], NotUnimodular, "need a 2x2 matrix"),
        ([[1], [0]], NotUnimodular, "need a 2x2 matrix"),
        ([[1, 0, 0], [0, 1, 0]], NotUnimodular, "need a 2x2 matrix"),
        ([[1, 0], [0, 1], [0, 0]], NotUnimodular, "need a 2x2 matrix"),
        ([[0, 1], [1, 0]], NotUnimodular, "determinant must be 1"),
        # entries are read as ints, so a Fraction is refused before any determinant
        ([[1, Fr(1, 2)], [0, 1]], MatrixFormatError, "entries must be ints, got Fraction"),
    ],
    ids=["genus2", "3x3", "empty", "1x2", "2x1", "2x3", "3x2", "det-1", "non-integral"],
)
def test_phi1_rejects_what_is_not_in_sl2z(matrix, error, message):
    with pytest.raises(error) as info:
        phi1(matrix)
    assert type(info.value) is error
    assert str(info.value) == message
