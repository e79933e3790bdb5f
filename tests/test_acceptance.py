"""Acceptance suite: every check is exact (tolerance zero).

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction as Fr

from meyersig import (
    CISpec,
    ComplexSurfaceData,
    FibrationLedger,
    LedgerEntry,
    SymplecticElement,
    ci_surface_invariants,
    fiber_count,
    germ,
    lasso_power,
    phi1_base,
    phi1_word,
    random_transvection_product,
    resolve_preset,
    signature_symmetric,
    sl2_word,
    solve_unknown_germ,
    surface_topology,
    tau,
    tau_cocycle_defect,
    tau_form,
    veronese_ci_lasso,
)
from conftest import random_sl2

TWIST = SymplecticElement([[1, -1], [0, 1]])


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_01_twist_family():
    with criterion("01 tau(A, A^n) = -1 with Gram congruent to diag(0,0,-n(n+1))"):
        for n in range(1, 11):
            assert tau(TWIST, TWIST**n) == -1
            form = tau_form(TWIST, TWIST**n)
            reference = [[0, 0, 0], [0, 0, 0], [0, 0, -n * (n + 1)]]
            assert signature_symmetric(form) == signature_symmetric(reference)


def test_criterion_02_cocycle_identity():
    with criterion(
        "02 cocycle defect vanishes on 200 seeded triples for g = 1, 2, 50 for g = 3, 4"
        " and 20 for g = 6"
    ):
        rng = random.Random(224466)
        for g, triples in ((1, 200), (2, 200), (3, 50), (4, 50), (6, 20)):
            for _ in range(triples):
                a, b, c = (random_transvection_product(rng, g, 5) for _ in range(3))
                assert tau_cocycle_defect(a, b, c) == 0


def test_criterion_03_phi1_well_defined():
    with criterion(
        "03 phi1: decomposition independence (100), coboundary = tau (100), "
        "class function (50), inverse antisymmetry (50)"
    ):
        base = phi1_base()
        rng = random.Random(335577)
        for _ in range(100):
            m = random_sl2(rng, letters=10)
            b = random_sl2(rng, letters=5)
            word1 = sl2_word(m)
            word2 = sl2_word(m * b).syllables + sl2_word(b.inverse()).syllables
            assert phi1_word(word1, base) == phi1_word(word2, base)
        for _ in range(100):
            a = random_sl2(rng, letters=8)
            b = random_sl2(rng, letters=8)
            delta = (
                phi1_word(sl2_word(a), base)
                - phi1_word(sl2_word(a * b), base)
                + phi1_word(sl2_word(b), base)
            )
            assert delta == tau(a, b)
        for _ in range(50):
            a = random_sl2(rng, letters=8)
            b = random_sl2(rng, letters=8)
            assert phi1_word(sl2_word(b * a * b.inverse()), base) == phi1_word(
                sl2_word(a), base
            )
        for _ in range(50):
            a = random_sl2(rng, letters=8)
            assert phi1_word(sl2_word(a.inverse()), base) == -phi1_word(
                sl2_word(a), base
            )


def test_criterion_04_segre_preset():
    with criterion("04 bidegree (3,3) preset: deg D_X = 34 and phi = -9/17"):
        preset = resolve_preset("segre33")
        assert preset.report.deg_DX == 34
        assert preset.report.phi == Fr(-9, 17)


def test_criterion_05_veronese_p4():
    with criterion("05 v_2(P_4): alpha = -5, beta = 10, phi = -1/2, deg D_X = 40"):
        report = veronese_ci_lasso(CISpec(0, (), 4, 2))
        assert report.alpha == Fr(-5)
        assert report.beta == 10
        assert report.phi == Fr(-1, 2)
        assert report.deg_DX == 40


def test_criterion_06_route_consistency():
    with criterion(
        "06 complete-intersection and Veronese routes agree at d = 1, n = 2"
    ):
        checked = 0
        for m in (1, 2, 3):
            for degrees in itertools.product((2, 3, 4), repeat=m):
                if m == 1 and degrees == (2,):
                    continue
                _, ci_report = ci_surface_invariants(m, degrees)
                v_report = veronese_ci_lasso(CISpec(m, degrees, n=2, d=1))
                assert v_report.phi == ci_report.phi
                assert v_report.deg_DX == ci_report.deg_DX
                checked += 1
        assert checked == 2 + 9 + 27


_FAMILIES = (
    # (special germ, chi_O(a), K2(a), count(a), special counts topologically)
    ("R4/F_31", lambda a: 4 * a - 10, lambda a: 14 * a - 46, lambda a: 34 * a - 62, True),
    ("R4/F_22", lambda a: 4 * a - 6, lambda a: 14 * a - 31, lambda a: 34 * a - 29, True),
    ("R4/F_Rprime", lambda a: 4 * a - 10, lambda a: 14 * a - 48, lambda a: 34 * a - 60, False),
)


def test_criterion_07_germ_pipeline():
    with criterion(
        "07 solver recovers sigma(F_31) = 11/17, sigma(F_22) = 19/17, "
        "sigma(F_Rprime) = 4/17; doubling gives sigma(F_R) = 2/17"
    ):
        sigma_i = Fr(-9, 17)
        expected = {
            "R4/F_31": (10, Fr(11, 17)),
            "R4/F_22": (5, Fr(19, 17)),
            "R4/F_Rprime": (7, Fr(4, 17)),
        }
        for name, chi_o, k2, count, topological in _FAMILIES:
            a, sigma_expected = expected[name]
            chi_top, sign = surface_topology(
                ComplexSurfaceData(chi_o(a), k2(a), fiber_genus=4)
            )
            n_germs = fiber_count(chi_top, 4)
            assert n_germs == count(a)
            type_i = n_germs - 1 if topological else n_germs
            led = FibrationLedger(
                sign,
                (
                    LedgerEntry("R4/F_I", sigma_i, 0, type_i),
                    LedgerEntry(name, None, germ(name).nbhd_sign, 1),
                ),
            )
            assert solve_unknown_germ(led).sigma == sigma_expected
        assert germ("R4/F_Rprime").sigma / 2 == Fr(2, 17)
        assert germ("R4/F_R").sigma == Fr(2, 17)


def test_criterion_08_alpha_linear_forms():
    with criterion(
        "08 each family's chi_top, Sign, and germ-count forms certified at two "
        "parameter values"
    ):
        forms = (
            (lambda a: 4 * a - 10, lambda a: 14 * a - 46,
             lambda a: 34 * a - 74, lambda a: -18 * a + 34, lambda a: 34 * a - 62),
            (lambda a: 4 * a - 6, lambda a: 14 * a - 31,
             lambda a: 34 * a - 41, lambda a: -18 * a + 17, lambda a: 34 * a - 29),
            (lambda a: 4 * a - 10, lambda a: 14 * a - 48,
             lambda a: 34 * a - 72, lambda a: -18 * a + 32, lambda a: 34 * a - 60),
        )
        for chi_o, k2, chi_top_f, sign_f, count_f in forms:
            for a in (5, 10):  # two points pin an affine-linear form
                chi_top, sign = surface_topology(
                    ComplexSurfaceData(chi_o(a), k2(a), fiber_genus=4)
                )
                assert chi_top == chi_top_f(a)
                assert sign == sign_f(a)
                assert fiber_count(chi_top, 4) == count_f(a)


def test_criterion_09_unbounded_lasso_powers():
    with criterion(
        "09 lasso_power(-9/17, n) strictly increasing and equal to direct "
        "cocycle accumulation for n = 1..20"
    ):
        sigma = Fr(-9, 17)
        accumulated = sigma
        previous = None
        for n in range(1, 21):
            if n > 1:
                step = tau(TWIST, TWIST ** (n - 1))
                assert step == -1
                accumulated = sigma + accumulated - step
            value = lasso_power(sigma, n)
            assert value == accumulated
            if previous is not None:
                assert value > previous
            previous = value


def test_criterion_10_tau_bound():
    with criterion("10 |tau_g| <= 4g on 25 seeded pairs each for g = 1, 2, 3, 4, 6"):
        rng = random.Random(446688)
        for g in (1, 2, 3, 4, 6):
            for _ in range(25):
                a1 = random_transvection_product(rng, g, 6)
                a2 = random_transvection_product(rng, g, 6)
                assert abs(tau(a1, a2)) <= 4 * g
