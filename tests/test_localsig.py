import itertools
import json
from dataclasses import dataclass
from fractions import Fraction as Fr
from typing import Callable

import pytest

from meyersig import (
    ComplexSurfaceData,
    FibrationLedger,
    IncompleteLedger,
    InvalidInput,
    LedgerEntry,
    UnknownName,
    ZeroOrManyUnknowns,
    check_fibration,
    ci_surface_invariants,
    fiber_count,
    germ,
    germ_sigma,
    lasso_power,
    ledger,
    ledger_from_json,
    resolve_preset,
    solve_unknown_germ,
    surface_topology,
    tau,
)
from meyersig import CISpec, SymplecticElement, veronese_ci_lasso


@dataclass(frozen=True)
class DegeneratingFamily:
    """Invariants of a genus-4 family over P1 with one special germ plus
    one-node germs, all linear in the perturbation exponent a."""

    special: str
    chi_O: Callable[[int], int]
    K2: Callable[[int], int]
    chi_top: Callable[[int], int]
    sign: Callable[[int], int]
    singular_count: Callable[[int], int]
    special_is_topologically_singular: bool


FAMILIES = (
    # central fiber = one-point union of genus 3 and genus 1 pieces
    DegeneratingFamily(
        "R4/F_31",
        lambda a: 4 * a - 10,
        lambda a: 14 * a - 46,
        lambda a: 34 * a - 74,
        lambda a: -18 * a + 34,
        lambda a: 34 * a - 62,
        True,
    ),
    # central fiber = one-point union of two genus 2 pieces
    DegeneratingFamily(
        "R4/F_22",
        lambda a: 4 * a - 6,
        lambda a: 14 * a - 31,
        lambda a: 34 * a - 41,
        lambda a: -18 * a + 17,
        lambda a: 34 * a - 29,
        True,
    ),
    # central fiber smooth of rank 3, topologically a trivial bundle
    DegeneratingFamily(
        "R4/F_Rprime",
        lambda a: 4 * a - 10,
        lambda a: 14 * a - 48,
        lambda a: 34 * a - 72,
        lambda a: -18 * a + 32,
        lambda a: 34 * a - 60,
        False,
    ),
)


def type_i_count(family: DegeneratingFamily, a: int) -> int:
    n = family.singular_count(a)
    return n - 1 if family.special_is_topologically_singular else n


def family_ledger(family: DegeneratingFamily, a: int) -> FibrationLedger:
    f_i = germ("R4/F_I")
    chi_top, sign = surface_topology(
        ComplexSurfaceData(family.chi_O(a), family.K2(a), fiber_genus=4)
    )
    special = germ(family.special)
    return FibrationLedger(
        sign,
        (
            LedgerEntry("R4/F_I", f_i.phi_value, f_i.nbhd_sign, type_i_count(family, a)),
            LedgerEntry(family.special, special.phi_value, special.nbhd_sign, 1),
        ),
    )


# --- Noether / Hirzebruch bookkeeping ---------------------------------------


def test_surface_topology_examples():
    assert surface_topology(ComplexSurfaceData(30, 94, 4)) == (266, -146)
    assert surface_topology(ComplexSurfaceData(14, 39, 4)) == (129, -73)
    assert surface_topology(ComplexSurfaceData(0, 0, 2)) == (0, 0)


def test_alpha_linear_forms_certified_on_a_range():
    for family in FAMILIES:
        for a in range(3, 13):
            data = ComplexSurfaceData(family.chi_O(a), family.K2(a), fiber_genus=4)
            chi_top, sign = surface_topology(data)
            assert chi_top == family.chi_top(a)
            assert sign == family.sign(a)
            assert fiber_count(chi_top, 4) == family.singular_count(a)


def test_fiber_count_examples():
    assert fiber_count(266, 4) == 278
    assert fiber_count(129, 4) == 141
    assert fiber_count(2 * (2 - 2 * 4), 4) == 0


def test_fiber_count_rejects_low_genus():
    with pytest.raises(InvalidInput):
        fiber_count(10, 1)


def test_data_validation():
    with pytest.raises(InvalidInput):
        ComplexSurfaceData(1, 1, 1)


# --- germ table --------------------------------------------------------------


def test_ledger_contents():
    table = {g.name: g for g in ledger()}
    assert table["R4/F_I"].sigma == Fr(-9, 17)
    assert table["R4/F_31"].phi_value == Fr(28, 17)
    assert table["R4/F_31"].nbhd_sign == -1
    assert table["R4/F_31"].sigma == Fr(11, 17)
    assert table["R4/F_22"].sigma == Fr(19, 17)
    assert table["R4/F_Rprime"].sigma == Fr(4, 17)
    assert table["R4/F_R"].sigma == Fr(2, 17)
    assert table["NT5/F_I"].sigma == Fr(-1, 2)


def test_every_ledger_germ_has_consistent_sigma():
    for entry in ledger():
        assert entry.sigma == entry.phi_value + entry.nbhd_sign


def test_rank3_doubling_relation():
    assert 2 * germ("R4/F_R").sigma == germ("R4/F_Rprime").sigma
    assert germ("R4/F_R").nbhd_sign == 0
    assert germ("R4/F_Rprime").nbhd_sign == 0


def test_one_node_germ_matches_the_variety_lassos():
    assert germ("R4/F_I").phi_value == resolve_preset("segre33").report.phi
    assert germ("NT5/F_I").phi_value == veronese_ci_lasso(CISpec(0, (), 4, 2)).phi


def test_unknown_germ_name():
    with pytest.raises(UnknownName):
        germ("R4/F_missing")


def test_germ_sigma_examples():
    assert germ_sigma(Fr(28, 17), -1) == Fr(11, 17)
    assert germ_sigma(Fr(36, 17), -1) == Fr(19, 17)
    assert germ_sigma(Fr(5, 9), 0) == Fr(5, 9)


@pytest.mark.parametrize("text", ["1.5", "1e0", "x", "1_0"])
def test_germ_sigma_reads_strings_through_the_numeral_grammar(text):
    with pytest.raises(InvalidInput):
        germ_sigma(text, 0)
    assert germ_sigma("28/17", -1) == Fr(11, 17)


# --- solving and checking fibrations ----------------------------------------


@pytest.mark.parametrize(
    "family_index,a,expected",
    [(0, 10, Fr(11, 17)), (1, 5, Fr(19, 17)), (2, 7, Fr(4, 17))],
)
def test_solver_recovers_the_special_germ(family_index, a, expected):
    family = FAMILIES[family_index]
    f_i = germ("R4/F_I")
    chi_top, sign = surface_topology(
        ComplexSurfaceData(family.chi_O(a), family.K2(a), fiber_genus=4)
    )
    count = type_i_count(family, a)
    led = FibrationLedger(
        sign,
        (
            LedgerEntry("R4/F_I", f_i.phi_value, f_i.nbhd_sign, count),
            LedgerEntry(family.special, None, germ(family.special).nbhd_sign, 1),
        ),
    )
    solved = solve_unknown_germ(led)
    assert solved.sigma == expected
    assert solved.phi == germ(family.special).phi_value


def test_solver_is_stable_across_the_parameter():
    for family in FAMILIES:
        expected = germ(family.special).sigma
        for a in (4, 9, 12):
            led = family_ledger(family, a)
            unknown = FibrationLedger(
                led.total_sign,
                (led.germs[0], LedgerEntry(family.special, None, germ(family.special).nbhd_sign, 1)),
            )
            assert solve_unknown_germ(unknown).sigma == expected


def test_solver_trivial_case():
    led = FibrationLedger(0, (LedgerEntry("X", None, 0, 1),))
    assert solve_unknown_germ(led).sigma == 0


def test_solver_rejects_wrong_number_of_unknowns():
    with pytest.raises(ZeroOrManyUnknowns):
        solve_unknown_germ(FibrationLedger(0, (LedgerEntry("X", Fr(1), 0, 1),)))
    with pytest.raises(ZeroOrManyUnknowns):
        solve_unknown_germ(
            FibrationLedger(
                0, (LedgerEntry("X", None, 0, 1), LedgerEntry("Y", None, 0, 1))
            )
        )


@pytest.mark.parametrize("family_index,a", [(0, 10), (1, 5), (2, 7)])
def test_reference_fibrations_balance(family_index, a):
    report = check_fibration(family_ledger(FAMILIES[family_index], a))
    assert report.residual == 0
    assert report.ok


def test_check_reports_mismatch_without_raising():
    led = FibrationLedger(1, (LedgerEntry("R4/F_I", Fr(-9, 17), 0, 17),))
    report = check_fibration(led)
    assert report.residual == 1 - (-9)
    assert not report.ok


def test_check_rejects_unknown_sigma():
    led = FibrationLedger(0, (LedgerEntry("X", None, 0, 1),))
    with pytest.raises(IncompleteLedger):
        check_fibration(led)


def test_lasso_power_matches_cocycle_accumulation():
    sigma = germ("R4/F_I").sigma
    twist = SymplecticElement([[1, -1], [0, 1]])
    acc = sigma
    for n in range(2, 10):
        acc = sigma + acc - tau(twist, twist ** (n - 1))
        assert lasso_power(sigma, n) == acc


# --- Lefschetz pencils --------------------------------------------------------
# A pencil of hyperplane sections on a surface X has X blown up at its deg(X)
# base points as total space and deg D_X one-node fibers, each carrying the
# lasso value phi of the variety: Euler count, lasso value and ledger agree.


def pencil_ledger(sign: int, deg: int, phi: Fr, nodes: int) -> FibrationLedger:
    return FibrationLedger(sign - deg, (LedgerEntry("node", phi, 0, nodes),))


def test_complete_intersection_pencils_balance():
    families = [
        (inv, rep)
        for m in (1, 2, 3)
        for degrees in itertools.combinations_with_replacement(range(2, 7), m)
        if degrees != (2,)  # the excluded quadric
        for inv, rep in [ci_surface_invariants(m, degrees)]
        if inv.genus >= 2
    ]
    assert len(families) == 52
    for inv, rep in families:
        assert fiber_count(inv.chi + inv.deg, inv.genus) == rep.deg_DX
        assert rep.deg_DX * rep.phi == inv.sign - inv.deg
        assert check_fibration(pencil_ledger(inv.sign, inv.deg, rep.phi, rep.deg_DX)).ok


def test_genus_five_pencil_on_the_quartic_del_pezzo_balances():
    # quadric sections of the degree-4 del Pezzo surface: sign -4, chi 8,
    # 16 base points, genus 5
    rep = resolve_preset("veronese-p4-d2").report
    assert fiber_count(8 + 16, 5) == rep.deg_DX == 40
    assert rep.phi == germ("NT5/F_I").phi_value == Fr(-1, 2)
    assert rep.deg_DX * rep.phi == -4 - 16
    assert check_fibration(pencil_ledger(-4, 16, rep.phi, rep.deg_DX)).ok


# --- JSON ledger format ------------------------------------------------------


def _ledger_json(led: FibrationLedger) -> str:
    """The ledger format, written out field by field."""
    germs = [
        {
            "name": e.name,
            "phi": None if e.phi is None else str(e.phi),
            "nbhd_sign": e.nbhd_sign,
            "count": e.count,
        }
        for e in led.germs
    ]
    return json.dumps({"total_sign": led.total_sign, "germs": germs}, indent=2)


def test_ledger_json_round_trip():
    led = family_ledger(FAMILIES[0], 10)
    assert ledger_from_json(_ledger_json(led)) == led


def test_ledger_json_parsing_defaults_and_unknowns():
    led = ledger_from_json(
        '{"total_sign": -3, "germs": [{"name": "a", "phi": "1/2"},'
        ' {"name": "b", "phi": null, "nbhd_sign": -1, "count": 2}]}'
    )
    assert led.germs[0].count == 1
    assert led.germs[0].nbhd_sign == 0
    assert led.germs[0].sigma == Fr(1, 2)
    assert led.germs[1].sigma is None
    solved = solve_unknown_germ(led)
    assert solved.sigma == Fr(-3 - Fr(1, 2), 2)
    assert solved.phi == solved.sigma + 1


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"total_sign": 0}',
        '{"total_sign": "x", "germs": []}',
        '{"total_sign": 0, "germs": [{"phi": "1/2"}]}',
        '{"total_sign": 0, "germs": [{"name": "a", "phi": "x"}]}',
        '{"total_sign": 0, "germs": [{"name": "a", "phi": "1/2", "count": 0}]}',
        # json raises ValueError and RecursionError here, not JSONDecodeError
        pytest.param('{"total_sign": ' + "1" * 5000 + ', "germs": []}', id="5000-digit int"),
        pytest.param("[" * 100_000, id="deep nesting"),
        pytest.param('{"total_sign": 0, "germs": [{"name": "\\ud800"}]}', id="lone surrogate"),
    ],
)
def test_ledger_json_rejects_malformed(text):
    with pytest.raises(InvalidInput):
        ledger_from_json(text)
