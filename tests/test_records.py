"""Behaviour of the library's immutable value types.

Every record type is pinned here: its exact ``repr``, construction from
positional, keyword and default arguments, equality and hashing,
immutability, the errors its validation raises, and copy and pickle round
trips, which must rebuild each value through its validating constructor,
and a ``repr`` that rebuilds it when evaluated. ``SymplecticElement`` shares
that base and is held to the same protocol.
"""

import ast
import copy
import pickle
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from meyersig import (
    CISpec,
    ComplexSurfaceData,
    ContractViolation,
    ExcludedCase,
    FiberGerm,
    FibrationLedger,
    FibrationReport,
    InvalidInput,
    LassoReport,
    LedgerEntry,
    MatrixFormatError,
    NonPositiveDegDX,
    NotSymplectic,
    PhiBase,
    PresetReport,
    SL2Word,
    SurfaceInvariants,
    SymplecticElement,
    UnknownName,
    check_fibration,
    ci_surface_invariants,
    direct_sum,
    fiber_count,
    generic_surface_lasso,
    germ,
    germ_sigma,
    lasso_power,
    ledger_from_json,
    ledger_from_obj,
    parse_matrix,
    phi1_word,
    random_transvection_product,
    resolve_preset,
    solve_unknown_germ,
    surface_topology,
    veronese_ci_lasso,
)
from meyersig._record import Record

ENTRY = LedgerEntry("x", Fr(1, 2), -1, 2)
SEGRE = SurfaceInvariants(0, 4, 18, 4)
SEGRE_REPORT = LassoReport(34, Fr(-9, 17))
BIG = 10**5000  # more digits than the interpreter converts to a string by default

# (class, positional arguments, the same arguments by keyword, a value that
# differs in one field, repr). Positional arguments leave defaulted fields out.
RECORDS = [
    (
        ComplexSurfaceData,
        (1, 2, 4),
        {"chi_O": 1, "K2": 2, "fiber_genus": 4},
        ComplexSurfaceData(1, 2, 5),
        "ComplexSurfaceData(chi_O=1, K2=2, fiber_genus=4)",
    ),
    (
        FiberGerm,
        ("R4/F_I", Fr(-9, 17), 0),
        {"name": "R4/F_I", "phi_value": Fr(-9, 17), "nbhd_sign": 0},
        FiberGerm("R4/F_I", Fr(-9, 17), -1),
        "FiberGerm(name='R4/F_I', phi_value=Fraction(-9, 17), nbhd_sign=0)",
    ),
    (
        LedgerEntry,
        ("R4/F_I", None, 0, 3),
        {"name": "R4/F_I", "phi": None, "nbhd_sign": 0, "count": 3},
        LedgerEntry("R4/F_I", None, 0, 4),
        "LedgerEntry(name='R4/F_I', phi=None, nbhd_sign=0, count=3)",
    ),
    (
        FibrationLedger,
        (-4, (ENTRY,)),
        {"total_sign": -4, "germs": (ENTRY,)},
        FibrationLedger(-3, (ENTRY,)),
        "FibrationLedger(total_sign=-4, germs=(LedgerEntry(name='x', phi=Fraction(1, 2), "
        "nbhd_sign=-1, count=2),))",
    ),
    (
        FibrationReport,
        (-4, Fr(-4), Fr(0)),
        {"total_sign": -4, "germ_sum": Fr(-4), "residual": Fr(0)},
        FibrationReport(-4, Fr(-3), Fr(-1)),
        "FibrationReport(total_sign=-4, germ_sum=Fraction(-4, 1), residual=Fraction(0, 1))",
    ),
    (
        SurfaceInvariants,
        (0, 4, 18, 4),
        {"sign": 0, "chi": 4, "deg": 18, "genus": 4},
        SurfaceInvariants(0, 4, 18, 5),
        "SurfaceInvariants(sign=0, chi=4, deg=18, genus=4)",
    ),
    (
        LassoReport,
        (12, Fr(-2, 3)),
        {"deg_DX": 12, "phi": Fr(-2, 3), "alpha": None, "beta": None},
        LassoReport(12, Fr(-2, 3), Fr(-8, 3), 4),
        "LassoReport(deg_DX=12, phi=Fraction(-2, 3), alpha=None, beta=None)",
    ),
    (
        CISpec,
        (1, [3]),
        {"m": 1, "degrees": (3,), "n": 2, "d": 1},
        CISpec(1, (3,), 2, 2),
        "CISpec(m=1, degrees=(3,), n=2, d=1)",
    ),
    (
        PresetReport,
        ("segre33", SEGRE, SEGRE_REPORT),
        {"name": "segre33", "invariants": SEGRE, "report": SEGRE_REPORT},
        PresetReport("segre33", None, SEGRE_REPORT),
        "PresetReport(name='segre33', invariants=SurfaceInvariants(sign=0, chi=4, deg=18, "
        "genus=4), report=LassoReport(deg_DX=34, phi=Fraction(-9, 17), alpha=None, beta=None))",
    ),
    (
        PhiBase,
        (Fr(-1), Fr(2, 3)),
        {"phi_S": Fr(-1), "phi_T": Fr(2, 3)},
        PhiBase(Fr(-1), Fr(1, 3)),
        "PhiBase(phi_S=Fraction(-1, 1), phi_T=Fraction(2, 3))",
    ),
    (
        SL2Word,
        ((("T", -1), ("S", 1)),),
        {"syllables": (("T", -1), ("S", 1))},
        SL2Word((("T", -1), ("S", 3))),
        "SL2Word(syllables=(('T', -1), ('S', 1)))",
    ),
    (
        SymplecticElement,
        (((1, -1), (0, 1)),),
        {"mat": ((1, -1), (0, 1))},
        SymplecticElement(((1, 1), (0, 1))),
        "SymplecticElement(mat=((1, -1), (0, 1)))",
    ),
]
RECORD_IDS = [case[0].__name__ for case in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=RECORD_IDS)
def test_repr(cls, args, kwargs, other, text):
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text


NAMESPACE = {"Fraction": Fr, **{case[0].__name__: case[0] for case in RECORDS}}


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=RECORD_IDS)
def test_repr_rebuilds_the_value(cls, args, kwargs, other, text):
    value = cls(*args)
    assert eval(repr(value), NAMESPACE) == value


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=RECORD_IDS)
def test_positional_keyword_and_default_arguments_agree(cls, args, kwargs, other, text):
    value = cls(*args)
    assert cls(**kwargs) == value
    assert cls(*kwargs.values()) == value
    fields = list(kwargs)
    # the leading fields by position, the rest by keyword
    split = len(args) // 2
    assert cls(*args[:split], **{k: kwargs[k] for k in fields[split:]}) == value
    assert [getattr(value, k) for k in fields] == list(kwargs.values())


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=RECORD_IDS)
def test_equality_and_hash(cls, args, kwargs, other, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert a != other and not (a == other)
    assert a != tuple(kwargs.values())
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=RECORD_IDS)
def test_records_are_immutable(cls, args, kwargs, other, text):
    value = cls(*args)
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**kwargs)


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=RECORD_IDS)
def test_missing_unknown_or_repeated_arguments_are_type_errors(cls, args, kwargs, other, text):
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 0)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=0)
    with pytest.raises(TypeError):
        cls(*args, **{first: kwargs[first]})


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ComplexSurfaceData(1, 2, 1), InvalidInput),
        (lambda: ComplexSurfaceData(1, 2, 2), None),
        (lambda: LedgerEntry("x", None, 0, 0), InvalidInput),
        (lambda: LedgerEntry("x", None, 0, 1), None),
        (lambda: SurfaceInvariants(0, 4, 0, 4), InvalidInput),
        (lambda: SurfaceInvariants(0, 4, 1, 4), None),
        (lambda: SurfaceInvariants(0, 4, 18, -1), InvalidInput),
        (lambda: SurfaceInvariants(0, 4, 18, 0), None),
        (lambda: LassoReport(0, Fr(1)), NonPositiveDegDX),
        (lambda: LassoReport(12, Fr(-2, 3), Fr(1), 4), ContractViolation),
        (lambda: CISpec(2, (3,)), InvalidInput),
        (lambda: CISpec(-1, ()), InvalidInput),
        (lambda: CISpec(0, (), 3, 2), None),
        (lambda: CISpec(1, (1,)), InvalidInput),
        (lambda: CISpec(1, (2,), d=2), None),
        (lambda: CISpec(1, (3,), n=1), InvalidInput),
        (lambda: CISpec(1, (3,), n=2), None),
        (lambda: CISpec(1, (3,), d=0), InvalidInput),
        (lambda: CISpec(1, (3,), d=1), None),
        (lambda: CISpec(0, ()), ExcludedCase),
        (lambda: ci_surface_invariants(0, ()), ExcludedCase),
        (lambda: ci_surface_invariants(1, (3,)), None),
        (lambda: lasso_power(1, 0), InvalidInput),
        (lambda: lasso_power(1, 1), None),
        (lambda: fiber_count(0, 1), InvalidInput),
        (lambda: fiber_count(0, 2), None),
        (lambda: CISpec(1, (2,)), ExcludedCase),
        (lambda: CISpec(0, (), 2, 2), ExcludedCase),
        (lambda: SL2Word((("U", 1),)), MatrixFormatError),
        (lambda: SL2Word((("S", 0),)), MatrixFormatError),
        (lambda: SL2Word((("T", 1.5),)), MatrixFormatError),
        (lambda: SL2Word([("S", 1)]), MatrixFormatError),
        (lambda: SL2Word((["S", 1],)), MatrixFormatError),
        (lambda: SL2Word("ST"), MatrixFormatError),
        (lambda: SL2Word((("T", True),)), MatrixFormatError),
        (lambda: PhiBase(0.5, 1), InvalidInput),
        (lambda: PhiBase(Fr(-1), "2/3"), InvalidInput),
        (lambda: CISpec(1, 3), InvalidInput),
        (lambda: ci_surface_invariants(1, 3), InvalidInput),
        # a message that printed these ints would raise ValueError instead
        (lambda: germ_sigma([BIG], 0), InvalidInput),
        (lambda: lasso_power([BIG], 2), InvalidInput),
        (lambda: lasso_power(1, -BIG), InvalidInput),
        (lambda: CISpec(2, (1, BIG)), InvalidInput),
        (lambda: CISpec(BIG, ()), InvalidInput),
        (lambda: CISpec(1, (3,), n=-BIG), InvalidInput),
        (lambda: CISpec(1, (3,), d=-BIG), InvalidInput),
        (lambda: SurfaceInvariants(0, 0, -BIG, 1), InvalidInput),
        (lambda: SurfaceInvariants(0, 0, 1, -BIG), InvalidInput),
        (lambda: LedgerEntry("a", 0, 0, -BIG), InvalidInput),
        (lambda: fiber_count(0, -BIG), InvalidInput),
        (lambda: ComplexSurfaceData(0, 0, -BIG), InvalidInput),
        (lambda: ledger_from_obj({"total_sign": 0, "germs": [BIG]}), InvalidInput),
        (lambda: ledger_from_obj({"total_sign": 0, "germs": [{"name": BIG}]}), InvalidInput),
        (lambda: SymplecticElement.identity(-BIG), NotSymplectic),
        (lambda: generic_surface_lasso(SurfaceInvariants(0, -BIG, 1, 1)), NonPositiveDegDX),
        (lambda: LassoReport(-BIG, Fr(1)), NonPositiveDegDX),
        (lambda: SymplecticElement.identity(True), InvalidInput),
        (lambda: SymplecticElement.identity(1.5), InvalidInput),
        (lambda: germ([]), UnknownName),
        (lambda: germ([BIG]), UnknownName),
        # an argument of the wrong type is named, not met with AttributeError
        (lambda: phi1_word([("S", 1)], base=(1, 2)), InvalidInput),
        (lambda: phi1_word([("S", 1)], base=5), InvalidInput),
        (lambda: direct_sum(SymplecticElement.identity(1), 3), InvalidInput),
        (lambda: direct_sum(None, SymplecticElement.identity(1)), InvalidInput),
        # unchecked, 2.5 made 3 factors, True 1, -3 the identity, and "2" a bare TypeError
        (lambda: random_transvection_product(random.Random(0), 1, 2.5), InvalidInput),
        (lambda: random_transvection_product(random.Random(0), 1, True), InvalidInput),
        (lambda: random_transvection_product(random.Random(0), 1, -3), InvalidInput),
        (lambda: random_transvection_product(random.Random(0), 1, "2"), InvalidInput),
        (lambda: random_transvection_product(random.Random(0), 1, 0), None),
        # unchecked, a TypeError, a ZeroDivisionError, or accepted as given
        (lambda: LassoReport("x", 1), InvalidInput),
        (lambda: LassoReport(1, 1, 1, 0), InvalidInput),
        (lambda: LassoReport(1, 1, 1, 1), None),
        (lambda: FiberGerm(None, 1, 0), InvalidInput),
        (lambda: LedgerEntry(None, None, 0, 1), InvalidInput),
        (lambda: PresetReport(1, 2, 3), InvalidInput),
        (lambda: PresetReport("x", SEGRE_REPORT, SEGRE_REPORT), InvalidInput),
        (lambda: FibrationReport("a", "b", "c"), InvalidInput),
        # each ended in a bare AttributeError, TypeError or ValueError
        (lambda: parse_matrix(5), InvalidInput),
        (lambda: ledger_from_json(5), InvalidInput),
        (lambda: resolve_preset(BIG), UnknownName),
        (lambda: check_fibration(5), InvalidInput),
        (lambda: solve_unknown_germ(5), InvalidInput),
        (lambda: surface_topology(5), InvalidInput),
        (lambda: generic_surface_lasso(5), InvalidInput),
        (lambda: veronese_ci_lasso(SEGRE), InvalidInput),
    ],
    ids=[
        "surface-genus",
        "surface-genus-at-2",
        "entry-count",
        "entry-count-at-1",
        "invariants-degree",
        "invariants-degree-at-1",
        "invariants-genus",
        "invariants-genus-at-0",
        "lasso-degree",
        "lasso-ratio",
        "ci-m",
        "ci-m-below-0",
        "ci-m-at-0",
        "ci-degree",
        "ci-degree-at-2",
        "ci-n",
        "ci-n-at-2",
        "ci-d",
        "ci-d-at-1",
        "ci-m0-d1",
        "ci-surface-m0",
        "ci-surface-m-at-1",
        "power-0",
        "power-at-1",
        "fiber-count-genus-1",
        "fiber-count-genus-at-2",
        "ci-quadric",
        "ci-n2-d2-m0",
        "word-generator",
        "word-exponent",
        "word-float-exponent",
        "word-list-syllables",
        "word-list-syllable",
        "word-string",
        "word-bool-exponent",
        "phi-base-float",
        "phi-base-string",
        "ci-int-degrees",
        "ci-surface-int-degrees",
        "huge-germ-phi",
        "huge-power-phi",
        "huge-power",
        "huge-ci-degree",
        "huge-ci-m",
        "huge-ci-n",
        "huge-ci-d",
        "huge-invariants-degree",
        "huge-invariants-genus",
        "huge-entry-count",
        "huge-fiber-count-genus",
        "huge-surface-genus",
        "huge-ledger-germ",
        "huge-ledger-germ-name",
        "huge-identity-genus",
        "huge-generic-discriminant",
        "huge-lasso-degree",
        "identity-bool-genus",
        "identity-float-genus",
        "germ-list-name",
        "germ-huge-list-name",
        "word-tuple-base",
        "word-int-base",
        "direct-sum-int",
        "direct-sum-none",
        "transvections-float-length",
        "transvections-bool-length",
        "transvections-negative-length",
        "transvections-string-length",
        "transvections-length-at-0",
        "lasso-string-degree",
        "lasso-zero-beta",
        "lasso-beta-at-1",
        "fiber-germ-none-name",
        "entry-none-name",
        "preset-ints",
        "preset-report-as-invariants",
        "fibration-report-strings",
        "parse-matrix-int",
        "ledger-json-int",
        "preset-huge-name",
        "check-fibration-int",
        "solve-int",
        "surface-topology-int",
        "generic-lasso-int",
        "veronese-invariants",
    ],
)
def test_validation_raises_the_documented_error(build, error):
    if error is None:  # a value at its lower bound is accepted
        build()
        return
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


@pytest.mark.parametrize(
    "call",
    [
        lambda: ci_surface_invariants(1, (3.9,)),
        lambda: ci_surface_invariants(1, ("1_0",)),
        lambda: ci_surface_invariants(1, ("3",)),
        lambda: CISpec(True, (3,)),
        lambda: CISpec(1.0, (3,)),
        lambda: CISpec(1, (3,), d=True),
        lambda: CISpec(1, (3,), n=2.0),
        lambda: veronese_ci_lasso(CISpec(0, (), 4, 2.0)),
        lambda: lasso_power(Fr(-9, 17), 2.5),
        lambda: lasso_power(Fr(-9, 17), True),
        lambda: lasso_power(Fr(-9, 17), "2"),
        lambda: lasso_power(0.5, 2),
        lambda: lasso_power(True, 2),
        lambda: lasso_power(None, 2),
        lambda: germ_sigma(Fr(1, 2), 0.5),
        lambda: germ_sigma(Fr(1, 2), True),
        lambda: germ_sigma(Fr(1, 2), "1"),
        lambda: germ_sigma(0.1, 0),
        lambda: germ_sigma(True, 0),
        lambda: FiberGerm("x", 0.5, 0),
        lambda: FiberGerm("x", True, 0),
        lambda: FiberGerm("x", Fr(1, 2), 0.5),
        lambda: LedgerEntry("x", Fr(1), 0, 2.5),
        lambda: LedgerEntry("x", Fr(1), 0, True),
        lambda: LedgerEntry("x", Fr(1), 0.5, 1),
        lambda: LedgerEntry("x", 0.5, 0, 1),
        lambda: LedgerEntry("x", True, 0, 1),
        lambda: LedgerEntry("x", "1/2", 0, 1),
        lambda: FibrationLedger(0.5, (ENTRY,)),
        lambda: FibrationLedger(False, ()),
        lambda: FibrationLedger(0, []),
        lambda: FibrationLedger(0, ("x",)),
        lambda: ComplexSurfaceData(1.5, 2, 4),
        lambda: ComplexSurfaceData(1, "2", 4),
        lambda: ComplexSurfaceData(1, 2, 4.0),
        lambda: SurfaceInvariants(0.5, 4, 18, 4),
        lambda: SurfaceInvariants(0, True, 18, 4),
        lambda: SurfaceInvariants(0, 4, 18.0, 4),
        lambda: SurfaceInvariants(0, 4, 18, Fr(4)),
        lambda: fiber_count(10.5, 4),
        lambda: fiber_count(10, 4.0),
    ],
    ids=[
        "ci-float-degree",
        "ci-underscore-degree",
        "ci-digit-string-degree",
        "ci-bool-m",
        "ci-float-m",
        "ci-bool-d",
        "ci-float-n",
        "veronese-float-d",
        "power-float",
        "power-bool",
        "power-string",
        "power-float-phi",
        "power-bool-phi",
        "power-none-phi",
        "germ-float-sign",
        "germ-bool-sign",
        "germ-string-sign",
        "germ-float-phi",
        "germ-bool-phi",
        "fiber-germ-float-phi",
        "fiber-germ-bool-phi",
        "fiber-germ-float-sign",
        "entry-float-count",
        "entry-bool-count",
        "entry-float-sign",
        "entry-float-phi",
        "entry-bool-phi",
        "entry-string-phi",
        "ledger-float-total",
        "ledger-bool-total",
        "ledger-list-germs",
        "ledger-string-germ",
        "surface-float-chi",
        "surface-string-k2",
        "surface-float-genus",
        "invariants-float-sign",
        "invariants-bool-chi",
        "invariants-float-degree",
        "invariants-fraction-genus",
        "fiber-count-float-chi",
        "fiber-count-float-genus",
    ],
)
def test_integer_arguments_must_be_ints(call):
    # an int that is not a bool, never truncated, parsed or passed on as a float
    with pytest.raises(InvalidInput) as info:
        call()
    assert type(info.value) is InvalidInput


IMMUTABLES = [case[0](*case[1]) for case in RECORDS] + [SymplecticElement.identity(2)]
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
@pytest.mark.parametrize("value", IMMUTABLES, ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trip(value, trip):
    twin = trip(value)
    assert type(twin) is type(value)
    assert twin == value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    with pytest.raises(AttributeError):
        twin.extra = 0


@pytest.mark.parametrize("value", IMMUTABLES, ids=lambda v: type(v).__name__)
def test_values_refuse_setting_and_deleting(value):
    assert isinstance(value, Record)
    before, twin = repr(value), copy.copy(value)
    for name in [*type(value).__slots__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before
    assert value == twin


PROTOCOL = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__", "__reduce__"}


def test_only_the_record_base_defines_the_value_protocol():
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "meyersig").glob("*.py"))
    assert sources
    defined = set()
    for path in sources:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                else:
                    targets = node.targets if isinstance(node, ast.Assign) else []
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined |= {f"{path.stem}.{cls.name}.{n}" for n in names if n in PROTOCOL}
    assert defined == {f"_record.Record.{name}" for name in PROTOCOL}


def test_copies_rebuild_through_the_validating_constructor():
    # an element that skipped validation does not survive a copy or a pickle
    bad = SymplecticElement._derived(((2, 0), (0, 1)))
    for trip in ROUND_TRIPS.values():
        with pytest.raises(NotSymplectic):
            trip(bad)
