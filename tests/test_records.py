"""Behaviour of the library's immutable value types.

Every record type is pinned here: its exact ``repr``, construction from
positional, keyword and default arguments, equality and hashing,
immutability, the errors its validation raises, and copy and pickle round
trips, which must rebuild each value through its validating constructor.
``SymplecticElement`` shares that base and is held to the same protocol.
"""

import ast
import copy
import pickle
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
    ci_surface_invariants,
    fiber_count,
    germ_sigma,
    lasso_power,
    veronese_ci_lasso,
)
from meyersig._record import Record

ENTRY = LedgerEntry("x", Fr(1, 2), -1, 2)
SEGRE = SurfaceInvariants(0, 4, 18, 4)
SEGRE_REPORT = LassoReport(34, Fr(-9, 17))

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
]
RECORD_IDS = [case[0].__name__ for case in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=RECORD_IDS)
def test_repr(cls, args, kwargs, other, text):
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text


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
        (lambda: LedgerEntry("x", None, 0, 0), InvalidInput),
        (lambda: SurfaceInvariants(0, 4, 0, 4), InvalidInput),
        (lambda: SurfaceInvariants(0, 4, 18, -1), InvalidInput),
        (lambda: LassoReport(0, Fr(1)), NonPositiveDegDX),
        (lambda: LassoReport(12, Fr(-2, 3), Fr(1), 4), ContractViolation),
        (lambda: CISpec(2, (3,)), InvalidInput),
        (lambda: CISpec(1, (1,)), InvalidInput),
        (lambda: CISpec(1, (3,), n=1), InvalidInput),
        (lambda: CISpec(1, (3,), d=0), InvalidInput),
        (lambda: CISpec(0, ()), ExcludedCase),
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
    ],
    ids=[
        "surface-genus",
        "entry-count",
        "invariants-degree",
        "invariants-genus",
        "lasso-degree",
        "lasso-ratio",
        "ci-m",
        "ci-degree",
        "ci-n",
        "ci-d",
        "ci-m0-d1",
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
    ],
)
def test_validation_raises_the_documented_error(build, error):
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


IMMUTABLES = [case[0](*case[1]) for case in RECORDS] + [
    SymplecticElement([[1, -1], [0, 1]]),
    SymplecticElement.identity(2),
]
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


PROTOCOL = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"}


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
