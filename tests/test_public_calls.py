"""Every public call ends in a value or a ``MeyerSigError``.

One property calls each name of ``meyersig.__all__`` but the exception
classes with junk positional arguments, as many as ``ARITY`` gives it: None,
bools, floats, strings, bytes, Fractions, ints (10**5000 among them), nested
lists of small ints and records of every kind. Each example calls every name
once. A bare ``TypeError``, ``AttributeError`` or ``ValueError`` fails it.
"""

import random
from fractions import Fraction as Fr

from hypothesis import given, settings, strategies as st

import meyersig
from meyersig import (
    CISpec,
    ComplexSurfaceData,
    FiberGerm,
    FibrationLedger,
    FibrationReport,
    LassoReport,
    LedgerEntry,
    MeyerSigError,
    PhiBase,
    PresetReport,
    SL2Word,
    SurfaceInvariants,
    SymplecticElement,
)

BIG = 10**5000

# name -> the number of positional arguments drawn for it
ARITY = {
    "SL2Word": 1, "SymplecticElement": 1, "direct_sum": 2, "gen_S": 0, "gen_T": 0,
    "random_transvection_product": 3, "sl2_word": 1, "transvection": 1,
    "gram_restrict": 2, "kernel_basis": 1, "parse_matrix": 1, "signature_symmetric": 1,
    "PhiBase": 2, "phi1": 1, "phi1_base": 0, "phi1_word": 2, "tau": 2,
    "tau_cocycle_defect": 3, "tau_form": 2,
    "CISpec": 4, "LassoReport": 4, "PresetReport": 3, "SurfaceInvariants": 4,
    "ci_surface_invariants": 2, "generic_surface_lasso": 1, "lasso_power": 2,
    "named_presets": 0, "resolve_preset": 1, "veronese_ci_lasso": 1,
    "ComplexSurfaceData": 3, "FiberGerm": 3, "FibrationLedger": 2, "FibrationReport": 3,
    "LedgerEntry": 4, "check_fibration": 1, "fiber_count": 2, "germ": 1, "germ_sigma": 2,
    "ledger": 0, "ledger_from_json": 1, "ledger_from_obj": 1, "solve_unknown_germ": 1,
    "surface_topology": 1,
}
# name -> {position: the argument given there instead of junk}. The rng of
# random_transvection_product is exempt: it is a test helper documented to
# take a random.Random, which symplectic does not import.
FIXED = {"random_transvection_product": {0: random.Random(0)}}
# name -> positions read as sizes: random_transvection_product(r, 10**5000, 0)
# would build a 2*10**5000 identity, so these never draw a huge positive int
SIZES = {"random_transvection_product": (1, 2)}

EXCEPTIONS = {
    name
    for name in meyersig.__all__
    if isinstance(getattr(meyersig, name), type)
    and issubclass(getattr(meyersig, name), BaseException)
}

SEGRE = SurfaceInvariants(0, 4, 18, 4)
SEGRE_REPORT = LassoReport(34, Fr(-9, 17))
ENTRY = LedgerEntry("x", None, 0, 1)
RECORDS = (
    SymplecticElement.identity(1),
    SymplecticElement([[1, -1], [0, 1]]),
    SL2Word((("T", 1), ("S", 1))),
    PhiBase(Fr(-1), Fr(2, 3)),
    SEGRE,
    CISpec(1, (3,)),
    SEGRE_REPORT,
    PresetReport("segre33", SEGRE, SEGRE_REPORT),
    ComplexSurfaceData(1, 2, 4),
    FiberGerm("x", Fr(1, 2), 0),
    ENTRY,
    FibrationLedger(0, (ENTRY,)),
    FibrationReport(0, Fr(0), Fr(0)),
)

# scalars of every kind, strings and bytes a parser reads, and records of every kind
SCALARS = (
    None, True, False, 0.5, -0.0, float("nan"), Fr(1, 2), Fr(-9, 17), Fr(3), Fr(1, BIG),
    "", "x", "segre33", "R4/F_I", "-9/17", "2 2 1 0 0 1", '{"total_sign": 0, "germs": []}',
    "\ud800", b"", b"\xff", b"2 2 1 0 0 1", *range(-9, 10), *RECORDS,
)


def _nested(seed: int) -> list:
    """A list of up to 3 entries, each a small int (|x| <= 9, as phi1([[1, 0],
    [-n, 1]]) takes n steps), another scalar or such a list one level down.
    Built from one drawn seed: Hypothesis draws each element of ``st.lists``
    separately, which would make the property several times slower."""
    rng = random.Random(seed)

    def entry(depth: int):
        if depth and rng.random() < 0.5:
            return [entry(depth - 1) for _ in range(rng.randint(0, 3))]
        return rng.choice([rng.randint(-9, 9)] * 6 + [None, 0.5, Fr(1, 2), "1"])

    return [entry(1) for _ in range(rng.randint(0, 3))]


nested = st.integers(0, 2**32 - 1).map(_nested)
junk = st.sampled_from((*SCALARS, BIG, -BIG)) | nested
sizes = st.sampled_from((*SCALARS, -BIG)) | nested


def _argument(name: str, i: int):
    if i in FIXED.get(name, {}):
        return st.just(FIXED[name][i])
    return sizes if i in SIZES.get(name, ()) else junk


# one draw: junk arguments for every public callable
CALLS = st.fixed_dictionaries(
    {name: st.tuples(*(_argument(name, i) for i in range(arity))) for name, arity in ARITY.items()}
)


@settings(max_examples=12)
@given(calls=CALLS)
def test_every_public_call_returns_or_raises_a_meyersig_error(calls):
    for name, args in calls.items():
        try:
            getattr(meyersig, name)(*args)
        except MeyerSigError:
            pass


def test_the_arity_table_covers_every_public_callable():
    assert set(ARITY) == set(meyersig.__all__) - EXCEPTIONS
    assert set(FIXED) | set(SIZES) <= set(ARITY)
