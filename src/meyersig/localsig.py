"""Local signatures of fiber germs and the global signature formula.

A fiber germ carries a value of the relevant Meyer function on its lifted
monodromy plus the signature of a fiber neighbourhood; their sum is the
local signature. Over a closed base the local signatures of the singular
germs add up to the signature of the total space, which is what
``check_fibration`` verifies and ``solve_unknown_germ`` inverts.

The built-in germ table covers the genus-4 rank-4 families (names under
"R4/") and the genus-5 non-trigonal family (names under "NT5/").
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import IncompleteLedger, InvalidInput, UnknownName, ZeroOrManyUnknowns
from .exactnum import _int_arg, _kind_arg, _numeral_arg, _rational_arg, _shown


class ComplexSurfaceData(Record):
    """Holomorphic invariants of a complex surface fibered in curves over P1."""

    __slots__ = ("chi_O", "K2", "fiber_genus")

    def _check(self):
        for name, low in (("chi_O", None), ("K2", None), ("fiber_genus", 2)):
            _int_arg(getattr(self, name), name, low)


def surface_topology(data: ComplexSurfaceData) -> tuple[int, int]:
    """(topological Euler characteristic, signature) from (chi_O, K^2).

    Noether: chi_O = (K^2 + chi_top) / 12; Hirzebruch: Sign = (K^2 - 2 chi_top)/3.
    Jointly: chi_top = 12 chi_O - K^2 and Sign = K^2 - 8 chi_O.
    """
    _kind_arg(data, ComplexSurfaceData, "data")
    return 12 * data.chi_O - data.K2, data.K2 - 8 * data.chi_O


def fiber_count(chi_top: int, g: int) -> int:
    """Euler count of singular fiber germs over P1: chi_top - 2 (2 - 2g).

    Counts germs weighted by their Euler contribution; each one-node germ
    contributes exactly 1, topologically trivial germs contribute 0.
    """
    g = _int_arg(g, "fiber genus", 2)
    return _int_arg(chi_top, "chi_top") - 2 * (2 - 2 * g)


class FiberGerm(Record):
    """A named fiber germ with its Meyer value and neighbourhood signature."""

    __slots__ = ("name", "phi_value", "nbhd_sign")

    def _check(self):
        _kind_arg(self.name, str, "name")
        _rational_arg(self.phi_value, "phi_value")
        _int_arg(self.nbhd_sign, "nbhd_sign")

    @property
    def sigma(self) -> Fraction:
        return self.phi_value + self.nbhd_sign


def germ_sigma(phi_value: Fraction | int | str, nbhd_sign: int) -> Fraction:
    """Local signature: Meyer value of the lifted monodromy plus the
    signature of a fiber neighbourhood; a string ``phi_value`` is read as a rational."""
    return _numeral_arg(phi_value, "phi_value") + _int_arg(nbhd_sign, "nbhd_sign")


_GERM_TABLE: tuple[tuple[str, Fraction, int], ...] = (
    ("R4/F_I", Fraction(-9, 17), 0),
    ("R4/F_31", Fraction(28, 17), -1),
    ("R4/F_22", Fraction(36, 17), -1),
    ("R4/F_Rprime", Fraction(4, 17), 0),
    ("R4/F_R", Fraction(2, 17), 0),
    ("NT5/F_I", Fraction(-1, 2), 0),
)
_GERMS = {name: FiberGerm(name, phi, nbhd) for name, phi, nbhd in _GERM_TABLE}


def ledger() -> tuple[FiberGerm, ...]:
    """The built-in germ table.

    Genus 4 (rank-4 fibers): the one-node germ F_I, the genus (3,1) and
    (2,2) one-point unions F_31 and F_22, and the rank-3-quadric germs
    F_Rprime and F_R (topologically trivial, nonzero local signature).
    Genus 5 (non-trigonal fibers): the one-node germ F_I.
    """
    return tuple(_GERMS.values())


def germ(name: str) -> FiberGerm:
    entry = _GERMS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise UnknownName(f"unknown germ {_shown(name)}")
    return entry


class LedgerEntry(Record):
    """One germ type in a fibration, with multiplicity; phi None = unknown."""

    __slots__ = ("name", "phi", "nbhd_sign", "count")

    def _check(self):
        try:  # a lone surrogate is a str that no output can encode
            _kind_arg(self.name, str, "name").encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidInput(f"germ name {self.name!r} cannot be encoded as UTF-8") from exc
        if self.phi is not None:
            _rational_arg(self.phi, "phi")
        _int_arg(self.nbhd_sign, "nbhd_sign")
        _int_arg(self.count, "count", 1)

    @property
    def sigma(self) -> Fraction | None:
        return None if self.phi is None else self.phi + self.nbhd_sign


class FibrationLedger(Record):
    """A fibration as its total signature plus a multiset of germ entries."""

    __slots__ = ("total_sign", "germs")

    def _check(self):
        _int_arg(self.total_sign, "total_sign")
        for entry in _kind_arg(self.germs, tuple, "germs"):
            _kind_arg(entry, LedgerEntry, "each germ")


class FibrationReport(Record):
    __slots__ = ("total_sign", "germ_sum", "residual")

    def _check(self):
        _int_arg(self.total_sign, "total_sign")
        for name in ("germ_sum", "residual"):
            _rational_arg(getattr(self, name), name)

    @property
    def ok(self) -> bool:
        return self.residual == 0


def check_fibration(led: FibrationLedger) -> FibrationReport:
    """Compare the total signature against the sum of local signatures.

    A mismatch is reported as an exact residual, never raised.
    """
    _kind_arg(led, FibrationLedger, "ledger")
    total = Fraction(0)
    for entry in led.germs:
        if entry.sigma is None:
            raise IncompleteLedger(f"germ {entry.name!r} has unknown signature")
        total += entry.count * entry.sigma
    return FibrationReport(led.total_sign, total, led.total_sign - total)


def solve_unknown_germ(led: FibrationLedger) -> LedgerEntry:
    """Solve the global signature formula for the single unknown germ.

    Returns the entry with its phi filled in so that the ledger balances
    exactly.
    """
    _kind_arg(led, FibrationLedger, "ledger")
    unknowns = [e for e in led.germs if e.sigma is None]
    if len(unknowns) != 1:
        raise ZeroOrManyUnknowns(f"{len(unknowns)} unknown germs, need exactly 1")
    unknown = unknowns[0]
    known = sum(
        (e.count * e.sigma for e in led.germs if e.sigma is not None), Fraction(0)
    )
    sigma = Fraction(led.total_sign - known, unknown.count)
    return LedgerEntry(unknown.name, sigma - unknown.nbhd_sign, unknown.nbhd_sign, unknown.count)


def ledger_from_obj(obj) -> FibrationLedger:
    """Build a ledger from the JSON object layout:

    { "total_sign": int,
      "germs": [ { "name": str, "phi": "p/q" | null, "nbhd_sign": int,
                   "count": int } ] }

    "phi": null (or absent) marks the germ whose signature is to be solved;
    "nbhd_sign" defaults to 0 and "count" to 1. Here only the layout and the
    "phi" numeral are checked; ``LedgerEntry`` checks the name (a ``str``
    that encodes as UTF-8), "nbhd_sign" and "count", and ``FibrationLedger``
    "total_sign".
    """
    if not isinstance(obj, dict):
        raise InvalidInput("ledger must be a JSON object")
    try:
        total = obj["total_sign"]
        raw_germs = obj["germs"]
    except KeyError as exc:
        raise InvalidInput(f"ledger is missing key {exc}") from exc
    if not isinstance(raw_germs, list):
        raise InvalidInput("germs must be a list")
    entries = []
    for item in raw_germs:
        if not isinstance(item, dict) or "name" not in item:
            raise InvalidInput(f"bad germ entry {_shown(item)}")
        phi = item.get("phi")
        phi = None if phi is None else _numeral_arg(phi, "phi")
        entries.append(LedgerEntry(item["name"], phi, item.get("nbhd_sign", 0), item.get("count", 1)))
    return FibrationLedger(total, tuple(entries))


def ledger_from_json(text: str) -> FibrationLedger:
    """``ledger_from_obj`` of JSON text; ``json`` loads here, on the first call.
    Nesting deeper than the stack raises RecursionError, text that is no
    ``str`` or bytes TypeError, and bytes that do not decode UnicodeDecodeError;
    the one other ValueError is an integer past the digit limit."""
    import json

    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError, TypeError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"bad ledger JSON: {exc}") from exc
    except ValueError as exc:
        raise InvalidInput("bad ledger JSON: an integer has too many digits") from exc
    return ledger_from_obj(obj)
