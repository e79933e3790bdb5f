"""Command line interface.

Each subcommand's handler returns its result as data: a record of
``(key, value)`` pairs read off the library's values (``presets`` returns
one record per preset). ``main`` renders it in one step. With --json a
record is one JSON object, each ``Fraction`` written as a string. In text a
one-pair record prints as its bare value and a longer one as space-separated
key=value tokens, booleans as true/false. Rationals are always reduced and
rendered as "p/q", or "p" when the denominator is 1. Output is deterministic
and byte-stable for fixed inputs.

Exit codes: 0 success, 2 input error, 3 contract violation. A numeral the
grammar refuses (read through its option's type) raises ``InvalidInput``
out of the reader or ``parse_args``: one ``error:`` line and exit 2, as for a
bad file.
A ``MemoryError`` ends the same way, as a backstop behind the library.
Every call loads ``meyersig.exactnum``: the numeral grammar and the argument
checks, and with them tau's linear algebra. Beyond it, each handler imports
only the layer it runs, and ``json`` loads only for --json output or a ledger
file. A line in canonical form is read straight off ``_COMMANDS`` (see
``_read_canonical``); argparse loads only for any other line, so it alone
prints help, usage and its errors, and it then registers the options of the
dispatched command alone.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from .errors import ContractViolation, InvalidInput
from .exactnum import _too_large, parse_integer, parse_matrix, parse_rational

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3


def _fields(record, names: str) -> list:
    """The ``(name, value)`` pairs of a library record, for space-separated names."""
    return [(name, getattr(record, name)) for name in names.split()]


def _text(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _line(pairs: list) -> str:
    """A lone value bare, else key=value tokens; a pair keyed None prints its value alone."""
    if len(pairs) == 1:
        return _text(pairs[0][1])
    return " ".join(_text(v) if k is None else f"{k}={_text(v)}" for k, v in pairs)


def _render(result, as_json: bool) -> str:
    """The one place a result becomes output: a record, or a tuple of records
    (a JSON list, a text line each). An integer with no string form raises
    ``exactnum._too_large``'s input error."""
    try:
        if as_json:
            import json  # only --json output and a ledger file read or write JSON
            obj = [dict(r) for r in result] if isinstance(result, tuple) else dict(result)
            return json.dumps(obj, default=str)
        return "\n".join(map(_line, result if isinstance(result, tuple) else (result,)))
    except ValueError as exc:
        raise _too_large() from exc


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path!r}: {exc}") from exc


def _load_symplectic(path: str):
    from .symplectic import SymplecticElement
    return SymplecticElement(parse_matrix(_read(path)))


def cmd_tau(args) -> list:
    from . import meyer
    return [("tau", meyer.tau(_load_symplectic(args.a1), _load_symplectic(args.a2)))]


def cmd_phi1(args) -> list:
    from . import meyer
    return [("phi1", meyer.phi1(_load_symplectic(args.matrix)))]


def cmd_ci(args) -> list:
    from . import varieties
    inv, rep = varieties.ci_surface_invariants(args.m, varieties.parse_degrees(args.degrees))
    pairs = _fields(inv, "sign chi deg genus") + _fields(rep, "deg_DX phi alpha beta")
    if inv.genus == 1:
        pairs.append(("genus_boundary", True))
    return pairs


def cmd_veronese(args) -> list:
    from . import varieties
    degrees = varieties.parse_degrees(args.degrees)
    spec = varieties.CISpec(args.m, degrees, args.n, args.d)
    return _fields(varieties.veronese_ci_lasso(spec), "alpha beta deg_DX phi")


def cmd_lasso_power(args) -> list:
    from . import varieties
    return [("phi", varieties.lasso_power(args.phi, args.n))]


def cmd_germ(args) -> list:
    from . import localsig
    entry = localsig.germ(args.name)
    return [("phi", entry.phi_value)] + _fields(entry, "nbhd_sign sigma")


def cmd_fibration(args) -> list:
    from . import localsig
    led = localsig.ledger_from_json(_read(args.ledger))
    if args.solve:
        return _fields(localsig.solve_unknown_germ(led), "name phi nbhd_sign sigma")
    return _fields(localsig.check_fibration(led), "total_sign germ_sum residual ok")


def cmd_presets(args) -> tuple:
    """The one handler whose layouts differ: JSON keeps every field under its
    name; text leads with the bare name and shows alpha/beta only on the
    closed-form routes, ahead of the value."""
    from . import varieties
    records = []
    for p in map(varieties.resolve_preset, varieties.named_presets()):
        inv = _fields(p.invariants, "sign chi deg genus") if p.invariants else []
        if args.json:
            records.append([("name", p.name)] + inv + _fields(p.report, "deg_DX phi alpha beta"))
        else:
            ratio = "alpha beta " if p.report.alpha is not None else ""
            records.append([(None, p.name)] + inv + _fields(p.report, ratio + "deg_DX phi"))
    return tuple(records)


# name: (help, handler, options); an option (flag, help, type) takes a required
# value read by type (None: a string), or is a flag with no value if type is
# bool; _read_canonical and build_parser both read this table alone
_COMMANDS = {
    "tau": ("signature cocycle of two symplectic matrices", cmd_tau, (
        ("--a1", "matrix file (format: 'rows cols' then entries)", None), ("--a2", "matrix file", None))),
    "phi1": ("Meyer function on an SL(2,Z) matrix", cmd_phi1, (("--matrix", "2x2 matrix file", None),)),
    "ci": ("complete intersection surface invariants and lasso value", cmd_ci, (
        ("--m", "number of defining degrees", parse_integer),
        ("--degrees", "comma-separated degrees, e.g. 2,3", None))),
    "veronese": ("lasso value for a Veronese-embedded complete intersection", cmd_veronese, (
        ("--m", None, parse_integer), ("--degrees", "comma-separated degrees; '' for m=0", None),
        ("--n", "dimension of the variety", parse_integer), ("--d", "Veronese degree", parse_integer))),
    "lasso-power": ("Meyer value on the n-th power of a lasso", cmd_lasso_power, (
        ("--phi", "value on the lasso, as p/q", parse_rational), ("--n", None, parse_integer))),
    "germ": ("look up a built-in fiber germ", cmd_germ, (("--name", "e.g. R4/F_31 or NT5/F_I", None),)),
    "fibration": ("check or solve a fibration ledger (JSON file)", cmd_fibration, (
        ("--ledger", "ledger JSON file", None), ("--solve", "solve for the single germ with phi null", bool))),
    "presets": ("list the named variety presets", cmd_presets, ()),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process for each ``command``.
    ``main`` builds it, and so imports argparse, only for a line that
    ``_read_canonical`` refuses. Every command is a choice, so help, usage
    and an invalid choice read alike.
    The factory given as ``parser_class`` builds the subparser of ``command``
    alone (``None``: none), with --json and its options, from whatever
    keywords ``add_parser`` passes on, and leaves the others ``None``. That
    relies on argparse calling only the dispatched command's parser: ``main``
    passes the command that argparse will dispatch on."""
    import argparse  # help, usage and errors only: a canonical line needs none

    parser = argparse.ArgumentParser(
        prog="meyersig",
        description=(
            "Exact computation of the signature cocycle on the symplectic "
            "group, the Meyer function on SL(2,Z), lasso values for embedded "
            "projective varieties, and local signatures of fiber germs."
        ),
    )

    def subparser(*, spec: tuple | None, **kwargs) -> argparse.ArgumentParser | None:
        if spec is None:
            return None
        handler, options = spec
        p = argparse.ArgumentParser(**kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON instead of key=value text")
        for flag, flag_help, kind in options:
            how = {"action": "store_true"} if kind is bool else {"type": kind, "required": True}
            p.add_argument(flag, help=flag_help, **how)
        p.set_defaults(func=handler)
        return p

    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)
    for name, (text, handler, options) in _COMMANDS.items():
        sub.add_parser(name, help=text, spec=(handler, options) if name == command else None)
    return parser


def _merge_rational_values(argv: list[str]) -> list[str]:
    # "--phi -9/17" would be read as two options; fold it into "--phi=-9/17",
    # and likewise after an abbreviation that argparse resolves to --phi ("--ph");
    # an option name is no value, so "--phi --n" is left for argparse to refuse
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if len(tok) > 2 and "--phi".startswith(tok) and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``parse_args`` returns for a line in canonical form, read
    off ``_COMMANDS``: the command first, then each of its options at most
    once, as ``--name value`` or ``--name=value``, a flag bare, every required
    option present, and no value token that starts with "-". Each value goes
    through its option's type in argv order, so a numeral the grammar refuses
    raises here as it would out of argparse. Any other line returns ``None``,
    and so does a value that a type refuses with a ``ValueError`` or
    ``TypeError``, which argparse words itself."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    kinds = {"--json": bool, **{flag: kind for flag, _, kind in options}}
    given: dict[str, str | bool] = {}
    tokens = iter(argv[1:])
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if flag not in kinds or flag in given:
            return None
        if kinds[flag] is bool:  # a flag takes no value
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        given[flag] = value
    if any(kind is not bool and flag not in given for flag, kind in kinds.items()):
        return None
    values = {flag: False for flag, kind in kinds.items() if kind is bool}
    try:
        for flag, value in given.items():
            kind = kinds[flag]
            values[flag] = value if kind in (None, bool) else kind(value)
    except (TypeError, ValueError):
        return None
    dests = {flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], func=handler, **dests)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_rational_values(list(argv))
    try:  # a numeral the grammar refuses leaves the reader or parse_args as InvalidInput
        args = _read_canonical(argv)
        if args is None:
            # argparse dispatches on the first token that names a command, as
            # the top-level parser has no option that takes a value
            parser = build_parser(next((tok for tok in argv if tok in _COMMANDS), None))
            args = parser.parse_args(argv)
        out = _render(args.func(args), args.json)
    except SystemExit as exc:  # argparse already wrote the usage message
        return int(exc.code) if exc.code else 0
    except (InvalidInput, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InvalidInput) else EXIT_CONTRACT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    print(out)
    return EXIT_OK
