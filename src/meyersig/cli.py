"""Command line interface.

Every subcommand prints one record per line as space-separated key=value
pairs (or a JSON object with --json); rationals are always reduced and
rendered as "p/q", or "p" when the denominator is 1. Output is deterministic
and byte-stable for fixed inputs.

Exit codes: 0 success, 2 input error, 3 contract violation.
Each handler imports only the layer it runs, so a call loads no other.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .errors import ContractViolation, InvalidInput
from .exactnum import parse_integer, parse_matrix, parse_rational

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _record(pairs: list[tuple[str, object]]) -> dict:
    return {k: _jsonable(v) for k, v in pairs}


def _too_large() -> InvalidInput:
    return InvalidInput(
        f"result too large to print (over {sys.get_int_max_str_digits()} digits)"
    )


def _print(render) -> None:
    """Print the line ``render()`` builds: the one place results become text.

    An integer past the interpreter's digit limit has no string form; the
    inputs asked for a result too large to print, so that is an input error.
    """
    try:
        line = render()
    except ValueError as exc:
        raise _too_large() from exc
    print(line)


def _emit(pairs: list[tuple[str, object]], as_json: bool, prefix: str = "") -> None:
    if as_json:
        _print(lambda: json.dumps(_record(pairs)))
    else:
        _print(lambda: prefix + " ".join(f"{k}={_fmt(v)}" for k, v in pairs))


def _emit_value(key: str, value, as_json: bool) -> None:
    """A single result: bare in text, {key: value} in JSON."""
    if as_json:
        _emit([(key, value)], as_json)
    else:
        _print(lambda: _fmt(value))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path!r}: {exc}") from exc


def _load_symplectic(path: str):
    from .symplectic import SymplecticElement
    return SymplecticElement(parse_matrix(_read(path)))


def cmd_tau(args) -> int:
    from . import meyer
    a1 = _load_symplectic(args.a1)
    a2 = _load_symplectic(args.a2)
    _emit_value("tau", meyer.tau(a1, a2), args.json)
    return EXIT_OK


def cmd_phi1(args) -> int:
    from . import meyer
    _emit_value("phi1", meyer.phi1(_load_symplectic(args.matrix)), args.json)
    return EXIT_OK


def _invariant_pairs(inv):
    if inv is None:
        return []
    return [("sign", inv.sign), ("chi", inv.chi), ("deg", inv.deg), ("genus", inv.genus)]


def _value_pairs(rep):
    return [("deg_DX", rep.deg_DX), ("phi", rep.phi)]


def _ratio_pairs(rep):
    return [("alpha", rep.alpha), ("beta", rep.beta)]


def cmd_ci(args) -> int:
    from . import varieties
    degrees = varieties.parse_degrees(args.degrees)
    inv, rep = varieties.ci_surface_invariants(args.m, degrees)
    pairs = _invariant_pairs(inv) + _value_pairs(rep) + _ratio_pairs(rep)
    if inv.genus == 1:
        pairs.append(("genus_boundary", True))
    _emit(pairs, args.json)
    return EXIT_OK


def cmd_veronese(args) -> int:
    from . import varieties
    degrees = varieties.parse_degrees(args.degrees)
    spec = varieties.CISpec(args.m, degrees, args.n, args.d)
    # deg D_X is a multiple of d^(n-2): refuse before computing a power whose
    # decimal form alone is past the digit limit (0 means no limit)
    limit = sys.get_int_max_str_digits()
    if limit and spec.d > 1 and spec.n - 2 >= limit / math.log10(spec.d):
        raise _too_large()
    rep = varieties.veronese_ci_lasso(spec)
    _emit(_ratio_pairs(rep) + _value_pairs(rep), args.json)
    return EXIT_OK


def cmd_lasso_power(args) -> int:
    from . import varieties
    _emit_value("phi", varieties.lasso_power(parse_rational(args.phi), args.n), args.json)
    return EXIT_OK


def cmd_germ(args) -> int:
    from . import localsig
    entry = localsig.germ(args.name)
    _emit(
        [
            ("phi", entry.phi_value),
            ("nbhd_sign", entry.nbhd_sign),
            ("sigma", entry.sigma),
        ],
        args.json,
    )
    return EXIT_OK


def cmd_fibration(args) -> int:
    from . import localsig
    led = localsig.ledger_from_json(_read(args.ledger))
    if args.solve:
        solved = localsig.solve_unknown_germ(led)
        _emit(
            [
                ("name", solved.name),
                ("phi", solved.phi),
                ("nbhd_sign", solved.nbhd_sign),
                ("sigma", solved.sigma),
            ],
            args.json,
        )
    else:
        report = localsig.check_fibration(led)
        _emit(
            [
                ("total_sign", report.total_sign),
                ("germ_sum", report.germ_sum),
                ("residual", report.residual),
                ("ok", report.ok),
            ],
            args.json,
        )
    return EXIT_OK


def cmd_presets(args) -> int:
    from . import varieties
    presets = [varieties.resolve_preset(name) for name in varieties.named_presets()]
    if args.json:
        records = [
            [("name", p.name)]
            + _invariant_pairs(p.invariants)
            + _value_pairs(p.report)
            + _ratio_pairs(p.report)
            for p in presets
        ]
        _print(lambda: json.dumps([_record(pairs) for pairs in records]))
        return EXIT_OK
    for p in presets:
        # text shows alpha/beta only on the closed-form routes, ahead of the value
        ratio = _ratio_pairs(p.report) if p.report.alpha is not None else []
        pairs = _invariant_pairs(p.invariants) + ratio + _value_pairs(p.report)
        _emit(pairs, as_json=False, prefix=f"{p.name} ")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="meyersig",
        description=(
            "Exact computation of the signature cocycle on the symplectic "
            "group, the Meyer function on SL(2,Z), lasso values for embedded "
            "projective varieties, and local signatures of fiber germs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of key=value text")

    p = sub.add_parser("tau", parents=[common], help="signature cocycle of two symplectic matrices")
    p.add_argument("--a1", required=True, help="matrix file (format: 'rows cols' then entries)")
    p.add_argument("--a2", required=True, help="matrix file")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("phi1", parents=[common], help="Meyer function on an SL(2,Z) matrix")
    p.add_argument("--matrix", required=True, help="2x2 matrix file")
    p.set_defaults(func=cmd_phi1)

    p = sub.add_parser("ci", parents=[common], help="complete intersection surface invariants and lasso value")
    p.add_argument("--m", type=parse_integer, required=True, help="number of defining degrees")
    p.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 2,3")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("veronese", parents=[common], help="lasso value for a Veronese-embedded complete intersection")
    p.add_argument("--m", type=parse_integer, required=True)
    p.add_argument("--degrees", required=True, help="comma-separated degrees; '' for m=0")
    p.add_argument("--n", type=parse_integer, required=True, help="dimension of the variety")
    p.add_argument("--d", type=parse_integer, required=True, help="Veronese degree")
    p.set_defaults(func=cmd_veronese)

    p = sub.add_parser("lasso-power", parents=[common], help="Meyer value on the n-th power of a lasso")
    p.add_argument("--phi", required=True, help="value on the lasso, as p/q")
    p.add_argument("--n", type=parse_integer, required=True)
    p.set_defaults(func=cmd_lasso_power)

    p = sub.add_parser("germ", parents=[common], help="look up a built-in fiber germ")
    p.add_argument("--name", required=True, help="e.g. R4/F_31 or NT5/F_I")
    p.set_defaults(func=cmd_germ)

    p = sub.add_parser("fibration", parents=[common], help="check or solve a fibration ledger (JSON file)")
    p.add_argument("--ledger", required=True, help="ledger JSON file")
    p.add_argument("--solve", action="store_true", help="solve for the single germ with phi null")
    p.set_defaults(func=cmd_fibration)

    p = sub.add_parser("presets", parents=[common], help="list the named variety presets")
    p.set_defaults(func=cmd_presets)

    return parser


def _merge_rational_values(argv: list[str]) -> list[str]:
    # "--phi -9/17" would be read as two options; fold it into "--phi=-9/17",
    # and likewise after an abbreviation that argparse resolves to --phi ("--ph")
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if len(tok) > 2 and "--phi".startswith(tok) and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_rational_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote the usage message
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
