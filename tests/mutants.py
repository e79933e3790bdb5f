"""Standing mutants of the library, each with the tests that must catch it.

Run from the repository root:

    python tests/mutants.py                     # every mutant
    python tests/mutants.py reduce-drop-q ...   # the named ones

For each mutant the script copies ``src/`` to a temporary directory,
replaces the one occurrence of ``old`` by ``new`` in ``file`` there, and
runs the mutant's test ids with ``pytest -x`` against that copy. A mutant
is caught when pytest exits 1, a failed test; an exit of 0 (the mutant
survived) or any other (INTERNALERROR, a usage or collection error) fails
the run, and the script exits 1. ``test_mutants.py`` checks in Tier-1 that
every old text still occurs exactly once, so the list cannot rot silently.
The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meyersig"


class Mutant(NamedTuple):
    name: str
    file: str  # in src/meyersig/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


EXACT = "tests/test_exactnum.py::"
MEYER = "tests/test_meyer.py::"
ORACLE = "tests/test_tau_oracle.py::"
REFERENCE = MEYER + "test_sl2_reduction_matches_the_reference_on_explicit_inputs"
GOLDEN = "tests/test_cli.py::test_output_is_exact"
REFUSED = "tests/test_cli.py::test_refused_numbers_print_one_error_line"
PARSED = "tests/test_cli.py::test_argparse_decisions_are_exact"
BASE_REFUSES = MEYER + "test_phi1_base_refuses_relations_the_cocycle_contradicts"
CLOSED_FORM_REFUSED = MEYER + "test_phi1_refuses_a_closed_form_the_relations_contradict"
RECORDS = "tests/test_records.py::test_validation_raises_the_documented_error"

MUTANTS = (
    # the Euclidean reduction behind phi1 and sl2_word
    Mutant(
        "reduce-flip-s-correction",
        "symplectic.py",
        "phi += q + 3",
        "phi += q - 3",
        (REFERENCE, MEYER + "test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci"),
    ),
    Mutant(
        "reduce-drop-q",
        "symplectic.py",
        "phi += q + 3",
        "phi += 3",
        (REFERENCE, MEYER + "test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci"),
    ),
    Mutant(
        "reduce-unnegated-remainder",
        "symplectic.py",
        "aa, bb, cc, dd = cc, dd, -r, q * dd - bb",
        "aa, bb, cc, dd = cc, dd, r, q * dd - bb",
        (REFERENCE, MEYER + "test_sl2_word_is_in_normal_form_and_evaluates_back"),
    ),
    Mutant(
        "reduce-drop-tail-negation",
        "symplectic.py",
        "        bb = -bb\n    return entries",
        "        pass\n    return entries",
        (REFERENCE, MEYER + "test_sl2_word_is_in_normal_form_and_evaluates_back"),
    ),
    Mutant(
        "reduce-drop-tail-from-phi",
        "symplectic.py",
        "(1 - aa, bb), phi + bb",
        "(1 - aa, bb), phi",
        (REFERENCE, MEYER + "test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci"),
    ),
    # phi1's generator values: solved, checked and tied to the closed form in phi1_base
    Mutant(
        "phi-base-solve-divisor",
        "meyer.py",
        'Fraction(-phi1_word([("S", 1)] * 4, zero), 4)',
        'Fraction(-phi1_word([("S", 1)] * 4, zero), 2)',
        (MEYER + "test_phi_base_relations_hold",),
    ),
    Mutant(
        "phi-base-no-relator-check",
        "meyer.py",
        "    if gen_S() ** 4 != identity or (gen_S() * gen_T()) ** 6 != identity:\n",
        "    if False:\n",
        (BASE_REFUSES,),
    ),
    Mutant(
        "phi-base-no-closed-form-tie",
        "meyer.py",
        "        if (value := _phi1_closed_form(el)) != solved:\n",
        "        if False:\n",
        (CLOSED_FORM_REFUSED,),
    ),
    Mutant(
        "phi1-skips-phi1-base",
        "meyer.py",
        "    phi1_base()\n    return value\n",
        "    return value\n",
        (CLOSED_FORM_REFUSED,),
    ),
    Mutant(
        "power-phi-keeps-sign",  # phi(el^-1) read as phi(el)
        "meyer.py",
        "(el.inverse(), -phi_el)",
        "(el.inverse(), phi_el)",
        (MEYER + "test_phi1_word_folds_a_power_of_thousands_of_bits", MEYER + "test_phi_inverse_antisymmetry"),
    ),
    Mutant(
        "phi1-word-powers-el-for-negative-e",  # T^-n folded as T^n
        "meyer.py",
        "pair = (el, phi_el) if e > 0 else",
        "pair = (el, phi_el) if True else",
        (MEYER + "test_phi1_word_folds_a_power_of_thousands_of_bits", MEYER + "test_phi_inverse_antisymmetry"),
    ),
    Mutant(
        "phi1-word-folds-zero-exponents",  # (I, 0) folded in, one tau more per syllable
        "meyer.py",
        "        if e:  # phi(A^-1)",
        "        if not e:\n"
        "            parts.append((SymplecticElement.identity(1), Fraction(0)))\n"
        "        else:  # phi(A^-1)",
        (MEYER + "test_zero_exponents_evaluate_no_tau",),
    ),
    # tau's kernel, Gram and signature
    Mutant(
        "kernel-divide-by-p",
        "exactnum.py",
        "rows[i] = [(p * x - f * y) // prev",
        "rows[i] = [(p * x - f * y) // p",
        (EXACT + "test_kernel_of_tau_matrices_is_the_rref_kernel",),
    ),
    Mutant(
        "kernel-skip-zero-rows",
        "exactnum.py",
        "            f = row.pop(0)\n",
        "            f = row.pop(0)\n            if f == 0:\n                continue\n",
        (EXACT + "test_kernel_of_tau_matrices_is_the_rref_kernel",),
    ),
    Mutant(
        "kernel-flipped-back-substitution",
        "exactnum.py",
        "v[c] = -sum(map(mul, top, v[c + 1 :])) // p",
        "v[c] = sum(map(mul, top, v[c + 1 :])) // p",
        (EXACT + "test_kernel_of_twist_block", EXACT + "test_kernel_of_tau_matrices_is_the_rref_kernel"),
    ),
    Mutant(
        "kernel-unsigned-last-pivot",  # |d| at f becomes d, negative where d is
        "exactnum.py",
        "d = abs(steps[-1][1]) if steps else 1",
        "d = steps[-1][1] if steps else 1",
        (EXACT + "test_kernel_of_twist_block", EXACT + "test_kernel_of_tau_matrices_is_the_rref_kernel"),
    ),
    Mutant(
        "kernel-keep-free-below-start",  # vectors built from column 0
        "exactnum.py",
        "    for f in range(start, cols):",
        "    for f in range(cols):",
        (MEYER + "test_tau_form_is_the_pairing_on_a_basis_of_w",
         EXACT + "test_kernel_core_builds_exactly_the_vectors_from_start_on"),
    ),
    Mutant(
        "tau-form-keep-a-zero-x-half",  # Q keeps the dependent columns, so (0 | y) vectors appear
        "meyer.py",
        "    q = [c for c, _, _ in _echelon([row[:] for row in m])]\n",
        "    q = list(range(len(m)))\n",
        (MEYER + "test_tau_form_is_the_pairing_on_a_basis_of_w",),
    ),
    Mutant(
        "tau-form-unscattered-y",  # the sums are x, not x + y
        "meyer.py",
        "    sums, images, cols = [], [], p + q\n",
        "    sums, images, cols = [], [], p\n",
        (MEYER + "test_tau_form_is_the_pairing_on_a_basis_of_w",),
    ),
    Mutant(
        "tau-form-unsigned-swap",
        "meyer.py",
        "images.append([-t for t in u[g:]] + u[:g])",
        "images.append(list(u[g:]) + u[:g])",
        (MEYER + "test_tau_form_is_the_pairing_on_a_basis_of_w",
         "tests/test_acceptance.py::test_criterion_02_cocycle_identity"),
    ),
    Mutant(
        "gram-unchecked",
        "exactnum.py",
        "    return _symmetric(tuple(tuple(sum(map(mul, u, img)) for img in images) for u in sums))",
        "    return tuple(tuple(sum(map(mul, u, img)) for img in images) for u in sums)",
        (EXACT + "test_gram_restrict_rejects_asymmetric_result",),
    ),
    Mutant(
        "signature-stop-at-zero-diagonal",
        "exactnum.py",
        "            if pair is None:\n                break",
        "            if True:\n                break",
        (EXACT + "test_signature_against_root_counting_oracle",),
    ),
    Mutant(
        "signature-sign-of-p",
        "exactnum.py",
        "sig += 1 if (p > 0) == (prev > 0) else -1",
        "sig += 1 if p > 0 else -1",
        (EXACT + "test_signature_against_root_counting_oracle",),
    ),
    Mutant(
        "tau-negated-at-g4",
        "meyer.py",
        "    value, n = _signature(form), len(left[1])",
        "    value, n = _signature(form) * (-1 if len(left[1]) == 8 else 1), len(left[1])",
        (ORACLE + "test_tau_sums_to_the_signature_of_the_chain_relations",),
    ),
    Mutant(
        "defect-wrong-right-side",  # tau(a1, a3) in place of tau(a1, a2 a3)
        "meyer.py",
        "    t1_23 = _tau(_at(p1, l1[1]), r23)[0]",
        "    t1_23 = _tau(_at(p1, l1[1]), r3)[0]",
        (MEYER + "test_cocycle_defect_shares_the_four_tau_values",),
    ),
    Mutant(
        "defect-r2-from-a3-pivots",  # tau(a1, a2)'s right side at the pivot columns of A3 - I
        "meyer.py",
        "_at(p2, _minus_one(a2))",
        "_at(r3[0], _minus_one(a2))",
        (MEYER + "test_cocycle_defect_forms_are_tau_form_of_its_four_pairs",),
    ),
    Mutant(
        "defect-p1-short-of-its-last-column",
        "meyer.py",
        "_at(p1, l1[1])",
        "_at(p1[:-1], l1[1])",
        (MEYER + "test_cocycle_defect_forms_are_tau_form_of_its_four_pairs",),
    ),
    Mutant(
        "form-unscattered-x",  # x from P's columns left in the first |P| coordinates
        "meyer.py",
        "    sums, images, cols = [], [], p + q\n",
        "    sums, images, cols = [], [], [*range(k), *q]\n",
        (MEYER + "test_cocycle_defect_forms_are_tau_form_of_its_four_pairs",),
    ),
    # the group layer: the one power loop and the powers of SL2Word.evaluate,
    # the symplectic check, sl2_word's normal form and direct_sum's coordinates
    Mutant(
        "power-loop-double-shift",
        "symplectic.py",
        "        e >>= 1\n",
        "        e >>= 2\n",
        ("tests/test_symplectic.py::test_power_is_the_repeated_product",),
    ),
    Mutant(
        "evaluate-unsigned-exponent",  # T^-n evaluated as T^n
        "symplectic.py",
        "gen_T()) ** e for",
        "gen_T()) ** abs(e) for",
        ("tests/test_symplectic.py::test_word_evaluates_huge_powers_to_their_closed_forms",),
    ),
    Mutant(
        "evaluate-every-power-of-s",  # S^e for T^e
        "symplectic.py",
        '(gen_S() if gen == "S" else gen_T())',
        "gen_S()",
        ("tests/test_symplectic.py::test_word_evaluates_huge_powers_to_their_closed_forms",
         MEYER + "test_sl2_word_is_in_normal_form_and_evaluates_back"),
    ),
    Mutant(
        "symplectic-check-without-J",  # A A^t = I: orthogonal, not symplectic
        "symplectic.py",
        "_matmul(rows, _inverse_minus(rows, 0))",
        "_matmul(rows, tuple(zip(*rows)))",
        ("tests/test_symplectic.py::test_constructor_accepts_exactly_the_matrices_that_preserve_J",),
    ),
    Mutant(
        "sl2-word-unmerged-tail",  # S then S^2, not S^3
        "symplectic.py",
        "    if s and syllables:  # the last syllable is S, and S S^2 = S^3\n",
        "    if False:\n",
        (REFERENCE, MEYER + "test_sl2_word_is_in_normal_form_and_evaluates_back"),
    ),
    Mutant(
        "direct-sum-b-half-offset",  # B's b-half read from A's genus on
        "symplectic.py",
        "h * gs[t] + i",
        "h * gs[0] + i",
        ("tests/test_symplectic.py::test_direct_sum_is_the_interleaved_block_sum",),
    ),
    # elements and readers
    Mutant(
        "transvections-unbounded-length",  # -3 factors is the identity
        "symplectic.py",
        '_int_arg(length, "length", 0)',
        '_int_arg(length, "length")',
        (RECORDS,),
    ),
    Mutant(
        "transvection-flipped-sign",
        "symplectic.py",
        "w = vv[g:] + tuple(-x for x in vv[:g])",
        "w = tuple(-x for x in vv[g:]) + vv[:g]",
        ("tests/test_symplectic.py::test_transvection_matches_pointwise_definition",
         ORACLE + "test_tau_sums_to_the_signature_of_the_chain_relations"),
    ),
    Mutant(
        "int-matrix-checks-first-row-only",
        "exactnum.py",
        "            if not set(map(type, row)) <= {int}:",
        "            if not rows and not set(map(type, row)) <= {int}:",
        (EXACT + "test_linear_algebra_refuses_what_is_not_int_rows",),
    ),
    Mutant(
        "mul-across-genera",
        "symplectic.py",
        "        if self.g != other.g:\n",
        "        if False:\n",
        ("tests/test_symplectic.py::test_product_refuses_other_genera_and_non_elements",),
    ),
    Mutant(
        "parse-matrix-negative-cols",  # "0 -1" has the 0 entries it asks for
        "exactnum.py",
        "if rows < 0 or cols < 0:",
        "if rows < 0:",
        (EXACT + "test_parse_matrix_rejects_garbage",),
    ),
    # refusals of outside numbers: the bound, the digit limit, the CLI's one error line
    Mutant(
        "bound-refuses-its-low",  # ci's CISpec has n = 2 and d = 1, both at the bound
        "exactnum.py",
        "if low is not None and x < low:",
        "if low is not None and x <= low:",
        (GOLDEN,),
    ),
    Mutant(
        "bound-admits-one-below",
        "exactnum.py",
        "if low is not None and x < low:",
        "if low is not None and x < low - 1:",
        (RECORDS,),
    ),
    Mutant(
        "preset-name-by-repr",  # repr of a 5000-digit int raises ValueError
        "varieties.py",
        'f"unknown preset {_shown(name)}"',
        'f"unknown preset {name!r}"',
        (RECORDS,),
    ),
    Mutant(
        "parse-integer-digit-limit-as-value-error",  # argparse prints a usage message
        "exactnum.py",
        "    try:\n        return int(token)\n    except ValueError as exc:"
        "  # more digits than the interpreter converts\n"
        '        raise MatrixFormatError("bad integer: too many digits") from exc\n',
        "    return int(token)\n",
        (REFUSED, EXACT + "test_parse_matrix_rejects_garbage"),
    ),
    Mutant(
        "parse-args-outside-try",  # a refused numeral escapes main
        "cli.py",
        "    try:  # a numeral the grammar refuses leaves parse_args as InvalidInput\n"
        "        args = parser.parse_args(argv)\n",
        "    args = parser.parse_args(argv)\n    try:\n",
        (REFUSED,),
    ),
    Mutant(
        "ledger-name-by-str",  # str of a 5000-digit int raises ValueError
        "localsig.py",
        "        except ValueError as exc:\n"
        "            raise InvalidInput(f\"germ name {_shown(item['name'])} has no string form\") from exc\n",
        "",
        (RECORDS,),
    ),
    # refusals of arguments of the wrong kind, through exactnum._kind_arg
    Mutant(
        "check-fibration-unchecked",  # a bare AttributeError on reading the germs
        "localsig.py",
        '    _kind_arg(led, FibrationLedger, "ledger")\n    total = Fraction(0)\n',
        "    total = Fraction(0)\n",
        (RECORDS, "tests/test_public_calls.py::test_every_public_call_returns_or_raises_a_meyersig_error"),
    ),
    # the CLI: the parser of the dispatched command, a handler's import, and the one render step
    Mutant(
        "dispatch-on-last-command",  # germ --name presets builds presets' options
        "cli.py",
        "next((tok for tok in argv if tok in _COMMANDS), None)",
        "next((tok for tok in reversed(argv) if tok in _COMMANDS), None)",
        (PARSED,),
    ),
    Mutant(
        "subparser-for-every-command",  # seven parsers built that argparse never runs
        "cli.py",
        "spec=(handler, options) if name == command else None",
        "spec=(handler, options)",
        ("tests/test_cli.py::test_parser_builds_the_dispatched_subparser_alone",),
    ),
    Mutant(
        "subparser-from-prog-alone",  # a keyword argparse forwards beyond prog is dropped
        "cli.py",
        "p = argparse.ArgumentParser(**kwargs)",
        "p = argparse.ArgumentParser(prog=kwargs['prog'])",
        ("tests/test_cli.py::test_subparser_is_built_from_every_keyword_argparse_forwards",),
    ),
    Mutant(
        "json-only-with-options",  # presets takes no --json
        "cli.py",
        '        p.add_argument("--json", action="store_true"',
        '        options and p.add_argument("--json", action="store_true"',
        (PARSED,),
    ),
    Mutant(
        "ci-dropped-import",
        "cli.py",
        "def cmd_ci(args) -> list:\n    from . import varieties\n",
        "def cmd_ci(args) -> list:\n",
        (GOLDEN,),
    ),
    Mutant(
        "render-bool-by-str",  # True prints as True, not true
        "cli.py",
        "return str(value).lower() if isinstance(value, bool) else str(value)",
        "return str(value)",
        (GOLDEN,),
    ),
    Mutant(
        "render-lone-value-as-token",  # tau prints tau=-1, not -1
        "cli.py",
        "    if len(pairs) == 1:\n",
        "    if not pairs:\n",
        (GOLDEN,),
    ),
)


def run(mutant: Mutant) -> str:
    """'caught', or why the mutant was not."""
    with tempfile.TemporaryDirectory(prefix="meyersig-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "meyersig", ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "meyersig" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"the old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import meyersig; print(meyersig.__file__)"],
            env=env, capture_output=True, text=True,
        ).stdout
        if not where.startswith(str(src)):
            return f"meyersig was imported from {where.strip()!r}, not the mutated copy"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if "INTERNALERROR" in proc.stdout + proc.stderr:
        return f"INTERNALERROR (exit {proc.returncode})"
    if proc.returncode != 1:
        return "survived" if proc.returncode == 0 else f"pytest exit {proc.returncode}"
    return "caught"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [known[n] for n in names] if names else MUTANTS:
        outcome = run(mutant)
        failed += outcome != "caught"
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{len(names or MUTANTS) - failed} caught, {failed} not")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
