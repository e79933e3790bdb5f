"""Standing mutants of the library, each with the tests that must catch it.

Run from the repository root:

    python tests/mutants.py                     # every mutant
    python tests/mutants.py reduce-drop-q ...   # the named ones

For each mutant the script copies ``src/`` to a temporary directory,
replaces the one occurrence of ``old`` by ``new`` in ``file`` there, and
runs the mutant's test ids with ``pytest -x`` against that copy. Two
mutants run at a time, each in its own copy and processes. The outcomes
print in the list's order, each with its own wall time, and last the counts
and the total. A mutant is caught when pytest exits 1, a failed test; an
exit of 0 (the mutant survived) or any other (INTERNALERROR, a usage or
collection error) fails the run, and the script exits 1. ``test_mutants.py``
checks in Tier-1 that every old text still occurs exactly once, so the list
cannot rot silently.
The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
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
READER = "tests/test_cli.py::test_reader_agrees_with_argparse"
COLD = "tests/test_cold_start.py::"
ARGPARSE_WORDS = COLD + "test_argparse_reads_the_other_lines_in_its_own_words"
BASE_REFUSES = MEYER + "test_phi1_base_refuses_relations_the_cocycle_contradicts"
CLOSED_FORM_REFUSED = MEYER + "test_phi1_refuses_a_closed_form_the_relations_contradict"
RECORDS = "tests/test_records.py::test_validation_raises_the_documented_error"
ACCEPTS = "tests/test_symplectic.py::test_constructor_accepts_exactly_the_matrices_that_preserve_J"
ONE_PAIR = "tests/test_symplectic.py::test_constructor_refuses_a_matrix_wrong_at_one_row_pair"

MUTANTS = (
    # the Euclidean reduction behind sl2_word and the Rademacher fold behind phi1
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
        'syllables.append(("S", 1))\n        aa, cc = cc, -r',
        'syllables.append(("S", 1))\n        aa, cc = cc, r',
        (REFERENCE, MEYER + "test_sl2_word_is_in_normal_form_and_evaluates_back"),
    ),
    Mutant(
        "reduce-drop-tail-negation",  # -T^-b read as S^2 T^b
        "symplectic.py",
        "tail = dd // cc if cc else aa * bb",
        "tail = dd // cc if cc else bb",
        (REFERENCE, MEYER + "test_sl2_word_is_in_normal_form_and_evaluates_back"),
    ),
    Mutant(
        "reduce-drop-tail-from-phi",
        "symplectic.py",
        "return phi + d // c",
        "return phi",
        (REFERENCE, MEYER + "test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci"),
    ),
    Mutant(
        "reduce-tail-by-ceiling",
        "symplectic.py",
        "tail = dd // cc if cc",
        "tail = -(-dd // cc) if cc",
        (REFERENCE, MEYER + "test_sl2_word_is_in_normal_form_and_evaluates_back"),
    ),
    Mutant(
        "rademacher-tail-by-ceiling",
        "symplectic.py",
        "return phi + d // c",
        "return phi - (-d // c)",
        (REFERENCE, MEYER + "test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci"),
    ),
    Mutant(
        "rademacher-unsigned-tail-at-c0",  # a b read as b when c = 0
        "symplectic.py",
        "return a * b",
        "return b",
        (REFERENCE, MEYER + "test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci"),
    ),
    Mutant(
        "rademacher-unnegated-remainder",
        "symplectic.py",
        "phi += q + 3\n            aa, cc = cc, -r",
        "phi += q + 3\n            aa, cc = cc, r",
        (REFERENCE, MEYER + "test_phi1_matches_the_closed_form_on_every_small_matrix_and_fibonacci"),
    ),
    Mutant(
        "rademacher-run-length-minus-one",
        "symplectic.py",
        "phi += k\n",
        "phi += k - 1\n",
        (REFERENCE, MEYER + "test_rademacher_folds_a_run_of_minus_two_in_one_step"),
    ),
    Mutant(
        "rademacher-run-resumes-with-one-sign",  # the column after a run not of opposite signs
        "symplectic.py",
        "aa, cc = -r - e, r",
        "aa, cc = r + e, r",
        (REFERENCE, MEYER + "test_rademacher_fold_matches_the_dedekind_sum_on_big_entries"),
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
        "            f = row.pop(0)\n            rows[i] = [(p * x - f * y)",
        "            f = row.pop(0)\n            if f == 0:\n                continue\n"
        "            rows[i] = [(p * x - f * y)",
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
        "kernel-undivided-vectors",  # |d| times the primitive vector
        "exactnum.py",
        "basis.append(tuple([x // g for x in v]))",
        "basis.append(tuple(v))",
        (EXACT + "test_kernel_vectors_are_primitive_positive_multiples_of_rref_vectors",),
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
        "            x[c] += t  # x + y, y scattered onto Q\n",
        "            x[c] += 0\n",
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
        "    return _symmetric(tuple([tuple([sum(map(mul, u, img)) for img in images]) for u in sums]))",
        "    return tuple([tuple([sum(map(mul, u, img)) for img in images]) for u in sums])",
        (EXACT + "test_gram_restrict_rejects_asymmetric_result",),
    ),
    Mutant(
        "symmetric-against-itself",  # the transpose check passes every square Gram
        "exactnum.py",
        "    if gram != tuple(zip(*gram)):",
        "    if gram != gram:",
        (EXACT + "test_gram_restrict_rejects_asymmetric_result",
         EXACT + "test_signature_rejects_asymmetric"),
    ),
    Mutant(
        "signature-first-live-pivot",  # pivots on a zero diagonal entry too
        "exactnum.py",
        "            if g[k][k]:\n                break",
        "            if True:\n                break",
        (EXACT + "test_signature_against_root_counting_oracle",),
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
        "_bounded(_signature(form), len(left))",
        "_bounded(_signature(form) * (-1 if len(left) == 8 else 1), len(left))",
        (ORACLE + "test_tau_sums_to_the_signature_of_the_chain_relations",),
    ),
    Mutant(
        "defect-wrong-right-side",  # tau(a2 a3, a3) in place of tau(a2 a3, a1)
        "meyer.py",
        "r1, _matmul(a3.mat, r1[1])",
        "r3, _matmul(a3.mat, r3[1])",
        (MEYER + "test_cocycle_defect_shares_the_four_tau_values",),
    ),
    Mutant(
        "defect-r2-from-a3-pivots",  # tau(a1, a2)'s right side at the pivot columns of A3 - I
        "meyer.py",
        "    r2 = _right(m2)\n",
        "    r2 = _at(_right(m3)[0], m2)\n",
        (MEYER + "test_cocycle_defect_forms_are_tau_form_of_its_four_pairs",),
    ),
    Mutant(
        "defect-p1-short-of-its-last-column",
        "meyer.py",
        "_at(p1, m1)",
        "_at(p1[:-1], m1)",
        (MEYER + "test_cocycle_defect_forms_are_tau_form_of_its_four_pairs",),
    ),
    Mutant(
        "defect-unlifted-right-block",  # (A3 - I)_Q3 eliminated without the factor A2
        "meyer.py",
        "_matmul(a2.mat, r3[1])",
        "r3[1]",
        (MEYER + "test_cocycle_defect_forms_are_tau_form_of_its_four_pairs",),
    ),
    Mutant(
        "defect-left-factor-from-a3",  # A1^-1 - A3 in place of A1^-1 - A2
        "meyer.py",
        "_minus(l1, m2)",
        "_minus(l1, m3)",
        (MEYER + "test_cocycle_defect_forms_are_tau_form_of_its_four_pairs",),
    ),
    # the Cayley path of the defect: the solve, the form and its checks
    Mutant(
        "solve-accepts-a-singular-x",  # a column without a pivot skipped, not refused
        "exactnum.py",
        "        else:\n            return None\n",
        "        else:\n            continue\n",
        (EXACT + "test_solve_is_the_determinant_times_the_inverse",),
    ),
    Mutant(
        "solve-returns-abs-pivot",  # |d| returned with the rows of d X^-1 Y
        "exactnum.py",
        "    return prev, rows",
        "    return abs(prev), rows",
        (EXACT + "test_solve_is_the_determinant_times_the_inverse",
         EXACT + "test_solve_matches_the_oracle_on_big_entries",
         MEYER + "test_cayley_form_is_tau_where_a_minus_i_is_invertible"),
    ),
    Mutant(
        "solve-forward-only",  # the rows above the pivot left as they are
        "exactnum.py",
        "        for i, row in enumerate(rows):\n            f = row.pop(0)\n            rows[i] = [(p * u",
        "        for i, row in enumerate(rows[c:], c):\n            f = row.pop(0)\n"
        "            rows[i] = [(p * u",
        (EXACT + "test_solve_is_the_determinant_times_the_inverse",
         EXACT + "test_solve_matches_the_oracle_on_big_entries"),
    ),
    Mutant(
        "identity-shifted-diagonal",  # the 1 of row i at column i + 1 (mod n)
        "symplectic.py",
        "zero[i + 1 :] for i in range(n)]",
        "zero[i + 1 :] for i in (*range(1, n), 0)]",
        (MEYER + "test_cayley_form_is_tau_where_a_minus_i_is_invertible",
         MEYER + "test_cocycle_defect_shares_the_four_tau_values"),
    ),
    Mutant(
        "cayley-drops-identity",  # -(R_A + R_B)^t J
        "meyer.py",
        "            row[i] += sk\n",
        "            row[i] += 0\n",
        (MEYER + "test_cayley_form_is_tau_where_a_minus_i_is_invertible",
         MEYER + "test_cocycle_defect_shares_the_four_tau_values"),
    ),
    Mutant(
        "cayley-unsigned-swap",  # J's halves swapped without the sign
        "meyer.py",
        "(range(g), -1)",
        "(range(g), 1)",
        (MEYER + "test_cayley_form_is_tau_where_a_minus_i_is_invertible",
         MEYER + "test_cocycle_defect_shares_the_four_tau_values"),
    ),
    Mutant(
        "cayley-rows-without-j",  # S's rows as the Gram
        "meyer.py",
        "for half, sign in ((range(g, n), 1), (range(g), -1)):",
        "for half, sign in ((range(n), 1),):",
        (MEYER + "test_cayley_form_is_tau_where_a_minus_i_is_invertible",
         MEYER + "test_cocycle_defect_shares_the_four_tau_values"),
    ),
    Mutant(
        "cayley-one-scale",  # d_A for both scales
        "meyer.py",
        "sa, sb, sk = sign * db, sign * da, sign * k",
        "sa, sb, sk = sign * da, sign * da, sign * k",
        (MEYER + "test_cayley_form_is_tau_where_a_minus_i_is_invertible",
         MEYER + "test_cocycle_defect_shares_the_four_tau_values"),
    ),
    Mutant(
        "cayley-drops-pivot-sign",  # the signature of J S returned unflipped when d_A d_B < 0
        "meyer.py",
        "value if k > 0 else -value",
        "value",
        (MEYER + "test_cayley_form_is_tau_where_a_minus_i_is_invertible",
         MEYER + "test_cocycle_defect_shares_the_four_tau_values"),
    ),
    Mutant(
        "defect-keeps-a-singular-composite",  # no fall-back when A1 A2 - I or A2 A3 - I is singular
        "meyer.py",
        "        if (solved := _solve(x, y)) is None:\n",
        "        if (solved := _solve(x, y)) is None and len(found) < 3:\n",
        (MEYER + "test_cocycle_defect_counts_its_eliminations_on_each_path",
         MEYER + "test_cocycle_defect_shares_the_four_tau_values"),
    ),
    Mutant(
        "cayley-unbounded",
        "meyer.py",
        "    return _bounded(value if k > 0 else -value, n)",
        "    return value if k > 0 else -value",
        (MEYER + "test_cocycle_defect_checks_each_value_against_the_bound",),
    ),
    # the group layer: the one power loop and an element's power, the
    # symplectic check, sl2_word's normal form, direct_sum's coordinates
    # and a word's letters
    Mutant(
        "power-loop-double-shift",
        "symplectic.py",
        "        e >>= 1\n",
        "        e >>= 2\n",
        ("tests/test_symplectic.py::test_power_is_the_repeated_product",),
    ),
    Mutant(
        "power-unsigned-exponent",  # T^-n as T^n
        "symplectic.py",
        "_power(self if e > 0 else self.inverse(), abs(e)",
        "_power(self if e > 0 else self, abs(e)",
        ("tests/test_symplectic.py::test_word_evaluates_huge_powers_to_their_closed_forms",),
    ),
    Mutant(
        "symplectic-check-without-J",  # r_i . r_j for r_i^t J r_j: A A^t, not A J A^t
        "symplectic.py",
        "form = (*map(neg, row[g:]), *row[:g])",
        "form = row",
        (ACCEPTS,),
    ),
    Mutant(
        "symplectic-check-unnegated-form",  # J's lower block +I: a symmetric form
        "symplectic.py",
        "form = (*map(neg, row[g:]), *row[:g])",
        "form = (*row[g:], *row[:g])",
        (ACCEPTS,),
    ),
    Mutant(
        "symplectic-check-skips-adjacent-rows",  # w(r_i, r_(i+1)) never checked
        "symplectic.py",
        "range(i + 1, n)",
        "range(i + 2, n)",
        (ACCEPTS, ONE_PAIR),
    ),
    Mutant(
        "symplectic-check-partner-off-by-one",  # w(r_i, r_(i+g-1)) = 1 asked for
        "symplectic.py",
        "j == i + g",
        "j == i + g - 1",
        (ACCEPTS,),
    ),
    Mutant(
        "sl2-word-unmerged-tail",  # S then S^2, not S^3
        "symplectic.py",
        "    if aa < 0 and syllables:  # -T^b' = S^2 T^b' after a last S: S S^2 = S^3\n",
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
    Mutant(
        "word-str-keeps-case",  # inverses print as their generator
        "symplectic.py",
        "(gen if e > 0 else gen.lower()) * abs(e)",
        "(gen if e > 0 else gen) * abs(e)",
        ("tests/test_symplectic.py::test_word_letters_and_parsing",),
    ),
    Mutant(
        "word-str-one-letter-per-syllable",  # T^3 prints as T
        "symplectic.py",
        "(gen if e > 0 else gen.lower()) * abs(e)",
        "(gen if e > 0 else gen.lower())",
        ("tests/test_symplectic.py::test_word_letters_and_parsing",),
    ),
    # elements and readers
    Mutant(
        "sl2-entries-unpack-catches-type-error",  # a wrong shape ends in a bare ValueError
        "symplectic.py",
        "    except ValueError:\n        raise NotUnimodular(\"need a 2x2 matrix\")",
        "    except TypeError:\n        raise NotUnimodular(\"need a 2x2 matrix\")",
        (MEYER + "test_phi1_rejects_what_is_not_in_sl2z",
         "tests/test_symplectic.py::test_word_rejects_non_unimodular"),
    ),
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
        "w = (*v[g:], *map(neg, v[:g]))",
        "w = (*map(neg, v[g:]), *v[:g])",
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
        "veronese-power-bound-too-high",  # d**(n-2) computed past the digit limit
        "varieties.py",
        "if limit and d > 1 and n - 2 >= limit / log10(d):",
        "if limit and d > 1 and n - 2 > 1000 * limit / log10(d):",
        ("tests/test_cli.py::test_veronese_rejects_unprintable_powers_before_computing",),
    ),
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
        "    try:  # a numeral the grammar refuses leaves the reader or parse_args as InvalidInput\n"
        "        args = _read_canonical(argv)\n",
        "    args = _read_canonical(argv)\n    try:\n",
        (REFUSED,),
    ),
    Mutant(
        "identity-unbounded",  # identity(2**70) a bare OverflowError
        "symplectic.py",
        " or 4 * g * g > sys.maxsize",
        "",
        (RECORDS,),
    ),
    # refusals of arguments of the wrong kind, through exactnum._kind_arg
    Mutant(
        "entry-name-any-type",  # a null name a bare AttributeError
        "localsig.py",
        '_kind_arg(self.name, str, "name").encode("utf-8")',
        'self.name.encode("utf-8")',
        (RECORDS, "tests/test_localsig.py::test_ledger_json_rejects_malformed"),
    ),
    Mutant(
        "entry-name-skips-utf8",  # a lone surrogate reaches stdout
        "localsig.py",
        '_kind_arg(self.name, str, "name").encode("utf-8")',
        '_kind_arg(self.name, str, "name")',
        (RECORDS, "tests/test_cli.py::test_fibration_rejects_lone_surrogate_names"),
    ),
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
    # the reader of canonical lines: it takes exactly what argparse would read
    # alike, with the same types, and leaves argparse unloaded
    Mutant(
        "reader-accepts-abbreviations",  # tau --a A.txt read as --a1, not refused as ambiguous
        "cli.py",
        '        flag, eq, value = tok.partition("=")\n',
        '        flag, eq, value = tok.partition("=")\n'
        "        flag = next((f for f in kinds if len(flag) > 2 and f.startswith(flag)), flag)\n",
        (READER, ARGPARSE_WORDS),
    ),
    Mutant(
        "reader-repeated-option-last-wins",
        "cli.py",
        "        if flag not in kinds or flag in given:\n",
        "        if flag not in kinds:\n",
        (READER,),
    ),
    Mutant(
        "reader-takes-a-dashed-value",  # germ --name -x looks up '-x'
        "cli.py",
        '            if value is None or value.startswith("-"):\n',
        "            if value is None:\n",
        (READER, "tests/test_cli.py::test_lasso_power_does_not_read_an_option_as_phi"),
    ),
    Mutant(
        "reader-flag-takes-a-value",  # presets --json=1 prints JSON
        "cli.py",
        "            if eq:\n                return None\n            value = True\n",
        "            value = True\n",
        (READER,),
    ),
    Mutant(
        "reader-json-stays-false",
        "cli.py",
        "            value = True\n",
        '            value = flag != "--json"\n',
        (GOLDEN,),
    ),
    Mutant(
        "reader-skips-the-type",  # ci --m 1 hands the string "1" to the library
        "cli.py",
        "values[flag] = value if kind in (None, bool) else kind(value)",
        "values[flag] = value",
        (GOLDEN, READER),
    ),
    Mutant(
        "reader-defers-every-line",  # argparse loads on every call
        "cli.py",
        "    if not argv or argv[0] not in _COMMANDS:\n        return None\n",
        "    return None\n",
        (READER, COLD + "test_a_canonical_line_loads_no_argparse"),
    ),
    Mutant(
        "argparse-at-module-level",
        "cli.py",
        "import functools\nimport sys\n",
        "import argparse\nimport functools\nimport sys\n",
        (COLD + "test_cli_import_loads_no_layer_and_no_dataclasses", COLD + "test_a_canonical_line_loads_no_argparse"),
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


def run(mutant: Mutant) -> tuple[str, float]:
    """The mutant's verdict and the seconds it took."""
    began = time.perf_counter()
    return verdict(mutant), time.perf_counter() - began


def verdict(mutant: Mutant) -> str:
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
    failed, start = 0, time.perf_counter()
    mutants = [known[n] for n in names] if names else MUTANTS
    with ThreadPoolExecutor(2) as pool:
        for mutant, (outcome, seconds) in zip(mutants, pool.map(run, mutants)):
            failed += outcome != "caught"
            print(f"{mutant.name}: {outcome} ({seconds:.1f} s)", flush=True)
    print(f"{len(mutants) - failed} caught, {failed} not, in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
