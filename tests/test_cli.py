import argparse
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from meyersig import InvalidInput, ledger_from_json, meyer, solve_unknown_germ, varieties
from meyersig import cli
from meyersig.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def twist_file(tmp_path):
    path = tmp_path / "A.txt"
    path.write_text("2 2\n1 -1\n0 1\n")
    return str(path)


def test_tau_bound_violation_is_contract_violation(capsys, twist_file, monkeypatch):
    monkeypatch.setattr(meyer, "_signature", lambda form: 5)
    code, out, err = run_cli(capsys, "tau", "--a1", twist_file, "--a2", twist_file)
    assert code == 3
    assert out == ""
    assert err.startswith("error") and err.count("\n") == 1


def test_tau_genus_mismatch_is_input_error(capsys, twist_file, tmp_path):
    big = tmp_path / "B.txt"
    big.write_text("4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, err = run_cli(capsys, "tau", "--a1", twist_file, "--a2", str(big))
    assert code == 2
    assert "error" in err


def test_phi1_rejects_bad_matrix(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n2 0\n0 1\n")
    code, _, err = run_cli(capsys, "phi1", "--matrix", str(bad))
    assert code == 2
    assert "error" in err
    wide = tmp_path / "wide.txt"
    wide.write_text("2 4\n1 0 0 0\n0 1 0 0\n")
    assert run_cli(capsys, "phi1", "--matrix", str(wide)) == (
        2, "", "error: need an even square matrix of size >= 2, got 2x4\n"
    )
    odd = tmp_path / "odd.txt"
    odd.write_text("2 3\n1 0 0\n0 1 0\n")
    assert run_cli(capsys, "phi1", "--matrix", str(odd)) == (
        2, "", "error: need an even square matrix of size >= 2, got 2x3\n"
    )


@pytest.mark.parametrize("command", ["phi1", "tau"])
def test_matrix_files_hold_integers(capsys, twist_file, tmp_path, command):
    def run(path):
        args = ["--matrix", path] if command == "phi1" else ["--a1", path, "--a2", twist_file]
        return run_cli(capsys, command, *args)

    half = tmp_path / "half.txt"
    half.write_text("2 2\n1 1/2\n0 1\n")
    assert run(str(half)) == (2, "", "error: entries must be integers\n")
    # tokens keep the p/q grammar, so an integral p/q reads as its integer
    integral = tmp_path / "integral.txt"
    integral.write_text("2 2\n2/2 -3/3\n0/7 +4/4\n")
    assert run(str(integral)) == run(twist_file)


def test_phi1_of_a_long_run_of_minus_two_is_read_at_once(capsys, tmp_path):
    # [[1, 0], [-10^8, 1]] = S T^(10^8) S^-1: 10^8 quotients -2, folded in one step
    path = tmp_path / "lower.txt"
    path.write_text("2 2\n1 0\n-100000000 1\n")
    start = time.perf_counter()
    assert run_cli(capsys, "phi1", "--matrix", str(path)) == (0, "-99999997/3\n", "")
    assert time.perf_counter() - start < 1.0


def test_memory_error_prints_one_error_line(capsys, twist_file, monkeypatch):
    def exhausted(a):
        raise MemoryError

    monkeypatch.setattr(meyer, "phi1", exhausted)
    assert run_cli(capsys, "phi1", "--matrix", twist_file) == (2, "", "error: out of memory\n")


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tau", "--a1", "/no/such/file", "--a2", "/no/such/file")
    assert code == 2
    assert "error" in err


def test_germ_unknown_name(capsys):
    code, _, err = run_cli(capsys, "germ", "--name", "R4/F_xyz")
    assert code == 2
    assert "error" in err


def test_veronese_excluded_case(capsys):
    code, _, err = run_cli(
        capsys, "veronese", "--m", "0", "--degrees", "", "--n", "2", "--d", "2"
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("option", ["--p", "--ph"])
def test_lasso_power_reads_a_negative_value_after_an_abbreviated_option(capsys, option):
    assert run_cli(capsys, "lasso-power", option, "-9/17", "--n", "2") == (0, "-1/17\n", "")
    assert run_cli(capsys, "lasso-power", option, "9/17", "--n", "2") == (0, "35/17\n", "")


@pytest.mark.parametrize(
    "argv",
    [["--phi", "--n", "2"], ["--phi", "--json", "--n", "2"], ["--ph", "--n", "2"], ["--n", "2", "--phi", "--json"]],
    ids=["before-n", "before-json", "abbreviated", "last"],
)
def test_lasso_power_does_not_read_an_option_as_phi(capsys, argv):
    code, out, err = run_cli(capsys, "lasso-power", *argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --phi: expected one argument\n")


def test_lasso_power_rejects_bad_input(capsys):
    code, _, _ = run_cli(capsys, "lasso-power", "--phi", "x", "--n", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "lasso-power", "--phi", "1/2", "--n", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "lasso-power", "--phi", "1.5", "--n", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ci", "--m", "1", "--degrees", "\uff13"],
        ["ci", "--m", "1", "--degrees", "1_0"],
        ["ci", "--m", "\uff11", "--degrees", "3"],
        ["veronese", "--m", "0", "--degrees", "", "--n", "\uff14", "--d", "2"],
        ["veronese", "--m", "0", "--degrees", "", "--n", "4", "--d", "2_0"],
        ["lasso-power", "--phi", "1", "--n", "1_0"],
        ["lasso-power", "--phi", "1", "--n", " 2"],
    ],
    ids=[
        "ci-degree-fullwidth",
        "ci-degree-underscore",
        "ci-m",
        "veronese-n",
        "veronese-d",
        "lasso-n-underscore",
        "lasso-n-space",
    ],
)
def test_integer_options_use_the_ascii_grammar(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "option", [["phi1", "--matrix"], ["fibration", "--ledger"]], ids=["phi1", "fibration"]
)
def test_non_utf8_file_is_input_error(capsys, tmp_path, option):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe2 2\n1 0\n0 1\n")
    code, out, err = run_cli(capsys, *option, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error") and err.count("\n") == 1


@pytest.mark.parametrize("n", [3_000_000, int("9" * 4000)], ids=["3e6", "4000-digit"])
def test_veronese_rejects_unprintable_powers_before_computing(capsys, n):
    # the library refuses d**(n-2) before computing it: at the 4000-digit n the
    # power would never finish, so only a check made before it lets this pass
    message = f"result too large to print (over {sys.get_int_max_str_digits()} digits)"
    with pytest.raises(InvalidInput) as info:
        varieties.veronese_ci_lasso(varieties.CISpec(0, (), n, 10))
    assert str(info.value) == message
    code, out, err = run_cli(
        capsys, "veronese", "--m", "0", "--degrees", "", "--n", str(n), "--d", "10"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_veronese_bound_keeps_printable_results(capsys):
    # d**(n-2) has 1998 digits and prints: the bound counts decimal digits
    code, out, err = run_cli(
        capsys, "veronese", "--m", "0", "--degrees", "", "--n", "2000", "--d", "10"
    )
    assert code == 0
    assert err == ""
    assert "deg_DX=16208100000" in out


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["veronese", "--m", "0", "--degrees", "", "--n", "6000", "--d", "10"],
        ["ci", "--m", "2", "--degrees", ",".join(["9" * 3000] * 2)],
    ],
    ids=["veronese", "ci"],
)
def test_result_too_large_to_print_is_input_error(capsys, argv, as_json):
    code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 2
    assert out == ""
    assert err.startswith("error") and err.count("\n") == 1


def test_presets_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "presets")
    _, second, _ = run_cli(capsys, "presets")
    assert first == second


FIBRATION = {
    "total_sign": -146,
    "germs": [
        {"name": "R4/F_I", "phi": "-9/17", "nbhd_sign": 0, "count": 277},
        {"name": "R4/F_31", "phi": "28/17", "nbhd_sign": -1, "count": 1},
    ],
}

UNSOLVED = {
    "total_sign": -146,
    "germs": [
        {"name": "R4/F_I", "phi": "-9/17", "count": 277},
        {"name": "R4/F_31", "phi": None, "nbhd_sign": -1, "count": 1},
    ],
}


def test_fibration_solve_and_round_trip(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(UNSOLVED))
    code, out, _ = run_cli(capsys, "fibration", "--ledger", str(path), "--solve")
    assert code == 0
    assert out == "name=R4/F_31 phi=28/17 nbhd_sign=-1 sigma=11/17\n"

    # feed the solved value back in as a known germ: residual must vanish
    led = ledger_from_json(path.read_text())
    solved = solve_unknown_germ(led)
    completed = {
        "total_sign": -146,
        "germs": [
            {"name": "R4/F_I", "phi": "-9/17", "count": 277},
            {
                "name": solved.name,
                "phi": str(solved.phi),
                "nbhd_sign": solved.nbhd_sign,
                "count": solved.count,
            },
        ],
    }
    path.write_text(json.dumps(completed))
    code, out, _ = run_cli(capsys, "fibration", "--ledger", str(path))
    assert code == 0
    assert "residual=0 ok=true" in out


def test_fibration_solve_without_unknown_is_contract_violation(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIBRATION))
    code, _, err = run_cli(capsys, "fibration", "--ledger", str(path), "--solve")
    assert code == 3
    assert "error" in err


def test_fibration_check_with_unknown_is_contract_violation(capsys, tmp_path):
    path = tmp_path / "fib.json"
    payload = dict(FIBRATION, germs=[{"name": "R4/F_I", "phi": None, "count": 1}])
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "fibration", "--ledger", str(path))
    assert code == 3
    assert "error" in err


def test_fibration_rejects_non_rational_phi(capsys, tmp_path):
    path = tmp_path / "fib.json"
    payload = dict(FIBRATION, germs=[{"name": "R4/F_I", "phi": "1e0", "count": 1}])
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "fibration", "--ledger", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_fibration_rejects_lone_surrogate_names(capsys, tmp_path, mode):
    # "\ud800" is valid JSON but decodes to a lone surrogate, which stdout
    # cannot encode; both output modes refuse it up front
    path = tmp_path / "fib.json"
    path.write_text('{"total_sign": 0, "germs": [{"name": "\\ud800", "phi": null, "count": 1}]}')
    code, out, err = run_cli(capsys, "fibration", "--ledger", str(path), "--solve", *mode)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_fibration_bad_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "fibration", "--ledger", str(path))
    assert code == 2
    assert "error" in err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "meyersig", "germ", "--name", "R4/F_R"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "phi=2/17 nbhd_sign=0 sigma=2/17\n"


VERONESE = ["veronese", "--m", "0", "--degrees", "", "--n", "4", "--d", "2"]
# argv, text output, --json output: every subcommand, byte for byte
GOLDEN = [
    (["tau", "--a1", "A.txt", "--a2", "A.txt"], "-1", '{"tau": -1}'),
    (["phi1", "--matrix", "A.txt"], "-2/3", '{"phi1": "-2/3"}'),
    (
        ["ci", "--m", "1", "--degrees", "3"],
        "sign=-5 chi=9 deg=3 genus=1 deg_DX=12 phi=-2/3 alpha=-8/3 beta=4 genus_boundary=true",
        '{"sign": -5, "chi": 9, "deg": 3, "genus": 1, "deg_DX": 12, "phi": "-2/3", '
        '"alpha": "-8/3", "beta": 4, "genus_boundary": true}',
    ),
    (
        ["ci", "--m", "2", "--degrees", "2,3"],
        "sign=-16 chi=24 deg=6 genus=4 deg_DX=42 phi=-11/21 alpha=-11/3 beta=7",
        '{"sign": -16, "chi": 24, "deg": 6, "genus": 4, "deg_DX": 42, "phi": "-11/21", '
        '"alpha": "-11/3", "beta": 7}',
    ),
    (
        VERONESE,
        "alpha=-5 beta=10 deg_DX=40 phi=-1/2",
        '{"alpha": "-5", "beta": 10, "deg_DX": 40, "phi": "-1/2"}',
    ),
    (["lasso-power", "--phi", "-9/17", "--n", "2"], "-1/17", '{"phi": "-1/17"}'),
    (
        ["germ", "--name", "R4/F_31"],
        "phi=28/17 nbhd_sign=-1 sigma=11/17",
        '{"phi": "28/17", "nbhd_sign": -1, "sigma": "11/17"}',
    ),
    (
        ["fibration", "--ledger", "fib.json"],
        "total_sign=-146 germ_sum=-146 residual=0 ok=true",
        '{"total_sign": -146, "germ_sum": "-146", "residual": "0", "ok": true}',
    ),
    (
        ["fibration", "--ledger", "unsolved.json", "--solve"],
        "name=R4/F_31 phi=28/17 nbhd_sign=-1 sigma=11/17",
        '{"name": "R4/F_31", "phi": "28/17", "nbhd_sign": -1, "sigma": "11/17"}',
    ),
    (
        ["presets"],
        "segre33 sign=0 chi=4 deg=18 genus=4 deg_DX=34 phi=-9/17\n"
        "veronese-p4-d2 alpha=-5 beta=10 deg_DX=40 phi=-1/2",
        '[{"name": "segre33", "sign": 0, "chi": 4, "deg": 18, "genus": 4, "deg_DX": 34, '
        '"phi": "-9/17", "alpha": null, "beta": null}, {"name": "veronese-p4-d2", '
        '"deg_DX": 40, "phi": "-1/2", "alpha": "-5", "beta": 10}]',
    ),
]


@pytest.fixture
def input_files(tmp_path, monkeypatch):
    """A.txt, fib.json and unsolved.json in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A.txt").write_text("2 2\n1 -1\n0 1\n")
    (tmp_path / "fib.json").write_text(json.dumps(FIBRATION))
    (tmp_path / "unsolved.json").write_text(json.dumps(UNSOLVED))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, text, as_json_text",
    GOLDEN,
    ids=["tau", "phi1", "ci", "ci-genus-4", "veronese", "lasso-power", "germ", "fibration", "fibration-solve", "presets"],
)
def test_output_is_exact(capsys, input_files, argv, text, as_json_text, as_json):
    # compared as text, not through json.loads, so key order and spacing count
    out = as_json_text if as_json else text
    assert run_cli(capsys, *argv, *(["--json"] if as_json else [])) == (0, out + "\n", "")


USAGE = (
    "usage: meyersig [-h]\n"
    "                {tau,phi1,ci,veronese,lasso-power,germ,fibration,presets} ...\n"
)
HELP = USAGE + """
Exact computation of the signature cocycle on the symplectic group, the Meyer
function on SL(2,Z), lasso values for embedded projective varieties, and local
signatures of fiber germs.

positional arguments:
  {tau,phi1,ci,veronese,lasso-power,germ,fibration,presets}
    tau                 signature cocycle of two symplectic matrices
    phi1                Meyer function on an SL(2,Z) matrix
    ci                  complete intersection surface invariants and lasso
                        value
    veronese            lasso value for a Veronese-embedded complete
                        intersection
    lasso-power         Meyer value on the n-th power of a lasso
    germ                look up a built-in fiber germ
    fibration           check or solve a fibration ledger (JSON file)
    presets             list the named variety presets

options:
  -h, --help            show this help message and exit
"""
TAU = ["tau", "--a1", "A.txt", "--a2", "A.txt"]
# argv, exit code, stdout, stderr: what argparse decides, in its own words
# (Python 3.11's), at an 80-column terminal
PARSED = [
    ([], 2, "", USAGE + "meyersig: error: the following arguments are required: command\n"),
    (
        ["frobnicate"],
        2,
        "",
        USAGE + "meyersig: error: argument command: invalid choice: 'frobnicate' (choose from "
        "'tau', 'phi1', 'ci', 'veronese', 'lasso-power', 'germ', 'fibration', 'presets')\n",
    ),
    (
        ["tau", "--a1", "A.txt"],
        2,
        "",
        "usage: meyersig tau [-h] [--json] --a1 A1 --a2 A2\n"
        "meyersig tau: error: the following arguments are required: --a2\n",
    ),
    (TAU + ["extra"], 2, "", USAGE + "meyersig: error: unrecognized arguments: extra\n"),
    (["--json"] + TAU, 2, "", USAGE + "meyersig: error: unrecognized arguments: --json\n"),
    (["phi1", "--matrix", "A.txt", "tau"], 2, "", USAGE + "meyersig: error: unrecognized arguments: tau\n"),
    # the value names another command; the parser is still germ's
    (["germ", "--name", "presets"], 2, "", "error: unknown germ 'presets'\n"),
    (["presets", "--jso"], 0, GOLDEN[-1][2] + "\n", ""),
    (["-h"], 0, HELP, ""),
]


@pytest.mark.parametrize(
    "argv, code, out, err",
    PARSED,
    ids=["no-command", "unknown-command", "missing-option", "extra", "json-first", "command-as-extra",
         "command-as-value", "abbreviated-json", "help"],
)
def test_argparse_decisions_are_exact(capsys, input_files, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_parser_builds_the_dispatched_subparser_alone(command):
    # every command stays a choice; argparse runs one subparser, so one is built
    parser = cli.build_parser.__wrapped__(command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)
    assert [name for name, p in sub.choices.items() if p is not None] == [command] * (command is not None)


def test_subparser_is_built_from_every_keyword_argparse_forwards(monkeypatch):
    # an argparse whose add_parser forwards a keyword beyond prog, as newer
    # ones do, still gets the dispatched command's parser, with that keyword
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction, "add_parser",
        lambda self, name, **kwargs: add_parser(self, name, allow_abbrev=False, **kwargs),
    )
    parser = cli.build_parser.__wrapped__("tau")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices["tau"].allow_abbrev is False
    assert parser.parse_args(["tau", "--a1", "A", "--a2", "B"]).func is cli.cmd_tau


# argv, the one stderr line after "error: "; numerals read by argparse and
# values below a bound are refused in the library's words, with no usage text
REFUSED = [
    (["ci", "--m", "x", "--degrees", "3"], "bad integer 'x'"),
    (["veronese", "--m", "0", "--degrees", "", "--n", "x", "--d", "2"], "bad integer 'x'"),
    (["lasso-power", "--phi", "1", "--n", "9" * 5000], "bad integer: too many digits"),
    (["lasso-power", "--phi", "x", "--n", "2"], "bad rational 'x'"),
    (["veronese", "--m", "1", "--degrees", "1", "--n", "4", "--d", "2"], "degree must be >= 2, got 1"),
    (["veronese", "--m", "0", "--degrees", "", "--n", "1", "--d", "2"], "n must be >= 2, got 1"),
    (["veronese", "--m", "0", "--degrees", "", "--n", "4", "--d", "0"], "d must be >= 1, got 0"),
    (["lasso-power", "--phi", "1", "--n", "0"], "power must be >= 1, got 0"),
    (["ci", "--m", "0", "--degrees", ""], "m = 0 is excluded: a surface needs m >= 1 degrees"),
    (["fibration", "--ledger", "big.json"], "bad ledger JSON: an integer has too many digits"),
]


@pytest.mark.parametrize(
    "argv, err",
    REFUSED,
    ids=[
        "ci-m",
        "veronese-n",
        "lasso-n-5000-digits",
        "lasso-phi",
        "veronese-degree-bound",
        "veronese-n-bound",
        "veronese-d-bound",
        "lasso-n-bound",
        "ci-m0",
        "ledger-5000-digits",
    ],
)
def test_refused_numbers_print_one_error_line(capsys, input_files, argv, err):
    Path("big.json").write_text('{"total_sign": ' + "1" * 5000 + ', "germs": []}')
    assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")


README =(Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_examples() -> list[tuple[list[str], str]]:
    """The README's ``meyersig ... # -> output`` examples; the arrow may stand
    on the line below the command."""
    lines = README.splitlines()
    examples = []
    for line, below in zip(lines, lines[1:] + [""]):
        if line.startswith("meyersig "):
            command, _, out = line.partition("# -> ")
            if not out and below.startswith("# -> "):
                out = below.removeprefix("# -> ")
            if out:
                examples.append((shlex.split(command)[1:], out))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_shows_an_example_of_every_computing_subcommand():
    shown = {argv[0] for argv, _ in README_EXAMPLES}
    assert shown == {"tau", "phi1", "ci", "veronese", "lasso-power", "germ", "fibration"}


@pytest.mark.parametrize("argv, out", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_examples(capsys, input_files, argv, out):
    # fib.json is the ledger the README shows, with one germ's phi null
    Path("fib.json").write_text(README.split("```json\n")[1].split("```")[0])
    assert run_cli(capsys, *argv) == (0, out + "\n", "")
