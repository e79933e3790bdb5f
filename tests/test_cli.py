import json
import subprocess
import sys

import pytest

from meyersig import ledger_from_json, meyer, solve_unknown_germ, varieties
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


def test_tau_golden(capsys, twist_file):
    code, out, err = run_cli(capsys, "tau", "--a1", twist_file, "--a2", twist_file)
    assert code == 0
    assert out == "-1\n"
    assert err == ""


def test_tau_json(capsys, twist_file):
    code, out, _ = run_cli(capsys, "tau", "--json", "--a1", twist_file, "--a2", twist_file)
    assert code == 0
    assert json.loads(out) == {"tau": -1}


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


def test_phi1_golden(capsys, twist_file):
    code, out, _ = run_cli(capsys, "phi1", "--matrix", twist_file)
    assert code == 0
    assert out == "-2/3\n"


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


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tau", "--a1", "/no/such/file", "--a2", "/no/such/file")
    assert code == 2
    assert "error" in err


def test_germ_golden(capsys):
    code, out, _ = run_cli(capsys, "germ", "--name", "R4/F_31")
    assert code == 0
    assert out == "phi=28/17 nbhd_sign=-1 sigma=11/17\n"


def test_germ_unknown_name(capsys):
    code, _, err = run_cli(capsys, "germ", "--name", "R4/F_xyz")
    assert code == 2
    assert "error" in err


def test_veronese_golden(capsys):
    code, out, _ = run_cli(
        capsys, "veronese", "--m", "0", "--degrees", "", "--n", "4", "--d", "2"
    )
    assert code == 0
    assert "deg_DX=40 phi=-1/2" in out
    assert out == "alpha=-5 beta=10 deg_DX=40 phi=-1/2\n"


def test_veronese_excluded_case(capsys):
    code, _, err = run_cli(
        capsys, "veronese", "--m", "0", "--degrees", "", "--n", "2", "--d", "2"
    )
    assert code == 2
    assert "error" in err


def test_ci_golden(capsys):
    code, out, _ = run_cli(capsys, "ci", "--m", "1", "--degrees", "3")
    assert code == 0
    assert out == (
        "sign=-5 chi=9 deg=3 genus=1 deg_DX=12 phi=-2/3 "
        "alpha=-8/3 beta=4 genus_boundary=true\n"
    )


def test_ci_json(capsys):
    code, out, _ = run_cli(capsys, "ci", "--json", "--m", "2", "--degrees", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["deg"] == 6
    assert payload["phi"] == "-11/21"


def test_lasso_power_golden(capsys):
    code, out, _ = run_cli(capsys, "lasso-power", "--phi", "-9/17", "--n", "2")
    assert code == 0
    assert out == "-1/17\n"


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


@pytest.mark.parametrize("n", ["3000000", "9" * 4000], ids=["3e6", "4000-digit"])
def test_veronese_rejects_unprintable_powers_before_computing(capsys, monkeypatch, n):
    def computed(spec):
        pytest.fail("d**(n-2) was computed although its digits are past the limit")

    monkeypatch.setattr(varieties, "veronese_ci_lasso", computed)
    code, out, err = run_cli(
        capsys, "veronese", "--m", "0", "--degrees", "", "--n", n, "--d", "10"
    )
    assert code == 2
    assert out == ""
    assert "too large to print" in err


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


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "segre33 sign=0 chi=4 deg=18 genus=4 deg_DX=34 phi=-9/17"
    assert lines[1] == "veronese-p4-d2 alpha=-5 beta=10 deg_DX=40 phi=-1/2"


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


def test_fibration_check(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIBRATION))
    code, out, _ = run_cli(capsys, "fibration", "--ledger", str(path))
    assert code == 0
    assert out == "total_sign=-146 germ_sum=-146 residual=0 ok=true\n"


def test_fibration_solve_and_round_trip(capsys, tmp_path):
    unsolved = {
        "total_sign": -146,
        "germs": [
            {"name": "R4/F_I", "phi": "-9/17", "count": 277},
            {"name": "R4/F_31", "phi": None, "nbhd_sign": -1, "count": 1},
        ],
    }
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(unsolved))
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


def test_unknown_subcommand_exits_nonzero(capsys):
    code = main(["frobnicate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != ""


def test_missing_argument_exits_nonzero(capsys):
    code = main(["tau", "--a1", "only-one.txt"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "meyersig", "germ", "--name", "R4/F_R"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "phi=2/17 nbhd_sign=0 sigma=2/17\n"
