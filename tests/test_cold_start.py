"""What a fresh ``meyersig`` process loads, and what it prints.

Every test here starts a new interpreter under ``python -S``, with only the
source tree on ``PYTHONPATH``: modules that ``site`` or an earlier test
imported cannot hide a missing import or an import that came back. The
in-process CLI tests in ``test_cli.py`` run after every module is loaded and
so cannot catch a subcommand handler that forgot to import its layer.
The last test checks the pytest process itself: it loads the plugins
``pyproject.toml`` names and none found by scanning installed packages.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import meyersig
from test_cli import PARSED

ROOT = Path(__file__).resolve().parents[1]
# the tree of the package under test, which a mutant run puts on PYTHONPATH
SRC = Path(meyersig.__file__).resolve().parents[1]

# runs the CLI on its arguments, then lists every loaded module on stderr
PROBE = (
    "import sys\n"
    "from meyersig.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def fresh_python(*args, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=cwd, env=env, capture_output=True, timeout=60
    )


def probe(*argv, cwd=None) -> tuple[int, str, str, set[str]]:
    """The CLI's exit code, stdout and stderr on ``argv``, and the modules it loaded."""
    result = fresh_python("-c", PROBE, *argv, cwd=cwd)
    head, sep, modules = result.stderr.decode().rstrip("\n").rpartition("\n")
    return result.returncode, result.stdout.decode(), head + sep, set(modules.split())


def loaded_by(*argv, cwd=None) -> set[str]:
    code, _, err, modules = probe(*argv, cwd=cwd)
    assert code == 0, err
    return modules


# argparse imports gettext, whose first message lookup imports locale
ARGPARSE = {"argparse", "gettext", "locale"}


def test_cli_import_loads_no_layer_and_no_dataclasses():
    result = fresh_python("-c", "import sys, meyersig.cli; print(*sorted(sys.modules))")
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.decode().split())
    assert "meyersig.cli" in loaded
    unwanted = {"dataclasses", "inspect", "json", "random", "typing", "meyersig.symplectic"} | ARGPARSE
    assert loaded & unwanted == set()


def test_a_public_name_is_resolved_once():
    # the first read imports the name's module and keeps the name in the package
    result = fresh_python(
        "-c",
        "import meyersig\n"
        "assert 'tau' not in vars(meyersig)\n"
        "assert meyersig.tau is meyersig.meyer.tau\n"
        "assert vars(meyersig)['tau'] is meyersig.meyer.tau\n",
    )
    assert result.returncode == 0, result.stderr


def test_ci_loads_only_varieties():
    loaded = loaded_by("ci", "--m", "1", "--degrees", "3")
    assert "meyersig.varieties" in loaded
    assert loaded & {"meyersig.symplectic", "meyersig.meyer", "meyersig.localsig"} == set()


def test_lasso_power_loads_no_group_code():
    loaded = loaded_by("lasso-power", "--phi", "-9/17", "--n", "2")
    assert "meyersig.varieties" in loaded
    assert loaded & {"meyersig.symplectic", "meyersig.meyer", "meyersig.localsig"} == set()


def test_tau_loads_no_typing_or_random(tmp_path):
    # annotations need neither module: they are never evaluated
    matrix = tmp_path / "A.txt"
    matrix.write_text("2 2\n1 -1\n0 1\n")
    loaded = loaded_by("tau", "--a1", str(matrix), "--a2", str(matrix))
    assert "meyersig.meyer" in loaded
    assert loaded & {"typing", "random"} == set()


def test_germ_loads_only_localsig():
    loaded = loaded_by("germ", "--name", "R4/F_I")
    assert "meyersig.localsig" in loaded
    assert loaded & {"meyersig.meyer", "meyersig.symplectic", "meyersig.varieties"} == set()


@pytest.mark.parametrize(
    "argv",
    [["ci", "--m", "1", "--degrees", "3"], ["germ", "--name", "R4/F_I"], ["tau", "--a1", "A.txt", "--a2", "A.txt"],
     ["presets"]],
    ids=["ci", "germ", "tau", "presets"],
)
def test_text_output_loads_no_json(tmp_path, argv):
    (tmp_path / "A.txt").write_text("2 2\n1 -1\n0 1\n")
    assert "json" not in loaded_by(*argv, cwd=tmp_path)


CANONICAL = {
    "tau": ["tau", "--a1", "A.txt", "--a2", "A.txt"],
    "phi1": ["phi1", "--matrix", "A.txt"],
    "germ": ["germ", "--name", "R4/F_31"],
    "fibration-json": ["fibration", "--json", "--ledger", "fib.json", "--solve"],
    "presets": ["presets"],
}


@pytest.mark.parametrize("argv", CANONICAL.values(), ids=list(CANONICAL))
def test_a_canonical_line_loads_no_argparse(tmp_path, argv):
    (tmp_path / "A.txt").write_text("2 2\n1 -1\n0 1\n")
    (tmp_path / "fib.json").write_text(LEDGER)
    assert loaded_by(*argv, cwd=tmp_path) & ARGPARSE == set()


@pytest.mark.parametrize("argv", [["-h"], ["frobnicate"], ["presets", "--jso"]], ids=["help", "unknown", "abbreviated"])
def test_argparse_reads_the_other_lines_in_its_own_words(argv):
    code, out, err, modules = probe(*argv)
    assert ARGPARSE <= modules
    expected = next((c, o, e) for a, c, o, e in PARSED if a == argv)
    assert (code, out, err) == expected


def test_json_output_loads_json():
    assert "json" in loaded_by("ci", "--json", "--m", "1", "--degrees", "3")


def imported_modules(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_library_does_not_import_dataclasses():
    # dataclasses imports inspect, which alone doubles the CLI's start-up
    sources = sorted((SRC / "meyersig").glob("*.py"))
    assert sources
    imports = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(name.split(".")[0] == "dataclasses" for name in imported_modules(node))
    ]
    assert imports == []


LEDGER = (
    '{"total_sign": -146, "germs": ['
    '{"name": "R4/F_I", "phi": "-9/17", "nbhd_sign": 0, "count": 277}, '
    '{"name": "R4/F_31", "phi": null, "nbhd_sign": -1, "count": 1}]}'
)

GOLDENS = {
    "tau": (["tau", "--a1", "A.txt", "--a2", "A.txt"], b"-1\n"),
    "phi1": (["phi1", "--json", "--matrix", "A.txt"], b'{"phi1": "-2/3"}\n'),
    "ci": (
        ["ci", "--m", "1", "--degrees", "3"],
        b"sign=-5 chi=9 deg=3 genus=1 deg_DX=12 phi=-2/3 alpha=-8/3 beta=4 genus_boundary=true\n",
    ),
    "veronese": (
        ["veronese", "--json", "--m", "0", "--degrees", "", "--n", "4", "--d", "2"],
        b'{"alpha": "-5", "beta": 10, "deg_DX": 40, "phi": "-1/2"}\n',
    ),
    "lasso-power": (["lasso-power", "--phi", "-9/17", "--n", "2"], b"-1/17\n"),
    "germ": (["germ", "--name", "R4/F_I"], b"phi=-9/17 nbhd_sign=0 sigma=-9/17\n"),
    "fibration": (
        ["fibration", "--ledger", "fib.json", "--solve"],
        b"name=R4/F_31 phi=28/17 nbhd_sign=-1 sigma=11/17\n",
    ),
    "presets": (
        ["presets"],
        b"segre33 sign=0 chi=4 deg=18 genus=4 deg_DX=34 phi=-9/17\n"
        b"veronese-p4-d2 alpha=-5 beta=10 deg_DX=40 phi=-1/2\n",
    ),
}


@pytest.mark.parametrize("argv, stdout", GOLDENS.values(), ids=list(GOLDENS))
def test_subcommand_golden_in_a_fresh_process(tmp_path, argv, stdout):
    (tmp_path / "A.txt").write_text("2 2\n1 -1\n0 1\n")
    (tmp_path / "fib.json").write_text(LEDGER)
    result = fresh_python("-m", "meyersig", *argv, cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, b"")


def test_every_public_name_resolves_to_its_defining_object():
    assert len(meyersig.__all__) == len(set(meyersig.__all__)) == 59
    listed = dir(meyersig)
    for name in meyersig.__all__:
        value = getattr(meyersig, name)
        assert value.__module__.startswith("meyersig.")
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert name in listed


def test_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        meyersig.no_such_name
    with pytest.raises(ImportError):
        exec("from meyersig import no_such_name", {})


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(from fractions.*?)```", readme, re.S)
    assert "from meyersig import (" in example
    exec(compile(example, "README.md", "exec"), {})


def test_pytest_loads_only_the_plugin_it_names(request):
    plugins = request.config.pluginmanager
    assert plugins.list_plugin_distinfo() == []
    assert plugins.hasplugin("_hypothesis_pytestplugin")
