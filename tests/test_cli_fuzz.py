"""Random argv and random file contents: every run of ``cli.main`` ends in
exit 0, 2 or 3 and never in a traceback."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from meyersig.cli import main

# an OS argv never holds NUL
text = st.text(st.characters(exclude_characters="\x00"), max_size=10)
# JSON escapes such as "\ud800" decode to lone surrogates, which no UTF-8
# output accepts
surrogate = st.characters(categories=["Cs"])
name = st.text(surrogate | st.characters(exclude_characters="\x00"), max_size=10)
numeral = st.integers(-(10**6), 10**6).map(str) | st.sampled_from(
    ["-9/17", "1/0", "1_0", "\uff13", "1e0", "1.5", "", " 2", "9" * 5000]
)
integer = st.integers(-3, 12).map(str) | numeral
degrees = st.lists(st.integers(-1, 6), max_size=3).map(lambda xs: ",".join(map(str, xs))) | text

matrix_text = st.sampled_from(
    [
        "2 2\n1 -1\n0 1\n",
        "2 2\n0 -1\n1 0\n",
        "2 2\n2 0\n0 1\n",
        "4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
    ]
) | st.builds(
    lambda rows, cols, entries: f"{rows} {cols}\n" + " ".join(entries),
    st.integers(0, 4).map(str) | numeral,
    st.integers(0, 4).map(str) | numeral,
    st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2", "x"]) | numeral, max_size=16),
)
germ_entry = st.fixed_dictionaries(
    {"name": st.sampled_from(["R4/F_I", "R4/F_31"]) | name},
    optional={
        "phi": st.none() | numeral | st.integers() | st.floats() | st.booleans(),
        "nbhd_sign": st.integers() | st.booleans() | text,
        "count": st.integers(-2, 5) | st.floats(),
    },
)
ledger = st.fixed_dictionaries(
    {"total_sign": st.integers() | text, "germs": st.lists(germ_entry, max_size=3)}
)
# one germ with no "phi" is the unknown that --solve prints, name and all
solvable = st.fixed_dictionaries(
    {"total_sign": st.integers(-9, 9), "germs": st.tuples(st.fixed_dictionaries({"name": name}))}
)
any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)
file_bytes = (
    st.binary(max_size=64)
    | matrix_text.map(str.encode)
    | (ledger | any_json).map(lambda obj: json.dumps(obj).encode())
    | st.sampled_from([b"\xff\xfe2 2\n1 0\n0 1\n", b"[" * 100_000, b"1" * 5000])
)

FILE = object()  # stands for the path of a fuzzed file
OPTIONS = {
    "tau": {"--a1": st.just(FILE), "--a2": st.just(FILE)},
    "phi1": {"--matrix": st.just(FILE)},
    "ci": {"--m": integer, "--degrees": degrees},
    "veronese": {"--m": integer, "--degrees": degrees, "--n": integer, "--d": integer},
    "lasso-power": {"--phi": numeral, "--n": integer},
    "germ": {"--name": st.sampled_from(["R4/F_31", "NT5/F_I"]) | text},
    "fibration": {"--ledger": st.just(FILE), "--solve": st.none()},
    "presets": {},
    "frobnicate": {},
}


@st.composite
def argv(draw, command):
    tokens = [command]
    for option, values in OPTIONS[command].items():
        if draw(st.integers(0, 5)):  # mostly present, sometimes missing
            tokens.append(option)
            value = draw(values)
            if value is not None:
                tokens.append(value)
    if draw(st.booleans()):
        tokens.append("--json")
    # --help would end most examples before any output path; it has its own test
    tokens += draw(st.lists(st.sampled_from(["--json", "--n"]) | text, max_size=2))
    return tokens


def run(args: list, files: list[bytes]) -> tuple[int, str]:
    """``main(args)`` with FILE tokens bound to files holding ``files``;
    returns the exit code and stderr. stdout encodes strictly, as a UTF-8
    terminal or pipe does."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            paths.append(os.path.join(tmp, f"input{i}"))
            with open(paths[-1], "wb") as fh:
                fh.write(data)
        resolved = [paths[i % len(paths)] if t is FILE else t for i, t in enumerate(args)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(resolved)
            out.flush()
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=40)
@given(data=st.data(), files=st.lists(file_bytes, min_size=1, max_size=2))
def test_cli_ends_in_a_known_exit_code(command, data, files):
    code, err = run(data.draw(argv(command)), files)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(set(OPTIONS) - {"frobnicate"}))
def test_help_exits_0(command, capsys):
    assert main([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: meyersig " + command)
    assert "Traceback" not in err


@settings(max_examples=40)
@given(ledger=solvable, as_json=st.booleans())
def test_solved_germ_names_print_or_exit_2(ledger, as_json):
    # the one output that echoes a string read from an input file
    args = ["fibration", "--ledger", FILE, "--solve"] + ["--json"] * as_json
    code, err = run(args, [json.dumps(ledger).encode()])
    assert code in (0, 2)
    assert "Traceback" not in err
