"""The three workloads: seeded inputs, the op each one times, and its checks.

Each workload exposes:

* ``setup()``: import the library, build the seeded inputs, warm up;
* ``schedule()``: the endless, deterministic sequence of ops;
* ``call(op)``: one timed op; ``trace_call(op)`` is the in-process op the
  traced run measures (the same call, except for ``cli-oneshot``);
* ``check(records)``: after timing, one failure flag per op plus notes;
* ``shape(records)``: what the measured ops were run on;
* ``reference()`` and ``ref_s``: the reference computation the harness
  times after every op, and its time at reference speed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from oracles import (
    fibonacci_matrix,
    have_sympy,
    matmul,
    phi1_closed_form,
    random_sl2_word,
    sympy_tau,
    transvection_product,
)

CLI_TIMEOUT_S = 60
REF_MATRIX = [[Fraction(3 * i + 5 * j + 1, i + 2 * j + 2) for j in range(6)] for i in range(6)]
REF_REPEATS = 8


@dataclass(frozen=True)
class Op:
    cls: str  # the input class: a genus, a word family, a subcommand
    key: int  # index of the distinct input within its class
    payload: object


def weighted_schedule(classes):
    """Interleave classes by smooth weighted round robin.

    ``classes`` is a list of (name, weight, pool). Every prefix of the
    sequence holds each class within one op of its weight share, so a run
    cut at any time keeps the mix; within a class the pool is cycled.
    """
    total = sum(w for _, w, _ in classes)
    credit = [0] * len(classes)
    taken = [0] * len(classes)
    while True:
        for i, (_, w, _) in enumerate(classes):
            credit[i] += w
        i = max(range(len(classes)), key=credit.__getitem__)
        credit[i] -= total
        pool = classes[i][2]
        yield pool[taken[i] % len(pool)]
        taken[i] += 1


class Workload:
    name = ""
    in_process = True
    # Sets the unit of rescaled times: about the reference's time on the
    # development machine (2 shared vCPUs at 2.1 GHz) in its faster phases,
    # so a rescaled time reads like a wall time there.
    ref_s = 2.0e-3

    def __init__(self, seed: int, root):
        self.seed = seed
        self.root = root
        self.classes: list[tuple[str, int, list[Op]]] = []

    def schedule(self):
        return weighted_schedule(self.classes)

    def _load_library(self):
        """Import the package as a user would; return SymplecticElement."""
        importlib.import_module("meyersig")
        self.meyer = importlib.import_module("meyersig.meyer")
        return importlib.import_module("meyersig.symplectic").SymplecticElement

    def trace_call(self, op):
        return self.call(op)

    def reference(self) -> float:
        """Time exact elimination of a fixed 6x6 rational matrix: the kind of
        work the library does, in code of its own."""
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            m = [row[:] for row in REF_MATRIX]
            for c in range(len(m)):
                for r in range(c + 1, len(m)):
                    f = m[r][c] / m[c][c]
                    for k in range(c, len(m)):
                        m[r][k] -= f * m[c][k]
        return time.perf_counter() - t0

    def block(self, op) -> str:
        """The block of sorted latencies an op belongs to."""
        return op.cls

    def layer_extras(self) -> dict[str, float]:
        return {"cli.process_start_ms": 0.0, "cli.import_ms": 0.0}

    def close(self) -> None:
        pass


class CocycleSweep(Workload):
    """tau_cocycle_defect on seeded transvection-product triples, g in {1,2,3,4,6}."""

    name = "cocycle-sweep"
    # Percent of ops per genus. An op costs about 4x more per genus step, so
    # sorted latencies form one block per genus: p50 lands at 75% of the g=2
    # block and p90 in the middle of the g=6 block, 10 or more points from an
    # edge. The middle of a block is where its order statistics are steadiest.
    WEIGHTS = {1: 20, 2: 40, 3: 12, 4: 8, 6: 20}
    # distinct triples per genus; each is reused two to four times in a
    # 25 s run, and each is checked once after it
    POOL = {1: 12, 2: 24, 3: 8, 4: 6, 6: 12}
    LENGTH = 5  # transvections per element
    SYMPY_PER_GENUS = 2  # triples per genus checked against sympy

    def setup(self):
        element = self._load_library()
        rng = random.Random(self.seed)
        self.classes = []
        for g, weight in self.WEIGHTS.items():
            pool = []
            for key in range(self.POOL[g]):
                mats = [transvection_product(rng, g, self.LENGTH) for _ in range(3)]
                pool.append(Op(f"g{g}", key, (tuple(element(m) for m in mats), mats)))
            self.classes.append((f"g{g}", weight, pool))
        for _, _, pool in self.classes:
            self.call(pool[0])

    def call(self, op):
        return self.meyer.tau_cocycle_defect(*op.payload[0])

    def check(self, records):
        tau = self.meyer.tau
        used = {(op.cls, op.key): op for op, _, _ in records}
        bad = set()
        for ident, op in used.items():
            a, b, c = op.payload[0]
            try:
                taus = [tau(a, b), tau(a * b, c), tau(b, c), tau(a, b * c)]
            except Exception:  # counted against the ops on this input
                bad.add(ident)
                continue
            if any(abs(t) > 4 * a.g for t in taus) or taus[0] + taus[1] != taus[2] + taus[3]:
                bad.add(ident)
        pairs = mismatches = 0
        sympy_note = "ok" if have_sympy() else "skipped: sympy is not installed"
        rng = random.Random(f"sympy-{self.seed}")
        for name, _, _ in self.classes if sympy_note == "ok" else ():
            keys = sorted(k for cls, k in used if cls == name)
            for key in rng.sample(keys, min(self.SYMPY_PER_GENUS, len(keys))):
                op = used[(name, key)]
                (a, b, c), (ma, mb, mc) = op.payload
                for (x, y), (mx, my) in (
                    ((a, b), (ma, mb)),
                    ((a * b, c), (matmul(ma, mb), mc)),
                    ((b, c), (mb, mc)),
                    ((a, b * c), (ma, matmul(mb, mc))),
                ):
                    pairs += 1
                    if tau(x, y) != sympy_tau(mx, my):
                        mismatches += 1
                        bad.add((name, key))
        failed = [
            not ok or value != 0 or (op.cls, op.key) in bad for op, ok, value in records
        ]
        notes = {
            "distinct_triples_checked": len(used),
            "sympy_pairs": pairs,
            "sympy_mismatches": mismatches,
            "sympy": sympy_note,
        }
        return failed, notes

    def shape(self, records):
        return {
            "genus_ops": dict(Counter(op.cls for op, _, _ in records)),
            "genus_weights_pct": {f"g{g}": w for g, w in self.WEIGHTS.items()},
            "distinct_triples": {f"g{g}": n for g, n in self.POOL.items()},
            "transvections_per_element": self.LENGTH,
        }


class Phi1Batch(Workload):
    """phi1 on seeded S/T/T^-1 words and on three Fibonacci matrices."""

    name = "phi1-batch"
    # Random words are short ops, where the per-call phi1_base re-solve
    # dominates; the Fibonacci matrices are long words, where the fold
    # dominates. With 20% of ops on n=160, p90 sits in the middle of that
    # block, and p50 inside the block of short ops (words and n=10).
    FIBONACCI = (10, 40, 160)
    WEIGHTS = {"word": 64, "fib10": 8, "fib40": 8, "fib160": 20}
    WORDS = 120  # distinct random words per seed

    def setup(self):
        element = self._load_library()
        rng = random.Random(self.seed)
        pools: dict[str, list[Op]] = {"word": []}
        for key in range(self.WORDS):
            length, m = random_sl2_word(rng)
            pools["word"].append(Op("word", key, (element(m), m, length)))
        for n in self.FIBONACCI:
            m = fibonacci_matrix(n)
            pools[f"fib{n}"] = [Op(f"fib{n}", 0, (element(m), m, None))]
        self.classes = [(name, w, pools[name]) for name, w in self.WEIGHTS.items()]
        for _, _, pool in self.classes:
            self.call(pool[0])

    def call(self, op):
        return self.meyer.phi1(op.payload[0])

    def block(self, op):
        return "short" if op.cls in ("word", "fib10") else op.cls

    def check(self, records):
        expected = {}
        for op, _, _ in records:
            if (op.cls, op.key) not in expected:
                expected[(op.cls, op.key)] = phi1_closed_form(op.payload[1])
        failed = [not ok or value != expected[(op.cls, op.key)] for op, ok, value in records]
        return failed, {"closed_form_inputs": len(expected)}

    def shape(self, records):
        hist: Counter = Counter()
        for op, _, _ in records:
            length = op.payload[2]
            if length is None:
                hist[op.cls] += 1
            else:
                lo = 5 + (length - 5) // 10 * 10
                hist[f"{lo}-{min(lo + 9, 60)}"] += 1
        return {
            "class_ops": dict(Counter(op.cls for op, _, _ in records)),
            "class_weights_pct": self.WEIGHTS,
            "word_length_hist_ops": dict(sorted(hist.items(), key=lambda kv: (len(kv[0]), kv[0]))),
            "distinct_words": self.WORDS,
            "fibonacci_n": list(self.FIBONACCI),
        }


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit: int
    stdout: bytes | None  # None: computed after timing from the library
    source: tuple | None = None  # ("phi1", matrix) or ("tau", a1, a2)


def _matrix_text(m) -> str:
    return f"{len(m)} {len(m[0])}\n" + "".join(" ".join(map(str, row)) + "\n" for row in m)


LEDGER = {
    "total_sign": -146,
    "germs": [
        {"name": "R4/F_I", "phi": "-9/17", "nbhd_sign": 0, "count": 277},
        {"name": "R4/F_31", "phi": "28/17", "nbhd_sign": -1, "count": 1},
    ],
}
LEDGER_UNSOLVED = {
    "total_sign": -146,
    "germs": [
        {"name": "R4/F_I", "phi": "-9/17", "count": 277},
        {"name": "R4/F_31", "phi": None, "nbhd_sign": -1, "count": 1},
    ],
}
LEDGER_UNKNOWN = {"total_sign": -146, "germs": [{"name": "R4/F_I", "phi": None, "count": 1}]}

PRESETS_TEXT = (
    b"segre33 sign=0 chi=4 deg=18 genus=4 deg_DX=34 phi=-9/17\n"
    b"veronese-p4-d2 alpha=-5 beta=10 deg_DX=40 phi=-1/2\n"
)
PRESETS_JSON = (
    b'[{"name": "segre33", "sign": 0, "chi": 4, "deg": 18, "genus": 4, "deg_DX": 34, '
    b'"phi": "-9/17", "alpha": null, "beta": null}, {"name": "veronese-p4-d2", '
    b'"deg_DX": 40, "phi": "-1/2", "alpha": "-5", "beta": 10}]\n'
)


class CliOneshot(Workload):
    """One ``python -m meyersig ...`` subprocess per op, one at a time."""

    name = "cli-oneshot"
    in_process = False
    ref_s = 40e-3
    PHI1_MATRICES = 8  # seeded SL(2,Z) inputs for phi1
    TAU_GENERA = (1, 1, 2, 2, 3, 3)  # seeded pairs for tau

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self._workdir = tempfile.TemporaryDirectory(prefix=".bench-work-", dir=root)
        self.dir = self._workdir.name
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self._cli = None

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _commands(self) -> list[Command]:
        twist = self._write("A.txt", "2 2\n1 -1\n0 1\n")
        det2 = self._write("det2.txt", "2 2\n2 0\n0 1\n")
        eye4 = self._write("I4.txt", _matrix_text([[int(i == j) for j in range(4)] for i in range(4)]))
        ledger = self._write("ledger.json", json.dumps(LEDGER))
        unsolved = self._write("unsolved.json", json.dumps(LEDGER_UNSOLVED))
        unknown = self._write("unknown.json", json.dumps(LEDGER_UNKNOWN))
        missing = os.path.join(self.dir, "missing.txt")
        vero = ("veronese", "--m", "0", "--degrees", "", "--n", "4", "--d", "2")
        ci = ("ci", "--m", "1", "--degrees", "3")
        # README goldens, their --json forms, and inputs that must exit 2 or 3
        cmds = [
            Command(("tau", "--a1", twist, "--a2", twist), 0, b"-1\n"),
            Command(("tau", "--json", "--a1", twist, "--a2", twist), 0, b'{"tau": -1}\n'),
            Command(("phi1", "--matrix", twist), 0, b"-2/3\n"),
            Command(("phi1", "--json", "--matrix", twist), 0, b'{"phi1": "-2/3"}\n'),
            Command(ci, 0, b"sign=-5 chi=9 deg=3 genus=1 deg_DX=12 phi=-2/3 alpha=-8/3 beta=4 genus_boundary=true\n"),
            Command(
                ci + ("--json",),
                0,
                b'{"sign": -5, "chi": 9, "deg": 3, "genus": 1, "deg_DX": 12, "phi": "-2/3", '
                b'"alpha": "-8/3", "beta": 4, "genus_boundary": true}\n',
            ),
            Command(vero, 0, b"alpha=-5 beta=10 deg_DX=40 phi=-1/2\n"),
            Command(vero + ("--json",), 0, b'{"alpha": "-5", "beta": 10, "deg_DX": 40, "phi": "-1/2"}\n'),
            Command(("lasso-power", "--phi", "-9/17", "--n", "2"), 0, b"-1/17\n"),
            Command(("lasso-power", "--json", "--phi", "-9/17", "--n", "2"), 0, b'{"phi": "-1/17"}\n'),
            Command(("germ", "--name", "R4/F_31"), 0, b"phi=28/17 nbhd_sign=-1 sigma=11/17\n"),
            Command(
                ("germ", "--json", "--name", "R4/F_31"),
                0,
                b'{"phi": "28/17", "nbhd_sign": -1, "sigma": "11/17"}\n',
            ),
            Command(("fibration", "--ledger", ledger), 0, b"total_sign=-146 germ_sum=-146 residual=0 ok=true\n"),
            Command(
                ("fibration", "--json", "--ledger", ledger),
                0,
                b'{"total_sign": -146, "germ_sum": "-146", "residual": "0", "ok": true}\n',
            ),
            Command(("fibration", "--solve", "--ledger", unsolved), 0, b"name=R4/F_31 phi=28/17 nbhd_sign=-1 sigma=11/17\n"),
            Command(
                ("fibration", "--json", "--solve", "--ledger", unsolved),
                0,
                b'{"name": "R4/F_31", "phi": "28/17", "nbhd_sign": -1, "sigma": "11/17"}\n',
            ),
            Command(("presets",), 0, PRESETS_TEXT),
            Command(("presets", "--json"), 0, PRESETS_JSON),
            Command(("phi1", "--matrix", missing), 2, b""),
            Command(("phi1", "--matrix", det2), 2, b""),
            Command(("tau", "--a1", twist, "--a2", eye4), 2, b""),
            Command(("germ", "--name", "R4/F_xyz"), 2, b""),
            Command(("veronese", "--m", "0", "--degrees", "", "--n", "2", "--d", "2"), 2, b""),
            Command(("lasso-power", "--phi", "x", "--n", "2"), 2, b""),
            Command(("frobnicate",), 2, b""),
            Command(("fibration", "--solve", "--ledger", ledger), 3, b""),
            Command(("fibration", "--ledger", unknown), 3, b""),
        ]
        rng = random.Random(self.seed)
        for i in range(self.PHI1_MATRICES):
            _, m = random_sl2_word(rng)
            path = self._write(f"sl2_{i}.txt", _matrix_text(m))
            flag = ("--json",) if i % 2 else ()
            cmds.append(Command(("phi1", *flag, "--matrix", path), 0, None, ("phi1", m)))
        for i, g in enumerate(self.TAU_GENERA):
            a1, a2 = (transvection_product(rng, g, 5) for _ in range(2))
            p1 = self._write(f"tau_{i}_a1.txt", _matrix_text(a1))
            p2 = self._write(f"tau_{i}_a2.txt", _matrix_text(a2))
            flag = ("--json",) if i % 2 else ()
            cmds.append(Command(("tau", *flag, "--a1", p1, "--a2", p2), 0, None, ("tau", a1, a2)))
        return cmds

    def setup(self):
        pools: dict[str, list[Op]] = {}
        for cmd in self._commands():
            cls = cmd.argv[0] if cmd.argv[0] != "frobnicate" else "usage"
            pools.setdefault(cls, []).append(Op(cls, len(pools.get(cls, ())), cmd))
        rng = random.Random(self.seed)
        self.classes = []
        for cls, pool in pools.items():
            rng.shuffle(pool)
            self.classes.append((cls, len(pool), pool))
        self.call(self.classes[0][2][0])

    def _interpreter(self, code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
            check=True,
        )
        return time.perf_counter() - t0

    def reference(self):
        """Time a bare interpreter start. It takes most of every op, and the
        host slows it differently from in-process work."""
        return self._interpreter("pass")

    def call(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "meyersig", *op.payload.argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def block(self, op):
        # only a successful phi1 pays the phi1_base solve on top of start-up
        return "phi1" if op.cls == "phi1" and op.payload.exit == 0 else "other"

    @property
    def cli(self):
        if self._cli is None:
            self._cli = importlib.import_module("meyersig.cli")
        return self._cli

    def trace_call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(op.payload.argv))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def _expected(self, cmd: Command) -> bytes:
        if cmd.stdout is not None:
            return cmd.stdout
        as_json = "--json" in cmd.argv
        element = self._load_library()
        if cmd.source[0] == "phi1":
            value = self.meyer.phi1(element(cmd.source[1]))
            if value != phi1_closed_form(cmd.source[1]):
                raise ValueError(f"phi1 {value} disagrees with the Dedekind-sum closed form")
            text = json.dumps({"phi1": str(value)}) if as_json else str(value)
        else:
            a1, a2 = (element(m) for m in cmd.source[1:])
            value = self.meyer.tau(a1, a2)
            if have_sympy() and value != sympy_tau(*cmd.source[1:]):
                raise ValueError(f"tau {value} disagrees with the sympy oracle")
            text = json.dumps({"tau": value}) if as_json else str(value)
        return (text + "\n").encode()

    def check(self, records):
        expected: dict[tuple, bytes | None] = {}
        for op, _, _ in records:
            ident = (op.cls, op.key)
            if ident not in expected:
                try:
                    expected[ident] = self._expected(op.payload)
                except Exception:  # counted against the ops on this input
                    expected[ident] = None
        failed = []
        for op, ok, value in records:
            want = expected[(op.cls, op.key)]
            good = ok and want is not None
            if good:
                code, out, err = value
                good = code == op.payload.exit and out == want and b"Traceback" not in err
            failed.append(not good)
        notes = {"distinct_commands": len(expected)}
        if not have_sympy():
            notes["sympy"] = "skipped: sympy is not installed"
        return failed, notes

    def shape(self, records):
        cmds = [op.payload for op, _, _ in records]
        return {
            "subcommand_ops": dict(Counter(op.cls for op, _, _ in records)),
            "json_ops": sum("--json" in c.argv for c in cmds),
            "expected_exit_ops": dict(Counter(str(c.exit) for c in cmds)),
            "seed_generated_ops": sum(c.source is not None for c in cmds),
            "distinct_commands": sum(len(pool) for _, _, pool in self.classes),
        }

    def layer_extras(self):
        """Bare interpreter start, and ``import meyersig.cli`` on top of it."""
        bare, imported = [], []
        for _ in range(10):
            bare.append(self.reference() * 1e3)
            imported.append(self._interpreter("import meyersig.cli") * 1e3)
        start = statistics.median(bare)
        return {"cli.process_start_ms": start, "cli.import_ms": statistics.median(imported) - start}

    def close(self):
        self._workdir.cleanup()


WORKLOADS = {w.name: w for w in (CocycleSweep, Phi1Batch, CliOneshot)}
