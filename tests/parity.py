"""A fixed, seeded corpus of library outputs, pinned by one SHA-256 per family.

Run from the repository root:

    python tests/parity.py                   # check every family
    python tests/parity.py power ...         # check the named ones
    python tests/parity.py --update NAME ... # rewrite the named digests

Each family renders its cases one line each, the input and its output, and
hashes the lines; ``parity.json`` holds the digests, that of every line
under "full" and that of the first ``SLICE[family]`` lines under "slice".
``test_parity.py`` checks the slices in Tier-1, in well under a second;
this script checks the full corpus, and ``--update`` rewrites both digests
of each named family. A digest that differs
means an output of that family changed. A change made on purpose rewrites
that family's digest with ``--update`` and names the family and the reason in
CHANGES.md. A digest pins values; it does not prove them: the oracles of the
test suite do, and the digests were taken from code that passes them.
The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "parity.json"
if __name__ == "__main__":  # under pytest, the package comes from the test path
    sys.path.insert(0, str(ROOT / "src"))

from linalg_oracle import fibonacci_matrix, word_product  # noqa: E402
from meyersig import (  # noqa: E402
    MeyerSigError,
    SymplecticElement,
    phi1,
    phi1_word,
    random_transvection_product,
    sl2_word,
    tau,
    tau_form,
)
from meyersig.exactnum import _solve  # noqa: E402

BIG = 2**1100


def _words(r: random.Random, count: int, zeros: bool) -> list[list[tuple[str, int]]]:
    """``count`` seeded words of up to 6 syllables with exponents in -40..40."""
    exponents = [e for e in range(-40, 41) if zeros or e]
    return [
        [(r.choice("ST"), r.choice(exponents)) for _ in range(r.randint(0, 6))]
        for _ in range(count)
    ]


# exponents of thousands of bits and of ten digits, on each generator
HUGE = [(gen, e) for gen in "ST" for e in (BIG, -BIG, 10**9, -(10**9))] + [
    ("S", BIG + k) for k in (1, 2, 3)
]


def phi1_word_family() -> Iterator[str]:
    """``phi1_word`` on seeded words, zero exponents included, and on one
    syllable of thousands of bits."""
    for word in _words(random.Random(20281), 1500, zeros=True) + [[s] for s in HUGE]:
        yield f"{word} {phi1_word(word)}"


def _rows(word: list[tuple[str, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The product of the word as rows, ``((a, b), (c, d))``."""
    a, b, c, d = word_product(word)
    return (a, b), (c, d)


def sl2_word_family() -> Iterator[str]:
    """``sl2_word``'s syllables and their product on every SL(2,Z) matrix
    with entries in [-6, 6], and the product of seeded words."""
    span = range(-6, 7)
    for a, b, c, d in itertools.product(span, repeat=4):
        if a * d - b * c == 1:
            word = sl2_word([[a, b], [c, d]])
            yield f"{(a, b, c, d)} {word.syllables} {_rows(word.syllables)}"
    for word in _words(random.Random(20282), 1500, zeros=False) + [[s] for s in HUGE]:
        yield f"{word} {_rows(word)}"


def phi1_family() -> Iterator[str]:
    """``phi1`` on every SL(2,Z) matrix with entries in [-6, 6], the
    Fibonacci matrices of even n <= 320, seeded words of up to 6 syllables
    with exponents of +-2, of at most 6 and of up to 10^6 in absolute value,
    and [[1, 0], [-n, 1]] for n = 1..10^4, whose word ``sl2_word`` builds
    in n steps and ``phi1`` folds in two (a run of -2 is one divmod)."""
    span = range(-6, 7)
    small = [m for m in itertools.product(span, repeat=4) if m[0] * m[3] - m[1] * m[2] == 1]
    r = random.Random(20286)
    words = [
        [
            (r.choice("ST"), r.choice((r.choice((-2, 2)), r.randint(-6, 6), r.randint(-(10**6), 10**6))))
            for _ in range(r.randint(0, 6))
        ]
        for _ in range(1500)
    ]
    matrices = [
        *small,
        *((a, b, c, d) for (a, b), (c, d) in map(fibonacci_matrix, range(2, 321, 2))),
        *map(word_product, words),
        *((1, 0, -n, 1) for n in range(1, 10**4 + 1)),
    ]
    for a, b, c, d in matrices:
        yield f"{(a, b, c, d)} {phi1([[a, b], [c, d]])}"


def power_family() -> Iterator[str]:
    """``x ** e`` for e in -5..5 on seeded elements at g = 1-6."""
    r = random.Random(20283)
    for g in range(1, 7):
        for length in (0, 1, 3, 5):
            x = random_transvection_product(r, g, length)
            for e in range(-5, 6):
                yield f"{x.mat} {e} {(x**e).mat}"


def tau_family() -> Iterator[str]:
    """``tau`` of both orders and the size of ``tau_form`` on seeded pairs at
    g = 1-6, with (a, a), (a, a^-1), (a, I) and (I, a) for each first element."""
    r = random.Random(20284)
    for g in range(1, 7):
        eye = SymplecticElement.identity(g)
        for _ in range(40):
            a, b = (random_transvection_product(r, g, r.randint(1, 5)) for _ in range(2))
            for x, y in ((a, b), (a, a), (a, a.inverse()), (a, eye), (eye, a)):
                yield f"{x.mat} {y.mat} {tau(x, y)} {tau(y, x)} {len(tau_form(x, y))}"


def solve_family() -> Iterator[str]:
    """``exactnum._solve``, the signed last pivot d = +-det X and the rows of
    d X^-1 Y or ``None``, on seeded square X at n = 1-12 with entries of 3
    to 200 bits and both signs of det, one X in five singular (its last row
    a combination of the others), each against Y = I and a seeded Y of 1 to
    n + 2 columns."""
    r = random.Random(20285)
    for n in range(1, 13):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(10):
            bits = (3, 16, 64, 200)[k % 4]
            x = [[r.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)]
            if k % 5 == 4:
                factors = [r.randint(-3, 3) for _ in range(n - 1)]
                x[-1] = [sum(f * row[j] for f, row in zip(factors, x)) for j in range(n)]
            m = r.randint(1, n + 2)
            seeded = [[r.randint(-(2**bits), 2**bits) for _ in range(m)] for _ in range(n)]
            for y in (eye, seeded):
                yield f"{x} {y} {_solve(x, y)}"


def constructor_family() -> Iterator[str]:
    """``SymplecticElement`` on seeded matrices: accepted, or the type and
    message of the error it raises. The inputs are odd, non-square, empty and
    ragged shapes and non-int entries; every 2x2 matrix with entries in
    [-2, 2] (det 1 is accepted, det -1 and the rest refused); and at g = 1-6
    seeded products of transvections, each also with one entry moved by a
    nonzero k in [-3, 3] and with two of its rows swapped, and seeded even
    matrices with entries in [-2, 2]."""
    cases = [
        [], [[]], [[], []], [[1]], [[1, 0]], [[1], [0]],
        *([[int(i == j) for j in range(n)] for i in range(n)] for n in (3, 5)),
        [[1, 0, 0, 1], [0, 1, 0, 0]], [[1, 0], [0, 1], [0, 0], [0, 0]], [[1, 0], [0]],
        [[1, 0], [0, 1, 0]], [[1, 0], [0, True]], [[1.0, 0], [0, 1]],
        [[Fraction(1), 0], [0, 1]], [[1, 0], [0, "1"]], [[1, None], [0, 1]], ["10", "01"],
    ]
    cases += [[[a, b], [c, d]] for a, b, c, d in itertools.product(range(-2, 3), repeat=4)]
    r = random.Random(20287)
    for g in range(1, 7):
        n = 2 * g
        for _ in range(25):
            m = [list(row) for row in random_transvection_product(r, g, r.randint(0, 5)).mat]
            slipped = [row[:] for row in m]
            slipped[r.randrange(n)][r.randrange(n)] += r.choice((-3, -2, -1, 1, 2, 3))
            swapped = m[:]
            i, k = r.sample(range(n), 2)
            swapped[i], swapped[k] = swapped[k], swapped[i]
            cases += [m, slipped, swapped]
        cases += [[[r.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(25)]
    for m in cases:
        try:
            SymplecticElement(m)
            outcome = "accepted"
        except MeyerSigError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        yield f"{m!r} {outcome}"


FAMILIES = {
    "phi1": phi1_family,
    "phi1-word": phi1_word_family,
    "sl2-word": sl2_word_family,
    "power": power_family,
    "tau": tau_family,
    "solve": solve_family,
    "constructor": constructor_family,
}

# the lines of each family's Tier-1 slice: tau's reach g = 2, solve's n = 4,
# phi1's the small matrices, the Fibonacci ones and 300 words, constructor's
# the shapes, the 2x2 matrices and g = 1-3; the others take tens of
# milliseconds each
SLICE = {
    "phi1": 832, "phi1-word": 60, "sl2-word": 200, "power": 200, "tau": 400, "solve": 80,
    "constructor": 943,
}


def digest(family: str, lines: int | None = None) -> str:
    """The SHA-256 of the family's first ``lines`` lines, or of all of them."""
    h = hashlib.sha256()
    for line in itertools.islice(FAMILIES[family](), lines):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(args: list[str]) -> int:
    update = args[:1] == ["--update"]
    names = args[update:] or list(FAMILIES)
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        print(f"unknown families: {', '.join(unknown)}", file=sys.stderr)
        return 2
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    full, part = pinned.setdefault("full", {}), pinned.setdefault("slice", {})
    failed = 0
    for name in names:
        value = digest(name)
        if update:
            full[name], part[name] = value, digest(name, SLICE[name])
            outcome = "written"
        else:
            outcome = "matches" if full.get(name) == value else "differs"
            failed += outcome != "matches"
        print(f"{name}: {value} {outcome}", flush=True)
    if update:
        pinned = {kind: dict(sorted(pinned[kind].items())) for kind in ("full", "slice")}
        DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
    else:
        print(f"{len(names) - failed} match, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
