"""A fixed, seeded corpus of library outputs, pinned by one SHA-256 per family.

Run from the repository root:

    python tests/parity.py                   # check every family
    python tests/parity.py power ...         # check the named ones
    python tests/parity.py --update NAME ... # rewrite the named digests

Each family renders its cases one line each, the input and its output, and
hashes the lines; ``parity.json`` holds the digests. A digest that differs
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "parity.json"
sys.path.insert(0, str(ROOT / "src"))

from meyersig import SL2Word, phi1_word, random_transvection_product, sl2_word  # noqa: E402

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


def sl2_word_family() -> Iterator[str]:
    """``sl2_word``'s syllables and their ``evaluate`` on every SL(2,Z) matrix
    with entries in [-6, 6], and ``evaluate`` on seeded words."""
    span = range(-6, 7)
    for a, b, c, d in itertools.product(span, repeat=4):
        if a * d - b * c == 1:
            word = sl2_word([[a, b], [c, d]])
            yield f"{(a, b, c, d)} {word.syllables} {word.evaluate().mat}"
    for word in _words(random.Random(20282), 1500, zeros=False) + [[s] for s in HUGE]:
        yield f"{word} {SL2Word(tuple(word)).evaluate().mat}"


def power_family() -> Iterator[str]:
    """``x ** e`` for e in -5..5 on seeded elements at g = 1-6."""
    r = random.Random(20283)
    for g in range(1, 7):
        for length in (0, 1, 3, 5):
            x = random_transvection_product(r, g, length)
            for e in range(-5, 6):
                yield f"{x.mat} {e} {(x**e).mat}"


FAMILIES = {
    "phi1-word": phi1_word_family,
    "sl2-word": sl2_word_family,
    "power": power_family,
}


def digest(family: str) -> str:
    h = hashlib.sha256()
    for line in FAMILIES[family]():
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
    failed = 0
    for name in names:
        value = digest(name)
        if update:
            pinned[name] = value
            outcome = "written"
        else:
            outcome = "matches" if pinned.get(name) == value else "differs"
            failed += outcome != "matches"
        print(f"{name}: {value} {outcome}", flush=True)
    if update:
        DIGESTS.write_text(json.dumps(dict(sorted(pinned.items())), indent=2) + "\n")
    else:
        print(f"{len(names) - failed} match, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
