import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from meyersig import SymplecticElement, gen_S, gen_T, random_transvection_product


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_sl2(r: random.Random, letters: int = 12) -> SymplecticElement:
    """Random SL(2,Z) element as a product of S, T, T^{-1} letters."""
    gens = (gen_S(), gen_T(), gen_T().inverse())
    m = SymplecticElement.identity(1)
    for _ in range(letters):
        m = m * gens[r.randrange(3)]
    return m


@pytest.fixture
def seeded():
    return rng(20260809)


def tau_pairs(r: random.Random, per_genus: int = 20, genera=range(1, 7)):
    """Seeded pairs (A1, A2) at each genus, cycling through plain pairs of
    transvection products and pairs built with products, powers and inverses."""
    pairs = []
    for g in genera:
        for k in range(per_genus):
            a = random_transvection_product(r, g, r.randint(1, 5))
            b = random_transvection_product(r, g, r.randint(1, 5))
            e = r.choice((-2, -1, 2, 3))
            pairs.append([(a, b), (a, a * b), (a, b**e), (a.inverse(), b * a), (a, a**e)][k % 5])
    return pairs


def tau_matrix(a1: SymplecticElement, a2: SymplecticElement) -> list[list[int]]:
    """[(A1^-1 - I) | (A2 - I)], the matrix whose kernel tau's form lives on."""
    return [
        [x - (i == j) for j, x in enumerate(row)] + [y - (i == j) for j, y in enumerate(row2)]
        for i, (row, row2) in enumerate(zip(a1.inverse().mat, a2.mat))
    ]


# Tier-1 runs the property tests on a fixed example sequence and keeps no
# example database, so a run is repeatable and leaves no .hypothesis/ behind.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # Hypothesis also caches constants it reads from the source tree, during
    # collection; keep that cache in a temporary directory, not .hypothesis/.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)
    config.add_cleanup(home.cleanup)
