"""A short prefix of every family of the parity corpus, against its committed
slice digest. ``python tests/parity.py`` checks the whole corpus."""

import json

import pytest

from parity import DIGESTS, FAMILIES, SLICE, digest

PINNED = json.loads(DIGESTS.read_text())


def test_every_family_has_a_slice_and_both_digests():
    assert set(SLICE) == set(FAMILIES) == set(PINNED["full"]) == set(PINNED["slice"])


@pytest.mark.parametrize("family", list(FAMILIES))
def test_slice_matches_its_digest(family):
    assert digest(family, SLICE[family]) == PINNED["slice"][family]
