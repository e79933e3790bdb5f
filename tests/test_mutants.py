"""The standing mutants in ``mutants.py`` still apply to the source and still
name tests that exist. Running them is ``python tests/mutants.py``."""

import ast
import functools

import pytest

from mutants import MUTANTS, PACKAGE, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1


@functools.cache
def _function_names(path: str) -> frozenset[str]:
    """The top-level function names of a test file, parsed once per file."""
    tree = ast.parse((ROOT / path).read_text())
    return frozenset(node.name for node in tree.body if isinstance(node, ast.FunctionDef))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        assert name in _function_names(path), test_id
