"""The entries of `tests/mutants.py` still fit the code they mutate.

Running the mutants takes minutes and is left out of tier-1; this check
takes none. A change that rewrites a mutated line, or renames a test
named as a killer or its parameters, fails here instead of leaving a
stale entry behind; so do two entries that make the same edit.
"""

import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_edits_match_exactly_once(mutant):
    source = (ROOT / "src" / "torlink" / mutant.path).read_text()
    # mutate raises StaleMutant unless every edited line occurs exactly once.
    assert mutants.mutate(source, mutant.edits) != source


def names_a_test(killer: str, node_ids) -> bool:
    """Whether the killer, a node id, a test function's id without its
    parameters, or a file, names some of these node ids."""
    return any(
        i == killer or i.startswith((killer + "::", killer + "[")) for i in node_ids
    )


@lru_cache(maxsize=None)
def collected_from(path: str) -> frozenset[str]:
    """The node ids that pytest collects from one test file, run apart."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", path],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return frozenset(line for line in done.stdout.splitlines() if "::" in line)


def collected(killer: str, session) -> bool:
    """Whether pytest collects tests that the killer names. A full run's
    session already holds them all; a file that this run left out, or a
    test that it deselected, is looked up by collecting its file apart."""
    return names_a_test(killer, [item.nodeid for item in session.items]) or (
        names_a_test(killer, collected_from(killer.partition("::")[0]))
    )


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_killers_name_existing_tests(mutant, request):
    for killer in mutant.killers:
        assert (ROOT / killer.partition("::")[0]).is_file(), killer
        assert collected(killer, request.session), killer


def test_killer_check_catches_stale_ids(request):
    # A parameter id that no longer exists, a cut one, and a cut name.
    test = "tests/test_mutants.py::test_mutant_edits_match_exactly_once"
    assert collected(test, request.session)
    assert collected(test + "[backjump-one-short]", request.session)
    for stale in (test + "[backjump-one]", test + "[backjump-one-sh", test[:-4]):
        assert not collected(stale, request.session), stale


def test_no_two_mutants_make_the_same_edit():
    # Two entries with one edit run one mutant twice under two names, and
    # only the union of their killers says what kills it.
    made = Counter((m.path, frozenset(m.edits)) for m in mutants.MUTANTS)
    twice = [edit for edit, count in made.items() if count > 1]
    assert not twice, twice


def test_stale_edit_is_an_error():
    with pytest.raises(mutants.StaleMutant):
        mutants.mutate("x = 1\nx = 1\n", (("x = 1", "x = 2"),))
    with pytest.raises(mutants.StaleMutant):
        mutants.mutate("x = 1\n", (("y = 1", "y = 2"),))
