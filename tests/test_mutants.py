"""The entries of `tests/mutants.py` still fit the code they mutate.

Running the mutants takes minutes and is left out of tier-1; this check
takes none. A change that rewrites a mutated line, or renames a test
named as a killer, fails here instead of leaving a stale entry behind;
so do two entries that make the same edit.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_edits_match_exactly_once(mutant):
    source = (ROOT / "src" / "torlink" / mutant.path).read_text()
    # mutate raises StaleMutant unless every edited line occurs exactly once.
    assert mutants.mutate(source, mutant.edits) != source


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_killers_name_existing_tests(mutant):
    for killer in mutant.killers:
        path, _, name = killer.partition("::")
        text = (ROOT / path).read_text()
        if name:
            function = re.sub(r"\[.*\]$", "", name)
            assert re.search(rf"^def {function}\(", text, re.M), killer


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
