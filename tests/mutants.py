"""Named mutants that the test suite must kill.

Each mutant is a small edit of one file under src/: a list of (exact
source line, replacement) pairs, plus the test node ids expected to kill
it. For each one the script copies src/, tests/, data/ and the project
files into a temporary directory, makes the edit there, runs only the
named tests against the copy, and prints `killed` when some of them fail
or `survived` when they all pass. A source line is matched with its
indentation stripped and must occur exactly once in its file, so an entry
whose line has changed is an error, not a quiet survivor. The replacement
keeps the line's indentation.

Run from anywhere, with the names of the mutants to try (default: all):

    python3 tests/mutants.py [NAME ...]

The exit status is 0 when every mutant's outcome is the expected one,
1 when some outcome differs, and 2 when an entry no longer matches.
Standard library only; pytest runs in a child process.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "data", "pyproject.toml", "README.md")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/torlink
    edits: tuple[tuple[str, str], ...]
    killers: tuple[str, ...]
    # Why a mutant is expected to survive; empty when it must be killed.
    survives: str = ""


JUMP = (
    "tests/test_canonical.py::"
    "test_canonical_form_matches_exhaustive_walk_on_symmetric_graphs[{}]"
)
NIL_ROW = '("--nil", "nIL", "linkless-embeddable test", lambda g, db: is_nil(g), False),'
TOROIDAL_ROW = '("--toroidal", "toroidal", None, lambda g, db: is_toroidal(g, db), True),'
TN_ROW = '("--tn", "TN", "toroidal and nIL", lambda g, db: is_tn(g, db), True),'

MUTANTS = (
    Mutant(
        "backjump-one-short",
        "canonical.py",
        (("return k", "return max(k - 1, 0)"),),
        (JUMP.format("jump10a"), JUMP.format("jump10b")),
    ),
    Mutant(
        "backjump-to-root",
        "canonical.py",
        (("return k", "return 0"),),
        (JUMP.format("jump10a"), JUMP.format("jump10b")),
    ),
    Mutant(
        "backjump-on-worse-leaf",
        "canonical.py",
        (("elif key == best_key:", "else:"),),
        ("tests/test_canonical.py",),
        survives=(
            "a leaf worse than the best also backjumps; no known graph "
            "tells the two apart"
        ),
    ),
    Mutant(
        "nil-row-needs-database",
        "cli.py",
        ((NIL_ROW, NIL_ROW.replace("False),", "True),")),),
        (
            "tests/test_cli.py::"
            "test_check_loads_no_database_unless_a_predicate_needs_one",
        ),
    ),
    Mutant(
        "toroidal-and-tn-rows-swapped",
        "cli.py",
        ((TOROIDAL_ROW, TN_ROW), (TN_ROW, TOROIDAL_ROW)),
        (
            "tests/test_cli.py::"
            "test_check_loads_no_database_unless_a_predicate_needs_one",
            "tests/test_cli.py::test_check_multiple_predicates",
        ),
    ),
    Mutant(
        "apex-witness-passed-to-every-child",
        "search.py",
        (
            (
                "if apex is not None and (apex < 0 or apex == u or apex == v):",
                "if apex is not None:",
            ),
        ),
        ("tests/test_search.py::test_inherited_apex_witnesses_hold",),
    ),
    Mutant(
        "twin-rule-without-same-class-pair",
        "search.py",
        (("if not paired >> h & 1:", "if False:"),),
        (
            "tests/test_search.py::test_isomorphism_class_counts",
            "tests/test_search.py::test_isomorphism_classes_match_bruteforce",
        ),
    ),
    Mutant(
        "top-edge-tie-break-drops-ties",
        "search.py",
        (
            (
                "if max(ea, eb) << 20 | min(ea, eb) > mine:",
                "if max(ea, eb) << 20 | min(ea, eb) >= mine:",
            ),
        ),
        (
            "tests/test_search.py::test_isomorphism_class_counts",
            "tests/test_search.py::test_isomorphism_class_levels_match_polya_counts",
        ),
    ),
    Mutant(
        "fertility-without-spare-children",
        "search.py",
        (("and _invariant(child._adj) in kept", "and False"),),
        (
            "tests/test_search.py::test_barren_counts_orders_6_and_7",
            "tests/test_search.py::test_barren_classes_match_bruteforce_fertility",
        ),
    ),
    Mutant(
        "sparse-maxnil-rule-off-by-one",
        "oracles.py",
        (
            (
                "if g.size + 1 < fewest and g.size < g.n * (g.n - 1) // 2:",
                "if g.size + 1 <= fewest and g.size < g.n * (g.n - 1) // 2:",
            ),
        ),
        ("tests/test_cli.py::test_census_maxnil_stdout_is_pinned[6]",),
    ),
    Mutant(
        "three-part-tie-rejected",
        "search.py",
        (("if head > mine:", "if head >= mine:"),),
        (
            "tests/test_search.py::test_isomorphism_class_counts",
            "tests/test_search.py::test_isomorphism_class_levels_match_polya_counts",
        ),
    ),
    Mutant(
        "entry-packing-shift",
        "search.py",
        (("out.append(d << 16 | s)", "out.append(d << 12 | s)"),),
        (
            "tests/test_search.py::"
            "test_invariant_survives_relabeling_and_packs_exactly",
        ),
    ),
)


class StaleMutant(Exception):
    pass


def mutate(source: str, edits: tuple[tuple[str, str], ...]) -> str:
    """source with each edit's line replaced, all edits located first."""
    lines = source.split("\n")
    found = []
    for old, new in edits:
        at = [i for i, line in enumerate(lines) if line.strip() == old]
        if len(at) != 1:
            raise StaleMutant(f"{old!r} occurs {len(at)} times")
        found.append((at[0], new))
    for i, new in found:
        line = lines[i]
        lines[i] = line[: len(line) - len(line.lstrip())] + new
    return "\n".join(lines)


def run(mutant: Mutant, scratch: Path) -> bool:
    """True iff some named test fails on the mutated copy."""
    work = scratch / mutant.name
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(
                src, work / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            shutil.copy2(src, work / name)
    target = work / "src" / "torlink" / mutant.path
    target.write_text(mutate(target.read_text(), mutant.edits))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *mutant.killers],
        cwd=work,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}")
    return done.returncode == 1


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in chosen:
            try:
                killed = run(mutant, Path(scratch))
            except StaleMutant as err:
                print(f"STALE     {mutant.name}: {err}")
                status = 2
                continue
            verdict = "killed" if killed else "survived"
            expected = not mutant.survives
            note = f"  (expected: {mutant.survives})" if mutant.survives else ""
            if killed != expected:
                verdict = verdict.upper()
                status = max(status, 1)
            print(f"{verdict:<9} {mutant.name}{note}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
