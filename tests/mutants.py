"""Named mutants that the test suite must kill.

Each mutant is a small edit of one file under src/: a list of (exact
source line, replacement) pairs, plus the test node ids expected to kill
it. The script copies src/, tests/, data/ and the project files into a
temporary directory and first runs each distinct set of killers there,
unmutated: a set that already fails would count every mutant as killed,
so it is reported as `BROKEN` and nothing more runs. Then, for each
mutant, it makes the edit in a fresh copy, runs only the named tests
against it, and prints `killed` when some of them fail or `survived` when
they all pass. A source line is matched with its indentation stripped and
must occur exactly once in its file, so an entry whose line has changed
is an error, not a quiet survivor; `tests/test_mutants.py` checks that in
tier-1. The replacement keeps the line's indentation.

Run from anywhere, with the names of the mutants to try (default: all):

    python3 tests/mutants.py [NAME ...]

The exit status is 0 when every mutant's outcome is the expected one,
1 when some outcome differs, and 2 when an entry no longer matches or a
set of killers fails on the unmutated copy.
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
ROUTE = "tests/test_oracles.py::test_is_nil_decides_census_children_through_the_new_edge"
TIE_BREAK = "if all(_ends(carried, a, b) <= mine for a, b in ties):"
WINDOW = "& (ge[low - 1] & ~ge[dx] | (ge[dx] ^ ge[dx + 1]) & -2 << x)"

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
                "yield key, carry_witness(child, g, u, v), (u, v), carried",
                "yield key, "
                "carry_witness(child, g, g._witness, g._witness), (u, v), carried",
            ),
        ),
        ("tests/test_search.py::test_inherited_apex_witnesses_hold",),
    ),
    Mutant(
        "twin-rule-without-same-class-pair",
        "search.py",
        (("elif not twin[h]:", "elif False:"),),
        (
            "tests/test_search.py::test_isomorphism_class_counts",
            "tests/test_search.py::test_isomorphism_classes_match_bruteforce",
        ),
    ),
    Mutant(
        "top-edge-tie-break-drops-ties",
        "search.py",
        (
            (TIE_BREAK, TIE_BREAK.replace("<= mine", "< mine")),
        ),
        (
            "tests/test_search.py::test_isomorphism_class_counts",
            "tests/test_search.py::test_isomorphism_class_levels_match_polya_counts",
        ),
    ),
    Mutant(
        "spare-child-grouped",
        "search.py",
        ((TIE_BREAK, "if True:"),),
        (
            "tests/test_search.py::test_census_computes_each_child_key_once[7-1349]",
            "tests/test_search.py::test_top_children_match_reference",
        ),
    ),
    Mutant(
        "sparse-maxnil-rule-off-by-one",
        "oracles.py",
        (
            (
                "if g.size + 1 < _petersen_fewest_edges() and g.size < g.n * (g.n - 1) // 2:",
                "if g.size + 1 <= _petersen_fewest_edges() and g.size < g.n * (g.n - 1) // 2:",
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
        (
            (
                "+ ((0x10000 | dv + 1 << 8 | c2) << 20 * u)",
                "+ ((0x1000 | dv + 1 << 8 | c2) << 20 * u)",
            ),
        ),
        ("tests/test_search.py::test_top_children_match_reference",),
    ),
    Mutant(
        "maders-bound-off-by-one",
        "oracles.py",
        (
            (
                "if g.n >= 6 and g.size >= 4 * g.n - 9:",
                "if g.n >= 6 and g.size >= 4 * g.n - 10:",
            ),
        ),
        (
            "tests/test_oracles.py::test_is_nil_matches_minor_dag_on_small_classes",
            "tests/test_oracles.py::test_maximality_implies_membership",
        ),
    ),
    Mutant(
        "apex-settle-on-non-apex-graph",
        "oracles.py",
        (("if is_apex(g):", "if True:"),),
        (
            "tests/test_oracles.py::test_is_nil_examples",
            "tests/test_oracles.py::test_bipartite_k44_minus_e_is_il",
        ),
    ),
    Mutant(
        "q-span-too-narrow",
        "torus.py",
        (("_Q_SPAN = 32", "_Q_SPAN = 24"),),
        ("tests/test_torus.py::test_packed_sums_exact_at_the_order_bound",),
    ),
    Mutant(
        "partner-bound-one-short",
        "torus.py",
        (("top = min(hi, n - length + 1)", "top = min(hi, n - length)"),),
        (
            "tests/test_torus.py::test_grid_links_are_those_of_every_cycle_length",
            "tests/test_torus.py::test_link_scans_match_bruteforce_random",
        ),
    ),
    Mutant(
        "partner-probe-stops-below-half",
        "torus.py",
        (
            (
                "if length > min(hi, n // 2):",
                "if length > min(hi, n // 2 - 1):",
            ),
        ),
        (
            "tests/test_torus.py::test_link_scans_match_bruteforce_random",
            "tests/test_torus.py::test_partner_bound_drops_no_pair",
        ),
    ),
    Mutant(
        "twin-chain-admits-equal-image",
        "containment.py",
        (("cand &= -2 << images[t]", "cand &= -1 << images[t]"),),
        (
            "tests/test_containment.py::test_subgraph_iso_matches_bruteforce",
            "tests/test_containment.py::test_twin_pruning_matches_bruteforce",
        ),
        survives=(
            "the previous twin's image is already in `used`, so admitting it "
            "admits nothing; the two lines are equivalent"
        ),
    ),
    Mutant(
        "fewest-bound-off-by-one",
        "containment.py",
        (("if g.size < fewest[g.n]:", "if g.size <= fewest[g.n]:"),),
        (
            "tests/test_containment.py::test_has_minor_reflexive_examples",
            "tests/test_oracles.py::test_is_nil_examples",
        ),
    ),
    Mutant(
        "search-stops-above-floor-plus-one",
        "search.py",
        (
            (
                "elif g.size > ctx.size_floor + 1:",
                "elif g.size > ctx.size_floor + 2:",
            ),
        ),
        (
            "tests/test_search.py::test_search_matches_bruteforce_depth2",
            "tests/test_search.py::test_find_all_mtn_synthetic_pipeline",
        ),
    ),
    Mutant(
        "prefilter-rejects-equal-neighbour-degree",
        "search.py",
        ((WINDOW, WINDOW.replace("ge[low - 1]", "ge[low]")),),
        ("tests/test_search.py::test_top_children_match_reference",),
    ),
    Mutant(
        "window-lower-bound-one-low",
        "search.py",
        ((WINDOW, WINDOW.replace("ge[low - 1]", "ge[max(low - 2, 0)]")),),
        ("tests/test_search.py::test_census_computes_each_child_key_once[7-1349]",),
    ),
    Mutant(
        "equal-degree-pairs-from-both-ends",
        "search.py",
        ((WINDOW, WINDOW.replace(" & -2 << x)", ")")),),
        (
            "tests/test_search.py::test_census_computes_each_child_key_once[7-1349]",
            "tests/test_search.py::test_top_children_match_reference",
        ),
    ),
    Mutant(
        "heads-paired-only-with-later-heads",
        "search.py",
        (
            (
                "(twin[x] | (heads ^ bit if heads & bit else 0))",
                "(twin[x] | (heads & -2 << x if heads & bit else 0))",
            ),
        ),
        (
            "tests/test_search.py::test_isomorphism_class_counts",
            "tests/test_search.py::test_top_children_match_reference",
        ),
    ),
    Mutant(
        "planar-exit-past-order-5",
        "planarity.py",
        (("if n == 5:", "if n <= 6:"),),
        (
            "tests/test_planarity.py::test_examples",
            "tests/test_planarity.py::test_planarity_matches_networkx_on_all_classes",
        ),
    ),
    Mutant(
        "ties-skip-every-lower-end",
        "search.py",
        (("rest = mask & ~done", "rest = mask & -2 << a"),),
        (
            "tests/test_search.py::test_ties_list_each_other_tie_once",
            "tests/test_search.py::test_top_children_match_reference",
        ),
    ),
    Mutant(
        "common-neighbour-entry-increment",
        "search.py",
        (("+ 0x202 * spread[common]", "+ 0x201 * spread[common]"),),
        ("tests/test_search.py::test_top_children_match_reference",),
    ),
    Mutant(
        "nil-trusts-missing-apex-witness",
        "oracles.py",
        (
            (
                "if g._witness is not None and g._witness >= 0:",
                "if g._witness is not None and g._witness >= -1:",
            ),
        ),
        (
            "tests/test_oracles.py::"
            "test_is_nil_trusts_only_a_witness_that_names_a_vertex",
        ),
    ),
    Mutant(
        "nil-size-answer-off-by-one",
        "oracles.py",
        (
            (
                "if g.size < _petersen_fewest_edges():",
                "if g.size <= _petersen_fewest_edges():",
            ),
        ),
        (
            "tests/test_oracles.py::test_is_nil_examples",
            "tests/test_oracles.py::"
            "test_is_nil_trusts_only_a_witness_that_names_a_vertex",
        ),
    ),
    Mutant(
        "pinned-test-one-orientation",
        "containment.py",
        (("for y in nb:", "for y in [y for y in nb if y > x]:"),),
        (
            "tests/test_containment.py::test_pinned_subgraph_matches_bruteforce",
            "tests/test_containment.py::test_pinned_family_subgraphs_match_bruteforce",
        ),
    ),
    Mutant(
        "relative-reductions-skip-new-edge",
        "containment.py",
        (
            (
                "merged = {tuple(sorted((w, x + 1))) for w in gone"
                " for x in range(g.n) if common >> x & 1}",
                "merged = {tuple(sorted((w, x + 1))) for w in gone"
                " for x in range(g.n) if common >> x & 1} | {gone}",
            ),
        ),
        (
            "tests/test_containment.py::"
            "test_reductions_for_a_new_edge_skip_exactly_the_parents_minors",
        ),
    ),
    Mutant(
        "orbit-rule-fed-worse-leaf",
        "canonical.py",
        (
            (
                "if pairs is not None and key == best_key:",
                "if pairs is not None and best_key is not None and key >= best_key:",
            ),
        ),
        (
            "tests/test_canonical.py::"
            "test_automorphisms_give_the_groups_orbits_on_symmetric_graphs",
        ),
    ),
    Mutant(
        "relative-route-without-apex-vertex",
        "oracles.py",
        (("if w < 0 or w == u or w == v:", "if w == u or w == v:"),),
        (ROUTE,),
    ),
    Mutant(
        "relative-witness-kept-after-failure",
        "oracles.py",
        (("g._witness = apex_scan(g._adj, w)", "g._witness = w"),),
        (ROUTE,),
    ),
    Mutant(
        "apex-reads-pending-claim",
        "oracles.py",
        (
            (
                "if g._witness is None or g._witness < -1:",
                "if g._witness is None:",
            ),
        ),
        ("tests/test_oracles.py::test_a_pending_claim_is_not_a_witness",),
    ),
    Mutant(
        "carry-from-pending-claim",
        "oracles.py",
        (("if w is None or w < -1:", "if w is None:"),),
        ("tests/test_oracles.py::test_a_pending_claim_is_not_a_witness",),
    ),
    Mutant(
        "extension-keeps-witness-off-its-edge",
        "oracles.py",
        (("if w < 0 or w == u or w == v:", "if w is not None:"),),
        (
            "tests/test_search.py::test_inherited_apex_witnesses_hold",
            "tests/test_oracles.py::test_is_mtn_matches_definition_on_small_classes",
        ),
    ),
    Mutant(
        "maximality-skips-an-orbit",
        "oracles.py",
        (
            (
                "return not any(extended_has(u, v) for (u, v), *_ in orbits[1:])",
                "return not any(extended_has(u, v) for (u, v), *_ in orbits[2:])",
            ),
        ),
        (
            "tests/test_oracles.py::test_is_mtn_matches_definition_on_small_classes",
            "tests/test_oracles.py::test_is_maxnil_matches_definition_past_the_apex_rule",
            "tests/test_search.py::test_exclusion_matches_definition",
        ),
    ),
    Mutant(
        "search-keeps-first-child-only",
        "search.py",
        (
            (
                "for (u, v), *_ in orbits_of_pairs(edges, perms):",
                "for (u, v), *_ in orbits_of_pairs(edges, perms)[:1]:",
            ),
        ),
        (
            "tests/test_search.py::test_search_matches_bruteforce_depth2",
            "tests/test_search.py::"
            "test_search_per_edge_orbit_matches_bruteforce_on_symmetric_roots",
        ),
    ),
    Mutant(
        "witness-kept-across-its-own-edge",
        "search.py",
        (
            (
                "inherited = witness is not None and not witness[u] >> v & 1",
                "inherited = witness is not None",
            ),
        ),
        (
            "tests/test_search.py::test_witness_search_matches_bruteforce",
            "tests/test_search.py::"
            "test_search_per_edge_orbit_matches_bruteforce_on_symmetric_roots",
        ),
    ),
    Mutant(
        "witness-settles-leaves-one-level-early",
        "search.py",
        (
            (
                "if inherited and g.size - 1 == ctx.size_floor + 1:",
                "if inherited and g.size - 1 == ctx.size_floor + 2:",
            ),
        ),
        (
            "tests/test_search.py::test_witness_search_matches_bruteforce",
            "tests/test_search.py::"
            "test_search_per_edge_orbit_matches_bruteforce_on_symmetric_roots",
        ),
    ),
    Mutant(
        "floor-copy-settles-one-level-early",
        "search.py",
        (
            (
                "if g.size == ctx.size_floor + 1 and any(",
                "if g.size == ctx.size_floor + 2 and any(",
            ),
        ),
        (
            "tests/test_search.py::test_witness_search_matches_bruteforce",
            "tests/test_search.py::"
            "test_search_per_edge_orbit_matches_bruteforce_on_symmetric_roots",
        ),
    ),
    Mutant(
        "spanning-pin-first-orbit-only",
        "containment.py",
        (("for i in heads:", "for i in heads[:1]:"),),
        ("tests/test_containment.py::test_spanning_subgraph_matches_bruteforce",),
    ),
    Mutant(
        "spanning-pin-off-the-head",
        "containment.py",
        (
            (
                "heads.append(i)",
                "heads.append(max(j for j, h in enumerate(head) if h == i))",
            ),
        ),
        (
            "tests/test_containment.py::test_spanning_subgraph_matches_bruteforce",
            "tests/test_containment.py::test_twin_pruning_matches_bruteforce",
        ),
    ),
    Mutant(
        "siblings-pruned-only-in-threes",
        "search.py",
        (("if len(pairs) > 1:", "if len(pairs) > 2:"),),
        ("tests/test_search.py::test_census_computes_each_child_key_once[7-1349]",),
    ),
    Mutant(
        "core-smooths-degree-three",
        "graphs.py",
        (
            (
                "if not alive >> v & 1 or nbrs.bit_count() > 2:",
                "if not alive >> v & 1 or nbrs.bit_count() > 3:",
            ),
        ),
        (
            "tests/test_containment.py::"
            "test_cores_match_bruteforce_and_vanish_exactly_without_k4",
            "tests/test_containment.py::"
            "test_core_rule_matches_bruteforce_on_petersen_family",
        ),
    ),
    Mutant(
        "core-ignores-pattern-degree",
        "containment.py",
        (
            (
                "smooth = smooth and all(m.bit_count() >= 3 for m in p._adj)",
                "smooth = smooth and all(m.bit_count() >= 2 for m in p._adj)",
            ),
        ),
        (
            "tests/test_containment.py::"
            "test_core_rule_stays_off_for_patterns_with_low_degree",
        ),
    ),
    Mutant(
        "core-keeps-parallel-smoothing",
        "graphs.py",
        (("if not adj[a] >> b & 1:", "if True:"),),
        (
            "tests/test_containment.py::"
            "test_cores_match_bruteforce_and_vanish_exactly_without_k4",
            "tests/test_containment.py::"
            "test_core_rule_matches_bruteforce_on_petersen_family",
        ),
    ),
    Mutant(
        "orbit-helper-closes-over-one-permutation",
        "canonical.py",
        (("for p in perms:", "for p in perms[:1]:"),),
        (
            "tests/test_canonical.py::"
            "test_orbits_of_pairs_split_the_given_pairs_by_the_groups_orbits",
            "tests/test_search.py::"
            "test_siblings_are_kept_one_per_orbit_of_the_parents_automorphisms",
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


def copy_project(work: Path) -> None:
    """Copy what the tests need into the directory work."""
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(
                src, work / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            shutil.copy2(src, work / name)


def fails(work: Path, killers: tuple[str, ...]) -> bool:
    """True iff some of the named tests fail in the copy at work."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *killers],
        cwd=work,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(killers)}: pytest exited {done.returncode}")
    return done.returncode == 1


def run(mutant: Mutant, scratch: Path) -> bool:
    """True iff some named test fails on the mutated copy."""
    work = scratch / mutant.name
    copy_project(work)
    target = work / "src" / "torlink" / mutant.path
    target.write_text(mutate(target.read_text(), mutant.edits))
    return fails(work, mutant.killers)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "unmutated"
        copy_project(clean)
        for killers in dict.fromkeys(m.killers for m in chosen):
            if fails(clean, killers):
                print(f"BROKEN    {' '.join(killers)}")
                return 2
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
