"""Acceptance suite: one test per criterion, each timed at its stated budget
and reported as a PASS/FAIL line in the terminal summary."""

import io
import os
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from torlink import (
    ObstructionDB,
    census_maxnil,
    complete_graph,
    crossing_matrix,
    cycle_crossing_sums,
    cycle_slope,
    encode_graph6,
    enumerate_cycles,
    extract_obstruction_set,
    find_all_mtn_order9,
    find_links,
    is_isomorphic,
    is_linkless,
    is_nil,
    is_toroidal,
    load_search_context,
    parse_embedding,
    petersen_family,
    torus_link_linking_number,
    verify_size19_exclusion,
)
from torlink.canonical import canonical_form
from torlink.cli import run
from torlink.graphs import Graph
from torlink.oracles import order8_obstructions

from conftest import record_criterion
from test_torus import FIXTURE, random_diagram, two_triangles


def k6_minus_e():
    return complete_graph(6).delete_edge((1, 2))


def data_dir() -> Path | None:
    candidates = []
    env = os.environ.get("TORLINK_DATA_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).parent.parent / "data")
    for d in candidates:
        if (d / "maxnil_order9.g6").exists() and (
            d / "obstructions_order9.g6"
        ).exists():
            return d
    return None


def test_criterion_1_petersen_family_closure():
    petersen_family.cache_clear()
    start = time.perf_counter()
    fam = petersen_family()
    elapsed = time.perf_counter() - start
    ok = (
        len(fam) == 7
        and len({canonical_form(g) for g in fam}) == 7
        and all(g.size == 15 for g in fam)
        and sorted(g.n for g in fam) == [6, 7, 7, 8, 8, 9, 10]
        and elapsed < 1.0
    )
    record_criterion(
        "1 Petersen family: 7 non-isomorphic members of size 15, < 1 s",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_nil_oracle():
    cases = [
        (complete_graph(5), True),
        (complete_graph(6), False),
        (k6_minus_e(), True),
        (order8_obstructions()[2], False),
    ]
    worst = 0.0
    ok = True
    for g, expected in cases:
        start = time.perf_counter()
        value = is_nil(g)
        worst = max(worst, time.perf_counter() - start)
        ok = ok and value == expected
    ok = ok and worst < 1.0
    record_criterion(
        "2 nIL oracle: K5/K6/K6-e/K8-K23, each < 1 s", ok, f"worst {worst:.2f}s"
    )
    assert ok


def test_criterion_3_census_orders_6_and_7():
    start = time.perf_counter()
    six = census_maxnil(6)
    seven = census_maxnil(7)
    elapsed = time.perf_counter() - start
    ok = (
        len(six) == 1
        and is_isomorphic(six[0], k6_minus_e())
        and len(seven) == 2
        and elapsed < 300.0
    )
    record_criterion(
        "3a census_maxnil(6) = {K6-e}, census_maxnil(7) has 2 members, < 5 min",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_3_census_order_8():
    start = time.perf_counter()
    eight = census_maxnil(8)
    elapsed = time.perf_counter() - start
    sizes = sorted(g.size for g in eight)
    ok = len(eight) == 6 and sizes == [21, 22, 22, 22, 22, 22] and elapsed < 3600.0
    record_criterion(
        "3b census_maxnil(8): 6 members, sizes {21,22x5}, < 60 min",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_order8_obstruction_minor_minimality():
    db = ObstructionDB.builtin()
    start = time.perf_counter()
    ok = is_toroidal(complete_graph(7), db)
    for obs in order8_obstructions():
        ok = ok and not is_toroidal(obs, db)
        for e in obs.edges:
            ok = ok and is_toroidal(obs.delete_edge(e), db)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    record_criterion(
        "4 toroidality via built-in order-8 set: K7 yes, obstructions no, "
        "deletions yes, < 5 min",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_slope_calculus_properties():
    rng = random.Random(10007)
    cases = 0
    ok = True
    while cases < 1000:
        d = random_diagram(rng, rng.randint(4, 7))
        m = crossing_matrix(d)
        n = d.graph.n
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                pu, qu = m.entry(u, v)
                pv, qv = m.entry(v, u)
                ok = ok and (pu, qu) == (-pv, -qv)
        for cyc in enumerate_cycles(d.graph, 3, n):
            p, q = cycle_crossing_sums(d, cyc)
            k = len(cyc)
            rot = rng.randrange(k)
            rotated = cyc[rot:] + cyc[:rot]
            ok = ok and cycle_crossing_sums(d, rotated) == (p, q)
            rev = tuple(reversed(cyc))
            ok = ok and cycle_crossing_sums(d, rev) == (-p, -q)
            ok = ok and cycle_slope(d, rev) == cycle_slope(d, cyc)
            cases += 1
    record_criterion(
        "5 slope calculus: orientation/rotation invariance and antisymmetry, "
        ">= 1000 exact cases",
        ok,
        f"{cases} cases",
    )
    assert ok


def test_criterion_6_link_detection():
    start = time.perf_counter()
    linked = two_triangles([(1, 2)], [(2, 3)], [(4, 5)], [(5, 6)])
    unlinked = two_triangles([], [(2, 3)], [], [(5, 6)])
    fixture = parse_embedding(FIXTURE.read_text())
    ok = (
        len(find_links(linked)) == 1
        and len(find_links(unlinked)) == 0
        and is_isomorphic(fixture.graph, k6_minus_e())
        and is_linkless(fixture)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    record_criterion(
        "6 link detection: (1,1) pair links, slope-0 pair does not, bundled "
        "K6-e diagram linkless, < 1 s",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_7_torus_link_linking_numbers():
    ok = (
        torus_link_linking_number(2, 2) == Fraction(1)
        and torus_link_linking_number(2, 4) == Fraction(2)
    )
    rng = random.Random(10009)
    checked = 0
    while checked < 25:
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        if (m, n) == (0, 0) or gcd(abs(m), abs(n)) != 1:
            continue
        ok = ok and torus_link_linking_number(m, n) == 0
        checked += 1
    record_criterion(
        "7 torus-link linking numbers: (2,2)=1, coprime=0, (2,4)=2, exact",
        ok,
    )
    assert ok


def test_criterion_8_order9_census_pipeline():
    d = data_dir()
    if d is None:
        record_criterion(
            "8 order-9 pipeline (CONDITIONAL)",
            True,
            "skipped: external data files not present",
        )
        pytest.skip(
            "external data files (maxnil_order9.g6, obstructions_order9.g6) "
            "not available"
        )
    start = time.perf_counter()
    ctx = load_search_context(d)
    ok = len(ctx.toroidal_maxnil) == 16 and len(ctx.nontoroidal_maxnil) == 4
    hits = extract_obstruction_set(ctx)
    ok = ok and len(hits.subgraphs) == 5
    ok = ok and all(g.n == 9 and g.size == 20 for g in hits.subgraphs)
    ok = ok and all(not is_toroidal(g, ctx.db) for g in hits.subgraphs)
    ok = ok and all(
        is_toroidal(g.delete_edge(e), ctx.db)
        for g in hits.subgraphs
        for e in g.edges
    )
    ok = ok and verify_size19_exclusion(hits.subgraphs, ctx.db)
    report = find_all_mtn_order9(ctx)
    ok = ok and len(report.non_maxnil_mtn) == 11
    ok = ok and len(report.all_mtn) == 27
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1800.0
    record_criterion(
        "8 order-9 pipeline: 16/4 split, 5 obstructions of size 20, "
        "exclusion holds, 11 new, 27 total, < 30 min",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_report_determinism():
    commands = [
        ["petersen"],
        ["check", "--nil", "--maxnil", encode_graph6(k6_minus_e())],
        ["linking-number", "2", "2"],
        ["find-links", str(FIXTURE)],
        ["verify-embedding", str(FIXTURE)],
        ["census-maxnil", "6"],
    ]
    d = data_dir()
    ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            status = run(argv, out=buf)
            outputs.append((status, buf.getvalue()))
        ok = ok and outputs[0] == outputs[1]
    if d is not None:
        runs = []
        for jobs in ("1", "8"):
            buf = io.StringIO()
            status = run(
                ["mtn-census", "--data-dir", str(d), "--jobs", jobs], out=buf
            )
            runs.append((status, buf.getvalue()))
        ok = ok and runs[0] == runs[1]
        detail = "including mtn-census across --jobs"
    else:
        detail = "mtn-census skipped (no data)"
    record_criterion(
        "9 byte-identical reports across runs and --jobs", ok, detail
    )
    assert ok
