"""Seeded inputs and expected outputs for the benchmark's workloads.

Each workload writes its inputs into a directory, in the package's own
formats (graph6 via `encode_graph6`, diagrams via `format_embedding`), and
returns a manifest: the files the child parses during set-up, one entry per
item, and each item's expected exit status and stdout. The program under
test never computes its own expected outputs:

- `census8` and `pipeline9` do the same work for every seed, so their
  reports are the ones the seed commit printed, fixed here.
- `check` knows each verdict by construction: a graph that holds a
  subdivided Petersen-family graph is intrinsically linked, and a planar
  graph plus one apex vertex is not (Sachs).
- `links` gets its expected reports from `reference.py`.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations
from pathlib import Path

import reference

WORKLOADS = ("census8", "check", "links", "pipeline9")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- census8 ------------------------------------------------------------------

CENSUS8_STDOUT = "count: 6\nGtn^^k\nGtvf~w\nG}r^^k\nG}ve~[\nG~zf^g\nGLvf~w\n"


def census8(rng, work: Path, tl, root: Path) -> dict:
    return {
        "setup": {},
        "items": [["census-maxnil", "8"]],
        "expected": [[0, sha(CENSUS8_STDOUT)]],
    }


# -- check --------------------------------------------------------------------

# (order, verdict nIL, graphs, smallest and largest size); sizes are spread
# evenly over each range. Random IL graphs stop at order 11: at order 12 the
# first-hit minor search on a sparse subdivision took from 0.3 s to 3.5 s
# depending on the labels, which made the total swing with the seed. The
# symmetric graphs below are the order-12 IL inputs.
CHECK_PLAN = (
    (9, True, 40, (18, 24)),
    (9, False, 40, (18, 26)),
    (10, True, 25, (19, 25)),
    (10, False, 25, (19, 28)),
    (11, True, 10, (19, 24)),
    (11, False, 16, (20, 30)),
    (12, True, 6, (19, 23)),
)

# Symmetric graphs, where the canonizer's search tree is largest. K4,6 comes
# relabeled ANCHOR_COPIES times: its cost does not depend on the labels, and
# about a tenth of the corpus is slower than it, so the p90 latency falls
# inside a group of equal-cost items instead of on whichever random graph
# happens to hold that rank.
SYMMETRIC_PARTS = ((5, 5), (3, 3, 3, 3), (4, 4, 4), (2, 2, 2, 2, 2, 2))
ANCHOR_PARTS = (4, 6)
ANCHOR_COPIES = 14

# Members of the Petersen family, as (order, edges on 0..order-1).
_PETERSEN_FAMILY = (
    (6, list(combinations(range(6), 2))),
    (7, [(a, b) for a in range(3) for b in range(3, 6)] + [(v, 6) for v in range(6)]),
    (8, [(a, b) for a in range(4) for b in range(4, 8) if (a, b) != (0, 4)]),
    (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    ),
)


def _spread(lo: int, hi: int, count: int) -> list[int]:
    return [lo + (i * (hi - lo + 1)) // count for i in range(count)]


def _relabel(rng, tl, n: int, edges):
    """A graph on 1..n from edges on 0..n-1, under a random permutation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tl.Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _relabel_graph(rng, tl, g):
    return _relabel(rng, tl, g.n, [(u - 1, v - 1) for u, v in g.edges])


def _stacked_triangulation(rng, k: int) -> list[tuple[int, int]]:
    """A random stacked (Apollonian) planar triangulation on 0..k-1."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, k):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        faces[i] = (a, b, v)
        faces += [(a, c, v), (b, c, v)]
        edges |= {(a, v), (b, v), (c, v)}
    return sorted(edges)


def nil_graph(rng, tl, n: int, m: int):
    """A planar graph on n-1 vertices plus an apex vertex, with m edges."""
    base = _stacked_triangulation(rng, n - 1)
    while True:
        apex_degree = rng.randint((n - 1) // 2, n - 1)
        if 0 <= m - apex_degree <= len(base):
            break
    kept = rng.sample(base, m - apex_degree)
    apex = [(v, n - 1) for v in rng.sample(range(n - 1), apex_degree)]
    return _relabel(rng, tl, n, kept + apex)


def il_graph(rng, tl, n: int, m: int, slot: int):
    """A subdivided Petersen-family graph plus random edges, n vertices and
    m edges; the family member goes round with the slot number."""
    fitting = [f for f in _PETERSEN_FAMILY if f[0] <= n]
    k, family_edges = fitting[slot % len(fitting)]
    edges = list(family_edges)
    for new in range(k, n):
        i = rng.randrange(len(edges))
        u, v = edges[i]
        edges[i] = (u, new)
        edges.append((new, v))
    present = {tuple(sorted(e)) for e in edges}
    missing = [e for e in combinations(range(n), 2) if e not in present]
    extra = rng.sample(missing, max(0, m - len(present)))
    return _relabel(rng, tl, n, sorted(present) + extra)


def complete_multipartite(tl, parts):
    bounds = [0]
    for p in parts:
        bounds.append(bounds[-1] + p)
    edges = [
        (u + 1, v + 1)
        for i, j in combinations(range(len(parts)), 2)
        for u in range(bounds[i], bounds[i + 1])
        for v in range(bounds[j], bounds[j + 1])
    ]
    return tl.Graph(bounds[-1], edges)


def check(rng, work: Path, tl, root: Path) -> dict:
    corpus = []
    for n, nil, count, sizes in CHECK_PLAN:
        for slot, m in enumerate(_spread(*sizes, count)):
            g = nil_graph(rng, tl, n, m) if nil else il_graph(rng, tl, n, m, slot)
            corpus.append((g, nil))
    corpus += [(complete_multipartite(tl, parts), False) for parts in SYMMETRIC_PARTS]
    anchor = complete_multipartite(tl, ANCHOR_PARTS)
    corpus += [(_relabel_graph(rng, tl, anchor), False) for _ in range(ANCHOR_COPIES)]
    rng.shuffle(corpus)
    lines = [tl.encode_graph6(g) for g, _ in corpus]
    path = work / "check.g6"
    path.write_text("".join(line + "\n" for line in lines))
    return {
        "setup": {"graph6": [str(path)]},
        "items": [["check", "--nil", line] for line in lines],
        "expected": [
            [0 if nil else 1, sha(f"nIL: {str(nil).lower()}\n")] for _, nil in corpus
        ],
    }


# -- links --------------------------------------------------------------------

# (order, diagrams, edge density range, crossing probability range); both
# run evenly over their range.
LINKS_PLAN = (
    (8, 50, (0.35, 0.6), (0.15, 0.35)),
    (9, 40, (0.35, 0.6), (0.15, 0.35)),
    (10, 30, (0.48, 0.52), (0.2, 0.3)),
)
# The triangulated 3x3 grid comes relabeled GRID_COPIES times: its cost does
# not depend on the labels and only the 3x4 scan is slower, so the p90
# latency falls inside a group of equal-cost items.
GRID_COPIES = 20
BUNDLED_EMBEDDING = Path("src/torlink/data/k6_minus_e.emb")


def random_diagram(rng, tl, n: int, m: int, crossing: float):
    pairs = list(combinations(range(1, n + 1), 2))
    edges = sorted(rng.sample(pairs, m))
    up, right = [], []
    for u, v in edges:
        for lst in (up, right):
            if rng.random() < crossing:
                lst.append((u, v) if rng.random() < 0.5 else (v, u))
    return tl.TorusDiagram(tl.Graph(n, edges), up, right)


def _relabel_diagram(rng, tl, d):
    perm = list(range(1, d.graph.n + 1))
    rng.shuffle(perm)

    def moved(pairs):
        return [(perm[u - 1], perm[v - 1]) for u, v in pairs]

    return tl.TorusDiagram(
        tl.Graph(d.graph.n, moved(d.graph.edges)), moved(d.up_list), moved(d.right_list)
    )


def grid_diagram(tl, rows: int, cols: int):
    """The triangulated rows x cols grid on the torus; vertex (i, j) is
    i*cols + j + 1, and rows grow upward."""

    def vid(i, j):
        return (i % rows) * cols + (j % cols) + 1

    edges, up, right = [], [], []
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((0, 1), (1, 0), (1, 1)):
                u, v = vid(i, j), vid(i + di, j + dj)
                edges.append((u, v))
                if i + di == rows:
                    up.append((u, v))
                if j + dj == cols:
                    right.append((u, v))
    return tl.TorusDiagram(tl.Graph(rows * cols, edges), up, right)


def links(rng, work: Path, tl, root: Path) -> dict:
    diagrams = []
    for n, count, (d_lo, d_hi), (c_lo, c_hi) in LINKS_PLAN:
        pairs = n * (n - 1) // 2
        sizes = _spread(round(d_lo * pairs), round(d_hi * pairs), count)
        for i, m in enumerate(sizes):
            crossing = c_lo + (c_hi - c_lo) * i / max(1, count - 1)
            diagrams.append(random_diagram(rng, tl, n, m, crossing))
    grid = grid_diagram(tl, 3, 3)
    grids = [_relabel_diagram(rng, tl, grid) for _ in range(GRID_COPIES)]
    diagrams += grids
    rng.shuffle(diagrams)
    texts = [tl.format_embedding(d) for d in diagrams]
    texts.append((root / BUNDLED_EMBEDDING).read_text())
    paths = []
    for i, text in enumerate(texts):
        path = work / f"diagram{i:03d}.emb"
        path.write_text(text)
        paths.append(path)
    grid34 = work / "grid3x4.emb"
    grid34.write_text(tl.format_embedding(grid_diagram(tl, 3, 4)))

    reports = [reference.verify_embedding_report(*parse_diagram(t)) for t in texts]
    reports.append(reference.find_links_report(*parse_diagram(grid34.read_text())))
    grid_texts = {tl.format_embedding(d) for d in grids}
    grid_warnings = sum(
        out.count("warning:") for t, (_, out) in zip(texts, reports) if t in grid_texts
    )
    return {
        "setup": {"embedding": [str(p) for p in paths + [grid34]]},
        "items": [["verify-embedding", str(p)] for p in paths]
        + [["find-links", str(grid34)]],
        "expected": [[rc, sha(out)] for rc, out in reports],
        "facts": {"grid3x3_warnings": grid_warnings},
    }


def parse_diagram(text: str):
    """(order, edges, up, right) from the embedding file format, read here
    rather than by the package."""
    rows = {}
    for line in text.splitlines():
        key, *tokens = line.split()
        rows[key] = tokens
    n = int(rows["order"][0])
    edges = [tuple(map(int, t.split("-"))) for t in rows["edges"]]
    up = [tuple(map(int, t.split("->"))) for t in rows["up"]]
    right = [tuple(map(int, t.split("->"))) for t in rows["right"]]
    return n, edges, up, right


# -- pipeline9 ----------------------------------------------------------------

# Cones over two non-isomorphic 8-vertex stacked triangulations: both are
# maxnIL with 26 edges. With C9 as the only order-9 obstruction, "toroidal"
# means non-Hamiltonian, and both roots are Hamiltonian.
PIPELINE_ROOTS = ("H~^edb~", "H~]rQr~")
PIPELINE_SIZE_FLOOR = 21
PIPELINE_EXTRACT = "obstruction_subgraphs 1 sizes=9\nobstruction_order8_minors 0\n"
PIPELINE_EXCLUSION = "size19_exclusion pass\n"
PIPELINE_REPORT_SHA = "bbea79947c6359331fd87568fa38adc2aa9b1835ae2da4044a6c876be164e4cc"
PIPELINE_FACTS = ("search_candidates 79\n", "non_maxnil_mtn 11\n", "all_mtn 11\n")


def pipeline9(rng, work: Path, tl, root: Path) -> dict:
    roots = [_relabel_graph(rng, tl, tl.decode_graph6(g6)) for g6 in PIPELINE_ROOTS]
    roots_path = work / "roots.g6"
    roots_path.write_text("".join(tl.encode_graph6(g) + "\n" for g in roots))
    obstruction_path = work / "obstructions9.g6"
    obstruction_path.write_text(tl.encode_graph6(tl.cycle_graph(9)) + "\n")
    return {
        "setup": {
            "roots": str(roots_path),
            "obstructions9": str(obstruction_path),
            "size_floor": PIPELINE_SIZE_FLOOR,
        },
        "items": [["extract"], ["exclusion"], ["search"]],
        "expected": [
            [0, sha(PIPELINE_EXTRACT)],
            [0, sha(PIPELINE_EXCLUSION)],
            [0, PIPELINE_REPORT_SHA],
        ],
    }


def make(workload: str, seed: int, work: Path, tl, root: Path) -> dict:
    """Write the workload's inputs under work and return its manifest."""
    rng = random.Random(f"{workload}:{seed}")
    manifest = globals()[workload](rng, work, tl, root)
    manifest["workload"] = workload
    manifest["seed"] = seed
    return manifest
