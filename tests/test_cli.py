import argparse
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import torlink.search
from torlink import (
    Graph,
    complete_graph,
    decode_graph6,
    encode_graph6,
    find_links,
    format_embedding,
    parse_embedding,
    petersen_family,
)
from torlink import cli
from torlink.cli import build_parser, run

from bruteforce import complete_multipartite
from test_search import stacked_planar
from test_torus import FIXTURE, grid_diagram

SRC = Path(__file__).resolve().parents[1] / "src"

K6_MINUS_E_G6 = encode_graph6(complete_graph(6).delete_edge((1, 2)))
TWO_TRIANGLES_LINKED = (
    "order 6\nedges 1-2 2-3 1-3 4-5 5-6 4-6\nup 1->2 4->5\nright 2->3 5->6\n"
)


def invoke(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


def test_check_nil_true():
    status, text = invoke(["check", "--nil", K6_MINUS_E_G6])
    assert status == 0
    assert text == "nIL: true\n"


def test_check_nil_false_exit_one():
    status, text = invoke(["check", "--nil", encode_graph6(complete_graph(6))])
    assert status == 1
    assert text == "nIL: false\n"


ALL_CHECKS_ON_K6_MINUS_E = [
    "nIL: true",
    "toroidal: true",
    "TN: true",
    "maxnIL: true",
    "MTN: true",
    "connected: true",
]


def test_check_multiple_predicates():
    status, text = invoke(
        ["check", "--nil", "--toroidal", "--tn", "--maxnil", "--mtn",
         "--connected", K6_MINUS_E_G6]
    )
    assert status == 0
    assert text.splitlines() == ALL_CHECKS_ON_K6_MINUS_E


def test_check_loads_no_database_unless_a_predicate_needs_one(
    tmp_path, monkeypatch, capsys
):
    # A missing data directory is a usage error only once it is loaded, and
    # only --toroidal, --tn and --mtn load it.
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    missing = str(tmp_path / "no_such_dir")
    argv = ["check", "--nil", "--maxnil", "--connected", K6_MINUS_E_G6]
    assert invoke(argv + ["--data-dir", missing]) == (
        0, "nIL: true\nmaxnIL: true\nconnected: true\n"
    )
    # --help lists the predicate flags in the order check prints them.
    with pytest.raises(SystemExit):
        invoke(["check", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    flags = re.findall(r"\[--([\w-]+)\]", usage)
    labels = [line.split(":")[0].lower() for line in ALL_CHECKS_ON_K6_MINUS_E]
    assert flags == labels


def test_check_file_input(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(
        K6_MINUS_E_G6 + "\n" + encode_graph6(complete_graph(6)) + "\n"
    )
    status, text = invoke(["check", "--nil", str(path)])
    assert status == 1
    assert text.splitlines() == ["graph 1 nIL: true", "graph 2 nIL: false"]


def test_check_rejects_an_unsupported_order_before_writing(
    tmp_path, monkeypatch, capsys
):
    # Every order is checked against the database before the first line,
    # and in a file of several graphs the error names the graph by the
    # index stdout uses.
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    path = tmp_path / "graphs.g6"
    path.write_text("G~zf^g\nH~^edb~\n")
    assert invoke(["check", "--toroidal", str(path)]) == (2, "")
    assert capsys.readouterr().err == (
        "error: graph 2: order 9 exceeds the database's supported maximum 8\n"
    )
    assert invoke(["check", "--toroidal", "H~^edb~"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: order 9 exceeds the database's supported maximum 8\n"
    )


def test_check_requires_predicate():
    status, _ = invoke(["check", K6_MINUS_E_G6])
    assert status == 2


def test_check_bad_graph6_is_usage_error():
    status, _ = invoke(["check", "--nil", "!!"])
    assert status == 2


def test_check_empty_string_is_graph6_not_a_path(capsys):
    # '' resolves to the working directory, which is not a graph6 file.
    status, _ = invoke(["check", "--nil", ""])
    assert status == 2
    assert capsys.readouterr().err == "error: empty graph6 string\n"


@pytest.mark.parametrize(
    "spec, why",
    [("data", "a directory"), (os.devnull, "not a regular file")],
    ids=["directory", "device"],
)
def test_check_path_that_is_no_file_is_named(tmp_path, monkeypatch, capsys, spec, why):
    # "data" would otherwise decode as a graph6 string of order 37.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    status, out = invoke(["check", "--nil", spec])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == f"error: {spec}: {why}\n"


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("graphs", "order 40 exceeds the supported maximum 12"),
        ("nofile.g6", "invalid graph6 character in 'nofile.g6'"),
    ],
)
def test_check_missing_file_is_named_with_the_decoders_reason(
    tmp_path, monkeypatch, capsys, spec, reason
):
    monkeypatch.chdir(tmp_path)
    status, out = invoke(["check", "--nil", spec])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {spec}: no such file, and not a graph6 string: {reason}\n"
    )


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_check_graph6_file_without_graphs_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "EMPTY.g6"
    path.write_text(text)
    status, out = invoke(["check", "--nil", str(path)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == "error: EMPTY.g6: no graphs\n"


def test_check_undecodable_graph6_byte_names_file_and_line(tmp_path, capsys):
    # The file is read as UTF-8 whatever the locale, and byte 0xff is none.
    path = tmp_path / "g.g6"
    path.write_bytes(b"E~~w\n\nE~\xffw\n")
    status, out = invoke(["check", "--nil", str(path)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: g.g6: line 3: byte 0xff is not UTF-8 text\n"
    )


@pytest.mark.parametrize(
    "g6",
    ["K??F~z{~Fw^_", encode_graph6(complete_multipartite(4, 4, 4))],
    ids=["K6,6", "K4,4,4"],
)
def test_check_nil_on_symmetric_graph_is_fast(g6):
    # A canonizer without automorphism pruning takes 26-30 s on K6,6.
    proc, elapsed = timed_cli("check", "--nil", g6)
    assert (proc.returncode, proc.stdout) == (1, "nIL: false\n")
    assert elapsed < 5.0


def timed_cli(*argv):
    """The finished `python -m torlink.cli` process and its wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "torlink.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc, time.perf_counter() - start


def test_petersen_stdout_and_file(tmp_path):
    status, text = invoke(["petersen"])
    assert status == 0
    lines = text.splitlines()
    assert len(lines) == 7
    assert lines == [encode_graph6(g) for g in petersen_family()]
    out_file = tmp_path / "family.g6"
    status, _ = invoke(["petersen", "--out", str(out_file)])
    assert status == 0
    assert out_file.read_text() == text


def test_linking_number_output():
    assert invoke(["linking-number", "2", "2"]) == (0, "1\n")
    assert invoke(["linking-number", "3", "5"]) == (0, "0\n")
    assert invoke(["linking-number", "2", "4"]) == (0, "2\n")


def test_linking_number_origin_is_usage_error():
    status, _ = invoke(["linking-number", "0", "0"])
    assert status == 2


def test_slope_command():
    status, text = invoke(["slope", str(FIXTURE), "--cycle", "1,2,3"])
    assert status == 0
    assert "cycle: 1 2 3" in text
    assert "slope:" in text


def test_slope_rejects_non_cycle():
    status, _ = invoke(["slope", str(FIXTURE), "--cycle", "1,2"])
    assert status == 2


def test_slope_bad_cycle_is_usage_error(capsys):
    status, text = invoke(["slope", str(FIXTURE), "--cycle", "1,x,4"])
    assert (status, text) == (2, "")
    assert capsys.readouterr().err == "error: bad cycle '1,x,4'\n"


def test_slope_inessential_cycle():
    status, text = invoke(["slope", str(FIXTURE), "--cycle", "2,4,5"])
    assert status == 0
    assert text.splitlines()[-2:] == ["slope: inessential", "linking: false"]


def test_find_links_on_fixture():
    status, text = invoke(["find-links", str(FIXTURE)])
    assert status == 0
    assert text.startswith("links: 0")


def test_find_links_window_flags(tmp_path):
    path = tmp_path / "linked.emb"
    path.write_text(TWO_TRIANGLES_LINKED)
    status, text = invoke(["find-links", str(path), "--min-cycle", "3", "--max-cycle", "3"])
    assert status == 0
    assert text.splitlines()[0] == "links: 1"
    assert "link: [1 2 3] [4 5 6] slope=1/1" in text


def test_verify_embedding_pass():
    status, text = invoke(["verify-embedding", str(FIXTURE)])
    assert status == 0
    assert "linkless: true" in text


def test_verify_embedding_fail(tmp_path):
    path = tmp_path / "linked.emb"
    path.write_text(TWO_TRIANGLES_LINKED)
    status, text = invoke(["verify-embedding", str(path)])
    assert status == 1
    assert "linkless: false" in text
    assert "link: [1 2 3] [4 5 6] slope=1/1" in text


def test_verify_embedding_warns_on_slope_clash(tmp_path):
    path = tmp_path / "clash.emb"
    path.write_text("order 6\nedges 1-2 2-3 1-3 4-5 5-6 4-6\nup 1->2\nright 4->5\n")
    status, text = invoke(["verify-embedding", str(path)])
    assert status == 0
    assert text == (
        "warning: disjoint essential cycles [1 2 3] and [4 5 6] have slopes "
        "1/0 and 0/1; not a valid embedding\nlinkless: true\n"
    )


def test_verify_embedding_on_3x4_grid_is_fast(tmp_path):
    # Comparing every pair of its 27,182 short cycles takes about 275 s.
    grid = grid_diagram(3, 4)
    path = tmp_path / "grid3x4.emb"
    path.write_text(format_embedding(grid))
    proc, elapsed = timed_cli("verify-embedding", str(path))
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1
    assert lines[0] == "linkless: false"
    assert not [line for line in lines if line.startswith("warning:")]
    links = [line for line in lines if line.startswith("link:")]
    assert len(links) == len(find_links(grid)) == 3045
    assert elapsed < 10.0


def test_verify_embedding_missing_file():
    status, _ = invoke(["verify-embedding", "/nonexistent/x.emb"])
    assert status == 2


def test_verify_embedding_invalid_file(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_text("order 3\nedges 1-2\nup 1->3\nright\n")
    status, _ = invoke(["verify-embedding", str(path)])
    assert status == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("order 13\nedges\nup\nright\n", 1),
        ("order 3\nedges 1-2 2-2\nup\nright\n", 2),
        ("order 3\nedges 1-2 2-3\nup 1->2 2->1\nright\n", 3),
        ("order 3\nedges 1-2 2-3\nup 1->2\nright 1->3\n", 4),
        ("order 3\nedges 1-2 2-1 2-3 1-3\nup\nright\n", 2),
        ("order 3 4\nedges\nup\nright\n", 1),
        ("order 3\nedges 1-2\nup 1->x\nright\n", 3),
        ("order 6\nedges 1-2 2-6\nup 0->2\nright\n", 3),
    ],
    ids=[
        "order",
        "edges",
        "up",
        "right",
        "repeated-edge",
        "order-count",
        "bad-pair",
        "endpoint-zero",
    ],
)
def test_verify_embedding_error_names_line(tmp_path, capsys, text, line):
    path = tmp_path / "x.emb"
    path.write_text(text)
    status, _ = invoke(["verify-embedding", str(path)])
    assert status == 2
    assert capsys.readouterr().err.startswith(f"error: x.emb: line {line}: ")


def test_verify_embedding_undecodable_byte_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "x.emb"
    path.write_bytes(b"order 3\nedges 1-2 2-3\nup 1->2\nright \xc3(\n")
    status, out = invoke(["verify-embedding", str(path)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: x.emb: line 4: byte 0xc3 is not UTF-8 text\n"
    )


def embedding_mutants(text: str, count: int, seed: int) -> list[str]:
    """count single-fault copies of an embedding file: a vertex token set to
    0, -1, n+1, 13 or x, a line dropped or duplicated, or a pair repeated."""
    rng = random.Random(seed)
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    tokens = [m.span() for m in re.finditer(r"\d+", text)]
    mutants = []
    for _ in range(count):
        kind = rng.choice(["vertex", "vertex", "drop", "duplicate", "repeat"])
        i = rng.randrange(len(lines))
        if kind == "vertex":
            start, end = rng.choice(tokens)
            value = rng.choice(["0", "-1", str(n + 1), "13", "x"])
            mutants.append(text[:start] + value + text[end:])
            continue
        changed = list(lines)
        if kind == "drop":
            del changed[i]
        elif kind == "duplicate":
            changed.insert(i, lines[i])
        else:
            i = rng.randrange(1, len(lines))
            changed[i] += " " + rng.choice(lines[i].split()[1:])
        mutants.append("\n".join(changed) + "\n")
    return mutants


def test_verify_embedding_seeded_mutants(tmp_path, capsys):
    # Every malformed file is an exit-2 error naming the file; every file
    # that is accepted has crossing pairs that are edges on 1..n.
    path = tmp_path / "m.emb"
    for text in embedding_mutants(FIXTURE.read_text(), 300, seed=14):
        path.write_text(text)
        try:
            status, _ = invoke(["verify-embedding", str(path)])
        except Exception as exc:
            pytest.fail(f"{text!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert status in (0, 1, 2), text
        if status == 2:
            assert err.startswith("error: m.emb: "), (text, err)
        else:
            d = parse_embedding(text)
            for u, v in d.up_list + d.right_list:
                assert 1 <= min(u, v) and max(u, v) <= d.graph.n, text
                assert d.graph.has_edge(u, v), text


def test_census_maxnil_order6():
    status, text = invoke(["census-maxnil", "6"])
    assert status == 0
    lines = text.splitlines()
    assert lines[0] == "count: 1"
    assert len(lines) == 2
    from torlink import decode_graph6, is_isomorphic

    assert is_isomorphic(
        decode_graph6(lines[1]), complete_graph(6).delete_edge((1, 2))
    )


# SHA-256 of `census-maxnil N` stdout, fixed before class generation
# stopped canonizing every child: the census must not change by a byte.
CENSUS_SHA = {
    3: "1c5be33c7c93093f58907ca05040bd2b3f766b11aeade6b93d1091445150db59",
    4: "33f0141c55d9c8f439632e0d7319673451d1a40e6e06702a66fd7f9eebc73bf0",
    5: "67a24f5d94cb9256b8b592633ade6e43a948f08a65389d9eb99c64dcbe055976",
    6: "149cc3d48886827f15db4b2f82760f0c83adbe39f40ff28477982be9c5dfb59c",
    7: "f4db1082e0fcddb8616af811dd0fdcc55fe6d9fbc2d58aed84e095e0548c9e68",
    8: "fc38c9a2508be001742b5d676d6650172c1de986ba4b614a690ea191e176e3a8",
    9: "901b5d61d34f9c6823443fbce1bf40779eb0801082952c331f468293ff2cb00b",
}


@pytest.mark.parametrize(
    "n", [*range(3, 8), pytest.param(8, marks=pytest.mark.slow)]
)
def test_census_maxnil_stdout_is_pinned(n):
    status, text = invoke(["census-maxnil", str(n)])
    assert status == 0
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_SHA[n]


@pytest.mark.slow
def test_census_maxnil_order9(monkeypatch):
    # The paper's starting point: the 20 maxnIL graphs of order 9, from one
    # walk of the nIL classes, each of them tested once.
    walk, test = torlink.search._levels, torlink.search.is_maxnil
    counts = {"nil": 0, "is_maxnil": 0}

    def counted_walk(n, keep):
        for level in walk(n, keep):
            counts["nil"] += len(level)
            yield level

    def counted_test(g):
        counts["is_maxnil"] += 1
        return test(g)

    monkeypatch.setattr(torlink.search, "_levels", counted_walk)
    monkeypatch.setattr(torlink.search, "is_maxnil", counted_test)
    status, text = invoke(["census-maxnil", "9"])
    assert status == 0
    assert counts == {"nil": 227041, "is_maxnil": 227041}
    lines = text.splitlines()
    assert lines[0] == "count: 20"
    sizes = Counter(decode_graph6(g6).size for g6 in lines[1:])
    assert sizes == {24: 3, 25: 2, 26: 15}
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_SHA[9]


def test_census_maxnil_out_file(tmp_path):
    status, text = invoke(["census-maxnil", "5"])
    assert status == 0
    out_file = tmp_path / "maxnil5.g6"
    assert invoke(["census-maxnil", "5", "--out", str(out_file)]) == (0, "")
    assert out_file.read_bytes() == text.encode()


def test_census_maxnil_bad_order():
    status, _ = invoke(["census-maxnil", "10"])
    assert status == 2


def test_census_maxnil_order10_names_the_range(capsys):
    assert invoke(["census-maxnil", "10"]) == (2, "")
    assert "orders 3..9, got 10" in capsys.readouterr().err


def test_mtn_census_requires_data(tmp_path, monkeypatch):
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    status, _ = invoke(["mtn-census"])
    assert status == 2
    status, _ = invoke(["mtn-census", "--data-dir", str(tmp_path)])
    assert status == 2  # directory lacks the maxnil data file


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_mtn_census_bad_jobs_is_usage_error(tmp_path, monkeypatch, capsys, jobs):
    # Rejected while parsing, before any data file is looked for.
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    with pytest.raises(SystemExit) as exc:
        invoke(["mtn-census", "--data-dir", str(tmp_path), "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --jobs:" in captured.err


def test_certify_pass(tmp_path):
    g6file = tmp_path / "mtn.g6"
    g6file.write_text(K6_MINUS_E_G6 + "\n")
    embdir = tmp_path / "embeddings"
    embdir.mkdir()
    (embdir / "k6e.emb").write_text(FIXTURE.read_text())
    status, text = invoke(
        ["certify", "--mtn", str(g6file), "--embeddings", str(embdir)]
    )
    assert status == 0
    assert "overall=pass" in text


def test_certify_fail_unmatched(tmp_path):
    g6file = tmp_path / "mtn.g6"
    g6file.write_text(K6_MINUS_E_G6 + "\n")
    embdir = tmp_path / "embeddings"
    embdir.mkdir()
    status, text = invoke(
        ["certify", "--mtn", str(g6file), "--embeddings", str(embdir)]
    )
    assert status == 1
    assert "overall=fail" in text


def test_certify_rejects_diagram_that_is_not_an_embedding(tmp_path):
    g6file = tmp_path / "mtn.g6"
    g6file.write_text("EJaG\n")
    embdir = tmp_path / "embeddings"
    embdir.mkdir()
    emb = embdir / "clash.emb"
    emb.write_text(
        "order 6\nedges 1-2 2-3 1-3 4-5 5-6 4-6\nup 1->2\nright 4->5\n"
    )
    _, verified = invoke(["verify-embedding", str(emb)])
    warning = verified.splitlines()[0]
    assert warning.endswith("not a valid embedding")
    assert invoke(
        ["certify", "--mtn", str(g6file), "--embeddings", str(embdir)]
    ) == (
        1,
        "certify graphs=1\n"
        "graph EJaG embedding=clash.emb linkless=true -> INVALID\n"
        f"  {warning}\n"
        "overall=fail\n",
    )


def test_certify_missing_inputs_are_usage_errors(tmp_path, capsys):
    status, _ = invoke(
        ["certify", "--mtn", str(tmp_path / "no.g6"), "--embeddings", str(tmp_path)]
    )
    assert status == 2
    mtn = tmp_path / "mtn.g6"
    mtn.write_text(K6_MINUS_E_G6 + "\n")
    for embeddings in (tmp_path / "no_such_dir", mtn):
        capsys.readouterr()
        status, text = invoke(
            ["certify", "--mtn", str(mtn), "--embeddings", str(embeddings)]
        )
        assert status == 2
        assert text == ""
        assert str(embeddings) in capsys.readouterr().err


def test_certify_graph6_file_without_graphs_is_usage_error(tmp_path, capsys):
    mtn = tmp_path / "EMPTY.g6"
    mtn.write_text("")
    embdir = tmp_path / "embeddings"
    embdir.mkdir()
    (embdir / "k6e.emb").write_text(FIXTURE.read_text())
    status, out = invoke(
        ["certify", "--mtn", str(mtn), "--embeddings", str(embdir)]
    )
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == "error: EMPTY.g6: no graphs\n"


def test_find_links_bad_cycle_window(tmp_path, capsys):
    path = tmp_path / "d.emb"
    path.write_text(TWO_TRIANGLES_LINKED)
    status, _ = invoke(["find-links", str(path), "--min-cycle", "2"])
    assert status == 2
    # A bound below 3 is a usage error on every order, also where the
    # default window is empty.
    small = tmp_path / "small.emb"
    small.write_text("order 4\nedges 1-2 2-3 1-3 3-4\nup 1->2\nright 2->3\n")
    for emb in (path, small):
        for flags, name in (
            (["--min-cycle", "2"], "minimum"),
            (["--max-cycle", "2"], "maximum"),
        ):
            capsys.readouterr()
            assert invoke(["find-links", str(emb), *flags]) == (2, ""), (emb, flags)
            assert capsys.readouterr().err == (
                f"error: invalid {name} cycle length 2; must be >= 3\n"
            )


def test_find_links_inverted_window_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.emb"
    path.write_text(TWO_TRIANGLES_LINKED)
    argv = ["find-links", str(path), "--min-cycle", "4", "--max-cycle", "3"]
    assert invoke(argv) == (2, "")
    assert capsys.readouterr().err == (
        "error: empty cycle window: --min-cycle 4 > --max-cycle 3\n"
    )
    # The default window 3..n-3 of a diagram with n < 6 is empty, not an error.
    small = tmp_path / "small.emb"
    small.write_text("order 5\nedges 1-2 2-3 1-3 3-4 4-5\nup 1->2\nright 2->3\n")
    assert invoke(["find-links", str(small)]) == (0, "links: 0\n")


def test_validate_data(tmp_path, monkeypatch):
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    status, _ = invoke(["validate-data"])
    assert status == 2
    status, text = invoke(["validate-data", "--data-dir", str(tmp_path)])
    assert status == 0
    assert "maxnil_order9.g6: absent" in text
    bad = tmp_path / "obstructions_order9.g6"
    bad.write_text(encode_graph6(complete_graph(8)) + "\n")
    status, _ = invoke(["validate-data", "--data-dir", str(tmp_path)])
    assert status == 2


@pytest.mark.parametrize(
    "argv",
    [["validate-data"], ["mtn-census"], ["check", "--toroidal", K6_MINUS_E_G6]],
    ids=["validate-data", "mtn-census", "check"],
)
@pytest.mark.parametrize("via", ["flag", "env"])
def test_missing_data_dir_is_usage_error(tmp_path, monkeypatch, capsys, argv, via):
    missing = tmp_path / "no_such_dir"
    if via == "flag":
        monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
        argv = argv + ["--data-dir", str(missing)]
    else:
        monkeypatch.setenv("TORLINK_DATA_DIR", str(missing))
    assert invoke(argv) == (2, "")
    assert str(missing) in capsys.readouterr().err


def test_validate_data_rejects_isomorphic_maxnil_graphs(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    planar = stacked_planar(8)
    cone = Graph(9, list(planar.edges) + [(9, v) for v in range(1, 9)])
    (tmp_path / "maxnil_order9.g6").write_text((encode_graph6(cone) + "\n") * 20)
    for command in ("validate-data", "mtn-census"):
        capsys.readouterr()
        status, text = invoke([command, "--data-dir", str(tmp_path)])
        assert status == 2
        assert text == ""
        assert capsys.readouterr().err == "error: graphs 1 and 2 are isomorphic\n"


# The 20 order-9 maxnIL graphs, as `census-maxnil 9` prints them.
MAXNIL_ORDER9 = (
    "Hsa}~^v Hse}v^v Hsm}mvn Hsm}nNz Htm}]nZ Hsfd}~n HtnC~^v HsnVF~} Htqu\\~^ "
    "Htq}~Zr H}rMnfn H}rVUzn H}ve]vf H~zfNVs HHT{~Nz HHU^F~} HJ]\\]^v HJ`|}~n "
    "H`]u~^{ Hjeh}vf"
).split()


def test_maxnil_order9_list_is_the_census():
    text = "\n".join(["count: 20", *MAXNIL_ORDER9]) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_SHA[9]


def test_data_dir_without_order9_obstructions_names_the_file(
    tmp_path, monkeypatch, capsys
):
    # The maxnIL graphs pass their checks; toroidality then needs the
    # order-9 obstruction file, and the error names it.
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    (tmp_path / "maxnil_order9.g6").write_text("\n".join(MAXNIL_ORDER9) + "\n")
    missing = tmp_path / "obstructions_order9.g6"
    for command in ("validate-data", "mtn-census"):
        capsys.readouterr()
        assert invoke([command, "--data-dir", str(tmp_path)]) == (2, "")
        assert capsys.readouterr().err == f"error: missing data file {missing}\n"


@pytest.mark.parametrize("text", ["", "\n\n", ">>graph6<<\n"], ids=["empty", "blank", "header"])
@pytest.mark.parametrize(
    "argv",
    [["validate-data"], ["mtn-census"], ["check", "--toroidal", K6_MINUS_E_G6]],
    ids=["validate-data", "mtn-census", "check"],
)
def test_obstruction_file_without_graphs_names_the_file(
    tmp_path, monkeypatch, capsys, text, argv
):
    # A file that holds no graph would make its order supported with no
    # obstruction of that order.
    monkeypatch.delenv("TORLINK_DATA_DIR", raising=False)
    (tmp_path / "maxnil_order9.g6").write_text("\n".join(MAXNIL_ORDER9) + "\n")
    (tmp_path / "obstructions_order9.g6").write_text(text)
    assert invoke(argv + ["--data-dir", str(tmp_path)]) == (2, "")
    assert capsys.readouterr().err == "error: obstructions_order9.g6: no graphs\n"


def test_readme_cli_block_lists_every_subcommand_and_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = {
        line.split()[1]: line
        for line in readme.splitlines()
        if line.startswith("torlink ") and len(line.split()) > 1
    }
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, sub in subparsers.choices.items():
        assert name in lines, f"README has no line for {name}"
        tokens = set(re.findall(r"--[\w-]+", lines[name]))
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    assert opt in tokens, f"README line for {name} omits {opt}"


def test_parser_is_built_once_per_process(monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert invoke(["linking-number", "2", "4"]) == (0, "2\n")
    assert invoke(["find-links", str(FIXTURE)])[0] == 0
    assert invoke(["linking-number", "3", "3"]) == (0, "3\n")
    assert len(built) == 1


def test_parser_reused_after_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    argv = ["find-links", str(FIXTURE), "--max-cycle", "3"]
    with pytest.raises(SystemExit) as exc:
        invoke(["find-links", str(FIXTURE), "--min-cycle", "x"])
    assert exc.value.code == 2
    assert "argument --min-cycle" in capsys.readouterr().err
    fresh, _ = timed_cli(*argv)
    assert invoke(argv) == (fresh.returncode, fresh.stdout)


def test_help_is_identical_on_repeated_calls(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (["--help"], ["find-links", "--help"], ["--help"]):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                invoke(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: torlink")


def test_reports_byte_identical_across_runs(tmp_path):
    commands = [
        ["check", "--nil", "--maxnil", K6_MINUS_E_G6],
        ["petersen"],
        ["linking-number", "2", "2"],
        ["find-links", str(FIXTURE)],
        ["verify-embedding", str(FIXTURE)],
        ["census-maxnil", "5"],
        ["slope", str(FIXTURE), "--cycle", "2,3,4"],
    ]
    for argv in commands:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_env_data_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TORLINK_DATA_DIR", str(tmp_path))
    status, text = invoke(["validate-data"])
    assert status == 0
