import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torlink import Graph, complete_graph, decode_graph6, encode_graph6
from torlink.errors import ParseError
from torlink.graph6 import read_graph6_file

from bruteforce import all_graphs_of_order, random_graph, to_nx


def test_round_trip_exhaustive_order_le5():
    for n in range(1, 6):
        for g in all_graphs_of_order(n):
            assert decode_graph6(encode_graph6(g)) == g


@st.composite
def graphs(draw, max_n: int) -> Graph:
    """Any labeled graph of order 0..max_n."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, on in zip(pairs, bits) if on])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs(12))
def test_round_trip_property(g):
    assert decode_graph6(encode_graph6(g)) == g


def test_matches_networkx_encoding():
    rng = random.Random(61)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 1.0))
        reference = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert encode_graph6(g) == reference


def test_decodes_networkx_output():
    rng = random.Random(62)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 1.0))
        line = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert decode_graph6(line) == g


def test_k1_and_empty_strings():
    assert decode_graph6("@") == Graph(1)
    assert encode_graph6(Graph(1)) == "@"
    with pytest.raises(ParseError):
        decode_graph6("")


def test_invalid_character_rejected():
    with pytest.raises(ParseError):
        decode_graph6("E\x1f??")


def test_wrong_length_rejected():
    k4 = encode_graph6(complete_graph(4))
    with pytest.raises(ParseError):
        decode_graph6(k4 + "?")
    with pytest.raises(ParseError):
        decode_graph6(k4[:-1])


def test_order_above_limit_rejected():
    line = nx.to_graph6_bytes(nx.complete_graph(13), header=False).decode().strip()
    with pytest.raises(ParseError):
        decode_graph6(line)


def test_nonzero_padding_rejected():
    # K3 needs 3 bits; flip the last of the three padding bits.
    good = encode_graph6(complete_graph(3))
    bad = good[0] + chr(ord(good[1]) ^ 1)
    with pytest.raises(ParseError):
        decode_graph6(bad)


def test_read_graph6_file(tmp_path):
    path = tmp_path / "graphs.g6"
    graphs = [complete_graph(3), complete_graph(4).delete_edge((1, 2))]
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    assert read_graph6_file(path) == graphs


def test_read_graph6_file_skips_header_on_first_line_only(tmp_path):
    graphs = [complete_graph(5), complete_graph(4).delete_edge((1, 2))]
    path = tmp_path / "h.g6"
    path.write_bytes(
        nx.to_graph6_bytes(to_nx(graphs[0]), header=True)
        + nx.to_graph6_bytes(to_nx(graphs[1]), header=False)
    )
    assert path.read_text().startswith(">>graph6<<")
    assert read_graph6_file(path) == graphs
    g6 = [encode_graph6(g) for g in graphs]
    path.write_text(f"{g6[0]}\n>>graph6<<{g6[1]}\n")
    with pytest.raises(ParseError, match="line 2"):
        read_graph6_file(path)


def test_read_graph6_file_empty(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    assert read_graph6_file(path) == []


def test_read_graph6_file_reports_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text(encode_graph6(complete_graph(3)) + "\n!!\n")
    with pytest.raises(ParseError) as err:
        read_graph6_file(path)
    assert "line 2" in str(err.value)
