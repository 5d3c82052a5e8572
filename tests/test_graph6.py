import random
from itertools import combinations

import networkx as nx
import pytest

from oracles import naive_classes_exactly
from ramseykit import Graph, build_from_text, emit_graph6, parse_graph6
from ramseykit.graph6 import Graph6Error


def test_k2_is_A_underscore():
    assert emit_graph6(build_from_text("K2")) == "A_"
    assert parse_graph6("A_").edges() == [(0, 1)]


def test_k3_is_Bw():
    assert emit_graph6(build_from_text("K3")) == "Bw"
    g = parse_graph6("Bw")
    assert (g.n, g.edge_count) == (3, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_roundtrip_all_small_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = Graph.from_edges(n, edges)
        back = parse_graph6(emit_graph6(g))
        assert back == g  # vertex-for-vertex


def test_agrees_with_networkx():
    rng = random.Random(3)
    for n in range(2, 11):
        for _ in range(5):
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            g = Graph.from_edges(n, edges)
            ours = emit_graph6(g)
            gx = nx.Graph()
            gx.add_nodes_from(range(n))
            gx.add_edges_from(edges)
            theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
            assert ours == theirs
            back = nx.from_graph6_bytes(ours.encode())
            assert set(back.edges()) == {tuple(e) for e in edges}


@pytest.mark.parametrize(
    "bad",
    [
        "",  # empty
        "A",  # truncated bit vector
        "B\x1f\x1f",  # out-of-range bytes
        "A__",  # trailing bytes
        "Aw",  # nonzero padding for n=2
        "~~",  # unsupported long form
    ],
)
def test_malformed_rejected(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_long_form_header():
    g = Graph.from_edges(63, [(0, 1), (10, 40)])
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
