import hashlib
import random
import tracemalloc

import pytest

from oracles import naive_classes_no_isolated_upto
from ramseykit import (
    Graph,
    SearchBounds,
    arrows,
    build,
    build_from_text,
    certificate,
    contains_copy,
    enumerate_graphs,
    parse_spec,
)
from ramseykit.classify import StarForestShape, _shape_and_cycle
from ramseykit.graphs import MAX_VERTICES, VertexCapError


def test_build_star():
    g = build_from_text("S3")
    assert g.n == 4
    assert g.edge_count == 3
    assert sorted(g.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_build_empty_matching():
    g = build_from_text("0K2")
    assert g.n == 0
    assert g.edge_count == 0


def test_build_union():
    g = build_from_text("S5+S2")
    assert g.n == 9
    assert g.edge_count == 7
    assert len(g.connected_components()) == 2


@pytest.mark.parametrize("bad", ["C2", "S0", "0S3", "P0", "K0"])
def test_build_invalid_primitives(bad):
    with pytest.raises(ValueError):
        build_from_text(bad)


def test_delete_edge_triangle_gives_path():
    k3 = build_from_text("K3")
    p3 = k3.delete_edge(0, 1)
    assert p3.edge_count == 2
    assert certificate(p3) == certificate(build_from_text("P3"))


def test_delete_edge_keeps_isolated_vertices():
    k2 = build_from_text("K2")
    g = k2.delete_edge(0, 1)
    assert g.n == 2
    assert g.edge_count == 0
    assert g.isolated_vertices() == [0, 1]


def test_delete_edge_cycle_gives_path():
    c5 = build_from_text("C5")
    assert certificate(c5.delete_edge(0, 1)) == certificate(build_from_text("P5"))


def test_delete_edge_missing_edge_errors():
    with pytest.raises(ValueError):
        build_from_text("P3").delete_edge(0, 2)


def test_has_edge_is_false_for_labels_outside_the_graph():
    g = build_from_text("P3")
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    for u, v in ((0, -1), (-1, 0), (-1, -1), (0, 3), (3, 0), (1, 64)):
        assert not g.has_edge(u, v), (u, v)
    with pytest.raises(ValueError, match=r"\(0,-1\) is not an edge"):
        g.delete_edge(0, -1)


def test_delete_then_readd_restores_certificate():
    g = build_from_text("C5+S3")
    for u, v in g.edges():
        assert certificate(g.delete_edge(u, v).add_edge(u, v)) == certificate(g)


def test_components_star_and_matching():
    assert _shape_and_cycle(build_from_text("S3+2K2")) == (StarForestShape((3,), 2), False)


def test_components_path_is_nonstar_tree():
    assert _shape_and_cycle(build_from_text("P4")) == (None, False)


def test_components_cycle_and_even_star():
    assert _shape_and_cycle(build_from_text("K3+S2")) == (None, True)
    assert _shape_and_cycle(build_from_text("S2+K3")) == (None, True)
    assert _shape_and_cycle(build_from_text("S2")) == (StarForestShape((2,), 0), False)


def test_components_recover_spec_primitives():
    assert _shape_and_cycle(build_from_text("S5+S2+3K2")) == (StarForestShape((5, 2), 3), False)


def _kind_of_induced(c):
    # the definition, on the component built as a graph of its own
    m = c.edge_count
    if m == 0:
        return ("isolated", None)
    if m == 1:
        return ("K2", None)
    if m >= c.n:
        return ("cyclic", None)
    if max(c.degree(v) for v in range(c.n)) == m:
        return ("star", m)
    return ("tree", None)


def test_components_match_the_induced_definition():
    hosts = [build_from_text("S3+122K2")]
    for g in enumerate_graphs(SearchBounds(7, 7)):
        hosts += [g, g.disjoint_union(Graph.empty(2)), Graph.empty(1).disjoint_union(g)]
    for g in hosts:
        kinds = [_kind_of_induced(g.induced(vs)) for vs in g.connected_components()]
        stars = sorted((size for kind, size in kinds if kind == "star"), reverse=True)
        matching = sum(1 for kind, _ in kinds if kind == "K2")
        shaped = all(kind in ("K2", "star") for kind, _ in kinds)
        want = (StarForestShape(tuple(stars), matching) if shaped else None, ("cyclic", None) in kinds)
        assert _shape_and_cycle(g) == want, g.edges()


def test_degree_rejects_labels_outside_the_graph():
    g = build_from_text("S3")
    assert [g.degree(v) for v in range(4)] == [3, 1, 1, 1]
    for v in (-1, 4, 64):
        with pytest.raises(ValueError, match=r"0\.\.3"):
            g.degree(v)
    with pytest.raises(ValueError):
        Graph.empty(0).degree(0)


def test_parse_spec_forms():
    assert parse_spec("122K2") == [(122, "K", 2)]
    assert parse_spec("3K2") == [(3, "K", 2)]
    assert parse_spec("0K2") == [(0, "K", 2)]
    assert parse_spec("K6") == [(1, "K", 6)]
    assert parse_spec("S5+S2") == [(1, "S", 5), (1, "S", 2)]
    assert parse_spec("2S3") == [(2, "S", 3)]
    # syntax only: a size no graph has parses, and `build` rejects it
    assert parse_spec(" C2 + 2000K2") == [(1, "C", 2), (2000, "K", 2)]
    assert build(parse_spec("2S3+P2")) == build_from_text("S3+S3+K2")


_PIN_TERMS = [f"{count}{kind}{size}" for kind in "SKPC" for size in range(6) for count in ("", "0", "2", "3")]
_PIN_TEXTS = [
    "K6", "C5", "P4", "S3", "5K2", "S5+S2", "S3+122K2", "S0", "2000K2", "K2+K1", "K5", "K9", "K11", "4K2",
    "S3+K2", "K4+K10", "K12+K12", "12K2", "512K2", "512K2+K1", "100000000K2", "S3+2K2+P3+C4+K4",
    "2S3+0K2+C5", "255S3",
]


def test_expression_labels_are_pinned():
    # every S/K/P/C term of size 0-5 with no count or count 0, 2 or 3, every
    # sum of two of them, and the README and CI texts: the graph each builds,
    # labels included, or the type of the error it raises
    texts = _PIN_TERMS + [f"{a}+{b}" for a in _PIN_TERMS for b in _PIN_TERMS] + _PIN_TEXTS
    digest = hashlib.sha256()
    for text in texts:
        try:
            g = build_from_text(text)
            got = (text, g.n, g.adj)
        except ValueError as exc:
            got = (text, type(exc).__name__)
        digest.update(repr(got).encode())
    assert len(texts) == 9336
    assert digest.hexdigest() == "38b93229dd72c2899f7c1f3ab6b3dc2bc0e59caec2843e12aea31e948bffc9e2"


@pytest.mark.parametrize("bad", ["", "Q5", "S", "K3++K3", "5", "C2"])
def test_parse_or_build_rejects(bad):
    with pytest.raises(ValueError):
        build_from_text(bad)


def test_has_cycle_matches_cycle_containment():
    cycles = {k: build_from_text(f"C{k}") for k in range(3, 7)}
    for core in naive_classes_no_isolated_upto(5):
        for g in (core, core.disjoint_union(Graph.empty(1))):
            want = any(contains_copy(g, cycles[k]) is not None for k in range(3, g.n + 1))
            assert g.has_cycle() == want, g.edges()


def test_vertex_limit_is_checked_before_building():
    # a build that made its edge list first would pass 100 MB here
    tracemalloc.start()
    try:
        for text in ("1000000K2", "2000K2", "1000000S3", "S1000000", "K1000000", "P1000000+K2"):
            with pytest.raises(VertexCapError, match="1024"):
                build_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert build_from_text("512K2").n == 1024
    with pytest.raises(VertexCapError):
        build_from_text("512K2+K1")


def test_vertex_cap():
    with pytest.raises(VertexCapError):
        Graph.from_edges(1025, ())
    with pytest.raises(VertexCapError):
        Graph(1025, (0,) * 1025)
    assert Graph.from_edges(65, ()).n == 65


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_disjoint_union_counts():
    a = build_from_text("C5")
    b = build_from_text("K4")
    u = a.disjoint_union(b)
    assert (u.n, u.edge_count) == (9, 11)
    assert len(u.connected_components()) == 2


@pytest.mark.parametrize(
    "n,adj",
    [
        (2, (0b10, 0b00)),  # asymmetric
        (2, (0b01, 0b00)),  # self-loop
        (2, (0b100, 0b000)),  # row mentions a vertex >= n
        (3, (0b10, 0b01)),  # one row short
    ],
)
def test_malformed_graph_still_raises(n, adj):
    with pytest.raises(ValueError):
        Graph(n, adj)


def test_induced_matches_brute_force():
    rng = random.Random(3)
    for n in list(range(9)) + [16, 33, 64]:
        for density in (0.1, 0.5, 0.9):
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
            for kept in ([], list(range(n)), rng.sample(range(n), rng.randint(0, n))):
                pos = {v: i for i, v in enumerate(sorted(kept))}
                want = Graph.from_edges(
                    len(pos), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
                )
                got = g.induced(kept)
                assert got == want == Graph(got.n, got.adj), (n, g.edges(), kept)
    with pytest.raises(ValueError):
        build_from_text("K3").induced([0, 3])
    with pytest.raises(ValueError):
        build_from_text("K3").induced([-1])


def _with_isolated(rng, n, isolated, density):
    """A random graph on n vertices whose isolated vertices are exactly
    `isolated`; every other vertex gets at least one edge."""
    kept = [v for v in range(n) if v not in isolated]
    edges = {(u, v) for i, u in enumerate(kept) for v in kept[i + 1:] if rng.random() < density}
    for u in kept:
        if not any(u in e for e in edges):
            v = rng.choice([w for w in kept if w != u])
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def _isolated_sets(rng, n):
    """Isolated vertex sets of each placement, leaving at least two other
    vertices (a lone vertex cannot have an edge)."""
    out = {"none": set(), "all": set(range(n))}
    if n >= 3:
        k = rng.randint(1, n - 2)
        out["leading"] = set(range(k))
        out["trailing"] = set(range(n - k, n))
        out["interior"] = set(rng.sample(range(1, n - 1), rng.randint(1, n - 2)))
        out["anywhere"] = set(rng.sample(range(n), k))
    return out


def _brute_without_isolated(g):
    edges = g.edges()
    pos = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    return Graph.from_edges(len(pos), [(pos[u], pos[v]) for u, v in edges])


def test_without_isolated_matches_brute_force():
    rng = random.Random(27)
    seen = set()
    for n in list(range(9)) + [16, 33, 64]:
        for density in (0.1, 0.35, 0.7):
            for where, isolated in _isolated_sets(rng, n).items():
                if n - len(isolated) == 1:
                    continue
                g = _with_isolated(rng, n, isolated, density)
                assert set(g.isolated_vertices()) == isolated, (n, where)
                got = g.without_isolated()
                assert got == _brute_without_isolated(g) == Graph(got.n, got.adj), (n, where, g.edges())
                assert (got is g) == (not isolated)
                seen.add(where)
    assert seen == {"none", "all", "leading", "trailing", "interior", "anywhere"}
    # a sparse graph at the vertex limit, isolated vertices spread through it
    n = MAX_VERTICES
    isolated = set(rng.sample(range(1, n - 1), 700))
    g = _with_isolated(rng, n, isolated, 0.004)
    assert set(g.isolated_vertices()) == isolated
    got = g.without_isolated()
    assert got == _brute_without_isolated(g) == Graph(got.n, got.adj)
    assert got.n == n - 700


def test_derived_graphs_equal_validated_ones():
    g = build_from_text("C5+P3")
    for derived in (
        g.induced([0, 1, 2, 6, 7]),
        g.relabel(list(reversed(range(g.n)))),
        g.delete_edge(0, 1),
        g.add_edge(0, 5),
        g.disjoint_union(g),
        g.without_isolated(),
    ):
        assert derived == Graph(derived.n, derived.adj)
        assert hash(derived) == hash(Graph(derived.n, derived.adj))


def test_graph_given_a_list_of_rows_holds_a_tuple():
    g = Graph(3, [6, 5, 3])
    assert g.adj == (6, 5, 3)
    assert g == build_from_text("K3") and hash(g) == hash(build_from_text("K3"))
    assert certificate(g) == certificate(build_from_text("K3"))
    assert arrows(build_from_text("K6"), g, build_from_text("K3")).arrows is True
