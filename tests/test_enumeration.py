import hashlib
import sys
from itertools import combinations_with_replacement

import pytest

from oracles import burnside_counts_by_edges, naive_classes_no_isolated_upto
from ramseykit import arrowing, enumeration
from ramseykit import (
    Graph,
    MinimalCatalog,
    MinimalityReport,
    SearchBounds,
    build_from_text,
    catalog_density_audit,
    certificate,
    contains_copy,
    emit_graph6,
    enumerate_graphs,
    enumerate_ramsey_minimal,
    is_ramsey_minimal,
    naive_arrows,
)
from ramseykit.enumeration import CatalogMember

b = build_from_text


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(-1, 3)
    with pytest.raises(ValueError):
        SearchBounds(100, 3)


@pytest.mark.parametrize("budget", [0, -1])
def test_bounds_reject_a_budget_below_one(budget):
    # at construction, not at the first search
    with pytest.raises(ValueError, match="node budget must be at least 1"):
        SearchBounds(4, 4, node_budget=budget)
    assert SearchBounds(4, 4, node_budget=1).node_budget == 1


def test_two_vertices_gives_k2_only():
    gs = list(enumerate_graphs(SearchBounds(2, 5)))
    assert len(gs) == 1
    assert certificate(gs[0]) == certificate(b("K2"))


def test_small_classes_match_naive_generation():
    for n in (3, 4, 5):
        ours = {certificate(g) for g in enumerate_graphs(SearchBounds(n, n * (n - 1) // 2))}
        naive = {certificate(g) for g in naive_classes_no_isolated_upto(n)}
        assert ours == naive


def test_counts_match_burnside():
    # classes with no isolated vertices, <= V vertices and <= E edges equal
    # the Burnside count of graphs on V labeled vertices with 1..E edges
    # (pad with isolated vertices for the bijection)
    for V, E in ((4, 6), (5, 10), (6, 15), (8, 10)):
        counts = burnside_counts_by_edges(V)
        expected = sum(counts[1:E + 1])
        got = sum(1 for _ in enumerate_graphs(SearchBounds(V, E)))
        assert got == expected


def test_classes_order_and_labeling_are_pinned():
    # the class set, the yield order and every canonical labeling at once
    text = "\n".join(
        f"{emit_graph6(g)} {certificate(g).decode()}" for g in enumerate_graphs(SearchBounds(8, 10))
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "50fbe20b225d92de"


def test_edge_bound_respected_and_no_duplicates():
    gs = list(enumerate_graphs(SearchBounds(6, 4)))
    certs = [certificate(g) for g in gs]
    assert len(certs) == len(set(certs))
    for g in gs:
        assert g.edge_count <= 4
        assert not g.isolated_vertices()
        assert g.n <= 6


def test_catalog_k2_k2():
    cat = enumerate_ramsey_minimal(b("K2"), b("K2"), SearchBounds(4, 4))
    assert [certificate(g) for g in cat.member_graphs()] == [certificate(b("K2"))]
    assert cat.completeness == "complete within bounds"


def test_catalog_matches_naive_oracle_small():
    # Fix the expected set with the unpruned oracle, then compare
    bounds = SearchBounds(6, 6)
    G = H = b("2K2")
    expected = set()
    for F in enumerate_graphs(bounds):
        if not naive_arrows(F, G, H):
            continue
        if all(naive_arrows(F.delete_edge(u, v), G, H) is False for u, v in F.edges()):
            expected.add(certificate(F))
    cat = enumerate_ramsey_minimal(G, H, bounds)
    assert {certificate(g) for g in cat.member_graphs()} == expected
    assert expected == {certificate(b("3K2")), certificate(b("C5"))}


def test_catalog_antichain_and_witnesses():
    cat = enumerate_ramsey_minimal(b("2K2"), b("2K2"), SearchBounds(6, 6))
    members = cat.member_graphs()
    for i, f1 in enumerate(members):
        for j, f2 in enumerate(members):
            if i != j:
                assert contains_copy(f1, f2) is None or certificate(f1) == certificate(f2)
    for member in cat.members:
        for e, w in member.minimality.per_edge.items():
            assert w is not None
            assert w.is_good(b("2K2"), b("2K2"))


def test_catalog_bound_monotonicity():
    small = enumerate_ramsey_minimal(b("2K2"), b("2K2"), SearchBounds(5, 5))
    large = enumerate_ramsey_minimal(b("2K2"), b("2K2"), SearchBounds(6, 7))
    small_certs = {certificate(g) for g in small.member_graphs()}
    large_certs = {certificate(g) for g in large.member_graphs()}
    assert small_certs <= large_certs


def test_each_candidate_is_proved_once(monkeypatch):
    asked = []
    real = arrowing.arrows

    def counting(F, G, H, **kwargs):
        asked.append((F.n, F.adj))
        return real(F, G, H, **kwargs)

    # rebind every module's name for it, as the benchmark tracer does
    for name, module in list(sys.modules.items()):
        if name.startswith("ramseykit") and getattr(module, "arrows", None) is real:
            monkeypatch.setattr(module, "arrows", counting)
    cat = enumerate_ramsey_minimal(b("2K2"), b("2K2"), SearchBounds(8, 10))
    assert {certificate(g) for g in cat.member_graphs()} == {certificate(b("3K2")), certificate(b("C5"))}
    assert asked
    assert len(asked) == len(set(asked))


def test_catalog_budget_limited_flag():
    cat = enumerate_ramsey_minimal(b("K3"), b("K3"), SearchBounds(6, 15, node_budget=10))
    assert cat.completeness == "budget-limited"


def test_members_contain_both_targets():
    cat = enumerate_ramsey_minimal(b("K3"), b("K3"), SearchBounds(6, 15))
    for g in cat.member_graphs():
        assert contains_copy(g, b("K3")) is not None


def test_density_audit():
    cat = enumerate_ramsey_minimal(b("K3"), b("K3"), SearchBounds(6, 15))
    report = catalog_density_audit(cat, b("K3"), b("K3"))
    assert report.all_pass
    assert report.threshold == 2
    # C5 could never sneak into this catalog: it does not even contain K3
    assert contains_copy(b("C5"), b("K3")) is None


def test_catalog_document():
    cat = enumerate_ramsey_minimal(b("K2"), b("K2"), SearchBounds(4, 4))
    doc = cat.to_document()
    assert doc["completeness"] == "complete within bounds"
    assert doc["members"][0]["graph6"] == "A_"
    assert doc["bounds"]["max_vertices"] == 4


def _has_triangle(g):
    return any(g.adj[u] & g.adj[v] for u, v in g.edges())


def test_enumerate_graphs_honours_grow():
    bounds = SearchBounds(7, 8)
    full = list(enumerate_graphs(bounds))
    yielded, asked = [], []

    def grow(g):
        # asked only about a graph the caller has already received
        assert g in yielded
        asked.append(g)
        return not _has_triangle(g)

    for g in enumerate_graphs(bounds, grow=grow):
        yielded.append(g)
    assert asked
    # triangle-freeness is closed under subgraphs: those classes all survive, in order
    free = [certificate(g) for g in full if not _has_triangle(g)]
    assert [certificate(g) for g in yielded if not _has_triangle(g)] == free

    def grown_parent(g):
        return g.edge_count == 1 or any(
            not _has_triangle(g.delete_edge(u, v).without_isolated()) for u, v in g.edges()
        )

    assert all(grown_parent(g) for g in yielded)
    assert {certificate(g) for g in yielded} == {certificate(g) for g in full if grown_parent(g)}
    assert len(yielded) < len(full)


def test_enumerate_graphs_tests_extensions_before_canon(monkeypatch):
    bounds = SearchBounds(7, 8)
    full = list(enumerate_graphs(bounds))
    labeled = []
    real = enumeration.canonical_form

    def recording(g):
        labeled.append(g)
        return real(g)

    monkeypatch.setattr(enumeration, "canonical_form", recording)
    yielded = list(enumerate_graphs(bounds, grow=lambda g: lambda child: not _has_triangle(child)))
    # an extension that fails the test is never canonicalized
    assert labeled and not any(_has_triangle(g) for g in labeled)
    # triangle-freeness is closed under subgraphs: every such class, in order
    free = [certificate(g) for g in full if not _has_triangle(g)]
    assert [certificate(g) for g in yielded] == free


def _unpruned_catalog(G, H, bounds):
    """The catalog from every class within the bounds, with only the
    containment pre-filter."""
    members, complete = [], True
    for F in enumerate_graphs(bounds):
        if any(
            m.graph.edge_count < F.edge_count and contains_copy(F, m.graph) is not None
            for m in members
        ):
            continue
        report = is_ramsey_minimal(F, G, H, budget=bounds.node_budget)
        if report.is_minimal is None:
            complete = False
        elif report.is_minimal:
            members.append(CatalogMember(F, report))
    return MinimalCatalog((G, H), bounds, members, complete)


def test_candidates_with_unknown_verdicts_are_still_grown(monkeypatch):
    # only a proof of arrowing stops growth: an unknown graph may lie below a member
    real = enumeration.is_ramsey_minimal

    def unknown_up_to_two_edges(F, G, H, budget):
        if F.edge_count <= 2:
            return MinimalityReport(None, {}, None)
        return real(F, G, H, budget=budget)

    monkeypatch.setattr(enumeration, "is_ramsey_minimal", unknown_up_to_two_edges)
    cat = enumerate_ramsey_minimal(b("2K2"), b("2K2"), SearchBounds(6, 6))
    assert {certificate(g) for g in cat.member_graphs()} == {certificate(b("3K2")), certificate(b("C5"))}
    assert cat.completeness == "budget-limited"


@pytest.mark.parametrize("bounds", [SearchBounds(6, 7), SearchBounds(6, 8, node_budget=5)])
def test_pruned_catalog_matches_unpruned_reference(bounds):
    names = ["K2", "2K2", "3K2", "P3", "K3", "S3", "C4", "K2+P3"]
    limited = 0
    for g, h in combinations_with_replacement(names, 2):
        G, H = b(g), b(h)
        expected = _unpruned_catalog(G, H, bounds).to_document()
        assert enumerate_ramsey_minimal(G, H, bounds).to_document() == expected, (g, h)
        limited += expected["completeness"] == "budget-limited"
    # the budget-limited setting does leave some catalogs incomplete
    assert (limited > 0) == (bounds.node_budget == 5)


def _one_edge_extensions(g):
    """g plus each non-edge, each pendant edge and the fresh disjoint edge."""
    n = g.n
    out = [g.add_edge(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    for u in range(n):
        out.append(Graph.from_edges(n + 1, g.edges() + [(u, n)]))
    out.append(Graph.from_edges(n + 2, g.edges() + [(n, n + 1)]))
    return out


GATE_PATTERNS = ["3K2", "C5", "2K3", "C4", "K4", "P3+K2", "S3+K2"]


def test_member_gate_is_a_necessary_condition():
    # an extension of a graph free of M contains M only if the graph
    # contains a one-edge deletion of M: the catalog looks for a member only
    # in the extensions of graphs that pass this test
    caught = 0
    for name in GATE_PATTERNS:
        M = b(name)
        cuts = [M.delete_edge(u, v).without_isolated() for u, v in M.edges()]
        # one deletion per edge orbit covers every deletion up to isomorphism
        assert {certificate(d) for d in enumeration._deletions(M)} == {certificate(d) for d in cuts}
        for g in enumerate_graphs(SearchBounds(6, 7)):
            if contains_copy(g, M) is not None:
                continue
            near = any(contains_copy(g, d) is not None for d in cuts)
            for child in _one_edge_extensions(g):
                if contains_copy(child, M) is not None:
                    caught += 1
                    assert near, (name, emit_graph6(g), emit_graph6(child))
    assert caught > 0


@pytest.mark.parametrize(
    "pair,bounds",
    [(("2K2", "2K2"), (8, 10)), (("P3", "2K2"), (9, 10)), (("K3", "2K2"), (7, 9))],
)
def test_no_candidate_contains_an_earlier_member(monkeypatch, pair, bounds):
    real = enumeration.is_ramsey_minimal
    asked = []  # (candidate, whether it is minimal), in the order asked

    def recording(F, G, H, budget):
        report = real(F, G, H, budget=budget)
        asked.append((F, report.is_minimal))
        return report

    monkeypatch.setattr(enumeration, "is_ramsey_minimal", recording)
    cat = enumerate_ramsey_minimal(b(pair[0]), b(pair[1]), SearchBounds(*bounds))
    assert cat.members
    members = []
    for F, minimal in asked:
        assert all(contains_copy(F, M) is None for M in members), emit_graph6(F)
        if minimal:
            members.append(F)
    assert [certificate(M) for M in members] == [certificate(M) for M in cat.member_graphs()]


def _document(pair, max_v, max_e, members):
    return {
        "pair": pair,
        "bounds": {"max_vertices": max_v, "max_edges": max_e, "node_budget": 100000000},
        "members": [
            {"graph6": g6, "vertices": n, "edges": m, "edge_witnesses": m} for g6, n, m in members
        ],
        "completeness": "complete within bounds",
    }


@pytest.mark.parametrize(
    "question,want",
    [
        (
            ("P3", "2K2", 9, 10),
            _document(["Bg", "C`"], 9, 10, [("C]", 4, 4), ("EW?W", 6, 4), ("DLo", 5, 5)]),
        ),
        (("2K2", "K3", 7, 9), _document(["C`", "Bw"], 7, 9, [("EwCW", 6, 6)])),
    ],
)
def test_catalog_documents_are_pinned(question, want):
    # recorded while every candidate was still canonicalized and checked
    # for members after it was yielded
    G, H, max_v, max_e = question
    assert enumerate_ramsey_minimal(b(G), b(H), SearchBounds(max_v, max_e)).to_document() == want
