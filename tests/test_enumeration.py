import gc
import hashlib
import json
import sys
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from oracles import burnside_counts_by_edges, naive_classes_no_isolated_upto
from ramseykit import arrowing, enumeration
from ramseykit import (
    MinimalCatalog,
    MinimalityReport,
    SearchBounds,
    build_from_text,
    canonical_representative,
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
    for V, E in ((4, 6), (5, 10), (6, 15), (7, 21), (8, 10)):
        counts = burnside_counts_by_edges(V)
        expected = sum(counts[1:E + 1])
        got = sum(1 for _ in enumerate_graphs(SearchBounds(V, E)))
        assert got == expected


def test_no_certificate_is_emitted_twice():
    # 2178 classes recorded while each level kept a table of certificates
    certs = [certificate(g) for g in enumerate_graphs(SearchBounds(12, 9))]
    assert len(certs) == len(set(certs)) == 2178


def _class_lines(bounds):
    return [f"{emit_graph6(g)} {certificate(g).decode()}" for g in enumerate_graphs(bounds)]


def test_classes_and_labelings_are_pinned():
    # the class set and every canonical labeling, whatever the yield order
    text = "\n".join(sorted(_class_lines(SearchBounds(8, 10))))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "dd05a01f889e23e8"


def test_classes_yield_order_is_pinned():
    text = "\n".join(_class_lines(SearchBounds(8, 10)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "68dd51b235b425ec"


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


def test_a_catalog_leaves_no_memory_behind():
    # canon keeps no memo, so a dropped catalog frees what it computed; the
    # warm-up compiles the copy kernels of 2K2, 3K2 and C5, kept per pattern
    G = b("2K2")
    enumerate_ramsey_minimal(G, G, SearchBounds(6, 8))
    gc.collect()
    tracemalloc.start()
    try:
        catalog = enumerate_ramsey_minimal(G, G, SearchBounds(8, 10))
        assert len(catalog.members) == 2
        del catalog
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8192, held


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


def _max_degree(g):
    return max(row.bit_count() for row in g.adj)


def _canonical_deletion(g):
    """g less its canonical deletion, isolated vertices dropped: among the
    edges of the canonical representative with the least (degree sum,
    least degree, common neighbours), the least one."""
    r = canonical_representative(g)

    def key(e):
        du, dv = r.degree(e[0]), r.degree(e[1])
        return du + dv, min(du, dv), (r.adj[e[0]] & r.adj[e[1]]).bit_count()

    least = min(map(key, r.edges()))
    u, v = min(e for e in r.edges() if key(e) == least)
    return r.delete_edge(u, v).without_isolated()


def test_enumerate_graphs_honours_grow():
    bounds = SearchBounds(7, 8)
    full = list(enumerate_graphs(bounds))
    yielded, asked = [], []

    def grow(g):
        # asked only about a graph the caller has already received
        assert g in yielded
        asked.append(g)
        if _has_triangle(g):
            return False
        return lambda child: _max_degree(child) <= 3

    for g in enumerate_graphs(bounds, grow=grow):
        yielded.append(g)
    assert asked
    # triangle-free graphs of degree at most 3 are closed under subgraphs:
    # those classes all survive, in order
    def accepted(g):
        return not _has_triangle(g) and _max_degree(g) <= 3

    kept = [certificate(g) for g in full if accepted(g)]
    assert [certificate(g) for g in yielded if accepted(g)] == kept
    # a class is emitted iff it is K2, or its canonical deletion was emitted
    # and grown, and the class passed that graph's test
    emitted = {certificate(g) for g in yielded}
    grown = {certificate(g) for g in asked if not _has_triangle(g)}
    assert len(emitted) == len(yielded)

    def reached(g):
        if g.edge_count == 1:
            return True
        parent = certificate(_canonical_deletion(g))
        return parent in emitted and parent in grown and _max_degree(g) <= 3

    assert emitted == {certificate(g) for g in full if reached(g)}
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
            return MinimalityReport(None, {})
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


@pytest.mark.parametrize(
    "pair,bounds",
    [(("2K2", "2K2"), (8, 10)), (("P3", "2K2"), (9, 10)), (("K3", "2K2"), (7, 9)), (("3K2", "2K2"), (9, 11))],
)
def test_member_gate_runs_before_canon(monkeypatch, pair, bounds):
    # an extension is tested against every member with fewer edges before it
    # is canonicalized; one with as many edges is the member's own class,
    # which canonical augmentation never emits twice
    labeled = []
    real = enumeration.canonical_form

    def recording(g):
        labeled.append(g)
        return real(g)

    monkeypatch.setattr(enumeration, "canonical_form", recording)
    cat = enumerate_ramsey_minimal(b(pair[0]), b(pair[1]), SearchBounds(*bounds))
    members = cat.member_graphs()
    assert members and labeled
    for g in labeled:
        smaller = [M for M in members if M.edge_count < g.edge_count]
        assert all(contains_copy(g, M) is None for M in smaller), emit_graph6(g)


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


def _document(pair, bounds, members, completeness="complete within bounds"):
    max_v, max_e, budget = bounds
    return {
        "pair": pair,
        "bounds": {"max_vertices": max_v, "max_edges": max_e, "node_budget": budget},
        "members": [
            {"graph6": g6, "vertices": n, "edges": m, "edge_witnesses": m} for g6, n, m in members
        ],
        "completeness": completeness,
    }


FULL = 100000000  # the default node budget


@pytest.mark.parametrize(
    "question,want",
    [
        (
            ("2K2", "2K2", 10, 12, FULL),
            _document(["C`", "C`"], (10, 12, FULL), [("E`?G", 6, 3), ("DLo", 5, 5)]),
        ),
        (
            ("P3", "2K2", 9, 10, FULL),
            _document(["Bg", "C`"], (9, 10, FULL), [("C]", 4, 4), ("EW?W", 6, 4), ("DLo", 5, 5)]),
        ),
        (
            ("K3", "2K2", 8, 10, FULL),
            _document(["Bw", "C`"], (8, 10, FULL), [("EwCW", 6, 6), ("D~{", 5, 10)]),
        ),
        (("2K2", "K3", 7, 9, FULL), _document(["C`", "Bw"], (7, 9, FULL), [("EwCW", 6, 6)])),
        (("K3", "K3", 6, 15, FULL), _document(["Bw", "Bw"], (6, 15, FULL), [("E~~w", 6, 15)])),
        (
            ("2K2", "2K2", 8, 10, 5),
            _document(["C`", "C`"], (8, 10, 5), [("E`?G", 6, 3)], "budget-limited"),
        ),
        (("K3", "2K2", 8, 10, 3), _document(["Bw", "C`"], (8, 10, 3), [], "budget-limited")),
    ],
)
def test_catalog_documents_are_pinned(question, want):
    # recorded while every extension that passed the member test was
    # canonicalized and looked up in a table of the level's classes
    G, H, max_v, max_e, budget = question
    bounds = SearchBounds(max_v, max_e, node_budget=budget)
    assert enumerate_ramsey_minimal(b(G), b(H), bounds).to_document() == want


def test_star_forest_catalog_document_is_pinned():
    # sha256 (first 16 hex digits) of the sorted-key JSON document, recorded
    # while each extension was tested against the members that had a
    # one-edge deletion in the graph it grew from
    cat = enumerate_ramsey_minimal(b("S3"), b("S3+K2"), SearchBounds(9, 12))
    assert len(cat.members) == 30
    assert cat.completeness == "complete within bounds"
    text = json.dumps(cat.to_document(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "089c1721beb984e4"
