import hashlib
import sys
from itertools import product

import pytest

from oracles import burnside_counts_by_edges, naive_classes_no_isolated_upto
from ramseykit import arrowing
from ramseykit import (
    SearchBounds,
    build_from_text,
    catalog_density_audit,
    certificate,
    contains_copy,
    emit_graph6,
    enumerate_graphs,
    enumerate_ramsey_minimal,
    naive_arrows,
)

b = build_from_text


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(-1, 3)
    with pytest.raises(ValueError):
        SearchBounds(100, 3)


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
