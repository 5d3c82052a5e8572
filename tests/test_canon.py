import random
from itertools import combinations

import pytest

from oracles import brute_automorphism_count, brute_isomorphic, naive_classes_exactly
from ramseykit import (
    Graph,
    SearchBounds,
    are_isomorphic,
    build_from_text,
    canonical_form,
    canonical_representative,
    certificate,
    enumerate_graphs,
)

PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
Q4 = Graph.from_edges(16, [(u, u | 1 << b) for u in range(16) for b in range(4) if not u >> b & 1])
K33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])


def generated_order(gens, n):
    """Order of the permutation group the generators produce, by closure."""
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for a in gens:
            q = tuple(a[x] for x in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return len(group)


def checked_aut_order(g):
    """Check every generator against the canonical representative and
    return the order of the group they produce."""
    form = canonical_form(g)
    rep = g.relabel(form.permutation)
    for a in form.automorphisms:
        assert rep.relabel(a) == rep
    return generated_order(form.automorphisms, g.n)


def test_relabeled_cycles_share_certificate():
    c5a = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    c5b = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert certificate(c5a) == certificate(c5b)


def test_distinct_degree_sequences_distinct_certificates():
    assert certificate(build_from_text("3K2")) != certificate(build_from_text("P4+K2"))


def test_all_4_vertex_classes_pairwise_distinct():
    reps = naive_classes_exactly(4)
    assert len(reps) == 11
    certs = [certificate(g) for g in reps]
    assert len(set(certs)) == 11


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certificates_agree_with_brute_isomorphism(n):
    reps = naive_classes_exactly(n)
    for a, b in combinations(reps, 2):
        assert certificate(a) != certificate(b)
        assert not brute_isomorphic(a, b)
    rng = random.Random(7)
    for g in reps:
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert certificate(h) == certificate(g)
        assert brute_isomorphic(g, h)


def test_random_6_vertex_pairs_agree_with_brute_force():
    rng = random.Random(42)
    pairs = list(combinations(range(6), 2))
    graphs = []
    for _ in range(30):
        edges = [e for e in pairs if rng.random() < 0.45]
        graphs.append(Graph.from_edges(6, edges))
    for a, b in combinations(graphs, 2):
        assert (certificate(a) == certificate(b)) == brute_isomorphic(a, b)


def test_canonical_permutation_produces_canonical_representative():
    g = build_from_text("C5+S3")
    form = canonical_form(g)
    rep = g.relabel(form.permutation)
    assert rep == canonical_representative(g)
    # relabelings land on the same representative
    perm = [3, 0, 7, 5, 1, 8, 2, 6, 4]
    assert canonical_representative(g.relabel(perm)) == rep


def test_disjoint_union_commutative_associative_up_to_iso():
    a = build_from_text("C5")
    b = build_from_text("S3")
    c = build_from_text("2K2")
    assert are_isomorphic(a.disjoint_union(b), b.disjoint_union(a))
    assert are_isomorphic(
        a.disjoint_union(b).disjoint_union(c), a.disjoint_union(b.disjoint_union(c))
    )


def test_matching_certificates_scale():
    # component-wise canonicalization keeps large matchings cheap
    m20 = build_from_text("20K2")
    m19 = build_from_text("19K2+P3")
    assert certificate(m20) != certificate(m19)
    assert certificate(m20) == certificate(m20.relabel(list(reversed(range(40)))))


def test_automorphism_generators_produce_the_whole_group():
    graphs = [g for n in range(1, 6) for g in naive_classes_exactly(n)]
    graphs += list(enumerate_graphs(SearchBounds(6, 6)))
    for g in graphs:
        assert checked_aut_order(g) == brute_automorphism_count(g)


@pytest.mark.parametrize(
    "g, order",
    [(PETERSEN, 120), (Q4, 384), (K33, 72), (build_from_text("3K2"), 48), (build_from_text("C5+C5"), 200)],
    ids=["Petersen", "Q4", "K33", "3K2", "C5+C5"],
)
def test_automorphism_group_orders_from_the_literature(g, order):
    assert brute_automorphism_count(g) == order
    assert checked_aut_order(g) == order


@pytest.mark.parametrize("n", [9, 10, 12])
def test_complete_graphs_canonicalize_without_factorial_blowup(n):
    assert certificate(Graph.complete(n)) == f"{n};{n}:{(1 << n * (n - 1) // 2) - 1:x}".encode()


@pytest.mark.parametrize("g", [PETERSEN, Q4], ids=["Petersen", "Q4"])
def test_symmetric_graphs_keep_their_certificate_under_relabeling(g):
    perm = list(range(g.n))
    random.Random(3).shuffle(perm)
    assert certificate(g.relabel(perm)) == certificate(g)
