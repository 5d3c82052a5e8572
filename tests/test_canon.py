import gc
import hashlib
import random
from itertools import combinations
from math import factorial

import pytest

from oracles import brute_automorphism_count, brute_isomorphic, naive_classes_exactly
from ramseykit import canon
from ramseykit import (
    Graph,
    SearchBounds,
    are_isomorphic,
    build_from_text,
    canonical_form,
    canonical_representative,
    certificate,
    emit_graph6,
    enumerate_graphs,
    enumerate_ramsey_minimal,
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


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def planted_twins(rng):
    """A random graph on at most 10 vertices in which some rows are copied
    from others: each copy makes an open twin (the rows only) or, with the
    edge between the two added, a closed one."""
    n = rng.randint(2, 10)
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.4:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    for _ in range(rng.randint(1, 3)):
        u, w = rng.sample(range(n), 2)
        closed = rng.random() < 0.5
        for v in range(n):
            if v != w:
                rows[v] &= ~(1 << w)
        rows[w] = rows[u] & ~(1 << w)
        if closed:
            rows[w] |= 1 << u
        for v in range(n):
            if rows[w] >> v & 1:
                rows[v] |= 1 << w
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1])


def twin_rich_family():
    family = [build_from_text(f"S{r}") for r in range(1, 13)]
    family += [Graph.complete(n) for n in range(1, 11)]
    family += [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6)]
    for a in range(1, 6):
        for b in range(1, 6):
            for j in range(4):
                family.append(build_from_text(f"S{a}+S{b}" + f"+{j}K2" * bool(j)))
    rng = random.Random(17)
    family += [planted_twins(rng) for _ in range(50)]
    return family


def test_twin_rich_labelings_are_pinned():
    # certificate and canonical labeling of stars, complete and complete
    # bipartite graphs, star forests with matchings, and random graphs with
    # planted twins
    lines = [f"{certificate(g).decode()} {canonical_form(g).permutation}" for g in twin_rich_family()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "535822974eb563b8"


def _generators_digest(graphs):
    lines = [str(canonical_form(g).automorphisms) for g in graphs]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_automorphism_generators_are_pinned():
    # CanonicalForm.automorphisms is public: the generators themselves, in
    # order, not only the group they produce
    assert _generators_digest(twin_rich_family()) == "3b22f1992fbdb33f"
    classes = sorted(enumerate_graphs(SearchBounds(7, 9)), key=emit_graph6)
    assert _generators_digest(classes) == "af7ce07a8641e678"


TWIN_GROUP_ORDERS = (
    [(f"S{r}", build_from_text(f"S{r}"), factorial(r)) for r in (2, 5, 8)]
    + [(f"K{n}", Graph.complete(n), factorial(n)) for n in (1, 2, 5, 8)]
    + [
        (f"K{a},{b}", complete_bipartite(a, b), factorial(a) * factorial(b) * (2 if a == b else 1))
        for a, b in ((1, 1), (2, 2), (2, 5), (3, 4), (4, 4), (5, 5))
    ]
    + [(f"{k}K2", build_from_text(f"{k}K2"), 2**k * factorial(k)) for k in (1, 3, 6)]
    + [(f"S{a}+S{a}", build_from_text(f"S{a}+S{a}"), 2 * factorial(a) ** 2) for a in (2, 3, 5)]
)


@pytest.mark.parametrize("g, order", [t[1:] for t in TWIN_GROUP_ORDERS], ids=[t[0] for t in TWIN_GROUP_ORDERS])
def test_twin_rich_automorphism_groups_have_their_closed_form_orders(g, order):
    assert order <= 10**5
    assert checked_aut_order(g) == order


@pytest.mark.parametrize(
    "family, sizes",
    [
        (lambda r: build_from_text(f"S{r}"), (3, 10, 30, 60)),
        (Graph.complete, (3, 10, 30, 64)),
        (lambda a: complete_bipartite(a, a), (2, 5, 16, 32)),
    ],
    ids=["stars", "complete", "balanced complete bipartite"],
)
def test_twin_cells_need_no_refinement_per_vertex(family, sizes, monkeypatch):
    # a cell of twins is split without branching or refining, so the count
    # is the same at every size
    calls = []
    refine = canon._refine
    monkeypatch.setattr(canon, "_refine", lambda adj, cells: calls.append(cells) or refine(adj, cells))
    counts = set()
    for size in sizes:
        calls.clear()
        g = family(size)
        canon._canon_connected(g.n, g.adj)
        counts.add(len(calls))
    assert len(counts) == 1, counts


def test_canon_leaves_no_reference_cycle():
    # the search passes its state as arguments, so what a call builds is
    # freed by reference counting alone
    gc.disable()
    try:
        gc.collect()
        certificate(build_from_text("P5"))
        assert gc.collect() == 0
        enumerate_ramsey_minimal(build_from_text("2K2"), build_from_text("2K2"), SearchBounds(8, 10))
        assert gc.collect() == 0
    finally:
        gc.enable()
