import hashlib
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import dict_is_good, vf2_automorphisms, vf2_copy_count
from ramseykit import (
    ArrowVerdict,
    EdgeColoring,
    Graph,
    MinimalityReport,
    SearchBounds,
    arrows,
    build_from_text,
    certificate,
    contains_copy,
    emit_graph6,
    enumerate_graphs,
    enumerate_ramsey_minimal,
    find_good_coloring,
    is_ramsey_minimal,
    naive_arrows,
    ramsey_number_complete,
    sample_gnp,
    threshold_p,
)
from ramseykit import canon
from ramseykit.arrowing import UnknownVerdictError, _above, _conditions, _copy_plan, _edge_order, _plan, has_copy
from ramseykit.canon import are_isomorphic
from ramseykit.graphs import VertexCapError
from ramseykit.randomgraphs import edge_uniforms, graph_from_uniforms

b = build_from_text


def _check_embedding(host, pattern, mapping):
    assert len(set(mapping.values())) == pattern.n
    for u, v in pattern.edges():
        assert host.has_edge(mapping[u], mapping[v])


def test_contains_k3_in_k4():
    m = contains_copy(b("K4"), b("K3"))
    _check_embedding(b("K4"), b("K3"), m)


PATTERNS = ["K3", "2K2", "P3", "C4", "K3+K2", "C5", "3K2", "S3+K2", "P4"]


def _classes(max_vertices, max_edges):
    # the classes in graph6 order, so a pin does not depend on the order
    # in which enumerate_graphs yields them
    return sorted(enumerate_graphs(SearchBounds(max_vertices, max_edges)), key=emit_graph6)


def _masks(F, P, limit=10**6):
    # the edge masks of P's copies in F, in listing order, under the search's
    # edge order: with one list standing for every pair of the table, each
    # copy appends its mask once per pattern edge, in a row
    degs = [row.bit_count() for row in F.adj]
    ranking, eidx, through, seq = [], [], [], []
    _edge_order(F.adj, degs, ranking, eidx, through)
    count, live = _copy_plan(P)(F.adj, degs, limit, ranking, eidx, [seq] * len(through))
    masks = seq[:: P.edge_count]
    assert seq == [c for c in masks for _ in range(P.edge_count)]
    assert count == len(masks)
    assert live == sum(1 << e for e in range(len(through)) if any(c >> e & 1 for c in masks))
    return masks


def test_containment_mappings_are_pinned():
    # the first embedding found, for every class and pattern: a change to
    # the visit order or the candidate order shows here
    lines = []
    for F in _classes(7, 9):
        for name in PATTERNS:
            m = contains_copy(F, b(name))
            lines.append(repr(None if m is None else sorted(m.items())))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "1f3d6f55354fad9f"


def test_containment_and_copy_listing_agree_with_vf2():
    hosts = list(enumerate_graphs(SearchBounds(6, 7)))
    hosts += [sample_gnp(n, 0.3, seed) for n in (7, 8, 9, 10) for seed in range(2)]
    for name in PATTERNS:
        P = b(name)
        for F in hosts:
            want = vf2_copy_count(F, P)
            m = contains_copy(F, P)
            assert (m is not None) == (want > 0) == has_copy(F, P), (name, F.edges())
            if m is not None:
                _check_embedding(F, P, m)
            assert len(_masks(F, P)) == want, (name, F.edges())


def test_copy_lists_are_pinned():
    # every copy, in listing order, for every class and pattern: a change
    # to the candidate order or to the symmetry conditions shows here
    lines = []
    for F in _classes(7, 9):
        for name in PATTERNS:
            lines.append(repr(_masks(F, b(name))))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "40b7c91364dd159a"


@pytest.mark.parametrize("name", PATTERNS + ["4K2", "2K3+K2", "S3+3K2"])
def test_plan_is_the_pattern_relabeled_by_visit_position(name):
    # vertex order[i] of the pattern is position i of core; anchors[i] lists
    # the earlier positions adjacent to i, and need[i] is the degree of i
    P = b(name)
    order, core, anchors, need = _plan(P)
    assert sorted(order) == list(range(P.n))
    pos = [0] * P.n
    for i, v in enumerate(order):
        pos[v] = i
    assert core == P.relabel(pos)
    assert anchors == tuple(tuple(j for j in range(i) if core.has_edge(i, j)) for i in range(core.n))
    assert need == tuple(core.degree(i) for i in range(core.n))


def test_every_copy_is_filed_under_exactly_its_own_edges():
    # the kernel builds the edge table at the first copy, and not on a host
    # without one: the non-isolated vertices ranked by descending degree,
    # ties by label, and pair index i for the i-th pair of ranks a < b in
    # lexicographic order; isolated vertices get no row. through[e] then
    # holds, in listing order, exactly the masks with bit e; every mask is
    # the edge set of a copy of the pattern, and no copy comes twice
    for F in list(enumerate_graphs(SearchBounds(7, 9))) + [b("K3+2K1+P4"), b("2K1+S3")]:
        degs = [row.bit_count() for row in F.adj]
        ranking, eidx, through = [], [], []
        _edge_order(F.adj, degs, ranking, eidx, through)
        assert ranking == sorted((v for v in range(F.n) if degs[v]), key=lambda v: (-degs[v], v))
        pairs = list(combinations(ranking, 2))  # pair index -> the labels of its ranks
        assert through == [[] for _ in pairs] and len(eidx) == F.n
        assert all((eidx[v] is None) == (degs[v] == 0) for v in range(F.n))
        assert all(eidx[u][v] == eidx[v][u] == i for i, (u, v) in enumerate(pairs))
        for name in PATTERNS:
            P = b(name)
            masks = _masks(F, P)
            table = ([], [], [])
            count, live = _copy_plan(P)(F.adj, degs, 10**6, *table)
            assert count == len(masks) == len(set(masks)), (name, F.edges())
            if not masks:
                assert table == ([], [], []), (name, F.edges())
                continue
            assert table[:2] == (ranking, eidx), (name, F.edges())
            assert table[2] == [[c for c in masks if c >> e & 1] for e in range(len(pairs))], (name, F.edges())
            for c in masks:
                copy = Graph.from_edges(F.n, [pairs[e] for e in range(len(pairs)) if c >> e & 1])
                assert are_isomorphic(copy.without_isolated(), P), (name, F.edges(), c)


@pytest.mark.parametrize("pattern,host,count", [("P22", "C24", 24), ("P30", "C32", 32)])
def test_chained_listers_agree_with_vf2(pattern, host, count):
    # over 16 positions the lister continues in a chained function
    P, F = b(pattern), b(host)
    assert len(_masks(F, P)) == vf2_copy_count(F, P) == count


@pytest.mark.parametrize("pattern,host,count", [("K3", "K7", 35), ("12K2", "13K2", 13)])
def test_copy_listing_stops_right_after_the_limit(pattern, host, count):
    # K3 in K7 lists up to five copies per innermost loop, 12K2 in 13K2 one
    # per loop of its chained function: every cut-off, inside a loop's
    # candidates or at the end of them, files the first limit + 1 copies
    P, F = b(pattern), b(host)
    full = _masks(F, P)
    assert len(full) == count
    for limit in range(count + 2):
        assert _masks(F, P, limit) == full[: limit + 1], limit


def _room_checks(name):
    _, core, anchors, need = _plan(b(name))
    return [r for r in _conditions(anchors, need, _above(core, anchors, need))[1] if r]


def test_room_checks_only_where_isomorphic_components_are_ordered():
    for name in ("K3", "K4", "C4", "P5", "P22", "K3+K2"):
        assert _room_checks(name) == [], name
    assert _room_checks("4K2") == [(6, 1), (4, 1), (2, 1)]
    assert _room_checks("2K3+K2") == [(3, 2)]


def test_has_copy_of_the_pattern_without_vertices():
    empty = Graph.from_edges(0, [])
    for host in (b("K3"), empty):
        assert has_copy(host, empty)
        assert contains_copy(host, empty) == {}


def test_has_copy_of_several_patterns_asks_whether_any_is_contained():
    patterns = [b(name) for name in ("K4", "C5", "2K3", "P4+K2")]
    hosts = [sample_gnp(n, p, seed) for n, p in ((7, 0.3), (9, 0.5)) for seed in range(3)]
    hosts += [b(h) for h in ("K4", "C5+K2", "2K3", "3K2", "K1")]
    for F in hosts:
        want = [contains_copy(F, P) is not None for P in patterns]
        assert has_copy(F, *patterns) == any(want), F.edges()
        for i in range(len(patterns)):
            assert has_copy(F, *patterns[i:], *patterns[:i]) == any(want)
        assert not has_copy(F)


def test_patterns_larger_than_the_host_are_answered_at_once():
    # K11 holds no P12, but every vertex has degree >= 2: without the
    # kernel's vertex count the walk tries about 11! vertex orders, and the
    # node budget, which counts copies, never stops it
    K11, P12, K3 = b("K11"), b("P12"), b("K3")
    t0 = time.perf_counter()
    for F in (K11, Graph.from_edges(12, K11.edges())):  # K11 plus an isolated vertex
        assert not has_copy(F, P12)
        v = find_good_coloring(F, P12, K3)
        assert (v.arrows, v.nodes, v.witness.assignment) == (False, 0, dict.fromkeys(F.edges(), "red"))
        v = find_good_coloring(F, K3, P12)
        assert (v.arrows, v.nodes, v.witness.assignment) == (False, 165, dict.fromkeys(F.edges(), "blue"))
    assert ramsey_number_complete(P12, K3, 11) is None
    assert time.perf_counter() - t0 < 0.5


def test_matching_lister_grows_with_the_copies_not_2_to_the_k():
    F, P = b("21K2"), b("20K2")
    t0 = time.perf_counter()
    copies = _masks(F, P)
    assert time.perf_counter() - t0 < 0.1
    assert len(copies) == 21


def test_kernel_compiles_in_time_linear_in_the_components():
    # a component's orbit settles every later component of the same plan
    # shape, and implied symmetry conditions are not generated; one
    # _extend call per pair of positions would take about 1 s here
    P = b("100K2")
    t0 = time.perf_counter()
    _copy_plan.__wrapped__(P)
    assert time.perf_counter() - t0 < 0.1
    _, core, anchors, need = _plan(P)
    # the orbit of a component's first position, with the earlier
    # components fixed, is every later vertex
    assert _above(core, anchors, need) == tuple(tuple(range(0, w, 2)) for w in range(200))


@pytest.mark.parametrize("name", ["2K2", "4K2", "2K3", "3P3", "2C4+K2", "2K3+3K2", "S3+2P3"])
def test_room_checks_lose_no_copy(name):
    # patterns with isomorphic components get room checks; on hosts with
    # few and with many copies, none is lost
    P = b(name)
    hosts = [sample_gnp(n, p, seed) for n, p in ((8, 0.4), (10, 0.2)) for seed in range(2)]
    hosts += [b(h) for h in ("5K2+P4", "2K3+2K2", "3P3+K2", "2C4+2K2", "K4+2P3")]
    for F in hosts:
        assert len(_masks(F, P)) == vf2_copy_count(F, P), (name, F.edges())
        assert has_copy(F, P) == (contains_copy(F, P) is not None), (name, F.edges())


def test_symmetry_conditions_match_the_automorphism_group():
    # _above asks _extend for an automorphism through a pinned prefix; the
    # conditions are pinned, and checked against the stabilizer chain of
    # the VF2 automorphism group on the smaller classes
    lines = []
    for P in _classes(7, 9):
        _, core, anchors, need = _plan(P)
        above = _above(core, anchors, need)
        lines.append(repr(above))
        if P.n <= 6:
            auts = vf2_automorphisms(core)
            want = [
                tuple(i for i in range(w) if any(a[i] == w and all(a[j] == j for j in range(i)) for a in auts))
                for w in range(core.n)
            ]
            assert list(above) == want, P.edges()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "beb447c98257cd7a"


def test_containment_needs_no_recursion():
    F, P = b("512K2"), b("500K2")
    _check_embedding(F, P, contains_copy(F, P))
    assert EdgeColoring(F, dict.fromkeys(F.edges(), "red")).is_good(P, P) is False


def test_c5_is_triangle_free():
    assert contains_copy(b("C5"), b("K3")) is None


def test_p5_contains_matching():
    m = contains_copy(b("P5"), b("2K2"))
    _check_embedding(b("P5"), b("2K2"), m)


def test_good_coloring_on_k5():
    res = find_good_coloring(b("K5"), b("K3"), b("K3"))
    assert res.arrows is False
    assert res.witness.is_good(b("K3"), b("K3"))


def test_k6_exhausted():
    res = find_good_coloring(b("K6"), b("K3"), b("K3"))
    assert res.witness is None
    assert res.arrows is True


def test_matching_good_coloring():
    res = find_good_coloring(b("2K2"), b("2K2"), b("2K2"))
    assert res.witness is not None
    colors = set(res.witness.assignment.values())
    assert colors == {"red", "blue"}


def test_targets_need_an_edge():
    def catalog(F, G, H):  # bounds with no candidate: only the target check can raise
        return enumerate_ramsey_minimal(G, H, SearchBounds(1, 1))

    for call in (find_good_coloring, arrows, is_ramsey_minimal, naive_arrows, catalog):
        with pytest.raises(ValueError):
            call(b("K3"), b("K2"), build_from_text("0K2"))
        with pytest.raises(ValueError):
            call(b("K3"), build_from_text("0K2"), b("K2"))
        # arrows strips F's isolated vertices, which a target's could need
        with pytest.raises(ValueError, match="isolated"):
            call(b("K2+K1"), b("K2+K1"), b("K2+K1"))
        with pytest.raises(ValueError, match="isolated"):
            call(b("K3"), b("K2"), b("K2+K1"))


def test_isolated_host_vertices_change_no_verdict():
    targets = [b(s) for s in ("K2", "2K2", "P3", "K3")]
    for core in enumerate_graphs(SearchBounds(6, 6)):
        for extra in (1, 2):
            appended = core.disjoint_union(Graph.empty(extra))
            # the same host with its isolated vertices moved between the
            # core's: old label order[i] becomes i
            mid = core.n // 2
            order = list(range(mid)) + list(range(core.n, appended.n)) + list(range(mid, core.n))
            perm = [0] * appended.n
            for new, old in enumerate(order):
                perm[old] = new
            interior = appended.relabel(perm)
            assert interior.isolated_vertices() == list(range(mid, mid + extra))
            assert interior.without_isolated() == core
            for F, G, H in product((appended, interior), targets, targets):
                v = arrows(F, G, H)
                w = find_good_coloring(F, G, H)
                assert v.arrows == w.arrows == naive_arrows(F, G, H), (F.edges(), G.edges(), H.edges())
                if v.witness is not None:
                    assert v.witness.host == F.without_isolated()
                    assert v.witness.is_good(G, H)
                    assert w.witness.host == F
                    assert w.witness.is_good(G, H)


def test_search_result_names_agree():
    # the benchmark tracer reads a verdict's `coloring` and `exhausted`
    cases = [
        (b("K5"), None, False),  # witness
        (b("K6"), None, True),  # proof
        (b("K6"), 3, None),  # unknown
    ]
    for F, budget, want in cases:
        kwargs = {} if budget is None else {"budget": budget}
        for call in (find_good_coloring, arrows):
            v = call(F, b("K3"), b("K3"), **kwargs)
            assert v.arrows is want
            assert v.coloring is v.witness
            assert v.exhausted is (v.arrows is True)


def test_arrows_examples():
    assert arrows(b("3K2"), b("2K2"), b("2K2")).arrows is True
    v = arrows(b("K5"), b("K3"), b("K3"))
    assert v.arrows is False
    assert v.witness.is_good(b("K3"), b("K3"))
    assert arrows(b("K2"), b("K2"), b("K2")).arrows is True


def test_arrows_strips_isolated_vertices():
    g = b("K6").disjoint_union(build_from_text("P1"))
    assert g.isolated_vertices()
    assert arrows(g, b("K3"), b("K3")).arrows is True


def test_color_swap_symmetry():
    pairs = [("K3", "S3"), ("P3", "K3"), ("2K2", "P3")]
    hosts = ["K4", "K5", "C5+K3", "S5+2K2"]
    for gname, hname in pairs:
        for fname in hosts:
            a = arrows(b(fname), b(gname), b(hname)).arrows
            c = arrows(b(fname), b(hname), b(gname)).arrows
            assert a == c


def test_monotonicity_under_supergraphs():
    # K6 arrows (K3,K3); adding anything keeps it
    g = b("K6").disjoint_union(b("C4"))
    assert arrows(g, b("K3"), b("K3")).arrows is True


def test_pruned_agrees_with_naive_small():
    targets = [b(s) for s in ("K2", "2K2", "P3", "K3", "S3")]
    fs = list(enumerate_graphs(SearchBounds(10, 5)))
    for F in fs:
        for G, H in product(targets, repeat=2):
            assert arrows(F, G, H).arrows == naive_arrows(F, G, H), (
                F.edges(),
                G.edges(),
                H.edges(),
            )


def test_budget_yields_unknown():
    v = arrows(b("K6"), b("K3"), b("K3"), budget=5)
    assert v.arrows is None
    assert v.witness is None


def test_minimality_k6():
    rep = is_ramsey_minimal(b("K6"), b("K3"), b("K3"))
    assert rep.is_ramsey is True
    assert rep.is_minimal is True
    for e, w in rep.per_edge.items():
        assert w.is_good(b("K3"), b("K3"))
        assert set(w.assignment) == set(b("K6").delete_edge(*e).edges())


def test_minimality_3k2():
    rep = is_ramsey_minimal(b("3K2"), b("2K2"), b("2K2"))
    assert rep.is_minimal is True


def test_k7_not_minimal():
    rep = is_ramsey_minimal(b("K7"), b("K3"), b("K3"))
    assert rep.is_ramsey is True
    assert rep.is_minimal is False
    # every deletion still contains K6, so no witness anywhere
    assert all(w is None for w in rep.per_edge.values())


def test_one_proven_deletion_settles_not_minimal():
    # K6+3K5 -> (K3,K3) takes 69 nodes; deleting a K5 edge still arrows
    # (proved in 66 nodes), while the K6-edge deletions need 76 nodes for a
    # witness, so at budget 70 they stay unknown
    F = b("K6+3K5")
    rep = is_ramsey_minimal(F, b("K3"), b("K3"), budget=70)
    assert rep.is_ramsey is True
    assert rep.is_minimal is False
    assert set(rep.per_edge) == set(F.edges())
    assert all(w is None for w in rep.per_edge.values())
    rep = is_ramsey_minimal(F, b("K3"), b("K3"), budget=76)
    assert rep.is_minimal is False
    assert sum(w is not None for w in rep.per_edge.values()) == 15


def test_unknown_deletions_without_a_proof_leave_minimality_unknown():
    # K7 -> (K3,C4) is proved in 466 nodes, each deletion in 477
    rep = is_ramsey_minimal(b("K7"), b("K3"), b("C4"), budget=470)
    assert rep.is_ramsey is True
    assert rep.is_minimal is None
    assert all(w is None for w in rep.per_edge.values())


_WITNESS = ArrowVerdict(False, EdgeColoring(b("K2"), {(0, 1): "red"}), 1, 0.0)
_ARROWS = ArrowVerdict(True, None, 1, 0.0)
_UNKNOWN = ArrowVerdict(None, None, 1, 0.0)


@pytest.mark.parametrize(
    "is_ramsey,verdicts,want",
    [
        (False, {}, False),
        (None, {}, None),
        (True, {(0, 1): _WITNESS}, True),
        (True, {(0, 1): _ARROWS}, False),
        (True, {(0, 1): _UNKNOWN, (0, 2): _WITNESS}, None),
    ],
    ids=["not-ramsey", "unknown-top", "witness", "still-arrows", "unknown-deletion"],
)
def test_is_minimal_is_read_from_the_verdicts(is_ramsey, verdicts, want):
    assert MinimalityReport(is_ramsey, verdicts).is_minimal is want


def test_ramsey_numbers():
    assert ramsey_number_complete(b("K3"), b("K3"), 8) == 6
    assert ramsey_number_complete(b("K2"), b("K2"), 8) == 2
    assert ramsey_number_complete(b("2K2"), b("2K2"), 8) == 5


def test_ramsey_number_absent_within_cap():
    assert ramsey_number_complete(b("K3"), b("K3"), 5) is None


def test_ramsey_number_unknown_propagates():
    with pytest.raises(UnknownVerdictError):
        ramsey_number_complete(b("K3"), b("K3"), 8, budget=3)


def test_small_ramsey_numbers_from_the_survey():
    # Radziszowski, Small Ramsey Numbers (EJC DS1): R(3,4)=9, R(C4,C4)=6, R(K3,C4)=7
    assert ramsey_number_complete(b("K3"), b("K4"), 9) == 9
    assert ramsey_number_complete(b("C4"), b("C4"), 8) == 6
    assert ramsey_number_complete(b("K3"), b("C4"), 8) == 7


@pytest.mark.parametrize("gname,hname", [("C4", "K3"), ("P4", "K3"), ("K3+K2", "P3"), ("S3", "C4")])
def test_propagation_agrees_with_naive(gname, hname):
    G, H = b(gname), b(hname)
    for F in enumerate_graphs(SearchBounds(8, 8)):
        assert arrows(F, G, H).arrows == naive_arrows(F, G, H), F.edges()


@pytest.mark.parametrize("gname,hname", [("K3+K2", "P3"), ("2K2", "K3"), ("P3", "C4")])
def test_propagation_agrees_with_naive_on_arrowing_hosts(gname, hname):
    # 9-10 edge hosts, where many of these pairs arrow and the search must exhaust
    G, H = b(gname), b(hname)
    hosts = [F for F in enumerate_graphs(SearchBounds(6, 10)) if F.edge_count >= 9]
    verdicts = [arrows(F, G, H).arrows for F in hosts]
    assert True in verdicts and False in verdicts
    assert verdicts == [naive_arrows(F, G, H) for F in hosts]


def test_too_many_copies_is_unknown_within_budget():
    # 8K2 has about 10^10 copies in K20: listing them would exhaust memory
    v = arrows(Graph.complete(20), b("8K2"), b("K3"), budget=10**5)
    assert v.arrows is None
    assert v.witness is None
    assert v.nodes <= 10**5


def test_missing_h_copy_decides_despite_too_many_g_copies():
    F = Graph.from_edges(12, [(u, v) for u in range(6) for v in range(6, 12)])
    v = arrows(F, b("3K2"), b("K3"), budget=100)
    assert v.arrows is False
    assert v.witness.is_good(b("3K2"), b("K3"))


def test_nonpositive_budget_is_rejected():
    for budget in (0, -1):
        with pytest.raises(ValueError):
            arrows(b("K6"), b("K3"), b("K3"), budget=budget)
        with pytest.raises(ValueError):
            find_good_coloring(b("K6"), b("K3"), b("K3"), budget=budget)
        with pytest.raises(ValueError):
            is_ramsey_minimal(b("K6"), b("K3"), b("K3"), budget=budget)


def test_host_vertex_cap_is_enforced():
    F = b("40K2")
    for call in (arrows, find_good_coloring, is_ramsey_minimal):
        with pytest.raises(VertexCapError):
            call(F, b("K2"), b("K2"))
    # isolated vertices do not count against the cap
    assert arrows(b("K6").disjoint_union(Graph.empty(70)), b("K3"), b("K3")).arrows is True


def test_host_far_over_the_cap_is_rejected_before_relabeling():
    # the non-isolated rows are counted first: relabeling K1000 to drop the
    # isolated vertices takes tenths of a second, the count microseconds
    F = Graph.complete(1000).disjoint_union(Graph.empty(24))
    for call in (arrows, is_ramsey_minimal):
        t0 = time.perf_counter()
        with pytest.raises(VertexCapError):
            call(F, b("K3"), b("K3"))
        assert time.perf_counter() - t0 < 0.05, call


def _search_digest(questions):
    lines = []
    for F, G, H in questions:
        v = arrows(F, G, H)
        w = None if v.witness is None else sorted(v.witness.assignment.items())
        lines.append(repr((v.arrows, v.nodes, w)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _threshold_questions():
    """1200 threshold questions (F, K3, K3): seed-1 draws at n = 8."""
    K3 = b("K3")
    return [
        (graph_from_uniforms(8, threshold_p(K3, K3, 8, c), edge_uniforms(1, 8, i)), K3, K3)
        for c in (Fraction(1, 5), Fraction(1, 2), 1, 2)
        for i in range(300)
    ]


def test_verdicts_are_pinned():
    # verdicts only, with no node count and no witness: the edge, copy and
    # decision orders may move the work and the witnesses, never these
    questions = _threshold_questions()
    classes = _classes(7, 9)
    for g, h in (("K3", "K3"), ("C4", "K3"), ("C4", "K4"), ("3K2", "K3"), ("P3", "2K2")):
        questions += [(F, b(g), b(h)) for F in classes]
    verdicts = "".join({True: "1", False: "0", None: "?"}[arrows(F, G, H).arrows] for F, G, H in questions)
    assert (len(verdicts), verdicts.count("1"), verdicts.count("?")) == (1200 + 5 * 373, 355, 0)
    assert hashlib.sha256(verdicts.encode()).hexdigest()[:16] == "b9c83cb1c997d4f9"


def test_search_work_and_witnesses_are_pinned():
    # the verdict, the node count and the witness of every search at once:
    # a change to the edge, copy or decision order shows here
    K3 = b("K3")
    assert _search_digest(_threshold_questions()) == "bc7486235dc81f94"
    assert arrows(b("K9"), K3, b("K4")).nodes == 39336
    assert _search_digest([(b("K9"), K3, b("K4"))]) == "75346f74a3e7ba1d"
    asymmetric = [(b(f), b(g), K3) for g in ("C4", "2K2") for f in ("K4", "K6", "K7")]
    assert _search_digest(asymmetric) == "c221de4c26e4a79a"


def _corruptions(w, G, H):
    """The witness's assignment corrupted five ways, by name: one edge
    recolored (the first whose new color makes a red G or a blue H, if
    any), one edge dropped, a non-edge added, an edge added reversed, and
    one edge given an unknown color."""
    a = w.assignment
    out = {"non-edge": {**a, next(e for e in combinations(range(w.host.n + 2), 2) if e not in a): "red"}}
    if a:
        other = {"red": "blue", "blue": "red"}
        (u, v), color = next(iter(a.items()))
        flips = ({**a, e: other[c]} for e, c in a.items())
        out["recolor"] = next((x for x in flips if not EdgeColoring(w.host, x).is_good(G, H)), {**a, (u, v): other[color]})
        out["drop"] = {e: c for e, c in a.items() if e != (u, v)}
        out["reversed"] = {**a, (v, u): color}
        out["unknown color"] = {**a, (u, v): "green"}
    return out


def test_witness_rows_agree_with_the_dict_oracle():
    K3 = b("K3")
    classes = list(enumerate_graphs(SearchBounds(7, 9)))
    questions = _threshold_questions()
    for G, H in ((K3, K3), (b("P3"), b("2K2")), (b("C4"), K3)):
        questions += [(F, G, H) for F in classes]
    witnesses = recolored_good = 0
    for F, G, H in questions:
        w = arrows(F, G, H).witness
        if w is None:
            continue
        witnesses += 1
        assert w.is_good(G, H) and dict_is_good(w.host, w.assignment, G, H)
        assert EdgeColoring(w.host, w.assignment) == w
        for name, bad in _corruptions(w, G, H).items():
            got = EdgeColoring(w.host, bad).is_good(G, H)
            assert got == (dict_is_good(w.host, bad, G, H) and name != "unknown color"), (name, F.edges())
            if name == "recolor":
                recolored_good += got  # when no single recoloring makes a red G or a blue H
            else:
                assert got is False, (name, F.edges())
    assert (witnesses, recolored_good) == (1964, 808)


def test_color_classes_are_the_rows():
    F = b("C5")
    w = EdgeColoring(F, {(0, 1): "red", (1, 2): "blue", (0, 4): "red"})
    assert not w.is_total()
    assert w.color_class("red") == Graph.from_edges(5, [(0, 1), (0, 4)])
    assert w.color_class("blue") == Graph.from_edges(5, [(1, 2)])
    assert list(w.edge_colors()) == [((0, 1), "red"), ((0, 4), "red"), ((1, 2), "blue")]
    with pytest.raises(ValueError):
        w.color_class("green")
    for stray in ({(0, 1): "green"}, {(1, 0): "red"}, {(0, 2): "red"}, {(0, 9): "red"}, {(0, 1, 2): "red"}, {0: "red"}):
        s = EdgeColoring(F, stray)
        assert s.stray and not s.is_total() and s.assignment == {}


def test_pinned_witnesses_are_small():
    questions = _threshold_questions()
    arrows(*questions[-1])  # the kernel of K3 is compiled outside the trace
    tracemalloc.start()
    try:
        verdicts = [arrows(F, G, H) for F, G, H in questions]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(v.arrows is False for v in verdicts) == 1172
    assert held < 800_000, held


@pytest.mark.parametrize("name", ["P3", "2K2", "K3+K2"])
def test_swap_with_unequal_isomorphic_targets(name):
    # H != G but with the same copies in every host: the search still takes
    # only the red first decision, so its work matches the H == G run
    G = b(name)
    H = G.relabel([(v + 1) % G.n for v in range(G.n)])
    assert H != G
    for F in enumerate_graphs(SearchBounds(8, 8)):
        v = arrows(F, G, H)
        assert v.arrows == naive_arrows(F, G, H), F.edges()
        assert v.nodes == arrows(F, G, G).nodes, F.edges()


def test_kernel_isomorphism_agrees_with_canon(monkeypatch):
    # the search decides G ~ H of equal order and size by G's kernel finding
    # a copy of G in H; canon's certificates are the independent check
    classes = list(enumerate_graphs(SearchBounds(6, 9)))
    pairs = [(G, H) for G in classes for H in classes if (G.n, G.edge_count) == (H.n, H.edge_count)]
    assert (len(classes), len(pairs)) == (122, 1702)
    rng = random.Random(24)
    for G in classes:
        image = list(range(G.n))
        rng.shuffle(image)
        pairs.append((G, G.relabel(image)))
    assert any(G != H for G, H in pairs[1702:])
    for G, H in pairs:
        assert has_copy(H, G) == are_isomorphic(G, H), (G.edges(), H.edges())

    # and no arrowing search asks canon, for targets alike in order and size
    hosts = list(enumerate_graphs(SearchBounds(6, 8)))
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    target_pairs = [(b("P4"), b("S3")), (b("C4"), paw)]

    def no_canon(*args):
        raise AssertionError("the search called canon")

    monkeypatch.setattr(canon, "_canon", no_canon)
    for G, H in target_pairs:
        for F in hosts:
            assert arrows(F, G, H).arrows == naive_arrows(F, G, H), (F.edges(), G.edges())


# Cockayne-Lorimer (1975): r(mK2, nK2) = 2m + n - 1 for m >= n
COCKAYNE_LORIMER = [(m, n) for m in range(1, 5) for n in range(1, m + 1)]


@pytest.mark.parametrize("m,n", COCKAYNE_LORIMER)
def test_matching_ramsey_numbers_by_the_root_cut(m, n):
    r = 2 * m + n - 1
    for G, H in ((b(f"{m}K2"), b(f"{n}K2")), (b(f"{n}K2"), b(f"{m}K2"))):
        v = arrows(Graph.complete(r), G, H)  # K11 -> (4K2, 4K2) among them
        assert (v.arrows, v.witness, v.nodes) == (True, None, 0)
        assert v.elapsed < 0.1
        w = arrows(Graph.complete(r - 1), G, H)
        assert w.arrows is False and w.witness.is_good(G, H)
        assert w.elapsed < 1.0


def test_matching_cut_is_strict_at_the_bound():
    # K4 has 6 = ex(4, 2) + ex(4, 2) edges, so the root cut must not fire:
    # r(2K2, 2K2) = 5, and the search must find a good coloring
    G = b("2K2")
    v = arrows(b("K4"), G, G)
    assert v.arrows is False and v.nodes > 0
    assert v.witness.is_good(G, G)


@pytest.mark.parametrize("gname,hname", [("2K2", "2K2"), ("3K2", "2K2"), ("2K2", "K2")])
def test_matching_cut_agrees_with_naive(gname, hname):
    G, H = b(gname), b(hname)
    dense = [F for F in enumerate_graphs(SearchBounds(6, 10)) if F.edge_count >= 9]
    assert dense
    for F in dense:
        assert arrows(F, G, H).arrows == naive_arrows(F, G, H), F.edges()
