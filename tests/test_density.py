import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import naive_classes_no_isolated_upto, subset_m2, subset_m2_pair, subset_profile, subset_rho
from ramseykit import Graph, build_from_text, density_report, m2, m2_pair, rho, sample_gnp, threshold_p
from ramseykit.density import DensityReport, DensityValue, _profile, _size_groups

b = build_from_text


def _all_subgraph_max(X, min_size, score):
    """Maximize over every subgraph: all vertex subsets and all edge subsets
    of the induced graph. Independent of the library's induced-only path."""
    best = None
    verts = range(X.n)
    for k in range(1, X.n + 1):
        for vs in combinations(verts, k):
            sub = X.induced(vs)
            edges = sub.edges()
            for r in range(len(edges) + 1):
                for es in combinations(edges, r):
                    if k < min_size:
                        continue
                    val = score(len(es), k)
                    if val is not None and (best is None or val > best):
                        best = val
    return best


def test_rho_values():
    assert rho(b("C5")).value == 1
    assert rho(b("K6")).value == Fraction(5, 2)
    assert rho(b("3K2")).value == Fraction(1, 2)


def test_m2_values():
    assert m2(b("K3")).value == 2
    assert m2(b("K4")).value == Fraction(5, 2)
    assert m2(b("C4")).value == Fraction(3, 2)
    assert m2(b("C5")).value == Fraction(4, 3)


def test_m2_absent_for_acyclic():
    assert m2(b("P4")) is None
    assert m2(b("S5+3K2")) is None


def test_m2_pair_values():
    assert m2_pair(b("K3"), b("K3")).value == 2
    # computed by the subset oracle: J=K4 gives 6/(2+1/2) = 12/5
    assert m2_pair(b("K4"), b("K3")).value == Fraction(12, 5)


def test_m2_pair_symmetric_value_with_swap_flag():
    ab = m2_pair(b("K4"), b("K3"))
    ba = m2_pair(b("K3"), b("K4"))
    assert ab.value == ba.value
    assert not ab.swapped
    assert ba.swapped


def test_m2_pair_rejects_acyclic():
    with pytest.raises(ValueError):
        m2_pair(b("K3"), b("P4"))
    with pytest.raises(ValueError):
        m2_pair(b("S3"), b("S3"))


def test_witnesses_reevaluate():
    g = b("K4+C5")
    r = rho(g)
    sub = g.induced(r.witness)
    assert Fraction(sub.edge_count, sub.n) == r.value
    m = m2(g)
    sub = g.induced(m.witness)
    assert Fraction(sub.edge_count - 1, sub.n - 2) == m.value


def test_induced_subsets_match_all_subgraphs_small():
    for X in naive_classes_no_isolated_upto(5):
        assert rho(X).value == _all_subgraph_max(X, 1, lambda e, v: Fraction(e, v))
        if X.has_cycle():
            oracle = _all_subgraph_max(
                X, 3, lambda e, v: Fraction(e - 1, v - 2) if v > 2 else None
            )
            assert m2(X).value == oracle


def test_rho_monotone_under_subgraphs():
    g = b("K5")
    for u, v in g.edges():
        assert rho(g.delete_edge(u, v)).value <= rho(g).value


def test_threshold_p():
    assert threshold_p(b("K3"), b("K3"), 100, 1) == pytest.approx(0.1)
    assert threshold_p(b("K3"), b("K3"), 4, Fraction(100)) == 1.0  # clamped
    assert threshold_p(b("K3"), b("K3"), 8, 10**400) == 1.0  # clamped, though c is no float
    with pytest.raises(ValueError):
        threshold_p(b("K3"), b("K3"), 1, 1)
    with pytest.raises(ValueError):
        threshold_p(b("K3"), b("K3"), 10, 0)
    with pytest.raises(ValueError):
        threshold_p(b("P4"), b("K3"), 10, 1)


@pytest.mark.parametrize("c", [float("inf"), float("-inf"), "1/0", float("nan")])
def test_threshold_p_rejects_a_c_that_is_no_rational(c):
    with pytest.raises(ValueError):
        threshold_p(b("K3"), b("K3"), 6, c)


def test_threshold_p_on_an_n_with_no_float_value():
    # n^(-1/2) in logarithms, since float(10**400) overflows
    assert threshold_p(b("K3"), b("K3"), 10**400, 1) == pytest.approx(1e-200)
    assert threshold_p(b("K3"), b("K3"), 10**400, 10**400) == 1.0


def test_threshold_p_floats_are_pinned():
    # every p a float can hold is the float formula's, bit for bit
    K3 = b("K3")
    vals = [threshold_p(K3, K3, n, c) for n in range(3, 65) for c in (Fraction(1, 5), Fraction(1, 2), 1, 2)]
    assert hashlib.sha256(repr(vals).encode()).hexdigest()[:16] == "531822d81af779b7"


def test_density_report_bundle():
    rep = density_report(b("K4"), pair_with=b("K3"))
    assert rep.rho.value == Fraction(3, 2)
    assert rep.m2.value == Fraction(5, 2)
    assert rep.m2_pair.value == Fraction(12, 5)


def test_subset_cap_enforced():
    big = Graph.from_edges(25, [(0, 1)])
    with pytest.raises(ValueError):
        rho(big)


def test_density_at_the_subset_cap():
    X = b("12K2")
    assert X.n == 24
    tracemalloc.start()
    try:
        rep = density_report(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.rho == DensityValue(Fraction(1, 2), (0, 1))
    assert rep.m2 is None
    assert peak < 1 << 18  # a few 2 KB accumulators, not 2 bytes for each of the 2^24 subsets
    rep = density_report(b("K12+K12"))
    assert rep.rho == DensityValue(Fraction(11, 2), tuple(range(12)))
    assert rep.m2 == DensityValue(Fraction(13, 2), tuple(range(12)))


def test_profile_matches_byte_array_oracle():
    graphs = list(naive_classes_no_isolated_upto(5))
    graphs += [sample_gnp(n, p, seed=n) for n in range(17) for p in (0.1, 0.35, 0.6, 0.9)]
    # ties across the chunks of the high subsets
    graphs += [Graph.from_edges(16, []), b("8K2"), b("K8+K8"), b("K16"), b("9K2")]
    graphs.append(Graph.from_edges(16, [(0, 1), (2, 3), (3, 4)] + list(combinations(range(11, 16), 2))))
    for X in graphs:
        assert _profile(X) == subset_profile(X), X.edges()


def test_profile_matches_oracle_at_every_chunk_width():
    # n = 11..18 takes each chunk width of 8, 9 and 10 low vertices, with
    # three to eight high vertices
    for n in range(11, 19):
        graphs = [Graph.from_edges(n, []), b(f"K{n}")]
        # the larger clique last puts winners partly among the high vertices,
        # and K3 on the last three vertices puts some wholly there
        graphs += [b(f"K{a}+K{n - a}") for a in (1, n // 3, n // 2)]
        graphs.append(Graph.from_edges(n, list(combinations(range(n - 3, n), 2))))
        # a matching: ties across chunks and across high subset sizes
        graphs.append(Graph.from_edges(n, [(v, v + 1) for v in range(0, n - 1, 2)]))
        graphs += [sample_gnp(n, p, seed=n) for p in (0.2, 0.5, 0.8)]
        for X in graphs:
            assert _profile(X) == subset_profile(X), X.edges()


def test_profile_at_the_subset_cap():
    graphs = [b("12K2"), b("K12+K12"), b("K24"), Graph.from_edges(24, [])]
    for X in graphs:
        best, best_mask = _profile(X)
        for k, mask in enumerate(best_mask):
            assert mask.bit_count() == k
            assert X.induced([v for v in range(24) if mask >> v & 1]).edge_count == best[k]
    # K4 on the last four vertices: the winners' high parts lie at or near
    # the end of the lexicographic walk over their size
    best, best_mask = _profile(Graph.from_edges(24, list(combinations(range(20, 24), 2))))
    assert best == [0, 0, 1, 3] + [6] * 21
    assert best_mask[:5] == [0, 1, 3 << 20, 7 << 20, 15 << 20]
    assert best_mask[5:] == [(1 << j) - 1 | 15 << 20 for j in range(1, 21)]


def test_size_groups_list_each_size_lexicographically():
    for c in range(11):
        for k, (_, ids) in enumerate(_size_groups(c)):
            assert ids == tuple(sum(1 << v for v in vs) for vs in combinations(range(c), k))


def test_rho_near_subset_cap():
    X = b("10K2")
    assert X.n == 20
    r = rho(X)
    assert r.value == Fraction(1, 2)
    assert r.witness == (0, 1)
    assert m2(X) is None


PARTNERS = [b(t) for t in ("K3", "K4", "C4", "C5", "K4+C5")]


def _check_against_subset_oracle(X, swaps):
    """Value and witness of rho, m2 and m2_pair (both argument orders) equal
    those of the every-subset maximizer."""
    assert rho(X) == subset_rho(X)
    assert m2(X) == subset_m2(X)
    if not X.has_cycle():
        return
    for Y in PARTNERS:
        for G, H in ((X, Y), (Y, X)):
            got = m2_pair(G, H)
            assert got == subset_m2_pair(G, H)
            swaps.add(got.swapped)
    expected = DensityReport(subset_rho(X), subset_m2(X), subset_m2_pair(X, PARTNERS[0]))
    assert density_report(X, pair_with=PARTNERS[0]) == expected


def test_matches_subset_oracle_on_small_graphs():
    swaps = set()
    for X in naive_classes_no_isolated_upto(5):
        _check_against_subset_oracle(X, swaps)
    assert swaps == {False, True}


def test_matches_subset_oracle_on_random_graphs():
    swaps = set()
    for n in range(3, 12):
        for p in (0.2, 0.35, 0.6):
            for index in range(2):
                _check_against_subset_oracle(sample_gnp(n, p, seed=n, sample_index=index), swaps)
    assert swaps == {False, True}


CONTRACT_SAMPLE = [b(t) for t in ("K3", "C5", "P4", "3K2", "K4+K10")] + [
    sample_gnp(9, 0.4, seed=s) for s in (1, 2, 3)
]


def test_readers_equal_the_density_report_fields():
    # rho, m2 and m2_pair each give what density_report gives: value,
    # witness and, for the pair, the swap flag
    cyclic = [X for X in CONTRACT_SAMPLE if X.has_cycle()]
    assert len(cyclic) >= 4
    for X in CONTRACT_SAMPLE:
        report = density_report(X)
        assert rho(X) == report.rho
        assert m2(X) == report.m2
        assert report.m2_pair is None
    for G in cyclic:
        for H in cyclic:
            paired = density_report(G, pair_with=H)
            assert m2_pair(G, H) == paired.m2_pair
            assert (paired.rho, paired.m2) == (rho(G), m2(G))


def test_density_edge_rules():
    long_path, empty, over_cap = b("P30"), Graph(0, ()), b("C25")
    # an acyclic graph has no m2, even above the subset cap
    assert m2(long_path) is None
    assert m2(empty) is None
    for X in (long_path, empty, over_cap):
        with pytest.raises(ValueError):
            rho(X)
        with pytest.raises(ValueError):
            density_report(X)
    with pytest.raises(ValueError):
        m2(over_cap)
    for G, H in ((b("K3"), b("P4")), (b("P4"), b("K3")), (b("P4"), b("P4"))):
        with pytest.raises(ValueError, match="contain a cycle"):
            m2_pair(G, H)
        with pytest.raises(ValueError, match="contain a cycle"):
            density_report(G, pair_with=H)
