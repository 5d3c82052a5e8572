import hashlib
from itertools import combinations_with_replacement, product

import pytest

from ramseykit import (
    Graph,
    build_from_text,
    classify,
    matching_extension_check,
    shape_of,
)
from ramseykit.classify import FINITE, INFINITE, UNKNOWN, StarForestShape, _shape_and_cycle
from ramseykit.enumeration import SearchBounds, enumerate_graphs

b = build_from_text

CONFORMANCE = [
    ("S5+S2", "S3+122K2", FINITE, "R7"),
    ("S3", "S3", FINITE, "R5"),
    ("S2", "S2", INFINITE, "R6"),
    ("K3", "K3", INFINITE, "R2"),
    ("P4", "P4", INFINITE, "R4"),
    ("P4", "S3", INFINITE, "R4"),
    ("K3", "S2+K2", INFINITE, "R3"),
    ("K3", "5K2", FINITE, "R1"),
    ("C4", "5K2", FINITE, "R1"),
    ("S3+2K2", "S5+K2", FINITE, "R5"),
]


def test_shape_of_examples():
    s = shape_of(b("S5+S2"))
    assert s.stars == (5, 2)
    assert s.matching_count == 0
    s = shape_of(b("S3+122K2"))
    assert s.stars == (3,)
    assert s.matching_count == 122
    assert shape_of(b("P4")) is None
    assert shape_of(b("K3+S2")) is None
    assert shape_of(b("4K2")).stars == ()


@pytest.mark.parametrize("g,h,verdict,rule", CONFORMANCE)
def test_conformance_table(g, h, verdict, rule):
    r = classify(b(g), b(h))
    assert r.verdict == verdict
    assert r.trail[-1].rule == rule


def test_classify_symmetric():
    for g, h, verdict, _ in CONFORMANCE:
        assert classify(b(h), b(g)).verdict == verdict


def test_explicit_bound_arithmetic():
    # bound for stars (5,2) vs S(3): (5 + 2*3 + 2 - 2)^2 + 1 = 122
    assert (5 + 2 * 3 + 2 - 2) ** 2 + 1 == 122
    assert classify(b("S5+S2"), b("S3+122K2")).verdict == FINITE
    below = classify(b("S5+S2"), b("S3+121K2"))
    assert below.verdict == UNKNOWN
    assert below.condition is not None


def test_unknown_when_multi_star_side_has_matching():
    r = classify(b("S5+S2+K2"), b("S3+122K2"))
    assert r.verdict == UNKNOWN
    assert r.trail[-1].rule == "R8"


def test_three_star_side_matching_structural_case():
    # stars (7,2,2) vs S(3): 7 >= 3+2-1 holds, both odd, but the explicit
    # bound needs exactly two stars
    r = classify(b("S7+S2+S2"), b("S3+500K2"))
    assert r.verdict == UNKNOWN


def test_infinite_star_forest_shapes():
    assert classify(b("S5+S2"), b("S4+122K2")).verdict == INFINITE  # even single star
    assert classify(b("S2+S2"), b("S3")).verdict == INFINITE  # even m1
    assert classify(b("S5+S2"), b("S3+S3")).verdict == INFINITE  # two stars both sides
    assert classify(b("S3+S2"), b("S3")).verdict == INFINITE  # 3 < 3+2-1


def test_trail_rule_consistency():
    comps = ["K2", "2K2", "S2", "S3", "P4", "K3", "C4", "S5+S2"]
    for gname, hname in product(comps, repeat=2):
        r = classify(b(gname), b(hname))
        rule = r.trail[-1].rule
        if r.verdict == FINITE:
            assert rule in {"R1", "R5", "R7"}
        elif r.verdict == INFINITE:
            assert rule in {"R2", "R3", "R4", "R6"}
        else:
            assert rule == "R8"
        assert r.trail  # never empty


def test_one_sided_theorem_consistency():
    # no K2 component on either side and not both single odd stars -> Infinite
    comps = ["S2", "S3", "S5", "P4", "K3", "C4", "S3+S3", "S5+S2"]
    for gname, hname in product(comps, repeat=2):
        G, H = b(gname), b(hname)
        has_k2 = any(
            g.induced(vs).edge_count == 1 for g in (G, H) for vs in g.connected_components()
        )
        sg, sh = shape_of(G), shape_of(H)
        both_odd_stars = (
            sg is not None
            and sh is not None
            and sg.s == 1
            and sh.s == 1
            and sg.matching_count == 0
            and sh.matching_count == 0
            and sg.stars[0] % 2 == 1
            and sh.stars[0] % 2 == 1
        )
        if not has_k2 and not both_odd_stars:
            assert classify(G, H).verdict == INFINITE, (gname, hname)


def test_finite_nonmatching_pairs_are_forest_pairs():
    comps = ["K2", "2K2", "3K2", "S2", "S3", "S5", "P4", "K3", "C4"]
    targets = [b(c) for c in comps]
    for c1, c2 in combinations_with_replacement(comps, 2):
        targets.append(b(c1).disjoint_union(b(c2)))
    for G, H in product(targets, repeat=2):
        r = classify(G, H)
        if r.verdict == FINITE:
            g_matching = shape_of(G) is not None and shape_of(G).s == 0
            h_matching = shape_of(H) is not None and shape_of(H).s == 0
            if not (g_matching or h_matching):
                assert not G.has_cycle() and not H.has_cycle()


def test_matching_extension_examples():
    r = matching_extension_check(b("S3"), b("S3"), 2, 1)
    assert r.verdict == FINITE
    r = matching_extension_check(b("2K2"), b("K3"), 0, 0)
    assert r.verdict == FINITE
    r = matching_extension_check(b("S3"), b("S3"), 0, 7)
    assert r.verdict == FINITE


def test_matching_extension_agrees_with_classify_on_the_built_extension():
    # the extension is decided on shapes; classify sees the built graphs.
    # Equal classifications have equal verdict, rule, reason and condition.
    pairs = 0
    for G, H in product([b(t) for t in CENSUS_TARGETS], repeat=2):
        if classify(G, H).verdict != FINITE:
            continue
        pairs += 1
        for ell, m in product(range(4), repeat=2):
            want = classify(G.disjoint_union(b(f"{ell}K2")), H.disjoint_union(b(f"{m}K2")))
            assert matching_extension_check(G, H, ell, m) == want, (G.edges(), H.edges(), ell, m)
    assert pairs == 168


def test_matching_extension_past_the_vertex_cap_is_decided():
    G, H = b("S5+S2"), b("S3+122K2")
    r = matching_extension_check(G, H, 0, 2000)
    assert (r.verdict, r.trail[-1].rule) == (FINITE, "R7")
    assert "2122 matching edges" in r.trail[-1].reason
    r = matching_extension_check(G, H, 1, 0)
    assert (r.verdict, r.trail[-1].rule) == (UNKNOWN, "R8")
    assert r == classify(b("S5+S2+K2"), H)


def test_matching_extension_rejects_negative_counts():
    for ell, m in ((-1, 0), (0, -1), (0.5, 0), (0, 1.5)):
        with pytest.raises(ValueError, match="matching needs j >= 0"):
            matching_extension_check(b("S3"), b("S3"), ell, m)


def test_matching_extension_requires_finite_base():
    with pytest.raises(ValueError):
        matching_extension_check(b("K3"), b("K3"), 1, 1)


def test_preconditions():
    with pytest.raises(ValueError):
        classify(b("K3"), Graph.from_edges(2, []))  # no edge
    with pytest.raises(ValueError):
        classify(Graph.from_edges(3, [(0, 1)]), b("K3"))  # isolated vertex


def test_document_serialization():
    doc = classify(b("S5+S2"), b("S3+122K2")).to_document()
    assert doc["verdict"] == FINITE
    assert doc["rule"] == "R7"
    assert doc["trail"]


def _reference_shape(F):
    """Star-forest shape of F built component by component from its edge
    list: a one-edge component is a K2, a tree whose centre meets every
    edge is a star, anything else has no shape."""
    stars, matching = [], 0
    for vs in F.connected_components():
        edges = [e for e in F.edges() if e[0] in vs]
        if len(edges) == 1:
            matching += 1
        elif len(edges) == len(vs) - 1 and any(all(v in e for e in edges) for v in vs):
            stars.append(len(edges))
        else:
            return None
    return StarForestShape(tuple(sorted(stars, reverse=True)), matching)


def _census():
    yield from enumerate_graphs(SearchBounds(7, 8))
    for i, j, k in product(range(1, 6), range(1, 6), range(4)):
        yield b(f"S{i}+S{j}" + (f"+{k}K2" if k else ""))


def test_one_component_pass_gives_shape_and_cycle_flag():
    count = 0
    for F in _census():
        shape, cyclic = _shape_and_cycle(F)
        assert shape == shape_of(F) == _reference_shape(F), F.edges()
        assert cyclic == F.has_cycle(), F.edges()
        count += 1
    assert count == 242 + 100


# Every rule R1..R8 decides at least one ordered pair of these targets.
CENSUS_TARGETS = [
    "K2", "2K2", "3K2", "S2", "S3", "S4", "S5", "S2+K2", "S3+K2", "S3+2K2", "S5+K2",
    "S5+S2", "S5+S3", "S3+S3+K2", "S5+S2+K2", "S3+121K2", "S3+122K2", "P4", "P4+K2", "K3", "C4+K2",
]


def test_classification_census_is_pinned():
    # any change to a verdict, rule, reason or condition changes the digest
    targets = [b(t) for t in CENSUS_TARGETS]
    rows = []
    for G, H in product(targets, repeat=2):
        r = classify(G, H)
        rows.append((r.verdict, r.trail[-1].rule, r.trail[-1].reason, r.condition))
    assert {rule for _, rule, _, _ in rows} == {f"R{i}" for i in range(1, 9)}
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "5eb7705fb553138e083201fcbb7aa34c9e0a7b4ab73aab4fbb71f04d8ead631a"
