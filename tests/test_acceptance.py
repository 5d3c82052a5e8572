"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines."""

import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from oracles import burnside_counts_by_edges
from ramseykit import (
    ExperimentConfig,
    SearchBounds,
    arrows,
    build_from_text,
    catalog_density_audit,
    certificate,
    classify,
    contains_copy,
    enumerate_graphs,
    enumerate_ramsey_minimal,
    m2,
    m2_pair,
    matching_extension_check,
    naive_arrows,
    results_to_csv,
    rho,
    run_experiment,
    shape_of,
)
from ramseykit.classify import FINITE, INFINITE

b = build_from_text


def _report(num, desc, ok):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_1_arrowing_ground_truth():
    K3 = b("K3")
    t0 = time.perf_counter()
    v6 = arrows(b("K6"), K3, K3)
    t6 = time.perf_counter() - t0
    t0 = time.perf_counter()
    v5 = arrows(b("K5"), K3, K3)
    t5 = time.perf_counter() - t0
    ok = (
        v6.arrows is True
        and v5.arrows is False
        and v5.witness.is_good(K3, K3)
        and naive_arrows(b("K5"), K3, K3) is False  # independent 2^10 oracle
        and t6 < 60
        and t5 < 60
    )
    _report(1, f"K6 arrows / K5 does not (times {t6:.2f}s, {t5:.2f}s)", ok)


def test_criterion_2_oracle_equivalence():
    targets = [b(s) for s in ("K2", "2K2", "P3", "K3", "S3")]
    mismatches = 0
    checked = 0
    for F in enumerate_graphs(SearchBounds(14, 7)):
        for G, H in product(targets, repeat=2):
            checked += 1
            if arrows(F, G, H).arrows != naive_arrows(F, G, H):
                mismatches += 1
    _report(2, f"pruned vs naive agreement on {checked} cases, {mismatches} mismatches", mismatches == 0)


def test_criterion_3_minimal_catalog_regression():
    G = H = b("2K2")
    cat = enumerate_ramsey_minimal(G, H, SearchBounds(8, 10))
    got = {certificate(g) for g in cat.member_graphs()}
    expected = {certificate(b("3K2")), certificate(b("C5"))}
    antichain = all(
        contains_copy(f1, f2) is None
        for f1 in cat.member_graphs()
        for f2 in cat.member_graphs()
        if certificate(f1) != certificate(f2)
    )
    witnesses = all(
        w is not None and w.is_good(G, H)
        for m in cat.members
        for w in m.minimality.per_edge.values()
    )
    ok = got == expected and cat.complete and antichain and witnesses
    _report(3, f"catalog for (2K2,2K2) within (8,10) is exactly {{3K2, C5}}", ok)


def test_criterion_4_density_values():
    checks = [
        m2(b("K3")).value == 2,
        m2(b("K4")).value == Fraction(5, 2),
        m2(b("C4")).value == Fraction(3, 2),
        m2_pair(b("K3"), b("K3")).value == 2,
    ]
    # subset-optimum reduction against all-subgraph maximization, <=5 vertices
    from itertools import combinations

    reduction_ok = True
    for X in enumerate_graphs(SearchBounds(5, 10)):
        best = None
        for k in range(1, X.n + 1):
            for vs in combinations(range(X.n), k):
                sub = X.induced(vs)
                edges = sub.edges()
                for r in range(len(edges) + 1):
                    for es in combinations(edges, r):
                        val = Fraction(len(es), k)
                        if best is None or val > best:
                            best = val
        if rho(X).value != best:
            reduction_ok = False
    ok = all(checks) and reduction_ok
    _report(4, "exact rational density values and subset-optimum reduction", ok)


def test_criterion_5_ramsey_density_property():
    K3 = b("K3")
    d = m2_pair(K3, K3).value
    arrowing = [
        F for F in enumerate_graphs(SearchBounds(6, 15)) if arrows(F, K3, K3).arrows is True
    ]
    k6_found = any(certificate(F) == certificate(b("K6")) for F in arrowing)
    ok = (
        arrowing
        and k6_found
        and all(rho(F).value > d for F in arrowing)
        and rho(b("K6")).value == Fraction(5, 2)
    )
    _report(5, f"rho(F) > {d} for all {len(arrowing)} arrowing graphs found (K6 included)", ok)


def test_criterion_6_classifier_conformance():
    table = [
        ("S5+S2", "S3+122K2", FINITE),
        ("S3", "S3", FINITE),
        ("S2", "S2", INFINITE),
        ("K3", "K3", INFINITE),
        ("P4", "P4", INFINITE),
        ("K3", "S2+K2", INFINITE),
        ("K3", "5K2", FINITE),
        ("P4", "5K2", FINITE),
        ("S3+2K2", "S5+K2", FINITE),
    ]
    ok = all(classify(b(g), b(h)).verdict == verdict for g, h, verdict in table)
    ok = ok and (5 + 2 * 3 + 2 - 2) ** 2 + 1 == 122
    _report(6, "classifier conformance table and the explicit 122 bound", ok)


def test_criterion_7_matching_extension_consistency():
    finite_pairs = [
        ("S5+S2", "S3+122K2"),
        ("S3", "S3"),
        ("K3", "5K2"),
        ("P4", "5K2"),
        ("S3+2K2", "S5+K2"),
    ]
    ok = True
    for gname, hname in finite_pairs:
        for ell, m in product(range(3), repeat=2):
            verdict = matching_extension_check(b(gname), b(hname), ell, m).verdict
            if verdict == INFINITE:
                ok = False
    _report(7, "matching extensions of Finite pairs are never Infinite", ok)


def test_criterion_8_threshold_experiment():
    config = ExperimentConfig(
        G=b("K3"),
        H=b("K3"),
        n_values=(12,),
        c_values=(0.2, 0.5, 1.0, 2.0),
        samples=200,
        seed=7,
        node_budget=10**7,
    )
    t0 = time.perf_counter()
    results = run_experiment(config)
    elapsed = time.perf_counter() - t0
    by_c = sorted(results, key=lambda r: r.c)
    monotone = all(
        lo.outcomes[i] is not True or hi.outcomes[i] is True
        for lo, hi in zip(by_c, by_c[1:])
        for i in range(config.samples)
    )
    csv1 = results_to_csv(results, config.seed)
    csv2 = results_to_csv(run_experiment(config), config.seed)
    ok = monotone and csv1 == csv2 and elapsed < 600
    _report(8, f"coupled monotone indicators, byte-reproducible, {elapsed:.0f}s", ok)


def test_criterion_9_finite_forest_consistency():
    comps = ["K2", "2K2", "3K2", "S2", "S3", "S5", "P4", "K3", "C4"]
    targets = [b(c) for c in comps]
    for c1, c2 in combinations_with_replacement(comps, 2):
        targets.append(b(c1).disjoint_union(b(c2)))
    violations = 0
    for G, H in product(targets, repeat=2):
        verdict = classify(G, H).verdict
        if verdict != FINITE:
            continue
        g_shape, h_shape = shape_of(G), shape_of(H)
        g_matching = g_shape is not None and g_shape.s == 0
        h_matching = h_shape is not None and h_shape.s == 0
        if not (g_matching or h_matching):
            if G.has_cycle() or H.has_cycle():
                violations += 1
    _report(9, f"Finite non-matching pairs are forest pairs ({len(targets)}^2 sweep)", violations == 0)
