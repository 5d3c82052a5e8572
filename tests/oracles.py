"""Independent oracles for the test suite.

Everything here deliberately avoids the library's canonical-labeling,
pruned-search, embedding and density-profile code paths: isomorphism and
automorphism counts by permutation search, isomorphism class generation by
brute force, class counting by Burnside's lemma, copy counts (and so
containment) by networkx's VF2 matcher, colorings checked as a dict of edge
tuples, and density parameters by scoring every vertex subset.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from networkx import Graph as NxGraph
from networkx.algorithms.isomorphism import GraphMatcher

from ramseykit import Graph
from ramseykit.density import DensityValue, PairDensity, _check_size


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation search; only for small graphs."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    assert g.n <= 8, "brute-force isomorphism is for small graphs only"
    for perm in permutations(range(g.n)):
        if g.relabel(perm).adj == h.adj:
            return True
    return False


def brute_automorphism_count(g: Graph) -> int:
    """Number of permutations p with g.relabel(p) == g, by backtracking over
    partial vertex maps that keep degrees and adjacency."""
    n = g.n
    image = [0] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used[w] or g.degree(w) != g.degree(v):
                continue
            if any(g.has_edge(u, v) != g.has_edge(image[u], w) for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            total += extend(v + 1)
            used[w] = False
        return total

    return extend(0)


def _nx(g: Graph) -> NxGraph:
    out = NxGraph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def vf2_copy_count(host: Graph, pattern: Graph) -> int:
    """Number of (not necessarily induced) subgraphs of host isomorphic to
    pattern: VF2 monomorphisms divided by |Aut(pattern)|."""
    monos = sum(1 for _ in GraphMatcher(_nx(host), _nx(pattern)).subgraph_monomorphisms_iter())
    auts = _vf2_automorphism_count(pattern)
    assert monos % auts == 0
    return monos // auts


def vf2_contains(host: Graph, pattern: Graph) -> bool:
    """Whether host has a (not necessarily induced) copy of pattern."""
    return GraphMatcher(_nx(host), _nx(pattern)).subgraph_is_monomorphic()


@lru_cache(maxsize=None)
def _vf2_automorphism_count(pattern: Graph) -> int:
    return len(vf2_automorphisms(pattern))


def vf2_automorphisms(g: Graph) -> list:
    """Every automorphism of g, as a tuple mapping vertex -> image."""
    return [tuple(m[v] for v in range(g.n)) for m in GraphMatcher(_nx(g), _nx(g)).isomorphisms_iter()]


# Colorings as a dict {(u, v): color}, with no color rows


def dict_is_total(host: Graph, assignment: dict) -> bool:
    """Every edge (u, v), u < v, of host has an entry and nothing else does."""
    return set(assignment) == set(host.edges())


def dict_color_class(host: Graph, assignment: dict, color: str) -> Graph:
    return Graph.from_edges(host.n, [e for e, c in assignment.items() if c == color])


def dict_is_good(host: Graph, assignment: dict, G: Graph, H: Graph) -> bool:
    """Total, no red copy of G and no blue copy of H, by VF2. An entry of
    any other color lies in neither class, so it passes here."""
    return (
        dict_is_total(host, assignment)
        and not vf2_contains(dict_color_class(host, assignment, "red"), G)
        and not vf2_contains(dict_color_class(host, assignment, "blue"), H)
    )


def _min_edge_signature(n, edges):
    best = None
    for perm in permutations(range(n)):
        sig = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or sig < best:
            best = sig
    return best


def naive_classes_exactly(n: int):
    """All isomorphism classes of graphs on exactly n labeled vertices,
    one representative each, via minimum-signature dedupe (n <= 5)."""
    assert n <= 5
    pairs = list(combinations(range(n), 2))
    seen = set()
    reps = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        sig = _min_edge_signature(n, edges)
        if sig not in seen:
            seen.add(sig)
            reps.append(Graph.from_edges(n, edges))
    return reps


def naive_classes_no_isolated_upto(n: int):
    """Isomorphism classes with no isolated vertices and at most n vertices,
    at least one edge (n <= 5)."""
    out = []
    for k in range(2, n + 1):
        for g in naive_classes_exactly(k):
            if g.edge_count >= 1 and not g.isolated_vertices():
                out.append(g)
    return out


def burnside_counts_by_edges(n: int):
    """Number of isomorphism classes of graphs on n vertices with exactly m
    edges, for m = 0..C(n,2), by Burnside's lemma over the induced action
    on vertex pairs."""
    pairs = list(combinations(range(n), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    total = [0] * (len(pairs) + 1)
    for perm in permutations(range(n)):
        # cycle lengths of the induced permutation on pairs
        seen = [False] * len(pairs)
        poly = [1]
        for start in range(len(pairs)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                u, v = pairs[j]
                j = idx[tuple(sorted((perm[u], perm[v])))]
                length += 1
            # multiply poly by (1 + x^length)
            new = poly + [0] * length
            for i, coef in enumerate(poly):
                new[i + length] += coef
            poly = new
        for m, coef in enumerate(poly):
            total[m] += coef
    f = factorial(n)
    assert all(t % f == 0 for t in total)
    return [t // f for t in total]


def _subset_vertices(mask):
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def subset_profile(X: Graph):
    """For k = 0..n: the most edges of a k-vertex induced subgraph of X, and
    the lexicographically first vertex subset (a bitmask) that has them.

    Subsets are visited by their highest vertex h: e(S) = e(R) + |N(h) & R|
    with R = S - {h}, and R < S was visited before. For two subsets of one
    size, S's vertex tuple sorts first iff the lowest vertex of S ^ T is in S.
    """
    _check_size(X)
    n = X.n
    edges = memoryview(bytearray(2 << n)).cast("H")
    best = [-1] * (n + 1)
    best_mask = [0] * (n + 1)
    best[0] = 0
    for h in range(n):
        row = X.adj[h]
        top = 1 << h
        for rest in range(top):
            e = edges[rest] + (row & rest).bit_count()
            mask = top | rest
            edges[mask] = e
            k = mask.bit_count()
            most = best[k]
            if e > most:
                best[k] = e
                best_mask[k] = mask
            elif e == most:
                diff = mask ^ best_mask[k]
                if mask & diff & -diff:
                    best_mask[k] = mask
    return best, best_mask


def max_over_subsets(X: Graph, min_size: int, score):
    """Maximize score(edge_count, vertex_count) over induced subgraphs with
    at least min_size vertices. Ties go to the smallest subset, then the
    lexicographically smallest vertex tuple."""
    _check_size(X)
    adj = X.adj
    best = None
    best_key = None
    for mask in range(1, 1 << X.n):
        v = mask.bit_count()
        if v < min_size:
            continue
        e = 0
        rest = mask
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            e += (adj[w] & mask).bit_count()
        e //= 2
        val = score(e, v)
        if val is None:
            continue
        vs = _subset_vertices(mask)
        key = (-val, v, vs)
        if best_key is None or key < best_key:
            best_key = key
            best = DensityValue(val, vs)
    return best


def subset_rho(X: Graph) -> DensityValue:
    """rho by scoring every vertex subset."""
    return max_over_subsets(X, 1, lambda e, v: Fraction(e, v))


def subset_m2(X: Graph):
    """m2 by scoring every vertex subset; None when X is acyclic."""
    if not X.has_cycle():
        return None
    return max_over_subsets(X, 3, lambda e, v: Fraction(e - 1, v - 2) if v > 2 else None)


def subset_m2_pair(G: Graph, H: Graph) -> PairDensity:
    """m2(G,H) by scoring every vertex subset of the larger-m2 graph."""
    m2G = subset_m2(G)
    m2H = subset_m2(H)
    swapped = False
    if m2G.value < m2H.value:
        G, H = H, G
        m2G, m2H = m2H, m2G
        swapped = True
    inv = Fraction(1, 1) / m2H.value
    best = max_over_subsets(G, 2, lambda e, v: Fraction(e, 1) / (v - 2 + inv))
    return PairDensity(best.value, best.witness, swapped)
