"""Canonical labeling by partition refinement plus backtracking.

Each connected component is canonicalized by individualization-refinement:
refine an ordered partition to equitability, branch on the first
non-singleton cell, and keep the lexicographically largest adjacency
bit-string over all discrete labelings reached. Component certificates are
then sorted and concatenated, so disconnected graphs (matchings in
particular) never pay for cross-component branching.

Two graphs are isomorphic iff their certificates are equal; verified
against brute-force permutation search in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph


@dataclass(frozen=True)
class CanonicalForm:
    certificate: bytes
    permutation: tuple  # old label -> new label


def _refine(adj, cells):
    """Refine an ordered partition to equitability (neighbor counts into
    every cell are constant on each cell)."""
    cells = [tuple(c) for c in cells]
    changed = True
    while changed:
        changed = False
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            newcells = []
            for cell in cells:
                if len(cell) == 1:
                    newcells.append(cell)
                    continue
                buckets = {}
                for v in cell:
                    buckets.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(buckets) == 1:
                    newcells.append(cell)
                else:
                    changed = True
                    for k in sorted(buckets):
                        newcells.append(tuple(buckets[k]))
            if changed:
                cells = newcells
                break
    return cells


def _pair_index(i, j):
    # i < j, upper triangle packed row by row
    return j * (j - 1) // 2 + i


def _canon_connected(n, adj):
    """Return (packed adjacency int under the best labeling, perm)."""
    edges = []
    for u in range(n):
        row = adj[u] >> (u + 1) << (u + 1)
        while row:
            v = (row & -row).bit_length() - 1
            row &= row - 1
            edges.append((u, v))
    best = -1
    best_perm = None

    def leaf(cells):
        nonlocal best, best_perm
        pos = {}
        for i, cell in enumerate(cells):
            pos[cell[0]] = i
        acc = 0
        for u, v in edges:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            acc |= 1 << _pair_index(a, b)
        if acc > best:
            best = acc
            best_perm = tuple(pos[v] for v in range(n))

    def dfs(cells):
        cells = _refine(adj, cells)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            leaf(cells)
            return
        cell = cells[target]
        for v in cell:
            rest = tuple(w for w in cell if w != v)
            dfs(cells[:target] + [(v,), rest] + cells[target + 1:])

    dfs([tuple(range(n))])
    return best, best_perm


@lru_cache(maxsize=1 << 18)
def _canon(n, adj):
    g = Graph._trusted(n, adj)  # (n, adj) always comes from a valid Graph
    comps = g.connected_components()
    canned = []
    for vs in comps:
        sub = g.induced(vs)
        acc, perm = _canon_connected(sub.n, sub.adj)
        canned.append((sub.n, acc, vs, perm))
    # larger / denser components first; deterministic total order
    canned.sort(key=lambda t: (t[0], t[1]), reverse=True)
    final = [0] * n
    offset = 0
    pieces = []
    for cn, acc, vs, perm in canned:
        for local, orig in enumerate(vs):
            final[orig] = offset + perm[local]
        offset += cn
        pieces.append(f"{cn}:{acc:x}")
    cert = (f"{n};" + "|".join(pieces)).encode("ascii")
    return cert, tuple(final)


def canonical_form(g: Graph) -> CanonicalForm:
    cert, perm = _canon(g.n, g.adj)
    return CanonicalForm(cert, perm)


def certificate(g: Graph) -> bytes:
    return _canon(g.n, g.adj)[0]


def canonical_representative(g: Graph) -> Graph:
    return g.relabel(_canon(g.n, g.adj)[1])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return certificate(g) == certificate(h)
