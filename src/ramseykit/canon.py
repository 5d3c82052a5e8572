"""Canonical labeling by partition refinement plus backtracking.

Each connected component is canonicalized by individualization-refinement:
refine an ordered partition to equitability, branch on the first
non-singleton cell, and keep the lexicographically largest adjacency
bit-string over all discrete labelings reached; the labeling is the first
leaf in search order that reaches it. Component certificates are then
sorted and concatenated, so disconnected graphs (matchings in particular)
never pay for cross-component branching.

The search tree is pruned by automorphisms (McKay & Piperno, Practical
graph isomorphism II, JSC 2014). A leaf with the same adjacency as the best
one gives an automorphism, best^-1 o pos, which is recorded as a generator.
Two rules use them, and neither changes the certificate or the labeling:

- At a node reached by individualizing the path S, a child in the orbit of
  an explored sibling under the generators that fix S pointwise is skipped.
  Such an automorphism maps the node's refined partition to itself and the
  sibling's subtree onto the child's, so the child's leaves repeat values
  already seen, each later in search order than its twin.
- The automorphism a leaf gives fixes the path to the leaf's common
  ancestor with the best leaf and maps the leaf's branch below that
  ancestor onto the best leaf's branch, which is already explored; the
  search resumes at that ancestor.

The generators found this way generate Aut of the component. `_canon`
moves them into the canonical labeling and adds one swap for each pair of
consecutive isomorphic components, so `CanonicalForm.automorphisms`
generates Aut of the whole graph. Complete graphs cost about n leaves, not
n!.

Two graphs are isomorphic iff their certificates are equal; verified
against brute-force permutation search in the test suite, as are the
automorphism groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph


@dataclass(frozen=True)
class CanonicalForm:
    certificate: bytes
    permutation: tuple  # old label -> new label
    automorphisms: tuple  # generators of Aut, each new label -> new label


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


def _orbit_closure(mask, gens):
    """The smallest vertex set containing mask that every generator maps
    into itself."""
    frontier = mask
    while frontier:
        image = 0
        while frontier:
            x = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            for a in gens:
                image |= 1 << a[x]
        frontier = image & ~mask
        mask |= frontier
    return mask


def _canon_connected(n, adj):
    """Return (packed adjacency int under the best labeling, perm,
    generators of Aut); perm maps vertex -> label, each generator maps
    vertex -> vertex."""
    edges = []
    for u in range(n):
        row = adj[u] >> (u + 1) << (u + 1)
        while row:
            v = (row & -row).bit_length() - 1
            row &= row - 1
            edges.append((u, v))
    best = -1
    best_perm = None
    best_inv = None
    best_path = ()
    gens = []

    def leaf(cells, path):
        """Score a discrete partition; return the depth to resume at."""
        nonlocal best, best_perm, best_inv, best_path
        pos = [0] * n
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
            best_perm = tuple(pos)
            best_inv = [0] * n
            for v, i in enumerate(pos):
                best_inv[i] = v
            best_path = path
        elif acc == best:
            # both labelings give the same adjacency: best^-1 o pos is an
            # automorphism, and it maps the rest of this subtree onto the
            # explored subtree of best's branch at their common ancestor
            gens.append(tuple(best_inv[i] for i in pos))
            depth = 0
            while path[depth] == best_path[depth]:
                depth += 1
            return depth
        return len(path) - 1

    def dfs(cells, path):
        """Search below the node reached by individualizing path; return the
        depth of the node to resume at."""
        if len(cells) < n:  # a discrete partition is already equitable
            cells = _refine(adj, cells)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            return leaf(cells, path)
        depth = len(path)
        cell = cells[target]
        stabilizer = []  # generators fixing path pointwise
        scanned = len(gens)
        covered = 0  # orbit of the explored children under stabilizer
        for v in cell:
            if covered >> v & 1:
                continue
            rest = tuple(w for w in cell if w != v)
            resume = dfs(cells[:target] + [(v,), rest] + cells[target + 1:], path + (v,))
            if resume < depth:
                return resume
            for a in gens[scanned:]:
                if all(a[s] == s for s in path):
                    stabilizer.append(a)
            scanned = len(gens)
            covered = _orbit_closure(covered | 1 << v, stabilizer)
        return depth - 1

    dfs([tuple(range(n))], ())
    return best, best_perm, gens


@lru_cache(maxsize=1 << 18)
def _canon(n, adj):
    g = Graph._trusted(n, adj)  # (n, adj) always comes from a valid Graph
    comps = g.connected_components()
    canned = []
    for vs in comps:
        sub = g.induced(vs)
        acc, perm, gens = _canon_connected(sub.n, sub.adj)
        canned.append((sub.n, acc, vs, perm, gens))
    # larger / denser components first; deterministic total order
    canned.sort(key=lambda t: (t[0], t[1]), reverse=True)
    final = [0] * n
    offset = 0
    pieces = []
    automorphisms = []
    previous = None
    for cn, acc, vs, perm, gens in canned:
        for local, orig in enumerate(vs):
            final[orig] = offset + perm[local]
        for a in gens:  # component generators, moved into the canonical labeling
            image = list(range(n))
            for local in range(cn):
                image[offset + perm[local]] = offset + perm[a[local]]
            automorphisms.append(tuple(image))
        if previous == (cn, acc):  # swap with the isomorphic component before
            image = list(range(n))
            for i in range(offset - cn, offset):
                image[i], image[i + cn] = i + cn, i
            automorphisms.append(tuple(image))
        previous = (cn, acc)
        offset += cn
        pieces.append(f"{cn}:{acc:x}")
    cert = (f"{n};" + "|".join(pieces)).encode("ascii")
    return cert, tuple(final), tuple(automorphisms)


def canonical_form(g: Graph) -> CanonicalForm:
    return CanonicalForm(*_canon(g.n, g.adj))


def certificate(g: Graph) -> bytes:
    return _canon(g.n, g.adj)[0]


def canonical_representative(g: Graph) -> Graph:
    return g.relabel(_canon(g.n, g.adj)[1])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return certificate(g) == certificate(h)
