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

The first rule reads every known generator that fixes S, not only those
found below the node.

Twins are vertices with equal open neighbourhoods or equal closed ones
(the leaves of a star, the two ends of a K2, all of a K_n); one pass per
component finds their classes and seeds the generators with the swap of
each pair of consecutive twins. When the first non-singleton cell lies in
one twin class, it is split into singletons in ascending order, and the
path grows by all but its last vertex, with no branch and no refinement.
That is the first child at each step, exactly: every other cell of an
equitable partition holds all of the class or none of it (the class less
the path; a swap of two twins off the path fixes the path and so maps
each cell onto itself), so a vertex of another cell is adjacent to all
of the cell or to none of it, and splitting off a twin leaves the
partition equitable. Every permutation of the cell is an automorphism
fixing the path, so each skipped child is the image of the first one,
by a product of the seeded swaps. Stars, matchings and complete graphs
reach one leaf after one refinement, and K_{a,a} two leaves.

The generators found this way, with the seeded swaps, generate Aut of
the component. `_canon` moves them into the canonical labeling and adds
one swap for each pair of consecutive isomorphic components, so
`CanonicalForm.automorphisms` generates Aut of the whole graph.

Two graphs are isomorphic iff their certificates are equal; verified
against brute-force permutation search in the test suite, as are the
automorphism groups. No memo is kept: each call labels its graph afresh.
The search is one module-level recursive function that takes its state
as arguments (the rows, the edges, the twin masks, the generators and
the best leaf so far), so a call leaves no reference cycle: what it
builds is freed by reference counting, without the cyclic collector.
"""

from __future__ import annotations

from .graphs import FrozenRecord, Graph


class CanonicalForm(FrozenRecord):
    _fields = ("certificate", "permutation", "automorphisms")

    def __init__(self, certificate: bytes, permutation: tuple, automorphisms: tuple):
        # permutation: old label -> new label; automorphisms: generators of
        # Aut, each new label -> new label
        self._set(certificate, permutation, automorphisms)


def _refine(adj, cells):
    """Refine an ordered partition to equitability (neighbor counts into
    every cell are constant on each cell): split every cell by its counts
    into the first splitter that splits one, and start over. A splitter
    leaves every cell with constant counts into it, and cells only get
    finer, so it splits nothing again until it is split itself; such
    cells are skipped, which leaves the splits as they were."""
    cells = [tuple(c) for c in cells]
    stable = set()  # cells known to split nothing
    changed = True
    while changed:
        changed = False
        for splitter in cells:
            if splitter in stable:
                continue
            smask = 0
            for v in splitter:
                smask |= 1 << v
            newcells = []
            for cell in cells:
                if len(cell) > 1:
                    count = (adj[cell[0]] & smask).bit_count()
                    for v in cell:
                        if (adj[v] & smask).bit_count() != count:
                            break
                    else:
                        newcells.append(cell)
                        continue
                    changed = True
                    buckets = {}
                    for v in cell:
                        buckets.setdefault((adj[v] & smask).bit_count(), []).append(v)
                    for k in sorted(buckets):
                        newcells.append(tuple(buckets[k]))
                else:
                    newcells.append(cell)
            stable.add(splitter)
            if changed:
                cells = newcells
                break
    return cells


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


def _twins(n, adj):
    """Each vertex's twin class as a bitmask, 0 for a vertex with no twin,
    and the transpositions of consecutive twins. Twins share their open
    neighbourhood (never adjacent) or their closed one (always adjacent).
    A vertex v with an open twin u and a closed twin w would have w in
    N(v) = N(u), so u in N[w] = N[v], and v ~ u, which open twins are not:
    each vertex lies in at most one nontrivial class. No open key equals a
    closed one: N(u) = N[v] puts v in N(u), so u in N(v), a loop."""
    keys = [*adj, *(a | 1 << v for v, a in enumerate(adj))]
    twin = [0] * n
    swaps = []
    if len(set(keys)) == 2 * n:  # no twins
        return twin, swaps
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i % n)
    for members in classes.values():
        if len(members) > 1:
            mask = sum(1 << v for v in members)
            for v in members:
                twin[v] = mask
            for u, v in zip(members, members[1:]):
                image = list(range(n))
                image[u], image[v] = v, u
                swaps.append(tuple(image))
    return twin, swaps


def _search(adj, edges, twin, gens, best, cells, path):
    """Search below the node reached by individualizing path; return the
    depth of the node to resume at. best holds the best leaf so far:
    [packed adjacency, labeling (vertex -> label), its inverse, path]."""
    if len(cells) < len(adj):  # a discrete partition is already equitable
        cells = _refine(adj, cells)
    while True:
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:  # discrete: score the leaf
            pos = [0] * len(adj)
            for i, (v,) in enumerate(cells):
                pos[v] = i
            acc = 0
            for u, v in edges:
                a, b = pos[u], pos[v]
                if a > b:
                    a, b = b, a
                acc |= 1 << (b * (b - 1) // 2 + a)  # upper triangle packed row by row
            if acc > best[0]:
                best[:] = acc, pos, [v for v, in cells], path
            elif acc == best[0]:
                # both labelings give the same adjacency: best^-1 o pos is an
                # automorphism, and it maps the rest of this subtree onto the
                # explored subtree of best's branch at their common ancestor
                inv, best_path = best[2], best[3]
                gens.append(tuple(inv[i] for i in pos))
                depth = 0
                while path[depth] == best_path[depth]:
                    depth += 1
                return depth
            return len(path) - 1
        mask = twin[cell[0]]
        if not mask or any(twin[v] != mask for v in cell):
            break
        # a cell of twins: each first child is already equitable, and
        # the cell's permutations fix the path (module docstring)
        cells = cells[:target] + [(v,) for v in cell] + cells[target + 1:]
        path += cell[:-1]
    depth = len(path)
    stabilizer = []  # known generators fixing path pointwise
    scanned = 0  # gens[:scanned] are sorted into stabilizer or not
    covered = 0  # orbit of the explored children under stabilizer
    for v in cell:
        if covered >> v & 1:
            continue
        rest = tuple(w for w in cell if w != v)
        child = cells[:target] + [(v,), rest] + cells[target + 1:]
        resume = _search(adj, edges, twin, gens, best, child, path + (v,))
        if resume < depth:
            return resume
        for a in gens[scanned:]:
            if all(a[s] == s for s in path):
                stabilizer.append(a)
        scanned = len(gens)
        covered = _orbit_closure(covered | 1 << v, stabilizer)
    return depth - 1


def _canon_connected(n, adj):
    """Return (packed adjacency int under the best labeling, perm,
    generators of Aut); perm maps vertex -> label, each generator maps
    vertex -> vertex."""
    twin, gens = _twins(n, adj)
    best = [-1, None, None, ()]
    _search(adj, Graph._trusted(n, adj).edges(), twin, gens, best, [tuple(range(n))], ())
    return best[0], best[1], gens


def _canon(g: Graph):
    n = g.n
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
    return CanonicalForm(*_canon(g))


def certificate(g: Graph) -> bytes:
    return _canon(g)[0]


def canonical_representative(g: Graph) -> Graph:
    return g.relabel(_canon(g)[1])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return certificate(g) == certificate(h)
