"""Arrowing decisions: does every red/blue edge coloring of F contain a red
copy of G or a blue copy of H?

Each pattern has one cached embedding plan (`_plan`), read by containment
and by copy listing. Containment is an explicit-stack search over it for a
first embedding, with no symmetry conditions and no code shared with the
copy lister, so `naive_arrows` and `EdgeColoring.is_good` stay an
independent check on the search below.

The decision works on the copy hypergraph of F. Every copy of G and of H
in F is listed once, by its vertex images, from F's degrees computed once
per host. A coloring is good exactly when every G-copy has a blue edge and
every H-copy has a red edge. If F has no G-copy the all-red coloring is
good, and if it has no H-copy the all-blue one is; both exits come before
any per-edge bookkeeping.

Otherwise the copies are indexed in one pass. The edges of F take bits in
a fixed order (descending endpoint degree sum), looked up in a flat table
indexed u * n + v. One loop over each copy list turns every copy into its
edge bitmask and files it under each of its edges. G and H have the same
copies in every host exactly when they are isomorphic. Then H's copies are
not listed again, and one index serves both colors.

An explicit-stack search colors the lowest free edge red, then blue, with
unit propagation: a G-copy with no blue edge and one uncolored edge left
forces that edge blue, an H-copy with no red edge and one uncolored edge
left forces it red, and a G-copy gone all red or an H-copy gone all blue is
a conflict that backtracks. Only a one-edge target forces anything before
the first decision. Edges in no copy never take a decision and end red.
When G and H are isomorphic the good colorings are closed under swapping
the colors, so the first decision is red only.

`nodes` counts the copies listed plus the color decisions tried; forced
colors are free. Outcomes are three-valued: a witness coloring (no
arrowing), an exhausted search (arrowing proven), or an explicit unknown
when the work would pass the node budget. A budget hit is never silently
reported as a verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .canon import are_isomorphic
from .graphs import DEFAULT_VERTEX_CAP, Graph, VertexCapError, check_targets

RED = "red"
BLUE = "blue"

DEFAULT_NODE_BUDGET = 10**8

# Copy lists are held in memory; a pattern with more copies than this in F
# ends the search as unknown, whatever the node budget.
MAX_COPIES = 10**6


class UnknownVerdictError(RuntimeError):
    """An operation needed a definite sub-verdict but the search budget ran
    out before one was reached."""


# ---------------------------------------------------------------------------
# Embedding plans and subgraph containment


@lru_cache(maxsize=4096)
def _plan(pattern: Graph):
    """The one embedding plan of a pattern, read by containment and by copy
    listing. The visit order takes components by descending size and
    always places next the vertex of the current component with the most
    placed neighbors (ties: higher degree, then lower label), so each
    component is entered at a max-degree vertex and every later vertex sees
    a placed neighbor. `core` is the pattern relabeled by position (vertex
    i is the i-th visited); anchors[i] lists the earlier positions adjacent
    to i and need[i] is its degree. Returns (order, core, anchors, need)."""
    adj = pattern.adj
    order = []
    placed = 0
    for comp in sorted(pattern.connected_components(), key=len, reverse=True):
        while comp:
            v = max(comp, key=lambda u: ((adj[u] & placed).bit_count(), adj[u].bit_count()))
            order.append(v)
            placed |= 1 << v
            comp.remove(v)
    pos = [0] * pattern.n
    for i, v in enumerate(order):
        pos[v] = i
    core = pattern.relabel(pos)
    anchors: List[list] = [[] for _ in range(core.n)]
    for i, j in core.edges():  # i < j
        anchors[j].append(i)
    need = tuple(row.bit_count() for row in core.adj)
    return tuple(order), core, tuple(tuple(a) for a in anchors), need


def _extend(adj, n, anchors, need) -> Optional[List[int]]:
    """First embedding of a plan (`anchors`, `need`) into the graph with
    adjacency rows `adj` on n vertices, as the image of each position, or
    None. An explicit-stack DFS: position i takes, lowest vertex first, an
    unused vertex of degree >= need[i] adjacent to the images of
    anchors[i]."""
    k = len(need)
    full = (1 << n) - 1
    img = [0] * k
    cands = [0] * k  # cands[i]: the untried candidates of position i
    used = 0
    i = 0
    while i < k:
        c = full & ~used
        for j in anchors[i]:
            c &= adj[img[j]]
        while True:
            while not c:  # position i is out of candidates: back up
                if not i:
                    return None
                i -= 1
                used ^= 1 << img[i]
                c = cands[i]
            low = c & -c
            c ^= low
            h = low.bit_length() - 1
            if adj[h].bit_count() >= need[i]:
                break
        cands[i] = c
        img[i] = h
        used |= low
        i += 1
    return img


def contains_copy(host: Graph, pattern: Graph) -> Optional[Dict[int, int]]:
    """Injective map carrying every pattern edge to a host edge, or None."""
    if pattern.n > host.n or pattern.edge_count > host.edge_count:
        return None
    order, _, anchors, need = _plan(pattern)
    img = _extend(host.adj, host.n, anchors, need)
    return None if img is None else dict(zip(order, img))


# ---------------------------------------------------------------------------
# Copy enumeration


def _embeddings(adj, n, degs, anchors, need, above, prefix, limit) -> List[tuple]:
    """Every completion of the partial map `prefix` (pattern position ->
    host vertex) to an injective map where position i goes to a vertex of
    degree >= need[i] (host degrees `degs`) adjacent to the images of
    anchors[i] and above the images of above[i]. Stops after limit + 1
    completions."""
    k = len(need)
    start = len(prefix)
    img = list(prefix) + [0] * (k - start)
    if start == k:
        return [tuple(img)]
    fit = {d: sum(1 << v for v in range(n) if degs[v] >= d) for d in set(need[start:])}
    fit = [fit.get(d, 0) for d in need]  # vertices of enough degree, per position
    used = [0] * (k + 1)  # used[i]: images of positions before i
    for h in prefix:
        used[start] |= 1 << h
    cands = [0] * k
    found = []
    last = k - 1
    i = start
    while True:
        c = fit[i] & ~used[i]
        for j in anchors[i]:
            c &= adj[img[j]]
        for j in above[i]:
            c &= -2 << img[j]
        if i == last:
            # every candidate completes an embedding
            while c:
                low = c & -c
                c ^= low
                img[i] = low.bit_length() - 1
                found.append(tuple(img))
                if len(found) > limit:
                    return found
            i -= 1
        else:
            cands[i] = c
        while i >= start and not cands[i]:
            i -= 1
        if i < start:
            return found
        c = cands[i]
        low = c & -c
        cands[i] = c ^ low
        img[i] = low.bit_length() - 1
        used[i + 1] = used[i] | low
        i += 1


@lru_cache(maxsize=4096)
def _copy_plan(pattern: Graph):
    """What copy listing adds to `_plan(pattern)`: for each position, the
    earlier positions whose image must be smaller (above), and the pattern
    edges as position pairs. The ordering conditions come from the
    stabilizer chain of Aut(pattern): for each position i, the image of i
    is below the image of every other vertex in the orbit of i under the
    automorphisms fixing positions 0..i-1 (Grochow-Kellis, RECOMB 2007).
    Each copy then has exactly one admitted embedding, and Aut(pattern) is
    never listed. Returns (anchors, need, above, edge pairs), the first two
    the plan's own, so a listing makes one cache lookup."""
    _, core, anchors, need = _plan(pattern)
    k = core.n
    no_order = ((),) * k
    above: List[list] = [[] for _ in range(k)]
    for i in range(k):
        for w in range(i + 1, k):
            if need[w] != need[i] or not all(core.has_edge(j, w) for j in anchors[i]):
                continue
            # an automorphism fixing 0..i-1 and sending i to w? (need is
            # also core's degree list)
            if _embeddings(core.adj, k, need, anchors, need, no_order, tuple(range(i)) + (w,), 0):
                above[w].append(i)
    return anchors, need, tuple(tuple(a) for a in above), tuple(core.edges())


def _copies(F: Graph, degs: List[int], pattern: Graph, limit: int) -> List[tuple]:
    """Vertex images (in plan position order) of the copies of `pattern`
    in F, whose vertex degrees are `degs`, one per copy; limit + 1 of them
    means there are more than `limit`."""
    if pattern.n > F.n:
        return []
    anchors, need, above, _ = _copy_plan(pattern)
    return _embeddings(F.adj, F.n, degs, anchors, need, above, (), limit)


def _index(imgs: List[tuple], pattern: Graph, ebit: List[int], n: int, through: List[list]) -> int:
    """Append the edge mask of each copy in `imgs` to `through[e]` for
    every edge e it uses, where `ebit[u * n + v]` is the bit of edge uv.
    Returns the union of the masks."""
    pedges = _copy_plan(pattern)[3]
    live = 0
    for img in imgs:
        bits = []
        for a, b in pedges:
            bits.append(ebit[img[a] * n + img[b]])
        c = sum(bits)
        live |= c
        for bit in bits:
            through[bit.bit_length() - 1].append(c)
    return live


# ---------------------------------------------------------------------------
# Colorings


@dataclass
class EdgeColoring:
    """Red/blue assignment on the edges of a host graph; edges absent from
    the assignment are unassigned."""

    host: Graph
    assignment: Dict[Tuple[int, int], str] = field(default_factory=dict)

    def is_total(self) -> bool:
        return set(self.assignment) == set(self.host.edges())

    def color_class(self, color: str) -> Graph:
        edges = [e for e, c in self.assignment.items() if c == color]
        return Graph.from_edges(self.host.n, edges)

    def is_good(self, G: Graph, H: Graph) -> bool:
        """Total, no red copy of G, no blue copy of H."""
        return (
            self.is_total()
            and contains_copy(self.color_class(RED), G) is None
            and contains_copy(self.color_class(BLUE), H) is None
        )


@dataclass
class ArrowVerdict:
    """Outcome of one arrowing search: a good coloring (arrows False), an
    exhausted search (arrows True), or unknown (arrows None, budget hit)."""

    arrows: Optional[bool]
    witness: Optional[EdgeColoring]  # the good coloring when arrows is False
    nodes: int
    elapsed: float

    # perfbench/tracing.py:141 reads the search result under these names
    @property
    def coloring(self) -> Optional[EdgeColoring]:
        return self.witness

    @property
    def exhausted(self) -> bool:
        return self.arrows is True


def _check_search(F: Graph, budget: int):
    if budget < 1:
        raise ValueError(f"node budget must be at least 1, got {budget}")
    if F.n > DEFAULT_VERTEX_CAP:
        used = sum(1 for row in F.adj if row)
        if used > DEFAULT_VERTEX_CAP:
            raise VertexCapError(
                f"host has {used} non-isolated vertices, over the cap {DEFAULT_VERTEX_CAP}"
            )


def _monochrome(F: Graph, color: str) -> EdgeColoring:
    return EdgeColoring(F, dict.fromkeys(F.edges(), color))


def _propagate(red, blue, queue, g_through, h_through):
    """Apply the colors just given to the edges in `queue` and every color
    they force. Returns the new (red, blue) masks, or None on a conflict."""
    while queue:
        e = queue.pop()
        if red >> e & 1:
            for c in g_through[e]:
                if not c & blue:
                    rest = c & ~red
                    if not rest:
                        return None
                    if not rest & (rest - 1):
                        blue |= rest
                        queue.append(rest.bit_length() - 1)
        else:
            for c in h_through[e]:
                if not c & red:
                    rest = c & ~blue
                    if not rest:
                        return None
                    if not rest & (rest - 1):
                        red |= rest
                        queue.append(rest.bit_length() - 1)
    return red, blue


def find_good_coloring(
    F: Graph,
    G: Graph,
    H: Graph,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ArrowVerdict:
    """Search for a total coloring of F with no red G and no blue H, by unit
    propagation over the copies of G and H in F (see the module notes).

    Raises ValueError on targets `check_targets` rejects or a budget below
    1, and VertexCapError when F has more than DEFAULT_VERTEX_CAP
    non-isolated vertices."""
    t0 = time.perf_counter()
    check_targets(G, H)
    _check_search(F, budget)
    outcome, witness, nodes = _search(F, G, H, budget)
    return ArrowVerdict(outcome, witness, nodes, time.perf_counter() - t0)


def _search(F: Graph, G: Graph, H: Graph, budget: int):
    """(arrows, witness, nodes) of the search behind `find_good_coloring`."""
    n = F.n
    degs = [row.bit_count() for row in F.adj]
    limit = min(budget, MAX_COPIES)
    g_imgs = _copies(F, degs, G, limit)
    if not g_imgs:
        return False, _monochrome(F, RED), 0
    if len(g_imgs) > limit:
        # Too many G-copies to list; only a missing H-copy still decides.
        if _copies(F, degs, H, 0):
            return None, None, limit
        return False, _monochrome(F, BLUE), limit
    nodes = len(g_imgs)
    # Targets without isolated vertices have the same copies in every host
    # exactly when they are isomorphic.
    swap = H == G or (G.n == H.n and G.edge_count == H.edge_count and are_isomorphic(G, H))
    if not swap:
        limit = min(budget - nodes, MAX_COPIES)
        h_imgs = _copies(F, degs, H, limit)
        if not h_imgs:
            return False, _monochrome(F, BLUE), nodes
        if len(h_imgs) > limit:
            return None, None, nodes + limit
        nodes += len(h_imgs)

    edges = sorted(F.edges(), key=lambda e: -(degs[e[0]] + degs[e[1]]))
    m = len(edges)
    ebit = [0] * (n * n)
    for i, (u, v) in enumerate(edges):
        ebit[u * n + v] = ebit[v * n + u] = 1 << i
    g_through: List[list] = [[] for _ in range(m)]
    g_live = _index(g_imgs, G, ebit, n, g_through)
    if swap:
        h_through, h_live = g_through, g_live
    else:
        h_through = [[] for _ in range(m)]
        h_live = _index(h_imgs, H, ebit, n, h_through)
    live = g_live | h_live
    # a one-edge target makes every copy a single edge, forced at the root
    blue = g_live if G.edge_count == 1 else 0
    red = h_live if H.edge_count == 1 else 0
    forced = red | blue
    if forced:
        state = None if red & blue else _propagate(
            red, blue, [e for e in range(m) if forced >> e & 1], g_through, h_through
        )
        if state is None:
            return True, None, nodes
        red, blue = state

    stack = []  # (red, blue, edge) of each red decision whose blue branch is open
    first = True
    while True:
        free = live & ~(red | blue)
        if not free:
            break
        if nodes >= budget:
            return None, None, nodes
        nodes += 1
        e = (free & -free).bit_length() - 1
        if not (first and swap):
            stack.append((red, blue, e))
        first = False
        state = _propagate(red | 1 << e, blue, [e], g_through, h_through)
        while state is None:
            if not stack:
                return True, None, nodes
            if nodes >= budget:
                return None, None, nodes
            nodes += 1
            red, blue, e = stack.pop()
            state = _propagate(red, blue | 1 << e, [e], g_through, h_through)
        red, blue = state
    coloring = EdgeColoring(F, {edges[i]: BLUE if blue >> i & 1 else RED for i in range(m)})
    return False, coloring, nodes


def arrows(F: Graph, G: Graph, H: Graph, budget: int = DEFAULT_NODE_BUDGET) -> ArrowVerdict:
    """Decide F -> (G,H) on F.without_isolated(), which a witness colors;
    the targets have no isolated vertex, so F's cannot matter."""
    return find_good_coloring(F.without_isolated(), G, H, budget=budget)


def naive_arrows(F: Graph, G: Graph, H: Graph) -> bool:
    """Reference oracle: enumerate all 2^|E(F)| total colorings with no
    pruning and no copy lists; used to cross-check the search."""
    check_targets(G, H)
    n = F.n
    edges = F.edges()
    m = len(edges)
    _, _, g_anchors, g_need = _plan(G)
    _, _, h_anchors, h_need = _plan(H)
    for mask in range(1 << m):
        red = [0] * n
        blue = [0] * n
        for i, (u, v) in enumerate(edges):
            cls = red if (mask >> i) & 1 == 0 else blue
            cls[u] |= 1 << v
            cls[v] |= 1 << u
        if _extend(red, n, g_anchors, g_need) is None and _extend(blue, n, h_anchors, h_need) is None:
            return False
    return True


@dataclass
class MinimalityReport:
    is_ramsey: Optional[bool]
    edge_verdicts: Dict[Tuple[int, int], ArrowVerdict]  # the search of F - e, per edge
    is_minimal: Optional[bool]

    @property
    def per_edge(self) -> Dict[Tuple[int, int], Optional[EdgeColoring]]:
        """Good coloring of F - e, or None when F - e still arrows or is unknown."""
        return {e: v.witness for e, v in self.edge_verdicts.items()}


def is_ramsey_minimal(
    F: Graph, G: Graph, H: Graph, budget: int = DEFAULT_NODE_BUDGET
) -> MinimalityReport:
    """F arrows (G,H) and every single-edge deletion stops arrowing. One
    deletion proven to still arrow makes F not minimal whatever the others
    return; otherwise an unknown deletion leaves the answer unknown. Raises
    like `arrows` on a budget below 1 or a host over the vertex cap."""
    F = F.without_isolated()
    top = arrows(F, G, H, budget=budget)
    if not top.arrows:  # does not arrow, or unknown: so is minimality
        return MinimalityReport(top.arrows, {}, top.arrows)
    verdicts = {e: find_good_coloring(F.delete_edge(*e), G, H, budget=budget) for e in F.edges()}
    outcomes = {v.arrows for v in verdicts.values()}
    is_minimal = False if True in outcomes else None if None in outcomes else True
    return MinimalityReport(True, verdicts, is_minimal)


def ramsey_number_complete(
    G: Graph, H: Graph, max_n: int, budget: int = DEFAULT_NODE_BUDGET
) -> Optional[int]:
    """Smallest N <= max_n with K_N -> (G,H), or None."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    for N in range(2, max_n + 1):
        v = arrows(Graph.complete(N), G, H, budget=budget)
        if v.arrows is None:
            raise UnknownVerdictError(f"budget exhausted deciding K_{N} -> (G,H)")
        if v.arrows:
            return N
    return None
