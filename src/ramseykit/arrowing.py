"""Arrowing decisions: does every red/blue edge coloring of F contain a red
copy of G or a blue copy of H?

Each pattern has one cached embedding plan (`_plan`), read by containment
and by copy listing. Containment (`_extend`) is an explicit-stack search
over it for a first embedding, with no symmetry conditions.

Copy listing adds symmetry conditions from Aut(pattern) (`_above`), found
by asking `_extend` for automorphisms through a pinned prefix, and
compiles the plan with them once per pattern into a kernel of nested bit
loops, one per position, generated from the plan's integers only
(`_kernel_source`). Where isomorphic components are ordered by their
first images, the first position of each checks that enough unused
vertices of high enough degree remain above its image for the later
components (`_conditions`), so a kK2 with few copies in the host is
listed in about as many steps as it has copies, not 2^k. The kernel never
calls `_extend` and containment never runs the kernel, so `naive_arrows`
and `EdgeColoring.is_good` stay a separate check on the search below, and
a networkx VF2 oracle in the tests checks both. `has_copy` asks the kernel
for a first copy; the catalog's member checks use it.

When G and H are matchings sK2 and tK2, F arrows as soon as it has more
edges than ex(N, s) + ex(N, t), where N counts F's non-isolated vertices
and ex(N, s) is the Erdos-Gallai (1959) bound on the edges of a graph on
N vertices with no s disjoint edges: one color class then holds more than
its bound. That is decided at the root, with 0 nodes and no copy listed.
It proves K_{2m+n-1} -> (mK2, nK2) (Cockayne-Lorimer 1975) for all
m, n <= 4, but not from (5K2, 5K2) on, where the search still decides.
The count cannot cut deeper in the tree: red, blue and free edges always
sum to F's edge count.

The decision works on the copy hypergraph of F: every copy of G and of H
in F, once, as a bitmask over pairs of F's vertices, filed under each of
its edges as the kernel lists it. The k non-isolated vertices are ranked
by descending degree, ties by label, and the pair of ranks a < b takes the
bit of its lexicographic index, so the lowest bits are the edges at the
vertex of highest degree. The indices come from one table per k
(`_pair_table`), whose rows the kernel gathers, eidx[u][v], for the ranked
vertices at its first copy. A coloring is good exactly when every G-copy has
a blue edge and every H-copy has a red edge, so with no G-copy (H-copy)
all red (blue) is good and no table is built. G and H have the same
copies in every host exactly when they are isomorphic; then H's copies
are not listed again. G is isomorphic to H exactly when G's kernel finds
a copy of G in an H of the same order and size: neither has an isolated
vertex, so such a copy uses every vertex and every edge of H.

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

A witness `EdgeColoring` holds the host and the adjacency rows of its red
and its blue class, like `Graph.adj`. The search sets the bits of the blue
edges only and takes red as host XOR blue; a one-color witness shares the
host's rows. `assignment`, a dict {(u, v): color}, is built on each read,
in lexicographic edge order. In a dict given to `EdgeColoring(host,
assignment)`, an entry that is not an edge (u, v), u < v, of the host, or
whose color is neither red nor blue, makes the coloring not total, so
`is_good` rejects it.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .graphs import DEFAULT_VERTEX_CAP, Graph, Record, VertexCapError, check_targets

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
    core = pattern._renumbered(order)
    anchors: List[list] = [[] for _ in range(core.n)]
    for i, j in core.edges():  # i < j
        anchors[j].append(i)
    need = tuple(row.bit_count() for row in core.adj)
    return tuple(order), core, tuple(tuple(a) for a in anchors), need


def _extend(adj, n, anchors, need, prefix=()) -> Optional[List[int]]:
    """First embedding of a plan (`anchors`, `need`) into the graph with
    adjacency rows `adj` on n vertices that extends `prefix` (the images of
    the first positions, taken as given), as the image of each position, or
    None. An explicit-stack DFS: position i takes, lowest vertex first, an
    unused vertex of degree >= need[i] adjacent to the images of
    anchors[i]."""
    k = len(need)
    start = len(prefix)
    full = (1 << n) - 1
    img = list(prefix) + [0] * (k - start)
    cands = [0] * k  # cands[i]: the untried candidates of position i
    used = 0
    for h in prefix:
        used |= 1 << h
    i = start
    while i < k:
        c = full & ~used
        for j in anchors[i]:
            c &= adj[img[j]]
        while True:
            while not c:  # position i is out of candidates: back up
                if i == start:
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


# Python nests at most 20 blocks in one function, so a generated kernel
# holds the loops of this many positions per function and chains the rest.
_SEGMENT = 16


def _above(core: Graph, anchors, need):
    """For each position of the plan, the earlier positions whose image
    must be smaller. The conditions come from the stabilizer chain of
    Aut(pattern): for each position i, the image of i is below the image of
    every other vertex in the orbit of i under the automorphisms fixing
    positions 0..i-1 (Grochow-Kellis, RECOMB 2007). Each copy then has
    exactly one admitted embedding, and Aut(pattern) is never listed.

    Such an automorphism maps i's component C onto itself unless i starts
    C. The orbit within C depends only on C's plan shape (its rows, shifted
    to start at 0), so `_extend` is asked once per shape and position; a
    later component of C's shape takes the orbit of C's first position,
    shifted."""
    k = core.n
    starts = [i for i in range(k) if not anchors[i]]
    ends = starts[1:] + [k]
    comps = [(s, e, tuple(row >> s for row in core.adj[s:e])) for s, e in zip(starts, ends)]
    above: List[list] = [[] for _ in range(k)]
    orbits: Dict[tuple, list] = {}  # (shape, i - s): the later positions of i's orbit in C, minus s

    def maps(i, w):  # an automorphism fixing 0..i-1 and sending i to w? (need is core's degrees)
        ok = need[w] == need[i] and all(core.has_edge(j, w) for j in anchors[i])
        return ok and _extend(core.adj, k, anchors, need, tuple(range(i)) + (w,)) is not None

    c = -1
    for i in range(k):
        c += not anchors[i]
        s, e, shape = comps[c]
        if (shape, i - s) not in orbits:
            orbits[shape, i - s] = [w - s for w in range(i + 1, e) if maps(i, w)]
        hits = [s + d for d in orbits[shape, i - s]]
        if i == s:
            orbit = [0] + orbits[shape, 0]
            for s2, e2, shape2 in comps[c + 1 :]:
                hits += [s2 + d for d in orbit] if shape2 == shape else [w for w in range(s2, e2) if maps(i, w)]
        for w in hits:
            above[w].append(i)
    return tuple(tuple(a) for a in above)


def _conditions(anchors, need, above):
    """The conditions a kernel checks, by position: (direct, room).
    direct[j] is above[j] less the positions that `above` already forces
    below another one of them. At the first position i of a component, r
    counts the later positions of other components that `above`, through
    its transitive closure, forces to take images above v_i, and d is the
    smallest of their needs: room[i] is (r, d) when r is positive, else
    None. Such positions exist only for isomorphic components, ordered by
    the conditions on their first positions."""
    k = len(need)
    first = []  # first[j]: the first position of j's component
    below = []  # below[j]: bitmask of the positions whose image is below j's
    direct = []
    room: List[Optional[tuple]] = [None] * k
    for j in range(k):
        first.append(first[anchors[j][0]] if anchors[j] else j)
        implied = 0
        for i in above[j]:
            implied |= below[i]
        direct.append(tuple(i for i in above[j] if not implied >> i & 1))
        below.append(implied | sum(1 << i for i in above[j]))
    for i in range(k):
        if first[i] == i:
            forced = [need[j] for j in range(i + 1, k) if below[j] >> i & 1 and first[j] != i]
            if forced:
                room[i] = (len(forced), min(forced))
    return direct, room


def _kernel_source(anchors, need, above) -> str:
    """The Python source of the copy kernel for the plan (`anchors`,
    `need`, `above`), built from the plan's integers only. The kernel is
    called as kernel(adj, degs, limit, ranking, eidx, through) on a host
    with adjacency rows `adj` and degrees `degs`. It lists the copies in the
    lexicographic order of their images by position, ORs 1 <<
    eidx[u][v] over the edges uv of each into its mask, and files the
    mask in through[e] for each of its edges e (at the first copy, the
    empty `ranking`, `eidx` and `through` are filled by `_edge_order`). It
    returns (copies, the union of the masks), and stops right after copy
    limit + 1; at once, with (0, 0), when fewer vertices than the
    pattern's have the smallest need.

    Position i has one `while c_i:` loop over its candidates, lowest vertex
    first: the vertices of degree >= need[i], AND the rows of its anchors'
    images, AND `-2 << v_j` for each j in direct[i], AND NOT the earlier
    images that are not anchors (`_conditions`). At the first position of a
    component with a room check (r later positions of other components
    forced above it, the smallest of their needs d), the loop breaks once
    fewer than r unused vertices above v_i have degree >= d: a larger
    candidate leaves fewer still. When the last position has candidates,
    the edges among the earlier images are read once; each candidate reads
    its own. Positions past the first `_SEGMENT` continue in a chained
    function, which gets the earlier images as a tuple `p` and their union
    `u`, and returns the running (copies, union)."""
    k = len(need)
    direct, room = _conditions(anchors, need, above)
    fits = sorted(set(need))
    args = "adj, degs, limit, ranking, eidx, through" + "".join(f", f{d}" for d in fits)
    pedges = [(j, i) for i in range(k) for j in anchors[i]]
    old = [f"1 << e{j}_{h}" for j, h in pedges if h < k - 1]  # the bits of the edges before the last position
    lines = ["def _list(adj, degs, limit, ranking, eidx, through):"]
    if fits:
        lines += ["    " + " = ".join(f"f{d}" for d in fits) + " = 0", "    for v, d in enumerate(degs):"]
        for d in fits:
            lines += [f"        if d >= {d}:", f"            f{d} |= 1 << v"]
        lines += [f"    if f{fits[0]}.bit_count() < {k}:", "        return 0, 0"]
    # a pattern with no vertices has one copy, with no edges
    lines.append("    count = live = 0" if k else "    count, live = 1, 0")
    for start in range(0, k, _SEGMENT):
        end = min(start + _SEGMENT, k)
        if start:
            lines += ["    return count, live", "", f"def _s{start}({args}, count, live, u, p):"]
            lines.append(f"    {', '.join(f'v{j}' for j in range(start))}, = p")
        for i in range(start, end):
            pad = "    " * (1 + i - start)
            terms = [f"f{need[i]}"] + [f"adj[v{j}]" for j in anchors[i]] + [f"(-2 << v{j})" for j in direct[i]]
            free = [j for j in range(i) if j not in anchors[i]]
            unused = [f"b{j}" for j in free if j >= start] + ["u"] * any(j < start for j in free)
            if unused:
                terms.append(f"~({' | '.join(unused)})")
            lines.append(f"{pad}c{i} = {' & '.join(terms)}")
            if i == k - 1 and pedges:
                lines += [f"{pad}if c{i}:", f"{pad}    if not eidx:"]
                lines.append(f"{pad}        _edge_order(adj, degs, ranking, eidx, through)")
                lines += [f"{pad}    e{j}_{h} = eidx[v{j}][v{h}]" for j, h in pedges if h < k - 1]
                lines += [f"{pad}    m = {' | '.join(old)}"] * bool(old)
                pad += "    "
            lines += [f"{pad}while c{i}:", f"{pad}    b{i} = c{i} & -c{i}", f"{pad}    c{i} ^= b{i}"]
            if i < k - 1 or anchors[i]:
                lines.append(f"{pad}    v{i} = b{i}.bit_length() - 1")
            if room[i]:
                r, d = room[i]
                used = ["u"] * bool(start) + [f"b{j}" for j in range(start, i)]
                room_mask = f"f{d} & (-2 << v{i})" + (f" & ~({' | '.join(used)})" if used else "")
                lines += [f"{pad}    if ({room_mask}).bit_count() < {r}:", f"{pad}        break"]
            if i == k - 1:
                lines += [f"{pad}    e{j}_{i} = eidx[v{j}][v{i}]" for j in anchors[i]]
                if pedges:
                    own = [f"1 << e{j}_{i}" for j in anchors[i]]
                    lines.append(f"{pad}    x = {' | '.join(['m'] * bool(old) + own)}")
                    lines += [f"{pad}    through[e{j}_{h}].append(x)" for j, h in pedges]
                    lines.append(f"{pad}    live |= x")
                lines.append(f"{pad}    count += 1")
            elif i == end - 1:
                seen = " | ".join(["u"] * bool(start) + [f"b{j}" for j in range(start, end)])
                images = f"{'p + ' if start else ''}({', '.join(f'v{j}' for j in range(start, end))},)"
                lines.append(f"{pad}    count, live = _s{end}({args}, count, live, {seen}, {images})")
            else:
                continue
            lines += [f"{pad}    if count > limit:", f"{pad}        return count, live"]
    lines.append("    return count, live")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=DEFAULT_VERTEX_CAP + 1)
def _pair_table(k: int):
    """The pairs of k ranks, a < b, in lexicographic order, and the rows of
    their indices: rows[a][b] = rows[b][a] is the index of pair (a, b)."""
    pairs = tuple(combinations(range(k), 2))
    rows = [[0] * k for _ in range(k)]
    for i, (a, b) in enumerate(pairs):
        rows[a][b] = rows[b][a] = i
    return pairs, tuple(map(tuple, rows))


def _edge_order(adj, degs, ranking, eidx, through):
    """Fill the empty lists `ranking` with the non-isolated vertices of the
    host with rows `adj` by descending degree, ties by label; `eidx` with
    one row per vertex, eidx[u][v] the index in `_pair_table` of the ranks
    of u and v (None for an isolated vertex, which no edge reads); and
    `through` with one empty list per pair of ranks."""
    ranking.extend(sorted((v for v, d in enumerate(degs) if d), key=degs.__getitem__, reverse=True))
    pairs, rows = _pair_table(len(ranking))
    rank = [0] * len(adj)
    for r, v in enumerate(ranking):
        rank[v] = r
    gather = itemgetter(*rank)
    eidx.extend([None] * len(adj))
    for r, v in enumerate(ranking):
        eidx[v] = gather(rows[r])
    through.extend([[] for _ in pairs])


@lru_cache(maxsize=4096)
def _copy_plan(pattern: Graph):
    """The copy kernel of `_kernel_source` for `_plan(pattern)` with its
    symmetry conditions (`_above`), compiled once per pattern."""
    _, core, anchors, need = _plan(pattern)
    namespace = {"_edge_order": _edge_order}
    exec(compile(_kernel_source(anchors, need, _above(core, anchors, need)), "<copy kernel>", "exec"), namespace)
    return namespace["_list"]


def has_copy(host: Graph, *patterns: Graph) -> bool:
    """Whether host contains any of the patterns, asked of each one's copy
    kernel for a first copy (every edge index 0): its symmetry conditions
    and room checks prune what `contains_copy` walks in full (every partial
    matching, for a kK2 missing from the host). The host's degrees and
    index rows are built once for all the patterns."""
    adj = host.adj
    degs = [row.bit_count() for row in adj]
    eidx = [[0] * host.n] * host.n
    return any(_copy_plan(pattern)(adj, degs, 0, [], eidx, [[]])[0] for pattern in patterns)


# ---------------------------------------------------------------------------
# Colorings


class EdgeColoring(Record):
    """Red/blue coloring of some edges of a host graph, held as the
    adjacency rows of its red and of its blue class; edges in neither are
    unassigned.

    `EdgeColoring(host, assignment)` takes a dict {(u, v): color}. An entry
    that is not an edge (u, v), u < v, of the host, or whose color is
    neither RED nor BLUE, is kept in no class and only sets `stray`, which
    makes the coloring not total."""

    __slots__ = _fields = ("host", "red", "blue", "stray")

    def __init__(self, host: Graph, assignment: Optional[Dict[Tuple[int, int], str]] = None):
        red, blue = [0] * host.n, [0] * host.n
        stray = False
        for e, color in (assignment or {}).items():
            rows = red if color == RED else blue if color == BLUE else None
            try:
                u, v = e
                ok = rows is not None and 0 <= u < v and host.has_edge(u, v)
            except (TypeError, ValueError):  # not a pair of integers
                ok = False
            if not ok:
                stray = True
                continue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.host, self.red, self.blue, self.stray = host, tuple(red), tuple(blue), stray

    @classmethod
    def _trusted(cls, host: Graph, red: tuple, blue: tuple) -> "EdgeColoring":
        """Build from disjoint rows of host edges, taken as given."""
        coloring = object.__new__(cls)
        coloring.host, coloring.red, coloring.blue, coloring.stray = host, red, blue, False
        return coloring

    def edge_colors(self):
        """(edge, color) of each colored edge (u, v), u < v, in
        lexicographic order."""
        for u, (r, b) in enumerate(zip(self.red, self.blue)):
            row = (r | b) >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                row ^= low
                yield (u, low.bit_length() - 1), RED if r & low else BLUE

    @property
    def assignment(self) -> Dict[Tuple[int, int], str]:
        """The coloring as a dict {(u, v): color}, built on each read."""
        return dict(self.edge_colors())

    def is_total(self) -> bool:
        return not self.stray and all(r | b == a for r, b, a in zip(self.red, self.blue, self.host.adj))

    def color_class(self, color: str) -> Graph:
        if color not in (RED, BLUE):
            raise ValueError(f"color must be {RED!r} or {BLUE!r}, got {color!r}")
        return Graph._trusted(self.host.n, self.red if color == RED else self.blue)

    def is_good(self, G: Graph, H: Graph) -> bool:
        """Total, no red copy of G, no blue copy of H."""
        return (
            self.is_total()
            and contains_copy(self.color_class(RED), G) is None
            and contains_copy(self.color_class(BLUE), H) is None
        )


class ArrowVerdict(Record):
    """Outcome of one arrowing search: a good coloring (arrows False), an
    exhausted search (arrows True), or unknown (arrows None, budget hit)."""

    __slots__ = _fields = ("arrows", "witness", "nodes", "elapsed")

    def __init__(self, arrows: Optional[bool], witness: Optional[EdgeColoring], nodes: int, elapsed: float):
        # witness: the good coloring when arrows is False
        self.arrows = arrows
        self.witness = witness
        self.nodes = nodes
        self.elapsed = elapsed

    # perfbench/tracing.py:141 reads the search result under these names
    @property
    def coloring(self) -> Optional[EdgeColoring]:
        return self.witness

    @property
    def exhausted(self) -> bool:
        return self.arrows is True


def check_budget(budget: int):
    """The one check on a node budget, made wherever a budget is taken."""
    if budget < 1:
        raise ValueError(f"node budget must be at least 1, got {budget}")


def _check_search(F: Graph, G: Graph, H: Graph, budget: int):
    """The checks every search makes first, on the host as given: a host
    over the cap is rejected by counting its non-isolated rows, before any
    relabeling."""
    check_targets(G, H)
    check_budget(budget)
    if F.n > DEFAULT_VERTEX_CAP:
        used = sum(1 for row in F.adj if row)
        if used > DEFAULT_VERTEX_CAP:
            raise VertexCapError(
                f"host has {used} non-isolated vertices, over the cap {DEFAULT_VERTEX_CAP}"
            )


@lru_cache(maxsize=128)
def _zero_rows(n: int) -> Tuple[int, ...]:
    """The rows of the empty graph on n vertices, one tuple per n."""
    return (0,) * n


def _monochrome(F: Graph, color: str) -> EdgeColoring:
    none = _zero_rows(F.n)
    return EdgeColoring._trusted(F, F.adj, none) if color == RED else EdgeColoring._trusted(F, none, F.adj)


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
    _check_search(F, G, H, budget)
    outcome, witness, nodes = _search(F, G, H, budget)
    return ArrowVerdict(outcome, witness, nodes, time.perf_counter() - t0)


def _matching_free_edges(N: int, s: int) -> int:
    """The most edges a graph on N vertices has with no s disjoint edges:
    max{C(2s-1, 2), C(s-1, 2) + (s-1)(N-s+1)} (Erdos-Gallai 1959). Below
    2s - 1 vertices the first term still bounds C(N, 2)."""
    return max((2 * s - 1) * (s - 1), (s - 1) * (s - 2) // 2 + (s - 1) * (N - s + 1))


def _search(F: Graph, G: Graph, H: Graph, budget: int):
    """(arrows, witness, nodes) of the search behind `find_good_coloring`."""
    # Matching targets sK2 and tK2 (no isolated vertex, so n == 2m): when F
    # has more edges than a red class without sK2 and a blue class without
    # tK2 can hold together, every coloring has one of them.
    if G.n == 2 * G.edge_count and H.n == 2 * H.edge_count:
        N = sum(1 for row in F.adj if row)
        if F.edge_count > _matching_free_edges(N, G.edge_count) + _matching_free_edges(N, H.edge_count):
            return True, None, 0
    degs = [row.bit_count() for row in F.adj]
    ranking, eidx, g_through = [], [], []  # the kernel fills them at the first copy
    limit = min(budget, MAX_COPIES)
    nodes, g_live = _copy_plan(G)(F.adj, degs, limit, ranking, eidx, g_through)
    if not nodes:
        return False, _monochrome(F, RED), 0
    if nodes > limit:
        # Too many G-copies to list; only a missing H-copy still decides.
        if has_copy(F, H):
            return None, None, limit
        return False, _monochrome(F, BLUE), limit
    m = len(g_through)
    # Targets without isolated vertices have the same copies in every host
    # exactly when they are isomorphic, which G's compiled kernel decides.
    swap = H == G or (G.n == H.n and G.edge_count == H.edge_count and has_copy(H, G))
    if swap:
        h_through, h_live = g_through, g_live
    else:
        limit = min(budget - nodes, MAX_COPIES)
        h_through = [[] for _ in range(m)]
        count, h_live = _copy_plan(H)(F.adj, degs, limit, ranking, eidx, h_through)
        if not count:
            return False, _monochrome(F, BLUE), nodes
        if count > limit:
            return None, None, nodes + limit
        nodes += count
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
    # edges in no copy end red with the rest
    pairs = _pair_table(len(ranking))[0]
    rows = [0] * F.n
    while blue:
        low = blue & -blue
        blue ^= low
        a, b = pairs[low.bit_length() - 1]
        u, v = ranking[a], ranking[b]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    blue_rows = tuple(rows)
    return False, EdgeColoring._trusted(F, tuple(map(int.__xor__, F.adj, blue_rows)), blue_rows), nodes


def arrows(F: Graph, G: Graph, H: Graph, budget: int = DEFAULT_NODE_BUDGET) -> ArrowVerdict:
    """Decide F -> (G,H) on F.without_isolated(), which a witness colors;
    the targets have no isolated vertex, so F's cannot matter."""
    _check_search(F, G, H, budget)
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


class MinimalityReport(Record):
    _fields = ("is_ramsey", "edge_verdicts")

    def __init__(
        self,
        is_ramsey: Optional[bool],
        edge_verdicts: Dict[Tuple[int, int], ArrowVerdict],  # the search of F - e, per edge
    ):
        self.is_ramsey, self.edge_verdicts = is_ramsey, edge_verdicts

    @property
    def is_minimal(self) -> Optional[bool]:
        """F arrows and every single-edge deletion stops arrowing. When F
        does not arrow, or is unknown, so is minimality. One deletion proven
        to still arrow makes F not minimal whatever the others return;
        otherwise an unknown deletion leaves the answer unknown."""
        if not self.is_ramsey:
            return self.is_ramsey
        outcomes = {v.arrows for v in self.edge_verdicts.values()}
        return False if True in outcomes else None if None in outcomes else True

    @property
    def per_edge(self) -> Dict[Tuple[int, int], Optional[EdgeColoring]]:
        """Good coloring of F - e, or None when F - e still arrows or is unknown."""
        return {e: v.witness for e, v in self.edge_verdicts.items()}


def is_ramsey_minimal(
    F: Graph, G: Graph, H: Graph, budget: int = DEFAULT_NODE_BUDGET
) -> MinimalityReport:
    """Whether F is Ramsey-minimal for (G,H), by the rule of
    `MinimalityReport.is_minimal`: F is searched, and if it arrows, each
    F - e is. Raises like `arrows` on a budget below 1 or a host over the
    vertex cap."""
    top = arrows(F, G, H, budget=budget)
    if not top.arrows:
        return MinimalityReport(top.arrows, {})
    F = F.without_isolated()
    verdicts = {e: find_good_coloring(F.delete_edge(*e), G, H, budget=budget) for e in F.edges()}
    return MinimalityReport(True, verdicts)


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
