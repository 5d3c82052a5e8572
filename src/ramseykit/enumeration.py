"""Isomorph-free graph generation and Ramsey-minimal catalogs.

Generation is by canonical augmentation (McKay, Isomorph-free exhaustive
generation, J. Algorithms 26, 1998). Every class X with no isolated
vertices other than K2 has a canonical deletion: among the edges with the
least key (deg u + deg v, min degree, common neighbours), the one whose
image under X's canonical labeling is least, together with its orbit under
Aut(X). Its parent is X less that edge, isolated vertices dropped. The key
is an isomorphism invariant and the canonical labeling maps isomorphic
graphs to one graph, so an isomorphism X -> Y maps the canonical deletion
of X onto that of Y.

Every graph g of a level, with generators of Aut(g), is grown by one edge
in each possible way up to its automorphisms: one new edge between
existing vertices per Aut-orbit of non-edges, one pendant edge to a fresh
vertex per Aut-orbit of vertices, and a fresh disjoint edge. The extension
g + e is kept iff e is in the canonical deletion of g + e. An e whose key
is not the least is rejected at once; the others are canonicalized once,
which gives the emitted representative and its automorphisms as well.

Completeness: by induction on the edge count, the parent p of X is
emitted as the representative of its class, and some isomorphism carries
p plus X's canonical deletion edge onto one extension p + e of the
representative, up to Aut(p); that e is in the canonical deletion of
p + e, so p + e is kept and X's class emitted. Uniqueness: if p + e and
p' + e' are kept and isomorphic, an isomorphism between them can be chosen
to map e to e' (both are in the canonical deletions, which it maps onto
each other, and an automorphism moves within the orbit). It then maps p
onto p', so p = p' (one representative per class), and it restricts to an
automorphism of p taking e to e'. Extensions are one per Aut(p)-orbit, so
e = e'. No table of the classes already seen is kept.

A catalog does not grow a candidate that arrows, since every proper
supergraph F' of an arrowing F is not minimal (F' - e still arrows for an
edge e outside F). Graphs with no arrowing subgraph are closed under
taking subgraphs, so they are all emitted and grown; the parent of a
minimal graph is one of them and reaches it, and no member is lost. An
extension that contains a member is dropped before it is canonicalized
(and after the key gate). Every grown graph g is member-free, so a member
M in g + e has at most e(g) + 1 edges. If it has fewer, g + e is tested
against it; if it has exactly e(g) + 1, g + e is a copy of M, whose
class was already emitted, and the canonical-deletion check rejects it
(each class is emitted once). So each extension is tested only against
the members with at most e(g) edges. Each question is asked of the same
compiled copy kernel the arrowing search uses, which lists only real
embeddings, so the drop loses no member either.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple, Union

from .arrowing import DEFAULT_NODE_BUDGET, MinimalityReport, check_budget, has_copy, is_ramsey_minimal
from .canon import CanonicalForm, canonical_form
from .density import m2_pair, rho
from .graph6 import emit_graph6
from .graphs import DEFAULT_VERTEX_CAP, FrozenRecord, Graph, Record, check_targets


class SearchBounds(FrozenRecord):
    _fields = ("max_vertices", "max_edges", "node_budget")

    def __init__(self, max_vertices: int, max_edges: int, node_budget: int = DEFAULT_NODE_BUDGET):
        if max_vertices < 0 or max_edges < 0:
            raise ValueError("bounds must be nonnegative")
        if max_vertices > DEFAULT_VERTEX_CAP:
            raise ValueError(f"max_vertices exceeds vertex cap {DEFAULT_VERTEX_CAP}")
        check_budget(node_budget)
        self._set(max_vertices, max_edges, node_budget)


def _close(item, image, gens, seen: set) -> None:
    """Add the orbit of item under the group gens generate to seen;
    image(a, item) applies generator a to an item."""
    seen.add(item)
    stack = [item]
    while stack:
        x = stack.pop()
        for a in gens:
            y = image(a, x)
            if y not in seen:
                seen.add(y)
                stack.append(y)


def _orbit_firsts(items, image, gens) -> Iterator:
    """The first of each orbit of items under the group gens generate, in
    the order given."""
    if not gens:
        yield from items
        return
    seen = set()
    for item in items:
        if item not in seen:
            yield item
            _close(item, image, gens, seen)


def _pair_image(a, pair):
    u, v = a[pair[0]], a[pair[1]]
    return (u, v) if u < v else (v, u)


def _extensions(
    rep: Graph, gens: tuple, bounds: SearchBounds
) -> Iterator[Tuple[Graph, Tuple[int, int]]]:
    """Every graph within the bounds grown from rep by one edge, one per
    orbit of Aut(rep) (generated by gens) on the added edges, each with the
    edge (u, v), u < v, that was added."""
    n = rep.n
    if rep.edge_count + 1 > bounds.max_edges:
        return
    # new edge between existing vertices
    adj = rep.adj
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1]
    for u, v in _orbit_firsts(non_edges, _pair_image, gens):
        yield rep.add_edge(u, v), (u, v)
    # pendant edge to one fresh vertex
    if n + 1 <= bounds.max_vertices:
        grown = Graph._trusted(n + 1, adj + (0,))
        for u in _orbit_firsts(range(n), tuple.__getitem__, gens):
            yield grown.add_edge(u, n), (u, n)
    # fresh disjoint edge
    if n + 2 <= bounds.max_vertices:
        yield Graph._trusted(n + 2, adj + (0, 0)).add_edge(n, n + 1), (n, n + 1)


def _ties(g: Graph, edge: Tuple[int, int]) -> Optional[List[Tuple[int, int]]]:
    """The edges of g whose key equals edge's, or None if some edge has a
    smaller key. An edge uv's key is (deg u + deg v, min degree, common
    neighbours), an isomorphism invariant; the common neighbours are counted
    only on edges whose degree sum ties."""
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    a, b = edge
    least = deg[a] + deg[b]
    rest = (min(deg[a], deg[b]), (adj[a] & adj[b]).bit_count())
    ties = []
    for u in range(g.n):
        du = deg[u]
        if du >= least:  # every edge at u has a larger sum
            continue
        row = adj[u] >> (u + 1) << (u + 1)
        while row:
            low = row & -row
            row ^= low
            v = low.bit_length() - 1
            total = du + deg[v]
            if total > least:
                continue
            if total < least:
                return None
            key = (min(du, deg[v]), (adj[u] & adj[v]).bit_count())
            if key < rest:
                return None
            if key == rest:
                ties.append((u, v))
    return ties


def _is_canonical_deletion(edge: Tuple[int, int], ties: list, form: CanonicalForm) -> bool:
    """Whether edge lies in the orbit, under the automorphisms of form, of
    the tie whose image under the canonical labeling is least."""
    perm = form.permutation
    least = min(_pair_image(perm, e) for e in ties)
    orbit = set()
    _close(least, _pair_image, form.automorphisms, orbit)
    return _pair_image(perm, edge) in orbit


# What `grow` returns for a graph: falsy, True, or a test for its extensions.
Growth = Union[bool, Callable[[Graph], bool]]


def enumerate_graphs(
    bounds: SearchBounds, grow: Optional[Callable[[Graph], Growth]] = None
) -> Iterator[Graph]:
    """All isomorphism classes with no isolated vertices, at most
    max_vertices vertices and max_edges edges, each exactly once, in
    nondecreasing edge count. Canonical representatives are emitted.

    A class other than K2 is emitted only from its parent, the class less
    its canonical deletion with isolated vertices dropped (see the module
    docstring), as the extension that adds that edge back.

    With `grow`, grow(g) is asked about each representative g before it is
    extended, after g has been yielded and the generator resumed. A falsy
    value leaves g unextended; True extends g; a callable is a test each
    extension must pass before it is canonicalized, and an extension that
    fails it is not emitted. The test is asked only of the extensions whose
    added edge has the least key. A class is then emitted iff it is K2, or
    its parent was emitted and grown and the class passed the parent's
    test. When the accepted graphs are closed under taking subgraphs, every
    one of them is emitted, in the same relative order as without
    `grow`."""
    if bounds.max_vertices < 2 or bounds.max_edges < 1:
        return
    k2 = Graph.from_edges(2, [(0, 1)])
    form = canonical_form(k2)
    level = [(k2.relabel(form.permutation), form.automorphisms)]
    yield level[0][0]
    for _ in range(1, bounds.max_edges):
        nxt: List[Tuple[Graph, tuple]] = []
        for g, gens in level:
            growth = True if grow is None else grow(g)
            if not growth:
                continue
            passes = growth if callable(growth) else None
            for child, edge in _extensions(g, gens, bounds):
                ties = _ties(child, edge)
                if ties is None or (passes is not None and not passes(child)):
                    continue
                form = canonical_form(child)
                if len(ties) == 1 or _is_canonical_deletion(edge, ties, form):
                    rep = child.relabel(form.permutation)
                    nxt.append((rep, form.automorphisms))
                    yield rep
        if not nxt:
            return
        level = nxt


class CatalogMember(Record):
    _fields = ("graph", "minimality")

    def __init__(self, graph: Graph, minimality: MinimalityReport):
        self.graph, self.minimality = graph, minimality

    def digest(self) -> dict:
        return {
            "graph6": emit_graph6(self.graph),
            "vertices": self.graph.n,
            "edges": self.graph.edge_count,
            "edge_witnesses": sum(
                1 for w in self.minimality.per_edge.values() if w is not None
            ),
        }


class MinimalCatalog(Record):
    _fields = ("pair", "bounds", "members", "complete")

    def __init__(
        self,
        pair: Tuple[Graph, Graph],
        bounds: SearchBounds,
        members: List[CatalogMember],
        complete: bool,  # False when some candidate's minimality stayed unknown
    ):
        self.pair, self.bounds, self.members, self.complete = pair, bounds, members, complete

    @property
    def completeness(self) -> str:
        return "complete within bounds" if self.complete else "budget-limited"

    def member_graphs(self) -> List[Graph]:
        return [m.graph for m in self.members]

    def to_document(self) -> dict:
        return {
            "pair": [emit_graph6(self.pair[0]), emit_graph6(self.pair[1])],
            "bounds": {
                "max_vertices": self.bounds.max_vertices,
                "max_edges": self.bounds.max_edges,
                "node_budget": self.bounds.node_budget,
            },
            "members": [m.digest() for m in self.members],
            "completeness": self.completeness,
        }


def enumerate_ramsey_minimal(G: Graph, H: Graph, bounds: SearchBounds) -> MinimalCatalog:
    """Every Ramsey-minimal graph for (G,H) within the bounds.

    Each candidate gets one `is_ramsey_minimal` call, which proves it
    arrows and then searches every single-edge deletion; a candidate with
    no copy of G or of H is settled at once by the search's first step.

    A candidate proven to arrow is not grown: a proper supergraph F' of an
    arrowing F is not minimal, since F' - e still arrows for any edge e
    outside F. The parent of a minimal graph (its canonical deletion,
    isolated vertices dropped) has no arrowing subgraph, so it is grown
    and no member is lost.

    No candidate contains an earlier member: such a graph arrows but is
    not minimal, and it is dropped before it is canonicalized. A grown
    graph g is member-free (a member arrows, so it is not grown), so a
    member in an extension g + e has at most e(g) + 1 edges, and one with
    exactly e(g) + 1 edges makes g + e a copy of itself, whose class was
    already emitted, so the canonical-deletion check rejects it. Each
    extension is therefore checked against the members with at most e(g)
    edges only. `has_copy` asks the search's compiled copy kernel, so a
    missing matching is ruled out without trying every partial matching."""
    check_targets(G, H)
    budget = bounds.node_budget
    members: List[CatalogMember] = []
    complete = True
    closed = set()  # yielded graphs that arrow; by value, as Graph hashes (n, adj)

    def grow(g: Graph) -> Growth:
        if g in closed:
            return False
        smaller = [m.graph for m in members if m.graph.edge_count <= g.edge_count]
        if not smaller:
            return True
        return lambda child: not has_copy(child, *smaller)

    for F in enumerate_graphs(bounds, grow=grow):
        report = is_ramsey_minimal(F, G, H, budget=budget)
        if report.is_ramsey:
            closed.add(F)
        if report.is_minimal is None:
            complete = False
        elif report.is_minimal:
            members.append(CatalogMember(F, report))
    return MinimalCatalog((G, H), bounds, members, complete)


class DensityAuditEntry(Record):
    _fields = ("graph", "rho_value", "passed")

    def __init__(self, graph: Graph, rho_value: object, passed: bool):  # rho_value: a Fraction
        self.graph, self.rho_value, self.passed = graph, rho_value, passed


class DensityAuditReport(Record):
    _fields = ("threshold", "entries")

    def __init__(self, threshold: object, entries: List[DensityAuditEntry]):  # threshold: the pair density
        self.threshold, self.entries = threshold, entries

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)


def catalog_density_audit(catalog: MinimalCatalog, G: Graph, H: Graph) -> DensityAuditReport:
    """Check rho(F) > m2(G,H) for every catalog member; a violation would
    signal an implementation bug, not new mathematics."""
    d = m2_pair(G, H).value
    entries = []
    for member in catalog.members:
        r = rho(member.graph).value
        entries.append(DensityAuditEntry(member.graph, r, r > d))
    return DensityAuditReport(d, entries)
