"""Isomorph-free graph generation and Ramsey-minimal catalogs.

Generation keeps one table of canonical representatives per edge count.
Every graph of one level is grown by one edge in each possible way (an
edge between existing vertices, a pendant edge to a fresh vertex, or a
fresh disjoint edge), and each extension is canonicalized once; a
representative not yet in the next level's table is new. Every class with
no isolated vertices is reached, because deleting any one of its edges and
dropping the isolated vertices leaves a class of the level below, from
which re-adding that edge is one of the three extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .arrowing import DEFAULT_NODE_BUDGET, MinimalityReport, contains_copy, is_ramsey_minimal
from .canon import canonical_representative
from .density import m2_pair, rho
from .graph6 import emit_graph6
from .graphs import DEFAULT_VERTEX_CAP, Graph


@dataclass(frozen=True)
class SearchBounds:
    max_vertices: int
    max_edges: int
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.max_vertices < 0 or self.max_edges < 0:
            raise ValueError("bounds must be nonnegative")
        if self.max_vertices > DEFAULT_VERTEX_CAP:
            raise ValueError(f"max_vertices exceeds vertex cap {DEFAULT_VERTEX_CAP}")


def _extensions(rep: Graph, bounds: SearchBounds) -> Iterator[Graph]:
    """Every graph within the bounds grown from rep by one edge."""
    n = rep.n
    if rep.edge_count + 1 > bounds.max_edges:
        return
    # new edge between existing vertices
    for u in range(n):
        for v in range(u + 1, n):
            if not rep.has_edge(u, v):
                yield rep.add_edge(u, v)
    # pendant edge to one fresh vertex
    if n + 1 <= bounds.max_vertices:
        grown = Graph._trusted(n + 1, rep.adj + (0,))
        for u in range(n):
            yield grown.add_edge(u, n)
    # fresh disjoint edge
    if n + 2 <= bounds.max_vertices:
        yield Graph._trusted(n + 2, rep.adj + (0, 0)).add_edge(n, n + 1)


def enumerate_graphs(bounds: SearchBounds) -> Iterator[Graph]:
    """All isomorphism classes with no isolated vertices, at most
    max_vertices vertices and max_edges edges, each exactly once, in
    nondecreasing edge count. Canonical representatives are emitted."""
    if bounds.max_vertices < 2 or bounds.max_edges < 1:
        return
    level = [canonical_representative(Graph.from_edges(2, [(0, 1)]))]
    yield level[0]
    for _ in range(1, bounds.max_edges):
        nxt: Dict[Graph, None] = {}  # insertion-ordered set of representatives
        for g in level:
            for child in _extensions(g, bounds):
                rep = canonical_representative(child)
                if rep not in nxt:
                    nxt[rep] = None
                    yield rep
        if not nxt:
            return
        level = nxt


@dataclass
class CatalogMember:
    graph: Graph
    minimality: MinimalityReport

    def digest(self) -> dict:
        return {
            "graph6": emit_graph6(self.graph),
            "vertices": self.graph.n,
            "edges": self.graph.edge_count,
            "edge_witnesses": sum(
                1 for w in self.minimality.per_edge.values() if w is not None
            ),
        }


@dataclass
class MinimalCatalog:
    pair: Tuple[Graph, Graph]
    bounds: SearchBounds
    members: List[CatalogMember]
    complete: bool  # False when some candidate's minimality stayed unknown

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

    One pre-filter: a candidate that properly contains an already-found
    member is skipped, since it arrows but cannot be minimal. Each other
    candidate gets one `is_ramsey_minimal` call, which proves it arrows
    and then searches every single-edge deletion; a candidate with no copy
    of G or of H is settled at once by the search's first step."""
    budget = bounds.node_budget
    members: List[CatalogMember] = []
    complete = True
    for F in enumerate_graphs(bounds):
        if any(
            m.graph.edge_count < F.edge_count and contains_copy(F, m.graph) is not None
            for m in members
        ):
            continue
        report = is_ramsey_minimal(F, G, H, budget=budget)
        if report.is_minimal is None:
            complete = False
        elif report.is_minimal:
            members.append(CatalogMember(F, report))
    return MinimalCatalog((G, H), bounds, members, complete)


@dataclass
class DensityAuditEntry:
    graph: Graph
    rho_value: object  # Fraction
    passed: bool


@dataclass
class DensityAuditReport:
    threshold: object  # Fraction, the pair density
    entries: List[DensityAuditEntry]

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
