"""Immutable simple graphs on small vertex sets.

Vertices are labeled 0..n-1 and adjacency is stored as one integer bitset
per vertex, so everything downstream (embedding search, coloring DFS,
subset enumeration) works on machine-word bit operations.

Every graph has at most MAX_VERTICES vertices, checked before any row or
edge list is built. Searches enforce their own smaller host cap of
DEFAULT_VERTEX_CAP non-isolated vertices. `check_targets` holds the one
target contract: at least one edge and no isolated vertex.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Union

MAX_VERTICES = 1024
DEFAULT_VERTEX_CAP = 64


class VertexCapError(ValueError):
    """A graph would have more vertices than allowed."""


def check_vertex_count(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise VertexCapError(f"{n} vertices is over the limit of {MAX_VERTICES}")


class Record:
    """Base of ramseykit's value types. A subclass names its fields in
    `_fields`, sets them in its own `__init__`, and compares equal to a
    record of the same type with equal fields. A Record is mutable and
    unhashable; see FrozenRecord for the immutable kind.

    Plain methods, rather than `dataclasses`, so that defining a record
    generates and compiles no code at import."""

    __slots__ = ()
    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by `object.__setattr__` in
    `__init__`, and that hashes as the tuple of its fields. (Writing to
    the instance `__dict__` instead would make every instance carry a
    materialized dict, about 150 bytes more.)"""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(FrozenRecord):
    """Finite simple graph; no self-loops, symmetric adjacency.

    `Graph(n, adj)` validates its rows; `adj` may be any sequence of row
    bitsets and is held as a tuple. `_trusted` skips the validation."""

    _fields = ("n", "adj")

    def __init__(self, n: int, adj):
        check_vertex_count(n)
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << n) - 1 if n else 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} mentions a vertex >= {n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(n):
            row = adj[u]
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                if not (adj[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    # hashed on every `arrows` call (the copy-plan cache), so spelt out
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    @classmethod
    def _trusted(cls, n: int, adj: tuple) -> "Graph":
        """Build without validation; only for rows that are valid by
        construction, such as those derived from a valid Graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        check_vertex_count(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph._trusted(n, tuple(adj))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph.from_edges(n, ())

    @staticmethod
    def complete(n: int) -> "Graph":
        check_vertex_count(n)
        full = (1 << n) - 1
        return Graph._trusted(n, tuple(full ^ (1 << v) for v in range(n)))

    @cached_property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                out.append((u, v))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v >= 0 and bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} is not in 0..{self.n - 1}")
        return self.adj[v].bit_count()

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad edge ({u},{v})")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._trusted(self.n, tuple(adj))

    def delete_edge(self, u: int, v: int) -> "Graph":
        """Remove one edge; the vertex set (including any newly isolated
        endpoints) is kept."""
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph._trusted(self.n, tuple(adj))

    def relabel(self, perm) -> "Graph":
        """Apply a permutation (old label -> new label)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        adj = [0] * self.n
        for u, v in self.edges():
            a, b = perm[u], perm[v]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return Graph._trusted(self.n, tuple(adj))

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on the given vertices, relabeled 0..k-1 in
        ascending original order. Each row is compressed one run of
        consecutive kept labels at a time, so the work is k times the
        number of runs (one run when only trailing vertices are dropped)."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError(f"vertices must lie in 0..{self.n - 1}")
        if len(vs) == self.n:
            return self
        masks, shifts = [], []  # per run: its labels, and how many labels below it are dropped
        for i, v in enumerate(vs):
            if i and v == vs[i - 1] + 1:
                masks[-1] |= 1 << v
            else:
                masks.append(1 << v)
                shifts.append(v - i)
        runs = list(zip(masks, shifts))
        rows = []
        for v in vs:
            row, out = self.adj[v], 0
            for mask, shift in runs:
                out |= (row & mask) >> shift
            rows.append(out)
        return Graph._trusted(len(rows), tuple(rows))

    def disjoint_union(self, other: "Graph") -> "Graph":
        n = self.n + other.n
        check_vertex_count(n)
        adj = list(self.adj) + [row << self.n for row in other.adj]
        return Graph._trusted(n, tuple(adj))

    def isolated_vertices(self) -> list:
        return [v for v in range(self.n) if not self.adj[v]]

    def without_isolated(self) -> "Graph":
        """Induced subgraph on the non-isolated vertices; the graph itself
        when it has none."""
        if 0 not in self.adj:
            return self
        return self.induced([v for v in range(self.n) if self.adj[v]])

    def connected_components(self) -> list:
        """Vertex sets of components, each a sorted list."""
        seen = 0
        comps = []
        for s in range(self.n):
            if (seen >> s) & 1:
                continue
            frontier = 1 << s
            comp = frontier
            while frontier:
                nxt = 0
                row = frontier
                while row:
                    v = (row & -row).bit_length() - 1
                    row &= row - 1
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            vs = []
            while comp:
                v = (comp & -comp).bit_length() - 1
                comp &= comp - 1
                vs.append(v)
            comps.append(vs)
        return comps

    def has_cycle(self) -> bool:
        # a forest with c components has exactly n - c edges
        return self.edge_count > self.n - len(self.connected_components())

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1


def check_targets(G: Graph, H: Graph) -> None:
    """Raise ValueError unless both targets have an edge and no isolated
    vertex. Every question about a pair (G,H) starts here."""
    if G.n and H.n and 0 not in G.adj and 0 not in H.adj:
        return
    name = "first" if G.n == 0 or 0 in G.adj else "second"
    raise ValueError(f"{name} target needs an edge and no isolated vertex")


# ---------------------------------------------------------------------------
# Graph expressions: S(r), jK2, P(n), C(n), K(n), disjoint unions


class Star(FrozenRecord):
    _fields = ("r",)

    def __init__(self, r: int):
        object.__setattr__(self, "r", r)


class Matching(FrozenRecord):
    _fields = ("j",)

    def __init__(self, j: int):
        object.__setattr__(self, "j", j)


class Path(FrozenRecord):
    _fields = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)


class Cycle(FrozenRecord):
    _fields = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)


class Complete(FrozenRecord):
    _fields = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)


class DisjointUnion(FrozenRecord):
    _fields = ("parts",)

    def __init__(self, parts: tuple):
        object.__setattr__(self, "parts", parts)


GraphSpec = Union[Star, Matching, Path, Cycle, Complete, DisjointUnion]


def build(spec: GraphSpec) -> Graph:
    """Materialize a graph expression; edges are generated lazily, so an
    expression over MAX_VERTICES fails before any edge is made."""
    if isinstance(spec, Star):
        if spec.r < 1:
            raise ValueError("star needs r >= 1")
        return Graph.from_edges(spec.r + 1, ((0, i) for i in range(1, spec.r + 1)))
    if isinstance(spec, Matching):
        if spec.j < 0:
            raise ValueError("matching needs j >= 0")
        return Graph.from_edges(2 * spec.j, ((2 * i, 2 * i + 1) for i in range(spec.j)))
    if isinstance(spec, Path):
        if spec.n < 1:
            raise ValueError("path needs n >= 1")
        return Graph.from_edges(spec.n, ((i, i + 1) for i in range(spec.n - 1)))
    if isinstance(spec, Cycle):
        if spec.n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph.from_edges(spec.n, ((i, (i + 1) % spec.n) for i in range(spec.n)))
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ValueError("complete graph needs n >= 1")
        return Graph.complete(spec.n)
    if isinstance(spec, DisjointUnion):
        g = Graph.empty(0)
        for part in spec.parts:
            g = g.disjoint_union(build(part))
        return g
    raise TypeError(f"not a graph spec: {spec!r}")


_TERM_RE = re.compile(r"^(\d+)?([SKPC])(\d+)$")


def parse_spec(text: str) -> GraphSpec:
    """Parse expression syntax like ``S5+S2``, ``122K2``, ``C5``, ``K6``, ``P4``.

    A leading integer multiplies the term: ``3K2`` is a matching of size 3
    and ``2S3`` is two disjoint copies of S(3).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty graph expression")
    parts = []
    for term in text.split("+"):
        m = _TERM_RE.match(term.strip())
        if not m:
            raise ValueError(f"cannot parse graph term {term!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        kind, num = m.group(2), int(m.group(3))
        if kind == "K" and num == 2:
            parts.append(Matching(mult))
            continue
        if m.group(1) is not None and mult == 0:
            raise ValueError(f"zero multiplier only allowed for K2 terms: {term!r}")
        if mult > MAX_VERTICES:  # every copy has a vertex
            raise VertexCapError(f"{term!r} has over {MAX_VERTICES} vertices")
        prim: GraphSpec
        if kind == "S":
            prim = Star(num)
        elif kind == "K":
            prim = Complete(num)
        elif kind == "P":
            prim = Path(num)
        else:
            prim = Cycle(num)
        parts.extend([prim] * mult)
    if len(parts) == 1:
        return parts[0]
    return DisjointUnion(tuple(parts))


def build_from_text(text: str) -> Graph:
    return build(parse_spec(text))
