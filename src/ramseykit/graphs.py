"""Immutable simple graphs on small vertex sets.

Vertices are labeled 0..n-1 and adjacency is stored as one integer bitset
per vertex, so everything downstream (embedding search, coloring DFS,
subset enumeration) works on machine-word bit operations.

Every graph has at most MAX_VERTICES vertices, checked before any row or
edge list is built. Searches enforce their own smaller host cap of
DEFAULT_VERTEX_CAP non-isolated vertices. `check_targets` holds the one
target contract: at least one edge and no isolated vertex.

A graph expression such as ``S3+122K2`` parses to counted terms,
``(count, kind, size)`` tuples; `build` checks their sizes and the vertex
total, once, then lays out every copy's rows in one pass.
"""

from __future__ import annotations

import re
from functools import cached_property

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
        order = [0] * self.n
        for old, new in enumerate(perm):
            order[new] = old
        return self._renumbered(order)

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on the given vertices, relabeled 0..k-1 in
        ascending original order. The vertices are sorted, deduplicated and
        range-checked; `_renumbered` then relabels with one step per end of
        a kept edge, wherever the dropped labels lie."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError(f"vertices must lie in 0..{self.n - 1}")
        if len(vs) == self.n:
            return self
        return self._renumbered(vs)

    def _renumbered(self, vs: list) -> "Graph":
        """Induced subgraph on `vs`, which must be distinct and in range, in
        any order; vertex vs[i] becomes i. Each kept row is masked to the
        kept vertices, and each of its set bits is looked up in a table of
        new label bits indexed by bit length (v + 1 for vertex v)."""
        adj = self.adj
        new = [0] * (self.n + 1)
        keep = 0
        for i, v in enumerate(vs):
            new[v + 1] = 1 << i
            keep |= 1 << v
        rows = []
        for v in vs:
            row, out = adj[v] & keep, 0
            while row:
                low = row & -row
                out |= new[low.bit_length()]
                row ^= low
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
        when it has none. The kept list is distinct and in range as built,
        so `induced`'s checks are skipped."""
        if 0 not in self.adj:
            return self
        return self._renumbered([v for v, row in enumerate(self.adj) if row])

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
# Graph expressions: counted terms S(r), K(n), P(n), C(n) joined by "+"

_TERM_RE = re.compile(r"^(\d+)?([SKPC])(\d+)$")

# kind -> least size and the error for a smaller one
_LEAST_SIZE = {
    "S": (1, "star needs r >= 1"),
    "K": (1, "complete graph needs n >= 1"),
    "P": (1, "path needs n >= 1"),
    "C": (3, "cycle needs n >= 3"),
}


def parse_spec(text: str) -> list:
    """Parse expression syntax like ``S5+S2``, ``122K2``, ``C5``, ``K6``, ``P4``
    into its terms, ``(count, kind, size)`` tuples in the order written.

    A leading integer counts the copies of a term: ``3K2`` is a matching of
    size 3 and ``2S3`` is two disjoint copies of S(3). Only a K2 term may
    have count 0. Syntax only: sizes and the vertex limit are `build`'s.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty graph expression")
    terms = []
    for term in text.split("+"):
        m = _TERM_RE.match(term.strip())
        if not m:
            raise ValueError(f"cannot parse graph term {term!r}")
        count = 1 if m.group(1) is None else int(m.group(1))
        kind, size = m.group(2), int(m.group(3))
        if count == 0 and (kind, size) != ("K", 2):
            raise ValueError(f"zero multiplier only allowed for K2 terms: {term!r}")
        terms.append((count, kind, size))
    return terms


def _copy_rows(kind: str, size: int):
    """Adjacency rows of one copy of a term's graph on labels 0..: a star's
    centre is 0, a path or cycle runs 0, 1, 2, ..."""
    if kind == "S":
        return [(1 << size + 1) - 2] + [1] * size
    if kind == "K":
        return Graph.complete(size).adj
    full = (1 << size) - 1
    rows = [(5 << v >> 1) & full for v in range(size)]  # v - 1 and v + 1
    if kind == "C":
        rows[0] |= 1 << size - 1
        rows[-1] |= 1
    return rows


def build(terms) -> Graph:
    """The disjoint union of the terms' copies, each at the next free labels
    in the order given. Every size is checked, then the vertex total, once,
    before any row is made; the rows are then laid out in one pass."""
    for _, kind, size in terms:
        least, error = _LEAST_SIZE[kind]
        if size < least:
            raise ValueError(error)
    n = sum(count * (size + (kind == "S")) for count, kind, size in terms)
    check_vertex_count(n)
    adj = []
    for count, kind, size in terms:
        rows = _copy_rows(kind, size)
        starts = range(len(adj), len(adj) + count * len(rows), len(rows))
        adj += [row << base for base in starts for row in rows]
    return Graph._trusted(n, tuple(adj))


def build_from_text(text: str) -> Graph:
    return build(parse_spec(text))
