"""graph6 encoding and decoding.

Standard printable-ASCII format: every byte is offset by 63; the vertex
count is one byte for n <= 62 or '~' followed by three bytes for larger n;
the upper triangle of the adjacency matrix is written column by column,
zero-padded to a 6-bit boundary.
"""

from __future__ import annotations

from .graphs import Graph, check_vertex_count


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:  # n <= MAX_VERTICES fits the 3-byte form
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return head + "".join(chars)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    data = [ord(c) for c in s]
    for c in data:
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside graph6 range 63..126")
    vals = [c - 63 for c in data]
    if vals[0] == 63:  # '~'
        if len(vals) < 4:
            raise Graph6Error("truncated long-form vertex count")
        if vals[1] == 63:
            raise Graph6Error("8-byte vertex counts unsupported")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    check_vertex_count(n)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated bit vector: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error("trailing bytes after bit vector")
    bits = []
    for val in body:
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((val >> s6) & 1)
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)
