"""Exact subgraph density parameters.

All three parameters are maxima of ratios of small integers over subgraphs:
rho = e/v, m2 = (e-1)/(v-2) over v >= 3, and m2(G,H) = e/(v-2+1/m2(H)) over
v >= 2. Induced subgraphs suffice, since for a fixed vertex set the induced
subgraph has the most edges. More than that, at a fixed vertex count v each
objective strictly increases with e, so only the densest induced subgraph of
each size can win.

One pass over the 2^n vertex subsets of X therefore builds X's profile: for
each size k, the largest edge count of a k-vertex induced subgraph and the
lexicographically first subset that reaches it. Edge counts are held as
16-bit lanes of Python ints, in chunks of 2^c subsets of the c low
vertices, with c derived from n: c = n up to 10 vertices, then n-6 held
between 8 and 10, so a chunk is at most 2 KB. The chunks with the same
number of high vertices (those beyond the first c) are merged by a
lane-wise maximum and read once, so the pass runs as big-integer and
memoryview operations with no Python step per subset: about 0.06-0.1 ms
at 10 vertices and 0.07-0.09 s at the 24-vertex cap, with a traced peak
under 80 KB, on a 2-core VM with Python 3.11 (BENCH_26.json). Each
parameter is then read from the profile in n+1 integer cross-multiplications
and one Fraction, and one profile serves rho, m2 and the pair value.
density_report applies the vertex, cap and cycle rules once and composes
the three values; rho, m2 and m2_pair read its fields. No floating point
appears in any parameter value; floats enter only in the sampler's edge
probability.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Optional, Tuple

from .graphs import FrozenRecord, Graph

MAX_SUBSET_VERTICES = 24
_LANE_BITS = 16  # an edge count is at most C(24, 2) = 276 < 2^15
_LOW_VERTICES = 10  # a chunk holds at most 2^10 lanes, 2 KB
# _ONES[j]: 2^j lanes, each holding 1
_ONES = tuple(int.from_bytes(b"\x01\x00" * (1 << j), "little") for j in range(_LOW_VERTICES + 1))


class DensityValue(FrozenRecord):
    _fields = ("value", "witness")

    def __init__(self, value: Fraction, witness: tuple):
        # witness: vertex subset achieving the maximum
        self._set(value, witness)


class PairDensity(FrozenRecord):
    _fields = ("value", "witness", "swapped")

    def __init__(self, value: Fraction, witness: tuple, swapped: bool):
        # witness: subset of the larger-m2 graph; swapped: True if the roles
        # of (G,H) were interchanged
        self._set(value, witness, swapped)


class DensityReport(FrozenRecord):
    _fields = ("rho", "m2", "m2_pair")

    def __init__(self, rho: DensityValue, m2: Optional[DensityValue], m2_pair: Optional[PairDensity]):
        self._set(rho, m2, m2_pair)


def _check_size(X: Graph):
    if X.n > MAX_SUBSET_VERTICES:
        raise ValueError(f"subset enumeration capped at {MAX_SUBSET_VERTICES} vertices")


def _subset_vertices(mask):
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def _count_lanes(row: int, k: int) -> int:
    """Lanes L = 0..2^k-1 holding |row & L|, built by doubling: the upper
    half of each step is the lower half plus one where row has vertex j."""
    lanes = 0
    for j in range(k):
        lanes |= (lanes + _ONES[j] * (row >> j & 1)) << (_LANE_BITS << j)
    return lanes


@lru_cache(maxsize=None)
def _size_groups(c: int) -> tuple:
    """For k = 0..c: a getter of the lanes of the k-subsets of c low
    vertices, and those lane indices, in lexicographic order of their
    vertex tuples. Among the subsets of vertices v..c-1, those that hold v
    sort first, so each size follows from two sizes over v+1..c-1."""
    by_size = [[0]]
    for v in reversed(range(c)):
        bit = 1 << v
        by_size = [[L | bit for L in fewer] + same for fewer, same in zip([[]] + by_size, by_size + [[]])]
    groups = []
    for ids in by_size:
        # int.to_bytes in big-endian order puts lane L at position 2^c-1-L
        at = ids if sys.byteorder == "little" else [(1 << c) - 1 - L for L in ids]
        # itemgetter of a single index returns the bare value, not a tuple
        groups.append((itemgetter(*at) if len(at) > 1 else itemgetter(*at, *at), tuple(ids)))
    return tuple(groups)


def _first_high(adj: tuple, c: int, low: int, s: int, most: int) -> int:
    """The lexicographically first s-subset T of the high vertices c..n-1
    with e(T + low) - e(low) = most, as a mask."""
    gain = [(row & low).bit_count() for row in adj]
    for T in combinations(range(c, len(adj)), s):
        e = 0
        mask = 0
        for t in T:
            e += gain[t] + (adj[t] & mask).bit_count()
            mask |= 1 << t
        if e == most:
            return mask


def _profile(X: Graph) -> Tuple[list, list]:
    """For k = 0..n: the most edges of a k-vertex induced subgraph of X, and
    the lexicographically first vertex subset (a bitmask) that has them.

    Edge counts are 16-bit lanes of Python ints, lane L holding e(L), so
    each step below is one big-integer operation over many subsets. The
    c low vertices span one chunk of 2^c lanes, built by doubling: e(L + h)
    = e(L) + |N(h) & L| for L below h. Each subset T of the high vertices
    has its own chunk, e(T + L) = e(L) + sum over t in T of |N(t) & L| +
    e(T), visited in Gray-code order and merged into the accumulator of its
    |T| by a lane-wise maximum (an edge count is below 2^15, so the top bit
    of a lane guards the subtraction). Each accumulator is read once, by
    the lanes of each low size. S sorts before R of its size iff the lowest
    vertex of S ^ R is in S, and every low vertex precedes every high one,
    so the low part of the winner decides first; then _first_high finds T.

    The width c follows from n. A wider chunk makes each of the n-c+1
    accumulator reads dearer; a narrower one doubles the 2^(n-c) merges
    and lengthens _first_high's walk. So c = n up to 10 vertices, then n-6
    held between 8 and 10. In the width table of BENCH_26.json this is the
    fastest width, or close to it, on random graphs up to 15 vertices, and
    slower than 2^10 lanes on no graph timed. From 16 vertices a narrower
    chunk gains on random graphs but loses more on a clique over the last
    vertices, the longest walk. The cap of 2^10 lanes holds each
    accumulator to 2 KB.
    """
    _check_size(X)
    n = X.n
    adj = X.adj
    c = n if n <= _LOW_VERTICES else min(max(n - 6, 8), _LOW_VERTICES)
    lanes = 0
    for h in range(c):
        lanes |= (lanes + _count_lanes(adj[h], h)) << (_LANE_BITS << h)
    cross = [_count_lanes(adj[t], c) for t in range(c, n)]
    ones = _ONES[c]
    guard = ones << (_LANE_BITS - 1)
    acc = [lanes] + [0] * (n - c)
    high = 0
    for i in range(1, 1 << (n - c)):
        t = c + (i & -i).bit_length() - 1
        step = cross[t - c] + (adj[t] & high).bit_count() * ones
        high ^= 1 << t
        lanes = lanes + step if high >> t & 1 else lanes - step
        s = high.bit_count()
        a = acc[s]
        # the guard bit stays set in each lane where lanes >= a
        more = (lanes | guard) - a & guard
        acc[s] = a ^ (lanes ^ a) & (more - (more >> (_LANE_BITS - 1)))
    groups = _size_groups(c)
    width = 2 << c
    best = [-1] * (n + 1)
    low = [0] * (n + 1)
    for s, a in enumerate(acc):
        values = memoryview(a.to_bytes(width, sys.byteorder)).cast("H")
        for k, (get, ids) in enumerate(groups, s):
            chunk = get(values)
            most = max(chunk)
            if most >= best[k]:
                L = ids[chunk.index(most)]
                diff = L ^ low[k]
                if most > best[k] or L & diff & -diff:
                    best[k] = most
                    low[k] = L
    best_mask = []
    for k, L in enumerate(low):
        s = k - L.bit_count()
        if s:
            e_low = acc[0] >> _LANE_BITS * L & 0xFFFF
            L |= _first_high(adj, c, L, s, best[k] - e_low)
        best_mask.append(L)
    return best, best_mask


def _best(profile, min_size: int, score) -> DensityValue:
    """Maximize score(edge_count, vertex_count) = (numerator, positive
    denominator) over induced subgraphs with at least min_size vertices,
    comparing by cross-multiplication. Ties go to the smallest subset, then
    the lexicographically smallest vertex tuple."""
    best, best_mask = profile
    top = min_size
    num, den = score(best[top], top)
    for k in range(min_size + 1, len(best)):
        a, b = score(best[k], k)
        if a * den > num * b:
            top, num, den = k, a, b
    return DensityValue(Fraction(num, den), _subset_vertices(best_mask[top]))


def _m2_score(e: int, v: int) -> Tuple[int, int]:
    return e - 1, v - 2


def _require_cycles(G_has_cycle: bool, H: Graph):
    if not (G_has_cycle and H.has_cycle()):
        raise ValueError("m2_pair requires both graphs to contain a cycle")


def density_report(X: Graph, pair_with: Optional[Graph] = None) -> DensityReport:
    """rho, m2 and, given pair_with, m2(X, pair_with), from one pass over X
    and one over pair_with."""
    cyclic = X.has_cycle()
    if pair_with is not None:
        _require_cycles(cyclic, pair_with)
    if X.n < 1:
        raise ValueError("rho needs at least one vertex")
    profile = _profile(X)
    m = _best(profile, 3, _m2_score) if cyclic else None
    mp = None
    if pair_with is not None:
        # order the pair so that m2(G) >= m2(H)
        profile_H = _profile(pair_with)
        m2H = _best(profile_H, 3, _m2_score).value
        swapped = m.value < m2H
        profile_G, m2H = (profile_H, m.value) if swapped else (profile, m2H)
        # e/(v-2+1/m2(H)) = e*p/((v-2)*p+q) for m2(H) = p/q
        p, q = m2H.numerator, m2H.denominator
        best = _best(profile_G, 2, lambda e, v: (e * p, (v - 2) * p + q))
        mp = PairDensity(best.value, best.witness, swapped)
    return DensityReport(_best(profile, 1, lambda e, v: (e, v)), m, mp)


def rho(X: Graph) -> DensityValue:
    """Maximum of e(J)/v(J) over subgraphs J with at least one vertex."""
    return density_report(X).rho


def m2(X: Graph) -> Optional[DensityValue]:
    """Maximum of (e(J)-1)/(v(J)-2) over subgraphs with >= 3 vertices;
    defined only when X contains a cycle."""
    if not X.has_cycle():  # before the subset cap: an acyclic X of any size has no m2
        return None
    return density_report(X).m2


def m2_pair(G: Graph, H: Graph) -> PairDensity:
    """The asymmetric density parameter: maximize e(J)/(v(J)-2+1/m2(H))
    over subgraphs J of G with >= 2 vertices, after ordering the pair so
    that m2(G) >= m2(H). Both graphs must contain a cycle."""
    return density_report(G, pair_with=H).m2_pair


def _rational(c) -> Fraction:
    """The threshold constant c as a Fraction: the one check that c is a
    positive rational, made wherever a c is taken."""
    try:
        c = Fraction(c)
    except ZeroDivisionError:  # a string such as '1/0'
        raise ValueError(f"c value {c!r} has a zero denominator") from None
    except (OverflowError, ValueError):  # an infinite float, NaN, or no number
        raise ValueError(f"c must be a finite rational, not {c!r}") from None
    if c <= 0:
        raise ValueError("c must be positive")
    return c


def _edge_probability(d: Fraction, n: int, c: Fraction) -> float:
    """c * n^(-1/d) for the pair density d and a c checked by _rational,
    clamped to [0,1]."""
    if n < 3:
        raise ValueError("n must be at least 3")
    try:
        p = float(c) * float(n) ** (-1.0 / float(d))
    except OverflowError:  # n or c has no float value: the same formula in logarithms
        log_c = math.log(c.numerator) - math.log(c.denominator)
        p = math.exp(min(0.0, log_c - math.log(n) / float(d)))
    return min(1.0, max(0.0, p))


def threshold_p(G: Graph, H: Graph, n: int, c) -> float:
    """Edge probability c * n^(-1/m2(G,H)), clamped to [0,1]; floating
    point is acceptable here because it only drives the sampler."""
    return _edge_probability(m2_pair(G, H).value, n, _rational(c))
