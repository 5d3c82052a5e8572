"""Exact subgraph density parameters.

All three parameters are maxima of ratios of small integers over subgraphs:
rho = e/v, m2 = (e-1)/(v-2) over v >= 3, and m2(G,H) = e/(v-2+1/m2(H)) over
v >= 2. Induced subgraphs suffice, since for a fixed vertex set the induced
subgraph has the most edges. More than that, at a fixed vertex count v each
objective strictly increases with e, so only the densest induced subgraph of
each size can win.

One pass over the 2^n vertex subsets of X therefore builds X's profile: for
each size k, the largest edge count of a k-vertex induced subgraph and the
lexicographically first subset that reaches it. Edge counts come from a
dynamic program over subset bitmasks held in 2 bytes per subset (32 MB at
the 24-vertex cap). Each parameter is then read from the profile in n+1 exact
Fraction comparisons, and one profile serves rho, m2 and the pair value.
No floating point appears in any parameter value; floats enter only in the
sampler's edge probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .graphs import Graph

MAX_SUBSET_VERTICES = 24


@dataclass(frozen=True)
class DensityValue:
    value: Fraction
    witness: tuple  # vertex subset achieving the maximum


@dataclass(frozen=True)
class PairDensity:
    value: Fraction
    witness: tuple  # subset of the larger-m2 graph
    swapped: bool  # True if the roles of (G,H) were interchanged


@dataclass(frozen=True)
class DensityReport:
    rho: DensityValue
    m2: Optional[DensityValue]
    m2_pair: Optional[PairDensity]


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


def _profile(X: Graph) -> Tuple[list, list]:
    """For k = 0..n: the most edges of a k-vertex induced subgraph of X, and
    the lexicographically first vertex subset (a bitmask) that has them.

    Subsets are visited by their highest vertex h: e(S) = e(R) + |N(h) & R|
    with R = S - {h}, and R < S was visited before. For two subsets of one
    size, S's vertex tuple sorts first iff the lowest vertex of S ^ T is in S.
    """
    _check_size(X)
    n = X.n
    edges = memoryview(bytearray(2 << n)).cast("H")
    best = [-1] * (n + 1)
    best_mask = [0] * (n + 1)
    best[0] = 0
    for h in range(n):
        row = X.adj[h]
        top = 1 << h
        for rest in range(top):
            e = edges[rest] + (row & rest).bit_count()
            mask = top | rest
            edges[mask] = e
            k = mask.bit_count()
            most = best[k]
            if e > most:
                best[k] = e
                best_mask[k] = mask
            elif e == most:
                diff = mask ^ best_mask[k]
                if mask & diff & -diff:
                    best_mask[k] = mask
    return best, best_mask


def _best(profile, min_size: int, score) -> Optional[DensityValue]:
    """Maximize score(edge_count, vertex_count) over induced subgraphs with
    at least min_size vertices. Ties go to the smallest subset, then the
    lexicographically smallest vertex tuple."""
    best, best_mask = profile
    out = None
    for k in range(min_size, len(best)):
        val = score(best[k], k)
        if out is None or val > out.value:
            out = DensityValue(val, _subset_vertices(best_mask[k]))
    return out


def _rho(profile) -> DensityValue:
    return _best(profile, 1, lambda e, v: Fraction(e, v))


def _m2(profile) -> DensityValue:
    return _best(profile, 3, lambda e, v: Fraction(e - 1, v - 2))


def _require_cycles(G: Graph, H: Graph):
    if not (G.has_cycle() and H.has_cycle()):
        raise ValueError("m2_pair requires both graphs to contain a cycle")


def _m2_pair(profile_G, profile_H) -> PairDensity:
    """m2(G,H) from the profiles of two graphs that both contain a cycle."""
    m2G = _m2(profile_G).value
    m2H = _m2(profile_H).value
    swapped = m2G < m2H
    if swapped:
        profile_G, m2H = profile_H, m2G
    inv = 1 / m2H
    best = _best(profile_G, 2, lambda e, v: e / (v - 2 + inv))
    return PairDensity(best.value, best.witness, swapped)


def rho(X: Graph) -> DensityValue:
    """Maximum of e(J)/v(J) over subgraphs J with at least one vertex."""
    if X.n < 1:
        raise ValueError("rho needs at least one vertex")
    return _rho(_profile(X))


def m2(X: Graph) -> Optional[DensityValue]:
    """Maximum of (e(J)-1)/(v(J)-2) over subgraphs with >= 3 vertices;
    defined only when X contains a cycle."""
    if not X.has_cycle():
        return None
    return _m2(_profile(X))


def m2_pair(G: Graph, H: Graph) -> PairDensity:
    """The asymmetric density parameter: maximize e(J)/(v(J)-2+1/m2(H))
    over subgraphs J of G with >= 2 vertices, after ordering the pair so
    that m2(G) >= m2(H). Both graphs must contain a cycle."""
    _require_cycles(G, H)
    return _m2_pair(_profile(G), _profile(H))


def density_report(X: Graph, pair_with: Optional[Graph] = None) -> DensityReport:
    """rho, m2 and, given pair_with, m2(X, pair_with), from one pass over X."""
    if X.n < 1:
        raise ValueError("rho needs at least one vertex")
    if pair_with is not None:
        _require_cycles(X, pair_with)
    profile = _profile(X)
    m = _m2(profile) if X.has_cycle() else None
    mp = None if pair_with is None else _m2_pair(profile, _profile(pair_with))
    return DensityReport(_rho(profile), m, mp)


def _edge_probability(d: Fraction, n: int, c) -> float:
    """c * n^(-1/d) for the pair density d, clamped to [0,1]."""
    if n < 3:
        raise ValueError("n must be at least 3")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    try:
        p = float(c) * float(n) ** (-1.0 / float(d))
    except OverflowError:  # n or c has no float value: the same formula in logarithms
        log_c = math.log(c.numerator) - math.log(c.denominator)
        p = math.exp(min(0.0, log_c - math.log(n) / float(d)))
    return min(1.0, max(0.0, p))


def threshold_p(G: Graph, H: Graph, n: int, c) -> float:
    """Edge probability c * n^(-1/m2(G,H)), clamped to [0,1]; floating
    point is acceptable here because it only drives the sampler."""
    return _edge_probability(m2_pair(G, H).value, n, c)
