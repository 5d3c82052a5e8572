"""Ramsey-finite vs Ramsey-infinite classification of a target pair.

Each target is read once into a side: its star-forest shape (star sizes
plus a matching count) or None, and whether it has a cycle. The verdict is
a fixed decision tree over the two sides (`_decide`): matchings first, then
cyclic cases, then forests with non-star components, and finally the
star-forest classification with its explicit sufficient bound. Adjoining
matchings only raises the matching counts, so a matching extension is
decided on the sides alone, with no graph built. An Unknown verdict is
first-class: in the star-forest case with two or more stars on one side,
finiteness depends on a matching threshold that is not determined in
general, and the classifier never guesses it.
"""

from __future__ import annotations

from typing import Optional

from .graphs import FrozenRecord, Graph, check_targets

FINITE = "Finite"
INFINITE = "Infinite"
UNKNOWN = "Unknown"

CITATIONS = {
    "R1": "Burr-Erdos-Faudree-Schelp 1978: matching pairs are Ramsey-finite",
    "R2": "cyclic-cyclic pairs are Ramsey-infinite (asymmetric random Ramsey threshold)",
    "R3": "Luczak 1994: cyclic graph vs forest that is not a matching is Ramsey-infinite",
    "R4": "Burr-Erdos-Faudree-Rousseau-Schelp 1982: forests with a non-star component are Ramsey-infinite",
    "R5": "Burr-Erdos-Faudree-Rousseau-Schelp 1981 (odd stars), matchings adjoined via Faudree 1991",
    "R6": "Faudree 1991 classification: shape matches no Ramsey-finite case",
    "R7": "Burr-Erdos-Faudree-Rousseau-Schelp 1981, Theorem 11: explicit star-forest bound",
    "R8": "Faudree 1991 case (iii): matching threshold n0 not determined",
}


class StarForestShape(FrozenRecord):
    """Star sizes >= 2 in descending order plus the count of single-edge
    components (the matching part)."""

    _fields = ("stars", "matching_count")

    def __init__(self, stars: tuple, matching_count: int):
        self._set(stars, matching_count)

    @property
    def s(self) -> int:
        return len(self.stars)


class TrailEntry(FrozenRecord):
    _fields = ("rule", "citation", "reason")

    def __init__(self, rule: str, citation: str, reason: str):
        self._set(rule, citation, reason)


class Classification(FrozenRecord):
    _fields = ("verdict", "trail", "condition")

    def __init__(self, verdict: str, trail: tuple, condition: Optional[str] = None):
        self._set(verdict, trail, condition)

    def to_document(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "rule": self.trail[-1].rule,
            "citation": self.trail[-1].citation,
            "trail": [
                {"rule": t.rule, "citation": t.citation, "reason": t.reason}
                for t in self.trail
            ],
        }
        if self.condition is not None:
            doc["condition"] = self.condition
        return doc


def _shape_and_cycle(F: Graph):
    """(star-forest shape or None, whether F has a cycle), read from each
    component's vertex set and F's degrees, with no subgraph built. A
    component has half its degree sum in edges. With no edge it is a bare
    vertex, which no star forest has; with one edge it is a K2; with at
    least as many edges as vertices it has a cycle; otherwise it is a tree,
    and a star iff its maximum degree equals its edge count."""
    stars, matching, shaped, cyclic = [], 0, True, False
    for vs in F.connected_components():
        degrees = [F.adj[v].bit_count() for v in vs]
        m = sum(degrees) // 2
        if m == 0:
            shaped = False
        elif m == 1:
            matching += 1
        elif m >= len(vs):
            shaped, cyclic = False, True
        elif max(degrees) == m:
            stars.append(m)
        else:
            shaped = False
    shape = StarForestShape(tuple(sorted(stars, reverse=True)), matching) if shaped else None
    return shape, cyclic


def shape_of(F: Graph) -> Optional[StarForestShape]:
    """Star-forest shape of F, or None if some component is not a star.
    Single edges count toward the matching part, not the star list."""
    return _shape_and_cycle(F)[0]


def _is_matching(shape: Optional[StarForestShape]) -> bool:
    return shape is not None and shape.s == 0


def _verdict(verdict: str, rule: str, reason: str, condition: Optional[str] = None) -> Classification:
    return Classification(verdict, (TrailEntry(rule, CITATIONS[rule], reason),), condition)


def classify(G: Graph, H: Graph) -> Classification:
    """Apply the decision rules R1..R8 in order; the trail records the
    decisive rule with its citation."""
    check_targets(G, H)
    return _decide(_shape_and_cycle(G), _shape_and_cycle(H))


def _decide(side_g, side_h) -> Classification:
    """The rules R1..R8 on two sides, each a (shape or None, cyclic) pair
    as `_shape_and_cycle` gives it."""
    (shape_g, g_cyclic), (shape_h, h_cyclic) = side_g, side_h

    # R1: one side is a matching
    if _is_matching(shape_g) or _is_matching(shape_h):
        side = "first" if _is_matching(shape_g) else "second"
        return _verdict(FINITE, "R1", f"{side} target is a matching")

    # R2: both contain a cycle
    if g_cyclic and h_cyclic:
        return _verdict(INFINITE, "R2", "both targets contain a cycle")

    # R3: exactly one contains a cycle; the other is a non-matching forest
    if g_cyclic or h_cyclic:
        return _verdict(INFINITE, "R3", "one target is cyclic, the other a forest that is not a matching")

    # R4: both forests, some component is not a star
    if shape_g is None or shape_h is None:
        return _verdict(INFINITE, "R4", "a component is a tree that is not a star")

    # Remaining: both star forests with at least one star each.
    # R5: single odd star on each side (any number of matching edges)
    if shape_g.s == 1 and shape_h.s == 1 and shape_g.stars[0] % 2 and shape_h.stars[0] % 2:
        return _verdict(FINITE, "R5", f"single odd stars S({shape_g.stars[0]}) and S({shape_h.stars[0]})")

    # Structural match of the two-or-more-stars-vs-one-star finite case.
    # With no matching edges anywhere the pair is a star forest without
    # single-edge components and not two odd stars, which is settled
    # Infinite; so the matching count on the single-star side must be
    # positive for the finite case to be in play.
    for a, b, orient in ((shape_g, shape_h, "as given"), (shape_h, shape_g, "swapped")):
        if (
            a.s >= 2
            and b.s == 1
            and (a.matching_count > 0 or b.matching_count > 0)
            and a.stars[0] % 2
            and b.stars[0] % 2
            and a.stars[0] >= b.stars[0] + a.stars[1] - 1
        ):
            bound = (a.stars[0] + 2 * b.stars[0] + a.stars[1] - 2) ** 2 + 1
            if a.s == 2 and a.matching_count == 0 and b.matching_count >= bound:
                return _verdict(
                    FINITE,
                    "R7",
                    f"orientation {orient}: stars {a.stars} vs S({b.stars[0]}) with "
                    f"{b.matching_count} matching edges >= explicit bound {bound}",
                )
            return _verdict(
                UNKNOWN,
                "R8",
                f"orientation {orient}: shape matches the multi-star finite case",
                f"orientation {orient}: needs matching count >= n0(F1,F2); "
                f"{b.matching_count} matching edges not certified by the explicit bound "
                f"(which requires exactly two stars, no matching on the multi-star side, "
                f"and at least {bound} matching edges)",
            )

    # R6: no finite shape matches
    return _verdict(INFINITE, "R6", "star-forest shapes match no Ramsey-finite case")


class ConsistencyError(RuntimeError):
    """A matching extension of a Ramsey-finite pair came back Infinite,
    which contradicts the decision rules' own guarantees."""


def _adjoin_matching(side, j: int):
    """The side of F + j*K2 from the side of F: j more matching edges on a
    shape, no shape stays None, and a K2 adds no cycle."""
    shape, cyclic = side
    if shape is not None:
        shape = StarForestShape(shape.stars, shape.matching_count + j)
    return shape, cyclic


def matching_extension_check(G: Graph, H: Graph, ell: int, m: int) -> Classification:
    """Classify (G + ell*K2, H + m*K2) given that (G,H) is Finite; a hard
    Infinite verdict here is a self-consistency failure. Decided on the
    sides of G and H, so the extension has no vertex cap."""
    check_targets(G, H)
    side_g, side_h = _shape_and_cycle(G), _shape_and_cycle(H)
    if _decide(side_g, side_h).verdict != FINITE:
        raise ValueError("matching_extension_check requires a Finite base pair")
    for j in (ell, m):
        if not isinstance(j, int) or j < 0:
            raise ValueError(f"matching needs j >= 0, an integer; got {j!r}")
    result = _decide(_adjoin_matching(side_g, ell), _adjoin_matching(side_h, m))
    if result.verdict == INFINITE:
        raise ConsistencyError(
            f"extension by ({ell},{m}) matchings of a Finite pair classified Infinite"
        )
    return result
