"""Ramsey-finite vs Ramsey-infinite classification of a target pair.

The verdict is produced by a fixed decision tree over the structure of the
two graphs: matchings first, then cyclic cases, then forests with non-star
components, and finally the star-forest classification with its explicit
sufficient bound. An Unknown verdict is first-class: in the star-forest
case with two or more stars on one side, finiteness depends on a matching
threshold that is not determined in general, and the classifier never
guesses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .graphs import Graph, Matching, build, check_targets, components

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


@dataclass(frozen=True)
class StarForestShape:
    """Star sizes >= 2 in descending order plus the count of single-edge
    components (the matching part)."""

    stars: tuple
    matching_count: int

    @property
    def s(self) -> int:
        return len(self.stars)


@dataclass(frozen=True)
class TrailEntry:
    rule: str
    citation: str
    reason: str


@dataclass(frozen=True)
class Classification:
    verdict: str
    trail: tuple
    condition: Optional[str] = None

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


def shape_of(F: Graph) -> Optional[StarForestShape]:
    """Star-forest shape of F, or None if some component is not a star.
    Single edges count toward the matching part, not the star list."""
    stars = []
    matching = 0
    for info in components(F):
        if info.kind == "K2":
            matching += 1
        elif info.kind == "star":
            stars.append(info.star_size)
        else:
            return None
    return StarForestShape(tuple(sorted(stars, reverse=True)), matching)


def _is_matching(shape: Optional[StarForestShape]) -> bool:
    return shape is not None and shape.s == 0


def classify(G: Graph, H: Graph) -> Classification:
    """Apply the decision rules R1..R8 in order; the trail records every
    decisive rule with its citation."""
    check_targets(G, H)
    trail: List[TrailEntry] = []

    shape_g = shape_of(G)
    shape_h = shape_of(H)

    # R1: one side is a matching
    if _is_matching(shape_g) or _is_matching(shape_h):
        side = "first" if _is_matching(shape_g) else "second"
        trail.append(TrailEntry("R1", CITATIONS["R1"], f"{side} target is a matching"))
        return Classification(FINITE, tuple(trail))

    g_cyclic = G.has_cycle()
    h_cyclic = H.has_cycle()

    # R2: both contain a cycle
    if g_cyclic and h_cyclic:
        trail.append(TrailEntry("R2", CITATIONS["R2"], "both targets contain a cycle"))
        return Classification(INFINITE, tuple(trail))

    # R3: exactly one contains a cycle; the other is a non-matching forest
    if g_cyclic or h_cyclic:
        trail.append(
            TrailEntry("R3", CITATIONS["R3"], "one target is cyclic, the other a forest that is not a matching")
        )
        return Classification(INFINITE, tuple(trail))

    # R4: both forests, some component is not a star
    if shape_g is None or shape_h is None:
        trail.append(TrailEntry("R4", CITATIONS["R4"], "a component is a tree that is not a star"))
        return Classification(INFINITE, tuple(trail))

    # Remaining: both star forests with at least one star each.
    # R5: single odd star on each side (any number of matching edges)
    if shape_g.s == 1 and shape_h.s == 1 and shape_g.stars[0] % 2 and shape_h.stars[0] % 2:
        trail.append(
            TrailEntry("R5", CITATIONS["R5"], f"single odd stars S({shape_g.stars[0]}) and S({shape_h.stars[0]})")
        )
        return Classification(FINITE, tuple(trail))

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
                trail.append(
                    TrailEntry(
                        "R7",
                        CITATIONS["R7"],
                        f"orientation {orient}: stars {a.stars} vs S({b.stars[0]}) with "
                        f"{b.matching_count} matching edges >= explicit bound {bound}",
                    )
                )
                return Classification(FINITE, tuple(trail))
            cond = (
                f"orientation {orient}: needs matching count >= n0(F1,F2); "
                f"{b.matching_count} matching edges not certified by the explicit bound "
                f"(which requires exactly two stars, no matching on the multi-star side, "
                f"and at least {bound} matching edges)"
            )
            trail.append(
                TrailEntry("R8", CITATIONS["R8"], f"orientation {orient}: shape matches the multi-star finite case")
            )
            return Classification(UNKNOWN, tuple(trail), condition=cond)

    # R6: no finite shape matches
    trail.append(TrailEntry("R6", CITATIONS["R6"], "star-forest shapes match no Ramsey-finite case"))
    return Classification(INFINITE, tuple(trail))


class ConsistencyError(RuntimeError):
    """A matching extension of a Ramsey-finite pair came back Infinite,
    which contradicts the decision rules' own guarantees."""


def matching_extension_check(G: Graph, H: Graph, ell: int, m: int) -> Classification:
    """Classify (G + ell*K2, H + m*K2) given that (G,H) is Finite; a hard
    Infinite verdict here is a self-consistency failure."""
    base = classify(G, H)
    if base.verdict != FINITE:
        raise ValueError("matching_extension_check requires a Finite base pair")
    G2 = G.disjoint_union(build(Matching(ell)))
    H2 = H.disjoint_union(build(Matching(m)))
    result = classify(G2, H2)
    if result.verdict == INFINITE:
        raise ConsistencyError(
            f"extension by ({ell},{m}) matchings of a Finite pair classified Infinite"
        )
    return result
