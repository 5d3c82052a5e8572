"""Monte Carlo estimation of P(G_{n,p} -> (G,H)) along the threshold curve
p = c * n^(-1/m2(G,H)).

Sampling is coupled: each (n, sample-index) cell draws one uniform variate
per potential edge from its own deterministically seeded stream, and every
c value thresholds the same variates. The arrowing indicator is then
exactly (not statistically) monotone in c on every sample, and any cell can
be regenerated in isolation. Budget-limited arrowing calls are counted as
unknowns and excluded from the point estimate, never folded into either
side.
"""

from __future__ import annotations

import random
import time
from io import StringIO
from typing import List, Sequence

from .arrowing import DEFAULT_NODE_BUDGET, arrows, check_budget
from .density import _edge_probability, _rational, _require_cycles, m2_pair
from .graphs import FrozenRecord, Graph, Record, check_targets, check_vertex_count

DEFAULT_MAX_N = 24
DEFAULT_MAX_SAMPLES = 1000


class ExperimentConfig(FrozenRecord):
    _fields = ("G", "H", "n_values", "c_values", "samples", "seed", "node_budget")

    def __init__(
        self,
        G: Graph,
        H: Graph,
        n_values: tuple,  # integers, read once and stored as a tuple
        c_values: tuple,  # Fraction-convertible positive rationals, stored as Fractions
        samples: int,
        seed: int,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ):
        n_values = tuple(n_values)
        check_targets(G, H)
        _require_cycles(G.has_cycle(), H)
        check_budget(node_budget)
        if not isinstance(samples, int):
            raise ValueError(f"samples must be an integer, got {samples!r}")
        if samples < 1:
            raise ValueError("samples must be at least 1")
        if samples > DEFAULT_MAX_SAMPLES:
            raise ValueError(f"samples capped at {DEFAULT_MAX_SAMPLES}")
        low = max(G.n, H.n)
        for n in n_values:
            if not isinstance(n, int):
                raise ValueError(f"n values must be integers, got {n!r}")
            if n < low:
                raise ValueError(f"n={n} is below the larger target order {low}")
            if n > DEFAULT_MAX_N:
                raise ValueError(f"n={n} exceeds the desk-scale cap {DEFAULT_MAX_N}")
        c_values = tuple(_rational(c) for c in c_values)
        for c in c_values:
            try:  # the CSV prints c as a float
                float(c)
            except OverflowError:
                raise ValueError("c values must have a finite float value (below 2^1024)") from None
        self._set(G, H, n_values, c_values, samples, seed, node_budget)


class CellResult(Record):
    _fields = ("n", "c", "p", "samples", "hits", "misses", "unknowns", "elapsed", "outcomes")

    def __init__(
        self,
        n: int,
        c: float,
        p: float,
        samples: int,
        hits: int,
        misses: int,
        unknowns: int,
        elapsed: float,
        outcomes: tuple,  # per-sample True / False / None, index-aligned
    ):
        self.n, self.c, self.p, self.samples, self.hits = n, c, p, samples, hits
        self.misses, self.unknowns, self.elapsed, self.outcomes = misses, unknowns, elapsed, outcomes

    @property
    def estimate(self) -> float:
        known = self.samples - self.unknowns
        return self.hits / known if known else float("nan")

    @property
    def untrusted(self) -> bool:
        return self.unknowns > 0.1 * self.samples


def edge_uniforms(seed: int, n: int, sample_index: int) -> List[float]:
    """One uniform per vertex pair, from a stream seeded by the cell
    coordinates alone (splittable: no shared state between cells)."""
    check_vertex_count(n)  # before drawing the n(n-1)/2 uniforms
    rng = random.Random(f"ramseykit|{seed}|{n}|{sample_index}")
    return [rng.random() for _ in range(n * (n - 1) // 2)]


def graph_from_uniforms(n: int, p: float, uniforms: Sequence[float]) -> Graph:
    """The graph on n vertices whose pair uv (u < v, in lexicographic order)
    is an edge when its uniform is below p."""
    check_vertex_count(n)
    if len(uniforms) != n * (n - 1) // 2:
        raise ValueError(f"{len(uniforms)} uniforms for n={n}; need one per pair, {n * (n - 1) // 2}")
    adj = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if uniforms[k] < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return Graph._trusted(n, tuple(adj))


def sample_gnp(n: int, p: float, seed: int = 0, sample_index: int = 0) -> Graph:
    """Binomial random graph: each pair an edge independently with
    probability p, reproducible from (seed, n, sample_index)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    return graph_from_uniforms(n, p, edge_uniforms(seed, n, sample_index))


def run_experiment(config: ExperimentConfig) -> List[CellResult]:
    """Estimate the arrowing probability on every (n, c) cell; output order
    is fixed by sorting on (n, c) regardless of the input order."""
    d = m2_pair(config.G, config.H).value
    results = []
    for n in sorted(set(config.n_values)):
        variates = [edge_uniforms(config.seed, n, i) for i in range(config.samples)]
        # one cell per float value of c, the value the CSV prints
        for c, exact in sorted({float(x): x for x in config.c_values}.items()):
            t0 = time.perf_counter()
            p = _edge_probability(d, n, exact)
            outcomes = []
            for i in range(config.samples):
                g = graph_from_uniforms(n, p, variates[i])
                verdict = arrows(g, config.G, config.H, budget=config.node_budget)
                outcomes.append(verdict.arrows)
            hits = sum(1 for o in outcomes if o is True)
            misses = sum(1 for o in outcomes if o is False)
            unknowns = sum(1 for o in outcomes if o is None)
            results.append(
                CellResult(
                    n=n,
                    c=c,
                    p=p,
                    samples=config.samples,
                    hits=hits,
                    misses=misses,
                    unknowns=unknowns,
                    elapsed=time.perf_counter() - t0,
                    outcomes=tuple(outcomes),
                )
            )
    return results


def results_to_csv(results: List[CellResult], seed: int) -> str:
    """Fixed header and 9-significant-digit formatting so equal configs
    give byte-identical files."""
    out = StringIO()
    out.write("n,c,p,samples,hits,misses,unknowns,estimate,seed\n")
    for r in results:
        out.write(
            f"{r.n},{r.c:.9g},{r.p:.9g},{r.samples},{r.hits},{r.misses},"
            f"{r.unknowns},{r.estimate:.9g},{seed}\n"
        )
    return out.getvalue()
