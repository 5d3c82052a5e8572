"""Span tracing of ramseykit's public functions, installed from outside.

`Tracer.install` wraps each layer's public functions and rebinds every name
in every loaded ``ramseykit.*`` module that refers to the original, so calls
between modules (``certificate`` inside ``arrowing`` and ``enumeration``, for
example) are traced too. ``Graph.__init__`` and ``EdgeColoring.is_good`` are
wrapped on their classes. Spans are kept in memory as
``[name, layer, start, end, parent]`` and written out by `write_spans`.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans. The private search loops (the coloring DFS, the
subset loop, canon refinement) are not wrapped: their time is the self time
of the public call that runs them.
"""

from __future__ import annotations

import functools
import json
import sys

# layer -> public functions of ramseykit.<layer> that get a span
LAYER_FUNCTIONS = {
    "graphs": ("build", "build_from_text", "parse_spec"),
    "graph6": ("emit_graph6", "parse_graph6"),
    "canon": ("canonical_form", "certificate", "canonical_representative", "are_isomorphic"),
    "arrowing": (
        "arrows",
        "find_good_coloring",
        "contains_copy",
        "is_ramsey_minimal",
        "naive_arrows",
        "ramsey_number_complete",
    ),
    "density": ("rho", "m2", "m2_pair", "density_report", "threshold_p"),
    "enumeration": ("enumerate_ramsey_minimal", "catalog_density_audit"),
    "randomgraphs": ("sample_gnp", "edge_uniforms", "graph_from_uniforms", "run_experiment"),
    "classify": ("classify", "matching_extension_check", "shape_of"),
    "cli": ("main", "parse_graph_argument"),
}

# Each call of one of these is one canonical labeling lookup.
CANON_LOOKUPS = {"canonical_form", "certificate", "canonical_representative"}

NAME, LAYER, START, END, PARENT = range(5)


def _stripped_key(g):
    """(n, adj) of g without isolated vertices, built from the bitsets so
    that no Graph is constructed while tracing."""
    keep = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row, out = g.adj[v], 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            out |= 1 << pos[u]
        rows.append(out)
    return len(keep), tuple(rows)


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # the worker's clock, which leaves the speed probes out
        self.spans = []
        self.stack = []
        self.active = False
        self.counts = {
            "canon.repeats": 0,
            "arrowing.repeats": 0,
            "arrowing.nodes": 0,
            "arrowing.unknown": 0,
            "enumeration.candidates": 0,
            "enumeration.members": 0,
        }
        self._seen_canon = set()
        self._seen_searches = set()
        self._candidate = None
        self._arrowed = set()

    # -- wrapping -----------------------------------------------------------

    def _span(self, fn, name, layer, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _before(self, layer, name):
        counts = self.counts
        if layer == "canon" and name in CANON_LOOKUPS:
            def before(args):
                g = args[0]
                key = (g.n, g.adj)
                if key in self._seen_canon:
                    counts["canon.repeats"] += 1
                else:
                    self._seen_canon.add(key)
            return before
        if name == "find_good_coloring":
            def before(args):
                F, G, H = args[:3]
                key = (_stripped_key(F), G.n, G.adj, H.n, H.adj)
                if key in self._seen_searches:
                    counts["arrowing.repeats"] += 1
                else:
                    self._seen_searches.add(key)
            return before
        if name == "arrows":
            def before(args):
                if self._candidate is not None:
                    self._arrowed.add(self._candidate)
            return before
        return None

    def _after(self, name):
        counts = self.counts
        if name == "find_good_coloring":
            def after(res):
                counts["arrowing.nodes"] += res.nodes
                if res.coloring is None and not res.exhausted:
                    counts["arrowing.unknown"] += 1
            return after
        if name == "enumerate_ramsey_minimal":
            def after(catalog):
                counts["enumeration.members"] += len(catalog.members)
                self._candidate = None
            return after
        return None

    def _counted_candidates(self, gen_fn):
        """enumerate_graphs is a generator: its work runs inside whatever
        span iterates it, so it gets no span of its own, only a count."""

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for g in gen_fn(*args, **kwargs):
                if self.active:
                    self.counts["enumeration.candidates"] += 1
                    self._candidate = self.counts["enumeration.candidates"]
                yield g

        return counted

    def install(self):
        """Wrap every listed public function and rebind it everywhere in
        ramseykit. Call once, after ``import ramseykit``."""
        from ramseykit import arrowing, enumeration, graphs

        replacements = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"ramseykit.{layer}"]
            for name in names:
                orig = getattr(module, name)
                replacements[id(orig)] = self._span(
                    orig, f"{layer}.{name}", layer, self._before(layer, name), self._after(name)
                )
        replacements[id(enumeration.enumerate_graphs)] = self._counted_candidates(
            enumeration.enumerate_graphs
        )
        modules = [m for key, m in sys.modules.items() if key == "ramseykit" or key.startswith("ramseykit.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        graphs.Graph.__init__ = self._span(graphs.Graph.__init__, "graphs.Graph", "graphs")
        arrowing.EdgeColoring.is_good = self._span(
            arrowing.EdgeColoring.is_good, "arrowing.is_good", "arrowing"
        )

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self):
        own = self.self_times()
        by_layer, by_name, calls_by_name = {}, {}, {}
        for s, t in zip(self.spans, own):
            by_layer[s[LAYER]] = by_layer.get(s[LAYER], 0.0) + t
            by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
            calls_by_name[s[NAME]] = calls_by_name.get(s[NAME], 0) + 1
        c = self.counts

        def calls(*names):
            return sum(calls_by_name.get(n, 0) for n in names)

        def frac(num, den):
            return num / den if den else 0.0

        arrow_s = by_layer.get("arrowing", 0.0)
        searches = calls("arrowing.find_good_coloring")
        lookups = calls(*(f"canon.{n}" for n in sorted(CANON_LOOKUPS)))
        return {
            "arrowing.calls": searches,
            "arrowing.self_s": arrow_s,
            "arrowing.nodes": c["arrowing.nodes"],
            "arrowing.us_per_node": frac(arrow_s * 1e6, c["arrowing.nodes"]),
            "arrowing.unknown": c["arrowing.unknown"],
            "arrowing.repeat_frac": frac(c["arrowing.repeats"], searches),
            "arrowing.contains_copy.calls": calls("arrowing.contains_copy"),
            "arrowing.contains_copy.self_s": by_name.get("arrowing.contains_copy", 0.0),
            "canon.calls": lookups,
            "canon.self_s": by_layer.get("canon", 0.0),
            "canon.repeat_frac": frac(c["canon.repeats"], lookups),
            "graphs.constructed": calls("graphs.Graph"),
            "graphs.construct_s": by_name.get("graphs.Graph", 0.0),
            "enumeration.candidates": c["enumeration.candidates"],
            "enumeration.self_s": by_layer.get("enumeration", 0.0),
            "enumeration.arrow_frac": frac(len(self._arrowed), c["enumeration.candidates"]),
            "enumeration.members": c["enumeration.members"],
            "density.calls": calls("density.rho", "density.m2", "density.m2_pair"),
            "density.self_s": by_layer.get("density", 0.0),
            "randomgraphs.samples": calls("randomgraphs.graph_from_uniforms"),
            "randomgraphs.self_s": by_layer.get("randomgraphs", 0.0),
            "cli.calls": calls("cli.main"),
            "cli.self_s": by_layer.get("cli", 0.0),
            "classify.calls": calls("classify.classify"),
            "classify.self_s": by_layer.get("classify", 0.0),
            "graph6.calls": calls("graph6.emit_graph6", "graph6.parse_graph6"),
            "graph6.self_s": by_layer.get("graph6", 0.0),
            "unknown_frac": frac(c["arrowing.unknown"], searches),
        }

    def write_spans(self, path):
        """One JSON array per line: name, layer, start, end, parent index."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")))
                f.write("\n")
