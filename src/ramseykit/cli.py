"""Command-line front end.

Graph arguments accept the expression syntax (``K6``, ``S5+S2``, ``122K2``,
``P4``, ``C5``), a graph6 string, or a path to a file whose first line is
either of those; a text that parses as an expression is never read as
graph6. Witnesses use the input's vertex labels.

Exit codes: 0 = a verdict was produced (Unknown included), 1 = usage
error, 2 = internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .arrowing import DEFAULT_NODE_BUDGET, arrows, is_ramsey_minimal
from .classify import classify
from .density import density_report
from .enumeration import SearchBounds, enumerate_ramsey_minimal
from .graph6 import parse_graph6
from .graphs import Graph, VertexCapError, build, parse_spec
from .randomgraphs import ExperimentConfig, results_to_csv, run_experiment


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _expression(text: str):
    """The parsed expression, or None if the text is not one; too big raises."""
    try:
        return parse_spec(text)
    except VertexCapError:
        raise
    except ValueError:
        return None


def parse_graph_argument(text: str) -> Graph:
    """An expression, a path to a file, or graph6, tried in that order. A
    file's first line is read as an expression or graph6 only, so a file
    that names itself cannot loop."""
    try:
        spec = _expression(text)
        if spec is None and os.path.isfile(text):
            with open(text) as f:
                text = f.readline().strip()
            spec = _expression(text)
        return parse_graph6(text) if spec is None else build(spec)
    except ValueError as exc:
        raise ValueError(f"cannot read graph argument {text!r}: {exc}") from exc


_VERDICT_WORDS = {True: "arrows", False: "does-not-arrow", None: "unknown"}


def _labels(F: Graph) -> list:
    """F's label of each vertex of F.without_isolated(), where witnesses live."""
    return [u for u in range(F.n) if F.adj[u]]


def _witness_doc(coloring, labels):
    if coloring is None:
        return None
    return [{"edge": [labels[u], labels[v]], "color": color} for (u, v), color in coloring.edge_colors()]


# Each handler gets the parsed arguments and then its graph arguments,
# parsed in order, and returns its document without `command` and, unless
# it has some, `citations`; `threshold` writes CSV and returns None.


def _cmd_arrow(args, F, G, H) -> dict:
    v = arrows(F, G, H, budget=args.budget)
    return {
        "arrows": v.arrows,
        "verdict": _VERDICT_WORDS[v.arrows],
        "witness": _witness_doc(v.witness, _labels(F)),
        "nodes": v.nodes,
        "elapsed": round(v.elapsed, 6),
    }


def _cmd_minimal(args, F, G, H) -> dict:
    rep = is_ramsey_minimal(F, G, H, budget=args.budget)
    labels = _labels(F)
    return {
        "is_ramsey": rep.is_ramsey,
        "is_minimal": rep.is_minimal,
        "per_edge": [
            {"edge": [labels[u], labels[w]], "verdict": _VERDICT_WORDS[v.arrows],
             "good_coloring": _witness_doc(v.witness, labels)}
            for (u, w), v in sorted(rep.edge_verdicts.items())
        ],
    }


def _cmd_density(args, X) -> dict:
    pair = parse_graph_argument(args.pair) if args.pair else None
    report = density_report(X, pair_with=pair)
    doc = {
        "rho": str(report.rho.value),
        "rho_witness": list(report.rho.witness),
        "m2": str(report.m2.value) if report.m2 else None,
        "m2_witness": list(report.m2.witness) if report.m2 else None,
    }
    if report.m2_pair is not None:
        doc["m2_pair"] = str(report.m2_pair.value)
        doc["m2_pair_witness"] = list(report.m2_pair.witness)
        doc["m2_pair_swapped"] = report.m2_pair.swapped
    return doc


def _cmd_classify(args, G, H) -> dict:
    result = classify(G, H)
    return {**result.to_document(), "citations": [t.citation for t in result.trail]}


def _cmd_enumerate(args, G, H) -> dict:
    bounds = SearchBounds(args.max_v, args.max_e, node_budget=args.budget)
    return enumerate_ramsey_minimal(G, H, bounds).to_document()


def _cmd_threshold(args, G, H) -> None:
    config = ExperimentConfig(
        G=G,
        H=H,
        n_values=tuple(int(x) for x in args.n.split(",")),
        c_values=tuple(args.c.split(",")),
        samples=args.samples,
        seed=args.seed,
        node_budget=args.budget,
    )
    out = sys.stdout
    if args.output:  # opened before the run, so a bad path costs no experiment
        try:
            out = open(args.output, "w")
        except OSError as exc:
            raise ValueError(f"cannot write {args.output!r}: {exc.strerror}") from exc
    try:
        out.write(results_to_csv(run_experiment(config), config.seed))
    finally:
        if out is not sys.stdout:
            out.close()


_REQUIRED_INT = {"type": int, "required": True}

# name, help, graph arguments, extra options, --budget, --format, handler
_COMMANDS = (
    ("arrow", "decide F -> (G,H)", ("F", "G", "H"), {}, True, True, _cmd_arrow),
    ("minimal", "check Ramsey-minimality of F for (G,H)", ("F", "G", "H"), {}, True, True, _cmd_minimal),
    ("density", "density parameters of X", ("X",),
     {"--pair": {"default": None, "help": "second graph for the pair parameter"}}, False, True, _cmd_density),
    ("classify", "Ramsey-finite / Ramsey-infinite verdict", ("G", "H"), {}, False, True, _cmd_classify),
    ("enumerate", "Ramsey-minimal catalog within bounds", ("G", "H"),
     {"--max-v": _REQUIRED_INT, "--max-e": _REQUIRED_INT}, True, True, _cmd_enumerate),
    ("threshold", "Monte Carlo threshold experiment, CSV output", ("G", "H"),
     {"--n": {"required": True, "help": "comma-separated n values"},
      "--c": {"required": True, "help": "comma-separated c values"},
      "--samples": {"type": int, "default": 200},
      "--seed": {"type": int, "default": 0},
      "--output": {"default": None}}, True, False, _cmd_threshold),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and error output goes to the `sys.stderr` of the call."""
    parser = _Parser(prog="ramseykit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, graphs, options, budget, output_format, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for graph in graphs:
            p.add_argument(graph)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                           help="node budget per arrowing search (at least 1)")
        if output_format:
            p.add_argument("--format", choices=["json", "text"], default="json")
        p.set_defaults(func=handler, graphs=graphs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        payload = args.func(args, *(parse_graph_argument(getattr(args, g)) for g in args.graphs))
        if payload is None:
            return 0
        citations = payload.pop("citations", [])
        doc = {"command": args.command, **payload, "citations": citations}
        if args.format == "text":
            for key, value in doc.items():
                print(f"{key}: {value}")
        else:
            # one line: indent= would force the stdlib's pure-Python encoder
            print(json.dumps(doc))
        return 0
    except ValueError as exc:
        sys.stderr.write(f"ramseykit: error: {exc}\n")
        return 1
    except Exception as exc:  # internal failure
        sys.stderr.write(f"ramseykit: internal error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
