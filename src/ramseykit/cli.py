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
import json
import os
import sys
from fractions import Fraction

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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


def _witness_doc(coloring, labels):
    if coloring is None:
        return None
    return [
        {"edge": [labels[u], labels[v]], "color": color}
        for (u, v), color in sorted(coloring.assignment.items())
    ]


def _emit(doc: dict, args) -> None:
    if args.format == "text":
        for key, value in doc.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(doc, indent=2))


def _cmd_arrow(args) -> int:
    F = parse_graph_argument(args.F)
    G = parse_graph_argument(args.G)
    H = parse_graph_argument(args.H)
    v = arrows(F, G, H, budget=args.budget)
    labels = [u for u in range(F.n) if F.adj[u]]  # F's label of each vertex of F.without_isolated()
    doc = {
        "command": "arrow",
        "arrows": v.arrows,
        "verdict": _VERDICT_WORDS[v.arrows],
        "witness": _witness_doc(v.witness, labels),
        "nodes": v.nodes,
        "elapsed": round(v.elapsed, 6),
        "citations": [],
    }
    _emit(doc, args)
    return 0


def _cmd_minimal(args) -> int:
    F = parse_graph_argument(args.F)
    G = parse_graph_argument(args.G)
    H = parse_graph_argument(args.H)
    rep = is_ramsey_minimal(F, G, H, budget=args.budget)
    labels = [u for u in range(F.n) if F.adj[u]]  # F's label of each vertex of F.without_isolated()
    doc = {
        "command": "minimal",
        "is_ramsey": rep.is_ramsey,
        "is_minimal": rep.is_minimal,
        "per_edge": [
            {"edge": [labels[u], labels[w]], "verdict": _VERDICT_WORDS[v.arrows],
             "good_coloring": _witness_doc(v.witness, labels)}
            for (u, w), v in sorted(rep.edge_verdicts.items())
        ],
        "citations": [],
    }
    _emit(doc, args)
    return 0


def _cmd_density(args) -> int:
    X = parse_graph_argument(args.X)
    pair = parse_graph_argument(args.pair) if args.pair else None
    report = density_report(X, pair_with=pair)
    doc = {
        "command": "density",
        "rho": str(report.rho.value),
        "rho_witness": list(report.rho.witness),
        "m2": str(report.m2.value) if report.m2 else None,
        "m2_witness": list(report.m2.witness) if report.m2 else None,
        "citations": [],
    }
    if report.m2_pair is not None:
        doc["m2_pair"] = str(report.m2_pair.value)
        doc["m2_pair_witness"] = list(report.m2_pair.witness)
        doc["m2_pair_swapped"] = report.m2_pair.swapped
    _emit(doc, args)
    return 0


def _cmd_classify(args) -> int:
    G = parse_graph_argument(args.G)
    H = parse_graph_argument(args.H)
    result = classify(G, H)
    doc = {"command": "classify"}
    doc.update(result.to_document())
    doc["citations"] = [t.citation for t in result.trail]
    _emit(doc, args)
    return 0


def _cmd_enumerate(args) -> int:
    G = parse_graph_argument(args.G)
    H = parse_graph_argument(args.H)
    bounds = SearchBounds(args.max_v, args.max_e, node_budget=args.budget)
    catalog = enumerate_ramsey_minimal(G, H, bounds)
    doc = {"command": "enumerate"}
    doc.update(catalog.to_document())
    doc["citations"] = []
    _emit(doc, args)
    return 0


def _c_value(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"c value {text!r} has a zero denominator") from None


def _cmd_threshold(args) -> int:
    G = parse_graph_argument(args.G)
    H = parse_graph_argument(args.H)
    config = ExperimentConfig(
        G=G,
        H=H,
        n_values=tuple(int(x) for x in args.n.split(",")),
        c_values=tuple(_c_value(x) for x in args.c.split(",")),
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
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramseykit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def budget(p):
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                       help="node budget per arrowing search (at least 1)")

    def output_format(p):
        p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("arrow", help="decide F -> (G,H)")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("H")
    budget(p)
    output_format(p)
    p.set_defaults(func=_cmd_arrow)

    p = sub.add_parser("minimal", help="check Ramsey-minimality of F for (G,H)")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("H")
    budget(p)
    output_format(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("density", help="density parameters of X")
    p.add_argument("X")
    p.add_argument("--pair", default=None, help="second graph for the pair parameter")
    output_format(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("classify", help="Ramsey-finite / Ramsey-infinite verdict")
    p.add_argument("G")
    p.add_argument("H")
    output_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="Ramsey-minimal catalog within bounds")
    p.add_argument("G")
    p.add_argument("H")
    p.add_argument("--max-v", type=int, required=True)
    p.add_argument("--max-e", type=int, required=True)
    budget(p)
    output_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("threshold", help="Monte Carlo threshold experiment, CSV output")
    p.add_argument("G")
    p.add_argument("H")
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--c", required=True, help="comma-separated c values")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    budget(p)
    p.set_defaults(func=_cmd_threshold)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"ramseykit: error: {exc}\n")
        return 1
    except Exception as exc:  # internal failure
        sys.stderr.write(f"ramseykit: internal error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
