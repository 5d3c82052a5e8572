"""The four benchmark workloads and their correctness gate.

Each workload builds its inputs from the seed in its constructor (the set-up
the benchmark times), answers one question per `ask` call (the timed closed
loop) and checks the answers with `check`, outside the timed region. Every
call into ramseykit goes through the module attribute (``rk.arrows``, not a
name bound at import), so the tracer's rebinding reaches it.

`check` returns a `Verdicts` record: which questions failed (raised, exited
nonzero, or gave an answer that fails its check), which of those were wrong
answers, and a digest of the answers. Reference values come from
Radziszowski, *Small Ramsey Numbers* (EJC DS1): R(3,3)=6, R(3,4)=9,
R(C3,C4)=7, R(C4,C4)=6; Cockayne-Lorimer (1975): R(mK2,nK2)=2m+n-1 for
m >= n; R(nK2,K3)=2n+1 for n >= 2; and the README's examples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import ramseykit as rk
from ramseykit import cli, randomgraphs

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json")) as _f:
    EXPECTED = json.load(_f)

NODE_BUDGET = 10**7


@dataclass
class Verdicts:
    failed: set = field(default_factory=set)  # question indices
    wrong: set = field(default_factory=set)  # subset of failed: answered, but wrongly
    notes: list = field(default_factory=list)
    digest: str = ""

    def fail(self, index, note, wrong=True):
        self.failed.add(index)
        if wrong:
            self.wrong.add(index)
        self.notes.append(f"q{index}: {note}")


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def _same_graph(a, b) -> bool:
    return a.n == b.n and a.adj == b.adj


def _check_recorded(v: Verdicts, index, key, seed, value):
    """Compare a digest with the one recorded at the seed commit, if any."""
    recorded = EXPECTED[key]
    want = recorded.get(str(seed)) if isinstance(recorded, dict) else recorded
    if want is not None and want != value:
        v.fail(index, f"{key} digest {value} differs from the recorded {want}")


class Threshold:
    """Criterion 8's experiment: G = H = K3, c in C_VALUES, coupled G(n,p)
    draws (one uniform per vertex pair, shared by every c). Two parts:

    - n=12 on the acceptance test's own draws (seed 7, the first 12
      samples). Hard n=12 samples differ a thousandfold in search nodes, so
      fresh n=12 draws made the batch time swing by a third between seeds;
      this part is the same on every seed and its verdicts are recorded.
    - n=8 on fresh samples drawn from the workload seed. n=8 samples are
      cheap, so there are enough of them that the 90th percentile of search
      nodes per question varies by about 4% between seeds (IQR over median,
      8 seeds; 10% with 400 samples).
    """

    C_VALUES = (Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(2))
    PARTS = ((12, "core", 12), (8, "fresh", 2000))  # (n, draws, samples)
    CORE_SEED = 7

    def __init__(self, seed: int):
        self.seed = seed
        self.G = self.H = rk.build_from_text("K3")
        self.questions = []  # (part, n, sample index, c index, F)
        for n, part, samples in self.PARTS:
            draw_seed = self.CORE_SEED if part == "core" else seed
            uniforms = [randomgraphs.edge_uniforms(draw_seed, n, i) for i in range(samples)]
            for ci, c in enumerate(self.C_VALUES):
                p = rk.threshold_p(self.G, self.H, n, c)
                for i, u in enumerate(uniforms):
                    self.questions.append((part, n, i, ci, randomgraphs.graph_from_uniforms(n, p, u)))

    def ask(self, q):
        return rk.arrows(q[4], self.G, self.H, budget=NODE_BUDGET)

    @staticmethod
    def normalize(answer):
        if isinstance(answer, BaseException):
            return "error"
        return {True: "1", False: "0", None: "?"}[answer.arrows]

    def check(self, answers) -> Verdicts:
        v = Verdicts()
        by_sample = {}
        for k, (q, a) in enumerate(zip(self.questions, answers)):
            if isinstance(a, BaseException):
                v.fail(k, f"raised {a!r}", wrong=False)
                continue
            if a.arrows is False:
                w = a.witness
                if w is None or not _same_graph(w.host, q[4].without_isolated()) or not w.is_good(self.G, self.H):
                    v.fail(k, "does-not-arrow witness is not a good coloring of F")
            by_sample.setdefault((q[1], q[2]), []).append((q[3], k, a.arrows))
        # F grows with c on every sample, so arrowing can only switch on.
        for cells in by_sample.values():
            cells.sort()
            for (_, _, lo), (_, k, hi) in zip(cells, cells[1:]):
                if lo is True and hi is False:
                    v.fail(k, "arrows at a smaller c but not at a larger one")
        verdicts = [self.normalize(a) for a in answers]
        core = [s for q, s in zip(self.questions, verdicts) if q[0] == "core"]
        _check_recorded(v, len(answers) - 1, "threshold_core", self.seed, digest(core))
        v.digest = digest(verdicts)
        _check_recorded(v, len(answers) - 1, "threshold", self.seed, v.digest)
        return v


class Catalog:
    """The README ``enumerate 2K2 2K2 --max-v 8 --max-e 10`` example; the
    catalog is exactly {3K2, C5}. The seed does not enter."""

    def __init__(self, seed: int):
        self.seed = seed
        self.G = self.H = rk.build_from_text("2K2")
        self.questions = [rk.SearchBounds(8, 10)]

    def ask(self, bounds):
        return rk.enumerate_ramsey_minimal(self.G, self.H, bounds)

    @staticmethod
    def shape(g):
        """Independent of canon: 3K2 is 6 vertices of degree 1, C5 is a
        connected 5-vertex 2-regular graph."""
        degs = sorted(g.degree(v) for v in range(g.n))
        if g.n == 6 and degs == [1] * 6:
            return "3K2"
        if g.n == 5 and degs == [2] * 5 and g.is_connected():
            return "C5"
        return f"other(n={g.n},m={g.edge_count})"

    def check(self, answers) -> Verdicts:
        v = Verdicts()
        cat = answers[0]
        if isinstance(cat, BaseException):
            v.fail(0, f"raised {cat!r}", wrong=False)
            v.digest = digest("error")
            return v
        shapes = sorted(self.shape(m.graph) for m in cat.members)
        if shapes != ["3K2", "C5"]:
            v.fail(0, f"catalog is {shapes}, expected exactly 3K2 and C5")
        if not cat.complete:
            v.fail(0, "catalog is not complete within its bounds")
        for m in cat.members:
            F = m.graph
            if set(m.minimality.per_edge) != set(F.edges()):
                v.fail(0, f"{self.shape(F)}: per-edge witnesses do not cover E(F)")
            for e, w in m.minimality.per_edge.items():
                if w is None or not _same_graph(w.host, F.delete_edge(*e)) or not w.is_good(self.G, self.H):
                    v.fail(0, f"{self.shape(F)}: witness for deleting {e} is not good")
        v.digest = digest([shapes, cat.complete])
        _check_recorded(v, 0, "catalog", self.seed, v.digest)
        return v


class Density:
    """``density X --pair K3`` over G(n, 0.35) samples from the workload
    seed, SAMPLES at each n; only samples with a cycle (m2 needs one)."""

    ORDERS = (10, 12, 14)
    SAMPLES = 5
    P = 0.35

    def __init__(self, seed: int):
        self.seed = seed
        self.K3 = rk.build_from_text("K3")
        self.questions = []
        for n in self.ORDERS:
            index = 0
            kept = 0
            while kept < self.SAMPLES:
                X = rk.sample_gnp(n, self.P, seed=seed, sample_index=index)
                index += 1
                if X.has_cycle():
                    self.questions.append(X)
                    kept += 1

    def ask(self, X):
        return rk.density_report(X, pair_with=self.K3)

    @staticmethod
    def recount(g, subset):
        s = set(subset)
        if len(s) != len(subset) or not all(0 <= x < g.n for x in subset):
            return None
        return len(s), sum(1 for a, b in g.edges() if a in s and b in s)

    def check(self, answers) -> Verdicts:
        v = Verdicts()
        values = []
        for k, (X, r) in enumerate(zip(self.questions, answers)):
            if isinstance(r, BaseException):
                v.fail(k, f"raised {r!r}", wrong=False)
                values.append("error")
                continue
            values.append([str(r.rho.value), str(r.m2.value), str(r.m2_pair.value), r.m2_pair.swapped])
            got = self.recount(X, r.rho.witness)
            if got is None or got[0] < 1 or Fraction(got[1], got[0]) != r.rho.value:
                v.fail(k, "rho witness does not reach the reported value")
            got = self.recount(X, r.m2.witness)
            if got is None or got[0] < 3 or Fraction(got[1] - 1, got[0] - 2) != r.m2.value:
                v.fail(k, "m2 witness does not reach the reported value")
            # m2(K3) = 2; the pair is ordered so that the first has the larger m2.
            if r.m2_pair.swapped:
                host, inv = self.K3, 1 / r.m2.value
            else:
                host, inv = X, Fraction(1, 2)
            got = self.recount(host, r.m2_pair.witness)
            if got is None or got[0] < 2 or Fraction(got[1]) / (got[0] - 2 + inv) != r.m2_pair.value:
                v.fail(k, "m2(X,K3) witness does not reach the reported value")
            if r.m2_pair.swapped != (r.m2.value < 2):
                v.fail(k, "m2(X,K3) ordered the pair the wrong way")
        v.digest = digest(values)
        _check_recorded(v, len(answers) - 1, "density", self.seed, v.digest)
        return v


def _k_bipartite_graph6(a: int, b: int) -> str:
    """graph6 of K_{a,b}, written here so the input does not come from the
    program under test."""
    n = a + b
    bits = [1 if i < a <= j else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    head = chr(63 + n) if n < 63 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6))
    return head + body


K32_32 = _k_bipartite_graph6(32, 32)

# (argv, expected answer, source). An arrow expectation False also requires
# a good witness coloring; a minimal expectation True requires a good
# coloring for every deleted edge.
EXACT_QUESTIONS = (
    (["arrow", "K6", "K3", "K3"], True, "R(3,3)=6; README"),
    (["arrow", "K5", "K3", "K3"], False, "R(3,3)=6; README"),
    (["minimal", "K6", "K3", "K3"], True, "README"),
    (["density", "K4"], {"rho": "3/2", "m2": "5/2"}, "README"),
    (["density", "K3", "--pair", "K3"], {"rho": "1", "m2": "2", "m2_pair": "2"}, "README"),
    (["classify", "S5+S2", "S3+122K2"], {"verdict": "Finite", "rule": "R7"}, "README"),
    (["classify", "P4", "P4"], {"verdict": "Infinite", "rule": "R4"}, "README"),
    (["arrow", "K8", "K3", "K4"], False, "R(3,4)=9"),
    (["arrow", "K7", "K3", "C4"], True, "R(C3,C4)=7"),
    (["arrow", "K6", "C4", "C4"], True, "R(C4,C4)=6"),
    (["arrow", "K7", "3K2", "K3"], True, "R(nK2,K3)=2n+1"),
    (["arrow", "K8", "4K2", "K3"], False, "R(nK2,K3)=2n+1"),
    (["arrow", "K8", "3K2", "3K2"], True, "R(mK2,nK2)=2m+n-1"),
    (["arrow", "K7", "3K2", "2K2"], True, "R(mK2,nK2)=2m+n-1"),
    (["minimal", "C5", "2K2", "2K2"], True, "catalog for (2K2,2K2)"),
    # Known defect: exits 2 with a RecursionError (DFS depth = edge count).
    (["arrow", K32_32, "K3", "K3"], False, "bipartite host; all-red is good"),
)


@dataclass
class CliAnswer:
    code: int
    doc: dict


class Exact:
    """Fixed questions through ``ramseykit.cli.main(argv)`` in-process, with
    stdout captured and parsed. The seed does not enter."""

    def __init__(self, seed: int):
        self.seed = seed
        self.questions = [argv for argv, _, _ in EXACT_QUESTIONS]
        self.graphs = {}  # graph arguments of arrow/minimal, for witness checks
        for argv in self.questions:
            if argv[0] in ("arrow", "minimal"):
                for text in argv[1:4]:
                    if text not in self.graphs:
                        self.graphs[text] = rk.parse_graph6(text) if text == K32_32 else rk.build_from_text(text)

    def ask(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return CliAnswer(code, json.loads(out.getvalue()) if code == 0 else {"stderr": err.getvalue().strip()})

    def _coloring(self, host, doc):
        assignment = {tuple(item["edge"]): item["color"] for item in doc or ()}
        return rk.EdgeColoring(host, assignment)

    def check_one(self, argv, want, a) -> str | None:
        """None if the answer is right, else what is wrong with it."""
        kind = argv[0]
        if kind == "arrow":
            F, G, H = (self.graphs[t] for t in argv[1:4])
            if a.doc.get("arrows") is not want:
                return f"arrows={a.doc.get('arrows')}, expected {want}"
            if want is False and not self._coloring(F.without_isolated(), a.doc.get("witness")).is_good(G, H):
                return "witness is not a good coloring"
        elif kind == "minimal":
            F, G, H = (self.graphs[t] for t in argv[1:4])
            F = F.without_isolated()
            if a.doc.get("is_ramsey") is not True or a.doc.get("is_minimal") is not want:
                return f"is_ramsey={a.doc.get('is_ramsey')} is_minimal={a.doc.get('is_minimal')}"
            per_edge = {tuple(item["edge"]): item["good_coloring"] for item in a.doc.get("per_edge", ())}
            if set(per_edge) != set(F.edges()):
                return "per-edge witnesses do not cover E(F)"
            for e, w in per_edge.items():
                if not self._coloring(F.delete_edge(*e), w).is_good(G, H):
                    return f"witness for deleting {e} is not good"
        else:
            got = {k: a.doc.get(k) for k in want}
            if got != want:
                return f"{got}, expected {want}"
        return None

    @staticmethod
    def normalize(a):
        if isinstance(a, BaseException):
            return "error"
        if a.code != 0:
            return f"exit {a.code}"
        keys = ("arrows", "is_ramsey", "is_minimal", "rho", "m2", "m2_pair", "verdict", "rule")
        return {k: a.doc[k] for k in keys if k in a.doc}

    def check(self, answers) -> Verdicts:
        v = Verdicts()
        for k, ((argv, want, source), a) in enumerate(zip(EXACT_QUESTIONS, answers)):
            if isinstance(a, BaseException):
                v.fail(k, f"raised {a!r}", wrong=False)
            elif a.code != 0:
                v.fail(k, f"exit {a.code}: {a.doc['stderr'][:120]}", wrong=False)
            else:
                problem = self.check_one(argv, want, a)
                if problem is not None:
                    v.fail(k, f"{' '.join(argv[:4])[:40]} ({source}): {problem}")
        v.digest = digest([self.normalize(a) for a in answers])
        return v


WORKLOADS = {"threshold": Threshold, "catalog": Catalog, "density": Density, "exact": Exact}
