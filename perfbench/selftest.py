"""Self-test of the correctness gate: answers known to be wrong must fail.

Run before every benchmark run (``run.py`` calls `run`), and on its own with
``python3 perfbench/selftest.py`` from the repository root. It feeds the
gate a flipped verdict, a corrupted witness coloring and a catalog missing
C5, and also checks that the untouched answers pass, so a gate that fails
everything is caught as well.
"""

from __future__ import annotations

import copy
import os
import sys


def run() -> list:
    """Problems found with the gate; empty when it works."""
    import ramseykit as rk
    import workloads

    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    exact = workloads.Exact(seed=0)
    k5 = next(k for k, (argv, _, _) in enumerate(workloads.EXACT_QUESTIONS) if argv[:2] == ["arrow", "K5"])
    argv, want, _ = workloads.EXACT_QUESTIONS[k5]
    good = exact.ask(argv)
    expect(exact.check_one(argv, want, good) is None, "a correct K5 -/-> (K3,K3) answer fails the gate")

    flipped = copy.deepcopy(good)
    flipped.doc["arrows"] = not flipped.doc["arrows"]
    expect(exact.check_one(argv, want, flipped) is not None, "a flipped verdict passes the gate")

    corrupted = copy.deepcopy(good)
    first = corrupted.doc["witness"][0]
    first["color"] = "blue" if first["color"] == "red" else "red"
    expect(exact.check_one(argv, want, corrupted) is not None, "a corrupted witness coloring passes the gate")

    skipped = workloads.CliAnswer(2, {"stderr": "not asked"})
    answers = [flipped if k == k5 else skipped for k in range(len(workloads.EXACT_QUESTIONS))]
    expect(k5 in exact.check(answers).wrong, "a flipped verdict is not counted as a wrong answer")

    catalog = workloads.Catalog(seed=0)
    G, H = catalog.G, catalog.H
    bounds = catalog.questions[0]
    members = [
        rk.enumeration.CatalogMember(F, rk.is_ramsey_minimal(F, G, H))
        for F in (rk.build_from_text("3K2"), rk.build_from_text("C5"))
    ]
    full = rk.MinimalCatalog((G, H), bounds, members, complete=True)
    expect(not catalog.check([full]).failed, "the catalog {3K2, C5} fails the gate")
    missing_c5 = rk.MinimalCatalog((G, H), bounds, members[:1], complete=True)
    expect(catalog.check([missing_c5]).wrong == {0}, "a catalog missing C5 passes the gate")
    return problems


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    found = run()
    for p in found:
        print(f"gate self-test: {p}", file=sys.stderr)
    print("gate self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
