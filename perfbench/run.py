"""ramseykit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ramseykit is imported from its ``src``.
Workloads (see ``workloads.py`` and ``README.md``): threshold, catalog,
density, exact. One process with one thread at a time, closed loop: each
repetition is a fresh ``worker.py`` process (so ramseykit's caches start
cold, as for a CLI user) that answers the whole batch, one question after
another. Repetitions run back to back until the next one would end after
``--seconds``, with at least MIN_REPS of them; extra set-up-only processes
bring the set-up samples to MIN_SETUPS.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
built from each question's median time over the repetitions, every time
scaled to the reference CPU speed (``speed.py``, README.md); with
``--trace 1`` untraced and traced
repetitions alternate and it carries the per-layer metrics of the traced
ones plus the tracing overhead. Every answer is checked; a wrong answer
makes ``correct`` false, and any failed question counts in ``failed``.
The gate's self-test runs first; the run exits 3 if the gate is broken, and
exits 2 if there is no ramseykit source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("threshold", "catalog", "density", "exact")
MIN_REPS = 3
MIN_SETUPS = 9
RUN_LIMIT_S = 170  # a run must end within 180 s whatever the program does


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, trace, deadline, setup_only=False):
    argv = [sys.executable, WORKER, workload, str(seed), "1" if trace else "0"]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} worker ran past the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = (rec["setup_done"] - spawned) * rec["setup_scale"]
    return rec


def median_ms(records):
    """Each question's median time over the repetitions; every repetition
    asks the same questions in the same order (see README)."""
    return [statistics.median(times) for times in zip(*(r["latencies_ms"] for r in records))]


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    hard_deadline = started + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ramseykit", "__init__.py")):
        print(f"no ramseykit source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import selftest

    problems = selftest.run()
    if problems:
        for p in problems:
            print(f"gate self-test: {p}", file=sys.stderr)
        return 3

    kinds = (False, True) if args.trace else (False,)  # traced or not, per step
    min_steps = 1 if args.trace else MIN_REPS
    records, steps = [], 0
    while True:
        t = time.monotonic()
        records += [spawn(args.workload, args.seed, trace, hard_deadline) for trace in kinds]
        steps += 1
        now = time.monotonic()
        if steps >= min_steps and now + (now - t) > started + args.seconds:
            break
    plain = [r for r in records if "layers" not in r]
    traced = [r for r in records if "layers" in r]

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = all(r["wrong"] == 0 for r in records)
    for note in sorted({n for r in records for n in r["notes"]}):
        print(f"# {args.workload}: {note}")
    digests = " ".join(sorted({r["digest"] for r in records}))
    walls = " ".join(f"{r['wall_s']:.3f}/{r['raw_wall_s']:.3f}" for r in plain)
    traced_walls = " ".join(f"{r['wall_s']:.3f}/{r['raw_wall_s']:.3f}" for r in traced)
    print(f"# {args.workload} seed={args.seed} digest={digests} rep wall_s scaled/measured: {walls}"
          + (f"; traced: {traced_walls}" if traced else ""))

    if args.trace:
        # median_low keeps counts whole: every value is one traced repetition's
        values = {name: statistics.median_low(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["fail_frac"] = failed / attempted
        values["trace.overhead_s"] = (sum(median_ms(traced)) - sum(median_ms(plain))) / 1e3
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(args.workload, args.seed, False, hard_deadline, setup_only=True)["setup_s"])
        typical_ms = median_ms(plain)
        print(f"# {args.workload}: {len(typical_ms)} questions, each the median of {len(plain)} repetitions; "
              f"{len(setups)} set-ups")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(typical_ms) / 1e3,
            "op_p50_ms": statistics.median(typical_ms),
            "op_p90_ms": p90(typical_ms),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
