"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE [--setup-only]

Imports ramseykit from the checkout's ``src``, builds the inputs, answers
every question in a closed loop, checks the answers outside the timed region
and prints one JSON line. ``setup_done`` is ``time.monotonic()`` when the
inputs are built; on Linux that clock is shared between processes, so the
parent subtracts its own spawn time from it. With TRACE=1 the tracer is on
for set-up and the loop, and the spans go to ``perfbench/out``.

The CPU-speed probe (``speed.py``) runs right after set-up, every
``speed.INTERVAL_S`` while the questions are answered, and at the end.
Question times and spans are read from a clock that leaves the probes out,
and each question's time is scaled to the reference speed;
``setup_scale`` is the factor of the first probe, for the set-up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    setup_only = "--setup-only" in argv
    sys.path.insert(0, SRC)
    import ramseykit

    if not os.path.abspath(ramseykit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported ramseykit from {ramseykit.__file__}, not from {SRC}")
    import speed
    import workloads

    sampler = speed.Sampler()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(clock=sampler.clock)
        tracer.install()
        tracer.active = True
    wl = workloads.WORKLOADS[workload](seed)
    setup_done = time.monotonic()
    sampler.sample()
    setup_scale = sampler.factors[0]
    if setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_scale": setup_scale}))
        return 0

    answers, intervals = [], []
    clock = sampler.clock
    sampler.start()
    for q in wl.questions:
        t = clock()
        try:
            answers.append(wl.ask(q))
        except Exception as exc:  # a raising question is a failed question
            answers.append(exc)
        intervals.append((t, clock()))
    sampler.stop()
    latencies = [sampler.scaled(t, u) * 1e3 for t, u in intervals]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {}
    if tracer is not None:
        tracer.active = False
        record["layers"] = tracer.layer_metrics()
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"))
    verdicts = wl.check(answers)
    record.update(
        setup_done=setup_done,
        setup_scale=setup_scale,
        raw_wall_s=sum(u - t for t, u in intervals),
        wall_s=sum(latencies) / 1e3,
        latencies_ms=latencies,
        peak_rss_kb=peak_rss_kb,
        attempted=len(answers),
        failed=len(verdicts.failed),
        wrong=len(verdicts.wrong),
        notes=verdicts.notes[:20],
        digest=verdicts.digest,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
