import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_exact_workload_runs_and_is_correct():
    # the benchmark traces the library by its public names and result
    # fields; a change to either should fail here, not only in a benchmark run
    argv = [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["arrowing.calls"]["value"] > 0
