import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["exact", "catalog", "threshold"])
def test_traced_workload_runs_and_is_correct(workload):
    # the benchmark traces the library by its public names and result
    # fields; a change to either should fail here, not only in a benchmark run
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "exact":
        assert metrics["arrowing.calls"] > 0
    elif workload == "threshold":
        # the search's work on seed 1: a change to the copy, edge or decision
        # order moves the node count
        assert metrics["arrowing.calls"] == 8048
        assert metrics["arrowing.nodes"] == 84519
        assert metrics["arrowing.unknown"] == 0
    else:
        # graphs that arrow are not grown; extensions that contain a member
        # are dropped before canon
        assert metrics["enumeration.candidates"] == 101
        assert metrics["enumeration.members"] == 2
        # one extension per Aut-orbit of a grown graph, each labeling traced
        assert 0 < metrics["canon.calls"] <= 300
