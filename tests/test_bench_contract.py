"""The benchmark in perfbench/ still runs against this source tree.

Each case starts `perfbench/run.py` for one short run (seed 1, one second of
measurement) and checks the result line the benchmark is judged on: exit
code 0 and a JSON last line with `correct: true` and `failed: 0`.  An
untraced run must report every end-to-end metric of BENCHMARK.json, each
finite and > 0.  A traced run must report every declared per-layer metric,
each finite and >= 0, and find a target for every hook: the tracer patches
package functions by module attribute (`bound.integrate_singular`,
`bound.minimize_scalar`, ...), and a name that disappears silently drops its
metrics.  The worker catches only G0BoundError, so any other exception out
of the package shows up here as a missing result.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)

WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_run_contract(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    if trace:
        assert not any(line.startswith("hooks without a target")
                       for line in lines), proc.stdout
        for spec in DECLARED["per_layer"]:
            name = spec["name"]
            assert name in metrics, name
            value = metrics[name]["value"]
            assert math.isfinite(value) and value >= 0.0, (name, value)
    else:
        for spec in DECLARED["end_to_end"]:
            name = spec["name"]
            assert name in metrics, name
            value = metrics[name]["value"]
            assert math.isfinite(value) and value > 0.0, (name, value)
