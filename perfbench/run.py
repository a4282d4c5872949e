"""g0bound benchmark launcher.

    python3 perfbench/run.py --workload opt-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Starts one worker process for the
workload with the BLAS and OpenMP pools capped at one thread and the
checkout's src/ as the only place g0bound is imported from, waits for it,
and relays its output; the last line is the JSON result.  Exits non-zero
without a result when the checkout has no g0bound sources or the worker
fails.

Workloads (see BENCHMARK.json):
  opt-cold      one-shot `bound --rho opt` queries, a fresh model each
  opt-warm      rho-optimized queries against a warmed library session
  verify-fixed  `verify --model all` passes at rhos = (midpoint, fixed rho)
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("opt-cold", "opt-warm", "verify-fixed")
WORKER_TIMEOUT_S = 170

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="g0bound benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "g0bound", "__init__.py")):
        print(f"no g0bound sources under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--declared", os.path.join(ROOT, "BENCHMARK.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
